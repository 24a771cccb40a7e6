"""Run configuration: a flat INI file with one section per concern.

SECTIONS states every key once; its default is its attribute in RunConfig()
(in a present [initial] or [force] section: in FieldRecipe).  serialize() and
parse_config() both walk SECTIONS, formatting and parsing each value by the
type of its default.  serialize() writes the fully resolved config so that any
run can be reproduced from its effective-config artifact.
"""

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields, replace

from .dynamics import step_index
from .fields import FieldRecipe
from .spectral import GridSpec, PhysParams

__all__ = ["RunConfig", "ConfigError", "load_config", "parse_config"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    grid: GridSpec = field(default_factory=lambda: GridSpec(16))
    params: PhysParams = field(default_factory=lambda: PhysParams(1.0, 1.0, 1.0))
    initial: FieldRecipe = field(default_factory=lambda: FieldRecipe("taylor_green", 0.1))
    force: FieldRecipe | None = None
    dt: float = 1e-2
    t_end: float = 1.0
    sample_every: int = 10
    tol: float = 1e-10
    relaxation: float = 1.0
    max_iter: int = 200
    m_list: tuple = (1, 2, 4)
    frame_seed: int = 7
    perturb_amplitude: float = 1e-3
    perturb_seed: int = 11
    decay_mode: str = "zero_force"  # or "steady"
    p_list: tuple = (2.0, 4.0, float("inf"))
    f_norm: float | None = None  # None -> from the force recipe

    def serialize(self):
        cp = configparser.ConfigParser()
        for name, attr, keys in SECTIONS:
            obj = getattr(self, attr) if attr else self
            cp[name] = {"kind": "none"} if obj is None else {
                key: _fmt(getattr(obj, ATTR.get(key, key))) for key in keys}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def digest(self):
        return hashlib.sha256(self.serialize().encode()).hexdigest()


RECIPE_KEYS = ("kind", "amplitude", "seed", "k_min", "k_max")
# The INI sections in write order: (section, the RunConfig attribute holding
# the object the section describes, or None for RunConfig itself, keys).
SECTIONS = (
    ("grid", "grid", ("n", "box_len", "dealias_fraction")),
    ("params", "params", ("alpha", "beta", "nu", "eta_c")),
    ("initial", "initial", RECIPE_KEYS),
    ("force", "force", RECIPE_KEYS),
    ("time", None, ("dt", "t_end", "sample_every")),
    ("stationary", None, ("tol", "relaxation", "max_iter")),
    ("lyapunov", None, ("m_list", "frame_seed")),
    ("gap", None, ("perturb_amplitude", "perturb_seed")),
    ("decay", None, ("mode", "p_list")),
    ("bound", None, ("f_norm",)),
)
ATTR = {"mode": "decay_mode"}  # every other key names its attribute
CHOICES = {"decay_mode": ("zero_force", "steady")}
# A present recipe section starts from these; kind = none means no field.
RECIPE_DEFAULTS = {f.name: f.default for f in fields(FieldRecipe)} | {"kind": "none"}
# Checks run once a section is read, beyond those of GridSpec, PhysParams and
# FieldRecipe.  _read requires finite scalar floats; list entries are checked here.
RULES = {
    "initial": (lambda c: c.initial is not None, "kind must not be 'none'"),
    "time": (lambda c: c.dt > 0 and c.t_end >= 0 and c.sample_every >= 1
             and step_index(c.t_end, c.dt) >= 0,  # ValueError off the grid of dt
             "dt > 0, t_end >= 0 and sample_every >= 1 required"),
    "lyapunov": (lambda c: len(c.m_list) >= 1 and min(c.m_list) >= 1 and c.frame_seed >= 0,
                 "m_list must hold at least one frame size, each >= 1; frame_seed >= 0"),
    "gap": (lambda c: c.perturb_seed >= 0, "perturb_seed must be >= 0"),
    "decay": (lambda c: all(p >= 1 for p in c.p_list), "every p in p_list must be >= 1 or inf"),
    "bound": (lambda c: c.f_norm is None or c.f_norm >= 0, "f_norm must be nonnegative"),
}


def _fmt(value):
    """INI text of a value; str of a float is its shortest round-trip repr."""
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    return "from-force" if value is None else str(value)


def _parse(raw, default):
    """Parse INI text by the type of the key's default; a tuple holds
    space-separated items, and a default of None means from-force or a float."""
    if isinstance(default, tuple):
        return tuple(map(type(default[0]), raw.split()))
    if default is None:
        return None if raw == "from-force" else float(raw)
    return type(default)(raw)


def _read(sec, name, keys, base):
    """A present section's values, parsed in key order over `base`; None for kind = none."""
    values = {}
    for key in keys:
        attr = ATTR.get(key, key)
        value = values[attr] = _parse(sec[key], base[attr]) if key in sec else base[attr]
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name}: {key} must be finite, got {value}")
        if attr in CHOICES and value not in CHOICES[attr]:
            raise ValueError(f"{name}: unknown {key} {value!r}")
        if value == "none":
            return None
    return values


def parse_config(text):
    cp = configparser.ConfigParser(interpolation=None)  # a % is plain text
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    schema = {name: keys for name, _, keys in SECTIONS}
    # a [DEFAULT] key is a key of every section, and is checked in each
    unknown = [f"[{s}]" for s in cp.sections() if s not in schema]
    unknown += [f"[{s}] {k}" for s in cp.sections() if s in schema for k in cp[s] if k not in schema[s]]
    if cp.defaults() and not schema.keys() & cp.sections():  # no section reads them
        unknown.append(f"[DEFAULT] {', '.join(cp.defaults())}")
    if unknown:
        raise ConfigError(f"unknown section or key: {', '.join(unknown)}")
    cfg = RunConfig()
    try:
        for name, attr, keys in SECTIONS:
            if not cp.has_section(name):
                continue
            obj = getattr(cfg, attr) if attr else cfg
            recipe = attr in ("initial", "force")
            values = _read(cp[name], name, keys, RECIPE_DEFAULTS if recipe else vars(obj))
            obj = (values and FieldRecipe(**values)) if recipe else replace(obj, **values)
            cfg = replace(cfg, **{attr: obj}) if attr else obj
            if name in RULES and not RULES[name][0](cfg):
                raise ValueError(f"{name}: {RULES[name][1]}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())
