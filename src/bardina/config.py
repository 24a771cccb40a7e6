"""Run configuration: a flat INI file with one section per concern.

SECTIONS states every key once; its default is its attribute in RunConfig()
(in a present [initial] or [force] section: in FieldRecipe).  Both are
namedtuples, as are GridSpec and PhysParams, whose _replace checks the
values as their constructors do.  serialize() and
parse_config() both walk SECTIONS, formatting and parsing each value by the
type of its default.  serialize() writes the fully resolved config so that any
run can be reproduced from its effective-config artifact.
"""

import configparser
import hashlib
import io
import math
import os
from collections import namedtuple

from .dynamics import step_index
from .fields import FieldRecipe
from .spectral import GridSpec, PhysParams

__all__ = ["RunConfig", "ConfigError", "load_config", "parse_config"]


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "grid": GridSpec(16),
    "params": PhysParams(1.0, 1.0, 1.0),
    "initial": FieldRecipe("taylor_green", 0.1),
    "force": None,  # or a FieldRecipe
    "dt": 1e-2,
    "t_end": 1.0,
    "sample_every": 10,
    "tol": 1e-10,
    "relaxation": 1.0,
    "max_iter": 200,
    "m_list": (1, 2, 4),
    "frame_seed": 7,
    "perturb_amplitude": 1e-3,
    "perturb_seed": 11,
    "decay_mode": "zero_force",  # or "steady"
    "p_list": (2.0, 4.0, float("inf")),
    "f_norm": None,  # None -> from the force recipe
}


class RunConfig(namedtuple("RunConfig", _DEFAULTS, defaults=_DEFAULTS.values())):
    __slots__ = ()

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
RECIPE_DEFAULTS = FieldRecipe._field_defaults | {"kind": "none"}
# Checks run once a section is read, beyond those of GridSpec, PhysParams and
# FieldRecipe.  _read requires finite scalar floats; list entries are checked here.
RULES = {
    "grid": (lambda c: peak_bytes(c.grid.n) <= physical_memory(),
             "n is too large: a run's estimated peak memory (peak_bytes) exceeds the "
             "physical memory"),
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


def peak_bytes(n):
    """Estimated peak memory of a run on an n-grid, in bytes: above the peak
    resident set of a process that imports bardina.cli, generates two
    random_band fields and takes two steps (tools/peak_memory.py), at most
    43.8, 55.8 and 163.2 MB (1e6 bytes) at n = 32, 64 and 128, by 2.0 MB or
    more; the slope lies above that of n = 64 to 128, 58.5 bytes."""
    return 43e6 + 85 * n**3


def physical_memory():
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


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


def _read(sec, keys, base):
    """A present section's values, parsed in key order over `base`; None for kind = none."""
    values = {}
    for key in keys:
        attr = ATTR.get(key, key)
        value = values[attr] = _parse(sec[key], base[attr]) if key in sec else base[attr]
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
        if attr in CHOICES and value not in CHOICES[attr]:
            raise ValueError(f"unknown {key} {value!r}")
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
            values = _read(cp[name], keys, RECIPE_DEFAULTS if recipe else obj._asdict())
            obj = (values and FieldRecipe(**values)) if recipe else obj._replace(**values)
            cfg = cfg._replace(**{attr: obj}) if attr else obj
            if name in RULES and not RULES[name][0](cfg):
                raise ValueError(RULES[name][1])
    except ValueError as exc:  # those of GridSpec, PhysParams and FieldRecipe included
        raise ConfigError(f"{name}: {exc}") from exc
    return cfg


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())
