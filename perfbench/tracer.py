"""Span tracer for the benchmark: wraps functions from outside the program.

A span is one call of a wrapped function: (name, start, end, parent), where
parent is the index of the enclosing span or -1.  Spans stay in memory and
are written out once, when the traced process ends.  FFT spans also carry
the number of input elements.

Layers group span names; `layer_totals` turns a span list into calls,
elements, inclusive milliseconds and self milliseconds per layer.  A layer's
self time is its spans' durations minus the time covered by their direct
child spans.
"""

import functools
import importlib
import sys
import time

FFT_FUNCS = ("fftn", "ifftn", "rfftn", "irfftn")
FFT_MODULES = ("numpy.fft", "scipy.fft")

# Layer name -> wrapped targets, each "module:qualname".  A target missing
# from the program is recorded as absent, never an error: later versions of
# the solver may rename or remove any of these.
LAYERS = {
    "spectral.fft": [f"{m}:{f}" for m in FFT_MODULES for f in FFT_FUNCS],
    "spectral.products": [
        "bardina.spectral:tensor_product_spectra",
        "bardina.attractor:_transport_pair",
    ],
    "spectral.symbols": [
        "bardina.spectral:helmholtz_filter",
        "bardina.spectral:leray_project",
        "bardina.spectral:gradient",
        "bardina.spectral:divergence",
        "bardina.spectral:laplacian",
        "bardina.spectral:dealias",
    ],
    "spectral.div_check": ["bardina.spectral:VectorField.div_defect"],
    "spectral.norms": [
        "bardina.spectral:norms",
        "bardina.spectral:h1alpha_inner",
        "bardina.spectral:l2_inner",
    ],
    "dynamics.step": ["bardina.dynamics:step"],
    "dynamics.nonlinear": ["bardina.dynamics:nonlinear_term"],
    "dynamics.diagnostics": [
        "bardina.dynamics:sample_diagnostics",
        "bardina.dynamics:cfl_cap",
        "bardina.dynamics:energy_budget_residual",
        "bardina.dynamics:decay_envelope_check",
        "bardina.dynamics:absorbing_ball_entry",
    ],
    "stationary.map": ["bardina.stationary:stationary_map"],
    "stationary.solve": ["bardina.stationary:solve_stationary"],
    "attractor.linearized": ["bardina.attractor:linearized_rhs"],
    "attractor.frame": [
        "bardina.attractor:transport_frame",
        "bardina.attractor:orthonormalize",
        "bardina.attractor:OrthoFrame.gram_defect",
    ],
    "attractor.convergence": ["bardina.attractor:steady_convergence"],
    "checkpoint.write": ["bardina.checkpoint:write_checkpoint"],
    "fields.generate": ["bardina.fields:generate"],
    "config.load": ["bardina.config:load_config"],
    "cli.main": ["bardina.cli:main"],
}


def _size(args, kwargs):
    a = args[0] if args else kwargs.get("x", kwargs.get("a"))
    size = getattr(a, "size", None)
    if size is None:  # a list or other array-like
        import numpy

        size = numpy.size(a)
    return int(size)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, elems]
        self.missing = []  # targets not found in the program
        self._stack = [-1]
        self._undo = []

    def wrap(self, name, fn, count_elems=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1], _size(args, kwargs) if count_elems else 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, targets, rebind_prefix, count_elems=False):
        """Wrap each "module:qualname" target where it is defined and rebind
        every module-level name under `rebind_prefix` that refers to it, so
        callers that did `from module import name` are traced too.  Returns
        the targets that could not be found."""
        missing = []
        for target in targets:
            modname, qualname = target.split(":")
            try:
                owner = importlib.import_module(modname)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(target)
                continue
            wrapped = self.wrap(f"{modname}.{qualname}", orig, count_elems)
            self._set(owner, attr, wrapped)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", None)
                if not isinstance(name, str) or not name.startswith(rebind_prefix):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)
        self.missing.extend(missing)
        return missing

    def install_fft(self, rebind_prefix="bardina"):
        """Wrap the complex and real n-d FFTs of numpy.fft and scipy.fft."""
        return self.install(LAYERS["spectral.fft"], rebind_prefix, count_elems=True)

    def install_layers(self, rebind_prefix="bardina"):
        """Wrap every non-FFT layer target (import the program first)."""
        for layer, targets in LAYERS.items():
            if layer != "spectral.fft":
                self.install(targets, rebind_prefix)
        return self.missing

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)


def span_layers():
    """Span name -> layer name for every target in LAYERS."""
    out = {}
    for layer, targets in LAYERS.items():
        for t in targets:
            out[t.replace(":", ".")] = layer
    return out


def self_times(spans):
    """Per-span self time: duration minus the time covered by direct
    children, each child clipped to its parent's interval."""
    selfs = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            selfs[parent] -= max(0.0, min(end, p_end) - max(start, p_start))
    return selfs


def layer_totals(spans, layers=None):
    """Aggregate spans into {layer: {calls, elems, ms, self_ms}}.

    `ms` is inclusive time counted once: a span nested inside another span
    of the same layer adds nothing to it.  Spans whose name belongs to no
    layer are ignored.
    """
    layers = span_layers() if layers is None else layers
    selfs = self_times(spans)
    span_layer = [layers.get(s[0]) for s in spans]
    out = {}
    for i, (_, start, end, parent, elems) in enumerate(spans):
        layer = span_layer[i]
        if layer is None:
            continue
        t = out.setdefault(layer, {"calls": 0, "elems": 0, "ms": 0.0, "self_ms": 0.0})
        t["calls"] += 1
        t["elems"] += elems
        t["self_ms"] += 1e3 * selfs[i]
        while parent >= 0 and span_layer[parent] != layer:
            parent = spans[parent][3]
        if parent < 0:
            t["ms"] += 1e3 * (end - start)
    return out
