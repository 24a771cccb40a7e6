"""Self-tests of the benchmark's tracer and definitions.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import refclock
import run
from tracer import LAYERS, Tracer, layer_totals, self_times
from workloads import WORKLOADS


def _span(name, start, end, parent, elems=0):
    return [name, start, end, parent, elems]


def test_self_time_of_nested_spans():
    #  a [0, 10]
    #  |- b [1, 4]
    #  |  `- c [2, 3]
    #  `- d [5, 9]
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("d", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_totals_count_nested_same_layer_once():
    spans = [
        _span("outer", 0.0, 0.010, -1),
        _span("inner", 0.001, 0.004, 0),
        _span("inner", 0.002, 0.003, 1),
        _span("leaf", 0.005, 0.009, 0, elems=7),
    ]
    layers = {"outer": "x", "inner": "y", "leaf": "z"}
    got = layer_totals(spans, layers)
    assert got["x"] == {"calls": 1, "elems": 0, "ms": pytest.approx(10.0),
                        "self_ms": pytest.approx(3.0)}
    # the nested "inner" call adds a call and self time, not inclusive time
    assert got["y"] == {"calls": 2, "elems": 0, "ms": pytest.approx(3.0),
                        "self_ms": pytest.approx(3.0)}
    assert got["z"] == {"calls": 1, "elems": 7, "ms": pytest.approx(4.0),
                        "self_ms": pytest.approx(4.0)}
    total_self = sum(t["self_ms"] for t in got.values())
    assert total_self == pytest.approx(10.0)


def test_fft_calls_and_elements_are_counted_exactly():
    # A caller that bound an FFT by name before the wrappers went in.
    fake = types.ModuleType("fakebench_caller")
    fake.fftn = np.fft.fftn
    sys.modules[fake.__name__] = fake
    originals = {f: getattr(np.fft, f) for f in ("fftn", "ifftn", "rfftn", "irfftn")}
    tracer = Tracer()
    try:
        assert tracer.install_fft(rebind_prefix="fakebench") == []
        np.fft.fftn(np.zeros((4, 4, 4)))                # 64
        np.fft.ifftn(np.zeros((2, 8), dtype=complex))   # 16
        np.fft.rfftn(np.zeros((4, 4, 6)))               # 96
        scipy.fft.fftn(np.zeros((3, 5)))                # 15
        scipy.fft.rfftn(x=np.zeros((4, 4, 4)))          # 64
        scipy.fft.irfftn(np.zeros((4, 4, 3), dtype=complex))  # 48
        fake.fftn(np.zeros(10))                         # 10
    finally:
        tracer.uninstall()
        del sys.modules[fake.__name__]
    totals = layer_totals(tracer.spans)
    assert totals["spectral.fft"]["calls"] == 7
    assert totals["spectral.fft"]["elems"] == 64 + 16 + 96 + 15 + 64 + 48 + 10
    assert [s[0] for s in tracer.spans] == [
        "numpy.fft.fftn", "numpy.fft.ifftn", "numpy.fft.rfftn", "scipy.fft.fftn",
        "scipy.fft.rfftn", "scipy.fft.irfftn", "numpy.fft.fftn",
    ]
    for name, fn in originals.items():
        assert getattr(np.fft, name) is fn
    assert fake.fftn is originals["fftn"]


def test_wrapped_function_keeps_its_result_and_records_its_parent():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: 2 * x)
    outer = tracer.wrap("outer", lambda x: inner(x) + 1)
    assert outer(3) == 7
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0)]


def test_missing_targets_are_recorded_not_raised():
    fake = types.ModuleType("fakebench_mod")
    fake.present = lambda: None
    sys.modules[fake.__name__] = fake
    tracer = Tracer()
    try:
        missing = tracer.install(
            ["fakebench_mod:present", "fakebench_mod:gone",
             "fakebench_mod:Klass.method", "fakebench_no_such_module:f"],
            rebind_prefix="fakebench",
        )
    finally:
        tracer.uninstall()
        del sys.modules[fake.__name__]
    assert missing == ["fakebench_mod:gone", "fakebench_mod:Klass.method",
                       "fakebench_no_such_module:f"]
    assert tracer.missing == missing


def test_calibrate_scales_net_time_to_the_nominal_kernel_speed():
    # The kernel ran at half its nominal speed: 1.8 s net become 0.9 s.
    slow = 2 * refclock.NOMINAL_S
    assert refclock.calibrate(2.0, 0.2, [slow, slow]) == pytest.approx(0.9)


def test_refclock_laps_split_the_sampled_kernel_time():
    clock = refclock.RefClock()
    clock.start()
    end = time.perf_counter() + 3.5 * refclock.INTERVAL_S
    while time.perf_counter() < end:
        pass
    first = clock.lap()
    end = time.perf_counter() + 2.5 * refclock.INTERVAL_S
    while time.perf_counter() < end:
        pass
    second = clock.stop()
    # one sample at start, one per period, one after stop
    assert len(clock.times) >= 1 + 4 + 1
    assert first + second == pytest.approx(sum(clock.times[:-1]))
    assert 0 < first and 0 < second


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    span_layers = {layer for _, _, layer, _ in run.SPAN_METRICS}
    assert span_layers <= set(LAYERS)


def test_workload_inputs_follow_the_seed():
    for w in WORKLOADS.values():
        assert w.ini(3) == w.ini(3)
        assert w.ini(3) != w.ini(4)
