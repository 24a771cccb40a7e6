"""Self-test of tools/peak_memory.py: the peak and, with --where, its line."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("peak_memory", ROOT / "tools" / "peak_memory.py")
peak_memory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(peak_memory)


def test_place_is_relative_to_the_repository():
    inner = [str(ROOT / "src" / "bardina" / "spectral.py"), 12, "_forward"]
    outer = ["<string>", 3, "<module>"]
    assert peak_memory._place([inner, outer]) == (
        "src/bardina/spectral.py:12 (_forward) < <string>:3 (<module>)")
    assert peak_memory._place(None) == "unseen"


def test_where_names_a_line_of_the_run():
    # at n = 32 the run peaks above its import; on smaller grids the import
    # may hold the peak, which no sampled return then sees ("unseen")
    imported, peak, top, places, codes = peak_memory.measure(32, 1, where=True)
    assert 0 < imported <= peak == top
    ((place, count),) = places.items()
    assert count == 1 and re.match(r"^\S+:\d+ \(\S+\)", place), place
    assert codes == [None]  # two steps, no CLI run
    assert peak_memory.measure(32, 1)[3] == {}  # no sampling without --where


def test_subcommand_runs_the_cli_in_process():
    # n = 18, the smallest grid that holds the initial band 1..6: lyapunov
    # with its 4 frames, the run with the most arrays, exits 0 above its import
    imported, peak, top, places, codes = peak_memory.measure(18, 1, run="lyapunov")
    assert codes == [0] and 0 < imported < peak == top and places == {}


def test_near_peak_names_the_peak_not_the_creep_after_it():
    # a run that reaches its peak in a step, then creeps a few pages in its
    # report writers and once more after the last sampled return
    step = [["src/bardina/dynamics.py", 200, "step"]]
    writer = [["json/encoder.py", 339, "iterencode"]]
    early = [["src/bardina/fields.py", 80, "generate"]]
    maxima = [(50_000, early), (59_200, step), (59_212, writer), (59_224, writer)]
    assert peak_memory.near_peak(maxima, 59_232) == step
    # a maximum one n = 32 box array (233 kB) below the final peak is not it
    assert peak_memory.near_peak(maxima[:1] + [(50_228, step)], 50_228) == step
    assert peak_memory.near_peak(maxima[:1], 50_228) is None
    assert peak_memory.near_peak([], 50_000) is None
