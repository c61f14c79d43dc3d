"""scripts/bench_summary.py's verdicts, on synthetic runs of ten pairs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"
METRICS = [
    {"name": "lower", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "higher", "unit": "s", "better": "higher", "bound": 0.25},
]


@pytest.fixture(scope="module")
def bench_summary():
    spec = importlib.util.spec_from_file_location("bench_summary", PATH)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def runs(values: list[float]) -> list[dict]:
    """Runs that read `values` on the better-lower metric and their negatives,
    the mirror image, on the better-higher one."""
    return [{"metrics": {"lower": v, "higher": -v}} for v in values]


# ten parent runs 1.00 to 1.09: q3 - q1 is 0.055, far inside the 0.25 bound
TIGHT = [1.0 + 0.01 * i for i in range(10)]
# ten parent runs 1.0 to 1.6: q3 - q1 is 0.37, wider than 0.25 of the median
WIDE = [1.0 + 0.6 * i / 9 for i in range(10)]


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        # 10 of 10 pairs won, medians 0.1 apart
        (TIGHT, [v - 0.1 for v in TIGHT], "gain"),
        # 9 of 10 won still counts
        (TIGHT, [v - 0.1 for v in TIGHT[:9]] + [1.2], "gain"),
        # 8 of 10 won does not
        (TIGHT, [v - 0.1 for v in TIGHT[:8]] + [1.2, 1.2], "within bound"),
        # 10 of 10 won, but the medians differ by less than the parent's q3 - q1
        (TIGHT, [v - 0.01 for v in TIGHT], "within bound"),
        (TIGHT, TIGHT, "within bound"),
        # worse by 20%, inside the bound, and by 30%, past it
        (TIGHT, [1.2 * v for v in TIGHT], "within bound"),
        (TIGHT, [1.3 * v for v in TIGHT], "regression"),
        # a regression past the bound stays one however wide the parent's spread
        (WIDE, [1.5 * v for v in WIDE], "regression"),
        (WIDE, WIDE[::-1], "unresolved"),
        # every change run beats every parent run, by less than q3 - q1
        (WIDE, [0.99] * 10, "within bound"),
    ],
)
def test_verdicts(bench_summary, parent, change, verdict):
    got = bench_summary.verdicts(runs(parent), runs(change), METRICS)
    assert got == {"lower": verdict, "higher": verdict}


def test_pair_ratios_on_three_pairs(bench_summary):
    # ratios change/parent 0.5, 1.5 and 0.75, on both metrics
    got = bench_summary.pair_ratios(runs([1.0, 2.0, 4.0]), runs([0.5, 3.0, 3.0]), METRICS)
    want = {"median": 0.75, "min": 0.5, "max": 1.5}
    assert got == {"lower": want, "higher": want}


def test_peak_rss_levels(bench_summary):
    # runs on two levels about 1 MB apart read as two levels, with their counts
    rss = [76.38, 75.43, 76.42, 75.41, 76.36, 75.44, 75.38]
    got = bench_summary.peak_rss_levels([{"metrics": {"peak_rss_mb": v}} for v in rss])
    assert got == [[75.4, 4], [76.4, 3]]


# each kind of line: 7 of its 18 lines are code
KINDS = '''"""Module docstring,
on two lines."""

# a comment-only line
import os  # code, with a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring,

        with a blank line inside."""
        x = """a string that is not a docstring,
        on two lines"""  # code, both lines
        return (x,  # code
                os)  # code
'''


def test_line_counts(bench_summary, tmp_path):
    files = {"src/hemodelay/a.py": "1\n2\n3", "src/hemodelay/b.py": KINDS,
             "src/hemodelay/default.cfg": "x\n",
             "tests/test_a.py": "1\n\n2\n", "tests/conftest.py": ""}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert bench_summary.line_counts(tmp_path) == {
        "src_lines": 21, "src_module_lines": {"a": 3, "b": 18},
        "src_code_lines": 10, "src_module_code_lines": {"a": 3, "b": 7},
        "tests_lines": 3, "tests_module_lines": {"conftest": 0, "test_a": 3},
        "tests_code_lines": 2, "tests_module_code_lines": {"conftest": 0, "test_a": 2},
    }
