"""Fast self-test of the benchmark: each workload at tiny sizes, untraced
and traced, checked against the metric list in BENCHMARK.json.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

The file name keeps it out of the repository's default pytest collection,
so the tier-1 suite is unchanged.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(study_epochs=2, fit_seq7_epochs=2, backtest_windows=2, setup_reps=1)
SEED = 7
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def check_workload(name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        outcome, metrics, _ = run.measure(name, SEED, 0, trace, TINY)
        line = json.loads(run.result_line(outcome, metrics))
        if set(line) != {"correct", "attempted", "failed", "metrics"}:
            raise AssertionError(f"{name}: result keys {sorted(line)}")
        if not line["correct"] or line["failed"] or line["attempted"] < 1:
            raise AssertionError(f"{name} trace={trace}: {outcome}")
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        if got != expected:
            raise AssertionError(f"{name} trace={trace}: metrics {got} != {expected}")
        for key, value in line["metrics"].items():
            if not isinstance(value["value"], (int, float)) or not math.isfinite(value["value"]):
                raise AssertionError(f"{name} trace={trace}: {key} = {value['value']!r}")


def test_study():
    check_workload("study")


def test_backtest():
    check_workload("backtest")


def test_fit_seq7():
    check_workload("fit_seq7")


def test_grid_spans_the_pool_and_only_its_order_is_seeded():
    pool = workloads.backtest_windows(59)
    if len(pool) != 465:
        raise AssertionError(len(pool))
    first = workloads.grid_windows(59, 14, 1)
    if first != workloads.grid_windows(59, 14, 1) or sorted(first) != sorted(
            workloads.grid_windows(59, 14, 2)):
        raise AssertionError("the grid must be fixed and its order seeded")
    lengths = {length for _, length in first}
    if len(lengths) != 14 or min(lengths) > 16 or max(lengths) < 39:
        raise AssertionError(f"grid does not span the window lengths: {first}")


if __name__ == "__main__":
    for test in (test_grid_spans_the_pool_and_only_its_order_is_seeded, test_fit_seq7, test_study,
                 test_backtest):
        test()
        print(f"{test.__name__}: ok")
