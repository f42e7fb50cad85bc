"""Fit Holt-Winters on all 465 backtest pool windows of the bundled series,
in pool order and then in reverse, in one process, and print each fit.

    PYTHONPATH=src python3 tools/hw_pool_fits.py

A pool window is (start, length) with 15 <= length and 15 days left after
it for the forecast, in (length, start) order. Each line holds the window,
the repr of every `HwFit` field and of the 15-day forecast, so two runs can
be compared for identical bits. The second pass meets the data-free columns
the first left in `classical`; `tools/bitwise_gate.py` runs this script as
one of its entries, since each of its CLI commands starts a fresh process.
"""

from __future__ import annotations

from casecast import bundled_dataset_path, load_csv
from casecast.classical import hw_fit, hw_forecast

HORIZON = 15


def pool_windows(n_days: int) -> list[tuple[int, int]]:
    return [(start, length) for length in range(HORIZON, n_days - HORIZON + 1)
            for start in range(n_days - HORIZON - length + 1)]


def main() -> None:
    cases = load_csv(bundled_dataset_path()).cases.astype(float)
    pool = pool_windows(len(cases))
    for start, length in pool + pool[::-1]:
        fit = hw_fit(cases[start : start + length])
        fields = [repr(getattr(fit, name)) for name in
                  ("alpha", "beta", "gamma", "phi", "season_length", "level", "trend", "sse")]
        print(start, length, *fields, repr(fit.seasonals.tolist()),
              repr(hw_forecast(fit, HORIZON).tolist()))


if __name__ == "__main__":
    main()
