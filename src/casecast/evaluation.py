"""Per-day absolute-percentage-error reports, table emission, and
plot-ready SVG artifacts. Pure functions; table and plot output is
byte-deterministic for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ErrorReport:
    model: str
    schema: str
    apes: np.ndarray  # per-day APE percentages, day order
    mape: float
    std: float  # population (divide-by-N) standard deviation


def ape_series(actuals, forecasts) -> np.ndarray:
    """Per-entry |actual - forecast| / actual * 100; every actual must be
    positive."""
    actuals = np.asarray(actuals, dtype=float)
    forecasts = np.asarray(forecasts, dtype=float)
    if actuals.shape != forecasts.shape:
        raise ValueError("length mismatch between actuals and forecasts")
    if np.any(actuals <= 0):
        raise ValueError("actuals must be positive")
    return np.abs(actuals - forecasts) / actuals * 100.0


def summarize(forecasts, actuals, model: str, schema: str = "") -> ErrorReport:
    """Per-day APEs plus mean and population (divide-by-N) standard
    deviation over the horizon. A NaN or infinite input is a ValueError
    naming the model."""
    for label, values in (("forecast", forecasts), ("actual", actuals)):
        if not np.all(np.isfinite(np.asarray(values, dtype=float))):
            raise ValueError(f"non-finite {label} value for model {model!r}")
    apes = ape_series(actuals, forecasts)
    return ErrorReport(model, schema, apes, float(np.mean(apes)), float(np.std(apes)))


def write_lines(path: str, lines: list[str]) -> None:
    """Write `lines` to `path` as UTF-8 text, each ending in LF, whatever
    the locale, so an artifact's bytes do not depend on the machine."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_table(reports: list[ErrorReport], path: str) -> None:
    """Day-by-day APE CSV, one column per model, plus a MAPE row.

    Cells are 2-decimal percentages with a full-precision companion column
    per model.
    """
    horizon = len(reports[0].apes)
    for r in reports:
        if len(r.apes) != horizon:
            raise ValueError("reports disagree on horizon length")
    header = ["day"]
    for r in reports:
        header += [r.model, f"{r.model}_raw"]
    lines = [",".join(header)]
    for day in range(horizon):
        row = [str(day + 1)]
        for r in reports:
            row += [f"{r.apes[day]:.2f}", repr(float(r.apes[day]))]
        lines.append(",".join(row))
    row = ["MAPE"]
    for r in reports:
        row += [f"{r.mape:.2f}±{r.std:.2f}", repr(float(r.mape))]
    lines.append(",".join(row))
    write_lines(path, lines)


def write_summary_csv(reports: list[ErrorReport], path: str) -> None:
    """Companion summary: model,schema,mape,std,convention (the std is
    always the population one)."""
    lines = ["model,schema,mape,std,convention"]
    for r in reports:
        lines.append(f"{r.model},{r.schema},{r.mape!r},{r.std!r},population")
    write_lines(path, lines)


_WIDTH, _HEIGHT = 800, 500  # the SVG canvas, in pixels

_PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
]


def emit_plot(
    series: list[tuple[str, np.ndarray]],
    x_labels: list[str],
    path: str,
) -> None:
    """Static SVG 1.1 line chart: one polyline per named series over a shared
    x axis. The first series is drawn last (on top) in black when it is the
    actuals trace named 'actual'. A NaN or infinite value is a ValueError
    naming its series."""
    if not series:
        raise ValueError("nothing to plot")
    n = len(x_labels)
    for name, values in series:
        if len(values) != n:
            raise ValueError(f"series {name!r} length != axis length")
        if not np.all(np.isfinite(np.asarray(values, dtype=float))):
            raise ValueError(f"series {name!r} has a non-finite value")
    margin = 60
    plot_w = _WIDTH - 2 * margin
    plot_h = _HEIGHT - 2 * margin
    all_values = np.concatenate([np.asarray(v, dtype=float) for _, v in series])
    lo, hi = float(all_values.min()), float(all_values.max())
    if hi == lo:
        hi = lo + 1.0

    def sx(i):
        return margin + plot_w * (i / max(n - 1, 1))

    def sy(v):
        return margin + plot_h * (1.0 - (v - lo) / (hi - lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{margin}" y1="{_HEIGHT - margin}" x2="{_WIDTH - margin}" '
        f'y2="{_HEIGHT - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{_HEIGHT - margin}" stroke="black"/>',
    ]
    for idx, (name, values) in enumerate(series):
        color = "black" if name == "actual" else _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{sx(i):.2f},{sy(float(v)):.2f}" for i, v in enumerate(values)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - margin + 4}" y="{margin + 16 * idx + 10}" '
            f'font-size="12" fill="{color}">{name}</text>'
        )
    step = max(1, (n - 1) // 6)
    for i in range(0, n, step):
        parts.append(
            f'<text x="{sx(i):.2f}" y="{_HEIGHT - margin + 16}" font-size="10" '
            f'text-anchor="middle">{x_labels[i]}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        v = lo + frac * (hi - lo)
        parts.append(
            f'<text x="{margin - 6}" y="{sy(v):.2f}" font-size="10" '
            f'text-anchor="end">{v:.0f}</text>'
        )
    parts.append("</svg>")
    write_lines(path, parts)
