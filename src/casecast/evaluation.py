"""Per-day absolute-percentage-error reports, the layout of the report
`reproduce` writes, and the CSV and SVG artifacts.

This module owns the study's layout: the names of the five artifacts
(ARTIFACTS), the label of each row (a classical model's name, or an LSTM's
schema and activation, "U1-elu"), table 2's columns (TABLE2) and each
figure's curves (FIGURES). `study_report` turns the study's forecasts into
everything `reproduce` writes and prints, so its caller only fits, checks
that ARTIFACTS can be written, writes each artifact and prints.

`summarize`, `mape_cell` and `study_report` are pure; `write_lines`,
`write_summary_csv` and the `emit_*` functions write files. Every artifact
is byte-deterministic for identical inputs.
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


# published reference results and the tolerance band `reproduce` checks:
# model -> (row label, reference mape, reference std, band)
REFERENCE = {
    "lstm-u1": ("U1-elu", 0.70, 0.30, 2.0),
    "lstm-u2": ("U2-elu", 1.69, 1.35, 5.0),
    "lstm-u3": ("U3-elu", 0.99, 0.51, 5.0),
    "arima": ("arima", 3.24, 1.56, 1.5),
    "hwaas": ("hwaas", 0.47, 0.28, 0.5),
}

# table2's columns, by row label
TABLE2 = ("U1-elu", "U2-elu", "U3-elu", "arima", "prophet-lite", "hwaas")

# each figure: the actuals, then (legend name, row label) per curve
FIGURES = {"fig3.svg": (("u1", "U1-elu"), ("u2", "U2-elu"), ("u3", "U3-elu")),
           "fig4.svg": (("U2", "U2-elu"), ("ARIMA", "arima"), ("HWAAS", "hwaas"),
                        ("prophet-lite", "prophet-lite"))}

# every file `reproduce` writes, each from one entry of `study_report`
ARTIFACTS = ("table1.csv", "table2.csv", *FIGURES, "summary.md")


def mape_cell(mape: float, std: float) -> str:
    """The one table cell format of a MAPE and its standard deviation."""
    return f"{mape:.2f}±{std:.2f}"


def study_report(classical: dict, lstms: dict, actuals, dates, *, seed: int, train_start,
                 train_end, horizon: int, lookback: int, epochs: int):
    """Everything `reproduce` writes and prints, from the forecasts of every
    row, the actuals and dates of the horizon, and the run's settings.
    Writes nothing.

    `classical` maps a classical model's name ("arima", "hwaas",
    "prophet-lite") to its forecasts; `lstms` is what `forecast_schemas`
    returns, {(schema, config): (model, forecasts)}, and each of its rows is
    labelled by schema and activation ("U1-elu" ... "U3-tanh"). `summarize`
    scores each row once, under its label.

    Returns (texts, tables, plots, stdout), keyed by the names in
    ARTIFACTS: texts {"table1.csv": lines, "summary.md": lines} for
    `write_lines`, tables {"table2.csv": reports in TABLE2's order} for
    `emit_table`, plots {name: (series, x labels)} per FIGURES entry for
    `emit_plot`, and the stdout lines. Table 1 is the activation ablation.
    Each REFERENCE row gets one band verdict: a classical model must lie
    within `band` of its reference MAPE, an LSTM at or below `band`. Stdout
    is ASCII.
    """
    rows = classical | {f"{schema.upper()}-{cfg.activation}": forecasts
                        for (schema, cfg), (_, forecasts) in lstms.items()}
    reports = {label: summarize(forecasts, actuals, label) for label, forecasts in rows.items()}
    table1 = ["activation,u1,u2,u3"]
    for activation in ("tanh", "elu"):
        row = [reports[f"{schema}-{activation}"] for schema in ("U1", "U2", "U3")]
        table1.append(",".join([activation] + [mape_cell(r.mape, r.std) for r in row]))
    summary = [
        "# Reproduction summary",
        "",
        f"Seed: {seed}; train window {train_start}..{train_end}; "
        f"horizon {horizon}; lookback {lookback}; epochs {epochs}.",
        "",
        "| model | MAPE (this run) | reference | within band |",
        "|-------|-----------------|-----------|-------------|",
    ]
    stdout = []
    for name, (label, ref, ref_std, band) in REFERENCE.items():
        r = reports[label]
        ok = abs(r.mape - ref) <= band if name in ("arima", "hwaas") else r.mape <= band
        summary.append(f"| {name} | {mape_cell(r.mape, r.std)} | {mape_cell(ref, ref_std)} | "
                       f"{'yes' if ok else 'NO'} |")
        stdout.append(f"{name}: MAPE {r.mape:.2f} % (reference {ref:.2f} %)")
    pl = reports["prophet-lite"]
    summary += [
        "",
        f"prophet-lite MAPE {mape_cell(pl.mape, pl.std)} % (qualitative check only: "
        "horizon-growth pattern, not an equality target).",
        "",
        "Outputs: table1.csv (activation ablation), table2.csv (per-day errors),",
        "fig3.svg (LSTM schemas), fig4.svg (method comparison).",
    ]
    stdout.append(f"prophet-lite: MAPE {pl.mape:.2f} % (qualitative only)")
    x_labels = [d.isoformat() for d in dates]
    plots = {name: ([("actual", actuals)] + [(shown, rows[label]) for shown, label in curves],
                    x_labels) for name, curves in FIGURES.items()}
    return ({"table1.csv": table1, "summary.md": summary},
            {"table2.csv": [reports[label] for label in TABLE2]}, plots, stdout)


def write_lines(path: str, lines: list[str]) -> None:
    """Write `lines` to `path` as UTF-8 text, each ending in LF, whatever
    the locale, so an artifact's bytes do not depend on the machine."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_table(reports: list[ErrorReport], path: str) -> None:
    """Day-by-day APE CSV, one column per model, plus a MAPE row.

    Cells are 2-decimal percentages with a full-precision companion column
    per model. No report, or reports of unequal horizons, is a ValueError.
    """
    horizons = sorted({len(r.apes) for r in reports})
    if len(horizons) != 1:
        raise ValueError(f"emit_table needs reports of one horizon, got horizons {horizons}")
    (horizon,) = horizons
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
        row += [mape_cell(r.mape, r.std), repr(float(r.mape))]
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
    x axis, drawn in list order, so the first series lies underneath the
    rest. A series named 'actual' is drawn in black. A NaN or infinite value
    is a ValueError naming its series."""
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
