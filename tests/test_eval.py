import datetime as dt
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from casecast.evaluation import (
    ARTIFACTS,
    ErrorReport,
    ape_series,
    emit_plot,
    emit_table,
    mape_cell,
    study_report,
    summarize,
    write_summary_csv,
)
from casecast.lstm import TrainConfig

# HWAAS per-day APE column as printed in the reference error table
HWAAS_COLUMN = [
    0.12, 0.11, 0.25, 0.71, 0.82, 0.38, 0.14, 0.19,
    0.33, 0.64, 0.93, 0.97, 0.64, 0.47, 0.34,
]


class TestApe:
    def test_exact_forecast(self):
        assert ape_series([100.0], [100.0])[0] == 0.0

    def test_five_percent(self):
        assert ape_series([200.0], [190.0])[0] == 5.0

    def test_zero_forecast(self):
        assert ape_series([100.0], [0.0])[0] == 100.0

    def test_nonpositive_actual(self):
        for actual in (0.0, -1.0):
            with pytest.raises(ValueError):
                ape_series([100.0, actual], [1.0, 1.0])

    @settings(derandomize=True)
    @given(
        st.floats(min_value=1e-3, max_value=1e9),
        st.floats(min_value=-1e9, max_value=1e9),
        st.one_of(st.integers(-19, 19).map(lambda j: 2.0**j), st.floats(1e-6, 1e6)),
    )
    # actual and forecast nearly cancel, so the scaled APE differs in its 9th digit
    @example(999998444.0, 999998478.9999999, 3.0)
    def test_scale_invariance(self, actual, forecast, k):
        scaled = ape_series([k * actual], [k * forecast])
        ape = ape_series([actual], [forecast])
        if math.frexp(k)[0] == 0.5 or actual == forecast:
            # a power of two scales without rounding; equal inputs give 0 exactly
            assert scaled.tobytes() == ape.tobytes()
        else:
            # each of the two products is rounded, and |a - f| magnifies their
            # error by (|a| + |f|) / |a - f|; six more roundings follow
            u = 2.0**-53
            rtol = 2 * u * ((abs(actual) + abs(forecast)) / abs(actual - forecast) + 6)
            np.testing.assert_allclose(scaled, ape, rtol=rtol, atol=0)


class TestSummarize:
    def test_perfect_forecasts(self):
        rep = summarize(np.full(15, 7.0), np.full(15, 7.0), "m")
        assert rep.mape == 0.0 and rep.std == 0.0
        np.testing.assert_array_equal(rep.apes, 0.0)

    def test_two_point_statistics(self):
        rep = summarize(np.array([99.0, 97.0]), np.array([100.0, 100.0]), "m")
        np.testing.assert_allclose(rep.apes, [1.0, 3.0])
        assert rep.mape == 2.0 and rep.std == 1.0

    def test_mean_matches_apes_exactly(self):
        rng = np.random.default_rng(1)
        actual = rng.uniform(50, 150, 15)
        forecast = actual * rng.uniform(0.9, 1.1, 15)
        rep = summarize(forecast, actual, "m")
        assert abs(rep.mape - np.mean(rep.apes)) < 1e-12

    def test_permutation_covariance(self):
        rng = np.random.default_rng(2)
        actual = rng.uniform(50, 150, 15)
        forecast = actual * rng.uniform(0.9, 1.1, 15)
        perm = rng.permutation(15)
        a = summarize(forecast, actual, "m")
        b = summarize(forecast[perm], actual[perm], "m")
        np.testing.assert_allclose(np.sort(a.apes), np.sort(b.apes))
        assert np.isclose(a.mape, b.mape) and np.isclose(a.std, b.std)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            summarize(np.ones(3), np.ones(4), "m")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_names_the_model(self, bad):
        values = np.full(15, 100.0)
        broken = values.copy()
        broken[4] = bad
        with pytest.raises(ValueError, match="forecast value for model 'U2-elu'"):
            summarize(broken, values, "U2-elu")
        with pytest.raises(ValueError, match="actual value for model 'arima'"):
            summarize(values, broken, "arima")

    def test_reference_column_recomputation(self):
        apes = np.array(HWAAS_COLUMN)
        assert round(float(np.mean(apes)), 2) == 0.47
        population = float(np.std(apes))
        sample = float(np.std(apes, ddof=1))
        # the printed column is itself rounded to 2 decimals, so allow 0.01
        # slack around the printed 0.28; population std is the closer match
        assert min(abs(population - 0.28), abs(sample - 0.28)) <= 0.01
        assert abs(population - 0.28) <= abs(sample - 0.28)


def zero_report(name="zero"):
    return ErrorReport(name, "", np.zeros(15), 0.0, 0.0)


class TestEmitTable:
    def test_all_zero_report(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_table([zero_report()], str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 17  # header + 15 days + MAPE row
        assert all(row.split(",")[1] == "0.00" for row in lines[1:16])

    def test_two_model_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_table([zero_report("a"), zero_report("b")], str(path))
        header = path.read_text().split("\n", 1)[0].split(",")
        assert header[0] == "day" and "a" in header and "b" in header

    def test_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(3)
        actual = rng.uniform(50, 150, 15)
        rep = summarize(actual * 1.01, actual, "m")
        p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
        emit_table([rep], str(p1))
        emit_table([rep], str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_summary_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        write_summary_csv([zero_report()], str(path))
        assert path.read_text().startswith("model,schema,mape,std,convention")


    def test_no_report_is_a_value_error(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="one horizon, got horizons \\[\\]"):
            emit_table([], str(path))
        assert not path.exists()

    def test_unequal_horizons_are_a_value_error(self, tmp_path):
        short = ErrorReport("short", "", np.zeros(7), 0.0, 0.0)
        with pytest.raises(ValueError, match="got horizons \\[7, 15\\]"):
            emit_table([zero_report(), short], str(tmp_path / "t.csv"))

    def test_mape_row_uses_the_one_cell_format(self, tmp_path):
        path = tmp_path / "t.csv"
        report = ErrorReport("m", "", np.array([1.0, 3.0]), 2.0, 1.0)
        emit_table([report], str(path))
        assert path.read_text().splitlines()[-1] == f"MAPE,{mape_cell(2.0, 1.0)},2.0"
        assert mape_cell(2.0, 1.0) == "2.00±1.00"


# a two-day horizon, on which hand_forecasts gives each APE exactly
ACTUALS = np.array([100.0, 100.0])
DATES = [dt.date(2020, 4, 24), dt.date(2020, 4, 25)]


def hand_forecasts(mape, std=0.25):
    """Forecasts of ACTUALS whose APEs are mape - std and mape + std."""
    return np.array([100.0 + mape - std, 100.0 + mape + std])


# the paper split's training window
WINDOW = (dt.date(2020, 3, 24), dt.date(2020, 4, 23))


class TestStudyReport:
    # the four band branches: an LSTM at its band (U1, yes) and above it
    # (U2, NO); a classical model within its band (hwaas, yes) and below it
    # (arima, NO)
    CLASSICAL = {"arima": hand_forecasts(0.74), "hwaas": hand_forecasts(0.37),
                 "prophet-lite": hand_forecasts(1.18)}
    # as forecast_schemas returns them: {(schema, config, window): (model, forecasts)}
    LSTMS = {(schema, TrainConfig(activation=activation), WINDOW): (None, hand_forecasts(mape))
             for (schema, activation), mape in {
                 ("u2", "elu"): 5.5, ("u1", "elu"): 2.0, ("u2", "tanh"): 3.25,
                 ("u1", "tanh"): 1.5, ("u3", "elu"): 0.99, ("u3", "tanh"): 12.0}.items()}
    SETTINGS = dict(seed=7, train_start=dt.date(2020, 3, 24), train_end=dt.date(2020, 4, 23),
                    horizon=2, lookback=3, epochs=5)

    def report(self, classical=CLASSICAL):
        return study_report(classical, self.LSTMS, ACTUALS, DATES, **self.SETTINGS)

    def forecasts(self, label):
        """The forecasts given for the row labelled `label`."""
        if label in self.CLASSICAL:
            return self.CLASSICAL[label]
        schema, activation = label.lower().split("-")
        return self.LSTMS[schema, TrainConfig(activation=activation), WINDOW][1]

    def test_exact_lines(self):
        texts, _, _, stdout = self.report()
        assert texts == {
            "table1.csv": [
                "activation,u1,u2,u3",
                "tanh,1.50±0.25,3.25±0.25,12.00±0.25",
                "elu,2.00±0.25,5.50±0.25,0.99±0.25",
            ],
            "summary.md": [
                "# Reproduction summary",
                "",
                "Seed: 7; train window 2020-03-24..2020-04-23; horizon 2; lookback 3; epochs 5.",
                "",
                "| model | MAPE (this run) | reference | within band |",
                "|-------|-----------------|-----------|-------------|",
                "| lstm-u1 | 2.00±0.25 | 0.70±0.30 | yes |",
                "| lstm-u2 | 5.50±0.25 | 1.69±1.35 | NO |",
                "| lstm-u3 | 0.99±0.25 | 0.99±0.51 | yes |",
                "| arima | 0.74±0.25 | 3.24±1.56 | NO |",
                "| hwaas | 0.37±0.25 | 0.47±0.28 | yes |",
                "",
                "prophet-lite MAPE 1.18±0.25 % (qualitative check only: "
                "horizon-growth pattern, not an equality target).",
                "",
                "Outputs: table1.csv (activation ablation), table2.csv (per-day errors),",
                "fig3.svg (LSTM schemas), fig4.svg (method comparison).",
            ],
        }
        assert stdout == [
            "lstm-u1: MAPE 2.00 % (reference 0.70 %)",
            "lstm-u2: MAPE 5.50 % (reference 1.69 %)",
            "lstm-u3: MAPE 0.99 % (reference 0.99 %)",
            "arima: MAPE 0.74 % (reference 3.24 %)",
            "hwaas: MAPE 0.37 % (reference 0.47 %)",
            "prophet-lite: MAPE 1.18 % (qualitative only)",
        ]
        assert all(line.isascii() for line in stdout)

    def test_a_classical_model_above_its_band_is_no(self):
        texts, *_ = self.report(self.CLASSICAL | {"arima": hand_forecasts(4.75)})
        assert "| arima | 4.75±0.25 | 3.24±1.56 | NO |" in texts["summary.md"]

    def test_table2_columns_in_order(self):
        _, tables, _, _ = self.report()
        (name, reports), = tables.items()
        assert name == "table2.csv"
        assert [r.model for r in reports] == [
            "U1-elu", "U2-elu", "U3-elu", "arima", "prophet-lite", "hwaas"]
        for r in reports:
            expected = summarize(self.forecasts(r.model), ACTUALS, r.model)
            assert r.apes.tobytes() == expected.apes.tobytes(), r.model
            assert (r.mape, r.std) == (expected.mape, expected.std), r.model

    def test_figure_curves_and_legend_names(self):
        _, _, plots, _ = self.report()
        curves = {"fig3.svg": [("u1", "U1-elu"), ("u2", "U2-elu"), ("u3", "U3-elu")],
                  "fig4.svg": [("U2", "U2-elu"), ("ARIMA", "arima"), ("HWAAS", "hwaas"),
                               ("prophet-lite", "prophet-lite")]}
        assert list(plots) == list(curves)
        for name, (series, x_labels) in plots.items():
            assert x_labels == ["2020-04-24", "2020-04-25"]
            expected = [("actual", ACTUALS)] + [
                (shown, self.forecasts(label)) for shown, label in curves[name]]
            assert [shown for shown, _ in series] == [shown for shown, _ in expected]
            for (shown, values), (_, want) in zip(series, expected):
                assert np.asarray(values).tobytes() == want.tobytes(), (name, shown)

    def test_returns_exactly_the_artifacts_it_names(self):
        texts, tables, plots, _ = self.report()
        assert ARTIFACTS == ("table1.csv", "table2.csv", "fig3.svg", "fig4.svg", "summary.md")
        assert sorted([*texts, *tables, *plots]) == sorted(ARTIFACTS)

    def test_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.report()
        assert list(tmp_path.iterdir()) == []


class TestEmitPlot:
    def test_valid_xml(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot(
            [("actual", np.arange(15.0)), ("model", np.arange(15.0) * 1.1)],
            [str(k) for k in range(15)],
            str(path),
        )
        root = ET.parse(str(path)).getroot()
        assert root.tag.endswith("svg")

    def test_coincident_series_share_points(self, tmp_path):
        path = tmp_path / "p.svg"
        values = np.linspace(10, 20, 15)
        emit_plot(
            [("actual", values), ("run", values.copy())],
            [str(k) for k in range(15)],
            str(path),
        )
        root = ET.parse(str(path)).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polylines = root.findall("svg:polyline", ns)
        assert len(polylines) == 2
        assert polylines[0].get("points") == polylines[1].get("points")

    def test_empty_input(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], [], str(tmp_path / "p.svg"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_names_the_series(self, tmp_path, bad):
        path = tmp_path / "p.svg"
        values = np.linspace(10, 20, 15)
        broken = values.copy()
        broken[7] = bad
        with pytest.raises(ValueError, match="series 'U3' has a non-finite value"):
            emit_plot([("actual", values), ("U3", broken)],
                      [str(k) for k in range(15)], str(path))
        assert not path.exists()
