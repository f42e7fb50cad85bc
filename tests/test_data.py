import codecs
import datetime as dt
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casecast import cli
from casecast import (
    TimeSeries,
    bundled_dataset_path,
    fit_normalizer,
    load_csv,
    make_windows,
    slice_window,
)
from casecast.data import (
    DAY,
    DataError,
    NormalizationSpec,
    forecast_horizon,
    observed_horizon,
)


def write_csv(tmp_path, rows):
    path = tmp_path / "data.csv"
    path.write_text("date,total_cases,total_deaths\n" + "\n".join(rows) + "\n")
    return str(path)


class TestLoadCsv:
    def test_bundled_dataset(self, series):
        assert len(series) == 59
        assert series.start == dt.date(2020, 3, 11)
        assert series.end == dt.date(2020, 5, 8)

    def test_known_rows(self, series):
        i = (dt.date(2020, 3, 24) - series.start).days
        assert series.cases[i] == 1872 and series.deaths[i] == 44
        assert series.cases[i + 1] == 2433 and series.deaths[i + 1] == 59

    def test_two_rows(self, tmp_path):
        ts = load_csv(write_csv(tmp_path, ["2020-03-24,1872,44", "2020-03-25,2433,59"]))
        assert len(ts) == 2
        assert ts.deaths is not None

    def test_missing_file(self):
        with pytest.raises(DataError, match="^no such file: /nonexistent/nope.csv$"):
            load_csv("/nonexistent/nope.csv")

    def test_out_of_order(self, tmp_path):
        with pytest.raises(DataError, match="^line 3: date 2020-03-24 not after 2020-03-25$"):
            load_csv(write_csv(tmp_path, ["2020-03-25,2,0", "2020-03-24,1,0"]))

    def test_date_gap(self, tmp_path):
        with pytest.raises(DataError, match="^line 3: gap between 2020-03-24 and 2020-03-26$"):
            load_csv(write_csv(tmp_path, ["2020-03-24,1,0", "2020-03-26,2,0"]))

    def test_non_monotone(self, tmp_path):
        with pytest.raises(DataError, match="^line 3: cumulative value decreases$"):
            load_csv(write_csv(tmp_path, ["2020-03-24,100,0", "2020-03-25,90,0"]))

    def test_malformed_row_reports_line(self, tmp_path):
        with pytest.raises(DataError, match="^line 3: "):
            load_csv(write_csv(tmp_path, ["2020-03-24,1,0", "not-a-date,2,0"]))

    def test_count_beyond_int64_reports_line(self, tmp_path):
        largest = 2**63 - 1
        assert load_csv(write_csv(tmp_path, [f"2020-03-24,{largest},0"])).cases[0] == largest
        with pytest.raises(DataError, match=f"^line 3: count {10**20} exceeds the int64 range$"):
            load_csv(write_csv(tmp_path, ["2020-03-24,1,0", f"2020-03-25,{10**20},0"]))

    @pytest.mark.parametrize("count", ["1_000", "+5", "\u0663", "\uff15", "1.0", "0x10", "1e3",
                                       "- 5", "", "5\u00a0-"],
                             ids=["underscore", "plus", "arabic-indic", "fullwidth", "float",
                                  "hex", "exponent", "spaced-sign", "empty", "trailing-sign"])
    @pytest.mark.parametrize("column", [1, 2], ids=["cases", "deaths"])
    def test_count_that_is_no_decimal_integer_reports_line(self, tmp_path, count, column):
        # int() takes the first four; the CSV reads as ASCII digits only
        row = ["2020-03-25", "2", "0"]
        row[column] = count
        with pytest.raises(DataError, match=(
                f"^line 3: count {re.escape(repr(count.strip()))} is not a decimal integer$")):
            load_csv(write_csv(tmp_path, ["2020-03-24,1,0", ",".join(row)]))

    def test_count_is_read_once_its_whitespace_is_stripped(self, tmp_path):
        ts = load_csv(write_csv(tmp_path, ["2020-03-24,-0,0", "2020-03-25, 7 ,\t0"]))
        assert ts.cases.tolist() == [0, 7] and ts.deaths.tolist() == [0, 0]
        with pytest.raises(DataError, match="^line 3: negative count$"):
            load_csv(write_csv(tmp_path, ["2020-03-24,1,0", "2020-03-25,2,-5"]))

    def test_a_count_that_is_no_decimal_integer_is_a_data_error_of_run(self, tmp_path, capsys):
        path = write_csv(tmp_path, ["2020-03-24,1,0", "2020-03-25,+5,0"])
        code = cli.main(["run", "--model", "arima", "--data", path,
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert err == "data error: line 3: count '+5' is not a decimal integer\n"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("day,cases,deaths\n2020-03-24,1,0\n")
        with pytest.raises(DataError, match=r"^line 1: unexpected header \['day', 'cases', 'deaths'\]$"):
            load_csv(str(path))

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # Excel's "CSV UTF-8" begins the file with EF BB BF
        plain = write_csv(tmp_path, ["2020-03-24,1872,44", "2020-03-25,2433,59"])
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + Path(plain).read_bytes())
        a, b = load_csv(plain), load_csv(str(marked))
        assert a.dates == b.dates
        np.testing.assert_array_equal(a.cases, b.cases)
        np.testing.assert_array_equal(a.deaths, b.deaths)
        # a UTF-16 file (its byte-order mark is FF FE) is still not UTF-8 text
        utf16 = tmp_path / "utf16.csv"
        utf16.write_bytes(Path(plain).read_text().encode("utf-16"))
        assert cli.main(["validate", "--data", str(utf16)]) == cli.EXIT_DATA
        assert "is not UTF-8 text" in capsys.readouterr().err


class TestSliceWindow:
    def test_single_day(self, series):
        out = slice_window(series, dt.date(2020, 3, 24), dt.date(2020, 3, 24))
        assert len(out) == 1

    def test_default_train_window_is_31_days(self, series):
        out = slice_window(series, dt.date(2020, 3, 24), dt.date(2020, 4, 23))
        assert len(out) == 31

    def test_out_of_range(self, series):
        with pytest.raises(DataError, match=(
            "^window 2020-03-01..2020-03-05 outside series range 2020-03-11..2020-05-08$"
        )):
            slice_window(series, dt.date(2020, 3, 1), dt.date(2020, 3, 5))

    def test_reversed_range(self, series):
        with pytest.raises(DataError, match="^start 2020-04-02 after end 2020-04-01$"):
            slice_window(series, dt.date(2020, 4, 2), dt.date(2020, 4, 1))


class TestForecastHorizon:
    # the series runs 2020-03-11..2020-05-08
    @pytest.mark.parametrize("train_end", [
        dt.date(2020, 2, 1), dt.date(2020, 3, 5), dt.date(2020, 3, 9), dt.date(2020, 4, 24),
    ])
    def test_a_day_outside_the_series_leaves_no_actuals(self, series, train_end):
        dates, actuals = forecast_horizon(series, train_end, 15)
        assert dates == tuple(train_end + k * DAY for k in range(1, 16))
        assert actuals is None
        with pytest.raises(DataError, match=(
            f"^observed values over the whole horizon {dates[0]}..{dates[-1]} are needed, "
            "but the series covers 2020-03-11..2020-05-08$"
        )):
            observed_horizon(series, train_end, 15)

    @pytest.mark.parametrize("train_end", [dt.date(2020, 3, 10), dt.date(2020, 4, 23)])
    def test_a_covered_horizon_reads_its_own_days(self, series, train_end):
        dates, actuals = forecast_horizon(series, train_end, 15)
        i = series.dates.index(train_end + DAY)
        assert actuals.tobytes() == series.cases[i : i + 15].astype(float).tobytes()
        observed_dates, observed = observed_horizon(series, train_end, 15)
        assert observed_dates == dates and observed.tobytes() == actuals.tobytes()

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_a_horizon_below_one_day_is_a_horizon_error(self, series, horizon):
        with pytest.raises(DataError, match=f"^horizon must be at least 1 day, got {horizon}$"):
            forecast_horizon(series, dt.date(2020, 4, 23), horizon)



def toy_series(cases, deaths=None):
    start = dt.date(2020, 3, 11)
    dates = tuple(start + dt.timedelta(days=k) for k in range(len(cases)))
    deaths = np.zeros(len(cases)) if deaths is None else np.array(deaths)
    return TimeSeries(dates, np.array(cases), deaths)


class TestNormalizer:
    def test_maps_to_unit_interval(self):
        spec = fit_normalizer(toy_series([10, 20, 30]))
        np.testing.assert_allclose(
            spec.normalize(np.array([[10.0], [20.0], [30.0]])).ravel(), [0, 0.5, 1]
        )

    def test_round_trip(self):
        spec = fit_normalizer(toy_series([10, 20, 30]))
        x = np.array([[10.0], [20.0], [30.0]])
        np.testing.assert_allclose(spec.denormalize(spec.normalize(x)), x, rtol=1e-9)

    def test_constant_channel(self):
        with pytest.raises(DataError, match=(
            "^cases is constant at 5 over 2020-03-11..2020-03-13, so it cannot be normalized$"
        )):
            fit_normalizer(toy_series([5, 5, 5]))

    def test_constant_channel_names_channel_value_and_window(self):
        ts = toy_series([10, 20, 30], deaths=[7, 7, 7])
        assert fit_normalizer(ts).mins[0] == 10.0  # cases alone are not constant
        with pytest.raises(DataError, match=(
            "^deaths is constant at 7 over 2020-03-11..2020-03-13, so it cannot be normalized$"
        )):
            fit_normalizer(ts, bivariate=True)

    def test_per_channel_independent(self, series):
        spec = fit_normalizer(series, bivariate=True)
        values = spec.normalize(series.channels(True))
        assert values[:, 0].min() == 0 and values[:, 0].max() == 1
        assert values[:, 1].min() == 0 and values[:, 1].max() == 1

    @settings(derandomize=True, database=None)
    @given(
        st.floats(min_value=-1e7, max_value=1e7, allow_nan=False),
        st.floats(min_value=1e-3, max_value=1e6),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    def test_round_trip_outside_fitted_range(self, lo, width, t):
        # t ranges far outside [0, 1]: later actuals and recursive outputs
        spec = NormalizationSpec(np.array([lo]), np.array([lo + width]))
        x = np.array([lo + t * width])
        np.testing.assert_allclose(spec.denormalize(spec.normalize(x)), x, rtol=1e-9, atol=1e-9)


class TestMakeWindows:
    def test_tiny_example(self):
        ds = make_windows(np.array([[0.0], [0.5], [1.0]]), lookback=1)
        assert len(ds) == 2
        np.testing.assert_allclose(ds.inputs.ravel(), [0.0, 0.5])
        np.testing.assert_allclose(ds.targets.ravel(), [0.5, 1.0])

    def test_sample_count(self):
        ds = make_windows(np.linspace(0, 1, 31)[:, None], lookback=3)
        assert len(ds) == 28

    def test_too_short(self):
        with pytest.raises(DataError):
            make_windows(np.array([[0.0], [0.5], [1.0]]), lookback=3)

    def test_values_must_be_n_by_d(self):
        for values in (np.linspace(0, 1, 10), np.zeros((10, 1, 1))):
            with pytest.raises(DataError, match=r"expected \(n, D\)"):
                make_windows(values, lookback=1)

    def test_targets_cover_series_tail(self):
        values = np.arange(20, dtype=float)[:, None]
        ds = make_windows(values, lookback=4)
        np.testing.assert_array_equal(ds.targets, values[4:])

    def test_blocks_are_contiguous_slices(self):
        rng = np.random.default_rng(0)
        values = rng.random((12, 2))
        ds = make_windows(values, lookback=3)
        for k in range(len(ds)):
            np.testing.assert_array_equal(ds.inputs[k], values[k : k + 3])
            if k + 1 < len(ds):
                # each target reappears as the newest row of the next block
                np.testing.assert_array_equal(ds.targets[k], ds.inputs[k + 1][-1])
