import contextlib
import dataclasses
import datetime as dt
import importlib
import io
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import casecast
from casecast import classical, cli, data, lstm, slice_window
from casecast.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, RunConfig, main
from conftest import TRAIN_END, TRAIN_START


def run_cli(*argv):
    return main(list(argv))


class TestValidate:
    def test_bundled_dataset(self, capsys):
        assert run_cli("validate") == EXIT_OK
        out = capsys.readouterr().out
        assert "59 days" in out and "2020-03-11..2020-05-08" in out and "OK" in out

    def test_date_gap(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        path.write_text(
            "date,total_cases,total_deaths\n2020-03-24,1,0\n2020-03-26,2,0\n"
        )
        assert run_cli("validate", "--data", str(path)) == EXIT_DATA
        assert "gap" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run_cli("validate", "--data", "/no/such/file.csv") == EXIT_DATA
        assert "no such file" in capsys.readouterr().err


class TestRun:
    def test_hwaas_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--model", "hwaas", "--train", "2020-03-24:2020-04-23",
                       "--out", str(out)) == EXIT_OK
        assert (out / "forecast.csv").exists()
        assert (out / "errors.csv").exists()
        assert (out / "checkpoint.json").exists()
        assert "MAPE" in capsys.readouterr().out

    def test_lstm_run_is_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("run", "--model", "lstm-u2", "--seed", "1",
                           "--epochs", "3", "--out", str(out)) == EXIT_OK
            outs.append((out / "forecast.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("model, schema", [
        ("lstm-u1", "u1"), ("lstm-u2", "u2"), ("lstm-u3", "u3"), ("hwaas", ""),
    ])
    def test_summary_csv_names_the_schema(self, tmp_path, model, schema):
        out = tmp_path / "out"
        assert run_cli("run", "--model", model, "--epochs", "1", "--out", str(out)) == EXIT_OK
        header, row = (out / "summary.csv").read_text().splitlines()
        assert header == "model,schema,mape,std,convention"
        assert row.split(",")[:2] == [model, schema]

    @pytest.mark.parametrize("schema", lstm.SCHEMAS)
    def test_lstm_run_forecasts_one_member_through_forecast_schemas(self, tmp_path,
                                                                     monkeypatch, schema):
        # `run` takes the path `reproduce` takes, with a list of one member
        calls = []
        real = cli.forecast_schemas

        def spy(ts, members, *args):
            calls.append(list(members))
            return real(ts, members, *args)

        monkeypatch.setattr(cli, "forecast_schemas", spy)
        assert run_cli("run", "--model", f"lstm-{schema}", "--epochs", "1",
                       "--out", str(tmp_path / "out")) == EXIT_OK
        window = (dt.date(2020, 3, 24), dt.date(2020, 4, 23))  # the default --train
        assert calls == [[(schema, lstm.TrainConfig(epochs=1), window)]]

    def test_zero_horizon_is_config_error(self, capsys):
        assert run_cli("run", "--model", "hwaas", "--horizon", "0") == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    def test_bad_model_is_usage_error(self):
        assert run_cli("run", "--model", "nope") == EXIT_USAGE

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "hwaas", "horizon": 15, "seed": 7}))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--horizon", "15",
                       "--out", str(out)) == EXIT_OK
        assert (out / "forecast.csv").read_text().startswith("# seed=7")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modle": "hwaas"}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags, doc",
        [
            (["--epochs", "0"], None),
            ([], {"epochs": "3"}),
            ([], {"horizon": "15"}),
            ([], {"train_start": 5}),
            (["--seed", "-1"], None),
            ([], {"activation": "relu"}),
            (["--out", ""], None),
            ([], {"data": "a\0b"}),
        ],
        ids=[
            "epochs-zero", "epochs-string", "horizon-string", "train-start-int",
            "seed-negative", "activation-unknown", "out-empty", "data-nul",
        ],
    )
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, flags, doc):
        argv = ["run", "--model", "lstm-u2", "--out", str(tmp_path / "out"), *flags]
        if doc is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            argv += ["--config", str(cfg)]
        assert run_cli(*argv) == EXIT_USAGE
        assert "config error:" in capsys.readouterr().err

    def test_run_config_is_checked_when_built(self):
        with pytest.raises(ValueError, match="^horizon must be >= 1$"):
            RunConfig(horizon=0)

    def test_a_date_setting_that_is_a_datetime_is_a_value_error(self):
        # a datetime is a date to isinstance, and built, such a config made
        # slice_window compare it with the series' dates: a bare TypeError
        with pytest.raises(ValueError, match=r"^train_start must be of type date, got "
                                             r"datetime\.datetime\(2020, 3, 24, 0, 0\)$"):
            RunConfig(train_start=dt.datetime(2020, 3, 24))

    def test_run_config_cannot_be_changed(self):
        cfg = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.horizon = 0

    @pytest.mark.parametrize("command", [["run", "--model", "lstm-u2"], ["reproduce"]])
    def test_huge_epochs_is_one_config_error_before_any_fit(self, tmp_path, monkeypatch,
                                                             capsys, command):
        # `train` allocates its (epochs, members) loss history before its first
        # step, so the ceiling must reject 10**22 epochs before any training
        _no_training(monkeypatch)
        out = tmp_path / "out"
        assert run_cli(*command, "--epochs", str(10**22), "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: epochs must be <= {lstm.MAX_EPOCHS}\n"
        assert not out.exists()


def _diverge(monkeypatch):
    """Every training loss reads NaN, so `train` gives up after epoch 1."""
    real = lstm.bptt_gradient

    def nan_loss(*args):
        _, grads = real(*args)
        return float("nan"), grads

    monkeypatch.setattr(lstm, "bptt_gradient", nan_loss)


def _nan_dense_bias(monkeypatch):
    """Training succeeds, then every model's output bias is NaN."""
    real = lstm.train

    def trained(*args):
        models = real(*args)
        for model in models:
            model.params.dense_b[:] = np.nan
        return models

    monkeypatch.setattr(lstm, "train", trained)


def _nan_classical_forecast(monkeypatch):
    """The HWAAS fit succeeds, then its forecast is NaN."""
    real = cli.hw_forecast

    def forecast(*args):
        return np.full_like(real(*args), np.nan)

    monkeypatch.setattr(cli, "hw_forecast", forecast)


def _no_training(monkeypatch):
    """Any training fails the test: the error must come before it. Every
    model, alone or in a lockstep ensemble, is trained by `lstm.train`."""

    def refuse(*args):
        raise AssertionError("trained before a check that rejects the run")

    monkeypatch.setattr(lstm, "train", refuse)


# stderr names a horizon, 2020-{} to 2020-{}, that the bundled series does not cover
UNOBSERVED = ("observed values over the whole horizon 2020-{}..2020-{} are needed, "
              "but the series covers 2020-03-11..2020-05-08")


class TestExitCodes:
    PREFIX = {EXIT_USAGE: "config error:", EXIT_DATA: "data error:",
              EXIT_NUMERICAL: "numerical failure:"}

    # says: what stderr must name, when a row checks more than the prefix
    @pytest.mark.parametrize(
        "argv, patch, code, says",
        [
            (["run", "--model", "hwaas", "--horizon", "0"], None, EXIT_USAGE, None),
            (["run", "--model", "hwaas", "--out", "{file}"], None, EXIT_USAGE, None),
            (["run", "--model", "hwaas", "--config", "{dir}"], None, EXIT_USAGE, None),
            (["validate", "--data", "{dir}"], None, EXIT_DATA, None),
            (["run", "--model", "hwaas", "--data", "{dir}"], None, EXIT_DATA, None),
            (["run", "--model", "hwaas", "--train", "2020-03-24:2020-03-30"], None, EXIT_DATA,
             None),
            (["run", "--model", "prophet-lite", "--data", "{zeros}",
              "--train", "2020-01-01:2020-01-31"], None, EXIT_DATA, "must be positive"),
            (["reproduce", "--data", "{zeros}", "--train", "2020-01-01:2020-01-31"],
             _no_training, EXIT_DATA, "observed cases over the horizon must be positive"),
            (["run", "--model", "lstm-u2", "--epochs", "1"], _diverge, EXIT_NUMERICAL, None),
            (["run", "--model", "lstm-u2", "--epochs", "1"], _nan_dense_bias, EXIT_NUMERICAL,
             None),
            (["reproduce", "--epochs", "1"], _diverge, EXIT_NUMERICAL, None),
            (["reproduce", "--epochs", "1"], _nan_dense_bias, EXIT_NUMERICAL, None),
            (["validate", "--data", "{binary}"], None, EXIT_DATA, None),
            (["run", "--model", "lstm-u1", "--train", "2020-04-01:2020-05-01"],
             _no_training, EXIT_DATA, UNOBSERVED.format("05-02", "05-16")),
            (["reproduce", "--train", "2020-04-10:2020-05-01", "--epochs", "300"],
             _no_training, EXIT_DATA, UNOBSERVED.format("05-02", "05-16")),
            (["reproduce", "--train", "2020-04-10:2020-04-23"], _no_training, EXIT_DATA, None),
            (["run", "--model", "lstm-u1", "--train", "2020-03-01:2020-03-08"],
             _no_training, EXIT_DATA, UNOBSERVED.format("03-09", "03-23")),
            (["reproduce", "--train", "2020-03-01:2020-03-08"], _no_training, EXIT_DATA,
             UNOBSERVED.format("03-09", "03-23")),
            (["run", "--model", "hwaas", "--horizon", "1000000000"], None, EXIT_USAGE, None),
            (["validate", "--data", "{huge}"], None, EXIT_DATA, None),
            (["run", "--model", "hwaas"], _nan_classical_forecast, EXIT_NUMERICAL, None),
        ],
        ids=[
            "bad-config-value", "out-is-a-file", "config-is-a-directory",
            "validate-data-is-a-directory", "run-data-is-a-directory", "hwaas-7-day-train",
            "zero-actual-in-horizon", "reproduce-zero-actual-in-horizon", "training-diverges",
            "nan-dense-bias", "reproduce-training-diverges", "reproduce-nan-dense-bias",
            "non-utf8-data", "u1-horizon-unobserved",
            "reproduce-horizon-unobserved", "reproduce-window-too-short-for-arima",
            "u1-horizon-before-series", "reproduce-horizon-before-series",
            "horizon-past-last-date", "count-exceeds-int64", "nan-classical-forecast",
        ],
    )
    def test_failure_gives_documented_exit_code(self, tmp_path, monkeypatch, capsys,
                                                argv, patch, code, says):
        existing = tmp_path / "a-file"
        existing.write_text("")
        zeros = tmp_path / "zeros.csv"
        days = [dt.date(2020, 1, 1) + dt.timedelta(days=k) for k in range(50)]
        zeros.write_text("date,total_cases,total_deaths\n"
                         + "".join(f"{d},0,0\n" for d in days))
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\xff\xfe\x00")
        huge = tmp_path / "huge.csv"
        huge.write_text(f"date,total_cases,total_deaths\n2020-03-24,{10**20},0\n")
        paths = {"{file}": str(existing), "{dir}": str(tmp_path), "{zeros}": str(zeros),
                 "{binary}": str(binary), "{huge}": str(huge)}
        argv = [paths.get(a, a) for a in argv]
        if argv[0] != "validate" and "--out" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        if patch is not None:
            patch(monkeypatch)
        assert run_cli(*argv) == code
        err = capsys.readouterr().err
        assert err.startswith(self.PREFIX[code]), err
        assert says is None or says in err, err
        assert "Traceback" not in err

    def test_constant_deaths_names_the_channel(self, tmp_path, capsys):
        path = tmp_path / "flat-deaths.csv"
        days = [dt.date(2020, 3, 11) + dt.timedelta(days=k) for k in range(59)]
        path.write_text("date,total_cases,total_deaths\n"
                        + "".join(f"{d},{100 + 10 * k},3\n" for k, d in enumerate(days)))
        argv = ["run", "--model", "lstm-u3", "--epochs", "1", "--data", str(path),
                "--out", str(tmp_path / "out")]
        assert run_cli(*argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: deaths is constant at 3 over 2020-03-24..2020-04-23")

    @pytest.mark.parametrize("argv, artifact", [
        (["run", "--model", "hwaas"], "checkpoint.json"),
        (["reproduce", "--epochs", "1"], "table1.csv"),
        (["run", "--model", "lstm-u2"], "checkpoint.json"),
        (["run", "--model", "lstm-u3"], "summary.csv"),
        (["reproduce"], "summary.md"),
    ], ids=["run-checkpoint-is-a-directory", "reproduce-table1-is-a-directory",
            "lstm-run-checkpoint-is-a-directory", "lstm-run-summary-is-a-directory",
            "reproduce-summary-is-a-directory"])
    def test_unwritable_artifact_names_its_path(self, tmp_path, monkeypatch, capsys, argv,
                                                artifact):
        # the check comes before any fit: no LSTM trains, and the other
        # artifacts are neither written nor left behind empty
        trained = []
        monkeypatch.setattr(lstm, "train", lambda *args: trained.append(args))
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / artifact}: "), err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not trained
        assert [p.name for p in out.iterdir()] == [artifact]

    def test_write_error_without_a_path_gives_its_reason(self, tmp_path, monkeypatch, capsys):
        def full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_lines", full)
        assert run_cli("run", "--model", "hwaas", "--out", str(tmp_path / "out")) == EXIT_USAGE
        assert capsys.readouterr().err == "config error: cannot write: No space left on device\n"


def casecast_exceptions():
    """Every exception class that a module of casecast defines."""
    modules = [importlib.import_module(f"casecast.{m.name}")
               for m in pkgutil.iter_modules(casecast.__path__)]
    return [obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__]


# the arguments of each exception whose constructor takes more than a message
EXCEPTION_ARGS = {lstm.TrainingDivergedError: (3, lstm.TrainConfig())}


@pytest.mark.parametrize("cls", casecast_exceptions(), ids=lambda cls: cls.__name__)
def test_every_exception_survives_pickling(cls):
    # an error raised in a worker process reaches the parent pickled, and
    # `main` maps it to its exit code by its type
    error = cls(*EXCEPTION_ARGS.get(cls, ("a message",)))
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is cls and str(again) == str(error)
    assert vars(again) == vars(error)  # the epoch


def test_the_pickling_test_finds_the_exceptions_of_every_module():
    found = casecast_exceptions()
    assert set(EXCEPTION_ARGS) <= set(found)
    assert {cli.ConfigError, classical.FitError, data.DataError} <= set(found)


@pytest.fixture(scope="module")
def repro_dir(tmp_path_factory):
    # tiny epoch count: structural check only
    out = tmp_path_factory.mktemp("repro")
    code = run_cli("reproduce", "--epochs", "5", "--out", str(out))
    assert code == EXIT_OK
    return out


class TestReproduce:
    def test_table2_shape(self, repro_dir):
        lines = (repro_dir / "table2.csv").read_text().strip().split("\n")
        assert len(lines) == 17  # header + 15 days + MAPE
        header = lines[0].split(",")
        models = [h for h in header[1:] if not h.endswith("_raw")]
        assert len(models) == 6

    def test_table1_shape(self, repro_dir):
        lines = (repro_dir / "table1.csv").read_text().strip().split("\n")
        assert lines[0] == "activation,u1,u2,u3"
        assert len(lines) == 3

    def test_figures_are_valid_svg(self, repro_dir):
        for name in ("fig3.svg", "fig4.svg"):
            root = ET.parse(str(repro_dir / name)).getroot()
            assert root.tag.endswith("svg")

    def test_summary_written(self, repro_dir):
        text = (repro_dir / "summary.md").read_text()
        assert "hwaas" in text and "prophet-lite" in text

    def test_activation_flag_is_a_usage_error(self, tmp_path, capsys):
        # reproduce trains both activations, so it takes no --activation
        out = tmp_path / "out"
        assert run_cli("reproduce", "--activation", "tanh", "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: casecast"), err
        assert "unrecognized arguments: --activation tanh" in err
        assert "Traceback" not in err

    def test_artifacts_are_byte_deterministic(self, repro_dir, tmp_path):
        again = tmp_path / "again"
        assert run_cli("reproduce", "--epochs", "5", "--out", str(again)) == EXIT_OK
        names = ("table1.csv", "table2.csv", "fig3.svg", "fig4.svg", "summary.md")
        assert sorted(p.name for p in again.iterdir()) == sorted(names)
        for name in names:
            assert (again / name).read_bytes() == (repro_dir / name).read_bytes(), name

    def test_writes_the_artifacts_it_checks(self, tmp_path, monkeypatch):
        checked = []
        check = cli._check_writable
        monkeypatch.setattr(cli, "_check_writable",
                            lambda out, names: (checked.extend(names), check(out, names)))
        out = tmp_path / "out"
        assert run_cli("reproduce", "--epochs", "1", "--out", str(out)) == EXIT_OK
        assert sorted(checked) == sorted(p.name for p in out.iterdir())
        assert len(checked) == 5

    def test_artifacts_are_utf8_whatever_the_locale(self, tmp_path):
        # the C locale, neither coerced nor in UTF-8 mode, makes ASCII the
        # default text encoding: the table1.csv "±" cannot be written in it,
        # nor printed to stdout
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        locales = {"utf8": ("1", {}), "ascii": ("0", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"})}
        commands = {
            "reproduce": (["reproduce", "--epochs", "1"],
                          ("table1.csv", "table2.csv", "fig3.svg", "fig4.svg", "summary.md")),
            "hwaas": (["run", "--model", "hwaas"],
                      ("checkpoint.json", "forecast.csv", "errors.csv", "summary.csv")),
        }
        for command, (argv, artifacts) in commands.items():
            for name, (utf8_mode, extra) in locales.items():
                proc = subprocess.run(
                    [sys.executable, "-X", f"utf8={utf8_mode}", "-m", "casecast.cli", *argv,
                     "--out", str(tmp_path / command / name)],
                    env={**env, **extra}, capture_output=True, text=True,
                )
                assert proc.returncode == EXIT_OK, proc.stderr
                assert "Traceback" not in proc.stderr
            for artifact in artifacts:
                ascii_bytes = (tmp_path / command / "ascii" / artifact).read_bytes()
                assert ascii_bytes == (tmp_path / command / "utf8" / artifact).read_bytes(), artifact
        assert "±".encode() in (tmp_path / "reproduce" / "ascii" / "table1.csv").read_bytes()


def test_paths_in_messages_are_readable_whatever_the_locale(tmp_path):
    # the C locale, neither coerced nor in UTF-8 mode, decodes the UTF-8
    # bytes of "é" in argv to two lone surrogates; every message that names
    # a path shows those bytes escaped instead. Names are made and passed as
    # bytes, so the test's own locale does not matter
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__)),
           "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
    root = os.fsencode(tmp_path)
    latin1 = os.path.join(root, "latin1-é.csv".encode())
    with open(latin1, "wb") as fh:
        fh.write("date,total_cases,total_deaths\n2020-03-11,1,0\nété\n".encode("latin-1"))
    os.mkdir(os.path.join(root, "dossier-é".encode()))
    with open(os.path.join(root, "fichier-é".encode()), "wb"):
        pass
    os.makedirs(os.path.join(root, "sortie-é/checkpoint.json".encode()))
    cases = {
        ("validate", "--data", "données.csv"):
            (EXIT_DATA, "data error: no such file: donn\\xc3\\xa9es.csv"),
        ("validate", "--data", "dossier-é"):
            (EXIT_DATA, "data error: cannot open dossier-\\xc3\\xa9: Is a directory"),
        ("validate", "--data", "latin1-é.csv"):
            (EXIT_DATA, "data error: latin1-\\xc3\\xa9.csv is not UTF-8 text"),
        ("run", "--model", "arima", "--out", "fichier-é/sortie"):
            (EXIT_USAGE, "config error: cannot create output directory fichier-\\xc3\\xa9/sortie: "
                         "Not a directory"),
        ("run", "--model", "arima", "--out", "sortie-é"):
            (EXIT_USAGE, "config error: cannot write sortie-\\xc3\\xa9/checkpoint.json: "
                         "Is a directory"),
    }
    for argv, (code, message) in cases.items():
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "casecast.cli", *(a.encode() for a in argv)],
            cwd=root, env=env, capture_output=True,
        )
        assert (proc.returncode, proc.stderr) == (code, message.encode() + b"\n"), argv


def test_config_is_utf8_whatever_the_locale(tmp_path):
    # a non-ASCII value, and a UTF-8 byte-order mark as `--data` accepts, in
    # the C locale (ASCII) and in UTF-8 mode; `--out` overrides the "out" key
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    locales = {"utf8": ("1", {}), "ascii": ("0", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"})}
    text = json.dumps({"out": "résultats", "horizon": 7}, ensure_ascii=False)
    configs = {"plain": text.encode(), "bom": b"\xef\xbb\xbf" + text.encode()}
    artifacts = ("checkpoint.json", "forecast.csv", "errors.csv", "summary.csv")
    outs = []
    for config, body in configs.items():
        (tmp_path / f"{config}.json").write_bytes(body)
        for name, (utf8_mode, extra) in locales.items():
            outs.append(tmp_path / config / name)
            proc = subprocess.run(
                [sys.executable, "-X", f"utf8={utf8_mode}", "-m", "casecast.cli", "run",
                 "--model", "arima", "--config", str(tmp_path / f"{config}.json"),
                 "--out", str(outs[-1])],
                env={**env, **extra}, capture_output=True, text=True,
            )
            assert proc.returncode == EXIT_OK, (config, name, proc.stderr)
    assert len((outs[0] / "forecast.csv").read_text().splitlines()) == 2 + 7
    for artifact in artifacts:
        assert len({(out / artifact).read_bytes() for out in outs}) == 1, artifact
    # without `--out`, an ASCII file system cannot name "résultats"
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "casecast.cli", "run", "--model", "arima",
         "--config", str(tmp_path / "plain.json")],
        cwd=tmp_path, env={**env, **locales["ascii"][1]}, capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("config error: out 'r") and "Traceback" not in proc.stderr


def test_a_config_nested_too_deeply_is_a_config_error(tmp_path):
    # json recurses once per level of nesting and gives up at about 1000
    config = tmp_path / "deep.json"
    config.write_text("[" * 200_000)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "casecast.cli", "run", "--model", "arima", "--config", str(config),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "config error: config file nests its JSON too deeply\n"


# Values that probe types and ranges: huge and negative ints, bools, floats,
# nulls, strings and dates. No int is both valid and large, since a valid
# horizon or epoch count of 10**6 would run for minutes. Valid values are
# listed more than once, so that most draws get past the argument checks.
INTS = st.sampled_from([1, 2, 3, 7, 15, 30, 1, 2, 3, 7, 15, 30, 31,
                        -(2**70), -1, 0, 10**9, 2**63, 2**100])
DATES = st.sampled_from(["2020-03-24", "2020-04-23", "2020-05-08", "2020-03-24", "2020-04-23",
                         "2020-05-08", "2020-02-30", "9999-12-31", "0001-01-01", "24/03/2020"])
JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4),
                 st.lists(st.integers(), max_size=2))
EPOCHS = st.sampled_from([1, 2] * 3 + [0, -1, "abc"])
MODELS = st.sampled_from(["arima", "hwaas", "prophet-lite"] * 2
                         + ["lstm-u1", "lstm-u2", "lstm-u3", "nope"])
FLAGS = st.one_of(
    st.tuples(st.just("--model"), MODELS),
    st.tuples(st.sampled_from(["--horizon", "--lookback", "--seed"]),
              st.one_of(INTS.map(str), st.sampled_from(["", "1.5", "abc", "1e3"]))),
    st.tuples(st.just("--activation"), st.sampled_from(["elu", "tanh", "relu"])),
    st.tuples(st.just("--train"), st.tuples(DATES, DATES).map(":".join)),
    st.tuples(st.just("--data"), st.sampled_from([cli.bundled_dataset_path()] * 3
                                                  + ["missing.csv", "."])),
)
CONFIG_VALUES = {
    "data": st.sampled_from(["", "", "missing.csv", ".", None, 3]),
    "model": st.one_of(MODELS, JUNK),
    "train_start": st.one_of(DATES, JUNK),
    "train_end": st.one_of(DATES, JUNK),
    "horizon": st.one_of(INTS, JUNK),
    "lookback": st.one_of(INTS, JUNK),
    "activation": st.one_of(st.sampled_from(["elu", "tanh", "relu"]), JUNK),
    "seed": st.one_of(INTS, JUNK),
    "out": JUNK,  # --out always overrides it
}
assert set(CONFIG_VALUES) == {f.name for f in fields(RunConfig)} - {"epochs"}
CONFIGS = st.one_of(
    st.none(),  # no --config at all
    st.fixed_dictionaries({}, optional=CONFIG_VALUES),
    st.fixed_dictionaries({}, optional=CONFIG_VALUES),
    st.fixed_dictionaries({"unknown": JUNK}, optional=CONFIG_VALUES),
    st.one_of(JUNK, st.just("{not json")),  # a document that is not an object
)


class TestFuzzedContract:
    """Whatever argv and config file `main` gets, it returns a documented exit
    code and prints no traceback. Every draw sets the epoch count to at most
    2, by flag or in the config file, so no example trains for long."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        command=st.sampled_from(["run", "run", "run", "run", "validate", "reproduce"]),
        flags=st.lists(FLAGS, max_size=4),
        config=CONFIGS,
        epochs=EPOCHS,
        epochs_in_config=st.booleans(),
    )
    def test_exit_code_is_documented_and_no_traceback(
        self, command, flags, config, epochs, epochs_in_config
    ):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command] + [piece for flag in flags for piece in flag]
            if command != "validate":  # validate takes --data only
                epochs_set = isinstance(config, dict) and epochs_in_config
                if config is not None:
                    if epochs_set:
                        config["epochs"] = epochs
                    path = os.path.join(tmp, "config.json")
                    with open(path, "w") as fh:
                        fh.write(config if config == "{not json" else json.dumps(config))
                    argv += ["--config", path]
                if not epochs_set:
                    argv += ["--epochs", str(epochs)]
                argv += ["--out", os.path.join(tmp, "out")]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERICAL), (argv, config)
        assert "Traceback" not in stderr.getvalue(), (argv, config)


BUNDLED_ROWS = Path(cli.bundled_dataset_path()).read_text(encoding="utf-8").splitlines()
# tokens a hand-edited or truncated export may hold in place of a field
TOKENS = st.sampled_from(["", " ", "x", "-1", "0", "1.5", "1e3", "nan", "9" * 18, str(2**63),
                          "9" * 30, "2020-02-30", "2020-05-09", "\ufeff1", "1,2", '"3"'])
ROW = st.integers(min_value=0, max_value=len(BUNDLED_ROWS) - 1)
# a row at either end, where a deletion leaves consecutive dates: the data
# then loads, and the commands get as far as a fit
END_ROW = st.sampled_from([1, -1])  # the first and the last day
MUTATIONS = st.one_of(
    st.tuples(st.just("delete"), END_ROW),
    st.tuples(st.just("token"), ROW, st.integers(min_value=0, max_value=2), TOKENS),
    st.tuples(st.just("delete"), ROW),
    st.tuples(st.just("duplicate"), ROW),
)
DATA_COMMANDS = (
    ["validate"],
    ["run", "--model", "hwaas"],
    ["run", "--model", "lstm-u3", "--epochs", "1"],
)


def mutate(rows, mutations):
    """A copy of `rows` with each (kind, row, ...) mutation applied in turn:
    one field replaced by a token, a row deleted or a row duplicated."""
    rows = list(rows)
    for kind, k, *rest in mutations:
        k %= len(rows)  # an earlier deletion shortens the file
        if kind == "token":
            field, token = rest
            values = rows[k].split(",")
            values[field % len(values)] = token
            rows[k] = ",".join(values)
        elif kind == "delete":
            del rows[k]
        else:
            rows.insert(k, rows[k])
    return rows


class TestFuzzedData:
    """Whatever a `--data` file derived from the bundled one holds, `main`
    returns a documented exit code and prints no traceback, for `validate`,
    a classical `run` and a one-epoch LSTM `run`."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(mutations=st.lists(MUTATIONS, min_size=1, max_size=2))
    # files that still load, so that each command runs its fit: the first
    # day deleted, the last day deleted (no actuals over the horizon), a huge
    # last count and a zero first count
    @example(mutations=[("delete", 1)])
    @example(mutations=[("delete", -1)])
    @example(mutations=[("token", -1, 1, "9" * 18)])
    @example(mutations=[("token", 1, 1, "0")])
    def test_exit_code_is_documented_and_no_traceback(self, mutations):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write("\n".join(mutate(BUNDLED_ROWS, mutations)) + "\n")
            for k, command in enumerate(DATA_COMMANDS):
                argv = command + ["--data", path]
                if command[0] == "run":
                    argv += ["--out", os.path.join(tmp, f"out{k}")]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERICAL), (argv, mutations)
                assert "Traceback" not in stderr.getvalue(), (argv, mutations)


def test_every_name_the_benchmark_tracer_patches_is_bound(monkeypatch, series):
    """perfbench/tracer.py wraps casecast's layer boundaries by name, so each
    must stay an attribute of its module, and a Holt-Winters fit must call
    `minimize` through `classical`; leaving the tracer restores them."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    import tracer

    main, forward = cli.main, lstm.forward
    windows = data.make_windows(np.linspace(0.1, 1.0, 8)[:, None], 1)
    members = [(windows, lstm.TrainConfig(epochs=1, hidden=3, activation=a, seed=s))
               for a, s in (("elu", 1), ("tanh", 2))]
    with tracer.Tracer() as spans:
        tracer.install(spans)
        assert cli.main is not main and lstm.forward is not forward
        classical.hw_fit(slice_window(series, TRAIN_START, TRAIN_END).cases)
        lstm.train(*members[0], members[1])
    assert cli.main is main and lstm.forward is forward
    # the benchmark's HW counters are read from these notes: one fit, and
    # one record per optimizer start
    (_, starts), = spans.notes["hw.fits"]
    assert len(starts) == 4
    for nfev, _, _ in starts:
        assert type(nfev) is int and nfev > 0
    # the traced lstm.* metrics: `train` steps its members in lockstep, one
    # bptt and one adam span per step under it, and one forward per bptt
    def children(name, parents):
        return [i for i, (n, _, _, parent) in enumerate(spans.spans)
                if n == name and parent in parents]

    (train,) = children("lstm.train", [-1])
    bptt = children("lstm.bptt", [train])
    assert len(bptt) == len(children("lstm.adam", [train])) == len(windows)
    assert [spans.spans[i][3] for i in children("lstm.forward", bptt)] == bptt
    assert sum(name.startswith("lstm.") for name, *_ in spans.spans) == 1 + 3 * len(windows)


# Run one command through cli.main, or load one checkpoint, in a fresh
# interpreter; print the exit code and whether scipy's optimizer was imported.
STARTUP_PROBE = """
import sys
from casecast import checkpoint, cli
if sys.argv[1] == "load":
    checkpoint.load(sys.argv[2])
    code = 0
else:
    code = cli.main(sys.argv[1:])
print(code, "scipy.optimize" in sys.modules)
"""


@pytest.mark.parametrize("command, imports_scipy", [
    (["--help"], False),
    (["validate"], False),
    (["run", "--model", "arima"], False),
    (["run", "--model", "prophet-lite"], False),
    (["run", "--model", "lstm-u2"], False),
    (["load", "arima"], False),
    (["load", "hwaas"], False),
    (["run", "--model", "hwaas"], True),
], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
def test_only_a_holt_winters_fit_imports_scipy(tmp_path, command, imports_scipy):
    """scipy serves only hw_fit's optimizer, so every other command, and
    loading any checkpoint, starts without paying for its import."""
    if command[0] == "load":
        out = tmp_path / "fit"
        assert run_cli("run", "--model", command[1], "--out", str(out)) == EXIT_OK
        command = ["load", str(out / "checkpoint.json")]
    elif command[0] == "run":
        command = [*command, "--epochs", "1", "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, *command],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == [str(EXIT_OK), str(imports_scipy)], proc.stdout
