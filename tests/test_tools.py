"""The repository's tools: the bitwise gate's fast self-checks, the code
line count and the benchmark record's parser. The gate's HEAD-against-HEAD
run (about 25 s) stays in `tools/gate_selftest.py`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_record  # noqa: E402
import code_lines as code_lines_tool  # noqa: E402
from code_lines import code_lines  # noqa: E402
from gate_selftest import (  # noqa: E402,F401  collected here as tests
    test_a_name_that_is_no_commit_is_a_usage_error,
    test_differing_lists_changed_missing_and_extra_entries,
    test_every_command_has_a_known_kind,
)

SOURCE = '''"""A module docstring
over two lines."""

# a comment

def f(a,
      b):
    """A function docstring."""
    return (a +  # a comment after code
            b)
'''


def test_code_lines_counts_statement_lines_only():
    # the def's two lines and the return's two; not the docstrings, the
    # comment line or the blank lines
    assert code_lines(SOURCE) == 4


def test_code_lines_of_a_revision_are_those_of_its_files(tmp_path, monkeypatch, capsys):
    # HEAD of a throwaway repository holding the package, against a working
    # tree unlike it: cli.py gains a statement, data.py is gone and extra.py
    # is new. Each row: the module's count at HEAD (its text from `git show`,
    # 0 if missing), in the tree, and the difference
    repo, tree = tmp_path / "repo", tmp_path / "tree"
    no_cache = shutil.ignore_patterns("__pycache__")
    shutil.copytree(code_lines_tool.PACKAGE, repo / code_lines_tool.PACKAGE_PATH, ignore=no_cache)
    git = ["git", "-C", str(repo), "-c", "user.name=casecast", "-c",
           "user.email=casecast@example.invalid", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "package"]):
        subprocess.run([*git, *args], check=True, capture_output=True)
    cli_lines = code_lines((code_lines_tool.PACKAGE / "cli.py").read_text(encoding="utf-8"))
    shutil.copytree(code_lines_tool.PACKAGE, tree, ignore=no_cache)
    with open(tree / "cli.py", "a", encoding="utf-8") as fh:
        fh.write("\nADDED = 1\n")
    (tree / "data.py").unlink()
    (tree / "extra.py").write_text("EXTRA = 2\n", encoding="utf-8")
    monkeypatch.setattr(code_lines_tool, "ROOT", repo)
    monkeypatch.setattr(code_lines_tool, "PACKAGE", tree)

    def at_head(name):
        shown = subprocess.run(["git", "show", f"HEAD:src/casecast/{name}"],
                               cwd=code_lines_tool.ROOT, capture_output=True, encoding="utf-8")
        return code_lines(shown.stdout) if shown.returncode == 0 else 0

    def in_tree(name):
        path = tree / name
        return code_lines(path.read_text(encoding="utf-8")) if path.exists() else 0

    assert code_lines_tool.main(["HEAD"]) == 0
    *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    got = {name: (int(before), int(after), int(diff)) for before, after, diff, name in rows}
    assert {"cli.py", "data.py", "extra.py"} <= set(got)
    for name, (before, after, diff) in got.items():
        assert (before, after) == (at_head(name), in_tree(name)), name
        assert diff == after - before, name
    assert got["cli.py"][1] == cli_lines + 1
    assert got["data.py"][1] == 0 and got["extra.py"][:2] == (0, 1)
    sums = [sum(row[k] for row in got.values()) for k in (0, 1)]
    assert total == [str(sums[0]), str(sums[1]), f"{sums[1] - sums[0]:+d}", "total"]


def test_code_lines_of_a_name_that_is_no_commit_is_a_usage_error(capsys):
    assert code_lines_tool.main(["no-such-revision-anywhere"]) == 2
    assert "is not a commit" in capsys.readouterr().err


# the shape of `perfbench/run.py --workload all` output: the machine line,
# each workload's table, then one JSON line of every workload's metrics
PERFBENCH_OUTPUT = """machine {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", \
"blas": "scipy-openblas 0.3.31", "blas_threads": 2}
study: correct, error_rate 0.0000 (0/60 model results failed)
  setup_s                                     0.18 s
  wall_s                                      1.31 s
backtest: correct, error_rate 0.0000 (0/90 model results failed)
  wall_s                                     0.072 s
{"correct": true, "attempted": 150, "failed": 0, "metrics": {"study.wall_s": \
{"value": 1.31, "unit": "s"}, "backtest.wall_s": {"value": 0.072, "unit": "s"}}}
"""


def test_bench_record_keeps_the_machine_line_and_the_last_json_line():
    run = bench_record.parse_run(PERFBENCH_OUTPUT)
    assert run["machine"] == {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
                              "blas": "scipy-openblas 0.3.31", "blas_threads": 2}
    assert run["result"]["attempted"] == 150 and run["result"]["correct"] is True
    assert run["result"]["metrics"]["study.wall_s"] == {"value": 1.31, "unit": "s"}


@pytest.mark.parametrize("output, message", [
    (PERFBENCH_OUTPUT.split("\n", 1)[1], "no machine line"),
    (PERFBENCH_OUTPUT.strip().rsplit("\n", 1)[0], "last line is not a JSON object"),
    (PERFBENCH_OUTPUT + "[1, 2]\n", "last line is not a JSON object"),
], ids=["no-machine", "no-json", "json-not-an-object"])
def test_bench_record_rejects_output_missing_either_line(output, message):
    with pytest.raises(ValueError, match=message):
        bench_record.parse_run(output)


def test_bench_record_writes_sorted_keys_whatever_the_order_it_got():
    run = bench_record.parse_run(PERFBENCH_OUTPUT)
    tier1 = bench_record.parse_durations(PYTEST_OUTPUT)
    shuffled = {"result": dict(reversed(run["result"].items())),
                "machine": dict(reversed(run["machine"].items()))}
    shuffled_tier1 = {"seconds": dict(reversed(tier1["seconds"].items())),
                      "warnings": tier1["warnings"], "counts": tier1["counts"]}
    lines = {"lstm.py": 431, "cli.py": 258, "__init__.py": 20}
    texts = [bench_record.record_text("7", 25, a, b, t, "0" * 64, c)
             for a, b, t, c in ((run, run, tier1, lines),
                                (shuffled, shuffled, shuffled_tier1, dict(reversed(lines.items()))))]
    assert texts[0] == texts[1] and texts[0].endswith("}\n")
    record = json.loads(texts[0])
    assert list(record) == ["code_lines", "command", "label", "source_sha256", "tier1", "traced",
                            "untraced"]
    assert list(record["code_lines"].items()) == sorted(lines.items())
    assert record["command"] == {"seconds": 25, "seed": bench_record.SEED, "workload": "all"}
    assert record["untraced"] == run
    assert record["tier1"] == {"command": " ".join(["python"] + bench_record.TIER1), **tier1}


# the shape of Tier-1's output under `--durations=0`, the acceptance lines
# and progress cut short; the set-up of the session fixtures falls on the
# first acceptance tests that use them
PYTEST_OUTPUT = """[ACCEPTANCE] Determinism: PASS (two full u2 runs at seed 42)
........................................................................ [ 94%]
.......................                                                  [100%]
============================== slowest durations ===============================
5.97s setup    tests/test_acceptance.py::TestLstm::test_banded_reproduction
3.09s call     tests/test_acceptance.py::TestLstm::test_full_u2_determinism
1.31s call     tests/test_cli.py::TestReproduce::test_artifacts_are_utf8_whatever_the_locale
0.72s setup    tests/test_classical.py::TestSolveOncePerTheta::test_fit_is_bitwise_the_memo_free_fit
0.42s call     tests/test_acceptance.py::TestLstm::test_gradient_suite
0.05s setup    tests/test_acceptance.py::TestDeterministicBaselines::test_hwaas_band
0.01s teardown tests/test_acceptance.py::TestLstm::test_full_u2_determinism

(1290 durations < 0.005s hidden.  Use -vv to show these durations.)
1 failed, 454 passed, 2 warnings in 18.66s
"""


def test_bench_record_splits_tier1_into_acceptance_setup_determinism_and_rest():
    assert bench_record.parse_durations(PYTEST_OUTPUT) == {
        "counts": {"failed": 1, "passed": 454},
        "warnings": 2,
        # set-up 5.97 + 0.05; the call line only, not the teardown
        "seconds": {"total": 18.66, "acceptance_setup": 6.02, "u2_determinism": 3.09,
                    "rest": 9.55},
    }
    slow = PYTEST_OUTPUT.replace("in 18.66s", "in 75.20s (0:01:15)")
    assert bench_record.parse_durations(slow)["seconds"]["total"] == 75.2
    # pytest's singular and plural forms count under one key
    one = PYTEST_OUTPUT.replace("1 failed, 454 passed, 2 warnings",
                                "453 passed, 2 skipped, 1 xfailed, 1 warning")
    assert {key: bench_record.parse_durations(one)[key] for key in ("counts", "warnings")} == {
        "counts": {"passed": 453, "skipped": 2, "xfailed": 1}, "warnings": 1}
    none = PYTEST_OUTPUT.replace("1 failed, 454 passed, 2 warnings", "455 passed")
    assert bench_record.parse_durations(none)["warnings"] == 0


@pytest.mark.parametrize("output, message", [
    (PYTEST_OUTPUT.strip().rsplit("\n", 1)[0], "no summary line"),
    ("".join(line for line in PYTEST_OUTPUT.splitlines(True) if "determinism" not in line),
     "no durations"),
    ("".join(line for line in PYTEST_OUTPUT.splitlines(True) if " setup " not in line),
     "no durations"),
    # under --continue-on-collection-errors pytest exits 1 for these too
    (PYTEST_OUTPUT.replace(" 2 warnings", " 2 warnings, 1 error"), "reported 1 error$"),
    (PYTEST_OUTPUT.replace("1 failed, ", "2 errors, "), "reported 2 errors$"),
], ids=["no-summary", "no-determinism", "no-acceptance-setup", "one-error", "errors"])
def test_bench_record_rejects_tier1_output_missing_a_part(output, message):
    with pytest.raises(ValueError, match=message):
        bench_record.parse_durations(output)


def test_bench_record_source_digest_follows_the_package_and_not_its_cache(tmp_path):
    package = tmp_path / "src" / "casecast"
    (package / "__pycache__").mkdir(parents=True)
    (package / "lstm.py").write_text("A = 1\n", encoding="utf-8")
    first = bench_record.source_digest(tmp_path)
    (package / "__pycache__" / "lstm.cpython-311.pyc").write_bytes(b"cache")
    assert bench_record.source_digest(tmp_path) == first
    (package / "lstm.py").write_text("A = 2\n", encoding="utf-8")
    assert bench_record.source_digest(tmp_path) != first


def test_bench_record_writes_each_modules_code_lines(tmp_path, monkeypatch, capsys):
    # canned perfbench and Tier-1 runs: the record keeps the package's code
    # lines beside them
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 3}', encoding="utf-8")
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_perfbench",
                        lambda seconds, trace: bench_record.parse_run(PERFBENCH_OUTPUT))
    monkeypatch.setattr(bench_record, "run_tier1",
                        lambda: bench_record.parse_durations(PYTEST_OUTPUT))
    assert bench_record.main(["t"]) == 0
    assert capsys.readouterr().out == "bench_record: wrote BENCH_t.json\n"
    record = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert record["code_lines"] == code_lines_tool.tree_counts()
    assert set(record["code_lines"]) >= {"lstm.py", "classical.py", "cli.py"}
    assert record["command"]["seconds"] == 3
