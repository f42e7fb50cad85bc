"""Self-test of the bitwise gate: two runs of HEAD's committed `src/` must
show no difference and give exactly the entries each command's name implies,
a changed, missing or extra entry must show, and a name that is no commit
must give exit 2.

    python3 tools/gate_selftest.py
    python3 -m pytest tools/gate_selftest.py

The file name keeps it out of the repository's default pytest collection:
it needs a git revision and runs the command list twice (about 25 s).
`tests/test_tools.py` collects the three fast checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bitwise_gate  # noqa: E402

# the exit code of every `fail-*` command of the gate; every other exits 0
FAILURE_EXITS = {
    "fail-run-lstm-u1-unobserved": 2, "fail-reproduce-unobserved": 2,
    "fail-run-hwaas-7-days": 2, "fail-run-lstm-u2-seed": 1, "fail-run-epochs-huge": 1,
    "fail-run-data-missing": 2, "fail-run-window-outside": 2, "fail-run-window-reversed": 2,
    "fail-run-lstm-u3-constant-deaths": 2,
}


def entries_of(name: str) -> tuple[str, ...]:
    """The entries a gate command gives, by its name: its exit code, stdout
    and stderr, and the artifacts its kind writes; a failure writes none."""
    common = ("exit", "stdout", "stderr")
    if name.startswith("reproduce"):
        return common + ("table1.csv", "table2.csv", "fig3.svg", "fig4.svg", "summary.md")
    if name.startswith("run"):
        scored = () if name.endswith("-late") else ("errors.csv", "summary.csv")
        return common + ("checkpoint.json", "forecast.csv") + scored
    if name.startswith(("fail-", "script-")):
        return common
    raise AssertionError(f"gate command {name!r} is of no known kind")


def test_differing_lists_changed_missing_and_extra_entries():
    before = {"a/stdout": "1", "a/exit": "0", "a/forecast.csv": "2"}
    if bitwise_gate.differing(before, dict(before)):
        raise AssertionError("equal sides differ")
    after = {"a/stdout": "1", "a/exit": "3", "a/summary.csv": "4"}
    got = bitwise_gate.differing(before, after)
    if got != ["a/exit", "a/forecast.csv", "a/summary.csv"]:
        raise AssertionError(got)


def test_a_name_that_is_no_commit_is_a_usage_error():
    with contextlib.redirect_stderr(io.StringIO()):
        code = bitwise_gate.main(["no-such-revision-anywhere"])
    if code != 2:
        raise AssertionError(code)


def test_every_command_has_a_known_kind():
    for name in bitwise_gate.COMMANDS:
        entries_of(name)
    failures = {name for name in bitwise_gate.COMMANDS if name.startswith("fail-")}
    if failures != set(FAILURE_EXITS):
        raise AssertionError(sorted(failures ^ set(FAILURE_EXITS)))


def test_head_against_head_shows_no_difference():
    with tempfile.TemporaryDirectory() as tmp:
        root = bitwise_gate.extract_tree(bitwise_gate.commit_of("HEAD"), Path(tmp) / "tree")
        sides = []
        for side in ("before", "after"):
            (Path(tmp) / side).mkdir()
            sides.append(bitwise_gate.run_side(root, Path(tmp) / side))
    if bitwise_gate.differing(*sides):
        raise AssertionError(bitwise_gate.differing(*sides))
    expected = {name: 0 for name in bitwise_gate.COMMANDS} | FAILURE_EXITS
    exits = {name: sides[0][f"{name}/exit"] for name in bitwise_gate.COMMANDS}
    if exits != {name: hashlib.sha256(str(code).encode()).hexdigest()
                 for name, code in expected.items()}:
        raise AssertionError(exits)
    entries = {f"{name}/{entry}" for name in bitwise_gate.COMMANDS for entry in entries_of(name)}
    if set(sides[0]) != entries:
        raise AssertionError(sorted(set(sides[0]) ^ entries))


if __name__ == "__main__":
    for test in (test_differing_lists_changed_missing_and_extra_entries,
                 test_a_name_that_is_no_commit_is_a_usage_error,
                 test_every_command_has_a_known_kind,
                 test_head_against_head_shows_no_difference):
        test()
        print(f"{test.__name__}: ok")
