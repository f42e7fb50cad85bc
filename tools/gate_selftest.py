"""Self-test of the bitwise gate: two runs of HEAD's committed `src/` must
show no difference, a changed, missing or extra entry must show, and a name
that is no commit must give exit 2.

    python3 tools/gate_selftest.py
    python3 -m pytest tools/gate_selftest.py

The file name keeps it out of the repository's default pytest collection:
it needs a git revision and runs the command list twice (about 20 s).
`tests/test_tools.py` collects the two fast checks.
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


def test_head_against_head_shows_no_difference():
    with tempfile.TemporaryDirectory() as tmp:
        src = bitwise_gate.extract_src(bitwise_gate.commit_of("HEAD"), Path(tmp) / "tree")
        sides = []
        for side in ("before", "after"):
            (Path(tmp) / side).mkdir()
            sides.append(bitwise_gate.run_side(src, Path(tmp) / side))
    if bitwise_gate.differing(*sides):
        raise AssertionError(bitwise_gate.differing(*sides))
    # twelve commands wrote their artifacts and the four failures only their
    # stdout and stderr: 77 files and 16 exit codes
    expected = {name: 0 for name in bitwise_gate.COMMANDS} | {
        "fail-run-lstm-u1-unobserved": 2, "fail-reproduce-unobserved": 2,
        "fail-run-hwaas-7-days": 2, "fail-run-lstm-u2-seed": 1,
    }
    exits = {name: sides[0][f"{name}/exit"] for name in bitwise_gate.COMMANDS}
    if exits != {name: hashlib.sha256(str(code).encode()).hexdigest()
                 for name, code in expected.items()}:
        raise AssertionError(exits)
    if len(sides[0]) != 93:
        raise AssertionError(sorted(sides[0]))


if __name__ == "__main__":
    for test in (test_differing_lists_changed_missing_and_extra_entries,
                 test_a_name_that_is_no_commit_is_a_usage_error,
                 test_head_against_head_shows_no_difference):
        test()
        print(f"{test.__name__}: ok")
