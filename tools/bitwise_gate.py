"""Bitwise gate for behaviour-preserving changes.

Runs one fixed list of `casecast` commands on the `src/` of a git revision
and on the `src/` of the working tree, hashes (SHA-256) every artifact, the
stdout, the stderr and the exit code of each command, and lists every entry
that differs between the two sides. Each command runs in a fresh process;
an entry whose argv is a `.py` file runs a script on each side's package
instead, for behaviour that only shows within one process (state one call
leaves for the next). Each side runs its own copy of the script, from the
`tools/` committed next to its `src/`, so a script may follow a change to
the package's API; a side that lacks the script runs the working tree's,
so a new script runs on both sides.

    python3 tools/bitwise_gate.py REV    # REV against the working tree
    python3 tools/gate_selftest.py       # HEAD against HEAD

Exit 0 when no entry differs, 1 when one does, 2 when REV is not a commit.

No digest is kept between runs: OpenBLAS chooses its kernels for the CPU at
run time, so the bits of an LSTM fit agree only between two runs on one
machine. Both sides run one after the other, each in a directory of its
own, with the same environment and the same relative `--out` paths.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> argv; seed 42 and the paper split are the defaults
COMMANDS = {
    "reproduce": ["reproduce", "--epochs", "5"],
    # the ensemble at a lookback above 1, where wh trains and the window rolls
    "reproduce-lookback3": ["reproduce", "--epochs", "5", "--lookback", "3"],
    # the widest workspace: both gradient-term buffers at their largest
    "reproduce-lookback7": ["reproduce", "--epochs", "5", "--lookback", "7"],
    # the study on a 24-day window with a 7-day horizon, off the paper split
    "reproduce-short": ["reproduce", "--epochs", "5", "--horizon", "7",
                        "--train", "2020-03-24:2020-04-16"],
    # a one-day horizon: one-point figure axes, a one-row table2, and the
    # one summary.md with a classical row outside its band
    "reproduce-horizon1": ["reproduce", "--epochs", "5", "--horizon", "1"],
    "run-lstm-u1": ["run", "--model", "lstm-u1", "--epochs", "20"],
    "run-lstm-u2": ["run", "--model", "lstm-u2", "--epochs", "20"],
    "run-lstm-u2-tanh": ["run", "--model", "lstm-u2", "--epochs", "20", "--activation", "tanh"],
    # a one-member tanh model at lookback 7: every per-step view of the kernel
    "run-lstm-u2-tanh-lookback7": ["run", "--model", "lstm-u2", "--epochs", "20",
                                   "--activation", "tanh", "--lookback", "7"],
    "run-lstm-u3": ["run", "--model", "lstm-u3", "--epochs", "20"],
    "run-lstm-u3-lookback7":["run", "--model", "lstm-u3", "--epochs", "20", "--lookback", "7"],
    # lookback 3: the rolling window holds more than the day just appended
    "run-lstm-u1-lookback3": ["run", "--model", "lstm-u1", "--epochs", "20", "--lookback", "3"],
    "run-lstm-u2-lookback3": ["run", "--model", "lstm-u2", "--epochs", "20", "--lookback", "3"],
    "run-arima": ["run", "--model", "arima"],
    "run-hwaas": ["run", "--model", "hwaas"],
    # the one backtest window whose HW fit is interior: gamma = 1 - 2**-53
    "run-hwaas-interior": ["run", "--model", "hwaas", "--train", "2020-04-02:2020-04-16"],
    # the shortest window hw_fit accepts: two seasons, 14 days
    "run-hwaas-two-seasons": ["run", "--model", "hwaas", "--train", "2020-03-24:2020-04-06"],
    "run-prophet-lite": ["run", "--model", "prophet-lite"],
    # a window whose horizon runs past the series: no actuals, no scores
    "run-prophet-lite-late": ["run", "--model", "prophet-lite", "--train", "2020-04-01:2020-05-08"],
    "run-lstm-u2-late": ["run", "--model", "lstm-u2", "--epochs", "20",
                         "--train", "2020-04-01:2020-05-08"],
    # documented failures, each found within a second; gate_selftest.py's
    # FAILURE_EXITS holds each one's exit code
    "fail-run-lstm-u1-unobserved": ["run", "--model", "lstm-u1",
                                    "--train", "2020-04-01:2020-05-01"],
    "fail-reproduce-unobserved": ["reproduce", "--train", "2020-04-10:2020-05-01"],
    "fail-run-hwaas-7-days": ["run", "--model", "hwaas", "--train", "2020-03-24:2020-03-30"],
    "fail-run-lstm-u2-seed": ["run", "--model", "lstm-u2", "--seed", "-1"],
    "fail-run-epochs-huge": ["run", "--model", "lstm-u2", "--epochs", "10000000000000000000000"],
    # a data error of each kind the CLI writes: no file, a window off the
    # series or reversed, a channel constant over the training window
    "fail-run-data-missing": ["run", "--model", "arima", "--data", "nope.csv"],
    "fail-run-window-outside": ["run", "--model", "arima", "--train", "2020-03-01:2020-03-30"],
    "fail-run-window-reversed": ["run", "--model", "arima", "--train", "2020-04-02:2020-04-01"],
    "fail-run-lstm-u3-constant-deaths": ["run", "--model", "lstm-u3", "--epochs", "20",
                                         "--train", "2020-03-11:2020-03-16"],
    # all 465 backtest windows fitted in pool order, then in reverse, in one
    # process: each Holt-Winters fit meets the unit columns the last one left
    "script-hw-pool-fits": ["hw_pool_fits.py"],
    # run, then load each kind's checkpoint back and forecast from the loaded fit
    "script-checkpoint-reload": ["checkpoint_reload.py"],
    # members whose input widths interleave, through `forecast_schemas` at
    # lookback 1 and 3: each member's params, losses and forecast
    "script-interleaved-members": ["interleaved_members.py"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def commit_of(rev: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                           f"{rev}^{{commit}}"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def extract_tree(commit: str, dest: Path) -> Path:
    """The committed `src/` and `tools/` of `commit`, unpacked under `dest`,
    which is returned: the root of that side."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit, "src",
                          "tools"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def script_path(root: Path, script: str) -> Path:
    """The script a side rooted at `root` runs: its own `tools/<script>`,
    or the working tree's when it has none."""
    own = root / "tools" / script
    return own if own.is_file() else ROOT / "tools" / script


def run_side(root: Path, work: Path) -> dict[str, str]:
    """Run every command on the package in `root/src`, and each script
    entry from `script_path(root, ...)`, with `work` as the working
    directory. Returns entry name -> digest."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
    digests = {}
    for name, argv in COMMANDS.items():
        out = Path("out") / name
        if argv[0].endswith(".py"):
            command = [sys.executable, str(script_path(root, argv[0])), *argv[1:]]
        else:
            command = [sys.executable, "-m", "casecast.cli", *argv, "--out", str(out)]
        proc = subprocess.run(command, cwd=work, env=env, capture_output=True)
        digests[f"{name}/exit"] = _sha(str(proc.returncode).encode())
        digests[f"{name}/stdout"] = _sha(proc.stdout)
        digests[f"{name}/stderr"] = _sha(proc.stderr)
        if (work / out).is_dir():
            for path in sorted((work / out).iterdir()):
                digests[f"{name}/{path.name}"] = _sha(path.read_bytes())
    return digests


def differing(before: dict[str, str], after: dict[str, str]) -> list[str]:
    """Entries whose digests differ, or that only one side has."""
    return sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare the working tree against")
    args = parser.parse_args(argv)
    commit = commit_of(args.rev)
    if commit is None:
        print(f"bitwise gate: {args.rev} is not a commit", file=sys.stderr)
        return 2
    print(f"bitwise gate: {args.rev} ({commit[:12]}) against the working tree", flush=True)
    with tempfile.TemporaryDirectory(prefix="bitwise-gate-") as tmp:
        sides = []
        for side, root in (("before", extract_tree(commit, Path(tmp) / "tree")),
                           ("after", ROOT)):
            (Path(tmp) / side).mkdir()
            sides.append(run_side(root, Path(tmp) / side))
    differ = differing(*sides)
    files = sum(not key.endswith("/exit") for key in sides[0])
    print(f"{len(sides[0])} entries on each side: {files} artifacts, stdouts and stderrs "
          f"and {len(COMMANDS)} exit codes")
    for key in differ:
        print(f"DIFFERS {key}")
    print("no entry differs" if not differ else f"{len(differ)} entries differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
