"""Bitwise gate for behaviour-preserving changes.

Runs one fixed list of `casecast` commands on the `src/` of a git revision
and on the `src/` of the working tree, hashes (SHA-256) every artifact, the
stdout, the stderr and the exit code of each command, and lists every entry
that differs between the two sides.

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
    "run-lstm-u1": ["run", "--model", "lstm-u1", "--epochs", "20"],
    "run-lstm-u2": ["run", "--model", "lstm-u2", "--epochs", "20"],
    "run-lstm-u2-tanh": ["run", "--model", "lstm-u2", "--epochs", "20", "--activation", "tanh"],
    "run-lstm-u3-lookback7": ["run", "--model", "lstm-u3", "--epochs", "20", "--lookback", "7"],
    # lookback 3: the rolling window holds more than the day just appended
    "run-lstm-u1-lookback3": ["run", "--model", "lstm-u1", "--epochs", "20", "--lookback", "3"],
    "run-lstm-u2-lookback3": ["run", "--model", "lstm-u2", "--epochs", "20", "--lookback", "3"],
    "run-arima": ["run", "--model", "arima"],
    "run-hwaas": ["run", "--model", "hwaas"],
    "run-prophet-lite": ["run", "--model", "prophet-lite"],
    # a window whose horizon runs past the series: no actuals, no scores
    "run-prophet-lite-late": ["run", "--model", "prophet-lite", "--train", "2020-04-01:2020-05-08"],
    "run-lstm-u2-late": ["run", "--model", "lstm-u2", "--epochs", "20",
                         "--train", "2020-04-01:2020-05-08"],
    # documented failures, each found within a second: exit 2, 2, 2 and 1
    "fail-run-lstm-u1-unobserved": ["run", "--model", "lstm-u1",
                                    "--train", "2020-04-01:2020-05-01"],
    "fail-reproduce-unobserved": ["reproduce", "--train", "2020-04-10:2020-05-01"],
    "fail-run-hwaas-7-days": ["run", "--model", "hwaas", "--train", "2020-03-24:2020-03-30"],
    "fail-run-lstm-u2-seed": ["run", "--model", "lstm-u2", "--seed", "-1"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def commit_of(rev: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                           f"{rev}^{{commit}}"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def extract_src(commit: str, dest: Path) -> Path:
    """The committed `src/` of `commit`, unpacked under `dest`."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def run_side(src: Path, work: Path) -> dict[str, str]:
    """Run every command on the package in `src` with `work` as the working
    directory. Returns entry name -> digest."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    digests = {}
    for name, argv in COMMANDS.items():
        out = Path("out") / name
        proc = subprocess.run([sys.executable, "-m", "casecast.cli", *argv, "--out", str(out)],
                              cwd=work, env=env, capture_output=True)
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
        for side, src in (("before", extract_src(commit, Path(tmp) / "tree")),
                          ("after", ROOT / "src")):
            (Path(tmp) / side).mkdir()
            sides.append(run_side(src, Path(tmp) / side))
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
