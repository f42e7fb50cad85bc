"""Record one point of the benchmark trajectory as `BENCH_<label>.json` at
the repository root.

    python3 tools/bench_record.py LABEL

Runs `perfbench/run.py --workload all` twice, untraced and then traced,
from this checkout, always at seed 1 (`SEED`) and BENCHMARK.json's
`run_seconds`, so every record of the trajectory measures one setting. It
keeps of each run its `machine` line (cores, BLAS and its threads, python,
numpy, scipy) and its last line, the JSON object of its metrics. It then
runs Tier-1 (`TIER1`, pytest with `--durations=0`) and keeps its outcome
counts, its warning count and its time split: the set-up of the
acceptance tests (their session fixtures, the 20-member LSTM training
among them), `test_full_u2_determinism`, and the rest of pytest's total.
It also keeps each module's code lines (`code_lines.tree_counts()`), so
the trajectory shows the package's size beside its speed. The record
names the SHA-256 of the source files it measured and is written with its
keys sorted, so two records of one tree differ only in their numbers.

Exit 1 when a perfbench run fails or prints no machine line or no JSON, or
when pytest's summary counts anything but the `OUTCOMES` of tests and
warnings (an error, such as a collection error, among them) or it prints
no durations for the two timed parts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from code_lines import tree_counts

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0",
         "-p", "no:cacheprovider"]
ACCEPTANCE = "tests/test_acceptance.py::"
DETERMINISM = ACCEPTANCE + "TestLstm::test_full_u2_determinism"
# the words a Tier-1 summary may count tests under, each in pytest's one form
OUTCOMES = ("passed", "failed", "skipped", "deselected", "xfailed", "xpassed")


def parse_run(stdout: str) -> dict:
    """{"machine": ..., "result": ...} from one perfbench run's stdout: the
    JSON after its `machine ` line and its last line, which must be a JSON
    object. Either one missing is a ValueError."""
    lines = stdout.strip().splitlines()
    machines = [line[len("machine "):] for line in lines if line.startswith("machine ")]
    if not machines:
        raise ValueError("perfbench printed no machine line")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        raise ValueError("perfbench's last line is not a JSON object")
    return {"machine": json.loads(machines[0]), "result": result}


def parse_durations(stdout: str) -> dict:
    """{"counts": ..., "warnings": ..., "seconds": ...} from Tier-1's stdout
    under `--durations=0`: its last line's count of each of the `OUTCOMES`
    it names and its warning count (0 if it names none), and its seconds,
    `total` as that line gives it, `acceptance_setup` the sum of the set-up
    lines of the acceptance tests, `u2_determinism` the call line of
    `test_full_u2_determinism`, and `rest` the remainder of `total`. No
    summary line, a count of anything else (`1 error`, `2 errors`, ...),
    or no durations for either timed part is a ValueError."""
    lines = stdout.strip().splitlines()
    summary = re.match(r"=*\s*((?:\d+ \w+(?:, )?)+) in ([\d.]+)s\b", lines[-1] if lines else "")
    if summary is None:
        raise ValueError("pytest printed no summary line")
    counts, warnings = {}, 0
    for n, word in re.findall(r"(\d+) (\w+)", summary[1]):
        if word in ("warning", "warnings"):
            warnings = int(n)
        elif word in OUTCOMES:
            counts[word] = int(n)
        else:
            raise ValueError(f"pytest reported {n} {word}")
    durations = [re.fullmatch(r"([\d.]+)s (setup|call|teardown) +(\S+)", line.strip())
                 for line in lines]
    durations = [(float(m[1]), m[2], m[3]) for m in durations if m]
    setup = [s for s, when, test in durations if when == "setup" and test.startswith(ACCEPTANCE)]
    determinism = [s for s, when, test in durations if when == "call" and test == DETERMINISM]
    if not setup or not determinism:
        raise ValueError("pytest printed no durations for the acceptance set-up "
                         "and test_full_u2_determinism")
    total = float(summary[2])
    seconds = {"total": total, "acceptance_setup": round(sum(setup), 2),
               "u2_determinism": determinism[0]}
    seconds["rest"] = round(total - seconds["acceptance_setup"] - seconds["u2_determinism"], 2)
    return {"counts": counts, "warnings": warnings, "seconds": seconds}


def source_digest(root: Path = ROOT) -> str:
    """SHA-256 over the path and bytes of every file under src/casecast."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "casecast").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def record_text(label: str, seconds: int, untraced: dict, traced: dict, tier1: dict,
                digest: str, code_lines: dict) -> str:
    """The record as JSON text, keys sorted, one trailing newline;
    `code_lines` maps each module's file name to its code lines."""
    record = {
        "label": label,
        "source_sha256": digest,
        "code_lines": code_lines,
        "command": {"workload": "all", "seed": SEED, "seconds": seconds},
        "untraced": untraced,
        "traced": traced,
        "tier1": {"command": " ".join(["python"] + TIER1), **tier1},
    }
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def run_perfbench(seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return parse_run(proc.stdout)


def run_tier1() -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env, capture_output=True,
                          text=True)
    # 1: some test failed, which the counts record, or a collection error,
    # which parse_durations rejects
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {proc.returncode}: {proc.stdout.strip()[-500:]}")
    return parse_durations(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="the record's name: BENCH_<label>.json")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    try:
        untraced = run_perfbench(seconds, trace=0)
        traced = run_perfbench(seconds, trace=1)
        tier1 = run_tier1()
    except (RuntimeError, ValueError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    path = ROOT / f"BENCH_{args.label}.json"
    text = record_text(args.label, seconds, untraced, traced, tier1, source_digest(),
                       tree_counts())
    path.write_text(text, encoding="utf-8")
    print(f"bench_record: wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
