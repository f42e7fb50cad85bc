"""Record one point of the benchmark trajectory as `BENCH_<label>.json` at
the repository root.

    python3 tools/bench_record.py LABEL

Runs `perfbench/run.py --workload all` twice, untraced and then traced,
from this checkout, always at seed 1 (`SEED`) and BENCHMARK.json's
`run_seconds`, so every record of the trajectory measures one setting. It
keeps of each run its `machine` line (cores, BLAS and its threads, python,
numpy, scipy) and its last line, the JSON object of its metrics. The
record names the SHA-256 of the source files it measured and is written
with its keys sorted, so two records of one tree differ only in their
numbers.

Exit 1 when a perfbench run fails or prints no machine line or no JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


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


def source_digest(root: Path = ROOT) -> str:
    """SHA-256 over the path and bytes of every file under src/casecast."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "casecast").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def record_text(label: str, seconds: int, untraced: dict, traced: dict, digest: str) -> str:
    """The record as JSON text, keys sorted, one trailing newline."""
    record = {
        "label": label,
        "source_sha256": digest,
        "command": {"workload": "all", "seed": SEED, "seconds": seconds},
        "untraced": untraced,
        "traced": traced,
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="the record's name: BENCH_<label>.json")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    try:
        untraced = run_perfbench(seconds, trace=0)
        traced = run_perfbench(seconds, trace=1)
    except (RuntimeError, ValueError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(record_text(args.label, seconds, untraced, traced, source_digest()),
                    encoding="utf-8")
    print(f"bench_record: wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
