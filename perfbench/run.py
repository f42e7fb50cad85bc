"""casecast benchmark: one command for the study, backtest and fit_seq7
workloads.

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. With `--trace 0` the last stdout line is a JSON object holding the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced run. `--workload all` runs every workload and prints a table first.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

# Set-up in a fresh interpreter: import the program, load the dataset and
# build the workload's inputs. Prints the elapsed seconds, then the median
# time of the speed reference run right after, in the same process.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import json, workloads
ts = workloads.load_dataset()
sizes = workloads.Sizes(**json.loads(sys.argv[5]))
workloads.WORKLOADS[sys.argv[3]](ts, int(sys.argv[4]), sizes, sys.argv[6])
elapsed = time.perf_counter() - t0
import statistics, speed
print(elapsed, statistics.median(speed.reference() for _ in range(9)))
"""


def machine():
    """Core count, BLAS and its thread count, library versions."""
    import numpy
    import scipy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "unknown",
        "blas_threads": None,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                return info
    return info


def measure_setup(name, seed, sizes, workdir):
    """Median set-up time over `sizes.setup_reps` fresh interpreters, each
    scaled to the nominal machine speed; also the unscaled median."""
    times, raw = [], []
    for _ in range(sizes.setup_reps):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), name, str(seed),
             json.dumps(asdict(sizes)), str(workdir)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        elapsed, ref = (float(x) for x in proc.stdout.split()[-2:])
        raw.append(elapsed)
        times.append(elapsed * speed.REFERENCE_SECONDS / ref)
    return statistics.median(times), statistics.median(raw)


def lstm_step_flops(lookback, channels, hidden):
    """Floating-point operations of one training sample (forward, BPTT and
    Adam), counted from the array shapes: multiply-adds count two, each
    elementwise operation one."""
    d, h, g = channels, hidden, 4 * hidden
    forward = lookback * (2 * g * (d + h) + g + 30 * h) + 2 * d * h + d
    backward = lookback * (2 * g * d + 4 * g * h + g + 30 * h) + 4 * d * h + 2 * d
    params = g * (d + h + 1) + d * h + d
    return forward + backward + 12 * params


def layer_metrics(ops, setup, notes, runs, walls, traced_walls):
    """Per-layer metrics of a traced run. Counts and byte sizes are per
    operation of the workload (`runs` traced operations ran); times are
    per call unless named otherwise."""

    def calls(name):
        return ops[name]["calls"]

    def total(name, field="total"):
        return ops[name][field]

    def per_call(name, field="total"):
        return total(name, field) / calls(name) if calls(name) else 0.0

    steps = calls("lstm.bptt")
    train_s = total("lstm.train")
    flops = sum(n * lstm_step_flops(t, d, h) for n, t, d, h in notes["lstm.train"])
    hw_fits = notes["hw.fits"]
    all_starts = [s for _, starts in hw_fits for s in starts]
    useful = sum(min(starts, key=lambda s: s[2])[0] for _, starts in hw_fits if starts)
    boundary = sum(
        any(w <= 1e-6 or w >= 1 - 1e-6 for w in weights) for weights, _ in hw_fits
    )
    hw_durations = ops["classical.hw_fit"]["durations"]
    loads = (setup["data.load_csv"], ops["data.load_csv"])
    load_calls = sum(s["calls"] for s in loads)
    mapes = {}
    for label, mape in notes["summarize"]:
        label = label.lower()
        if label.startswith("lstm-"):  # `casecast run` labels by model; it trains elu
            label = label[len("lstm-"):] + "-elu"
        mapes[label.replace("-", "_")] = mape
    untraced, traced = statistics.median(walls), statistics.median(traced_walls)

    m = {
        "lstm.train.steps": (steps / runs, "count"),
        "lstm.train.us_per_step": (1e6 * train_s / steps if steps else 0.0, "us"),
        "lstm.adam.us": (1e6 * per_call("lstm.adam"), "us"),
        "lstm.adam.share": (total("lstm.adam") / train_s if train_s else 0.0, "ratio"),
        "lstm.bptt.self_us": (1e6 * per_call("lstm.bptt", "self"), "us"),
        "lstm.forward.us": (1e6 * per_call("lstm.forward"), "us"),
        "lstm.forward.calls": (calls("lstm.forward") / runs, "count"),
        "lstm.forecast.ms": (1e3 * per_call("lstm.run_schema"), "ms"),
        "lstm.train.gflops_computed": (flops / train_s / 1e9 if train_s else 0.0, "GFLOP/s"),
    }
    for schema in ("u1", "u2", "u3"):
        for activation in ("elu", "tanh"):
            key = f"{schema}_{activation}"
            m[f"lstm.mape.{key}"] = (mapes.get(key, 0.0), "%")
    m.update({
        "classical.hw_fit.s": (statistics.median(hw_durations) if hw_durations else 0.0, "s"),
        "classical.hw_fit.max_s": (max(hw_durations, default=0.0), "s"),
        "classical.hw_fit.calls": (len(hw_durations) / runs, "count"),
        "classical.hw.nfev": (sum(s[0] for s in all_starts) / runs, "count"),
        "classical.hw.useful_nfev_ratio": (
            useful / sum(s[0] for s in all_starts) if all_starts else 0.0, "ratio"),
        "classical.hw.unconverged_starts": (
            sum(not s[1] for s in all_starts) / runs, "count"),
        "classical.hw.boundary_fits": (boundary / runs, "count"),
        "classical.arima.us": (1e6 * (total("classical.arima.fit") + total(
            "classical.arima.forecast")) / max(calls("classical.arima.fit"), 1), "us"),
        "classical.prophet.us": (1e6 * (total("classical.prophet.fit") + total(
            "classical.prophet.forecast")) / max(calls("classical.prophet.fit"), 1), "us"),
        "data.load_csv.ms": (
            1e3 * sum(s["total"] for s in loads) / load_calls if load_calls else 0.0, "ms"),
        "data.prep.us": (1e6 * (setup["data.prep"]["total"] + total("data.prep") / runs), "us"),
        "evaluation.summarize.us": (1e6 * per_call("evaluation.summarize"), "us"),
        "evaluation.emit.ms": (1e3 * total("evaluation.emit") / runs, "ms"),
        "evaluation.bytes": (sum(notes["evaluation.bytes"]) / runs, "bytes"),
        "checkpoint.save.ms": (1e3 * per_call("checkpoint.save"), "ms"),
        "checkpoint.load.ms": (1e3 * per_call("checkpoint.load"), "ms"),
        "checkpoint.bytes": (sum(notes["checkpoint.bytes"]) / runs, "bytes"),
        "cli.self_s": (total("cli.main", "self") / runs, "s"),
        "trace.wall_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.overhead_share": ((traced - untraced) / untraced, "ratio"),
    })
    return m


def time_operation(wl, tag, tracer=None, probe=None):
    """Run one operation, under `tracer` or `probe` if given; return its
    result and wall time."""
    import tracer as tracing

    context = tracer or probe or contextlib.nullcontext()
    with context:
        if tracer is not None:
            tracing.install(tracer)
        t0 = perf_counter()
        try:
            result = wl.run(tag)
        finally:
            elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.reduce()
    return result, elapsed


def measure(name, seed, seconds, trace, sizes=None):
    """Repeat one workload's operation for `seconds`, and at least
    `min_runs` times; return (outcome, metrics, unscaled), where `unscaled`
    holds the plain wall-clock medians behind the scaled times."""
    import tracer as tracing
    import workloads

    sizes = sizes or workloads.Sizes()
    cls = workloads.WORKLOADS[name]
    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    outcome = workloads.Outcome()
    unscaled = {}
    try:
        if not trace:
            setup_s, unscaled["setup_s"] = measure_setup(name, seed, sizes, workdir)
        setup_tracer, tracer = tracing.Tracer(), tracing.Tracer()
        with setup_tracer if trace else contextlib.nullcontext():
            if trace:
                tracing.install(setup_tracer)
            ts = workloads.load_dataset()
            wl = cls(ts, seed, sizes, str(workdir))
        setup_tracer.reduce()

        walls, raw_walls, traced_walls = [], [], []
        runs = 0
        deadline = perf_counter() + seconds
        # Operations repeat while the next one is expected to end in time.
        # Untraced runs time each operation under the speed probe and report
        # it scaled; a traced run times each operation both ways, unscaled,
        # alternating which goes first, so the overhead is a paired difference.
        while runs < wl.min_runs or perf_counter() + (raw_walls or [0.0])[-1] <= deadline:
            modes = ((False, True) if runs % 4 == 0 else (True, False)) if trace else (False,)
            for traced in modes:
                tag = len(raw_walls)
                probe = None if trace else speed.Probe()
                try:
                    result, elapsed = time_operation(
                        wl, tag, tracer if traced else None, probe)
                except Exception as exc:  # a crash is a failed, wrong result
                    for _ in range(wl.results_per_run):
                        outcome.record(False, f"{name} operation raised {exc!r}")
                    continue
                finally:
                    runs += 1
                wl.check(result, outcome)
                raw_walls.append(elapsed)
                if traced:
                    traced_walls.append(elapsed)
                else:
                    walls.append(probe.scale(elapsed) if probe else elapsed)
        wl.finish(outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:  # another run still uses it
            pass

    if trace:
        metrics = layer_metrics(tracer.stats, setup_tracer.stats, tracer.notes,
                                len(traced_walls), walls, traced_walls)
    else:
        unscaled["wall_s"] = statistics.median(raw_walls)
        rate = 1.0 - outcome.failed / outcome.attempted if outcome.attempted else 0.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_rate": (rate, "ratio"),
            "mape_hwaas": (wl.mape.get("hwaas"), "%"),
            "mape_arima": (wl.mape.get("arima"), "%"),
            "mape_prophet_lite": (wl.mape.get("prophet_lite"), "%"),
        }
    return outcome, metrics, unscaled


def result_line(outcome, metrics):
    return json.dumps({
        "correct": outcome.attempted > 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("study", "backtest", "fit_seq7", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "casecast" / "__init__.py").is_file():
        print(f"perfbench: no casecast sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import casecast
    import workloads

    if Path(casecast.__file__).resolve().parent != SRC / "casecast":
        print(f"perfbench: imported casecast from {casecast.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine()))
    names = ("study", "backtest", "fit_seq7") if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        outcome, metrics, unscaled = measure(name, args.seed, args.seconds, bool(args.trace))
        results[name] = (outcome, metrics)
        for problem in outcome.problems:
            print(f"perfbench: {name}: {problem}", file=sys.stderr)
        error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
        verdict = "correct" if outcome.attempted and not outcome.problems else "WRONG"
        print(f"{name}: {verdict}, error_rate {error_rate:.4f} "
              f"({outcome.failed}/{outcome.attempted} model results failed)")
        for key, (value, unit) in metrics.items():
            print(f"  {key:34s} {value!r:>24} {unit}")
        for key, value in unscaled.items():
            print(f"  {key + ' (unscaled)':34s} {value!r:>24} s")
    if len(names) == 1:
        print(result_line(*results[names[0]]))
    else:
        combined = workloads.Outcome(
            attempted=sum(o.attempted for o, _ in results.values()),
            failed=sum(o.failed for o, _ in results.values()),
            problems=[p for o, _ in results.values() for p in o.problems],
        )
        metrics = {f"{n}.{k}": v for n, (_, m) in results.items() for k, v in m.items()}
        print(result_line(combined, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
