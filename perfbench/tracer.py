"""In-memory span tracer that wraps public casecast functions from outside.

A span is (name, start, end, parent index). Spans live in a list until the
benchmark reduces them; nothing is written while the program runs. Each
function is patched in the namespace its caller looks it up in, and every
patch is undone when the tracer context exits, so untraced operations run
the unmodified program.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from time import perf_counter


def _new_stat():
    return {"calls": 0, "total": 0.0, "self": 0.0, "durations": []}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []
        # per span name: calls, total time, self time, every duration
        self.stats: dict[str, dict] = defaultdict(_new_stat)
        # facts recorded at layer boundaries (counts, sizes, results)
        self.notes: dict[str, list] = defaultdict(list)

    def wrap(self, name, fn, after=None):
        """Return `fn` wrapped in a span named `name`; `after(tracer,
        args, kwargs, result)` runs outside the span once the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def reduce(self):
        """Fold the recorded spans into `stats` and clear them. A span's self
        time is its duration minus the time its direct children cover."""
        children = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, _) in enumerate(self.spans):
            s = self.stats[name]
            s["calls"] += 1
            s["total"] += end - start
            s["self"] += end - start - children[index]
            s["durations"].append(end - start)
        self.spans.clear()


def _file_size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _note_minimize(tracer, args, kwargs, result):
    tracer.notes["hw.pending_starts"].append(
        (int(result.nfev), bool(result.success), float(result.fun))
    )


def _note_hw_fit(tracer, args, kwargs, fit):
    """One record per fit: its smoothing weights and the starts it ran."""
    starts = list(tracer.notes.pop("hw.pending_starts", []))
    tracer.notes["hw.fits"].append(((fit.alpha, fit.beta, fit.gamma), starts))


def _note_train(tracer, args, kwargs, model):
    n, lookback, channels = args[0].inputs.shape
    cfg = args[1]
    tracer.notes["lstm.train"].append((n * cfg.epochs, lookback, channels, cfg.hidden))


def _note_summarize(tracer, args, kwargs, report):
    tracer.notes["summarize"].append((report.model, report.mape))


def _note_emitted(path_arg):
    def note(tracer, args, kwargs, result):
        tracer.notes["evaluation.bytes"].append(_file_size(args[path_arg]))

    return note


def _note_checkpoint(tracer, args, kwargs, result):
    tracer.notes["checkpoint.bytes"].append(_file_size(args[1]))


def install(tracer):
    """Patch every layer boundary the benchmark measures.

    `cli` binds the classical, data, evaluation and lstm entry points by
    name at import, so those are patched in `cli`'s namespace; the same
    functions are also patched in their home modules, where the benchmark
    itself and `lstm`'s own functions look them up. `hw_fit` calls
    `minimize` through the `classical` namespace, which is where its
    evaluation counts are read.
    """
    from casecast import checkpoint, classical, cli, data, evaluation, lstm

    for owner in (cli, classical):
        tracer.patch(owner, "fit_arima", "classical.arima.fit")
        tracer.patch(owner, "forecast_arima_from_series", "classical.arima.forecast")
        tracer.patch(owner, "hw_fit", "classical.hw_fit", _note_hw_fit)
        tracer.patch(owner, "hw_forecast", "classical.hw_forecast")
        tracer.patch(owner, "prophet_lite_fit", "classical.prophet.fit")
        tracer.patch(owner, "prophet_lite_forecast", "classical.prophet.forecast")
    tracer.patch(classical, "minimize", "classical.minimize", _note_minimize)

    for owner in (cli, data):
        tracer.patch(owner, "load_csv", "data.load_csv")
    for owner in (cli, lstm, data):
        tracer.patch(owner, "slice_window", "data.prep")
    for owner in (lstm, data):
        tracer.patch(owner, "fit_normalizer", "data.prep")
        tracer.patch(owner, "make_windows", "data.prep")

    for owner in (cli, evaluation):
        tracer.patch(owner, "summarize", "evaluation.summarize", _note_summarize)
        tracer.patch(owner, "emit_table", "evaluation.emit", _note_emitted(1))
        tracer.patch(owner, "emit_plot", "evaluation.emit", _note_emitted(2))
        tracer.patch(owner, "write_summary_csv", "evaluation.emit", _note_emitted(1))

    for owner in (cli, lstm):
        tracer.patch(owner, "train_schema_model", "lstm.train_schema_model")
        tracer.patch(owner, "run_schema", "lstm.run_schema")
    tracer.patch(lstm, "train", "lstm.train", _note_train)
    tracer.patch(lstm, "bptt_gradient", "lstm.bptt")
    tracer.patch(lstm, "adam_update", "lstm.adam")
    tracer.patch(lstm, "forward", "lstm.forward")

    tracer.patch(checkpoint, "save_lstm", "checkpoint.save", _note_checkpoint)
    tracer.patch(checkpoint, "save_classical", "checkpoint.save", _note_checkpoint)
    tracer.patch(checkpoint, "load", "checkpoint.load")
    tracer.patch(cli, "main", "cli.main")
