"""Machine-speed probe: a fixed reference kernel timed while an operation runs.

On a shared machine the speed of the same code swings by a third and more,
over seconds to minutes, and a run of 30 s cannot average that away. The
probe times a small fixed kernel every SAMPLE_PERIOD seconds from a SIGALRM
handler, on the same core and interleaved with the operation, and once more
after it. Dividing the operation's time by the kernel's time measured
alongside removes most of the swing (see README.md, "Steadiness").
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Scaled times read as seconds on a machine where one reference() run takes
# this long; it is close to the median on the 2-core VM the baseline used.
REFERENCE_SECONDS = 0.003
SAMPLE_PERIOD = 0.25

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((128, 32))
_X = _rng.standard_normal(32)


def reference():
    """Seconds taken by 300 LSTM-step-sized numpy updates, the kind of work
    (Python dispatch around small arrays) that dominates casecast."""
    start = perf_counter()
    x = _X
    for _ in range(300):
        a = _W @ x
        x = np.tanh(a[:32]) * 0.5 + 1.0 / (1.0 + np.exp(-a[32:64]))
    return perf_counter() - start


class Probe:
    """Context manager sampling `reference()` while its block runs."""

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def _sample(self, signum, frame):
        self.samples.append(reference())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.inside = sum(self.samples)
        self.samples.append(reference())
        return False

    def scale(self, seconds):
        """`seconds` timed inside the block, less the probe's own samples,
        converted to the nominal machine speed."""
        return (seconds - self.inside) * REFERENCE_SECONDS / statistics.mean(self.samples)
