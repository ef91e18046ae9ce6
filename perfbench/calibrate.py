"""A fixed calibration kernel, timed between units of work, that puts the
benchmark's timings on a reference-machine scale.

The benchmark runs on shared machines whose speed drifts.  On a shared
2-core Linux machine, one 5-epoch training run took from 2.8 s to 5.1 s
within an hour, and over 10-second windows of parsing the median
sentence time varied by 43% (quartile distance over median) while the
process's CPU time kept pace with its wall time.  The kernel below has
framepath's mix, an LSTM-style recurrence of small numpy products and
elementwise maps driven from a Python loop, so contention slows it by
about as much.  Timing the two side by side and scaling by the kernel's
slowdown removes most of the drift.  Scaled figures are "reference
seconds": seconds on a machine where one kernel call takes REFERENCE_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 1.5e-3
_RNG = np.random.default_rng(0)
_X = _RNG.normal(0.0, 1.0, (24, 96))
_WX = _RNG.normal(0.0, 0.1, (96, 128))
_WH = _RNG.normal(0.0, 0.1, (32, 128))
_B = _RNG.normal(0.0, 0.1, 128)


def kernel() -> np.ndarray:
    """Two LSTM passes over 24 steps, hidden size 32, input width 96."""
    for _ in range(2):
        xw = _X @ _WX + _B
        h = np.zeros(32)
        c = np.zeros(32)
        rows = []
        for t in range(len(xw)):
            gates = xw[t] + h @ _WH
            i, f, o = (1.0 / (1.0 + np.exp(-gates[k:k + 32]))
                       for k in (0, 32, 96))
            c = f * c + i * np.tanh(gates[64:96])
            h = o * np.tanh(c)
            rows.append(h)
        out = np.stack(rows)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("calibration kernel diverged")
    return out


class Calibration:
    """Kernel timings, taken one call at a time between units of work."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time one kernel call; returns the seconds it took."""
        t0 = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def scale(self, since: int = 0, mean: bool = False) -> float:
        """Reference seconds per wall second over samples[since:], below 1
        when the machine ran slower than the reference.  A total time
        (throughput, set-up) follows the mean slowdown over its span; a
        median latency follows the median one."""
        average = statistics.fmean if mean else statistics.median
        return REFERENCE_S / average(self.samples[since:])
