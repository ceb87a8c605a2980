"""Machine-speed reference for calibrating end-to-end times.

The sandbox the benchmark targets is a shared 2-vCPU virtual machine whose
speed drifts by 20-30% in waves minutes long (neighbours on the host). A
20-second run sees one point of that wave, so raw wall times of identical
runs differ by more than any useful regression bound, and longer runs do
not help. The benchmark therefore times a fixed reference computation,
owned by the benchmark and independent of the package, between
measurements (never inside one), for a tenth of the time it measures. The
run's times are scaled by ``REFERENCE_NOMINAL_S / mean(reference times)``,
so they read as they would on a machine where the reference takes its
nominal time. The mean, not the median, because the machine also flips
between a fast and a slow state within seconds and an operation's time
integrates over both. Set-up times, taken before the loop, get their own
factor from the references sampled between them. Raw times are printed
beside the calibrated ones.

The reference mixes the kinds of work the workloads do: interpreted Python
loops, a numpy row ``unique`` (a sort) and many small-array operations. It
is timed with the calling thread's CPU clock, so CPU work left running in
other threads or processes cannot slow it and flatter the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the mean reference time on the baseline sandbox; it only sets the scale
REFERENCE_NOMINAL_S = 0.010
# references after a measurement last this share of the measurement
SHARE = 0.1

_ROWS = np.random.default_rng(0).integers(0, 100, size=(10_000, 2))


def reference() -> float:
    """Run the reference once; returns its thread CPU time in seconds."""
    start = time.thread_time()
    total = 0
    for i in range(20_000):
        total += i * i
    np.unique(_ROWS, axis=0)
    x = np.zeros(30)
    for _ in range(60):
        x = x + 1.0
        x[np.argmin(x)] -= 0.5
    return time.thread_time() - start


def sample(budget_s: float) -> list:
    """Reference times, repeated until ``budget_s`` of wall time is spent (at least once)."""
    out = []
    end = time.perf_counter() + budget_s
    while True:
        out.append(reference())
        if time.perf_counter() >= end:
            return out


def factor(times: list) -> float:
    """Multiply a time by this to calibrate it; divide a rate by it."""
    return REFERENCE_NOMINAL_S / statistics.fmean(times)
