"""The host's speed during a run, read from a fixed reference kernel.

The benchmark's host is a small guest on a shared machine whose speed
changes with its neighbours' load: the same command runs up to 1.8 times
slower for minutes at a time.  While a command runs, a timer signal
interrupts it every ``INTERVAL`` seconds and times a call of a fixed
kernel, so the kernel samples the host at the moments the command ran.
The call timed is the second of two in a row, so that what the command
left in the caches does not change the kernel's time.
A time is then scaled by ``REF_S / mean kernel time`` over those moments:
a scaled time reads as the time the command would take on a host where
the kernel takes ``REF_S`` seconds, about its time on an idle core of
the 2-core guest described in README.md.  The kernel is the benchmark's
own code, so a change to degenlab does not change it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

REF_S = 0.1e-3
INTERVAL = 0.03
TRIM = 0.02

_LINE = np.linspace(0.0, 1.0, 129)
_GRID = np.linspace(0.0, 1.0, 65 * 65).reshape(65, 65)


def _kernel() -> float:
    """Small-array steps and whole-grid stencils, the two kinds of work in degenlab."""
    s = 0.0
    for _ in range(10):
        d = np.diff(_LINE) * 0.5
        s += float(np.maximum(d, 0.1).sum())
    for _ in range(2):
        g = _GRID[1:-1, 2:] + _GRID[1:-1, :-2] - 2.0 * _GRID[1:-1, 1:-1]
        s += float(np.maximum(g, 0.0).sum())
    return s


def _time_kernel() -> float:
    t = time.perf_counter()
    _kernel()
    return time.perf_counter() - t


def burst(n: int) -> list:
    """Times of ``n`` kernel calls in a row."""
    return [_time_kernel() for _ in range(n)]


def kernel_mean(samples: list) -> float:
    """Mean kernel time, without the fastest and slowest ``TRIM`` share."""
    v = sorted(samples)
    k = int(len(v) * TRIM)
    return statistics.mean(v[k:len(v) - k])


def scale(samples: list) -> float:
    """Factor that turns a time measured while ``samples`` were taken into
    reference-host time."""
    return REF_S / kernel_mean(samples)


@contextmanager
def sampling():
    """Time the kernel every ``INTERVAL`` seconds while the block runs.

    Yields the list the samples go to; a block too short for the timer
    gets one sample, taken when it ends.
    """
    samples: list = []

    def handler(signum, frame):
        _kernel()  # brings the kernel's code and data back into cache
        samples.append(_time_kernel())

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
        if not samples:
            samples.append(_time_kernel())
