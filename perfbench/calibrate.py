"""Host-speed reference, measured at the same time as the passes.

The benchmark's host is a few cores of a shared machine whose speed
swings, for seconds or for minutes, by up to 1.8x.  The slow swings hit both
cores alike, so a fixed reference kernel timed on the spare core while
the passes run on the other tracks them.  ``Reference`` runs that kernel
in a background thread of the benchmark process, which otherwise only
waits for its worker, in chunks of about 10 ms.  ``scale(intervals)``
turns a time measured over those intervals into one that reads as if
the host ran at the speed at which a chunk takes ``REFERENCE_CHUNK_S``.
It averages the chunks over all the run's intervals rather than scaling
each pass by its own: the fast swings of the two cores are nearly
independent, so per-pass scaling adds as much noise as it removes, while
the run-wide mean keeps only the slow drift, which it cancels.  (Over
eight 60 s windows of formal-tate passes the spread of the median pass
time was 0.195 on the wall clock, 0.098 scaled pass by pass and 0.077
scaled run-wide.)  A pass running beside the kernel is not slowed by it:
the host gives each of its two cores a full CPU.

The kernel is frozen here and shares no code with padiclab, so a change
to the program moves the scaled times by exactly its own effect.
"""

from __future__ import annotations

import bisect
import threading
import time
from contextlib import contextmanager

# About the median chunk time beside a pass on a 2-core x86-64 host with
# CPython 3.11, so that reference seconds read close to wall seconds.  Only a
# fixed scale: it cancels when two runs on one host are compared.
REFERENCE_CHUNK_S = 0.0080
# How strongly a pass's time follows the chunk time.  Over 28 runs of the
# two workloads, the log of the median pass time regressed on the log of
# the mean chunk time has slope 0.82 (formal-tate, correlation 0.87) and
# 0.68 (grid-p3n2, correlation 0.76): the kernel swings more than the
# program does.  Scaling by the full ratio over-corrects (spread of the
# run medians 0.088 -> 0.077 and 0.129 -> 0.094); this power of it gives
# 0.066 and 0.084.
ELASTICITY = 0.7

_M = 3**80
_COEFFS = [(7 * i + 1) ** 9 % _M for i in range(64)]


class _Z:
    __slots__ = ("u",)

    def __init__(self, u):
        self.u = u

    def mul(self, other):
        return _Z(self.u * other.u % _M)

    def add(self, other):
        return _Z((self.u + other.u) % _M)


def kernel(rounds: int = 100) -> int:
    """Horner steps with 127-bit residues and small objects, as the
    program's scalar arithmetic does; about 10 ms at 100 rounds."""
    coeffs = [_Z(c) for c in _COEFFS]
    x = _Z(12345678901234567)
    acc = _Z(0)
    for _ in range(rounds):
        for c in coeffs:
            acc = acc.mul(x).add(c)
    return acc.u


class Reference:
    """Background reference kernel; use as a context manager."""

    def __init__(self):
        self._ends = []
        self._durations = []
        self._stop = threading.Event()
        self._resume = threading.Event()
        self._resume.set()
        self._busy = threading.Lock()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._resume.set()
        self._thread.join()

    def _loop(self):
        while not self._stop.is_set():
            self._resume.wait()
            with self._busy:
                t0 = time.monotonic()
                kernel()
                t1 = time.monotonic()
            # list appends are atomic; readers only look at a prefix
            self._durations.append(t1 - t0)
            self._ends.append(t1)

    @contextmanager
    def paused(self):
        """No chunk runs inside this block: for timings taken in this
        process, which the thread would delay by holding the GIL."""
        self._resume.clear()
        try:
            with self._busy:  # lets the chunk in progress finish
                yield
        finally:
            self._resume.set()

    def scale(self, intervals) -> float:
        """Factor that turns times measured over these intervals of
        ``time.monotonic()`` into reference time: REFERENCE_CHUNK_S over
        the mean time of the chunks that ended within them, to the power
        ELASTICITY."""
        ends = self._ends[: len(self._ends)]
        durations = []
        for t0, t1 in intervals:
            durations += self._durations[bisect.bisect_left(ends, t0) : bisect.bisect_right(ends, t1)]
        if not durations:
            raise RuntimeError("no reference chunk ended within the measured intervals")
        return (REFERENCE_CHUNK_S * len(durations) / sum(durations)) ** ELASTICITY
