"""Timing that corrects for the host's CPU speed.

On a shared host the same code runs up to twice as slowly for a second
to minutes at a time while neighbours are busy; CPU time slows with wall
time, so neither can tell a slower program from a slower host.  While an
interval is timed, a short fixed probe that never calls chmmtrade runs
from a timer signal every ``PROBE_EVERY_S`` of wall time, and
``PROBES_AROUND`` times just before and just after the interval.  The
host's slowdown over the interval is the harmonic mean of the probe
times (the mean of the host's speed over the samples) against
``REFERENCE_S``, and

    adjusted_s = (wall_s - time spent in probes) / slowdown

A change to the library moves the wall time and leaves the probe alone,
so it moves ``adjusted_s`` by the same share; a slower host moves both
and cancels.  ``REFERENCE_S`` is a constant, so adjusted times from runs
of two commits compare directly.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy

# The probe's time on the machine the bounds were set on
# (2 vCPUs, Intel Xeon, Python 3.11.7, numpy 2.4.6) in its fast phase.
REFERENCE_S = 0.00053
PROBE_EVERY_S = 0.1
PROBES_AROUND = 5  # on each side of a timed interval

_MATRIX = numpy.full((5, 5), 0.2)
_VECTOR = numpy.linspace(0.0, 1.0, 400)


def probe() -> float:
    """A fixed mix of the library's kinds of work: an interpreted float
    loop, tiny numpy calls, vector reductions, dictionary updates and
    number formatting and parsing, as in CSV reads and writes."""
    total = 0.0
    for i in range(2000):
        total += i * 0.5 - (i % 7)
    x = _MATRIX
    for _ in range(40):
        x = x @ _MATRIX
        x = x / x.sum()
    for _ in range(12):
        total += float(numpy.log(_VECTOR + 1.0).sum())
    counts: dict[int, int] = {}
    for i in range(800):
        counts[i % 50] = counts.get(i % 50, 0) + 1
    for i in range(300):
        total += float(f"{i * 0.37:.6f}")
    return total + float(x[0, 0]) + len(counts)


def _timed_probe(samples: list[float]) -> float:
    """Run the probe twice and time the second run, whose caches the first
    has filled whatever ran before; return the time of both."""
    t0 = time.perf_counter()
    probe()
    t1 = time.perf_counter()
    probe()
    t2 = time.perf_counter()
    samples.append(t2 - t1)
    return t2 - t0


def timed(fn, *args):
    """Call ``fn(*args)`` while probing the host's speed; return its
    result, its wall time less the probes run during it, and the host's
    slowdown over it (1.0 at reference speed, 1.5 when the probe takes
    half as long again).  The adjusted time is wall / slowdown."""
    samples: list[float] = []
    for _ in range(PROBES_AROUND):
        _timed_probe(samples)
    during: list[float] = []
    spent: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: spent.append(_timed_probe(during)))
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    for _ in range(PROBES_AROUND):
        _timed_probe(samples)
    return result, wall - sum(spent), statistics.harmonic_mean(samples + during) / REFERENCE_S
