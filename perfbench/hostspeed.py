"""Host-speed probe, for timings that do not follow the host's load.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pass runs up to twice as slow from one minute to the next, while the
process's CPU time equals its wall time and steal time hardly grows.  A run
of a minute cannot average that out.  So each pass process reads this probe
after set-up, before the first experiment call of every pass and after every
call, and ``run.py`` divides each of the run's timings by the median of all
its readings.  The results read as seconds on a calm host.

The probe is small-matrix numpy calls in a Python loop, the kind of work that
dominates the radial layer's curvature evaluations.  It slows with the host
about as the radial passes do, and somewhat more than the memory-bound yamabe
passes.  It uses numpy only, never collapselab, and it runs between
experiment calls, never during one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CALM_S = 0.0100  # median probe time on a calm host of 2 Xeon vCPUs
REPEATS = 3  # a reading is the median of this many probe timings

_MATS = [m + m.T for m in np.random.default_rng(0).standard_normal((64, 6, 6))]


def _probe() -> float:
    t0 = time.perf_counter()
    for _ in range(20):
        for m in _MATS:
            np.linalg.eigvalsh(m)
    return time.perf_counter() - t0


def read() -> float:
    """Host slowdown now: the probe's median time over its calm-host time."""
    return statistics.median(_probe() for _ in range(REPEATS)) / CALM_S
