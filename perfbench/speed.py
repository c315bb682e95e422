"""Machine-speed reference: a fixed computation that uses no agestruct code.

On a shared virtual machine a core's speed drifts with its neighbours'
load.  On a 2-core Xeon VM the same `events` repetition took 2.6 s and,
three minutes later, 4.3 s; set-up time moved with it (0.95 s to 1.49 s).
Raw seconds across ten runs then spread by 45% of their median, beyond any
useful regression bound.  So every child process times this reference next
to its study call, and the end-to-end times are reported in *reference
seconds*: measured seconds times ``REFERENCE_S`` over the run's median
reference time, i.e. the time on a machine where the reference takes
exactly ``REFERENCE_S``.  Drift cancels in the ratio.  A change to the
program does not, because the reference shares no code with it.

The mix follows what the package does: an interpreter-bound loop of scalar
arithmetic, indexing and calls, like the event simulator, then normal draws
and passes over a 64 x 2000 path block, like the grid SPDE engine.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.25      # a round value; the reference took 0.2-0.28 s on a 2-core Xeon VM


def reference_seconds() -> float:
    """Seconds one run of the reference computation takes here and now."""
    rng = np.random.Generator(np.random.SFC64(20260812))
    u = rng.random(8192)
    block = np.empty((64, 2000))
    live = [0.0] * 256
    t0 = time.perf_counter()
    x = 0.0
    for i in range(160_000):
        x -= math.log1p(-u[i & 8191])
        live[int(u[(i + 1) & 8191] * 256)] = x
    for _ in range(60):
        rng.standard_normal(out=block)
        np.multiply(block, 0.5, out=block)
        block.sum(axis=1)
    return time.perf_counter() - t0
