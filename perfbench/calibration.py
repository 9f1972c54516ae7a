"""A fixed reference kernel, timed next to the workload.

The machine's speed drifts: on a shared 2-core host the same work can
take 40% longer for tens of seconds at a time. The kernel mixes the
kinds of work the library does (interpreter loops, many small numpy
calls, column sorts of a small table, row sorts and a product over a
block of distances). One pass takes about 0.1 s. It is timed before
and after every round, so a round's time can be read against the
machine speed of the moment.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds kernel_s() takes on the reference host (2-core Xeon VM,
# Python 3.11, numpy 2.4) when no neighbour competes for it. Timed
# metrics are reported in seconds at that reference speed.
REFERENCE_KERNEL_S = 0.095

_GEN = np.random.Generator(np.random.PCG64(0))
_TABLE = _GEN.standard_normal((2000, 8))
_QUERIES = _GEN.standard_normal((64, 8))
_POINTS = _GEN.standard_normal((2000, 8))


def kernel_s() -> float:
    """Seconds one pass of the reference kernel takes now."""
    t0 = perf_counter()
    total = 0
    for j in range(375_000):
        total += j * j
    for i in range(7_500):
        _TABLE[i % 100:i % 100 + 8].sum(axis=0)
    for _ in range(20):
        np.argsort(_TABLE, axis=0, kind="stable")
    for _ in range(5):
        np.argsort(_QUERIES @ _POINTS.T, axis=1, kind="stable")
    return perf_counter() - t0


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured next to a kernel pass of ``kernel_s``, read
    at the reference machine speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_s
