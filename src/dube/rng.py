"""Seeded, splittable random streams.

Every stochastic operation in this package draws from a stream derived
from a user-supplied 64-bit root seed plus a structural path (small
integers identifying the consumer, e.g. iteration and class indices).
Streams are built on numpy's Philox counter-based bit generator keyed
through ``SeedSequence(seed, spawn_key=path)``, so

* the same (seed, path) always yields the same draws,
* distinct paths yield statistically independent streams, and
* adding consumers (more iterations, more classes) never perturbs the
  draws of existing ones.

The identifier below is embedded in every report so results can be
matched across runs.
"""

from __future__ import annotations

import numpy as np

RNG_ALGORITHM = "philox4x64(numpy)+seedseq-spawn"

# Path prefixes, one per consumer. Values are arbitrary but frozen:
# changing them changes every derived stream.
FOLD = 1
FLIP = 2
GAUSS_1D = 3
OVERLAP_2D = 4
RESAMPLE = 5
PERTURB = 6
TRIAL = 8
BOUND = 9
CELL = 10
TUNE = 11


def _sequence(seed: int, path: tuple) -> np.random.SeedSequence:
    if seed < 0:  # numpy's own message would not name the seed
        raise ValueError(f"seed must be an integer >= 0, got {seed}")
    return np.random.SeedSequence(seed, spawn_key=path)


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for (seed, path); ValueError if seed < 0."""
    return np.random.Generator(np.random.Philox(_sequence(seed, path)))


def child_seed(seed: int, *path: int) -> int:
    """Derive a plain integer seed for (seed, path).

    Used where an API takes a seed rather than a generator; the result
    feeds back into :func:`stream` on the callee side. ValueError if seed < 0.
    """
    return int(_sequence(seed, path).generate_state(1, dtype=np.uint64)[0] >> 1)
