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

import math
from numbers import Real

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


def integer(value, name: str, low: int = 1, high: float = math.inf) -> int:
    """``value`` as an int; ValueError unless it is a whole number in
    [low, high]. 3.0 and ``np.int64(3)`` are; True, "3", None, NaN and inf
    are not. Every whole-number setting of the package passes here."""
    number = value  # a plain int skips the conversion: the common case, kept cheap
    if type(value) is not int and isinstance(value, (np.integer, float, np.floating)):
        number = int(value) if float(value).is_integer() else None
    if type(number) is not int or not low <= number <= high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return number


def integers(values, name: str, low: int = 1, high: float = math.inf) -> np.ndarray:
    """``values`` as a new int64 array (as numpy makes an array of them);
    ValueError unless every value is a whole number in [low, high] within
    int64. An empty array passes. An integer array is checked by its min
    and max alone, a float array by which of its values are whole; only a
    failed check, or an array of Python objects, walks the values, and a
    value outside raises :func:`integer`'s message for the first such
    value as a Python scalar (True, the text "1" and 2**63 are outside).
    Every whole-number array of the package (labels, class counts, row
    ids, tree node indices) passes here."""
    array = np.asarray(values)
    kind = array.dtype.kind
    if not ((kind in "iu" or kind == "f" and (array == np.trunc(array)).all()) and (not array.size or (
            max(low, -2**63) <= array.min().item() and array.max().item() <= min(high, 2**63 - 1)))):
        for value in array.ravel().tolist():  # Python scalars, to be named as integer names them
            if not -2**63 <= integer(value, name, low, high) < 2**63:  # past int64: the same words
                raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return array.astype(np.int64)  # Python objects get here only when every one is whole


def real(value, name: str, low: float = -math.inf, high: float = math.inf, above: bool = False) -> float:
    """``value`` as a float; ValueError unless it is a finite real number in
    [low, high], or in (low, high] with ``above``. 1 and ``np.float32(0.5)``
    are; True, "0.5", None, NaN, inf and 10**400 (past the float range) are
    not. The value is made a Python float before any comparison, since a
    numpy float compared with a Python bound goes through numpy's casts,
    and a float32 against a bound near the float maximum warns of an
    overflow. Every real-valued setting of the package passes here."""
    try:
        number = float(value) if isinstance(value, Real) and type(value) is not bool else math.nan
    except OverflowError:  # an int past the float range
        number = math.nan
    if not (math.isfinite(number) and (low < number if above else low <= number) and number <= high):
        bound = (f"in {'(' if above else '['}{low:g}, {high:g}]" if high < math.inf
                 else f"finite and {'>' if above else '>='} {low:g}" if low > -math.inf else "finite")
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return number


def reals(values, name: str, low: float = -math.inf, high: float = math.inf) -> np.ndarray:
    """``values`` as a float64 array (as numpy makes an array of them, cast
    to float64); ValueError unless it is nonempty and every value is finite
    and in [low, high]. A value outside raises the message :func:`real`
    gives for the first such value. A numeric array is checked as a whole;
    any other array (bools, text, Python objects such as 10**400) goes to
    :func:`real` one value at a time, so True and the text "0.5" are
    outside as they are for :func:`real`. Every real-valued array of the
    package (errors, weights, scales, scores) passes here."""
    array = np.asarray(values)
    array = array.astype(np.float64, copy=False) if array.dtype.kind in "iuf" else np.array(
        [real(v, name, low, high) for v in array.ravel().tolist()]).reshape(array.shape)
    if array.size == 0:
        raise ValueError(f"{name} must be nonempty")
    outside = array[~(np.isfinite(array) & (low <= array) & (array <= high))]
    if outside.size:
        real(float(outside[0]), name, low, high)  # raises: one wording for every bound
    return array


def one_of(value, options, name: str):
    """``value``; ValueError unless it equals one of ``list(options)``.
    The value is compared, never hashed, so an unhashable value such as a
    list is an unknown choice, not a TypeError. Every named choice of the
    package passes here."""
    if value not in list(options):
        raise ValueError(f"unknown {name} {value!r}")
    return value


def _sequence(seed: int, path: tuple) -> np.random.SeedSequence:
    return np.random.SeedSequence(integer(seed, "seed", 0), spawn_key=path)


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for (seed, path); ValueError unless seed is an
    integer >= 0 (:func:`integer`)."""
    return np.random.Generator(np.random.Philox(_sequence(seed, path)))


def child_seed(seed: int, *path: int) -> int:
    """Derive a plain integer seed for (seed, path).

    Used where an API takes a seed rather than a generator; the result
    feeds back into :func:`stream` on the callee side. Seeds as in :func:`stream`.
    """
    return int(_sequence(seed, path).generate_state(1, dtype=np.uint64)[0] >> 1)
