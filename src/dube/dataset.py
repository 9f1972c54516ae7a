"""Dataset model, CSV ingestion, cross-validation folds, label noise and
synthetic generators.

A :class:`Dataset` is an immutable (N, d) table of finite reals with
integer class labels in ``{0, ..., m-1}`` and a per-class row index.
All randomized operations take an explicit integer seed and are
bit-reproducible (see :mod:`dube.rng`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng


class DatasetError(ValueError):
    """Raised for malformed input data or violated preconditions."""


@dataclass(frozen=True)
class Dataset:
    """Feature table plus labels and a per-class row index.

    Parameters
    ----------
    features : ndarray of shape (N, d)
        Finite float features.
    labels : ndarray of shape (N,)
        Class ids in ``{0, ..., m-1}``: integers or floats that are whole
        numbers within int64 (``2.0`` is class 2); anything else, such as
        ``0.5`` or the text ``"1"``, raises DatasetError.
    m : int, optional
        Size of the label space; 0, the default, means ``max(labels) + 1``. A
        subset of a dataset keeps the parent's ``m`` even if some class
        has no rows in the subset.
    label_names : tuple of str, optional
        Original label values, index ``c`` naming class ``c``. Recorded
        by :func:`load_csv` for reporting.

    ``class_index[c]`` holds the rows of class ``c`` in ascending order.
    It is built from ``labels`` and is not a constructor argument.
    """

    features: np.ndarray
    labels: np.ndarray
    m: int = 0
    label_names: tuple[str, ...] = ()
    class_index: tuple[np.ndarray, ...] = field(default=(), init=False, compare=False)

    def __post_init__(self):
        # always copy so freezing below never flips a caller-owned array
        feats = np.array(self.features, dtype=np.float64, order="C", copy=True)
        labels = np.asarray(self.labels)
        kind = labels.dtype.kind  # unsigned labels are checked before the int64 cast wraps them
        if not (kind == "i" or kind == "u" and (labels < 2**63).all() or kind == "f" and (
                (labels == np.trunc(labels)) & (abs(labels) < 2.0**63)).all()):
            raise DatasetError("labels must be whole numbers")
        labels = np.array(labels, dtype=np.int64, copy=True)
        if feats.ndim != 2:
            raise DatasetError(f"features must be 2-D, got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise DatasetError("labels length must match feature rows")
        if feats.shape[0] == 0:
            raise DatasetError("empty dataset")
        if feats.shape[1] == 0:
            raise DatasetError("features have no columns")
        if not np.isfinite(feats).all():
            raise DatasetError("features contain NaN or infinite values")
        if labels.min() < 0:
            raise DatasetError("negative class id")
        m = rng.integer(self.m, "m", 0) or int(labels.max()) + 1
        if labels.max() >= m:
            raise DatasetError(f"label {labels.max()} out of range for m={m}")
        empty, present = np.empty(0, dtype=np.intp), np.flatnonzero(np.bincount(labels))
        index = [empty] * m  # classes without rows share one array; only the others are scanned
        for c in present:
            index[c] = np.flatnonzero(labels == c)
        for arr in (feats, labels, empty, *(index[c] for c in present)):
            arr.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "class_index", tuple(index))

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, rows: np.ndarray) -> "Dataset":
        """Dataset restricted to ``rows`` (order preserved, same m)."""
        rows = np.asarray(rows)
        return Dataset(self.features[rows], self.labels[rows], m=self.m,
                       label_names=self.label_names)


@dataclass(frozen=True)
class FoldPlan:
    """Stratified fold assignment: ``assignments[i]`` is row i's fold."""

    k_folds: int
    assignments: np.ndarray

    def split(self, ds: Dataset, fold: int) -> tuple[Dataset, Dataset]:
        """Return (train, test) datasets for one held-out fold."""
        if not 0 <= fold < self.k_folds:
            raise DatasetError(f"fold {fold} out of range")
        test_rows = np.flatnonzero(self.assignments == fold)
        train_rows = np.flatnonzero(self.assignments != fold)
        return ds.subset(train_rows), ds.subset(test_rows)


def class_counts(ds: Dataset) -> np.ndarray:
    """Number of rows per class, length m."""
    return np.bincount(ds.labels, minlength=ds.m)


def load_csv(path, label_column) -> Dataset:
    """Load a comma-separated UTF-8 table into a :class:`Dataset`; a
    leading byte-order mark is skipped.

    Feature cells must parse as finite reals; the label column may hold
    arbitrary strings, mapped to dense class ids by first appearance in
    file order (the mapping is kept in ``label_names``). A header row is
    required when ``label_column`` is a name; with a column index the
    first row is treated as a header iff any of its feature cells fails
    to parse as a number. The feature block is parsed by one numpy call;
    an error names the first bad cell in row-major order.

    Parameters
    ----------
    path : str or Path
        CSV file location.
    label_column : str or int
        Column name (requires a header) or zero-based column index.

    Raises
    ------
    DatasetError
        Missing or unreadable file (including bytes that are not UTF-8
        and a field over the csv module's size limit), missing column,
        no feature column, non-numeric or non-finite feature cell, empty
        file, or a single distinct label (at least two classes are required).
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            raw = [row for row in csv.reader(fh)
                   if row and any(cell.strip() for cell in row)
                   and not row[0].lstrip().startswith("#")]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if not raw:
        raise DatasetError(f"{path}: empty file")

    width = len(raw[0])
    if any(len(row) != width for row in raw):
        raise DatasetError(f"{path}: ragged rows")

    if isinstance(label_column, str):
        try:
            label_idx = [cell.strip() for cell in raw[0]].index(label_column)
        except ValueError:
            raise DatasetError(f"{path}: no column named {label_column!r}") from None
    else:
        label_idx = int(label_column)
        if not 0 <= label_idx < width:
            raise DatasetError(f"{path}: label column index {label_idx} out of range")
    if width < 2:
        raise DatasetError(f"{path}: no feature columns besides the label column")
    names = [row.pop(label_idx).strip() for row in raw]  # raw keeps the feature cells
    if isinstance(label_column, str) or _bad_cell(raw[:1], finite=False):
        raw, names = raw[1:], names[1:]  # header row
    if not raw:
        raise DatasetError(f"{path}: no data rows")

    try:
        feats = np.array(raw, dtype=np.float64)
        bad = not np.isfinite(feats).all()
    except ValueError:
        bad = True
    if bad:
        raise DatasetError(f"{path}: {_bad_cell(raw)}")
    label_names = tuple(dict.fromkeys(names))
    if len(label_names) < 2:
        raise DatasetError(f"{path}: single-class dataset (need m >= 2)")
    ids = {name: c for c, name in enumerate(label_names)}
    return Dataset(feats, [ids[name] for name in names], m=len(label_names),
                   label_names=label_names)


def _bad_cell(rows, finite=True):
    """``row i: non-numeric cell '...'`` for the first cell of ``rows``, in
    row-major order, that is not a number (or, if ``finite``, not finite); else None."""
    for i, row in enumerate(rows):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                return f"row {i}: non-numeric cell {cell!r}"
            if finite and not math.isfinite(value):
                return f"row {i}: non-finite cell {cell!r}"
    return None


def stratified_k_fold(ds: Dataset, k: int, seed: int) -> FoldPlan:
    """Assign rows to k folds, stratified by class.

    Within each class the rows are shuffled by a seeded stream and dealt
    round-robin, so per-class fold sizes differ by at most one and the
    assignment is a pure function of (dataset, k, seed).

    Raises
    ------
    ValueError
        If k is not an integer >= 2 (:func:`dube.rng.integer`).
    DatasetError
        If any class has fewer than k rows.
    """
    k = rng.integer(k, "k", 2)
    counts = class_counts(ds)
    small = np.flatnonzero(counts < k)
    if small.size:
        raise DatasetError(f"class {small[0]} has {counts[small[0]]} rows, fewer than k={k}")
    assignments = np.empty(ds.n_rows, dtype=np.int64)
    for c, rows in enumerate(ds.class_index):
        gen = rng.stream(seed, rng.FOLD, c)
        shuffled = rows[gen.permutation(rows.size)]
        assignments[shuffled] = np.arange(rows.size) % k
    return FoldPlan(k_folds=k, assignments=assignments)


def inject_flip_noise(ds: Dataset, r: float, seed: int) -> Dataset:
    """Flip labels symmetrically between the two classes of a binary dataset.

    Exactly ``floor(r * n_minority)`` distinct minority rows receive the
    majority label and the same number of distinct majority rows receive
    the minority label, chosen uniformly by a seeded stream. Class counts
    are therefore preserved and features are untouched.
    """
    if ds.m != 2:
        raise DatasetError("flip noise is defined for binary datasets only")
    if not 0.0 <= r <= 1.0:
        raise DatasetError(f"noise ratio must be in [0, 1], got {r}")
    counts = class_counts(ds)
    minority = int(np.argmin(counts))
    majority = 1 - minority
    flips = int(math.floor(r * counts[minority]))
    if flips == 0:
        return ds
    gen = rng.stream(seed, rng.FLIP)
    flip_min = gen.choice(ds.class_index[minority], size=flips, replace=False)
    flip_maj = gen.choice(ds.class_index[majority], size=flips, replace=False)
    labels = ds.labels.copy()
    labels[flip_min] = majority
    labels[flip_maj] = minority
    return Dataset(ds.features, labels, m=2, label_names=ds.label_names)


def check_gaussian_1d(n_min: int, n_maj: int, mu_min: float, mu_maj: float, sigma: float) -> tuple:
    """The class sizes as ints: ValueError unless both are integers >= 1
    (:func:`dube.rng.integer`), then DatasetError unless the means and
    ``sigma`` are finite and ``sigma`` > 0, checked in that order."""
    sizes = rng.integer(n_min, "n_min"), rng.integer(n_maj, "n_maj")
    if not all(math.isfinite(v) for v in (mu_min, mu_maj, sigma)):
        raise DatasetError("mu_min, mu_maj and sigma must be finite")
    if sigma <= 0:
        raise DatasetError(f"sigma must be positive, got {sigma}")
    return sizes


def make_gaussian_1d(n_min: int, n_maj: int, mu_min: float, mu_maj: float,
                     sigma: float, seed: int) -> Dataset:
    """1-D two-class Gaussian sample: majority (class 0) around ``mu_maj``,
    minority (class 1, the "positive" class) around ``mu_min``, shared
    standard deviation ``sigma`` (:func:`check_gaussian_1d`)."""
    n_min, n_maj = check_gaussian_1d(n_min, n_maj, mu_min, mu_maj, sigma)
    gen = rng.stream(seed, rng.GAUSS_1D)
    x_maj = gen.normal(mu_maj, sigma, n_maj)
    x_min = gen.normal(mu_min, sigma, n_min)
    feats = np.concatenate([x_maj, x_min])[:, None]
    labels = np.repeat([0, 1], [n_maj, n_min])
    return Dataset(feats, labels, m=2, label_names=("majority", "minority"))


# Distance (in component standard deviations) between the nearest
# opposite-class blob centers, per overlap level.
_OVERLAP_SEPARATION = {"low": 4.0, "mid": 2.5, "high": 1.5}


def make_overlap_2d(n_min: int, n_maj: int, overlap_level: str, seed: int) -> Dataset:
    """2-D two-class mixture with controlled class overlap.

    Each class is an equal mixture of two unit-variance Gaussian blobs;
    the minority blobs sit above the majority blobs at a vertical offset
    of 4 / 2.5 / 1.5 standard deviations for overlap level ``low`` /
    ``mid`` / ``high``. Majority rows (class 0) come first. The class
    sizes are integers >= 1 (:func:`dube.rng.integer`).
    """
    n_min, n_maj = rng.integer(n_min, "n_min"), rng.integer(n_maj, "n_maj")
    try:
        sep = _OVERLAP_SEPARATION[overlap_level]
    except KeyError:
        raise DatasetError(f"unknown overlap level {overlap_level!r}") from None
    gen = rng.stream(seed, rng.OVERLAP_2D)
    maj_centers = np.array([[0.0, 0.0], [4.0, 0.0]])
    min_centers = maj_centers + np.array([0.0, sep])
    blocks = []
    for n, centers in ((n_maj, maj_centers), (n_min, min_centers)):
        which = gen.integers(0, 2, size=n)
        blocks.append(centers[which] + gen.normal(0.0, 1.0, (n, 2)))
    feats = np.concatenate(blocks)
    labels = np.repeat([0, 1], [n_maj, n_min])
    return Dataset(feats, labels, m=2, label_names=("majority", "minority"))
