"""Probabilistic base learners: a CART-style decision tree and k-nearest
neighbors.

Both expose the same surface after fitting: ``m`` (class count), ``d``
(feature count), ``predict_proba`` for a single vector and
``predict_proba_many`` for a row batch. Probability vectors are
nonnegative and sum to one within 1e-9. Fitting is deterministic given
the training data and hyperparameters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset, DatasetError


@dataclass(frozen=True)
class TreeParams:
    """Decision-tree hyperparameters.

    ``max_depth=None`` grows the tree until leaves are pure or no valid
    split remains, the usual convention for trees inside an ensemble.
    Leaf probabilities are raw class frequencies (no smoothing), so the
    full [0, 1] range is available to error-based instance weighting.
    """

    max_depth: int | None = None
    min_samples_leaf: int = 1
    criterion: str = "gini"

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be positive or None")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.criterion not in ("gini", "entropy"):
            raise ValueError(f"unknown criterion {self.criterion!r}")


@dataclass(frozen=True)
class KnnParams:
    k_neighbors: int

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")


LearnerParams = TreeParams | KnnParams
_PARAMS = {"tree": TreeParams, "knn": KnnParams}


def params_to_dict(params: LearnerParams) -> dict:
    """JSON form of learner hyperparameters: the kind, then every field."""
    kind = next(kind for kind, cls in _PARAMS.items() if isinstance(params, cls))
    return {"kind": kind, **asdict(params)}


def params_from_dict(blob: dict) -> LearnerParams:
    fields = {**blob}  # TypeError unless blob is a mapping
    kind = fields.pop("kind")
    if kind not in _PARAMS:
        raise ValueError(f"unknown learner kind {kind!r}")
    for key in ("max_depth", "min_samples_leaf", "k_neighbors"):
        if fields.get(key) is not None:
            fields[key] = _integer(fields, key)
    return _PARAMS[kind](**fields)


def _integer(blob: dict, key: str, low: int = 1, high: float = float("inf")) -> int:
    """``blob[key]`` as an int; ValueError unless it is a whole number (3.0 is) in [low, high]."""
    value = blob[key]
    if type(value) not in (int, float) or value % 1 != 0 or not low <= value <= high:
        raise ValueError(f"{key} must be an integer in [{low}, {high:g}], got {value!r}")
    return int(value)


class _Classifier:
    """Shared prediction surface for fitted learners."""

    m: int
    d: int

    def predict_proba(self, x) -> np.ndarray:
        """Class-probability vector for one feature vector."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise ValueError(f"expected vector of length {self.d}, got shape {x.shape}")
        return self.predict_proba_many(x[None])[0]

    def predict_proba_many(self, X) -> np.ndarray:
        raise NotImplementedError

    def predict_many(self, X) -> np.ndarray:
        """Argmax class ids (ties to the lowest id)."""
        return np.argmax(self.predict_proba_many(X), axis=1)


class TreeClassifier(_Classifier):
    """Axis-aligned binary decision tree with frequency leaves.

    Nodes live in parallel arrays; ``feature[i] < 0`` marks node i as a
    leaf with probability row ``proba[i]``. Routing rule: go left when
    ``x[feature] <= threshold``. A batch is routed one tree level per
    step: every row still at an internal node moves to a child at once.
    Children are numbered above their parent (depth-first numbering;
    ``from_dict`` checks it), so routing ends after at most depth steps.
    """

    def __init__(self, feature, threshold, left, right, proba, m, d):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.proba = np.asarray(proba, dtype=np.float64)
        self.m = int(m)
        self.d = int(d)

    def predict_proba_many(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.d:
            raise ValueError(f"expected {self.d} features, got {X.shape[1]}")
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = np.arange(X.shape[0] if self.feature[0] >= 0 else 0)
        while active.size:
            at = node[active]
            goes_left = X[active, self.feature[at]] <= self.threshold[at]
            at = np.where(goes_left, self.left[at], self.right[at])
            node[active] = at
            active = active[self.feature[at] >= 0]
        return self.proba[node]

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def depth(self) -> int:
        depths = np.zeros(self.n_nodes, dtype=np.int64)
        for i in range(self.n_nodes):
            if self.feature[i] >= 0:
                depths[self.left[i]] = depths[i] + 1
                depths[self.right[i]] = depths[i] + 1
        return int(depths.max())

    def to_dict(self) -> dict:
        return {
            "kind": "tree",
            "m": self.m,
            "d": self.d,
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "proba": self.proba.tolist(),
        }

    @classmethod
    def from_dict(cls, blob: dict) -> "TreeClassifier":
        """Rebuild a tree, raising ValueError unless it is well formed."""
        tree = cls(blob["feature"], blob["threshold"], blob["left"],
                   blob["right"], blob["proba"], _integer(blob, "m"), _integer(blob, "d"))
        n, feature = tree.n_nodes, tree.feature
        arrays = (feature, tree.threshold, tree.left, tree.right)
        if n == 0 or tree.proba.shape != (n, tree.m) or any(a.shape != (n,) for a in arrays):
            raise ValueError(f"tree arrays must share a nonzero length n, proba (n, {tree.m})")
        if feature.min() < -1 or feature.max() >= tree.d:
            raise ValueError(f"tree feature index outside [-1, {tree.d})")
        inner = np.flatnonzero(feature >= 0)
        children = np.concatenate([tree.left[inner], tree.right[inner]])
        if (children <= np.tile(inner, 2)).any() or (children >= n).any():
            raise ValueError("tree child index must lie above its parent and below the node count")
        leaves = tree.proba[feature < 0]
        if (leaves < 0).any() or (np.abs(leaves.sum(axis=1) - 1.0) > 1e-9).any():
            raise ValueError("tree leaf probabilities must be nonnegative and sum to 1")
        return tree


# Query rows are scored in blocks of at most this many bytes of float64
# squared distances (one row at least), so a block's memory grows with the
# training set and not with a fixed row count times it.
_BLOCK_BYTES = 8 << 20


class KnnClassifier(_Classifier):
    """k-nearest-neighbor vote by Euclidean distance.

    The k nearest rows are those of smallest squared distance. Distance
    ties go to the lower training-row index, and NaN distances rank after
    every number, in index order.
    """

    def __init__(self, X, y, m, k_neighbors):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.int64)
        self.m = int(m)
        self.k_neighbors = int(k_neighbors)
        self.d = self.X.shape[1]
        self._sq_norms = (self.X ** 2).sum(axis=1)

    def predict_proba_many(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.d:
            raise ValueError(f"expected {self.d} features, got {X.shape[1]}")
        out = np.empty((X.shape[0], self.m))
        k = self.k_neighbors
        step = max(1, _BLOCK_BYTES // (8 * self.X.shape[0]))
        for start in range(0, X.shape[0], step):
            Q = X[start:start + step]
            d2 = (Q ** 2).sum(axis=1)[:, None] + self._sq_norms[None, :] - 2.0 * (Q @ self.X.T)
            votes = self.y[np.nonzero(_nearest(d2, k))[1].reshape(-1, k)]
            for c in range(self.m):
                out[start:start + step, c] = (votes == c).sum(axis=1) / k
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "knn",
            "m": self.m,
            "k_neighbors": self.k_neighbors,
            "X": self.X.tolist(),
            "y": self.y.tolist(),
        }

    @classmethod
    def from_dict(cls, blob: dict) -> "KnnClassifier":
        """Rebuild a KNN member, raising ValueError unless it is well formed."""
        X, y = np.asarray(blob["X"], dtype=np.float64), np.asarray(blob["y"], dtype=np.float64)
        m = _integer(blob, "m")
        if X.ndim != 2 or X.shape[0] == 0 or y.shape != (X.shape[0],):
            raise ValueError("knn X must have shape (n, d) with n >= 1, and y length n")
        k = _integer(blob, "k_neighbors", 1, X.shape[0])
        if not ((y >= 0) & (y < m) & (y == np.floor(y))).all():
            raise ValueError(f"knn labels must lie in [0, {m}) and be integers")
        return cls(X, y, m, k)


def _nearest(d2, k):
    """Mask of the k nearest columns of each row of ``d2``: the first k of a
    stable argsort, which puts NaN after every number.

    Every entry below the k-th smallest value v is kept; entries equal to
    v fill the remaining places in index order. Where v is NaN (fewer
    than k numbers in the row), every number is below it and the NaNs
    are the entries equal to it.
    """
    v = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    below, tied = d2 < v, d2 == v
    nan_rows = np.flatnonzero(np.isnan(v[:, 0]))
    tied[nan_rows] = np.isnan(d2[nan_rows])
    below[nan_rows] = ~tied[nan_rows]
    room = k - np.count_nonzero(below, axis=1)
    crowded = np.flatnonzero(np.count_nonzero(tied, axis=1) > room)
    tied[crowded] &= np.cumsum(tied[crowded], axis=1) <= room[crowded, None]
    return below | tied


def tree_fit(ds: Dataset, params: TreeParams = TreeParams()) -> TreeClassifier:
    """Grow a decision tree on ``ds``.

    Greedy depth-first choice of the split minimizing the size-weighted
    child impurity, over midpoints of adjacent sorted distinct feature
    values. Score ties resolve to the lowest feature index, then the
    lowest threshold. Growth draws no random numbers, so the tree is a
    pure function of ``ds`` and ``params``.

    Rows are sorted by every feature once per tree (stable sort). Each
    node holds a (d, n) block whose row f lists its row ids by feature
    f, and a split partitions every block row stably. Blocks thus order
    rows by (value, row id), as a stable sort of the node's rows in
    ascending id would: no node sorts, and every split is unchanged.
    """
    X, y, m = ds.features, ds.labels, ds.m
    XT = np.ascontiguousarray(X.T)
    offsets = np.arange(ds.n_features)[:, None] * ds.n_rows  # where row f starts in XT.ravel()
    entropy = params.criterion == "entropy"
    min_leaf = params.min_samples_leaf
    max_depth = params.max_depth if params.max_depth is not None else np.inf

    leaf, zeros = [-1, 0.0, -1, -1], np.zeros(m)  # feature, threshold, left, right; proba
    nodes, proba = [leaf], [zeros]
    in_left = np.zeros(ds.n_rows, dtype=bool)  # reused by every partition
    stack = [(0, np.argsort(XT, axis=1, kind="stable"), 0)]
    while stack:
        node, block, depth = stack.pop()
        n = block.shape[1]
        counts = np.bincount(y[block[0]], minlength=m)
        split = None
        if counts.max() < n and depth < max_depth and n >= 2 * min_leaf:
            split = _best_split(XT.ravel()[block + offsets], y, block, counts, m, min_leaf, entropy)
        if split is None:
            proba[node] = counts / n
            continue
        f, i, thr = split
        in_left[block[f, :i + 1]] = True
        goes_left = in_left[block]
        in_left[block[f, :i + 1]] = False
        child = len(nodes)
        nodes[node] = [f, thr, child, child + 1]
        nodes += [leaf, leaf]
        proba += [zeros, zeros]
        stack.append((child, block[goes_left].reshape(-1, i + 1), depth + 1))
        stack.append((child + 1, block[~goes_left].reshape(-1, n - i - 1), depth + 1))

    feature, threshold, left, right = zip(*nodes)
    return TreeClassifier(feature, threshold, left, right, np.vstack(proba), m, ds.n_features)


def _best_split(Xs, y, block, counts, m, min_leaf, entropy):
    """Best (feature, position, threshold) for one node, or None.

    ``Xs`` holds the values of the presorted row ids in ``block`` (d, n).
    Candidate i puts the first i+1 rows of a feature's order to the left
    and is valid only between distinct values and respecting min_leaf.
    """
    d, n = block.shape
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    valid = (Xs[:, :-1] < Xs[:, 1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None

    ys = y[block[:, :-1]]                          # labels in per-feature sort order
    score = np.zeros((d, n - 1))
    sum_sq_left, sum_sq_right = np.zeros((2, d, n - 1))
    for c in range(m):
        cl = np.cumsum(ys == c, axis=1, dtype=np.float64)
        cr = counts[c] - cl
        if entropy:
            score -= _xlog2x(cl / n_left) * n_left + _xlog2x(cr / n_right) * n_right
        else:
            sum_sq_left += cl * cl
            sum_sq_right += cr * cr
    if not entropy:
        # Weighted gini = n - (sum_sq_left/n_left + sum_sq_right/n_right), n dropped.
        score = -(sum_sq_left / n_left + sum_sq_right / n_right)
    score = np.where(valid, score, np.inf)

    # Feature-major argmin: ties go to the lowest feature index, then the
    # lowest threshold (candidates ascend within a feature).
    f, i = divmod(int(np.argmin(score)), n - 1)
    lo, hi = Xs[f, i:i + 2].tolist()
    thr = (lo + hi) / 2.0
    if not lo <= thr < hi:  # rounded up to hi, or lo + hi overflowed
        thr = lo
    return f, i, thr


def _xlog2x(p):
    out = np.zeros_like(p)
    nz = p > 0
    out[nz] = p[nz] * np.log2(p[nz])
    return out


def knn_fit(ds: Dataset, k_neighbors: int) -> KnnClassifier:
    """Memorize ``ds`` for k-nearest-neighbor prediction."""
    if k_neighbors > ds.n_rows:
        raise DatasetError(f"k_neighbors={k_neighbors} exceeds {ds.n_rows} training rows")
    if k_neighbors < 1:
        raise DatasetError("k_neighbors must be >= 1")
    return KnnClassifier(ds.features, ds.labels, ds.m, k_neighbors)


def fit_learner(ds: Dataset, params: LearnerParams) -> _Classifier:
    """Dispatch on the parameter type."""
    if isinstance(params, TreeParams):
        return tree_fit(ds, params)
    if isinstance(params, KnnParams):
        return knn_fit(ds, params.k_neighbors)
    raise TypeError(f"unknown learner params: {params!r}")


def learner_from_dict(blob: dict) -> _Classifier:
    if blob["kind"] == "tree":
        return TreeClassifier.from_dict(blob)
    if blob["kind"] == "knn":
        return KnnClassifier.from_dict(blob)
    raise ValueError(f"unknown learner kind {blob.get('kind')!r}")
