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
    fields = dict(blob)
    return _PARAMS[fields.pop("kind")](**fields)


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
    ``x[feature] <= threshold``.
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
        out = np.empty((X.shape[0], self.m))
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            f = self.feature[node]
            if f < 0:
                out[idx] = self.proba[node]
                continue
            goes_left = X[idx, f] <= self.threshold[node]
            stack.append((self.left[node], idx[goes_left]))
            stack.append((self.right[node], idx[~goes_left]))
        return out

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
        return cls(blob["feature"], blob["threshold"], blob["left"],
                   blob["right"], blob["proba"], blob["m"], blob["d"])


class KnnClassifier(_Classifier):
    """k-nearest-neighbor vote by Euclidean distance.

    Distance ties resolve to the lower training-row index (stable sort
    over squared distances).
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
        for start in range(0, X.shape[0], 512):
            Q = X[start:start + 512]
            d2 = (Q ** 2).sum(axis=1)[:, None] + self._sq_norms[None, :] - 2.0 * (Q @ self.X.T)
            nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
            votes = self.y[nearest]
            for c in range(self.m):
                out[start:start + 512, c] = (votes == c).sum(axis=1) / k
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
        return cls(blob["X"], blob["y"], blob["m"], blob["k_neighbors"])


def tree_fit(ds: Dataset, params: TreeParams = TreeParams()) -> TreeClassifier:
    """Grow a decision tree on ``ds``.

    Greedy best-first choice of the split minimizing the size-weighted
    child impurity, over midpoints of adjacent sorted distinct feature
    values. Score ties resolve to the lowest feature index, then the
    lowest threshold. Growth draws no random numbers, so the tree is a
    pure function of ``ds`` and ``params``.
    """
    X, y, m = ds.features, ds.labels, ds.m
    entropy = params.criterion == "entropy"
    min_leaf = params.min_samples_leaf
    max_depth = params.max_depth if params.max_depth is not None else np.inf

    feature, threshold, left, right, proba = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        proba.append(None)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(ds.n_rows), 0)]
    while stack:
        node, rows, depth = stack.pop()
        counts = np.bincount(y[rows], minlength=m)
        pure = counts.max() == rows.size
        if pure or depth >= max_depth or rows.size < 2 * min_leaf:
            proba[node] = counts / rows.size
            continue
        split = _best_split(X[rows], y[rows], counts, m, min_leaf, entropy)
        if split is None:
            proba[node] = counts / rows.size
            continue
        f, thr = split
        goes_left = X[rows, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = new_node()
        right[node] = new_node()
        stack.append((left[node], rows[goes_left], depth + 1))
        stack.append((right[node], rows[~goes_left], depth + 1))

    proba = [p if p is not None else np.zeros(m) for p in proba]
    return TreeClassifier(feature, threshold, left, right, np.vstack(proba), m, ds.n_features)


def _best_split(X, y, counts, m, min_leaf, entropy):
    """Best (feature, threshold) for one node, or None if no valid split.

    Vectorized over all features at once: column-wise sort, cumulative
    class counts, and the impurity of every adjacent-pair split in one
    pass. Candidate i puts the first i+1 sorted rows to the left and is
    valid only between distinct values and respecting min_leaf.
    """
    n, d = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    Xs = np.take_along_axis(X, order, axis=0)
    valid = Xs[:-1] < Xs[1:]                       # (n-1, d)
    if not valid.any():
        return None

    ys = y[order]                                  # labels in per-feature sort order
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    if entropy:
        score = np.zeros((n - 1, d))
        for c in range(m):
            cl = np.cumsum(ys == c, axis=0)[:-1]
            cr = counts[c] - cl
            score -= _xlog2x(cl / n_left) * n_left + _xlog2x(cr / n_right) * n_right
    else:
        sum_sq_left = np.zeros((n - 1, d))
        sum_sq_right = np.zeros((n - 1, d))
        for c in range(m):
            cl = np.cumsum(ys == c, axis=0)[:-1].astype(np.float64)
            sum_sq_left += cl * cl
            cr = counts[c] - cl
            sum_sq_right += cr * cr
        # Weighted gini = n - (sum_sq_left/n_left + sum_sq_right/n_right);
        # the constant n is dropped.
        score = -(sum_sq_left / n_left + sum_sq_right / n_right)

    if min_leaf > 1:
        size_ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        valid = valid & size_ok
        if not valid.any():
            return None
    score = np.where(valid, score, np.inf)

    # Feature-major argmin: ties go to the lowest feature index, then the
    # lowest threshold (candidates ascend within a feature).
    flat = np.argmin(score.T)
    f, i = divmod(flat, n - 1)
    lo, hi = Xs[i, f], Xs[i + 1, f]
    thr = (lo + hi) / 2.0
    if thr == hi:  # midpoint rounded up between adjacent floats
        thr = lo
    return int(f), float(thr)


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
