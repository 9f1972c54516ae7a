"""Probabilistic base learners: a CART-style decision tree and k-nearest
neighbors.

Both expose the same surface after fitting: ``m`` (class count), ``d``
(feature count) and one prediction method, ``predict_proba_many``, which
takes a row batch or one feature vector as a one-row batch. Probability
vectors are nonnegative and sum to one within 1e-9. Fitting is
deterministic given the training data and hyperparameters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import rng
from .dataset import Dataset, DatasetError

# The split criteria a tree grows by.
CRITERIA = ("gini", "entropy")


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
        if self.max_depth is not None:
            object.__setattr__(self, "max_depth", rng.integer(self.max_depth, "max_depth"))
        object.__setattr__(self, "min_samples_leaf", rng.integer(self.min_samples_leaf, "min_samples_leaf"))
        rng.one_of(self.criterion, CRITERIA, "criterion")


@dataclass(frozen=True)
class KnnParams:
    k_neighbors: int

    def __post_init__(self):
        object.__setattr__(self, "k_neighbors", rng.integer(self.k_neighbors, "k_neighbors"))


LearnerParams = TreeParams | KnnParams


class _Classifier:
    """Shared row check of fitted learners; each defines ``predict_proba_many``."""

    m: int
    d: int

    def _rows(self, X) -> np.ndarray:
        """``X`` as a float64 row batch; ValueError unless it is one row or a
        2-D batch whose rows have d features."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.ndim != 2:
            raise ValueError(f"expected one row or a 2-D batch, got shape {X.shape}")
        if X.shape[1] != self.d:
            raise ValueError(f"expected {self.d} features, got {X.shape[1]}")
        return X


class TreeClassifier(_Classifier):
    """Axis-aligned binary decision tree with frequency leaves.

    Nodes live in parallel arrays; ``feature[i] < 0`` marks node i as a
    leaf with probability row ``proba[i]``. Routing rule: go left when
    ``x[feature] <= threshold``, so NaN goes right. A batch is routed one
    tree level per step: every row still at an internal node reads its
    split value through one flat gather from the C-ordered batch, and
    moves to ``child[2 * i + (x <= threshold[i])]`` in a table built once
    per tree (right child, then left, for each node i). Children are
    numbered above their parent (the constructor checks it), so routing
    ends after at most depth steps. ``forest_fit`` (and so
    ``tree_fit``) numbers each tree's nodes in the order a depth-first
    stack from its root creates them: a popped split node numbers its
    children next, left then right, and the right is popped first. A tree
    grown in a forest is the tree grown alone, array for array; neither
    depends on the order of the training rows.
    """

    # The keys of the saved form after its kind, in file order (see to_dict).
    SAVED = ("m", "d", "feature", "threshold", "left", "right", "proba")

    def __init__(self, feature, threshold, left, right, proba, m, d):
        """ValueError unless the arrays make a well-formed tree: ``feature``
        in [-1, d - 1] and ``left`` and ``right`` >= -1, each a whole number
        (:func:`rng.integers`)."""
        m, d = rng.integer(m, "m"), rng.integer(d, "d")
        feature = rng.integers(feature, "feature", -1, d - 1)
        left, right = rng.integers(left, "left", -1), rng.integers(right, "right", -1)
        threshold, proba = (np.asarray(a, dtype=np.float64) for a in (threshold, proba))
        n, arrays = feature.size, (feature, threshold, left, right)
        if n == 0 or proba.shape != (n, m) or any(a.shape != (n,) for a in arrays):
            raise ValueError(f"tree arrays must share a nonzero length n, proba (n, {m})")
        if not (np.isfinite(threshold).all() and np.isfinite(proba).all()):
            raise ValueError("tree thresholds and probabilities must be finite")
        inner = np.flatnonzero(feature >= 0)
        children = np.concatenate([left[inner], right[inner]])
        if (children <= np.tile(inner, 2)).any() or (children >= n).any():
            raise ValueError("tree child index must lie above its parent and below the node count")
        leaves = proba[feature < 0]
        if (leaves < 0).any() or (np.abs(leaves.sum(axis=1) - 1.0) > 1e-9).any():
            raise ValueError("tree leaf probabilities must be nonnegative and sum to 1")
        self.feature, self.threshold, self.proba = feature, threshold, proba
        self.left, self.right, self.m, self.d = left, right, m, d
        self._child = np.stack([right, left], axis=1).ravel()

    def predict_proba_many(self, X) -> np.ndarray:
        X = np.ascontiguousarray(self._rows(X))
        values, feature, threshold = X.ravel(), self.feature, self.threshold
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = np.arange(X.shape[0] if feature[0] >= 0 else 0)
        while active.size:
            at = node.take(active)
            x = values.take(active * self.d + feature.take(at))
            at = self._child.take(2 * at + (x <= threshold.take(at)))
            node[active] = at
            active = active[feature.take(at) >= 0]
        return self.proba.take(node, axis=0)

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


# Query rows are scored in blocks of at most this many bytes of float64
# squared distances (one row at least), so a block's memory grows with the
# training set and not with a fixed row count times it. A row's distances
# come from its block's one BLAS product, whose bits depend on its shape.
_BLOCK_BYTES = 8 << 20
# A block's rows are then voted in slices of at most this many bytes of
# distances (one row at least), small enough to stay in cache.
_SLICE_BYTES = 256 << 10


class KnnClassifier(_Classifier):
    """k-nearest-neighbor vote by Euclidean distance.

    The k nearest rows are those of smallest squared distance. Distance
    ties go to the lower training-row index, and NaN distances rank after
    every number, in index order.
    """

    SAVED = ("m", "k_neighbors", "X", "y")

    def __init__(self, X, y, m, k_neighbors):
        """ValueError unless m and k_neighbors are integers >= 1, DatasetError
        unless ``Dataset(X, y, m)`` holds (the table's rule) and
        k_neighbors is at most its rows."""
        m, k = rng.integer(m, "m"), rng.integer(k_neighbors, "k_neighbors")
        table = Dataset(X, y, m)
        if k > table.n_rows:
            raise DatasetError(f"k_neighbors={k} exceeds {table.n_rows} training rows")
        self.X, self.y, self.m, self.k_neighbors = table.features, table.labels, m, k
        self.d = table.n_features
        with np.errstate(over="ignore"):  # a value above ~1.3e154 squares to inf; it ranks last
            self._sq_norms = (self.X ** 2).sum(axis=1)

    def predict_proba_many(self, X) -> np.ndarray:
        X = self._rows(X)
        out = np.empty((X.shape[0], self.m))
        n, k = self.X.shape[0], self.k_neighbors
        step, rows = (max(1, size // (8 * n)) for size in (_BLOCK_BYTES, _SLICE_BYTES))
        work = np.empty((min(rows, X.shape[0]), n))
        for start in range(0, X.shape[0], step):
            Q = X[start:start + step]
            with np.errstate(over="ignore", invalid="ignore"):  # inf, or NaN from inf - inf
                D, q2 = Q @ self.X.T, (Q ** 2).sum(axis=1)
                kept = np.empty(D.shape, dtype=bool)
                for s in range(0, Q.shape[0], rows):
                    # (q2 + |x|^2) - 2p formed in place as -2p + (q2 + |x|^2), the same bits
                    d2, w = D[s:s + rows], work[:min(rows, Q.shape[0] - s)]
                    d2 *= -2.0
                    d2 += np.add(q2[s:s + rows, None], self._sq_norms, out=w)
                    np.copyto(w, d2)
                    w.partition(k - 1, axis=1)
                    np.less_equal(d2, w[:, k - 1:k], out=kept[s:s + rows])
            # A row with exactly k distances <= its k-th smallest keeps them; _nearest
            # settles the others (surplus ties, or a NaN k-th value).
            at = np.flatnonzero(kept)
            odd = np.flatnonzero(np.bincount(at // n, minlength=Q.shape[0]) != k)
            if odd.size:
                kept[odd] = _nearest(D[odd], k)
                at = np.flatnonzero(kept)
            votes = self.y[at.reshape(-1, k) % n]
            for c in range(self.m):
                out[start:start + step, c] = (votes == c).sum(axis=1) / k
        return out


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
    """Grow a decision tree on ``ds``: the one-table case of :func:`forest_fit`.

    Greedy choice of the split minimizing the size-weighted child
    impurity, over midpoints of adjacent sorted distinct feature values.
    Score ties resolve to the lowest feature index, then the lowest
    threshold. Growth draws no random numbers, so the tree is a pure
    function of ``ds`` and ``params``; it depends on ``ds``'s rows and not
    on their order, so permuting them gives the same tree.
    """
    return forest_fit(ds.features[None], ds.labels, ds.m, params)[0]


# Trees grown as one forest share level blocks of at most this many bytes
# of float64 feature values (one tree at least). A forest keeps its level
# arrays in five to seven buffers the size of its block, and its memory
# peaks at about 9.5 times the block for gini and 15 for entropy (an
# 8,000 x 16 tree, all arrays counted). Batching pays on small trees, whose
# levels cost numpy call overhead more than row work: six trees of
# 1,278 x 8 rows grew 1.5x faster as one forest, two of 8,000 x 8 rows
# (1 MB of values) 0.95x as fast. This cap grows six trees of 1,280 x 8
# rows as forests of four and two.
_FOREST_BYTES = 384 << 10


def fit_members(blocks, labels, m: int, params: LearnerParams) -> list:
    """The member :func:`fit_learner` fits on each table of the (R, n, d)
    stack ``np.concatenate(blocks, axis=1)``, whose tables all have the class
    ids ``labels`` in [0, m). ``blocks`` is emptied, so the stack is the
    only copy of its rows.

    Trees grow in forests (:func:`forest_fit`) of as many consecutive
    tables as fit ``_FOREST_BYTES``, one at least. A run of one table, and
    every KNN member, goes through ``fit_learner`` on its own Dataset. The
    last table's Dataset is made before the stack is dropped, so the stack
    and that Dataset's copy are never held together while a member grows.
    """
    X = np.concatenate(blocks, axis=1)
    blocks.clear()
    step = max(1, _FOREST_BYTES // X[0].nbytes) if isinstance(params, TreeParams) else 1
    members = []
    for i in range(0, len(X), step):
        if step > 1 and i + 1 < len(X):  # a forest of two tables or more
            members += forest_fit(X[i:i + step], labels, m, params)
        else:
            ds, X = Dataset(X[i], labels, m), X if i + 1 < len(X) else None
            members.append(fit_learner(ds, params))
    return members


def forest_fit(X, labels, m: int, params: TreeParams = TreeParams()) -> list:
    """The tree :func:`tree_fit` grows on each table of the (R, n, d) stack
    ``X``, all grown at once; every table's rows have the class ids
    ``labels`` in [0, m). Each tree is the same, array for array.

    The forest grows a level at a time from one presort of every table's
    rows by every feature (``_presort``: by value, ties in any order), in
    which row i of table r has the id r * n + i; the sorted values come
    with it. Every root has n rows and the same class counts, so all of
    them grow or none does. A level's nodes, in every tree, share (d, L)
    blocks of row ids, values and labels, one column segment per node,
    whose row f lists the node's rows by feature f. One fixed set of numpy
    calls scores every candidate of every node (``_level_splits``); a
    stable partition of each block row makes the next level's blocks,
    left children first, so segments stay sorted by value. The search
    reads class counts only where the value changes, and the partition
    moves the set of rows at or below a cut, so no tree depends on the
    order of rows within a run of equal values; every split is the one a
    depth-first builder finds, and no segment's result depends on
    another's. Each tree's nodes are numbered last, as a depth-first stack
    from its root would have created them.
    """
    R, n, d = X.shape
    y = np.tile(labels, R)  # the label of every row id
    N = y.size
    entropy = params.criterion == "entropy"
    min_leaf = params.min_samples_leaf
    max_depth = params.max_depth if params.max_depth is not None else np.inf

    # Nodes in order of growth, at most 2N - R; roots first; proba is set for leaves only.
    feature, left, right = np.full((3, 2 * N - R), -1, dtype=np.int64)
    threshold, proba = np.zeros(2 * N - R), np.zeros((2 * N - R, m))

    def settle(ids, sizes, counts, depth):
        """Make leaves of the nodes that cannot split; mask of the others."""
        grow = (counts.max(axis=1) < sizes) & (sizes >= 2 * min_leaf) & (depth < max_depth)
        proba[ids[~grow]] = counts[~grow] / sizes[~grow, None]
        return grow

    ids, sizes = np.arange(R), np.full(R, n)
    counts = np.tile(np.bincount(labels, minlength=m), (R, 1))
    grow, depth, n_nodes = settle(ids, sizes, counts, 0), 0, R
    block, Xs = _presort(X)
    ys = y.astype(np.min_scalar_type(m))[block]
    # Every level's (d, L) arrays of 8-byte items live in buffers sized for
    # the roots: the row ids, the values, and three to five more that the
    # split search takes as scratch and the partition as the next level's
    # arrays. So no level allocates a large array: an 8,000 x 16 tree took
    # 622 minor page faults, against 8,873 with a new buffer for each use.
    pool = [block.ravel().view(np.float64), Xs.ravel()]
    pool += [np.empty(block.size) for _ in range(3 if entropy else 4 + (m > 2))]
    held = [0, 1]  # the buffers of block and Xs

    def buffer(i, width, dtype=np.float64):
        return pool[i][:d * width].view(dtype).reshape(d, width)

    ids, sizes, counts = ids[grow], sizes[grow], counts[grow]
    while ids.size:
        K, starts = ids.size, np.cumsum(sizes) - sizes
        seg, col = np.repeat(np.arange(K), sizes), np.arange(block.shape[1])  # node of each column
        free = [i for i in range(len(pool)) if i not in held]
        found, f, cut, thr = _level_splits(Xs, ys, starts, seg, counts, min_leaf, entropy,
                                           [pool[i] for i in free])
        proba[ids[~found]] = counts[~found] / sizes[~found, None]
        S = int(found.sum())
        kids = n_nodes + np.arange(2 * S)
        feature[ids[found]], threshold[ids[found]] = f[found], thr[found]
        left[ids[found]], right[ids[found]] = kids[:S], kids[S:]

        # A split node's left rows fill its segment up to the cut in its feature's row.
        to_left = found[seg] & (col <= cut[seg])
        rows = block[f[seg], col][to_left]
        n_left = (cut - starts + 1)[found]
        c_left = np.bincount(seg[to_left] * m + y[rows], minlength=K * m).reshape(K, m)[found]
        ids, n_nodes, depth = kids, n_nodes + 2 * S, depth + 1
        sizes = np.concatenate([n_left, sizes[found] - n_left])
        counts = np.concatenate([c_left, counts[found] - c_left])
        grow = settle(ids, sizes, counts, depth)

        # A stable partition of every block row: growing left children, then right.
        keep = np.zeros((2, K), dtype=bool)
        keep[:, found] = grow.reshape(2, S)
        in_left = np.zeros(N, dtype=bool)
        in_left[rows] = True
        goes_left = in_left[block]
        parts = [np.flatnonzero(goes_left & keep[0, seg]).reshape(d, -1),
                 np.flatnonzero(~goes_left & keep[1, seg]).reshape(d, -1)]
        width = parts[0].shape[1] + parts[1].shape[1]
        take = np.concatenate(parts, axis=1, out=buffer(free[0], width, np.int64))
        del parts, goes_left
        block = block.take(take, out=buffer(free[1], width, np.int64), mode="clip")
        Xs, ys, held = Xs.take(take, out=buffer(free[2], width), mode="clip"), ys.take(take), free[1:3]
        ids, sizes, counts = ids[grow], sizes[grow], counts[grow]

    # Replay a depth-first stack from each root (right child popped first) to number its nodes.
    lt, rt = left.tolist(), right.tolist()
    number = np.full(n_nodes + 1, -1)  # number[-1] maps a leaf's -1 child to -1
    trees = []
    for root in range(R):
        order, stack = [root], [root]
        while stack:
            g = stack.pop()
            if lt[g] >= 0:
                order += (lt[g], rt[g])
                stack += (lt[g], rt[g])
        number[order] = np.arange(len(order))
        trees.append(TreeClassifier(feature[order], threshold[order], number[left[order]],
                                    number[right[order]], proba[order], m, d))
    return trees


def _presort(X):
    """Row ids ordering each table of the (R, n, d) stack ``X`` by every
    feature (numpy's default argsort: by value, ties in any order), and
    ``X``'s values so ordered: (d, R * n) arrays whose row f holds table
    r's ids r * n + i, sorted by feature f, in columns r * n to r * n + n - 1."""
    R, n, d = X.shape
    Xt = X.transpose(2, 0, 1)
    order = Xt.argsort(axis=2)
    values = np.take_along_axis(Xt, order, axis=2)
    order += np.arange(0, R * n, n)[:, None]
    return order.reshape(d, R * n), values.reshape(d, R * n)


def _level_splits(Xs, ys, starts, seg, counts, min_leaf, entropy, scratch):
    """Best split of every node of a level: (found, feature, cut, threshold).

    Row f of ``Xs`` and ``ys`` (d, L) holds feature f's values and the labels
    of each node's rows sorted by feature f, in the segment of columns from
    ``starts``; ``seg`` is each column's node, ``counts`` its class counts.
    Candidate column c puts its segment's rows up to c to the left, valid
    between distinct values with min_leaf rows on each side (so never a
    segment's last column). ``found`` is False where no candidate is valid.
    The float scratch is the first d * (L - 1) items of each of the flat
    ``scratch`` buffers: three for entropy, four for gini (five if m > 2).
    """
    d, L = Xs.shape
    m = counts.shape[1]
    seg = seg[:-1]  # the last column is no candidate
    n_left = np.arange(1.0, L) - starts[seg]
    n_right = counts.sum(axis=1)[seg] - n_left
    invalid = (Xs[:, :-1] >= Xs[:, 1:]) | ((n_left < min_leaf) | (n_right < min_leaf))

    # A candidate's gain is its weighted child impurity negated (gini's plus
    # n): entropy's is sum_c cl_c * log2(cl_c / n_left) plus the right's,
    # gini's sum_c cl_c**2 / n_left + sum_c cr_c**2 / n_right, with right
    # counts cr_c = C_c - cl_c. Class counts are whole numbers below 2**53,
    # so every sum of them and of their squares is exact in any order. The
    # last class's left count is n_left minus the others'.
    ys, totals = ys[:, :-1], counts.T[:, seg]
    # Class 0 is counted in sq_right, which then sums gini's right squares;
    # classes 1 to m - 2 in middle.
    views = [b[:d * (L - 1)].reshape(d, L - 1) for b in scratch]
    sq_right, rest_buf, middle = views[0], views[1], views[-1]
    sq_left, tmp = (None, None) if entropy else views[2:4]
    rest = n_left
    with np.errstate(invalid="ignore"):  # 0/0 in each segment's last column
        for c in range(m):
            if c < m - 1:
                cl = np.equal(ys, c, out=sq_right if c == 0 else middle)
                cl[:, starts[1:]] -= counts[:-1, c]  # restart the cumsum at each segment
                np.cumsum(cl, axis=1, out=cl)
                rest = np.subtract(rest, cl, out=rest_buf)
            else:
                cl = rest
            if entropy:
                part = _xlog2x(cl / n_left) * n_left + _xlog2x((totals[c] - cl) / n_right) * n_right
                gain = part if c == 0 else np.add(gain, part, out=gain)
                continue
            if c == 0:
                np.square(cl, out=sq_left)
            else:
                sq_left += np.square(cl, out=tmp)
            right = np.square(np.subtract(totals[c], cl, out=cl), out=cl)  # cl's buffer is used up
            if c:
                sq_right += right
        if not entropy:
            gain = np.divide(sq_left, n_left, out=sq_left)
            gain += np.divide(sq_right, n_right, out=sq_right)
    np.copyto(gain, -np.inf, where=invalid)

    # Feature-major argmax per node: ties go to the lowest feature index,
    # then the lowest threshold (candidates ascend within a segment).
    seg_max = np.maximum.reduceat(gain, starts, axis=1)
    best = seg_max.max(axis=0)
    f = np.argmax(seg_max == best, axis=0)
    col = np.arange(L - 1)
    cut = np.minimum.reduceat(np.where(gain[f[seg], col] == best[seg], col, L), starts)
    lo, hi = Xs[f, cut], Xs[f, cut + 1]
    with np.errstate(over="ignore"):
        thr = (lo + hi) / 2.0
    thr = np.where((lo <= thr) & (thr < hi), thr, lo)  # rounded up to hi, or lo + hi overflowed
    return best > -np.inf, f, cut, thr


def _xlog2x(p):
    """p * log2(p), and 0 where p is 0: the log is taken only where p > 0,
    into an array of zeros."""
    return p * np.log2(p, out=np.zeros_like(p), where=p > 0)


def knn_fit(ds: Dataset, k_neighbors: int) -> KnnClassifier:
    """Memorize ``ds`` for k-nearest-neighbor prediction."""
    return KnnClassifier(ds.features, ds.labels, ds.m, k_neighbors)


def fit_learner(ds: Dataset, params: LearnerParams) -> _Classifier:
    """Dispatch on the parameter type."""
    if isinstance(params, TreeParams):
        return tree_fit(ds, params)
    if isinstance(params, KnnParams):
        return knn_fit(ds, params.k_neighbors)
    raise TypeError(f"unknown learner params: {params!r}")


# The learner kinds: each kind's hyperparameter class and classifier class.
# Saved hyperparameters and saved members name their kind under "kind",
# followed by their constructor arguments (to_dict and from_dict).
LEARNERS = {"tree": (TreeParams, TreeClassifier), "knn": (KnnParams, KnnClassifier)}


def to_dict(obj) -> dict:
    """JSON form of learner hyperparameters or a fitted member: its kind,
    then each constructor argument by name, in file order (a dataclass's
    fields, a member's ``SAVED``), arrays as lists. ValueError unless
    ``obj`` is of a ``LEARNERS`` class."""
    kind = next((kind for kind, classes in LEARNERS.items() if isinstance(obj, classes)), None)
    if kind is None:
        raise ValueError(f"no learner kind saves a {type(obj).__name__}")
    names = obj.SAVED if isinstance(obj, _Classifier) else [field.name for field in fields(obj)]
    blob = {"kind": kind, **{name: getattr(obj, name) for name in names}}
    return {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in blob.items()}


def from_dict(blob: dict, member: bool):
    """The object :func:`to_dict` saved as ``blob``: a fitted member if
    ``member``, else hyperparameters. The kind passes :func:`rng.one_of`;
    every other key goes to the kind's constructor as the argument of its
    name, so a missing or unknown key is the constructor's TypeError and a
    bad value its ValueError."""
    args = {**blob}  # TypeError unless blob is a mapping
    kind = rng.one_of(args.pop("kind"), LEARNERS, "learner kind")
    return LEARNERS[kind][member](**args)
