"""Reference tree builder and predictor for equivalence tests.

This is the straightforward form of :func:`dube.learners.tree_fit` and
``TreeClassifier.predict_proba_many``: every node re-sorts its own rows
(``argsort`` per node), and prediction walks the tree with an explicit
stack of (node, row ids). The library grows trees from one presort per
tree and routes rows one depth level at a time; both must give the same
arrays and probabilities, bit for bit, as the functions here.
"""

import numpy as np

from dube.learners import TreeClassifier, TreeParams


def reference_tree_fit(ds, params=TreeParams()):
    """Grow a tree by depth-first search, sorting each node's rows anew."""
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
        split = reference_best_split(X[rows], y[rows], counts, m, min_leaf, entropy)
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


def reference_best_split(X, y, counts, m, min_leaf, entropy):
    """Best (feature, threshold) for one node's (n, d) rows, or None."""
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
        score = -(sum_sq_left / n_left + sum_sq_right / n_right)

    if min_leaf > 1:
        size_ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        valid = valid & size_ok
        if not valid.any():
            return None
    score = np.where(valid, score, np.inf)

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


def reference_predict_proba_many(tree, X):
    """Route a row batch through ``tree`` with a stack of (node, row ids)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty((X.shape[0], tree.m))
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        f = tree.feature[node]
        if f < 0:
            out[idx] = tree.proba[node]
            continue
        goes_left = X[idx, f] <= tree.threshold[node]
        stack.append((tree.left[node], idx[goes_left]))
        stack.append((tree.right[node], idx[~goes_left]))
    return out
