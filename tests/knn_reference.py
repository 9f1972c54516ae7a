"""Reference KNN votes for equivalence tests.

``reference_knn_predict_proba_many`` is the straightforward form of
``KnnClassifier.predict_proba_many``: queries go in blocks of 512 rows,
and each row of squared distances is sorted in full by a stable
``argsort`` to take its first k entries. The library keeps the same k
rows with a partition, an exact-k test and a tie cut, over blocks sized
in bytes; both must give the same probabilities, bit for bit, whenever
the distance arithmetic is exact.

Where it is not exact, as on Gaussian data, a row's distance bits depend
on the shape of its block's BLAS product, so the 512-row form cannot be
compared. ``blocked_knn_predict_proba_many`` is the library's earlier
form for that case: the same byte-sized blocks, distances formed as
``(q2 + |x|^2) - 2p`` from three whole-block temporaries, and
``_nearest`` over the whole block. The library must match it bit for bit
on any data, given the same block budget.
"""

import numpy as np

from dube.learners import _nearest


def reference_knn_predict_proba_many(model, X):
    """Vote by the first k entries of a stable argsort of each distance row."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty((X.shape[0], model.m))
    k = model.k_neighbors
    sq_norms = (model.X ** 2).sum(axis=1)
    for start in range(0, X.shape[0], 512):
        Q = X[start:start + 512]
        d2 = (Q ** 2).sum(axis=1)[:, None] + sq_norms[None, :] - 2.0 * (Q @ model.X.T)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        votes = model.y[nearest]
        for c in range(model.m):
            out[start:start + 512, c] = (votes == c).sum(axis=1) / k
    return out


def blocked_distances(model, X, block_bytes):
    """Each block's first query row and its squared distances, in blocks of
    at most ``block_bytes`` of distances (one row at least)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    sq_norms = (model.X ** 2).sum(axis=1)
    step = max(1, block_bytes // (8 * model.X.shape[0]))
    for start in range(0, X.shape[0], step):
        Q = X[start:start + step]
        yield start, (Q ** 2).sum(axis=1)[:, None] + sq_norms[None, :] - 2.0 * (Q @ model.X.T)


def blocked_knn_predict_proba_many(model, X, block_bytes):
    """Vote by ``_nearest`` over each of the :func:`blocked_distances` blocks."""
    out = np.empty((np.atleast_2d(X).shape[0], model.m))
    k = model.k_neighbors
    for start, d2 in blocked_distances(model, X, block_bytes):
        votes = model.y[np.nonzero(_nearest(d2, k))[1].reshape(-1, k)]
        for c in range(model.m):
            out[start:start + d2.shape[0], c] = (votes == c).sum(axis=1) / k
    return out
