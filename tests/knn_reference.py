"""Reference KNN vote for equivalence tests.

This is the straightforward form of ``KnnClassifier.predict_proba_many``:
queries go in blocks of 512 rows, and each row of squared distances is
sorted in full by a stable ``argsort`` to take its first k entries. The
library keeps the same k rows with a partition and a tie cut, over
blocks sized in bytes; both must give the same probabilities, bit for
bit, whenever the distance arithmetic is exact.
"""

import numpy as np


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
