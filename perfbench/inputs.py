"""Deterministic input tables for the benchmark workloads.

Every table is a pure function of (spec, seed): the same seed writes the
same CSV bytes, so a parent commit and a change are measured on
identical inputs. The generator is numpy's PCG64, independent of the
library's own random streams, so the library only ever sees the file.

Classes are mixtures of two unit-variance Gaussian blobs whose centres
differ by a few tenths of a standard deviation per column, so the
classes overlap (held-out macro-AUROC about 0.78 on fit-tree) and trees
grow deep instead of stopping after a few clean splits. Half of the
columns carry class signal; the rest are pure noise the split search
must still scan. The blob centres are fixed; the seed draws only the
rows, so no seed gives an easier table than another.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GEOMETRY_SEED = 20211124


@dataclass(frozen=True)
class TableSpec:
    rows: int
    features: int
    ratio: tuple  # relative class sizes, majority first


def class_sizes(rows: int, ratio) -> list:
    """Split ``rows`` by ``ratio`` with largest remainders; every class >= 1."""
    ratio = np.asarray(ratio, dtype=np.float64)
    exact = rows * ratio / ratio.sum()
    sizes = np.floor(exact).astype(np.int64)
    order = np.argsort(-(exact - sizes), kind="stable")
    sizes[order[:rows - sizes.sum()]] += 1
    if (sizes < 1).any():
        raise ValueError(f"{rows} rows cannot hold ratio {tuple(ratio)}")
    return sizes.tolist()


def make_table(spec: TableSpec, seed: int):
    """(features, label ids) for ``spec``, rows shuffled.

    The class geometry (blob centres) is the same for every seed, so every
    seed yields a table of the same difficulty and trees of about the same
    size; the seed draws the rows.
    """
    geometry = np.random.Generator(np.random.PCG64(GEOMETRY_SEED))
    gen = np.random.Generator(np.random.PCG64(seed))
    informative = max(1, spec.features // 2)
    blocks, labels = [], []
    for c, size in enumerate(class_sizes(spec.rows, spec.ratio)):
        centre = geometry.normal(0.0, 0.4, informative)
        blobs = centre + geometry.normal(0.0, 0.6, (2, informative))
        which = gen.integers(0, 2, size)
        x = gen.standard_normal((size, spec.features))
        x[:, :informative] += blobs[which]
        blocks.append(x)
        labels.append(np.full(size, c))
    features = np.concatenate(blocks)
    labels = np.concatenate(labels)
    order = gen.permutation(labels.size)
    return features[order], labels[order]


def write_csv(path: Path, spec: TableSpec, seed: int) -> str:
    """Write the table for (spec, seed) to ``path``; return its sha256.

    Values carry six decimals, as a measured table would; the label
    column holds class names ``c0``, ``c1``, ... after the features.
    """
    features, labels = make_table(spec, seed)
    header = ",".join([f"f{j}" for j in range(spec.features)] + ["label"])
    lines = [header]
    for row, label in zip(features.tolist(), labels.tolist()):
        lines.append(",".join(f"{v:.6f}" for v in row) + f",c{label}")
    data = ("\n".join(lines) + "\n").encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


# Input table of each workload, per scale: "full" is what the benchmark
# measures, "tiny" serves the benchmark's own smoke tests. biaslab has no
# table; its trials are drawn by the library from the seed.
TABLES = {
    "fit-tree": {"full": TableSpec(10_000, 16, (15, 4, 1)), "tiny": TableSpec(300, 4, (15, 4, 1))},
    "cv-auto": {"full": TableSpec(2_000, 8, (10, 1)), "tiny": TableSpec(200, 4, (10, 1))},
    "knn": {"full": TableSpec(2_000, 8, (15, 4, 1)), "tiny": TableSpec(300, 4, (15, 4, 1))},
    "biaslab": {"full": None, "tiny": None},
}
