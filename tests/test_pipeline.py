"""End-to-end pipeline checks at realistic desk scale.

The benchmark harness is exercised on a bundled synthetic table with the
same shape as a small real-world task (336 rows, 7 features, 301/35
split) including automatic perturbation tuning. This demonstrates the
full pipeline; the real-data acceptance criterion additionally requires
the actual ecoli table (see README).
"""

import time

import numpy as np
import pytest

from dube import ensemble, rng
from dube.cli import _DEFAULTS, DEFAULT_ALPHA_GRID, run_bench, tune_alpha
from dube.dataset import Dataset, stratified_k_fold
from dube.ensemble import DubeConfig


def options(command, **overrides):
    merged = dict(_DEFAULTS[command])
    merged.update(overrides)
    return merged


@pytest.fixture(scope="module")
def desk_csv(tmp_path_factory):
    """336x7 binary table, 301/35, moderately separable classes."""
    gen = np.random.default_rng(42)
    shift = np.array([1.2, 0.9, 0.7, 0.5, 0.3, 0.2, 0.0])
    majority = gen.normal(0.0, 1.0, (301, 7))
    minority = gen.normal(0.0, 1.0, (35, 7)) + shift
    path = tmp_path_factory.mktemp("desk") / "desk.csv"
    lines = [",".join(f"f{j}" for j in range(7)) + ",label"]
    for row in majority:
        lines.append(",".join(repr(float(v)) for v in row) + ",neg")
    for row in minority:
        lines.append(",".join(repr(float(v)) for v in row) + ",pos")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_desk_scale_bench_with_auto_alpha(desk_csv):
    started = time.perf_counter()
    report = run_bench(options("bench", input=desk_csv, label_col="label",
                               k=10, inter="rhs", intra="shem", bins=5,
                               alpha="auto", folds=5, repeats=5, seed=77))
    elapsed = time.perf_counter() - started
    mean_row = next(row for row in report.rows if row[0] == "mean")
    assert mean_row[6] >= 0.80, f"macro-AUROC {mean_row[6]:.4f} below 0.80"
    assert elapsed < 30.0, f"bench took {elapsed:.1f}s"
    cells = [row for row in report.rows if row[0] == "cell"]
    assert len(cells) == 25


def test_tune_alpha_returns_grid_member():
    gen = np.random.default_rng(3)
    X = np.concatenate([gen.normal(0, 1, (120, 3)), gen.normal(1.2, 1, (30, 3))])
    ds = Dataset(X, np.repeat([0, 1], [120, 30]))
    grid = (0.0, 0.25, 0.5)
    chosen = tune_alpha(ds, DubeConfig(k=4, seed=1), grid, seed=9)
    assert chosen in grid


def test_tune_alpha_fits_the_first_member_once(monkeypatch):
    # the grid's configs share their first member: one fit on the raw inner split
    gen = np.random.default_rng(4)
    X = np.concatenate([gen.normal(0, 1, (120, 3)), gen.normal(1.2, 1, (30, 3))])
    ds = Dataset(X, np.repeat([0, 1], [120, 30]))
    inner, _ = stratified_k_fold(ds, 5, rng.child_seed(9, rng.TUNE)).split(ds, 0)
    fitted, fit_learner = [], ensemble.fit_learner
    monkeypatch.setattr(ensemble, "fit_learner",
                        lambda data, params: fitted.append(data) or fit_learner(data, params))
    tune_alpha(ds, DubeConfig(k=4, seed=1), DEFAULT_ALPHA_GRID, seed=9)
    first = [data for data in fitted if data.features.tobytes() == inner.features.tobytes()]
    assert len(first) == 1 and first[0].labels.tobytes() == inner.labels.tobytes()
