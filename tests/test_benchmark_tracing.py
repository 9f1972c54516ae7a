"""The benchmark's traced run still finds every call site it patches.

``perfbench/tracing.py`` wraps library functions where their callers
look them up (``dube.ensemble.resample_step``, ``dube.cli.run_cv_cell``,
...) and reads their arguments and results in hooks. A refactor that
moves such a call or changes such a result would only show as a hook
error in a traced benchmark run; these tests make it fail here. The
module is read from its source file and nothing under ``perfbench/`` is
written.
"""

import types
from pathlib import Path

import numpy as np
import pytest

from dube import DubeConfig, InterCBStrategy, IntraCBStrategy, KnnParams, ensemble, make_overlap_2d
from dube.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_site_resolves(tracing):
    for target, attr, name, _ in tracing.TRACED:
        assert callable(tracing.lookup(tracing.resolve(target), attr)), name


def test_traced_fit_reads_every_drawn_row(tracing):
    ds = make_overlap_2d(15, 45, "mid", seed=0)
    cfg = DubeConfig(k=3, inter=InterCBStrategy("ROS"), intra=IntraCBStrategy("SHEM"),
                     alpha=0.2, seed=1)
    with tracing.Tracer() as tracer:
        model = ensemble.dube_fit(ds, cfg)  # looked up at call time, where the tracer patched it
    assert tracer.hook_errors == 0
    metrics = tracing.layer_metrics(tracer.spans, None)
    # 2 iterations draw both classes up to the 45 rows of the larger one
    assert metrics["balancing.resample_calls"] == 2
    assert metrics["balancing.rows_drawn"] == 2 * 2 * 45
    assert metrics["ensemble.members"] == 3
    assert metrics["pbda.perturb_calls"] == 2 * 2
    # a one-config fit grows every member through tree_fit, the first through fit_learner
    nodes = sum(member.n_nodes for member in model.members)
    assert metrics["learners.tree_fits"] == 3 and metrics["learners.tree_nodes"] == nodes
    assert metrics["learners.first_member_fits"] == 1


def test_traced_knn_fit_counts_every_training_vote(tracing):
    ds = make_overlap_2d(15, 45, "mid", seed=0)
    cfg = DubeConfig(k=3, inter=InterCBStrategy("RHS"), intra=IntraCBStrategy("SHEM"),
                     alpha=0.2, learner=KnnParams(3), seed=1)
    with tracing.Tracer() as tracer:
        model = ensemble.dube_fit(ds, cfg)
    assert tracer.hook_errors == 0
    metrics = tracing.layer_metrics(tracer.spans, None)
    # every member but the last votes once on the training rows; the last never does
    evals = sum(ds.n_rows * member.X.shape[0] for member in model.members[:-1])
    assert metrics["learners.knn_distance_evals"] == evals > 0
    assert metrics["ensemble.members"] == 3


def test_traced_bench_runs_without_hook_errors(tracing, tmp_path, capsys):
    ds = make_overlap_2d(15, 45, "mid", seed=0)
    csv = tmp_path / "table.csv"
    rows = np.column_stack([ds.features, ds.labels])
    np.savetxt(csv, rows, delimiter=",", header="f0,f1,label", comments="", fmt="%.17g")
    with tracing.Tracer() as tracer:
        code = main(["bench", "--input", str(csv), "--k", "3", "--folds", "2",
                     "--alpha", "auto", "--seed", "1"])
    assert code == 0 and "# failed:" not in capsys.readouterr().out
    assert tracer.hook_errors == 0
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"ensemble.dube_fit", "balancing.resample_step", "pbda.perturb",
            "learners.fit_learner", "cli.cell", "cli.tune_alpha", "metrics.evaluate",
            "dataset.load_csv", "dataset.fold_split", "cli.render"} <= names
    metrics = tracing.layer_metrics(tracer.spans, None)
    # 2 cells, each tuned by one dube_fit_lockstep call over the 6 grid alphas
    # (no dube_fit span) and then 1 final dube_fit of 3 members
    assert metrics["cli.tune_fits"] == 0
    assert metrics["ensemble.members"] == 2 * 3
