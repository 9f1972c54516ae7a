"""Golden report bodies and model files.

Every command below runs through ``dube.cli.main`` on a small
``overlap2d`` table written by the first (``synth``) run. Each report
is compared byte for byte with ``tests/golden/<name>`` after its two
volatile header lines (``# generated_at`` and ``# timing``) are
dropped; ``synth`` writes a bare table without them. Two fitted
ensembles, one of trees and one of KNN members, are compared through
their ``save_model`` JSON. A refactor must leave every file unchanged.

The files are regenerated only for a declared behaviour change, and
committed together with it. From the repository root:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import os
import tempfile
from pathlib import Path

import pytest

from dube import (DubeConfig, InterCBStrategy, IntraCBStrategy, KnnParams,
                  TreeParams, dube_fit, load_csv, save_model)
from dube.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUT = "synth.csv"  # relative, so config lines never name the work directory
CV = ["--input", INPUT, "--k", "3", "--folds", "3", "--seed", "1"]

REPORTS = {
    INPUT: ["synth", "--generator", "overlap2d", "--n-min", "30", "--n-maj", "120",
            "--overlap", "mid", "--seed", "3"],
    "bench-details.csv": ["bench", *CV, "--details"],
    "bench-auto.txt": ["bench", *CV, "--alpha", "auto", "--format", "text"],
    "bench-knn.csv": ["bench", *CV, "--learner", "knn", "--inter", "ros", "--intra", "hem",
                      "--jobs", "2"],
    "noise-fixed.csv": ["noise-sweep", *CV, "--noise-grid", "0,0.2", "--alpha", "0.2"],
    "noise-auto.csv": ["noise-sweep", *CV, "--noise-grid", "0,0.2", "--alpha", "auto"],
    "param-alpha.csv": ["param-sweep", *CV, "--alpha-grid", "0,0.2,0.4", "--select"],
    "param-bins.csv": ["param-sweep", *CV, "--bins-grid", "1,5", "--jobs", "2"],
    # some cells fail: k_neighbors exceeds the rows an under-sampled fold keeps
    "noise-failures.csv": ["noise-sweep", "--input", INPUT, "--k", "3", "--folds", "4",
                           "--seed", "1", "--noise-grid", "0,0.2", "--learner", "knn",
                           "--inter", "rus", "--knn-neighbors", "45", "--jobs", "2"],
    "biaslab.csv": ["biaslab", "--trials", "200", "--seed", "2"],
}

MODELS = {
    "model-tree.json": DubeConfig(k=3, alpha=0.2, seed=4, learner=TreeParams(
        max_depth=6, min_samples_leaf=2, criterion="entropy")),
    "model-knn.json": DubeConfig(k=3, inter=InterCBStrategy("ROS"),
                                 intra=IntraCBStrategy("HEM"), alpha=0.1, seed=4,
                                 learner=KnnParams(k_neighbors=3)),
}


def render_all(workdir: Path) -> dict:
    """Bytes of every golden file, produced with ``workdir`` as the cwd."""
    produced = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in REPORTS.items():
            code = main(argv + ["--out", name])
            if code not in (0, 1):  # 1: some cells failed, as the body lists
                raise RuntimeError(f"{' '.join(argv)} exited with {code}")
            text = Path(name).read_bytes()
            if argv[0] != "synth":
                generated_at, timing, text = text.split(b"\n", 2)
                assert generated_at.startswith(b"# generated_at=")
                assert timing.startswith(b"# timing:")
            produced[name] = text
        ds = load_csv(INPUT, "label")
        for name, cfg in MODELS.items():
            save_model(dube_fit(ds, cfg), name)
            produced[name] = Path(name).read_bytes()
    finally:
        os.chdir(cwd)
    return produced


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return render_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [*REPORTS, *MODELS])
def test_matches_golden(produced, name):
    assert produced[name] == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, data in render_all(Path(work)).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name} ({len(data)} bytes)")
