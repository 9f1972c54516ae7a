"""The benchmark workloads: one round of timed work each, plus its checks.

A round is the closed-loop unit of work one caller does and waits for;
rounds run back to back until the run's time is up. The round of
variant v passes the library the seed ``LIBRARY_SEED + v`` (biaslab:
the workload seed + v), and fit-tree and knn hold out fold ``v % 5``
of the split that seed draws. So no round of a run repeats another's
work: a memo kept across calls in the process cannot make a later
round cheaper than a single call of the library is. Variant 0 is the
round whose output digest is recorded per seed.

The library is called only through its public module attributes
(``dube.ensemble.dube_fit``, ``dube.cli.main``, ...), looked up at call
time, so a :class:`tracing.Tracer` installed around a round sees every
call. Output checks run after the timed part of a round.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import dube.biaslab
import dube.cli
import dube.dataset
import dube.ensemble
import dube.metrics
from dube.balancing import InterCBStrategy, IntraCBStrategy
from dube.learners import KnnParams, TreeParams

# The library's seed of round variant 0; it does not depend on the
# workload seed, which only draws the input. biaslab draws its trials
# from its seed, so there the workload seed is the input.
LIBRARY_SEED = 0
HELD_OUT_FOLDS = 5  # fold v % 5 of a 5-fold stratified split is held out


# Ensemble size and bias-lab trials per workload and scale; the input
# tables are in inputs.TABLES. "tiny" rounds take about a second.
K = {"fit-tree": {"full": 10, "tiny": 3}, "cv-auto": {"full": 5, "tiny": 2},
     "knn": {"full": 5, "tiny": 2}}
# Times the held-out split is scored per round: a tree ensemble scores
# 2k rows in tens of milliseconds, too short to time steadily once.
PREDICT_PASSES = {"fit-tree": 10, "knn": 1}
TRIALS = {"full": 4_000, "tiny": 50}


@dataclass
class Checks:
    """Operations attempted and failed in one round, with messages."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)
        return ok


@dataclass
class Round:
    wall_s: float             # the round's timed work
    ops: list                 # seconds of each unit operation (fit, cell or bias row)
    items: int                # rows scored or trials run
    items_s: float            # seconds spent producing ``items``
    digest: str | None        # sha256 of the saved model or report body
    quality: float | None     # held-out macro-AUROC, where there is one
    checks: Checks


def valid_proba(probs, m: int) -> bool:
    """Every row nonnegative, of width m, summing to 1 within 1e-9."""
    probs = np.asarray(probs)
    return (probs.ndim == 2 and probs.shape[1] == m and bool((probs >= 0).all())
            and bool((np.abs(probs.sum(axis=1) - 1.0) <= 1e-9).all()))


@contextlib.contextmanager
def patched(owner, attr, make):
    """Replace ``owner.attr`` by ``make(original)`` for the block."""
    original = vars(owner)[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def timed_calls(durations: list, raised: list):
    """Wrapper factory recording each call's duration and whether it raised."""
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            except Exception:
                raised.append(1)
                raise
            finally:
                durations.append(perf_counter() - t0)
        return wrapper
    return make


class FitWorkload:
    """fit-tree and knn: split, dube_fit, soft-vote predict, evaluate, save."""

    def __init__(self, csv: Path, cfg: dube.ensemble.DubeConfig, passes: int, model_path: Path):
        # cfg.seed is replaced by each round's library seed
        self.csv, self.cfg, self.passes, self.model_path = csv, cfg, passes, model_path
        self.ds = None

    def setup(self):
        self.ds = dube.dataset.load_csv(self.csv, "label")

    def warmup(self):
        small = self.ds.subset(np.arange(min(self.ds.n_rows, 200)))
        dube.ensemble.dube_fit(small, self.cfg).predict_proba_many(small.features)

    def round(self, variant: int) -> Round:
        checks = Checks()
        seed = LIBRARY_SEED + variant
        cfg = dataclasses.replace(self.cfg, seed=seed)
        t0 = perf_counter()
        plan = dube.dataset.stratified_k_fold(self.ds, HELD_OUT_FOLDS, seed)
        train, test = plan.split(self.ds, variant % HELD_OUT_FOLDS)
        t1 = perf_counter()
        model = dube.ensemble.dube_fit(train, cfg)
        t2 = perf_counter()
        for _ in range(self.passes):
            probs = model.predict_proba_many(test.features)
        t3 = perf_counter()
        report = dube.metrics.evaluate(test.labels, probs.argmax(axis=1), probs)
        dube.ensemble.save_model(model, self.model_path)
        wall = perf_counter() - t0
        checks.attempted += 5  # split, fit, predict, evaluate, save; each raises on failure
        checks.check(valid_proba(probs, self.ds.m), "invalid probability row")
        checks.check(len(model.members) == self.cfg.k, "wrong member count")
        checks.check(math.isfinite(report.macro_auroc) and 0 <= report.macro_auroc <= 1,
                     f"macro-AUROC out of range: {report.macro_auroc}")
        digest = hashlib.sha256(self.model_path.read_bytes()).hexdigest()
        return Round(wall_s=wall, ops=[t2 - t1], items=test.n_rows * self.passes, items_s=t3 - t2,
                     digest=digest, quality=report.macro_auroc, checks=checks)


class CliWorkload:
    """cv-auto and biaslab: one ``dube`` CLI command, run in-process.

    A round runs ``argv`` plus ``--seed`` ``seed + variant``.
    ``op_attr`` names the ``dube.cli`` function whose calls are the
    unit operations (a CV cell or one strategy x alpha bias row); its
    calls are timed from outside by wrapping that name.
    """

    def __init__(self, argv, seed: int, op_attr: str, expect_ops: int, items_per_op: int,
                 csv: Path | None):
        self.argv, self.seed, self.op_attr, self.csv = argv, seed, op_attr, csv
        self.expect_ops, self.items_per_op = expect_ops, items_per_op

    def setup(self):
        if self.csv is not None:
            dube.dataset.load_csv(self.csv, "label")
        else:
            dube.biaslab.ToyConfig()

    def warmup(self):
        ds = dube.dataset.make_overlap_2d(20, 200, "mid", LIBRARY_SEED)
        dube.ensemble.dube_fit(ds, dube.ensemble.DubeConfig(k=2)).predict_proba_many(ds.features)
        with contextlib.redirect_stdout(io.StringIO()):
            dube.cli.main(["biaslab", "--trials", "20"])

    def round(self, variant: int) -> Round:
        checks = Checks()
        argv = self.argv + ["--seed", str(self.seed + variant)]
        durations, raised, proba_ok = [], [], []
        buf = io.StringIO()

        def check_proba(original):
            @functools.wraps(original)
            def wrapper(model, X):
                probs = original(model, X)
                proba_ok.append(valid_proba(probs, model.m))
                return probs
            return wrapper

        with patched(dube.cli, self.op_attr, timed_calls(durations, raised)), \
                patched(dube.ensemble.EnsembleModel, "predict_proba_many", check_proba), \
                contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            code = dube.cli.main(argv)
            wall = perf_counter() - t0
        checks.attempted += len(durations)
        checks.failed += len(raised)
        checks.check(code == 0, f"exit code {code}")
        checks.check(all(proba_ok), "invalid probability row")
        # the first two lines are the volatile generated_at and timing headers
        lines = buf.getvalue().split("\n")
        body = "\n".join(lines[2:])
        checks.check(lines[0].startswith("# generated_at=") and lines[1].startswith("# timing:"),
                     "unexpected report header")
        checks.check("# failed:" not in body, "report lists failed operations")
        checks.check(len(durations) == self.expect_ops,
                     f"{len(durations)} {self.op_attr} calls, expected {self.expect_ops}")
        quality = None
        if self.op_attr == "run_cv_cell":
            cells = [line.split(",") for line in body.split("\n") if line.startswith("cell,")]
            checks.check(len(cells) == self.expect_ops,
                         f"{len(cells)} cell rows, expected {self.expect_ops}")
            aurocs = [float(cell[6]) for cell in cells]  # kind,repeat,fold,alpha,f1,mcc,auroc
            quality = sum(aurocs) / len(aurocs) if aurocs else None
        return Round(wall_s=wall, ops=durations, items=len(durations) * self.items_per_op,
                     items_s=sum(durations),
                     digest=hashlib.sha256(body.encode()).hexdigest(),
                     quality=quality, checks=checks)


def make(name: str, scale: str, csv: Path | None, seed: int, out_dir: Path):
    if name == "fit-tree":
        cfg = dube.ensemble.DubeConfig(
            k=K[name][scale], inter=InterCBStrategy("RHS"), intra=IntraCBStrategy("SHEM", bins=5),
            alpha=0.2, learner=TreeParams(min_samples_leaf=5), seed=LIBRARY_SEED)
        return FitWorkload(csv, cfg, PREDICT_PASSES[name], out_dir / f"model-{name}-{scale}.json")
    if name == "knn":
        cfg = dube.ensemble.DubeConfig(
            k=K[name][scale], inter=InterCBStrategy("ROS"), intra=IntraCBStrategy("HEM"),
            alpha=0.2, learner=KnnParams(k_neighbors=5), seed=LIBRARY_SEED)
        return FitWorkload(csv, cfg, PREDICT_PASSES[name], out_dir / f"model-{name}-{scale}.json")
    if name == "cv-auto":
        argv = ["bench", "--input", str(csv), "--label-col", "label", "--k", str(K[name][scale]),
                "--alpha", "auto", "--folds", "5", "--repeats", "1", "--jobs", "1"]
        return CliWorkload(argv, LIBRARY_SEED, "run_cv_cell", expect_ops=5, items_per_op=1,
                           csv=csv)
    if name == "biaslab":
        argv = ["biaslab", "--trials", str(TRIALS[scale])]
        strategies, alphas = len(dube.biaslab.BIAS_STRATEGIES), 2  # default alpha grid
        return CliWorkload(argv, seed, "run_bias_trials", expect_ops=strategies * alphas,
                           items_per_op=TRIALS[scale], csv=None)
    raise ValueError(f"unknown workload {name!r}")
