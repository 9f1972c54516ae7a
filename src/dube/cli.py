"""Command-line toolkit: cross-validated benchmarking, noise and
parameter sweeps, the decision-bias lab, and synthetic dataset emission.

Reports are deterministic given (config, seed): every line except the
``# generated_at`` and ``# timing`` headers is a pure function of the
inputs, and serial and concurrent execution produce identical bodies.
Settings may come from a key=value config file (--config); explicit
flags win over file values.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from . import rng
from .balancing import TARGETS, WEIGHTS, InterCBStrategy, IntraCBStrategy
from .biaslab import (BIAS_STRATEGIES, ToyConfig, check_pbda_bound, draw_trials,
                      run_bias_trials, validate_row)
from .dataset import Dataset, inject_flip_noise, load_csv, make_gaussian_1d, make_overlap_2d, \
    stratified_k_fold
from .ensemble import DubeConfig, dube_fit, dube_fit_lockstep, write_atomic
from .learners import LEARNERS, KnnParams, TreeParams
from .metrics import evaluate, macro_auroc

REPORT_SCHEMA = "dube-report-v1"

_INTER = {tag.lower(): tag for tag in TARGETS}
_INTRA = {tag.lower(): tag for tag in WEIGHTS}
DEFAULT_ALPHA_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


class CliError(Exception):
    """Configuration or usage problem; maps to exit code 2."""


@dataclass
class Report:
    command: str
    config_line: str
    columns: list
    rows: list = field(default_factory=list)
    extra_sections: list = field(default_factory=list)  # (title, columns, rows)
    timing: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    plain: bool = False  # bare table, no headers (dataset emission)

    def body(self, fmt: str = "csv") -> str:
        """The deterministic part of the rendered report."""
        digest = hashlib.sha256(self.config_line.encode()).hexdigest()[:12]
        lines = [
            f"# schema={REPORT_SCHEMA}",
            f"# rng={rng.RNG_ALGORITHM}",
            f"# command={self.command}",
            f"# config: {self.config_line}",
            f"# config_hash={digest}",
        ]
        lines += _format_table(self.columns, self.rows, fmt)
        for title, columns, rows in self.extra_sections:
            lines.append("")
            lines.append(f"# section: {title}")
            lines += _format_table(columns, rows, fmt)
        for failure in self.failures:
            lines.append(f"# failed: {failure}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str = "csv") -> str:
        if self.plain:
            return "\n".join(_format_table(self.columns, self.rows, "csv")) + "\n"
        stamp = datetime.now(timezone.utc).isoformat()
        timing = " ".join(f"{key}={value:.3f}" for key, value in self.timing.items())
        return (f"# generated_at={stamp}\n# timing: {timing}\n") + self.body(fmt)


def _format_value(value) -> str:
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, float):
        return repr(value)  # shortest round-trip form
    return str(value)


def _format_table(columns, rows, fmt) -> list:
    if fmt == "text":
        cells = [[_format_value(v) for v in row] for row in rows]
        widths = [max(len(str(c)), *(len(r[i]) for r in cells)) if cells else len(str(c))
                  for i, c in enumerate(columns)]
        out = ["  ".join(str(c).ljust(w) for c, w in zip(columns, widths)).rstrip()]
        out += ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() for row in cells]
        return out
    out = [",".join(str(c) for c in columns)]
    out += [",".join(_format_value(v) for v in row) for row in rows]
    return out


# ---------------------------------------------------------------------------
# benchmarking harness

def build_dube_config(options) -> DubeConfig:
    inter = InterCBStrategy(_INTER[options["inter"]])
    intra = IntraCBStrategy(_INTRA[options["intra"]], bins=options["bins"])
    if options["learner"] == "tree":
        learner = TreeParams(max_depth=options["tree_max_depth"],
                             min_samples_leaf=options["tree_min_leaf"],
                             criterion=options["tree_criterion"])
    else:
        learner = KnnParams(k_neighbors=options["knn_neighbors"])
    alpha = options["alpha"]
    return DubeConfig(k=options["k"], inter=inter, intra=intra,
                      alpha=0.0 if alpha == "auto" else float(alpha),
                      learner=learner, seed=options["seed"])


def tune_alpha(train: Dataset, cfg: DubeConfig, grid, seed: int) -> float:
    """Pick the grid alpha with the best macro-AUROC on a stratified
    20% validation split of the training data (ties to the earliest in the
    grid, so to the smaller alpha in an ascending grid). The grid's
    ensembles are fitted in lockstep (``dube_fit_lockstep``)."""
    plan = stratified_k_fold(train, 5, rng.child_seed(seed, rng.TUNE))
    inner, validation = plan.split(train, 0)
    tuning = replace(cfg, seed=rng.child_seed(seed, rng.TUNE, 1))
    scores = [macro_auroc(validation.labels, model.predict_proba_many(validation.features))
              for model in dube_fit_lockstep(inner, tuning, grid)]
    return grid[int(np.argmax(scores))]


def run_cv_cell(train: Dataset, test: Dataset, base_cfg: DubeConfig, seed: int, grid):
    """Fit on train, evaluate on test; returns (EvalReport, alpha, resample ms per iteration).
    Unless ``grid`` is None, the fit's alpha is first tuned over it (:func:`tune_alpha`)."""
    cfg = replace(base_cfg, seed=rng.child_seed(seed, rng.CELL))
    if grid is not None:
        cfg = replace(cfg, alpha=tune_alpha(train, cfg, grid, seed))
    resample_ms = []
    model = dube_fit(train, cfg, resample_ms)
    probs = model.predict_proba_many(test.features)
    report = evaluate(test.labels, probs.argmax(axis=1), probs)
    return report, cfg.alpha, resample_ms


def _cv_cells(ds: Dataset, options):
    """One (repeat, fold, fold plan, cell seed) record per cell of the options'
    repeated stratified CV. No cell's rows are copied here: a job splits them
    from the table when it runs, so only the running cells' copies exist."""
    plans = [stratified_k_fold(ds, options["folds"], rng.child_seed(options["seed"], rng.FOLD, rep))
             for rep in range(options["repeats"])]
    return [(rep, fold, plan, rng.child_seed(options["seed"], rng.CELL, rep, fold))
            for rep, plan in enumerate(plans) for fold in range(options["folds"])]


def _cv_job(job):
    """One (point, cell) job of :func:`_cross_validate`, picklable for a worker
    process: it splits the cell's train and test rows from the table ``ds``
    and returns the cell's (repeat, fold, metrics, alpha, resample_ms) or failure."""
    seed, (label, cfg, noise, grid), ds, (rep, fold, plan, cell_seed) = job
    train, test = plan.split(ds, fold)
    try:
        if noise is not None:
            # noise goes into the training split only; the noise seed is
            # shared across points so comparisons are paired
            train = inject_flip_noise(train, noise, rng.child_seed(seed, rng.FLIP, rep, fold))
        return (rep, fold, *run_cv_cell(train, test, cfg, cell_seed, grid))
    except Exception as exc:  # cell failures are reported, not fatal
        return f"{label}repeat={rep} fold={fold}: {exc}"


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS keeps one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _cross_validate(ds: Dataset, options, points, failures: list) -> list:
    """Cross-validate every point over the same repeated stratified cells.

    A point is (failure label prefix, DubeConfig, training-noise ratio or
    None, alpha grid that each cell tunes over or None; see :func:`_point`).
    The (point, cell) jobs run in point-major order, in worker processes if
    ``options["jobs"]`` > 1 (no more than there are jobs or usable CPUs);
    failed cells append their messages to ``failures`` in that order. Each
    job carries the table and its cell's :func:`_cv_cells` record and
    splits its own rows, so memory holds the table, the fold plans and the
    running cells' copies, never every cell's.
    Returns, per point, the (repeat, fold, metrics, alpha, resample_ms) of
    every cell that succeeded.
    """
    cells = _cv_cells(ds, options)
    jobs = [(options["seed"], p, ds, cell) for p in points for cell in cells]
    if options["jobs"] <= 1:
        outcomes = [_cv_job(job) for job in jobs]  # in this process, where a tracer can see it
    else:
        # imported here: at module level these add ~1.2 MB to every run's peak memory
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(options["jobs"], len(jobs), _usable_cpus()),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            outcomes = list(pool.map(_cv_job, jobs))
    results = [[] for _ in points]
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, str):
            failures.append(outcome)
        else:
            results[i // len(cells)].append(outcome)
    if not any(results):
        raise CliError(f"all cells failed; first failure: {failures[0]}")
    return results


_SUMMARY = ("macro_f1", "mcc", "macro_auroc")
_MEAN_STD_COLUMNS = [f"{name}_{stat}" for name in _SUMMARY for stat in ("mean", "std")]


def _mean_std(results) -> list:
    """Mean and std of each :data:`_SUMMARY` metric over cell results, in
    :data:`_MEAN_STD_COLUMNS` order."""
    stats = []
    for name in _SUMMARY:
        arr = np.asarray([getattr(metrics, name) for _, _, metrics, _, _ in results],
                         dtype=np.float64)
        stats += [float(arr.mean()), float(arr.std())]
    return stats


def _point(label: str, options, noise):
    """The :func:`_cross_validate` point of ``options``: under ``--alpha auto``
    each of its cells tunes alpha over :data:`DEFAULT_ALPHA_GRID`."""
    grid = DEFAULT_ALPHA_GRID if options["alpha"] == "auto" else None
    return label, build_dube_config(options), noise, grid


def _require(condition, message):
    if not condition:
        raise CliError(message)


def _distinct(flag: str, values: list) -> list:
    """``values``, given as ``--flag``; CliError if the list is empty or
    repeats a value (a repeated value would be run and reported twice)."""
    _require(values, f"--{flag} must be a nonempty list")
    for i, value in enumerate(values):
        _require(value not in values[:i], f"--{flag} repeats the value {value}")
    return values


def _load_input(options) -> Dataset:
    """The --input table of a cross-validating command, once --folds,
    --repeats and --jobs are checked."""
    _require(options.get("input"), "--input is required")
    ds = load_csv(options["input"], options["label_col"])
    _require(options["folds"] >= 2, "--folds must be >= 2")
    _require(options["repeats"] >= 1, "--repeats must be >= 1")
    _require(options["jobs"] >= 1, "--jobs must be >= 1")
    return ds


def _config_line(command: str, options) -> str:
    """The command's echoed settings, in table order, as key=value pairs."""
    return " ".join(f"{s.name}={options[s.name]}" for s in _COMMANDS[command].echoed)


def run_bench(options) -> Report:
    ds = _load_input(options)
    point = _point("", options, None)
    report = Report("bench", _config_line("bench", options),
                    ["kind", "repeat", "fold", "alpha", *_SUMMARY])
    [results] = _cross_validate(ds, options, [point], report.failures)
    detail_rows = []
    for rep, fold, metrics, alpha, _ in results:
        report.rows.append(["cell", rep, fold, alpha, *(getattr(metrics, name) for name in _SUMMARY)])
        for c, (precision, recall, f1) in enumerate(metrics.per_class):
            detail_rows.append([rep, fold, c, precision, recall, f1]
                               + metrics.confusion[c].tolist())
    stats = _mean_std(results)
    report.rows.append(["mean", "", "", ""] + stats[0::2])
    report.rows.append(["std", "", "", ""] + stats[1::2])
    if options.get("details"):
        report.extra_sections.append((
            "per-class details (confusion row = counts of predicted classes)",
            ["repeat", "fold", "class", "precision", "recall", "f1"]
            + [f"pred_{c}" for c in range(ds.m)],
            detail_rows))
    resample_ms = [ms for *_, cell_ms in results for ms in cell_ms]
    report.timing = {"resample_ms_per_iteration_mean": float(np.mean(resample_ms or [0.0])),
                     "resample_ms_total": float(np.sum(resample_ms))}
    return report


def run_noise_sweep(options) -> Report:
    ds = _load_input(options)
    _require(ds.m == 2, "noise sweep needs a binary dataset")
    for r in _distinct("noise-grid", options["noise_grid"]):
        _require(0 <= r <= 1, f"--noise-grid ratios must be in [0, 1], got {r}")
    report = Report("noise-sweep", _config_line("noise-sweep", options),
                    ["noise_ratio", "intra", *_MEAN_STD_COLUMNS])
    grid = [(r, intra) for r in options["noise_grid"] for intra in _INTRA]
    points = [_point(f"r={r} intra={intra} ", {**options, "intra": intra}, r) for r, intra in grid]
    for (r, intra), results in zip(grid, _cross_validate(ds, options, points, report.failures)):
        if results:
            report.rows.append([r, intra] + _mean_std(results))
    return report


def run_param_sweep(options) -> Report:
    ds = _load_input(options)
    alpha_grid, bins_grid = options.get("alpha_grid"), options.get("bins_grid")
    _require((alpha_grid is None) != (bins_grid is None),
             "exactly one of --alpha-grid / --bins-grid is required")
    _require(options["alpha"] != "auto",
             "param-sweep takes no --alpha auto; use --alpha-grid ... --select")
    _require(bins_grid is None or options["intra"] == "shem",
             "--bins-grid sweeps SHEM histogram bins; it needs --intra shem")
    _require(bins_grid is None or not options.get("select"),
             "--select picks an alpha; it needs --alpha-grid, not --bins-grid")
    param, grid = ("alpha", alpha_grid) if bins_grid is None else ("bins", bins_grid)
    _distinct(f"{param}-grid", grid)
    report = Report("param-sweep", _config_line("param-sweep", options) + f" grid={param}:{grid}",
                    ["kind", param, *_MEAN_STD_COLUMNS])
    points = [_point(f"{param}={value} ", {**options, param: value}, None) for value in grid]
    if options.get("select"):  # each cell tunes alpha over the grid, as under --alpha auto
        points.append(("selected ", build_dube_config(options), None, grid))
    for i, cells in enumerate(_cross_validate(ds, options, points, report.failures)):
        if cells and i < len(grid):
            report.rows.append(["grid", grid[i]] + _mean_std(cells))
        elif cells:  # the selected point, at the median of its cells' tuned alphas
            chosen = [alpha for _, _, _, alpha, _ in cells]
            report.rows.append(["selected", float(np.median(chosen))] + _mean_std(cells))
    return report


def run_biaslab(options) -> Report:
    _distinct("alpha-sigmas", options["alpha_sigmas"])
    cfg = ToyConfig(**{f.name: options[f.name] for f in fields(ToyConfig)})
    report = Report("biaslab", _config_line("biaslab", options),
                    ["strategy", "alpha", "mean_bias", "var_bias", "trials"])
    rows = [(strategy, alpha_sigma) for strategy in BIAS_STRATEGIES
            for alpha_sigma in options["alpha_sigmas"]]
    for strategy, alpha_sigma in rows:
        validate_row(cfg, strategy, alpha_sigma)
    draws = draw_trials(cfg)  # every row resumes the same trials
    for strategy, alpha_sigma in rows:
        res = run_bias_trials(draws, strategy, alpha_sigma)
        report.rows.append([strategy, alpha_sigma, res.mean_bias, res.var_bias, res.trials])
    bound_rows = []
    for n_rep in (2, 4, 16):
        for sigma_p in (0.1, 0.5):
            chk = check_pbda_bound(n_rep, sigma_p, options["trials"], seed=options["seed"])
            bound_rows.append([chk.n_rep, chk.sigma_p, chk.empirical_mean,
                               chk.lower, chk.upper, chk.trials])
    report.extra_sections.append((
        "perturbation-gain bounds",
        ["n_rep", "sigma_p", "empirical_mean", "lower_bound", "upper_bound", "trials"],
        bound_rows))
    return report


def run_synth(options) -> Report:
    if options["generator"] == "gaussian1d":
        ds = make_gaussian_1d(options["n_min"], options["n_maj"], options["mu_min"],
                              options["mu_maj"], options["sigma"], options["seed"])
    else:
        ds = make_overlap_2d(options["n_min"], options["n_maj"],
                             options["overlap"], options["seed"])
    columns = [f"f{j}" for j in range(ds.n_features)] + ["label"]
    report = Report("synth", _config_line("synth", options), columns, plain=True)
    for i in range(ds.n_rows):
        report.rows.append(list(ds.features[i]) + [ds.label_names[ds.labels[i]]])
    return report


# ---------------------------------------------------------------------------
# argument plumbing

def _list_of(kind):
    """Parser of a comma-separated list of ``kind`` (float or int); empty items are skipped."""
    def parse(text: str):
        try:
            return [kind(part) for part in text.split(",") if part.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {kind.__name__} list {text!r}") from None
    return parse


_float_list, _int_list = _list_of(float), _list_of(int)


def _label_col(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def _alpha(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"alpha must be a float or 'auto', got {text!r}") from None


def _optional_int(text: str):
    if text.lower() in ("none", "unbounded"):
        return None
    return int(text)


class Setting(NamedTuple):
    """One setting: flag ``--name`` (dashes for underscores), config-file
    key and option ``name``. ``type`` parses a value's text; a ``switch``
    is a store-true flag."""
    name: str
    default: object = None
    type: object = str
    choices: list | None = None
    help: str | None = None
    switch: bool = False


_CV = (
    Setting("input", help="CSV dataset path"),
    Setting("label_col", "label", _label_col),
    Setting("k", 10, int, help="ensemble size"),
    Setting("inter", "rhs", choices=sorted(_INTER)),
    Setting("intra", "shem", choices=sorted(_INTRA)),
    Setting("bins", 5, int, help="SHEM histogram bins"),
    Setting("alpha", 0.0, _alpha, help="perturbation scale or 'auto'"),
    Setting("learner", "tree", choices=list(LEARNERS)),
    Setting("tree_max_depth", None, _optional_int),
    Setting("tree_min_leaf", 1, int),
    Setting("tree_criterion", "gini", choices=["gini", "entropy"]),
    Setting("knn_neighbors", 5, int),
    Setting("folds", 5, int),
    Setting("repeats", 1, int),
    Setting("seed", 0, int),
)
# n_min, n_maj, mu_min, mu_maj, sigma, trials, seed: the toy's defaults live in ToyConfig
_TOY = tuple(Setting(f.name, f.default, type(f.default)) for f in fields(ToyConfig))
_FILES = (
    Setting("config", help="key = value settings file; flags win"),
    Setting("out", help="report destination (default stdout)"),
)
_OUTPUT = (*_FILES, Setting("format", "csv", choices=["csv", "text"]))
# jobs is deliberately not echoed: worker count may not influence the body
_CV_REST = (Setting("jobs", 1, int, help="worker processes for CV cells"), *_OUTPUT)


class Command(NamedTuple):
    """A subcommand. Its ``echoed`` settings make up the report's config
    line, in this order. The ``rest`` are left out of that line, though
    some of them (``format``, ``details``, the grids and ``select``)
    change the report body; param-sweep appends its grid to the line."""
    runner: object
    help: str
    echoed: tuple
    rest: tuple = _OUTPUT


_COMMANDS = {
    "bench": Command(
        run_bench, "repeated stratified-CV benchmark", _CV,
        (*_CV_REST, Setting("details", False, switch=True,
                            help="append per-class precision/recall and confusion rows"))),
    "noise-sweep": Command(
        run_noise_sweep, "flip-noise robustness sweep over intra-class strategies",
        (*[s for s in _CV if s.name != "intra"],  # each point sets its own intra
         Setting("noise_grid", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], _float_list)), _CV_REST),
    "param-sweep": Command(
        run_param_sweep, "grid sweep over alpha or bins", _CV,
        (*_CV_REST, Setting("alpha_grid", None, _float_list), Setting("bins_grid", None, _int_list),
         Setting("select", False, switch=True, help="add a validation-selected alpha row"))),
    "biaslab": Command(
        run_biaslab, "decision-bias Monte Carlo on the 1-D toy",
        (*_TOY[:-1], Setting("alpha_sigmas", [0.0, 0.2], _float_list), _TOY[-1])),
    "synth": Command(
        run_synth, "emit a synthetic dataset as CSV",
        (Setting("generator", "gaussian1d", choices=["gaussian1d", "overlap2d"]), *_TOY[:-2],
         Setting("overlap", "mid", choices=["low", "mid", "high"]), _TOY[-1]),
        _FILES),
}

_DEFAULTS = {name: {s.name: s.default for s in c.echoed + c.rest} for name, c in _COMMANDS.items()}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dube",
        description="Duple-balanced ensemble toolkit for imbalanced classification")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = commands.add_parser(name, argument_default=argparse.SUPPRESS, help=command.help)
        for s in command.echoed + command.rest:
            kind = {"action": "store_true"} if s.switch else {"type": s.type, "choices": s.choices}
            sub.add_argument("--" + s.name.replace("_", "-"), dest=s.name, help=s.help, **kind)
    return parser


def _read_config_file(path, command: Command) -> dict:
    settings = {s.name: s for s in command.echoed + command.rest}
    values = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, _, raw = text.partition("=")
        key = key.strip().replace("-", "_")
        raw = raw.strip()
        setting = settings.get(key)
        if setting is None:
            raise CliError(f"{path}:{lineno}: unknown setting {key!r}")
        if setting.switch:
            if raw.lower() not in ("true", "false"):
                raise CliError(f"{path}:{lineno}: {key} is a switch: expected true or false, "
                               f"got {raw!r}")
            value = raw.lower() == "true"
        else:
            try:
                value = setting.type(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise CliError(f"{path}:{lineno}: {exc}") from exc
        if setting.choices is not None and value not in setting.choices:
            raise CliError(f"{path}:{lineno}: invalid {key} {raw!r} "
                           f"(choose from {', '.join(setting.choices)})")
        values[key] = value
    return values


def resolve_options(command: str, given: dict) -> dict:
    """Defaults, then the --config file's values, then the given flags."""
    options = dict(_DEFAULTS[command])
    if given.get("config"):
        options.update(_read_config_file(given["config"], _COMMANDS[command]))
    options.update(given)
    return options


def main(argv=None) -> int:
    given = vars(build_parser().parse_args(argv))
    command = given.pop("command")
    try:
        options = resolve_options(command, given)
        started = time.perf_counter()
        report = _COMMANDS[command].runner(options)
        report.timing = {"elapsed_ms": (time.perf_counter() - started) * 1000.0, **report.timing}
        text = report.render(options.get("format") or "csv")
        if options.get("out"):
            try:
                write_atomic(options["out"], [text])
            except OSError as exc:
                raise CliError(f"cannot write {options['out']}: {exc.strerror}") from exc
        else:
            sys.stdout.write(text)
    except (CliError, ValueError, MemoryError) as exc:  # a DatasetError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if not report.failures else 1


if __name__ == "__main__":
    sys.exit(main())
