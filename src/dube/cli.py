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
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from . import rng
from .balancing import InterCBStrategy, IntraCBStrategy
from .biaslab import BIAS_STRATEGIES, ToyConfig, check_pbda_bound, run_bias_trials
from .dataset import Dataset, DatasetError, inject_flip_noise, \
    load_csv, make_gaussian_1d, make_overlap_2d, stratified_k_fold
from .ensemble import DubeConfig, TrainingTrace, dube_fit
from .learners import KnnParams, TreeParams
from .metrics import evaluate

REPORT_SCHEMA = "dube-report-v1"

_INTER = {"rus": "RUS", "ros": "ROS", "rhs": "RHS"}
_INTRA = {"uniform": "Uniform", "hem": "HEM", "shem": "SHEM"}
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
    elif isinstance(value, np.integer):
        value = int(value)
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
    20% validation split of the training data (ties to the smaller alpha)."""
    plan = stratified_k_fold(train, 5, rng.child_seed(seed, rng.TUNE))
    inner, validation = plan.split(train, 0)
    best_alpha, best_score = None, -1.0
    for alpha in grid:
        candidate = replace(cfg, alpha=float(alpha), seed=rng.child_seed(seed, rng.TUNE, 1))
        model = dube_fit(inner, candidate)
        probs = model.predict_proba_many(validation.features)
        score = evaluate(validation.labels, probs.argmax(axis=1), probs).macro_auroc
        if score > best_score:
            best_alpha, best_score = float(alpha), score
    return best_alpha


def run_cv_cell(train: Dataset, test: Dataset, base_cfg: DubeConfig, seed: int, alpha_mode):
    """Fit on train, evaluate on test; returns (EvalReport, alpha, trace)."""
    cfg = replace(base_cfg, seed=rng.child_seed(seed, rng.CELL))
    if alpha_mode == "auto":
        cfg = replace(cfg, alpha=tune_alpha(train, cfg, DEFAULT_ALPHA_GRID, seed))
    trace = TrainingTrace()
    model = dube_fit(train, cfg, trace)
    probs = model.predict_proba_many(test.features)
    report = evaluate(test.labels, probs.argmax(axis=1), probs)
    return report, cfg.alpha, trace


def _cv_cells(ds: Dataset, folds: int, repeats: int, seed: int):
    """(repeat, fold, train, test) tuples for repeated stratified CV."""
    cells = []
    for rep in range(repeats):
        plan = stratified_k_fold(ds, folds, rng.child_seed(seed, rng.FOLD, rep))
        for fold in range(folds):
            train, test = plan.split(ds, fold)
            cells.append((rep, fold, train, test))
    return cells


def _map_cells(fn, cells, jobs: int):
    if jobs <= 1:
        return [fn(cell) for cell in cells]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, cells))


def _cross_validate(ds: Dataset, options, points, failures: list) -> list:
    """Cross-validate every point over the same repeated stratified cells.

    A point is (failure label prefix, DubeConfig, training-noise ratio or
    None). The (point, cell) jobs run in point-major order and failed
    cells append their messages to ``failures`` in that order. Returns,
    per point, the (repeat, fold, metrics, alpha, trace) of every cell
    that succeeded.
    """
    seed = options["seed"]
    cells = _cv_cells(ds, options["folds"], options["repeats"], seed)

    def one(job):
        (label, cfg, noise), (rep, fold, train, test) = job
        try:
            if noise is not None:
                # noise goes into the training split only; the noise seed is
                # shared across points so comparisons are paired
                train = inject_flip_noise(train, noise, rng.child_seed(seed, rng.FLIP, rep, fold))
            cell_seed = rng.child_seed(seed, rng.CELL, rep, fold)
            return (rep, fold, *run_cv_cell(train, test, cfg, cell_seed, options["alpha"]))
        except Exception as exc:  # cell failures are reported, not fatal
            return f"{label}repeat={rep} fold={fold}: {exc}"

    jobs = [(point, cell) for point in points for cell in cells]
    results = [[] for _ in points]
    for i, outcome in enumerate(_map_cells(one, jobs, options["jobs"])):
        if isinstance(outcome, str):
            failures.append(outcome)
        else:
            results[i // len(cells)].append(outcome)
    if not any(results):
        raise CliError(f"all cells failed; first failure: {failures[0]}")
    return results


def _mean_std(results) -> list:
    """Mean and std of macro-F1, then MCC, then macro-AUROC over cell results."""
    stats = []
    for name in ("macro_f1", "mcc", "macro_auroc"):
        arr = np.asarray([getattr(metrics, name) for _, _, metrics, _, _ in results],
                         dtype=np.float64)
        stats += [float(arr.mean()), float(arr.std())]
    return stats


def _require(condition, message):
    if not condition:
        raise CliError(message)


def _load_input(options) -> Dataset:
    """The --input table of a cross-validating command, once --folds and
    --repeats are checked."""
    _require(options.get("input"), "--input is required")
    ds = load_csv(options["input"], options["label_col"])
    _require(options["folds"] >= 2, "--folds must be >= 2")
    _require(options["repeats"] >= 1, "--repeats must be >= 1")
    return ds


def _config_line(options, keys) -> str:
    return " ".join(f"{key}={options[key]}" for key in keys if key in options)


# jobs is deliberately absent: worker count may not influence the body
_BENCH_KEYS = ("input", "label_col", "k", "inter", "intra", "bins", "alpha",
               "learner", "tree_max_depth", "tree_min_leaf", "tree_criterion",
               "knn_neighbors", "folds", "repeats", "seed")


def run_bench(options) -> Report:
    started = time.perf_counter()
    ds = _load_input(options)
    point = ("", build_dube_config(options), None)
    report = Report("bench", _config_line(options, _BENCH_KEYS),
                    ["kind", "repeat", "fold", "alpha", "macro_f1", "mcc", "macro_auroc"])
    [results] = _cross_validate(ds, options, [point], report.failures)
    resample_ms = []
    detail_rows = []
    for rep, fold, metrics, alpha, trace in results:
        report.rows.append(["cell", rep, fold, alpha, metrics.macro_f1,
                            metrics.mcc, metrics.macro_auroc])
        resample_ms += [it.resample_ms for it in trace.iterations]
        for c, (precision, recall, f1) in enumerate(metrics.per_class):
            detail_rows.append([rep, fold, c, precision, recall, f1]
                               + metrics.confusion[c].tolist())
    stats = _mean_std(results)
    report.rows.append(["mean", "", "", ""] + stats[0::2])
    report.rows.append(["std", "", "", ""] + stats[1::2])
    if options.get("details"):
        m = len(detail_rows[0]) - 6
        report.extra_sections.append((
            "per-class details (confusion row = counts of predicted classes)",
            ["repeat", "fold", "class", "precision", "recall", "f1"]
            + [f"pred_{c}" for c in range(m)],
            detail_rows))
    report.timing = {
        "elapsed_ms": (time.perf_counter() - started) * 1000.0,
        "resample_ms_per_iteration_mean": float(np.mean(resample_ms)) if resample_ms else 0.0,
        "resample_ms_total": float(np.sum(resample_ms)) if resample_ms else 0.0,
    }
    return report


def run_noise_sweep(options) -> Report:
    started = time.perf_counter()
    ds = _load_input(options)
    _require(ds.m == 2, "noise sweep needs a binary dataset")
    _require(options["noise_grid"], "--noise-grid must be a nonempty list")
    base_cfg = build_dube_config(options)
    report = Report("noise-sweep", _config_line(options, _BENCH_KEYS + ("noise_grid",)),
                    ["noise_ratio", "intra", "macro_f1_mean", "macro_f1_std",
                     "mcc_mean", "mcc_std", "macro_auroc_mean", "macro_auroc_std"])
    grid = [(r, intra) for r in options["noise_grid"] for intra in ("uniform", "hem", "shem")]
    points = [(f"r={r} intra={intra} ",
               replace(base_cfg, intra=IntraCBStrategy(_INTRA[intra], bins=options["bins"])), r)
              for r, intra in grid]
    for (r, intra), results in zip(grid, _cross_validate(ds, options, points, report.failures)):
        if results:
            report.rows.append([r, intra] + _mean_std(results))
    report.timing = {"elapsed_ms": (time.perf_counter() - started) * 1000.0}
    return report


def run_param_sweep(options) -> Report:
    started = time.perf_counter()
    ds = _load_input(options)
    alpha_grid, bins_grid = options.get("alpha_grid"), options.get("bins_grid")
    _require(bool(alpha_grid) != bool(bins_grid),
             "exactly one of --alpha-grid / --bins-grid is required")
    _require(options["alpha"] != "auto",
             "param-sweep takes no --alpha auto; use --alpha-grid ... --select")
    _require(not bins_grid or options["intra"] == "shem",
             "--bins-grid sweeps SHEM histogram bins; it needs --intra shem")
    _require(not (bins_grid and options.get("select")),
             "--select picks an alpha; it needs --alpha-grid, not --bins-grid")
    base_cfg = build_dube_config(options)
    param = "alpha" if alpha_grid else "bins"
    grid = alpha_grid or bins_grid
    report = Report("param-sweep", _config_line(options, _BENCH_KEYS) + f" grid={param}:{grid}",
                    ["kind", param, "macro_f1_mean", "macro_f1_std",
                     "mcc_mean", "mcc_std", "macro_auroc_mean", "macro_auroc_std"])
    if param == "alpha":
        configs = [replace(base_cfg, alpha=float(value)) for value in grid]
    else:
        configs = [replace(base_cfg, intra=IntraCBStrategy(base_cfg.intra.tag, bins=int(value)))
                   for value in grid]
    points = [(f"{param}={value} ", cfg, None) for value, cfg in zip(grid, configs)]
    for value, results in zip(grid, _cross_validate(ds, options, points, report.failures)):
        if results:
            report.rows.append(["grid", value] + _mean_std(results))
    if param == "alpha" and options.get("select"):
        chosen = []
        for rep, fold, train, _ in _cv_cells(ds, options["folds"], options["repeats"],
                                             options["seed"]):
            seed = rng.child_seed(options["seed"], rng.CELL, rep, fold)
            chosen.append(tune_alpha(train, base_cfg, grid, seed))
        report.rows.append(["selected", float(np.median(chosen)), "", "", "", "", "", ""])
    report.timing = {"elapsed_ms": (time.perf_counter() - started) * 1000.0}
    return report


_BIASLAB_KEYS = ("n_min", "n_maj", "mu_min", "mu_maj", "sigma", "trials",
                 "alpha_sigmas", "seed")


def run_biaslab(options) -> Report:
    started = time.perf_counter()
    cfg = ToyConfig(n_min=options["n_min"], n_maj=options["n_maj"],
                    mu_min=options["mu_min"], mu_maj=options["mu_maj"],
                    sigma=options["sigma"], trials=options["trials"],
                    seed=options["seed"])
    report = Report("biaslab", _config_line(options, _BIASLAB_KEYS),
                    ["strategy", "alpha", "mean_bias", "var_bias", "trials"])
    for strategy in BIAS_STRATEGIES:
        for alpha_sigma in options["alpha_sigmas"]:
            res = run_bias_trials(cfg, strategy, alpha_sigma)
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
    report.timing = {"elapsed_ms": (time.perf_counter() - started) * 1000.0}
    return report


def run_synth(options) -> Report:
    started = time.perf_counter()
    if options["generator"] == "gaussian1d":
        ds = make_gaussian_1d(options["n_min"], options["n_maj"], options["mu_min"],
                              options["mu_maj"], options["sigma"], options["seed"])
    else:
        ds = make_overlap_2d(options["n_min"], options["n_maj"],
                             options["overlap"], options["seed"])
    columns = [f"f{j}" for j in range(ds.n_features)] + ["label"]
    report = Report("synth", _config_line(options, ("generator", "n_min", "n_maj",
                    "mu_min", "mu_maj", "sigma", "overlap", "seed")), columns,
                    plain=True)
    for i in range(ds.n_rows):
        report.rows.append(list(ds.features[i]) + [ds.label_names[ds.labels[i]]])
    report.timing = {"elapsed_ms": (time.perf_counter() - started) * 1000.0}
    return report


# ---------------------------------------------------------------------------
# argument plumbing

def _float_list(text: str):
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from None


def _int_list(text: str):
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad int list {text!r}") from None


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


_COMMON_DEFAULTS = {
    "label_col": "label", "k": 10, "inter": "rhs", "intra": "shem", "bins": 5,
    "alpha": 0.0, "learner": "tree", "tree_max_depth": None, "tree_min_leaf": 1,
    "tree_criterion": "gini", "knn_neighbors": 5, "folds": 5, "repeats": 1,
    "seed": 0, "jobs": 1, "details": False, "out": None, "format": "csv",
    "config": None,
}

_DEFAULTS = {
    "bench": {**_COMMON_DEFAULTS, "input": None},
    "noise-sweep": {**_COMMON_DEFAULTS, "input": None,
                    "noise_grid": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]},
    "param-sweep": {**_COMMON_DEFAULTS, "input": None, "alpha_grid": None,
                    "bins_grid": None, "select": False},
    "biaslab": {"n_min": 3, "n_maj": 15, "mu_min": 0.0, "mu_maj": 4.0,
                "sigma": 1.0, "trials": 10_000, "alpha_sigmas": [0.0, 0.2],
                "seed": 0, "out": None, "format": "csv", "config": None},
    "synth": {"generator": "gaussian1d", "n_min": 3, "n_maj": 15, "mu_min": 0.0,
              "mu_maj": 4.0, "sigma": 1.0, "overlap": "mid", "seed": 0,
              "out": None, "format": "csv", "config": None},
}

_RUNNERS = {
    "bench": run_bench,
    "noise-sweep": run_noise_sweep,
    "param-sweep": run_param_sweep,
    "biaslab": run_biaslab,
    "synth": run_synth,
}


def _add_common(sub):
    sub.add_argument("--config", help="key = value settings file; flags win")
    sub.add_argument("--out", help="report destination (default stdout)")
    sub.add_argument("--format", choices=["csv", "text"])
    sub.add_argument("--seed", type=int)


def _add_bench_flags(sub):
    sub.add_argument("--input", help="CSV dataset path")
    sub.add_argument("--label-col", type=_label_col, dest="label_col")
    sub.add_argument("--k", type=int, help="ensemble size")
    sub.add_argument("--inter", choices=sorted(_INTER))
    sub.add_argument("--intra", choices=sorted(_INTRA))
    sub.add_argument("--bins", type=int, help="SHEM histogram bins")
    sub.add_argument("--alpha", type=_alpha, help="perturbation scale or 'auto'")
    sub.add_argument("--learner", choices=["tree", "knn"])
    sub.add_argument("--tree-max-depth", type=_optional_int, dest="tree_max_depth")
    sub.add_argument("--tree-min-leaf", type=int, dest="tree_min_leaf")
    sub.add_argument("--tree-criterion", choices=["gini", "entropy"], dest="tree_criterion")
    sub.add_argument("--knn-neighbors", type=int, dest="knn_neighbors")
    sub.add_argument("--folds", type=int)
    sub.add_argument("--repeats", type=int)
    sub.add_argument("--jobs", type=int, help="worker threads for CV cells")
    sub.add_argument("--details", action="store_true",
                     help="append per-class precision/recall and confusion rows")
    _add_common(sub)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dube",
        description="Duple-balanced ensemble toolkit for imbalanced classification")
    commands = parser.add_subparsers(dest="command", required=True)
    subs = {}

    subs["bench"] = commands.add_parser("bench", argument_default=argparse.SUPPRESS,
                                        help="repeated stratified-CV benchmark")
    _add_bench_flags(subs["bench"])

    noise = commands.add_parser("noise-sweep", argument_default=argparse.SUPPRESS,
                                help="flip-noise robustness sweep over intra-class strategies")
    _add_bench_flags(noise)
    noise.add_argument("--noise-grid", type=_float_list, dest="noise_grid")
    subs["noise-sweep"] = noise

    sweep = commands.add_parser("param-sweep", argument_default=argparse.SUPPRESS,
                                help="grid sweep over alpha or bins")
    _add_bench_flags(sweep)
    sweep.add_argument("--alpha-grid", type=_float_list, dest="alpha_grid")
    sweep.add_argument("--bins-grid", type=_int_list, dest="bins_grid")
    sweep.add_argument("--select", action="store_true",
                       help="add a validation-selected alpha row")
    subs["param-sweep"] = sweep

    lab = commands.add_parser("biaslab", argument_default=argparse.SUPPRESS,
                              help="decision-bias Monte Carlo on the 1-D toy")
    for flag, kind in (("--n-min", int), ("--n-maj", int), ("--mu-min", float),
                       ("--mu-maj", float), ("--sigma", float), ("--trials", int)):
        lab.add_argument(flag, type=kind, dest=flag[2:].replace("-", "_"))
    lab.add_argument("--alpha-sigmas", type=_float_list, dest="alpha_sigmas")
    _add_common(lab)
    subs["biaslab"] = lab

    synth = commands.add_parser("synth", argument_default=argparse.SUPPRESS,
                                help="emit a synthetic dataset as CSV")
    synth.add_argument("--generator", choices=["gaussian1d", "overlap2d"])
    for flag, kind in (("--n-min", int), ("--n-maj", int), ("--mu-min", float),
                       ("--mu-maj", float), ("--sigma", float)):
        synth.add_argument(flag, type=kind, dest=flag[2:].replace("-", "_"))
    synth.add_argument("--overlap", choices=["low", "mid", "high"])
    _add_common(synth)
    subs["synth"] = synth
    return parser, subs


def _read_config_file(path, parser_actions, defaults) -> dict:
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    actions = {action.dest: action for action in parser_actions}
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, _, raw = text.partition("=")
        key = key.strip().replace("-", "_")
        raw = raw.strip()
        if key not in defaults:
            raise CliError(f"{path}:{lineno}: unknown setting {key!r}")
        action = actions.get(key)
        if action is not None and action.type is not None:
            try:
                value = action.type(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise CliError(f"{path}:{lineno}: {exc}") from exc
        elif raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            value = raw
        if action is not None and action.choices is not None and value not in action.choices:
            raise CliError(f"{path}:{lineno}: invalid {key} {raw!r} "
                           f"(choose from {', '.join(action.choices)})")
        values[key] = value
    return values


def resolve_options(command: str, given: dict, parser_actions) -> dict:
    defaults = dict(_DEFAULTS[command])
    merged = dict(defaults)
    config_path = given.get("config") or defaults.get("config")
    if config_path:
        merged.update(_read_config_file(config_path, parser_actions, defaults))
    merged.update(given)
    return merged


def main(argv=None) -> int:
    parser, subs = build_parser()
    ns = parser.parse_args(argv)
    command = ns.command
    given = {key: value for key, value in vars(ns).items() if key != "command"}
    try:
        options = resolve_options(command, given, subs[command]._actions)
        report = _RUNNERS[command](options)
        text = report.render(options.get("format") or "csv")
        if options.get("out"):
            try:
                with open(options["out"], "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise CliError(f"cannot write {options['out']}: {exc.strerror}") from exc
        else:
            sys.stdout.write(text)
    except (CliError, DatasetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if not report.failures else 1


if __name__ == "__main__":
    sys.exit(main())
