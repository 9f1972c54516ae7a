"""Span tracing of the library's public functions, from outside.

A :class:`Tracer` replaces each traced name where its caller looks it
up (``dube.ensemble.fit_learner``, ``dube.rng.stream``, a method on its
class, ...) with a wrapper that records one span per call: name, start,
end, parent span and run id. Spans stay in memory until :meth:`write`.
:meth:`restore` puts every original object back. Nothing in the library
changes; a later change that moves a call to another lookup site must
update :data:`TRACED` and will show as a changed count.

Per-layer metrics are derived from the spans of one run id: self time
is a span's duration minus the part its direct children cover (the
work a hook does after a child returns is charged to that child, not
to the parent).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Span fields, by position.
NAME, START, END, PARENT, RUN, HOOK_S, ATTRS = range(7)


def _members(tracer, index, args, kwargs, result):
    return {"members": len(result.members)}


def _first_member(tracer, index, args, kwargs, result):
    """Digest the data and params of the first fit inside each dube_fit."""
    parent = tracer.spans[index][PARENT]
    if parent < 0 or tracer.spans[parent][NAME] != "ensemble.dube_fit":
        return None
    if parent in tracer.first_seen:
        return None
    tracer.first_seen.add(parent)
    ds, params = args[0], args[1]
    h = hashlib.sha256()
    h.update(ds.features.tobytes())
    h.update(ds.labels.tobytes())
    h.update(repr((ds.m, params)).encode())
    return {"first_member": h.hexdigest()}


def _tree_nodes(tracer, index, args, kwargs, result):
    return {"nodes": result.n_nodes}


def _knn_evals(tracer, index, args, kwargs, result):
    model, queries = args[0], args[1]
    return {"evals": len(queries) * model.X.shape[0]}


def _rows_drawn(tracer, index, args, kwargs, result):
    return {"rows": sum(rows.size for rows in result[1])}


def _factorising(tracer, index, args, kwargs, result):
    alpha, cov = args[1], args[2]
    return {"factorising": int(alpha != 0.0 and bool(cov.cov.any()))}


def _csv_rows(tracer, index, args, kwargs, result):
    return {"rows": result.n_rows}


def _bytes_copied(tracer, index, args, kwargs, result):
    ds = args[0]
    return {"bytes": ds.features.nbytes + ds.labels.nbytes}


def _trials(tracer, index, args, kwargs, result):
    return {"trials": result.trials}


# (module path, attribute, span name, hook). A class attribute is given
# as "module:Class". Every binding a caller uses is listed, so calls
# through the package, the CLI and the ensemble all land in spans.
TRACED = (
    ("dube.ensemble", "dube_fit", "ensemble.dube_fit", _members),
    ("dube.cli", "dube_fit", "ensemble.dube_fit", _members),
    ("dube.ensemble:EnsembleModel", "predict_proba_many", "ensemble.predict", None),
    ("dube.ensemble", "fit_learner", "learners.fit_learner", _first_member),
    ("dube.learners", "tree_fit", "learners.tree_fit", _tree_nodes),
    ("dube.learners", "knn_fit", "learners.knn_fit", None),
    ("dube.learners:TreeClassifier", "predict_proba_many", "learners.tree_predict", None),
    ("dube.learners:KnnClassifier", "predict_proba_many", "learners.knn_predict", _knn_evals),
    ("dube.ensemble", "resample_step", "balancing.resample_step", _rows_drawn),
    ("dube.ensemble", "class_covariance", "pbda.class_covariance", None),
    ("dube.ensemble", "perturb", "pbda.perturb", _factorising),
    ("dube.dataset", "load_csv", "dataset.load_csv", _csv_rows),
    ("dube.cli", "load_csv", "dataset.load_csv", _csv_rows),
    ("dube.dataset:Dataset", "__post_init__", "dataset.build", _bytes_copied),
    ("dube.dataset", "stratified_k_fold", "dataset.fold_split", None),
    ("dube.cli", "stratified_k_fold", "dataset.fold_split", None),
    ("dube.dataset:FoldPlan", "split", "dataset.fold_split", None),
    ("dube.metrics", "evaluate", "metrics.evaluate", None),
    ("dube.cli", "evaluate", "metrics.evaluate", None),
    ("dube.cli", "tune_alpha", "cli.tune_alpha", None),
    ("dube.cli", "run_cv_cell", "cli.cell", None),
    ("dube.cli:Report", "render", "cli.render", None),
    ("dube.cli", "run_bias_trials", "biaslab.run_bias_trials", _trials),
    ("dube.cli", "check_pbda_bound", "biaslab.check_pbda_bound", None),
    ("dube.rng", "stream", "rng.stream", None),
    ("dube.rng", "child_seed", "rng.child_seed", None),
)


def resolve(target: str):
    """The module or class named by ``module[:Class]``."""
    module_name, _, cls = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, cls) if cls else owner


def lookup(owner, attr):
    """The object stored under ``attr`` on ``owner`` itself, unbound."""
    return vars(owner)[attr]


class Tracer:
    """Records spans for every name in :data:`TRACED` while installed."""

    def __init__(self):
        self.spans = []
        self.first_seen = set()
        self.run_id = None
        self.hook_errors = 0
        self._stack = []
        self._patches = []

    def install(self):
        for target, attr, name, hook in TRACED:
            owner = resolve(target)
            original = lookup(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, original, name, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, 0.0, None]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    span[ATTRS] = hook(self, index, args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    self.hook_errors += 1
                span[HOOK_S] = perf_counter() - span[END]
            return result

        return wrapper

    def write(self, path: Path):
        """Write the spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "run", "hook_s", "attrs"), span))))
                fh.write("\n")


def summarize(spans, run_id):
    """Calls, self time, inclusive time and summed attrs per span name,
    over the spans of one run id; and calls per (name, parent name)."""
    self_s = {}
    child_s = defaultdict(float)
    for i, span in enumerate(spans):
        if span[RUN] != run_id:
            continue
        self_s[i] = span[END] - span[START]
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START] + span[HOOK_S]
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                   "attrs": defaultdict(int), "digests": set()})
    edges = defaultdict(int)
    for i, total in self_s.items():
        span = spans[i]
        entry = by_name[span[NAME]]
        entry["calls"] += 1
        entry["total_s"] += total
        entry["self_s"] += total - child_s[i]
        for key, value in (span[ATTRS] or {}).items():
            if key == "first_member":
                entry["digests"].add(value)
                entry["attrs"]["first_member"] += 1
            else:
                entry["attrs"][key] += value
        if span[PARENT] >= 0:
            edges[(span[NAME], spans[span[PARENT]][NAME])] += 1
    return by_name, edges


def _ratio(num, den):
    return num / den if den else 0.0


def _timed(key):
    """Times and rates end in ``_s``; counts and ratios do not."""
    return key.endswith("_s")


def layer_metrics(spans, run_id) -> dict:
    """The per-layer metrics of one run id, from its spans."""
    by_name, edges = summarize(spans, run_id)

    def get(name):
        return by_name.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                  "attrs": {}, "digests": set()})

    def attr(name, key):
        return get(name)["attrs"].get(key, 0)

    fit = get("learners.fit_learner")
    tree_s = get("learners.tree_fit")["self_s"]
    knn_s = get("learners.knn_predict")["self_s"]
    csv_s = get("dataset.load_csv")["self_s"]
    first = attr("learners.fit_learner", "first_member")
    return {
        "learners.tree_fit_s": tree_s,
        "learners.tree_fits": get("learners.tree_fit")["calls"],
        "learners.tree_nodes": attr("learners.tree_fit", "nodes"),
        "learners.tree_nodes_per_s": _ratio(attr("learners.tree_fit", "nodes"), tree_s),
        "learners.tree_predict_s": get("learners.tree_predict")["self_s"],
        "learners.first_member_fits": first,
        "learners.first_member_unique_ratio": _ratio(len(fit["digests"]), first),
        "learners.knn_predict_s": knn_s,
        "learners.knn_distance_evals": attr("learners.knn_predict", "evals"),
        "learners.knn_evals_per_s": _ratio(attr("learners.knn_predict", "evals"), knn_s),
        "ensemble.dube_fit_self_s": get("ensemble.dube_fit")["self_s"],
        "ensemble.members": attr("ensemble.dube_fit", "members"),
        "ensemble.predict_s": get("ensemble.predict")["self_s"],
        "balancing.resample_step_s": get("balancing.resample_step")["self_s"],
        "balancing.resample_calls": get("balancing.resample_step")["calls"],
        "balancing.rows_drawn": attr("balancing.resample_step", "rows"),
        "pbda.class_covariance_s": get("pbda.class_covariance")["self_s"],
        "pbda.perturb_s": get("pbda.perturb")["self_s"],
        "pbda.perturb_calls": get("pbda.perturb")["calls"],
        "pbda.factor_reuse_ratio": _ratio(get("pbda.class_covariance")["calls"],
                                          attr("pbda.perturb", "factorising")),
        "dataset.load_csv_s": csv_s,
        "dataset.rows_per_s": _ratio(attr("dataset.load_csv", "rows"), csv_s),
        "dataset.datasets_built": get("dataset.build")["calls"],
        "dataset.bytes_copied": attr("dataset.build", "bytes"),
        "dataset.fold_split_s": get("dataset.fold_split")["self_s"],
        "metrics.evaluate_s": get("metrics.evaluate")["self_s"],
        "metrics.evaluate_calls": get("metrics.evaluate")["calls"],
        "cli.tune_alpha_s": get("cli.tune_alpha")["total_s"],
        "cli.tune_fits": edges[("ensemble.dube_fit", "cli.tune_alpha")],
        "cli.cell_self_s": get("cli.cell")["self_s"],
        "cli.render_s": get("cli.render")["self_s"],
        "biaslab.run_bias_trials_s": get("biaslab.run_bias_trials")["self_s"],
        "biaslab.trials": attr("biaslab.run_bias_trials", "trials"),
        "biaslab.check_pbda_bound_s": get("biaslab.check_pbda_bound")["self_s"],
        "rng.streams": get("rng.stream")["calls"],
        "rng.stream_s": get("rng.stream")["self_s"],
        "rng.child_seeds": get("rng.child_seed")["calls"],
        "trace.spans": sum(1 for span in spans if span[RUN] == run_id),
    }


def combine(per_run: list) -> dict:
    """One value per metric over the traced rounds of a run.

    Times and rates take the median over the rounds. Counts and ratios
    are the first round's (variant 0), which is the same work for a
    given workload seed in every run; later variants use other library
    seeds, so their counts may differ.
    """
    out = {}
    for key in per_run[0]:
        values = [run[key] for run in per_run]
        out[key] = statistics.median(values) if _timed(key) else values[0]
    return out
