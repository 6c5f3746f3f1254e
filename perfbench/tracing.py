"""Span tracing of the ocdgr layers, done entirely from outside the package.

``Tracer.install()`` rebinds selected public functions (and a few methods)
of the library's modules to timing wrappers. Every module namespace that
holds a reference to an original function gets the wrapper, so calls made
from inside other layers are traced too. ``Tracer.uninstall()`` puts the
originals back. Each call records one span (name, parent, start, end) in
memory; counts are derived from argument shapes and repeat exactly.
"""

from __future__ import annotations

import csv
import functools
import inspect
import time
from collections import defaultdict

import numpy as np

import ocdgr
from ocdgr import config, data, evaluation, model, online, training

MODULES = (model, training, online, evaluation, data, config)

# (owner, attribute, span name). Owners are modules or classes.
TRACED = (
    (model, "visible_probs", "model.visible_probs"),
    (model, "hidden_probs", "model.hidden_probs"),
    (model, "sample_bernoulli", "model.sample_bernoulli"),
    (model, "free_energy", "model.free_energy"),
    (model, "hidden_free_energy", "model.hidden_free_energy"),
    (model, "init_params", "model.init_params"),
    (model, "gibbs_from_hidden", "model.gibbs_from_hidden"),
    (model.BinaryBatch, "__post_init__", "model.binary_batch"),
    (model.RbmParameters, "__post_init__", "model.rbm_parameters"),
    (training, "positive_statistics", "training.positive_statistics"),
    (training, "cd_negative_phase", "training.cd_negative_phase"),
    (training, "apply_update", "training.apply_update"),
    (training, "cd_update_epochs", "training.cd_update_epochs"),
    (training, "train_offline", "training.train_offline"),
    (online, "generate_replay", "online.generate_replay"),
    (online, "ocdgr_update_procedure", "online.update_procedure"),
    (online, "er_update_procedure", "online.update_procedure"),
    (online.ReplayMemory, "sample", "online.memory_sample"),
    (online.ReplayMemory, "insert_batch", "online.memory_insert"),
    (online, "stream_train", "online.stream_train"),
    (evaluation, "ais_log_z", "evaluation.ais_log_z"),
    (evaluation, "exact_log_z", "evaluation.exact_log_z"),
    (evaluation, "knn_classify", "evaluation.knn_classify"),
    (evaluation, "class_histogram", "evaluation.class_histogram"),
    (evaluation, "test_log_prob_report", "evaluation.test_log_prob_report"),
    (data, "load_binary_text", "data.load_binary_text"),
    (data, "load_idx", "data.load_idx"),
    (data, "binarize", "data.binarize"),
    (data, "order_stream", "data.order_stream"),
    (config, "load_dataset", "config.load_dataset"),
)


def _cd_flop(a: dict, matmuls: int) -> float:
    return 2.0 * matmuls * len(a["batch"]) * a["params"].n_v * a["params"].n_h


# Work counts of one call, from its bound arguments and its result's shape.
COUNTERS = {
    "model.sample_bernoulli": lambda a, r: {"draws": int(np.size(a["probs"]))},
    # hidden_probs (v W') and the weight statistic (h' v)
    "training.positive_statistics": lambda a, r: {"cd_flop": _cd_flop(a, 2)},
    # two conditionals per Gibbs step plus the weight statistic
    "training.cd_negative_phase": lambda a, r: {"cd_flop": _cd_flop(a, 2 * a["n_cd"] + 1)},
    "online.generate_replay": lambda a, r: {"rows": int(a["n_samples"])},
    "evaluation.ais_log_z": lambda a, r: {
        "chain_steps": int(a["schedule"].n_chains * (a["schedule"].betas.size - 1))},
    "evaluation.exact_log_z": lambda a, r: {"states": 1 << min(a["params"].n_v, a["params"].n_h)},
    "evaluation.knn_classify": lambda a, r: {"queries": len(a["queries"])},
    "data.load_binary_text": lambda a, r: {"rows": len(r)},
    "data.load_idx": lambda a, r: {"rows": len(r[0])},
}


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: name id, parent span index (-1 for none), start, end
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, stack[-1] if stack else -1, clock(), 0.0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            counts[name + ".calls"] += 1
            if counter:
                bound = signature.bind(*args, **kwargs).arguments
                for key, value in counter(bound, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [vars(m) for m in MODULES] + [vars(ocdgr)]
        for owner, attr, name in TRACED:
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._saved.append((ns, key, original))
                        ns[key] = wrapper

    def uninstall(self) -> None:
        for target, key, original in reversed(self._saved):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: span time minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name_id, _, t0, t1) in enumerate(self.spans):
            out[self.names[name_id]] += (t1 - t0) - child[i]
        return dict(out)

    def inclusive_times(self) -> dict[str, float]:
        """Seconds per span name, counting only outermost spans of that name."""
        out: dict[str, float] = defaultdict(float)
        for name_id, parent, t0, t1 in self.spans:
            if parent < 0 or self.spans[parent][0] != name_id:
                out[self.names[name_id]] += t1 - t0
        return dict(out)

    def write_csv(self, path) -> None:
        """Write every span as one CSV row: index, parent, name, start, end."""
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["span", "parent", "name", "start_s", "end_s"])
            for i, (name_id, parent, t0, t1) in enumerate(self.spans):
                w.writerow([i, parent, self.names[name_id], repr(t0), repr(t1)])
