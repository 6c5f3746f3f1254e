"""The three benchmark workloads and their checks.

Started by run.py in a fresh process with BLAS pinned to one thread. A run
sets up its inputs several times (``setup_s`` is the median), then repeats
whole rounds of identical operations on those inputs for the requested
number of seconds and reports medians over rounds. The first round's
outputs are checked against the reference computations in reference.py;
every later round must reproduce the first round's outputs bit for bit.
With ``--trace 1`` the rounds alternate untraced and traced, and the
per-layer figures come from the traced ones.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import struct
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import ocdgr as og
import reference as ref
from tracing import Tracer

TRAINERS = ("ocdgr", "er_ml", "er_im")
SETUP_REPEATS = 7
OUT_DIR = Path(__file__).resolve().parent / "out"


# ---------------------------------------------------------------------------
# input generation (all from the workload seed; nothing read from outside)


def _rng(seed: int, role: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, role]))


def block_rows(n_per_class: int, g: np.random.Generator, n_classes=10, block=10, p=0.3):
    """Toy-dimension rows: class c (1-based) sets bits of its own block with probability p."""
    labels = np.repeat(np.arange(1, n_classes + 1), n_per_class)
    rows = np.zeros((labels.size, n_classes * block), dtype=np.uint8)
    for c in range(n_classes):
        sl = slice(c * n_per_class, (c + 1) * n_per_class)
        rows[sl, c * block:(c + 1) * block] = g.random((n_per_class, block)) < p
    return rows, labels


def digit_like_rows(n_rows: int, g: np.random.Generator, n_v=784, n_classes=10):
    """784-d stand-in for binarized digits: fixed class templates of 120
    'stroke' pixels at 0.9 over a 0.02 background (~14% active bits)."""
    template_g = np.random.default_rng(12345)  # templates shared by every seed
    templates = np.full((n_classes, n_v), 0.02)
    for c in range(n_classes):
        templates[c, template_g.choice(n_v, size=120, replace=False)] = 0.9
    labels = g.integers(0, n_classes, size=n_rows)
    rows = (g.random((n_rows, n_v)) < templates[labels]).astype(np.uint8)
    return rows, labels


def write_binary_text(path: Path, rows: np.ndarray) -> None:
    """Rows as space-separated 0/1 tokens, one row per line."""
    n, width = rows.shape
    chars = np.full((n, 2 * width), ord(" "), dtype=np.uint8)
    chars[:, 0::2] = rows + ord("0")
    chars[:, -1] = ord("\n")
    path.write_bytes(chars.tobytes())


def write_labels(path: Path, labels: np.ndarray) -> None:
    path.write_text("".join(f"{int(c)}\n" for c in labels))


def write_idx(images_path: Path, labels_path: Path, rows: np.ndarray, labels: np.ndarray) -> None:
    """IDX image/label pair with 0/255 pixels, so threshold binarization restores the rows."""
    n = rows.shape[0]
    side = int(round(rows.shape[1] ** 0.5))
    images_path.write_bytes(struct.pack(">iiii", 0x803, n, side, side)
                            + (rows * 255).astype(np.uint8).tobytes())
    labels_path.write_bytes(struct.pack(">ii", 0x801, n) + labels.astype(np.uint8).tobytes())


def prototypes_per_class(rows, labels, per_class: int, g: np.random.Generator) -> og.BinaryBatch:
    idx = np.concatenate([g.choice(np.flatnonzero(labels == c), size=per_class, replace=False)
                          for c in np.unique(labels)])
    return og.BinaryBatch(rows[idx], labels[idx])


# ---------------------------------------------------------------------------
# helpers shared by the workloads


def params_digest(p: og.RbmParameters) -> str:
    h = hashlib.sha256()
    for arr in (p.weights, p.visible_bias, p.hidden_bias):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


class Checks:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0

    def __call__(self, ok, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)

    def close(self, got: float, want: float, rel: float, what: str) -> None:
        ok = np.isfinite(got) and abs(got - want) <= rel * max(abs(want), 1e-300)
        self(ok, f"{what}: {got!r} vs reference {want!r}")


@dataclass
class Round:
    """Timings and outputs of one round."""

    wall_s: float = 0.0
    load_s: float = 0.0
    train_s: dict = field(default_factory=dict)
    ais_s: float = 0.0
    eval_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    aborted: bool = False  # an operation raised; the rest of the round did not run
    outputs: dict = field(default_factory=dict)  # kept for the checks of round 1
    fingerprint: dict = field(default_factory=dict)  # must repeat in every round


class OpCounter:
    """Counts one round's operations; an OcdgrError ends the round."""

    def __init__(self, rnd: Round, total: int):
        self.rnd, self.total = rnd, total
        rnd.attempted = total

    def done(self, ok: bool = True) -> None:
        self.rnd.failed += 0 if ok else 1
        self.total -= 1

    def abort(self) -> None:
        self.rnd.failed += self.total  # the failed op and every op after it


def check_trained(checks: Checks, kind: str, model, hyper: og.Hyperparameters, n_rows: int,
                  every: int):
    """Final parameters are finite; snapshots follow the live-state arithmetic."""
    params, snaps = model
    checks(all(np.isfinite(a).all() for a in (params.weights, params.visible_bias,
                                              params.hidden_bias)), f"{kind}: parameters not finite")
    n_v, n_h = hyper.n_v, hyper.n_h
    param_scalars = n_v * n_h + n_v + n_h
    cap = og.er_ml_capacity(n_v, n_h)
    counts = [s.observed_count for s in snaps]
    checks(counts == list(range(every, n_rows + 1, every)), f"{kind}: snapshot counts {counts[:3]}...")
    for s in snaps:
        held = {"ocdgr": 0, "er_im": s.observed_count, "er_ml": min(s.observed_count, cap)}[kind]
        checks(s.memory_rows == held and s.live_scalar_count == 2 * param_scalars + held * n_v,
               f"{kind}: at {s.observed_count} rows memory holds {s.memory_rows} rows, "
               f"live scalars {s.live_scalar_count}; expected {held} rows")


def check_report(checks: Checks, what: str, params, test: og.BinaryBatch, log_z: float, report):
    per_row = -ref.free_energy(params.weights, params.visible_bias, params.hidden_bias,
                               test.rows) - log_z
    checks.close(report.mean_log_prob, float(per_row.mean()), 1e-9, f"{what}: mean log p(v)")
    for c, got in report.per_class_mean.items():
        checks.close(got, float(per_row[test.labels == c].mean()), 1e-9,
                     f"{what}: class {c} mean log p(v)")
    uniform = -test.n_v * np.log(2.0)
    checks(report.mean_log_prob > uniform,
           f"{what}: mean log p(v) {report.mean_log_prob:.2f} not above uniform {uniform:.2f}")


def check_ais_lower_bound(checks: Checks, what: str, params, train_rows, est: float, std: float):
    """Any subset of states bounds log Z below: here the distinct training rows."""
    distinct = np.unique(train_rows, axis=0)
    bound = ref.logsumexp(-ref.free_energy(params.weights, params.visible_bias,
                                           params.hidden_bias, distinct))
    checks(np.isfinite(est) and np.isfinite(std) and std >= 0, f"{what}: AIS {est}, std {std}")
    checks(est >= bound - 3 * std, f"{what}: AIS log Z {est:.4f} below subset bound {bound:.4f}")


def check_histogram(checks: Checks, what: str, gen: og.BinaryBatch, prototypes, hist, n: int):
    classes = set(np.unique(prototypes.labels).tolist())
    checks(gen.rows.shape == (n, prototypes.n_v) and np.isin(gen.rows, (0, 1)).all(),
           f"{what}: generated batch shape {gen.rows.shape} or values not 0/1")
    checks(set(hist) <= classes and sum(hist.values()) == n,
           f"{what}: histogram {hist} does not sum to {n} over the classes")
    want = prototypes.labels[ref.nearest_prototype(gen.rows, prototypes.rows)]
    got = og.knn_classify(prototypes, gen, 1)
    checks(np.array_equal(got, want), f"{what}: 1-NN labels differ from XOR counting "
                                      f"on {int((got != want).sum())} rows")


def check_loaded(checks: Checks, what: str, batch: og.BinaryBatch, rows, labels):
    checks(np.array_equal(batch.rows, rows) and np.array_equal(batch.labels, labels),
           f"{what}: loaded rows or labels differ from the written ones")


def warm_up(hyper: og.Hyperparameters, rows: np.ndarray, trainers) -> None:
    """One small call along each timed path, so that lazy set-up is paid here."""
    g = np.random.default_rng(0)
    small = og.BinaryBatch(rows[:2 * hyper.batch_size], np.zeros(2 * hyper.batch_size, int))
    for kind in trainers:
        params, _ = og.stream_train(kind, small, hyper, hyper.batch_size, g)
    est, _ = og.ais_log_z(params, og.AisSchedule.uniform(10, 10), g)
    og.class_histogram(og.generate_replay(params, 10, 1, g), small, 1)
    og.test_log_prob_report(params, small, est)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    trainers = TRAINERS
    ops_per_round = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        rnd = Round()
        ops = OpCounter(rnd, self.ops_per_round)
        t0 = time.perf_counter()
        try:
            self._round(rnd, ops)
        except og.OcdgrError:
            traceback.print_exc(file=sys.stderr)
            ops.abort()
            rnd.aborted = True
        rnd.wall_s = time.perf_counter() - t0
        return rnd

    def _load(self, rnd: Round, ops: OpCounter, spec: dict) -> og.BinaryBatch:
        t = time.perf_counter()
        batch = og.load_dataset(spec, self.seed, "train")
        rnd.load_s += time.perf_counter() - t
        ops.done()
        return batch

    def _train(self, rnd: Round, ops: OpCounter, stream, every: int, rng_for) -> dict:
        models = {}
        for kind in self.trainers:
            t = time.perf_counter()
            models[kind] = og.stream_train(kind, stream, self.hyper, every, rng_for(kind))
            rnd.train_s[kind] = time.perf_counter() - t
            ops.done()
        rnd.fingerprint["digests"] = {k: params_digest(p) for k, (p, _) in models.items()}
        return models

    def _ais(self, rnd: Round, ops: OpCounter, params, schedule, g):
        t = time.perf_counter()
        est, std = og.ais_log_z(params, schedule, g)
        rnd.ais_s += time.perf_counter() - t
        ops.done()
        return est, std


class ToyIncremental(Workload):
    """Class-incremental toy stream (criterion 5's scenario, seed 0)."""

    name = "toy_incremental"
    ops_per_round = 1 + 3 + 10 + 1  # load, trainers, retention stages, AIS
    # The retention scenario is fixed at criterion 5's seed 0, so the number
    # of stages it fails is the same in every run. The workload seed drives
    # the ER trainers, the AIS chains and the held-out test rows.
    SCENARIO_SEED = 0

    def setup(self):
        data = og.toy_generate(1000, rng=og.derive_rng(self.SCENARIO_SEED, "toy-data"))
        self.rows, self.labels = data.rows, data.labels
        write_binary_text(self.workdir / "toy.txt", self.rows)
        write_labels(self.workdir / "toy.labels", self.labels)
        self.spec = {"kind": "text", "path": str(self.workdir / "toy.txt"),
                     "labels_path": str(self.workdir / "toy.labels")}
        self.test = og.BinaryBatch(*block_rows(100, _rng(self.seed, 1)))
        self.hyper = og.Hyperparameters(n_v=100, n_h=50)
        warm_up(self.hyper, self.rows, self.trainers)

    def _round(self, rnd, ops):
        s = self.SCENARIO_SEED
        data = self._load(rnd, ops, self.spec)
        stream = og.order_stream(data, og.StreamOrder("sorted_by_class"))
        models = self._train(rnd, ops, stream, 1000,
                             lambda k: og.derive_rng(s, "toy-train") if k == "ocdgr"
                             else og.derive_rng(self.seed, f"toy-train-{k}"))
        t = time.perf_counter()
        proto_rng = og.derive_rng(s, "toy-prototypes")
        proto_idx = np.concatenate([
            proto_rng.choice(np.where(data.labels == c)[0], size=100, replace=False)
            for c in range(1, 11)])
        prototypes = data.take(proto_idx)
        stages = []
        for stage, snap in enumerate(models["ocdgr"][1], start=1):
            gen = og.generate_replay(snap.params, 1000, self.hyper.n_gibbs,
                                     og.derive_rng(s, f"toy-gen-{stage}"))
            hist = og.class_histogram(gen, prototypes, k=1)
            # criterion 5's gate: observed classes >= 5%, unobserved <= 2% of 1,000
            ok = (all(hist.get(c, 0) >= 50 for c in range(1, stage + 1))
                  and all(hist.get(c, 0) <= 20 for c in range(stage + 1, 11)))
            ops.done(ok)
            stages.append((gen, hist, ok))
        params = models["ocdgr"][0]
        est, std = self._ais(rnd, ops, params, og.AisSchedule.uniform(1000, 100),
                             og.derive_rng(self.seed, "toy-ais"))
        report = og.test_log_prob_report(params, self.test, est, std)
        rnd.eval_s = time.perf_counter() - t
        rnd.fingerprint.update(
            log_z=[repr(est), repr(std)], report=repr(report.mean_log_prob),
            histograms=[sorted(h.items()) for _, h, _ in stages])
        rnd.outputs = dict(data=data, models=models, prototypes=prototypes, stages=stages,
                           ais=(est, std), report=report)

    def check(self, rnd, checks):
        o = rnd.outputs
        check_loaded(checks, "toy", o["data"], self.rows, self.labels)
        for kind, model in o["models"].items():
            check_trained(checks, kind, model, self.hyper, len(self.rows), 1000)
        for stage, (gen, hist, _) in enumerate(o["stages"], start=1):
            check_histogram(checks, f"stage {stage}", gen, o["prototypes"], hist, 1000)
        params = o["models"]["ocdgr"][0]
        check_ais_lower_bound(checks, "ocdgr", params, self.rows, *o["ais"])
        check_report(checks, "ocdgr", params, self.test, o["ais"][0], o["report"])


class ImageSorted(Workload):
    """784-d digit-like stream sorted by class, n_h=25, all three trainers."""

    name = "image_sorted"
    ops_per_round = 1 + 3 + 3  # load, trainers, AIS per model

    def setup(self):
        rows, labels = digit_like_rows(5000, _rng(self.seed, 2))
        order = np.argsort(labels, kind="stable")
        self.rows, self.labels = rows[order], labels[order]
        test_rows, test_labels = digit_like_rows(1000, _rng(self.seed, 3))
        self.test = og.BinaryBatch(test_rows, test_labels)
        images, idx_labels = self.workdir / "train-images", self.workdir / "train-labels"
        write_idx(images, idx_labels, self.rows, self.labels)
        self.spec = {"kind": "idx", "images": str(images), "labels": str(idx_labels),
                     "binarize": "threshold"}
        self.prototypes = prototypes_per_class(self.rows, self.labels, 20, _rng(self.seed, 4))
        self.hyper = og.Hyperparameters(n_v=784, n_h=25)
        warm_up(self.hyper, self.rows, self.trainers)

    def _round(self, rnd, ops):
        data = self._load(rnd, ops, self.spec)
        stream = og.order_stream(data, og.StreamOrder("sorted_by_class"))
        models = self._train(rnd, ops, stream, 100,
                             lambda k: og.derive_rng(self.seed, f"image-train-{k}"))
        t = time.perf_counter()
        results = {}
        for kind, (params, _) in models.items():
            est, std = self._ais(rnd, ops, params, og.AisSchedule.uniform(1000, 50),
                                 og.derive_rng(self.seed, f"image-ais-{kind}"))
            results[kind] = (est, std, og.test_log_prob_report(params, self.test, est, std))
        gen = og.generate_replay(models["ocdgr"][0], 1000, self.hyper.n_gibbs,
                                 og.derive_rng(self.seed, "image-gen"))
        hist = og.class_histogram(gen, self.prototypes, k=1)
        rnd.eval_s = time.perf_counter() - t
        rnd.fingerprint.update(
            log_z={k: [repr(e), repr(s), repr(r.mean_log_prob)] for k, (e, s, r) in results.items()},
            histogram=sorted(hist.items()))
        rnd.outputs = dict(data=data, models=models, results=results, gen=gen, hist=hist)

    def check(self, rnd, checks):
        o = rnd.outputs
        check_loaded(checks, "image", o["data"], self.rows, self.labels)
        checks(og.er_ml_capacity(784, 25) == 26, "er_ml capacity at 784x25 is not 26")
        for kind, model in o["models"].items():
            check_trained(checks, kind, model, self.hyper, len(self.rows), 100)
            params = model[0]
            est, std, report = o["results"][kind]
            check_ais_lower_bound(checks, kind, params, self.rows, est, std)
            check_report(checks, kind, params, self.test, est, report)
        check_histogram(checks, "ocdgr samples", o["gen"], self.prototypes, o["hist"], 1000)


class TextErLong(Workload):
    """40,000 toy-dimension rows in random order, read from a 0/1 text file."""

    name = "text_er_long"
    trainers = ("er_ml", "er_im")
    ops_per_round = 1 + 2 + 1 + 1  # load, trainers, exact log Z, AIS

    def setup(self):
        rows, labels = block_rows(4000, _rng(self.seed, 5))
        order = _rng(self.seed, 6).permutation(len(rows))
        self.rows, self.labels = rows[order], labels[order]
        write_binary_text(self.workdir / "rows.txt", self.rows)
        write_labels(self.workdir / "rows.labels", self.labels)
        self.spec = {"kind": "text", "path": str(self.workdir / "rows.txt"),
                     "labels_path": str(self.workdir / "rows.labels")}
        self.test = og.BinaryBatch(*block_rows(100, _rng(self.seed, 7)))
        self.prototypes = prototypes_per_class(self.rows, self.labels, 100, _rng(self.seed, 8))
        self.hyper = og.Hyperparameters(n_v=100, n_h=20)
        warm_up(self.hyper, self.rows, self.trainers)

    def _round(self, rnd, ops):
        data = self._load(rnd, ops, self.spec)
        models = self._train(rnd, ops, data, 1000,
                             lambda k: og.derive_rng(self.seed, f"text-train-{k}"))
        t = time.perf_counter()
        params = models["er_im"][0]
        exact = og.exact_log_z(params)
        ops.done()
        est, std = self._ais(rnd, ops, params, og.AisSchedule.uniform(1000, 100),
                             og.derive_rng(self.seed, "text-ais"))
        report = og.test_log_prob_report(params, self.test, exact)
        gen = og.generate_replay(params, 1000, self.hyper.n_gibbs,
                                 og.derive_rng(self.seed, "text-gen"))
        hist = og.class_histogram(gen, self.prototypes, k=1)
        rnd.eval_s = time.perf_counter() - t
        rnd.fingerprint.update(log_z=[repr(exact), repr(est), repr(std)],
                               report=repr(report.mean_log_prob), histogram=sorted(hist.items()))
        rnd.outputs = dict(data=data, models=models, exact=exact, ais=(est, std), report=report,
                           gen=gen, hist=hist)

    def check(self, rnd, checks):
        o = rnd.outputs
        check_loaded(checks, "text", o["data"], self.rows, self.labels)
        checks(og.er_ml_capacity(100, 20) == 21, "er_ml capacity at 100x20 is not 21")
        for kind, model in o["models"].items():
            check_trained(checks, kind, model, self.hyper, len(self.rows), 1000)
        params = o["models"]["er_im"][0]
        want = ref.log_z_by_hidden_enumeration(params.weights, params.visible_bias,
                                               params.hidden_bias)
        checks.close(o["exact"], want, 1e-9, "er_im: exact log Z")
        est, std = o["ais"]
        # criterion 2's tolerance
        checks(abs(est - o["exact"]) <= max(0.05, 3 * std),
               f"er_im: AIS {est:.4f} +- {std:.4f} vs exact {o['exact']:.4f}")
        check_report(checks, "er_im", params, self.test, o["exact"], o["report"])
        check_histogram(checks, "er_im samples", o["gen"], self.prototypes, o["hist"], 1000)


WORKLOADS = {w.name: w for w in (ToyIncremental, ImageSorted, TextErLong)}


# ---------------------------------------------------------------------------
# metrics


def end_to_end(setup_times, rounds, n_rows) -> dict:
    med = statistics.median
    return {
        "setup_s": med(setup_times),
        "train_rows_per_s": med(n_rows * len(r.train_s) / sum(r.train_s.values())
                                for r in rounds),
        "eval_s": med(r.eval_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


SELF_TIMES = {  # per-layer metric -> span names whose self time it sums
    "model.visible_probs.self_s": ("model.visible_probs",),
    "model.hidden_probs.self_s": ("model.hidden_probs",),
    "model.sample_bernoulli.self_s": ("model.sample_bernoulli",),
    "model.binary_batch.self_s": ("model.binary_batch",),
    "model.rbm_parameters.self_s": ("model.rbm_parameters",),
    "model.free_energy.self_s": ("model.free_energy", "model.hidden_free_energy"),
    "training.positive_statistics.self_s": ("training.positive_statistics",),
    "training.cd_negative_phase.self_s": ("training.cd_negative_phase",),
    "training.apply_update.self_s": ("training.apply_update",),
    "training.cd_update_epochs.self_s": ("training.cd_update_epochs",),
    "online.generate_replay.self_s": ("online.generate_replay",),
    "online.update_procedure.self_s": ("online.update_procedure",),
    "online.memory_sample.self_s": ("online.memory_sample",),
    "online.memory_insert.self_s": ("online.memory_insert",),
    "online.stream_train.self_s": ("online.stream_train",),
    "evaluation.ais_log_z.self_s": ("evaluation.ais_log_z",),
    "evaluation.log_z.self_s": ("evaluation.ais_log_z", "evaluation.exact_log_z"),
    "evaluation.knn_classify.self_s": ("evaluation.knn_classify",),
    "evaluation.test_log_prob_report.self_s": ("evaluation.test_log_prob_report",),
    "data.self_s": ("data.load_binary_text", "data.load_idx", "data.binarize",
                    "data.order_stream"),
    "config.load_dataset.self_s": ("config.load_dataset",),
}

COUNTS = {  # per-layer metric -> counters it sums
    "model.visible_probs.calls": ("model.visible_probs.calls",),
    "model.hidden_probs.calls": ("model.hidden_probs.calls",),
    "model.sample_bernoulli.draws": ("model.sample_bernoulli.draws",),
    "model.binary_batch.calls": ("model.binary_batch.calls",),
    "model.rbm_parameters.calls": ("model.rbm_parameters.calls",),
    "training.cd_update_epochs.calls": ("training.cd_update_epochs.calls",),
    "online.generate_replay.rows": ("online.generate_replay.rows",),
    "online.memory_sample.calls": ("online.memory_sample.calls",),
    "evaluation.ais_chain_steps": ("evaluation.ais_log_z.chain_steps",),
    "evaluation.exact_states": ("evaluation.exact_log_z.states",),
    "evaluation.knn_queries": ("evaluation.knn_classify.queries",),
    "data.rows": ("data.load_binary_text.rows", "data.load_idx.rows"),
}


def traced_figures(tracer: Tracer) -> tuple[dict, dict]:
    """(times, counts) of one traced round."""
    self_s, incl = tracer.self_times(), tracer.inclusive_times()
    c = tracer.counts
    times = {k: sum(self_s.get(n, 0.0) for n in names) for k, names in SELF_TIMES.items()}
    counts = {k: sum(c.get(n, 0) for n in names) for k, names in COUNTS.items()}
    flop = c.get("training.positive_statistics.cd_flop", 0) + c.get("training.cd_negative_phase.cd_flop", 0)
    counts["training.cd_gflop"] = flop / 1e9
    cd_s = incl.get("training.positive_statistics", 0) + incl.get("training.cd_negative_phase", 0)
    times["training.cd_gflop_per_s"] = flop / 1e9 / cd_s
    times["evaluation.ais_chain_steps_per_s"] = (
        c.get("evaluation.ais_log_z.chain_steps", 0) / incl["evaluation.ais_log_z"])
    return times, counts


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json at the repository root declares them."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


# ---------------------------------------------------------------------------
# environment record


def blas_threads():
    """Threads the OpenBLAS bundled with numpy will use, asked of the library itself."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))  # already loaded by numpy; this returns the same handle
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy: no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True), flush=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{workload_name}-") as tmp:
        w = WORKLOADS[workload_name](seed, Path(tmp))
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            w.setup()
            setup_times.append(time.perf_counter() - t)

        checks = Checks()
        plain, traced, tracers = [], [], []
        measured = 0.0  # seconds spent in rounds; checks are not counted
        first = None
        while True:
            use_trace = trace and len(plain) > len(traced)
            if use_trace:
                tracer = Tracer()
                with tracer:
                    rnd = w.run_round()
                traced.append(rnd)
                tracers.append(tracer)
            else:
                rnd = w.run_round()
                plain.append(rnd)
            if rnd.aborted:
                pass  # counted in `failed`; its outputs are incomplete
            elif first is None:
                w.check(rnd, checks)
                first = rnd
            else:
                checks(rnd.fingerprint == first.fingerprint,
                       f"round {len(plain) + len(traced)} outputs differ from the first")
            rnd.outputs = {}
            measured += rnd.wall_s
            need_traced = trace and not traced
            if not need_traced and measured + rnd.wall_s > seconds:
                break

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env,
        "digests": {f"{workload_name}/seed{seed}/{k}": v
                    for k, v in (first.fingerprint["digests"] if first else {}).items()},
        "fingerprint": first.fingerprint if first else None,
        "checks_passed": checks.passed, "check_failures": checks.failures,
        "setup_s": setup_times,
        "rounds": [{"traced": r in traced, "wall_s": r.wall_s, "load_s": r.load_s,
                    "train_s": r.train_s, "ais_s": r.ais_s, "eval_s": r.eval_s,
                    "attempted": r.attempted, "failed": r.failed} for r in rounds],
    }
    if trace:
        per_round = [traced_figures(t) for t in tracers]
        counts = per_round[0][1]
        checks(all(c == counts for _, c in per_round),
               "traced rounds disagree on their counts")
        metrics = {k: statistics.median(t[k] for t, _ in per_round) for k in per_round[0][0]}
        metrics.update(counts)
        metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                       - statistics.median(r.wall_s for r in plain))
        span_file = OUT_DIR / f"{workload_name}-seed{seed}.spans.csv"
        tracers[-1].write_csv(span_file)
        record["spans_file"] = span_file.name
        record["self_s_by_span"] = tracers[-1].self_times()
        record["counts_by_span"] = dict(tracers[-1].counts)
    else:
        metrics = end_to_end(setup_times, plain, len(w.rows))
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    record["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    record["check_failures"] = checks.failures
    (OUT_DIR / f"{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))
    print("digests " + json.dumps(record["digests"], sort_keys=True))
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return {"correct": not checks.failures, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run one benchmark workload (see run.py)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
