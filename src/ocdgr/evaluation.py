"""Partition functions (exact and AIS), test log-probabilities, and k-NN scoring."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
from scipy.special import logsumexp

from .errors import DimensionError, DomainError, EmptyBatchError, InfeasibleSizeError, ScheduleError
from .model import (BinaryBatch, RbmParameters, _bernoulli, _sigmoid, free_energy,
                    hidden_free_energy, softplus)

# Largest layer that exact enumeration will attempt (2^25 states).
EXACT_ENUM_LIMIT = 25
# States per enumeration block, as a power of two. A block of 4,096 states
# keeps each per-block array of a 100-unit layer at 3.3 MB, inside the cache.
_ENUM_BLOCK_BITS = 12


@dataclass
class AisSchedule:
    """Annealing path: inverse temperatures from 0 to 1 plus a chain count."""

    betas: np.ndarray
    n_chains: int

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 2:
            raise ScheduleError("schedule needs at least two betas")
        if betas[0] != 0.0 or betas[-1] != 1.0:
            raise ScheduleError("schedule must start at 0.0 and end at 1.0")
        if np.any(np.diff(betas) < 0):
            raise ScheduleError("betas must be nondecreasing")
        if self.n_chains < 1:
            raise ScheduleError("n_chains must be >= 1")
        self.betas = betas

    @classmethod
    def uniform(cls, n_betas: int, n_chains: int) -> "AisSchedule":
        return cls(np.linspace(0.0, 1.0, n_betas), n_chains)

    @classmethod
    def paper_preset(cls) -> "AisSchedule":
        """The classic three-segment ladder used in published RBM evaluations:
        500 betas on [0, 0.5), 4000 on [0.5, 0.9), 10000 on [0.9, 1.0], 100 chains."""
        betas = np.concatenate([
            np.linspace(0.0, 0.5, 500, endpoint=False),
            np.linspace(0.5, 0.9, 4000, endpoint=False),
            np.linspace(0.9, 1.0, 10001),
        ])
        return cls(betas, 100)


def _enum_states(width: int):
    """Yield blocks of all binary vectors of the given width."""
    block_bits = min(width, _ENUM_BLOCK_BITS)
    block = 1 << block_bits
    low = ((np.arange(block)[:, None] >> np.arange(block_bits)) & 1).astype(np.float64)
    for high in range(1 << (width - block_bits)):
        high_bits = ((high >> np.arange(width - block_bits)) & 1).astype(np.float64)
        states = np.empty((block, width))
        states[:, :block_bits] = low
        states[:, block_bits:] = high_bits
        yield states


def exact_log_z(params: RbmParameters) -> float:
    """log Z by enumerating the smaller layer; exact up to float rounding."""
    if min(params.n_v, params.n_h) > EXACT_ENUM_LIMIT:
        raise InfeasibleSizeError(
            f"exact log Z needs min(n_v, n_h) <= {EXACT_ENUM_LIMIT}, "
            f"got {params.n_v} x {params.n_h}; use AIS instead"
        )
    if params.n_v <= params.n_h:
        width, fe = params.n_v, lambda s: free_energy(params, s)
    else:
        width, fe = params.n_h, lambda s: hidden_free_energy(params, s)
    block_sums = [logsumexp(-fe(states)) for states in _enum_states(width)]
    return float(logsumexp(block_sums))


def ais_log_z(params: RbmParameters, schedule: AisSchedule, rng: np.random.Generator):
    """Annealed importance sampling estimate of log Z.

    The base model keeps the target's visible biases but has zero weights
    and hidden biases, so its partition function is available in closed
    form. Intermediate unnormalized distributions scale the weight and
    hidden-bias terms by beta; one Gibbs sweep is applied per beta step.
    Returns (estimate, std), with std from the delta method across chains.
    """
    a, b, w = params.visible_bias, params.hidden_bias, params.weights
    n = schedule.n_chains
    betas = schedule.betas
    log_z_base = params.n_h * np.log(2.0) + softplus(a).sum()

    v = _bernoulli(np.broadcast_to(_sigmoid(a.copy()), (n, params.n_v)), rng).astype(np.float64)
    log_w = np.zeros(n)
    prev_beta = betas[0]
    act = v @ w.T + b  # hidden pre-activations at the current v
    for i, beta in enumerate(betas[1:], start=1):
        # log p*_beta(v) - log p*_prev(v); the visible-bias term cancels
        log_w += softplus(beta * act).sum(axis=1) - softplus(prev_beta * act).sum(axis=1)
        if i < betas.size - 1:
            # one alternating Gibbs sweep at the current inverse temperature
            h = _bernoulli(_sigmoid(beta * act), rng)
            v = _bernoulli(_sigmoid(beta * (h @ w) + a), rng).astype(np.float64)
            act = v @ w.T + b
        prev_beta = beta

    log_mean_w = logsumexp(log_w) - np.log(n)
    estimate = float(log_z_base + log_mean_w)
    if n == 1:
        return estimate, float("inf")
    u = np.exp(log_w - log_mean_w)  # normalized weights, mean exactly 1
    std = float(u.std(ddof=1) / np.sqrt(n))
    return estimate, std


@dataclass
class EvaluationReport:
    """Log-probability summary of a test set under one model."""

    log_z: float
    log_z_std: float
    mean_log_prob: float
    per_class_mean: Dict[int, float]
    cross_class_std: float
    n_test: int
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "log_z": self.log_z,
            "log_z_std": self.log_z_std,
            "mean_log_prob": self.mean_log_prob,
            "per_class_mean": {str(k): v for k, v in self.per_class_mean.items()},
            "cross_class_std": self.cross_class_std,
            "n_test": self.n_test,
        }
        d.update(self.extra)
        return d

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)


def test_log_prob_report(params: RbmParameters, test: BinaryBatch, log_z: float,
                         log_z_std: float = 0.0) -> EvaluationReport:
    """Per-row log p(v) = -F(v) - log Z, averaged overall and per class.

    cross_class_std is the population standard deviation of the per-class
    means; it is NaN when the test set carries no labels.
    """
    if len(test) == 0:
        raise EmptyBatchError("test set is empty")
    log_probs = -free_energy(params, test.rows.astype(np.float64)) - log_z
    per_class: Dict[int, float] = {}
    if test.labels is not None:
        for c in np.unique(test.labels):
            per_class[int(c)] = float(log_probs[test.labels == c].mean())
    cross = float(np.std(list(per_class.values()))) if per_class else float("nan")
    return EvaluationReport(
        log_z=float(log_z),
        log_z_std=float(log_z_std),
        mean_log_prob=float(log_probs.mean()),
        per_class_mean=per_class,
        cross_class_std=cross,
        n_test=len(test),
    )


# Queries scored per distance block. A call holds a few (block x n_prototypes)
# arrays at a time, however many queries it scores.
_KNN_BLOCK_ROWS = 256
# float32 holds every integer up to 2^24 exactly; |q| + |p| reaches 2 * n_v.
_KNN_FLOAT32_MAX_WIDTH = 1 << 23


def knn_classify(prototypes: BinaryBatch, queries: BinaryBatch, k: int) -> np.ndarray:
    """Hamming-distance k-NN with majority vote.

    The k neighbors of a query are the k nearest prototypes, distance ties
    going to the lowest prototype index (the order of a stable sort). Vote
    ties go to the tied class with the smallest mean distance among its
    neighbors, then to the lowest class id.

    Costs one BLAS distance matmul per block of 256 queries, O(n_queries x
    n_prototypes x n_v) in all, with no per-query Python loop. Extra memory
    is a few 256 x n_prototypes arrays, whatever the number of queries: at
    1,000 prototypes of 100 bits, about 3 MB for k = 1 and 12 MB for k > 1.
    """
    if len(prototypes) == 0:
        raise EmptyBatchError("prototype set is empty")
    if prototypes.labels is None:
        raise DomainError("prototypes must be labeled")
    if not 1 <= k <= len(prototypes):
        raise DomainError(f"k must be in [1, {len(prototypes)}]")
    if queries.n_v != prototypes.n_v:
        raise DimensionError(
            f"queries have width {queries.n_v}, prototypes width {prototypes.n_v}"
        )
    dtype = np.float32 if prototypes.n_v <= _KNN_FLOAT32_MAX_WIDTH else np.float64
    protos = prototypes.rows.astype(dtype)
    proto_ones = protos.sum(axis=1)
    if k > 1:
        classes, proto_class = np.unique(prototypes.labels, return_inverse=True)
        one_hot = (proto_class[:, None] == np.arange(classes.size)).astype(np.float64)
    out = np.empty(len(queries), dtype=np.int64)
    for start in range(0, len(queries), _KNN_BLOCK_ROWS):
        q = queries.rows[start:start + _KNN_BLOCK_ROWS].astype(dtype)
        # |q xor p| = |q| + |p| - 2 q.p for binary vectors. Every product and
        # partial sum is an integer no larger than 2 * n_v, which dtype
        # represents exactly, so the distances are exact whatever BLAS's
        # summation order.
        dists = q @ protos.T
        dists *= -2
        dists += q.sum(axis=1)[:, None]
        dists += proto_ones
        block = slice(start, start + len(q))
        if k == 1:
            # argmin returns the first minimum: the lowest-index nearest prototype
            out[block] = prototypes.labels[dists.argmin(axis=1)]
            continue
        # a stable sort breaks distance ties by the lowest prototype index
        nearest = np.argsort(dists, axis=1, kind="stable")[:, :k]
        chosen = np.zeros(dists.shape, dtype=bool)
        np.put_along_axis(chosen, nearest, True, axis=1)
        # votes and per-class distance sums in one matmul; integers below 2^53, so exact
        stacked = np.empty((2 * len(q), dists.shape[1]))
        stacked[:len(q)] = chosen
        np.multiply(chosen, dists, out=stacked[len(q):])
        votes, dist_sums = np.split(stacked @ one_hot, 2)
        # tied classes share a vote count, so their sums order them as their means do
        best_sums = np.where(votes == votes.max(axis=1, keepdims=True), dist_sums, np.inf)
        out[block] = classes[best_sums.argmin(axis=1)]
    return out


def class_histogram(generated: BinaryBatch, prototypes: BinaryBatch, k: int) -> Dict[int, int]:
    """Counts of k-NN class assignments over a batch of generated samples."""
    if len(generated) == 0:
        raise EmptyBatchError("no generated samples to classify")
    labels = knn_classify(prototypes, generated, k)
    values, counts = np.unique(labels, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}
