"""Partition functions (exact and AIS), test log-probabilities, and k-NN scoring."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .errors import DimensionError, DomainError, EmptyBatchError, InfeasibleSizeError, ScheduleError
from .model import (BinaryBatch, RbmParameters, _bernoulli, _sigmoid, _softplus, free_energy,
                    softplus)

# Largest layer that exact enumeration will attempt (2^25 states).
EXACT_ENUM_LIMIT = 25
# Block size: the most states, a power of two, whose other-layer pre-activations fit 512 KiB,
# so that three such arrays stay in a 2 MiB L2 cache: 512 states at 100 wide, 64 at 784.
_ENUM_BLOCK_VALUES = 1 << 16


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
        if not np.all(np.diff(betas) >= 0):  # a NaN beta fails this test too
            raise ScheduleError("betas must be nondecreasing")
        if (isinstance(self.n_chains, bool) or not isinstance(self.n_chains, numbers.Integral)
                or self.n_chains < 1):
            raise ScheduleError(f"n_chains must be an integer >= 1, got {self.n_chains!r}")
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


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) of a 1-d float64 array, bit for bit scipy 1.17's logsumexp(a), whose
    steps it repeats: the m maxima are set to -inf where they stand (so numpy's pairwise sum
    blocks as scipy's does), s = sum(exp(a - max)) / m, and out = log1p(s) + log(m) + max."""
    top = a.max()
    if not np.isfinite(top):
        return top  # all -inf, or a +inf or NaN entry: scipy's -inf, inf or NaN
    is_top = a == top
    terms = a - top
    terms[is_top] = -np.inf
    m = np.count_nonzero(is_top)
    return np.log1p(np.exp(terms, out=terms).sum() / m) + np.log(m) + top


def exact_log_z(params: RbmParameters) -> float:
    """log Z by enumerating the smaller layer; exact up to float rounding."""
    if min(params.n_v, params.n_h) > EXACT_ENUM_LIMIT:
        raise InfeasibleSizeError(
            f"exact log Z needs min(n_v, n_h) <= {EXACT_ENUM_LIMIT}, "
            f"got {params.n_v} x {params.n_h}; estimate it with ais_log_z instead"
        )
    w, bias_enum, bias_other = params.weights, params.hidden_bias, params.visible_bias
    if params.n_v <= params.n_h:
        w, bias_enum, bias_other = w.T, bias_other, bias_enum
    width = bias_enum.size
    k = min(width, max(0, (_ENUM_BLOCK_VALUES // max(bias_other.size, 1)).bit_length() - 1))
    low = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.float64)
    # the enumerated units are the rows of w; a block adds one high-bit offset to this table
    table = low @ w[:k] + bias_other
    low_bias = low @ bias_enum[:k]
    act, tmp, terms = np.empty_like(table), np.empty_like(table), np.empty(1 << k)
    block_lse = np.empty(1 << (width - k))
    for high in range(block_lse.size):
        high_bits = ((high >> np.arange(width - k)) & 1).astype(np.float64)
        np.add(table, high_bits @ w[k:], out=act)
        _softplus(act, tmp).sum(axis=1, out=terms)
        terms += low_bias
        top = terms.max()
        terms -= top
        block_lse[high] = top + high_bits @ bias_enum[k:] + np.log(np.exp(terms, out=terms).sum())
    return float(_logsumexp(block_lse))


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

    v = _bernoulli(np.broadcast_to(_sigmoid(a.copy()), (n, params.n_v)), rng)
    log_w = np.zeros(n)
    prev_beta = betas[0]
    act = v @ w.T + b  # hidden pre-activations at the current v; matmul casts the uint8 v
    for i, beta in enumerate(betas[1:], start=1):
        x = beta * act
        # log p*_beta(v) - log p*_prev(v); the visible-bias term cancels
        log_w += softplus(x).sum(axis=1) - softplus(prev_beta * act).sum(axis=1)
        if i < betas.size - 1:
            # one alternating Gibbs sweep at the current inverse temperature
            h = _bernoulli(_sigmoid(x), rng)
            vis = h @ w
            v = _bernoulli(_sigmoid(np.add(np.multiply(vis, beta, out=vis), a, out=vis)), rng)
            act = v @ w.T + b
        prev_beta = beta

    log_mean_w = _logsumexp(log_w) - np.log(n)
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

    def to_dict(self) -> dict:
        return {
            "log_z": self.log_z,
            "log_z_std": self.log_z_std,
            "mean_log_prob": self.mean_log_prob,
            "per_class_mean": {str(k): v for k, v in self.per_class_mean.items()},
            "cross_class_std": self.cross_class_std,
            "n_test": self.n_test,
        }


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
