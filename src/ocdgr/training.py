"""CD-k statistics collection and the momentum/weight-decay parameter update.

The same positive/negative phase and update step are shared by the offline
trainer and all online trainers; only the composition of the training batch
differs between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyBatchError
from .model import (
    BinaryBatch,
    Hyperparameters,
    RbmParameters,
    _check_unit_interval,
    _check_units,
    _gibbs,
    _hidden_probs,
    sample_bernoulli,
)


@dataclass
class GradientStatistics:
    """Summed sufficient statistics over a batch.

    weight_stat is n_h x n_v (sum over rows of h_j * v_i), visible_stat the
    column sums of the visible states, hidden_stat the column sums of the
    hidden activations. Sums, not means: the caller divides by the row count.
    """

    weight_stat: np.ndarray
    visible_stat: np.ndarray
    hidden_stat: np.ndarray


@dataclass
class UpdateState:
    """Momentum buffer (one delta per parameter array) carried across updates."""

    delta_weights: np.ndarray
    delta_visible: np.ndarray
    delta_hidden: np.ndarray
    epoch_index: int = 0

    @classmethod
    def zeros(cls, n_v: int, n_h: int) -> "UpdateState":
        return cls(np.zeros((n_h, n_v)), np.zeros(n_v), np.zeros(n_h))

    def copy(self) -> "UpdateState":
        return UpdateState(
            self.delta_weights.copy(),
            self.delta_visible.copy(),
            self.delta_hidden.copy(),
            self.epoch_index,
        )


def positive_statistics(params: RbmParameters, batch: BinaryBatch):
    """Data-side statistics: hidden activations are probabilities, not samples.

    Returns (stats, H) where H is the matrix of hidden probabilities, one
    row per batch row, so the caller can seed the negative chain from it.
    """
    if len(batch) == 0:
        raise EmptyBatchError("positive phase needs a non-empty batch")
    v = _check_units(params, batch.rows, params.n_v, "v")
    _check_unit_interval(batch.rows, "v")  # on the uint8 rows: no float pass
    h = _hidden_probs(params, v)
    stats = GradientStatistics(h.T @ v, v.sum(axis=0), h.sum(axis=0))
    return stats, h


def cd_negative_phase(params: RbmParameters, batch: BinaryBatch, h0_probs: np.ndarray,
                      n_cd: int, rng: np.random.Generator):
    """Model-side statistics from an n_cd-step Gibbs chain started at the data.

    The chain states are sampled binary; the final statistics pair the
    sampled visible state with the hidden *probabilities* at that state.
    Returns (stats, final visible batch).
    """
    if n_cd < 1:
        raise DomainError("n_cd must be >= 1")
    h0 = sample_bernoulli(h0_probs, rng)
    _check_units(params, h0, params.n_h, "h")
    v, hp, _ = _gibbs(params, h0, n_cd, rng)
    vf = v.astype(np.float64)
    stats = GradientStatistics(hp.T @ vf, vf.sum(axis=0), hp.sum(axis=0))
    return stats, BinaryBatch(v)


def effective_momentum(epoch_index: int, hyper: Hyperparameters) -> float:
    """Warmup momentum during the first epochs of an update procedure."""
    if epoch_index <= hyper.momentum_warmup_epochs:
        return hyper.momentum_warmup
    return hyper.momentum


def apply_update(params: RbmParameters, state: UpdateState,
                 pos: GradientStatistics, neg: GradientStatistics, denom: int,
                 learning_rate: float, momentum: float, weight_decay: float,
                 decay_biases: bool = True):
    """One momentum step: delta <- m*delta + lr*[(pos-neg)/denom - wd*theta].

    denom must be the number of rows that actually contributed to the
    statistics. Returns (new params, new state).
    """
    if denom <= 0:
        raise EmptyBatchError("update denominator must be positive")
    wd_v = weight_decay if decay_biases else 0.0
    dw = momentum * state.delta_weights + learning_rate * (
        (pos.weight_stat - neg.weight_stat) / denom - weight_decay * params.weights
    )
    da = momentum * state.delta_visible + learning_rate * (
        (pos.visible_stat - neg.visible_stat) / denom - wd_v * params.visible_bias
    )
    db = momentum * state.delta_hidden + learning_rate * (
        (pos.hidden_stat - neg.hidden_stat) / denom - wd_v * params.hidden_bias
    )
    new_params = RbmParameters(
        params.weights + dw, params.visible_bias + da, params.hidden_bias + db
    )
    return new_params, UpdateState(dw, da, db, state.epoch_index + 1)


def _cd_step(params: RbmParameters, state: UpdateState, batch: BinaryBatch,
             hyper: Hyperparameters, momentum: float, rng: np.random.Generator):
    """One CD-n_cd update on one batch; returns (new params, new state)."""
    pos, h0 = positive_statistics(params, batch)
    neg, _ = cd_negative_phase(params, batch, h0, hyper.n_cd, rng)
    return apply_update(params, state, pos, neg, len(batch), hyper.learning_rate,
                        momentum, hyper.weight_decay, hyper.decay_biases)


def cd_update_epochs(params: RbmParameters, state: UpdateState, batch: BinaryBatch,
                     hyper: Hyperparameters, rng: np.random.Generator):
    """Run hyper.n_epochs CD updates on one fixed batch (an update procedure body)."""
    for e in range(1, hyper.n_epochs + 1):
        params, state = _cd_step(params, state, batch, hyper, effective_momentum(e, hyper), rng)
    return params, state


def train_offline(params: RbmParameters, dataset: BinaryBatch,
                  hyper: Hyperparameters, rng: np.random.Generator) -> RbmParameters:
    """Standard offline CD: shuffle each epoch, update per minibatch of batch_size."""
    if len(dataset) == 0:
        raise EmptyBatchError("offline training needs a non-empty dataset")
    state = UpdateState.zeros(params.n_v, params.n_h)
    n = len(dataset)
    for epoch in range(1, hyper.n_epochs + 1):
        order = rng.permutation(n)
        mom = effective_momentum(epoch, hyper)
        for start in range(0, n, hyper.batch_size):
            mb = dataset.take(order[start:start + hyper.batch_size])
            params, state = _cd_step(params, state, mb, hyper, mom, rng)
    return params
