"""Streaming trainers: generative replay (ocdgr) and experience replay (er_ml, er_im).

All three trainers run the same update procedure from the training kernel;
the only difference is where the replayed batch comes from. ocdgr samples
it from the current model with short Gibbs chains seeded at uniform hidden
states, the er variants draw it from a buffer of past observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError, DomainError
from .model import BinaryBatch, Hyperparameters, RbmParameters, sample_bernoulli, visible_probs, hidden_probs
from .training import UpdateState, cd_update_epochs

TRAINER_KINDS = ("ocdgr", "er_ml", "er_im")


def generate_replay(params: RbmParameters, n_samples: int, n_gibbs: int,
                    rng: np.random.Generator) -> BinaryBatch:
    """Sample n_samples visible vectors from the model.

    Each sample comes from its own Gibbs chain started at a hidden state
    drawn uniformly from [0,1]^n_h and run for n_gibbs steps; the chains
    are advanced together as one matrix per step.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    if n_gibbs < 1:
        raise DomainError("n_gibbs must be >= 1")
    h = rng.random((n_samples, params.n_h))
    v = None
    for _ in range(n_gibbs):
        v = sample_bernoulli(visible_probs(params, h), rng)
        h = sample_bernoulli(hidden_probs(params, v), rng)
    return BinaryBatch(v)


class ReplayMemory:
    """FIFO store of past observations; capacity None means unbounded.

    Rows live in one preallocated uint8 ring buffer: the oldest row sits at
    slot ``_start`` and the rest follow it cyclically. A bounded memory
    allocates ``capacity`` slots on its first insert and overwrites its
    oldest rows once full; an unbounded one doubles its array as it grows.
    A draw gathers only the chosen rows, so it costs O(replay_size), not
    O(rows held).
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise DomainError("capacity must be positive or None")
        self.capacity = capacity
        self._slots: Optional[np.ndarray] = None  # (slots, n_v), allocated on first insert
        self._start = 0
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def insert(self, row: np.ndarray) -> None:
        row = np.asarray(row, dtype=np.uint8)
        if row.ndim != 1:
            raise DimensionError(f"a stored row must be 1-d, got shape {row.shape}")
        self._write(row[None, :])

    def insert_batch(self, batch: BinaryBatch) -> None:
        self._write(batch.rows)

    def _write(self, rows: np.ndarray) -> None:
        """Append rows oldest first, evicting the oldest stored rows when bounded."""
        n, n_v = rows.shape
        if n == 0:
            return
        if self.capacity is not None and n > self.capacity:
            rows, n = rows[-self.capacity:], self.capacity
        if self._slots is None:
            size = self.capacity if self.capacity is not None else n
            self._slots = np.empty((size, n_v), dtype=np.uint8)
        elif n_v != self._slots.shape[1]:
            raise DimensionError(f"row width {n_v} does not match the stored width "
                                 f"{self._slots.shape[1]}")
        if self.capacity is None and self._len + n > len(self._slots):
            grown = np.empty((max(2 * len(self._slots), self._len + n), n_v), dtype=np.uint8)
            grown[:self._len] = self.rows()
            self._slots, self._start = grown, 0
        size = len(self._slots)
        evicted = max(0, self._len + n - size)
        self._start = (self._start + evicted) % size
        self._len -= evicted
        end = (self._start + self._len) % size
        head = min(n, size - end)  # rows that fit before the ring wraps
        self._slots[end:end + head] = rows[:head]
        self._slots[:n - head] = rows[head:]
        self._len += n

    def _slot_of(self, logical: np.ndarray) -> np.ndarray:
        return (self._start + logical) % len(self._slots)

    def rows(self) -> np.ndarray:
        """Copy of the stored rows, oldest first: (len, n_v), or (0, 0) before any insert."""
        if self._slots is None:
            return np.empty((0, 0), dtype=np.uint8)
        return self._slots[self._slot_of(np.arange(self._len))]

    def sample(self, n: int, rng: np.random.Generator) -> Optional[BinaryBatch]:
        """Uniform draw without replacement of min(n, len) stored rows, as a copy."""
        k = min(n, self._len)
        if k == 0:
            return None
        idx = rng.choice(self._len, size=k, replace=False)
        return BinaryBatch(self._slots[self._slot_of(idx)])

    def scalar_count(self, bit_packed: bool = False) -> int:
        """Stored scalars, at one scalar per component (or per 64 if bit-packed).

        Counts the rows held, not the slots allocated.
        """
        if not self._len:
            return 0
        total = self._len * self._slots.shape[1]
        return -(-total // 64) if bit_packed else total


def er_ml_capacity(n_v: int, n_h: int) -> int:
    """Memory-limited buffer size: model scalar count over scalars per data point."""
    if n_v < 1 or n_h < 1:
        raise DomainError("dimensions must be positive")
    return (n_v * n_h + n_v + n_h) // n_v


@dataclass
class OnlineTrainerState:
    """Everything an online trainer carries between observations."""

    params: RbmParameters
    update_state: UpdateState
    pending: list = field(default_factory=list)
    t: int = 1
    observed_count: int = 0

    @classmethod
    def fresh(cls, params: RbmParameters) -> "OnlineTrainerState":
        return cls(params, UpdateState.zeros(params.n_v, params.n_h))

    def pending_batch(self) -> BinaryBatch:
        return BinaryBatch(np.array(self.pending, dtype=np.uint8))

    def live_scalar_count(self, memory: Optional[ReplayMemory] = None,
                          bit_packed: bool = False) -> int:
        """Scalars held live: parameters, momentum buffer, pending rows, memory."""
        n = 2 * self.params.scalar_count  # params + same-shaped delta
        n += len(self.pending) * self.params.n_v
        if memory is not None:
            n += memory.scalar_count(bit_packed)
        return n


def ocdgr_update_procedure(state: OnlineTrainerState, hyper: Hyperparameters,
                           rng: np.random.Generator) -> OnlineTrainerState:
    """One generative-replay update: augment the observed batch with model samples.

    No replay is generated on the very first procedure (t=1), when the
    model has seen nothing yet. The momentum buffer carries over between
    procedures; the observed and generated batches are discarded at the end,
    so the live state never grows with the length of the stream.
    """
    if not state.pending:
        return state
    observed = state.pending_batch()
    parts = [observed]
    if state.t > 1 and hyper.replay_size > 0:
        parts.append(generate_replay(state.params, hyper.replay_size, hyper.n_gibbs, rng))
    batch = BinaryBatch.concat(parts)
    params, update_state = cd_update_epochs(state.params, state.update_state, batch, hyper, rng)
    return OnlineTrainerState(params, update_state, [], state.t + 1, state.observed_count)


def er_update_procedure(state: OnlineTrainerState, memory: ReplayMemory,
                        hyper: Hyperparameters, rng: np.random.Generator):
    """Experience-replay update: replay is drawn from memory instead of generated.

    After the update the newly observed points are inserted into memory
    (FIFO eviction when bounded). Returns (new state, memory).
    """
    if not state.pending:
        return state, memory
    observed = state.pending_batch()
    parts = [observed]
    if hyper.replay_size > 0:
        replayed = memory.sample(hyper.replay_size, rng)
        if replayed is not None:
            parts.append(replayed)
    batch = BinaryBatch.concat(parts)
    params, update_state = cd_update_epochs(state.params, state.update_state, batch, hyper, rng)
    memory.insert_batch(observed)
    new_state = OnlineTrainerState(params, update_state, [], state.t + 1, state.observed_count)
    return new_state, memory


@dataclass
class CheckpointSnapshot:
    """Immutable view of trainer state taken every checkpoint_every observations."""

    observed_count: int
    params: RbmParameters
    t: int
    memory_rows: int
    live_scalar_count: int


def stream_train(trainer_kind: str, stream: BinaryBatch, hyper: Hyperparameters,
                 checkpoint_every: int, rng: np.random.Generator,
                 initial_params: Optional[RbmParameters] = None,
                 bit_packed_memory: bool = False):
    """Feed an ordered stream of observations to an online trainer.

    Points accumulate into a pending batch; every batch_size points the
    trainer's update procedure runs. A snapshot is recorded after every
    checkpoint_every observed points. A partial batch left at stream end
    triggers one final flush update. Returns (final params, snapshots).
    """
    if trainer_kind not in TRAINER_KINDS:
        raise ConfigError(f"unknown trainer kind {trainer_kind!r}, expected one of {TRAINER_KINDS}")
    if checkpoint_every < 1:
        raise DomainError("checkpoint_every must be >= 1")

    if initial_params is None:
        from .model import init_params
        initial_params = init_params(hyper.n_v, hyper.n_h, hyper.init_std, rng)
    state = OnlineTrainerState.fresh(initial_params)

    memory: Optional[ReplayMemory] = None
    if trainer_kind == "er_ml":
        cap = er_ml_capacity(hyper.n_v, hyper.n_h)
        if bit_packed_memory:
            cap *= 64
        memory = ReplayMemory(cap)
    elif trainer_kind == "er_im":
        memory = ReplayMemory(None)

    def run_update(st: OnlineTrainerState) -> OnlineTrainerState:
        nonlocal memory
        if trainer_kind == "ocdgr":
            return ocdgr_update_procedure(st, hyper, rng)
        st, memory = er_update_procedure(st, memory, hyper, rng)
        return st

    snapshots: list[CheckpointSnapshot] = []
    for row in stream.rows:
        state.pending.append(row)
        state.observed_count += 1
        if len(state.pending) == hyper.batch_size:
            state = run_update(state)
        if state.observed_count % checkpoint_every == 0:
            snapshots.append(CheckpointSnapshot(
                state.observed_count, state.params, state.t,
                0 if memory is None else len(memory),
                state.live_scalar_count(memory, bit_packed_memory),
            ))
    if state.pending:
        state = run_update(state)
    return state.params, snapshots
