"""Streaming trainers: generative replay (ocdgr) and experience replay (er_ml, er_im).

All three trainers run the same update procedure from the training kernel;
the only difference is where the replayed batch comes from. ocdgr samples
it from the current model with short Gibbs chains seeded at uniform hidden
states, the er variants draw it from a buffer of past observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError, DomainError
from .model import BinaryBatch, Hyperparameters, RbmParameters, _gibbs, init_params
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
    v, _, _ = _gibbs(params, rng.random((n_samples, params.n_h)), n_gibbs, rng)
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

    def scalar_count(self) -> int:
        """Stored scalars, one per component of each row held (not per slot allocated)."""
        return self._len * self._slots.shape[1] if self._len else 0


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
    pending: np.ndarray  # (rows, n_v) uint8: rows awaiting the next update
    t: int = 1
    observed_count: int = 0

    @classmethod
    def fresh(cls, params: RbmParameters) -> "OnlineTrainerState":
        return cls(params, UpdateState.zeros(params.n_v, params.n_h),
                   np.empty((0, params.n_v), dtype=np.uint8))

    def live_scalar_count(self, memory: Optional[ReplayMemory] = None) -> int:
        """Scalars held live: parameters, momentum buffer, pending rows, memory."""
        n = 2 * self.params.scalar_count  # params + same-shaped delta
        n += len(self.pending) * self.params.n_v
        if memory is not None:
            n += memory.scalar_count()
        return n


def _update_procedure(state: OnlineTrainerState, replayed: Optional[BinaryBatch],
                      hyper: Hyperparameters, rng: np.random.Generator) -> OnlineTrainerState:
    """The update procedure every trainer runs: CD epochs on the pending rows plus replay.

    The new state has no pending rows and t advanced by one; the momentum
    buffer carries over.
    """
    rows = state.pending if replayed is None else np.vstack([state.pending, replayed.rows])
    params, update_state = cd_update_epochs(state.params, state.update_state, BinaryBatch(rows),
                                            hyper, rng)
    return OnlineTrainerState(params, update_state, state.pending[:0], state.t + 1,
                              state.observed_count)


def ocdgr_update_procedure(state: OnlineTrainerState, hyper: Hyperparameters,
                           rng: np.random.Generator) -> OnlineTrainerState:
    """One generative-replay update: augment the observed batch with model samples.

    No replay is generated on the very first procedure (t=1), when the
    model has seen nothing yet. The observed and generated batches are
    discarded at the end, so the live state never grows with the stream.
    """
    if not len(state.pending):
        return state
    replayed = None
    if state.t > 1 and hyper.replay_size > 0:
        replayed = generate_replay(state.params, hyper.replay_size, hyper.n_gibbs, rng)
    return _update_procedure(state, replayed, hyper, rng)


def er_update_procedure(state: OnlineTrainerState, memory: ReplayMemory,
                        hyper: Hyperparameters, rng: np.random.Generator) -> OnlineTrainerState:
    """Experience-replay update: replay is drawn from memory instead of generated.

    After the update the newly observed points are inserted into memory
    (FIFO eviction when bounded), which is changed in place.
    """
    if not len(state.pending):
        return state
    new_state = _update_procedure(state, memory.sample(hyper.replay_size, rng), hyper, rng)
    memory.insert_batch(BinaryBatch(state.pending))
    return new_state


@dataclass
class CheckpointSnapshot:
    """Immutable view of trainer state taken every checkpoint_every observations."""

    observed_count: int
    params: RbmParameters
    t: int
    memory_rows: int
    live_scalar_count: int


def stream_states(trainer_kind: str, stream: BinaryBatch, hyper: Hyperparameters,
                  checkpoint_every: int, rng: np.random.Generator,
                  initial_params: Optional[RbmParameters] = None):
    """Feed an ordered stream of observations to an online trainer, yielding its state.

    Points accumulate into a pending batch; every batch_size points the
    trainer's update procedure runs, and a partial batch left at stream end
    gets one final flush update. Yields the live (state, memory) pair (memory
    None for ocdgr), which the next step changes: the fresh state, then after
    every procedure, at every checkpoint_every observed points (pending rows
    included) and after the flush. A DomainError raised by an update is
    re-raised naming the procedure index t and the observed count.
    """
    if trainer_kind not in TRAINER_KINDS:
        raise ConfigError(f"unknown trainer kind {trainer_kind!r}, expected one of {TRAINER_KINDS}")
    if checkpoint_every < 1:
        raise DomainError("checkpoint_every must be >= 1")

    if initial_params is None:
        initial_params = init_params(hyper.n_v, hyper.n_h, hyper.init_std, rng)
    state = OnlineTrainerState.fresh(initial_params)
    memory = {"ocdgr": None, "er_im": ReplayMemory(None),
              "er_ml": ReplayMemory(er_ml_capacity(hyper.n_v, hyper.n_h))}[trainer_kind]
    yield state, memory

    n, start = len(stream), 0  # stream.rows[start:] are not yet trained on
    for end in sorted({*range(hyper.batch_size, n + 1, hyper.batch_size),
                       *range(checkpoint_every, n + 1, checkpoint_every)}):
        state.pending, state.observed_count = stream.rows[start:end], end
        if end - start == hyper.batch_size:
            state, start = _run_procedure(state, memory, hyper, rng), end
        yield state, memory
    if start < n:
        state.pending, state.observed_count = stream.rows[start:], n
        yield _run_procedure(state, memory, hyper, rng), memory


def stream_train(trainer_kind: str, stream: BinaryBatch, hyper: Hyperparameters,
                 checkpoint_every: int, rng: np.random.Generator,
                 initial_params: Optional[RbmParameters] = None):
    """Run stream_states to the end, snapshotting the first state it yields at
    each multiple of checkpoint_every. Returns (final params, snapshots)."""
    snapshots: list[CheckpointSnapshot] = []
    for state, memory in stream_states(trainer_kind, stream, hyper, checkpoint_every, rng,
                                       initial_params):
        if state.observed_count == (len(snapshots) + 1) * checkpoint_every:
            snapshots.append(CheckpointSnapshot(state.observed_count, state.params, state.t,
                                                len(memory or ()), state.live_scalar_count(memory)))
    return state.params, snapshots


def _run_procedure(state: OnlineTrainerState, memory: Optional[ReplayMemory],
                   hyper: Hyperparameters, rng: np.random.Generator) -> OnlineTrainerState:
    """Run one update procedure, ocdgr's when memory is None, naming it if it fails."""
    try:
        if memory is None:
            return ocdgr_update_procedure(state, hyper, rng)
        return er_update_procedure(state, memory, hyper, rng)
    except DomainError as e:
        raise DomainError(f"update procedure t={state.t} failed after "
                          f"{state.observed_count} observations: {e}") from e
