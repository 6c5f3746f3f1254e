"""Binary restricted Boltzmann machine: parameters, energies, conditionals, Gibbs chains.

The model is parameterized by a weight matrix W (n_h x n_v), a visible bias
vector a (n_v) and a hidden bias vector b (n_h). Energies are in nats.
All stochastic operations take an explicit numpy Generator; nothing in this
module touches global RNG state.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from .errors import DimensionError, DomainError, FormatError


def softplus(x):
    """log(1 + exp(x)), stable for large |x|.

    Evaluates max(x, 0) + log1p(exp(-|x|)), the formula np.logaddexp(0, x)
    uses, as whole-array ufunc passes that numpy vectorises; logaddexp loops
    element by element.
    """
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in place in the float64 array x; within 4 ulp of scipy's expit."""
    with np.errstate(over="ignore"):  # x < -709: exp(-x) is inf and the result 0
        np.exp(np.negative(x, out=x), out=x)
    x += 1.0
    return np.reciprocal(x, out=x)


@dataclass(frozen=True)
class RbmParameters:
    """Weights and biases of a binary RBM.

    ``weights`` is n_h x n_v, ``visible_bias`` has length n_v and
    ``hidden_bias`` length n_h. Arrays are made non-writeable on
    construction so instances behave as immutable values and are safe to
    share across threads.
    """

    weights: np.ndarray
    visible_bias: np.ndarray
    hidden_bias: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        a = np.ascontiguousarray(self.visible_bias, dtype=np.float64)
        b = np.ascontiguousarray(self.hidden_bias, dtype=np.float64)
        if w.ndim != 2 or a.ndim != 1 or b.ndim != 1:
            raise DimensionError(
                f"expected 2-d weights and 1-d biases, got shapes "
                f"{w.shape}, {a.shape}, {b.shape}"
            )
        if w.shape != (b.size, a.size):
            raise DimensionError(
                f"weights shape {w.shape} inconsistent with biases "
                f"(n_h={b.size}, n_v={a.size})"
            )
        if not (np.isfinite(w).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise DomainError("RBM parameters must be finite")
        for arr in (w, a, b):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "visible_bias", a)
        object.__setattr__(self, "hidden_bias", b)

    @property
    def n_v(self) -> int:
        return self.visible_bias.size

    @property
    def n_h(self) -> int:
        return self.hidden_bias.size

    @property
    def scalar_count(self) -> int:
        """Number of stored scalars (weights plus both bias vectors)."""
        return self.n_v * self.n_h + self.n_v + self.n_h


@dataclass
class Hyperparameters:
    """Training meta-parameters shared by the offline and online trainers.

    Defaults follow common practice for CD training: batch of 100 observed
    points, 300 replayed points, 1 Gibbs step for replay generation, 10
    epochs per update procedure, CD-1, learning rate 0.05, momentum 0.9
    (0.5 during the first 5 epochs of each update procedure) and weight
    decay 2e-4.
    """

    n_v: int
    n_h: int
    n_gibbs: int = 1
    n_cd: int = 1
    n_epochs: int = 10
    batch_size: int = 100
    replay_size: int = 300
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0002
    init_std: float = 0.01
    momentum_warmup_epochs: int = 5
    momentum_warmup: float = 0.5
    decay_biases: bool = True

    def __post_init__(self):
        if self.n_v < 1 or self.n_h < 1:
            raise DimensionError("n_v and n_h must be positive")
        for name in ("n_gibbs", "n_cd", "n_epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")
        if self.replay_size < 0:
            raise DomainError("replay_size must be nonnegative")
        if not (0.0 <= self.momentum < 1.0 and 0.0 <= self.momentum_warmup < 1.0):
            raise DomainError("momentum coefficients must lie in [0, 1)")
        if self.learning_rate <= 0:
            raise DomainError("learning_rate must be positive")
        if self.weight_decay < 0 or self.init_std < 0:
            raise DomainError("weight_decay and init_std must be nonnegative")
        if self.momentum_warmup_epochs < 0:
            raise DomainError("momentum_warmup_epochs must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparameters":
        return cls(**d)


def _is_binary(rows: np.ndarray) -> bool:
    """Same verdict as np.isin(rows, (0, 1)).all(), in one pass where the dtype allows."""
    kind = rows.dtype.kind
    if kind == "b":
        return True
    if kind == "u":
        return bool(rows.max() <= 1)
    return bool(np.isin(rows, (0, 1)).all())


@dataclass
class BinaryBatch:
    """A set of binary row vectors with optional per-row integer labels."""

    rows: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.ndim != 2:
            raise DimensionError(f"rows must be 2-d, got shape {rows.shape}")
        if rows.size and not _is_binary(rows):
            raise DomainError("batch entries must be exactly 0 or 1")
        self.rows = rows.astype(np.uint8, copy=False)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (rows.shape[0],):
                raise DimensionError(
                    f"labels shape {labels.shape} does not match {rows.shape[0]} rows"
                )
            self.labels = labels

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def n_v(self) -> int:
        return self.rows.shape[1]

    def take(self, indices) -> "BinaryBatch":
        labels = None if self.labels is None else self.labels[indices]
        return BinaryBatch(self.rows[indices], labels)

    @staticmethod
    def concat(parts: list["BinaryBatch"]) -> "BinaryBatch":
        parts = [p for p in parts if len(p)]
        if not parts:
            raise DomainError("cannot concatenate zero non-empty batches")
        rows = np.vstack([p.rows for p in parts])
        if all(p.labels is not None for p in parts):
            labels = np.concatenate([p.labels for p in parts])
        else:
            labels = None
        return BinaryBatch(rows, labels)


def init_params(n_v: int, n_h: int, init_std: float, rng: np.random.Generator) -> RbmParameters:
    """Draw all parameters i.i.d. from N(0, init_std)."""
    if n_v < 1 or n_h < 1:
        raise DimensionError(f"invalid dimensions n_v={n_v}, n_h={n_h}")
    w = rng.normal(0.0, init_std, size=(n_h, n_v))
    a = rng.normal(0.0, init_std, size=n_v)
    b = rng.normal(0.0, init_std, size=n_h)
    return RbmParameters(w, a, b)


def _check_units(params: RbmParameters, x, n_expected: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != n_expected:
        raise DimensionError(
            f"{name} has trailing dimension {x.shape[-1]}, expected {n_expected}"
        )
    return x


def energy(params: RbmParameters, v, h) -> float:
    """Joint energy -a'v - b'h - h'Wv of a (visible, hidden) state."""
    v = _check_units(params, v, params.n_v, "v")
    h = _check_units(params, h, params.n_h, "h")
    return float(
        -params.visible_bias @ v - params.hidden_bias @ h - h @ params.weights @ v
    )


def free_energy(params: RbmParameters, v):
    """Visible free energy -a'v - sum_j softplus(b_j + W_j. v).

    Accepts a single vector or a matrix of rows; returns a scalar or a
    vector accordingly. Stable for arbitrarily large pre-activations.
    """
    v = _check_units(params, v, params.n_v, "v")
    act = v @ params.weights.T + params.hidden_bias
    fe = -(v @ params.visible_bias) - softplus(act).sum(axis=-1)
    return float(fe) if fe.ndim == 0 else fe


def hidden_free_energy(params: RbmParameters, h):
    """Free energy of the hidden layer, -b'h - sum_i softplus(a_i + (W'h)_i)."""
    h = _check_units(params, h, params.n_h, "h")
    act = h @ params.weights + params.visible_bias
    fe = -(h @ params.hidden_bias) - softplus(act).sum(axis=-1)
    return float(fe) if fe.ndim == 0 else fe


def _check_unit_interval(x, name: str):
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        raise DomainError(f"{name} entries must lie in [0, 1]")


# Unchecked kernel: callers check shape and range once. In place: a temporary costs more than exp.
def _hidden_probs(params: RbmParameters, v: np.ndarray) -> np.ndarray:
    act = v @ params.weights.T
    return _sigmoid(np.add(act, params.hidden_bias, out=act))


def _visible_probs(params: RbmParameters, h: np.ndarray) -> np.ndarray:
    act = h @ params.weights
    return _sigmoid(np.add(act, params.visible_bias, out=act))


def _bernoulli(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return (rng.random(probs.shape) < probs).view(np.uint8)


def hidden_probs(params: RbmParameters, v):
    """P(h_j = 1 | v) = sigmoid(b_j + W_j. v); v may be real-valued in [0,1]."""
    v = _check_units(params, v, params.n_v, "v")
    _check_unit_interval(v, "v")
    return _hidden_probs(params, v)


def visible_probs(params: RbmParameters, h):
    """P(v_i = 1 | h) = sigmoid(a_i + (W'h)_i); h may be real-valued in [0,1]."""
    h = _check_units(params, h, params.n_h, "h")
    _check_unit_interval(h, "h")
    return _visible_probs(params, h)


def sample_bernoulli(probs, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli draws, one per entry of probs."""
    probs = np.asarray(probs, dtype=np.float64)
    _check_unit_interval(probs, "probs")
    return _bernoulli(probs, rng)


def _gibbs(params: RbmParameters, h, n_steps: int, rng: np.random.Generator):
    """The alternating Gibbs chain every sampler in the package runs.

    Each step samples v from P(v | h), then h from P(h | v). Returns the
    final binary v, the hidden probabilities at that v, and the final
    binary h. The caller checks n_steps >= 1 and the width and range of h.
    """
    for _ in range(n_steps):
        v = _bernoulli(_visible_probs(params, h), rng)
        hp = _hidden_probs(params, v)
        h = _bernoulli(hp, rng)
    return v, hp, h


def gibbs_from_hidden(params: RbmParameters, h_init, n_steps: int, rng: np.random.Generator):
    """Alternating Gibbs chain started from a (possibly real-valued) hidden state.

    Each step samples the visible layer from the current hidden state and
    then resamples the hidden layer; the first visible update uses h_init
    directly, all later states are binary samples. Returns the binary
    (v, h) pair after the final step.
    """
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    h = _check_units(params, h_init, params.n_h, "h")
    _check_unit_interval(h, "h")
    v, _, h = _gibbs(params, h, n_steps, rng)
    return v, h


# Binary file format for model persistence (all integers little-endian):
#   bytes 0..3   magic "RBMF"
#   uint32       format version (1)
#   uint32       n_v
#   uint32       n_h
#   float64[n_h*n_v]  W, row-major
#   float64[n_v]      visible bias
#   float64[n_h]      hidden bias
#   uint32       length L of the metadata block
#   L bytes      UTF-8 JSON: {"hyperparameters": {...}, ...extra keys}
_MAGIC = b"RBMF"
_VERSION = 1
_HEADER_BYTES = 16  # magic, version, n_v, n_h


def save_model(path, params: RbmParameters, hyper: Optional[Hyperparameters] = None,
               extra: Optional[dict] = None) -> None:
    """Write parameters (and optional metadata) in the versioned binary format."""
    meta = dict(extra or {})
    if hyper is not None:
        meta["hyperparameters"] = hyper.to_dict()
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<III", _VERSION, params.n_v, params.n_h))
        f.write(params.weights.astype("<f8").tobytes(order="C"))
        f.write(params.visible_bias.astype("<f8").tobytes())
        f.write(params.hidden_bias.astype("<f8").tobytes())
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)


def load_model(path):
    """Read a model file; returns (RbmParameters, metadata dict)."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r} at offset 0")
    if len(data) < _HEADER_BYTES:
        raise FormatError(f"{path}: truncated header at offset {len(data)}, need {_HEADER_BYTES}")
    version, n_v, n_h = struct.unpack_from("<III", data, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    off = _HEADER_BYTES
    n_values = n_h * n_v + n_v + n_h
    need = off + 8 * n_values + 4
    if len(data) < need:
        raise FormatError(f"{path}: truncated at offset {len(data)}, need {need}")
    values = np.frombuffer(data, "<f8", n_values, off)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FormatError(f"{path}: non-finite parameter {values[bad[0]]} "
                          f"at offset {off + 8 * int(bad[0])}")
    w = values[:n_h * n_v].reshape(n_h, n_v)
    a = values[n_h * n_v:n_h * n_v + n_v]
    b = values[n_h * n_v + n_v:]
    off += 8 * n_values
    (blob_len,) = struct.unpack_from("<I", data, off)
    off += 4
    if len(data) < off + blob_len:
        raise FormatError(f"{path}: truncated metadata block at offset {off}")
    if len(data) > off + blob_len:
        raise FormatError(f"{path}: {len(data) - off - blob_len} trailing bytes "
                          f"at offset {off + blob_len}")
    meta = {}
    if blob_len:
        try:
            meta = json.loads(data[off:off + blob_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"{path}: metadata block at offset {off} is not UTF-8 JSON: {e}")
        if not isinstance(meta, dict):
            raise FormatError(f"{path}: metadata block at offset {off} is not a JSON object")
    return RbmParameters(w.copy(), a.copy(), b.copy()), meta
