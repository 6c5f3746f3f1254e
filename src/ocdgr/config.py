"""Experiment configuration and deterministic RNG derivation."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import zlib
from dataclasses import dataclass, field
from typing import Optional, get_type_hints

import numpy as np

from .data import binarize, load_binary_text, load_idx, toy_generate
from .errors import ConfigError, DimensionError, DomainError, FormatError
from .evaluation import AisSchedule
from .model import BinaryBatch, Hyperparameters
from .online import TRAINER_KINDS


def derive_rng(master_seed: int, label: str) -> np.random.Generator:
    """Derive an independent generator from the master seed and a role label.

    The label is hashed (crc32) into the SeedSequence spawn key, so streams
    for different roles ("train", "eval-1000", ...) never overlap and adding
    a new role never perturbs existing ones.
    """
    key = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(key,)))


@dataclass
class ExperimentConfig:
    """Everything that determines one experiment run.

    Two runs from equal configs (and equal input files) produce identical
    model and metric files.
    """

    master_seed: int
    trainer: str
    train_dataset: dict
    test_dataset: Optional[dict] = None
    stream_order: str = "random"
    checkpoint_every: int = 1000
    estimator: str = "ais"
    ais: dict = field(default_factory=lambda: {"n_betas": 1000, "n_chains": 100})
    hyperparameters: dict = field(default_factory=dict)
    output_dir: str = "out"

    def __post_init__(self):
        _check_kind("config", "master_seed", self.master_seed, int, minimum=0)
        _check_kind("config", "checkpoint_every", self.checkpoint_every, int, minimum=1)
        if self.trainer not in TRAINER_KINDS:
            raise ConfigError(f"unknown trainer {self.trainer!r}, expected one of {TRAINER_KINDS}")
        ais_schedule(self.ais)
        if self.stream_order not in ("sorted_by_class", "random"):
            raise ConfigError(f"unknown stream_order {self.stream_order!r}")
        if self.estimator not in ("exact", "ais"):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if not isinstance(self.train_dataset, dict):
            raise ConfigError("train_dataset must be a dataset spec object")
        if self.test_dataset is not None and not isinstance(self.test_dataset, dict):
            raise ConfigError("test_dataset must be a dataset spec object")
        if not isinstance(self.hyperparameters, dict):
            raise ConfigError("hyperparameters must be an object")

    @classmethod
    def from_file(cls, path, overrides: Optional[dict] = None) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        # ValueError covers bad UTF-8, bad JSON and an int of over 4,300 digits
        except (ValueError, RecursionError) as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object, "
                              f"got a {type(raw).__name__}")
        raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
        known = cls.__dataclass_fields__.keys()
        unknown = set(raw) - set(known)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as e:
            raise ConfigError(str(e))

    def resolved(self, hyper: Hyperparameters) -> dict:
        """Full config as a plain dict, with hyper in full; embedded into every output file."""
        d = dataclasses.asdict(self)
        d["hyperparameters"] = hyper.to_dict()
        d["output_dir"] = str(self.output_dir)
        return d

    def hyper(self, n_v: int) -> Hyperparameters:
        hp = dict(self.hyperparameters)
        hp.setdefault("n_v", n_v)
        if "n_h" not in hp:
            raise ConfigError("hyperparameters must set n_h")
        kinds = get_type_hints(Hyperparameters)
        unknown = set(hp) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown hyperparameter keys: {sorted(unknown)}")
        for key, value in hp.items():
            _check_kind("hyperparameters", key, value, kinds[key])
        try:
            return Hyperparameters(**hp)
        except (DimensionError, DomainError) as e:
            raise ConfigError(f"hyperparameters: {e}")


def ais_schedule(spec) -> AisSchedule:
    """The schedule an ais spec names, or ConfigError if it names none.

    The spec is "paper" or {"preset": "paper"} for the preset ladder, or an
    object of "n_betas" (default 1000) and "n_chains" (default 100).
    """
    ais = spec if isinstance(spec, dict) else {"preset": spec}
    if set(ais) - {"preset", "n_betas", "n_chains"} or ais.get("preset", "paper") != "paper":
        raise ConfigError(f"ais must be \"paper\" or an object of \"n_betas\" and "
                          f"\"n_chains\" (or \"preset\": \"paper\"), got {spec!r}")
    if "preset" in ais:
        return AisSchedule.paper_preset()
    n_betas = _check_kind("ais", "n_betas", ais.get("n_betas", 1000), int, minimum=2)
    n_chains = _check_kind("ais", "n_chains", ais.get("n_chains", 100), int, minimum=1)
    return AisSchedule.uniform(n_betas, n_chains)


# The JSON values each field type accepts; JSON booleans are not numbers.
_ACCEPTS = {bool: bool, int: numbers.Integral, float: numbers.Real, str: str}


def _check_kind(where: str, key: str, value, kind: type, minimum=None):
    """Return value, or raise ConfigError naming key if it does not fit kind.

    kind is int, float (an int is accepted), bool or str. A float must be
    finite, and a number must be at least minimum when one is given. Any
    other kind is a fault in the caller, not in the config, and raises
    TypeError.
    """
    if kind not in _ACCEPTS:
        raise TypeError(f"{where} field {key!r} has unsupported type {kind!r}")
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, _ACCEPTS[kind]):
        raise ConfigError(f"{where} field {key!r} must be of type {kind.__name__}, "
                          f"got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} field {key!r} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} field {key!r} must be >= {minimum}, got {value!r}")
    return value


def _spec_field(spec: dict, key: str, default, kind: type, minimum=None):
    return _check_kind("dataset spec", key, spec.get(key, default), kind, minimum)


# The keys each dataset kind reads, besides "kind" and "limit".
_SPEC_KEYS = {"toy": {"n_per_class", "n_classes", "block", "p"},
              "idx": {"images", "labels", "binarize"},
              "text": {"path", "labels_path"}}


def load_dataset(spec: dict, master_seed: int, role: str) -> BinaryBatch:
    """Materialize a dataset spec; RNG-dependent specs derive from the role label."""
    if not isinstance(spec, dict):
        raise ConfigError(f"a dataset spec must be an object, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    unknown = set(spec) - _SPEC_KEYS[kind] - {"kind", "limit"}
    if unknown:
        raise ConfigError(f"unknown dataset spec keys for kind {kind!r}: {sorted(unknown)}")
    if kind == "toy":
        rng = derive_rng(master_seed, f"{role}-toy-data")
        batch = toy_generate(
            n_per_class=_spec_field(spec, "n_per_class", 1000, int, minimum=1),
            n_classes=_spec_field(spec, "n_classes", 10, int, minimum=1),
            block=_spec_field(spec, "block", 10, int, minimum=1),
            p=_spec_field(spec, "p", 0.3, float),
            rng=rng,
        )
    elif kind == "idx":
        images, labels = load_idx(_spec_field(spec, "images", None, str),
                                  _spec_field(spec, "labels", None, str))
        mode = spec.get("binarize", "threshold")
        rng = derive_rng(master_seed, f"{role}-binarize") if mode == "stochastic" else None
        batch = binarize(images, mode, rng, labels)
    else:
        path = _spec_field(spec, "path", None, str)
        batch = load_binary_text(path)
        if spec.get("labels_path") is not None:
            labels_path = _spec_field(spec, "labels_path", None, str)
            try:
                labels = np.loadtxt(labels_path, dtype=np.int64, ndmin=1)
            except ValueError as e:
                raise FormatError(f"{labels_path}: {e}")
            if labels.shape != (len(batch),):
                raise FormatError(f"{labels_path}: holds {labels.size} labels, "
                                  f"{path} has {len(batch)} rows")
            batch = BinaryBatch(batch.rows, labels)
    limit = spec.get("limit")
    if limit is not None:
        _check_kind("dataset spec", "limit", limit, int, minimum=1)
        batch = batch.take(np.arange(min(limit, len(batch))))
    return batch
