"""Dataset loading, binarization, toy data generation, and stream ordering."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, FormatError
from .model import BinaryBatch

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _read_idx_header(data: bytes, path, expected_magic: int, n_dims: int):
    need = 4 * (1 + n_dims)
    if len(data) < need:
        raise FormatError(f"{path}: truncated header, have {len(data)} bytes, need {need}")
    fields = struct.unpack_from(f">{1 + n_dims}i", data, 0)
    if fields[0] != expected_magic:
        raise FormatError(
            f"{path}: bad magic 0x{fields[0]:08x} at offset 0, expected 0x{expected_magic:08x}"
        )
    for i, value in enumerate(fields[1:], start=1):
        if value < 0:
            raise FormatError(f"{path}: negative header field {value} at offset {4 * i}")
    return fields[1:], need


def load_idx(images_path, labels_path):
    """Read an IDX image/label file pair (big-endian, one byte per pixel).

    Returns (images, labels): images is (count, rows*cols) uint8, labels is
    (count,) uint8. Magic numbers, dimensions, and count agreement are all
    validated; errors name the offending byte range.
    """
    with open(images_path, "rb") as f:
        img_data = f.read()
    with open(labels_path, "rb") as f:
        lbl_data = f.read()

    (n_images, rows, cols), img_off = _read_idx_header(
        img_data, images_path, IDX_IMAGES_MAGIC, 3
    )
    (n_labels,), lbl_off = _read_idx_header(lbl_data, labels_path, IDX_LABELS_MAGIC, 1)

    img_bytes = n_images * rows * cols
    if len(img_data) - img_off < img_bytes:
        raise FormatError(
            f"{images_path}: truncated pixel data, bytes {len(img_data)}..{img_off + img_bytes} missing"
        )
    if len(lbl_data) - lbl_off < n_labels:
        raise FormatError(
            f"{labels_path}: truncated label data, bytes {len(lbl_data)}..{lbl_off + n_labels} missing"
        )
    if n_images != n_labels:
        raise FormatError(
            f"count mismatch: {images_path} has {n_images} images, {labels_path} has {n_labels} labels"
        )
    images = np.frombuffer(img_data, np.uint8, img_bytes, img_off).reshape(n_images, rows * cols)
    labels = np.frombuffer(lbl_data, np.uint8, n_labels, lbl_off)
    return images.copy(), labels.copy()


def binarize(pixels: np.ndarray, mode: str = "threshold",
             rng: Optional[np.random.Generator] = None,
             labels: Optional[np.ndarray] = None) -> BinaryBatch:
    """Turn byte-valued pixels into a binary batch.

    threshold mode sets a bit iff the pixel is >= 128; stochastic mode sets
    it with probability pixel/255 and needs an rng.
    """
    pixels = np.asarray(pixels)
    if pixels.size and (pixels.min() < 0 or pixels.max() > 255):
        raise DomainError("pixel values must lie in [0, 255]")
    if mode == "threshold":
        rows = (pixels >= 128).astype(np.uint8)
    elif mode == "stochastic":
        if rng is None:
            raise ConfigError("stochastic binarization requires an rng")
        rows = (rng.random(pixels.shape) < pixels / 255.0).astype(np.uint8)
    else:
        raise ConfigError(f"unknown binarization mode {mode!r}")
    return BinaryBatch(rows, labels)


_BINARY_TOKENS = frozenset("01")


def load_binary_text(path) -> BinaryBatch:
    """Read whitespace-separated 0/1 rows of constant arity.

    Lines starting with '#' and blank lines are skipped. Each line is checked
    with one set test and kept as the string of its tokens; the rows become
    one uint8 array in a single pass at the end.
    """
    lines = []
    arity = None
    # a byte that is not UTF-8 decodes to a lone surrogate, a non-binary token
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if line.startswith("#"):  # metadata header lines
                continue
            tokens = line.split()
            if not tokens:
                continue
            if not _BINARY_TOKENS.issuperset(tokens):
                bad = next(tok for tok in tokens if tok not in _BINARY_TOKENS)
                raise FormatError(f"{path}: non-binary token {bad!r} at line {lineno}")
            if arity is None:
                arity = len(tokens)
            elif len(tokens) != arity:
                raise FormatError(
                    f"{path}: ragged line {lineno} has {len(tokens)} tokens, expected {arity}"
                )
            lines.append("".join(tokens))
    if not lines:
        raise FormatError(f"{path}: no data rows")
    bits = np.frombuffer("".join(lines).encode("ascii"), dtype=np.uint8) - ord("0")
    return BinaryBatch(bits.reshape(len(lines), arity))


def toy_generate(n_per_class: int, n_classes: int = 10, block: int = 10,
                 p: float = 0.3, rng: Optional[np.random.Generator] = None) -> BinaryBatch:
    """Synthetic block dataset: class c (1-based) activates only its own
    block of coordinates, each with probability p; everything else is 0."""
    if n_per_class < 1 or n_classes < 1 or block < 1:
        raise ConfigError("n_per_class, n_classes, and block must be positive")
    if not 0.0 <= p <= 1.0:
        raise ConfigError("p must lie in [0, 1]")
    if rng is None:
        raise ConfigError("toy_generate requires an rng")
    n_v = n_classes * block
    rows = np.zeros((n_per_class * n_classes, n_v), dtype=np.uint8)
    labels = np.repeat(np.arange(1, n_classes + 1), n_per_class)
    for c in range(n_classes):
        sl = slice(c * n_per_class, (c + 1) * n_per_class)
        rows[sl, c * block:(c + 1) * block] = rng.random((n_per_class, block)) < p
    return BinaryBatch(rows, labels)


@dataclass
class StreamOrder:
    """How to order a dataset into an observation stream."""

    mode: str  # "sorted_by_class" | "random"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("sorted_by_class", "random"):
            raise ConfigError(f"unknown stream order {self.mode!r}")


def order_stream(dataset: BinaryBatch, order: StreamOrder) -> BinaryBatch:
    """Reorder a dataset for streaming.

    sorted_by_class is a stable sort by ascending label (within-class order
    preserved); random is a seeded uniform permutation.
    """
    if order.mode == "sorted_by_class":
        if dataset.labels is None:
            raise ConfigError("sorted_by_class ordering requires labels")
        idx = np.argsort(dataset.labels, kind="stable")
    else:
        idx = np.random.default_rng(order.seed).permutation(len(dataset))
    return dataset.take(idx)
