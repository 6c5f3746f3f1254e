"""Shared fixtures and helpers for the test suite."""

import os

import numpy as np
import pytest

import ocdgr
from ocdgr import BinaryBatch, RbmParameters, init_params


def pytest_report_header(config):
    # pytest's pythonpath puts this checkout's src ahead of PYTHONPATH; show which one ran
    return f"ocdgr imported from {os.path.dirname(ocdgr.__file__)}"


def rng(seed=0):
    return np.random.default_rng(seed)


def random_params(n_v, n_h, std=0.1, seed=0):
    return init_params(n_v, n_h, std, rng(seed))


def all_states(width):
    """All binary vectors of the given width, one per row."""
    return ((np.arange(1 << width)[:, None] >> np.arange(width)) & 1).astype(np.float64)


def mnist_dir():
    """Directory with the four canonical IDX files, if the environment has one."""
    d = os.environ.get("MNIST_DIR")
    return d if d and os.path.isdir(d) else None


def digit_like_dataset(n_rows, seed, n_v=784, n_classes=10, sorted_by_class=False):
    """Deterministic 10-class binary image stand-in with digit-like sparsity.

    Each class is a fixed Bernoulli template: ~120 'stroke' pixels at
    probability 0.9 and a 0.02 background, giving ~14% active bits per row.
    Used where real image data may be absent from the environment.
    """
    g = np.random.default_rng(seed)
    template_g = np.random.default_rng(12345)  # templates shared across seeds
    templates = np.full((n_classes, n_v), 0.02)
    for c in range(n_classes):
        stroke = template_g.choice(n_v, size=120, replace=False)
        templates[c, stroke] = 0.9
    labels = g.integers(0, n_classes, size=n_rows)
    rows = (g.random((n_rows, n_v)) < templates[labels]).astype(np.uint8)
    if sorted_by_class:
        order = np.argsort(labels, kind="stable")
        rows, labels = rows[order], labels[order]
    return BinaryBatch(rows, labels)


@pytest.fixture
def tiny_params():
    return random_params(4, 3, std=0.5, seed=7)
