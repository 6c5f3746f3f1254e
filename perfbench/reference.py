"""Reference computations the benchmark checks the library against.

They use only numpy and are written apart from the library's code paths:
1-NN by direct XOR counting, the visible free energy from its formula, and
log Z by enumerating hidden states.
"""

from __future__ import annotations

import numpy as np


def softplus(x):
    return np.logaddexp(0.0, x)


def logsumexp(x) -> float:
    x = np.asarray(x, dtype=np.float64)
    m = x.max()
    return float(m + np.log(np.exp(x - m).sum()))


def nearest_prototype(queries, prototypes, chunk: int = 64) -> np.ndarray:
    """Index of each query's nearest prototype by Hamming distance.

    Distances are counts of differing bits (XOR); ties go to the lowest
    prototype index.
    """
    q = np.asarray(queries, dtype=np.uint8)
    p = np.asarray(prototypes, dtype=np.uint8)
    out = np.empty(len(q), dtype=np.int64)
    for start in range(0, len(q), chunk):
        block = q[start:start + chunk]
        dist = np.bitwise_xor(block[:, None, :], p[None, :, :]).sum(axis=2, dtype=np.int64)
        out[start:start + chunk] = dist.argmin(axis=1)  # first minimum = lowest index
    return out


def free_energy(weights, visible_bias, hidden_bias, v) -> np.ndarray:
    """F(v) = -a'v - sum_j softplus(b_j + W_j. v), one value per row of v."""
    v = np.asarray(v, dtype=np.float64)
    return -(v @ visible_bias) - softplus(v @ weights.T + hidden_bias).sum(axis=1)


def log_z_by_hidden_enumeration(weights, visible_bias, hidden_bias, chunk_bits: int = 14) -> float:
    """log Z = logsumexp over all h of b'h + sum_i softplus(a_i + (W'h)_i)."""
    n_h = hidden_bias.size
    low_bits = min(n_h, chunk_bits)
    low = (np.arange(1 << low_bits)[:, None] >> np.arange(low_bits)) & 1
    terms = []
    for high in range(1 << (n_h - low_bits)):
        h = np.empty((low.shape[0], n_h))
        h[:, :low_bits] = low
        h[:, low_bits:] = (high >> np.arange(n_h - low_bits)) & 1
        terms.append(logsumexp(h @ hidden_bias + softplus(h @ weights + visible_bias).sum(axis=1)))
    return logsumexp(terms)
