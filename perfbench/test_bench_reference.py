"""Brute-force checks of the benchmark's reference computations on tiny inputs.

    python3 -m pytest perfbench/test_bench_reference.py -q
"""

import itertools

import numpy as np

import reference as ref


def _tiny_model(n_v, n_h, seed):
    g = np.random.default_rng(seed)
    return g.normal(0, 1.0, (n_h, n_v)), g.normal(0, 1.0, n_v), g.normal(0, 1.0, n_h)


def _all_states(width):
    return np.array(list(itertools.product((0, 1), repeat=width)), dtype=np.float64)


def test_nearest_prototype_matches_bit_by_bit_loop():
    g = np.random.default_rng(0)
    protos = (g.random((12, 7)) < 0.5).astype(np.uint8)
    protos[5] = protos[2]  # a duplicate forces a distance tie
    queries = np.vstack([(g.random((40, 7)) < 0.5).astype(np.uint8), protos[5:6]])
    got = ref.nearest_prototype(queries, protos, chunk=8)
    for qi, q in enumerate(queries):
        dists = [sum(int(a) != int(b) for a, b in zip(q, p)) for p in protos]
        assert got[qi] == dists.index(min(dists))  # lowest index among ties
    assert got[-1] == 2


def test_free_energy_matches_sum_over_hidden_states():
    w, a, b = _tiny_model(5, 3, seed=1)
    vs = _all_states(5)
    hs = _all_states(3)
    for v, fe in zip(vs, ref.free_energy(w, a, b, vs)):
        neg_energies = [a @ v + b @ h + h @ w @ v for h in hs]
        assert np.isclose(fe, -np.log(np.sum(np.exp(neg_energies))), rtol=1e-12, atol=1e-12)


def test_log_z_enumeration_matches_sum_over_joint_states():
    for n_h, chunk_bits in ((4, 14), (5, 2)):  # one block, and several blocks
        w, a, b = _tiny_model(4, n_h, seed=n_h)
        brute = np.log(sum(np.exp(a @ v + b @ h + h @ w @ v)
                           for v in _all_states(4) for h in _all_states(n_h)))
        got = ref.log_z_by_hidden_enumeration(w, a, b, chunk_bits=chunk_bits)
        assert np.isclose(got, brute, rtol=1e-12, atol=0)


def test_logsumexp_is_stable_for_large_values():
    assert np.isclose(ref.logsumexp([1000.0, 1000.0]), 1000.0 + np.log(2.0), rtol=1e-15)
