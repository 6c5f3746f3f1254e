"""Partition functions, log-probability reports, and k-NN scoring."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ocdgr import (
    AisSchedule,
    BinaryBatch,
    DimensionError,
    DomainError,
    EmptyBatchError,
    InfeasibleSizeError,
    RbmParameters,
    ScheduleError,
    ais_log_z,
    class_histogram,
    exact_log_z,
    free_energy,
    init_params,
    knn_classify,
    toy_generate,
)
from ocdgr import test_log_prob_report as log_prob_report  # avoid pytest collection
from ocdgr.evaluation import _logsumexp
from ocdgr.model import _bernoulli, _sigmoid, softplus
from scipy.special import logsumexp

from conftest import all_states, random_params, rng


class TestAisSchedule:
    def test_uniform(self):
        s = AisSchedule.uniform(11, 4)
        assert s.betas[0] == 0.0 and s.betas[-1] == 1.0 and s.betas.size == 11
        assert s.n_chains == 4

    def test_paper_preset_shape(self):
        s = AisSchedule.paper_preset()
        assert s.betas.size == 500 + 4000 + 10001
        assert s.betas[0] == 0.0 and s.betas[-1] == 1.0
        assert (np.diff(s.betas) >= 0).all()
        assert s.n_chains == 100

    def test_validation(self):
        with pytest.raises(ScheduleError):
            AisSchedule(np.array([0.0, 0.9]), 10)  # must end at 1
        with pytest.raises(ScheduleError):
            AisSchedule(np.array([0.1, 1.0]), 10)  # must start at 0
        with pytest.raises(ScheduleError):
            AisSchedule(np.array([0.0, 0.6, 0.5, 1.0]), 10)  # monotone
        with pytest.raises(ScheduleError):
            AisSchedule(np.linspace(0, 1, 5), 0)
        with pytest.raises(ScheduleError, match="nondecreasing"):
            AisSchedule(np.array([0.0, np.nan, 1.0]), 10)  # NaN compares false both ways

    @pytest.mark.parametrize("n_chains", [2.5, 10.0, True, "10", None])
    def test_n_chains_must_be_an_integer(self, n_chains):
        with pytest.raises(ScheduleError, match="n_chains must be an integer"):
            AisSchedule(np.linspace(0, 1, 5), n_chains)

    def test_numpy_integer_n_chains(self):
        assert AisSchedule(np.linspace(0, 1, 5), np.int64(3)).n_chains == 3


@st.composite
def logsumexp_inputs(draw):
    """1-d float64 arrays whose entries come from a small pool, so that maxima tie often
    (a pool of -inf alone gives the all -inf array), or from the pool and a range narrow
    enough that most terms survive exp(a - max), so the summation order shows."""
    pool = draw(st.lists(st.floats(-1e4, 1e4) | st.just(-np.inf), min_size=1, max_size=6))
    values = st.sampled_from(pool)
    if draw(st.booleans()):
        values = st.floats(-40, 40) | values
    return draw(arrays(np.float64, st.integers(1, 600), elements=values))


class TestLogsumexp:
    @settings(max_examples=500, deadline=None)
    @given(a=logsumexp_inputs())
    @example(a=np.array([-np.inf]))
    @example(a=np.array([-np.inf, -np.inf, -np.inf]))
    @example(a=np.array([-2.5]))
    @example(a=np.array([1.0, -np.inf, 1.0, 0.5]))
    def test_bit_identical_to_scipy(self, a):
        # the suite turns RuntimeWarnings into errors, so this also checks that none is raised
        before = a.copy()
        got = _logsumexp(a)
        assert np.float64(got).tobytes() == np.float64(logsumexp(a)).tobytes()
        assert np.array_equal(a, before)

    def test_library_imports_no_scipy(self):
        # scipy.special alone is about 17 MB of resident memory and 0.2 s of start-up
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, ocdgr, ocdgr.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestExactLogZ:
    def test_zero_params(self):
        p = init_params(4, 3, 0.0, rng())
        assert exact_log_z(p) == pytest.approx(7 * np.log(2))

    def test_factorized_closed_form(self):
        g = rng(1)
        a, b = g.normal(size=5), g.normal(size=3)
        p = RbmParameters(np.zeros((3, 5)), a, b)
        expected = np.logaddexp(0, a).sum() + np.logaddexp(0, b).sum()
        assert exact_log_z(p) == pytest.approx(expected, rel=1e-12)

    def test_dual_enumeration_agreement(self):
        # enumerating the hidden side must match brute force over the visible side
        p = random_params(8, 6, std=0.8, seed=2)
        via_visible = logsumexp(-free_energy(p, all_states(8)))
        assert exact_log_z(p) == pytest.approx(via_visible, rel=1e-10)

    @staticmethod
    def brute_force(p):
        """logsumexp of -F over every state of the smaller layer, 2^12 states at a time."""
        w, a, b = p.weights, p.visible_bias, p.hidden_bias
        if p.n_v <= p.n_h:
            states, w, bias_enum, bias_other = all_states(p.n_v), w.T, a, b
        else:
            states, bias_enum, bias_other = all_states(p.n_h), b, a
        neg_fe = [s @ bias_enum + np.logaddexp(0.0, s @ w + bias_other).sum(axis=1)
                  for s in np.split(states, range(1 << 12, len(states), 1 << 12))]
        return logsumexp(np.concatenate(neg_fe))

    @pytest.mark.parametrize("n_v, n_h", [(13, 40), (15, 15), (40, 14), (25, 15)])
    def test_multi_block_matches_brute_force(self, n_v, n_h):
        # 13-15 enumerated bits against 15-40 other units span 8-16 blocks of 2^10-2^12 states
        p = random_params(n_v, n_h, std=0.5, seed=n_v + n_h)
        assert exact_log_z(p) == pytest.approx(self.brute_force(p), rel=1e-12)

    def test_wide_other_layer_matches_brute_force(self):
        # 784 other units: blocks of 2^6 states, 256 blocks
        p = random_params(784, 14, std=0.1, seed=11)
        assert exact_log_z(p) == pytest.approx(self.brute_force(p), rel=1e-12)

    @pytest.mark.parametrize("n_v, n_h", [(10, 6), (6, 10)])
    def test_extreme_parameters(self, n_v, n_h):
        # pre-activations reach +-1,000: |bias| <= 500 plus up to 10 weights of |w| <= 50
        g = rng(12)
        p = RbmParameters(g.uniform(-50, 50, (n_h, n_v)), g.uniform(-500, 500, n_v),
                          g.uniform(-500, 500, n_h))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = exact_log_z(p)
        assert got == pytest.approx(self.brute_force(p), rel=1e-12)

    @pytest.mark.parametrize("n_v, n_h", [(5, 0), (0, 4)])
    def test_empty_enumerated_layer(self, n_v, n_h):
        # one state, the empty one: log Z is the other layer's factorized sum
        g = rng(13)
        a, b = g.normal(size=n_v), g.normal(size=n_h)
        p = RbmParameters(np.zeros((n_h, n_v)), a, b)
        other = a if n_h == 0 else b
        assert exact_log_z(p) == pytest.approx(softplus(other).sum(), rel=1e-15)

    def test_infeasible_size(self):
        p = init_params(30, 30, 0.0, rng())
        with pytest.raises(InfeasibleSizeError):
            exact_log_z(p)

    def test_normalization(self):
        p = random_params(8, 6, std=1.0, seed=3)
        log_z = exact_log_z(p)
        total = np.exp(-free_energy(p, all_states(8)) - log_z).sum()
        assert abs(total - 1.0) < 1e-8


def ais_reference(params, schedule, rng):
    """ais_log_z computed with fresh arrays: the bit-identity reference for its in-place steps."""
    a, b, w = params.visible_bias, params.hidden_bias, params.weights
    n, betas = schedule.n_chains, schedule.betas
    log_z_base = params.n_h * np.log(2.0) + softplus(a).sum()
    v = _bernoulli(np.broadcast_to(_sigmoid(a.copy()), (n, params.n_v)), rng).astype(np.float64)
    log_w = np.zeros(n)
    prev_beta = betas[0]
    act = v @ w.T + b
    for i, beta in enumerate(betas[1:], start=1):
        log_w += softplus(beta * act).sum(axis=1) - softplus(prev_beta * act).sum(axis=1)
        if i < betas.size - 1:
            h = _bernoulli(_sigmoid(beta * act), rng)
            v = _bernoulli(_sigmoid(beta * (h @ w) + a), rng).astype(np.float64)
            act = v @ w.T + b
        prev_beta = beta
    log_mean_w = logsumexp(log_w) - np.log(n)
    u = np.exp(log_w - log_mean_w)
    return float(log_z_base + log_mean_w), float(u.std(ddof=1) / np.sqrt(n))


class TestAisLogZ:
    def test_degenerate_anneal_is_exact(self):
        # base model equals the target: every importance weight is exactly 1
        g = rng(4)
        p = RbmParameters(np.zeros((3, 5)), g.normal(size=5), np.zeros(3))
        est, std = ais_log_z(p, AisSchedule.uniform(50, 20), rng(5))
        assert std == 0.0
        assert est == pytest.approx(exact_log_z(p), rel=1e-12)

    @pytest.mark.parametrize("n_v, n_h, n_betas, n_chains", [(784, 25, 200, 50), (6, 3, 100, 20)])
    def test_bit_identical_to_reference_loop(self, n_v, n_h, n_betas, n_chains):
        p = random_params(n_v, n_h, std=0.3, seed=n_v)
        schedule = AisSchedule.uniform(n_betas, n_chains)
        assert ais_log_z(p, schedule, rng(14)) == ais_reference(p, schedule, rng(14))

    def test_small_rbm_oracle(self):
        p = random_params(10, 8, std=0.1, seed=6)
        est, std = ais_log_z(p, AisSchedule.uniform(1000, 100), rng(7))
        assert abs(est - exact_log_z(p)) <= max(0.05, 3 * std)

    def test_fewer_betas_does_not_tighten(self):
        # halving the ladder should not (on average) reduce the reported spread
        p = random_params(10, 8, std=0.4, seed=8)
        stds = {n: [] for n in (500, 1000)}
        for seed in range(20):
            for n in stds:
                _, s = ais_log_z(p, AisSchedule.uniform(n, 50), rng(1000 + seed))
                stds[n].append(s)
        assert np.mean(stds[500]) >= 0.9 * np.mean(stds[1000])

    def test_consistency_band_coverage(self):
        # exact value inside the 3-std band in >= 45 of 50 seeded runs
        p = random_params(10, 8, std=0.1, seed=9)
        exact = exact_log_z(p)
        hits = 0
        for s in range(50):
            est, std = ais_log_z(p, AisSchedule.uniform(1000, 100), rng(2000 + s))
            hits += abs(est - exact) <= max(0.05, 3 * std)
        assert hits >= 45


class TestLogProbReport:
    def test_uniform_model_784(self):
        p = init_params(784, 4, 0.0, rng())
        test = BinaryBatch((rng(10).random((20, 784)) < 0.5).astype(np.uint8))
        report = log_prob_report(p, test, exact_log_z(p))
        assert report.mean_log_prob == pytest.approx(-784 * np.log(2))

    def test_arithmetic(self):
        # one row with free energy -10 and log Z 12 gives log-prob -2
        b = np.array([np.log(np.expm1(10.0))])  # softplus(b) = 10
        p = RbmParameters(np.zeros((1, 3)), np.zeros(3), b)
        row = BinaryBatch(np.zeros((1, 3), dtype=np.uint8))
        assert free_energy(p, row.rows.astype(float))[0] == pytest.approx(-10.0)
        report = log_prob_report(p, row, 12.0)
        assert report.mean_log_prob == pytest.approx(-2.0)
        assert report.n_test == 1

    def test_per_class_and_cross_class_std(self):
        p = random_params(6, 4, seed=11)
        test = BinaryBatch((rng(12).random((30, 6)) < 0.5).astype(np.uint8),
                           labels=np.repeat([0, 1, 2], 10))
        report = log_prob_report(p, test, exact_log_z(p))
        means = np.array([report.per_class_mean[c] for c in (0, 1, 2)])
        assert report.cross_class_std == pytest.approx(means.std())  # population std
        assert report.mean_log_prob == pytest.approx(means.mean())

    def test_unlabeled_gives_nan_std(self):
        p = random_params(6, 4, seed=13)
        test = BinaryBatch((rng(14).random((5, 6)) < 0.5).astype(np.uint8))
        report = log_prob_report(p, test, 1.0)
        assert np.isnan(report.cross_class_std)
        assert report.per_class_mean == {}

    def test_row_order_invariance(self):
        p = random_params(6, 4, seed=15)
        test = BinaryBatch((rng(16).random((12, 6)) < 0.5).astype(np.uint8),
                           labels=rng(17).integers(0, 3, 12))
        a = log_prob_report(p, test, 2.0)
        perm = rng(18).permutation(12)
        b = log_prob_report(p, test.take(perm), 2.0)
        assert a.mean_log_prob == pytest.approx(b.mean_log_prob)
        assert a.per_class_mean == pytest.approx(b.per_class_mean)

    def test_empty_rejected(self, tiny_params):
        with pytest.raises(EmptyBatchError):
            log_prob_report(tiny_params, BinaryBatch(np.zeros((0, 4), dtype=np.uint8)), 0.0)

    def test_json_field_names(self):
        p = random_params(4, 3, seed=19)
        test = BinaryBatch(np.eye(4, dtype=np.uint8), labels=[0, 0, 1, 1])
        report = log_prob_report(p, test, exact_log_z(p), 0.01)
        d = json.loads(json.dumps(report.to_dict()))
        assert set(d) >= {"log_z", "log_z_std", "mean_log_prob", "per_class_mean",
                          "cross_class_std", "n_test"}


class TestKnn:
    def make_protos(self):
        rows = np.zeros((6, 9), dtype=np.uint8)
        for i in range(6):
            rows[i, 3 * (i // 2):3 * (i // 2) + 3] = 1
            rows[i, (i % 2)] |= 0  # keep pairs identical within class blocks
        return BinaryBatch(rows, labels=[0, 0, 1, 1, 2, 2])

    def test_exact_match(self):
        protos = self.make_protos()
        out = knn_classify(protos, protos.take([2]), k=1)
        assert out[0] == 1

    def test_unanimous_vote(self):
        protos = BinaryBatch(np.eye(4, dtype=np.uint8), labels=[7, 7, 7, 7])
        out = knn_classify(protos, BinaryBatch(np.ones((1, 4), dtype=np.uint8)), k=4)
        assert out[0] == 7

    def test_matches_nearest_centroid_on_separated_blocks(self):
        g = rng(20)
        block = 8
        protos_rows, labels, queries, true = [], [], [], []
        centroids = np.zeros((3, 3 * block))
        for c in range(3):
            centroids[c, c * block:(c + 1) * block] = 0.7
            protos_rows.append((g.random((30, 3 * block)) < centroids[c]).astype(np.uint8))
            labels += [c] * 30
            queries.append((g.random((34, 3 * block)) < centroids[c]).astype(np.uint8))
            true += [c] * 34
        protos = BinaryBatch(np.vstack(protos_rows), labels=labels)
        qs = BinaryBatch(np.vstack(queries))
        # oracle: nearest centroid in Hamming-style distance
        d = ((qs.rows[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        oracle = d.argmin(axis=1)
        got = knn_classify(protos, qs, k=5)
        assert (got == oracle).mean() >= 0.99
        assert (oracle == np.array(true)).all()

    def test_prototype_permutation_invariance(self):
        protos = self.make_protos()
        qs = BinaryBatch((rng(21).random((10, 9)) < 0.5).astype(np.uint8))
        a = knn_classify(protos, qs, k=3)
        b = knn_classify(protos.take([5, 1, 3, 0, 4, 2]), qs, k=3)
        assert (a == b).all()

    def test_tie_breaks_to_lowest_class(self):
        protos = BinaryBatch(np.array([[1, 0], [0, 1]], dtype=np.uint8), labels=[4, 2])
        out = knn_classify(protos, BinaryBatch(np.array([[1, 1]], dtype=np.uint8)), k=2)
        assert out[0] == 2  # equal votes, equal distance: lowest class id

    def test_k_validation(self):
        protos = self.make_protos()
        with pytest.raises(DomainError):
            knn_classify(protos, protos, k=0)
        with pytest.raises(DomainError):
            knn_classify(protos, protos, k=7)

    def test_width_mismatch_names_both_widths(self):
        protos = self.make_protos()
        queries = BinaryBatch(np.zeros((2, 8), dtype=np.uint8))
        with pytest.raises(DimensionError, match="width 8.*width 9"):
            knn_classify(protos, queries, k=1)
        with pytest.raises(DimensionError, match="width 8.*width 9"):
            class_histogram(queries, protos, k=1)

    def test_many_query_blocks_match_reference(self):
        # more queries than one scoring block, with ties at the k-th distance
        g = rng(24)
        protos = (g.random((40, 6)) < 0.5).astype(np.uint8)
        labels = g.choice([1, 5, 8], size=40)
        queries = (g.random((700, 6)) < 0.5).astype(np.uint8)
        got = knn_classify(BinaryBatch(protos, labels), BinaryBatch(queries), k=4)
        assert got.tolist() == knn_reference(protos, labels, queries, 4)


def knn_reference(protos, labels, queries, k):
    """k-NN by XOR counting: stable per-query order, then the documented tie rule."""
    out = []
    for q in queries:
        dist = [int(np.sum(q ^ p)) for p in protos]
        nearest = sorted(range(len(protos)), key=lambda i: dist[i])[:k]  # sorted() is stable
        votes, sums = {}, {}
        for i in nearest:
            c = int(labels[i])
            votes[c] = votes.get(c, 0) + 1
            sums[c] = sums.get(c, 0) + dist[i]
        # most votes, then smallest mean distance, then lowest class id
        out.append(min(votes, key=lambda c: (-votes[c], sums[c] / votes[c], c)))
    return out


@st.composite
def knn_cases(draw):
    width = draw(st.integers(1, 6))  # narrow rows make distance ties frequent
    n_protos = draw(st.integers(1, 12))
    bits = st.integers(0, 1)
    protos = draw(arrays(np.uint8, (n_protos, width), elements=bits))
    labels = np.array(draw(st.lists(st.sampled_from([-3, 2, 5, 11]),
                                    min_size=n_protos, max_size=n_protos)))
    queries = draw(arrays(np.uint8, (draw(st.integers(0, 8)), width), elements=bits))
    k = draw(st.integers(1, n_protos))
    return protos, labels, queries, k


@settings(max_examples=300, deadline=None)
@given(case=knn_cases())
def test_knn_matches_brute_force_reference(case):
    protos, labels, queries, k = case
    got = knn_classify(BinaryBatch(protos, labels), BinaryBatch(queries), k)
    assert got.dtype == np.int64 and got.shape == (len(queries),)
    assert got.tolist() == knn_reference(protos, labels, queries, k)


class TestClassHistogram:
    def test_mass_on_one_class(self):
        protos = BinaryBatch(np.eye(5, dtype=np.uint8), labels=[1, 2, 3, 4, 5])
        gen = BinaryBatch(np.tile(protos.rows[2], (9, 1)))
        hist = class_histogram(gen, protos, k=1)
        assert hist == {3: 9}

    def test_uniform_samples_touch_every_toy_class(self):
        data = toy_generate(100, rng=rng(22))
        gen = BinaryBatch((rng(23).random((10_000, 100)) < 0.5).astype(np.uint8))
        hist = class_histogram(gen, data, k=1)
        assert all(hist.get(c, 0) > 0 for c in range(1, 11))

    def test_empty_rejected(self):
        protos = BinaryBatch(np.eye(3, dtype=np.uint8), labels=[0, 1, 2])
        with pytest.raises(EmptyBatchError):
            class_histogram(BinaryBatch(np.zeros((0, 3), dtype=np.uint8)), protos, 1)
