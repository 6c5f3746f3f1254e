"""Training kernel: CD statistics, momentum/weight-decay update, offline loop."""

import numpy as np
import pytest

from ocdgr import (
    BinaryBatch,
    DimensionError,
    DomainError,
    EmptyBatchError,
    GradientStatistics,
    Hyperparameters,
    UpdateState,
    apply_update,
    cd_negative_phase,
    effective_momentum,
    generate_replay,
    gibbs_from_hidden,
    hidden_probs,
    init_params,
    positive_statistics,
    sample_bernoulli,
    stream_train,
    train_offline,
    visible_probs,
)
from ocdgr.online import TRAINER_KINDS
from ocdgr.training import _cd_step

from conftest import all_states, random_params, rng


def stats_of(params):
    return GradientStatistics(
        np.zeros((params.n_h, params.n_v)), np.zeros(params.n_v), np.zeros(params.n_h)
    )


class TestPositiveStatistics:
    def test_zero_params_single_ones_row(self):
        p = init_params(2, 2, 0.0, rng())
        stats, h = positive_statistics(p, BinaryBatch(np.ones((1, 2), dtype=np.uint8)))
        assert stats.weight_stat == pytest.approx(np.full((2, 2), 0.5))
        assert stats.visible_stat == pytest.approx([1.0, 1.0])
        assert stats.hidden_stat == pytest.approx([0.5, 0.5])
        assert h == pytest.approx(np.full((1, 2), 0.5))

    def test_additivity_over_duplicate_rows(self, tiny_params):
        row = np.array([[1, 0, 1, 1]], dtype=np.uint8)
        one, _ = positive_statistics(tiny_params, BinaryBatch(row))
        two, _ = positive_statistics(tiny_params, BinaryBatch(np.vstack([row, row])))
        assert two.weight_stat == pytest.approx(2 * one.weight_stat)
        assert two.visible_stat == pytest.approx(2 * one.visible_stat)
        assert two.hidden_stat == pytest.approx(2 * one.hidden_stat)

    def test_matches_scalar_loop_oracle(self, tiny_params):
        batch = BinaryBatch((rng(4).random((5, 4)) < 0.5).astype(np.uint8))
        stats, _ = positive_statistics(tiny_params, batch)
        w_expected = np.zeros((3, 4))
        h_expected = np.zeros(3)
        for row in batch.rows:
            hp = hidden_probs(tiny_params, row.astype(float))
            for j in range(3):
                h_expected[j] += hp[j]
                for i in range(4):
                    w_expected[j, i] += hp[j] * row[i]
        assert stats.weight_stat == pytest.approx(w_expected, abs=1e-12)
        assert stats.hidden_stat == pytest.approx(h_expected, abs=1e-12)
        assert stats.visible_stat == pytest.approx(batch.rows.sum(axis=0), abs=1e-12)

    def test_empty_batch_rejected(self, tiny_params):
        with pytest.raises(EmptyBatchError):
            positive_statistics(tiny_params, BinaryBatch(np.zeros((0, 4), dtype=np.uint8)))

    def test_data_side_term_is_exact_expectation(self):
        # Psi+/|V| must equal the analytic empirical expectation of v_i * P(h_j|v)
        p = random_params(10, 8, std=0.6, seed=21)
        batch = BinaryBatch((rng(22).random((40, 10)) < 0.4).astype(np.uint8))
        stats, _ = positive_statistics(p, batch)
        v = batch.rows.astype(float)
        h = hidden_probs(p, v)
        expected = np.einsum("nj,ni->ji", h, v) / len(batch)
        assert stats.weight_stat / len(batch) == pytest.approx(expected, abs=1e-12)


class TestCdNegativePhase:
    def test_zero_params_hidden_stat(self):
        p = init_params(3, 2, 0.0, rng())
        batch = BinaryBatch(np.zeros((8, 3), dtype=np.uint8))
        _, h0 = positive_statistics(p, batch)
        stats, vk = cd_negative_phase(p, batch, h0, 1, rng(6))
        assert stats.hidden_stat == pytest.approx([4.0, 4.0])  # 0.5 * batch size
        assert len(vk) == 8

    def test_chain_prefix_determinism(self, tiny_params):
        # the k-step chain replays exactly the same draws as a manual chain
        batch = BinaryBatch((rng(1).random((6, 4)) < 0.5).astype(np.uint8))
        _, h0 = positive_statistics(tiny_params, batch)
        for n_cd in (1, 3):
            g = rng(17)
            h = sample_bernoulli(h0, g)
            for _ in range(n_cd):
                v = sample_bernoulli(visible_probs(tiny_params, h), g)
                hp = hidden_probs(tiny_params, v)
                h = sample_bernoulli(hp, g)
            stats, vk = cd_negative_phase(tiny_params, batch, h0, n_cd, rng(17))
            assert (vk.rows == v).all()
            assert stats.weight_stat == pytest.approx(hp.T @ v.astype(float), abs=1e-12)

    def test_long_chain_reaches_model_expectation(self):
        p = random_params(4, 3, std=0.5, seed=31)
        n_chains = 1000
        batch = BinaryBatch((rng(32).random((n_chains, 4)) < 0.5).astype(np.uint8))
        _, h0 = positive_statistics(p, batch)
        stats, _ = cd_negative_phase(p, batch, h0, 10_000, rng(33))
        # exact E[v_i h_j] by enumerating the 2^7 joint states
        vs, hs = all_states(4), all_states(3)
        joint = np.array([[np.exp(p.visible_bias @ v + p.hidden_bias @ h + h @ p.weights @ v)
                           for v in vs] for h in hs])
        joint /= joint.sum()
        exact = np.einsum("hv,hj,vi->ji", joint, hs, vs)
        # var(v_i h_j) <= 1/4, so 3 std of the chain mean is at most 1.5/sqrt(n)
        tol = 3 * 0.5 / np.sqrt(n_chains)
        assert np.abs(stats.weight_stat / n_chains - exact).max() < tol


class TestApplyUpdate:
    def test_balanced_statistics_no_change(self, tiny_params):
        s = stats_of(tiny_params)
        state = UpdateState.zeros(4, 3)
        new, new_state = apply_update(tiny_params, state, s, s, 5, 0.1, 0.0, 0.0)
        assert (new.weights == tiny_params.weights).all()
        assert not new_state.delta_weights.any()

    def test_pure_decay(self, tiny_params):
        s = stats_of(tiny_params)
        state = UpdateState.zeros(4, 3)
        alpha, xi = 0.1, 0.5
        new, _ = apply_update(tiny_params, state, s, s, 5, alpha, 0.0, xi)
        assert new.weights == pytest.approx(tiny_params.weights * (1 - alpha * xi), rel=1e-12)
        assert new.visible_bias == pytest.approx(tiny_params.visible_bias * (1 - alpha * xi), rel=1e-12)

    def test_decay_biases_flag(self, tiny_params):
        s = stats_of(tiny_params)
        state = UpdateState.zeros(4, 3)
        new, _ = apply_update(tiny_params, state, s, s, 5, 0.1, 0.0, 0.5, decay_biases=False)
        assert (new.visible_bias == tiny_params.visible_bias).all()
        assert new.weights == pytest.approx(tiny_params.weights * 0.95, rel=1e-12)

    def test_momentum_recurrence(self, tiny_params):
        # two identical-gradient steps: second delta = rho * first + alpha * g
        g = rng(41)
        pos = GradientStatistics(g.normal(size=(3, 4)), g.normal(size=4), g.normal(size=3))
        neg = stats_of(tiny_params)
        alpha, rho = 0.05, 0.9
        p1, s1 = apply_update(tiny_params, UpdateState.zeros(4, 3), pos, neg, 2, alpha, rho, 0.0)
        p2, s2 = apply_update(p1, s1, pos, neg, 2, alpha, rho, 0.0)
        grad = pos.weight_stat / 2
        assert s2.delta_weights == pytest.approx(rho * s1.delta_weights + alpha * grad, abs=1e-12)
        assert s2.epoch_index == 2

    def test_linearity_in_statistic_difference(self, tiny_params):
        g = rng(43)
        pos = GradientStatistics(g.normal(size=(3, 4)), g.normal(size=4), g.normal(size=3))
        neg = stats_of(tiny_params)
        scaled = GradientStatistics(3 * pos.weight_stat, 3 * pos.visible_stat, 3 * pos.hidden_stat)
        state = UpdateState.zeros(4, 3)
        _, s1 = apply_update(tiny_params, state, pos, neg, 4, 0.1, 0.0, 0.0)
        _, s3 = apply_update(tiny_params, state, scaled, neg, 4, 0.1, 0.0, 0.0)
        assert s3.delta_weights == pytest.approx(3 * s1.delta_weights, rel=1e-12)

    def test_zero_denominator_rejected(self, tiny_params):
        s = stats_of(tiny_params)
        with pytest.raises(EmptyBatchError):
            apply_update(tiny_params, UpdateState.zeros(4, 3), s, s, 0, 0.1, 0.0, 0.0)


class TestEffectiveMomentum:
    def test_warmup_schedule(self):
        h = Hyperparameters(n_v=4, n_h=2)
        assert effective_momentum(1, h) == 0.5
        assert effective_momentum(5, h) == 0.5
        assert effective_momentum(6, h) == 0.9

    def test_disabled_warmup(self):
        h = Hyperparameters(n_v=4, n_h=2, momentum_warmup_epochs=0)
        assert effective_momentum(1, h) == 0.9


class TestTrainOffline:
    def test_single_update_composition(self):
        # 1 epoch, 1 minibatch, no momentum/decay: identical to one manual CD step
        p0 = random_params(5, 3, std=0.2, seed=51)
        data = BinaryBatch((rng(52).random((7, 5)) < 0.5).astype(np.uint8))
        hyper = Hyperparameters(n_v=5, n_h=3, n_epochs=1, batch_size=10,
                                learning_rate=0.1, momentum=0.0, momentum_warmup=0.0,
                                weight_decay=0.0)
        trained = train_offline(p0, data, hyper, rng(53))
        g = rng(53)
        order = g.permutation(7)
        mb = data.take(order)
        pos, h0 = positive_statistics(p0, mb)
        neg, _ = cd_negative_phase(p0, mb, h0, 1, g)
        manual, _ = apply_update(p0, UpdateState.zeros(5, 3), pos, neg, 7, 0.1, 0.0, 0.0)
        assert (trained.weights == manual.weights).all()
        assert (trained.visible_bias == manual.visible_bias).all()

    def test_same_seed_bitwise_identical(self):
        p0 = random_params(6, 4, seed=61)
        data = BinaryBatch((rng(62).random((20, 6)) < 0.3).astype(np.uint8))
        hyper = Hyperparameters(n_v=6, n_h=4, n_epochs=5, batch_size=8)
        a = train_offline(p0, data, hyper, rng(63))
        b = train_offline(p0, data, hyper, rng(63))
        assert (a.weights == b.weights).all()

    def test_empty_dataset_rejected(self, tiny_params):
        hyper = Hyperparameters(n_v=4, n_h=3)
        with pytest.raises(EmptyBatchError):
            train_offline(tiny_params, BinaryBatch(np.zeros((0, 4), dtype=np.uint8)), hyper, rng())

    def test_zero_learning_rate_not_allowed_but_tiny_rate_freezes(self):
        # alpha -> 0 limit: updates shrink proportionally (invariance check at 1e-300)
        p0 = random_params(4, 3, seed=71)
        data = BinaryBatch((rng(72).random((6, 4)) < 0.5).astype(np.uint8))
        hyper = Hyperparameters(n_v=4, n_h=3, n_epochs=2, batch_size=6,
                                learning_rate=1e-300, weight_decay=0.0)
        trained = train_offline(p0, data, hyper, rng(73))
        assert trained.weights == pytest.approx(p0.weights, abs=1e-290)


def checked_chain(params, h, n_steps, g):
    """The Gibbs chain written with the public, checked functions."""
    for _ in range(n_steps):
        v = sample_bernoulli(visible_probs(params, h), g)
        hp = hidden_probs(params, v)
        h = sample_bernoulli(hp, g)
    return v, hp


class TestUncheckedKernel:
    """The training and replay loops skip the checks but draw and compute the same bits."""

    @pytest.mark.parametrize("n_v, n_h, n_gibbs", [(784, 25, 1), (784, 25, 3), (6, 3, 2)])
    def test_generate_replay_matches_checked_chain(self, n_v, n_h, n_gibbs):
        p = random_params(n_v, n_h, std=0.1, seed=81)
        g = rng(82)
        v, _ = checked_chain(p, g.random((300, n_h)), n_gibbs, g)
        g_kernel = rng(82)
        assert np.array_equal(generate_replay(p, 300, n_gibbs, g_kernel).rows, v)
        assert g_kernel.random() == g.random()  # the same number of draws

    @pytest.mark.parametrize("n_v, n_h, n_cd", [(784, 25, 1), (784, 25, 2), (6, 3, 3)])
    def test_cd_step_matches_checked_functions(self, n_v, n_h, n_cd):
        p = random_params(n_v, n_h, std=0.1, seed=83)
        batch = BinaryBatch((rng(84).random((100, n_v)) < 0.3).astype(np.uint8))
        hyper = Hyperparameters(n_v=n_v, n_h=n_h, n_cd=n_cd)
        s = rng(85)
        state = UpdateState(s.normal(size=(n_h, n_v)), s.normal(size=n_v), s.normal(size=n_h))
        g_kernel = rng(86)
        got, got_state = _cd_step(p, state, batch, hyper, 0.5, g_kernel)

        pos, h0 = positive_statistics(p, batch)
        assert np.array_equal(h0, hidden_probs(p, batch.rows))
        g = rng(86)
        v, hp = checked_chain(p, sample_bernoulli(h0, g), n_cd, g)
        vf = v.astype(np.float64)
        neg = GradientStatistics(hp.T @ vf, vf.sum(axis=0), hp.sum(axis=0))
        want, want_state = apply_update(p, state, pos, neg, len(batch), hyper.learning_rate,
                                        0.5, hyper.weight_decay, hyper.decay_biases)
        for a, b in [(got.weights, want.weights), (got.visible_bias, want.visible_bias),
                     (got.hidden_bias, want.hidden_bias),
                     (got_state.delta_weights, want_state.delta_weights)]:
            assert a.tobytes() == b.tobytes()
        assert g_kernel.random() == g.random()


class TestEntryPointChecks:
    """Each public way into the unchecked kernel checks its input at its own entry."""

    @pytest.mark.parametrize("kind", TRAINER_KINDS)
    def test_stream_train_wrong_width(self, kind):
        hyper = Hyperparameters(n_v=6, n_h=3, batch_size=10, replay_size=5)
        stream = BinaryBatch(np.zeros((20, 7), dtype=np.uint8))
        with pytest.raises(DimensionError, match="v has trailing dimension 7, expected 6"):
            stream_train(kind, stream, hyper, 10, rng())

    def test_positive_statistics_wrong_width(self, tiny_params):
        with pytest.raises(DimensionError, match="v has trailing dimension 5, expected 4"):
            positive_statistics(tiny_params, BinaryBatch(np.zeros((2, 5), dtype=np.uint8)))

    def test_positive_statistics_non_binary_rows(self, tiny_params):
        batch = BinaryBatch(np.zeros((2, 4), dtype=np.uint8))
        batch.rows[1, 2] = 2  # rows are a plain array, writable after validation
        with pytest.raises(DomainError, match=r"v entries must lie in \[0, 1\]"):
            positive_statistics(tiny_params, batch)

    def test_cd_negative_phase_checks_h0_probs(self, tiny_params):
        batch = BinaryBatch(np.zeros((2, 4), dtype=np.uint8))
        with pytest.raises(DomainError, match=r"probs entries must lie in \[0, 1\]"):
            cd_negative_phase(tiny_params, batch, np.full((2, 3), 1.5), 1, rng())
        with pytest.raises(DimensionError, match="h has trailing dimension 2, expected 3"):
            cd_negative_phase(tiny_params, batch, np.full((2, 2), 0.5), 1, rng())

    def test_gibbs_from_hidden_checks_h_init(self, tiny_params):
        with pytest.raises(DomainError, match=r"h entries must lie in \[0, 1\]"):
            gibbs_from_hidden(tiny_params, np.array([0.5, 1.5, 0.0]), 1, rng())
        with pytest.raises(DimensionError, match="h has trailing dimension 2, expected 3"):
            gibbs_from_hidden(tiny_params, np.full(2, 0.5), 1, rng())
