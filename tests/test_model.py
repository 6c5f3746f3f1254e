"""Core model: parameters, energies, conditionals, sampling, persistence."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from ocdgr import (
    BinaryBatch,
    DimensionError,
    DomainError,
    FormatError,
    Hyperparameters,
    RbmParameters,
    energy,
    free_energy,
    gibbs_from_hidden,
    hidden_probs,
    init_params,
    load_model,
    sample_bernoulli,
    save_model,
    visible_probs,
)
from ocdgr.model import _sigmoid, softplus

from conftest import all_states, random_params, rng


class TestRbmParameters:
    def test_dimension_consistency_enforced(self):
        with pytest.raises(DimensionError):
            RbmParameters(np.zeros((3, 4)), np.zeros(5), np.zeros(3))
        with pytest.raises(DimensionError):
            RbmParameters(np.zeros(12), np.zeros(4), np.zeros(3))

    def test_rejects_non_finite(self):
        w = np.zeros((2, 2))
        w[0, 0] = np.nan
        with pytest.raises(DomainError):
            RbmParameters(w, np.zeros(2), np.zeros(2))

    def test_immutable_after_construction(self):
        p = random_params(4, 3)
        with pytest.raises(ValueError):
            p.weights[0, 0] = 1.0

    def test_scalar_count(self):
        p = random_params(784, 500)
        assert p.scalar_count == 784 * 500 + 784 + 500


class TestInitParams:
    def test_zero_std_gives_zero_params(self):
        p = init_params(4, 3, 0.0, rng())
        assert not p.weights.any() and not p.visible_bias.any() and not p.hidden_bias.any()

    def test_large_draw_statistics(self):
        p = init_params(784, 500, 0.01, rng(1))
        assert p.weights.shape == (500, 784)
        n = p.weights.size
        assert abs(p.weights.mean()) < 4 * 0.01 / np.sqrt(n)

    def test_same_seed_bitwise_identical(self):
        p1 = init_params(6, 5, 0.3, rng(42))
        p2 = init_params(6, 5, 0.3, rng(42))
        assert (p1.weights == p2.weights).all()
        assert (p1.visible_bias == p2.visible_bias).all()
        assert (p1.hidden_bias == p2.hidden_bias).all()

    def test_invalid_dims(self):
        with pytest.raises(DimensionError):
            init_params(0, 3, 0.1, rng())


class TestEnergy:
    def test_zero_params_zero_energy(self):
        p = init_params(3, 2, 0.0, rng())
        assert energy(p, [1, 0, 1], [1, 1]) == 0.0

    def test_single_active_pair(self):
        p = RbmParameters(np.array([[1.0]]), np.array([0.0]), np.array([0.0]))
        assert energy(p, [1], [1]) == -1.0

    def test_matches_scalar_loop_oracle(self, tiny_params):
        p = tiny_params
        for v in all_states(4):
            for h in all_states(3):
                expected = 0.0
                for i in range(4):
                    expected -= p.visible_bias[i] * v[i]
                for j in range(3):
                    expected -= p.hidden_bias[j] * h[j]
                for j in range(3):
                    for i in range(4):
                        expected -= h[j] * p.weights[j, i] * v[i]
                assert energy(p, v, h) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self, tiny_params):
        with pytest.raises(DimensionError):
            energy(tiny_params, [1, 0], [1, 1, 0])


class TestSoftplus:
    EDGE_VALUES = [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 700.0, -700.0, 800.0, -800.0,
                   np.inf, -np.inf]

    @pytest.mark.parametrize("x", EDGE_VALUES)
    def test_matches_logaddexp_within_2_ulp(self, x):
        np.testing.assert_array_max_ulp(softplus(x), np.logaddexp(0.0, x), maxulp=2)

    def test_array_matches_logaddexp_within_2_ulp(self):
        x = np.concatenate([self.EDGE_VALUES, rng(5).normal(0.0, 40.0, 1000)])
        out = softplus(x)
        assert out.shape == x.shape
        np.testing.assert_array_max_ulp(out, np.logaddexp(0.0, x), maxulp=2)

    def test_nan_propagates(self):
        assert np.isnan(softplus(np.nan))
        assert np.isnan(softplus(np.array([0.0, np.nan]))).tolist() == [False, True]

    def test_scalar_in_scalar_out(self):
        assert np.ndim(softplus(1.5)) == 0
        assert not isinstance(softplus(1.5), np.ndarray)


class TestSigmoid:
    EDGE_VALUES = [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 709.8, -709.8, 745.0, -745.0,
                   800.0, -800.0, np.inf, -np.inf]

    @pytest.mark.parametrize("bound", [40.0, 750.0])
    def test_matches_expit_within_4_ulp(self, bound):
        x = np.concatenate([self.EDGE_VALUES, rng(6).uniform(-bound, bound, 100_000)])
        out = _sigmoid(x.copy())
        np.testing.assert_array_max_ulp(out, expit(x), maxulp=4)
        assert ((out >= 0.0) & (out <= 1.0)).all()

    def test_in_place(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert _sigmoid(x) is x
        np.testing.assert_array_max_ulp(x, expit([-1.0, 0.0, 2.0]), maxulp=4)

    def test_nan_propagates(self):
        assert np.isnan(_sigmoid(np.array([0.0, np.nan]))).tolist() == [False, True]

    def test_no_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _sigmoid(np.array(self.EDGE_VALUES + [np.nan]))
        assert out[-3:-1].tolist() == [1.0, 0.0]


class TestFreeEnergy:
    def test_zero_params_is_minus_nh_log2(self):
        p = init_params(5, 3, 0.0, rng())
        assert free_energy(p, np.zeros(5)) == pytest.approx(-3 * np.log(2))

    def test_marginalization_identity(self):
        # exp(-F(v)) must equal the sum over all hidden states of exp(-E(v,h))
        p = random_params(5, 8, std=0.7, seed=3)
        hs = all_states(8)
        for v in all_states(5)[:8]:
            direct = np.logaddexp.reduce([-energy(p, v, h) for h in hs])
            assert -free_energy(p, v) == pytest.approx(direct, rel=1e-10)

    def test_no_overflow_for_large_activation(self):
        p = RbmParameters(np.array([[700.0]]), np.array([0.0]), np.array([0.0]))
        f = free_energy(p, [1.0])
        assert np.isfinite(f)
        assert f == pytest.approx(-700.0, abs=1e-6)

    def test_batch_shape(self):
        p = random_params(4, 3)
        out = free_energy(p, all_states(4))
        assert out.shape == (16,)
        assert out[5] == pytest.approx(free_energy(p, all_states(4)[5]))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), std=st.floats(0.01, 2.0))
    def test_marginalization_identity_random_models(self, seed, std):
        p = random_params(4, 6, std=std, seed=seed)
        hs = all_states(6)
        v = all_states(4)[seed % 16]
        direct = np.logaddexp.reduce([-energy(p, v, h) for h in hs])
        assert -free_energy(p, v) == pytest.approx(direct, rel=1e-10)

    def test_hidden_permutation_symmetry(self):
        p = random_params(4, 5, std=0.4, seed=9)
        perm = np.array([3, 0, 4, 1, 2])
        q = RbmParameters(p.weights[perm], p.visible_bias, p.hidden_bias[perm])
        v = np.array([1.0, 0.0, 1.0, 1.0])
        assert free_energy(q, v) == pytest.approx(free_energy(p, v), rel=1e-12)
        assert energy(q, v, np.ones(5)) == pytest.approx(energy(p, v, np.ones(5)), rel=1e-12)


class TestConditionals:
    def test_zero_params_give_half(self):
        p = init_params(3, 2, 0.0, rng())
        assert hidden_probs(p, [1, 0, 1]) == pytest.approx([0.5, 0.5])
        assert visible_probs(p, [1, 1]) == pytest.approx([0.5, 0.5, 0.5])

    def test_saturation(self):
        p = RbmParameters(np.zeros((1, 2)), np.zeros(2), np.array([500.0]))
        assert hidden_probs(p, [0, 0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_hidden_scalar_value(self):
        p = RbmParameters(np.array([[1.0, -1.0]]), np.zeros(2), np.array([0.5]))
        assert hidden_probs(p, [1, 0])[0] == pytest.approx(expit(1.5))

    def test_visible_scalar_value(self):
        p = RbmParameters(np.array([[2.0], [-1.0]]), np.array([0.1]), np.zeros(2))
        assert visible_probs(p, [1, 1])[0] == pytest.approx(expit(1.1))

    def test_bias_only_visible(self):
        p = RbmParameters(rng(2).normal(size=(3, 4)), np.array([0.2, -0.3, 0.0, 1.0]), np.zeros(3))
        assert visible_probs(p, np.zeros(3)) == pytest.approx(expit(p.visible_bias))

    def test_real_valued_input_accepted(self, tiny_params):
        out = hidden_probs(tiny_params, [0.5, 0.25, 1.0, 0.0])
        assert ((out > 0) & (out < 1)).all()

    def test_out_of_range_input_rejected(self, tiny_params):
        with pytest.raises(DomainError):
            hidden_probs(tiny_params, [0.5, 1.25, 0.0, 0.0])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_hidden_probs_match_boltzmann_ratio(self, seed):
        # p(h_j=1 | v) must equal the two-state Boltzmann ratio for unit j
        p = random_params(3, 2, std=1.0, seed=seed)
        v = all_states(3)[seed % 8]
        probs = hidden_probs(p, v)
        for j, (h0, h1) in enumerate([([0.0, 0], [1.0, 0]), ([0, 0.0], [0, 1.0])]):
            e0, e1 = energy(p, v, np.array(h0)), energy(p, v, np.array(h1))
            ratio = np.exp(-e1) / (np.exp(-e0) + np.exp(-e1))
            assert probs[j] == pytest.approx(ratio, rel=1e-10)

    def test_no_nan_for_large_parameters(self):
        p = RbmParameters(np.full((3, 4), 1e3), np.full(4, -1e3), np.full(3, 1e3))
        assert np.isfinite(hidden_probs(p, np.ones(4))).all()
        assert np.isfinite(free_energy(p, np.ones(4)))


class TestSampleBernoulli:
    def test_extremes(self):
        assert not sample_bernoulli(np.zeros(50), rng()).any()
        assert sample_bernoulli(np.ones(50), rng()).all()

    def test_empirical_mean(self):
        draws = sample_bernoulli(np.full(10_000, 0.3), rng(5))
        assert 0.285 <= draws.mean() <= 0.315

    def test_rejects_invalid_probability(self):
        with pytest.raises(DomainError):
            sample_bernoulli(np.array([0.5, 1.2]), rng())


class TestGibbsFromHidden:
    def test_uniform_model_uniform_visible(self):
        p = init_params(6, 4, 0.0, rng())
        g = rng(11)
        vs = np.array([gibbs_from_hidden(p, g.random(4), 1, g)[0] for _ in range(10_000)])
        assert (np.abs(vs.mean(axis=0) - 0.5) < 0.015).all()

    def test_coupled_model_matches_exact_marginal(self):
        # strong +/-5 couplings; long chains should land near the true marginal
        w = np.array([[5.0, -5.0], [-5.0, 5.0]])
        p = RbmParameters(w, np.zeros(2), np.zeros(2))
        states = all_states(2)
        log_p = -free_energy(p, states)
        exact = np.exp(log_p - np.logaddexp.reduce(log_p))
        g = rng(3)
        counts = np.zeros(4)
        for _ in range(10_000):
            v, _ = gibbs_from_hidden(p, g.random(2), 50, g)
            counts[int(v[0]) + 2 * int(v[1])] += 1
        tv = 0.5 * np.abs(counts / 10_000 - exact).sum()
        assert tv < 0.05

    def test_same_seed_identical(self, tiny_params):
        v1, h1 = gibbs_from_hidden(tiny_params, np.full(3, 0.5), 4, rng(8))
        v2, h2 = gibbs_from_hidden(tiny_params, np.full(3, 0.5), 4, rng(8))
        assert (v1 == v2).all() and (h1 == h2).all()

    def test_requires_positive_steps(self, tiny_params):
        with pytest.raises(DomainError):
            gibbs_from_hidden(tiny_params, np.zeros(3), 0, rng())


class TestBinaryBatch:
    def test_rejects_non_binary(self):
        with pytest.raises(DomainError):
            BinaryBatch(np.array([[0, 2]]))

    @pytest.mark.parametrize("rows", [
        np.array([[True, False]]),
        np.array([[0, 2]], dtype=np.uint8),
        np.array([[1, 256]], dtype=np.uint16),
        np.array([[0, -1]], dtype=np.int8),
        np.array([[0, 1], [1, 0]], dtype=np.int64),
        np.array([[0.0, 0.5]]),
        np.array([[1.0, np.nan]]),
        np.zeros((0, 3), dtype=np.uint8),
    ], ids=["bool", "uint8-2", "uint16-256", "int8-neg1", "int64-01", "float-half", "nan",
            "empty"])
    def test_validation_agrees_with_isin(self, rows):
        accepted = bool(np.isin(rows, (0, 1)).all())
        if accepted:
            assert (BinaryBatch(rows).rows == rows).all()
        else:
            with pytest.raises(DomainError):
                BinaryBatch(rows)

    def test_label_length_checked(self):
        with pytest.raises(DimensionError):
            BinaryBatch(np.zeros((3, 2), dtype=np.uint8), labels=[1, 2])

    def test_take_and_concat(self):
        b = BinaryBatch(np.eye(3, dtype=np.uint8), labels=[5, 6, 7])
        sub = b.take([2, 0])
        assert (sub.labels == [7, 5]).all()
        joined = BinaryBatch.concat([sub, b])
        assert len(joined) == 5 and joined.n_v == 3


class TestHyperparameters:
    def test_defaults(self):
        h = Hyperparameters(n_v=100, n_h=50)
        assert (h.batch_size, h.replay_size, h.n_gibbs, h.n_epochs, h.n_cd) == (100, 300, 1, 10, 1)
        assert (h.learning_rate, h.momentum, h.weight_decay) == (0.05, 0.9, 0.0002)
        assert (h.momentum_warmup, h.momentum_warmup_epochs) == (0.5, 5)

    def test_validation(self):
        with pytest.raises(DomainError):
            Hyperparameters(n_v=4, n_h=2, momentum=1.0)
        with pytest.raises(DomainError):
            Hyperparameters(n_v=4, n_h=2, learning_rate=0.0)

    def test_round_trip(self):
        h = Hyperparameters(n_v=10, n_h=5, n_cd=3)
        assert Hyperparameters.from_dict(h.to_dict()) == h


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        p = random_params(7, 5, std=0.8, seed=13)
        h = Hyperparameters(n_v=7, n_h=5)
        path = tmp_path / "m.rbm"
        save_model(path, p, h, extra={"note": "x"})
        q, meta = load_model(path)
        assert (q.weights == p.weights).all()
        assert (q.visible_bias == p.visible_bias).all()
        assert (q.hidden_bias == p.hidden_bias).all()
        assert meta["hyperparameters"] == h.to_dict()
        assert meta["note"] == "x"

    def test_save_load_save_identical_bytes(self, tmp_path):
        p = random_params(4, 3, seed=2)
        a, b = tmp_path / "a.rbm", tmp_path / "b.rbm"
        save_model(a, p)
        q, _ = load_model(a)
        save_model(b, q)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rbm"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_model(path)

    def test_truncated_header(self, tmp_path):
        # magic present but the version and dimensions are cut off
        path = tmp_path / "short.rbm"
        path.write_bytes(b"RBMF" + b"\x01\x00\x00\x00")
        with pytest.raises(FormatError, match=f"{path.name}: truncated header at offset 8"):
            load_model(path)

    def test_truncated(self, tmp_path):
        p = random_params(4, 3)
        path = tmp_path / "m.rbm"
        save_model(path, p)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(FormatError):
            load_model(path)

    # a 4 x 3 model: 16 header bytes, 19 float64 parameters, then the
    # 4-byte metadata length at offset 168 and the metadata at offset 172
    @staticmethod
    def saved_bytes(tmp_path):
        path = tmp_path / "m.rbm"
        save_model(path, random_params(4, 3), Hyperparameters(n_v=4, n_h=3))
        return path, path.read_bytes()

    @pytest.mark.parametrize("blob", [b"{nope", b'{"a": "\xff"}'],
                             ids=["invalid_json", "invalid_utf8"])
    def test_corrupt_metadata_names_offset(self, tmp_path, blob):
        path, data = self.saved_bytes(tmp_path)
        path.write_bytes(data[:168] + len(blob).to_bytes(4, "little") + blob)
        with pytest.raises(FormatError, match=f"{path.name}: metadata block at offset 172"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, data = self.saved_bytes(tmp_path)
        path.write_bytes(data + b"\x00\x01")
        with pytest.raises(FormatError,
                           match=f"{path.name}: 2 trailing bytes at offset {len(data)}"):
            load_model(path)

    @pytest.mark.parametrize("index, value, offset", [
        (5, np.nan, 56),      # weights[1, 1]
        (13, -np.inf, 120),   # visible_bias[1]
        (18, np.inf, 160),    # hidden_bias[2]
    ])
    def test_non_finite_parameter_names_offset(self, tmp_path, index, value, offset):
        path, data = self.saved_bytes(tmp_path)
        values = np.frombuffer(data, "<f8", 19, 16).copy()
        values[index] = value
        path.write_bytes(data[:16] + values.tobytes() + data[168:])
        with pytest.raises(FormatError, match=f"{path.name}: non-finite parameter .* "
                                              f"at offset {offset}$"):
            load_model(path)
