"""Streaming trainers: generative replay, experience replay, memory accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocdgr import (
    BinaryBatch,
    ConfigError,
    DimensionError,
    DomainError,
    Hyperparameters,
    OnlineTrainerState,
    ReplayMemory,
    StreamOrder,
    UpdateState,
    apply_update,
    cd_negative_phase,
    class_histogram,
    er_ml_capacity,
    er_update_procedure,
    generate_replay,
    init_params,
    ocdgr_update_procedure,
    order_stream,
    positive_statistics,
    stream_train,
    toy_generate,
)

from conftest import random_params, rng


def toy_prototypes(data, per_class=100, seed=99):
    g = rng(seed)
    idx = np.concatenate([
        g.choice(np.where(data.labels == c)[0], size=per_class, replace=False)
        for c in np.unique(data.labels)
    ])
    return data.take(idx)


class TestGenerateReplay:
    def test_uniform_model_uniform_bits(self):
        p = init_params(6, 4, 0.0, rng())
        batch = generate_replay(p, 10_000, 1, rng(1))
        assert (np.abs(batch.rows.mean(axis=0) - 0.5) < 0.015).all()

    def test_single_class_model_generates_that_class(self):
        # train on one toy class only; nearly all samples should classify back to it
        data = toy_generate(1000, rng=rng(2))
        class1 = data.take(np.where(data.labels == 1)[0])
        hyper = Hyperparameters(n_v=100, n_h=50)
        params, _ = stream_train("ocdgr", class1, hyper, 1000, rng(3))
        gen = generate_replay(params, 1000, 1, rng(4))
        hist = class_histogram(gen, toy_prototypes(data), k=1)
        assert hist.get(1, 0) >= 950

    def test_same_seed_identical(self, tiny_params):
        a = generate_replay(tiny_params, 20, 3, rng(5))
        b = generate_replay(tiny_params, 20, 3, rng(5))
        assert (a.rows == b.rows).all()

    def test_invalid_arguments(self, tiny_params):
        with pytest.raises(DomainError):
            generate_replay(tiny_params, 0, 1, rng())
        with pytest.raises(DomainError):
            generate_replay(tiny_params, 1, 0, rng())


class TestReplayMemory:
    def test_fifo_eviction(self):
        mem = ReplayMemory(5)
        for i in range(7):
            row = np.zeros(8, dtype=np.uint8)
            row[i] = 1
            mem.insert(row)
        kept = mem.rows()
        assert len(mem) == 5
        # points 3..7 (0-indexed 2..6) survive, in insertion order
        assert (np.argmax(kept, axis=1) == [2, 3, 4, 5, 6]).all()

    def test_sample_without_replacement(self):
        mem = ReplayMemory(None)
        mem.insert_batch(BinaryBatch(np.eye(10, dtype=np.uint8)))
        got = mem.sample(4, rng(6))
        assert len(got) == 4
        assert len(np.unique(np.argmax(got.rows, axis=1))) == 4

    def test_sample_capped_at_size(self):
        mem = ReplayMemory(None)
        mem.insert_batch(BinaryBatch(np.eye(3, dtype=np.uint8)))
        assert len(mem.sample(10, rng(7))) == 3
        assert ReplayMemory(None).sample(5, rng(8)) is None

    def test_uniform_selection_frequency(self):
        # each of 10,000 stored points selected with prob 300/10,000 per draw
        mem = ReplayMemory(None)
        n, k, trials = 10_000, 300, 1000
        mem.insert_batch(BinaryBatch(np.zeros((n, 1), dtype=np.uint8)))
        g = rng(9)
        counts = np.zeros(n)
        stacked = mem.rows()
        for _ in range(trials):
            idx = g.choice(len(stacked), size=k, replace=False)
            counts[idx] += 1
        freq = counts / trials
        p = k / n
        band = 2.576 * np.sqrt(p * (1 - p) / trials)  # per-point 99% interval
        # ~1% of points are expected to fall outside their own 99% band
        assert (np.abs(freq - p) <= band).mean() >= 0.985
        assert abs(freq.mean() - p) < 1e-12  # exactly k selections per trial

    def test_scalar_count(self):
        mem = ReplayMemory(None)
        mem.insert_batch(BinaryBatch(np.zeros((7, 100), dtype=np.uint8)))
        assert mem.scalar_count() == 700


    def test_row_width_fixed_by_first_insert(self):
        mem = ReplayMemory(None)
        mem.insert(np.zeros(4, dtype=np.uint8))
        with pytest.raises(DimensionError):
            mem.insert(np.zeros(5, dtype=np.uint8))
        with pytest.raises(DimensionError):
            mem.insert_batch(BinaryBatch(np.zeros((2, 3), dtype=np.uint8)))
        assert len(mem) == 1


class ListMemory:
    """Reference FIFO memory: a plain list of rows, oldest first, restacked on every draw."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []

    def insert(self, row):
        self.items.append(np.asarray(row, dtype=np.uint8))
        if self.capacity is not None and len(self.items) > self.capacity:
            del self.items[0]

    def insert_batch(self, batch):
        for row in batch.rows:
            self.insert(row)

    def rows(self):
        if not self.items:
            return np.empty((0, 0), dtype=np.uint8)
        return np.array(self.items, dtype=np.uint8)

    def sample(self, n, g):
        k = min(n, len(self.items))
        if k == 0:
            return None
        stacked = self.rows()
        return stacked[g.choice(len(stacked), size=k, replace=False)]

    def scalar_count(self):
        return sum(row.size for row in self.items)


MEMORY_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.just(1)),
    st.tuples(st.just("insert_batch"), st.integers(0, 30)),  # up to past the largest capacity
    st.tuples(st.just("sample"), st.integers(0, 30)),
), max_size=40)


@settings(max_examples=200, deadline=None)
@given(capacity=st.sampled_from([None, 1, 5, 21]), ops=MEMORY_OPS, seed=st.integers(0, 2**32 - 1))
def test_replay_memory_matches_list_reference(capacity, ops, seed):
    n_v = 11  # every row is a distinct counter value, so order and identity are both checked
    mem, ref = ReplayMemory(capacity), ListMemory(capacity)
    g_mem, g_ref = rng(seed), rng(seed)
    counter = 0
    drawn = []
    for op, n in ops:
        if op == "sample":
            got, want = mem.sample(n, g_mem), ref.sample(n, g_ref)
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got.rows, want)
                drawn.append((got, want))
            continue
        rows = (np.arange(counter, counter + n)[:, None] >> np.arange(n_v)) & 1
        counter += n
        if op == "insert":
            mem.insert(rows[0])
            ref.insert(rows[0])
        else:
            mem.insert_batch(BinaryBatch(rows))
            ref.insert_batch(BinaryBatch(rows))
        assert len(mem) == len(ref.items)
        assert mem.rows().shape == ref.rows().shape
        assert np.array_equal(mem.rows(), ref.rows())
        assert mem.scalar_count() == ref.scalar_count()
    for got, want in drawn:  # nothing inserted later reached a batch already drawn
        assert np.array_equal(got.rows, want)


class TestErMlCapacity:
    def test_paper_sizes(self):
        assert er_ml_capacity(784, 500) == 501
        assert er_ml_capacity(784, 25) == 26
        assert er_ml_capacity(100, 100) == 102


def make_batch(n, n_v, seed):
    return BinaryBatch((rng(seed).random((n, n_v)) < 0.4).astype(np.uint8))


class TestUpdateProcedures:
    def test_first_procedure_reduces_to_offline_cd(self):
        # t=1: no replay; with a single epoch and no momentum the update is one CD step
        p0 = random_params(6, 4, seed=11)
        batch = make_batch(10, 6, 12)
        hyper = Hyperparameters(n_v=6, n_h=4, n_epochs=1, batch_size=10,
                                momentum=0.0, momentum_warmup=0.0, weight_decay=0.0)
        state = OnlineTrainerState.fresh(p0)
        state.pending = batch.rows
        out = ocdgr_update_procedure(state, hyper, rng(13))
        g = rng(13)
        pos, h0 = positive_statistics(p0, batch)
        neg = cd_negative_phase(p0, batch, h0, 1, g)
        manual, _ = apply_update(p0, UpdateState.zeros(6, 4), pos, neg, 10,
                                 hyper.learning_rate, 0.0, 0.0)
        assert (out.params.weights == manual.weights).all()
        assert out.t == 2 and out.pending.shape == (0, 6)

    def test_er_first_procedure_matches_ocdgr_first(self):
        p0 = random_params(6, 4, seed=14)
        batch = make_batch(10, 6, 15)
        hyper = Hyperparameters(n_v=6, n_h=4, n_epochs=2, batch_size=10)
        s1 = OnlineTrainerState.fresh(p0)
        s1.pending = batch.rows
        s2 = OnlineTrainerState.fresh(p0)
        s2.pending = batch.rows
        mem = ReplayMemory(None)
        a = ocdgr_update_procedure(s1, hyper, rng(16))
        b = er_update_procedure(s2, mem, hyper, rng(16))
        assert (a.params.weights == b.params.weights).all()
        assert len(mem) == 10  # observed points stored afterwards

    def test_markov_property_ocdgr(self):
        # identical (params, delta, batch, rng state) from different histories
        # must produce bitwise-identical results
        hyper = Hyperparameters(n_v=8, n_h=5, n_epochs=3, batch_size=10, replay_size=20)
        p0 = random_params(8, 5, seed=17)

        def warmup(history_seed):
            st = OnlineTrainerState.fresh(p0)
            st.pending = make_batch(10, 8, history_seed).rows
            return ocdgr_update_procedure(st, hyper, rng(history_seed))

        a, b = warmup(100), warmup(200)  # different histories
        shared = make_batch(10, 8, 18)
        # overwrite both states with identical inputs
        for st in (a, b):
            st.pending = shared.rows
        a.params, a.update_state = b.params, b.update_state.copy()
        ra = ocdgr_update_procedure(a, hyper, rng(19))
        rb = ocdgr_update_procedure(b, hyper, rng(19))
        assert (ra.params.weights == rb.params.weights).all()
        assert (ra.params.visible_bias == rb.params.visible_bias).all()

    def test_er_im_depends_on_history(self):
        # same (params, delta, batch, rng state) but different memory contents
        # give different results: the ER trainer is not Markov in those inputs
        hyper = Hyperparameters(n_v=8, n_h=5, n_epochs=2, batch_size=10, replay_size=20)
        p0 = random_params(8, 5, seed=20)
        shared = make_batch(10, 8, 21)
        results = []
        for mem_seed in (300, 400):
            mem = ReplayMemory(None)
            mem.insert_batch(make_batch(30, 8, mem_seed))
            st = OnlineTrainerState.fresh(p0)
            st.t = 2
            st.pending = shared.rows
            out = er_update_procedure(st, mem, hyper, rng(22))
            results.append(out.params.weights)
        assert not (results[0] == results[1]).all()

    def test_two_class_toy_retention(self):
        # after streaming class 1 then class 2, generated samples cover both
        data = toy_generate(1000, rng=rng(23))
        two = data.take(np.where(data.labels <= 2)[0])
        stream = order_stream(two, StreamOrder("sorted_by_class"))
        hyper = Hyperparameters(n_v=100, n_h=50)
        params, _ = stream_train("ocdgr", stream, hyper, 2000, rng(2))
        gen = generate_replay(params, 1000, hyper.n_gibbs, rng(52))
        hist = class_histogram(gen, toy_prototypes(two), k=1)
        assert hist.get(1, 0) >= 100 and hist.get(2, 0) >= 100


class TestStreamTrain:
    def test_exactly_one_batch_one_procedure(self):
        hyper = Hyperparameters(n_v=6, n_h=3, batch_size=25, n_epochs=1)
        stream = make_batch(25, 6, 31)
        params, snaps = stream_train("ocdgr", stream, hyper, 25, rng(32))
        assert len(snaps) == 1
        assert snaps[0].t == 2  # exactly one procedure ran
        assert snaps[0].observed_count == 25

    def test_zero_replay_makes_trainers_identical(self):
        hyper = Hyperparameters(n_v=6, n_h=3, batch_size=10, n_epochs=2, replay_size=0)
        stream = make_batch(40, 6, 33)
        p0 = random_params(6, 3, seed=34)
        outs = [stream_train(kind, stream, hyper, 10, rng(35), initial_params=p0)[0]
                for kind in ("ocdgr", "er_im", "er_ml")]
        assert (outs[0].weights == outs[1].weights).all()
        assert (outs[0].weights == outs[2].weights).all()

    def test_snapshot_counting(self):
        data = toy_generate(100, rng=rng(36))  # 1,000 points
        hyper = Hyperparameters(n_v=100, n_h=10, n_epochs=1)
        _, snaps = stream_train("ocdgr", data, hyper, 100, rng(37))
        assert len(snaps) == 10
        assert snaps[-1].observed_count == 1000

    def test_partial_final_batch_flushes(self):
        hyper = Hyperparameters(n_v=6, n_h=3, batch_size=10, n_epochs=1)
        stream = make_batch(15, 6, 38)
        p0 = random_params(6, 3, seed=39)
        params, _ = stream_train("ocdgr", stream, hyper, 100, rng(40), initial_params=p0)
        # the 5 leftover points changed the model beyond the first full batch
        partial, _ = stream_train("ocdgr", stream.take(range(10)), hyper, 100, rng(40),
                                  initial_params=p0)
        assert not (params.weights == partial.weights).all()

    def test_unknown_trainer(self):
        hyper = Hyperparameters(n_v=4, n_h=2)
        with pytest.raises(ConfigError):
            stream_train("nope", make_batch(4, 4, 41), hyper, 10, rng())

    def test_memory_accounting_growth(self):
        hyper = Hyperparameters(n_v=20, n_h=5, batch_size=10, n_epochs=1, replay_size=15)
        stream = make_batch(60, 20, 42)
        _, ocd = stream_train("ocdgr", stream, hyper, 10, rng(43))
        _, im = stream_train("er_im", stream, hyper, 10, rng(43))
        _, ml = stream_train("er_ml", stream, hyper, 10, rng(43))
        ocd_counts = [s.live_scalar_count for s in ocd]
        assert len(set(ocd_counts)) == 1  # constant live state
        im_rows = [s.memory_rows for s in im]
        assert im_rows == [10, 20, 30, 40, 50, 60]  # linear growth
        cap = er_ml_capacity(20, 5)
        assert all(r <= cap for r in (s.memory_rows for s in ml))
        assert ml[-1].memory_rows == cap

    def test_divergence_names_stream_position(self):
        hyper = Hyperparameters(n_v=6, n_h=3, batch_size=10, n_epochs=2, learning_rate=1e300)
        with np.errstate(over="ignore"), pytest.raises(
                DomainError, match=r"t=1 failed after 10 observations: .*finite"):
            stream_train("ocdgr", make_batch(30, 6, 46), hyper, 10, rng(47))

    def test_same_seed_bitwise_identical(self):
        hyper = Hyperparameters(n_v=10, n_h=4, batch_size=10, n_epochs=2)
        stream = make_batch(30, 10, 44)
        a, _ = stream_train("ocdgr", stream, hyper, 10, rng(45))
        b, _ = stream_train("ocdgr", stream, hyper, 10, rng(45))
        assert (a.weights == b.weights).all()


def per_row_stream_train(kind, stream, hyper, checkpoint_every, g, initial_params):
    """Reference stream_train: one append per row, an update at every full batch."""
    state = OnlineTrainerState.fresh(initial_params)
    memory = {"ocdgr": None, "er_im": ReplayMemory(None),
              "er_ml": ReplayMemory(er_ml_capacity(hyper.n_v, hyper.n_h))}[kind]

    def update(st):
        if memory is None:
            return ocdgr_update_procedure(st, hyper, g)
        return er_update_procedure(st, memory, hyper, g)

    snapshots, rows = [], []
    for row in stream.rows:
        rows.append(row)
        state.pending = np.array(rows, dtype=np.uint8)
        state.observed_count += 1
        if len(rows) == hyper.batch_size:
            state, rows = update(state), []
        if state.observed_count % checkpoint_every == 0:
            snapshots.append((state.observed_count, state.t,
                              0 if memory is None else len(memory),
                              state.live_scalar_count(memory), param_bytes(state.params)))
    if rows:
        state = update(state)
    return param_bytes(state.params), snapshots


def param_bytes(p):
    return p.weights.tobytes() + p.visible_bias.tobytes() + p.hidden_bias.tobytes()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["ocdgr", "er_ml", "er_im"]), n=st.integers(1, 120),
       batch_size=st.integers(1, 25), checkpoint_every=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_stream_train_matches_per_row_reference(kind, n, batch_size, checkpoint_every, seed):
    hyper = Hyperparameters(n_v=6, n_h=3, n_epochs=1, batch_size=batch_size, replay_size=4)
    stream = make_batch(n, 6, seed)
    p0 = random_params(6, 3, seed=seed % 1000)
    params, snaps = stream_train(kind, stream, hyper, checkpoint_every, rng(seed),
                                 initial_params=p0)
    want_params, want_snaps = per_row_stream_train(kind, stream, hyper, checkpoint_every,
                                                   rng(seed), p0)
    assert param_bytes(params) == want_params
    assert [(s.observed_count, s.t, s.memory_rows, s.live_scalar_count, param_bytes(s.params))
            for s in snaps] == want_snaps
