"""The benchmark's traced run still binds to the library.

perfbench/tracing.py rebinds library functions and methods by name and
counts work from their argument names. A renamed function, a method moved
out of its class body, or a kernel dropped from the training path makes a
``--trace 1`` run fail; this test fails first.
"""

import importlib.util
import struct
from pathlib import Path

import numpy as np
import pytest

import ocdgr
from ocdgr import Hyperparameters, online

from conftest import rng

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(params):
    return tuple(a.tobytes() for a in (params.weights, params.visible_bias, params.hidden_bias))


@pytest.mark.parametrize("kind", online.TRAINER_KINDS)
def test_traced_stream_train(tracing, kind):
    hyper = Hyperparameters(n_v=6, n_h=3, batch_size=10, replay_size=5, n_epochs=2)
    stream = ocdgr.BinaryBatch((rng(1).random((30, 6)) < 0.5).astype(np.uint8))
    untraced, _ = ocdgr.stream_train(kind, stream, hyper, 10, rng(2))
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _ in tracing.TRACED}

    tracer = tracing.Tracer()
    with tracer:  # install() looks up every TRACED name in its owner's own namespace
        traced, _ = ocdgr.stream_train(kind, stream, hyper, 10, rng(2))

    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())
    assert digest(traced) == digest(untraced)
    calls = {name: n for name, n in tracer.counts.items() if name.endswith(".calls")}
    for name in ("online.stream_train", "online.update_procedure", "training.cd_update_epochs",
                 "training.positive_statistics", "training.cd_negative_phase",
                 "model.binary_batch"):
        assert calls.get(name + ".calls", 0) > 0, name
    # the denominators of training.cd_gflop_per_s
    assert tracer.counts["training.positive_statistics.cd_flop"] > 0
    assert tracer.counts["training.cd_negative_phase.cd_flop"] > 0
    if kind == "ocdgr":
        assert tracer.counts["online.generate_replay.rows"] == 2 * hyper.replay_size
    else:
        # three procedures: the first finds the memory empty, each inserts its batch
        assert calls["online.memory_sample.calls"] == 3
        assert calls["online.memory_insert.calls"] == 3
    assert set(tracer.self_times()) <= {name for _, _, name in tracing.TRACED}
    assert online.ReplayMemory.sample is originals[(online.ReplayMemory, "sample")]


def test_traced_evaluation_and_loaders(tracing, tmp_path):
    """Every counter outside training reads its arguments and counts work."""
    params = ocdgr.init_params(6, 3, 0.1, rng(3))
    protos = ocdgr.BinaryBatch(np.eye(6, dtype=np.uint8), labels=np.arange(6))
    text = tmp_path / "rows.txt"
    text.write_text("0 1 1\n1 0 0\n")
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">iiii", 0x803, 2, 2, 2) + bytes(range(8)))
    labels.write_bytes(struct.pack(">ii", 0x801, 2) + bytes([3, 4]))

    tracer = tracing.Tracer()
    with tracer:
        ocdgr.ais_log_z(params, ocdgr.AisSchedule.uniform(5, 4), rng(4))
        ocdgr.exact_log_z(params)
        ocdgr.knn_classify(protos, protos.take([0, 2]), 1)
        ocdgr.load_binary_text(text)
        ocdgr.load_idx(images, labels)

    for name in ("evaluation.ais_log_z", "evaluation.exact_log_z", "evaluation.knn_classify",
                 "data.load_binary_text", "data.load_idx"):
        assert name in tracing.COUNTERS
        work = {k: v for k, v in tracer.counts.items()
                if k.startswith(name + ".") and not k.endswith(".calls")}
        assert work and all(v > 0 for v in work.values()), name
