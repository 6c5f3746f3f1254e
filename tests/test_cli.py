"""Command-line harness and experiment configuration."""

import csv
import json
import re
import shlex
from pathlib import Path
from dataclasses import asdict

import numpy as np
import pytest

from ocdgr import (ConfigError, ExperimentConfig, Hyperparameters, StreamOrder, derive_rng,
                   er_ml_capacity, exact_log_z, init_params, load_dataset, order_stream,
                   save_model, stream_train)
from ocdgr import test_log_prob_report as log_prob_report  # avoid pytest collection
from ocdgr.cli import REFERENCE_FINAL_LOG_PROB, build_parser, main, run_experiment
from ocdgr.config import ais_schedule

from conftest import rng


class TestDeriveRng:
    def test_deterministic(self):
        a = derive_rng(5, "train").random(4)
        b = derive_rng(5, "train").random(4)
        assert (a == b).all()

    def test_labels_independent(self):
        a = derive_rng(5, "train").random(4)
        b = derive_rng(5, "eval").random(4)
        assert not (a == b).all()

    def test_adding_roles_does_not_perturb(self):
        # deriving an extra stream must not change an existing one
        before = derive_rng(5, "train").random(4)
        derive_rng(5, "eval-9999").random(4)
        after = derive_rng(5, "train").random(4)
        assert (before == after).all()


class TestExperimentConfig:
    def test_from_file_and_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "master_seed": 1, "trainer": "ocdgr",
            "train_dataset": {"kind": "toy", "n_per_class": 10},
            "hyperparameters": {"n_h": 5},
        }))
        cfg = ExperimentConfig.from_file(path, {"master_seed": 7, "trainer": None})
        assert cfg.master_seed == 7 and cfg.trainer == "ocdgr"

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "master_seed": 1, "trainer": "ocdgr", "train_dataset": {"kind": "toy"},
            "bogus_key": 3,
        }))
        with pytest.raises(ConfigError, match="bogus_key"):
            ExperimentConfig.from_file(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(tmp_path / "absent.json")

    def test_every_hyperparameter_field_type_checked(self):
        # each field, given at its default, passes the JSON type check; a field
        # type the check does not know would raise TypeError here
        defaults = asdict(Hyperparameters(n_v=4, n_h=3))
        cfg = ExperimentConfig(master_seed=0, trainer="ocdgr",
                               train_dataset={"kind": "toy"}, hyperparameters=defaults)
        assert cfg.hyper(4) == Hyperparameters(n_v=4, n_h=3)
        for key, wrong in [("decay_biases", 1), ("n_epochs", True), ("n_cd", 1.0)]:
            cfg.hyperparameters = {**defaults, key: wrong}
            with pytest.raises(ConfigError, match=key):
                cfg.hyper(4)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(master_seed=0, trainer="ocdgr",
                             train_dataset={"kind": "toy"}, stream_order="bogus")
        with pytest.raises(ConfigError, match="unknown trainer 'bogus'"):
            ExperimentConfig(master_seed=0, trainer="bogus", train_dataset={"kind": "toy"})

    @pytest.mark.parametrize("spec, n_betas, n_chains", [
        ("paper", 14501, 100), ({"preset": "paper"}, 14501, 100), ({}, 1000, 100),
        ({"n_betas": 5}, 5, 100), ({"n_betas": 5, "n_chains": 3}, 5, 3)])
    def test_ais_schedule(self, spec, n_betas, n_chains):
        schedule = ais_schedule(spec)
        assert schedule.betas.size == n_betas and schedule.n_chains == n_chains
        assert schedule.betas[0] == 0.0 and schedule.betas[-1] == 1.0

    def test_deeply_nested_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("[" * 200_000)
        assert main(["train", "--config", str(path)]) == 2
        assert "c.json is not valid JSON" in capsys.readouterr().err


class TestLoadDataset:
    def test_toy_deterministic(self):
        spec = {"kind": "toy", "n_per_class": 20}
        a = load_dataset(spec, 3, "train")
        b = load_dataset(spec, 3, "train")
        assert (a.rows == b.rows).all()
        assert len(a) == 200

    def test_limit(self):
        batch = load_dataset({"kind": "toy", "n_per_class": 20, "limit": 15}, 3, "train")
        assert len(batch) == 15

    def test_text_kind(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 1\n1 0\n")
        batch = load_dataset({"kind": "text", "path": str(f)}, 0, "train")
        assert len(batch) == 2

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            load_dataset({"kind": "bogus"}, 0, "train")

    def test_spec_not_an_object(self):
        with pytest.raises(ConfigError, match=r"a dataset spec must be an object, got \[1\]"):
            load_dataset([1], 0, "test")


def write_toy_config(tmp_path, **extra):
    cfg = {
        "master_seed": 11,
        "trainer": "ocdgr",
        "train_dataset": {"kind": "toy", "n_per_class": 60},
        "test_dataset": {"kind": "toy", "n_per_class": 10},
        "stream_order": "sorted_by_class",
        "checkpoint_every": 100,
        "estimator": "exact",
        "hyperparameters": {"n_h": 8, "n_epochs": 2, "batch_size": 50, "replay_size": 50},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


class TestCmdTrain:
    def test_writes_model_and_metrics(self, tmp_path):
        path = write_toy_config(tmp_path)
        assert main(["train", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "model.rbm").exists()
        rows = read_csv(out / "metrics.csv")
        assert len(rows) == 6  # 600-point stream, checkpoint every 100
        assert rows[0]["trainer"] == "ocdgr"
        assert float(rows[-1]["mean_log_prob"]) < 0
        # every row embeds the resolved config and seed
        assert json.loads(rows[0]["config_json"])["master_seed"] == 11
        timing = read_csv(out / "timings.csv")
        assert len(timing) == 6 and float(timing[0]["wall_ms"]) > 0

    def test_checkpoints_score_stream_train_snapshots(self, tmp_path):
        # 150 rows in batches of 40: the checkpoint at 150 holds 30 pending rows,
        # and the final flush that follows it is not scored as a second checkpoint
        config = ExperimentConfig.from_file(write_toy_config(
            tmp_path, train_dataset={"kind": "toy", "n_per_class": 15}, checkpoint_every=75,
            hyperparameters={"n_h": 8, "n_epochs": 1, "batch_size": 40}))
        result = run_experiment(config)
        stream = order_stream(load_dataset(config.train_dataset, 11, "train"),
                              StreamOrder(config.stream_order, seed=11))
        test = load_dataset(config.test_dataset, 11, "test")
        params, snaps = stream_train("ocdgr", stream, result.hyper, 75, derive_rng(11, "train"))

        def mean_log_prob(p):
            return log_prob_report(p, test, exact_log_z(p)).mean_log_prob

        rows = result.checkpoint_rows
        assert [r["observed_count"] for r in rows] == [s.observed_count for s in snaps] == [75, 150]
        assert [r["mean_log_prob"] for r in rows] == [mean_log_prob(s.params) for s in snaps]
        assert result.final_report.mean_log_prob == mean_log_prob(params)
        assert rows[-1]["mean_log_prob"] != result.final_report.mean_log_prob

    def test_rerun_metrics_byte_identical(self, tmp_path):
        path = write_toy_config(tmp_path)
        assert main(["train", "--config", str(path)]) == 0
        first = (tmp_path / "out" / "metrics.csv").read_bytes()
        assert main(["train", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == first

    def test_missing_dataset_path_exit_2(self, tmp_path, capsys):
        path = write_toy_config(tmp_path, train_dataset={"kind": "text",
                                                         "path": str(tmp_path / "absent.txt")})
        assert main(["train", "--config", str(path)]) == 2
        assert "absent.txt" in capsys.readouterr().err

    def test_format_error_exit_3(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 2 1\n")
        path = write_toy_config(tmp_path, train_dataset={"kind": "text", "path": str(bad)},
                                test_dataset=None)
        assert main(["train", "--config", str(path)]) == 3


@pytest.mark.parametrize("config, named", [
    ({"hyperparameters": {"n_h": 8, "n_hidden": 4}}, "n_hidden"),
    ({"train_dataset": {"kind": "toy", "n_per_class": "x"}}, "n_per_class"),
    ({"hyperparameters": {"n_h": 8, "learning_rate": "fast"}}, "learning_rate"),
    (None, "JSON object"),  # top level is a list
    ({"train_dataset": {"kind": "text", "path": 0}}, "path"),  # would read standard input
    ({"train_dataset": {"kind": "text", "path": 5}}, "path"),  # would read file descriptor 5
    ({"train_dataset": {"kind": "idx", "images": 1, "labels": "l"}}, "images"),
    ({"master_seed": "x"}, "master_seed"),
    ({"master_seed": -1}, "master_seed"),
    ({"checkpoint_every": "x"}, "checkpoint_every"),
    ({"checkpoint_every": 0}, "checkpoint_every"),
    ({"ais": {"n_betas": "x"}}, "n_betas"),
    ({"ais": {"n_betas": 1}}, "n_betas"),
    ({"hyperparameters": {"n_h": 0}}, "n_h"),
    ({"hyperparameters": {"n_h": 8, "learning_rate": float("nan")}}, "learning_rate"),
    ({"bit_packed_memory": True}, "bit_packed_memory"),  # removed option: an unknown key
    ({"train_dataset": {"kind": "toy", "n_per_class": 60, "limit": -1}}, "limit"),
    ({"train_dataset": {"kind": "toy", "n_per_class": 60, "limit": 0}}, "limit"),
    ({"train_dataset": {"kind": "toy", "n_per_clas": 5}}, "n_per_clas"),
    ({"test_dataset": {"kind": "toy", "n_per_class": 10, "labels_path": "l"}}, "labels_path"),
    ({"train_dataset": {"kind": "text", "path": "d.txt", "binarize": "threshold"}}, "binarize"),
    ({"train_dataset": {"kind": "idx", "images": "i", "labels": "l", "path": "p"}}, "'path'"),
    ({"train_dataset": {"kind": ["toy"]}}, "unknown dataset kind ['toy']"),
], ids=["unknown_hyperparameter", "dataset_field_type", "hyperparameter_type", "top_level_list",
        "text_path_zero", "text_path_int", "idx_images_int", "master_seed_type",
        "master_seed_negative", "checkpoint_every_type", "checkpoint_every_zero",
        "n_betas_type", "n_betas_one", "n_h_zero", "learning_rate_nan",
        "bit_packed_memory_removed", "limit_negative", "limit_zero", "toy_key_misspelt",
        "toy_test_key_of_text", "text_key_of_idx", "idx_key_of_text", "kind_not_a_string"])
def test_train_config_errors_exit_2(tmp_path, capsys, config, named):
    path = write_toy_config(tmp_path, **(config or {}))
    if config is None:
        path.write_text(json.dumps([json.loads(path.read_text())]))
    assert main(["train", "--config", str(path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("field", ["n_per_class", "n_classes", "block"])
def test_toy_count_below_one_exit_2_names_field(tmp_path, capsys, field):
    with pytest.raises(ConfigError, match=f"^dataset spec field '{field}' must be >= 1, got 0$"):
        load_dataset({"kind": "toy", field: 0}, 0, "train")
    path = write_toy_config(tmp_path, train_dataset={"kind": "toy", field: 0})
    assert main(["train", "--config", str(path)]) == 2
    assert f"error: dataset spec field '{field}' must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("ais", ["fast", 1000, None, ["paper"], {"preset": "fast"},
                                 {"n_beta": 500}])
def test_train_bad_ais_spec_exit_2_before_training(tmp_path, capsys, monkeypatch, ais):
    def no_training(*args, **kwargs):
        raise AssertionError("stream_states called despite a bad ais spec")
    monkeypatch.setattr("ocdgr.cli.stream_states", no_training)
    path = write_toy_config(tmp_path, ais=ais)
    assert main(["train", "--config", str(path)]) == 2
    assert "ais" in capsys.readouterr().err


def test_train_non_utf8_text_exit_3(tmp_path, capsys):
    data = tmp_path / "d.txt"
    data.write_bytes(b"# \xfe is skipped in a comment\n0 1\n\xff 1\n")
    path = write_toy_config(tmp_path, test_dataset=None,
                            train_dataset={"kind": "text", "path": str(data)})
    assert main(["train", "--config", str(path)]) == 3
    assert "d.txt: non-binary token '\\udcff' at line 3" in capsys.readouterr().err


def test_train_blow_up_exit_1_one_line(tmp_path, capsys):
    path = write_toy_config(tmp_path, hyperparameters={"n_h": 8, "learning_rate": 1e300})
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: update procedure t=1 failed after 100 observations: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("labels_text, named", [
    ("1\n2\n3\n", ["labels.txt: holds 3 labels, ", "d.txt has 2 rows"]),
    ("1\n2.5\n", ["labels.txt: could not convert string '2.5'"]),
], ids=["count_mismatch", "not_an_integer"])
def test_train_bad_labels_file_exit_3(tmp_path, capsys, labels_text, named):
    data, labels = tmp_path / "d.txt", tmp_path / "labels.txt"
    data.write_text("0 1\n1 0\n")
    labels.write_text(labels_text)
    path = write_toy_config(tmp_path, test_dataset=None, train_dataset={
        "kind": "text", "path": str(data), "labels_path": str(labels)})
    assert main(["train", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert all(part in err for part in named)


@pytest.mark.parametrize("command, flag, value", [
    ("evaluate", "--seed", "-1"),
    ("evaluate", "--test-dataset", "{nope"),
    ("evaluate", "--ais", "{nope"),
    ("generate", "--seed", "-1"),
    ("generate", "-n", "0"),
    ("generate", "--gibbs-steps", "0"),
    ("generate", "--seed", "x"),
    ("toy-demo", "--seed", "-1"),
    ("toy-demo", "--n-h", "0"),
    ("train", "--seed", "-1"),
    ("train", "--seed", "x"),
    ("train", "--checkpoint-every", "0"),
    ("compare", "--seed", "-1"),
    ("compare", "--trainers", "bogus"),
])
def test_out_of_range_flag_exit_2(tmp_path, capsys, command, flag, value):
    model = tmp_path / "m.rbm"
    save_model(model, init_params(6, 2, 0.1, rng()))
    config = write_toy_config(tmp_path)
    args = {"evaluate": ["--model", str(model), "--estimator", "exact",
                         "--test-dataset", '{"kind": "toy"}'],
            "generate": ["--model", str(model), "-n", "3", "--out", str(tmp_path / "s.txt")],
            "toy-demo": ["--n-per-class", "10"],
            "train": ["--config", str(config)],
            "compare": ["--config", str(config), "--out", str(tmp_path / "c.csv")]}[command]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *args, flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


TOY_5 = '{"kind": "toy", "n_per_class": 5}'


@pytest.mark.parametrize("flag, value, named", [
    ("--ais", '{"n_betas": 1}', "ais field 'n_betas' must be >= 2"),
    ("--ais", '{"n_chains": 0}', "ais field 'n_chains' must be >= 1"),
    ("--test-dataset", '{"kind": "toy", "n_per_class": 5, "limit": -1}',
     "dataset spec field 'limit' must be >= 1"),
    ("--test-dataset", '{"kind": "toy", "n_per_class": 5, "limit": 0}',
     "dataset spec field 'limit' must be >= 1"),
    ("--test-dataset", '{"kind": "toy", "n_per_class": 0}', "n_per_class"),
    ("--test-dataset", "[1]", "a dataset spec must be an object, got [1]"),
], ids=["n_betas_1", "n_chains_0", "limit_negative", "limit_zero", "toy_n_per_class_0",
        "spec_not_an_object"])
def test_evaluate_bad_spec_exit_2(tmp_path, capsys, flag, value, named):
    model = tmp_path / "m.rbm"
    save_model(model, init_params(100, 2, 0.1, rng()))
    specs = {"--ais": "{}", "--test-dataset": TOY_5, flag: value}
    argv = ["evaluate", "--model", str(model), "--estimator", "exact"]
    assert main([*argv, *(token for item in specs.items() for token in item)]) == 2
    assert named in capsys.readouterr().err


def test_readme_cli_examples_parse():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("ocdgr ")]
    assert len(commands) == 5
    for command in commands:
        argv = shlex.split(re.sub(r"\[(-[^\]]*)\]", r"\1", command))
        build_parser().parse_args(argv[1:])  # a flag the parser lacks exits 2


class TestCmdEvaluate:
    def test_uniform_model_mean_log_prob(self, tmp_path):
        # a zero-parameter model is uniform: log p(v) = -n_v * ln 2 for every v
        params = init_params(100, 4, 0.0, rng())
        model = tmp_path / "m.rbm"
        save_model(model, params)
        out = tmp_path / "report.json"
        code = main(["evaluate", "--model", str(model), "--estimator", "exact",
                     "--test-dataset", TOY_5, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["mean_log_prob"] == pytest.approx(-100 * np.log(2))

    def test_exact_infeasible_exit_4(self, tmp_path, capsys):
        params = init_params(100, 30, 0.01, rng(1))
        model = tmp_path / "m.rbm"
        save_model(model, params)
        code = main(["evaluate", "--model", str(model), "--estimator", "exact",
                     "--test-dataset", TOY_5])
        assert code == 4
        assert "ais" in capsys.readouterr().err

    def test_width_mismatch_exit_2(self, tmp_path, capsys):
        model = tmp_path / "m.rbm"
        save_model(model, init_params(7, 3, 0.1, rng()))
        code = main(["evaluate", "--model", str(model), "--estimator", "exact",
                     "--test-dataset", TOY_5])
        assert code == 2
        err = capsys.readouterr().err
        assert "width 100" in err and "m.rbm has n_v = 7" in err

    def test_ais_close_to_exact(self, tmp_path, capsys):
        params = init_params(100, 8, 0.05, rng(2))
        model = tmp_path / "m.rbm"
        save_model(model, params)
        out_e, out_a = tmp_path / "e.json", tmp_path / "a.json"
        assert main(["evaluate", "--model", str(model), "--estimator", "exact",
                     "--test-dataset", TOY_5, "--out", str(out_e)]) == 0
        assert main(["evaluate", "--model", str(model), "--estimator", "ais",
                     "--ais", '{"n_betas": 500, "n_chains": 50}',
                     "--test-dataset", TOY_5, "--out", str(out_a)]) == 0
        exact = json.loads(out_e.read_text())
        ais = json.loads(out_a.read_text())
        tol = max(0.05, 3 * ais["log_z_std"])
        assert abs(ais["log_z"] - exact["log_z"]) <= tol

    def test_text_set_with_labels_per_class_mean(self, tmp_path):
        params = init_params(3, 2, 0.1, rng(5))
        model = tmp_path / "m.rbm"
        save_model(model, params)
        data, labels, out = tmp_path / "d.txt", tmp_path / "labels.txt", tmp_path / "r.json"
        data.write_text("0 1 1\n1 0 0\n1 1 1\n0 0 1\n")
        labels.write_text("4\n7\n4\n9\n")
        spec = json.dumps({"kind": "text", "path": str(data), "labels_path": str(labels)})
        assert main(["evaluate", "--model", str(model), "--estimator", "exact",
                     "--test-dataset", spec, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert sorted(report["per_class_mean"]) == ["4", "7", "9"]
        assert np.isfinite(report["cross_class_std"])


class TestCmdGenerate:
    def test_deterministic_and_loadable(self, tmp_path):
        from ocdgr import load_binary_text
        params = init_params(20, 6, 0.0, rng(3))
        model = tmp_path / "m.rbm"
        save_model(model, params)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert main(["generate", "--model", str(model), "-n", "200",
                         "--seed", "4", "--out", str(out)]) == 0
        assert a.read_text() == b.read_text()
        batch = load_binary_text(a)
        assert len(batch) == 200 and batch.n_v == 20
        assert 0.4 < batch.rows.mean() < 0.6  # zero model: bits near one half


    @pytest.mark.parametrize("command", ["generate", "evaluate"])
    def test_corrupt_model_metadata_exit_3(self, tmp_path, capsys, command):
        model = tmp_path / "m.rbm"
        save_model(model, init_params(6, 2, 0.1, rng()))
        model.write_bytes(model.read_bytes()[:-6] + b"\x01\x00\x00\x00{")  # metadata "{"
        args = {"generate": ["-n", "3", "--out", str(tmp_path / "s.txt")],
                "evaluate": ["--test-dataset", '{"kind": "toy"}']}[command]
        assert main([command, "--model", str(model), *args]) == 3
        assert "m.rbm: metadata block at offset" in capsys.readouterr().err

    def test_deeply_nested_model_metadata_exit_3(self, tmp_path, capsys):
        model = tmp_path / "m.rbm"
        save_model(model, init_params(6, 2, 0.1, rng()))
        data = model.read_bytes()  # metadata "{}" ends the file
        blob = b"[" * 200_000
        model.write_bytes(data[:-6] + len(blob).to_bytes(4, "little") + blob)
        assert main(["generate", "--model", str(model), "-n", "3",
                     "--out", str(tmp_path / "s.txt")]) == 3
        assert f"m.rbm: metadata block at offset {len(data) - 2}" in capsys.readouterr().err


class TestCmdCompare:
    def test_schema_and_reference_annotations(self, tmp_path):
        cfg = write_toy_config(tmp_path)
        out = tmp_path / "compare.csv"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["trainer"] for r in rows] == ["ocdgr", "er_ml", "er_im"]
        by_trainer = {r["trainer"]: r for r in rows}
        assert float(by_trainer["ocdgr"]["reference_value"]) == -114.52
        assert float(by_trainer["er_im"]["reference_value"]) == -151.67
        assert float(by_trainer["er_ml"]["reference_value"]) == -167.11
        for r in rows:
            assert r["reference_source"]
            assert "not asserted" in r["reference_source"]
            assert float(r["mean_log_prob"]) < 0
            assert int(r["peak_memory_scalars"]) > 0
            assert np.isfinite(float(r["cross_class_std"]))

    def test_no_test_set_exit_2_before_training(self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("stream_states called without a test set")
        monkeypatch.setattr("ocdgr.cli.stream_states", no_training)
        cfg = write_toy_config(tmp_path, test_dataset=None)
        out = tmp_path / "compare.csv"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
        assert "compare needs a test_dataset" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_replay_degenerate_equality(self, tmp_path):
        cfg = write_toy_config(tmp_path, hyperparameters={
            "n_h": 8, "n_epochs": 2, "batch_size": 50, "replay_size": 0})
        out = tmp_path / "compare.csv"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out)
        values = {r["mean_log_prob"] for r in rows}
        assert len(values) == 1  # all trainers identical without replay

    def test_peak_memory_counts_every_state(self, tmp_path):
        # 300 rows never reach the default checkpoint_every of 1,000, and the
        # 20 rows left after the last full batch are trained by the final flush
        cfg = write_toy_config(tmp_path, train_dataset={"kind": "toy", "n_per_class": 30},
                               hyperparameters={"n_h": 8, "n_epochs": 1, "batch_size": 40})
        spec = json.loads(cfg.read_text())
        del spec["checkpoint_every"]
        cfg.write_text(json.dumps(spec))
        out = tmp_path / "compare.csv"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        n_v, n_h = 100, 8
        p = n_v * n_h + n_v + n_h
        by_trainer = {r["trainer"]: int(r["peak_memory_scalars"]) for r in read_csv(out)}
        assert by_trainer == {"ocdgr": 2 * p,
                              "er_ml": 2 * p + er_ml_capacity(n_v, n_h) * n_v,
                              "er_im": 2 * p + 300 * n_v}

    def test_memory_column_ordering(self, tmp_path):
        cfg = write_toy_config(tmp_path)
        out = tmp_path / "compare.csv"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        by_trainer = {r["trainer"]: int(r["peak_memory_scalars"]) for r in read_csv(out)}
        assert by_trainer["er_im"] > by_trainer["ocdgr"]


class TestToyDemo:
    def test_smoke(self, capsys):
        assert main(["toy-demo", "--n-per-class", "100", "--n-h", "10", "--seed", "0"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("after class")]
        assert len(lines) == 10


class TestReferenceTable:
    def test_reference_values_present(self):
        assert REFERENCE_FINAL_LOG_PROB == {"ocdgr": -114.52, "er_im": -151.67, "er_ml": -167.11}
