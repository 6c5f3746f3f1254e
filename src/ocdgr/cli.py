"""Command-line front end: train, evaluate, generate, compare, toy-demo.

Exit codes: 0 success, 2 usage/config error, 3 data format error,
4 numerical infeasibility. Exit 1 remains for a numerical blow-up during
training; its message names the procedure index t and the observed count.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .config import ExperimentConfig, ais_schedule, derive_rng, load_dataset
from .data import StreamOrder, order_stream, toy_generate
from .errors import ConfigError, FormatError, InfeasibleSizeError, OcdgrError
from .evaluation import (
    AisSchedule,
    EvaluationReport,
    class_histogram,
    exact_log_z,
    ais_log_z,
    test_log_prob_report,
)
from .model import Hyperparameters, RbmParameters, load_model, save_model
from .online import TRAINER_KINDS, generate_replay, stream_train

# Published final mean test log-probabilities on MNIST (500 hidden units,
# CD-1, random stream order), carried as annotations only; nothing asserts
# against them at desk scale.
REFERENCE_FINAL_LOG_PROB = {"ocdgr": -114.52, "er_im": -151.67, "er_ml": -167.11}
REFERENCE_SOURCE = "published reference: MNIST, n_h=500, n_CD=1, random order (not asserted)"


def _estimate_log_z(params, estimator, schedule: AisSchedule, rng):
    if estimator == "exact":
        return exact_log_z(params), 0.0
    return ais_log_z(params, schedule, rng)


class ExperimentResult(NamedTuple):
    """What one run of run_experiment yields to its callers."""

    params: RbmParameters
    hyper: Hyperparameters
    checkpoint_rows: list[dict]  # one per checkpoint: its test-set report, count and wall time
    final_report: Optional[EvaluationReport]  # None without a test set
    resolved_config: dict
    total_ms: float
    peak_memory_scalars: int


def run_experiment(config: ExperimentConfig,
                   evaluate_checkpoints: bool = True) -> ExperimentResult:
    """Train one model per config and evaluate its checkpoints."""
    t0 = time.perf_counter()
    train = load_dataset(config.train_dataset, config.master_seed, "train")
    test = load_dataset(config.test_dataset, config.master_seed, "test") if config.test_dataset else None
    stream = order_stream(train, StreamOrder(config.stream_order, seed=config.master_seed))
    hyper = config.hyper(train.n_v)
    resolved = config.resolved(hyper)
    schedule = ais_schedule(config.ais)

    train_rng = derive_rng(config.master_seed, "train")
    params, snapshots = stream_train(config.trainer, stream, hyper, config.checkpoint_every,
                                     train_rng)

    rows = []
    if evaluate_checkpoints and test is not None:
        for snap in snapshots:
            eval_rng = derive_rng(config.master_seed, f"eval-{snap.observed_count}")
            log_z, log_z_std = _estimate_log_z(snap.params, config.estimator, schedule, eval_rng)
            report = test_log_prob_report(snap.params, test, log_z, log_z_std)
            rows.append({
                "observed_count": snap.observed_count,
                "trainer": config.trainer,
                "log_z_estimate": log_z,
                **report.to_dict(),
                "wall_ms": (time.perf_counter() - t0) * 1000.0,
            })

    final_report = None
    if test is not None:
        eval_rng = derive_rng(config.master_seed, "eval-final")
        log_z, log_z_std = _estimate_log_z(params, config.estimator, schedule, eval_rng)
        final_report = test_log_prob_report(params, test, log_z, log_z_std)

    peak_memory = max((s.live_scalar_count for s in snapshots), default=0)
    return ExperimentResult(params, hyper, rows, final_report, resolved,
                            (time.perf_counter() - t0) * 1000.0, peak_memory)


def _write_csv(path, fieldnames, rows):
    """Write rows as CSV with fieldnames as columns; other keys in a row are left out."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


METRIC_FIELDS = ["observed_count", "trainer", "log_z_estimate", "log_z_std",
                 "mean_log_prob", "cross_class_std", "master_seed", "config_json"]
TIMING_FIELDS = ["observed_count", "wall_ms", "master_seed", "config_json"]
COMPARE_FIELDS = ["trainer", "mean_log_prob", "log_z", "log_z_std", "cross_class_std",
                  "peak_memory_scalars", "wall_ms", "reference_value", "reference_source",
                  "master_seed", "config_json"]


def cmd_train(args) -> int:
    config = ExperimentConfig.from_file(args.config, {
        "trainer": args.trainer,
        "master_seed": args.seed,
        "output_dir": args.output_dir,
        "checkpoint_every": args.checkpoint_every,
    })
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_experiment(config)

    config_json = json.dumps(result.resolved_config, sort_keys=True)
    model_path = out_dir / "model.rbm"
    save_model(model_path, result.params, result.hyper,
               extra={"experiment_config": result.resolved_config})

    rows = [{**row, "master_seed": config.master_seed, "config_json": config_json}
            for row in result.checkpoint_rows]
    _write_csv(out_dir / "metrics.csv", METRIC_FIELDS, rows)
    # wall-clock measurements vary run to run, so they live in their own file
    # and metrics.csv stays byte-identical across reruns of the same config
    _write_csv(out_dir / "timings.csv", TIMING_FIELDS, rows)

    print(f"trained {config.trainer}: model -> {model_path}, "
          f"{len(rows)} checkpoint rows -> {out_dir / 'metrics.csv'}")
    if result.final_report is not None:
        print(f"final mean test log-prob: {result.final_report.mean_log_prob:.4f} nats")
    return 0


def cmd_evaluate(args) -> int:
    schedule = ais_schedule(args.ais)
    params, meta = load_model(args.model)
    test = load_dataset(args.test_dataset, args.seed, "test")
    if test.n_v != params.n_v:
        raise ConfigError(f"test rows have width {test.n_v}, but model {args.model} "
                          f"has n_v = {params.n_v}")
    rng = derive_rng(args.seed, "evaluate")
    log_z, log_z_std = _estimate_log_z(params, args.estimator, schedule, rng)
    report = test_log_prob_report(params, test, log_z, log_z_std)
    text = json.dumps({
        **report.to_dict(),
        "model": str(args.model),
        "estimator": args.estimator,
        "master_seed": args.seed,
        "model_metadata": meta,
    }, sort_keys=True, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def cmd_generate(args) -> int:
    params, meta = load_model(args.model)
    rng = derive_rng(args.seed, "generate")
    batch = generate_replay(params, args.n, args.gibbs_steps, rng)
    header = json.dumps({
        "model": str(args.model), "n": args.n, "gibbs_steps": args.gibbs_steps,
        "master_seed": args.seed, "model_metadata": meta,
    }, sort_keys=True)
    np.savetxt(args.out, batch.rows, fmt="%d", header=header)
    print(f"wrote {args.n} samples -> {args.out}")
    return 0


def cmd_compare(args) -> int:
    config = ExperimentConfig.from_file(args.config, {"master_seed": args.seed})
    if not config.test_dataset:
        raise ConfigError("compare needs a test_dataset in the config")
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for trainer in args.trainers:
        cfg = dataclasses.replace(config, trainer=trainer)
        result = run_experiment(cfg, evaluate_checkpoints=False)
        report = result.final_report
        rows.append({
            **report.to_dict(),
            "trainer": trainer,
            "peak_memory_scalars": result.peak_memory_scalars,
            "wall_ms": result.total_ms,
            "reference_value": REFERENCE_FINAL_LOG_PROB.get(trainer, ""),
            "reference_source": REFERENCE_SOURCE,
            "master_seed": cfg.master_seed,
            "config_json": json.dumps(result.resolved_config, sort_keys=True),
        })
        print(f"{trainer}: mean_log_prob={report.mean_log_prob:.4f} "
              f"peak_memory_scalars={result.peak_memory_scalars}")
    _write_csv(out_path, COMPARE_FIELDS, rows)
    print(f"comparison -> {out_path}")
    return 0


def cmd_toy_demo(args) -> int:
    """Class-incremental toy run: train class by class, report generated-sample
    class histograms after each stage."""
    rng = derive_rng(args.seed, "toy-demo")
    data = toy_generate(args.n_per_class, rng=rng)
    hyper = Hyperparameters(n_v=data.n_v, n_h=args.n_h)
    stream = order_stream(data, StreamOrder("sorted_by_class"))
    params, snapshots = stream_train(
        "ocdgr", stream, hyper, checkpoint_every=args.n_per_class,
        rng=derive_rng(args.seed, "train"),
    )
    proto_rng = derive_rng(args.seed, "prototypes")
    proto_idx = np.concatenate([
        proto_rng.choice(np.where(data.labels == c)[0], size=min(100, args.n_per_class), replace=False)
        for c in np.unique(data.labels)
    ])
    prototypes = data.take(proto_idx)
    for stage, snap in enumerate(snapshots, start=1):
        gen = generate_replay(snap.params, 1000, hyper.n_gibbs,
                              derive_rng(args.seed, f"gen-{stage}"))
        hist = class_histogram(gen, prototypes, k=1)
        counts = " ".join(f"{c}:{hist.get(c, 0)}" for c in range(1, 11))
        print(f"after class {stage}: {counts}")
    return 0


def _int_at_least(minimum: int):
    """argparse type: an int no smaller than minimum, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


_SEED = _int_at_least(0)
_COUNT = _int_at_least(1)


def _json_value(text: str):
    """argparse type: one JSON value, else a usage error (exit 2)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise argparse.ArgumentTypeError(f"not valid JSON: {e}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ocdgr",
                                     description="Online RBM training with generative replay")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--trainer", choices=TRAINER_KINDS)
    p.add_argument("--seed", type=_SEED)
    p.add_argument("--output-dir")
    p.add_argument("--checkpoint-every", type=_COUNT)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="log-probability report for a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--estimator", choices=("exact", "ais"), default="ais")
    # both take the JSON value of the config key of the same name
    p.add_argument("--ais", type=_json_value, default={}, metavar="SPEC")
    p.add_argument("--test-dataset", type=_json_value, required=True, metavar="SPEC")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("generate", help="sample visible vectors from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("-n", type=_COUNT, required=True)
    p.add_argument("--gibbs-steps", type=_COUNT, default=1)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("compare", help="run several trainers on one dataset and compare")
    p.add_argument("--config", required=True)
    p.add_argument("--trainers", nargs="+", choices=TRAINER_KINDS, default=list(TRAINER_KINDS))
    p.add_argument("--seed", type=_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("toy-demo", help="class-incremental toy scenario demo")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--n-per-class", type=_COUNT, default=1000)
    p.add_argument("--n-h", type=_COUNT, default=50)
    p.set_defaults(func=cmd_toy_demo)

    return parser


# The exit code of an error that ends a command; the first row it is an instance of wins.
EXIT_CODES = ((ConfigError, 2), (FileNotFoundError, 2), (FormatError, 3),
              (InfeasibleSizeError, 4), (OcdgrError, 1))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OcdgrError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(e, kind))


if __name__ == "__main__":
    sys.exit(main())
