"""Command-line front end.

Subcommands:
    run           execute one seeded experiment from a config file
    sweep         repeat an experiment over several seeds, plus an aggregate
    estimate-only run the estimation-accuracy protocol (no test evaluation)
    gen-data      materialize a config's synthetic dataset as IDX files

Exit codes: 0 success, 2 bad arguments, 1 anything else (one-line reason on
stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import ConfigError, ExperimentConfig, parse_config
from .data import write_idx
from .federation import _build_datasets, run_experiment
from .metrics import SUMMARY_FLOATS, write_metrics


def _default_paths(config: ExperimentConfig, config_path: str) -> tuple[str, str]:
    stem = os.path.splitext(os.path.basename(config_path))[0]
    csv_path = config.csv_path or f"{stem}.csv"
    json_path = config.json_path or f"{stem}.json"
    return csv_path, json_path


def _with_seed_suffix(path: str, seed: int) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}_s{seed}{ext}"


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _run_one(config: ExperimentConfig, seed: int, csv_path: str, json_path: str) -> dict:
    report = run_experiment(config, seed=seed)
    _ensure_parent(csv_path)
    _ensure_parent(json_path)
    write_metrics(report, csv_path, json_path)
    return report.summary


def _summary_line(seed: int, summary: dict) -> str:
    parts = [f"seed={seed}"]
    for key in SUMMARY_FLOATS:
        value = summary.get(key)
        if value is not None:
            parts.append(f"{key}={value:.4f}")
    parts.append(f"drops={summary.get('drop_count', 0)}")
    return " ".join(parts)


def cmd_run(args: argparse.Namespace) -> int:
    """`run`, and `estimate-only`: fedimt without the test evaluation."""
    config = parse_config(args.config)
    if args.estimate_only:
        config.fl.algorithm = "fedimt"
        config.skip_eval = True
    seed = config.seed if args.seed is None else args.seed
    csv_path, json_path = _default_paths(config, args.config)
    summary = _run_one(config, seed, csv_path, json_path)
    print(_summary_line(seed, summary))
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    else:
        seeds = config.seeds or [config.seed]
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    csv_base, json_base = _default_paths(config, args.config)
    summaries = {}
    for seed in seeds:
        csv_path = _with_seed_suffix(csv_base, seed)
        json_path = _with_seed_suffix(json_base, seed)
        summaries[seed] = _run_one(config, seed, csv_path, json_path)
        print(_summary_line(seed, summaries[seed]))
    aggregate = {
        "seeds": seeds,
        "per_seed": {str(s): summaries[s] for s in seeds},
        "mean": {
            key: float(np.mean([summaries[s][key] for s in seeds]))
            for key in SUMMARY_FLOATS
            if all(summaries[s].get(key) is not None for s in seeds)
        },
    }
    agg_path = os.path.splitext(json_base)[0] + "_sweep.json"
    _ensure_parent(agg_path)
    with open(agg_path, "w", encoding="utf-8") as f:
        json.dump(aggregate, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote aggregate {agg_path}")
    return 0


def cmd_gen_data(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    if config.data_source != "synthetic":
        raise ConfigError("gen-data needs a synthetic data source")
    dataset, _ = _build_datasets(config, config.seed)
    # IDX stores ubyte pixels; map features onto [0, 1] before quantizing.
    low = dataset.features.min()
    high = dataset.features.max()
    span = high - low if high > low else 1.0
    dataset.features = (dataset.features - low) / span
    _ensure_parent(args.images)
    _ensure_parent(args.labels)
    write_idx(dataset, args.images, args.labels)
    print(f"wrote {len(dataset)} samples to {args.images} / {args.labels}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedimt",
        description="Imbalance-aware federated learning experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one seeded experiment")
    run.add_argument("--config", required=True, help="experiment config file")
    run.add_argument("--seed", type=int, default=None, help="override config seed")
    run.set_defaults(func=cmd_run, estimate_only=False)

    sweep = sub.add_parser("sweep", help="repeat over seeds and aggregate")
    sweep.add_argument("--config", required=True, help="experiment config file")
    sweep.add_argument("--seeds", default=None, help="comma-separated seeds")
    sweep.set_defaults(func=cmd_sweep)

    est = sub.add_parser(
        "estimate-only", help="estimation-accuracy run (skips test evaluation)"
    )
    est.add_argument("--config", required=True, help="experiment config file")
    est.add_argument("--seed", type=int, default=None, help="override config seed")
    est.set_defaults(func=cmd_run, estimate_only=True)

    gen = sub.add_parser("gen-data", help="write a synthetic dataset as IDX files")
    gen.add_argument("--config", required=True, help="config with a synthetic source")
    gen.add_argument("--images", required=True, help="output IDX image file")
    gen.add_argument("--labels", required=True, help="output IDX label file")
    gen.set_defaults(func=cmd_gen_data)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
