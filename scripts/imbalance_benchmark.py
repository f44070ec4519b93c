#!/usr/bin/env python3
"""Imbalance benefit benchmark on the 16.2%-positive binary task.

Compares the ratio-tracked balanced loss against plain-CE and focal-loss
FedAvg baselines, reporting overall accuracy and minority-class accuracy
per seed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fedimt.cli import seed_list
from fedimt.config import ConfigError, parse_config
from fedimt.federation import STRATEGIES, _build_datasets, derive_seed, minority_classes_of, run_experiment

DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "ford_imbalance.cfg")

ARMS = {
    "fedimt": {"algorithm": "fedimt"},
    "fedavg-ce": {"algorithm": "baseline", "baseline_loss": "plain_ce"},
    "fedavg-focal": {"algorithm": "baseline", "baseline_loss": "focal"},
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=DEFAULT_CONFIG)
    parser.add_argument("--seeds", type=seed_list, default="0,1,2", help="comma-separated seeds")
    parser.add_argument("--strategy", choices=STRATEGIES, default=None, help="override aggregation strategy")
    args = parser.parse_args()

    seeds = args.seeds
    strategy = {"strategy": args.strategy} if args.strategy else {}
    try:  # every arm's config, so a rule an override breaks stops the script before the first run
        configs = {arm: parse_config(args.config, **overrides, **strategy) for arm, overrides in ARMS.items()}
    except ConfigError as exc:
        sys.exit(f"error: {exc}")
    for seed in seeds:  # reject a bad seed before the first run
        try:
            derive_seed(seed)
        except ValueError as exc:
            sys.exit(f"error: {exc}")
    train, _ = _build_datasets(configs["fedimt"], seeds[0])
    if len(minority_classes_of(train.class_counts())) == 0:
        sys.exit(f"error: {args.config}: no class is below the mean count, so there is no minority accuracy")
    results: dict[str, dict[int, tuple[float, float]]] = {arm: {} for arm in ARMS}
    for arm, config in configs.items():
        for seed in seeds:
            report = run_experiment(config, seed=seed)
            results[arm][seed] = (
                report.summary["final_acc"],
                report.summary["final_acc_minority"],
            )

    header = f"{'seed':>4}" + "".join(f" {arm + ' acc':>16} {arm + ' accM':>16}" for arm in ARMS)
    print(header)
    for seed in seeds:
        row = f"{seed:>4}"
        for arm in ARMS:
            acc, acc_m = results[arm][seed]
            row += f" {acc:>16.4f} {acc_m:>16.4f}"
        print(row)

    gains = [results["fedimt"][s][1] - results["fedavg-ce"][s][1] for s in seeds]
    print(f"\nminority-accuracy gain over plain CE: mean {np.mean(gains):+.4f}, min {min(gains):+.4f}")


if __name__ == "__main__":
    main()
