#!/usr/bin/env python3
"""Estimation-accuracy benchmark: per-round and tracked-ratio cosine scores.

Runs the 10-class shard-partitioned protocol (15 of 50 clients per round,
5 local epochs, 50 rounds, momentum off) over several seeds and prints the
per-round similarity T_j and the observer-vs-global similarity T_G, averaged
over the settled rounds (10 onward).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fedimt.cli import estimation_config, seed_list
from fedimt.config import ConfigError
from fedimt.federation import _build_datasets, derive_seed, run_experiment

DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "estimation_10class.cfg")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=DEFAULT_CONFIG)
    parser.add_argument("--seeds", type=seed_list, default="0,1,2", help="comma-separated seeds")
    parser.add_argument("--settle", type=int, default=10, help="first round included in averages")
    args = parser.parse_args()
    try:  # the protocol `fedimt estimate-only` runs
        config = estimation_config(args.config)
    except ConfigError as exc:
        sys.exit(f"error: {exc}")
    rounds = config.fl.rounds
    if not 1 <= args.settle <= rounds:  # round 0 has no T_j, and past the last round none are left
        parser.error(f"argument --settle: must lie in [1, {rounds}] for {rounds} rounds, got {args.settle}")

    seeds = args.seeds
    for seed in seeds:  # reject a bad seed before the first run
        try:
            derive_seed(seed)
        except ValueError as exc:
            sys.exit(f"error: {exc}")
    train, _ = _build_datasets(config, seeds[0])
    if train.num_classes < 2:  # fedimt tracks no ratio for one class, so there is no T_j
        sys.exit(f"error: {args.config}: the task has one class, so there is no class ratio to estimate")
    print(f"{'seed':>4} {'mean T_j':>9} {'mean T_G':>9} {'min T_G':>8} {'drops':>6}")
    tj_all, tg_all = [], []
    for seed in seeds:
        report = run_experiment(config, seed=seed)
        late = report.records[args.settle :]
        tj = np.array([r.t_round for r in late])
        tg = np.array([r.t_global for r in late])
        tj_all.append(tj.mean())
        tg_all.append(tg.mean())
        print(
            f"{seed:>4} {tj.mean():>9.4f} {tg.mean():>9.4f} {tg.min():>8.4f} "
            f"{report.summary['drop_count']:>6}"
        )
    print(f"\nacross seeds: mean T_j {np.mean(tj_all):.4f}, mean T_G {np.mean(tg_all):.4f}")


if __name__ == "__main__":
    main()
