#!/usr/bin/env python3
"""SHA-256 of the CSV and JSON bytes that fedimt writes, one line per run.

Covers the three shipped synthetic configs at seed 0 and the benchmark's
three workloads at the given seeds: tenclass_train, manyclass_server and
ford_focal_prox, the baseline run whose report leaves the estimator columns
empty and its JSON fields null. Two trees
whose outputs must be byte-identical print identical lines, so comparing a
change against its parent is a diff of two outputs:

    python3 scripts/output_digest.py --seeds 0-4,1000-1009 > digests.txt

The fedimt sources are taken from src/ next to this directory, and the
workload configs are read from fedbench/workloads.py without changing it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ("estimation_10class", "ford_imbalance", "har_nlatest")
WORKLOADS = ("tenclass_train", "manyclass_server", "ford_focal_prox")

sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "fedbench")]

from fedimt.config import parse_config  # noqa: E402
from fedimt.federation import run_experiment  # noqa: E402
from fedimt.metrics import write_metrics  # noqa: E402
from workloads import config_text  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """'0-4,1000' -> [0, 1, 2, 3, 4, 1000]."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.strip().partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def digest(config_path: Path, seed: int, work: Path) -> str:
    report = run_experiment(parse_config(str(config_path)), seed=seed)
    csv_path, json_path = work / "report.csv", work / "report.json"
    write_metrics(report, str(csv_path), str(json_path))
    return hashlib.sha256(csv_path.read_bytes() + json_path.read_bytes()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0", help="workload seeds, e.g. 0-4,1000-1009")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in SHIPPED:
            print(f"{name} seed=0 {digest(ROOT / 'configs' / f'{name}.cfg', 0, work)}", flush=True)
        for name in WORKLOADS:
            for seed in parse_seeds(args.seeds):
                cfg = work / f"{name}.cfg"
                cfg.write_text(config_text(name, seed), encoding="utf-8")
                print(f"{name} seed={seed} {digest(cfg, seed, work)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
