#!/usr/bin/env python3
"""SHA-256 of the CSV and JSON bytes that fedimt writes, one line per run.

Covers the three shipped synthetic configs at seed 0 and the benchmark's
three workloads at the given seeds: tenclass_train, manyclass_server and
ford_focal_prox, the baseline run whose report leaves the estimator columns
empty and its JSON fields null. Two trees
whose outputs must be byte-identical print identical lines:

    python3 scripts/output_digest.py --seeds 0-4,1000-1009

With --base REV the script also checks out REV as a detached git worktree in
a temporary directory, runs that tree's own copy of this script with the same
--seeds, prints the lines that differ, removes the worktree, and exits 1 if
any line differs:

    python3 scripts/output_digest.py --seeds 0-4,1000-1009 --base HEAD~1

The fedimt sources are taken from src/ next to this directory, and the
workload configs are read from fedbench/workloads.py without changing it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import subprocess
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
    """'0-4,1000' -> [0, 1, 2, 3, 4, 1000]. An empty part, a part that is
    neither a seed nor a range, and a reversed range are usage errors, so
    the seeds never quietly come out empty."""
    seeds = []
    for part in text.split(","):
        low, dash, high = part.strip().partition("-")
        try:
            first, last = int(low), int(high if dash else low)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated seeds or ranges a-b, got {text!r}") from None
        if last < first:
            raise argparse.ArgumentTypeError(f"range {part.strip()!r} runs backwards")
        seeds += range(first, last + 1)
    return seeds


def digest(config_path: Path, seed: int, work: Path) -> str:
    report = run_experiment(parse_config(str(config_path)), seed=seed)
    csv_path, json_path = work / "report.csv", work / "report.json"
    write_metrics(report, str(csv_path), str(json_path))
    return hashlib.sha256(csv_path.read_bytes() + json_path.read_bytes()).hexdigest()


def digests(seeds: list[int]):
    """Yield one line per run: name, seed and the digest of its outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in SHIPPED:
            yield f"{name} seed=0 {digest(ROOT / 'configs' / f'{name}.cfg', 0, work)}"
        for name in WORKLOADS:
            for seed in seeds:
                cfg = work / f"{name}.cfg"
                cfg.write_text(config_text(name, seed), encoding="utf-8")
                yield f"{name} seed={seed} {digest(cfg, seed, work)}"


def base_digests(rev: str, seeds: str) -> list[str]:
    """The lines that REV's own copy of this script prints."""
    git = ["git", "-C", str(ROOT), "worktree"]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        subprocess.run([*git, "add", "--detach", str(tree), rev], check=True, capture_output=True, text=True)
        try:
            script = tree / "scripts" / "output_digest.py"
            run = subprocess.run(
                [sys.executable, str(script), "--seeds", seeds],
                check=True, capture_output=True, text=True,
            )
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], check=True, capture_output=True, text=True)
    return run.stdout.splitlines()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default="0", help="workload seeds, e.g. 0-4,1000-1009")
    parser.add_argument("--base", metavar="REV", help="compare with the outputs of git revision REV")
    args = parser.parse_args(argv)
    if args.base is None:
        for line in digests(args.seeds):
            print(line, flush=True)
        return 0
    try:
        base = base_digests(args.base, ",".join(map(str, args.seeds)))
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)} failed:\n{exc.stderr}", file=sys.stderr)
        return 2
    differ = 0
    for old, new in itertools.zip_longest(base, digests(args.seeds)):
        if old != new:
            differ += 1
            print(f"- {old}\n+ {new}", flush=True)
    print(f"{differ} of {len(base)} lines differ from {args.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
