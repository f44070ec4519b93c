"""fedimt benchmark: one workload, timed end to end or traced layer by layer.

Run from the repository root:

    python3 fedbench/run.py --workload tenclass_train --seed 0 --seconds 55 --trace 0

Each repetition makes the calls `fedimt run` makes (parse_config,
run_experiment, write_metrics) on the workload's config with the given
seed, from the fedimt sources under src/ next to this directory. One
untimed repetition first fills caches and writes the reference output;
then, at least twice, repetitions continue while a typical one still ends
within --seconds. With --trace 0, each timed repetition is followed by a few
set-up-only repetitions (parse_config + build_runner) that give setup_s.

--trace 0 reports the end-to-end metrics. --trace 1 alternates traced and
untraced repetitions and reports the per-layer metrics from the traced ones,
plus the tracing overhead; the spans of the last traced repetition are
written to .fedbench/ at the repository root.

Every repetition is checked: it must not raise, must report only finite
values, must reach the workload's output floors, and must write CSV/JSON
bytes equal to the first repetition's. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
is 0 when every check passed, 1 when one failed, and 2 when the arguments or
the fedimt sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import (
    Tracer,
    exact_counts,
    layer_bindings,
    layer_metrics,
    self_time_shares,
    timing_bindings,
    write_spans,
)
from workloads import WORKLOADS, config_text

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".fedbench"
# One BLAS thread: the matrices are small, and a second thread only adds
# contention noise on a shared host. Set before numpy is first imported.
BLAS_THREADS = 1
MIN_TIMED_RUNS = 2
# Set-up-only repetitions after each timed run; setup_s is their median.
SETUP_REPS_PER_RUN = 4

@dataclass
class Repetition:
    tracer: Tracer
    summary: dict
    run_ns: int
    train_samples: int


def load_fedimt():
    """Import fedimt from this checkout's src/, and nowhere else."""
    if not (SRC / "fedimt" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fedimt sources at {SRC / 'fedimt'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import fedimt
    import fedimt.federation

    if Path(fedimt.__file__).resolve().parent != SRC / "fedimt":
        raise ImportError(f"fedimt was imported from {fedimt.__file__}, not {SRC}")
    return fedimt


def blas_thread_count() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        if not path.startswith("/"):
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_thread_count(),
    }


def _trained_samples(runner, records) -> int:
    """In-scope samples x local epochs, over rounds and selected clients."""
    fl = runner.config
    total = 0
    for rec in records[1:]:
        for cid in rec.selected_clients:
            n = len(runner.clients[cid].dataset)
            total += min(n, fl.n_latest) if fl.n_latest is not None else n
    return total * fl.local_epochs


def _non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_non_finite(v) for v in value.values())
    if isinstance(value, list):
        return any(_non_finite(v) for v in value)
    return False


def run_once(fedimt, cfg_path: Path, seed: int, out_dir: Path, traced: bool):
    """One repetition; returns it with the SHA-256 of the CSV and JSON bytes."""
    tracer = Tracer()
    bindings = timing_bindings(fedimt, tracer)
    if traced:
        bindings += layer_bindings(fedimt)
    csv_path, json_path = out_dir / "report.csv", out_dir / "report.json"
    with tracer.bound(bindings):
        with tracer.span("config.parse"):
            config = fedimt.parse_config(str(cfg_path))
        with tracer.span("federation.run_experiment"):
            report = fedimt.run_experiment(config, seed=seed)
        with tracer.span("metrics.write_metrics"):
            fedimt.write_metrics(report, str(csv_path), str(json_path))

    total = {name: sum(tracer.durations(name)) for name in (
        "federation.build_runner", "federation.run_experiment", "metrics.write_metrics")}
    digest = hashlib.sha256(csv_path.read_bytes() + json_path.read_bytes()).hexdigest()
    rep = Repetition(
        tracer=tracer,
        summary=report.summary,
        run_ns=(total["federation.run_experiment"] - total["federation.build_runner"]
                + total["metrics.write_metrics"]),
        train_samples=_trained_samples(tracer.runner, report.records),
    )
    tracer.runner = None  # keeps peak RSS independent of how many runs fit
    return rep, digest, fedimt.metrics.report_to_dict(report)


def time_setup(fedimt, cfg_path: Path, seed: int) -> int:
    """One set-up-only repetition, parse_config + build_runner, in ns."""
    start = time.perf_counter_ns()
    config = fedimt.parse_config(str(cfg_path))
    runner = fedimt.federation.build_runner(config, seed)
    elapsed = time.perf_counter_ns() - start
    del runner  # freed outside the timed span, as the full runs free theirs
    return elapsed


def output_problems(name: str, rep: Repetition) -> list[str]:
    """Where a run's outputs fall below the workload's floors."""
    w = WORKLOADS[name]
    s = rep.summary
    problems = []
    if s["final_acc"] < w.min_final_acc:
        problems.append(f"final_acc {s['final_acc']:.4f} < {w.min_final_acc}")
    if w.min_mean_t_j is not None and not s["mean_T_j"] >= w.min_mean_t_j:
        problems.append(f"mean_T_j {s['mean_T_j']} < {w.min_mean_t_j}")
    if w.min_minority_acc is not None and not s["final_acc_minority"] >= w.min_minority_acc:
        problems.append(f"final_acc_minority {s['final_acc_minority']} < {w.min_minority_acc}")
    return problems


def end_to_end(reps: list[Repetition], setups_ns: list[int]) -> dict[str, tuple[float, str]]:
    """Medians over the timed runs and the set-up-only repetitions, and the
    p80 of the runs' pooled round times.

    The median round time is left out: on a host whose speed flips between
    two modes it falls between them and moved by up to 30% between runs."""
    rounds_ms = [d / 1e6 for r in reps for d in r.tracer.durations("federation.round")]
    return {
        "setup_s": (statistics.median(setups_ns) / 1e9, "s"),
        "run_s": (statistics.median(r.run_ns for r in reps) / 1e9, "s"),
        "round_ms_p80": (statistics.quantiles(rounds_ms, n=5)[3], "ms"),
        "train_samples_per_s": (statistics.median(r.train_samples / (r.run_ns / 1e9) for r in reps), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    reference: str | None = None  # digest of the first run's CSV/JSON bytes
    problems: list[str] = field(default_factory=list)
    untraced: list[Repetition] = field(default_factory=list)
    traced: list[Repetition] = field(default_factory=list)
    setups_ns: list[int] = field(default_factory=list)

    def attempt(self, fedimt, name: str, cfg_path: Path, seed: int, work: Path, traced: bool) -> None:
        """One checked repetition; a run that raises, reports a non-finite
        value or writes different bytes counts as failed."""
        self.attempted += 1
        try:
            rep, digest, report = run_once(fedimt, cfg_path, seed, work, traced)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return
        if self.reference is None:
            self.reference = digest
        failure = None
        if _non_finite(report):
            failure = "non-finite value in the report"
        elif digest != self.reference:
            failure = "CSV/JSON bytes differ from the first run at this seed"
        if failure is not None:
            self.failed += 1
            print(f"run {self.attempted} failed: {failure}", file=sys.stderr)
            return
        self.problems += [p for p in output_problems(name, rep) if p not in self.problems]
        (self.traced if traced else self.untraced).append(rep)

    def attempt_setup(self, fedimt, cfg_path: Path, seed: int) -> None:
        """One set-up-only repetition; it fails only if it raises."""
        self.attempted += 1
        try:
            self.setups_ns.append(time_setup(fedimt, cfg_path, seed))
        except Exception:
            self.failed += 1
            traceback.print_exc()


def measure(fedimt, name: str, seed: int, seconds: int, trace: bool, work: Path) -> Outcome:
    cfg_path = work / f"{name}.cfg"
    cfg_path.write_text(config_text(name, seed), encoding="utf-8")
    outcome = Outcome()
    # Warm-up: fills caches and sets the reference bytes; its times are dropped.
    outcome.attempt(fedimt, name, cfg_path, seed, work, traced=False)
    outcome.untraced.clear()
    start = time.perf_counter()
    lengths: list[float] = []
    # Start another run only if a typical one still ends within --seconds.
    while (len(lengths) < MIN_TIMED_RUNS
           or time.perf_counter() - start + statistics.median(lengths) <= seconds):
        # In a traced run, alternate which side of each pair goes first.
        began = time.perf_counter()
        outcome.attempt(fedimt, name, cfg_path, seed, work, traced=trace and len(lengths) % 4 in (0, 3))
        if not trace:
            # Spread over the whole run, so set-up sees the host as the runs do.
            for _ in range(SETUP_REPS_PER_RUN):
                outcome.attempt_setup(fedimt, cfg_path, seed)
        lengths.append(time.perf_counter() - began)
    counts = [exact_counts(r.tracer) for r in outcome.traced]
    if any(c != counts[0] for c in counts):
        outcome.problems.append(f"work counts differ between traced runs: {counts}")
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fedimt benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        fedimt = load_fedimt()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(), sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        outcome = measure(fedimt, args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))

    untraced, traced, problems = outcome.untraced, outcome.traced, outcome.problems
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace and traced and untraced:
        metrics = layer_metrics([r.tracer for r in traced])
        summary = traced[-1].summary
        metrics["metrics.final_acc"] = (summary["final_acc"], "fraction")
        metrics["estimator.mean_T_j"] = (summary["mean_T_j"] or 0.0, "cosine")
        overhead = (statistics.median(r.run_ns for r in traced)
                    - statistics.median(r.run_ns for r in untraced))
        metrics["trace.overhead_ms"] = (overhead / 1e6, "ms")
        spans_path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.csv"
        write_spans(traced[-1].tracer, str(spans_path))
        print(f"spans of the last traced run: {spans_path}")
        print("self-time shares: " + ", ".join(
            f"{name} {share:.1%}" for name, share in self_time_shares(traced[-1].tracer).items()))
        print(f"samples: {len(traced)} traced and {len(untraced)} untraced runs")
    elif not args.trace and untraced and outcome.setups_ns:
        metrics = end_to_end(untraced, outcome.setups_ns)
        rounds = sum(len(r.tracer.durations("federation.round")) for r in untraced)
        print(f"samples: {len(untraced)} timed runs, {rounds} rounds, "
              f"{len(outcome.setups_ns)} set-up-only repetitions")
    else:
        problems.append("no timed run completed")

    reps = traced or untraced
    if reps:
        summary = reps[-1].summary
        print("outputs: " + " ".join(
            f"{k}={summary[k]:.4f}" for k in ("final_acc", "final_acc_minority", "mean_T_j")
            if summary[k] is not None) + f" drops={summary['drop_count']}")
    print(f"failed_frac = {outcome.failed / outcome.attempted:.4f} "
          f"({outcome.failed} of {outcome.attempted} repetitions)")
    for problem in problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    correct = outcome.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
