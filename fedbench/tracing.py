"""Outside-in span recording for fedimt.

A `Tracer` rebinds public functions at the module attributes their callers
look them up through (for example `fedimt.federation.forward`, which
`local_update` calls) with wrappers that record a span: id, parent id, name,
start and end in nanoseconds. Spans are kept in memory; `write_spans` writes
them out when the run is over. No file of fedimt itself is touched, and
`bound` restores every original function on exit.

The simulator is single-process and sequential, so spans nest strictly and
a span's self time is its duration minus its direct children's durations.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Span(NamedTuple):
    span_id: int
    parent_id: int  # 0 for a span opened outside every other span
    name: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


# A hook sees a call's counts, arguments and result after its span has closed.
Hook = Callable[[Counter, tuple, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.runner = None  # the FederatedRunner build_runner returned
        self._stack = [0]
        self._next_id = 1

    def _open(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(Span(span_id, parent, name, start, end))

    @contextmanager
    def span(self, name: str):
        span_id, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start)

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def bound(self, bindings: list[tuple]):
        """Rebind each (owner, attribute, span name, hook) for the duration."""
        originals = []
        try:
            for owner, attr, name, hook in bindings:
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def durations(self, name: str) -> list[int]:
        return [s.duration_ns for s in self.spans if s.name == name]

    def self_times(self) -> dict[int, int]:
        """span id -> duration minus the direct children's durations."""
        covered: dict[int, int] = defaultdict(int)
        for s in self.spans:
            covered[s.parent_id] += s.duration_ns
        return {s.span_id: s.duration_ns - covered[s.span_id] for s in self.spans}


def _keep_runner(tracer: Tracer) -> Hook:
    def hook(counts, args, runner):
        tracer.runner = runner

    return hook


def _count_probe(counts, args, result):
    aux = args[1]
    counts["estimator.probe_samples"] += int(aux.per_class_count.sum())


def _count_estimate(counts, args, estimate):
    counts["estimator.used_nodes"] += int(estimate.used_node_count.sum())
    counts["estimator.candidate_nodes"] += int(estimate.node_estimates.size)
    counts["estimator.fallback_classes"] += int(estimate.fallback.sum())


def _count_drop(counts, args, decision):
    counts["observer.drops"] += int(decision.dropped)


def timing_bindings(fedimt, tracer: Tracer) -> list[tuple]:
    """The two wrappers every run has: set-up and per-round time."""
    fed = fedimt.federation
    return [
        (fed, "build_runner", "federation.build_runner", _keep_runner(tracer)),
        (fed.FederatedRunner, "run_round", "federation.round", None),
    ]


def layer_bindings(fedimt) -> list[tuple]:
    """Every layer boundary, rebound where federation.py looks it up."""
    fed = fedimt.federation
    return [
        (fed, "forward", "nn.forward", None),
        (fed, "compute_loss", "nn.compute_loss", None),
        (fed, "backward", "nn.backward", None),
        (fed, "sgd_step", "nn.sgd_step", None),
        (fed, "local_update", "federation.local_update", None),
        (fed, "aggregate", "federation.aggregate", None),
        (fed, "select_clients", "federation.select_clients", None),
        (fed, "probe_auxiliary", "estimator.probe_auxiliary", _count_probe),
        (fed, "estimate_counts", "estimator.estimate_counts", _count_estimate),
        (fed, "oracle_counts", "estimator.oracle_counts", None),
        (fed, "observer_update", "observer.update", None),
        (fed, "mismatch_check", "observer.mismatch_check", _count_drop),
        (fed, "balanced_weights", "observer.balanced_weights", None),
        (fed, "evaluate", "metrics.evaluate", None),
        (fed, "window_latest", "data.window_latest", None),
        (fed, "gen_synthetic", "data.gen_synthetic", None),
        (fed, "shard_partition", "data.shard_partition", None),
        (fed, "sample_auxiliary", "data.sample_auxiliary", None),
    ]


NN_STEP = ("nn.forward", "nn.compute_loss", "nn.backward", "nn.sgd_step")

# (span name, metric name, unit): per-call median duration.
_MEDIANS = [
    ("nn.forward", "nn.forward_us", "us"),
    ("nn.compute_loss", "nn.compute_loss_us", "us"),
    ("nn.backward", "nn.backward_us", "us"),
    ("nn.sgd_step", "nn.sgd_step_us", "us"),
    ("federation.local_update", "federation.local_update_ms", "ms"),
    ("federation.aggregate", "federation.aggregate_ms", "ms"),
    ("federation.select_clients", "federation.select_clients_us", "us"),
    ("federation.round", "federation.round_ms", "ms"),
    ("estimator.probe_auxiliary", "estimator.probe_auxiliary_ms", "ms"),
    ("estimator.estimate_counts", "estimator.estimate_counts_ms", "ms"),
    ("estimator.oracle_counts", "estimator.oracle_counts_us", "us"),
    ("observer.update", "observer.update_us", "us"),
    ("observer.mismatch_check", "observer.mismatch_check_us", "us"),
    ("observer.balanced_weights", "observer.balanced_weights_us", "us"),
    ("metrics.evaluate", "metrics.evaluate_ms", "ms"),
    ("metrics.write_metrics", "metrics.write_metrics_ms", "ms"),
    ("data.window_latest", "data.window_latest_us", "us"),
    ("data.gen_synthetic", "data.gen_synthetic_ms", "ms"),
    ("data.shard_partition", "data.shard_partition_ms", "ms"),
    ("data.sample_auxiliary", "data.sample_auxiliary_ms", "ms"),
    ("config.parse", "config.parse_ms", "ms"),
]

_SCALE = {"us": 1e3, "ms": 1e6, "s": 1e9}


def _median(values_ns: list[int], unit: str) -> float:
    # A layer that never runs on a workload reads 0.
    return statistics.median(values_ns) / _SCALE[unit] if values_ns else 0.0


def exact_counts(tracer: Tracer) -> dict[str, int]:
    """Work counts of one traced run; they repeat exactly for one seed."""
    names = Counter(s.name for s in tracer.spans)
    return {
        "nn.steps": names["nn.sgd_step"],
        "federation.local_update_calls": names["federation.local_update"],
        "federation.aggregate_calls": names["federation.aggregate"],
        "estimator.probe_samples": tracer.counts["estimator.probe_samples"],
        "estimator.used_nodes": tracer.counts["estimator.used_nodes"],
        "estimator.candidate_nodes": tracer.counts["estimator.candidate_nodes"],
        "estimator.fallback_classes": tracer.counts["estimator.fallback_classes"],
        "observer.drops": tracer.counts["observer.drops"],
        "metrics.evaluate_calls": names["metrics.evaluate"],
        "data.window_latest_calls": names["data.window_latest"],
        "trace.spans": len(tracer.spans),
    }


def layer_metrics(tracers: list[Tracer]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: per-call medians pooled over the traced runs,
    counts and ratios from the last one."""
    per_run = []
    for t in tracers:
        by_name: dict[str, list[int]] = defaultdict(list)
        for s in t.spans:
            by_name[s.name].append(s.duration_ns)
        per_run.append(by_name)
    out: dict[str, tuple[float, str]] = {}
    for span_name, metric, unit in _MEDIANS:
        pooled = [d for by_name in per_run for d in by_name[span_name]]
        out[metric] = (_median(pooled, unit), unit)

    # Spans close in call order, so the i-th call of each nn function is step i.
    steps = [sum(parts) for by_name in per_run for parts in zip(*(by_name[n] for n in NN_STEP))]
    out["nn.step_us"] = (_median(steps, "us"), "us")

    update_total = update_self = 0
    round_self: list[int] = []
    for t in tracers:
        own = t.self_times()
        for s in t.spans:
            if s.name == "federation.local_update":
                update_total += s.duration_ns
                update_self += own[s.span_id]
            elif s.name == "federation.round":
                round_self.append(own[s.span_id])
    share = update_self / update_total if update_total else 0.0
    out["federation.local_update_self_share"] = (share, "fraction")
    out["federation.round_self_ms"] = (_median(round_self, "ms"), "ms")

    counts = exact_counts(tracers[-1])
    candidates = counts["federation.aggregate_calls"]
    kept = (candidates - counts["observer.drops"]) / candidates if candidates else 0.0
    out["federation.kept_aggregate_ratio"] = (kept, "fraction")
    nodes = counts["estimator.candidate_nodes"]
    used = counts["estimator.used_nodes"] / nodes if nodes else 0.0
    out["estimator.node_use_ratio"] = (used, "fraction")
    for name in (
        "nn.steps",
        "federation.local_update_calls",
        "estimator.probe_samples",
        "estimator.fallback_classes",
        "observer.drops",
        "metrics.evaluate_calls",
        "data.window_latest_calls",
        "trace.spans",
    ):
        out[name] = (counts[name], "count")
    return out


def self_time_shares(tracer: Tracer) -> dict[str, float]:
    """Span name -> its self time as a share of the traced run, largest first."""
    own = tracer.self_times()
    total = sum(s.duration_ns for s in tracer.spans if s.parent_id == 0)
    shares: Counter = Counter()
    for s in tracer.spans:
        shares[s.name] += own[s.span_id] / total
    return dict(shares.most_common())


def write_spans(tracer: Tracer, path: str) -> None:
    """One CSV line per span: id, parent id, name, start and end in ns."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("span_id,parent_id,name,start_ns,end_ns\n")
        for s in sorted(tracer.spans):
            f.write(f"{s.span_id},{s.parent_id},{s.name},{s.start_ns},{s.end_ns}\n")
