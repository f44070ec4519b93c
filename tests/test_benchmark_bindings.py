"""The benchmark can still find every function it calls or rebinds.

fedbench/tracing.py times a run by rebinding names on fedimt.federation (and
FederatedRunner.run_round). A name that federation.py stops importing breaks
every traced benchmark run without failing any other test here, so this
module loads the tracer, without changing or caching it, and resolves each
binding it would install.
"""

import importlib.util
import sys
from pathlib import Path

import fedimt
import fedimt.federation

TRACING = Path(__file__).resolve().parent.parent / "fedbench" / "tracing.py"


def test_every_traced_name_resolves_to_a_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache beside the benchmark's files
    spec = importlib.util.spec_from_file_location("fedbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = tracing.timing_bindings(fedimt, None) + tracing.layer_bindings(fedimt)
    assert bindings
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name, _hook in bindings
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_package_entry_points_the_benchmark_reads_resolve():
    """fedbench/run.py calls these outside the tracer, through these paths."""
    entry_points = {
        "fedimt.parse_config": getattr(fedimt, "parse_config", None),
        "fedimt.run_experiment": getattr(fedimt, "run_experiment", None),
        "fedimt.write_metrics": getattr(fedimt, "write_metrics", None),
        "fedimt.metrics.report_to_dict": getattr(fedimt.metrics, "report_to_dict", None),
        "fedimt.federation.build_runner": getattr(fedimt.federation, "build_runner", None),
    }
    assert [name for name, value in entry_points.items() if not callable(value)] == []
