"""The benchmark's tracer (perfbench/tracer.py) wraps ``cvuq`` entry points
by name and reports a missing one as absent instead of failing, so a rename
would silently zero that layer's metrics.  This reads its ``TARGETS``, and
runs the benchmark's smoke sizes, so a change to ``src/`` that breaks a
workload fails here."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [target for target, _, _ in module.TARGETS]


def test_every_traced_entry_point_resolves():
    # the tracer's rule: "module:attribute[.method]", the last name defined
    # on its module or class itself
    targets = _targets()
    absent = []
    for target in targets:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            absent.append(target)
    assert "cvuq.data:DgpSpec.draw" in targets and "cvuq.ecdf:weighted_ecdf" in targets
    assert absent == []


def test_benchmark_smoke_run_passes_every_check():
    # every workload at smoke sizes, timed and traced: each invocation's
    # output matches reference.json, and every traced entry point is reached
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=TRACER.parents[1],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert sorted((r["workload"], r["trace"]) for r in results) == [
        (name, trace) for name in ("coverage_cv", "equiv_p50", "probes_loo") for trace in (0, 1)]
    for r in results:
        assert r["correct"] and r["failed"] == 0, r
        if r["trace"]:
            metrics = {name: metric["value"] for name, metric in r["metrics"].items()}
            assert metrics["trace.targets_absent"] == 0, r["workload"]
            # probes_loo reports one missing layer, ecdf.quantile: the tracer
            # targets cvuq.ecdf:quantile, which the intervals no longer call
            if r["workload"] != "probes_loo":
                assert metrics["trace.layers_missing"] == 0, r["workload"]
