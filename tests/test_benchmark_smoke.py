"""The benchmark's plain (untraced) run of every declared workload, at its own sizes.

A probe target that no longer exists, a dropped argument or a config key the
package now rejects fails here rather than in the benchmark's own runs.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_benchmark_workload_runs_without_failed_operations(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    probes, workloads = (importlib.import_module(m) for m in ("probes", "workloads"))
    probe = probes.Probe(traced=False)
    run = workloads.WORKLOADS[name](20260812)
    with probe.installed():
        results = run()
    workloads.check_results(results, probe)
    assert probe.attempted > 0
    assert not probe.failures, probe.failures
