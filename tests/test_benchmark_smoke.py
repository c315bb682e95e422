"""The benchmark's untraced and traced runs of every declared workload, at its own sizes.

A probe target that no longer exists, a dropped argument or a config key the
package now rejects fails here rather than in the benchmark's own runs.  The
traced run wraps more targets (``RateModel.death_rate``, ``harness.build_initial``,
``harness.replicate_stream``, the ``run_*`` studies), so it is run too.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
CASES = [(name, traced) for traced in (False, True) for name in WORKLOADS]


@pytest.mark.parametrize("name, traced", CASES,
                         ids=[name + "-traced" * traced for name, traced in CASES])
def test_benchmark_workload_runs_without_failed_operations(monkeypatch, name, traced):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    probes, workloads = (importlib.import_module(m) for m in ("probes", "workloads"))
    probe = probes.Probe(traced=traced)
    run = workloads.WORKLOADS[name](20260812)
    with probe.installed():
        results = run()
    workloads.check_results(results, probe)
    assert probe.attempted > 0
    assert not probe.failures, probe.failures
    assert bool(probe.spans) == traced
