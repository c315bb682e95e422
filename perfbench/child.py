"""One measured study call in a fresh process; prints one JSON line.

    python3 child.py <workload> <seed> <plain|traced|setup> <spawn time>

``run.py`` starts this with ``PYTHONPATH`` set to the checkout's ``src`` and
passes its ``time.perf_counter()`` from just before the start as the spawn
time; on Linux that clock is CLOCK_MONOTONIC, shared by all processes, so
``setup_s`` covers interpreter start, the numpy/scipy/agestruct imports and
the config and model build.  The machine-speed reference (``speed.py``) is
timed after set-up and again after the study call.  Exits with code 3 if
agestruct does not come from the checkout.  In ``setup`` mode it stops
before the study call.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv: list[str]) -> int:
    workload, seed, mode, t_spawn = argv[1], int(argv[2]), argv[3], float(argv[4])
    traced = mode == "traced"
    src = Path(__file__).resolve().parent.parent / "src"
    try:
        import agestruct
    except ImportError as exc:
        print(f"cannot import agestruct from {src}: {exc}", file=sys.stderr)
        return 3
    if Path(agestruct.__file__).resolve().parent.parent != src:
        print(f"agestruct imported from {agestruct.__file__}, not {src}", file=sys.stderr)
        return 3

    import probes
    import speed
    import workloads

    probe = probes.Probe(traced)
    run = workloads.WORKLOADS[workload](seed)
    setup_s = time.perf_counter() - t_spawn
    references = [speed.reference_seconds()]
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "reference_s": references}))
        return 0
    results: list = []
    with probe.installed():
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            results = run()
        except Exception:
            probe.op("study", False, traceback.format_exc(limit=3))
        wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    references.append(speed.reference_seconds())
    bands = workloads.check_results(results, probe)
    out = {
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "reference_s": references,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": probe.attempted,
        "failures": probe.failures,
        "bands": bands,
    }
    if traced:
        layers, detail = probe.layer_metrics()
        layers["harness.band_rows"] = bands["rows"]
        layers["harness.band_misses"] = bands["misses"]
        layers["spde.rng_floor_ns"] = probes.rng_floor_ns()
        out["layers"], out["detail"] = layers, detail
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
