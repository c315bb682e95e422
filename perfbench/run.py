"""Benchmark entry point: time to verdict on agestruct's studies.

    python3 perfbench/run.py --workload events --seed 20260812 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition is a fresh child process
(``child.py``) that makes the workload's study calls once, single-threaded;
repetitions follow one another for about ``--seconds``, and the result is
the median over repetitions.  End-to-end times are in reference seconds
(see ``speed.py``).  With ``--trace 0`` the last line carries the
end-to-end metrics; with ``--trace 1`` untraced and traced
repetitions alternate and the last line carries the per-layer metrics,
including the tracing overhead between the two kinds.  Metric names and
units come from ``BENCHMARK.json``.  The lines before the last describe the
machine, the operation failures, the statistical bands and, for a traced
run, the comparison with the ROADMAP baseline table.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0            # a run must end within 180 s
MIN_SETUPS = 3                 # setup_s is a median of at least this many starts
PREREGISTERED_SEED = 20260812
# small_law is run by hand only; see README.md
WORKLOADS = ("events", "clt", "kernel", "small_law")

# ROADMAP baseline table rows: (workload, detail key, value, what).  Its
# numbers are +-20%; the SPDE row was measured with 2500-path blocks.
BASELINE = [
    ("events", "us_per_event_K10000", 3.1, "classical us per accepted event, K=10^4"),
    ("events", "ledger_ratio_K1000", 101.0 / 8.4, "ledger on/off per K=1000 replicate"),
    ("clt", "ns_per_path_cell_step", 35.9, "SPDE ns per path-cell-step"),
    ("clt", "rng_floor_ns", 19.4, "SFC64 standard_normal ns per draw"),
    ("small_law", "criterion_8_us_per_replicate", 133.0, "criterion-8 us per replicate"),
    ("kernel", "solve_mvf_s_per_call", 2.35, "kernel_linear solve_mvf s at J=400"),
]


class BenchError(RuntimeError):
    """The benchmark could not measure (missing program, crashed child, timeout)."""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_THREADS)
    t_spawn = time.perf_counter()
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode,
           repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child exceeded the run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} child exited with {proc.returncode}:\n{proc.stderr}")
    out = json.loads(lines[-1])
    out["elapsed_s"] = time.perf_counter() - t_spawn
    return out


def run_children(workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[list[dict], list[dict]]:
    """Repetitions for about ``seconds``, and the children whose set-up counts.

    Another repetition starts only if it would end nearer to ``seconds``
    than stopping now, judged by the last one's length.  Traced runs
    alternate plain and traced repetitions.  Plain runs start set-up-only
    children until ``MIN_SETUPS`` set-up times are known.
    """
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    children: list[dict] = []
    while True:
        traced = trace and len(children) % 2 == 1
        children.append(spawn(workload, seed, "traced" if traced else "plain", deadline))
        now = time.perf_counter()
        enough = (now - start + children[-1]["elapsed_s"] / 2 >= seconds
                  and (not trace or len(children) >= 2))
        if enough or now + children[-1]["elapsed_s"] > deadline:
            break
    if trace and len(children) < 2:
        raise BenchError("no time left for a traced repetition")
    setups = [c for c in children if not c["traced"]]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup", deadline))
    return children, setups


def cache_sizes() -> dict:
    out = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            size = (d / "size").read_text().strip()
            shared = (d / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = f"{size} (cpus {shared})"
    return out


def size_bytes(text: str) -> int:
    num = text.split()[0]
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(num[-1], 1)
    return int(num.rstrip("KMG")) * scale


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pinning": PINNED_THREADS,
        "workers": 1,
    }


def median(children: list[dict], key: str) -> float:
    return statistics.median(c[key] for c in children)


def layer_metrics(specs: list[dict], traced: list[dict], untraced: list[dict],
                  failures: list[str]) -> dict:
    """Medians of traced repetitions; exact counts must repeat in every one."""
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name == "trace.overhead_frac":
            value = median(traced, "wall_s") / median(untraced, "wall_s") - 1.0
        elif name == "spde.floor_ratio":
            value = (metrics["spde.ns_per_path_cell_step"]["value"]
                     / metrics["spde.rng_floor_ns"]["value"])
        else:
            values = [c["layers"][name] for c in traced]
            if spec["unit"] == "count":
                if len(set(values)) != 1:
                    failures.append(f"count {name} differs between repetitions: {values}")
                value = values[0]
            else:
                value = statistics.median(values)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def cross_check(workload: str, layers: dict, detail: dict) -> list[str]:
    """Compare the traced numbers with the ROADMAP baseline rows."""
    seen = dict(detail)
    seen["ns_per_path_cell_step"] = layers["spde.ns_per_path_cell_step"]["value"]
    seen["rng_floor_ns"] = layers["spde.rng_floor_ns"]["value"]
    if detail["replicate_ms_K1000"]:
        seen["ledger_ratio_K1000"] = (detail["replicate_ms_K1000_ledger"]
                                      / detail["replicate_ms_K1000"])
    lines = []
    for wl, key, base, what in BASELINE:
        if wl != workload or key not in seen:
            continue
        ratio = seen[key] / base
        verdict = "within +-20%" if 0.8 <= ratio <= 1.2 else "OUTSIDE +-20%"
        lines.append(f"baseline {what}: measured {seen[key]:.4g} vs {base:.4g} "
                     f"(x{ratio:.2f}) {verdict}")
    return lines


def main(argv=None) -> int:
    # exit through SystemExit on SIGTERM, so subprocess.run kills and waits for the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=PREREGISTERED_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "agestruct" / "__init__.py").is_file():
            raise BenchError(f"no agestruct sources under {ROOT / 'src'}")
        children, setups = run_children(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    facts = machine_facts()
    failures = [f for c in children for f in c["failures"]]
    traced = [c for c in children if c["traced"]]
    untraced = [c for c in children if not c["traced"]]
    print("machine " + json.dumps(facts))
    for c in children:
        print(f"{'traced' if c['traced'] else 'plain'} repetition: wall {c['wall_s']:.4f} s, "
              f"cpu {c['cpu_s']:.4f} s, setup {c['setup_s']:.4f} s, reference "
              + "/".join(f"{r:.4f}" for r in c["reference_s"]) + " s, "
              f"peak RSS {c['peak_rss_mb']:.1f} MB, "
              f"{c['attempted']} ops, {len(c['failures'])} failed, "
              f"bands {c['bands']['misses']}/{c['bands']['rows']} missed")
    if args.trace:
        metrics = layer_metrics(spec["per_layer"], traced, untraced, failures)
        detail = traced[0]["detail"]
        block = detail["spde_block_bytes"]
        l3 = facts["caches"].get("L3")
        if block and l3:
            print(f"spde path block (computed): {block} bytes of paths, {2 * block} with "
                  f"the noise draw, against L3 {size_bytes(l3)} bytes "
                  f"({2 * block / size_bytes(l3):.3f} of it)")
        for line in cross_check(args.workload, metrics, detail):
            print(line)
    else:
        references = [r for c in setups for r in c["reference_s"]]
        to_reference_s = REFERENCE_S / statistics.median(references)
        print("setup times: " + ", ".join(f"{c['setup_s']:.4f} s" for c in setups)
              + f"; reference times {len(references)}, median "
              f"{statistics.median(references):.4f} s: 1 s here = {to_reference_s:.4f} "
              "reference s")
        medians = {"wall_s": median(untraced, "wall_s") * to_reference_s,
                   "setup_s": median(setups, "setup_s") * to_reference_s,
                   "peak_rss_mb": median(untraced, "peak_rss_mb")}
        metrics = {m["name"]: {"value": medians[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    attempted = sum(c["attempted"] for c in children)
    for f in failures:
        print(f"FAILED {f}")
    print(f"failed_ops_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
