"""The benchmark's workloads: what each runs, why it exists, which layer it loads.

Each workload is a closed loop with one client: a single-threaded process
makes one study call after another, each waiting for the previous verdict.
Studies run with ``workers=1``; the child process pins BLAS and OpenMP to one
thread.  Scaling with ``--workers > 1`` is deliberately unmeasured: on a
2-core machine shared with other jobs, wall-clock scaling measures the
neighbours, not the program.

Sizes are reduced from the acceptance suite so that a workload reaches its
verdict in a few seconds; the models, seeds derivation, grids and K values
are the suite's own, except where a comment says otherwise.

``events``
    ``run_lln`` (pure splitting, K = 100/1000/10^4) then ``run_qv_check``
    (K = 1000, martingale ledger on).  The event loop and the ledger do
    nearly all the work; ``mvf`` only solves a constant-rate limit and
    ``spde`` is idle.  Loads ``branching``; bypasses ``spde``.
``clt``
    ``run_clt`` on the acceptance CLT config with fewer grid paths and
    replicates.  The grid SPDE path engine does most of the work, as it does
    in ``agestruct validate``; the K = 10^4 replicates are a minority share.
    Loads ``spde`` (classical branch); ``mvf`` is cheap here.
``kernel``
    ``run_clt`` on a population-dependent ``kernel_linear`` model
    (exp_decay kernel, affine phi).  The only workload where ``mvf`` does
    real work and where the dense kernel branches of ``evolve_mean`` and of
    the path engine run; the event simulator pays thinning here, with a
    rate evaluation per candidate.  Loads ``mvf`` and the kernel paths of
    ``spde`` and ``branching``.
``small_law``
    ``AcceptanceSuite.criterion_8`` at full size: 10^5 replicates of a
    three-individual population.  Same ``branching`` layer, used the other
    way: per-replicate fixed cost (Philox stream set-up and the fixed
    uniform block) dominates, not events.  Bypasses ``mvf`` and ``spde``.
    A batched engine that helps ``events`` but costs this case, or the
    reverse, shows here.  Full size keeps its TV <= 0.02 check meaningful.
    Run by hand only: its one 14-21 s call per run is too noisy on a shared
    VM for the bound in ``BENCHMARK.json`` (see README.md).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

from agestruct import harness
from agestruct.acceptance import AcceptanceSuite, clt_config, lln_config, qv_config

EVENTS_REPLICATES = 24          # per K for LLN, and for QV (suite: 200 and 400)
CLT_REPLICATES = 16             # suite: 500
CLT_PATHS = 64                  # suite: 10^4 in blocks of 2500; here one block
KERNEL_K = 300
KERNEL_REPLICATES = 16
KERNEL_PATHS = 64
KERNEL_DT = 5e-3                # J = 400 cells, the ROADMAP's kernel solver row

KERNEL_MODEL = {
    "family": "kernel_linear",
    "birth": 1.0,
    "death": {"kernel": {"kind": "exp_decay", "alpha": 1.0}, "phi": "affine",
              "c0": 0.2, "cy": 0.3, "cz": 0.5},
    "death_sup": 4.0,
    "life_law": {"kind": "deterministic", "k": 1},
    "split_law": {"kind": "deterministic", "k": 0},
}

UNIFORM = {"kind": "grid", "profile": "uniform", "support": [0.0, 1.0], "mass": 1.0}


def kernel_config(seed: int) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        model=dict(KERNEL_MODEL), initial=dict(UNIFORM), perturbation=dict(UNIFORM),
        horizon=1.0, dt=KERNEL_DT, dt_out=1.0, k_values=[KERNEL_K],
        replicates=KERNEL_REPLICATES, panel=["1", "exp:0.5", "exp:-1"], seed=seed,
        n_spde_paths=KERNEL_PATHS, spde_block=KERNEL_PATHS)


def _studies(configs, runner_names) -> Callable[[], list]:
    # config and model build are set-up (setup_s); each study rebuilds its own
    for cfg in configs:
        cfg.build_model()

    def run():
        # look the runners up at call time, so installed probes are used
        return [getattr(harness, name)(cfg, workers=1)
                for cfg, name in zip(configs, runner_names)]

    return run


def events(seed: int):
    lln = dataclasses.replace(lln_config(seed), replicates=EVENTS_REPLICATES)
    qv = dataclasses.replace(qv_config(seed), replicates=EVENTS_REPLICATES)
    return _studies([lln, qv], ["run_lln", "run_qv_check"])


def clt(seed: int):
    cfg = dataclasses.replace(clt_config(seed), replicates=CLT_REPLICATES,
                              n_spde_paths=CLT_PATHS, spde_block=CLT_PATHS)
    return _studies([cfg], ["run_clt"])


def kernel(seed: int):
    return _studies([kernel_config(seed)], ["run_clt"])


def small_law(seed: int):
    suite = AcceptanceSuite(seed=seed, workers=1)
    return lambda: [suite.criterion_8()]


WORKLOADS = {"events": events, "clt": clt, "kernel": kernel, "small_law": small_law}

# Rows whose verdict is exact arithmetic; every other report row is a
# statistical band (3 SE, 10%, Jarque-Bera) that misses by chance at
# reduced size, so it is counted, never failed.
DETERMINISTIC_ROWS = {"evolve_mean_linf"}


def check_results(results: list, probe) -> dict:
    """Check each verdict; return the statistical band counts."""
    bands = {"rows": 0, "misses": 0}
    for res in results:
        if isinstance(res, harness.Report):
            finite = all(math.isfinite(v) for *_, v in res.samples)
            probe.op(f"{res.name}.finite_pairings", finite and bool(res.samples),
                     "missing or non-finite sample pairings")
            for row in res.rows:
                if row.stat in DETERMINISTIC_ROWS:
                    probe.op(f"{res.name}.{row.stat}", row.passed,
                             f"value {row.value:.6g} tol {row.tolerance:.3g}")
                else:
                    bands["rows"] += 1
                    bands["misses"] += not row.passed
        else:
            probe.op(f"criterion_{res.index}", res.passed, "; ".join(res.details))
    return bands
