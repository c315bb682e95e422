"""Quantitative acceptance suite: desk-scale checks against closed forms.

Each criterion pins its own model, sizes and tolerances; Monte Carlo
comparisons run under a single pre-registered master seed so the suite is
deterministic end to end.  The shared heavy computation (the large-K
fluctuation run) is cached and served to the criteria that need it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .branching import check_pathwise_identity, simulate, simulate_pairings
from .harness import (CheckRow, ExperimentConfig, PURPOSE_SIM, Report, _read,
                      _reseated_stream, emit, replicate_stream, run_clt, run_convergence,
                      run_lln, run_qv_check)
from .measures import AtomicMeasure, constant
from .rates import (OffspringLaw, RateModel, ConstantRate, DensityRate,
                    classical_model, pure_splitting)

PREREGISTERED_SEED = 20260812

_PURE_SPLITTING = {
    "family": "classical", "birth": 0.0, "death": 1.0,
    "life_law": {"kind": "deterministic", "k": 0},
    "split_law": {"kind": "deterministic", "k": 2},
}


def lln_config(seed: int = PREREGISTERED_SEED) -> ExperimentConfig:
    return ExperimentConfig(
        model=dict(_PURE_SPLITTING),
        initial={"kind": "atoms", "ages": [0.0], "masses": [1.0]},
        horizon=1.0, dt=1e-3, dt_out=1.0,
        k_values=[100, 1000, 10000], replicates=200,
        panel=["1"], seed=seed,
    )


def qv_config(seed: int = PREREGISTERED_SEED) -> ExperimentConfig:
    return ExperimentConfig(
        model=dict(_PURE_SPLITTING),
        initial={"kind": "atoms", "ages": [0.0], "masses": [1.0]},
        horizon=1.0, dt=1e-3, dt_out=1.0,
        k_values=[1000], replicates=400,
        panel=["1"], seed=seed,
    )


def clt_config(seed: int = PREREGISTERED_SEED) -> ExperimentConfig:
    return ExperimentConfig(
        model=dict(_PURE_SPLITTING),
        initial={"kind": "grid", "profile": "uniform", "support": [0.0, 1.0],
                 "mass": 1.0},
        perturbation={"kind": "grid", "profile": "uniform", "support": [0.0, 1.0],
                      "mass": 1.0},
        horizon=1.0, dt=1e-3, dt_out=1.0,
        k_values=[10000], replicates=500,
        panel=["1", "exp:0.5", "exp:-1"], seed=seed,
        n_spde_paths=10_000, spde_block=2_500,
    )


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)
    seconds: Optional[float] = None      # wall clock, set by AcceptanceSuite.run_all

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        took = "" if self.seconds is None else f" in {self.seconds:.1f}s"
        return f"criterion {self.index} ({self.name}): {verdict}{took}"


def _rows_detail(rows: list[CheckRow]) -> list[str]:
    out = []
    for r in rows:
        tag = f" f={r.f_id}" if r.f_id else ""
        k = f" K={r.k}" if r.k is not None else ""
        out.append(f"{r.stat}{k}{tag}: value={r.value:.6g} target={r.target:.6g} "
                   f"tol={r.tolerance:.3g} {'ok' if r.passed else 'FAIL'}")
    return out


class AcceptanceSuite:
    """Runs the eight acceptance criteria under one master seed."""

    def __init__(self, seed: int = PREREGISTERED_SEED, workers: int = 1):
        given = {"seed": seed, "workers": workers}
        self.seed = _read(given, "seed", "", "seed")
        self.workers = _read(given, "workers", "", "int", lo=1)
        self._lln_wall: Optional[float] = None

    # -- cached heavy runs -------------------------------------------------
    @cached_property
    def lln_report(self) -> Report:
        t0 = time.perf_counter()
        rep = run_lln(lln_config(self.seed), workers=self.workers)
        self._lln_wall = time.perf_counter() - t0
        return rep

    @cached_property
    def qv_report(self) -> Report:
        return run_qv_check(qv_config(self.seed), workers=self.workers)

    @cached_property
    def clt_study(self) -> ExperimentConfig:     # criteria 3-6 share its start and background
        return clt_config(self.seed)

    @cached_property
    def clt_report(self) -> Report:
        return run_clt(self.clt_study, workers=self.workers)

    @cached_property
    def convergence_report(self) -> Report:
        return run_convergence(self.clt_study)

    # -- criteria ----------------------------------------------------------
    def criterion_1(self) -> CriterionResult:
        rep = self.lln_report
        rows = [r for r in rep.rows if r.stat in ("lln_mean", "lln_slope")]
        details = _rows_detail(rows)
        details.append(f"wall clock: {self._lln_wall:.1f}s (target < 120s)")
        passed = all(r.passed for r in rows) and (self._lln_wall or 0.0) < 120.0
        return CriterionResult(1, "LLN reproduction", passed, details)

    def criterion_2(self) -> CriterionResult:
        rep = self.qv_report
        rows = [r for r in rep.rows if r.stat in ("mart_mean", "mart_var_vs_qv")]
        return CriterionResult(2, "martingale quadratic variation",
                               all(r.passed for r in rows), _rows_detail(rows))

    def criterion_3(self) -> CriterionResult:
        rep = self.clt_report
        rows = [r for r in rep.rows if r.stat in ("clt_mean", "evolve_mean_linf")]
        return CriterionResult(3, "CLT mean", all(r.passed for r in rows),
                               _rows_detail(rows))

    def criterion_4(self) -> CriterionResult:
        rep = self.clt_report
        rows = [r for r in rep.rows if r.stat == "clt_jarque_bera_p" and r.f_id == "1"]
        details = _rows_detail(rows)
        for r in rows:
            if r.passed and r.value < 0.05:
                details.append("note: p-value marginal (< 0.05) under the "
                               "pre-registered seed")
        return CriterionResult(4, "CLT Gaussianity", all(r.passed for r in rows),
                               details)

    def criterion_5(self) -> CriterionResult:
        rep = self.clt_report
        rows = [r for r in rep.rows
                if (r.stat == "clt_var_vs_spde" and r.f_id == "1")
                or (r.stat == "spde_var_vs_oracle" and r.f_id == "1")]
        return CriterionResult(5, "CLT variance", all(r.passed for r in rows),
                               _rows_detail(rows))

    def criterion_6(self) -> CriterionResult:
        rep = self.convergence_report
        gate = ("solve_mvf_order_ratio", "total_ode_order_ratio",
                "evolve_mean_order_ratio", "noise_cov_identity_rel",
                "noise_cov_empirical", "transport_exact")
        rows = [r for r in rep.rows if r.stat in gate]
        return CriterionResult(6, "solver orders and noise construction",
                               all(r.passed for r in rows), _rows_detail(rows))

    def criterion_7(self) -> CriterionResult:
        details = []
        ok = True

        mixed = RateModel(
            birth=ConstantRate(0.5), death=ConstantRate(0.8),
            life_law=OffspringLaw.two_point(0.5, 0, 2),
            split_law=OffspringLaw.poisson(1.2),
            birth_sup=0.5, death_sup=0.8)
        dens = RateModel(
            birth=ConstantRate(0.4),
            death=DensityRate(0.5, 0.3),
            life_law=OffspringLaw.deterministic(1),
            split_law=OffspringLaw.deterministic(2),
            birth_sup=0.4, death_sup=6.5)     # up to mass 20; the mass at t = 1 reaches ~13
        cases = [("pure_splitting", pure_splitting(1.0, 2), 100),
                 ("mixed_laws", mixed, 80),
                 ("density_dependent", dens, 50)]
        for case_i, (name, model, n0) in enumerate(cases):
            rng = replicate_stream(self.seed, PURPOSE_SIM, 7, case_i)
            ages = np.linspace(0.0, 1.0, n0)
            a0 = AtomicMeasure(ages=ages, weight=1.0, t_star=2.0)
            traj = simulate(model, a0, k=n0, horizon=1.0, dt_out=0.25, rng=rng,
                            log_events=True, t_star=2.0)
            gap = check_pathwise_identity(traj)
            ok_case = gap <= 1e-9
            details.append(f"pathwise identity[{name}]: replay's max age gap {gap:.2e} "
                           f"{'ok' if ok_case else 'FAIL'}")
            ok &= ok_case
            books = traj.check_mass_bookkeeping()
            details.append(f"mass bookkeeping[{name}]: {'exact' if books else 'FAIL'}")
            ok &= books
            support_ok = all(
                s.count == 0 or s.ages.max() <= t + 1.0 + 1e-12
                for s, t in zip(traj.snapshots, traj.times))
            details.append(f"support bound[{name}]: {'ok' if support_ok else 'FAIL'}")
            ok &= support_ok

        # determinism: byte-identical samples under rerun and under 2 workers
        import tempfile
        small = ExperimentConfig(
            model=dict(_PURE_SPLITTING),
            initial={"kind": "atoms", "ages": [0.0], "masses": [1.0]},
            horizon=1.0, dt=1e-2, dt_out=0.5,
            k_values=[50], replicates=6, panel=["1", "x"], seed=self.seed)
        outs = []
        for workers in (1, 1, 2):
            rep = run_lln(small, workers=workers)
            with tempfile.TemporaryDirectory() as td:
                emit(rep, td, config=small)
                outs.append((Path(td) / "samples.csv").read_bytes())
        det = outs[0] == outs[1] == outs[2]
        details.append(f"byte-identical samples (rerun, 2 workers): "
                       f"{'ok' if det else 'FAIL'}")
        ok &= det
        return CriterionResult(7, "exactness properties", bool(ok), details)

    def criterion_8(self) -> CriterionResult:
        model = classical_model(0.0, 1.0, OffspringLaw.deterministic(0),
                                OffspringLaw.deterministic(0))
        n_rep = 10 ** 5
        t_end = 1.0
        a0 = AtomicMeasure(ages=np.zeros(3), weight=1.0, t_star=t_end)
        unit, counts = [constant()], np.zeros(4, dtype=np.int64)
        for rep in range(n_rep):
            rng = _reseated_stream(self.seed, PURPOSE_SIM, 8, rep)
            counts[simulate_pairings(model, a0, 1, t_end, t_end, rng, unit).final_count] += 1
        p_surv = math.exp(-t_end)
        pmf = np.array([math.comb(3, j) * p_surv ** j * (1 - p_surv) ** (3 - j)
                        for j in range(4)])
        tv = 0.5 * float(np.abs(counts / n_rep - pmf).sum())
        passed = tv <= 0.02
        details = [f"total variation vs Binomial(3, e^-1): {tv:.5f} "
                   f"(tol 0.02) {'ok' if passed else 'FAIL'}",
                   f"empirical pmf: {np.array2string(counts / n_rep, precision=5)}",
                   f"exact pmf:     {np.array2string(pmf, precision=5)}"]
        return CriterionResult(8, "small-instance sampling law", passed, details)

    def run_all(self) -> list[CriterionResult]:
        """Every criterion in turn, each timed; a shared study is charged to the first
        criterion that runs it."""
        results = []
        for index in range(1, 9):
            t0 = time.perf_counter()
            results.append(getattr(self, f"criterion_{index}")())
            results[-1].seconds = time.perf_counter() - t0
        return results
