"""Exact event-driven simulation of the finite-K age-structured population.

Individuals age at unit rate; an individual of age x gives birth at the
model's per-capita birth rate and dies at its death rate, both of which may
depend on the whole (normalised) population measure.

With constant rates and no K perturbation each life is independent of the
others given the time it enters the run (a Crump-Mode-Jagers process), so such
a run is drawn a generation at a time with no thinning (:func:`_simulate_lives`);
that pass yields the live sets at 0 and at the horizon and the deaths a
closed-form ledger settles from, and only a log or a Gauss-Legendre ledger
sorts every event by time.  Every other run takes the per-candidate loop,
which thins against the bound N * (b + h) while N individuals live, b and h
being the rates' parts at N (:mod:`agestruct.rates`).  This is exact for
state-dependent intensities: rejected candidates still advance time, so rates
are decided at each candidate's epoch, and the bound follows N.

The loop draws a candidate's accept uniform first.  When both rates'
ranges at N, times their age factors, lie inside [0, part] and the uniform
falls outside the gap between them, the ranges decide, with the same bits
as the exact rates.  Otherwise a point range (a constant or mass-only
rate) gives its value and any other rate is evaluated, a kernel rate by a
sum over the live set (:meth:`Population.kernel_pair`); a K-perturbed
rate has no range.  Each value outside [0, part] raises ``ModelError``.

At each output time a run keeps the live count and a sorted snapshot
(:func:`simulate`) or the panel's pairings with A_t / k (:func:`simulate_pairings`).

The simulator optionally maintains, for a panel of test functions, the
compensated jump processes ("martingale ledger"): jumps are applied exactly
at event times.  The absolutely continuous compensator is exact for constant
rates and closed-form test functions (each individual adds an antiderivative
at its exit age minus one at its entry age: O(P) per death); otherwise it is
integrated with fixed-order Gauss-Legendre quadrature over each interval on
which the live set is constant (ages being linear in time there).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .measures import AtomicMeasure, TestFunction, write_csv
from .rates import ModelError, RateModel

__all__ = [
    "CapacityError",
    "Population",
    "MartingaleLedger",
    "EventLog",
    "Trajectory",
    "simulate",
    "simulate_pairings",
    "output_times",
    "check_pathwise_identity",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)

KIND_BIRTH = 0
KIND_DEATH = 1


class CapacityError(RuntimeError):
    """The live population exceeded the configured cap."""


class Population:
    """Mutable live population: birth times and counters.

    Ages are implicit (age = t - birth_time) so that aging between events is
    free.  The object doubles as the measure view handed to rate functions:
    it exposes the normalised total mass and kernel pairings of A_t / k, the
    latter at one age or at every live individual (:meth:`kernel_pair`).
    """

    def __init__(self, ages: Sequence[float], k: int):
        ages = np.asarray(ages, dtype=float)
        cap = max(64, 2 * ages.size)
        self.birth_times = np.empty(cap, dtype=float)
        self.birth_times[: ages.size] = 0.0 - ages      # born before t = 0
        self.n_live = int(ages.size)
        self.k = int(k)
        self.t = 0.0
        self.initial_count = int(ages.size)
        self.births_life = 0
        self.births_split = 0
        self.deaths = 0
        self.counts: list[int] = []     # the live count at each output time
        self._live_pairs: dict = {}

    # -- measure-view protocol used by rate evaluation --------------------
    @property
    def mass(self) -> float:
        return self.n_live / self.k

    def kernel_pair(self, kernel, xs):
        """(g(x, .), A_t) / k at one age, or at every live individual.

        A float ``xs`` (the thinning candidate's age) is paired by a sum over
        the live set.  An array must be the live ages in slot order (the
        ledger's quadrature nodes); the pairings do not change between
        events, so they are computed once per live set.  Any other array
        raises ``ValueError``.
        """
        if isinstance(xs, float):
            return float(kernel(xs, self.ages).sum()) / self.k
        ages = self.ages
        if np.shape(xs) != ages.shape or not np.array_equal(xs, ages):
            raise ValueError("a population pairs a kernel only at its live individuals")
        pairs = self._live_pairs.get(kernel)
        if pairs is None:
            pairs = self._live_pairs[kernel] = self._pair_live(kernel, ages)
        return pairs

    def _pair_live(self, kernel, ages: np.ndarray) -> np.ndarray:
        """The pairing of every live individual, slot order."""
        return kernel(ages[:, None], ages).sum(axis=-1) / self.k

    # ----------------------------------------------------------------------
    @property
    def ages(self) -> np.ndarray:
        return self.t - self.birth_times[: self.n_live]

    def _grow(self, need: int):
        cap = self.birth_times.size
        while cap < need:
            cap *= 2
        new = np.empty(cap, dtype=float)
        new[: self.n_live] = self.birth_times[: self.n_live]
        self.birth_times = new

    def add_newborns(self, count: int):
        if count <= 0:
            return
        n = self.n_live
        if n + count > self.birth_times.size:
            self._grow(n + count)
        self.birth_times[n : n + count] = self.t
        self.n_live = n + count
        if self._live_pairs:
            self._live_pairs = {}

    def remove(self, idx: int):
        n = self.n_live
        if self._live_pairs:
            self._live_pairs = {}
        self.birth_times[idx] = self.birth_times[n - 1]
        self.n_live = n - 1


class MartingaleLedger:
    """Compensated processes (f, M_t) for a panel of test functions.

    ``jump`` collects the discrete part (newborn deposits at age 0 and the
    negative death evaluations); the compensator integrates
    g = f(0)*newborn_rate - f*death_rate against the unnormalised population.
    M^f_t = jump - compensator is a martingale; the sqrt(K)-scaled version is
    obtained by dividing by sqrt(K).

    ``closed_form`` (constant rates, no K perturbation, no bump in the panel):
    g depends on the age alone, with antiderivative G, so ``_acc`` holds -G
    at the initial ages plus G at each death age (newborns enter at age 0,
    where G = 0) and a record adds G over the live ages.  Lifelines hand over
    each output interval's newborns and death ages at once (:meth:`settle`).
    Otherwise ``_acc`` is the Gauss-Legendre integral of g up to the last
    event, and the run reports each event (:meth:`birth`, :meth:`death`),
    lifelines in time order as the loop does.
    """

    def __init__(self, panel: Sequence[TestFunction], model: RateModel, pop: Population):
        self.panel = list(panel)
        self.model = model
        p = len(self.panel)
        self.f0 = [f.at_zero for f in self.panel]
        self.jump = [0.0] * p
        self.times: list[float] = []
        self.m_path: list[np.ndarray] = []
        self.comp_path: list[np.ndarray] = []
        # rates with no age factor take the same row at every node
        self._ageless = (model.birth.age is None and model.death.age is None
                         and model.k_perturbation is None)
        self.closed_form = (self._ageless and model.constant_rates
                            and all(f.kind != "bump" for f in self.panel))
        self._acc = [0.0] * p
        self._s = pop.t
        if self.closed_form:
            self._h = model.death.value
            newborn = model.birth.value * model.life_law.mean + self._h * model.split_law.mean
            self._g0 = [f0 * newborn for f0 in self.f0]
            self._acc = [-g for g in self._g_sum(pop.ages)]

    def _g_sum(self, ages: np.ndarray) -> list[float]:
        """G summed over ``ages``, per panel function (closed form)."""
        return [g0 * float(ages.sum()) - self._h * float(np.sum(f.antiderivative(ages)))
                for g0, f in zip(self._g0, self.panel)]

    def _accumulate(self, pop: Population):
        """Add the compensator integral since the last event (constant live set)."""
        s0, s1 = self._s, pop.t
        self._s = s1
        n = pop.n_live
        if self.closed_form or n == 0 or s1 <= s0:
            return
        model = self.model
        half = 0.5 * (s1 - s0)
        s_nodes = 0.5 * (s0 + s1) + half * _GL_NODES
        ages = s_nodes[:, None] - pop.birth_times[:n][None, :]
        lm, sm = model.life_law.mean, model.split_law.mean
        evals = s_nodes[:1] if self._ageless else s_nodes
        h = np.empty((evals.size, n))
        nsum = np.empty(evals.size)
        for q, s in enumerate(evals):
            pop.t = float(s)
            h[q] = model.death_rate(ages[q], pop, pop.k)
            nsum[q] = np.sum(model.birth_rate(ages[q], pop, pop.k) * lm + h[q] * sm)
        pop.t = s1
        nsum = np.broadcast_to(nsum, s_nodes.shape)
        for i, f in enumerate(self.panel):
            fh = (f(ages) * h).sum(axis=1)
            for q, w in enumerate(_GL_WEIGHTS):
                self._acc[i] += half * w * (self.f0[i] * nsum[q] - fh[q])

    def record(self, pop: Population):
        """Keep M and the compensator at the population's current time."""
        self._accumulate(pop)
        comp = (np.add(self._acc, self._g_sum(pop.ages)) if self.closed_form
                else np.array(self._acc))
        self.times.append(pop.t)
        self.m_path.append(np.array(self.jump) - comp)
        self.comp_path.append(comp)

    def birth(self, pop: Population, brood: int):
        """A birth of ``brood`` newborns at the population's current time."""
        self._accumulate(pop)
        self.jump = [j + brood * f0 for j, f0 in zip(self.jump, self.f0)]

    def death(self, pop: Population, age: float, brood: int):
        """The live individual aged ``age`` dies, leaving ``brood`` newborns."""
        self._accumulate(pop)
        age = float(age)
        for i, f in enumerate(self.panel):
            self.jump[i] = self.jump[i] - f.scalar(age) + brood * self.f0[i]

    def settle(self, newborns: int, death_ages: np.ndarray):
        """Closed form: ``newborns`` born and the individuals aged ``death_ages``
        dead since the last record."""
        for i, f in enumerate(self.panel):
            self.jump[i] += newborns * self.f0[i] - float(np.sum(f(death_ages)))
        self._acc = np.add(self._acc, self._g_sum(death_ages)).tolist()

    def martingales(self) -> np.ndarray:
        """Path values M^f at the recorded times, shape (n_times, panel)."""
        return np.array(self.m_path)

    def to_csv(self, path: Union[str, Path]):
        write_csv(path, ["t", "f_id", "M_value", "compensator"],
                  ((t, f.label, m, c) for t, m_row, c_row in zip(self.times, self.m_path,
                                                                  self.comp_path)
                   for f, m, c in zip(self.panel, m_row, c_row)))


class EventLog:
    """Accepted events: time, kind, affected individual's birth time, brood."""

    def __init__(self):
        self.t: list[float] = []
        self.kind: list[int] = []
        self.tau: list[float] = []
        self.brood: list[int] = []

    def add(self, t: float, kind: int, tau: float, brood: int):
        self.t.append(t)
        self.kind.append(kind)
        self.tau.append(tau)
        self.brood.append(brood)

    def __len__(self):
        return len(self.t)

    def to_csv(self, path: Union[str, Path]):
        write_csv(path, ["t", "kind", "age", "offspring"],
                  ((t, "birth" if k == KIND_BIRTH else "death", t - tau, br)
                   for t, k, tau, br in zip(self.t, self.kind, self.tau, self.brood)))


@dataclass
class Trajectory:
    """One run: live counts and snapshots or pairings at the output times, and counters.

    ``candidates`` counts the thinning candidates before the horizon,
    accepted or rejected.  A run drawn by lifelines rejects none, so there
    it counts the events before the horizon.
    """

    k: int
    times: np.ndarray
    counts: list[int]
    initial_count: int
    births_life: int
    births_split: int
    deaths: int
    candidates: int
    initial_birth_times: np.ndarray
    ledger: Optional[MartingaleLedger] = None
    events: Optional[EventLog] = None
    snapshots: Optional[list[AtomicMeasure]] = None
    pairings: Optional[np.ndarray] = None

    @property
    def final_count(self) -> int:
        return self.counts[-1]

    def check_mass_bookkeeping(self) -> bool:
        """|A_T| = |A_0| + births - deaths, as exact integers."""
        return self.final_count == (
            self.initial_count + self.births_life + self.births_split - self.deaths
        )


@functools.lru_cache
def output_times(horizon: float, dt_out: float) -> np.ndarray:
    """The output times i * dt_out up to the horizon, the last being the horizon
    itself, built once and read-only; a ValueError unless ``dt_out`` divides it."""
    n_out = int(round(horizon / dt_out))
    if abs(n_out * dt_out - horizon) > 1e-9:
        raise ValueError("dt_out must divide the horizon")
    times = np.append(np.arange(n_out) * float(dt_out), float(horizon))
    times.flags.writeable = False
    return times


# Uniforms per draw from the replicate's generator on the loop.
_UBLOCK = 8192


def simulate(model: RateModel, a0: AtomicMeasure, k: int, horizon: float,
             dt_out: float, rng: np.random.Generator, *,
             panel: Optional[Sequence[TestFunction]] = None,
             with_ledger: bool = False,
             log_events: bool = False,
             population_cap: int = 10 ** 7,
             t_star: Optional[float] = None) -> Trajectory:
    """Simulate the population carrying ``a0`` (unit-weight atoms) to the horizon.

    ``k`` is the normalisation used when rates are evaluated (the rates see
    A_t / k) and the snapshot weight is 1/k.  Snapshots are taken at the
    :func:`output_times`; identical (rng stream, arguments) give identical
    event sequences (:func:`_run`).
    """
    if t_star is None:
        t_star = horizon + (float(a0.ages.max()) if a0.count else 0.0)
    snapshots: list[AtomicMeasure] = []
    traj = _run(model, a0, k, horizon, dt_out, rng, panel, with_ledger, log_events,
                population_cap, lambda pop: snapshots.append(
                    AtomicMeasure(ages=np.sort(pop.ages), weight=1.0 / k, t_star=t_star)))
    traj.snapshots = snapshots
    return traj


def simulate_pairings(model: RateModel, a0: AtomicMeasure, k: int, horizon: float,
                      dt_out: float, rng: np.random.Generator,
                      panel: Sequence[TestFunction], *, with_ledger: bool = False,
                      population_cap: int = 10 ** 7) -> Trajectory:
    """:func:`simulate` keeping ``pairings`` (times x panel) in place of snapshots,
    each with the bits of ``pair(f, snapshot)``: the unit function is count / k (a
    sum of ones is exact), any other f is summed over the live ages sorted once per
    output time.  With no ledger and an all-unit panel, lifelines only count."""
    unit, weight, rows = [f.kind == "exp" and not f.lam for f in panel], 1.0 / k, []

    def keep(pop):
        ages = np.sort(pop.ages)
        rows.append([weight * np.sum(f(ages)) for f, u in zip(panel, unit) if not u])

    traj = _run(model, a0, k, horizon, dt_out, rng, panel, with_ledger, False,
                population_cap, None if all(unit) else keep)
    traj.pairings = np.array([[weight * n] * len(panel) for n in traj.counts])
    if rows:
        traj.pairings[:, np.logical_not(unit)] = rows
    return traj


def _run(model, a0, k, horizon, dt_out, rng, panel, with_ledger, log_events,
         population_cap, keep) -> Trajectory:
    """Either entry's run; ``keep(pop)``, if given, reads the live set at each output time.

    The model alone picks the path, so a log or a ledger changes no draw.  A
    run with constant rates and no K perturbation is drawn life by life
    (:func:`_simulate_lives`).  Any other run takes the per-candidate loop:
    each candidate reads three uniforms (time, slot, accept) from blocks of
    8192 drawn from ``rng``, against a bound re-chosen for each live count N.
    """
    if a0.weight != 1.0:
        raise ValueError("initial atoms must carry unit weight (raw population)")
    out_times = output_times(horizon, dt_out)
    pop = Population(a0.ages, k=k)
    initial_bt = pop.birth_times[: pop.n_live].copy()
    if with_ledger and panel is None:
        raise ValueError("a ledger needs a test-function panel")
    ledger = MartingaleLedger(panel, model, pop) if with_ledger else None
    log = EventLog() if log_events else None

    lives = model.constant_rates and model.k_perturbation is None
    run = _simulate_lives if lives else _simulate_loop
    candidates = run(pop, model, horizon, out_times, keep, rng, ledger, log, population_cap)

    return Trajectory(
        k=k,
        times=out_times,
        counts=pop.counts,
        initial_count=pop.initial_count,
        births_life=pop.births_life,
        births_split=pop.births_split,
        deaths=pop.deaths,
        candidates=candidates,
        initial_birth_times=initial_bt,
        ledger=ledger,
        events=log,
    )


def _emit(pop: Population, t_out: float, ledger, keep) -> None:
    """At output time ``t_out``: the ledger records, then the live count and ``keep``."""
    pop.t = float(t_out)
    if ledger is not None:
        ledger.record(pop)
    pop.counts.append(pop.n_live)
    if keep is not None:
        keep(pop)


def _simulate_loop(pop, model, horizon, out_times, keep, rng, ledger, log,
                   population_cap):
    """Thinning one candidate at a time; returns the candidates."""
    k = pop.k
    b_sup, h_sup = model.birth_sup, model.death_sup
    if model.k_perturbation is None:
        b_bounds, h_bounds = model.birth.bounds, model.death.bounds
    else:           # no range: NaN lies inside nothing and is no point
        b_bounds = h_bounds = lambda n, k, sup: (sup, math.nan, math.nan)
    b_age = model.birth.age.scalar if model.birth.age is not None else None
    h_age = model.death.age.scalar if model.death.age is not None else None
    life_law, split_law = model.life_law, model.split_law
    life_det = life_law.k if life_law.kind == "deterministic" else None
    split_det = split_law.k if split_law.kind == "deterministic" else None
    sized = {}      # the bound's parts and the rates' ranges, per live count

    # batched uniforms; order of consumption is fixed, so runs are reproducible.
    # A memoryview reads Python floats with the array's bits, without a copy.
    block = _UBLOCK
    ublock = memoryview(rng.random(block))
    uptr = 0

    def next_u():
        nonlocal ublock, uptr
        if uptr >= block:
            ublock = memoryview(rng.random(block))
            uptr = 0
        u = ublock[uptr]
        uptr += 1
        return u

    out_idx = 0
    t = 0.0
    candidates = 0
    log1p = math.log1p
    n_outs = out_times.size

    def flush_outputs(limit: float) -> float:
        nonlocal out_idx
        while out_idx < n_outs and out_times[out_idx] <= limit:
            _emit(pop, out_times[out_idx], ledger, keep)
            out_idx += 1
        return out_times[out_idx] if out_idx < n_outs else math.inf

    next_out = flush_outputs(0.0)

    while True:
        n = pop.n_live
        if n not in sized:           # the sizes a run visits repeat: each is set once
            sized[n] = b_bounds(n, k, b_sup) + h_bounds(n, k, h_sup)
        b_part, b_rlo, b_rhi, h_part, h_rlo, h_rhi = sized[n]
        bound = b_part + h_part
        if n == 0 or bound <= 0.0:
            flush_outputs(horizon)
            pop.t = horizon
            break
        t_cand = t - log1p(-next_u()) / (n * bound)
        if t_cand >= next_out:
            next_out = flush_outputs(min(t_cand, horizon))
        if t_cand >= horizon:
            pop.t = horizon
            break
        t = t_cand
        pop.t = t
        candidates += 1
        idx = int(next_u() * n)
        tau = pop.birth_times[idx]
        age = t - tau
        r = next_u() * bound     # before the rates: evaluating one draws nothing
        b_lo, b_hi, h_lo, h_hi = b_rlo, b_rhi, h_rlo, h_rhi
        if b_age is not None:
            a = b_age(age)
            b_lo, b_hi = (a * b_rlo, a * b_rhi) if a >= 0.0 else (a * b_rhi, a * b_rlo)
        if h_age is not None:
            a = h_age(age)
            h_lo, h_hi = (a * h_rlo, a * h_rhi) if a >= 0.0 else (a * h_rhi, a * h_rlo)
        b = None
        # inside [0, part] the exact rates pass their checks, and ranges that
        # fix the fate stand in for them
        if 0.0 <= b_lo and b_hi <= b_part and 0.0 <= h_lo and h_hi <= h_part:
            if r < b_lo or b_hi <= r < b_lo + h_lo:
                b, h = b_lo, h_lo
            elif r >= b_hi + h_hi:
                b, h = b_hi, h_hi
        if b is None:
            b = b_lo if b_lo == b_hi else float(model.birth_rate(age, pop, k))
            if b < 0.0 or b > b_part * (1.0 + 1e-9):
                where = "declared" if b_part == b_sup else "per-size"
                raise ModelError(f"birth rate {b} violates {where} bound {b_part}")
            h = h_lo if h_lo == h_hi else float(model.death_rate(age, pop, k))
            if h < 0.0 or h > h_part * (1.0 + 1e-9):
                where = "declared" if h_part == h_sup else "per-size"
                raise ModelError(f"death rate {h} violates {where} bound {h_part}")
        if r < b:
            brood = life_det if life_det is not None else life_law.sample(next_u, rng)
            if ledger is not None:
                ledger.birth(pop, brood)
            pop.births_life += brood
            pop.add_newborns(brood)
            if log is not None:
                log.add(t, KIND_BIRTH, tau, brood)
        elif r < b + h:
            brood = split_det if split_det is not None else split_law.sample(next_u, rng)
            if ledger is not None:
                ledger.death(pop, age, brood)
            pop.deaths += 1
            pop.remove(idx)
            pop.births_split += brood
            pop.add_newborns(brood)
            if log is not None:
                log.add(t, KIND_DEATH, tau, brood)
        # else: rejected candidate; ages have drifted, nothing else changes
        if pop.n_live > population_cap:
            raise CapacityError(
                f"population {pop.n_live} exceeded cap {population_cap} at t={t:.6g}"
            )
    return candidates


def _simulate_lives(pop, model, horizon, out_times, keep, rng, ledger, log,
                    population_cap):
    """Constant rates: every life drawn on its own, a generation at a time.

    A life entering the run at time e (0 for an initial atom, its birth time
    for a newborn) lasts an Exp(h) residual time and, when b > 0, gives birth
    at a Poisson number, of mean b times its span before the horizon, of
    uniform times over that span; given e it is independent of every other
    life.  Each birth event, and each death before the horizon (one selection),
    leaves a brood drawn from its law, one scalar for a deterministic split
    law, and one generation's broods are the next.  The pass yields the live
    sets at 0 (the initial lives not yet dead) and at the horizon (each
    generation's lives that outlast it), gathered only for a ledger or ``keep``;
    only a time inside (0, horizon) reads the life table.  A closed-form ledger
    settles from the lives entered and the deaths (times and ages) sorted once;
    only a log or a Gauss-Legendre ledger sorts every event.  Returns the candidates.
    """
    b, h = model.birth.value, model.death.value
    split_k = model.split_law.k if model.split_law.kind == "deterministic" else None
    closed = ledger is not None and ledger.closed_form
    born = pop.birth_times[: pop.n_live]
    entry = np.zeros(born.size)
    parent = np.arange(0)           # stays empty when b = 0
    lives, ends, deaths, events, drawn, candidates = [], [], [], [], 0, 0
    while True:
        n = born.size
        died = rng.standard_exponential(n) if h > 0.0 else np.full(n, math.inf)
        died /= h or 1.0            # in place, the bits of entry + e / h
        died += entry
        # selecting lives by index (flatnonzero) runs ~4x faster than by boolean mask
        dead = np.flatnonzero(died < horizon)
        t_ev = died[dead]
        if closed:                  # the death times over their ages
            deaths.append(np.stack((t_ev, t_ev - born[dead])))
        if keep is not None or ledger is not None:      # they read the live set
            ends.append(born[np.flatnonzero(died >= horizon)])
        if b > 0.0:
            span = np.minimum(died, horizon) - entry
            parent = np.repeat(np.arange(n), rng.poisson(b * span))
            t_ev = np.concatenate((entry[parent] + rng.random(parent.size) * span[parent], t_ev))
            brood = np.concatenate((model.life_law.samples(rng, parent.size),
                                    model.split_law.samples(rng, dead.size)))
            pop.births_life += int(brood[:parent.size].sum())
        else:
            brood = model.split_law.samples(rng, dead.size) if split_k is None else split_k
        candidates += t_ev.size
        pop.deaths += dead.size
        if log is not None or ledger is not None and not closed:   # time, tau, brood, dies
            events.append((t_ev, np.concatenate((born[parent], born[dead])),
                           np.broadcast_to(brood, t_ev.shape), np.arange(t_ev.size) >= parent.size))
        lives.append((born, died))
        drawn += n
        if drawn > population_cap:
            # the lives drawn so far are some of the run's: their running
            # count is a lower bound, and it is the run's after the last
            # generation.  A death comes before a birth at the same time.
            lb, ld = map(np.concatenate, zip(*lives))
            t = np.concatenate((np.maximum(lb, 0.0), ld[np.flatnonzero(ld < horizon)]))
            step = np.repeat([1, -1], [lb.size, t.size - lb.size])
            order = np.lexsort((step, t))
            count = np.cumsum(step[order])
            over = np.flatnonzero(count > population_cap)
            if over.size:
                raise CapacityError(f"population {count[over[0]]} exceeded cap {population_cap} "
                                    f"at t={t[order[over[0]]]:.6g}")
        born = entry = t_ev.repeat(brood)
        if not born.size:
            break
    pop.births_split = drawn - pop.initial_count - pop.births_life   # the newborns drawn

    if events:                                      # the events in time order
        t_ev, tau, brood, dies = map(np.concatenate, zip(*events))
        order = np.argsort(t_ev, kind="stable")
        t_ev, tau, brood, dies = t_ev[order], tau[order], brood[order], dies[order]
    if log is not None:
        log.t, log.tau, log.brood = t_ev.tolist(), tau.tolist(), brood.tolist()
        log.kind = np.where(dies, KIND_DEATH, KIND_BIRTH).tolist()
    if closed:      # equal death times are siblings', of equal ages: no order among them counts
        d = np.concatenate(deaths, axis=1)
        t_d, age_d = d[:, np.argsort(d[0])]
    if out_times.size > 2:          # a time inside (0, horizon) reads the life table
        born, died = map(np.concatenate, zip(*lives))

    done, settled = 0, pop.initial_count
    for t_out in out_times:
        if ledger is not None and not closed:   # each event on the live set it meets
            c = int(np.searchsorted(t_ev, t_out, side="right"))
            for i in range(done, c):
                pop.t = float(t_ev[i])
                if dies[i]:
                    ledger.death(pop, pop.t - tau[i], int(brood[i]))
                    pop.remove(int(np.flatnonzero(pop.birth_times[:pop.n_live] == tau[i])[0]))
                else:
                    ledger.birth(pop, int(brood[i]))
                pop.add_newborns(int(brood[i]))
            done = c
        if t_out == horizon:
            pop.n_live = drawn - pop.deaths
            if ends:
                pop.birth_times = np.concatenate(ends)
        else:
            lb, alive = (lives[0][0], 0.0 < lives[0][1]) if t_out == 0.0 else (
                born, (born <= t_out) & (t_out < died))
            pop.n_live = int(np.count_nonzero(alive))
            if ends:
                pop.birth_times = lb[np.flatnonzero(alive)]
        if closed:      # the interval's newborns and death ages at once
            entered = drawn if t_out == horizon else np.count_nonzero(lb <= t_out)
            c = int(np.searchsorted(t_d, t_out, side="right"))
            ledger.settle(entered - settled, age_d[done:c])
            done, settled = c, entered
        _emit(pop, t_out, ledger, keep)
    return candidates


# ---------------------------------------------------------------------------
# pathwise identity checking


def check_pathwise_identity(traj: Trajectory) -> float:
    """Largest gap between the event log's replay and the snapshots.

    Between events the population only ages, so the pathwise evolution
    identity

        (f(.,t), A_t) = (f(.,0), A_0) + int_0^t ((d_x + d_s) f, A_s) ds
                        + sum of f(0, birth times) - sum of f(lifespan, death time)

    holds for every smooth f exactly when a replay of the log rebuilds A_t.
    The replay starts from the initial birth times: a birth adds its brood
    at age 0, and a death removes the individual born at ``tau`` and adds
    its brood.  At each output time the sorted live ages are compared with
    that snapshot's.  Returns the largest age gap, or inf when a count
    differs, a death finds no live individual or an event is left over.
    """
    if traj.events is None:
        raise ValueError("trajectory was simulated without an event log")
    ev = traj.events
    born = list(traj.initial_birth_times)
    gap, ei = 0.0, 0
    for t_out, snap in zip(traj.times, traj.snapshots):
        while ei < len(ev) and ev.t[ei] <= t_out:
            if ev.kind[ei] == KIND_DEATH:
                if ev.tau[ei] not in born:
                    return math.inf
                born.remove(ev.tau[ei])
            born.extend([ev.t[ei]] * ev.brood[ei])
            ei += 1
        ages = np.sort(t_out - np.array(born))
        if ages.size != snap.count:
            return math.inf
        gap = max(gap, float(np.abs(ages - snap.ages).max(initial=0.0)))
    return gap if ei == len(ev) else math.inf
