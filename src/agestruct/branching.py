"""Exact event-driven simulation of the finite-K age-structured population.

Individuals age at unit rate; an individual of age x gives birth at the
model's per-capita birth rate and dies at its death rate, both of which may
depend on the whole (normalised) population measure.  Event times are drawn
by thinning against the bound N * (b + h) while N individuals live: b and h
are the declared birth_sup and death_sup, or the lower bound that N alone
proves for a kernel rate (:meth:`~agestruct.rates.KernelRate.bounds`).
This is exact for state-dependent intensities: rejected candidates still
advance time, so ages drift and rates are re-evaluated at each candidate
epoch, and the bound is re-chosen whenever N changes.

Two paths run this thinning and read the same words of the generator to
the same bits.  The per-candidate loop serves every model.  A state-free run
(constant rates, no K perturbation, deterministic broods, no ledger or a
closed-form one) decides each candidate from its accept uniform alone; when
it expects at least ``_BLOCK_MIN_CANDIDATES`` candidates it is resolved by
array arithmetic instead: the candidates a chunk at a time, then the
swap-remove slot order of the whole run over individual ids, and a
closed-form ledger as cumulative sums.

A ``kernel_linear`` rate reads its kernel average (g(x, .), A) at the
candidate, a sum over the live set (:meth:`Population.kernel_pair`).  Most
candidates read none: the loop draws the accept uniform first, and when it
falls outside the gap between the rate's bounds at the candidate (the phi
range that N/k proves, times the age factor r(x)) inside [0, sup], those
bounds decide, with the same bits and the same ``ModelError`` as the exact
rate.

The simulator optionally maintains, for a panel of test functions, the
compensated jump processes ("martingale ledger"): jumps are applied exactly
at event times.  The absolutely continuous compensator is exact for constant
rates and closed-form test functions (each individual adds an antiderivative
at its exit age minus one at its entry age: O(P) per death); otherwise it is
integrated with fixed-order Gauss-Legendre quadrature over each interval on
which the live set is constant (ages being linear in time there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .measures import AtomicMeasure, TestFunction
from .rates import ModelError, RateModel

__all__ = [
    "CapacityError",
    "Population",
    "MartingaleLedger",
    "EventLog",
    "Trajectory",
    "simulate",
    "TwoVarFunction",
    "two_var",
    "pathwise_identity_catalogue",
    "check_pathwise_identity",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)

KIND_BIRTH = 0
KIND_DEATH = 1


class CapacityError(RuntimeError):
    """The live population exceeded the configured cap."""


class Population:
    """Mutable live population: birth times, counters and death log.

    Ages are implicit (age = t - birth_time) so that aging between events is
    free.  The object doubles as the measure view handed to rate functions:
    it exposes the normalised total mass and kernel pairings of A_t / k, the
    latter only at its live individuals (:meth:`kernel_pair`).
    """

    def __init__(self, ages: Sequence[float], k: int, t0: float = 0.0):
        ages = np.asarray(ages, dtype=float)
        cap = max(64, 2 * ages.size)
        self.birth_times = np.empty(cap, dtype=float)
        self.birth_times[: ages.size] = t0 - ages
        self.n_live = int(ages.size)
        self.k = int(k)
        self.t = float(t0)
        self.initial_count = int(ages.size)
        self.births_life = 0
        self.births_split = 0
        self.deaths = 0
        self.death_ages: list[float] = []
        self.death_times: list[float] = []
        self.focus = 0          # slot of the individual whose rates are evaluated
        self._live_pairs: dict = {}

    # -- measure-view protocol used by rate evaluation --------------------
    @property
    def mass(self) -> float:
        return self.n_live / self.k

    def kernel_pair(self, kernel, xs):
        """(g(x, .), A_t) / k, only at live individuals.

        A float ``xs`` must be the age of the individual at slot ``focus``
        (the thinning candidate), paired by a sum over the live set.  An
        array must be the live ages in slot order (the ledger's quadrature
        nodes); the pairings do not change between events, so they are
        computed once per live set.  Any other age raises ``ValueError``.
        """
        n = self.n_live
        if isinstance(xs, float):
            i = self.focus
            tau = float(self.birth_times[i]) if i < n else math.nan
            if xs != self.t - tau:
                raise ValueError("a population pairs a kernel only at its live individuals")
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

    def snapshot(self, t_star: float) -> AtomicMeasure:
        ages = np.sort(self.t - self.birth_times[: self.n_live])
        return AtomicMeasure(ages=ages, weight=1.0 / self.k, t_star=t_star)


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
    where G = 0) and a record adds G over the live ages.  Otherwise ``_acc``
    is the Gauss-Legendre integral of g up to the last event.
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
        self._constant_rates = (model.birth.is_constant and model.death.is_constant
                                and model.k_perturbation is None)
        self.closed_form = self._constant_rates and all(f.kind != "bump" for f in self.panel)
        self._acc = [0.0] * p
        self._s = pop.t
        if self.closed_form:
            self._h = model.death.value
            newborn = model.birth.value * model.life_law.mean + self._h * model.split_law.mean
            self._g0 = [f0 * newborn for f0 in self.f0]
            self._acc = [-g for g in self._live(pop)]

    def _live(self, pop: Population) -> list[float]:
        """G summed over the live ages, per panel function (closed form)."""
        ages = pop.ages
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
        # constant rates take the same row at every node: evaluate them once
        evals = s_nodes[:1] if self._constant_rates else s_nodes
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
        comp = np.add(self._acc, self._live(pop)) if self.closed_form else np.array(self._acc)
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
            if self.closed_form:
                self._acc[i] += self._g0[i] * age - self._h * f.antiderivative(age, math)

    def replay(self, dies: np.ndarray, ages: np.ndarray, life: int, split: int):
        """Closed form: events in order, deaths where ``dies`` (of the individual
        aged ``ages``, leaving ``split``) and births of ``life`` elsewhere.

        The same bits as one :meth:`death` or :meth:`birth` per event: the
        jump terms (-f(age) then split * f(0) for a death, life * f(0) for a
        birth) and the compensator terms g0 * age - h * F(age) are summed in
        event order by ``np.cumsum``, which is sequential.
        """
        d = np.flatnonzero(dies)
        at = (np.arange(dies.size) + np.cumsum(dies) - dies)[d]   # each death's first term
        ages = ages[d].tolist()
        for i, f in enumerate(self.panel):
            terms = np.full(dies.size + d.size, life * self.f0[i])
            terms[at], terms[at + 1] = [-f.scalar(a) for a in ages], split * self.f0[i]
            comp = [self._g0[i] * a - self._h * f.antiderivative(a, math) for a in ages]
            self.jump[i] = float(np.cumsum(np.append(self.jump[i], terms))[-1])
            self._acc[i] = float(np.cumsum(np.append(self._acc[i], comp))[-1])

    def martingales(self) -> np.ndarray:
        """Path values M^f at the recorded times, shape (n_times, panel)."""
        return np.array(self.m_path)

    def to_csv(self, path: Union[str, Path]):
        with Path(path).open("w") as fh:
            fh.write("t,f_id,M_value,compensator\n")
            for t, m_row, c_row in zip(self.times, self.m_path, self.comp_path):
                for f, m, c in zip(self.panel, m_row, c_row):
                    fh.write(f"{float(t)!r},{f.label},{float(m)!r},{float(c)!r}\n")


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
        with Path(path).open("w") as fh:
            fh.write("t,kind,age,offspring\n")
            for t, k, tau, br in zip(self.t, self.kind, self.tau, self.brood):
                name = "birth" if k == KIND_BIRTH else "death"
                fh.write(f"{float(t)!r},{name},{float(t - tau)!r},{br}\n")


@dataclass
class Trajectory:
    """Result of one simulation run: snapshots, counters and bookkeeping.

    ``candidates`` counts the thinning candidates before the horizon,
    accepted or rejected.
    """

    k: int
    t_star: float
    times: np.ndarray
    snapshots: list[AtomicMeasure]
    initial_count: int
    births_life: int
    births_split: int
    deaths: int
    candidates: int
    death_ages: np.ndarray
    death_times: np.ndarray
    initial_birth_times: np.ndarray
    ledger: Optional[MartingaleLedger] = None
    events: Optional[EventLog] = None

    @property
    def final_count(self) -> int:
        return self.snapshots[-1].count

    def check_mass_bookkeeping(self) -> bool:
        """|A_T| = |A_0| + births - deaths, as exact integers."""
        return self.final_count == (
            self.initial_count + self.births_life + self.births_split - self.deaths
        )


# Uniforms per draw from the replicate's generator (both paths).
_UBLOCK = 8192
# Expected candidates n0 * (birth_sup + death_sup) * horizon from which a
# state-free run is resolved in blocks.  The block path's array passes cost
# a fixed ~0.3 ms per run; measured against the loop (median of 5 alternating
# batches on a 2-core VM), it wins from ~50 expected candidates for pure
# splitting, ~150 for births and deaths and ~220 for pure death.
_BLOCK_MIN_CANDIDATES = 256


def simulate(model: RateModel, a0: AtomicMeasure, k: int, horizon: float,
             dt_out: float, rng: np.random.Generator, *,
             panel: Optional[Sequence[TestFunction]] = None,
             with_ledger: bool = False,
             log_events: bool = False,
             population_cap: int = 10 ** 7,
             t_star: Optional[float] = None) -> Trajectory:
    """Simulate the population carrying ``a0`` (unit-weight atoms) to the horizon.

    ``k`` is the normalisation used when rates are evaluated (the rates see
    A_t / k) and the snapshot weight is 1/k.  Snapshots are taken at every
    multiple of ``dt_out``; identical (rng stream, arguments) give identical
    event sequences.

    Every candidate reads three uniforms (time, slot, accept) from blocks of
    8192 drawn from ``rng`` as needed.  A *state-free* run is resolved in
    blocks by array arithmetic (:func:`_simulate_blocks`) when its expected
    candidate count ``n0 * (birth_sup + death_sup) * horizon`` is at least
    ``_BLOCK_MIN_CANDIDATES``; any other run takes the per-candidate loop.
    State-free means constant rates, no K perturbation, deterministic broods
    and no ledger or a closed-form one, so a candidate's fate depends on its
    uniform alone.  Both paths read the same words from ``rng`` and return
    the same bits.  On the loop, when each rate is constant or
    ``kernel_linear`` (with no K perturbation), the bound is re-chosen for
    each live count N (a kernel rate's part can lie well below its sup), and
    a candidate is decided from the rates' bounds at it when they fix its
    fate, with the same bits as evaluating them.
    """
    if a0.weight != 1.0:
        raise ValueError("initial atoms must carry unit weight (raw population)")
    n_out = int(round(horizon / dt_out))
    if abs(n_out * dt_out - horizon) > 1e-9:
        raise ValueError("dt_out must divide the horizon")
    out_times = np.array([i * dt_out for i in range(n_out + 1)])
    out_times[-1] = horizon
    if t_star is None:
        a_star = float(a0.ages.max()) if a0.count else 0.0
        t_star = horizon + a_star

    pop = Population(a0.ages, k=k)
    initial_bt = pop.birth_times[: pop.n_live].copy()
    if with_ledger and panel is None:
        raise ValueError("a ledger needs a test-function panel")
    ledger = MartingaleLedger(panel, model, pop) if with_ledger else None
    log = EventLog() if log_events else None

    state_free = (model.birth.is_constant and model.death.is_constant
                  and model.k_perturbation is None
                  and model.life_law.kind == model.split_law.kind == "deterministic"
                  and (ledger is None or ledger.closed_form))
    expected = pop.n_live * (model.birth_sup + model.death_sup) * horizon
    run = (_simulate_blocks if state_free and expected >= _BLOCK_MIN_CANDIDATES
           else _simulate_loop)
    snapshots, candidates = run(pop, model, horizon, out_times, t_star, rng,
                                ledger, log, population_cap)

    return Trajectory(
        k=k,
        t_star=t_star,
        times=out_times,
        snapshots=snapshots,
        initial_count=pop.initial_count,
        births_life=pop.births_life,
        births_split=pop.births_split,
        deaths=pop.deaths,
        candidates=candidates,
        death_ages=np.array(pop.death_ages),
        death_times=np.array(pop.death_times),
        initial_birth_times=initial_bt,
        ledger=ledger,
        events=log,
    )


def _emit(pop: Population, t_out: float, ledger, t_star: float,
          snapshots: list[AtomicMeasure]) -> None:
    """Record the ledger and take a snapshot at output time ``t_out``."""
    pop.t = float(t_out)
    if ledger is not None:
        ledger.record(pop)
    snapshots.append(pop.snapshot(t_star))


def _simulate_loop(pop, model, horizon, out_times, t_star, rng, ledger, log,
                   population_cap):
    """Thinning one candidate at a time; returns (snapshots, candidates)."""
    k = pop.k
    b_fn, h_fn = model.birth, model.death
    b_const = b_fn.value if b_fn.is_constant and model.k_perturbation is None else None
    h_const = h_fn.value if h_fn.is_constant and model.k_perturbation is None else None
    b_sup = model.birth_sup
    h_sup = model.death_sup
    life_law, split_law = model.life_law, model.split_law
    life_det = life_law.k if life_law.kind == "deterministic" else None
    split_det = split_law.k if split_law.kind == "deterministic" else None
    # the squeeze: when each rate is constant or a kernel rate, the bound is
    # re-chosen per live count n from the rates' bounds, and a candidate
    # whose fate both phi ranges fix (times its age factor) pairs no kernel
    b_bounds = getattr(b_fn, "bounds", None) if model.k_perturbation is None else None
    h_bounds = getattr(h_fn, "bounds", None) if model.k_perturbation is None else None
    squeeze = ((b_bounds is not None or h_bounds is not None)
               and (b_bounds is not None or b_const is not None)
               and (h_bounds is not None or h_const is not None))
    b_age = b_fn.age.scalar if b_bounds is not None else None
    h_age = h_fn.age.scalar if h_bounds is not None else None
    b_part, h_part, sized = b_sup, h_sup, {}    # the bound's parts; per live count
    bound = b_sup + h_sup

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

    snapshots: list[AtomicMeasure] = []
    out_idx = 0
    t = 0.0
    candidates = 0
    log1p = math.log1p
    n_outs = out_times.size

    def flush_outputs(limit: float) -> float:
        nonlocal out_idx
        while out_idx < n_outs and out_times[out_idx] <= limit:
            _emit(pop, out_times[out_idx], ledger, t_star, snapshots)
            out_idx += 1
        return out_times[out_idx] if out_idx < n_outs else math.inf

    next_out = flush_outputs(0.0)

    while True:
        n = pop.n_live
        if squeeze:
            if n not in sized:       # the sizes a run visits repeat: each is set once
                sized[n] = (b_bounds(n, k, b_sup) if b_bounds else (b_sup, b_const, b_const),
                            h_bounds(n, k, h_sup) if h_bounds else (h_sup, h_const, h_const))
            (b_part, b_rlo, b_rhi), (h_part, h_rlo, h_rhi) = sized[n]
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
        pop.focus = idx
        tau = pop.birth_times[idx]
        age = t - tau
        r = next_u() * bound     # before the rates: evaluating one draws nothing
        b = None
        if squeeze:
            a = 1.0 if b_age is None else b_age(age)
            b_lo, b_hi = (a * b_rlo, a * b_rhi) if a >= 0.0 else (a * b_rhi, a * b_rlo)
            a = 1.0 if h_age is None else h_age(age)
            h_lo, h_hi = (a * h_rlo, a * h_rhi) if a >= 0.0 else (a * h_rhi, a * h_rlo)
            # inside [0, sup] the exact rates pass their checks, and bounds
            # that fix the fate stand in for them
            if ((b_age is None or 0.0 < b_lo and b_hi < b_sup)
                    and (h_age is None or 0.0 < h_lo and h_hi < h_sup)):
                if r < b_lo or b_hi <= r < b_lo + h_lo:
                    b, h = b_lo, h_lo
                elif r >= b_hi + h_hi:
                    b, h = b_hi, h_hi
        if b is None:
            if b_const is not None:
                b = b_const
            else:
                b = float(model.birth_rate(age, pop, k))
                if b < 0.0 or b > b_part * (1.0 + 1e-9):
                    where = "declared" if b_part == b_sup else "per-size"
                    raise ModelError(f"birth rate {b} violates {where} bound {b_part}")
            if h_const is not None:
                h = h_const
            else:
                h = float(model.death_rate(age, pop, k))
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
            pop.death_ages.append(age)
            pop.death_times.append(t)
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
    return snapshots, candidates


def _block_candidates(rng, model: RateModel, n: int, horizon: float, population_cap: int):
    """Stage 1 of the block path: the accepted events, a chunk of candidates at a time.

    A candidate's accept uniform alone decides its kind, so the live count
    before each candidate is a cumulative sum; times are the sequential sum
    of ``t, -x_0, -x_1, ...`` with ``x = log1p(-u) / (n * bound)`` from
    ``math.log1p`` (numpy's differs in the last bit), as in the loop.  A
    chunk holds the candidates expected before the horizon (capped by the
    uniforms at hand), plus the time of the next one; a new block is drawn
    only once that time falls before the horizon.  Returns the accepted
    events' times, death flags, live counts before them and slots, and the
    number of candidates before the horizon.
    """
    b, h, life, split = model.birth.value, model.death.value, model.life_law.k, model.split_law.k
    bound = model.birth_sup + model.death_sup
    bh = b + h
    growth = b * life + h * (split - 1)       # of the mean population
    log1p = math.log1p
    buf, ptr, t = rng.random(_UBLOCK), 0, 0.0
    parts, candidates = [], 0
    while n > 0:
        if buf.size - ptr < 3:
            buf, ptr = np.concatenate((buf[ptr:], rng.random(_UBLOCK))), 0
        avail = buf.size - ptr
        span = horizon - t
        gs = min(growth * span, 30.0)
        expected = n * bound * span * (math.expm1(gs) / gs if gs else 1.0)
        m = min(avail // 3, int(1.25 * expected) + 16)
        u = buf[ptr:ptr + min(avail, 3 * m + 1)]
        r = u[2::3] * bound
        born = r < b
        dies = ~born & (r < bh)
        step = np.where(born, life, np.where(dies, split - 1, 0))
        n_at = np.concatenate(([n], n + np.cumsum(step)))
        ut = u[::3]
        zero = np.flatnonzero(n_at[: ut.size] == 0)
        ext = int(zero[0]) if zero.size else ut.size
        x = np.fromiter(map(log1p, (-ut[:ext]).tolist()), float, ext) / (n_at[:ext] * bound)
        times = np.cumsum(np.concatenate(([t], -x)))[1:]
        end = int(np.searchsorted(times, horizon))   # first candidate at or past it
        stop = min(end, m)
        over = np.flatnonzero(n_at[1 : stop + 1] > population_cap)
        if over.size:
            i = int(over[0])
            raise CapacityError(f"population {n_at[i + 1]} exceeded cap {population_cap} "
                                f"at t={float(times[i]):.6g}")
        acc = np.flatnonzero((born | dies)[:stop])
        parts.append((times[acc], dies[acc], n_at[acc],
                      (u[1::3][acc] * n_at[acc]).astype(np.int64)))
        candidates += stop
        if end < ut.size:         # the horizon, or extinction before it
            break
        t, n, ptr = times[m - 1], int(n_at[m]), ptr + 3 * m
    return (*map(np.concatenate, zip(*parts)), candidates)


def _simulate_blocks(pop, model, horizon, out_times, t_star, rng, ledger, log,
                     population_cap):
    """Thinning of a state-free run resolved by array arithmetic.

    Stage 1 (:func:`_block_candidates`) gives the accepted events.  Stage 2
    resolves the swap-remove slot permutation over individual ids: a death
    at slot ``i`` with ``n`` alive moves the id at slot ``n - 1`` to ``i``
    and the brood takes slots ``n - 1, ...``; a birth's brood takes slots
    ``n, ...``.  A move reads the top slot, which holds the newest id
    whenever the event before it added newborns (every move, for pure
    splitting); only a move after an event without newborns finds the last
    write to the top slot and is chased by pointer jumping.  Each other
    read of a slot finds the last write before it among the sorted
    (slot, event) keys, searched in sorted order.  The ledger then replays
    each output interval's events as cumulative sums
    (:meth:`MartingaleLedger.replay`).  Returns (snapshots, candidates).
    """
    life, split = model.life_law.k, model.split_law.k
    n0 = pop.n_live
    t_ev, dies, n_ev, slot_ev, candidates = _block_candidates(rng, model, n0, horizon,
                                                              population_cap)
    n_events = t_ev.size
    brood = np.where(dies, split, life)
    born = np.cumsum(brood) - brood                 # newborns before each event
    n_born = int(brood.sum())
    n_final = n0 + n_born - int(dies.sum())

    # writes, keyed slot * seqs + sequence: the initial ids (sequence 0), then
    # per event e the move of a death not at the last slot (3e + 2) and the
    # newborns (3e + 3).  A read before event e (3e + 1) finds the last write
    # to its slot; every live slot has one.  Newborns take ids n0, n0 + 1, ...
    ev = np.repeat(np.arange(n_events), brood)
    nb_slot = n_ev[ev] - dies[ev] + np.arange(ev.size) - born[ev]
    mv = np.flatnonzero(dies & (slot_ev != n_ev - 1))
    seqs = 3 * n_events + 3
    key = np.concatenate((np.arange(n0) * seqs, slot_ev[mv] * seqs + 3 * mv + 2,
                          nb_slot * seqs + 3 * ev + 3))
    birth_times = np.concatenate((pop.birth_times[:n0], t_ev[ev]))
    del ev, nb_slot
    # a move reads the top slot, which holds the newest id if the event before
    # it added newborns (the initial top for event 0); otherwise -1 for now
    top = np.where(np.concatenate(([True], brood[:-1] > 0))[mv], n0 - 1 + born[mv], -1)
    order = np.argsort(key)
    key = key[order]
    val = np.concatenate((np.arange(n0), top, np.arange(n0, n0 + n_born)))[order]

    def last_write(q):
        """Where among the sorted keys each ascending read ``q`` finds its slot's last write."""
        return np.searchsorted(key, q) - 1

    def last_write_any(q):
        """:func:`last_write` for reads in any order, searched in sorted order."""
        o = np.argsort(q)
        out = np.empty_like(o)
        out[o] = last_write(q[o])
        return out

    # any other move stores the id it reads: chase it to the write it copies
    chase = np.flatnonzero(val < 0)
    mv = mv[order[chase] - n0]
    del order, top
    ptr = np.arange(key.size)
    ptr[chase] = last_write_any((n_ev[mv] - 1) * seqs + 3 * mv + 1)
    while chase.size:
        p = ptr[chase]
        val[chase] = val[p]
        ptr[chase] = ptr[p]
        chase = chase[val[chase] < 0]
    del ptr, mv

    tau = birth_times[val[last_write_any(slot_ev * seqs + 3 * np.arange(n_events) + 1)]]
    ages = t_ev - tau
    pop.deaths = int(dies.sum())
    pop.births_life = life * (n_events - pop.deaths)
    pop.births_split = split * pop.deaths
    pop.death_ages, pop.death_times = ages[dies], t_ev[dies]
    if log is not None:
        log.t, log.tau, log.brood = t_ev.tolist(), tau.tolist(), brood.tolist()
        log.kind = np.where(dies, KIND_DEATH, KIND_BIRTH).tolist()
    del brood, born, slot_ev

    snapshots: list[AtomicMeasure] = []
    done = 0
    for t_out, c in zip(out_times, np.searchsorted(t_ev, out_times)):
        if ledger is not None:
            ledger.replay(dies[done:c], ages[done:c], life, split)
            done = c
        n = int(n_ev[c]) if c < n_events else n_final
        pop.birth_times = birth_times[val[last_write(np.arange(n) * seqs + 3 * c + 1)]]
        pop.n_live = n
        _emit(pop, t_out, ledger, t_star, snapshots)
    return snapshots, candidates


# ---------------------------------------------------------------------------
# pathwise identity checking


class TwoVarFunction:
    """Separable f(x, s) = fx(x) * fs(s) with both parts smooth.

    The age part is a :class:`TestFunction`; the time part is one of
    constant / monomial / exponential in s.  Products of this form are
    closed under the pathwise identity's between-event integration: the
    integral of (d/ds) f(s - tau, s) telescopes exactly.
    """

    def __init__(self, xpart: TestFunction, spart: TestFunction, label: str = ""):
        self.xpart = xpart
        self.spart = spart
        self.label = label or f"{xpart.label}*{spart.label}(s)"

    def __call__(self, x, s: float):
        return self.xpart(x) * float(self.spart(np.array(float(s))))


def two_var(xspec: str, sspec: str = "1") -> TwoVarFunction:
    from .measures import _parse_spec

    return TwoVarFunction(_parse_spec(xspec, 1.0), _parse_spec(sspec, 1.0),
                          label=f"{xspec}|{sspec}")


def pathwise_identity_catalogue() -> list[TwoVarFunction]:
    """Closed-form two-variable functions exercised by the identity check."""
    return [
        two_var("1"),
        two_var("x"),
        two_var("exp:1", "exp:-1"),   # e^(x-s)
        two_var("x", "mono:1"),       # x*s
        two_var("x^2", "exp:-0.5"),
    ]


def check_pathwise_identity(traj: Trajectory, f2: TwoVarFunction) -> float:
    """Max relative residual of the pathwise evolution identity.

    Replays the event log and checks, at every output time t,

        (f(.,t), A_t) = (f(.,0), A_0) + int_0^t (d1 f + d2 f, A_s) ds
                        + sum of f(0, birth times) - sum of f(lifespan, death time),

    where the ds-integral is evaluated exactly by telescoping along the
    inter-event segments (the live set is constant there).
    """
    if traj.events is None:
        raise ValueError("trajectory was simulated without an event log")
    bt = list(traj.initial_birth_times)

    def live_sum(s: float) -> float:
        if not bt:
            return 0.0
        arr = np.array(bt)
        return float(np.sum(f2(s - arr, s)))

    lhs0 = live_sum(0.0)
    integral = 0.0
    births = 0.0
    deaths = 0.0
    sum_start = lhs0
    max_resid = 0.0

    ev = traj.events
    n_ev = len(ev)
    ei = 0
    scale = max(1.0, abs(lhs0))
    for t_out in traj.times:
        while ei < n_ev and ev.t[ei] <= t_out:
            te = ev.t[ei]
            sum_end = live_sum(te)
            integral += sum_end - sum_start
            brood = ev.brood[ei]
            if ev.kind[ei] == KIND_DEATH:
                tau = ev.tau[ei]
                deaths += f2(np.array(te - tau), te)
                idx = bt.index(tau)
                bt.pop(idx)
                sum_end -= f2(np.array(te - tau), te)
            if brood:
                bt.extend([te] * brood)
                births += brood * f2(np.array(0.0), te)
                sum_end += brood * f2(np.array(0.0), te)
            sum_start = sum_end
            ei += 1
        sum_end = live_sum(float(t_out))
        integral += sum_end - sum_start
        sum_start = sum_end
        lhs = sum_end
        resid = lhs - lhs0 - integral - births + deaths
        scale = max(scale, abs(lhs), abs(integral), abs(births), abs(deaths))
        max_resid = max(max_resid, abs(float(resid)))
    return max_resid / scale
