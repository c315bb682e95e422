import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from agestruct import branching
from agestruct.acceptance import clt_config, lln_config, qv_config
from agestruct.branching import (KIND_BIRTH, KIND_DEATH, CapacityError, EventLog,
                                 MartingaleLedger, Population, check_pathwise_identity,
                                 simulate)
from agestruct.harness import (PURPOSE_CLT, PURPOSE_LLN, PURPOSE_QV, _replicates,
                               model_from_config, replicate_stream)
from agestruct.measures import (AtomicMeasure, bump, constant, exponential, make_panel,
                                monomial, pair)
from agestruct.rates import (AgeProfile, ConstantRate, DensityRate, Kernel,
                             KernelRate, ModelError, OffspringLaw, RateModel,
                             classical_model, pure_splitting)


def atoms(ages, t_star=2.0):
    return AtomicMeasure(ages=np.asarray(ages, dtype=float), weight=1.0, t_star=t_star)


def stream(i, ctx=0):
    return replicate_stream(987654, 9, ctx, i)


PURE_DEATH = classical_model(0.0, 1.0, OffspringLaw.deterministic(0),
                             OffspringLaw.deterministic(0))
TRANSPORT = classical_model(0.0, 0.0, OffspringLaw.deterministic(0),
                            OffspringLaw.deterministic(0))
EXTINCTION = classical_model(0.0, 5.0, OffspringLaw.deterministic(0),
                             OffspringLaw.deterministic(0))
# the mixed two-point/Poisson classical model of criterion 7
MIXED = RateModel(ConstantRate(0.5), ConstantRate(0.8),
                  OffspringLaw.two_point(0.5, 0, 2), OffspringLaw.poisson(1.2),
                  birth_sup=0.5, death_sup=0.8)
DENS = RateModel(ConstantRate(0.4),
                 DensityRate(0.5, 0.3),
                 OffspringLaw.deterministic(1), OffspringLaw.deterministic(2),
                 birth_sup=0.4, death_sup=2.0)
# both rates carry an age factor times a function of the total mass
AGE_DENS = RateModel(DensityRate(1.0, -0.2,
                                 age=AgeProfile("gaussian", c=0.5, center=0.5, sigma=0.3)),
                     DensityRate(0.5, 0.3,
                                 age=AgeProfile("exp_decay", c=1.0, alpha=0.5)),
                     OffspringLaw.two_point(0.5, 0, 2), OffspringLaw.deterministic(2),
                     birth_sup=0.5, death_sup=2.0)


def twin(model):
    """``model`` with its constant death rate as a zero-slope density family:
    the same rates, resolved candidate by candidate on the loop."""
    h = model.death.value
    return dataclasses.replace(model, death=DensityRate(h, 0.0))


def first_death_times(ages, ctx, n=20000, horizon=40.0):
    """Time of the first death in each of n pure-death runs of ``simulate``.

    The horizon is long enough that every run sees a death (P < 1e-17 each).
    """
    a0 = atoms(ages, t_star=horizon + max(ages))
    times = np.empty(n)
    for i in range(n):
        traj = simulate(PURE_DEATH, a0, k=1, horizon=horizon, dt_out=horizon,
                        rng=stream(i, ctx=ctx), log_events=True, t_star=a0.t_star)
        times[i] = traj.events.t[0]
    return times


def test_empty_population_has_no_events(paths):
    traj = simulate(PURE_DEATH, atoms([]), k=1, horizon=1.0, dt_out=0.5,
                    rng=stream(1), log_events=True, t_star=2.0)
    assert paths == ["_simulate_lives"]
    assert len(traj.events) == 0 and traj.deaths == traj.candidates == 0
    assert all(s.count == 0 for s in traj.snapshots)


def test_single_lifetime_is_exponential():
    times = first_death_times([0.0], ctx=1)
    se = times.std() / math.sqrt(times.size)
    assert abs(times.mean() - 1.0) <= 3 * se


def test_two_individuals_first_event_superposition():
    times = first_death_times([0.0, 0.3], ctx=2)
    se = times.std() / math.sqrt(times.size)
    assert abs(times.mean() - 0.5) <= 3 * se


def test_thinning_exact_with_rejections():
    # immortal single individual giving (empty) births at rate 0.4 under a
    # loose bound: accepted inter-event gaps must still be Exp(0.4).  The
    # twin runs on the loop, which thins; the classical model would not.
    model = twin(RateModel(ConstantRate(0.4), ConstantRate(0.0),
                           OffspringLaw.deterministic(0), OffspringLaw.deterministic(0),
                           birth_sup=1.0, death_sup=0.5))
    horizon = 30000.0   # about 12000 accepted events; 10000 are needed
    traj = simulate(model, atoms([0.0], t_star=horizon), k=1, horizon=horizon,
                    dt_out=horizon, rng=stream(0, ctx=3), log_events=True,
                    t_star=horizon)
    assert len(traj.events) >= 10000
    gaps = np.diff(np.array([0.0] + traj.events.t[:10000]))
    stat = kstest(gaps, "expon", args=(0, 1.0 / 0.4))
    assert stat.pvalue > 0.01


def test_transport_only(paths):
    a0 = atoms([0.2, 0.5, 0.9])
    rng = stream(4)
    traj = simulate(TRANSPORT, a0, k=1, horizon=1.0, dt_out=0.25, rng=rng, t_star=2.0)
    assert paths == ["_simulate_lives"]
    assert traj.births_life == traj.births_split == traj.deaths == traj.candidates == 0
    assert rng.random() == stream(4).random()     # b = h = 0 draws nothing
    # pairing with x grows by exactly t * mass
    for t, snap in zip(traj.times, traj.snapshots):
        assert pair(monomial(1), snap) == pytest.approx(1.6 + 3 * t, rel=1e-14)
        assert np.allclose(np.sort(snap.ages), np.sort(a0.ages) + t)


def test_pure_splitting_mean_mass():
    model = pure_splitting(1.0, 2)
    vals = np.empty(150)
    for i in range(vals.size):
        traj = simulate(model, atoms(np.zeros(300), t_star=1.0), k=300, horizon=1.0,
                        dt_out=1.0, rng=stream(i, ctx=4), t_star=1.0)
        vals[i] = pair(constant(), traj.snapshots[-1])
    se = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - math.e) <= 3 * se


def test_pure_death_small_population_mean():
    vals = np.empty(5000)
    for i in range(vals.size):
        traj = simulate(PURE_DEATH, atoms([0.0, 0.0, 0.0], t_star=1.0), k=1,
                        horizon=1.0, dt_out=1.0, rng=stream(i, ctx=5), t_star=1.0)
        vals[i] = traj.final_count
    se = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - 3 * math.exp(-1.0)) <= 3 * se


def test_ledger_zero_without_events():
    panel = [constant(), monomial(1)]
    traj = simulate(TRANSPORT, atoms([0.3, 0.6]), k=1, horizon=1.0, dt_out=0.5,
                    rng=stream(6), panel=panel, with_ledger=True, t_star=2.0)
    assert np.allclose(traj.ledger.martingales(), 0.0)


def test_ledger_compensator_exact_for_constant_rates():
    # for constant rates the mass compensator is (newborn - death) * int N dt,
    # reconstructible exactly from the event log
    model = pure_splitting(1.0, 2)
    traj = simulate(model, atoms(np.zeros(200), t_star=1.0), k=200, horizon=1.0,
                    dt_out=1.0, rng=stream(7, ctx=6), panel=[constant()],
                    with_ledger=True, log_events=True, t_star=1.0)
    times = np.array(traj.events.t)
    # piecewise-constant population size: +1 per splitting event (2 born, 1 dead)
    n_path = 200 + np.arange(times.size)
    segs = np.diff(np.concatenate([[0.0], times, [1.0]]))
    n_vals = np.concatenate([[200], n_path + 1])
    integral = float(np.sum(segs * n_vals))
    # newborn - death = 2 - 1 = 1, f = 1
    assert traj.ledger.comp_path[-1][0] == pytest.approx(integral, rel=1e-12)
    # and the martingale value is jumps (= #events) minus that integral
    m_final = traj.ledger.martingales()[-1][0]
    assert m_final == pytest.approx(times.size - integral, rel=1e-10)


def test_ledger_variance_and_mean():
    model = pure_splitting(1.0, 2)
    k = 300
    m_vals = np.empty(200)
    for i in range(m_vals.size):
        traj = simulate(model, atoms(np.zeros(k), t_star=1.0), k=k, horizon=1.0,
                        dt_out=1.0, rng=stream(i, ctx=7), panel=[constant()],
                        with_ledger=True, t_star=1.0)
        m_vals[i] = traj.ledger.martingales()[-1][0] / math.sqrt(k)
    se_mean = m_vals.std() / math.sqrt(m_vals.size)
    assert abs(m_vals.mean()) <= 3 * se_mean
    var = m_vals.var(ddof=1)
    target = math.e - 1.0
    d = m_vals - m_vals.mean()
    se_var = math.sqrt(max(np.mean(d ** 4) - var ** 2, 0.0) / m_vals.size)
    assert abs(var - target) <= 3 * se_var


def test_ledger_needs_a_panel():
    with pytest.raises(ValueError, match="needs a test-function panel"):
        simulate(PURE_DEATH, atoms([0.3]), k=1, horizon=1.0, dt_out=0.5, rng=stream(13),
                 with_ledger=True, panel=None, t_star=2.0)


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def gauss_legendre_compensator(traj, model, panel):
    """The compensator at each output time for constant rates, replayed from
    the event log: 5-node Gauss-Legendre over each interval between events."""
    h = model.death.value
    newborn = model.birth.value * model.life_law.mean + h * model.split_law.mean
    f0 = np.array([f.at_zero for f in panel])
    live = list(traj.initial_birth_times)
    events = list(zip(traj.events.t, traj.events.kind, traj.events.tau, traj.events.brood))
    comp = np.zeros(len(panel))
    s0, ei, out = 0.0, 0, []

    def integrate(s1):
        if live and s1 > s0:
            nodes = 0.5 * (s0 + s1) + 0.5 * (s1 - s0) * GL_NODES
            ages = nodes[:, None] - np.array(live)[None, :]
            g = np.array([f0[i] * newborn * ages.shape[1] - h * f(ages).sum(axis=1)
                          for i, f in enumerate(panel)])
            comp[:] += 0.5 * (s1 - s0) * (g @ GL_WEIGHTS)
        return s1

    for t_out in traj.times:
        # an event at an output time comes after that output's record
        while ei < len(events) and events[ei][0] < t_out:
            te, kind, tau, brood = events[ei]
            s0 = integrate(te)
            if kind == KIND_DEATH:
                live.remove(tau)
            live.extend([te] * brood)
            ei += 1
        s0 = integrate(t_out)
        out.append(comp.copy())
    return np.array(out)


def ledger_run(model, panel, n0, ctx):
    return simulate(model, atoms(np.linspace(0.0, 1.0, n0)), k=n0, horizon=1.0,
                    dt_out=0.25, rng=stream(0, ctx=ctx), panel=panel, with_ledger=True,
                    log_events=True, t_star=2.0)


@pytest.mark.parametrize("model, n0, ctx", [(pure_splitting(1.0, 2), 120, 14),
                                            (MIXED, 80, 15)],
                         ids=["pure_splitting", "mixed_laws"])
def test_closed_form_compensator_matches_gauss_legendre(model, n0, ctx):
    panel = make_panel(["1", "x", "x^2", "exp:0.5", "exp:-1"]) + [exponential(0.0)]
    traj = ledger_run(model, panel, n0, ctx)
    assert traj.ledger.closed_form and len(traj.events) > n0
    comp = np.array(traj.ledger.comp_path)
    ref = gauss_legendre_compensator(traj, model, panel)
    assert np.all(np.abs(comp - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_bump_panel_and_population_dependent_rates_take_gauss_legendre():
    # the Gauss-Legendre ledger's values on these streams, pinned
    panel = [constant(), bump(0.2, 0.9)]
    traj = ledger_run(pure_splitting(1.0, 2), panel, 60, 16)
    assert not traj.ledger.closed_form
    comp = np.array(traj.ledger.comp_path)
    ref = gauss_legendre_compensator(traj, pure_splitting(1.0, 2), panel)
    assert np.all(np.abs(comp - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    assert comp[-1] == pytest.approx([96.713756027288, -29.362564011597016], rel=1e-12)
    assert traj.ledger.martingales()[-1] == pytest.approx(
        [-9.713756027288, 7.752899108852198], rel=1e-12)
    traj = simulate(DENS, atoms(np.linspace(0.0, 1.0, 60)), k=120, horizon=1.0,
                    dt_out=0.5, rng=stream(0, ctx=17), panel=[constant(), monomial(1)],
                    with_ledger=True, t_star=2.0)
    assert not traj.ledger.closed_form
    assert traj.ledger.comp_path[-1] == pytest.approx(
        [172.7608542257993, -51.65038501257205], rel=1e-12)
    assert traj.ledger.martingales()[-1] == pytest.approx(
        [18.239145774200693, -6.532071403771575], rel=1e-12)


@pytest.mark.parametrize("model", [pure_splitting(1.0, 2), MIXED], ids=["pure_splitting",
                                                                       "mixed_laws"])
def test_a_gauss_legendre_ledger_leaves_the_draws_alone(model):
    # the model alone picks the path, so a bump panel's ledger changes no snapshot
    runs = [simulate(model, atoms(np.linspace(0.0, 1.0, 80)), k=80, horizon=1.0, dt_out=0.25,
                     rng=stream(3, ctx=18), panel=[constant(), bump(0.2, 0.9)],
                     with_ledger=with_ledger, t_star=2.0) for with_ledger in (False, True)]
    assert not runs[1].ledger.closed_form
    for plain, kept in zip(runs[0].snapshots, runs[1].snapshots):
        assert np.array_equal(plain.ages, kept.ages)


def test_gauss_legendre_evaluates_constant_rates_once_per_interval(monkeypatch):
    # rate calls the ledger makes per inter-event interval, counted
    calls = {"death_rate": 0, "birth_rate": 0, "intervals": 0, "in_ledger": False}
    for name in ("death_rate", "birth_rate"):
        rate = getattr(RateModel, name)

        def counting(model, x, mu, k=None, _rate=rate, _name=name):
            calls[_name] += calls["in_ledger"]
            return _rate(model, x, mu, k)

        monkeypatch.setattr(RateModel, name, counting)
    accumulate = MartingaleLedger._accumulate

    def counting_accumulate(ledger, pop):
        calls["intervals"] += pop.n_live > 0 and pop.t > ledger._s
        calls["in_ledger"] = True
        try:
            return accumulate(ledger, pop)
        finally:
            calls["in_ledger"] = False

    monkeypatch.setattr(MartingaleLedger, "_accumulate", counting_accumulate)
    panel = [constant(), bump(0.2, 0.9)]
    for model, per_interval in ((pure_splitting(1.0, 2), 1), (DENS, 1)):
        calls.update(death_rate=0, birth_rate=0, intervals=0)
        traj = ledger_run(model, panel, 60, 16)
        assert not traj.ledger.closed_form and calls["intervals"] > 60
        for name in ("death_rate", "birth_rate"):
            assert calls[name] == per_interval * calls["intervals"], (model.family, name)


# ---------------------------------------------------------------------------
# kernel models: thinning and the ledger


def kernel_model(death_sup, *, birth=0.0, life=0, alpha=1.0, age=None):
    """Death rate r(x) (0.2 + 0.3 |A|/k + 0.5 (g(x, .), A)/k) with g = e^(-alpha |x - y|)."""
    death = KernelRate(Kernel("exp_decay", alpha=alpha), age=age,
                       c0=0.2, cy=0.3, cz=0.5)
    return RateModel(ConstantRate(birth), death,
                     OffspringLaw.deterministic(life), OffspringLaw.deterministic(0),
                     birth_sup=birth, death_sup=death_sup)


def kernel_death_rates(ages, k, alpha=1.0):
    """The death rates of :func:`kernel_model` (constant r) in closed form."""
    a = np.asarray(ages, dtype=float)
    z = np.exp(-alpha * np.abs(a[:, None] - a)).sum(axis=1) / k
    return 0.2 + 0.3 * a.size / k + 0.5 * z


def test_kernel_thinning_law_on_simulate():
    # three individuals under a loose bound: the first event is Exp(sum h)
    # and the individual i that dies is drawn with probability h_i / sum h.
    # The bound is re-chosen for the two left, whose rates H_i (summed) do
    # not change with time: the gap to the second death has mean
    # sum_i p_i / H_i with p_i = h_i / sum h
    ages = np.array([0.1, 0.5, 1.3])
    h = kernel_death_rates(ages, 3)
    model = kernel_model(death_sup=1.5 * h.max())
    n = 10000
    first, gap, who = np.empty(n), np.empty(n), np.empty(n, dtype=int)
    for i in range(n):
        traj = simulate(model, atoms(ages), k=3, horizon=30.0, dt_out=30.0,
                        rng=stream(i, ctx=41), log_events=True)
        first[i] = traj.events.t[0]
        gap[i] = traj.events.t[1] - traj.events.t[0]
        who[i] = int(np.flatnonzero(-ages == traj.events.tau[0])[0])
        assert traj.events.kind[:2] == [KIND_DEATH, KIND_DEATH]
    assert abs(first.mean() - 1.0 / h.sum()) <= 3 * first.std() / math.sqrt(n)
    p = h / h.sum()
    for i, p_i in enumerate(p):
        assert abs(np.mean(who == i) - p_i) <= 3 * math.sqrt(p_i * (1 - p_i) / n)
    left = [kernel_death_rates(np.delete(ages, i), 3).sum() for i in range(3)]
    assert abs(gap.mean() - np.dot(p, 1.0 / np.array(left))) <= 3 * gap.std() / math.sqrt(n)
    # a rate above the declared bound is caught at the first candidate
    with pytest.raises(ModelError, match="violates declared bound"):
        simulate(kernel_model(death_sup=0.99 * h.min()), atoms(ages), k=3, horizon=30.0,
                 dt_out=30.0, rng=stream(0, ctx=41))


def test_gauss_legendre_ledger_for_a_kernel_model(monkeypatch):
    # the ledger's compensator against a replay that sums the kernel directly
    # at every node, and one live-set pairing computation per live set
    model = kernel_model(4.0, birth=1.0, life=1, age=AgeProfile("exp_decay", alpha=0.5))
    computed, live_sets = [0], set()
    pair_live, accumulate = Population._pair_live, MartingaleLedger._accumulate

    def counting_pair_live(pop, kernel, ages):
        computed[0] += 1
        return pair_live(pop, kernel, ages)

    def counting_accumulate(ledger, pop):
        if pop.n_live > 0 and pop.t > ledger._s:
            live_sets.add((pop.deaths, pop.births_life))
        return accumulate(ledger, pop)

    monkeypatch.setattr(Population, "_pair_live", counting_pair_live)
    monkeypatch.setattr(MartingaleLedger, "_accumulate", counting_accumulate)
    panel = [constant(), exponential(0.5), bump(0.2, 0.9)]
    n0 = 60
    traj = ledger_run(model, panel, n0, 44)
    assert not traj.ledger.closed_form and len(traj.events) > n0
    assert computed[0] == len(live_sets)

    nodes, weights = np.polynomial.legendre.leggauss(5)
    r, kern = model.death.age, model.death.kernel
    f0 = np.array([f.at_zero for f in panel])
    ev = traj.events
    marks = sorted([(t, 1, i) for i, t in enumerate(ev.t)] + [(t, 0, -1) for t in traj.times])
    bt, s0, acc, comp = list(traj.initial_birth_times), 0.0, np.zeros(len(panel)), []
    for t, is_event, i in marks:
        if bt and t > s0:
            for x, w in zip(0.5 * (s0 + t) + 0.5 * (t - s0) * nodes, weights):
                a = x - np.array(bt)
                z = kern(a[:, None], a).sum(axis=1) / n0
                h = r(a) * (0.2 + 0.3 * a.size / n0 + 0.5 * z)
                # newborns at rate b * 1 per individual; deaths leave none
                g = f0 * a.size - np.array([np.sum(f(a) * h) for f in panel])
                acc += 0.5 * (t - s0) * w * g
        s0 = t
        if not is_event:
            comp.append(acc.copy())
            continue
        if ev.kind[i] == KIND_DEATH:
            bt.remove(ev.tau[i])
        bt.extend([t] * ev.brood[i])
    ledger_comp = np.array(traj.ledger.comp_path)
    assert np.max(np.abs(ledger_comp - comp)) <= 1e-12 * np.max(np.abs(comp))


# ---------------------------------------------------------------------------
# the squeeze: kernel-rate candidates drawn against a per-size bound and
# decided from KernelRate.bounds


def kernel_rate(kernel="exp_decay", age=None, **coef):
    return KernelRate(Kernel(kernel), age=age, **coef)


def run_logged(model, ages, k, ctx, horizon=1.0, dt_out=0.25):
    """(trajectory, generator) of one run with its event log."""
    rng = stream(0, ctx=ctx)
    return simulate(model, atoms(ages), k=k, horizon=horizon, dt_out=dt_out, rng=rng,
                    log_events=True), rng


def patch_bounds(monkeypatch, edit):
    """Replace ``KernelRate.bounds`` by ``edit(rate, n, sup, (bound, lo, hi))``."""
    bounds = KernelRate.bounds
    monkeypatch.setattr(KernelRate, "bounds",
                        lambda rate, n, k, sup: edit(rate, n, sup, bounds(rate, n, k, sup)))


@pytest.fixture
def forced_exact(monkeypatch):
    """:func:`run_logged` with every candidate's rates evaluated exactly,
    against the same per-size bound: the phi range handed to the loop is
    (-inf, inf), so no candidate is decided on it.  Each exact value must lie
    between its bounds at the candidate.  Returns the run's (trajectory,
    generator) and the (value, bound part, declared sup) of each exact
    evaluation at a single age."""
    bounds, evaluate = KernelRate.bounds, KernelRate.eval
    parts, evaluated = {}, []

    def unbounded(rate, n, sup, got):
        parts[rate, n] = got[0], sup
        return got[0], -math.inf, math.inf

    def checked(rate, x, mu):
        v = evaluate(rate, x, mu)
        if isinstance(x, float):
            _, lo, hi = bounds(rate, mu.n_live, mu.k, math.inf)
            a = 1.0 if rate.age is None else rate.age.scalar(x)     # None: no factor
            assert min(a * lo, a * hi) <= v <= max(a * lo, a * hi)
            evaluated.append((v, *parts[rate, mu.n_live]))
        return v

    def run(*args, **kw):
        parts.clear()
        evaluated.clear()
        with monkeypatch.context() as m:
            patch_bounds(m, unbounded)
            m.setattr(KernelRate, "eval", checked)
            return run_logged(*args, **kw), list(evaluated)

    return run


SQUEEZED = {
    "affine_exp_decay": (ConstantRate(1.0), kernel_rate(c0=0.2, cy=0.3, cz=0.5), 1.0, 4.0),
    "affine_negative_cz": (ConstantRate(1.0), kernel_rate(c0=1.0, cy=0.2, cz=-0.5), 1.0, 2.0),
    "special_gaussian": (ConstantRate(1.0), kernel_rate("gaussian", c0=0.3, d1=0.8),
                         1.0, 2.0),
    "special_constant_negative_d1": (ConstantRate(1.0),
                                     kernel_rate("constant", c0=1.0, d1=-0.4),
                                     1.0, 2.0),
    "inv1p": (ConstantRate(1.0), kernel_rate(c=1.5), 1.0, 2.0),
    "exp_decay_age": (ConstantRate(1.0), kernel_rate(c0=0.2, cy=0.3, cz=0.5,
                                                     age=AgeProfile("exp_decay", alpha=0.5)),
                      1.0, 4.0),
    # r(x) < 0 and phi < 0: the age factor swaps the bounds, and c lo tops the rate
    "negative_age_factors": (kernel_rate("gaussian", c0=-0.4, cz=-0.5,
                                         age=AgeProfile("constant", c=-1.0)),
                             kernel_rate(c0=-0.2, cy=-0.3, cz=-0.5,
                                         age=AgeProfile("exp_decay", c=-1.0, alpha=0.5)),
                             2.0, 4.0),
    "birth_side": (kernel_rate("gaussian", c0=0.4, cz=0.5), ConstantRate(1.0), 2.0, 1.0),
    "both_sides": (kernel_rate("constant", c0=0.4, cy=0.5), kernel_rate(c0=0.2, cz=0.8),
                   2.0, 2.0),
}


def squeezed_model(name):
    birth, death, b_sup, h_sup = SQUEEZED[name]
    return RateModel(birth, death, OffspringLaw.deterministic(1),
                     OffspringLaw.deterministic(0), birth_sup=b_sup, death_sup=h_sup)


SQUEEZE_AGES, SQUEEZE_CTX = np.linspace(0.0, 1.5, 80), 46


@pytest.mark.parametrize("name", list(SQUEEZED))
def test_squeeze_keeps_every_event_bit_for_bit(name, forced_exact, monkeypatch):
    # the same events, snapshots, counters and generator state as with every
    # rate evaluated against the same per-size bound, and fewer exact evaluations
    model = squeezed_model(name)
    exact, evaluated = forced_exact(model, SQUEEZE_AGES, 80, SQUEEZE_CTX)
    n_exact = len(evaluated)
    evaluate, n_squeezed = KernelRate.eval, [0]

    def counted(rate, x, mu):
        n_squeezed[0] += isinstance(x, float)
        return evaluate(rate, x, mu)

    monkeypatch.setattr(KernelRate, "eval", counted)
    run = run_logged(model, SQUEEZE_AGES, 80, SQUEEZE_CTX)
    assert_same_run(run, exact)
    traj = run[0]
    assert len(traj.events) > 80 and traj.deaths > 0
    assert n_exact >= traj.candidates and n_squeezed[0] < 0.6 * n_exact


@pytest.mark.parametrize("name", list(SQUEEZED))
def test_exact_rates_stay_under_their_per_size_bound(name, forced_exact):
    # every exact rate of a run lies at or below its part of the bound at
    # that live count, and each part lies below the declared sup
    model = squeezed_model(name)
    (traj, _), evaluated = forced_exact(model, SQUEEZE_AGES, 80, SQUEEZE_CTX)
    v, part, sup = np.array(evaluated).T
    assert v.size >= traj.candidates > 80
    assert np.all(v <= part) and np.all(part < sup)


def test_rate_above_its_per_size_bound_raises(monkeypatch):
    # a bound part below the exact rate is a fault of the bound, caught when
    # a candidate evaluates the rate
    patch_bounds(monkeypatch, lambda rate, n, sup, got: (0.5 * got[0], -math.inf, math.inf))
    with pytest.raises(ModelError, match="violates per-size bound"):
        run_logged(squeezed_model("affine_exp_decay"), SQUEEZE_AGES, 80, SQUEEZE_CTX)


def declared_bounds(monkeypatch):
    """Patch every kernel rate's part of the bound back to its declared sup."""
    patch_bounds(monkeypatch, lambda rate, n, sup, got: (sup,) + got[1:])


def event_digest(traj) -> str:
    h = hashlib.sha256()
    for column in (traj.events.t, traj.events.kind, traj.events.tau, traj.events.brood):
        h.update(np.asarray(column).tobytes())
    dies = np.asarray(traj.events.kind) == KIND_DEATH
    h.update((np.asarray(traj.events.t)[dies] - np.asarray(traj.events.tau)[dies]).tobytes())
    h.update(str(traj.candidates).encode())
    for snap in traj.snapshots:
        h.update(snap.ages.tobytes())
    return h.hexdigest()


def kernel_workload_run(k=300, replicate=0):
    """One replicate of the benchmark's ``kernel`` study at K = ``k``, from the start the
    digests were recorded on: K + sqrt(K) atoms on the 200 cells of [0, 1], floor(K dx +
    sqrt(K) dx) at each center and one more at each of the youngest that rounding left."""
    dx = 5e-3
    per_cell = k * dx + math.sqrt(k) * dx
    counts = np.full(200, math.floor(per_cell))
    counts[:round(200 * per_cell) - counts.sum()] += 1
    start = AtomicMeasure(np.repeat((np.arange(200) + 0.5) * dx, counts), 1.0, 400 * dx)
    model = model_from_config({
        "family": "kernel_linear", "birth": 1.0,
        "death": {"kernel": {"kind": "exp_decay", "alpha": 1.0}, "phi": "affine",
                  "c0": 0.2, "cy": 0.3, "cz": 0.5},
        "death_sup": 4.0,
        "life_law": {"kind": "deterministic", "k": 1},
        "split_law": {"kind": "deterministic", "k": 0}})
    return simulate(model, start, k, 1.0, 1.0,
                    replicate_stream(20260812, PURPOSE_CLT, 0, replicate),
                    log_events=True, t_star=start.t_star)


def test_kernel_workload_events_are_pinned(monkeypatch):
    assert event_digest(kernel_workload_run()) == (
        "375b69bb8ba7afcf4c39212c50d91b232013cca64396733ef00cdf79c35f728f")
    # a larger live set, where a pairing's rounding is likeliest to flip a decision
    assert event_digest(kernel_workload_run(k=3000)) == (
        "2a22e624f01dabe41b03bc35c012db979710ddef9ff7f1a90159ab6cdeaaf175")
    # against the declared sups, the events recorded when every candidate's
    # rate was evaluated: the per-size bound is the only change to the draws
    declared_bounds(monkeypatch)
    assert event_digest(kernel_workload_run()) == (
        "20825080dc1a34e9a53e68b95b258e8d1e87d4c3d430412420f98f004e163fe3")


def ledger_digest(traj) -> str:
    """:func:`event_digest` and the ledger's recorded M and compensator paths."""
    h = hashlib.sha256(event_digest(traj).encode())
    for path in (traj.ledger.m_path, traj.ledger.comp_path):
        h.update(np.asarray(path).tobytes())
    return h.hexdigest()


def population_run(model, ctx, *, ledger=True):
    """150 atoms at k = 300 to t = 1, with an event log and, by default, a
    Gauss-Legendre ledger (a bump in the panel)."""
    return simulate(model, atoms(np.linspace(0.0, 1.0, 150)), k=300, horizon=1.0,
                    dt_out=0.25, rng=stream(0, ctx=ctx), with_ledger=ledger,
                    panel=[constant(), monomial(1), bump(0.2, 0.9)], log_events=True,
                    t_star=2.0)


def test_density_and_age_density_runs_are_pinned():
    # recorded when these rates were evaluated at every candidate and every
    # Gauss-Legendre node
    traj = population_run(DENS, 18)
    assert len(traj.events) > 150 and traj.deaths > 0
    assert ledger_digest(traj) == (
        "0c134be4d2c6e118a37aaf71f955fcb6247cebd0b55a09a3f5d11f616aff1328")
    traj = population_run(AGE_DENS, 19)
    assert len(traj.events) > 150 and traj.deaths > 0
    assert ledger_digest(traj) == (
        "9a11ce47f3b6bb0b131f82fbeb70b0dacd05e6043858f3d3923213578a50d016")


def test_a_kernel_rate_without_a_profile_is_the_constant_one_profile(monkeypatch):
    # no age factor skips the factor 1 at every candidate and, the pairings
    # being fixed between events, evaluates the death rate once per ledger
    # interval instead of at each of its 5 nodes: the same bits either way
    calls = {"death_rate": 0, "intervals": 0, "in_ledger": False}
    death_rate, accumulate = RateModel.death_rate, MartingaleLedger._accumulate

    def counting(model, x, mu, k=None):
        calls["death_rate"] += calls["in_ledger"]
        return death_rate(model, x, mu, k)

    def counting_accumulate(ledger, pop):
        calls["intervals"] += pop.n_live > 0 and pop.t > ledger._s
        calls["in_ledger"] = True
        try:
            return accumulate(ledger, pop)
        finally:
            calls["in_ledger"] = False

    monkeypatch.setattr(RateModel, "death_rate", counting)
    monkeypatch.setattr(MartingaleLedger, "_accumulate", counting_accumulate)
    panel = make_panel(["1", "exp:0.5", "bump:0.2:0.9"])
    for i in range(2):
        digests = []
        for age, per_interval in ((None, 1), (AgeProfile("constant", c=1.0), 5)):
            calls.update(death_rate=0, intervals=0)
            traj = simulate(kernel_model(4.0, birth=1.0, life=1, age=age),
                            atoms(np.linspace(0.0, 1.0, 100)), k=100, horizon=1.0,
                            dt_out=0.25, rng=replicate_stream(3, 5, 0, i), panel=panel,
                            with_ledger=True, log_events=True, t_star=2.0)
            assert len(traj.events) > 100 and traj.deaths > 0
            assert calls["death_rate"] == per_interval * calls["intervals"] > 0, (i, age)
            digests.append(ledger_digest(traj))
        assert digests == [KERNEL_LEDGER_DIGESTS[i]] * 2, i


# recorded when a kernel rate with no profile held the constant-1 profile
KERNEL_LEDGER_DIGESTS = [
    "1bb154851548bbbfc7a7aad4a53a9f8a77e5a0119c72a67316ddb6507283595c",
    "8720d282010f4e581c396dc6f27fea46f2760815420c54d49c03c31bd6e66113"]


@pytest.mark.parametrize("model, ctx", [(DENS, 18), (AGE_DENS, 19)],
                         ids=["density", "age_density"])
def test_in_range_population_rates_are_never_evaluated(model, ctx, monkeypatch):
    # every range is a point inside [0, sup]: the ranges decide every candidate
    calls = [0]
    for name in ("birth_rate", "death_rate"):
        def counting(model, x, mu, k=None, _rate=getattr(RateModel, name)):
            calls[0] += 1
            return _rate(model, x, mu, k)

        monkeypatch.setattr(RateModel, name, counting)
    traj = population_run(model, ctx, ledger=False)
    assert traj.candidates > len(traj.events) > 150 and calls[0] == 0


def test_density_rate_above_its_declared_sup_raises():
    # h = 0.5 + 0.3 * 150 / 300 from the first candidate on
    with pytest.raises(ModelError, match=r"^death rate 0\.65 violates declared bound 0\.6$"):
        population_run(dataclasses.replace(DENS, death_sup=0.6), 18, ledger=False)


def test_squeeze_pairs_few_candidates(monkeypatch):
    with monkeypatch.context() as m:
        declared_bounds(m)
        declared = kernel_workload_run().candidates
    kernel_pair, calls = Population.kernel_pair, [0]

    def counted(pop, kernel, x):
        calls[0] += 1
        return kernel_pair(pop, kernel, x)

    monkeypatch.setattr(Population, "kernel_pair", counted)
    traj = kernel_workload_run()
    assert 0 < calls[0] <= 0.2 * declared
    assert traj.candidates <= 0.5 * declared


def test_kernel_birth_thinning_law_on_simulate():
    # the birth-side twin of test_kernel_thinning_law_on_simulate: broods of
    # 0 keep the live set, so the first birth is Exp(sum b) and its parent i
    # is drawn with probability b_i / sum b
    ages = np.array([0.1, 0.5, 1.3])
    b = kernel_death_rates(ages, 3)          # the same phi on the birth side
    model = RateModel(kernel_rate(c0=0.2, cy=0.3, cz=0.5),
                      ConstantRate(0.0), OffspringLaw.deterministic(0),
                      OffspringLaw.deterministic(0), birth_sup=1.5 * b.max(), death_sup=0.0)
    n = 10000
    first, who = np.empty(n), np.empty(n, dtype=int)
    for i in range(n):
        traj = simulate(model, atoms(ages), k=3, horizon=8.0, dt_out=8.0,
                        rng=stream(i, ctx=47), log_events=True)
        first[i] = traj.events.t[0]
        who[i] = int(np.flatnonzero(-ages == traj.events.tau[0])[0])
        assert traj.events.kind[0] == KIND_BIRTH
    assert abs(first.mean() - 1.0 / b.sum()) <= 3 * first.std() / math.sqrt(n)
    for i, p in enumerate(b / b.sum()):
        assert abs(np.mean(who == i) - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_envelope_above_the_bound_falls_back_to_exact_rates(forced_exact):
    # pure death: the rates only fall, and the largest is at t = 0, under a
    # bound that the envelope's top (at z = y) pokes above
    ages = np.linspace(0.0, 1.9, 40)
    h = kernel_death_rates(ages, 40)
    model = kernel_model(death_sup=1.01 * h.max())
    part, _, hi = model.death.bounds(40, 40, model.death_sup)
    assert hi > model.death_sup == part > h.max()      # r(0) hi: the envelope's top
    exact, _ = forced_exact(model, ages, 40, 48, horizon=2.0)
    run = run_logged(model, ages, 40, 48, horizon=2.0)
    assert_same_run(run, exact)
    assert run[0].deaths > 10


@pytest.fixture(scope="module")
def logged_trajectories():
    out = []
    for ctx, (model, n0) in enumerate([(pure_splitting(1.0, 2), 120),
                                       (MIXED, 100), (DENS, 60)]):
        a0 = atoms(np.linspace(0.0, 1.0, n0))
        out.append(simulate(model, a0, k=n0, horizon=1.0, dt_out=0.25,
                            rng=stream(ctx, ctx=8), log_events=True, t_star=2.0))
    return out


def test_pathwise_identity_replay_matches_the_snapshots(logged_trajectories):
    # lifelines (pure splitting, MIXED) and the loop (DENS)
    for traj in logged_trajectories:
        assert check_pathwise_identity(traj) == 0.0


def test_pathwise_identity_counting(logged_trajectories):
    # f = 1: |A_t| = |A_0| + broods - deaths up to t, summed straight from the log
    for traj in logged_trajectories:
        ev_t = np.array(traj.events.t)
        brood, dies = np.array(traj.events.brood), np.array(traj.events.kind) == KIND_DEATH
        for t_out, snap in zip(traj.times, traj.snapshots):
            upto = ev_t <= t_out
            assert snap.count == (traj.initial_count + int(brood[upto].sum())
                                  - int(dies[upto].sum()))


def test_pathwise_identity_catalogue_complete(logged_trajectories):
    # the log holds every event the run's counters saw, and nothing after the horizon
    for traj in logged_trajectories:
        ev = traj.events
        assert len(ev) > 0 and max(ev.t) <= traj.times[-1]
        assert sum(k == KIND_DEATH for k in ev.kind) == traj.deaths
        assert sum(ev.brood) == traj.births_life + traj.births_split
        assert len(traj.initial_birth_times) == traj.initial_count


@pytest.mark.parametrize("model", [MIXED, DENS], ids=["closed_form", "gauss_legendre"])
def test_pathwise_identity_replay_with_a_ledger(model):
    traj = simulate(model, atoms(np.linspace(0.0, 1.0, 60)), k=60, horizon=1.0,
                    dt_out=0.25, rng=stream(3, ctx=8), panel=LAW_PANEL, with_ledger=True,
                    log_events=True, t_star=2.0)
    assert traj.events and traj.ledger.times
    assert check_pathwise_identity(traj) == 0.0


def mutated(traj, edit):
    """``traj`` with a copy of its event log, edited in place by ``edit``."""
    log = EventLog()
    log.t, log.kind, log.tau, log.brood = (list(traj.events.t), list(traj.events.kind),
                                           list(traj.events.tau), list(traj.events.brood))
    edit(log)
    return dataclasses.replace(traj, events=log)


def triple_broods(log):
    log.brood = [3 * b for b in log.brood]


def truncate(log):
    for name in ("t", "kind", "tau", "brood"):
        setattr(log, name, getattr(log, name)[:20])


def shift_a_birth(log):
    # the first brood none of whose newborns dies, so every death still finds its tau
    dead = {tau for tau, kind in zip(log.tau, log.kind) if kind == KIND_DEATH}
    i = next(i for i, b in enumerate(log.brood) if b > 0 and log.t[i] not in dead)
    log.t[i] += 1e-3


def unborn_death(log):
    i = log.kind.index(KIND_DEATH)
    log.tau[i] -= 0.5


@pytest.mark.parametrize("edit", [triple_broods, truncate, shift_a_birth, unborn_death])
def test_pathwise_identity_replay_catches_a_wrong_log(logged_trajectories, edit):
    for traj in logged_trajectories:
        assert len(traj.events) > 20
        assert check_pathwise_identity(mutated(traj, edit)) > 1e-9


def test_pathwise_identity_needs_an_event_log():
    traj = simulate(MIXED, atoms([0.5]), k=1, horizon=1.0, dt_out=0.5, rng=stream(0))
    with pytest.raises(ValueError, match="without an event log"):
        check_pathwise_identity(traj)


def test_mass_bookkeeping_and_support(logged_trajectories):
    for traj in logged_trajectories:
        assert traj.check_mass_bookkeeping()
        ev = traj.events
        step = np.array(ev.brood) - np.array(ev.kind)      # newborns, less one per death
        for t, snap in zip(traj.times, traj.snapshots):
            assert snap.count == traj.initial_count + step[np.array(ev.t) <= t].sum()
            if snap.count:
                assert snap.ages.max() <= t + 1.0 + 1e-12


def test_event_log_determinism(tmp_path):
    model = pure_splitting(1.0, 2)

    def run(seed_idx):
        traj = simulate(model, atoms(np.zeros(100), t_star=1.0), k=100, horizon=1.0,
                        dt_out=1.0, rng=stream(seed_idx, ctx=9), log_events=True,
                        t_star=1.0)
        path = tmp_path / f"ev{seed_idx}.csv"
        traj.events.to_csv(path)
        return path.read_bytes()

    a = run(0)
    b = run(0)
    c = run(1)
    assert a == b
    assert a != c


def test_population_cap(paths):
    model = pure_splitting(1.0, 3)  # strongly supercritical
    rng = stream(11, ctx=10)
    with pytest.raises(CapacityError) as err:
        simulate(model, atoms(np.zeros(200), t_star=3.0), k=200, horizon=3.0,
                 dt_out=1.0, rng=rng, population_cap=1000, t_star=3.0)
    assert paths == ["_simulate_lives"]
    # pinned with the generator's state before the generation pass was made lean
    assert str(err.value) == "population 1001 exceeded cap 1000 at t=1.04613"
    assert hashlib.sha256(repr(philox_state(rng)).encode()).hexdigest() == (
        "6ac377b543e8e1cec71d3d4c4898cfe5f3ba20aec4f155bb7e899d5e5dd8debc")


def test_snapshot_weight_and_times():
    model = pure_splitting(1.0, 2)
    traj = simulate(model, atoms(np.zeros(50), t_star=1.0), k=50, horizon=1.0,
                    dt_out=0.25, rng=stream(12, ctx=11), t_star=1.0)
    assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert traj.snapshots[0].weight == pytest.approx(1.0 / 50)
    assert traj.snapshots[0].count == 50


def test_output_times_are_built_once_and_read_only():
    times = branching.output_times(1.5, 0.25)
    assert bits(times) == bits(np.append(np.arange(6) * 0.25, 1.5))
    assert branching.output_times(1.5, 0.25) is times and not times.flags.writeable
    with pytest.raises(ValueError):
        times[0] = 1.0
    for _ in range(2):      # an error is raised again, not cached
        with pytest.raises(ValueError, match="divide"):
            branching.output_times(1.0, 0.3)


def test_ledger_csv_format(tmp_path):
    model = pure_splitting(1.0, 2)
    traj = simulate(model, atoms(np.zeros(40), t_star=1.0), k=40, horizon=1.0,
                    dt_out=0.5, rng=stream(20, ctx=12), panel=[constant()],
                    with_ledger=True, t_star=1.0)
    path = tmp_path / "ledger.csv"
    traj.ledger.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,f_id,M_value,compensator"
    assert len(lines) == 1 + 3  # three output times, one panel function


# ---------------------------------------------------------------------------
# lifelines (constant rates) against the per-candidate loop


@pytest.fixture
def paths(monkeypatch):
    """The simulate paths taken, in call order."""
    taken = []
    for name in ("_simulate_lives", "_simulate_loop"):
        def spy(*args, _fn=getattr(branching, name), _name=name):
            taken.append(_name)
            return _fn(*args)

        monkeypatch.setattr(branching, name, spy)
    return taken


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def philox_state(rng):
    st = rng.bit_generator.state
    return (st["state"]["counter"].tolist(), st["state"]["key"].tolist(),
            st["buffer"].tolist(), st["buffer_pos"], st["has_uint32"], st["uinteger"])


def assert_same_run(a, b):
    """Identical snapshots, counters, event log and generator state."""
    (ta, ra), (tb, rb) = a, b
    assert philox_state(ra) == philox_state(rb)
    assert bits(ta.times) == bits(tb.times)
    assert [bits(s.ages) for s in ta.snapshots] == [bits(s.ages) for s in tb.snapshots]
    counters = ("births_life", "births_split", "deaths", "candidates")
    assert [getattr(ta, c) for c in counters] == [getattr(tb, c) for c in counters]
    if ta.events is not None:
        ea, eb = ta.events, tb.events
        assert (bits(ea.t), ea.kind, bits(ea.tau), ea.brood) == \
            (bits(eb.t), eb.kind, bits(eb.tau), eb.brood)


def thinned(b, h, life, split, b_sup, h_sup):
    return RateModel(ConstantRate(b), ConstantRate(h),
                     OffspringLaw.deterministic(life), OffspringLaw.deterministic(split),
                     birth_sup=b_sup, death_sup=h_sup)


LAW_PANEL = [constant(), exponential(0.5)]


def law_sample(model, ctx, n=400, n0=10):
    """Per replicate: the final count, the mean age at the horizon, the first
    event time, and M at t = 1 for f = 1 and e^(x/2); NaN where undefined."""
    a0 = atoms(np.linspace(0.0, 1.0, n0))
    rows = np.empty((n, 5))
    for i in range(n):
        traj = simulate(model, a0, k=n0, horizon=1.0, dt_out=0.5, rng=stream(i, ctx=ctx),
                        panel=LAW_PANEL, with_ledger=True, log_events=True, t_star=2.0)
        final = traj.snapshots[-1]
        rows[i] = (final.count, final.ages.mean() if final.count else np.nan,
                   traj.events.t[0] if len(traj.events) else np.nan,
                   *traj.ledger.martingales()[-1])
    return rows


def var_se2(x):
    """Squared standard error of the sample variance of ``x``."""
    d = x - x.mean()
    return max(np.mean(d ** 4) - x.var() ** 2, 0.0) / x.size


@pytest.mark.parametrize("model, ctx", [
    (pure_splitting(1.0, 2), 60),
    (thinned(0.6, 0.9, 0, 3, 1.0, 1.5), 61),
    (thinned(0.6, 0.9, 1, 0, 1.0, 1.5), 62),
    (MIXED, 63),
], ids=["pure_splitting", "broods_0_3", "broods_1_0", "mixed"])
def test_lifelines_match_the_loop_in_law(model, ctx, paths):
    # pre-registered: 400 independent replicates per side, a two-sample KS
    # test at the 0.001 level and mean and variance differences within 3.5 SE
    lives = law_sample(model, ctx)
    loop = law_sample(twin(model), ctx + 100)
    assert paths == ["_simulate_lives"] * 400 + ["_simulate_loop"] * 400
    names = ("final count", "mean age", "first event time", "M[1]", "M[exp(x/2)]")
    for name, x, y in zip(names, lives.T, loop.T):
        x, y = x[~np.isnan(x)], y[~np.isnan(y)]
        assert x.size >= 390 and y.size >= 390, name
        assert ks_2samp(x, y).pvalue > 1e-3, name
        se = math.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
        assert abs(x.mean() - y.mean()) <= 3.5 * se, name
        se = math.sqrt(var_se2(x) + var_se2(y))
        assert abs(x.var(ddof=1) - y.var(ddof=1)) <= 3.5 * se, name


def test_lifelines_extinction_before_the_horizon(paths):
    traj = simulate(EXTINCTION, atoms(np.linspace(0.0, 1.0, 300), t_star=4.0), k=300,
                    horizon=3.0, dt_out=0.5, rng=stream(0, ctx=34), log_events=True,
                    t_star=4.0)
    assert paths == ["_simulate_lives"]
    assert traj.deaths == traj.candidates == len(traj.events) == 300
    last = traj.events.t[-1]
    assert traj.events.t == sorted(traj.events.t)
    for t, snap in zip(traj.times, traj.snapshots):
        assert snap.count == 300 - sum(te <= t for te in traj.events.t)
    assert any(t > last for t in traj.times)


def test_population_cap_holds_at_the_running_maximum(paths):
    # the cap is checked on the running count, exactly: a run whose peak is
    # the cap passes, and one cap below raises at the peak's first time
    model = thinned(0.6, 0.9, 1, 0, 1.0, 1.5)

    def run(cap):
        return simulate(model, atoms(np.linspace(0.0, 1.0, 200)), k=200, horizon=1.0,
                        dt_out=0.5, rng=stream(0, ctx=64), log_events=True,
                        population_cap=cap, t_star=2.0)

    ev = run(10 ** 7).events
    n = 200 + np.cumsum(np.array(ev.brood) - np.array(ev.kind))
    peak = int(n.max())
    assert peak > 200 and len(run(peak).events) == len(ev)
    message = f"population {peak} exceeded cap {peak - 1} at t={ev.t[int(np.argmax(n))]:.6g}"
    with pytest.raises(CapacityError, match=re.escape(message)):
        run(peak - 1)
    assert paths == ["_simulate_lives"] * 3


def test_acceptance_configs_take_the_pinned_paths(paths):
    # criteria 1-5 through the harness's replicate call, two replicates per K
    for cfg, purpose, flags in ((lln_config(), PURPOSE_LLN, {}),
                                (qv_config(), PURPOSE_QV, {"with_ledger": True}),
                                (clt_config(), PURPOSE_CLT, {})):
        small = dataclasses.replace(cfg, replicates=2)
        for k_index in range(len(cfg.k_values)):
            _replicates(small, k_index, purpose, workers=1, **flags)
    assert paths == ["_simulate_lives"] * 10
    # criterion 7's classical cases (pure splitting, mixed laws) and criterion 8
    paths.clear()
    for model, n0 in ((pure_splitting(1.0, 2), 100), (MIXED, 80)):
        simulate(model, atoms(np.linspace(0.0, 1.0, n0)), k=n0, horizon=1.0, dt_out=0.25,
                 rng=stream(0), log_events=True, t_star=2.0)
    simulate(PURE_DEATH, atoms(np.zeros(3), t_star=1.0), k=1, horizon=1.0, dt_out=1.0,
             rng=stream(1), t_star=1.0)
    # a bump-panel (Gauss-Legendre) ledger does not move a constant-rate run off lifelines
    ledger_run(pure_splitting(1.0, 2), [constant(), bump(0.2, 0.9)], 60, 16)
    assert paths == ["_simulate_lives"] * 4
    # population-dependent rates and the kernel workload model
    paths.clear()
    simulate(DENS, atoms(np.linspace(0.0, 1.0, 50)), k=50, horizon=1.0, dt_out=0.25,
             rng=stream(2), t_star=2.0)
    kernel_workload_run()
    assert paths == ["_simulate_loop"] * 2


@pytest.mark.parametrize("flags", [{"log_events": True},
                                   {"with_ledger": True, "panel": LAW_PANEL}],
                         ids=["log", "ledger"])
@pytest.mark.parametrize("model, n0, horizon", [
    (pure_splitting(1.0, 2), 120, 1.0),
    (MIXED, 80, 1.0),
    (thinned(0.6, 0.9, 0, 3, 1.0, 1.5), 100, 1.0),
    (thinned(0.6, 0.9, 1, 0, 1.0, 1.5), 100, 1.0),
    (TRANSPORT, 30, 1.0),
    (EXTINCTION, 60, 3.0),
], ids=["pure_splitting", "mixed", "broods_0_3", "broods_1_0", "transport", "extinction"])
def test_lifelines_without_a_log_or_ledger_match_the_kept_run(model, n0, horizon, flags,
                                                              paths):
    # LLN and CLT runs keep neither, so they skip the event table
    def run(**kept):
        rng = stream(0, ctx=70)
        return simulate(model, atoms(np.linspace(0.0, 1.0, n0)), k=n0, horizon=horizon,
                        dt_out=0.25, rng=rng, t_star=horizon + 1.0, **kept), rng

    kept, plain = run(**flags), run()
    assert paths == ["_simulate_lives"] * 2
    assert_same_run(plain, kept)
    traj = kept[0]
    if traj.events is not None:     # the summed counters tally the events
        kind, brood = np.array(traj.events.kind), np.array(traj.events.brood)
        assert traj.candidates == kind.size and traj.deaths == np.sum(kind == KIND_DEATH)
        assert traj.births_split == brood[kind == KIND_DEATH].sum()
        assert traj.births_life == brood[kind == KIND_BIRTH].sum()
    if model is EXTINCTION:
        assert plain[0].final_count == 0 and plain[0].deaths == n0


@pytest.mark.parametrize("n_out", [1, 4])
@pytest.mark.parametrize("model", [pure_splitting(1.0, 2), MIXED], ids=["pure_splitting", "mixed"])
def test_closed_form_ledger_is_its_event_logs_replay(model, n_out, monkeypatch):
    # lifelines settle a closed-form ledger from the death times and ages alone;
    # the time-ordered log, replayed interval by interval through settle (the
    # broods summed, the death ages t - tau), gives the same bits, and so does
    # the run without a log
    record, lives = MartingaleLedger.record, []

    def spy(ledger, pop):       # the live set each record reads, in the run's order
        lives.append(pop.birth_times[:pop.n_live].copy())
        record(ledger, pop)

    monkeypatch.setattr(MartingaleLedger, "record", spy)
    a0 = atoms(np.linspace(0.0, 1.0, 60))

    def run(**kept):
        return simulate(model, a0, k=60, horizon=1.0, dt_out=1.0 / n_out,
                        rng=stream(n_out, ctx=95), panel=LAW_PANEL, with_ledger=True,
                        t_star=2.0, **kept)

    logged = run(log_events=True)
    ev, pop = logged.events, Population(a0.ages, k=60)
    oracle, done = MartingaleLedger(LAW_PANEL, model, pop), 0
    assert logged.ledger.closed_form and len(ev) > 0
    for t_out, live in zip(logged.times, lives):
        end = done + sum(t <= t_out for t in ev.t[done:])
        deaths = [i for i in range(done, end) if ev.kind[i] == KIND_DEATH]
        oracle.settle(sum(ev.brood[done:end]), np.array([ev.t[i] - ev.tau[i] for i in deaths]))
        pop.t, pop.birth_times, pop.n_live, done = float(t_out), live, live.size, end
        record(oracle, pop)
    assert done == len(ev)
    for ledger in (logged.ledger, run().ledger):
        assert bits(ledger.times) == bits(oracle.times)
        assert bits(ledger.m_path) == bits(oracle.m_path)
        assert bits(ledger.comp_path) == bits(oracle.comp_path)


def study_replicate(cfg, purpose, k_index):
    """Replicate 0 of a study at one K, simulated as the harness simulates it."""
    k = cfg.k_values[k_index]
    atoms = cfg.inits[k].atoms
    rng = replicate_stream(cfg.seed, purpose, k_index, 0)
    traj = simulate(cfg.build_model(), atoms, k, cfg.horizon, cfg.dt_out, rng,
                    panel=cfg._panel, population_cap=cfg.population_cap, t_star=atoms.t_star)
    h = hashlib.sha256()
    for snap in traj.snapshots:
        h.update(snap.ages.tobytes())
    counters = [traj.births_life, traj.births_split, traj.deaths, traj.candidates]
    h.update(repr((counters, philox_state(rng))).encode())
    return h.hexdigest()


def test_acceptance_lifelines_are_pinned():
    # recorded before the lifeline sampler skipped the event table of a run
    # that keeps neither a log nor a ledger: no draw moved
    assert study_replicate(clt_config(), PURPOSE_CLT, 0) == (
        "fc7623c807b3fdd1a68898febc584ae0e02fcf29bfc4f96c0c8c04368a124591")
    assert study_replicate(lln_config(), PURPOSE_LLN, 0) == (
        "c9ae512a726c789293a129b3be1ed1cec4f7daef8b95bc68b57af8fa1dd30090")


PAIRING_PANEL = [constant(), exponential(0.5), monomial(1), bump(0.2, 0.9)]


@pytest.mark.parametrize("panel", [PAIRING_PANEL, [constant()]], ids=["panel", "unit_only"])
@pytest.mark.parametrize("with_ledger", [False, True], ids=["plain", "ledger"])
@pytest.mark.parametrize("n_out", [1, 4])
@pytest.mark.parametrize("model, path", [(MIXED, "_simulate_lives"),
                                         (twin(MIXED), "_simulate_loop")],
                         ids=["lifelines", "loop"])
def test_pairings_are_the_snapshots_pairings(model, path, n_out, with_ledger, panel, paths):
    # the studies' entry pairs the live set and keeps no snapshot: on the same
    # stream its rows are pair(f, snapshot) bit for bit and its counts the
    # snapshots' counts; a unit-only panel without a ledger only counts
    def run(entry, **kept):
        return entry(model, atoms(np.linspace(0.0, 1.0, 60)), k=60, horizon=1.0,
                     dt_out=1.0 / n_out, rng=stream(n_out, ctx=90), panel=panel,
                     with_ledger=with_ledger, **kept)

    traj, kept = run(branching.simulate, t_star=2.0), run(branching.simulate_pairings)
    assert paths == [path, path]
    assert kept.snapshots is None and kept.pairings.shape == (n_out + 1, len(panel))
    assert bits(kept.pairings) == bits([[pair(f, s) for f in panel] for s in traj.snapshots])
    assert kept.counts == [s.count for s in traj.snapshots] and kept.check_mass_bookkeeping()
    counters = ("births_life", "births_split", "deaths", "candidates")
    assert [getattr(kept, c) for c in counters] == [getattr(traj, c) for c in counters]
    if with_ledger:
        assert bits(kept.ledger.martingales()) == bits(traj.ledger.martingales())


# a Poisson life law with a two-point split law: MIXED's laws swapped
SWAPPED = classical_model(0.6, 0.9, OffspringLaw.poisson(1.1),
                          OffspringLaw.two_point(0.4, 0, 3))
FINGERPRINT_KINDS = ({}, {"log_events": True},
                     {"with_ledger": True, "panel": LAW_PANEL},
                     {"with_ledger": True, "panel": [constant(), bump(0.2, 0.9)]})


def first_death(model, n0, ctx, i=0):
    """The death time of the first of ``n0`` initial lives on ``stream(i, ctx)``."""
    return float(stream(i, ctx=ctx).standard_exponential(n0)[0]) / model.death.value


# b = 0 and one newborn per death: 60 lives at every time
RENEWAL = thinned(0.0, 1.0, 0, 1, 1.0, 1.0)


def lifeline_fingerprint(model, horizon):
    """A digest of every lifeline run kind (plain, log, closed-form and
    Gauss-Legendre ledger) at one and at four output intervals: the snapshot
    ages, the counters, the Philox state, the event log and the ledger paths."""
    h = hashlib.sha256()
    for i, (n_out, kept) in enumerate((n, kept) for n in (1, 4) for kept in FINGERPRINT_KINDS):
        rng = stream(i, ctx=80)
        traj = simulate(model, atoms(np.linspace(0.0, 1.0, 60)), k=60, horizon=horizon,
                        dt_out=horizon / n_out, rng=rng, t_star=horizon + 1.0, **kept)
        for snap in traj.snapshots:
            h.update(snap.ages.tobytes())
        counters = [traj.births_life, traj.births_split, traj.deaths, traj.candidates]
        h.update(repr((counters, philox_state(rng))).encode())
        if traj.events is not None:
            ev = traj.events
            for column in (ev.t, ev.kind, ev.tau, ev.brood):
                h.update(np.asarray(column).tobytes())
        if traj.ledger is not None:
            for path in (traj.ledger.times, traj.ledger.m_path, traj.ledger.comp_path):
                h.update(np.asarray(path).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("model, horizon, digest", [
    (pure_splitting(1.0, 2), 1.0,
     "e71c82fb3f0a5cd330caff1b16c23a9f896194dea80280de40a03d466dffba91"),
    (MIXED, 1.0,
     "1f596d6f9a37ae6a154b27f83db7b1cc3151531336a94bb614c9f3835ea7f449"),
    (thinned(0.6, 0.9, 0, 3, 1.0, 1.5), 1.0,
     "b49b838030036ba32c10b467b1006b099732d5a8c8378f24b2c69c5705e743c4"),
    (thinned(0.6, 0.9, 1, 0, 1.0, 1.5), 1.0,
     "50f237fa57fcdc387b1c7bb4a206eb68104f0eefa5aa42b7e2630786bace8ffc"),
    (TRANSPORT, 1.0,
     "343a9854a921f49faebdfec33b0538a858d21fd192e24fba6f58666999730cfa"),
    (EXTINCTION, 3.0,
     "56fbea1baa2fdbe6a7a801df5c5dc236be8c9fdc8109363f99b83e29a0e53644"),
    (SWAPPED, 1.0,
     "ac463738d44f9698cd1a1fe424c195d16bde10860ee0011eb0fe2d10cd9186cb"),
    # the first initial life dies exactly at the horizon, so it is alive there
    (SWAPPED, first_death(SWAPPED, 60, 80),
     "88084af455689e5600c567019cc69e4cbdc9883400d6b5d5d191b2455c2f0d06"),
    # in the four-interval closed-form ledger's run (stream 6) the first initial
    # life dies exactly at the first interior output time, and its newborn is
    # born there, so it is alive and counted among that interval's newborns
    (RENEWAL, 4 * first_death(RENEWAL, 60, 80, i=6),
     "7ebc7d3b9e261b734649e102a0e25db020d81224f6a1f79bed39bf44f47d52bb"),
], ids=["pure_splitting", "mixed", "broods_0_3", "broods_1_0", "transport", "extinction",
        "poisson_two_point", "death_at_the_horizon", "death_at_an_output_time"])
def test_lifeline_fingerprint(model, horizon, digest):
    # pinned before the generation pass was made lean, which moved no draw
    assert lifeline_fingerprint(model, horizon) == digest
