import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy.stats import kstest

from agestruct import branching
from agestruct.acceptance import clt_config, lln_config, qv_config
from agestruct.branching import (KIND_BIRTH, KIND_DEATH, CapacityError, MartingaleLedger,
                                 Population, check_pathwise_identity,
                                 pathwise_identity_catalogue, simulate, two_var)
from agestruct.harness import (PURPOSE_CLT, PURPOSE_LLN, PURPOSE_QV, _Study, build_initial,
                               model_from_config, replicate_stream)
from agestruct.measures import (AtomicMeasure, bump, constant, exponential, make_panel,
                                monomial, pair)
from agestruct.rates import (AgeProfile, ConstantRate, DensityRate, Kernel, KernelRate,
                             ModelError, OffspringLaw, RateModel, ScalarFn, classical_model,
                             pure_splitting)


def atoms(ages, t_star=2.0):
    return AtomicMeasure(ages=np.asarray(ages, dtype=float), weight=1.0, t_star=t_star)


def stream(i, ctx=0):
    return replicate_stream(987654, 9, ctx, i)


PURE_DEATH = classical_model(0.0, 1.0, OffspringLaw.deterministic(0),
                             OffspringLaw.deterministic(0))
TRANSPORT = classical_model(0.0, 0.0, OffspringLaw.deterministic(0),
                            OffspringLaw.deterministic(0))
# the mixed two-point/Poisson classical model of criterion 7
MIXED = RateModel("classical", ConstantRate(0.5), ConstantRate(0.8),
                  OffspringLaw.two_point(0.5, 0, 2), OffspringLaw.poisson(1.2),
                  birth_sup=0.5, death_sup=0.8)
DENS = RateModel("density_dependent", ConstantRate(0.4),
                 DensityRate(ScalarFn.affine(0.5, 0.3)),
                 OffspringLaw.deterministic(1), OffspringLaw.deterministic(2),
                 birth_sup=0.4, death_sup=2.0)


def first_death_times(ages, ctx, n=20000, horizon=40.0):
    """Time of the first death in each of n pure-death runs of ``simulate``.

    The horizon is long enough that every run sees a death (P < 1e-17 each).
    """
    a0 = atoms(ages, t_star=horizon + max(ages))
    times = np.empty(n)
    for i in range(n):
        traj = simulate(PURE_DEATH, a0, k=1, horizon=horizon, dt_out=horizon,
                        rng=stream(i, ctx=ctx), t_star=a0.t_star)
        times[i] = traj.death_times[0]
    return times


def test_empty_population_has_no_events():
    traj = simulate(PURE_DEATH, atoms([]), k=1, horizon=1.0, dt_out=0.5,
                    rng=stream(1), log_events=True, t_star=2.0)
    assert len(traj.events) == 0 and traj.deaths == 0
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
    # loose bound: accepted inter-event gaps must still be Exp(0.4)
    model = RateModel("classical", ConstantRate(0.4), ConstantRate(0.0),
                      OffspringLaw.deterministic(0), OffspringLaw.deterministic(0),
                      birth_sup=1.0, death_sup=0.5)
    horizon = 30000.0   # about 12000 accepted events; 10000 are needed
    traj = simulate(model, atoms([0.0], t_star=horizon), k=1, horizon=horizon,
                    dt_out=horizon, rng=stream(0, ctx=3), log_events=True,
                    t_star=horizon)
    assert len(traj.events) >= 10000
    gaps = np.diff(np.array([0.0] + traj.events.t[:10000]))
    stat = kstest(gaps, "expon", args=(0, 1.0 / 0.4))
    assert stat.pvalue > 0.01


def test_transport_only():
    a0 = atoms([0.2, 0.5, 0.9])
    traj = simulate(TRANSPORT, a0, k=1, horizon=1.0, dt_out=0.25, rng=stream(4),
                    t_star=2.0)
    assert traj.births_life == traj.births_split == traj.deaths == 0
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
        vals[i] = pair(constant(1.0), traj.snapshots[-1])
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
    panel = [constant(1.0), monomial(1)]
    traj = simulate(TRANSPORT, atoms([0.3, 0.6]), k=1, horizon=1.0, dt_out=0.5,
                    rng=stream(6), panel=panel, with_ledger=True, t_star=2.0)
    assert np.allclose(traj.ledger.martingales(), 0.0)


def test_ledger_compensator_exact_for_constant_rates():
    # for constant rates the mass compensator is (newborn - death) * int N dt,
    # reconstructible exactly from the event log
    model = pure_splitting(1.0, 2)
    traj = simulate(model, atoms(np.zeros(200), t_star=1.0), k=200, horizon=1.0,
                    dt_out=1.0, rng=stream(7, ctx=6), panel=[constant(1.0)],
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
                        dt_out=1.0, rng=stream(i, ctx=7), panel=[constant(1.0)],
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
    panel = [constant(1.0), bump(0.2, 0.9)]
    traj = ledger_run(pure_splitting(1.0, 2), panel, 60, 16)
    assert not traj.ledger.closed_form
    comp = np.array(traj.ledger.comp_path)
    ref = gauss_legendre_compensator(traj, pure_splitting(1.0, 2), panel)
    assert np.all(np.abs(comp - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    assert comp[-1] == pytest.approx([100.80205230830724, -25.708551412379784], rel=1e-12)
    assert traj.ledger.martingales()[-1] == pytest.approx(
        [-1.802052308307239, -1.80398578273061], rel=1e-12)
    traj = simulate(DENS, atoms(np.linspace(0.0, 1.0, 60)), k=120, horizon=1.0,
                    dt_out=0.5, rng=stream(0, ctx=17), panel=[constant(1.0), monomial(1)],
                    with_ledger=True, t_star=2.0)
    assert not traj.ledger.closed_form
    assert traj.ledger.comp_path[-1] == pytest.approx(
        [172.7608542257993, -51.65038501257205], rel=1e-12)
    assert traj.ledger.martingales()[-1] == pytest.approx(
        [18.239145774200693, -6.532071403771575], rel=1e-12)


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
    panel = [constant(1.0), bump(0.2, 0.9)]
    for model, per_interval in ((pure_splitting(1.0, 2), 1), (DENS, 5)):
        calls.update(death_rate=0, birth_rate=0, intervals=0)
        traj = ledger_run(model, panel, 60, 16)
        assert not traj.ledger.closed_form and calls["intervals"] > 60
        for name in ("death_rate", "birth_rate"):
            assert calls[name] == per_interval * calls["intervals"], (model.family, name)


# ---------------------------------------------------------------------------
# kernel models: thinning and the ledger


def kernel_model(death_sup, *, birth=0.0, life=0, alpha=1.0, age=None):
    """Death rate r(x) (0.2 + 0.3 |A|/k + 0.5 (g(x, .), A)/k) with g = e^(-alpha |x - y|)."""
    death = KernelRate(Kernel("exp_decay", alpha=alpha), "affine", age=age,
                       c0=0.2, cy=0.3, cz=0.5)
    return RateModel("kernel_linear", ConstantRate(birth), death,
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
    panel = [constant(1.0), exponential(0.5), bump(0.2, 0.9)]
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


def kernel_rate(kernel="exp_decay", phi="affine", age=None, **coef):
    return KernelRate(Kernel(kernel), phi, age=age, **coef)


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
            a = rate.age.scalar(x)
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
    "special_gaussian": (ConstantRate(1.0), kernel_rate("gaussian", "special", d0=0.3, d1=0.8),
                         1.0, 2.0),
    "special_constant_negative_d1": (ConstantRate(1.0),
                                     kernel_rate("constant", "special", d0=1.0, d1=-0.4),
                                     1.0, 2.0),
    "inv1p": (ConstantRate(1.0), kernel_rate(phi="inv1p", c=1.5), 1.0, 2.0),
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
    return RateModel("kernel_linear", birth, death, OffspringLaw.deterministic(1),
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
    h.update(traj.death_ages.tobytes())
    h.update(str(traj.candidates).encode())
    for snap in traj.snapshots:
        h.update(snap.ages.tobytes())
    return h.hexdigest()


def kernel_workload_run(k=300, replicate=0):
    """One replicate of the benchmark's ``kernel`` study at K = ``k``."""
    uniform = {"kind": "grid", "profile": "uniform", "support": [0.0, 1.0], "mass": 1.0}
    model = model_from_config({
        "family": "kernel_linear", "birth": 1.0,
        "death": {"kernel": {"kind": "exp_decay", "alpha": 1.0}, "phi": "affine",
                  "c0": 0.2, "cy": 0.3, "cz": 0.5},
        "death_sup": 4.0,
        "life_law": {"kind": "deterministic", "k": 1},
        "split_law": {"kind": "deterministic", "k": 0}})
    init = build_initial(uniform, uniform, k, 5e-3, 1.0)
    return simulate(model, init.atoms, k, 1.0, 1.0,
                    replicate_stream(20260812, PURPOSE_CLT, 0, replicate),
                    log_events=True, t_star=init.t_star)


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
    model = RateModel("kernel_linear", kernel_rate(c0=0.2, cy=0.3, cz=0.5),
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


def test_pathwise_identity_counting(logged_trajectories):
    for traj in logged_trajectories:
        assert check_pathwise_identity(traj, two_var("1")) == 0.0


@pytest.mark.parametrize("spec", [("x", "1"), ("exp:1", "exp:-1"),
                                  ("x", "mono:1"), ("x^2", "exp:-0.5")])
def test_pathwise_identity_residuals(logged_trajectories, spec):
    f2 = two_var(*spec)
    for traj in logged_trajectories:
        assert check_pathwise_identity(traj, f2) <= 1e-9


def test_pathwise_identity_catalogue_complete(logged_trajectories):
    for traj in logged_trajectories:
        worst = max(check_pathwise_identity(traj, f2) for f2 in pathwise_identity_catalogue())
        assert worst <= 1e-9


def test_mass_bookkeeping_and_support(logged_trajectories):
    for traj in logged_trajectories:
        assert traj.check_mass_bookkeeping()
        for t, snap in zip(traj.times, traj.snapshots):
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


def test_population_cap():
    model = pure_splitting(1.0, 3)  # strongly supercritical
    with pytest.raises(CapacityError):
        simulate(model, atoms(np.zeros(200), t_star=3.0), k=200, horizon=3.0,
                 dt_out=1.0, rng=stream(11, ctx=10), population_cap=1000,
                 t_star=3.0)


def test_snapshot_weight_and_times():
    model = pure_splitting(1.0, 2)
    traj = simulate(model, atoms(np.zeros(50), t_star=1.0), k=50, horizon=1.0,
                    dt_out=0.25, rng=stream(12, ctx=11), t_star=1.0)
    assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert traj.snapshots[0].weight == pytest.approx(1.0 / 50)
    assert traj.snapshots[0].count == 50


def test_ledger_csv_format(tmp_path):
    model = pure_splitting(1.0, 2)
    traj = simulate(model, atoms(np.zeros(40), t_star=1.0), k=40, horizon=1.0,
                    dt_out=0.5, rng=stream(20, ctx=12), panel=[constant(1.0)],
                    with_ledger=True, t_star=1.0)
    path = tmp_path / "ledger.csv"
    traj.ledger.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,f_id,M_value,compensator"
    assert len(lines) == 1 + 3  # three output times, one panel function


# ---------------------------------------------------------------------------
# the block path of state-free runs against the per-candidate loop


def twin(model):
    """``model`` with its constant death rate as a zero-slope density family:
    the same rates, resolved candidate by candidate."""
    h = model.death.value
    return dataclasses.replace(model, family="density_dependent",
                               death=DensityRate(ScalarFn.affine(h, 0.0)))


@pytest.fixture
def paths(monkeypatch):
    """The simulate paths taken, in call order."""
    taken = []
    for name in ("_simulate_blocks", "_simulate_loop"):
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
    """Identical snapshots, counters, death log, event log and generator state."""
    (ta, ra), (tb, rb) = a, b
    assert philox_state(ra) == philox_state(rb)
    assert bits(ta.times) == bits(tb.times)
    assert [bits(s.ages) for s in ta.snapshots] == [bits(s.ages) for s in tb.snapshots]
    counters = ("births_life", "births_split", "deaths", "candidates")
    assert [getattr(ta, c) for c in counters] == [getattr(tb, c) for c in counters]
    assert bits(ta.death_ages) == bits(tb.death_ages)
    assert bits(ta.death_times) == bits(tb.death_times)
    if ta.events is not None:
        ea, eb = ta.events, tb.events
        assert (bits(ea.t), ea.kind, bits(ea.tau), ea.brood) == \
            (bits(eb.t), eb.kind, bits(eb.tau), eb.brood)


def run_twins(model, n0, ctx, paths, horizon=1.0, dt_out=0.125, **kw):
    """The block path on ``model`` and the loop on its twin, on one stream."""
    a0 = atoms(np.linspace(0.0, 1.0, n0), t_star=horizon + 1.0)
    out = []
    for m in (model, twin(model)):
        rng = stream(0, ctx=ctx)
        out.append((simulate(m, a0, k=n0, horizon=horizon, dt_out=dt_out, rng=rng,
                             log_events=True, t_star=horizon + 1.0, **kw), rng))
    assert paths == ["_simulate_blocks", "_simulate_loop"]
    return out


def walk(model, n0, ctx, horizon):
    """Walk a state-free run's uniforms candidate by candidate, tracking N alone.

    Yields (time, slot, live count, kind) per candidate before the horizon,
    with kind KIND_BIRTH, KIND_DEATH or None for a rejected candidate.
    """
    rng = stream(0, ctx=ctx)

    def uniforms():
        while True:
            yield from rng.random(8192).tolist()

    u = uniforms()
    b, h = model.birth.value, model.death.value
    bound = model.birth_sup + model.death_sup
    t, n = 0.0, n0
    while n:
        t_c = t - math.log1p(-next(u)) / (n * bound)
        if t_c >= horizon:
            break
        slot = int(next(u) * n)
        r = next(u) * bound
        kind = KIND_BIRTH if r < b else KIND_DEATH if r < b + h else None
        yield t_c, slot, n, kind
        if kind == KIND_BIRTH:
            n += model.life_law.k
        elif kind == KIND_DEATH:
            n += model.split_law.k - 1
        t = t_c


def replay(model, n0, ctx, horizon, out_times):
    """Returns (candidates, accepted, rejected, output times first reached by a
    rejected candidate) of a state-free run, from :func:`walk`.
    """
    j = 1
    candidates = rejected = rejected_crossings = 0
    for t_c, _, _, kind in walk(model, n0, ctx, horizon):
        crossed = 0
        while j < len(out_times) and out_times[j] <= t_c:
            crossed, j = crossed + 1, j + 1
        if kind is None:
            rejected += 1
            rejected_crossings += crossed
        candidates += 1
    return candidates, candidates - rejected, rejected, rejected_crossings


def chased_moves(model, n0, ctx, horizon):
    """Deaths off the top slot right after an accepted event without newborns:
    the moves whose id the block path chases instead of taking the newest id."""
    chased, newborns = 0, 1          # the initial top slot holds the newest id
    for _, slot, n, kind in walk(model, n0, ctx, horizon):
        if kind is None:
            continue
        chased += kind == KIND_DEATH and slot != n - 1 and newborns == 0
        newborns = model.life_law.k if kind == KIND_BIRTH else model.split_law.k
    return chased


def thinned(b, h, life, split, b_sup, h_sup):
    return RateModel("classical", ConstantRate(b), ConstantRate(h),
                     OffspringLaw.deterministic(life), OffspringLaw.deterministic(split),
                     birth_sup=b_sup, death_sup=h_sup)


@pytest.mark.parametrize("model, n0, ctx", [
    (pure_splitting(1.0, 2), 1000, 30),
    (thinned(0.6, 0.9, 0, 3, 1.0, 1.5), 400, 31),
    (thinned(0.6, 0.9, 1, 0, 1.0, 1.5), 400, 32),
    (thinned(0.6, 0.9, 3, 1, 1.0, 1.5), 400, 33),
], ids=["pure_splitting_K1000", "broods_0_3", "broods_1_0", "broods_3_1"])
def test_block_path_matches_the_loop_bit_for_bit(model, n0, ctx, paths):
    block, loop = run_twins(model, n0, ctx, paths)
    assert_same_run(block, loop)
    traj = block[0]
    assert traj.deaths == traj.events.kind.count(KIND_DEATH) and len(traj.events) > n0
    cand, acc, rej, _ = replay(model, n0, ctx, 1.0, traj.times)
    assert traj.candidates == cand == acc + rej and acc == len(traj.events)
    if model.birth_sup + model.death_sup == model.birth.value + model.death.value:
        assert rej == 0 and traj.candidates == traj.deaths
    else:
        assert rej > 0


@pytest.mark.parametrize("model, n0, ctx", [
    (thinned(0.6, 0.9, 0, 3, 1.0, 1.5), 400, 31),
    (thinned(0.6, 0.9, 1, 0, 1.0, 1.5), 400, 32),
], ids=["broods_0_3", "broods_1_0"])
def test_block_path_chases_moves_after_events_without_newborns(model, n0, ctx, paths):
    # the twin runs above: a move after a birth of 0 or a split into 0 is
    # chased; after a split into 0 the top slot holds an older id than the newest
    block, loop = run_twins(model, n0, ctx, paths)
    assert_same_run(block, loop)
    assert chased_moves(model, n0, ctx, 1.0) > 0


def test_block_path_extinction_inside_a_chunk(paths):
    model = classical_model(0.0, 5.0, OffspringLaw.deterministic(0),
                            OffspringLaw.deterministic(0))
    block, loop = run_twins(model, 300, 34, paths, horizon=3.0, dt_out=0.5)
    assert_same_run(block, loop)
    traj = block[0]
    assert traj.deaths == traj.candidates == 300
    after = [s.count for s, t in zip(traj.snapshots, traj.times) if t > traj.death_times[-1]]
    assert after and not any(after)


def test_block_path_straddles_the_uniform_blocks(paths):
    # 8192 = 3 * 2730 + 2 and 16384 = 3 * 5461 + 1: candidates 2730 and 5461
    # read their uniforms from two blocks, split 2 + 1 and 1 + 2
    block, loop = run_twins(pure_splitting(1.0, 2), 4000, 35, paths, dt_out=0.5)
    assert_same_run(block, loop)
    assert block[0].candidates > 5462


def test_block_path_stops_on_a_blocks_last_uniform(paths):
    # candidate 5461's time is uniform 16383, the last of the second block: with
    # the horizon at that time the run stops there and draws no third block
    t_5461 = run_twins(pure_splitting(1.0, 2), 4000, 36, paths)[0][0].events.t[5461]
    paths.clear()
    block, loop = run_twins(pure_splitting(1.0, 2), 4000, 36, paths,
                            horizon=t_5461, dt_out=t_5461)
    assert_same_run(block, loop)
    assert block[0].candidates == 5461
    fresh = stream(0, ctx=36)
    fresh.random(2 * 8192)
    assert philox_state(block[1]) == philox_state(fresh)


def test_block_path_ends_on_the_last_three_uniforms(paths):
    # 3 * 8192 = 3 * 8191 + 3: a chunk cut short by its expected count ends at
    # candidate 8191 and leaves the last 3 uniforms of the third block;
    # candidate 8192 reads them and is the 69th death (its accept uniform is
    # below h = 0.008125, as 68 earlier ones are), so the run ends there and,
    # as in the loop, draws no fourth block.  A chunk continues only when its
    # next candidate falls before the horizon, so extinction (or the cap) is
    # the only way for a run to end on these 3 uniforms.
    model = thinned(0.0, 0.008125, 0, 0, 0.0, 1.0)
    block, loop = run_twins(model, 69, 1511, paths, horizon=619.0, dt_out=619.0)
    assert_same_run(block, loop)
    assert block[0].candidates == 8192 and block[0].deaths == 69
    fresh = stream(0, ctx=1511)
    fresh.random(3 * 8192)
    assert philox_state(block[1]) == philox_state(fresh)


def test_block_path_rejection_crossing_an_output_time(paths):
    model = thinned(0.0, 0.2, 0, 2, 0.0, 1.0)      # four in five candidates rejected
    block, loop = run_twins(model, 500, 37, paths, dt_out=0.05)
    assert_same_run(block, loop)
    cand, _, rej, rejected_crossings = replay(model, 500, 37, 1.0, block[0].times)
    assert block[0].candidates == cand and rejected_crossings > 0


def test_block_path_capacity_error_at_the_same_event(paths):
    a0 = atoms(np.zeros(300), t_star=3.0)
    raised = []
    for model in (pure_splitting(1.0, 3), twin(pure_splitting(1.0, 3))):
        rng = stream(0, ctx=38)
        with pytest.raises(CapacityError) as exc:
            simulate(model, a0, k=300, horizon=3.0, dt_out=1.0, rng=rng,
                     population_cap=1000, t_star=3.0)
        raised.append((str(exc.value), philox_state(rng)))
    assert paths == ["_simulate_blocks", "_simulate_loop"]
    assert raised[0] == raised[1] and "exceeded cap 1000" in raised[0][0]


@pytest.mark.parametrize("model, n0, ctx", [
    (pure_splitting(1.0, 2), 1000, 39),
    (thinned(0.6, 0.9, 1, 3, 1.0, 1.5), 400, 40),
], ids=["pure_splitting", "births_and_rejections"])
def test_block_path_closed_form_ledger_matches_the_loop(model, n0, ctx, paths, monkeypatch):
    panel = make_panel(["1", "x", "x^2", "exp:0.5", "exp:-1"])
    runs = []
    for threshold in (branching._BLOCK_MIN_CANDIDATES, math.inf):
        monkeypatch.setattr(branching, "_BLOCK_MIN_CANDIDATES", threshold)
        rng = stream(0, ctx=ctx)
        traj = simulate(model, atoms(np.linspace(0.0, 1.0, n0)), k=n0, horizon=1.0,
                        dt_out=0.25, rng=rng, panel=panel, with_ledger=True,
                        log_events=True, t_star=2.0)
        runs.append((traj, rng))
    assert paths == ["_simulate_blocks", "_simulate_loop"]
    assert_same_run(*runs)
    (a, _), (b, _) = runs
    assert a.ledger.closed_form and len(a.ledger.times) == 5
    assert bits(a.ledger.times) == bits(b.ledger.times)
    assert bits(a.ledger.m_path) == bits(b.ledger.m_path)
    assert bits(a.ledger.comp_path) == bits(b.ledger.comp_path)


def test_block_path_replays_a_closed_form_ledger_as_sums(paths, monkeypatch):
    panel = make_panel(["1", "x", "exp:-1"])
    calls = []
    for name in ("death", "birth"):
        def counting(self, *args, _fn=getattr(MartingaleLedger, name)):
            calls[-1] += 1
            return _fn(self, *args)

        monkeypatch.setattr(MartingaleLedger, name, counting)
    runs = []
    for threshold in (branching._BLOCK_MIN_CANDIDATES, math.inf):
        monkeypatch.setattr(branching, "_BLOCK_MIN_CANDIDATES", threshold)
        calls.append(0)
        traj = simulate(pure_splitting(1.0, 2), atoms(np.linspace(0.0, 1.0, 1000)), k=1000,
                        horizon=1.0, dt_out=0.25, rng=stream(0, ctx=41), panel=panel,
                        with_ledger=True, t_star=2.0)
        runs.append(traj.ledger)
    assert paths == ["_simulate_blocks", "_simulate_loop"]
    block, loop = runs
    assert block.closed_form and calls[0] == 0 and calls[1] > 1000
    assert bits(block.m_path) == bits(loop.m_path)
    assert bits(block.comp_path) == bits(loop.comp_path)


def test_acceptance_configs_take_the_pinned_paths(paths):
    # criteria 1-5 through the harness's replicate call, two replicates per K
    pinned = []
    for cfg, purpose, flags in ((lln_config(), PURPOSE_LLN, {}),
                                (qv_config(), PURPOSE_QV, {"with_ledger": True}),
                                (clt_config(), PURPOSE_CLT, {})):
        st = _Study(dataclasses.replace(cfg, replicates=2))
        for k_index, k in enumerate(cfg.k_values):
            paths.clear()
            st.replicates(k_index, purpose, workers=1, **flags)
            pinned.append((k, paths[0]))
    assert pinned == [(100, "_simulate_loop"), (1000, "_simulate_blocks"),
                      (10000, "_simulate_blocks"), (1000, "_simulate_blocks"),
                      (10000, "_simulate_blocks")]
    # criterion 7's pure-splitting case (n0 = 100) and criterion 8 (three individuals)
    paths.clear()
    simulate(pure_splitting(1.0, 2), atoms(np.linspace(0.0, 1.0, 100)), k=100,
             horizon=1.0, dt_out=0.25, rng=stream(0), log_events=True, t_star=2.0)
    simulate(PURE_DEATH, atoms(np.zeros(3), t_star=1.0), k=1, horizon=1.0, dt_out=1.0,
             rng=stream(1), t_star=1.0)
    assert paths == ["_simulate_loop", "_simulate_loop"]
