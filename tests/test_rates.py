import math

import numpy as np
import pytest

from agestruct.branching import MartingaleLedger, Population, simulate
from agestruct.harness import replicate_stream
from agestruct.measures import AtomicMeasure, GridDensity, constant, exponential, pair
from agestruct.mvf import GridRates
from agestruct.rates import (AgeProfile, ConstantRate, DensityRate,
                             Kernel, KernelRate, ModelError, OffspringLaw, RateModel,
                             classical_model, pure_splitting)


def atoms(ages, weight=1.0, t_star=2.0):
    return AtomicMeasure(ages=np.asarray(ages, dtype=float), weight=weight, t_star=t_star)


def on_grid(rate, *densities):
    """The grid rates of a model whose death rate is ``rate``, on the grid of the
    first density, and the measure view of each density."""
    model = RateModel(ConstantRate(0.0), rate, OffspringLaw.deterministic(0),
                      OffspringLaw.deterministic(0), birth_sup=0.0, death_sup=1.0)
    grid = GridRates(model, densities[0].dx, densities[0].n_cells)
    return grid, [grid.at(d.values) for d in densities]


def directional(rate, xs, mu0, direction):
    """Frechet derivative of ``rate`` at mu0 in ``direction``, as the SPDE engine
    assembles it from ``frechet_terms``."""
    u, w3, kern = rate.frechet_terms(np.asarray(xs, dtype=float), mu0)
    out = u * direction.mass
    return out if w3 is None else out + w3 * direction.kernel_pair(kern, xs)


def compensator(model, f, ages, k, s1, closed_form):
    """The ledger's compensator of (f, M) over [0, s1] with no events, as
    ``simulate`` records it at an output time, from the branch it picks."""
    pop = Population(ages, k=k)
    ledger = MartingaleLedger([f], model, pop)
    assert ledger.closed_form is closed_form
    pop.t = s1
    ledger.record(pop)
    return float(ledger.comp_path[-1][0])


def test_density_dependent_empty_population():
    model = RateModel(ConstantRate(0.0),
                      DensityRate(1.0, 1.0),
                      OffspringLaw.deterministic(0), OffspringLaw.deterministic(2),
                      birth_sup=0.0, death_sup=5.0)
    assert model.death_rate(0.3, atoms([])) == pytest.approx(1.0)


def test_kernel_reciprocal_mass():
    # the population pairs at its one individual, aged 0.7 and then 1.4
    rate = KernelRate(Kernel("constant", c=1.0), c=1.0)
    pop = Population([0.7], k=1)
    assert rate.eval(0.7, pop) == pytest.approx(0.5)
    pop.t = 0.7
    assert rate.eval(1.4, pop) == pytest.approx(0.5)


def test_limit_rates_match_finite_k_for_builtins():
    model = pure_splitting(1.0, 2)
    mu = atoms([0.1, 0.9, 1.3])
    assert model.death_rate(0.4, mu, k=250) == model.death_rate(0.4, mu)
    assert model.birth_rate(0.4, mu, k=250) == model.birth_rate(0.4, mu)


def test_k_perturbation_hook():
    # declared bound must dominate the perturbed rate as well
    model = RateModel(
        ConstantRate(0.5), ConstantRate(1.0),
        OffspringLaw.deterministic(1), OffspringLaw.deterministic(0),
        birth_sup=0.6, death_sup=1.0,
        k_perturbation=lambda name, x, k:
            (0.1 / k) * np.ones_like(x) if name == "birth" else 0.0)
    mu = atoms([0.2])
    assert float(model.birth_rate(0.2, mu, k=100)) == pytest.approx(0.501)
    assert float(model.birth_rate(0.2, mu)) == pytest.approx(0.5)


def test_rate_model_rates_take_x_mu_k_by_position():
    # wrappers of the rates pass (x, mu, k) by position, as the candidate
    # counter of perfbench/probes.py does; k applies the K perturbation
    model = RateModel(ConstantRate(0.5), ConstantRate(1.0),
                      OffspringLaw.deterministic(1), OffspringLaw.deterministic(0),
                      birth_sup=0.6, death_sup=1.1,
                      k_perturbation=lambda name, x, k: 0.1 / k)
    mu = atoms([0.2])
    assert RateModel.birth_rate(model, 0.2, mu, 100) == pytest.approx(0.501)
    assert RateModel.death_rate(model, 0.2, mu, 100) == pytest.approx(1.001)
    assert RateModel.death_rate(model, 0.2, mu, None) == 1.0


def test_frechet_classical_zero():
    model = pure_splitting(1.0, 2)
    d = atoms([0.5], weight=0.3)
    assert directional(model.death, np.array([0.7]), atoms([0.1, 0.2]), d)[0] == 0.0


def test_frechet_density_dependent_value():
    # h(X) = X at |A0| = 2 in direction of mass 0.5 -> 0.5
    rate = DensityRate(0.0, 1.0)
    a0 = atoms([0.1, 0.2])
    direction = atoms([0.5], weight=0.5)
    assert directional(rate, np.array([1.1]), a0, direction)[0] == pytest.approx(0.5)


@pytest.mark.parametrize("rate", [
    DensityRate(0.5, 0.25),
    DensityRate(0.4, 0.3, age=AgeProfile("exp_decay", c=1.0, alpha=0.7)),
    KernelRate(Kernel("exp_decay", c=1.0, alpha=1.2), c0=0.3, cy=0.2, cz=0.4),
    KernelRate(Kernel("gaussian", c=1.0, sigma=0.5), c0=0.2, d1=0.6),
    KernelRate(Kernel("constant", c=1.0), c=1.0),
])
def test_frechet_matches_directional_finite_difference(rate):
    dx = 0.02
    a0 = GridDensity.from_function(lambda x: 0.5 + 0.3 * np.exp(-x), t_star=2.0, dx=dx)
    direction = GridDensity.from_function(lambda x: np.sin(2 * x), t_star=2.0, dx=dx,
                                          signed=True)
    eps = 1e-6
    bumped = GridDensity(dx=dx, values=a0.values + eps * direction.values, signed=True)
    grid, (a0, bumped, direction) = on_grid(rate, a0, bumped, direction)
    for xs in (grid.centers, grid.edges):
        fd = (rate.eval(xs, bumped) - rate.eval(xs, a0)) / eps
        an = directional(rate, xs, a0, direction)
        scale = np.maximum(np.abs(an), 1e-6)
        assert np.max(np.abs(an - fd) / scale) < 1e-4


def test_frechet_linear_in_direction():
    rate = KernelRate(Kernel("exp_decay", alpha=0.9), c0=0.2, cy=0.3, cz=0.1)
    a0 = GridDensity.from_function(lambda x: np.exp(-0.5 * x), t_star=2.0, dx=0.05)
    d1 = GridDensity.from_function(lambda x: np.cos(x), t_star=2.0, dx=0.05, signed=True)
    d2 = GridDensity.from_function(lambda x: x - 1.0, t_star=2.0, dx=0.05, signed=True)
    combo = GridDensity(dx=0.05, values=1.7 * d1.values - 0.4 * d2.values, signed=True)
    grid, (a0, d1, d2, combo) = on_grid(rate, a0, d1, d2, combo)
    for xs in (grid.centers, grid.edges):
        lhs = directional(rate, xs, a0, combo)
        rhs = 1.7 * directional(rate, xs, a0, d1) - 0.4 * directional(rate, xs, a0, d2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


# The generator is Lf = f' - death * f + f(0) * newborn.  Between events the
# transport part f' is carried by the ages themselves; the martingale
# ledger's compensator integrates the rest, f(0) * newborn - death * f.

def test_generator_constant_function():
    # L1 = newborn - death = 2 - 1 per individual
    model = pure_splitting(1.0, 2)
    assert compensator(model, constant(), [0.1, 1.5], 1, 0.5, True) == pytest.approx(1.0)


def test_generator_pure_transport():
    model = classical_model(0.0, 0.0, OffspringLaw.deterministic(0),
                            OffspringLaw.deterministic(0))
    f = exponential(0.8)
    traj = simulate(model, atoms([0.4]), k=1, horizon=1.5, dt_out=0.25,
                    rng=replicate_stream(3, 9, 0, 0), panel=[f], with_ledger=True,
                    t_star=2.0)
    # f(0) != 0 but newborn intensity vanishes, so only the derivative remains:
    # (f, A_t) = (f, A_0) + int_0^t (f', A_s) ds = f(0.4 + t)
    assert np.all(traj.ledger.martingales() == 0.0)
    for t, snap in zip(traj.times, traj.snapshots):
        assert pair(f, snap) == pytest.approx(float(f(np.array(0.4 + t))), rel=1e-14)


def test_generator_exponential_closed_form():
    # one individual aged 0.4 + s: f(0) * 2 - 1 * e^(lam (0.4 + s)), integrated
    model = pure_splitting(1.0, 2)
    lam, s1 = 0.7, 1.1
    exact = 2.0 * s1 - (math.exp(lam * (0.4 + s1)) - math.exp(lam * 0.4)) / lam
    assert compensator(model, exponential(lam), [0.4], 1, s1, True) == pytest.approx(
        exact, rel=1e-10)


def test_generator_mass_growth_identity():
    rate = DensityRate(0.3, 0.2)
    model = RateModel(ConstantRate(0.4), rate,
                      OffspringLaw.deterministic(1), OffspringLaw.deterministic(2),
                      birth_sup=0.4, death_sup=2.0)
    ages = np.array([0.2, 0.9, 1.4])
    pop = Population(ages, k=2)
    h = model.death_rate(ages, pop)
    newborn = model.birth_rate(ages, pop) * 1.0 + h * 2.0
    assert compensator(model, constant(), ages, 2, 0.5, False) == pytest.approx(
        0.5 * float(np.sum(newborn - h)), rel=1e-12)


def test_offspring_deterministic():
    law = OffspringLaw.deterministic(2)
    rng = np.random.default_rng(0)
    assert all(law.sample(rng.random, rng) == 2 for _ in range(10))


@pytest.mark.parametrize("law", [
    OffspringLaw.poisson(2.0),
    OffspringLaw.two_point(0.5, 0, 4),
    OffspringLaw.deterministic(3),
])
def test_offspring_moments_match(law):
    rng = np.random.default_rng(42)
    n = 10 ** 6
    s = np.array([law.sample(rng.random, rng) for _ in range(n)], dtype=float)
    se_mean = s.std() / math.sqrt(n)
    assert abs(s.mean() - law.mean) <= 3 * se_mean + 1e-12
    sq = s ** 2
    se_m2 = sq.std() / math.sqrt(n)
    assert abs(sq.mean() - law.second_moment) <= 3 * se_m2 + 1e-12
    assert law.second_moment - law.mean ** 2 >= 0.0
    assert s.max() <= law.cap


@pytest.mark.parametrize("make, field, shown", [
    (lambda: OffspringLaw.deterministic(-1), "k", "-1"),
    (lambda: OffspringLaw.two_point(0.5, -1, 2), "k1", "-1"),
    (lambda: OffspringLaw.two_point(0.5, 0, -2), "k2", "-2"),
    (lambda: OffspringLaw.poisson(1.0, cap=-3), "cap", "-3"),
], ids=["deterministic", "two_point_k1", "two_point_k2", "poisson_cap"])
def test_offspring_law_rejects_negative_broods(make, field, shown):
    # deterministic(-1) once had cap and mean -1 and failed inside np.repeat
    with pytest.raises(ValueError, match=rf"^OffspringLaw {field} must be >= 0; got {shown}$"):
        make()


@pytest.mark.parametrize("make, field, shown", [
    (lambda: OffspringLaw(kind="binomial"), "kind",
     "be one of deterministic, poisson, two_point; got 'binomial'"),
    (lambda: OffspringLaw(kind="poisson", rate=-1.0), "rate", "be finite and >= 0; got -1.0"),
    (lambda: OffspringLaw(kind="poisson", rate=math.nan), "rate", "be finite and >= 0; got nan"),
    (lambda: OffspringLaw.poisson(math.nan), "rate", "be finite and >= 0; got nan"),
    (lambda: OffspringLaw(kind="two_point", p=1.5), "p", r"be in \[0, 1\]; got 1\.5"),
], ids=["kind", "rate_negative", "rate_nan", "poisson_nan_mean", "p_above_one"])
def test_offspring_law_rejects_a_bad_field_by_name(make, field, shown):
    # a NaN Poisson mean once failed as "cannot convert float NaN to integer",
    # and a binomial kind or a p of 1.5 built a law
    with pytest.raises(ValueError, match=rf"^OffspringLaw {field} must {shown}$"):
        make()


def test_offspring_law_derives_its_cap():
    # built field by field, a Poisson law once kept cap 0 and drew only zeros
    law = OffspringLaw(kind="poisson", rate=2.0)
    assert law.cap == 35 == OffspringLaw.poisson(2.0).cap
    assert law.samples(np.random.default_rng(1), 100).any()
    assert OffspringLaw(kind="two_point", k1=3, k2=1).cap == 3
    assert OffspringLaw(kind="deterministic", k=4).cap == 4


def test_two_point_hand_moments():
    law = OffspringLaw.two_point(0.5, 0, 4)
    assert law.mean == pytest.approx(2.0)
    assert law.second_moment == pytest.approx(8.0)


def raises_in_simulate(model, n0):
    # k = 1, so the rates see the raw population size n0 as the total mass
    with pytest.raises(ModelError):
        simulate(model, atoms(np.linspace(0.1, 0.5, n0)), k=1, horizon=10.0,
                 dt_out=10.0, rng=replicate_stream(4, 9, 0, n0), t_star=11.0)


def test_rate_bound_violation_raises():
    model = RateModel(ConstantRate(0.0),
                      DensityRate(1.0, 1.0),
                      OffspringLaw.deterministic(0), OffspringLaw.deterministic(2),
                      birth_sup=0.0, death_sup=1.5)
    raises_in_simulate(model, 2)  # h = 3 > 1.5


def test_negative_rate_raises():
    model = RateModel(ConstantRate(0.0),
                      DensityRate(0.5, -1.0),
                      OffspringLaw.deterministic(0), OffspringLaw.deterministic(2),
                      birth_sup=0.0, death_sup=1.0)
    raises_in_simulate(model, 3)  # h = -2.5


def test_limit_rate_depends_only_on_pairings():
    # measures with identical mass give identical density-family rates,
    # whatever their representation: the event simulator's population or a
    # grid frame
    rate = DensityRate(0.5, 0.25)
    kern = KernelRate(Kernel("constant", c=2.0), c0=0.1, cy=0.2, cz=0.3)
    # (a constant kernel: the same at every age), each view at its own ages
    m = Population([0.2, 0.9, 1.4], k=2)
    grid, (g,) = on_grid(kern, GridDensity(dx=0.75, values=np.array([1.0, 1.0])))
    x = grid.centers
    assert m.mass == pytest.approx(g.mass)
    assert rate.eval(x, m) == pytest.approx(rate.eval(x, g), rel=1e-14)
    on_grid_value = kern.eval(x, g)
    assert on_grid_value == pytest.approx(np.full(2, on_grid_value[0]), rel=1e-14)
    assert kern.eval(m.ages, m) == pytest.approx(np.full(3, on_grid_value[0]), rel=1e-14)
    assert kern.eval(0.9, m) == pytest.approx(on_grid_value[0], rel=1e-14)


def test_grid_view_pairs_kernels_only_at_its_own_ages():
    kern = KernelRate(Kernel("exp_decay", alpha=1.0), c0=0.1, cy=0.2, cz=0.3)
    grid, (g,) = on_grid(kern, GridDensity(dx=0.5, values=np.array([1.0, 0.5, 0.25, 0.0])))
    with pytest.raises(ValueError, match="centers or edges"):
        kern.eval(grid.centers.copy(), g)


@pytest.mark.parametrize("cls", [Kernel, AgeProfile])
@pytest.mark.parametrize("fields, field, shown", [
    ({"kind": "foo"}, "kind", "'foo'"),
    ({"kind": "exp_decay", "alpha": -3.0}, "alpha", "-3.0"),
    ({"kind": "exp_decay", "alpha": math.inf}, "alpha", "inf"),
    ({"kind": "exp_decay", "alpha": math.nan}, "alpha", "nan"),
    ({"kind": "gaussian", "sigma": 0.0}, "sigma", "0.0"),
    ({"kind": "gaussian", "sigma": -0.5}, "sigma", "-0.5"),
    ({"kind": "constant", "c": math.inf}, "c", "inf"),
    ({"kind": "constant", "c": math.nan}, "c", "nan"),
], ids=["kind", "alpha_negative", "alpha_inf", "alpha_nan", "sigma_zero", "sigma_negative",
        "c_inf", "c_nan"])
def test_kernel_and_age_profile_reject_bad_fields(cls, fields, field, shown):
    with pytest.raises(ValueError, match=rf"{cls.__name__} {field} .*got {shown}$"):
        cls(**fields)


@pytest.mark.parametrize("center", [math.nan, math.inf])
def test_age_profile_rejects_a_non_finite_center(center):
    # a NaN center once loaded and evaluated to NaN at every age
    with pytest.raises(ValueError, match=rf"^AgeProfile center must be finite; got {center}$"):
        AgeProfile("gaussian", center=center)


@pytest.mark.parametrize("sups, field, shown", [
    ({"birth_sup": -3.0}, "birth_sup", "-3.0"),
    ({"death_sup": math.nan}, "death_sup", "nan"),
    ({"death_sup": math.inf}, "death_sup", "inf"),
], ids=["birth_sup_negative", "death_sup_nan", "death_sup_inf"])
def test_rate_model_rejects_bad_thinning_bounds(sups, field, shown):
    # a negative bound once ran no candidate, and a NaN one ran until t was NaN
    sups = {"birth_sup": 0.0, "death_sup": 1.0, **sups}
    with pytest.raises(ValueError, match=rf"RateModel {field} .*got {shown}$"):
        RateModel(ConstantRate(0.0), ConstantRate(1.0),
                  OffspringLaw.deterministic(0), OffspringLaw.deterministic(0), **sups)


def test_rate_model_rejects_a_bound_below_its_constant_rate():
    # death rate 2 under a bound of 0.5 once ran as death rate 0.5
    with pytest.raises(ValueError, match=r"RateModel death_sup 0\.5 is below its constant "
                                         r"rate 2\.0$"):
        RateModel(ConstantRate(0.0), ConstantRate(2.0),
                  OffspringLaw.deterministic(0), OffspringLaw.deterministic(0),
                  birth_sup=0.0, death_sup=0.5)


# each named phi form of a kernel rate, as KernelRate once computed it form by form:
# (its coefficients under their config names, phi, phi_y, phi_z)
PHI_FORMS = {
    "affine": ({"c0": 0.2, "cy": 0.3, "cz": -0.5},
               lambda p, y, z: p["c0"] + p["cy"] * y + p["cz"] * z,
               lambda p, y, z: p["cy"] * np.ones_like(z),
               lambda p, y, z: p["cz"] * np.ones_like(z)),
    "special": ({"d0": 0.4, "d1": -0.8},
                lambda p, y, z: p["d0"] + p["d1"] * z / (1.0 + y),
                lambda p, y, z: -p["d1"] * z / (1.0 + y) ** 2,
                lambda p, y, z: p["d1"] / (1.0 + y) * np.ones_like(z)),
    "inv1p": ({"c": 1.5},
              lambda p, y, z: p["c"] / (1.0 + y),
              lambda p, y, z: -p["c"] / (1.0 + y) ** 2 * np.ones_like(z),
              lambda p, y, z: np.zeros_like(z)),
}


def form_bounds(form, rate, n, k, sup):
    """``bounds`` as KernelRate once computed it for a ``form`` rate."""
    p, phi = PHI_FORMS[form][:2]
    q = dict(dict.fromkeys(("c0", "cy", "cz", "d0", "d1", "c"), 0.0), **p)
    y = n / k
    z = rate.kernel.c * y
    lo = phi(p, y, z)
    hi = lo if rate.kernel.kind == "constant" else phi(p, y, rate.kernel.c / k)
    tol = 1e-7 * (abs(q["c0"]) + abs(q["cy"]) * y + abs(q["d0"]) + abs(q["c"]) / (1.0 + y)
                  + (abs(q["cz"]) + abs(q["d1"]) / (1.0 + y)) * abs(z))
    lo, hi = min(lo, hi) - tol, max(lo, hi) + tol
    c = 1.0 if rate.age is None else rate.age.c      # None: no age factor
    return min(sup, max(0.0, c * lo, c * hi)), lo, hi


@pytest.mark.parametrize("form", PHI_FORMS)
def test_kernel_rate_formula_is_each_named_form_bit_for_bit(form):
    p, *formulas = PHI_FORMS[form]
    stack = np.random.default_rng(3).uniform(-1.0, 2.0, (4, 6))     # frames x cells
    cases = [(0.7, 0.3), (2.5, -0.4), (0.0, 0.0),
             (np.array([[0.5], [1.0], [2.0], [3.5]]), stack), (1.2, stack)]
    for kernel in (Kernel("exp_decay", alpha=0.9), Kernel("constant", c=0.5),
                   Kernel("gaussian", c=1.3, sigma=0.4)):
        for age in (None, AgeProfile("exp_decay", c=-1.0, alpha=0.5)):
            rate = KernelRate(kernel, age=age, **{("c0" if key == "d0" else key): v
                                                  for key, v in p.items()})
            for y, z in cases:
                for got, want in zip((rate._phi, rate._phi_y, rate._phi_z), formulas):
                    v = got(y, z)
                    assert np.shape(v) == np.broadcast_shapes(np.shape(y), np.shape(z))
                    assert np.all(v == want(p, y, z)), (form, got.__name__, y, z)
            for n, k, sup in ((0, 10, 4.0), (3, 10, 4.0), (40, 10, 0.5), (7, 1, 100.0)):
                assert rate.bounds(n, k, sup) == form_bounds(form, rate, n, k, sup)
