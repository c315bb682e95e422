import math

import numpy as np
import pytest

from scipy.integrate import quad

from agestruct import mvf, spde
from agestruct.acceptance import clt_config, lln_config
from agestruct.harness import build_initial
from agestruct.measures import GridDensity, constant, exponential, make_panel, pair
from agestruct.mvf import (GridRates, QuadratureError, classical_exact, classical_pairing,
                           logistic_exact, quad_gk21, solve_mvf, solve_total_ode)
from agestruct.rates import (AgeProfile, ConstantRate, DensityRate, Kernel, KernelRate,
                             ModelError, OffspringLaw, RateModel, classical_model,
                             pure_splitting)

SPLIT = pure_splitting(1.0, 2)            # death 1, brood 2: newborn rate 2
TRANSPORT = classical_model(0.0, 0.0, OffspringLaw.deterministic(0),
                            OffspringLaw.deterministic(0))


def box(dx, t_star=1.5):
    return GridDensity.from_function(lambda x: np.where(x < 1.0, 1.0, 0.0),
                                     t_star=t_star, dx=dx)


def test_transport_is_exact_shift():
    dt = 2e-3
    a0 = box(dt)
    sol = solve_mvf(TRANSPORT, a0, 0.5)
    m = int(round(0.5 / dt))
    assert np.max(np.abs(sol.values[-1][m:] - a0.values[:-m])) <= 1e-12
    assert np.max(np.abs(sol.values[-1][:m])) == 0.0


def test_classical_exact_at_zero_time():
    a0 = box(1e-2)
    out = classical_exact(a0, 0.0, 1.0, 2.0, 0.0, 0.0)
    assert np.array_equal(out.values, a0.values)


def test_classical_exact_paper_values():
    dx = 1e-3
    a0 = box(dx)
    out = classical_exact(a0, 0.0, 1.0, 2.0, 0.0, 0.5)
    c = out.centers
    # renewal branch near x = 0.25: 2 * exp((n-h)(t-x)) * exp(-h x) = 2 at x=0.25
    j = np.argmin(np.abs(c - 0.25))
    assert out.values[j] == pytest.approx(2.0, abs=5 * dx)
    # survivor branch at x = 0.75: exp(-h t) exactly (flat initial profile)
    j = np.argmin(np.abs(c - 0.75))
    assert out.values[j] == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_solve_mvf_matches_renewal_value():
    dt = 1e-3
    sol = solve_mvf(SPLIT, box(dt), 0.5)
    c = sol.centers
    j = np.argmin(np.abs(c - 0.25))
    assert sol.values[-1][j] == pytest.approx(2.0, abs=0.02)


def test_solve_mvf_total_mass_exponential():
    dt = 1e-3
    a0 = box(dt, t_star=2.0)
    sol = solve_mvf(SPLIT, a0, 1.0)
    assert sol.totals[-1] == pytest.approx(math.e, abs=5e-3)
    assert sol.values.min() >= 0.0


def test_solve_mvf_first_order():
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        sol = solve_mvf(SPLIT, box(dt), 0.5)
        ref = classical_exact(box(dt), 0.0, 1.0, 2.0, 0.0, 0.5)
        errs.append(float(np.max(np.abs(sol.values[-1] - ref.values))))
    assert 1.6 <= errs[0] / errs[1] <= 2.4
    assert 1.6 <= errs[1] / errs[2] <= 2.4


def test_solve_mvf_mass_identity_per_step():
    dt = 2e-3
    sol = solve_mvf(SPLIT, box(dt), 0.5)
    # discrete mass growth tracks ((newborn - death), frame) to O(dt) per step
    for k in (10, 100, 200):
        rate = (2.0 - 1.0) * sol.totals[k]
        increment = (sol.totals[k + 1] - sol.totals[k]) / dt
        assert abs(increment - rate) <= 10 * dt * max(rate, 1.0)


def test_solve_mvf_rejects_bad_grid():
    a0 = box(2e-3)
    with pytest.raises(ValueError):
        solve_mvf(SPLIT, a0, 2.0)                # no room for transport


def test_solve_mvf_negative_density_is_a_model_error():
    # a negative birth rate (outside the model contract) drives the newborn
    # flux below zero in the first step
    model = RateModel(DensityRate(-1.0),
                      ConstantRate(0.5), OffspringLaw.deterministic(1),
                      OffspringLaw.deterministic(0), birth_sup=1.0, death_sup=0.5)
    with pytest.raises(ModelError, match=r"negative density -0\.99\d* at step 1 "):
        solve_mvf(model, box(2e-3), 0.5)


def stepped_constant_rates(model, a0, horizon, dt):
    """The limit scheme for constant rates stepped frame by frame: shift, decay by
    d = exp(-dt h), and a predictor-corrector boundary flux dt n (1, frame)."""
    h = model.death.value
    n = model.birth.value * model.life_law.mean + h * model.split_law.mean
    d = math.exp(-dt * h)
    frames = [np.array(a0.values)]
    for _ in range(int(round(horizon / dt))):
        v = frames[-1]
        new = np.empty_like(v)
        new[1:] = v[:-1] * d
        new[0] = dt * n * v.sum()
        new[0] = dt * 0.5 * (n * v.sum() + n * new.sum())
        frames.append(new)
    return np.array(frames)


# h * horizon = 800 > 745: d^k underflows, and the last frames with it
STEEP = classical_model(1.0, 800.0, OffspringLaw.deterministic(1), OffspringLaw.deterministic(0))


@pytest.mark.parametrize("model", [SPLIT, classical_model(
    0.5, 0.8, OffspringLaw.two_point(0.5, 0, 2), OffspringLaw.poisson(1.2)), STEEP],
    ids=["split", "mixed", "steep_death"])
def test_constant_rate_frames_match_the_stepped_scheme(model):
    dt = 2e-3
    a0 = GridDensity.from_function(lambda x: np.where(x < 1.0, 1.0 + np.cos(5.0 * x), 0.0),
                                   t_star=2.0, dx=dt)
    got = solve_mvf(model, a0, 1.0).values
    want = stepped_constant_rates(model, a0, 1.0, dt)
    assert np.all(np.isfinite(got)) and got.min() >= 0.0
    # frame by frame; a frame decayed into the subnormals is compared absolutely
    scale = np.maximum(np.abs(want).max(axis=1), 1e-300)
    assert np.all(np.abs(got - want).max(axis=1) <= 1e-13 * scale)
    if model is STEEP:
        assert got[-1].max() < 1e-300 < got[0].max()


def test_transport_frames_are_the_stepped_shifts_exactly():
    dt = 4e-3
    a0 = box(dt, t_star=2.0)
    got = solve_mvf(TRANSPORT, a0, 0.5).values
    assert np.array_equal(got, stepped_constant_rates(TRANSPORT, a0, 0.5, dt))


def test_constant_rate_negative_density_is_a_model_error():
    # a start cell below zero, within GridDensity's tolerance, decays below -1e-12
    a0 = box(2e-3)
    a0.values[3] = -5e-10
    with pytest.raises(ModelError, match=r"negative density -4\.99\d*e-10 at step 1 "
                                         r"\(t = 0\.002\)"):
        solve_mvf(SPLIT, a0, 0.5)


def test_classical_pairing_cross_validates_grid():
    dx = 1e-3
    a0 = box(dx, t_star=2.0)
    exact_vals = classical_exact(a0, 0.0, 1.0, 2.0, 0.0, 1.0)
    for f in (constant(), exponential(0.5)):
        quad_val = classical_pairing(f, a0, 0.0, 1.0, 2.0, 0.0, 1.0)
        grid_val = pair(f, exact_vals)
        assert quad_val == pytest.approx(grid_val, rel=2e-5)
    assert classical_pairing(constant(), a0, 0.0, 1.0, 2.0, 0.0, 1.0) \
        == pytest.approx(math.e, rel=1e-10)


def _quad_calls(monkeypatch, module, call):
    """(integrand, a, b, tolerances) of each quad_gk21 call ``call()`` makes in ``module``."""
    seen = []

    def record(fn, a, b, **tols):
        seen.append((fn, a, b, tols))
        return quad_gk21(fn, a, b, **tols)

    monkeypatch.setattr(module, "quad_gk21", record)
    call()
    assert seen
    return seen


def _assert_matches_scipy(seen):
    for fn, a, b, tols in seen:
        ref, _ = quad(fn, a, b, limit=200, **tols)
        assert quad_gk21(fn, a, b, **tols) == pytest.approx(ref, rel=1e-12, abs=0.0)


def _study_initial(cfg):
    return build_initial(cfg, max(cfg.k_values))


@pytest.mark.parametrize("t", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("spec", ["1", "x", "x^2", "exp:0.5", "exp:-1", "bump"])
def test_gk21_matches_scipy_on_renewal_integrands(monkeypatch, spec, t):
    # the renewal integral of the acceptance LLN study (atom base, pure splitting)
    cfg = lln_config()
    init, model = _study_initial(cfg), cfg.build_model()
    (f,) = make_panel([spec], t_star=init.atoms.t_star)
    seen = _quad_calls(monkeypatch, mvf, lambda: classical_pairing(
        f, init.z0.minus, model.birth.value, model.death.value, model.split_law.mean,
        model.life_law.mean, t))
    _assert_matches_scipy(seen)


@pytest.mark.parametrize("lam", [0.0, 0.5, -1.0])
def test_gk21_matches_scipy_on_ito_isometry_integrand(monkeypatch, lam):
    # the oracle of the acceptance CLT study, on its own start grid
    cfg = clt_config()
    base, model = _study_initial(cfg).z0.minus, cfg.build_model()
    seen = _quad_calls(monkeypatch, spde, lambda: spde.ito_isometry_variance(
        lam, base, model.birth.value, model.death.value, model.life_law,
        model.split_law, cfg.horizon))
    _assert_matches_scipy(seen)


def test_gk21_raises_when_it_cannot_converge(monkeypatch):
    with pytest.raises(QuadratureError, match="within 200 subintervals"):
        quad_gk21(lambda x: 1.0 / x, 0.0, 1.0, epsabs=1e-12, epsrel=1e-11)
    monkeypatch.setattr(mvf, "_GK21_LIMIT", 5)
    with pytest.raises(QuadratureError, match="within 5 subintervals"):
        quad_gk21(lambda x: np.sin(1e4 * x), 0.0, 1.0, epsabs=1e-12, epsrel=1e-11)


LOGISTIC = RateModel(ConstantRate(0.0),
                     DensityRate(1.0, -1.0),
                     OffspringLaw.deterministic(0), OffspringLaw.deterministic(2),
                     birth_sup=0.0, death_sup=1.0)


def test_total_ode_constant_growth():
    _, xs = solve_total_ode(SPLIT, 1.0, 1.0, 1e-3)
    assert xs[-1] == pytest.approx(math.e, abs=1e-8)


def test_total_ode_critical_is_constant():
    crit = pure_splitting(1.0, 1)  # newborn = death
    _, xs = solve_total_ode(crit, 0.7, 2.0, 0.01)
    assert np.allclose(xs, 0.7, atol=1e-14)


def test_total_ode_logistic():
    _, xs = solve_total_ode(LOGISTIC, 0.5, 1.0, 1e-3)
    assert xs[-1] == pytest.approx(float(logistic_exact(0.5, 1.0)), abs=1e-8)


@pytest.mark.parametrize("rate", [
    DensityRate(0.5, 0.3, age=AgeProfile("exp_decay", alpha=0.5)),
    KernelRate(Kernel("constant"), c0=0.5, cy=0.3),
], ids=["age_density", "kernel_linear"])
def test_total_mass_dynamics_refuse_an_age_or_kernel_rate(rate):
    # the total mass alone does not fix an aged or a kernel rate
    model = RateModel(ConstantRate(0.4), rate, OffspringLaw.deterministic(1),
                      OffspringLaw.deterministic(2), birth_sup=0.4, death_sup=4.0)
    with pytest.raises(ValueError, match="total-mass dynamics need density-dependent"):
        solve_total_ode(model, 1.0, 1.0, 0.1)


def test_total_ode_fourth_order():
    errs = []
    for dt in (0.2, 0.1, 0.05):
        _, xs = solve_total_ode(LOGISTIC, 0.5, 1.0, dt)
        errs.append(abs(xs[-1] - float(logistic_exact(0.5, 1.0))))
    assert 12.0 <= errs[0] / errs[1] <= 20.0
    assert 12.0 <= errs[1] / errs[2] <= 20.0


def test_density_dependent_grid_matches_total_ode():
    dt = 2e-3
    a0 = GridDensity.from_function(lambda x: np.where(x < 1.0, 0.5, 0.0),
                                   t_star=2.0, dx=dt)
    sol = solve_mvf(LOGISTIC, a0, 1.0)
    _, xs = solve_total_ode(LOGISTIC, 0.5, 1.0, dt)
    # both first-order paths of the same mass dynamics
    assert np.max(np.abs(sol.totals - xs)) <= 5 * dt * 0.5 * 1.0 + 1e-6


def test_state_dependent_scheme_is_first_order():
    # the stepping loop, which no constant-rate model runs, against the logistic mass
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        a0 = GridDensity.from_function(lambda x: np.where(x < 1.0, 0.5, 0.0),
                                       t_star=2.0, dx=dt)
        sol = solve_mvf(LOGISTIC, a0, 1.0)
        errs.append(float(np.max(np.abs(sol.totals - logistic_exact(0.5, sol.times)))))
    assert 1.8 <= errs[0] / errs[1] <= 2.2
    assert 1.8 <= errs[1] / errs[2] <= 2.2


def test_limit_solution_frame_accessors():
    dt = 1e-2
    sol = solve_mvf(SPLIT, box(dt), 0.5)
    assert sol.index_at(0.25) == 25
    for t in (0.2501, -0.01, 0.51, math.nan):      # off the grid, before, past, no time
        with pytest.raises(ValueError, match="is not a time of this solution"):
            sol.index_at(t)
    frame = sol.frame_at(0.5)
    assert frame.mass == pytest.approx(sol.totals[-1])


def kernel_grid(kern, n_cells, dx):
    model = RateModel(ConstantRate(1.0),
                      KernelRate(kern, c0=0.2, cy=0.3, cz=0.5),
                      OffspringLaw.deterministic(1), OffspringLaw.deterministic(0),
                      birth_sup=1.0, death_sup=4.0)
    return GridRates(model, dx, n_cells)


def check_pairing_against_dense(grid, kern, frames):
    """Every width and row of ``grid.pair`` against dx * g(x_i, y_j) @ v, and
    each frame alone against the stack, bit for bit."""
    n_cells = frames.shape[1]
    for edges in (False, True):
        xs = grid.edges if edges else grid.centers
        dense = grid.dx * kern(xs[:, None], grid.centers)
        for w in (n_cells, n_cells // 2 + 1, 7):
            got = grid.pair(kern, frames[:, :w], edges)
            assert got.shape == (len(frames), w) and np.all(np.isfinite(got))
            for frame, row in zip(frames, got):
                want = dense[:w, :w] @ frame[:w]
                assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want))
                assert row.tobytes() == grid.pair(kern, frame[:w], edges).tobytes()
    # a measure view pairs at the centers and the edges, in either order and
    # again, with the same bits as a fresh pairing
    for order in ((grid.centers, grid.edges), (grid.edges, grid.centers)):
        mu = grid.at(frames)
        for xs in order + order:
            want = grid.pair(kern, frames, xs is grid.edges)
            assert mu.kernel_pair(kern, xs).tobytes() == want.tobytes()


@pytest.mark.parametrize("n_cells", [400, 2000, 4000])
@pytest.mark.parametrize("kern", [Kernel("exp_decay", alpha=1.0),
                                  Kernel("exp_decay", c=0.7, alpha=30.0),
                                  Kernel("constant", c=0.5)], ids=["exp1", "exp30", "const"])
def test_grid_pairing_matches_the_dense_product(kern, n_cells):
    # exp_decay by prefix sums and constant by the mass, no J x J matrix;
    # positive and signed frames, at the widths the engine and adjoint use
    grid = kernel_grid(kern, n_cells, 2.0 / n_cells)
    assert not grid._matrices and (kern in grid._factors) == (kern.kind == "exp_decay")
    rng = np.random.default_rng(n_cells)
    check_pairing_against_dense(grid, kern, np.stack([rng.random(n_cells),
                                                      rng.random(n_cells) - 0.5]))


def test_exp_decay_grid_factors_beyond_the_float_range_keep_the_matrix():
    # alpha * J * dx = 1198 pairs by prefix sums with factors up to e^599,
    # finite and as the dense product; 1202 would need factors beyond e^600
    # and keeps its dense matrices
    n_cells, dx = 400, 5e-3
    rng = np.random.default_rng(5)
    frames = np.stack([rng.random(n_cells), rng.random(n_cells) - 0.5])
    for alpha, prefix_sums in ((599.0, True), (601.0, False)):
        kern = Kernel("exp_decay", alpha=alpha)
        grid = kernel_grid(kern, n_cells, dx)
        assert (kern in grid._factors) == prefix_sums and (kern in grid._matrices) != prefix_sums
        with np.errstate(over="raise", invalid="raise"):
            check_pairing_against_dense(grid, kern, frames)


def test_a_state_view_forms_each_prefix_sum_once(monkeypatch):
    # per step the solver reads its rows against the state and the predictor:
    # one view each, whose center and edge pairings share two cumsums
    calls, cumsum = [], np.cumsum
    monkeypatch.setattr(mvf.np, "cumsum", lambda *a, **kw: calls.append(1) or cumsum(*a, **kw))
    kern = Kernel("exp_decay", alpha=1.0)
    dx = 0.02
    solve_mvf(kernel_grid(kern, 100, dx).model, box(dx, t_star=2.0), 0.5)
    assert len(calls) == 2 * 2 * 25
