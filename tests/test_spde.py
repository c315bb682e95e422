import dataclasses
import hashlib
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from agestruct import spde
from agestruct.acceptance import clt_config
from agestruct.harness import model_from_config, replicate_stream, spde_noise_stream
from agestruct.measures import (DomainError, GridDensity, constant, exponential, make_panel,
                                monomial, pair)
from agestruct.mvf import (GridRates, LimitSolution, _renewal_frames, classical_exact,
                           solve_mvf, solve_total_ode)
from agestruct.rates import (AgeProfile, ConstantRate, DensityRate,
                             Kernel, KernelRate, OffspringLaw, RateModel,
                             classical_model, pure_splitting)
from agestruct.spde import (_Coeffs, _engine_step, _width, classical_exp_mean,
                            classical_qv_mass, covariation_integral_frames,
                            density_dependent_exp_mean, evolve_mean, exp_pairing_grid,
                            fluctuation_law, ito_isometry_variance,
                            remark_covariance_grid, simulate_fluctuation_paths)
from agestruct.stats import jarque_bera, se_of_variance

SPLIT = pure_splitting(1.0, 2)
MIXED = RateModel(ConstantRate(0.5), ConstantRate(0.8),
                  OffspringLaw.two_point(0.5, 0, 2), OffspringLaw.poisson(1.2),
                  birth_sup=0.5, death_sup=0.8)
# no deaths: the adjoint decays by exp(-dt h) = 1 and the cells carry no noise
BIRTH = classical_model(0.7, 0.0, OffspringLaw.poisson(1.3), OffspringLaw.deterministic(0))

KERNEL = RateModel(ConstantRate(1.0),
                   KernelRate(Kernel("exp_decay", alpha=1.0), c0=0.2, cy=0.3, cz=0.5),
                   OffspringLaw.two_point(0.5, 0, 2), OffspringLaw.poisson(0.5),
                   birth_sup=1.0, death_sup=4.0)

DENS = RateModel(ConstantRate(0.4),
                 DensityRate(0.5, 0.3),
                 OffspringLaw.deterministic(1), OffspringLaw.deterministic(2),
                 birth_sup=0.4, death_sup=2.0)

AGE = RateModel(DensityRate(1.0, -0.2,
                            age=AgeProfile("gaussian", c=0.5, center=0.5, sigma=0.3)),
                DensityRate(0.5, 0.3,
                            age=AgeProfile("exp_decay", c=1.0, alpha=0.5)),
                OffspringLaw.two_point(0.5, 0, 2), OffspringLaw.deterministic(2),
                birth_sup=0.5, death_sup=2.0)

# a Gaussian kernel, shared by both rates, keeps the grid's dense kernel matrices
GAUSS_KERNEL = Kernel("gaussian", sigma=0.4)
GAUSS = RateModel(KernelRate(GAUSS_KERNEL, c0=0.5, d1=0.5),
                  KernelRate(GAUSS_KERNEL, c0=0.2, cy=0.3, cz=0.5),
                  OffspringLaw.two_point(0.5, 0, 2), OffspringLaw.poisson(0.5),
                  birth_sup=1.0, death_sup=4.0)

# one model per engine branch: classical (two laws), density, age-density,
# kernel paired by prefix sums and by its dense matrix
LAW_MODELS = [SPLIT, MIXED, DENS, AGE, KERNEL, GAUSS]
LAW_IDS = ["split", "mixed", "density", "age_density", "kernel", "gaussian_kernel"]


def twin(model):
    """``model`` with its constant death rate as a zero-slope density family:
    the same coefficients, on the generic adjoint sweep."""
    return dataclasses.replace(model, death=DensityRate(model.death.value, 0.0))


def box(dx, t_star=2.0, mass_to=1.0):
    return GridDensity.from_function(lambda x: np.where(x < mass_to, 1.0, 0.0),
                                     t_star=t_star, dx=dx)


def background(model, dx=4e-3, horizon=1.0, t_star=2.0):
    return solve_mvf(model, box(dx, t_star), horizon)


def test_zero_rates_zero_noise_field_stays_zero():
    model = classical_model(0.0, 0.0, OffspringLaw.deterministic(0),
                            OffspringLaw.deterministic(0))
    bg = background(model, dx=0.01)
    z0 = np.zeros(bg.values.shape[1])
    samples = simulate_fluctuation_paths(
        model, bg, z0, 16, make_panel(t_star=2.0), [0.5, 1.0],
        lambda b: spde_noise_stream(1, b), block_size=8)
    assert np.all(samples == 0.0)


@pytest.mark.parametrize("model", LAW_MODELS, ids=LAW_IDS)
def test_noise_covariance_identity(model):
    # one step's law from a frame, started at zero, is that step's noise
    # covariance; the grid leaves every frame, the last included, a step of room
    bg = background(model, dx=4e-3, t_star=2.5)
    panel = make_panel(t_star=2.0)
    for idx in (0, bg.values.shape[0] // 2, bg.values.shape[0] - 1):
        frame = bg.frame(idx)
        one = solve_mvf(model, frame, bg.dt)
        _, cov = fluctuation_law(model, one, np.zeros(frame.n_cells), panel, [bg.dt])
        target = remark_covariance_grid(model, frame, panel, bg.dt)
        assert np.all(np.abs(cov - target) <= 1e-10 * np.maximum(np.abs(target), 1e-12))


def frame_noise_var(model, frame, dt):
    """The step noise variances of one background frame, from its grid rates."""
    b, h = GridRates(model, frame.dx, frame.n_cells).at(frame.values).birth_death()
    return spde._noise_var(model, b, h, frame.values, frame.dx, dt)


@pytest.mark.parametrize("model", [twin(SPLIT), twin(MIXED), KERNEL])
def test_noise_var_is_what_the_engine_steps_with(model, monkeypatch):
    # the law sweep builds every step's variances at once, stacked over the
    # frames it steps from: each row is its frame's on the active cells and
    # zero beyond; constant rates run as their twins, since the renewal law
    # steps no frame
    bg = background(model, dx=0.02)
    z0 = np.where(bg.centers < 1.0, 1.0, 0.0)
    built, build = [], spde._noise_var

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(spde, "_noise_var", recording)
    fluctuation_law(model, bg, z0, [constant()], [1.0])
    monkeypatch.undo()
    n = bg.values.shape[0] - 1
    (var_cells, var_boundary), = built
    assert var_cells.shape == (n, bg.values.shape[1]) and var_boundary.shape == (n,)
    for k in (0, n // 2, n - 1):
        w0 = _width(bg, k)
        want_cells, want_boundary = frame_noise_var(model, bg.frame(k), bg.dt)
        assert want_cells[:w0].tobytes() == var_cells[k, :w0].tobytes()
        assert not np.any(want_cells[w0:]) and not np.any(var_cells[k, w0:])
        assert abs(want_boundary - var_boundary[k]) <= 1e-14 * want_boundary


def test_noise_empirical_covariance():
    # the deaths-plus-births construction, sampled, against its pairing formula
    bg = background(MIXED, dx=0.01)
    frame = bg.frame(50)
    var_cells, var_boundary = frame_noise_var(MIXED, frame, bg.dt)
    sm = MIXED.split_law.mean
    rng = np.random.default_rng(7)
    n = 30000
    f = np.asarray(exponential(-1.0)(frame.centers))
    g = np.asarray(constant()(frame.centers))
    deaths = rng.standard_normal((n, frame.n_cells)) * np.sqrt(var_cells)
    births = sm * deaths.sum(axis=1) + math.sqrt(var_boundary) * rng.standard_normal(n)
    nf = f[0] * births - deaths @ f
    ng = g[0] * births - deaths @ g
    cov = float(np.cov(nf, ng, ddof=1)[0, 1])
    target = float(spde._noise_cov(f[None], g[None], var_cells, var_boundary, sm)[0, 0])
    dfp = nf - nf.mean()
    dgp = ng - ng.mean()
    se = math.sqrt(max(np.mean(dfp ** 2 * dgp ** 2) - cov ** 2, 0) / n)
    assert abs(cov - target) <= 3 * se


class ZeroNoise:
    """Stream stand-in whose normals are all zero: samples are the law's mean."""

    def standard_normal(self, size):
        return np.zeros(size)


def test_paths_deterministic_part_equals_mean_evolution():
    # zero draws leave the law's mean; the adjoint sums run backward, so it
    # meets the forward mean evolution at rounding level, not bit for bit
    panel = [constant(), exponential(0.5), monomial(1)]
    for model in LAW_MODELS:
        bg = background(model, dx=0.01)
        z0 = np.where(bg.centers < 1.0, 1.0, 0.0)
        mean_path = evolve_mean(model, z0, bg, [10 * bg.dt, 1.0]).values
        fvals = np.stack([f(bg.centers) for f in panel])
        want = bg.dx * (mean_path @ fvals.T)
        got = simulate_fluctuation_paths(model, bg, z0, 3, panel, [10 * bg.dt, 1.0],
                                         lambda b: ZeroNoise())
        assert np.all(got == got[:1]), model.family
        assert np.max(np.abs(got[0] - want)) <= 1e-12 * np.max(np.abs(want)), model.family


def forward_pairing_covariance(model, bg, fvals, rec_idx):
    """Cov of dx * (f, z) at the record indices by the forward recursion.

    Sigma_{k+1} = A_k Sigma_k A_k^T + Q_k, with A_k read off by stepping
    identity rows through the engine and Q_k the covariance of the step's
    noise field; Cov(z_k, z_r) for an earlier record r advances as A_k X.
    Returns shape (R, P, R, P).
    """
    co = _Coeffs(model, bg)
    n = bg.values.shape[1]
    sig = np.zeros((n, n))
    since = {}                                   # record index -> Cov(z_k, z_r)
    out = np.zeros((len(rec_idx), fvals.shape[0]) * 2)
    for k in range(max(rec_idx) + 1):
        if k in rec_idx:
            since[k] = sig.copy()
            s = rec_idx.index(k)
            for r, x in since.items():
                ri = rec_idx.index(r)
                out[s, :, ri] = bg.dx ** 2 * fvals @ x @ fvals.T
                out[ri, :, s] = out[s, :, ri].T
        if k == max(rec_idx):
            return out
        w0, w1 = _width(bg, k), _width(bg, k + 1)
        a = np.eye(n)
        _engine_step(a, k, co, w0, w1)
        a = a.T
        var_cells, var_boundary = frame_noise_var(model, bg.frame(k), bg.dt)
        sd = np.sqrt(var_cells[:w0])
        noise = np.zeros((n, w0 + 1))            # eta = noise @ standard normals
        noise[np.arange(w0), np.arange(w0)] = -sd / bg.dx
        noise[0, :w0] += model.split_law.mean * sd / bg.dx
        noise[0, w0] = math.sqrt(var_boundary) / bg.dx
        sig = a @ sig @ a.T + noise @ noise.T
        since = {r: a @ x for r, x in since.items()}


@pytest.mark.parametrize("model", LAW_MODELS + [BIRTH], ids=LAW_IDS + ["pure_birth"])
def test_law_covariance_matches_forward_recursion(model):
    bg = background(model, dx=1e-2)
    z0 = np.where(bg.centers < 1.0, 1.0, 0.0)
    panel = [constant(), exponential(0.5), monomial(1)]
    fvals = np.stack([f(bg.centers) for f in panel])
    times = [0.0, 0.3, 1.0]
    _, cov = fluctuation_law(model, bg, z0, panel, times)
    ref = forward_pairing_covariance(model, bg, fvals, [bg.index_at(t) for t in times])
    ref = ref.reshape(cov.shape)
    assert np.max(np.abs(ref)) > 0.0
    assert np.max(np.abs(cov - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_record_time_zero_gives_the_start_pairing():
    bg = background(MIXED, dx=0.02)
    z0 = np.where(bg.centers < 1.0, 0.7, 0.0)
    panel = [constant(), exponential(-1.0)]
    fvals = np.stack([f(bg.centers) for f in panel])
    stream = partial(spde_noise_stream, 5)
    alone = simulate_fluctuation_paths(MIXED, bg, z0, 50, panel, [0.0], stream,
                                       block_size=20)
    assert np.all(alone[:, 0] == bg.dx * (fvals @ z0))
    # beside a noisy record time the start pairing still draws no noise
    both = simulate_fluctuation_paths(MIXED, bg, z0, 50, panel, [0.0, 0.5], stream,
                                      block_size=20)
    assert np.all(both[:, 0] == both[0, 0])
    assert np.allclose(both[0, 0], alone[0, 0], rtol=1e-14, atol=0.0)
    assert np.all(both[:, 1].std(axis=0) > 0.0)


def test_law_on_a_background_of_no_step_is_the_start_pairing():
    # a horizon of 0 leaves no step, hence no rate row: a constant-rate law is
    # the start pairing with no variance, as the sweep's is
    bg = solve_mvf(SPLIT, box(0.02), 0.0)
    assert bg.values.shape[0] == 1
    z0 = np.where(bg.centers < 1.0, 0.7, 0.0)
    panel = [constant(), exponential(-1.0)]
    mean, cov = fluctuation_law(SPLIT, bg, z0, panel, [0.0])
    want_mean, want_cov = fluctuation_law(twin(SPLIT), bg, z0, panel, [0.0])
    assert np.array_equal(mean, want_mean) and np.array_equal(cov, want_cov)
    assert cov.shape == (2, 2) and not np.any(cov)


@pytest.mark.parametrize("times", [[1.0], [0.0, 0.3, 1.0], [0.3, 1.0, 0.5]],
                         ids=["end", "zero_mid_end", "unordered"])
@pytest.mark.parametrize("model, dx", [(SPLIT, 1e-2), (MIXED, 1e-2), (BIRTH, 1e-2),
                                       (model_from_config(clt_config().model), 1e-3)],
                         ids=["split", "mixed", "pure_birth", "clt_config"])
def test_constant_rate_law_equals_the_generic_sweep(model, dx, times):
    bg = background(model, dx=dx)
    assert model.constant_rates and not twin(model).constant_rates
    # mass on every cell: the last start cells and those no step reaches included
    z0 = np.where(bg.centers < 1.0, 1.0, 0.0) + np.cos(3.0 * bg.centers)
    panel = [constant(), exponential(0.5), monomial(1), exponential(-1.0)]
    mean, cov = fluctuation_law(model, bg, z0, panel, times)
    want_mean, want_cov = fluctuation_law(twin(model), bg, z0, panel, times)
    assert np.max(np.abs(mean - want_mean)) <= 1e-12 * np.max(np.abs(want_mean))
    assert np.max(np.abs(cov - want_cov)) <= 1e-12 * np.max(np.abs(want_cov))
    if 0.0 in times:                            # the start pairings draw no noise
        assert not np.any(cov.reshape(len(times), len(panel), -1)[times.index(0.0)])


def test_constant_rates_step_no_adjoint_row(monkeypatch):
    # the model alone picks the law: renewal scalars for constant rates, which
    # build the noise once from the boundary column and once from the start
    # row, whatever the step count; the sweep steps once a step and builds the
    # noise of every step in one call
    calls = {}
    for name in ("_adjoint_step", "_noise_var"):
        def counting(*args, _name=name, _fn=getattr(spde, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(spde, name, counting)
    for model, per_step, once in ((MIXED, 0, 2), (KERNEL_WORKLOAD, 1, 1)):
        bg = background(model, dx=0.02)
        n = bg.values.shape[0] - 1
        calls.update(_adjoint_step=0, _noise_var=0)
        fluctuation_law(model, bg, np.ones(bg.values.shape[1]), [constant()], [1.0])
        assert calls == {"_adjoint_step": per_step * n, "_noise_var": once}


def test_renewal_law_clamps_a_negative_start_cell_as_the_sweep_does():
    # solve_mvf accepts a start cell a rounding error below zero; its noise
    # variance is clamped to zero at every step, on both paths
    start = box(1e-2)
    start.values[37] = -1e-13
    bg = solve_mvf(MIXED, start, 1.0)
    assert bg.values[0, 37] < 0.0 and bg.values[-1, 37 + 100] < 0.0
    z0 = np.where(bg.centers < 1.0, 1.0, 0.0)
    panel = [constant(), exponential(0.5), monomial(1)]
    for times in ([1.0], [0.0, 0.3, 1.0]):
        mean, cov = fluctuation_law(MIXED, bg, z0, panel, times)
        want_mean, want_cov = fluctuation_law(twin(MIXED), bg, z0, panel, times)
        assert np.max(np.abs(mean - want_mean)) <= 1e-12 * np.max(np.abs(want_mean))
        assert np.max(np.abs(cov - want_cov)) <= 1e-12 * np.max(np.abs(want_cov))


def test_renewal_law_refuses_a_background_solved_for_other_rates():
    other = dataclasses.replace(MIXED, death=ConstantRate(1.1), death_sup=1.1)
    bg = background(other, dx=0.02)
    z0 = np.ones(bg.values.shape[1])
    with pytest.raises(ValueError, match=r"background frame 49 is not its start row "
                                         r"and boundary column decayed by d = 0\.98"):
        fluctuation_law(MIXED, bg, z0, [constant()], [1.0])
    # a record at time zero uses no frame, so there is nothing to refuse
    fluctuation_law(MIXED, bg, z0, [constant()], [0.0])


@pytest.mark.parametrize("model", [SPLIT, DENS], ids=["renewal", "sweep"])
@pytest.mark.parametrize("panel, times, z0_shape, match", [
    ([], [1.0], None, r"got panel \[\] and record_times \[1.0\]"),
    ([constant()], [], None, r"and record_times \[\]"),
    ([constant()], [1.0], (99,), r"shape \(100,\); got shape \(99,\)"),
    ([constant()], [1.0], (101,), r"shape \(100,\); got shape \(101,\)"),
    ([constant()], [1.0], (1, 100), r"shape \(100,\); got shape \(1, 100\)"),
], ids=["empty_panel", "no_record_time", "short_z0", "long_z0", "row_z0"])
def test_law_rejects_what_it_cannot_pair(model, panel, times, z0_shape, match):
    bg = background(model, dx=0.02)
    z0 = np.ones(z0_shape or bg.values.shape[1])
    with pytest.raises(ValueError, match=match):
        fluctuation_law(model, bg, z0, panel, times)
    with pytest.raises(ValueError, match=match):
        simulate_fluctuation_paths(model, bg, z0, 4, panel, times, lambda b: ZeroNoise())


def test_paths_reject_empty_blocks():
    bg = background(SPLIT, dx=0.05, horizon=0.1)

    def one_block(b):
        assert b == 0, "the block loop did not advance"
        return ZeroNoise()

    with pytest.raises(ValueError, match="block_size must be at least 1, got 0"):
        simulate_fluctuation_paths(SPLIT, bg, np.zeros(bg.values.shape[1]), 2,
                                   [constant()], [0.1], one_block, block_size=0)


def test_paths_noise_has_zero_mean():
    dt = 0.02
    bg = background(SPLIT, dx=dt, horizon=0.1)
    z0 = np.where(bg.centers < 1.0, 1.0, 0.0)
    mp = evolve_mean(SPLIT, z0, bg, bg.times)
    panel = [constant(), exponential(0.5), monomial(1)]
    times = [dt, 0.1]
    samples = simulate_fluctuation_paths(SPLIT, bg, z0, 20000, panel, times,
                                         lambda b: spde_noise_stream(3, b),
                                         block_size=5000)
    mean, cov = fluctuation_law(SPLIT, bg, z0, panel, times)
    # one noisy step is centred on the deterministic step
    assert mean[:3] == pytest.approx([pair(f, mp.frame(1)) for f in panel], rel=1e-12)
    # sampled moments within 3 SE of the exact law
    flat = samples.reshape(samples.shape[0], -1)
    for i, vals in enumerate(flat.T):
        assert abs(vals.mean() - mean[i]) <= 3 * vals.std() / math.sqrt(vals.size)
        assert abs(np.var(vals, ddof=1) - cov[i, i]) <= 3 * se_of_variance(vals)


def test_evolve_mean_zero_start():
    bg = background(SPLIT, dx=0.01)
    mp = evolve_mean(SPLIT, np.zeros(bg.values.shape[1]), bg, bg.times)
    assert np.all(mp.values == 0.0)


def euler_mean(model, nu0, bg):
    """The constant-rate mean scheme stepped forward: the active cells (a_star
    wide, one more each step) shift and decay by d = exp(-dt h), the boundary
    cell takes the explicit Euler deposit dt n (1, active cells), and cells
    beyond the active width stay as they start."""
    h, dt = model.death.value, bg.dt
    n = model.birth.value * model.life_law.mean + h * model.split_law.mean
    d, n_room = math.exp(-dt * h), int(round(bg.a_star / bg.dx))
    frames = [np.array(nu0, dtype=float)]
    for k in range(bg.values.shape[0] - 1):
        z = frames[-1].copy()
        w0 = n_room + k
        z[1:w0 + 1] = frames[-1][:w0] * d
        z[0] = dt * n * frames[-1][:w0].sum()
        frames.append(z)
    return np.array(frames)


@pytest.mark.parametrize("model", [SPLIT, MIXED, BIRTH], ids=["split", "mixed", "pure_birth"])
def test_constant_rate_mean_matches_the_euler_recursion(model):
    bg = background(model, dx=1e-2)
    x = bg.centers
    for nu0 in (np.where(x < 1.0, np.cos(4.0 * x), 0.0),       # signed, within the room
                np.cos(4.0 * x) - 0.3):                       # mass past the room too
        got = evolve_mean(model, nu0, bg, bg.times).values
        want = euler_mean(model, nu0, bg)
        scale = np.abs(want).max(axis=1)
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-13 * scale)
        n_room = int(round(bg.a_star / bg.dx))
        for k, frame in enumerate(got):            # cells no step has reached, bit for bit
            assert frame[n_room + k:].tobytes() == nu0[n_room + k:].tobytes()
    # a background of no step has no coefficient row: the mean is the start alone
    nu0, no_step = np.cos(4.0 * x), background(model, 1e-2, 0.0)
    assert np.array_equal(evolve_mean(model, nu0, no_step, [0.0]).values, [nu0])


def test_evolve_mean_tracks_classical_closed_form():
    # generic constants (no special cancellation): first-order accurate
    model = classical_model(0.6, 0.7, OffspringLaw.deterministic(1),
                            OffspringLaw.deterministic(2))
    dt = 2e-3
    bg = background(model, dx=dt)
    z0 = np.where(bg.centers < 1.0, 1.0, 0.0)
    mp = evolve_mean(model, z0, bg, bg.times)
    ref = classical_exact(GridDensity(dx=dt, values=z0, signed=True), 0.6, 0.7, 2.0, 1.0, 1.0)
    assert np.max(np.abs(mp.values[-1] - ref.values)) <= 10 * dt


def test_classical_mean_exact_values():
    dx = 1e-3
    z0 = GridDensity(dx=dx, values=np.where(
        (np.arange(2000) + 0.5) * dx < 1.0, 1.0, 0.0), signed=True)
    out = classical_exact(z0, 0.0, 1.0, 2.0, 0.0, 0.0)
    assert np.array_equal(out.values, z0.values)
    out = classical_exact(z0, 0.0, 1.0, 2.0, 0.0, 0.5)
    assert isinstance(out, GridDensity) and out.signed
    c = out.centers
    j = np.argmin(np.abs(c - 0.25))
    # renewal branch: n E(1,Z0) e^((n-h)t) e^(-n x) = 2 e^0.5 e^-0.5 = 2 at x=0.25
    assert out.values[j] == pytest.approx(2.0, abs=5e-3)
    j = np.argmin(np.abs(c - 0.75))
    assert out.values[j] == pytest.approx(math.exp(-0.5), rel=1e-12)
    # total mass evolves like e^((n-h)t) E(1,Z0)
    assert exp_pairing_grid(0.0, out) == pytest.approx(math.exp(0.5), abs=2e-3)


def test_classical_exp_mean_reduction_and_ode_oracle():
    b, h, sm, lm = 0.3, 1.0, 2.0, 1.0
    n = b * lm + h * sm
    z0_lam, z0_mass = 1.4, 0.9
    t_end = 1.0
    # lambda = 0 reduces to pure exponential mass growth
    assert classical_exp_mean(0.0, z0_mass, z0_mass, b, h, sm, lm, t_end) \
        == pytest.approx(math.exp((n - h) * t_end) * z0_mass, rel=1e-12)
    # general lambda against an independent RK4 integration of the mean system
    lam = 0.5
    y = np.array([z0_lam, z0_mass])     # (E (f_lam, Z), E (1, Z))

    def deriv(y):
        return np.array([(lam - h) * y[0] + n * y[1], (n - h) * y[1]])

    dt = 1e-4
    for _ in range(int(round(t_end / dt))):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * dt * k1)
        k3 = deriv(y + 0.5 * dt * k2)
        k4 = deriv(y + dt * k3)
        y = y + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    assert classical_exp_mean(lam, z0_lam, z0_mass, b, h, sm, lm, t_end) \
        == pytest.approx(y[0], rel=1e-10)


def test_ito_isometry_variance_mass_case():
    a0 = box(1e-3)
    var0 = ito_isometry_variance(0.0, a0, 0.0, 1.0, SPLIT.life_law, SPLIT.split_law, 1.0)
    # (1, Z_t): variance integral collapses to (e^2t - e^t) * X0 for this model
    assert var0 == pytest.approx(math.e ** 2 - math.e, rel=1e-9)
    # lambda -> 0 continuity
    var_eps = ito_isometry_variance(1e-9, a0, 0.0, 1.0, SPLIT.life_law,
                                    SPLIT.split_law, 1.0)
    assert var_eps == pytest.approx(var0, rel=1e-6)


def test_density_dependent_mean_formula_matches_grid():
    dt = 2e-3
    bg = background(DENS, dx=dt)
    z0 = np.where(bg.centers < 1.0, 0.8, 0.0)
    mp = evolve_mean(DENS, z0, bg, bg.times)
    z0_grid = GridDensity(dx=dt, values=z0, signed=True)
    for lam in (0.0, 0.5):
        target = density_dependent_exp_mean(
            lam, exp_pairing_grid(lam, z0_grid), z0_grid.mass, DENS, bg, 1.0)
        got = pair(exponential(lam), mp.frame(-1))
        assert got == pytest.approx(target, rel=0.02)


def test_kernel_engine_reduces_to_density_engine():
    # constant kernel: (g(x,.), A) = |A|, so an affine kernel rate collapses
    # to an affine density rate; the two engine branches must agree whichever
    # rate carries the kernel
    const = Kernel("constant", c=1.0)
    forms = {"birth": (0.2, 0.1, 0.1), "death": (0.5, 0.1, 0.2)}   # c0, cy, cz
    fixed = {"birth": ConstantRate(0.4), "death": ConstantRate(0.8)}

    def build(carriers, rate):
        r = {name: rate(*forms[name]) if name in carriers else fixed[name]
             for name in forms}
        return RateModel(r["birth"], r["death"], OffspringLaw.deterministic(1),
                         OffspringLaw.deterministic(2), birth_sup=1.0, death_sup=2.0)

    dt = 0.02
    for carriers in (("death",), ("birth",), ("birth", "death")):
        kern = build(carriers, lambda c0, cy, cz: KernelRate(const, c0=c0, cy=cy, cz=cz))
        dens = build(carriers, lambda c0, cy, cz: DensityRate(c0, cy + cz))
        bg_k = background(kern, dx=dt)
        bg_d = background(dens, dx=dt)
        assert np.max(np.abs(bg_k.values - bg_d.values)) <= 1e-10, carriers
        # one deposit row per kernel with a death weight, however many rates share
        # it; a kernel on the birth rate alone lives in the boundary row
        assert len(_Coeffs(kern, bg_k).kernels) == ("death" in carriers)
        z0 = np.where(bg_k.centers < 1.0, 0.7, 0.0)
        mk = evolve_mean(kern, z0, bg_k, bg_k.times)
        md = evolve_mean(dens, z0, bg_d, bg_d.times)
        assert np.max(np.abs(mk.values - md.values)) <= 1e-10, carriers


def test_qv_integral_frames_vs_closed_form():
    bg = background(SPLIT, dx=1e-3)
    (got,), = covariation_integral_frames(SPLIT, bg, [constant()], 1.0)
    exact = classical_qv_mass(1.0, 0.0, 1.0, SPLIT.life_law, SPLIT.split_law, 1.0)
    assert exact == pytest.approx(math.e - 1.0, rel=1e-12)
    assert got == pytest.approx(exact, rel=5e-3)


@pytest.mark.parametrize("model", [KERNEL, GAUSS], ids=["kernel", "gaussian_kernel"])
def test_qv_target_matrices_are_the_per_pair_formula(model):
    # one rate pass serves every pair; each entry keeps the pair's own arithmetic
    bg = background(model, dx=1e-2)
    panel = make_panel(t_star=2.0)
    sm, s2 = model.split_law.mean, model.split_law.second_moment

    def qv_rate(a, fv, gv, f0, g0):
        b, h = GridRates(model, bg.dx, a.shape[-1]).at(a).birth_death()
        w = b * model.life_law.second_moment + h * s2
        integrand = f0 * g0 * w + h * fv * gv - h * sm * (f0 * gv + g0 * fv)
        return np.sum(integrand * a, axis=-1) * bg.dx

    fvals = [np.asarray(f(bg.centers), dtype=float) for f in panel]
    frames = bg.values[:bg.index_at(0.6) + 1]
    got = covariation_integral_frames(model, bg, panel, 0.6)
    frame = bg.frame(25)
    step = remark_covariance_grid(model, frame, panel, bg.dt)
    assert got.shape == step.shape == (len(panel), len(panel))
    for i, f in enumerate(panel):
        for j in range(i, len(panel)):
            g = panel[j]
            rates = qv_rate(frames, fvals[i], fvals[j], f.at_zero, g.at_zero)
            assert got[i, j] == got[j, i] == float(np.trapezoid(rates, dx=bg.dt))
            cell = qv_rate(frame.values, fvals[i], fvals[j], fvals[i][0], fvals[j][0])
            assert step[i, j] == step[j, i] == bg.dt * float(cell)


def test_paths_reproducible_and_gaussian():
    bg = background(SPLIT, dx=4e-3)
    z0 = np.where(bg.centers < 1.0, 1.0, 0.0)
    panel = [constant()]

    def run():
        return simulate_fluctuation_paths(SPLIT, bg, z0, 600, panel, [1.0],
                                          lambda b: spde_noise_stream(11, b),
                                          block_size=200)

    s1, s2 = run(), run()
    assert np.array_equal(s1, s2)
    stat, p = jarque_bera(s1[:, 0, 0])
    assert p > 0.01


def test_mean_frames_are_signed_and_limit_frames_are_checked():
    bg = background(SPLIT, dx=0.02, horizon=0.2)
    z0 = np.where(bg.centers < 1.0, -1.0, 0.0)
    frame = evolve_mean(SPLIT, z0, bg, bg.times).frame(5)
    assert frame.signed and frame.values.min() < 0.0
    negative = LimitSolution(dt=bg.dt, times=bg.times, values=-bg.values, a_star=bg.a_star)
    with pytest.raises(DomainError):
        negative.frame(5)


CONST_KERNEL = RateModel(ConstantRate(1.0),
                         KernelRate(Kernel("constant", c=0.5), c0=0.2, cy=0.3, cz=0.5),
                         OffspringLaw.deterministic(1), OffspringLaw.deterministic(0),
                         birth_sup=1.0, death_sup=4.0)


def run_grid_layers(model, dx, horizon):
    """Solve, step the mean and sweep the law of ``model`` on one grid."""
    bg = background(model, dx=dx, horizon=horizon)
    z0 = np.where(bg.centers < 1.0, 1.0, 0.0)
    evolve_mean(model, z0, bg, bg.times)
    fluctuation_law(model, bg, z0, [constant(), exponential(-1.0)], [horizon])
    return bg


@pytest.mark.parametrize("model", [KERNEL, CONST_KERNEL], ids=["exp_decay", "constant"])
def test_exp_decay_and_constant_kernels_build_no_square_array(model, monkeypatch):
    # at J = 2000 one J x J float array is 32 MB; the grid layers pair these
    # kernels in O(J) and never evaluate the kernel on the grid
    monkeypatch.setattr(Kernel, "__call__", lambda *args: pytest.fail("kernel evaluated"))
    n_cells = 2000
    tracemalloc.start()
    try:
        run_grid_layers(model, 2.0 / n_cells, 20 * 2.0 / n_cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_cells ** 2 / 4


def test_kernel_matrices_do_not_grow_with_steps(monkeypatch):
    # a Gaussian kernel builds its two matrices (centers, edges) once per grid
    # and call, whatever the horizon: for the limit solve, and for the
    # coefficients the mean and the law each build
    shapes = []
    kernel_call = Kernel.__call__

    def recording(self, x, y):
        out = kernel_call(self, x, y)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(Kernel, "__call__", recording)
    for horizon in (0.2, 0.4):
        shapes.clear()
        bg = run_grid_layers(GAUSS, 0.02, horizon)
        n_cells = bg.values.shape[1]
        assert shapes == [(n_cells, n_cells)] * 6, horizon


# ---------------------------------------------------------------------------
# the grid layers' arrays, pinned bit for bit

# the benchmark's kernel study model (exp_decay kernel paired by prefix sums)
KERNEL_WORKLOAD = model_from_config({
    "family": "kernel_linear", "birth": 1.0,
    "death": {"kernel": {"kind": "exp_decay", "alpha": 1.0}, "phi": "affine",
              "c0": 0.2, "cy": 0.3, "cz": 0.5},
    "death_sup": 4.0,
    "life_law": {"kind": "deterministic", "k": 1},
    "split_law": {"kind": "deterministic", "k": 0}})
PINNED_MODELS = {"classical": MIXED, "density": DENS, "age_density": AGE,
                 "kernel_workload": KERNEL_WORKLOAD, "gaussian_kernel": GAUSS}

# sha256 of solve_mvf's frames from the box start on J = 400 cells (dx 5e-3,
# horizon 1), recorded while the solver formed every row twice per step; the
# classical frames since they are formed from the start row and boundary column
PINNED_FRAMES = {
    "classical": "4d86b26202a113055f971bafe4a7f03365bce2d2f66aac6e3cd0557245da9fa9",
    "density": "4a0ba14e5058a1848d6aa457345bddd0a9f5637181a4e447d48cbadc099aefd7",
    "age_density": "7289daa4de9aae5eabfd2bb5951be5e6ded6c07e7e5e554ae441d8d9f4bd643e",
    "kernel_workload": "c76b531232dd34c547096fbf4b690be806bacf09a6bb7fe4c36bcfd582c87f60",
    "gaussian_kernel": "8e8c3c69545fd9918867ce2ec16da66b6fcb3b25b09c46da570c2e72892c2769",
}
# sha256 of _Coeffs' rows on those backgrounds (beta, decay, mu, b, h, then each
# kernel's pi), each broadcast to one row per step
PINNED_COEFFS = {
    "kernel_workload": "75395e8f964ab770aac09f61902484102d934d2fa708a32410bf0bd449a35185",
    "gaussian_kernel": "c2740f89e7687727ba51feae036fa9732f49b161c275608ae88f3562be19696d",
}


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", PINNED_FRAMES)
def test_limit_frames_are_pinned(name):
    assert digest(background(PINNED_MODELS[name], dx=5e-3).values) == PINNED_FRAMES[name]


def swept_mean_frames(model, z0, bg):
    """Every frame of the mean, as one sweep over all steps forms them: the boundary
    column and the renewal fill for constant rates, else every step of the operator."""
    frames = np.tile(z0, (len(bg.times), 1))
    if model.constant_rates:
        (d, c), n_room = spde._renewal_rates(model, bg.dt), _width(bg, 0)
        col, s = np.empty(len(frames)), float(np.sum(z0[:n_room]))
        for k in range(1, len(col)):
            col[k] = c * s
            s = d * s + col[k]
        return _renewal_frames(frames, col, z0[:n_room], d, range(len(col)))
    co, z = _Coeffs(model, bg), frames[:1].copy()
    for k in range(len(frames) - 1):
        _engine_step(z, k, co, _width(bg, k), _width(bg, k + 1))
        frames[k + 1] = z
    return frames


@pytest.mark.parametrize("name", ["classical", "density", "kernel_workload"])
def test_recorded_mean_frames_are_the_full_sweeps_frames(name):
    # closed form (classical) and stepped (density, kernel): each recorded frame is
    # the full sweep's frame at its time, bit for bit, and the result holds no other
    model = PINNED_MODELS[name]
    bg = background(model, dx=0.02)
    z0 = np.where(bg.centers < 1.0, np.cos(3.0 * bg.centers), 0.0)
    full = swept_mean_frames(model, z0, bg)
    assert evolve_mean(model, z0, bg, bg.times).values.tobytes() == full.tobytes()
    record = [0.0, 0.5, 1.0]
    got = evolve_mean(model, z0, bg, record)
    assert got.values.shape == (3, bg.values.shape[1]) and got.signed
    assert got.times.tolist() == [bg.times[bg.index_at(t)] for t in record]
    for t in record:
        assert got.frame_at(t).values.tobytes() == full[bg.index_at(t)].tobytes(), t
    with pytest.raises(ValueError, match="time 0.26 "):
        got.frame_at(0.26)


def test_mean_at_the_horizon_allocates_one_frame():
    # the full sweep of clt_config's grid is 1001 x 2000 frames, 16 MB
    cfg = clt_config()
    bg, nu0 = cfg.background, cfg.inits[max(cfg.k_values)].nu0_values
    tracemalloc.start()
    try:
        mean = evolve_mean(cfg._model, nu0, bg, [cfg.horizon])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mean.values.shape == (1, bg.values.shape[1])
    assert peak < 1e6, peak


def sweep_coeffs(model, bg, monkeypatch):
    """The coefficients a law sweep on ``bg`` builds, as it built them."""
    built, build = [], spde._Coeffs.__init__

    def recording(co, *args):
        build(co, *args)
        built.append(co)

    monkeypatch.setattr(spde._Coeffs, "__init__", recording)
    fluctuation_law(model, bg, np.zeros(bg.values.shape[1]), [constant()], [bg.times[-1]])
    monkeypatch.undo()
    (co,) = built
    return co


@pytest.mark.parametrize("name", PINNED_COEFFS)
def test_kernel_coeffs_are_pinned(name, monkeypatch):
    model = PINNED_MODELS[name]
    bg = background(model, dx=5e-3)
    co = sweep_coeffs(model, bg, monkeypatch)
    assert len(co.kernels) == 1 and co.mu is not None
    # the death rate's mass-derivative weight, which the sweep reads deposited as mu
    a = bg.values[:-1]
    uh = model.death.frechet_terms(co.grid.centers, co.grid.at(a))[0]
    assert co.mu.tobytes() == (-bg.dt * bg.dx * uh * a).tobytes()
    rows = [co.beta, co.decay, co.mu, co.b, co.h, *(pi for _, pi in co.kernels)]
    assert digest(*(np.broadcast_to(r, a.shape) for r in rows)) == PINNED_COEFFS[name]


def test_a_law_sweep_keeps_nothing_on_its_background():
    # the coefficients live as long as the sweep: the background, still alive,
    # holds its frames and no more
    model = KERNEL_WORKLOAD
    bg = background(model, dx=5e-3)
    z0 = np.where(bg.centers < 1.0, 1.0, 0.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fluctuation_law(model, bg, z0, [constant(), exponential(-1.0)], [0.5, 1.0])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.1 * bg.values.nbytes


@pytest.mark.parametrize("model, builds", [(SPLIT, 0), (MIXED, 0), (BIRTH, 0), (DENS, 1),
                                           (AGE, 1), (KERNEL, 1), (GAUSS, 1)],
                         ids=["split", "mixed", "pure_birth", "density", "age_density",
                              "kernel", "gaussian_kernel"])
def test_each_stepped_call_builds_its_coefficients_once(model, builds, monkeypatch):
    # constant rates read b, h, d and c from the model: no coefficients and no
    # grid rates; any other model builds one set per law sweep and per mean
    bg = background(model, dx=0.02)
    z0 = np.where(bg.centers < 1.0, 1.0, 0.0)
    calls = {"_Coeffs": 0, "GridRates": 0}
    for owner in (spde._Coeffs, GridRates):
        init = owner.__init__

        def counting(self, *args, _init=init, _name=owner.__name__):
            calls[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(owner, "__init__", counting)
    for call in (lambda: fluctuation_law(model, bg, z0, [constant()], [0.5, 1.0]),
                 lambda: evolve_mean(model, z0, bg, bg.times)):
        calls.update(_Coeffs=0, GridRates=0)
        call()
        assert calls == {"_Coeffs": builds, "GridRates": builds}


# an exp_decay kernel on the birth rate alone, with a nonzero split mean: only the
# boundary row's kernel newborn term carries the kernel into the step
BIRTH_KERNEL = RateModel(KernelRate(Kernel("exp_decay", alpha=1.0), c0=1.0, cz=-0.3),
                         ConstantRate(0.6), OffspringLaw.poisson(1.0),
                         OffspringLaw.deterministic(1), birth_sup=2.0, death_sup=0.6)
LINEARISED = {"density": DENS, "age_density": AGE, "kernel_workload": KERNEL_WORKLOAD,
              "birth_kernel": BIRTH_KERNEL, "gaussian_kernel": GAUSS}


@pytest.mark.parametrize("name", LINEARISED)
def test_stepped_mean_is_the_limit_solvers_linearisation(name):
    # the mean field steps the Frechet derivative of the limit dynamics: against the
    # limit solver's difference quotient in the start, both first-order schemes of one
    # linearised PDE, the gap halves with dx; a dropped Frechet term leaves an O(1) gap
    model, eps, gaps = LINEARISED[name], 1e-6, []
    for dx in (2e-2, 1e-2, 5e-3):
        a0 = box(dx)
        z0 = np.where(a0.centers < 1.0, np.cos(3.0 * a0.centers), 0.0)
        f = np.exp(-0.5 * a0.centers)
        bg = solve_mvf(model, a0, 1.0)
        moved = solve_mvf(model, GridDensity(dx=dx, values=a0.values + eps * z0), 1.0)
        quotient = dx * f @ (moved.values[-1] - bg.values[-1]) / eps
        gaps.append(dx * f @ evolve_mean(model, z0, bg, bg.times).values[-1] - quotient)
    ratios = np.array(gaps[:-1]) / gaps[1:]
    assert np.all(np.abs(ratios - 2.0) <= 0.1), ratios


@pytest.mark.parametrize("model, per_step", [(BIRTH_KERNEL, 0), (KERNEL, 1)],
                         ids=["birth_kernel", "death_kernel"])
def test_a_kernel_pairs_rows_each_step_only_for_its_death_weight(model, per_step,
                                                                 monkeypatch):
    # the boundary row holds a kernel's newborn term paired once per sweep, so only
    # a death weight's deposit pairs the adjoint rows at every step
    calls, pair = [0], GridRates.pair

    def counting(*args, **kwargs):
        calls[0] += 1
        return pair(*args, **kwargs)

    monkeypatch.setattr(GridRates, "pair", counting)
    counts = []
    for horizon in (0.5, 1.0):
        bg = background(model, dx=0.02, horizon=horizon)
        calls[0] = 0
        fluctuation_law(model, bg, np.ones(bg.values.shape[1]), [constant()], [horizon])
        counts.append(calls[0])
    assert counts[1] - counts[0] == per_step * 25
