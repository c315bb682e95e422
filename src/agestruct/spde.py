"""Gaussian fluctuation field around the deterministic limit.

The centred, sqrt(K)-scaled deviation of the empirical age structure from
its limit converges to a linear stochastic PDE driven by a Gaussian
martingale measure.  This module works with that limit on the same
characteristics grid as the limit solver:

* transport is an exact one-cell shift, decay is a survival factor;
* the measure-derivative (Frechet) drift terms deposit into cells against
  the frozen background, and the renewal terms deposit into the boundary
  cell (the delta_0 parts of the SPDE are represented as boundary-cell
  influx divided by dx);
* the noise is factored into independent per-cell death increments plus a
  birth increment correlated through the splitting brood mean plus an
  independent residual.  For every test function f this construction
  reproduces the per-step variance

      dt * (f(0)^2 * newborn_m2 + death * f^2
            - 2 f(0) * death * split_mean * f,  background)

  exactly (with f(0) read at the first cell center, consistent with the
  midpoint pairing rule), so the grid martingale has the limit's
  quadratic variation by construction.  One helper builds the noise
  variances from rates and background frames (:func:`_noise_var`) and one
  pairs them with test-function rows (:func:`_noise_cov`): the law sweep
  builds every step's variances in one call on the stacked frames and pairs
  each step's active cells, so one step's law from a frame is that frame's
  noise covariance; the constant-rate law builds them once for the boundary
  column and once for the start row.

The step is explicit Euler-Maruyama: all drift deposits are evaluated at
the pre-step state against the pre-step background frame.  The scheme is
linear in the field with Gaussian increments, z_{k+1} = A_k z_k + eta_k, so
the panel pairings at any set of record times are exactly jointly
Gaussian.  A_k is a shift with survival, a boundary row, a mass deposit and
a deposit per death kernel (:class:`_Coeffs` holds their rows, frame folded
in); :func:`_engine_step` applies it and :func:`_adjoint_step` its
transpose.  :func:`fluctuation_law` computes the law by one backward adjoint
sweep g_k = A_k^T g_{k+1} (the discrete stochastic-convolution
representation): the mean is dx * (g_0, z_0) and the covariance is the sum
over steps of the noise covariance paired with g_{k+1}.  With constant
rates (McKendrick-von Foerster: a renewal equation at the boundary) A_k^T
shifts a row, decays it by d = exp(-dt h) and adds c g(0), c = dt (b m_life
+ h m_split), on the active cells, which gain one a step: j steps before
its record a row is d^j f(x + j dx) + sig_j there, sig_j = d sig_(j-1) +
c g_j(0).  Frame k is the start row shifted k cells and decayed by d^k behind
the boundary column decayed along the diagonal, so the noise sums against
fixed shifted panel tables obey a like recursion; those scalars give the law.
:func:`simulate_fluctuation_paths` draws from it; :func:`evolve_mean` steps
the mean field itself forward and keeps its record frames (with constant rates,
each in closed form).  Each stepped call builds the operator's rows once and keeps
none on the background; the constant-rate forms read b, h, d and c from the model.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .measures import GridDensity, TestFunction
from .mvf import GridRates, LimitSolution, _rate_of_mass, _renewal_frames, quad_gk21
from .rates import RateModel

__all__ = [
    "remark_covariance_grid",
    "evolve_mean",
    "fluctuation_law",
    "simulate_fluctuation_paths",
    "classical_exp_mean",
    "ito_isometry_variance",
    "exp_pairing_grid",
    "covariation_integral_frames",
    "classical_qv_mass",
    "density_dependent_exp_mean",
]


# ---------------------------------------------------------------------------
# noise construction


def _noise_var(model: RateModel, b, h, a, dx: float, dt: float):
    """Death-increment variances per cell and the boundary-residual variance.

    ``b``, ``h`` and ``a`` are the birth and death rates and the background
    density at the cell centers of one frame (or of its first cells); ``a``
    may stack frames on its first axis, with one boundary variance each.
    """
    sm, s2 = model.split_law.mean, model.split_law.second_moment
    resid = b * model.life_law.second_moment + h * (s2 - sm * sm)
    return (np.maximum(h * a, 0.0) * dx * dt,
            np.maximum(np.sum(resid * a, axis=-1) * dx, 0.0) * dt)


def _noise_cov(f, g, var_cells, var_boundary: float, split_mean: float) -> np.ndarray:
    """Covariance of the step noise paired with each row of ``f`` and of ``g``.

    The rows hold test-function values on the cells of ``var_cells``, the
    first at age zero; the result is (rows of f, rows of g).
    """
    vf = split_mean * f[:, :1] - f
    vg = vf if g is f else split_mean * g[:, :1] - g
    return (vf * var_cells) @ vg.T + var_boundary * np.outer(f[:, 0], g[:, 0])


def _qv_rates(model: RateModel, a: np.ndarray, dx: float, panel: Sequence[TestFunction],
              f0=None) -> np.ndarray:
    """Quadratic-covariation rates of the panel's martingales against each frame of ``a``:
    (P, P) plus the frame axes, symmetric, every pair from one evaluation of the rates.
    ``f0`` holds the values at age zero, where newborns deposit (None: the first cell's)."""
    grid = GridRates(model, dx, a.shape[-1])
    b, h = grid.at(a).birth_death()
    fv = np.array([np.asarray(f(grid.centers), dtype=float) for f in panel])
    f0 = fv[:, 0] if f0 is None else f0
    sm, s2 = model.split_law.mean, model.split_law.second_moment
    w = b * model.life_law.second_moment + h * s2
    out = np.empty((len(panel), len(panel)) + a.shape[:-1])
    for i, j in zip(*np.triu_indices(len(panel))):
        integrand = (f0[i] * f0[j] * w + h * fv[i] * fv[j]
                     - h * sm * (f0[i] * fv[j] + f0[j] * fv[i]))
        out[i, j] = out[j, i] = np.sum(integrand * a, axis=-1) * dx
    return out


def remark_covariance_grid(model: RateModel, frame: GridDensity,
                           panel: Sequence[TestFunction], dt: float) -> np.ndarray:
    """Per-step covariance targets of the panel, (P, P), from the quadratic-covariation
    formula in the grid convention of the delta_0-as-boundary-cell representation:
    f(0) read at the first cell center, and the midpoint pairing."""
    return dt * _qv_rates(model, frame.values, frame.dx, panel)


# ---------------------------------------------------------------------------
# drift coefficients (built once per stepped call)


class _Coeffs:
    """The grid SPDE's drift on a background as its step operator, row k serving the
    step A_k from frame k to k + 1 with the frame a_k folded in:

        A_k z = shift(decay_k z) + e_0 (beta_k, z) + mu_k sum(z) + pi_k (g, z),

    ``decay`` the survival factor, ``beta`` the boundary row (dt times the newborn
    rate, the newborn mass-derivative weight paired with a_k, and each kernel's newborn
    weight times a_k paired through ``grid``, :meth:`~agestruct.mvf.GridRates.pair`,
    which is symmetric), ``mu`` the death mass-derivative deposit -dt dx u_h a_k (None
    when it vanishes) and ``kernels`` one (kernel, pi) per kernel with a death weight,
    pi = -dt w_h a_k.  A row that is the same for every frame may be one row that
    broadcasts.  ``b``/``h`` are the birth and death rate rows the law sweep builds its
    noise variances from.
    """

    def __init__(self, model: RateModel, background: LimitSolution):
        dt = dx = background.dt
        lm, sm = model.life_law.mean, model.split_law.mean
        a = background.values[:-1]
        grid = self.grid = GridRates(model, dx, a.shape[1])
        mu = grid.at(a)            # one view: each rate row below reads its prefix sums
        x = grid.centers
        self.b, self.h = mu.birth_death()
        self.decay = np.broadcast_to(np.exp(-dt * model.death_rate(grid.edges, mu)), a.shape)
        ub, wb, kb = model.birth.frechet_terms(x, mu)
        uh, wh, kh = model.death.frechet_terms(x, mu)
        newborn = {}                                        # kernel -> its newborn weight
        for kern, w, m in ((kh, wh, sm), (kb, wb, lm)):
            if kern is not None and m:
                newborn[kern] = newborn.get(kern, 0.0) + w * m
        self.beta = dt * (self.b * lm + self.h * sm
                          + dx * np.sum((ub * lm + uh * sm) * a, axis=1, keepdims=True)
                          + sum(grid.pair(kern, w * a) for kern, w in newborn.items()))
        self.mu = -dt * dx * uh * a if np.any(uh) else None
        self.kernels = [] if kh is None else [(kh, -dt * wh * a)]


def _engine_step(z: np.ndarray, k: int, co: _Coeffs, w0: int, w1: int) -> None:
    """Advance the noise-free fields ``z`` (B, J) in place by A_k (:class:`_Coeffs`).

    ``w0``/``w1`` are the active support widths before/after the step.
    Explicit Euler: every deposit reads the pre-step state.
    """
    zs = z[:, :w0]
    born = zs @ co.beta[k, :w0]
    deps = [] if co.mu is None else [np.outer(zs.sum(axis=1), co.mu[k, :w0])]
    deps += [co.grid.pair(kern, zs) * pi[k, :w0] for kern, pi in co.kernels]
    z[:, 1:w1] = z[:, : w1 - 1] * co.decay[k, 1:w1]      # exact transport and survival
    z[:, 0] = 0.0
    for dep in deps:
        z[:, :w0] += dep
    z[:, 0] += born


def _adjoint_step(g: np.ndarray, k: int, co: _Coeffs, w0: int, w1: int) -> np.ndarray:
    """Return g A_k for adjoint rows ``g`` (n, J), :func:`_engine_step` transposed term by
    term: g_0 beta, (g, mu) 1 and, the kernel being symmetric, (g, pi g)."""
    gw = g[:, :w0]
    out = np.empty_like(g)
    out[:, w1:] = g[:, w1:]                 # cells the step leaves as they are
    out[:, : w1 - 1] = g[:, 1:w1] * co.decay[k, 1:w1]
    out[:, w1 - 1] = 0.0
    out[:, :w0] += g[:, :1] * co.beta[k, :w0]
    if co.mu is not None:
        out[:, :w0] += gw @ co.mu[k, :w0, None]
    for kern, pi in co.kernels:
        out[:, :w0] += co.grid.pair(kern, gw * pi[k, :w0])
    return out


def _width(background: LimitSolution, k: int) -> int:
    """Active cells of frame k: the start's width in cells, one more a step."""
    return min(int(round(background.a_star / background.dx)) + k, background.values.shape[1])


def _renewal_rates(model: RateModel, dt: float) -> tuple[float, float]:
    """Constant rates' step decay d = exp(-dt h) and renewal c = dt (b m_life + h m_split)."""
    b, h = model.birth.value, model.death.value
    return float(np.exp(-dt * h)), dt * (b * model.life_law.mean + h * model.split_law.mean)


# ---------------------------------------------------------------------------
# mean evolution


def evolve_mean(model: RateModel, nu0: np.ndarray, background: LimitSolution,
                record_times: Sequence[float]) -> LimitSolution:
    """Deterministic evolution of the expected fluctuation measure, at the record times.

    The grid scheme without its noise, with the measure-derivative terms evaluated
    at the running mean itself.  The frames are on the background grid, signed, and
    formed at the record times alone.  Constant rates form each in closed form behind
    the boundary column col_(k+1) = dt n (1, active cells of frame k).
    """
    rec = np.array([background.index_at(t) for t in record_times])
    out = np.empty((rec.size, background.values.shape[1]))
    out[:] = nu0                                        # cells no step reached keep nu0
    if model.constant_rates:
        (d, c), n_room = _renewal_rates(model, background.dt), _width(background, 0)
        col, s = np.empty(rec.max() + 1), float(np.sum(nu0[:n_room]))  # s: active cells' sum
        for k in range(1, len(col)):
            col[k] = c * s
            s = d * s + col[k]
        _renewal_frames(out, col, nu0[:n_room], d, rec)
    else:
        co, z = _Coeffs(model, background), out[:1].copy()
        for k in range(rec.max()):
            _engine_step(z, k, co, _width(background, k), _width(background, k + 1))
            out[rec == k + 1] = z
    return LimitSolution(dt=background.dt, times=background.times[rec], values=out,
                         a_star=background.a_star, signed=True)


# ---------------------------------------------------------------------------
# exact law of the panel pairings


def _renewal_law(model: RateModel, bg: LimitSolution, rec_idx: np.ndarray, fvals: np.ndarray):
    """Start rows g_0 and covariance of a constant-rate law from renewal scalars.

    The noise variances are positively homogeneous in the frame (the boundary
    one while the column and the row's mass share a sign), so step k's are the
    boundary column's and the start row's, decayed, and each of their sums
    against a fixed table obeys acc_k = d acc_(k-1) + (column entry k's term).
    Raises ValueError when the last frame the law uses is not of that form.
    """
    n, top, n_room = rec_idx.size, int(rec_idx.max()), _width(bg, 0)
    d, c = _renewal_rates(model, bg.dt)
    dpow = d ** np.arange(top + 1)
    col, row = bg.values[:top + 1, 0], bg.values[0, :n_room]
    k = top - 1
    frame = bg.values[k, :n_room + k]
    dev = np.abs(_renewal_frames(np.empty((1, frame.size)), col, row, d, [k])[0] - frame)
    if dev.max() > 1e-10 * np.abs(frame).max():
        raise ValueError(f"background frame {k} is not its start row and boundary column "
                         f"decayed by d = {d!r}: off by {dev.max():g} at cell "
                         f"{int(dev.argmax())}; was it solved for other rates?")
    b, h = model.birth.value, model.death.value
    vcol, vbcol = _noise_var(model, b, h, col[:, None], bg.dx, bg.dt)
    vrow, vbrow = _noise_var(model, b, h, row, bg.dx, bg.dt)
    # acc columns: the cell-variance sum, the boundary variance, then per record r
    # its panel and shifted-product table paired with the step's cell variances
    inc, tables = [np.column_stack([vcol, vbcol])], []
    inc[0][0] = vrow.sum(), vbrow
    for r in sorted(set(rec_idx[rec_idx > 0].tolist())):
        qs, ln = np.flatnonzero(rec_idx == r), _width(bg, r - 1)
        p, q = np.array([(p, q) for q in qs for p in np.flatnonzero(rec_idx >= r)]).T
        shifted = fvals[p[:, None], rec_idx[p, None] - r + np.arange(ln)] * fvals[q, :ln]
        table = np.vstack([fvals[qs, :ln], shifted]).T
        tables.append((r, qs, p, q, sum(a.shape[1] for a in inc)))
        inc.append(np.zeros((top + 1, table.shape[1])))
        inc[-1][0] = vrow @ table[r - 1:r - 1 + n_room]
        inc[-1][1:r] = vcol[1:r] * table[:r - 1][::-1]     # table row r - 1 - k at step k
    acc = np.hstack(inc)
    sig, s = np.zeros((top + 1, n)), fvals[:, :top + 1].T * dpow[:, None]
    for j in range(1, top + 1):   # sig: j steps before each record; acc: step j from the start
        sig[j] = d * sig[j - 1] + c * s[j - 1]
        s[j] += sig[j]
        acc[j] += d * acc[j - 1]
    s1, vb = acc[:top, 0], acc[:top, 1]
    m = rec_idx - 1 - np.arange(top)[:, None]    # (top, n): m_p at every step, < 0 once past
    on, mc, rows = m >= 0, np.maximum(m, 0), np.arange(n)
    first = np.where(on, s[mc, rows], 0.0)
    alpha = np.where(on, model.split_law.mean * first - sig[mc, rows], 0.0)
    dvf, y = np.zeros((top, n)), np.zeros((n, n))
    for r, qs, p, q, at in tables:
        sums = acc[:r, at:at + len(qs) + len(p)]
        dm = dpow[r - 1::-1]                     # d^m at k = 0 .. r - 1
        dvf[:r, qs] = dm[:, None] * sums[:, :len(qs)]
        y[p, q] = y[q, p] = dpow[rec_idx[p] - r] * (dm * dm @ sums[:, len(qs):])
    # cov: the sum over k of (alpha - d^m f[. + m]) var (same)^T + vb s s^T, expanded
    x = alpha.T @ dvf
    cov = alpha.T @ (alpha * s1[:, None]) - x - x.T + y + first.T @ (first * vb[:, None])
    g0 = fvals.copy()
    for p, r in zip(np.flatnonzero(rec_idx), rec_idx[rec_idx > 0]):
        g0[p, :_width(bg, r)] = 0.0
        g0[p, :n_room] = dpow[r] * fvals[p, r:r + n_room] + sig[r, p]
    return g0, cov


def fluctuation_law(model: RateModel, background: LimitSolution, z0: np.ndarray,
                    panel: Sequence[TestFunction], record_times: Sequence[float]):
    """Exact Gaussian law of the grid pairings dx * (f, z) at the record times.

    Returns ``(mean, cov)`` over the R*P pairings, pairing (r, p) at index
    r*P + p.  One backward sweep carries an adjoint row per pairing; the
    rows of record r start as the panel values when the sweep reaches its
    time index.  Before step k is undone, its noise is paired with the rows
    (a zero row, for a record before step k, adds nothing).  Constant rates
    give the same rows and sums in closed form (:func:`_renewal_law`), equal
    to the sweep's up to rounding, from the background's start row and
    boundary column; a background solved for other rates raises ValueError.
    """
    z0 = np.asarray(z0, dtype=float)
    n_cells = background.values.shape[1]
    if not len(panel) or not len(record_times):
        raise ValueError(f"fluctuation_law needs a panel function and a record time; "
                         f"got panel {panel!r} and record_times {record_times!r}")
    if z0.shape != (n_cells,):
        raise ValueError(f"z0 must hold one value per background cell, shape ({n_cells},); "
                         f"got shape {z0.shape}")
    dx = background.dx
    rec_idx = np.repeat([background.index_at(t) for t in record_times], len(panel))
    fvals = np.tile([np.asarray(f(background.centers), dtype=float) for f in panel],
                    (len(record_times), 1))
    top = rec_idx.max()
    if not top:                 # no step: the start's pairings, without noise
        return dx * (fvals @ z0), np.zeros((rec_idx.size, rec_idx.size))
    if model.constant_rates:
        g, cov = _renewal_law(model, background, rec_idx, fvals)
    else:
        co = _Coeffs(model, background)
        var_cells, var_boundary = _noise_var(model, co.b, co.h, background.values[:-1], dx,
                                             background.dt)
        g = np.where((rec_idx == top)[:, None], fvals, 0.0)
        cov = np.zeros((g.shape[0], g.shape[0]))
        for k in range(top - 1, -1, -1):
            w0, w1 = _width(background, k), _width(background, k + 1)
            gw = g[:, :w0]
            cov += _noise_cov(gw, gw, var_cells[k, :w0], var_boundary[k], model.split_law.mean)
            g = _adjoint_step(g, k, co, w0, w1)
            g[rec_idx == k] = fvals[rec_idx == k]
    return dx * (g @ z0), cov


def simulate_fluctuation_paths(
    model: RateModel,
    background: LimitSolution,
    z0: np.ndarray,
    n_paths: int,
    panel: Sequence[TestFunction],
    record_times: Sequence[float],
    stream_factory: Callable[[int], np.random.Generator],
    block_size: int = 2000,
    law: Optional[tuple] = None,
) -> np.ndarray:
    """Sample the panel pairings of the grid SPDE from their exact law.

    Output shape is (n_paths, len(record_times), len(panel)).  ``law`` is
    :func:`fluctuation_law` of the same arguments when the caller has it.
    Samples come in blocks; block ``i`` draws its standard normals from
    ``stream_factory(i)``, so results do not depend on scheduling.  They map
    through a symmetric square root of the covariance, so a pairing of zero
    variance (a record time of 0) is its mean exactly.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be at least 1, got {block_size}")
    mean, cov = law or fluctuation_law(model, background, z0, panel, record_times)
    lam, vec = np.linalg.eigh(cov)
    root = vec * np.sqrt(np.maximum(lam, 0.0))
    root[np.diag(cov) <= 0.0] = 0.0
    out = np.empty((n_paths, mean.size))
    for i, start in enumerate(range(0, n_paths, block_size)):
        nb = min(block_size, n_paths - start)
        draws = stream_factory(i).standard_normal((nb, mean.size))
        out[start:start + nb] = mean + draws @ root.T
    return out.reshape(n_paths, len(record_times), len(panel))


# ---------------------------------------------------------------------------
# constant-parameter closed forms for the mean and the variance


def classical_exp_mean(lam: float, z0_exp_pairing: float, z0_mass: float,
                       birth: float, death: float, split_mean: float,
                       life_mean: float, t):
    """Exact E[(e^(lam x), Z_t)] for constant parameters, at a time or an array of times.

    ``z0_exp_pairing`` is (e^(lam x), Z_0) and ``z0_mass`` is (1, Z_0).
    """
    n = birth * life_mean + death * split_mean
    if abs(n - lam) < 1e-12:
        growth = n * t * np.exp(n * t)
    else:
        growth = n / (n - lam) * (np.exp(n * t) - np.exp(lam * t))
    return np.exp(-death * t) * (np.exp(lam * t) * z0_exp_pairing
                                 + growth * z0_mass)


def exp_pairing_grid(lam: float, grid: GridDensity) -> float:
    """Exact (e^(lam x), grid) treating the grid as piecewise constant."""
    edges = np.arange(grid.n_cells + 1) * grid.dx
    if lam == 0.0:
        return grid.mass
    cell = (np.exp(lam * edges[1:]) - np.exp(lam * edges[:-1])) / lam
    return float(np.dot(grid.values, cell))


def ito_isometry_variance(lam: float, a0: GridDensity, birth: float, death: float,
                          life_law, split_law, t: float) -> float:
    """Var[(e^(lam x), Z_t)] for constant parameters and deterministic Z_0.

    Built by quadrature from the solved stochastic representation: the
    solution is a double stochastic integral against the mass martingale
    plus a single integral against the e^(lam x) martingale; collapsing the
    double integral by stochastic Fubini leaves deterministic kernels whose
    isometry integral uses the closed-form quadratic covariations.  The
    integral over [0, t] is the adaptive 21-point Gauss-Kronrod rule
    :func:`agestruct.mvf.quad_gk21`.
    """
    lm, l2 = life_law.mean, life_law.second_moment
    sm, s2 = split_law.mean, split_law.second_moment
    n = birth * lm + death * sm
    w = birth * l2 + death * s2
    h = death
    x0 = a0.mass
    # s -> (e^(mu x), limit measure at s) for mu = lam, 2 lam: with constant rates
    # it solves the mean equation from the start pairing (e^(mu x), a0)
    pair_l, pair_2l = (partial(classical_exp_mean, mu, exp_pairing_grid(mu, a0), x0, birth,
                               death, sm, lm) for mu in (lam, 2.0 * lam))

    def integrand(s):
        x_mass = x0 * np.exp((n - h) * s)
        p_l = pair_l(s)
        gamma_00 = (w + h - 2.0 * h * sm) * x_mass
        gamma_0l = (w - h * sm) * x_mass + h * (1.0 - sm) * p_l
        gamma_ll = w * x_mass + h * pair_2l(s) - 2.0 * h * sm * p_l
        if abs(n - lam) < 1e-12:
            ramp = (t - s) * np.exp((n - lam) * s)
        else:
            ramp = (math.exp((n - lam) * t) - np.exp((n - lam) * s)) / (n - lam)
        al = n * math.exp((lam - h) * t) * ramp * np.exp(-(n - h) * s)
        be = np.exp((lam - h) * (t - s))
        return al * al * gamma_00 + 2.0 * al * be * gamma_0l + be * be * gamma_ll

    return quad_gk21(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-10)


def classical_qv_mass(a0_mass: float, birth: float, death: float,
                      life_law, split_law, t: float) -> float:
    """Closed-form quadratic variation of the scaled mass martingale at t."""
    lm = life_law.mean
    sm, s2 = split_law.mean, split_law.second_moment
    n = birth * lm + death * sm
    w = birth * life_law.second_moment + death * s2
    rate = w + death - 2.0 * death * sm
    if abs(n - death) < 1e-12:
        return rate * a0_mass * t
    return rate / (n - death) * a0_mass * (math.exp((n - death) * t) - 1.0)


# ---------------------------------------------------------------------------
# quadratic-variation integrals on a solved background


def covariation_integral_frames(model: RateModel, background: LimitSolution,
                                panel: Sequence[TestFunction], t: float) -> np.ndarray:
    """Quadratic covariation integrals of the panel's martingales to time t, (P, P).

    Uses the literal f(0) (this target is for the event-driven simulator's
    martingales, which deposit at age exactly zero), the midpoint pairing
    against each stored frame and the trapezoid rule in time.
    """
    rates = _qv_rates(model, background.values[: background.index_at(t) + 1], background.dx,
                      panel, [f.at_zero for f in panel])
    return np.trapezoid(rates, dx=background.dt, axis=-1)


# ---------------------------------------------------------------------------
# density-dependent closed-form fluctuation mean


def density_dependent_exp_mean(lam: float, z0_exp_pairing: float, z0_mass: float,
                               model: RateModel, background: LimitSolution,
                               t: float) -> float:
    """E[(e^(lam x), Z_t)] when the rates depend on the total mass only.

    Solves the two-dimensional linear mean system along the limit's total
    mass path: the mass fluctuation mean feeds the e^(lam x) mean through
    the derivative terms; both are reduced to explicit exponentials of
    cumulative integrals evaluated on the background time grid.
    """
    ki = background.index_at(t)
    dt = background.dt
    lm = model.life_law.mean
    sm = model.split_law.mean
    xs = background.totals[: ki + 1]
    times = background.times[: ki + 1]

    def nh(x_mass, deriv):
        b = _rate_of_mass(model.birth, x_mass, deriv)
        h = _rate_of_mass(model.death, x_mass, deriv)
        return b * lm + h * sm, h

    n_vals = np.empty_like(xs)
    h_vals = np.empty_like(xs)
    np_vals = np.empty_like(xs)
    hp_vals = np.empty_like(xs)
    for i, xm in enumerate(xs):
        n_vals[i], h_vals[i] = nh(xm, False)
        np_vals[i], hp_vals[i] = nh(xm, True)

    flam = np.array([
        background.dt * float(np.dot(background.values[i],
                                     np.exp(lam * background.centers)))
        for i in range(ki + 1)
    ])

    # cumulative integrals on the background grid (trapezoid)
    def cum(vals):
        out = np.zeros_like(vals)
        out[1:] = np.cumsum(0.5 * (vals[1:] + vals[:-1])) * dt
        return out

    h_cum = cum(h_vals)
    g_cum = cum(n_vals + (np_vals - hp_vals) * xs)
    phi = n_vals + np_vals * xs - hp_vals * flam
    inner = phi * np.exp(-lam * times + g_cum)
    inner_int = float(np.trapezoid(inner, dx=dt))
    return math.exp(lam * t - h_cum[-1]) * (z0_exp_pairing + z0_mass * inner_int)
