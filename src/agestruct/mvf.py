"""Deterministic large-population limit of the age structure.

The limit density a(x, t) satisfies a transport equation with a nonlocal
death term and a renewal boundary condition: along characteristics ages
advance at unit speed, mass decays at the (population-dependent) death rate,
and the age-zero boundary receives the combined newborn flux.  The solver
uses a characteristics-aligned grid (dx = dt, exact one-cell shift per step)
so the transport term carries no numerical diffusion; the reaction and
boundary terms make the scheme first-order accurate in dt.  Constant rates
take it in closed form, from the start row and a scalar boundary recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .measures import GridDensity, PointMasses, pair
from .rates import ConstantRate, DensityRate, ModelError, RateModel

__all__ = [
    "GridRates",
    "LimitSolution",
    "QuadratureError",
    "quad_gk21",
    "solve_mvf",
    "classical_exact",
    "classical_pairing",
    "solve_total_ode",
    "logistic_exact",
]

_GL10_NODES, _GL10_WEIGHTS = np.polynomial.legendre.leggauss(10)

# QUADPACK's qk21 (Piessens et al. 1983): the 10-point Gauss nodes interleaved
# with the 11 Kronrod nodes that extend them, and the Kronrod weights of all 21
_K21_ADDED = np.array([0.2943928627014602, 0.5627571346686047, 0.7808177265864169,
                       0.9301574913557082, 0.9956571630258081])
_K21_NODES = np.sort(np.concatenate([_GL10_NODES, -_K21_ADDED, [0.0], _K21_ADDED]))
_K21_WEIGHTS = np.array([
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
    0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
    0.14277593857706009, 0.14773910490133849, 0.1494455540029169])
_K21_WEIGHTS = np.concatenate([_K21_WEIGHTS, _K21_WEIGHTS[-2::-1]])
_EPS = np.finfo(float).eps
_GK21_LIMIT = 200  # subintervals before quad_gk21 gives up


class QuadratureError(ArithmeticError):
    """An adaptive quadrature missed its tolerance within its subinterval limit."""


def quad_gk21(fn: Callable, a: float, b: float, *, epsabs: float, epsrel: float) -> float:
    """Adaptive 21-point Gauss-Kronrod integral of a vectorised ``fn`` over [a, b].

    Evaluates all active subintervals in one call of ``fn``.  Until the qk21
    error estimates sum to max(epsabs, epsrel*|I|), bisects those exceeding
    their share of it; raises :class:`QuadratureError` rather than use more
    than ``_GK21_LIMIT`` subintervals.
    """
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    done_val = done_err = 0.0
    n_intervals = 1
    while True:
        half = 0.5 * (hi - lo)
        fv = np.asarray(fn((lo + half)[:, None] + half[:, None] * _K21_NODES), dtype=float)
        resk = fv @ _K21_WEIGHTS
        err = np.abs(half * (resk - fv[:, 1::2] @ _GL10_WEIGHTS))
        asc = np.abs(half) * (np.abs(fv - 0.5 * resk[:, None]) @ _K21_WEIGHTS)
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where(asc > 0.0, asc * np.minimum(1.0, (200.0 * err / asc) ** 1.5), err)
        err = np.maximum(err, 50.0 * _EPS * np.abs(half) * (np.abs(fv) @ _K21_WEIGHTS))
        val = half * resk
        total = done_val + float(val.sum())
        tol = max(epsabs, epsrel * abs(total))
        if done_err + float(err.sum()) <= tol:
            return total
        split = ~(err <= tol * (hi - lo) / (b - a))
        n_intervals += int(split.sum())
        if not split.any() or n_intervals > _GK21_LIMIT:
            raise QuadratureError(f"integral over [{a:g}, {b:g}] missed tolerance {tol:g} "
                                  f"within {_GK21_LIMIT} subintervals")
        done_val += float(val[~split].sum())
        done_err += float(err[~split].sum())
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])


# Largest |alpha (y - ref)| of an exp_decay factor in the grid's prefix sums: e^600 times
# any grid row stays far inside the float range, and e^-600 is normal.
_EXP_FACTOR_MAX = 600.0


class GridRates:
    """A model's rates on one characteristics grid of ``n_cells`` cells.

    Pairs each interaction kernel with grid rows (:meth:`pair`) at the ages
    the grid layers evaluate at (the cell centers and the left cell edges,
    i.e. the characteristic midpoints of a step) against the cell centers.
    :meth:`at` then gives the measure view the rate families read, for one
    frame (J,) or a stack of frames (n, J).
    """

    def __init__(self, model: RateModel, dx: float, n_cells: int):
        self.model = model
        self.dx = dx
        self.centers = (np.arange(n_cells) + 0.5) * dx
        self.edges = self.centers - 0.5 * dx
        self._factors, self._matrices = {}, {}
        for kern in model.kernels:
            if kern.kind == "exp_decay" and kern.alpha * n_cells * dx <= 2 * _EXP_FACTOR_MAX:
                y = kern.alpha * dx * (np.arange(n_cells) - 0.5 * (n_cells - 1))
                self._factors[kern] = (np.exp(-y), np.exp(y))
            elif kern.kind != "constant":
                self._matrices[kern] = (kern(self.centers[:, None], self.centers),
                                        kern(self.edges[:, None], self.centers))

    def at(self, values: np.ndarray) -> "_GridFrames":
        return _GridFrames(self, values)

    def pair(self, kernel, values: np.ndarray, edges: bool = False,
             sums: Optional[dict] = None) -> np.ndarray:
        """dx * sum_j g(x_i, y_j) v_j for rows ``values`` (..., w), w <= J, at the first w
        centers (or left edges) x_i and centers y_j.  An exp_decay kernel takes one
        sequential cumsum each of the rows scaled by its factors e^(-+alpha (y_j - ref)),
        so a frame gives the same bits alone as in a stack; ``sums`` keeps them per
        kernel, for the other pairing of the same rows.  A constant kernel is
        c dx sum(v).  A Gaussian kernel, or an exp_decay one whose factors would pass
        e^(+-_EXP_FACTOR_MAX), takes the product with its dense matrices."""
        w, c = values.shape[-1], kernel.c * self.dx
        if kernel in self._matrices:
            g = self._matrices[kernel][edges][:w, :w]
            return self.dx * (values[..., None, :] @ g.T)[..., 0, :]
        if kernel.kind == "constant":
            return np.repeat(c * values.sum(axis=-1, keepdims=True), w, axis=-1)
        sums = {} if sums is None else sums
        if kernel not in sums:
            lo, hi = (f[:w] for f in self._factors[kernel])
            sums[kernel] = (lo * np.cumsum(hi * values, axis=-1),     # cells at and left of y_i
                            hi * np.cumsum((lo * values)[..., ::-1], axis=-1)[..., ::-1])
        left, right = sums[kernel]
        if not edges:
            return c * (left + right - values)
        right = right.copy()
        right[..., 1:] += left[..., :-1]                  # left of edge i: left of y_(i-1)
        return c * math.exp(-0.5 * kernel.alpha * self.dx) * right


class _GridFrames:
    """Measure view of grid frames: ``mass`` and ``kernel_pair`` per frame.  Its
    pairings at the centers and at the edges read one set of prefix sums."""

    def __init__(self, grid: GridRates, values: np.ndarray):
        self.grid = grid
        self.values = values
        self.sums = {}

    def birth_death(self):
        """Birth and death rates at the cell centers against each frame."""
        model, x = self.grid.model, self.grid.centers
        return model.birth_rate(x, self), model.death_rate(x, self)

    @property
    def mass(self):
        return self.grid.dx * self.values.sum(axis=-1, keepdims=self.values.ndim > 1)

    def kernel_pair(self, kernel, xs):
        """(g(x, .), frame) for each x in xs, one row per frame (:meth:`GridRates.pair`);
        ``xs`` must be the grid's ``centers`` or ``edges``."""
        grid = self.grid
        if xs is not grid.centers and xs is not grid.edges:
            raise ValueError("grid frames pair a kernel only at the grid's centers or edges")
        return grid.pair(kernel, self.values, xs is grid.edges, self.sums)


@dataclass(frozen=True)
class LimitSolution:
    """Density frames on the characteristics grid at its ``times``, read by time.

    A solve holds every step's frame, nonnegative (:meth:`frame` checks); a fluctuation
    mean (:func:`agestruct.spde.evolve_mean`) holds its record frames, ``signed``.
    It holds its frames alone: the SPDE layer derives its coefficients per call.
    """

    dt: float
    times: np.ndarray           # (n_times,), multiples of dt
    values: np.ndarray          # (n_times, n_cells), density at cell centers
    a_star: float
    signed: bool = False

    @property
    def dx(self) -> float:
        return self.dt

    @property
    def t_star(self) -> float:
        return self.dt * self.values.shape[1]

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.values.shape[1]) + 0.5) * self.dt

    @property
    def totals(self) -> np.ndarray:
        return self.dt * self.values.sum(axis=1)

    def frame(self, i: int) -> GridDensity:
        return GridDensity(dx=self.dt, values=self.values[i], signed=self.signed)

    def frame_at(self, t: float) -> GridDensity:
        return self.frame(self.index_at(t))

    def index_at(self, t: float) -> int:
        i = int(np.abs(self.times - t).argmin())
        if not abs(self.times[i] - t) <= 1e-9:
            raise ValueError(f"time {t} is not a time of this solution")
        return i


def _renewal_frames(out: np.ndarray, col, row, d: float, ks) -> np.ndarray:
    """Fill and return ``out``, whose row i is constant-rate frame k = ks[i]:
    col[k - j] d^j at cells j < k, then d^k row[j - k] to the row's end; cells past
    it keep their values.  Powers of d, not quotients: no overflow where d^k underflows."""
    dpow = d ** np.arange(max(ks) + 1)
    for k, frame in zip(ks, out):
        np.multiply(col[k:0:-1], dpow[:k], out=frame[:k])
        np.multiply(row[:frame.size - k], dpow[k], out=frame[k:k + row.size])
    return out


def solve_mvf(model: RateModel, a0: GridDensity, horizon: float) -> LimitSolution:
    """March the limit density to the horizon on ``a0``'s grid, one step dt = dx.

    Each step shifts all cells right by one (exact transport), applies a
    survival factor exp(-death*dt) with the death rate taken from a
    predictor-corrector pass (predict with the current measure, correct with
    the average of current and predicted states), and fills the boundary
    cell with the newborn flux dt * (newborn_rate, a), also corrector-
    averaged.  Constant rates (McKendrick-von Foerster) take that scheme in
    closed form: the frames are the start row and the boundary column, decayed
    (:func:`_renewal_frames`), and the column follows from the frame sums by the
    scheme's scalar recursion.  The initial density must vanish on the last
    `horizon` worth of cells so no mass is ever shifted off the grid.
    """
    dt = a0.dx
    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-9:
        raise ValueError("horizon must be an integer number of steps")
    n_cells = a0.n_cells
    n_room = n_cells - n_steps
    if n_room < 1:
        raise ValueError(
            "grid too short: need at least one initial-support cell plus one "
            "cell per time step (t_star >= horizon + dx)"
        )
    if np.any(np.abs(a0.values[n_room:]) > 1e-12):
        raise ValueError("initial density has mass within `horizon` of the grid end")
    a_star = n_room * dt

    grid = GridRates(model, dt, n_cells)
    lm = model.life_law.mean
    sm = model.split_law.mean

    def rows(a):
        """Death rates at the characteristic midpoints of cells >= 1 against
        ``a``, and the newborn rate at the cell centers."""
        mu = grid.at(a)
        b, h = mu.birth_death()
        return model.death_rate(grid.edges, mu)[1:], b * lm + h * sm

    def negative(k):
        return ModelError(f"transport scheme produced a negative density "
                          f"{values[k].min():g} at step {k} (t = {k * dt:g})")

    values = np.empty((n_steps + 1, n_cells))
    values[0] = a0.values
    if model.constant_rates:
        d, n = math.exp(-dt * model.death.value), model.birth.value * lm + model.death.value * sm
        col, s = np.empty(n_steps + 1), float(np.sum(a0.values))        # s: frame k's sum
        for k in range(n_steps):        # corrector flux n s, n (d s + dt n s): no mass leaves
            col[k + 1] = dt * 0.5 * (n * s + n * (d * s + dt * (n * s)))
            s = d * s + col[k + 1]
        _renewal_frames(values, col, a0.values, d, range(n_steps + 1))
        bad = np.flatnonzero(~(values[1:].min(axis=1) >= -1e-12))
        if bad.size:
            raise negative(int(bad[0]) + 1)
    else:
        for k in range(n_steps):
            v, new = values[k], values[k + 1]
            h_now, newborn = rows(v)
            flux_now = float(np.sum(newborn * v))
            new[1:] = v[:-1] * np.exp(-dt * h_now)        # the predictor
            new[0] = dt * flux_now
            h_pred, newborn = rows(np.maximum(new, 0.0))
            flux_pred = float(np.sum(newborn * new))
            new[1:] = v[:-1] * np.exp(-dt * 0.5 * (h_now + h_pred))
            new[0] = dt * 0.5 * (flux_now + flux_pred)
            if not new.min() >= -1e-12:
                raise negative(k + 1)

    times = dt * np.arange(n_steps + 1)
    return LimitSolution(dt=dt, times=times, values=values, a_star=a_star)


# ---------------------------------------------------------------------------
# constant-parameter closed forms


def classical_exact(a0: GridDensity, birth: float, death: float,
                    split_mean: float, life_mean: float, t: float) -> GridDensity:
    """Exact constant-parameter density at time t, sampled on the grid of a0.

    For ages beyond t the initial profile is transported and thinned by
    exp(-death*t); younger ages carry the renewal solution
    newborn_rate * X_0 * exp((newborn_rate - death)(t - x)) * exp(-death*x).
    ``t`` must be a multiple of the grid spacing.  For constant rates the
    fluctuation mean obeys the same equation, so a signed ``a0`` (a mean
    fluctuation start) gives the signed mean fluctuation at t.
    """
    dx = a0.dx
    m = int(round(t / dx))
    if abs(m * dx - t) > 1e-9:
        raise ValueError("t must sit on the grid (multiple of dx)")
    n = birth * life_mean + death * split_mean
    x0 = a0.mass
    centers = a0.centers
    out = np.zeros_like(a0.values)
    if m > 0:
        xs = centers[:m]
        out[:m] = n * x0 * np.exp((n - death) * (t - xs)) * np.exp(-death * xs)
    if m < a0.n_cells:
        out[m:] = a0.values[: a0.n_cells - m] * math.exp(-death * t)
    return GridDensity(dx=dx, values=out, signed=a0.signed)


def classical_pairing(f: Callable, a0: Union[GridDensity, PointMasses], birth: float,
                      death: float, split_mean: float, life_mean: float, t: float) -> float:
    """Exact (f, limit measure at t) for constant parameters.

    Integrates f against the transported initial measure (a grid cell by
    cell with 10-point Gauss-Legendre, atoms exactly) and against the
    renewal branch with the adaptive Gauss-Kronrod rule :func:`quad_gk21`;
    accurate to quadrature precision, independent of any marching scheme.
    """
    n = birth * life_mean + death * split_mean
    x0 = a0.mass
    # survivors: exp(-death*t) * (f(. + t), a0), a grid's as sum_j a0_j * int_{cell_j} f(x + t)
    if isinstance(a0, PointMasses):
        shifted = pair(lambda x: f(x + t), a0)
    else:
        dx = a0.dx
        nodes = (np.arange(a0.n_cells) * dx + t)[:, None] + 0.5 * dx * (_GL10_NODES[None, :] + 1.0)
        cell_ints = 0.5 * dx * (np.asarray(f(nodes)) @ _GL10_WEIGHTS)
        shifted = float(np.dot(a0.values, cell_ints))
    survivors = math.exp(-death * t) * shifted
    if t <= 0.0:
        return survivors
    return survivors + quad_gk21(
        lambda x: f(x) * n * x0 * np.exp((n - death) * (t - x)) * np.exp(-death * x),
        0.0, t, epsabs=1e-12, epsrel=1e-11)


# ---------------------------------------------------------------------------
# total-mass dynamics for density-dependent rates


def _rate_of_mass(rate_fn, x_mass: float, deriv: bool = False) -> float:
    """The rate at total mass ``x_mass``, or with ``deriv`` its derivative in the mass."""
    if isinstance(rate_fn, ConstantRate):
        return 0.0 if deriv else rate_fn.value
    if isinstance(rate_fn, DensityRate) and rate_fn.age is None:
        return rate_fn.b if deriv else rate_fn.a + rate_fn.b * x_mass
    raise ValueError("total-mass dynamics need density-dependent (or constant) rates")


def solve_total_ode(model: RateModel, x0: float, horizon: float, dt: float):
    """Classical RK4 for the total mass X' = (newborn(X) - death(X)) * X.

    Valid when the rates depend on the population only through its total
    mass.  Returns (times, X values); fourth-order accurate in dt.
    """
    lm = model.life_law.mean
    sm = model.split_law.mean

    def growth(x):
        b = _rate_of_mass(model.birth, x)
        h = _rate_of_mass(model.death, x)
        return (b * lm + h * sm - h) * x

    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-9:
        raise ValueError("horizon must be an integer number of steps")
    xs = np.empty(n_steps + 1)
    xs[0] = x0
    x = float(x0)
    for k in range(n_steps):
        k1 = growth(x)
        k2 = growth(x + 0.5 * dt * k1)
        k3 = growth(x + 0.5 * dt * k2)
        k4 = growth(x + dt * k3)
        x += dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        xs[k + 1] = x
    return dt * np.arange(n_steps + 1), xs


def logistic_exact(x0: float, t: Union[float, np.ndarray]):
    """Closed-form solution of X' = X(1 - X), the order-check oracle."""
    t = np.asarray(t, dtype=float)
    return x0 / (x0 + (1.0 - x0) * np.exp(-t))
