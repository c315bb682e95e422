"""Deterministic large-population limit of the age structure.

The limit density a(x, t) satisfies a transport equation with a nonlocal
death term and a renewal boundary condition: along characteristics ages
advance at unit speed, mass decays at the (population-dependent) death rate,
and the age-zero boundary receives the combined newborn flux.  The solver
uses a characteristics-aligned grid (dx = dt, exact one-cell shift per step)
so the transport term carries no numerical diffusion; the reaction and
boundary terms make the scheme first-order accurate in dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

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

    def birth_death(self, values: np.ndarray):
        """Birth and death rates at the cell centers against each frame."""
        mu = self.at(values)
        return (self.model.birth_rate(self.centers, mu),
                self.model.death_rate(self.centers, mu))

    def pair(self, kernel, values: np.ndarray, edges: bool = False) -> np.ndarray:
        """dx * sum_j g(x_i, y_j) v_j for rows ``values`` (..., w), w <= J, at the first w
        centers (or left edges) x_i and centers y_j.  An exp_decay kernel takes one
        sequential cumsum each of the rows scaled by its factors e^(-+alpha (y_j - ref)),
        so a frame gives the same bits alone as in a stack; a constant kernel is
        c dx sum(v).  A Gaussian kernel, or an exp_decay one whose factors would pass
        e^(+-_EXP_FACTOR_MAX), takes the product with its dense matrices."""
        w, c = values.shape[-1], kernel.c * self.dx
        if kernel in self._matrices:
            g = self._matrices[kernel][edges][:w, :w]
            return self.dx * (values[..., None, :] @ g.T)[..., 0, :]
        if kernel.kind == "constant":
            return np.repeat(c * values.sum(axis=-1, keepdims=True), w, axis=-1)
        lo, hi = (f[:w] for f in self._factors[kernel])
        left = lo * np.cumsum(hi * values, axis=-1)       # cells at and left of y_i
        right = hi * np.cumsum((lo * values)[..., ::-1], axis=-1)[..., ::-1]
        if not edges:
            return c * (left + right - values)
        right[..., 1:] += left[..., :-1]                  # left of edge i: left of y_(i-1)
        return c * math.exp(-0.5 * kernel.alpha * self.dx) * right


class _GridFrames:
    """Measure view of grid frames: ``mass`` and ``kernel_pair`` per frame."""

    def __init__(self, grid: GridRates, values: np.ndarray):
        self.grid = grid
        self.values = values

    @property
    def mass(self):
        return self.grid.dx * self.values.sum(axis=-1, keepdims=self.values.ndim > 1)

    def kernel_pair(self, kernel, xs):
        """(g(x, .), frame) for each x in xs, one row per frame (:meth:`GridRates.pair`);
        ``xs`` must be the grid's ``centers`` or ``edges``."""
        grid = self.grid
        if xs is not grid.centers and xs is not grid.edges:
            raise ValueError("grid frames pair a kernel only at the grid's centers or edges")
        return grid.pair(kernel, self.values, xs is grid.edges)


@dataclass(frozen=True)
class LimitSolution:
    """Density frames on the characteristics grid, one per time step.

    Limit-density frames are nonnegative (:meth:`frame` checks); frames of a
    fluctuation mean (:func:`agestruct.spde.evolve_mean`) are ``signed``.
    """

    dt: float
    times: np.ndarray           # (n_times,)
    values: np.ndarray          # (n_times, n_cells), density at cell centers
    a_star: float
    signed: bool = False
    # per-model quantities later layers derive from these frames, kept as
    # long as the frames (the SPDE coefficients of agestruct.spde)
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        i = int(round(t / self.dt))
        if abs(i * self.dt - t) > 1e-9 or not 0 <= i < self.values.shape[0]:
            raise ValueError(f"time {t} is not on the solution grid")
        return i

    def pairings(self, f: Callable) -> np.ndarray:
        """(f, frame) for every stored time."""
        fv = np.asarray(f(self.centers), dtype=float)
        return self.dt * (self.values @ fv)


def solve_mvf(model: RateModel, a0: GridDensity, horizon: float, dt: float) -> LimitSolution:
    """March the limit density to the horizon on a dx = dt grid.

    Each step shifts all cells right by one (exact transport), applies a
    survival factor exp(-death*dt) with the death rate taken from a
    predictor-corrector pass (predict with the current measure, correct with
    the average of current and predicted states), and fills the boundary
    cell with the newborn flux dt * (newborn_rate, a), also corrector-
    averaged.  The initial density must vanish on the last `horizon` worth
    of cells so no mass is ever shifted off the grid.
    """
    if abs(a0.dx - dt) > 1e-12:
        raise ValueError(f"grid spacing {a0.dx} must equal the time step {dt}")
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
        b, h = grid.birth_death(a)
        return model.death_rate(grid.edges, grid.at(a))[1:], b * lm + h * sm

    # state-free rates are the same against every state: form them once
    fixed = rows(a0.values) if model.birth.is_constant and model.death.is_constant else None

    def rates(a, v):
        """The rows against ``a`` and the newborn flux (1/dx)*(newborn_rate(a), v)."""
        h_mid, newborn = fixed or rows(a)
        return h_mid, float(np.sum(newborn * v))

    values = np.empty((n_steps + 1, n_cells))
    values[0] = a0.values
    v = a0.values.copy()
    shifted = np.empty_like(v)
    for k in range(n_steps):
        shifted[1:] = v[:-1]
        shifted[0] = 0.0
        h_now, flux_now = rates(v, v)

        pred = shifted.copy()
        pred[1:] *= np.exp(-dt * h_now)
        pred[0] = dt * flux_now
        h_pred, flux_pred = rates(np.maximum(pred, 0.0), pred)

        new = shifted
        new[1:] *= np.exp(-dt * 0.5 * (h_now + h_pred))
        new[0] = dt * 0.5 * (flux_now + flux_pred)
        if not new.min() >= -1e-12:
            raise ModelError(f"transport scheme produced a negative density "
                             f"{new.min():g} at step {k + 1} (t = {(k + 1) * dt:g})")
        values[k + 1] = new
        v = new.copy()

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
    if isinstance(rate_fn, DensityRate):
        return rate_fn.fn.deriv(x_mass) if deriv else rate_fn.fn(x_mass)
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
