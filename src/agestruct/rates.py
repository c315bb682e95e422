"""Demographic rates and their dependence on the population measure.

A model bundles a per-capita birth rate and death rate (each a function of
age and of the normalised population measure), one offspring law for births
during life and one for splitting at death, and declared sup bounds on the
rates, which the thinning simulator draws its candidates against (a kernel
rate may prove a lower one from the live count alone).  Four built-in
families are provided, ordered by generality of the population dependence:

* ``classical``          -- constant rates;
* ``density_dependent``  -- rates are functions of the total mass only;
* ``age_density``        -- separable functions of age and total mass;
* ``kernel_linear``      -- functions of age, total mass and a kernel
  average ``(g(x, .), A)``.

Each family carries the closed-form terms of its directional (Frechet)
derivative with respect to the measure (``frechet_terms``), which drive the
fluctuation-limit solver.

Rates read the measure through a view with ``mass`` and
``kernel_pair(kernel, xs)``: the event simulator's
:class:`~agestruct.branching.Population`, or the grid layers'
:meth:`agestruct.mvf.GridRates.at` (one frame or a stack of frames).  Each
view pairs a kernel only at its own ages and raises ``ValueError`` at any
other: the population at its live individuals (one float age, the thinning
candidate's, or the array of all live ages), the grid view at its cell
centers or edges.  A rate evaluated at one float age builds no array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "ModelError",
    "OffspringLaw",
    "ScalarFn",
    "AgeProfile",
    "Kernel",
    "ConstantRate",
    "DensityRate",
    "AgeDensityRate",
    "KernelRate",
    "RateModel",
    "classical_model",
    "pure_splitting",
]

class ModelError(RuntimeError):
    """A rate evaluation violated the model contract (sign or sup bound)."""


# ---------------------------------------------------------------------------
# offspring laws


@dataclass(frozen=True)
class OffspringLaw:
    """Integer offspring-count law with explicit mean and second moment.

    All laws have bounded support (``cap``); the Poisson law is truncated at
    the cap, which is set far enough out that the declared moments hold to
    well below Monte Carlo resolution.
    """

    kind: str  # "deterministic" | "poisson" | "two_point"
    k: int = 0
    rate: float = 0.0
    p: float = 0.5
    k1: int = 0
    k2: int = 0
    cap: int = 0

    @classmethod
    def deterministic(cls, k: int) -> "OffspringLaw":
        return cls(kind="deterministic", k=int(k), cap=int(k))

    @classmethod
    def poisson(cls, mean: float, cap: Optional[int] = None) -> "OffspringLaw":
        if mean < 0:
            raise ValueError("poisson mean must be nonnegative")
        if cap is None:
            cap = int(math.ceil(mean + 12.0 * math.sqrt(mean + 1.0) + 12.0))
        return cls(kind="poisson", rate=float(mean), cap=int(cap))

    @classmethod
    def two_point(cls, p: float, k1: int, k2: int) -> "OffspringLaw":
        if not 0.0 <= p <= 1.0:
            raise ValueError("two_point probability must be in [0, 1]")
        return cls(kind="two_point", p=float(p), k1=int(k1), k2=int(k2),
                   cap=max(int(k1), int(k2)))

    @property
    def mean(self) -> float:
        if self.kind == "deterministic":
            return float(self.k)
        if self.kind == "poisson":
            return self.rate
        return self.p * self.k1 + (1.0 - self.p) * self.k2

    @property
    def second_moment(self) -> float:
        if self.kind == "deterministic":
            return float(self.k) ** 2
        if self.kind == "poisson":
            return self.rate + self.rate ** 2
        return self.p * self.k1 ** 2 + (1.0 - self.p) * self.k2 ** 2

    def sample(self, next_u: Callable[[], float], rng: np.random.Generator) -> int:
        """Draw one brood in [0, cap].

        A two-point law spends one uniform from ``next_u``; a Poisson law
        draws from ``rng`` directly.
        """
        if self.kind == "deterministic":
            return self.k
        if self.kind == "poisson":
            return min(int(rng.poisson(self.rate)), self.cap)
        return self.k1 if next_u() < self.p else self.k2


# ---------------------------------------------------------------------------
# parameter building blocks


@dataclass(frozen=True)
class ScalarFn:
    """Scalar function of the total mass X: constant c, or affine a + b*X."""

    kind: str
    a: float = 0.0
    b: float = 0.0

    @classmethod
    def constant(cls, c: float) -> "ScalarFn":
        return cls(kind="constant", a=float(c))

    @classmethod
    def affine(cls, a: float, b: float) -> "ScalarFn":
        return cls(kind="affine", a=float(a), b=float(b))

    def __call__(self, x_mass: float) -> float:
        if self.kind == "constant":
            return self.a
        return self.a + self.b * x_mass

    def deriv(self, x_mass: float) -> float:
        if self.kind == "constant":
            return 0.0
        return self.b


def _check_fields(obj, kinds: tuple[str, ...]) -> None:
    """Reject an unknown kind or an unusable c, alpha or sigma, naming the field."""
    name = type(obj).__name__
    if obj.kind not in kinds:
        raise ValueError(f"{name} kind must be one of {', '.join(kinds)}; got {obj.kind!r}")
    if not math.isfinite(obj.c):
        raise ValueError(f"{name} c must be finite; got {obj.c!r}")
    if not (math.isfinite(obj.alpha) and obj.alpha >= 0.0):
        raise ValueError(f"{name} alpha must be finite and >= 0; got {obj.alpha!r}")
    if not obj.sigma > 0.0:
        raise ValueError(f"{name} sigma must be > 0; got {obj.sigma!r}")


@dataclass(frozen=True)
class AgeProfile:
    """Bounded age profile r(x): constant, exponential decay, or Gaussian hump."""

    kind: str
    c: float = 1.0
    alpha: float = 0.0
    center: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        _check_fields(self, ("constant", "exp_decay", "gaussian"))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.c)
        if self.kind == "exp_decay":
            return self.c * np.exp(-self.alpha * x)
        return self.c * np.exp(-((x - self.center) ** 2) / (2.0 * self.sigma ** 2))

    def scalar(self, x: float) -> float:
        """r(x) for one float, with ``math``: ``self(x)`` to within an ulp."""
        if self.kind == "constant":
            return self.c
        if self.kind == "exp_decay":
            return self.c * math.exp(-self.alpha * x)
        return self.c * math.exp(-((x - self.center) ** 2) / (2.0 * self.sigma ** 2))


@dataclass(frozen=True)
class Kernel:
    """Interaction kernel g(x, y) on [0, T*]^2, a function of x - y."""

    kind: str
    c: float = 1.0
    alpha: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        _check_fields(self, ("constant", "exp_decay", "gaussian"))
        # kernels key the live-set and grid pairing caches: hash once, floats only (pickle-safe)
        object.__setattr__(self, "_hash", hash((self.c, self.alpha, self.sigma)))

    def __hash__(self):
        return self._hash

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(np.float64(self.c), np.broadcast_shapes(x.shape, y.shape)).copy()
        if self.kind == "exp_decay":
            return self.c * np.exp(-self.alpha * np.abs(x - y))
        return self.c * np.exp(-((x - y) ** 2) / (2.0 * self.sigma ** 2))


# ---------------------------------------------------------------------------
# rate families


class ConstantRate:
    """Age- and population-independent rate (the classical family)."""

    family = "classical"

    def __init__(self, value: float):
        if value < 0:
            raise ModelError(f"constant rate must be nonnegative, got {value}")
        self.value = float(value)

    is_constant = True

    def eval(self, x, mu):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, self.value) if x.ndim else self.value

    def frechet_terms(self, xs, mu0):
        return np.zeros_like(np.asarray(xs, dtype=float)), None, None


class DensityRate:
    """Rate q(|A|): depends on the total mass only."""

    family = "density_dependent"
    is_constant = False

    def __init__(self, fn: ScalarFn):
        self.fn = fn

    def eval(self, x, mu):
        x = np.asarray(x, dtype=float)
        v = self.fn(mu.mass)
        return v * np.ones_like(x) if x.ndim else v

    def frechet_terms(self, xs, mu0):
        xs = np.asarray(xs, dtype=float)
        u = np.full_like(xs, self.fn.deriv(mu0.mass))
        return u, None, None


class AgeDensityRate:
    """Separable rate r(x) * s(|A|)."""

    family = "age_density"
    is_constant = False

    def __init__(self, age: AgeProfile, fn: ScalarFn):
        self.age = age
        self.fn = fn

    def eval(self, x, mu):
        return self.age(x) * self.fn(mu.mass)

    def frechet_terms(self, xs, mu0):
        xs = np.asarray(xs, dtype=float)
        u = self.age(xs) * self.fn.deriv(mu0.mass)
        return u, None, None


# Relative widening of a kernel rate's phi range (KernelRate.bounds).
_ENVELOPE_MARGIN = 1e-7


class KernelRate:
    """Rate r(x) * phi(|A|, (g(x,.), A)) with an explicit kernel g.

    Supported phi forms (y = total mass, z = kernel average):

    * ``affine``  -- c0 + cy*y + cz*z
    * ``special`` -- d0 + d1 * z / (1 + y)
    * ``inv1p``   -- c / (1 + y)
    """

    family = "kernel_linear"
    is_constant = False

    def __init__(self, kernel: Kernel, phi: str, *, age: Optional[AgeProfile] = None,
                 c0: float = 0.0, cy: float = 0.0, cz: float = 0.0,
                 d0: float = 0.0, d1: float = 0.0, c: float = 0.0):
        if phi not in ("affine", "special", "inv1p"):
            raise ValueError(f"unknown kernel-rate form {phi!r}")
        self.kernel = kernel
        self.phi = phi
        self.age = age if age is not None else AgeProfile(kind="constant", c=1.0)
        self.c0, self.cy, self.cz = float(c0), float(cy), float(cz)
        self.d0, self.d1 = float(d0), float(d1)
        self.c = float(c)

    def _phi(self, y, z):
        if self.phi == "affine":
            return self.c0 + self.cy * y + self.cz * z
        if self.phi == "special":
            return self.d0 + self.d1 * z / (1.0 + y)
        return self.c / (1.0 + y)

    def _phi_y(self, y, z):
        if self.phi == "affine":
            return self.cy * np.ones_like(z)
        if self.phi == "special":
            return -self.d1 * z / (1.0 + y) ** 2
        return -self.c / (1.0 + y) ** 2 * np.ones_like(z)

    def _phi_z(self, y, z):
        if self.phi == "affine":
            return self.cz * np.ones_like(z)
        if self.phi == "special":
            return self.d1 / (1.0 + y) * np.ones_like(z)
        return np.zeros_like(z)

    def eval(self, x, mu):
        # x is one float age (a numpy float too: no arrays) or an array of
        # ages the view holds (see its kernel_pair)
        age = self.age.scalar(x) if isinstance(x, float) else self.age(x)
        return age * self._phi(mu.mass, mu.kernel_pair(self.kernel, x))

    def bounds(self, n: int, k: int, sup: float) -> tuple[float, float, float]:
        """(bound, lo, hi) among ``n`` live individuals at normalisation ``k``,
        without a pairing.  g / c lies in [0, 1] and is 1 at x itself, so
        z = (g(x, .), A) / k lies between c / k and c * y for y = n / k (a
        constant kernel: z = c * y), and phi, affine in z, lies in [lo, hi]:
        widened by ``_ENVELOPE_MARGIN`` times the size of phi's terms, far
        above the rounding of the exact rate (the live-set sum is pairwise:
        a relative error of about eps log2 n).
        The rate at age x lies between r(x) lo and r(x) hi; r lies between 0
        and the age profile's c at x >= 0, so the rate is at most ``bound``,
        max(0, c lo, c hi) capped at ``sup``.
        """
        y = n / k
        z = self.kernel.c * y
        lo = self._phi(y, z)
        hi = lo if self.kernel.kind == "constant" else self._phi(y, self.kernel.c / k)
        tol = _ENVELOPE_MARGIN * (
            abs(self.c0) + abs(self.cy) * y + abs(self.d0) + abs(self.c) / (1.0 + y)
            + (abs(self.cz) + abs(self.d1) / (1.0 + y)) * abs(z))
        lo, hi = min(lo, hi) - tol, max(lo, hi) + tol
        return min(sup, max(0.0, self.age.c * lo, self.age.c * hi)), lo, hi

    def frechet_terms(self, xs, mu0):
        xs = np.asarray(xs, dtype=float)
        y = mu0.mass
        z = mu0.kernel_pair(self.kernel, xs)
        r = self.age(xs)
        return r * self._phi_y(y, z), r * self._phi_z(y, z), self.kernel


RateFn = Union[ConstantRate, DensityRate, AgeDensityRate, KernelRate]


# ---------------------------------------------------------------------------
# the model


@dataclass(frozen=True)
class RateModel:
    """Demographic sextuple: birth/death rates plus the two offspring laws.

    ``birth_sup`` and ``death_sup`` are the declared sup bounds, finite,
    >= 0 and at least a constant rate; every rate evaluation must stay
    within them.  The thinning simulator draws candidates against them, or
    against a kernel rate's bound at the live count where that is lower
    (:meth:`KernelRate.bounds`).  The optional
    ``k_perturbation(name, x, K)`` hook adds a K-dependent term of size
    o(1/sqrt(K)) to the named rate; the built-in families are K-independent
    so the finite-K and limit parameterisations coincide.
    """

    family: str
    birth: RateFn
    death: RateFn
    life_law: OffspringLaw
    split_law: OffspringLaw
    birth_sup: float
    death_sup: float
    k_perturbation: Optional[Callable[[str, np.ndarray, int], np.ndarray]] = None

    def __post_init__(self):
        for name, rate in (("birth_sup", self.birth), ("death_sup", self.death)):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"RateModel {name} must be finite and >= 0; got {v!r}")
            # the simulator never evaluates a constant rate, so never checks it
            if rate.is_constant and rate.value > v:
                raise ValueError(f"RateModel {name} {v!r} is below its constant rate "
                                 f"{rate.value!r}")

    @property
    def kernels(self) -> set:
        """The distinct interaction kernels the birth and death rates pair against."""
        return {r.kernel for r in (self.birth, self.death) if isinstance(r, KernelRate)}

    def birth_rate(self, x, mu, k: Optional[int] = None):
        v = self.birth.eval(x, mu)
        if k is not None and self.k_perturbation is not None:
            v = v + self.k_perturbation("birth", np.asarray(x, dtype=float), k)
        return v

    def death_rate(self, x, mu, k: Optional[int] = None):
        v = self.death.eval(x, mu)
        if k is not None and self.k_perturbation is not None:
            v = v + self.k_perturbation("death", np.asarray(x, dtype=float), k)
        return v


# ---------------------------------------------------------------------------
# convenience constructors


def classical_model(birth: float, death: float, life_law: OffspringLaw,
                    split_law: OffspringLaw,
                    k_perturbation=None) -> RateModel:
    return RateModel(
        family="classical",
        birth=ConstantRate(birth), death=ConstantRate(death),
        life_law=life_law, split_law=split_law,
        birth_sup=float(birth), death_sup=float(death),
        k_perturbation=k_perturbation,
    )


def pure_splitting(death: float, brood: int) -> RateModel:
    """No births during life; splitting into a fixed brood at death."""
    return classical_model(
        birth=0.0, death=death,
        life_law=OffspringLaw.deterministic(0),
        split_law=OffspringLaw.deterministic(brood),
    )
