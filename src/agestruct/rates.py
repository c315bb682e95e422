"""Demographic rates and their dependence on the population measure.

A model bundles a per-capita birth rate and death rate (each a function of
age and of the normalised population measure), one offspring law for births
during life and one for splitting at death, and declared sup bounds on the
rates.  Three rate classes, one per population dependence, make the four
built-in families, ordered by generality (:attr:`RateModel.family` reads the
family from the rates):

* ``classical``          -- constant rates (:class:`ConstantRate`);
* ``density_dependent``  -- rates affine in the total mass only
  (:class:`DensityRate`);
* ``age_density``        -- an age profile times an affine function of the
  total mass (:class:`DensityRate` with an age profile);
* ``kernel_linear``      -- functions of age, total mass and a kernel
  average ``(g(x, .), A)`` (:class:`KernelRate`).

Each rate carries the closed-form terms of its directional (Frechet)
derivative with respect to the measure (``frechet_terms``), which drive the
fluctuation-limit solver.

Rates read the measure through a view with ``mass`` and
``kernel_pair(kernel, xs)``: the event simulator's
:class:`~agestruct.branching.Population`, or the grid layers'
:meth:`agestruct.mvf.GridRates.at` (one frame or a stack of frames).  The
population pairs at one float age (a sum over the live set) or at the array
of all live ages, the grid view at its cell centers or edges; each raises
``ValueError`` at any other ages.  A rate evaluated at one float age builds
no array.

Between events the live count n, hence the mass y = n / k, is frozen, and
``bounds(n, k, sup) -> (part, lo, hi)`` states what n proves about a rate:
it is at most ``part`` (the sup, or less) and lies between a lo and a hi at
age x, for a its ``age`` factor r(x) (``None`` in every class: a = 1).  A
constant or mass-only rate's range is the point phi(y), computed as ``eval``
computes it, with part the sup; a kernel rate's spans the unknown kernel
average (:meth:`KernelRate.bounds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "ModelError",
    "OffspringLaw",
    "AgeProfile",
    "Kernel",
    "ConstantRate",
    "DensityRate",
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

    All laws have bounded support (``cap``): k, max(k1, k2), or the Poisson
    law's truncation, given or set far enough out that the declared moments
    hold to well below Monte Carlo resolution.  A bad field raises ValueError.
    """

    kind: str  # "deterministic" | "poisson" | "two_point"
    k: int = 0
    rate: float = 0.0
    p: float = 0.5
    k1: int = 0
    k2: int = 0
    cap: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("deterministic", "poisson", "two_point"):
            raise ValueError("OffspringLaw kind must be one of deterministic, poisson, "
                             f"two_point; got {self.kind!r}")
        for name in ("k", "k1", "k2", "cap"):
            if (getattr(self, name) or 0) < 0:      # cap None: derived below
                raise ValueError(f"OffspringLaw {name} must be >= 0; got {getattr(self, name)!r}")
        if not (math.isfinite(self.rate) and self.rate >= 0.0):
            raise ValueError(f"OffspringLaw rate must be finite and >= 0; got {self.rate!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"OffspringLaw p must be in [0, 1]; got {self.p!r}")
        cap = {"deterministic": self.k, "two_point": max(self.k1, self.k2)}.get(self.kind, self.cap)
        if cap is None:
            cap = int(math.ceil(self.rate + 12.0 * math.sqrt(self.rate + 1.0) + 12.0))
        object.__setattr__(self, "cap", cap)

    @classmethod
    def deterministic(cls, k: int) -> "OffspringLaw":
        return cls(kind="deterministic", k=int(k))

    @classmethod
    def poisson(cls, mean: float, cap: Optional[int] = None) -> "OffspringLaw":
        return cls(kind="poisson", rate=float(mean), cap=None if cap is None else int(cap))

    @classmethod
    def two_point(cls, p: float, k1: int, k2: int) -> "OffspringLaw":
        return cls(kind="two_point", p=float(p), k1=int(k1), k2=int(k2))

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

    def samples(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` broods in [0, cap] from ``rng`` at once."""
        if self.kind == "deterministic":
            return np.full(n, self.k)
        if self.kind == "poisson":
            return np.minimum(rng.poisson(self.rate, n), self.cap)
        return np.where(rng.random(n) < self.p, self.k1, self.k2)


# ---------------------------------------------------------------------------
# parameter building blocks


def _check_fields(obj, kinds: tuple[str, ...]) -> None:
    """Reject an unknown kind or an unusable c, center, alpha or sigma, naming the field."""
    name = type(obj).__name__
    if obj.kind not in kinds:
        raise ValueError(f"{name} kind must be one of {', '.join(kinds)}; got {obj.kind!r}")
    for field in ("c", "center"):           # a Kernel has no center
        if not math.isfinite(getattr(obj, field, 0.0)):
            raise ValueError(f"{name} {field} must be finite; got {getattr(obj, field)!r}")
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

    is_constant = True
    age = None

    def __init__(self, value: float):
        if value < 0:
            raise ModelError(f"constant rate must be nonnegative, got {value}")
        self.value = float(value)

    def eval(self, x, mu):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, self.value) if x.ndim else self.value

    def bounds(self, n: int, k: int, sup: float) -> tuple[float, float, float]:
        return sup, self.value, self.value

    def frechet_terms(self, xs, mu0):
        return np.zeros_like(np.asarray(xs, dtype=float)), None, None


class DensityRate:
    """Rate r(x) * (a + b |A|), affine in the total mass, r the ``age`` profile (None:
    no age factor).  With b = 0 the mass factor is ``a`` alone, whatever the mass's shape."""

    is_constant = False

    def __init__(self, a: float, b: float = 0.0, age: Optional[AgeProfile] = None):
        self.a, self.b, self.age = float(a), float(b), age

    def _of_mass(self, y):
        return self.a + self.b * y if self.b else self.a

    def eval(self, x, mu):
        v = self._of_mass(mu.mass)
        if self.age is not None:
            return self.age(x) * v
        return v * np.ones_like(x) if np.ndim(x) else v

    def bounds(self, n: int, k: int, sup: float) -> tuple[float, float, float]:
        v = self._of_mass(n / k)
        return sup, v, v

    def frechet_terms(self, xs, mu0):
        xs = np.asarray(xs, dtype=float)
        return (np.full_like(xs, self.b) if self.age is None else self.age(xs) * self.b), None, None


# Relative widening of a kernel rate's phi range (KernelRate.bounds).
_ENVELOPE_MARGIN = 1e-7


class KernelRate:
    """Rate r(x) * phi(y, z) with an explicit kernel g, y = |A| and z = (g(x,.), A):

        phi(y, z) = c0 + cy*y + cz*z + (c + d1*z) / (1 + y),

    affine in z; with c = d1 = 0 the rational term is skipped.  ``age`` None
    is no age factor (r = 1): evaluation skips it."""

    is_constant = False

    def __init__(self, kernel: Kernel, *, age: Optional[AgeProfile] = None, c0: float = 0.0,
                 cy: float = 0.0, cz: float = 0.0, d1: float = 0.0, c: float = 0.0):
        self.kernel, self.age = kernel, age
        self.c0, self.cy, self.cz, self.d1, self.c = map(float, (c0, cy, cz, d1, c))
        self._rational = self.c != 0.0 or self.d1 != 0.0

    def _phi(self, y, z):
        v = self.c0 + self.cy * y + self.cz * z
        return v + (self.c + self.d1 * z) / (1.0 + y) if self._rational else v

    def _phi_y(self, y, z):
        return self.cy - (self.c + self.d1 * z) / (1.0 + y) ** 2

    def _phi_z(self, y, z):
        return self.cz + self.d1 / (1.0 + y) * np.ones_like(z)

    def eval(self, x, mu):
        # x is one float age (a numpy float too: no arrays) or an array of
        # ages the view holds (see its kernel_pair)
        v = self._phi(mu.mass, mu.kernel_pair(self.kernel, x))
        if self.age is None:
            return v
        return (self.age.scalar(x) if isinstance(x, float) else self.age(x)) * v

    def bounds(self, n: int, k: int, sup: float) -> tuple[float, float, float]:
        """(part, lo, hi) among ``n`` live individuals at normalisation ``k``,
        without a pairing.  g / c lies in [0, 1] and is 1 at x itself, so
        z = (g(x, .), A) / k lies between c / k and c * y for y = n / k (a
        constant kernel: z = c * y), and phi, affine in z, lies in [lo, hi]:
        widened by ``_ENVELOPE_MARGIN`` times the size of phi's terms, far
        above the rounding of the exact rate (the live-set sum is pairwise:
        a relative error of about eps log2 n).
        The rate at age x lies between r(x) lo and r(x) hi; r lies between 0
        and the age profile's c at x >= 0 (c = 1 with no profile), so the rate
        is at most ``part``, max(0, c lo, c hi) capped at ``sup``.
        """
        y = n / k
        z = self.kernel.c * y
        lo = self._phi(y, z)
        hi = lo if self.kernel.kind == "constant" else self._phi(y, self.kernel.c / k)
        tol = _ENVELOPE_MARGIN * (
            abs(self.c0) + abs(self.cy) * y + abs(self.c) / (1.0 + y)
            + (abs(self.cz) + abs(self.d1) / (1.0 + y)) * abs(z))
        lo, hi = min(lo, hi) - tol, max(lo, hi) + tol
        c = 1.0 if self.age is None else self.age.c
        return min(sup, max(0.0, c * lo, c * hi)), lo, hi

    def frechet_terms(self, xs, mu0):
        xs = np.asarray(xs, dtype=float)
        y, z = mu0.mass, mu0.kernel_pair(self.kernel, xs)
        u, w = self._phi_y(y, z), self._phi_z(y, z)
        if self.age is not None:
            r = self.age(xs)
            u, w = r * u, r * w
        return u, w, self.kernel


RateFn = Union[ConstantRate, DensityRate, KernelRate]


# ---------------------------------------------------------------------------
# the model


@dataclass(frozen=True)
class RateModel:
    """Demographic sextuple: birth/death rates plus the two offspring laws.

    ``birth_sup`` and ``death_sup`` are the declared sup bounds, finite,
    >= 0 and at least a constant rate; every rate evaluation must stay
    within them; the thinning simulator draws candidates against each
    rate's part at the live count (its ``bounds``).  The optional
    ``k_perturbation(name, x, K)`` hook adds a K-dependent term of size
    o(1/sqrt(K)) to the named rate; the built-in families are K-independent
    so the finite-K and limit parameterisations coincide.
    """

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
            # lifelines never evaluate a constant rate, so never check it
            if rate.is_constant and rate.value > v:
                raise ValueError(f"RateModel {name} {v!r} is below its constant rate "
                                 f"{rate.value!r}")

    @property
    def family(self) -> str:
        """The most general family either rate needs (see the module docstring)."""
        rates = (self.birth, self.death)
        if any(isinstance(r, KernelRate) for r in rates):
            return "kernel_linear"
        if any(r.age is not None for r in rates):
            return "age_density"
        return "classical" if self.constant_rates else "density_dependent"

    @property
    def constant_rates(self) -> bool:
        """Both rates are constants: the classical McKendrick-von Foerster case."""
        return self.birth.is_constant and self.death.is_constant

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
                    split_law: OffspringLaw) -> RateModel:
    return RateModel(
        birth=ConstantRate(birth), death=ConstantRate(death),
        life_law=life_law, split_law=split_law,
        birth_sup=float(birth), death_sup=float(death),
    )


def pure_splitting(death: float, brood: int) -> RateModel:
    """No births during life; splitting into a fixed brood at death."""
    return classical_model(
        birth=0.0, death=death,
        life_law=OffspringLaw.deterministic(0),
        split_law=OffspringLaw.deterministic(brood),
    )
