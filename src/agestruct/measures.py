"""Finite measures on the age interval [0, T*], in atomic and grid-density form.

Two concrete representations are used throughout the package:

* :class:`AtomicMeasure` -- a list of ages, each carrying the same weight
  (weight 1 for a raw population, 1/K for a normalised one).
* :class:`GridDensity` -- a density sampled at the centers of a uniform grid
  over [0, T*]; pairings use the midpoint rule, which matches the
  cell-centered transport scheme of the deterministic solver.

A configured target made of a few atoms with individual masses is a
:class:`PointMasses`.  Fluctuation measures sqrt(K) * (empirical - target)
are kept lazy as :class:`SignedPair` so their pairings stay exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, Union

import numpy as np

__all__ = [
    "DomainError",
    "AtomicMeasure",
    "GridDensity",
    "PointMasses",
    "SignedPair",
    "TestFunction",
    "pair",
    "make_panel",
    "constant",
    "monomial",
    "exponential",
    "bump",
    "write_csv",
]


class DomainError(ValueError):
    """An age or grid value falls outside the configured domain [0, T*]."""


_EDGE_TOL = 1e-9


def _cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if v is None or isinstance(v, (float, np.floating)):
        return "" if v is None else repr(float(v))
    s = str(v)      # quoted per RFC 4180 when it holds a comma, a quote or a line break
    return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\r\n') else s


def write_csv(path: Union[str, Path], header: Sequence[str], rows: Iterable) -> None:
    """Write ``rows`` under ``header``: a float as ``repr(float(v))``, None empty, a bool
    in lower case, anything else by ``str``, quoted when it holds a comma, a quote or a
    line break (RFC 4180).  Every CSV the package writes comes here."""
    with Path(path).open("w") as fh:
        fh.write(",".join(map(_cell, header)) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


@dataclass(frozen=True)
class AtomicMeasure:
    """Ages with a common positive weight per atom.

    ``t_star`` is the support bound T* = T + a*; every age must lie in
    [0, T*].  Total mass is ``weight * len(ages)``.
    """

    ages: np.ndarray
    weight: float
    t_star: float

    def __post_init__(self):
        ages = np.asarray(self.ages, dtype=float)
        object.__setattr__(self, "ages", ages)
        if not self.weight > 0.0:
            raise ValueError(f"atom weight must be positive, got {self.weight}")
        if ages.size and (ages.min() < -_EDGE_TOL or ages.max() > self.t_star + _EDGE_TOL):
            raise DomainError(
                f"ages must lie in [0, {self.t_star}]; got range "
                f"[{ages.min()}, {ages.max()}]"
            )

    @property
    def count(self) -> int:
        return int(self.ages.size)

    @property
    def mass(self) -> float:
        return self.weight * self.ages.size

    def to_csv(self, path: Union[str, Path]) -> None:
        """Write ages as CSV with header ``age`` plus a JSON sidecar with the weight."""
        path = Path(path)
        write_csv(path, ["age"], ((a,) for a in self.ages))
        path.with_suffix(".json").write_text(
            json.dumps({"weight": self.weight, "t_star": self.t_star}))


@dataclass(frozen=True)
class GridDensity:
    """Density per unit age at cell centers x_j = (j + 1/2) dx, j = 0..J-1.

    The grid covers [0, J*dx] exactly; J*dx is the support bound T*.  Values
    may be negative only if ``signed`` is set.
    """

    dx: float
    values: np.ndarray
    signed: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if not self.dx > 0.0:
            raise ValueError("dx must be positive")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid density contains non-finite values")
        if not self.signed and values.size and values.min() < -_EDGE_TOL:
            raise DomainError(
                f"positive measure has negative density {values.min()}; "
                "construct with signed=True for signed measures"
            )

    @property
    def n_cells(self) -> int:
        return int(self.values.size)

    @property
    def t_star(self) -> float:
        return self.dx * self.values.size

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.values.size) + 0.5) * self.dx

    @property
    def mass(self) -> float:
        return float(self.dx * self.values.sum())

    @classmethod
    def from_function(cls, fn: Callable[[np.ndarray], np.ndarray], t_star: float,
                      dx: float, signed: bool = False) -> "GridDensity":
        """Sample ``fn`` at the cell centers of a grid covering [0, t_star]."""
        n = int(round(t_star / dx))
        if abs(n * dx - t_star) > _EDGE_TOL * max(1.0, t_star):
            raise ValueError(f"t_star={t_star} is not an integer multiple of dx={dx}")
        x = (np.arange(n) + 0.5) * dx
        return cls(dx=dx, values=np.asarray(fn(x), dtype=float), signed=signed)

    def to_csv(self, path: Union[str, Path]) -> None:
        write_csv(path, ["x", "value"], zip(self.centers, self.values))


@dataclass(frozen=True)
class PointMasses:
    """Finitely many atoms, each with its own mass (a configured target measure)."""

    ages: np.ndarray
    masses: np.ndarray

    @property
    def mass(self) -> float:
        return float(self.masses.sum())


@dataclass(frozen=True)
class SignedPair:
    """Lazy signed measure ``scale * (plus - minus)``, with ``scale > 0``.

    Used for fluctuation measures sqrt(K)*(empirical - target): densifying
    the atomic part would destroy the exact pairing identity, so pairings
    are always evaluated against both parts separately.
    """

    plus: AtomicMeasure
    minus: Union[GridDensity, AtomicMeasure, PointMasses]
    scale: float

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def mass(self) -> float:
        return self.scale * (self.plus.mass - self.minus.mass)

    def pair(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return self.scale * (pair(f, self.plus) - pair(f, self.minus))


Measure = Union[AtomicMeasure, GridDensity, PointMasses]


def pair(f: Callable[[np.ndarray], np.ndarray], mu: Measure) -> float:
    """Integral of ``f`` against ``mu``: atomic sum or midpoint rule."""
    if isinstance(mu, AtomicMeasure):
        if mu.ages.size == 0:
            return 0.0
        return float(mu.weight * np.sum(f(mu.ages)))
    if isinstance(mu, GridDensity):
        return float(mu.dx * np.dot(np.asarray(f(mu.centers), dtype=float), mu.values))
    if isinstance(mu, PointMasses):
        return float(np.dot(np.asarray(f(mu.ages), dtype=float), mu.masses))
    raise TypeError(f"cannot pair against {type(mu).__name__}")


class TestFunction:
    """A smooth test function on [0, T*].

    Kinds: ``monomial`` (x^k), ``exp`` (e^(lam*x); lam = 0 is the unit
    function, labelled ``1``) and ``bump`` (smooth compactly supported bump on
    [lo, hi], peak 1, vanishing with all derivatives at the endpoints).
    """

    def __init__(self, kind: str, *, k: int = 1, lam: float = 0.0,
                 lo: float = 0.0, hi: float = 1.0):
        self.kind = kind
        self.k = int(k)
        self.lam = float(lam)
        self.lo = float(lo)
        self.hi = float(hi)
        if kind not in ("monomial", "exp", "bump"):
            raise ValueError(f"unknown test function kind {kind!r}")
        if (self.k != k or k < 0 or not all(map(math.isfinite, (self.lam, self.lo, self.hi)))
                or kind == "bump" and not hi > lo):
            raise ValueError(f"a test function takes an integer power k >= 0, a finite lam and "
                             f"finite lo < hi; got k={k!r}, lam={lam!r}, lo={lo!r}, hi={hi!r}")

    @property
    def label(self) -> str:
        if self.kind == "monomial":
            return "x" if self.k == 1 else f"x^{self.k}"
        if self.kind == "exp":
            return f"exp({self.lam:g})" if self.lam else "1"
        return f"bump({self.lo:g},{self.hi:g})"

    def __repr__(self):
        return f"TestFunction<{self.label}>"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "monomial":
            return x ** self.k
        if self.kind == "exp":
            return np.exp(self.lam * x) if self.lam else np.ones_like(x)
        return self._bump(x)

    @property
    def at_zero(self) -> float:
        return float(self(np.array(0.0)))

    def scalar(self, x: float) -> float:
        """f(x) for one float, with ``math``: ``self(x)`` to within an ulp."""
        if self.kind == "monomial":
            return x ** self.k
        if self.kind == "exp":
            return math.exp(self.lam * x)
        return float(self(x))

    def antiderivative(self, x):
        """F(x) = int_0^x f; no bump."""
        if self.kind == "monomial":
            return x ** (self.k + 1) / (self.k + 1)
        if self.kind == "exp":
            return np.expm1(self.lam * x) / self.lam if self.lam else 1.0 * x
        raise ValueError(f"{self.label} has no closed-form antiderivative")

    def _u(self, x):
        return (2.0 * x - (self.lo + self.hi)) / (self.hi - self.lo)

    def _bump(self, x):
        u = self._u(x)
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
        return out


def constant() -> TestFunction:
    """The unit function, e^(0*x)."""
    return exponential(0.0)


def monomial(k: int) -> TestFunction:
    return TestFunction("monomial", k=k)


def exponential(lam: float) -> TestFunction:
    return TestFunction("exp", lam=lam)


def bump(lo: float, hi: float) -> TestFunction:
    return TestFunction("bump", lo=lo, hi=hi)


# a spec's prefix: the names of the numbers after it, its constructor and their type
_FORMS = {"x^": ("k", monomial, int), "mono:": ("k", monomial, int),
          "exp:": ("lam", exponential, float), "bump:": ("lo:hi", bump, float)}


def _parse_spec(spec: str, t_star: float) -> TestFunction:
    spec = spec.strip()
    if spec in ("1", "const", "constant"):
        return constant()
    if spec == "x":
        return monomial(1)
    if spec == "bump":
        return bump(0.25 * t_star, 0.75 * t_star)
    for prefix, (names, make, number) in _FORMS.items():
        if spec.startswith(prefix):
            try:
                return make(*map(number, spec[len(prefix):].split(":")))
            except (TypeError, ValueError) as err:
                raise ValueError(f"test function spec {spec!r} (form {prefix}{names}): "
                                 f"{err}") from None
    raise ValueError(f"unknown test function spec {spec!r}")


def make_panel(specs: Union[Sequence[str], None] = None, *, t_star: float = 1.0) -> list[TestFunction]:
    """Build a test-function panel from compact string specs.

    ``None`` gives the default panel {1, x, x^2, e^(0.5x), e^(-x), bump}
    with the bump placed on the middle half of [0, t_star] so f(0) = 0.
    ``"1"`` and ``"exp:0"`` both give e^(0*x), labelled ``1``.
    """
    if specs is None:
        specs = ["1", "x", "x^2", "exp:0.5", "exp:-1", "bump"]
    return [_parse_spec(s, t_star) for s in specs]
