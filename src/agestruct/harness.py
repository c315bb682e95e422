"""Experiment orchestration: configs, initial conditions, verification runs.

All Monte Carlo work is organised as replicate tasks with
scheduling-independent randomness: replicate i of a run draws from a Philox
stream keyed by (master_seed, purpose, K-index, i), so outputs are
byte-identical for a fixed seed regardless of worker count.

Statistical comparisons always use 3-standard-error bands computed from the
same samples; deterministic comparisons carry explicit tolerances.  Every
check becomes one row of a report with a machine-readable verdict.
"""

from __future__ import annotations

import json
import math
import numbers
import platform
from dataclasses import MISSING, dataclass, field, fields, asdict
from functools import cache, cached_property, partial
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from . import __version__
from .measures import (AtomicMeasure, GridDensity, PointMasses, SignedPair,
                       make_panel, pair, write_csv)
from .rates import (AgeProfile, ConstantRate, DensityRate, Kernel, KernelRate, OffspringLaw,
                    RateModel, classical_model)
from .branching import output_times, simulate, simulate_pairings
from .mvf import (LimitSolution, classical_exact, classical_pairing, logistic_exact,
                  solve_mvf, solve_total_ode)
from .spde import (classical_exp_mean, classical_qv_mass,
                   covariation_integral_frames, density_dependent_exp_mean,
                   evolve_mean, fluctuation_law, ito_isometry_variance,
                   remark_covariance_grid, simulate_fluctuation_paths)
from .stats import (fit_loglog_slope, sample_summary, se_of_covariance,
                    se_of_variance)

__all__ = [
    "ExperimentConfig",
    "InitialCondition",
    "build_initial",
    "replicate_stream",
    "run_lln",
    "run_clt",
    "run_qv_check",
    "run_convergence",
    "run_simulate",
    "run_limit",
    "run_fluctuate",
    "CheckRow",
    "Report",
    "emit",
]

# purpose codes for stream derivation
PURPOSE_LLN = 1
PURPOSE_CLT = 2
PURPOSE_QV = 3
PURPOSE_SPDE = 4
PURPOSE_SIM = 5


def _stream_key(master_seed: int, purpose: int, k_index: int, replicate: int) -> np.ndarray:
    """The Philox key of one replicate's stream."""
    sub = (np.uint64(purpose) << np.uint64(48)) \
        | (np.uint64(k_index) << np.uint64(32)) | np.uint64(replicate)
    return np.array([np.uint64(master_seed), sub], dtype=np.uint64)


def replicate_stream(master_seed: int, purpose: int, k_index: int,
                     replicate: int) -> np.random.Generator:
    """Counter-based stream for one replicate: Philox keyed by context."""
    return np.random.Generator(np.random.Philox(
        key=_stream_key(master_seed, purpose, k_index, replicate)))


# this process's one Philox, built on first use: numpy imports numpy.random lazily
_philox = cache(lambda: np.random.Generator(np.random.Philox(0)))


def _reseated_stream(*context) -> np.random.Generator:
    """``replicate_stream(*context)`` from this process's one Philox reseated to its key at
    counter 0 (~1 µs, not ~10; Salmon et al. 2011); the next call reseats it again."""
    rng = _philox()
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": [0] * 4, "key": _stream_key(*context)},
        "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def spde_noise_stream(master_seed: int, block: int) -> np.random.Generator:
    """Per-block normal stream for the SPDE sampler: SFC64 seeded from the
    (seed, purpose, block) context, so derivation is deterministic and
    scheduling-independent.  The sampler draws one normal per pairing of each
    path, n_paths x R*P in all, and maps them through the pairings' exact law.
    """
    ss = np.random.SeedSequence(entropy=(int(master_seed), PURPOSE_SPDE, int(block)))
    return np.random.Generator(np.random.SFC64(ss))


# ---------------------------------------------------------------------------
# configuration

_NEED = object()                       # a field with no default
_LISTS = (list, tuple, np.ndarray)
_MAX_CELLS = 10 ** 7                   # the most grid steps, or cells of age, a config may ask for
_KINDS = {   # kind: (type test, what the type is); _read checks the ranges
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    "seed": (lambda v: _KINDS["int"][0](v) and 0 <= v < 2 ** 64, "an integer in [0, 2^64)"),
    "number": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
               and math.isfinite(v), "a finite number"),
    "positive": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
                 "a real number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _read(spec, key, where: str, kind=None, lo=None, hi=None, default=_NEED):
    """``spec[key]`` checked, or a ValueError naming the field ``where.key`` (``where[key]``
    for a list item) and showing its value as given.

    ``kind`` is a key of ``_KINDS`` or a tuple of the allowed strings (None: any
    value); a number must lie in [``lo``, ``hi``], a ``positive`` one in (0, inf).
    A missing field, or null when ``default`` is None, takes ``default``, if any.
    Integers come back as ``int`` and finite numbers as ``float``.
    """
    if not isinstance(spec, dict) or (key not in spec and default is _NEED):
        raise ValueError(f"{where} needs a {key!r} field; got {spec!r}")
    value = spec.get(key, default)
    if value is None and default is None:
        return None
    test, what = _KINDS.get(kind) or (lambda v: kind is None or isinstance(v, str) and v in kind,
                                      " or ".join(map(repr, kind or ())))
    if not test(value):
        pass
    elif kind == "positive" and not 0 < value < math.inf:
        what = "finite and positive"
    elif lo is not None and value < lo:
        what = "nonnegative" if lo == 0 else f"at least {lo}"
    elif hi is not None and value > hi:
        what = f"at most {hi}"
    else:
        return (int(value) if kind in ("int", "seed")
                else float(value) if kind == "number" else value)
    path = f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}" if where else key
    raise ValueError(f"{path} must be {what}, got {value!r}")


def _only(spec: dict, where: str, *keys) -> None:
    """A ValueError naming ``where`` and each key of ``spec`` that is not in ``keys``."""
    unknown = [key for key in spec if key not in keys]
    if unknown:
        raise ValueError(f"{where} has unknown key(s) {', '.join(map(repr, unknown))}; "
                         f"it takes {', '.join(keys)}")


def _kind(spec, where: str, keys: dict, key="kind", also=()) -> str:
    """``spec[key]``, one of ``keys``; ``spec`` holds only ``also``, ``key`` and ``keys[kind]``."""
    kind = _read(spec, key, where, tuple(keys))
    _only(spec, where, *also, key, *keys[kind])
    return kind


def _items(values, where: str, kind, lo=None, hi=None) -> list:
    """Each item of a list field, read as ``where[i]``."""
    items = dict(enumerate(values))
    return [_read(items, i, where, kind, lo, hi) for i in items]


# the top-level scalar fields: (name, kind, least value)
_SCALARS = (("horizon", "positive", None), ("dt", "positive", None), ("dt_out", "positive", None),
            ("seed", "seed", None), ("replicates", "int", 2), ("n_spde_paths", "int", 2),
            ("spde_block", "int", 1), ("workers", "int", 1), ("population_cap", "int", 1),
            ("emit_events", "bool", None), ("emit_fields", "bool", None))


@dataclass
class ExperimentConfig:
    """One study's specification.  Construction checks every field, and builds the
    model, each K's target start and the panel; each K's realised start and the
    limit background are built on first use.  Every run of the config shares them."""

    model: dict
    initial: dict
    horizon: float
    dt: float
    dt_out: float
    k_values: list[int]
    replicates: int
    seed: int
    perturbation: Optional[dict] = None
    panel: Optional[list[str]] = None
    n_spde_paths: int = 10_000
    spde_block: int = 2_500
    workers: int = 1
    emit_events: bool = False
    emit_fields: bool = False
    population_cap: int = 10 ** 7
    outdir: Optional[str] = None

    def __post_init__(self):
        for name, kind, lo in _SCALARS:
            setattr(self, name, _read(vars(self), name, "", kind, lo))
        _read(vars(self), "outdir", "", "str", default=None)
        if self.horizon / self.dt > _MAX_CELLS:
            raise ValueError(f"horizon {self.horizon!r} at dt {self.dt!r} needs more than "
                             f"{_MAX_CELLS} grid steps")
        for fine, coarse, what in (
                (self.dt, self.dt_out, f"dt {self.dt!r} must divide dt_out {self.dt_out!r}"),
                (self.dt_out, self.horizon,
                 f"dt_out {self.dt_out!r} must divide the horizon {self.horizon!r}")):
            n = coarse / fine
            if not 0.5 <= n <= _MAX_CELLS or abs(round(n) * fine - coarse) > 1e-9:
                raise ValueError(what)
        if not isinstance(self.k_values, (list, tuple)):
            raise ValueError(f"k_values must be a list of K values, got {self.k_values!r}")
        if not self.k_values:
            raise ValueError(f"k_values must name at least one K, got {self.k_values!r}")
        self.k_values = _items(self.k_values, "k_values", "int", lo=1)
        self._model = model_from_config(self.model)
        (base_ages, base_masses), (pert_ages, pert_masses), n_cells = _read_start(
            self.initial, self.perturbation, self.dt, self.horizon)
        # K * base + sqrt(K) * perturbation per distinct age, checked here, rounded per K
        self._ages, slot = np.unique(np.concatenate([base_ages, pert_ages]), return_inverse=True)
        self._targets = {}
        for k in self.k_values:
            with np.errstate(over="ignore"):      # an infinite count fails below
                target = np.bincount(slot, weights=np.concatenate(
                    [k * base_masses, math.sqrt(k) * pert_masses]))
                count = target.sum()
            if not np.round(count) <= self.population_cap:
                named = " and ".join(_mass_field(spec, where) for where, spec in (
                    ("initial", self.initial), ("perturbation", self.perturbation)) if spec)
                raise ValueError(f"{named} give {count:.6g} individuals at K = {k}, above "
                                 f"population_cap {self.population_cap}")
            if target.min() < -1e-9:      # only a perturbation has negative mass
                raise ValueError(f"{_mass_field(self.perturbation, 'perturbation')} leaves a "
                                 f"negative count ({target.min():.6g}) at K = {k}: infeasible")
            self._targets[k] = target
        # the base on the solver grid (an atom's mass spread over its cell)
        self._base_grid = GridDensity(
            dx=self.dt, values=_binned(base_ages, base_masses, n_cells, self.dt) / self.dt)
        self._base = (self._base_grid if self.initial["kind"] == "grid"
                      else PointMasses(base_ages, base_masses))
        if self.panel is not None:
            if not (isinstance(self.panel, _LISTS) and all(isinstance(s, str) for s in self.panel)):
                raise ValueError(f"panel must be a list of test function specs (strings), "
                                 f"got {self.panel!r}")
            if not len(self.panel):
                raise ValueError(f"panel must name at least one test function (None: the "
                                 f"default panel), got {self.panel!r}")
        try:
            self._panel = make_panel(self.panel, t_star=self._base_grid.t_star)
        except ValueError as err:
            raise ValueError(f"panel {self.panel!r}: {err}") from err

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "ExperimentConfig":
        try:
            spec = json.loads(Path(path).read_text())
        except json.JSONDecodeError as err:
            raise ValueError(f"config {path} is not valid JSON: {err}") from None
        if not isinstance(spec, dict):
            raise ValueError(f"{path} must hold a JSON object of config fields, "
                             f"got a {type(spec).__name__}")
        allowed = [f.name for f in fields(cls)]
        unknown = sorted(set(spec) - set(allowed))
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in spec]
        if unknown or missing:
            raise ValueError(f"config {path}: unknown key(s) [{', '.join(unknown)}], missing "
                             f"key(s) [{', '.join(missing)}]; allowed keys: {', '.join(allowed)}")
        return cls(**spec)

    def to_dict(self) -> dict:
        return asdict(self)

    def build_model(self) -> RateModel:
        """The model, built when the config was."""
        return self._model

    @cached_property
    def inits(self) -> dict[int, "InitialCondition"]:
        """Each K's realised start, built on first use; studies read it, never write it."""
        return {k: build_initial(self, k) for k in self.k_values}

    @cached_property
    def background(self) -> LimitSolution:
        """The limit solved from the base on first use; studies read it, never write it."""
        return background_solution(self, self._model)


def _mass_factor(spec, key, where: str) -> tuple[float, float]:
    """(a, b) of the mass factor a + b |A| at ``spec[key]``; a constant c is (c, 0)."""
    fn = _read(spec, key, where)
    if not isinstance(fn, dict):
        return _read(spec, key, where, "number"), 0.0
    where = f"{where}.{key}"
    if _kind(fn, where, {"constant": ("c",), "affine": ("a", "b")}) == "constant":
        return _read(fn, "c", where, "number"), 0.0
    return _read(fn, "a", where, "number"), _read(fn, "b", where, "number")


def _profile(cls, spec, key, where: str):
    """The :class:`AgeProfile` or :class:`Kernel` at ``spec[key]``, its fields
    defaulting as the class's do."""
    shape, where = _read(spec, key, where), f"{where}.{key}"
    names = [f.name for f in fields(cls) if f.name != "kind"]
    kind = _kind(shape, where, dict.fromkeys(("constant", "exp_decay", "gaussian"), names))
    return cls(kind=kind, **{
        name: _read(shape, name, where, "positive" if name == "sigma" else "number",
                    lo=0 if name == "alpha" else None, default=getattr(cls, name))
        for name in names})


def _offspring_law(spec, key) -> OffspringLaw:
    law, where = _read(spec, key, "model"), f"model.{key}"
    kind = _kind(law, where, {"deterministic": ("k",), "poisson": ("mean", "cap"),
                              "two_point": ("p", "k1", "k2")})
    if kind == "deterministic":
        return OffspringLaw.deterministic(_read(law, "k", where, "int", lo=0))
    if kind == "poisson":
        return OffspringLaw.poisson(_read(law, "mean", where, "number", lo=0),
                                    _read(law, "cap", where, "int", lo=0, default=None))
    return OffspringLaw.two_point(_read(law, "p", where, "number", lo=0, hi=1),
                                  *(_read(law, k, where, "int", lo=0) for k in ("k1", "k2")))


# each phi form's coefficients, as KernelRate's keywords (special's d0 is phi's c0)
_PHI = {"affine": {"c0": "c0", "cy": "cy", "cz": "cz"}, "special": {"d0": "c0", "d1": "d1"},
        "inv1p": {"c": "c"}}


def _rate_fn(family: str, spec, key):
    rate, where = _read(spec, key, "model"), f"model.{key}"
    if family == "classical" and (isinstance(rate, bool) or not isinstance(rate, numbers.Real)):
        raise ValueError(f"{where} of a classical model must be a number, got {rate!r}")
    if not isinstance(rate, dict):
        return ConstantRate(_read(spec, key, "model", "number", lo=0))
    if family == "density_dependent":
        return DensityRate(*_mass_factor(spec, key, "model"))
    if family == "age_density":
        _only(rate, where, "age", "mass")
        return DensityRate(*_mass_factor(rate, "mass", where),
                           age=_profile(AgeProfile, rate, "age", where))
    phi = _kind(rate, where, _PHI, "phi", ("kernel", "age"))
    kernel = _profile(Kernel, rate, "kernel", where)
    age = _profile(AgeProfile, rate, "age", where) if "age" in rate else None
    return KernelRate(kernel, age=age, **{arg: _read(rate, key, where, "number", default=0.0)
                                          for key, arg in _PHI[phi].items()})


def model_from_config(spec: dict) -> RateModel:
    """The model a config's ``model`` spec names; a missing or malformed field is a
    ValueError that names it."""
    family = _read(spec, "family", "model",
                   ("classical", "density_dependent", "age_density", "kernel_linear"))
    _only(spec, "model", "family", "birth", "death", "birth_sup", "death_sup", "life_law",
          "split_law")
    rates = {key: _rate_fn(family, spec, key) for key in ("birth", "death")}
    # a constant rate is its own sup by default, and its least
    sups = {f"{key}_sup": _read(spec, f"{key}_sup", "model", "number",
                                lo=getattr(rate, "value", 0), default=getattr(rate, "value", _NEED))
            for key, rate in rates.items()}
    return RateModel(**rates, life_law=_offspring_law(spec, "life_law"),
                     split_law=_offspring_law(spec, "split_law"), **sups)


# ---------------------------------------------------------------------------
# initial conditions


@dataclass(frozen=True)
class InitialCondition:
    atoms: AtomicMeasure                 # unit weight, the raw population
    z0: SignedPair                       # sqrt(K) * (atoms / K - target), exact
    nu0_values: Optional[np.ndarray]     # realised fluctuation density (grid kind)


def _measure(spec, where: str, dx: float,
             signed: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The (ages, masses) of a measure spec: a grid's cells at their centers, atoms as given.

    A malformed field is a ValueError that names it (``where.field``) and
    shows its value.  Ages lie in [0, ``_MAX_CELLS`` cells]; only a
    perturbation (``signed``) may carry negative mass.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be a measure spec (a dict), got {spec!r}")
    kind, least, oldest = spec.get("kind"), None if signed else 0, _MAX_CELLS * dx
    if kind == "grid":
        _only(spec, where, "kind", "support", "profile", "mass")
        lo_hi = spec.get("support")
        if not (isinstance(lo_hi, _LISTS) and len(lo_hi) == 2
                and all(_KINDS["number"][0](v) for v in lo_hi) and lo_hi[0] < lo_hi[1]):
            raise ValueError(f"{where}.support must be two numbers lo < hi, got {lo_hi!r}")
        lo, hi = _items(lo_hi, f"{where}.support", "number", lo=0, hi=oldest)
        _read(spec, "profile", where, ("uniform",), default="uniform")
        mass = _read(spec, "mass", where, "number", lo=least, default=1.0)
        centers = (np.arange(int(lo // dx), math.ceil(hi / dx) + 1) + 0.5) * dx
        ages = centers[(centers > lo) & (centers < hi)]
        if not ages.size:
            raise ValueError(f"{where}.support {lo_hi!r} holds no cell center at dt {dx!r}")
        return ages, np.full(ages.size, mass / (hi - lo) * dx)
    if kind == "atoms":
        _only(spec, where, "kind", "ages", "masses")
        ages, masses = spec.get("ages"), spec.get("masses")
        for key, value in (("ages", ages), ("masses", masses)):
            if not (isinstance(value, _LISTS) and len(value)):
                raise ValueError(f"{where}.{key} must be a nonempty list, got {value!r}")
        if len(ages) != len(masses):
            raise ValueError(f"{where}.ages and {where}.masses must be of equal length, "
                             f"got {ages!r} and {masses!r}")
        return (np.array(_items(ages, f"{where}.ages", "number", lo=0, hi=oldest)),
                np.array(_items(masses, f"{where}.masses", "number", lo=least)))
    raise ValueError(f"{where}.kind must be 'grid' or 'atoms', got {kind!r}")


def _mass_field(spec: dict, where: str) -> str:
    """A read measure spec's mass field and its value, for a message."""
    key = "mass" if spec["kind"] == "grid" else "masses"
    return f"{where}.{key} {spec.get(key, 1.0)!r}"


def _read_start(initial, perturbation, dx: float, horizon: float):
    """The base's and the perturbation's (ages, masses), and the solver grid size: one
    cell per time step plus room up to the oldest age's cell int(age / dx), as binned."""
    base = _measure(initial, "initial", dx)
    pert = ((np.empty(0), np.empty(0)) if perturbation is None
            else _measure(perturbation, "perturbation", dx, signed=True))
    extent = max(base[0].max(), pert[0].max(initial=0.0))
    n_steps = int(round(horizon / dx))
    if abs(n_steps * dx - horizon) > 1e-9:
        raise ValueError("horizon must be a multiple of the grid spacing")
    return base, pert, n_steps + int(extent / dx) + 1


def _systematic_counts(target: np.ndarray) -> np.ndarray:
    """Integer counts, in the order given, by systematic rounding ``diff(round(cumsum))``.

    The total is the rounded total, and every running count lies within half
    an individual of the running target.
    """
    target = np.asarray(target, dtype=float)
    running = np.round(np.cumsum(np.maximum(target, 0.0)))
    return np.diff(running, prepend=0.0).astype(np.int64)


def _binned(ages: np.ndarray, weights: Optional[np.ndarray], n_cells: int,
            dx: float) -> np.ndarray:
    """The weights (counts if None) summed per solver-grid cell."""
    cells = np.minimum((ages / dx).astype(int), n_cells - 1)
    return np.bincount(cells, weights=weights, minlength=n_cells)


def build_initial(config: ExperimentConfig, k: int) -> InitialCondition:
    """Realise the config's K * base + sqrt(K) * perturbation as unit-weight atoms.

    The target, summed per distinct age at load, is rounded once, in age
    order, by systematic rounding, so the count below any age is within half
    an individual of its target.  The fluctuation start is defined exactly
    from the realised atoms, so the scaled-deviation identity holds by
    construction; its panel pairings are reported, not prescribed.
    """
    base, grid, dx = config._base, config._base_grid, config.dt
    sqrt_k, t_star = math.sqrt(k), grid.t_star
    realised = np.repeat(config._ages, _systematic_counts(config._targets[k]))
    nu0 = (sqrt_k * (_binned(realised, None, grid.n_cells, dx) / (k * dx) - grid.values)
           if base is grid else None)
    empirical = AtomicMeasure(ages=realised, weight=1.0 / k, t_star=t_star)
    return InitialCondition(atoms=AtomicMeasure(ages=realised, weight=1.0, t_star=t_star),
                            nu0_values=nu0, z0=SignedPair(plus=empirical, minus=base, scale=sqrt_k))


def background_solution(config: ExperimentConfig, model: RateModel) -> LimitSolution:
    """Solve the deterministic limit from the configured base on the solver grid."""
    return solve_mvf(model, config._base_grid, config.horizon)


# ---------------------------------------------------------------------------
# reports


@dataclass
class CheckRow:
    stat: str
    value: float
    target: float
    tolerance: float
    passed: bool
    k: Optional[int] = None
    t: Optional[float] = None
    f_id: str = ""

    @staticmethod
    def band(stat: str, value: float, target: float, tolerance: float,
             k=None, t=None, f_id="") -> "CheckRow":
        return CheckRow(stat=stat, value=float(value), target=float(target),
                        tolerance=float(tolerance),
                        passed=bool(abs(value - target) <= tolerance),
                        k=k, t=t, f_id=f_id)


@dataclass
class Report:
    name: str
    rows: list[CheckRow] = field(default_factory=list)
    samples: list[tuple] = field(default_factory=list)   # (K, replicate, t, f_id, value)
    tables: dict = field(default_factory=dict)           # name -> (header, rows)
    notes: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def failure_rate_note(self):
        n = len(self.rows)
        fails = sum(not r.passed for r in self.rows)
        if n and fails / n > 0.05:
            self.notes.append(
                f"family-level: {fails}/{n} checks failed (>5%); "
                "exceeds the expected false-positive budget"
            )


# ---------------------------------------------------------------------------
# replicate execution


def _map_tasks(fn: Callable, tasks, workers: int) -> list:
    if workers <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor   # loads multiprocessing: pools only
    tasks = list(tasks)
    chunk = max(1, len(tasks) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, tasks, chunksize=chunk))


@dataclass(frozen=True)
class _Replicate:
    """One replicate of one (study, K), called with the replicate index.

    Everything here is shared by the replicates of a (study, K); only the
    index, hence the stream (:func:`_reseated_stream`), changes between calls.
    ``with_ledger`` and ``log_events`` draw no random numbers, so they never
    change the pairings.  A replicate pairs the panel from the live set; with
    ``outdir`` set it keeps snapshots and writes its event log (``log_events``)
    and its final snapshot and ledger (``with_ledger``).
    """

    model: RateModel
    atoms: AtomicMeasure
    k: int
    panel: list
    horizon: float
    dt_out: float
    population_cap: int
    stream_key: tuple                    # (master seed, purpose, K index)
    with_ledger: bool = False
    log_events: bool = False
    outdir: Optional[Path] = None

    def __call__(self, rep: int):
        """Panel pairings at the output times, and the martingale path if kept."""
        run = (self.model, self.atoms, self.k, self.horizon, self.dt_out,
               _reseated_stream(*self.stream_key, rep))
        flags = dict(with_ledger=self.with_ledger, population_cap=self.population_cap)
        if self.outdir is None:
            traj = simulate_pairings(*run, self.panel, **flags)
        else:
            traj = simulate(*run, panel=self.panel, t_star=self.atoms.t_star,
                            log_events=self.log_events, **flags)
            traj.pairings = np.array([[pair(f, s) for f in self.panel] for s in traj.snapshots])
            name = f"K{self.k}_r{rep}.csv"
            if self.log_events:
                traj.events.to_csv(self.outdir / f"events_{name}")
            if self.with_ledger:
                traj.snapshots[-1].to_csv(self.outdir / f"snapshot_{name}")
                traj.ledger.to_csv(self.outdir / f"ledger_{name}")
        if not traj.check_mass_bookkeeping():
            raise AssertionError(f"mass bookkeeping failed in replicate {rep} at K={self.k}")
        return traj.pairings, traj.ledger.martingales() if self.with_ledger else None


def _replicates(config: ExperimentConfig, k_index: int, purpose: int, workers: int,
                **flags) -> list:
    """(pairings, martingales) of every replicate at one K; ``flags`` go to :class:`_Replicate`."""
    k = config.k_values[k_index]
    task = _Replicate(config._model, config.inits[k].atoms, k, config._panel, config.horizon,
                      config.dt_out, config.population_cap, (config.seed, purpose, k_index),
                      **flags)
    return _map_tasks(task, range(config.replicates), workers)


def _add_samples(report: Report, k: int, values: np.ndarray, times, labels) -> None:
    """Append one sample row per (replicate, time, label) of ``values[rep, t, f]``."""
    report.samples.extend((k, rep, float(t), label, values[rep, ti, fi])
                          for rep in range(values.shape[0]) for ti, t in enumerate(times)
                          for fi, label in enumerate(labels))


# ---------------------------------------------------------------------------
# targets


def _limit_pairing_fn(config: ExperimentConfig):
    """Best available (f, limit measure at t) oracle for the config's model."""
    model, base = config._model, config._base
    if not model.constant_rates:
        background = config.background
        return lambda f, t: pair(f, background.frame_at(t))
    return lambda f, t: classical_pairing(f, base, model.birth.value, model.death.value,
                                          model.split_law.mean, model.life_law.mean, t)


# ---------------------------------------------------------------------------
# verification runs


def run_lln(config: ExperimentConfig, workers: Optional[int] = None) -> Report:
    """Replicate means of (f, empirical measure) against the deterministic limit.

    Reports per-(K, t, f) mean checks at 3 standard errors and, per f, the
    log-log slope of the root-mean-square deviation against K, which the
    scaled-fluctuation limit predicts to sit near -1/2.
    """
    workers = config.workers if workers is None else workers
    target_of = _limit_pairing_fn(config)
    panel, out_times = config._panel, output_times(config.horizon, config.dt_out)

    report = Report(name="lln")
    targets = {(ti, fi): target_of(f, float(t))
               for ti, t in enumerate(out_times) for fi, f in enumerate(panel)}
    rms_by_f = {f.label: [] for f in panel}
    for k_index, k in enumerate(config.k_values):
        arr = np.stack([p for p, _ in _replicates(config, k_index, PURPOSE_LLN, workers)])
        _add_samples(report, k, arr, out_times, [f.label for f in panel])
        for ti, t in enumerate(out_times):
            if t == 0.0:
                continue
            for fi, f in enumerate(panel):
                target = targets[(ti, fi)]
                s = sample_summary(arr[:, ti, fi])
                report.rows.append(CheckRow.band(
                    "lln_mean", s.mean, target, 3.0 * s.se_mean,
                    k=k, t=float(t), f_id=f.label))
                if ti == len(out_times) - 1:        # the horizon
                    rms = float(np.sqrt(np.mean((arr[:, ti, fi] - target) ** 2)))
                    rms_by_f[f.label].append(rms)

    slope_rows = []
    for f in panel:
        errs = np.array(rms_by_f[f.label])
        if len(config.k_values) >= 2 and np.all(errs > 0):
            slope = fit_loglog_slope(np.array(config.k_values, dtype=float), errs)
            report.rows.append(CheckRow.band(
                "lln_slope", slope, -0.5, 0.15, t=config.horizon, f_id=f.label))
            for k, e in zip(config.k_values, errs):
                slope_rows.append((k, config.horizon, f.label, e))
    report.tables["lln_rms"] = (("K", "t", "f_id", "rms_error"), slope_rows)
    report.failure_rate_note()
    return report


def run_qv_check(config: ExperimentConfig, workers: Optional[int] = None) -> Report:
    """Martingale mean-zero, variance-vs-QV and pairwise covariation checks."""
    workers = config.workers if workers is None else workers
    model, panel = config._model, config._panel
    t_end = config.horizon
    report = Report(name="qv")

    # a classical unit function's QV is closed form; every other target is one matrix entry
    unit = [model.constant_rates and f.kind == "exp" and not f.lam for f in panel]
    cov = (covariation_integral_frames(model, config.background, panel, t_end).tolist()
           if len(panel) > 1 or not all(unit) else None)
    qv_targets = [classical_qv_mass(config._base.mass, model.birth.value, model.death.value,
                                    model.life_law, model.split_law, t_end)
                  if is_unit else cov[fi][fi] for fi, is_unit in enumerate(unit)]

    cov_rows = []
    for k_index, k in enumerate(config.k_values):
        results = _replicates(config, k_index, PURPOSE_QV, workers, with_ledger=True)
        mart_t = np.stack([m[-1] for _, m in results]) / math.sqrt(k)  # (M, P)
        _add_samples(report, k, mart_t[:, None, :], [t_end],
                     ["M~:" + f.label for f in panel])
        for fi, f in enumerate(panel):
            s = sample_summary(mart_t[:, fi])
            report.rows.append(CheckRow.band(
                "mart_mean", s.mean, 0.0, 3.0 * s.se_mean, k=k, t=t_end, f_id=f.label))
            report.rows.append(CheckRow.band(
                "mart_var_vs_qv", s.var, qv_targets[fi], 3.0 * s.se_var,
                k=k, t=t_end, f_id=f.label))
        for fi, gi in zip(*np.triu_indices(len(panel), 1)):
            value = float(np.cov(mart_t[:, fi], mart_t[:, gi], ddof=1)[0, 1])
            se = se_of_covariance(mart_t[:, fi], mart_t[:, gi])
            report.rows.append(CheckRow.band(
                "mart_covariation", value, cov[fi][gi], 3.0 * se, k=k, t=t_end,
                f_id=f"{panel[fi].label}&{panel[gi].label}"))
            cov_rows.append((k, panel[fi].label, panel[gi].label, value, cov[fi][gi]))
    report.tables["qv_covariation"] = (("K", "f_id", "g_id", "covariance", "target"), cov_rows)
    report.failure_rate_note()
    return report


def run_clt(config: ExperimentConfig, workers: Optional[int] = None) -> Report:
    """Fluctuation means, variances and Gaussianity against the limit laws.

    A ``clt_mean`` target is a closed form where one exists, else (at the
    largest K, from a grid-kind start) the mean of the grid scheme's law,
    which also gives the SPDE variances.  Only a classical model steps the
    mean forward (``evolve_mean``), to check it against its closed form.
    """
    workers = config.workers if workers is None else workers
    model, panel, background = config._model, config._panel, config.background
    classical = model.constant_rates
    target_of = _limit_pairing_fn(config)
    t_end = config.horizon
    report = Report(name="clt")

    k_max = max(config.k_values)
    limit_at_t = {f.label: target_of(f, t_end) for f in panel}

    # mean targets from the realised fluctuation starts
    lm, sm = model.life_law.mean, model.split_law.mean
    mean_targets: dict[tuple[int, str], Optional[float]] = {}
    for k, init in config.inits.items():
        z0_mass = init.z0.mass
        for f in panel:
            z0f = init.z0.pair(f)
            if classical and f.kind == "exp":
                mean_targets[(k, f.label)] = classical_exp_mean(
                    f.lam, z0f, z0_mass, model.birth.value, model.death.value, sm, lm, t_end)
            elif model.family == "density_dependent" and f.kind == "exp":
                mean_targets[(k, f.label)] = density_dependent_exp_mean(
                    f.lam, z0f, z0_mass, model, background, t_end)
            else:
                mean_targets[(k, f.label)] = None

    # the grid scheme's law from the realised start (grid-kind bases only): its mean
    # is the scheme's mean pairing at t_end, the target where no closed form is
    spde_var: dict[str, float] = {}
    nu0 = config.inits[k_max].nu0_values
    if nu0 is not None:
        law = fluctuation_law(model, background, nu0, panel, [t_end])
        for fi, f in enumerate(panel):
            if mean_targets[(k_max, f.label)] is None:
                mean_targets[(k_max, f.label)] = float(law[0][fi])
        if classical:
            # the forward mean sweep against its closed form
            mean_path = evolve_mean(model, nu0, background, [t_end])
            z0_grid = GridDensity(dx=config.dt, values=nu0, signed=True)
            exact_grid = classical_exact(
                z0_grid, model.birth.value, model.death.value, sm, lm, t_end)
            linf = float(np.max(np.abs(mean_path.values[-1] - exact_grid.values)))
            report.rows.append(CheckRow.band(
                "evolve_mean_linf", linf, 0.0, 5.0 * config.dt, t=t_end))

        # SPDE path study at the finest grid
        path_samples, report.tables["spde_path_stats"] = _path_study(config, nu0, [t_end], law)
        for fi, (f, row) in enumerate(zip(panel, report.tables["spde_path_stats"][1])):
            spde_var[f.label] = row[3]
            if classical and f.kind == "exp":
                oracle = ito_isometry_variance(
                    f.lam, config._base_grid, model.birth.value,
                    model.death.value, model.life_law, model.split_law, t_end)
                report.rows.append(CheckRow.band(
                    "spde_var_vs_oracle", spde_var[f.label], oracle,
                    3.0 * se_of_variance(path_samples[:, 0, fi]), t=t_end, f_id=f.label))
                # the first-order scheme's exact variance sits ~1 dt below the oracle
                report.rows.append(CheckRow.band(
                    "spde_law_var_vs_oracle", float(law[1][fi, fi]), oracle,
                    2.0 * config.dt * abs(oracle), t=t_end, f_id=f.label))

    for k_index, k in enumerate(config.k_values):
        arr = np.stack([p for p, _ in _replicates(config, k_index, PURPOSE_CLT, workers)])
        sqrt_k = math.sqrt(k)
        for fi, f in enumerate(panel):
            z_samples = sqrt_k * (arr[:, -1, fi] - limit_at_t[f.label])
            _add_samples(report, k, z_samples[:, None, None], [t_end], ["Z:" + f.label])
            s = sample_summary(z_samples)
            target = mean_targets[(k, f.label)]
            if target is not None:
                report.rows.append(CheckRow.band(
                    "clt_mean", s.mean, target, 3.0 * s.se_mean,
                    k=k, t=t_end, f_id=f.label))
            if k == k_max:
                if f.label in spde_var:
                    report.rows.append(CheckRow.band(
                        "clt_var_vs_spde", s.var, spde_var[f.label],
                        0.10 * abs(spde_var[f.label]), k=k, t=t_end, f_id=f.label))
                report.rows.append(CheckRow(
                    stat="clt_jarque_bera_p", value=s.jb_pvalue, target=1.0,
                    tolerance=0.01, passed=bool(s.jb_pvalue > 0.01),
                    k=k, t=t_end, f_id=f.label))
    report.failure_rate_note()
    return report


def run_convergence(config: ExperimentConfig) -> Report:
    """Refinement studies for the solvers plus one step's noise law against the
    covariation formula."""
    report = Report(name="convergence")
    table, dts = [], [4e-3, 2e-3, 1e-3]

    def box(dt, t_star):
        return GridDensity.from_function(lambda x: np.where(x < 1.0, 1.0, 0.0),
                                         t_star=t_star, dx=dt)

    def refine(study, stat, dts, error, ratio, tol):
        """``study``'s error at each dt into the table; each error over the next, a
        band around ``ratio``, into the report."""
        errs = [error(dt) for dt in dts]
        table.extend((study, dt, e) for dt, e in zip(dts, errs))
        for coarse, fine in zip(errs, errs[1:]):
            report.rows.append(CheckRow.band(stat, coarse / fine, ratio, tol))

    # transport-only: exact shift
    a0, shift = box(dts[0], 1.5), int(round(0.5 / dts[0]))
    transport = classical_model(0.0, 0.0, OffspringLaw.deterministic(0),
                                OffspringLaw.deterministic(0))
    sol = solve_mvf(transport, a0, 0.5)
    shift_err = float(np.max(np.abs(sol.values[-1][shift:] - a0.values[:a0.n_cells - shift])))
    report.rows.append(CheckRow.band("transport_exact", shift_err, 0.0, 1e-12))

    # limit-solver order against the constant-parameter closed form
    study = classical_model(0.0, 1.0, OffspringLaw.deterministic(0),
                            OffspringLaw.deterministic(2))

    def mvf_error(dt):
        a0 = box(dt, 1.5)
        ref = classical_exact(a0, 0.0, 1.0, 2.0, 0.0, 0.5)
        return float(np.max(np.abs(solve_mvf(study, a0, 0.5).values[-1] - ref.values)))

    refine("solve_mvf", "solve_mvf_order_ratio", dts, mvf_error, 2.0, 0.4)

    # total-mass RK4 order against the logistic closed form
    logistic = RateModel(
        birth=ConstantRate(0.0),
        death=DensityRate(1.0, -1.0),
        life_law=OffspringLaw.deterministic(0),
        split_law=OffspringLaw.deterministic(2),
        birth_sup=0.0, death_sup=1.0)
    refine("solve_total_ode", "total_ode_order_ratio", [0.2, 0.1, 0.05],
           lambda dt: abs(solve_total_ode(logistic, 0.5, 1.0, dt)[1][-1]
                          - float(logistic_exact(0.5, 1.0))), 16.0, 4.0)

    # fluctuation-mean order (generic constants where the scheme is first order)
    gen = classical_model(0.6, 0.7, OffspringLaw.deterministic(1),
                          OffspringLaw.deterministic(2))

    def mean_error(dt):
        a0 = box(dt, 2.0)
        bg = solve_mvf(gen, a0, 1.0)
        z0 = np.where(a0.centers < 1.0, 1.0, 0.0)
        ref = classical_exact(GridDensity(dx=dt, values=z0, signed=True),
                              0.6, 0.7, 2.0, 1.0, 1.0)
        return float(np.max(np.abs(evolve_mean(gen, z0, bg, [1.0]).values[-1] - ref.values)))

    refine("evolve_mean", "evolve_mean_order_ratio", dts, mean_error, 2.0, 0.4)
    report.tables["convergence"] = (("study", "dt", "linf_error"), table)

    # noise: one step's exact law from the middle frame against the covariation formula
    model, panel, background = config._model, config._panel, config.background
    # never the last frame (two frames at horizon dt): a step from it leaves the grid
    frame = background.frame((background.values.shape[0] - 1) // 2)
    dt = config.dt
    one = solve_mvf(model, frame, dt)
    zeros = np.zeros(frame.n_cells)
    law = fluctuation_law(model, one, zeros, panel, [dt])
    targets = remark_covariance_grid(model, frame, panel, dt)
    upper = np.triu_indices(len(panel))
    worst = float(np.max(np.abs(law[1][upper] - targets[upper])
                         / np.maximum(np.abs(targets[upper]), 1e-14)))
    report.rows.append(CheckRow.band("noise_cov_identity_rel", worst, 0.0, 1e-10))

    paths = simulate_fluctuation_paths(model, one, zeros, 10 ** 5, panel, [dt],
                                       partial(replicate_stream, config.seed, PURPOSE_SPDE, 1),
                                       law=law)[:, 0]
    for fi, gi in zip(*np.triu_indices(min(3, len(panel)))):
        nf, ng = paths[:, fi], paths[:, gi]
        report.rows.append(CheckRow.band(
            "noise_cov_empirical", float(np.cov(nf, ng, ddof=1)[0, 1]),
            targets[fi, gi], 3.0 * se_of_covariance(nf, ng),
            f_id=f"{panel[fi].label}&{panel[gi].label}"))
    report.failure_rate_note()
    return report


# ---------------------------------------------------------------------------
# plain runs (CLI surfaces)


def run_simulate(config: ExperimentConfig, outdir: Optional[Path] = None,
                 workers: Optional[int] = None) -> Report:
    """Simulate replicates and emit snapshot pairings (and optional event logs)."""
    workers = config.workers if workers is None else workers
    report = Report(name="simulate")
    emit_files = outdir is not None
    for k_index, k in enumerate(config.k_values):
        results = _replicates(config, k_index, PURPOSE_SIM, workers,
                              with_ledger=emit_files and config.emit_fields,
                              log_events=emit_files and config.emit_events, outdir=outdir)
        _add_samples(report, k, np.stack([p for p, _ in results]),
                     output_times(config.horizon, config.dt_out), [f.label for f in config._panel])
    return report


def _write_frames(config: ExperimentConfig, sol: LimitSolution, outdir: Path,
                  stem: str) -> None:
    """Write the frame of ``sol`` at each output time to ``<stem>_t<time>.csv``."""
    for t in output_times(config.horizon, config.dt_out):
        sol.frame_at(t).to_csv(outdir / f"{stem}_t{t:.6g}.csv")


def _path_study(config: ExperimentConfig, nu0: np.ndarray, record, law=None):
    """SPDE pairing samples from ``nu0`` at the record times (from their ``law``
    if given) and their (t, f_id, mean, var, n_paths) table."""
    samples = simulate_fluctuation_paths(config._model, config.background, nu0,
                                         config.n_spde_paths, config._panel, record,
                                         partial(spde_noise_stream, config.seed),
                                         block_size=config.spde_block, law=law)
    rows = [(float(t), f.label, float(vals.mean()), float(np.var(vals, ddof=1)), vals.size)
            for ri, t in enumerate(record) for fi, f in enumerate(config._panel)
            for vals in [samples[:, ri, fi]]]
    return samples, (("t", "f_id", "mean", "var", "n_paths"), rows)


def run_limit(config: ExperimentConfig, outdir: Optional[Path] = None) -> Report:
    sol = config.background
    report = Report(name="limit")
    report.tables["totals"] = (("t", "X"), list(zip(sol.times, sol.totals)))
    if outdir is not None:
        _write_frames(config, sol, outdir, "limit_frame")
    return report


def run_fluctuate(config: ExperimentConfig, outdir: Optional[Path] = None) -> Report:
    nu0 = config.inits[max(config.k_values)].nu0_values
    if nu0 is None:
        raise ValueError("fluctuation paths need a grid-kind initial target")
    report = Report(name="fluctuate")
    times = output_times(config.horizon, config.dt_out)
    _, report.tables["path_stats"] = _path_study(config, nu0, times)
    if config.emit_fields and outdir is not None:
        _write_frames(config, evolve_mean(config._model, nu0, config.background, times),
                      outdir, "mean_field")
    return report


# ---------------------------------------------------------------------------
# emission


def emit(report: Report, outdir: Union[str, Path], config: Optional[ExperimentConfig] = None,
         wall_clock_s: Optional[float] = None) -> Path:
    """Write manifest, summary, samples and tidy plot tables.

    ``summary.csv`` and ``samples.csv`` are byte-identical across reruns for
    a fixed seed and worker count; the manifest carries timing metadata and
    is exempt from that guarantee.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "report": report.name,
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": config.seed if config else None,
        "config": config.to_dict() if config else None,
        "wall_clock_s": wall_clock_s,
        "all_passed": report.all_passed,
        "notes": report.notes,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2))

    write_csv(outdir / "summary.csv", "K,t,f_id,stat,value,target,tolerance,pass".split(","),
              ((r.k, None if r.t is None else float(r.t), r.f_id, r.stat, r.value, r.target,
                r.tolerance, r.passed) for r in report.rows))
    write_csv(outdir / "samples.csv", "K,replicate,t,f_id,value".split(","),
              ((k, rep, float(t), f_id, float(v)) for k, rep, t, f_id, v in report.samples))
    plotdir = outdir / "plotdata"
    plotdir.mkdir(exist_ok=True)
    for name, (header, rows) in report.tables.items():
        write_csv(plotdir / f"{name}.csv", header, rows)
    return outdir
