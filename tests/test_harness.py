import copy
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from agestruct import harness, spde
from agestruct.acceptance import clt_config, lln_config, qv_config
from agestruct.harness import (CheckRow, ExperimentConfig, Report, _systematic_counts,
                               build_initial, emit, model_from_config,
                               replicate_stream, run_clt, run_convergence, run_limit,
                               run_lln, run_qv_check, run_simulate)
from agestruct.measures import constant, exponential, pair
from agestruct.rates import ModelError

CLASSICAL = {"family": "classical", "birth": 0.0, "death": 1.0,
             "life_law": {"kind": "deterministic", "k": 0},
             "split_law": {"kind": "deterministic", "k": 2}}


def small_config(**overrides):
    base = dict(
        model=dict(CLASSICAL),
        initial={"kind": "atoms", "ages": [0.0], "masses": [1.0]},
        horizon=1.0, dt=4e-3, dt_out=0.5,
        k_values=[60, 240], replicates=40, panel=["1"], seed=321)
    base.update(overrides)
    return ExperimentConfig(**base)


# -- configuration ---------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="got 1$"):
        small_config(replicates=1)
    with pytest.raises(ValueError, match="got 0$"):
        small_config(k_values=[60, 0])
    with pytest.raises(ValueError, match="got 2.5$"):
        small_config(k_values=[2.5])
    with pytest.raises(ValueError, match="dt 0.0003 must divide dt_out 0.5$"):
        small_config(dt=3e-4)
    with pytest.raises(ValueError, match="dt_out 0.3 must divide the horizon 1.0$"):
        small_config(dt_out=0.3)


def check_rejected(tmp_path, field, value, message):
    """``value`` in ``field`` fails with ``message``, directly and through a JSON file."""
    with pytest.raises(ValueError, match=message):
        small_config(**{field: value})
    spec = small_config().to_dict()
    spec[field] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_json(p)


@pytest.mark.parametrize("field, value", [("spde_block", 0), ("n_spde_paths", 1),
                                          ("workers", 0)])
def test_config_rejects_bad_spde_sizes(tmp_path, field, value):
    # spde_block 0 would never advance the SPDE block loop
    check_rejected(tmp_path, field, value, rf"{field} must be at least \d+, got {value}$")


@pytest.mark.parametrize("field", ["horizon", "dt", "dt_out"])
@pytest.mark.parametrize("value", [0.0, -0.5, math.nan, math.inf])
def test_config_rejects_bad_time_steps(tmp_path, field, value):
    # 0 divided by zero, nan failed in round(), and a negative time was
    # accepted until the initial condition found no grid cells
    check_rejected(tmp_path, field, value,
                   rf"{field} must be finite and positive, got {value!r}$")


@pytest.mark.parametrize("value", [1.5, True, -1, 2 ** 64, "7"])
def test_config_rejects_bad_seeds(tmp_path, value):
    # 1.5 ran on seed 1's streams, and True and -1 were accepted
    check_rejected(tmp_path, "seed", value,
                   rf"seed must be an integer in \[0, 2\^64\), got {re.escape(repr(value))}$")


@pytest.mark.parametrize("field", ["replicates", "n_spde_paths", "spde_block", "workers",
                                   "population_cap"])
@pytest.mark.parametrize("value", ["40", 40.0, False])
def test_config_rejects_non_integer_counts(tmp_path, field, value):
    check_rejected(tmp_path, field, value,
                   rf"{field} must be an integer, got {re.escape(repr(value))}$")


@pytest.mark.parametrize("field", ["horizon", "dt", "dt_out"])
@pytest.mark.parametrize("value", ["0.004", True, None])
def test_config_rejects_non_numeric_times(tmp_path, field, value):
    # a numeric string failed with a bare TypeError that named no field
    check_rejected(tmp_path, field, value,
                   rf"{field} must be a real number, got {re.escape(repr(value))}$")


@pytest.mark.parametrize("value", ["60", True, None])
def test_config_rejects_non_numeric_k_values(tmp_path, value):
    check_rejected(tmp_path, "k_values", [60, value],
                   rf"k_values\[1\] must be an integer, got {re.escape(repr(value))}$")


@pytest.mark.parametrize("value", [60, "60", None])
def test_config_rejects_k_values_that_are_not_a_list(tmp_path, value):
    check_rejected(tmp_path, "k_values", value,
                   rf"k_values must be a list of K values, got {re.escape(repr(value))}$")


def test_config_rejects_empty_k_values(tmp_path):
    # once a bare "max() arg is an empty sequence"
    check_rejected(tmp_path, "k_values", [], r"k_values must name at least one K, got \[\]$")


def test_config_rejects_an_empty_panel(tmp_path):
    # once a study of zero rows, which passed; None is the default panel
    check_rejected(tmp_path, "panel", [], r"panel must name at least one test function "
                                          r"\(None: the default panel\), got \[\]$")
    assert small_config(panel=None).panel is None


@pytest.mark.parametrize("value", [[None], [1], ["1", 2.5], -1, "1"])
def test_config_rejects_a_malformed_panel(tmp_path, value):
    # the lists once failed on a bare "no attribute 'strip'", -1 on len(),
    # and "1" ran as the panel of its characters
    check_rejected(tmp_path, "panel", value, r"panel must be a list of test function specs "
                                             rf"\(strings\), got {re.escape(repr(value))}$")


@pytest.mark.parametrize("field", ["initial", "perturbation"])
@pytest.mark.parametrize("kind", ["gird", None])
def test_config_rejects_unknown_measure_kinds(tmp_path, field, kind):
    # "gird" once ran as atoms
    spec = {"kind": "grid", "profile": "uniform", "support": [0.0, 1.0], "mass": 1.0}
    if kind is None:
        del spec["kind"]
    else:
        spec["kind"] = kind
    check_rejected(tmp_path, field, spec,
                   rf"{field}\.kind must be 'grid' or 'atoms', got {re.escape(repr(kind))}$")


@pytest.mark.parametrize("field", ["initial", "perturbation"])
@pytest.mark.parametrize("spec, message", [
    ({"kind": "grid"}, r"\.support must be two numbers lo < hi, got None"),
    ({"kind": "grid", "support": [1.0]}, r"\.support must be two numbers lo < hi, got \[1\.0\]"),
    ({"kind": "grid", "support": [1.0, 0.5]},
     r"\.support must be two numbers lo < hi, got \[1\.0, 0\.5\]"),
    ({"kind": "grid", "support": ["0", "1"]},
     r"\.support must be two numbers lo < hi, got \['0', '1'\]"),
    ({"kind": "grid", "support": [0.0, math.inf]},
     r"\.support must be two numbers lo < hi, got \[0\.0, inf\]"),
    ({"kind": "atoms", "ages": [0.0]}, r"\.masses must be a nonempty list, got None"),
    ({"kind": "atoms", "masses": [1.0]}, r"\.ages must be a nonempty list, got None"),
    ({"kind": "atoms", "ages": [], "masses": []}, r"\.ages must be a nonempty list, got \[\]"),
    ({"kind": "atoms", "ages": [0.0, 0.5], "masses": 1.0},
     r"\.masses must be a nonempty list, got 1\.0"),
    ({"kind": "atoms", "ages": [0.0, 0.5], "masses": [1.0]},
     r"\.ages and \w+\.masses must be of equal length, got \[0\.0, 0\.5\] and \[1\.0\]"),
    ("grid", r" must be a measure spec \(a dict\), got 'grid'"),
    ({"kind": "grid", "profile": "gauss", "support": [0.0, 1.0]},
     r"\.profile must be 'uniform', got 'gauss'"),
    ({"kind": "grid", "support": [0.0, 1.0], "mass": "1"},
     r"\.mass must be a finite number, got '1'"),
    ({"kind": "atoms", "ages": ["0.5"], "masses": [1.0]},
     r"\.ages\[0\] must be a finite number, got '0\.5'"),
    ({"kind": "grid", "support": [0.001, 0.0015]},
     r"\.support \[0\.001, 0\.0015\] holds no cell center at dt 0\.004"),
    ({"kind": "atoms", "ages": [0.0, 0.5], "masses": [1.0, math.nan]},
     r"\.masses\[1\] must be a finite number, got nan"),
    ({"kind": "atoms", "ages": [-0.5], "masses": [1.0]},
     r"\.ages\[0\] must be nonnegative, got -0\.5"),
], ids=["grid_no_support", "grid_one_number", "grid_lo_above_hi", "grid_strings",
        "grid_infinite_support", "atoms_no_masses", "atoms_no_ages", "atoms_empty",
        "atoms_scalar_masses", "atoms_unequal", "not_a_dict", "grid_unknown_profile",
        "grid_string_mass", "atoms_string_ages", "grid_no_cell_center", "atoms_nan_mass",
        "atoms_negative_age"])
def test_config_names_a_malformed_measure_spec(tmp_path, field, spec, message):
    # once a bare KeyError ('support', 'masses') from the first run; a string mass or
    # age once ran as a number, and the others failed late or named no field
    check_rejected(tmp_path, field, spec, rf"^{field}{message}$")


@pytest.mark.parametrize("spec, message, base", [
    ({"kind": "atoms", "ages": [0.0], "masses": [-1.0]}, r"\.masses\[0\]",
     {"kind": "atoms", "ages": [0.0], "masses": [1.0]}),
    ({"kind": "grid", "support": [0.0, 1.0], "mass": -1.0}, r"\.mass",
     {"kind": "grid", "support": [0.0, 1.0], "mass": 1.0}),
], ids=["atoms", "grid"])
def test_only_a_perturbation_carries_negative_mass(tmp_path, spec, message, base):
    # a negative initial mass once failed late, with "negative target count"; on a
    # base over the perturbation's ages, K - sqrt(K) >= 0 per unit of mass
    check_rejected(tmp_path, "initial", spec,
                   rf"^initial{message} must be nonnegative, got -1\.0$")
    cfg = small_config(initial=base, perturbation=spec)
    assert cfg.perturbation == spec
    for k in cfg.k_values:
        assert cfg.inits[k].atoms.count == round(k - math.sqrt(k))


def test_an_infeasible_start_fails_at_load(tmp_path):
    # an atom base at age 0 under a grid perturbation of mass -1 is negative in
    # every other cell at every K; it once loaded, and each study then failed
    check_rejected(tmp_path, "perturbation", {"kind": "grid", "support": [0.0, 1.0], "mass": -1.0},
                   r"^perturbation\.mass -1\.0 leaves a negative count \(-0\.0309839\) at "
                   r"K = 60: infeasible$")


def test_config_needs_an_initial_measure(tmp_path):
    # None once passed the config and failed in the first run
    check_rejected(tmp_path, "initial", None, r"^initial must be a measure spec \(a dict\), "
                                              r"got None$")


def test_config_accepts_the_seed_range_and_integer_times():
    for seed in (0, 2 ** 64 - 1):
        assert small_config(seed=seed, horizon=1).seed == seed


def test_config_keeps_numpy_integers_as_python_ints(tmp_path):
    # they pass the checks, and the manifest's JSON could not write them
    cfg = small_config(seed=np.uint64(5), replicates=np.int64(4), k_values=[np.int64(20)])
    assert type(cfg.seed) is type(cfg.replicates) is type(cfg.k_values[0]) is int
    emit(run_lln(cfg, workers=1), tmp_path, cfg)
    assert json.loads((tmp_path / "manifest.json").read_text())["config"]["seed"] == 5


def test_config_rejects_negative_times_together(tmp_path):
    with pytest.raises(ValueError, match="horizon must be finite and positive, got -1.0$"):
        small_config(horizon=-1.0, dt=-4e-3, dt_out=-0.5)


def test_config_json_round_trip(tmp_path):
    cfg = small_config()
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
    cfg2 = ExperimentConfig.from_json(p)
    assert cfg2.to_dict() == cfg.to_dict()


def test_config_json_unknown_key_is_named(tmp_path):
    spec = small_config().to_dict()
    spec["replicats"] = 10
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match="replicats") as err:
        ExperimentConfig.from_json(p)
    assert "replicates" in str(err.value) and "n_spde_paths" in str(err.value)


def test_model_from_config_families():
    m = model_from_config({"family": "density_dependent", "birth": 0.2,
                           "death": {"kind": "affine", "a": 1.0, "b": 1.0},
                           "death_sup": 5.0,
                           "life_law": {"kind": "deterministic", "k": 1},
                           "split_law": {"kind": "poisson", "mean": 1.5}})
    assert m.death_sup == 5.0 and m.split_law.mean == 1.5
    with pytest.raises(ValueError):
        model_from_config({"family": "density_dependent", "birth": 0.2,
                           "death": {"kind": "affine", "a": 1.0, "b": 1.0},
                           "life_law": {"kind": "deterministic", "k": 1},
                           "split_law": {"kind": "deterministic", "k": 2}})
    m = model_from_config({"family": "kernel_linear", "birth": 0.1,
                           "death": {"kernel": {"kind": "exp_decay", "alpha": 1.0},
                                     "phi": "inv1p", "c": 1.0},
                           "death_sup": 1.0,
                           "life_law": {"kind": "deterministic", "k": 0},
                           "split_law": {"kind": "deterministic", "k": 2}})
    assert m.family == "kernel_linear"


DENSITY = {"family": "density_dependent", "birth": 0.2,
           "death": {"kind": "affine", "a": 1.0, "b": 1.0}, "death_sup": 5.0,
           "life_law": {"kind": "two_point", "p": 0.5, "k1": 0, "k2": 2},
           "split_law": {"kind": "poisson", "mean": 1.5}}
AGE_DENSITY = dict(DENSITY, family="age_density",
                   death={"age": {"kind": "exp_decay", "alpha": 0.5},
                          "mass": {"kind": "constant", "c": 1.0}})
KERNEL = dict(DENSITY, family="kernel_linear",
              death={"kernel": {"kind": "exp_decay", "alpha": 1.0}, "phi": "inv1p", "c": 1.0})


def without(spec, *path):
    """A copy of ``spec`` with the field at ``path`` (keys into nested dicts) dropped."""
    out = dict(spec)
    if len(path) == 1:
        del out[path[0]]
    else:
        out[path[0]] = without(spec[path[0]], *path[1:])
    return out


MISSING_FIELDS = [
    (without(CLASSICAL, "family"), "model", "family"),
    (without(CLASSICAL, "birth"), "model", "birth"),
    (without(CLASSICAL, "death"), "model", "death"),
    (without(CLASSICAL, "life_law"), "model", "life_law"),
    (without(CLASSICAL, "split_law"), "model", "split_law"),
    (without(CLASSICAL, "split_law", "k"), "model.split_law", "k"),
    (without(CLASSICAL, "life_law", "kind"), "model.life_law", "kind"),
    (without(DENSITY, "split_law", "mean"), "model.split_law", "mean"),
    (without(DENSITY, "life_law", "k2"), "model.life_law", "k2"),
    (without(DENSITY, "death", "b"), "model.death", "b"),
    (without(DENSITY, "death", "kind"), "model.death", "kind"),
    (without(AGE_DENSITY, "death", "mass"), "model.death", "mass"),
    (without(AGE_DENSITY, "death", "mass", "c"), "model.death.mass", "c"),
    (without(AGE_DENSITY, "death", "age", "kind"), "model.death.age", "kind"),
    (without(KERNEL, "death", "kernel"), "model.death", "kernel"),
    (without(KERNEL, "death", "kernel", "kind"), "model.death.kernel", "kind"),
    (without(KERNEL, "death", "phi"), "model.death", "phi"),
]


@pytest.mark.parametrize("spec, where, key", MISSING_FIELDS,
                         ids=[f"{where}.{key}" for _, where, key in MISSING_FIELDS])
def test_model_spec_names_its_missing_field(spec, where, key):
    for whole in (CLASSICAL, DENSITY, AGE_DENSITY, KERNEL):
        model_from_config(whole)
    shown = spec
    for part in where.split(".")[1:]:
        shown = shown[part]
    with pytest.raises(ValueError) as err:
        model_from_config(spec)
    assert str(err.value) == f"{where} needs a {key!r} field; got {shown!r}"


@pytest.mark.parametrize("phi, coefficients, takes", [
    ("inv1p", {"c": 1.0, "c0": 5.0}, "c"),
    ("special", {"d0": 0.5, "d1": 0.1, "cz": 0.2}, "d0, d1"),
    ("affine", {"c0": 0.2, "cy": 0.3, "cz": 0.5, "d1": 0.1}, "c0, cy, cz"),
])
def test_kernel_rate_takes_only_its_phi_forms_coefficients(phi, coefficients, takes):
    # each once loaded, and phi ignored the coefficient its form does not take: the
    # inv1p rate with c0 = 5 had phi(1, 0.5) = 0.5
    death = {"kernel": {"kind": "exp_decay", "alpha": 1.0}, "phi": phi, **coefficients}
    with pytest.raises(ValueError) as err:
        model_from_config(dict(KERNEL, death=death))
    extra = repr(list(coefficients)[-1])
    assert str(err.value) == (f"model.death has unknown key(s) {extra}; it takes kernel, age, "
                              f"phi, {takes}")


@pytest.mark.parametrize("field", ["birth", "death"])
@pytest.mark.parametrize("rate", [{"kind": "constant", "c": 1.0}, "0.5"],
                         ids=["scalar_fn_spec", "string"])
def test_classical_rate_must_be_a_number(field, rate):
    # once "unknown model family 'classical'"
    with pytest.raises(ValueError) as err:
        model_from_config(dict(CLASSICAL, **{field: rate}))
    assert str(err.value) == (f"model.{field} of a classical model must be a number, "
                              f"got {rate!r}")


# one config per model family and start kind, every field of its model spec set
FAMILY_MODELS = {
    "classical": {"family": "classical", "birth": 0.5, "death": 1.0, "birth_sup": 0.5,
                  "death_sup": 1.0, "life_law": {"kind": "poisson", "mean": 1.0, "cap": 20},
                  "split_law": {"kind": "deterministic", "k": 2}},
    "density_dependent": DENSITY,
    "age_density": dict(AGE_DENSITY, birth_sup=2.0,
                        birth={"age": {"kind": "gaussian", "c": 1.0, "alpha": 0.0,
                                       "center": 0.5, "sigma": 0.3},
                               "mass": {"kind": "affine", "a": 0.5, "b": 0.1}},
                        death={"age": {"kind": "exp_decay", "alpha": 0.5}, "mass": 1.0}),
    "kernel_linear": dict(KERNEL, birth_sup=2.0,
                          birth={"kernel": {"kind": "gaussian", "c": 1.0, "sigma": 0.5},
                                 "phi": "special", "d0": 0.5, "d1": 0.1},
                          death={"kernel": {"kind": "exp_decay", "c": 1.0, "alpha": 1.0},
                                 "age": {"kind": "constant", "c": 1.0}, "phi": "affine",
                                 "c0": 0.2, "cy": 0.3, "cz": 0.5}),
    "kernel_inv1p": dict(KERNEL, birth_sup=2.0,
                         birth={"kernel": {"kind": "constant", "c": 1.0},
                                "age": {"kind": "exp_decay", "c": 1.0, "alpha": 0.5},
                                "phi": "inv1p", "c": 0.5}),
}
STARTS = {
    "grid": ({"kind": "grid", "profile": "uniform", "support": [0.0, 1.0], "mass": 1.0},
             {"kind": "grid", "profile": "uniform", "support": [0.0, 0.5], "mass": 1.0}),
    "atoms": ({"kind": "atoms", "ages": [0.0, 0.5], "masses": [0.5, 0.5]},
              {"kind": "atoms", "ages": [0.25], "masses": [1.0]}),
}
BASES = [(family, start) for family in FAMILY_MODELS for start in STARTS]


def base_spec(family, start):
    initial, perturbation = STARTS[start]
    return copy.deepcopy(dict(
        model=FAMILY_MODELS[family], initial=initial, perturbation=perturbation,
        horizon=0.1, dt=0.01, dt_out=0.05, k_values=[20], replicates=2, seed=1,
        panel=["1", "x"], n_spde_paths=2, spde_block=1, workers=1, emit_events=False,
        emit_fields=False, population_cap=10 ** 7, outdir="out"))


def leaves(spec, path=""):
    """(path, parent path, parent, key) of every value in ``spec`` that is no dict or list."""
    items = spec.items() if isinstance(spec, dict) else enumerate(spec)
    for key, value in items:
        where = (f"{path}[{key}]" if isinstance(spec, list)
                 else f"{path}.{key}" if path else key)
        if isinstance(value, (dict, list)):
            yield from leaves(value, where)
        else:
            yield where, path, spec, key


BAD_VALUES = [None, -1, 0, "x", [], {}, math.nan, math.inf, 1e308, True, [1, 2], 2.5, -0.5]


@pytest.mark.parametrize("family, start", BASES, ids=[f"{f}-{s}" for f, s in BASES])
def test_every_malformed_field_fails_by_name(family, start):
    # int() and float() of None, inf or 1e308 once raised TypeError or OverflowError,
    # and many ValueErrors named no field
    failures = []
    for where, parent, _, key in list(leaves(base_spec(family, start))):
        for value in BAD_VALUES:
            spec = base_spec(family, start)
            holder = next(h for w, _, h, k in leaves(spec) if w == where)
            holder[key] = value
            try:
                ExperimentConfig(**spec).inits
            except (ValueError, ModelError) as err:
                message = str(err)
                named = where in message and repr(value) in message
                if isinstance(key, int):   # a list item: or the whole list, named
                    named = named or (parent in message and repr(holder) in message)
                if not named:
                    failures.append(f"{where} = {value!r}: {message}")
            except Exception as err:
                failures.append(f"{where} = {value!r}: {type(err).__name__}: {err}")
    assert not failures, "\n".join(failures)


def spec_dicts(spec, path=""):
    """(path, dict) of every dict nested in ``spec``."""
    for key, value in spec.items():
        where = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield where, value
            yield from spec_dicts(value, where)


@pytest.mark.parametrize("family, start", BASES, ids=[f"{f}-{s}" for f, s in BASES])
def test_every_spec_dict_rejects_an_unknown_key(family, start):
    # a misspelt key was once dropped, and its field took its default
    for where, _ in spec_dicts(base_spec(family, start)):
        spec = base_spec(family, start)
        holder = dict(spec_dicts(spec))[where]
        key = list(holder)[-1]
        holder[key + key[-1]] = holder[key]
        with pytest.raises(ValueError) as err:
            ExperimentConfig(**spec)
        assert str(err.value).startswith(f"{where} has unknown key(s) {key + key[-1]!r}; "
                                         f"it takes "), where


def set_field(spec, where, value):
    """``spec`` with the field at the dotted ``where`` set to ``value``."""
    *parents, key = where.split(".")
    holder = spec
    for part in parents:
        holder = holder[part]
    holder[key] = value
    return spec


FAMILIES = "'classical' or 'density_dependent' or 'age_density' or 'kernel_linear'"
MUST_REJECT = [
    ("classical", "grid", "model.family", "x", f"model.family must be {FAMILIES}, got 'x'"),
    ("classical", "grid", "model.family", None, f"model.family must be {FAMILIES}, got None"),
    ("classical", "grid", "model.split_law.k", 2.5,
     "model.split_law.k must be an integer, got 2.5"),
    ("classical", "grid", "model.split_law.k", True,
     "model.split_law.k must be an integer, got True"),
    ("density_dependent", "grid", "model.life_law.k1", 2.5,
     "model.life_law.k1 must be an integer, got 2.5"),
    ("density_dependent", "grid", "model.life_law.k2", True,
     "model.life_law.k2 must be an integer, got True"),
    ("classical", "grid", "model.life_law.cap", 2.5,
     "model.life_law.cap must be an integer, got 2.5"),
    ("classical", "grid", "model.birth", True,
     "model.birth of a classical model must be a number, got True"),
    ("density_dependent", "grid", "model.birth", True,
     "model.birth must be a finite number, got True"),
    ("density_dependent", "grid", "model.death.a", math.nan,
     "model.death.a must be a finite number, got nan"),
    ("density_dependent", "grid", "model.death.b", math.inf,
     "model.death.b must be a finite number, got inf"),
    ("age_density", "grid", "model.birth.mass.a", math.nan,
     "model.birth.mass.a must be a finite number, got nan"),
    ("kernel_linear", "grid", "model.death.cz", math.inf,
     "model.death.cz must be a finite number, got inf"),
    ("classical", "grid", "emit_events", -1, "emit_events must be true or false, got -1"),
    ("classical", "grid", "emit_fields", -1, "emit_fields must be true or false, got -1"),
    ("classical", "grid", "initial.support", [-1.0, 1.0],
     "initial.support[0] must be nonnegative, got -1.0"),
    ("classical", "grid", "population_cap", 0, "population_cap must be at least 1, got 0"),
    ("classical", "grid", "population_cap", -1, "population_cap must be at least 1, got -1"),
    ("classical", "grid", "initial.mass", 1e308,
     "initial.mass 1e+308 and perturbation.mass 1.0 give inf individuals at K = 20, "
     "above population_cap 10000000"),
    ("classical", "grid", "initial.mass", 1e14,
     "initial.mass 100000000000000.0 and perturbation.mass 1.0 give 2e+15 individuals at "
     "K = 20, above population_cap 10000000"),
    ("classical", "atoms", "perturbation.masses", [5e13],
     "initial.masses [0.5, 0.5] and perturbation.masses [50000000000000.0] give 2.23607e+14 "
     "individuals at K = 20, above population_cap 10000000"),
    ("classical", "grid", "initial.mas", 5.0,
     "initial has unknown key(s) 'mas'; it takes kind, support, profile, mass"),
    ("classical", "grid", "model.brith_sup", 9.0,
     "model has unknown key(s) 'brith_sup'; it takes family, birth, death, birth_sup, "
     "death_sup, life_law, split_law"),
]


@pytest.mark.parametrize("family, start, where, value, message", MUST_REJECT,
                         ids=[f"{f}-{w}={v!r}" for f, _, w, v, _ in MUST_REJECT])
def test_config_rejects_values_that_once_loaded(family, start, where, value, message):
    # each of these once built a config, and its model, without an error; a start
    # above the cap fails before any atom is allocated
    with pytest.raises(ValueError) as err:
        ExperimentConfig(**set_field(base_spec(family, start), where, value))
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "{} must hold a JSON object of config fields, got a list"),
    ('"xy"', "{} must hold a JSON object of config fields, got a str"),
    ("{}", "config {}: unknown key(s) [], missing key(s) [model, initial, horizon, dt, dt_out, "
           "k_values, replicates, seed]; allowed keys: "),
    ("{bad", "config {} is not valid JSON: Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)"),
], ids=["list", "string", "empty_object", "syntax_error"])
def test_from_json_names_the_file_of_a_malformed_config(tmp_path, text, message):
    # a list once failed on a bare TypeError, a string was read as keys "x", "y",
    # and a missing key failed on ExperimentConfig.__init__'s TypeError
    p = tmp_path / "cfg.json"
    p.write_text(text)
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_json(p)
    assert str(err.value).startswith(message.format(p))


@pytest.mark.parametrize("family, start", BASES, ids=[f"{f}-{s}" for f, s in BASES])
def test_config_round_trips_through_json_and_the_manifest(tmp_path, family, start):
    cfg = ExperimentConfig(**base_spec(family, start))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
    assert ExperimentConfig.from_json(p) == cfg
    emit(Report(name="empty"), tmp_path, cfg)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"] == cfg.to_dict() == base_spec(family, start)


def test_config_builds_its_model_and_panel_once(monkeypatch):
    built = {name: counting(monkeypatch, name) for name in (
        "model_from_config", "make_panel", "_read_start", "build_initial",
        "background_solution")}
    cfg = ExperimentConfig(**dict(base_spec("classical", "grid"), k_values=[20, 80]))
    assert [len(built[name]) for name in ("model_from_config", "make_panel", "_read_start")] \
        == [1, 1, 1]
    run_clt(cfg, workers=1)
    run_convergence(cfg)
    run_limit(cfg)
    run_lln(cfg, workers=1)
    # one start read, one realised start per K and one background, shared by the studies
    assert {name: len(calls) for name, calls in built.items()} == {
        "model_from_config": 1, "make_panel": 1, "_read_start": 1, "build_initial": 2,
        "background_solution": 1}
    assert [k for _, k in built["build_initial"]] == cfg.k_values


# -- initial conditions ------------------------------------------------------

def test_largest_remainder_preserves_total():
    rng = np.random.default_rng(5)
    for _ in range(50):
        masses = rng.uniform(0, 7, size=rng.integers(1, 40))
        counts = _systematic_counts(masses)
        assert counts.sum() == round(masses.sum())
        assert np.all(counts >= 0)
        assert np.all(np.abs(counts - masses) < 1.0)


ATOM_AT_0 = {"kind": "atoms", "ages": [0.0], "masses": [1.0]}


def start_at(k, dx, initial, perturbation=None):
    """The start ``build_initial`` realises at K = ``k`` from a config on grid ``dx``."""
    cfg = small_config(initial=initial, perturbation=perturbation, k_values=[k], dt=dx,
                       dt_out=1.0)
    return build_initial(cfg, k)


def test_build_initial_delta_base():
    init = start_at(100, 0.01, ATOM_AT_0)
    assert init.atoms.count == 100
    # realised fluctuation vanishes identically when the split is exact
    for f in (constant(), exponential(0.5)):
        assert init.z0.pair(f) == pytest.approx(0.0, abs=1e-12)


def test_build_initial_atom_perturbation():
    init = start_at(100, 0.01, ATOM_AT_0, {"kind": "atoms", "ages": [0.5], "masses": [1.0]})
    assert init.atoms.count == 110
    assert init.z0.mass == pytest.approx(1.0)
    # ten atoms of weight 1/100 at age 0.5, scaled by sqrt(100)
    assert init.z0.pair(exponential(1.0)) == pytest.approx(
        10.0 * math.exp(0.5) / 100 * 10, rel=1e-12)


def test_build_initial_infeasible():
    # now at load, before any study builds the start
    with pytest.raises(ValueError, match=r"^perturbation\.masses \[-300\.0\] leaves a negative "
                                         r"count \(-2900\) at K = 100: infeasible$"):
        start_at(100, 0.01, ATOM_AT_0, {"kind": "atoms", "ages": [0.0], "masses": [-300.0]})


def test_build_initial_grid_base_rounding_scale():
    init = start_at(1000, 1e-2,
                    {"kind": "grid", "profile": "uniform", "support": [0.0, 1.0], "mass": 1.0})
    assert init.atoms.count == 1000
    assert init.z0.minus.mass == pytest.approx(1.0)
    # per-cell rounding keeps realised pairings within ~1/sqrt(K) of the target
    for f in (constant(), exponential(-1.0)):
        assert abs(init.z0.pair(f)) <= 2.0
    assert init.nu0_values is not None
    # grid version of the fluctuation has identical pairings at cell centers
    xs = init.z0.minus.centers
    for f in (constant(), exponential(0.5)):
        grid_pairing = init.z0.minus.dx * float(np.dot(f(xs), init.nu0_values))
        assert grid_pairing == pytest.approx(init.z0.pair(f), abs=1e-10)


UNIFORM = {"kind": "grid", "profile": "uniform", "support": [0.0, 1.0], "mass": 1.0}


def test_uniform_start_spreads_its_atoms_over_its_ages():
    # the largest-remainder start put all 317 atoms below age 0.317 (mean 0.158)
    init = start_at(300, 1e-3, UNIFORM, UNIFORM)
    assert init.atoms.count == 317
    assert abs(init.atoms.ages.mean() - 0.5) <= 0.01


def test_running_count_stays_within_half_of_running_target():
    rng = np.random.default_rng(11)
    for _ in range(50):
        target = rng.uniform(0, 3, size=rng.integers(1, 200)) * (rng.uniform(size=1) < 0.9)
        running = np.cumsum(_systematic_counts(target))
        assert np.all(np.abs(running - np.cumsum(target)) <= 0.5 + 1e-9)
    # and on a realised grid start, cell by cell in age order
    k, dx = 300, 1e-3
    init = start_at(k, dx, UNIFORM, UNIFORM)
    per_cell = np.bincount((init.atoms.ages / dx).astype(int), minlength=1000)
    target = np.full(1000, k * dx + math.sqrt(k) * dx)
    assert np.all(np.abs(np.cumsum(per_cell) - np.cumsum(target)) <= 0.5 + 1e-9)


def test_grid_base_with_atom_perturbation_is_rounded_once():
    # 300.45 base atoms and 0.30 perturbation atoms: rounded apart, 300 + 0
    k, base_mass, pert_mass = 300, 1.0015, 0.0173
    init = start_at(k, 1e-3, dict(UNIFORM, mass=base_mass),
                    {"kind": "atoms", "ages": [0.5], "masses": [pert_mass]})
    assert init.atoms.count == round(k * base_mass + math.sqrt(k) * pert_mass) == 301
    assert init.z0.mass == pytest.approx(math.sqrt(k) * (301 / k - base_mass), rel=1e-12)


def test_atom_base_with_grid_perturbation_realises_its_atoms():
    k = 100
    init = start_at(k, 0.01, ATOM_AT_0, UNIFORM)
    ages = init.atoms.ages
    assert init.atoms.count == 110 and np.count_nonzero(ages == 0.0) == 100
    assert init.nu0_values is None
    for f in (constant(), exponential(0.5)):
        direct = math.sqrt(k) * (float(np.sum(f(ages))) / k - float(f(np.zeros(1))[0]))
        assert init.z0.pair(f) == pytest.approx(direct, rel=1e-12)
    assert init.z0.mass == pytest.approx(1.0)


def test_start_room_holds_the_cell_of_its_oldest_atom():
    # an atom at age 0.5 = 50 dt is binned into cell 50: 51 cells of room, plus 50 to age
    cfg = small_config(initial={"kind": "atoms", "ages": [0.0, 0.5], "masses": [0.5, 0.5]},
                       horizon=0.5, dt=0.01, dt_out=0.5)
    assert cfg._base_grid.n_cells == 101
    # pure splitting at rate 1 into two: the mass grows as e^t
    assert cfg.background.values[-1].sum() * cfg.dt == pytest.approx(math.exp(0.5), rel=1e-2)
    # the acceptance configs keep the grids they had when the room was rounded up
    assert [c._base_grid.n_cells for c in (lln_config(), qv_config(), clt_config())] == [
        1001, 1001, 2000]


def test_replicate_streams_independent_of_context():
    a = replicate_stream(1, 2, 0, 5).random(4)
    b = replicate_stream(1, 2, 0, 5).random(4)
    c = replicate_stream(1, 2, 0, 6).random(4)
    d = replicate_stream(1, 3, 0, 5).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# -- verification runs -------------------------------------------------------

def test_run_lln_small():
    rep = run_lln(small_config())
    assert rep.rows, "no checks produced"
    means = [r for r in rep.rows if r.stat == "lln_mean"]
    assert all(r.passed for r in means)
    (slope,) = [r for r in rep.rows if r.stat == "lln_slope"]
    assert -0.9 <= slope.value <= -0.1


def test_run_qv_small_panel():
    cfg = small_config(k_values=[200], replicates=120, panel=["1", "x", "exp:-1"],
                       dt_out=1.0)
    rep = run_qv_check(cfg)
    stats = {r.stat for r in rep.rows}
    assert {"mart_mean", "mart_var_vs_qv", "mart_covariation"} <= stats
    means = [r for r in rep.rows if r.stat == "mart_mean"]
    assert all(r.passed for r in means)


def test_output_times_label_the_snapshots_the_simulator_took():
    # 3 * 0.3 is 0.8999999999999999, but the simulator's last snapshot is at the
    # horizon, 0.9; samples and lln_mean rows once said 0.8999999999999999
    cfg = small_config(horizon=0.9, dt=0.01, dt_out=0.3, k_values=[60, 240], replicates=10)
    times = [0.0, 0.3, 0.6, 0.9]
    lln = run_lln(cfg)
    assert sorted({t for _, _, t, _, _ in lln.samples}) == times
    assert sorted({r.t for r in lln.rows}) == times[1:]
    assert len(lln.tables["lln_rms"][1]) == 2       # the horizon's row at each K
    sim = harness.run_simulate(cfg)
    assert sorted({t for _, _, t, _, _ in sim.samples}) == times
    assert harness.output_times(cfg.horizon, cfg.dt_out).tolist() == times


def test_qv_covariation_table_keeps_every_k(monkeypatch):
    targets = counting(monkeypatch, "covariation_integral_frames")
    cfg = dataclasses.replace(qv_config(), k_values=[100, 200], replicates=20,
                              panel=["1", "x", "exp:-1"])
    rep = run_qv_check(cfg)
    header, rows = rep.tables["qv_covariation"]
    assert header == ("K", "f_id", "g_id", "covariance", "target")
    marts = {(r.k, r.f_id): r for r in rep.rows if r.stat == "mart_covariation"}
    assert [(k, f"{f}&{g}") for k, f, g, _, _ in rows] == list(marts) and len(rows) == 6
    for k, f, g, cov, target in rows:
        row = marts[(k, f"{f}&{g}")]
        assert (cov, target) == (row.value, row.target)
    # one target matrix for every pair and non-unit diagonal, whatever the number of K
    assert len(targets) == 1


def test_run_clt_small(monkeypatch):
    builds = []
    build = spde._Coeffs.__init__

    def counting(co, *args):
        builds.append(args)
        build(co, *args)

    monkeypatch.setattr(spde._Coeffs, "__init__", counting)
    cfg = ExperimentConfig(
        model=dict(CLASSICAL),
        initial={"kind": "grid", "profile": "uniform", "support": [0.0, 1.0],
                 "mass": 1.0},
        perturbation={"kind": "grid", "profile": "uniform", "support": [0.0, 1.0],
                      "mass": 1.0},
        horizon=1.0, dt=4e-3, dt_out=1.0, k_values=[300], replicates=80,
        panel=["1", "exp:0.5"], seed=77, n_spde_paths=400, spde_block=200)
    rep = run_clt(cfg)
    stats = {r.stat for r in rep.rows}
    assert {"clt_mean", "clt_var_vs_spde", "clt_jarque_bera_p",
            "spde_var_vs_oracle", "spde_law_var_vs_oracle", "evolve_mean_linf"} <= stats
    means = [r for r in rep.rows if r.stat == "clt_mean"]
    assert all(r.passed for r in means)
    law_rows = [r for r in rep.rows if r.stat == "spde_law_var_vs_oracle"]
    assert len(law_rows) == 2 and all(r.passed for r in law_rows)
    (evm,) = [r for r in rep.rows if r.stat == "evolve_mean_linf"]
    assert evm.passed
    # constant rates take the mean path and the law in closed form: neither
    # builds the grid coefficients, whatever the horizon
    assert len(builds) == 0


# the benchmark's kernel study model, and a logistic-type density-dependent one
KERNEL_WORKLOAD = {"family": "kernel_linear", "birth": 1.0,
                   "death": {"kernel": {"kind": "exp_decay", "alpha": 1.0}, "phi": "affine",
                             "c0": 0.2, "cy": 0.3, "cz": 0.5},
                   "death_sup": 4.0,
                   "life_law": {"kind": "deterministic", "k": 1},
                   "split_law": {"kind": "deterministic", "k": 0}}
DENSITY_CLT = {"family": "density_dependent", "birth": 0.4,
               "death": {"kind": "affine", "a": 0.5, "b": 0.3}, "death_sup": 4.0,
               "life_law": {"kind": "deterministic", "k": 1},
               "split_law": {"kind": "deterministic", "k": 2}}


def small_clt_config(model, panel, dt=0.01):
    return ExperimentConfig(model=dict(model), initial=dict(UNIFORM),
                            perturbation=dict(UNIFORM), horizon=1.0, dt=dt, dt_out=1.0,
                            k_values=[40], replicates=4, panel=panel, seed=5,
                            n_spde_paths=8, spde_block=8)


def counting(monkeypatch, name):
    """Calls of ``harness.<name>`` from now on, one entry per call."""
    calls, fn = [], getattr(harness, name)
    monkeypatch.setattr(harness, name,
                        lambda *args, **kw: calls.append(args) or fn(*args, **kw))
    return calls


@pytest.mark.parametrize("model, panel, from_law", [
    (KERNEL_WORKLOAD, ["1", "exp:0.5", "exp:-1"], ["1", "exp(0.5)", "exp(-1)"]),
    (DENSITY_CLT, ["1", "x", "exp:0.5"], ["x"])], ids=["kernel_workload", "density"])
def test_clt_mean_targets_without_a_closed_form_are_the_forward_mean(model, panel,
                                                                     from_law):
    # run_clt reads these targets from the law's mean (an adjoint sweep); the
    # forward sweep of the same scheme must give them to rounding
    cfg = small_clt_config(model, panel)
    rows = {r.f_id: r.target for r in run_clt(cfg).rows if r.stat == "clt_mean"}
    mean_path = spde.evolve_mean(cfg.build_model(), cfg.inits[40].nu0_values, cfg.background,
                                 [cfg.horizon])
    for f in cfg._panel:
        forward = pair(f, mean_path.frame(-1))
        if f.label in from_law:
            assert rows[f.label] == pytest.approx(forward, rel=1e-12, abs=0.0), f.label
        else:                          # a closed form, first-order close to the grid
            assert rows[f.label] == pytest.approx(forward, rel=0.05), f.label
    assert set(rows) == {f.label for f in cfg._panel}


@pytest.mark.parametrize("model, mean_steps", [(CLASSICAL, 1), (KERNEL_WORKLOAD, 0),
                                               (DENSITY_CLT, 0)],
                         ids=["classical", "kernel_workload", "density"])
def test_run_clt_steps_the_mean_forward_only_to_check_a_classical_model(
        monkeypatch, model, mean_steps):
    means = []
    monkeypatch.setattr(harness, "evolve_mean",
                        lambda *args: means.append(spde.evolve_mean(*args)) or means[-1])
    laws = counting(monkeypatch, "fluctuation_law")
    rep = run_clt(small_clt_config(model, ["1", "x"], dt=0.02))
    assert len(means) == mean_steps and len(laws) == 1
    # the evolve_mean_linf row reads the last frame, the only one the mean forms
    assert [m.values.shape[0] for m in means] == [1] * mean_steps
    assert any(r.stat == "evolve_mean_linf" for r in rep.rows) == bool(mean_steps)


def test_run_convergence_bands():
    cfg = small_config(panel=["1", "exp:0.5"])
    rep = run_convergence(cfg)
    by_stat = {}
    for r in rep.rows:
        by_stat.setdefault(r.stat, []).append(r)
    for stat in ("transport_exact", "solve_mvf_order_ratio",
                 "total_ode_order_ratio", "evolve_mean_order_ratio",
                 "noise_cov_identity_rel", "noise_cov_empirical"):
        assert all(r.passed for r in by_stat[stat]), stat


def test_run_convergence_checks_the_noise_on_the_production_law_and_sampler(monkeypatch):
    # criterion 6's noise rows: one law, of a one-step solve, sampled once
    laws = counting(monkeypatch, "fluctuation_law")
    paths = counting(monkeypatch, "simulate_fluctuation_paths")
    run_convergence(small_config(panel=["1", "exp:0.5"]))
    assert len(laws) == 1 and len(paths) == 1
    assert paths[0][1] is laws[0][1] and laws[0][1].values.shape[0] == 2


def test_run_convergence_at_a_one_step_horizon():
    # the middle of two frames is the first: the last has no step of room
    cfg = dataclasses.replace(clt_config(), horizon=1e-3, dt_out=1e-3)
    rows = run_convergence(cfg).rows
    assert {r.stat for r in rows} >= {"noise_cov_identity_rel", "noise_cov_empirical"}
    assert all(r.passed for r in rows)


# -- emission ----------------------------------------------------------------

def test_emit_empty_report(tmp_path):
    rep = Report(name="empty")
    emit(rep, tmp_path)
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "summary.csv").read_text() == \
        "K,t,f_id,stat,value,target,tolerance,pass\n"
    assert (tmp_path / "samples.csv").read_text() == "K,replicate,t,f_id,value\n"


def test_emit_single_check(tmp_path):
    rep = Report(name="one")
    rep.rows.append(CheckRow.band("demo", 1.0, 1.05, 0.1, k=10, t=1.0, f_id="1"))
    emit(rep, tmp_path)
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith("true")


def test_emit_byte_identical_rerun(tmp_path):
    cfg = small_config(k_values=[60], replicates=10)
    out = []
    for d in ("a", "b"):
        rep = run_lln(cfg)
        emit(rep, tmp_path / d, config=cfg)
        out.append((tmp_path / d / "samples.csv").read_bytes())
    assert out[0] == out[1]


def test_workers_do_not_change_results(tmp_path):
    cfg = small_config(k_values=[60], replicates=8)
    rep1 = run_lln(cfg, workers=1)
    rep2 = run_lln(cfg, workers=2)
    emit(rep1, tmp_path / "w1", config=cfg)
    emit(rep2, tmp_path / "w2", config=cfg)
    assert (tmp_path / "w1" / "samples.csv").read_bytes() == \
        (tmp_path / "w2" / "samples.csv").read_bytes()


def test_run_lln_density_dependent_logistic():
    cfg = ExperimentConfig(
        model={"family": "density_dependent", "birth": 0.0,
               "death": {"kind": "affine", "a": 1.0, "b": -1.0}, "death_sup": 1.0,
               "life_law": {"kind": "deterministic", "k": 0},
               "split_law": {"kind": "deterministic", "k": 2}},
        initial={"kind": "grid", "profile": "uniform", "support": [0.0, 1.0],
                 "mass": 0.5},
        horizon=1.0, dt=4e-3, dt_out=1.0, k_values=[200], replicates=60,
        panel=["1"], seed=11)
    rep = run_lln(cfg)
    (row,) = [r for r in rep.rows if r.stat == "lln_mean"]
    # target comes from the transport solver; the logistic closed form pins it
    assert row.target == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=5e-3)
    assert row.passed


def test_run_simulate_emit_events_keeps_samples(tmp_path):
    # the event log and the ledger draw no random numbers: writing them
    # must leave the sample pairings byte-identical
    plain = small_config()
    rep = run_simulate(plain, outdir=tmp_path / "plain")
    emit(rep, tmp_path / "plain", config=plain)
    for flag in ("emit_events", "emit_fields"):
        cfg = small_config(**{flag: True})
        out = tmp_path / flag
        out.mkdir()
        emit(run_simulate(cfg, outdir=out), out, config=cfg)
        assert (out / "samples.csv").read_bytes() == \
            (tmp_path / "plain" / "samples.csv").read_bytes()
    assert len(list((tmp_path / "emit_events").glob("events_K*_r*.csv"))) == 2 * 40
    assert len(list((tmp_path / "emit_fields").glob("ledger_K*_r*.csv"))) == 2 * 40
