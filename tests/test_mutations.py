"""Each check's power, kept under test: one named defect, put into production code,
must make one existing check report a failure (an AssertionError or a failed
CheckRow), not a crash.

A mutant is the production function recompiled from its own source with one
fragment replaced, so it differs from production by that defect alone.  A case
whose fragment no longer appears fails at once: the defect moved with a refactor
and the case must move with it.
"""

import __future__
import inspect
import textwrap

import numpy as np
import pytest

import test_branching
import test_harness
import test_spde
from agestruct import branching, harness, spde
from agestruct.acceptance import clt_config
from agestruct.rates import KernelRate, pure_splitting
from test_branching import (MIXED as LIFE_MIXED, PAIRING_PANEL, SWAPPED, first_death,
                            forced_exact, paths, twin)  # forced_exact, paths: fixtures
from test_spde import DENS, MIXED


def mutant(fn, old, new):
    """``fn`` compiled from its source with the one occurrence of ``old`` replaced by ``new``."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, f"{fn.__qualname__} no longer holds {old!r} once"
    code = compile(src.replace(old, new), f"<mutant of {fn.__qualname__}>", "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    scope = {}
    exec(code, vars(inspect.getmodule(fn)), scope)
    return scope[fn.__name__]


def test_adjoint_reading_the_next_rows_boundary_fails_the_forward_recursion(monkeypatch):
    monkeypatch.setattr(spde, "_adjoint_step", mutant(
        spde._adjoint_step, "co.beta[k, :w0]", "co.beta[min(k + 1, len(co.beta) - 1), :w0]"))
    with pytest.raises(AssertionError):
        test_spde.test_law_covariance_matches_forward_recursion(DENS)


def test_residual_without_its_split_mean_square_fails_the_noise_identity(monkeypatch):
    monkeypatch.setattr(spde, "_noise_var", mutant(
        spde._noise_var, "h * (s2 - sm * sm)", "h * s2"))
    with pytest.raises(AssertionError):
        test_spde.test_noise_covariance_identity(MIXED)


def test_zeroed_boundary_residual_fails_the_noise_identity_but_not_criterion_6(monkeypatch):
    monkeypatch.setattr(spde, "_noise_var", mutant(
        spde._noise_var, "np.maximum(np.sum(resid * a, axis=-1) * dx, 0.0) * dt",
        "0.0 * np.sum(resid * a, axis=-1)"))
    with pytest.raises(AssertionError):
        test_spde.test_noise_covariance_identity(MIXED)
    # a known blind spot: clt_config is pure splitting, whose residual variance
    # is 0 anyway, so criterion 6's noise rows still pass; a criterion that learns
    # to see the defect fails this line, which then moves into the raises above
    rows = [r for r in harness.run_convergence(clt_config()).rows
            if r.stat in ("noise_cov_identity_rel", "noise_cov_empirical")]
    assert rows and all(r.passed for r in rows)


def test_boundary_row_without_kernel_newborns_fails_the_linearisation(monkeypatch):
    monkeypatch.setattr(spde._Coeffs, "__init__", mutant(
        spde._Coeffs.__init__,
        "+ sum(grid.pair(kern, w * a) for kern, w in newborn.items())", "+ 0.0"))
    for name in ("birth_kernel", "gaussian_kernel"):
        with pytest.raises(AssertionError):
            test_spde.test_stepped_mean_is_the_limit_solvers_linearisation(name)


@pytest.mark.parametrize("old, new, names", [
    ("self.mu = -dt * dx * uh * a if np.any(uh) else None", "self.mu = None",
     ("density", "age_density")),
    ("+ dx * np.sum((ub * lm + uh * sm) * a, axis=1, keepdims=True)", "+ 0.0",
     ("density", "age_density")),
    ("self.kernels = [] if kh is None else [(kh, -dt * wh * a)]", "self.kernels = []",
     ("kernel_workload",))], ids=["mu", "beta_mass_derivative", "pi"])
def test_step_operator_without_a_frechet_term_fails_the_linearisation(old, new, names,
                                                                      monkeypatch):
    # each term acts on these models: the death mass-derivative deposit (mu), the
    # newborn mass-derivative weight in the boundary row, the death kernel's deposit (pi)
    monkeypatch.setattr(spde._Coeffs, "__init__", mutant(spde._Coeffs.__init__, old, new))
    for name in names:
        with pytest.raises(AssertionError):
            test_spde.test_stepped_mean_is_the_limit_solvers_linearisation(name)


def test_sampler_with_the_untransposed_root_fails_criterion_6(monkeypatch):
    monkeypatch.setattr(harness, "simulate_fluctuation_paths", mutant(
        spde.simulate_fluctuation_paths, "draws @ root.T", "draws @ root"))
    rows = [r for r in harness.run_convergence(clt_config()).rows
            if r.stat == "noise_cov_empirical"]
    assert rows and not any(r.passed for r in rows)
    assert np.isfinite([r.value for r in rows]).all()


def test_kernel_bounds_without_the_upper_z_end_fail_the_squeeze(forced_exact, monkeypatch):
    monkeypatch.setattr(KernelRate, "bounds", mutant(
        KernelRate.bounds, "lo = self._phi(y, z)", "lo = self._phi(y, self.kernel.c / k)"))
    with pytest.raises(AssertionError):
        test_branching.test_squeeze_keeps_every_event_bit_for_bit(
            "affine_negative_cz", forced_exact, monkeypatch)


def test_loop_deciding_deaths_on_the_upper_ends_fails_the_squeeze(forced_exact, monkeypatch):
    monkeypatch.setattr(branching, "_simulate_loop", mutant(
        branching._simulate_loop, "b_hi <= r < b_lo + h_lo", "b_hi <= r < b_hi + h_hi"))
    with pytest.raises(AssertionError):
        test_branching.test_squeeze_keeps_every_event_bit_for_bit(
            "affine_exp_decay", forced_exact, monkeypatch)


@pytest.mark.parametrize("rate, name", [("h", "exp_decay_age"), ("b", "negative_age_factors")],
                         ids=["death", "birth"])
def test_loop_ranges_without_their_age_factor_fail_the_squeeze(rate, name, forced_exact,
                                                               monkeypatch):
    # the range then fixes fates at the age-free rate; the exact run does not
    monkeypatch.setattr(branching, "_simulate_loop", mutant(
        branching._simulate_loop, f"a = {rate}_age(age)", "a = 1.0"))
    with pytest.raises(AssertionError):
        test_branching.test_squeeze_keeps_every_event_bit_for_bit(name, forced_exact,
                                                                  monkeypatch)


def test_reseat_keeping_the_previous_counter_fails_the_stream_identity(monkeypatch):
    monkeypatch.setattr(harness, "_reseated_stream", mutant(
        harness._reseated_stream, '"counter": [0] * 4',
        '"counter": rng.bit_generator.state["state"]["counter"]'))
    with pytest.raises(AssertionError):
        test_harness.test_reseated_stream_is_replicate_stream("random")


@pytest.mark.parametrize("model, path", [(LIFE_MIXED, "_simulate_lives"),
                                         (twin(LIFE_MIXED), "_simulate_loop")],
                         ids=["lifelines", "loop"])
def test_pairings_over_unsorted_ages_fail_the_snapshot_identity(model, path, paths,
                                                                monkeypatch):
    # the live set's slot order sums the same values in another order
    monkeypatch.setattr(branching, "simulate_pairings", mutant(
        branching.simulate_pairings, "ages = np.sort(pop.ages)", "ages = pop.ages"))
    with pytest.raises(AssertionError):
        test_branching.test_pairings_are_the_snapshots_pairings(model, path, 4, False,
                                                                PAIRING_PANEL, paths)


RENEWAL_AT_AN_OUTPUT = (test_branching.RENEWAL,
                        4 * first_death(test_branching.RENEWAL, 60, 80, i=6),
                        "7ebc7d3b9e261b734649e102a0e25db020d81224f6a1f79bed39bf44f47d52bb")


@pytest.mark.parametrize("old, new", [
    ("(born <= t_out) &", "(born < t_out) &"),
    ("count_nonzero(lb <= t_out)", "count_nonzero(lb < t_out)")],
    ids=["live_set", "ledger_newborns"])
def test_lifelines_dropping_a_newborn_at_its_output_time_fail_the_fingerprint(old, new,
                                                                             monkeypatch):
    # a newborn born exactly at an interior output time left out of that time's
    # live set, or of the newborns a closed-form ledger settles there
    monkeypatch.setattr(branching, "_simulate_lives", mutant(branching._simulate_lives, old, new))
    with pytest.raises(AssertionError):
        test_branching.test_lifeline_fingerprint(*RENEWAL_AT_AN_OUTPUT)


def test_lifelines_dropping_a_death_at_the_horizon_fail_its_fingerprint(monkeypatch):
    monkeypatch.setattr(branching, "_simulate_lives", mutant(
        branching._simulate_lives, "born[np.flatnonzero(died >= horizon)]",
        "born[np.flatnonzero(died > horizon)]"))
    with pytest.raises(AssertionError):
        test_branching.test_lifeline_fingerprint(
            SWAPPED, first_death(SWAPPED, 60, 80),
            "88084af455689e5600c567019cc69e4cbdc9883400d6b5d5d191b2455c2f0d06")


def test_closed_form_settle_without_its_death_time_sort_fails_the_fingerprint(monkeypatch):
    # the deaths then settle in generation order, split at the wrong places
    monkeypatch.setattr(branching, "_simulate_lives", mutant(
        branching._simulate_lives, "np.argsort(d[0])", "np.arange(d.shape[1])"))
    with pytest.raises(AssertionError):
        test_branching.test_lifeline_fingerprint(
            pure_splitting(1.0, 2), 1.0,
            "e71c82fb3f0a5cd330caff1b16c23a9f896194dea80280de40a03d466dffba91")


@pytest.mark.parametrize("name, old, new", [
    ("classical", "_renewal_frames(out, col", "_renewal_frames(out[1:], col"),
    ("density", "out[rec == k + 1] = z", "out[rec == k] = z"),
    ("kernel_workload", "out[rec == k + 1] = z", "out[rec == k] = z")],
    ids=["classical", "density", "kernel_workload"])
def test_mean_frames_a_record_off_fail_the_full_sweep(name, old, new, monkeypatch):
    # closed form: record i's frame written to row i + 1; stepped: the record at
    # step k keeps frame k + 1, and the last record the start
    monkeypatch.setattr(test_spde, "evolve_mean", mutant(spde.evolve_mean, old, new))
    with pytest.raises(AssertionError):
        test_spde.test_recorded_mean_frames_are_the_full_sweeps_frames(name)
