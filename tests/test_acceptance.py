"""Acceptance suite: every criterion at its stated tolerance.

The heavy Monte Carlo artifacts are computed once per session under the
pre-registered master seed and shared across criteria; each test prints its
pass/fail line with the measured numbers.
"""

import re
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

from agestruct import acceptance
from agestruct.acceptance import AcceptanceSuite, CriterionResult
from agestruct.harness import Report


@pytest.fixture(scope="session")
def suite():
    return AcceptanceSuite()


def _report(result):
    print()
    print(result.line())
    for d in result.details:
        print("   ", d)
    assert result.passed, result.line()


def test_criterion_1_lln_reproduction(suite):
    _report(suite.criterion_1())


def test_criterion_2_martingale_qv(suite):
    _report(suite.criterion_2())


def test_criterion_3_clt_mean(suite):
    _report(suite.criterion_3())


def test_criterion_4_clt_gaussianity(suite):
    _report(suite.criterion_4())


def test_criterion_5_clt_variance(suite):
    _report(suite.criterion_5())


def test_criterion_6_solver_orders_and_noise(suite):
    _report(suite.criterion_6())


def test_criterion_7_exactness_properties(suite):
    _report(suite.criterion_7())


def test_criterion_8_small_instance_law(suite):
    _report(suite.criterion_8())


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_criterion_7_density_case_stays_under_its_declared_sup(seed):
    # the density case's mass at t = 1 reaches ~13 in 3,000 runs; its death
    # rate 0.5 + 0.3 mass must stay under death_sup on every seed
    _report(AcceptanceSuite(seed=seed).criterion_7())


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, True, "7", None])
def test_suite_rejects_a_bad_seed(seed):
    with pytest.raises(ValueError, match=re.escape("seed must be an integer in [0, 2^64)")):
        AcceptanceSuite(seed=seed)


def test_suite_takes_a_numpy_seed_as_an_int():
    assert type(AcceptanceSuite(seed=np.uint64(2 ** 64 - 1)).seed) is int


def test_run_all_times_each_criterion(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: clock[0]))

    class Stubbed(AcceptanceSuite):
        @cached_property
        def clt_report(self):
            clock[0] += 5.0                     # the study criteria 3-5 share
            return Report(name="clt")

    def stub(index):
        def criterion(self):
            clock[0] += index / 10              # the criterion's own work
            if index in (3, 4, 5):
                self.clt_report
            return CriterionResult(index, f"stub {index}", True)
        return criterion

    for index in range(1, 9):
        setattr(Stubbed, f"criterion_{index}", stub(index))
    results = Stubbed().run_all()
    assert [r.index for r in results] == list(range(1, 9))
    assert [r.seconds for r in results] == pytest.approx(
        [0.1, 0.2, 5.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    assert results[2].line() == "criterion 3 (stub 3): PASS in 5.3s"
    # called directly, a criterion is not timed
    assert Stubbed().criterion_4().line() == "criterion 4 (stub 4): PASS"


def test_criteria_3_to_6_share_one_clt_config(monkeypatch):
    # run_clt and run_convergence each once built their own, and solved its background
    seen = []
    monkeypatch.setattr(acceptance, "run_clt",
                        lambda cfg, workers: seen.append(cfg) or Report(name="clt"))
    monkeypatch.setattr(acceptance, "run_convergence",
                        lambda cfg: seen.append(cfg) or Report(name="convergence"))
    suite = AcceptanceSuite(seed=5)
    for index in (3, 4, 5, 6):
        assert getattr(suite, f"criterion_{index}")().passed
    assert len(seen) == 2 and seen[0] is seen[1] is suite.clt_study
    assert seen[0] == acceptance.clt_config(5)
