import json
import math

import numpy as np
import pytest

from agestruct.measures import (AtomicMeasure, DomainError, GridDensity, PointMasses,
                                SignedPair, constant, exponential, make_panel,
                                monomial, pair)


def test_pair_counts_mass():
    m = AtomicMeasure(ages=np.array([0.3, 0.7, 1.1]), weight=1.0, t_star=2.0)
    assert pair(constant(), m) == 3.0


def test_pair_normalised_single_atom():
    m = AtomicMeasure(ages=np.array([0.5]), weight=0.01, t_star=2.0)
    assert pair(constant(), m) == pytest.approx(0.01, abs=0)


def test_pair_exponential_hand_value():
    # e^0 + e^(ln 2) = 3
    m = AtomicMeasure(ages=np.array([0.0, math.log(2.0)]), weight=1.0, t_star=2.0)
    assert pair(exponential(1.0), m) == pytest.approx(3.0, rel=1e-14)


def test_pair_grid_midpoint_rule():
    g = GridDensity(dx=0.5, values=np.array([2.0, 4.0]))
    # dx * sum f(x_j) v_j with centers 0.25, 0.75
    assert pair(monomial(1), g) == pytest.approx(0.5 * (0.25 * 2 + 0.75 * 4))
    assert g.mass == pytest.approx(3.0)


def test_pair_bilinear():
    rng = np.random.default_rng(5)
    m = AtomicMeasure(ages=rng.uniform(0, 2, 17), weight=0.3, t_star=2.0)
    g = GridDensity(dx=0.01, values=rng.uniform(0, 1, 200))
    f, h = exponential(0.4), monomial(2)
    for mu in (m, g):
        lhs = pair(lambda x: 2.5 * f(x) - 1.3 * h(x), mu)
        rhs = 2.5 * pair(f, mu) - 1.3 * pair(h, mu)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_grid_refinement_second_order():
    # midpoint rule: Richardson ratio ~ 4 under dx -> dx/2
    f = exponential(0.8)
    exact = (math.exp(0.8 * 2.0) - 1.0) / 0.8
    errs = []
    for dx in (0.02, 0.01):
        g = GridDensity.from_function(lambda x: np.ones_like(x), t_star=2.0, dx=dx)
        errs.append(abs(pair(f, g) - exact))
    ratio = errs[0] / errs[1]
    assert 3.2 <= ratio <= 4.8


def test_signed_diff_zero_when_equal():
    g = GridDensity(dx=0.5, values=np.array([1.0, 1.0]))
    m = AtomicMeasure(ages=np.array([0.25, 0.75]), weight=0.5, t_star=1.0)
    points = PointMasses(ages=np.array([0.25, 0.75]), masses=np.array([0.5, 0.5]))
    for minus in (g, points):
        sp = SignedPair(m, minus, scale=7.0)
        assert sp.mass == pytest.approx(0.0, abs=1e-12)
        for f in make_panel(t_star=1.0):
            assert sp.pair(f) == pytest.approx(0.0, abs=1e-12)


def test_signed_diff_linearity_and_scaling():
    g = GridDensity(dx=1.0, values=np.array([1.0]))
    m1 = AtomicMeasure(ages=np.full(11, 0.5), weight=0.1, t_star=1.0)
    assert SignedPair(m1, g, 1.0).pair(constant()) == pytest.approx(0.1)
    m2 = AtomicMeasure(ages=np.full(101, 0.5), weight=0.01, t_star=1.0)
    assert SignedPair(m2, g, 10.0).pair(constant()) == pytest.approx(0.1)
    # linear in the test function
    sp = SignedPair(m2, g, 10.0)
    f, h = exponential(0.4), monomial(2)
    assert sp.pair(lambda x: 2.5 * f(x) - 1.3 * h(x)) == pytest.approx(
        2.5 * sp.pair(f) - 1.3 * sp.pair(h), rel=1e-12)
    for bad in (-1.0, 0.0):
        with pytest.raises(ValueError):
            SignedPair(m1, g, bad)


def test_default_panel():
    panel = make_panel(t_star=2.0)
    assert len(panel) == 6
    labels = [f.label for f in panel]
    assert labels[:3] == ["1", "x", "x^2"]
    bump_f = panel[-1]
    assert bump_f.at_zero == 0.0
    assert max(bump_f(np.linspace(0, 2, 500))) == pytest.approx(1.0, abs=1e-3)


def test_panel_exp_zero_is_constant():
    for f in (*make_panel(["exp:0", "1"], t_star=1.0), constant()):
        assert (f.kind, f.lam, f.label) == ("exp", 0.0, "1")
        assert float(f(np.array(3.0))) == 1.0


def test_panel_monomial_eval():
    (f,) = make_panel(["mono:1"], t_star=1.0)
    assert float(f(np.array(2.0))) == 2.0


def test_panel_unknown_kind():
    with pytest.raises(ValueError):
        make_panel(["sinusoid"], t_star=1.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        AtomicMeasure(ages=np.array([2.5]), weight=1.0, t_star=2.0)
    with pytest.raises(DomainError):
        AtomicMeasure(ages=np.array([-0.5]), weight=1.0, t_star=2.0)
    with pytest.raises(ValueError):
        AtomicMeasure(ages=np.array([0.5]), weight=0.0, t_star=2.0)
    with pytest.raises(DomainError):
        GridDensity(dx=0.1, values=np.array([1.0, -0.5]))
    GridDensity(dx=0.1, values=np.array([1.0, -0.5]), signed=True)


def test_csv_round_trips(tmp_path):
    g = GridDensity(dx=0.25, values=np.array([1.0, 0.5, 0.25, 0.0]))
    g.to_csv(tmp_path / "g.csv")
    xs, values = np.loadtxt(tmp_path / "g.csv", delimiter=",", skiprows=1, unpack=True)
    assert 2.0 * xs[0] == pytest.approx(g.dx)
    assert np.array_equal(values, g.values)

    m = AtomicMeasure(ages=np.array([0.1, 0.9]), weight=0.5, t_star=1.0)
    m.to_csv(tmp_path / "m.csv")
    ages = np.loadtxt(tmp_path / "m.csv", skiprows=1, ndmin=1)
    meta = json.loads((tmp_path / "m.json").read_text())
    assert meta["weight"] == m.weight
    assert np.array_equal(ages, m.ages)
    assert meta["t_star"] == m.t_star
