"""Harmonic chain: reduced energies and both criteria."""
from __future__ import annotations

import math

import numpy as np
import pytest

from localtemp.canonical import AccuracyParams, Binding
from localtemp.harmonic import (
    asymptotic_nmin,
    cond_const_bound,
    linearity_bound,
    mean_energy_reduced,
    nmin,
)
from localtemp.specfun import bose_integrand, integrate, min_integer_above

ACC = AccuracyParams(alpha=10.0, delta=0.01)


@pytest.mark.parametrize(
    "t,expected",
    [
        (0.01, 0.00016449340668482263),
        (0.1, 0.0164443465679946),
        (1.0, 0.7775046341122482),
        (10.0, 9.752777500047232),
        (100.0, 99.7502777775),
    ],
)
def test_mean_energy_reduced_frozen(t, expected):
    assert math.isclose(mean_energy_reduced(t), expected, rel_tol=1e-9)


def test_mean_energy_limits():
    # classical limit approached like t - 1/2 + O(1/t); at t=100 the gap to
    # the naive "= t" reading is still 2.5e-3 relative
    assert abs(mean_energy_reduced(100.0) / 100.0 - 1.0) < 5e-3
    assert abs(mean_energy_reduced(100.0) / 100.0 - 1.0) > 1e-3
    # quantum limit: ebar -> (pi^2/6) t^2
    t = 1e-3
    assert math.isclose(
        mean_energy_reduced(t), (math.pi**2 / 6) * t * t, rel_tol=1e-3
    )


def test_mean_energy_strictly_increasing():
    grid = np.geomspace(1e-3, 1e3, 40)
    values = [mean_energy_reduced(float(t)) for t in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "t,cond_n,lin_n",
    [
        (0.1, 1541, 329),
        (1.0, 1, 1556),
        (5.0, 1, 1903),
        (10.0, 1, 1951),
        (100.0, 1, 1996),
    ],
)
def test_nmin_branches_frozen(t, cond_n, lin_n):
    report = nmin(t, ACC)
    assert report.n_cond_const == cond_n
    assert report.n_linearity == lin_n
    assert report.n_min == max(cond_n, lin_n)


def test_cond_bound_raw_value():
    assert math.isclose(cond_const_bound(0.1, ACC), 1540.345096277381, rel_tol=1e-9)
    assert math.isclose(linearity_bound(0.1, ACC), 328.886931359892, rel_tol=1e-6)


def test_cond_const_regime_boundary():
    # bound applies only while the thermal energy stays below the ground value
    t_star = 0.4398506066712677
    assert nmin(t_star * 1.01, ACC).n_cond_const == 1
    assert nmin(t_star * 0.99, ACC).n_cond_const > 1
    assert math.isclose(mean_energy_reduced(t_star), 0.25, rel_tol=1e-9)


def test_nmin_report_binding():
    cold = nmin(0.1, ACC)
    assert cold.binding is Binding.COND_CONST and cold.n_min == 1541
    hot = nmin(10.0, ACC)
    assert hot.binding is Binding.LINEARITY and hot.n_min == 1951
    assert math.isclose(hot.c1_estimate, 0.1 / (2 * 1951), rel_tol=1e-12)
    assert hot.intensive


def test_asymptotic_branches():
    assert asymptotic_nmin(2.0, ACC) == 2000.0
    assert math.isclose(
        asymptotic_nmin(0.01, ACC), 1.5198177546350666e6, rel_tol=1e-12
    )
    # branch crossover where the two expressions meet
    t_cross = (3 * ACC.delta / (4 * math.pi**2)) ** (1.0 / 3.0)
    assert math.isclose(t_cross, 0.09125440533452586, rel_tol=1e-12)
    lo = asymptotic_nmin(t_cross * 0.999, ACC)
    hi = asymptotic_nmin(t_cross * 1.001, ACC)
    assert abs(lo - hi) / hi < 0.01


def test_asymptotic_tracks_exact_at_low_t():
    for t in (0.01, 0.005):
        exact = nmin(t, ACC).n_min
        assert abs(asymptotic_nmin(t, ACC) - exact) / exact < 0.02


def test_bounds_scale_with_accuracy():
    tight = AccuracyParams(alpha=20.0, delta=0.01)
    small_delta = AccuracyParams(alpha=10.0, delta=0.005)
    assert math.isclose(
        linearity_bound(5.0, tight), 2 * linearity_bound(5.0, ACC), rel_tol=1e-12
    )
    assert math.isclose(
        linearity_bound(5.0, small_delta), 2 * linearity_bound(5.0, ACC), rel_tol=1e-12
    )
    # cond bound grows with alpha too (more conservative window)
    assert cond_const_bound(0.1, tight) > cond_const_bound(0.1, ACC)


def test_high_t_plateau_and_strict_integer():
    # raw linearity bound tends to 2 alpha / delta = 2000 from below, so the
    # integer answer settles on the plateau
    for t in (5.0, 10.0, 100.0):
        n = nmin(t, ACC).n_min
        assert 1900 <= n <= 2100
    assert min_integer_above(asymptotic_nmin(10.0, ACC)) == 2001


def test_nmin_rejects_nonpositive_temperature():
    with pytest.raises(ValueError):
        nmin(0.0, ACC)
    with pytest.raises(ValueError):
        mean_energy_reduced(-1.0)


@pytest.mark.parametrize(
    "t, expected",
    [
        (1e-4, 1.6449340668484526e-08),
        (0.1, 0.01644434656799449),
        (10.0, 9.752777500047355),
    ],
)
def test_mean_energy_reduced_bitwise(t, expected):
    # frozen before the memo and the faster integrator loop; exact equality
    assert mean_energy_reduced(t) == expected


def test_mean_energy_reduced_answers_where_t_squared_overflows():
    # t**2 overflows above t ~ 1.3e154; there e_bar is t * (t * I), and
    # below it stays t**2 * I bit for bit (not t * t, which differs from
    # Python's t**2 in the last bit for some t)
    rng = np.random.default_rng(36)
    t = np.concatenate([10.0 ** rng.uniform(-150, 300, 2000),
                        [1.3e154, 1.3407807929942596e154, 1.3407807929942597e154]])
    integral = integrate(bose_integrand, 0.0, np.minimum(1.0 / t, 700.0)).tolist()
    expected = []
    for x, i in zip(t.tolist(), integral):
        try:
            expected.append(x**2 * i)
        except OverflowError:
            expected.append(x * (x * i))
    assert 0 < sum(x > 1.35e154 for x in t) < t.size
    e_bar = mean_energy_reduced(t)
    assert e_bar.tobytes() == np.array(expected).tobytes()
    assert [mean_energy_reduced(x) for x in t[-8:].tolist()] == expected[-8:]
    assert np.isfinite(e_bar).all()
    assert mean_energy_reduced(1e300) == pytest.approx(1e300, rel=1e-15)


def test_cond_const_bound_overflows_when_e_bar_underflows():
    # t^2 underflows below t ~ 1e-162, leaving e_bar = 0
    with pytest.raises(OverflowError):
        cond_const_bound(1e-200, ACC)


def test_tightest_golden_cond_const_integer():
    # the second point of the harmonic-log sweep: the bound ends in
    # ...211.0105, about 40 ulps from the integer boundary, and the exact
    # (mpmath) bound ends in ...211.18, so the integer is the true one
    import mpmath

    t = 0.00010718913192051276
    assert nmin(t, ACC).n_cond_const == 1234068477212
    grid_e_bar = mean_energy_reduced(np.array([1e-4, t]))[1]
    assert min_integer_above(cond_const_bound(t, ACC, grid_e_bar)) == 1234068477212
    with mpmath.workdps(40):
        x = 1 / mpmath.mpf(t)
        q = mpmath.exp(-x)
        e_bar = mpmath.mpf(t) ** 2 * (
            mpmath.pi**2 / 6 + x * mpmath.log(1 - q) - mpmath.polylog(2, q)
        )
        bound = (1 / mpmath.mpf(t)) * (10 / (4 * e_bar)) * (1 + 4 * e_bar / 10) ** 2
        assert int(mpmath.floor(bound)) + 1 == 1234068477212


@pytest.mark.parametrize("points", [37, 150])
def test_grid_matches_one_call_per_point(points):
    # 150 distinct upper limits take three quadrature passes; each keeps the
    # bits of a call of its own
    grid = np.geomspace(1e-4, 100.0, points)
    values = mean_energy_reduced(grid).tolist()
    assert values == [mean_energy_reduced(t) for t in grid.tolist()]
