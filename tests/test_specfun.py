"""Special functions and quadrature against independently computed values."""
from __future__ import annotations

import math

import pytest

from localtemp.specfun import (
    QuadratureError,
    QuadratureSpec,
    bose_integrand,
    erfcx,
    integrate,
    min_integer_above,
)

# erfc by mpmath at 30 digits, rounded to double; erfcx(x) e^{-x^2} must
# reproduce it on both sides of the libm / continued-fraction split.
ERFC_TABLE = [
    (-8.0, 2.0),
    (-5.0, 1.9999999999984626),
    (-3.0, 1.9999779095030015),
    (-2.0, 1.9953222650189528),
    (-1.5, 1.9661051464753108),
    (-1.0, 1.8427007929497148),
    (-0.5, 1.5204998778130465),
    (-0.25, 1.276326390168237),
    (0.0, 1.0),
    (0.25, 0.7236736098317631),
    (0.5, 0.4795001221869535),
    (0.75, 0.28884436634648486),
    (1.0, 0.15729920705028513),
    (1.5, 0.033894853524689274),
    (2.0, 0.004677734981047266),
    (2.5, 0.0004069520174449589),
    (3.0, 2.209049699858544e-05),
    (4.0, 1.541725790028002e-08),
    (6.0, 2.1519736712498913e-17),
    (10.0, 2.088487583762545e-45),
]


@pytest.mark.parametrize("x,expected", ERFC_TABLE)
def test_erfc_exact_table(x, expected):
    got = erfcx(x) * math.exp(-x * x)
    assert abs(got - expected) <= 1e-13 * abs(expected)


def test_erfcx_large_argument():
    # erfcx(x) ~ 1/(x sqrt(pi)) for large x
    for x in (10.0, 100.0, 1e4):
        assert math.isclose(erfcx(x), 1.0 / (x * math.sqrt(math.pi)), rel_tol=1e-2)
    assert math.isclose(
        erfcx(1.0), math.e * 0.15729920705028513, rel_tol=1e-13
    )


def test_integrate_polynomial_exact():
    got = integrate(lambda x: x * x, 0.0, 3.0)
    assert math.isclose(got, 9.0, rel_tol=1e-12)


def test_integrate_debye_tail():
    # int_0^50 x/(e^x - 1) dx = pi^2/6 up to an exponentially small remainder
    got = integrate(bose_integrand, 0.0, 50.0)
    assert abs(got - math.pi**2 / 6) <= 1e-9


def test_integrate_additivity():
    f = bose_integrand
    whole = integrate(f, 0.0, 10.0)
    split = integrate(f, 0.0, 4.0) + integrate(f, 4.0, 10.0)
    assert math.isclose(whole, split, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(whole, 1.6444346567994603, rel_tol=1e-9)


def test_integrate_degenerate_and_reversed_limits():
    assert integrate(lambda x: x, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        integrate(lambda x: x, 3.0, 1.0)


def test_integrate_budget_exhaustion():
    spec = QuadratureSpec(abs_tol=1e-14, max_subdivisions=4)
    with pytest.raises(QuadratureError):
        integrate(lambda x: math.sin(50.0 * x) ** 2 / (1e-3 + x), 0.0, 10.0, spec)


def test_bose_integrand_values():
    assert math.isclose(bose_integrand(1.0), 0.5819767068693265, rel_tol=1e-13)
    # series branch agrees with the direct form at the switch point
    assert math.isclose(bose_integrand(1e-4), 1e-4 / math.expm1(1e-4), rel_tol=1e-12)
    assert bose_integrand(0.0) == 1.0
    assert bose_integrand(800.0) == 800.0 * math.exp(-800.0)


def test_min_integer_above_semantics():
    assert min_integer_above(2000.0) == 2001  # integer bound still excluded
    assert min_integer_above(2000.5) == 2001
    assert min_integer_above(0.3) == 1
    assert min_integer_above(-7.0) == 1
    with pytest.raises(OverflowError):
        min_integer_above(math.inf)
    with pytest.raises(ValueError):
        min_integer_above(math.nan)


def test_integrate_bitwise():
    # frozen before Simpson's rule was written out inside the loop
    assert integrate(math.sin, 0.0, math.pi) == 1.999999999999999
    assert integrate(lambda x: math.exp(-x * x), 0.0, 2.0) == 0.8820813907623639
    assert integrate(math.sin, 0.0, math.pi, QuadratureSpec(abs_tol=1e-6)) == (
        1.9999999988423987
    )
