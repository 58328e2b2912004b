"""Special functions and quadrature against independently computed values."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localtemp.specfun import (
    QuadratureError,
    bose_integrand,
    erfcx,
    in_chunks,
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
    assert integrate(bose_integrand, 0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        integrate(lambda x: x, 3.0, 1.0)


def test_integrate_budget_exhaustion():
    # no panel meets a 1e-300 target, so the 4096-split budget runs out
    with pytest.raises(QuadratureError, match="within 4096 subdivisions"):
        integrate(lambda x: np.sin(50.0 * x) ** 2 / (1e-3 + x), 0.0, 10.0, 1e-300)


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
    # frozen before Simpson's rule was written out inside the loop, with
    # math.sin and math.exp integrands; numpy's agree on these nodes
    assert integrate(np.sin, 0.0, math.pi) == 1.999999999999999
    assert integrate(lambda x: np.exp(-x * x), 0.0, 2.0) == 0.8820813907623639
    assert integrate(np.sin, 0.0, math.pi, tol=1e-6) == (
        1.9999999988423987
    )


def _depth_first(f, a, b, tol, max_subdivisions=4096):
    """The one-interval recursion the batched kernel replaces: a stack of
    panels, the right half popped first, one scalar f call per abscissa."""
    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    stack = [(a, b, fa, fm, fb, (fa + 4.0 * fm + fb) * (b - a) / 6.0, tol)]
    total, splits = 0.0, 0
    while stack:
        x0, x1, f0, f1, f2, whole, tol = stack.pop()
        xm = 0.5 * (x0 + x1)
        fl, fr = f(0.5 * (x0 + xm)), f(0.5 * (xm + x1))
        left = (f0 + 4.0 * fl + f1) * (xm - x0) / 6.0
        right = (f1 + 4.0 * fr + f2) * (x1 - xm) / 6.0
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            total += left + right + err / 15.0
            continue
        splits += 1
        if splits > max_subdivisions:
            raise QuadratureError("budget")
        stack.append((x0, xm, f0, fl, f1, left, 0.5 * tol))
        stack.append((xm, x1, f1, fr, f2, right, 0.5 * tol))
    return total


_INTEGRANDS = {"sin": np.sin, "gauss": lambda x: np.exp(-x * x)}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_INTEGRANDS)),
    intervals=st.lists(
        st.tuples(
            st.floats(-5.0, 5.0),
            st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
            st.sampled_from([1e-6, 1e-10, 1e-12]),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_batch_matches_one_call_per_interval(name, intervals):
    # a batch refines all intervals level by level, yet each interval adds
    # its panels in depth-first order: every result keeps its bits
    f = _INTEGRANDS[name]
    a = np.array([lo for lo, _, _ in intervals])
    b = np.array([lo + width for lo, width, _ in intervals])
    tol = np.array([t for _, _, t in intervals])
    batch = integrate(f, a, b, tol=tol)
    single = [integrate(f, lo, hi, tol=t) for lo, hi, t in zip(a, b, tol)]
    reference = [_depth_first(f, float(lo), float(hi), t) for lo, hi, t in zip(a, b, tol)]
    assert batch.tolist() == single == reference


@pytest.mark.parametrize("kink", [0.3, 1 / 3, 0.7123456789])
def test_refinement_down_to_adjacent_floats(kink):
    # |x - kink| is linear on each side, so only the panels around the kink
    # split, some 55 levels deep, until their edges are adjacent floats;
    # such a panel has err = 0 and is accepted whole, so no accepted panel
    # has zero width and the left edges alone give the depth-first order
    def f(x):
        return np.abs(x - kink)

    a, b = np.array([0.0, -1.0]), np.array([1.0, 2.5])
    got = integrate(f, a, b, tol=1e-300)
    reference = [_depth_first(lambda x: float(f(x)), lo, hi, 1e-300) for lo, hi in zip(a, b)]
    assert got.tolist() == reference


def test_batch_names_the_interval_over_budget():
    # the middle interval's 1e-300 target runs out of splits, the others
    # converge
    tol = [1e-6, 1e-300, 1e-6]
    a, b = [0.0, 0.0, 0.0], [1e-3, 10.0, 0.0]
    with pytest.raises(QuadratureError, match=r"within 4096 subdivisions on \[0\.0, 10\.0\]"):
        integrate(lambda x: np.sin(50.0 * x) ** 2 / (1e-3 + x), a, b, tol)
    assert integrate(lambda x: np.sin(50.0 * x) ** 2 / (1e-3 + x), a[:1], b[:1], tol[:1])[0] > 0


def test_large_batch_counts_splits_per_interval_once_a_budget_can_run_out():
    # 2,000 smooth intervals (one bump per unit period, an interval never
    # straddles a period) split 6,003 times in the first two levels, yet no
    # interval can pass 4096 splits before level 13: the starved one is still
    # named there, and the batch without it keeps every interval's bits
    def bumps(x):
        u = x - np.floor(x) - 0.5
        return 1.0 / (1e-2 + u * u)

    def f(x):
        assert x.shape[-1] <= 3 * 4096  # refinement past the budget
        panels.append(x.shape[-1])
        return bumps(x)

    a = np.arange(2000) / 128.0
    b, tol = a + 1.0 / 128.0, np.full(a.size, 1e-13)
    panels = []
    with pytest.raises(QuadratureError, match=r"within 4096 subdivisions on \[0\.0, 10\.0\]"):
        integrate(f, np.insert(a, 1000, 0.0), np.insert(b, 1000, 10.0),
                  np.insert(tol, 1000, 1e-300))
    # each level after the first evaluates two quarter points per panel it splits
    assert (panels[2] + panels[3]) / 2 > 4096 and len(panels) == 14
    got = integrate(bumps, a, b, tol)
    reference = [_depth_first(lambda x: float(bumps(x)), lo, hi, 1e-13)
                 for lo, hi in zip(a.tolist(), b.tolist())]
    assert got.tolist() == reference


def test_indexed_integrand_sees_its_interval():
    # f((x, i)) gets the interval index of every abscissa
    scale = np.array([1.0, 2.0, 3.0])
    got = integrate(lambda xi: scale[xi[1]] * xi[0], 0.0, np.ones(3), indexed=True)
    assert np.allclose(got, scale / 2.0, rtol=1e-15)


def test_batch_sums_panels_in_depth_first_order():
    # the accepted panels span many magnitudes and signs, so adding them left
    # to right, or pairwise, leaves other last bits than the depth-first
    # recursion's right-to-left sum, which every interval of a batch keeps
    def f(x):
        return np.exp(3.0 * x) * np.sin(40.0 * x)

    a = np.array([0.0, -1.0, 0.5, 2.0, 1.0])
    b = np.array([3.0, 2.5, 0.5, 2.001, 1.7])
    got = integrate(f, a, b, tol=1e-6)
    reference = [_depth_first(f, lo, hi, 1e-6) for lo, hi in zip(a.tolist(), b.tolist())]
    assert got.tolist() == reference


def test_in_chunks_takes_near_equal_chunks_in_order():
    sizes = []

    def kernel(chunk, scale):
        sizes.append(chunk.size)
        return chunk * scale

    for n, size, want in [(150, 64, [50, 50, 50]), (37, 16, [12, 12, 13]),
                          (64, 64, [64]), (65, 64, [32, 33]), (0, 16, [0])]:
        sizes.clear()
        values = np.arange(float(n))
        assert in_chunks(kernel, values, 2.0, size=size).tolist() == (2.0 * values).tolist()
        assert sizes == want
    one = np.array([3.0])
    assert in_chunks(lambda chunk: chunk, one) is one  # one chunk: no copy
