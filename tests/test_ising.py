"""Transverse-field chain: spectra, k-integrals, widths, and criteria."""
from __future__ import annotations

import math

import numpy as np
import pytest

from localtemp.canonical import AccuracyParams, Binding
from localtemp.ising import (
    CouplingCase,
    IsingModel,
    UnsupportedCouplingError,
    cond_const_bound,
    delta_sq,
    delta_sq_extremes,
    dispersion_periodic,
    e_mu_extremes,
    ground_energy_per_site,
    group_energy,
    group_k_values,
    isotropic_weak_bound,
    linearity_bound,
    mean_energy_per_site,
    nmin,
    nmin_cond_const,
    nmin_isotropic_weak,
    nmin_linearity,
    occupation_patterns,
)

ACC = AccuracyParams(alpha=10.0, delta=0.01)


def _model(k, l, b=1.0):
    return IsingModel.from_kl(b, k, l)


def test_coupling_classification():
    assert _model(0.1, 0.1).coupling_case is CouplingCase.CONST_WIDTH
    assert _model(0.3, -0.3).coupling_case is CouplingCase.CONST_WIDTH
    assert _model(0.0, 2.0).coupling_case is CouplingCase.FULLY_ANISOTROPIC
    assert _model(0.7, 0.0).coupling_case is CouplingCase.ISOTROPIC
    assert _model(0.0, 0.0).coupling_case is CouplingCase.CONST_WIDTH
    assert _model(2.0, 3.0).coupling_case is CouplingCase.GENERAL


def test_model_coupling_consistency():
    m = IsingModel.from_couplings(2.0, 1.2, 0.8)
    assert math.isclose(m.k_param, 0.5, rel_tol=1e-12)
    assert math.isclose(m.l_param, 0.1, rel_tol=1e-12)
    with pytest.raises(ValueError):
        IsingModel(
            b_field=1.0,
            jx=1.0,
            jy=1.0,
            k_param=5.0,
            l_param=0.0,
            coupling_case=CouplingCase.ISOTROPIC,
        )
    with pytest.raises(ValueError):
        IsingModel.from_kl(0.0, 0.1, 0.1)


def test_dispersion_periodic_band_edges():
    m = _model(0.4, 0.0, b=2.0)
    assert math.isclose(dispersion_periodic(0.0, m), 2 * 2.0 * 0.6, rel_tol=1e-12)
    assert math.isclose(dispersion_periodic(math.pi, m), 2 * 2.0 * 1.4, rel_tol=1e-12)
    # at the critical ratio the node survives anisotropy but turns linear
    # with slope 2B|L|
    critical = _model(1.0, 0.5, b=1.0)
    assert dispersion_periodic(0.0, critical) == 0.0
    assert math.isclose(dispersion_periodic(1e-7, critical) / 1e-7, 1.0, rel_tol=1e-9)


@pytest.mark.parametrize(
    "k,l,expected",
    [
        (0.1, 0.1, -1.002501566421584),
        (10.0, 10.0, -10.02501566421584),
        (0.0, 0.1, -1.0024953319251069),
        (0.0, 10.0, -6.499417362813597),
        (0.1, 0.0, -1.0),
        (1.0, 0.0, -1.0),
        (10.0, 0.0, -6.398055318052715),
    ],
)
def test_ground_energy_frozen(k, l, expected):
    assert math.isclose(ground_energy_per_site(_model(k, l)), expected, rel_tol=1e-9)


@pytest.mark.parametrize(
    "k,l,expected",
    [
        (1.5, 0.0, -1.1763215978147163),
        (1.0, 0.5, -1.0881102451032911),
        (-1.0, 1.0, -1.2732395447351632),
    ],
)
def test_ground_energy_gapless_bitwise(k, l, expected):
    # the gapless ground energy integrates to an absolute tol of 1e-12; at
    # the integrator's default 1e-10 these read ...175, -1.08811024510328
    # and ...628
    assert ground_energy_per_site(_model(k, l)) == expected


def test_ground_energy_weak_coupling_flat():
    # below the critical ratio the isotropic ground energy stays exactly -B
    for k in (0.0, 0.3, 0.999):
        assert math.isclose(ground_energy_per_site(_model(k, 0.0)), -1.0, rel_tol=1e-10)


def test_ground_energy_strong_coupling_limit():
    # |K| >> 1: dominated by the coupling, e0 -> -(2/pi) |K| B
    e0 = ground_energy_per_site(_model(100.0, 0.0))
    assert math.isclose(e0, -(2.0 / math.pi) * 100.0, rel_tol=1e-3)


@pytest.mark.parametrize(
    "k,l,t,expected",
    [
        (10.0, 0.0, 1e-3, 2.6311828711462484e-08),
        (10.0, 0.0, 1e-2, 2.6311852122769197e-06),
        (10.0, 0.0, 1.0, 0.026559536853307603),
        (10.0, 10.0, 100.0, 9.01846818139314),
        (0.1, 0.1, 1.0, 0.23745047955254767),
        (0.0, 10.0, 1.0, 0.021924576454386394),
    ],
)
def test_mean_energy_frozen(k, l, t, expected):
    got = mean_energy_per_site(1.0 / t, _model(k, l))
    assert math.isclose(got, expected, rel_tol=2e-9)


def test_mean_energy_gapless_leading_order():
    # linear node: excess energy pi t^2 / (6 v) with v the slope at the node
    v = 2.0 * math.sqrt(99.0)
    t = 1e-3
    got = mean_energy_per_site(1.0 / t, _model(10.0, 0.0))
    assert math.isclose(got, math.pi * t * t / (6.0 * v), rel_tol=1e-7)


def test_mean_energy_uncoupled_closed_form():
    # K = L = 0: independent sites, flat band at 2B
    m = _model(0.0, 0.0, b=1.5)
    for beta in (0.2, 1.0, 4.0):
        expected = 2.0 * 1.5 / (math.exp(2.0 * beta * 1.5) + 1.0)
        assert math.isclose(
            mean_energy_per_site(beta * 1.5, m), expected, rel_tol=1e-10
        )


def test_mean_energy_increasing_in_t():
    m = _model(0.0, 10.0)
    grid = np.geomspace(1e-2, 1e2, 25)
    vals = [mean_energy_per_site(1.0 / float(t), m) for t in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_group_energy_and_s_range():
    m = _model(0.3, 0.0)
    lo, hi = e_mu_extremes(m, 4)
    assert lo == -hi
    # single site: k = pi/2, energy +-B exactly
    assert math.isclose(group_energy([1], m), 1.0, rel_tol=1e-12)
    assert math.isclose(group_energy([0], m), -1.0, rel_tol=1e-12)


def test_group_energy_within_extremes():
    m = _model(0.8, 0.0)
    for n in range(1, 13):
        e = group_energy(occupation_patterns(n), m)
        lo, hi = e_mu_extremes(m, n)
        assert np.all((lo - 1e-12 <= e) & (e <= hi + 1e-12))


def test_group_energy_complement_antisymmetry():
    m = _model(1.7, 0.0)
    for n in range(1, 13):
        e = group_energy(occupation_patterns(n), m)
        # row 2^n - 1 - p holds the complement of row p
        for a, b in zip(e, -e[::-1]):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_delta_sq_within_extremes():
    m = _model(0.6, 0.9)
    lo, hi = delta_sq_extremes(m)
    for n in range(1, 9):
        bits = occupation_patterns(n)
        val = delta_sq(bits[:, None], bits[None, :], m)
        assert np.all((lo - 1e-12 <= val) & (val <= hi + 1e-12))


def test_delta_sq_const_width_case():
    # K = L: the occupation dependence cancels entirely
    m = _model(0.5, 0.5)
    a, b, c = [1, 0, 1], [0, 0, 0], [1, 1, 1]
    assert math.isclose(delta_sq(a, b, m), delta_sq(a, c, m), rel_tol=1e-12)
    assert math.isclose(delta_sq(a, b, m), 0.25, rel_tol=1e-12)  # B^2 K^2
    with pytest.raises(ValueError):
        delta_sq(a, [1, 0], m)


def test_delta_sq_saturates_extremes():
    # all-up against all-up hits one end, all-up against all-down the other
    m = _model(0.8, 0.0)
    n = 201  # S -> +-1/2 at large n
    up = np.ones(n, dtype=int)
    down = np.zeros(n, dtype=int)
    lo, hi = delta_sq_extremes(m)
    assert abs(delta_sq(up, down, m) - hi) / hi < 0.02
    assert delta_sq(up, up, m) < lo + 0.02 * hi


@pytest.mark.parametrize(
    "k,l,t,expected",
    [
        (0.1, 0.1, 0.05, 79.94990589670648),
        (0.1, 0.1, 1.0, 0.4211404423711431),
        (10.0, 10.0, 100.0, 0.2757129674874655),
        (10.0, 0.0, 1e-3, 38005720201589.79),
        (10.0, 0.0, 1e-2, 38005686385.51),
    ],
)
def test_cond_const_bound_frozen(k, l, t, expected):
    got = cond_const_bound(t, ACC, _model(k, l))
    assert math.isclose(got, expected, rel_tol=5e-9)


def test_linearity_bound_frozen():
    got = linearity_bound(1e-3, ACC, _model(10.0, 0.0))
    assert math.isclose(got, 390743.73004341096, rel_tol=1e-9)
    # fully anisotropic benchmark: (1/0.02) * 100 / 2 = 2500 exactly
    assert math.isclose(linearity_bound(1.0, ACC, _model(0.0, 10.0)), 2500.0, rel_tol=1e-12)
    assert nmin_linearity(1.0, ACC, _model(0.0, 10.0)) == 2501


def test_const_width_thresholds():
    weak, strong = _model(0.1, 0.1), _model(10.0, 10.0)
    for m, t_star in ((weak, 0.755987105272306), (strong, 27.571296748746548)):
        assert nmin_cond_const(t_star * 1.001, ACC, m) == 1
        assert nmin_cond_const(t_star * 0.999, ACC, m) > 1
    assert nmin_cond_const(0.05, ACC, weak) == 80


def test_isotropic_weak_bound_values():
    m = _model(0.1, 0.0)
    assert math.isclose(isotropic_weak_bound(1.0, m), 0.2 / 9.0, rel_tol=1e-12)
    assert nmin_isotropic_weak(1.0, m) == 1
    assert nmin_isotropic_weak(1e-3, m) == 23
    with pytest.raises(ValueError):
        isotropic_weak_bound(1.0, _model(1.5, 0.0))
    with pytest.raises(ValueError):
        isotropic_weak_bound(1.0, _model(0.1, 0.2))


def test_nmin_dispatch_by_case():
    const = nmin(100.0, ACC, _model(10.0, 10.0))
    assert const.n_min == 1 and const.binding is Binding.NONE

    aniso = nmin(1.0, ACC, _model(0.0, 10.0))
    assert aniso.n_min == 2501 and aniso.binding is Binding.LINEARITY

    weak_iso = nmin(1e-3, ACC, _model(0.1, 0.0))
    assert weak_iso.n_cond_const == 23

    strong_iso = nmin(1e-3, ACC, _model(10.0, 0.0))
    assert strong_iso.binding is Binding.COND_CONST
    # quadrature over the gapless node is good to ~4e-10 relative, so the
    # fourteen-digit integer is only pinned to that accuracy
    assert strong_iso.n_min == pytest.approx(38005720201590, rel=1e-8)

    with pytest.raises(UnsupportedCouplingError):
        nmin(1.0, ACC, _model(2.0, 3.0))


def test_group_k_values_open_grid():
    k = group_k_values(3)
    assert np.allclose(k, [math.pi / 4, math.pi / 2, 3 * math.pi / 4])
    with pytest.raises(ValueError):
        group_k_values(0)


# Values produced before the ladder integrand and the gapped grid were
# rewritten for speed; the rewrite keeps the arithmetic, so they must match
# to the last bit.
_MEAN_ENERGY_BITWISE = {
    (0.0, 0.5): (2.0899346953978098e-304, 0.22711454772067127, 1.0587143806121273),
    (2.0, 0.0): (1.5115003407762503e-07, 0.14775689171228512, 1.4329911305102305),
    (1.0, 1.0): (1.3089972219168492e-07, 0.15529770739498677, 1.271239546735158),
    (1.0, 0.0): (3.413518758060227e-06, 0.14816618724782124, 0.9985000014583316),
}


@pytest.mark.parametrize("kl", sorted(_MEAN_ENERGY_BITWISE))
def test_mean_energy_per_site_bitwise(kl):
    # gapped trapezoid, linear nodes (|K| > 1 isotropic; K = L = 1), and the
    # quadratic node at K = 1, L = 0
    model = _model(*kl)
    got = tuple(mean_energy_per_site(1.0 / t, model) for t in (1e-3, 1.0, 1e3))
    assert got == _MEAN_ENERGY_BITWISE[kl]


def test_trapezoid_grid_is_shared_and_read_only():
    from localtemp.ising import _trapezoid_grid

    model = _model(0.0, 0.5)
    k, w = _trapezoid_grid(model)
    assert _trapezoid_grid(model)[0] is k
    for array in (k, w):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


@pytest.mark.parametrize("delta", [0.0, math.inf, math.nan, -1.0])
def test_ladder_rejects_degenerate_cell_width(delta):
    import signal

    from localtemp.ising import _ladder_integral
    from localtemp.specfun import QuadratureError

    # without the check, delta <= 0 loops forever while the cell list grows;
    # a one-second alarm turns that into a failure before memory runs out
    def timed_out(signum, frame):
        raise TimeoutError("ladder did not terminate")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(QuadratureError):
            _ladder_integral(lambda kp: np.cos(kp[0]), 0.0, (math.pi,), delta)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_tightest_golden_ising_integer():
    # the second point of the K = 2 sweep: its bound ends in ...019.0286
    t = 0.0010718913192051276
    model = _model(2.0, 0.0)
    assert nmin_cond_const(t, ACC, model) == 214881706020
    grid_e_bar = mean_energy_per_site(np.array([1e3, 1.0 / t]), model)[1]
    assert nmin_cond_const(t, ACC, model, grid_e_bar) == 214881706020


@pytest.mark.parametrize("k", [2.0, 1.0])
def test_underflowed_beta_divides_by_zero(k):
    # B/T = 1e-300 over B = 1e30 underflows to 0, so the node's thermal
    # width is 1/0: a ZeroDivisionError, which the criteria report as a
    # bound that is not finite, not a ladder with an infinite cell width
    model = _model(k, 0.0, b=1e30)
    with pytest.raises(ZeroDivisionError):
        mean_energy_per_site(1e-300, model)
    with pytest.raises(ZeroDivisionError):
        mean_energy_per_site(np.array([1.0, 1e-300]), model)
