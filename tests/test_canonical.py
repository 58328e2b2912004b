"""Group statistics, density-matrix diagonal, and the report."""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from localtemp.canonical import (
    AccuracyParams,
    Binding,
    CriterionReport,
    GroupStatistics,
    build_report,
    rho_diag,
)


def _stats(e_a=1.0, eps_a=0.0, dsq=1.0, e0=-10.0, e1=math.inf):
    return GroupStatistics(e_a=e_a, eps_a=eps_a, delta_sq_a=dsq, e0=e0, e1=e1)


def test_group_statistics_invariants():
    with pytest.raises(ValueError):
        _stats(dsq=-1e-3)
    # mean outside the spectral range
    with pytest.raises(ValueError):
        _stats(e_a=1.0, eps_a=0.0, e0=2.0, e1=3.0)
    with pytest.raises(ValueError):
        _stats(e_a=5.0, e0=0.0, e1=4.0)


@pytest.mark.parametrize(
    "field,kwargs",
    [
        ("e_a", dict(e_a=math.nan, dsq=math.nan, e0=0.0, e1=1.0)),
        ("e_a", dict(e_a=np.array([1.0, math.inf]), eps_a=np.zeros(2), dsq=np.ones(2))),
        ("eps_a", dict(eps_a=math.nan)),
        ("delta_sq_a", dict(dsq=np.array([1.0, math.nan]), e_a=np.ones(2))),
        ("delta_sq_a", dict(dsq=math.inf)),
        ("e0", dict(e0=-math.inf)),
        ("e0", dict(e0=math.nan)),
        ("e1", dict(e1=math.nan)),
        ("e1", dict(e1=-math.inf)),
    ],
)
def test_group_statistics_rejects_non_finite(field, kwargs):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        _stats(**kwargs)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_rho_diag_rejects_non_finite_beta(beta):
    with pytest.raises(ValueError, match="^beta must be finite"):
        rho_diag(_stats(), beta, 0.0)
    with pytest.raises(ValueError, match="^beta must be finite"):
        rho_diag(_stats(e_a=np.ones(3), eps_a=np.zeros(3), dsq=np.ones(3)), beta, 0.0)


def test_accuracy_params_ranges():
    AccuracyParams(alpha=10.0, delta=0.01)
    with pytest.raises(ValueError):
        AccuracyParams(alpha=1.0, delta=0.01)
    with pytest.raises(ValueError):
        AccuracyParams(alpha=10.0, delta=0.0)
    with pytest.raises(ValueError):
        AccuracyParams(alpha=10.0, delta=1.0)


def test_rho_diag_degenerate_width_limit():
    # Delta -> 0 with the spectral edges far away: ln rho -> -beta y - log_z
    stats = _stats(e_a=3.0, eps_a=0.25, dsq=1e-14, e0=-100.0, e1=math.inf)
    beta, log_z = 0.7, 1.3
    assert abs(rho_diag(stats, beta, log_z) - (-beta * 3.25 - log_z)) <= 1e-9


def test_rho_diag_infinite_upper_edge():
    near = rho_diag(_stats(e1=1e9), 1.0, 0.0)
    dropped = rho_diag(_stats(e1=math.inf), 1.0, 0.0)
    assert math.isclose(near, dropped, rel_tol=1e-12)


def test_rho_diag_second_term_only_lowers():
    # the subtracted erfc term is nonnegative
    for e1 in (2.0, 5.0, 50.0):
        assert rho_diag(_stats(e1=e1), 1.0, 0.0) <= rho_diag(
            _stats(e1=math.inf), 1.0, 0.0
        )


def test_rho_diag_underflow_is_minus_inf():
    # zero-measure window between the edges: both erfc arguments coincide
    stats = _stats(e_a=0.0, eps_a=0.0, dsq=1.0, e0=0.0, e1=0.0)
    assert rho_diag(stats, 1.0, 0.0) == -math.inf
    # beta^2 Delta^2 overflows to inf with the erfc term at -inf: still -inf
    assert rho_diag(_stats(e_a=1.0, e0=0.0), 1e300, 0.0) == -math.inf


def test_rho_diag_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rho_diag(_stats(), 0.0, 0.0)
    with pytest.raises(ValueError):
        rho_diag(_stats(dsq=0.0), 1.0, 0.0)


def _mp_log_rho(e_a, eps_a, dsq, e0, e1, beta, log_z):
    # the Gaussian-weight formula at 40 digits from the same double inputs
    with mpmath.workdps(40):
        y = mpmath.mpf(e_a) + mpmath.mpf(eps_a)
        width = mpmath.sqrt(2) * mpmath.sqrt(dsq)
        a0 = (e0 - y + mpmath.mpf(beta) * dsq) / width
        upper = 0
        if math.isfinite(e1):
            upper = mpmath.erfc((e1 - y + mpmath.mpf(beta) * dsq) / width)
        diff = mpmath.erfc(a0) - upper
        if diff <= 0:
            return -math.inf, float(a0)
        log_rho = (
            -mpmath.log(2) - log_z - beta * y + mpmath.mpf(beta) ** 2 * dsq / 2
            + mpmath.log(diff)
        )
        return float(log_rho), float(a0)


def test_rho_diag_array_matches_mpmath():
    # every branch: A_0 < 0, 0 <= A_0 < 2, A_0 >= 2 with finite and infinite
    # e1, and A_1 <= A_0 (a zero-measure window, -inf)
    e_a, eps_a, dsq = (
        g.ravel()
        for g in np.meshgrid(
            np.linspace(-4.0, 3.0, 15), [-0.3, 0.0, 0.3], [0.05, 0.5, 2.0, 8.0, 50.0]
        )
    )
    cases = [(beta, -4.0, e1) for beta in (0.4, 1.5) for e1 in (3.5, math.inf)]
    cases.append((1.0, 0.3, 0.3))
    branches = set()
    for beta, e0, e1 in cases:
        y = e_a + eps_a
        keep = (y >= e0) & (y <= e1)
        stats = GroupStatistics(e_a[keep], eps_a[keep], dsq[keep], e0, e1)
        got = rho_diag(stats, beta, 1.25)
        assert got.shape == (int(keep.sum()),)
        for args, value in zip(zip(e_a[keep], eps_a[keep], dsq[keep]), got):
            expected, a0 = _mp_log_rho(*args, e0, e1, beta, 1.25)
            if expected == -math.inf:
                assert value == -math.inf
                branches.add("A_1 <= A_0")
                continue
            assert abs(value - expected) <= 1e-13, (args, beta, e0, e1)
            if a0 < 0:
                branches.add("A_0 < 0")
            elif a0 < 2:
                branches.add("0 <= A_0 < 2")
            else:
                branches.add(f"A_0 >= 2, e1 {'finite' if math.isfinite(e1) else 'inf'}")
    assert branches == {
        "A_0 < 0", "0 <= A_0 < 2", "A_0 >= 2, e1 finite", "A_0 >= 2, e1 inf", "A_1 <= A_0"
    }


def test_rho_diag_scalar_is_one_entry_of_the_array():
    # a float in, a float out; the same number as inside an array call
    many = _stats(e_a=np.array([1.0, -2.0]), eps_a=np.zeros(2), dsq=np.array([1.0, 3.0]))
    got = rho_diag(many, 0.8, 0.5)
    single = rho_diag(_stats(e_a=-2.0, dsq=3.0), 0.8, 0.5)
    assert isinstance(single, float)
    assert single == got[1]


def test_build_report_binding_rules():
    acc = AccuracyParams()
    rep = build_report(5, 9, 0.002, acc)
    assert rep.n_min == 9 and rep.binding is Binding.LINEARITY
    assert rep.intensive

    tie = build_report(7, 7, 0.002, acc)
    assert tie.binding is Binding.COND_CONST

    trivial = build_report(1, 1, 0.0, acc)
    assert trivial.n_min == 1 and trivial.binding is Binding.NONE

    loose = build_report(2, 3, 0.5, acc)
    assert not loose.intensive


def test_report_derives_n_min_and_binding():
    # the rule build_report used to apply: n_min is the larger bound, ties go
    # to cond_const, and a single subsystem binds nothing
    for n_cond in range(1, 7):
        for n_lin in range(1, 7):
            rep = CriterionReport(n_cond, n_lin, 0.0, True)
            n_min = max(n_cond, n_lin)
            if n_min == 1:
                binding = Binding.NONE
            elif n_cond >= n_lin:
                binding = Binding.COND_CONST
            else:
                binding = Binding.LINEARITY
            assert (rep.n_min, rep.binding) == (n_min, binding)


@pytest.mark.parametrize(
    "k,l",
    [pytest.param(None, None, id="harmonic"), pytest.param(0.5, 0.5, id="ConstWidth"),
     pytest.param(0.0, 2.0, id="FullyAnisotropic"), pytest.param(0.5, 0.0, id="IsotropicWeak"),
     pytest.param(2.0, 0.0, id="IsotropicStrong"), pytest.param(1.0, 0.0, id="IsotropicCritical"),
     pytest.param(-1.0, 1.0, id="ConstWidthCritical")],
)
def test_nmin_integers_follow_the_raw_bound_rule(k, l):
    # nmin is the one road from the raw bounds to integers: the smallest
    # integer above each bound, with the harmonic chain's e_bar >= 1/4 guard and
    # the all-states bound in place of the constant condition at L = 0, |K| < 1
    from localtemp import harmonic, ising
    from localtemp.specfun import min_integer_above

    acc = AccuracyParams(alpha=10.0, delta=0.01)
    for t in np.geomspace(1e-3, 1e3, 25).tolist():
        if k is None:
            report = harmonic.nmin(t, acc)
            cond = (1 if harmonic.mean_energy_reduced(t) >= 0.25
                    else min_integer_above(harmonic.cond_const_bound(t, acc)))
            lin = min_integer_above(harmonic.linearity_bound(t, acc))
        else:
            model = ising.IsingModel(k, l)
            report = ising.nmin(t, acc, model)
            weak = l == 0.0 and abs(k) < 1.0
            raw = (ising.isotropic_weak_bound(t, model) if weak
                   else ising.cond_const_bound(t, acc, model))
            cond = min_integer_above(raw)
            lin = min_integer_above(ising.linearity_bound(t, acc, model))
        assert (report.n_cond_const, report.n_linearity) == (cond, lin)
