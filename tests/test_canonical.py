"""Group statistics, density-matrix diagonal, the energy window, and the report."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localtemp.canonical import (
    AccuracyParams,
    Binding,
    CriterionReport,
    EnergyWindow,
    GroupStatistics,
    InconsistentWindowError,
    build_report,
    energy_window,
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


def test_rho_diag_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rho_diag(_stats(), 0.0, 0.0)
    with pytest.raises(ValueError):
        rho_diag(_stats(dsq=0.0), 1.0, 0.0)


def test_energy_window_harmonic_golden():
    # reduced per-site values at T equal to the Debye-like scale
    win = energy_window(
        0.7775046341122482, 0.25, 1, AccuracyParams(), -math.inf, math.inf
    )
    assert math.isclose(win.e_min, 0.3277504634112248, rel_tol=1e-12)
    assert math.isclose(win.e_max, 8.025046341122483, rel_tol=1e-12)


def test_energy_window_clamps_and_collapses():
    acc = AccuracyParams(alpha=1e12, delta=0.5)
    win = energy_window(1.0, -5.0, 1, acc, -3.0, 3.0)
    assert win.e_min == -3.0 and win.e_max == 3.0
    flat = energy_window(0.0, 2.0, 2, AccuracyParams(), -math.inf, math.inf)
    assert flat.e_min == flat.e_max == 1.0


def test_energy_window_inconsistent():
    with pytest.raises(InconsistentWindowError):
        energy_window(1.0, 0.0, 1, AccuracyParams(), -math.inf, 0.05)
    with pytest.raises(InconsistentWindowError):
        EnergyWindow(e_min=1.0, e_max=0.0)


@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=1.1, max_value=50.0),
    st.floats(min_value=1.0, max_value=40.0),
)
@settings(max_examples=100)
def test_energy_window_monotone_in_alpha(e_bar, e0, alpha, widen):
    lo = energy_window(
        e_bar, e0, 2, AccuracyParams(alpha=alpha, delta=0.5), -math.inf, math.inf
    )
    hi = energy_window(
        e_bar, e0, 2, AccuracyParams(alpha=alpha + widen, delta=0.5), -math.inf, math.inf
    )
    assert hi.e_min <= lo.e_min + 1e-12
    assert hi.e_max >= lo.e_max - 1e-12


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


def test_criterion_report_consistency():
    with pytest.raises(ValueError):
        CriterionReport(
            n_cond_const=5,
            n_linearity=9,
            n_min=5,
            binding=Binding.LINEARITY,
            c1_estimate=0.0,
            intensive=True,
        )
