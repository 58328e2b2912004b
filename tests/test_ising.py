"""Transverse-field chain: spectra, k-integrals, widths, and criteria."""
from __future__ import annotations

import contextlib
import math
import re
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localtemp import ising as ising_module
from localtemp.canonical import AccuracyParams, Binding
from localtemp.ising import (
    CouplingCase,
    IsingModel,
    UnsupportedCouplingError,
    _K_NODES,
    _e_bar_reach,
    _window_edge,
    cond_const_bound,
    delta_sq,
    dispersion_periodic,
    e_bar_can_bind,
    ground_energy_per_site,
    group_energy,
    group_k_values,
    isotropic_weak_bound,
    linearity_bound,
    mean_energy_per_site,
    nmin,
    occupation_patterns,
)
from localtemp.specfun import QuadratureError

ACC = AccuracyParams(alpha=10.0, delta=0.01)


def _model(k, l):
    return IsingModel(k, l)


def test_coupling_classification():
    assert _model(0.1, 0.1).coupling_case is CouplingCase.CONST_WIDTH
    assert _model(0.3, -0.3).coupling_case is CouplingCase.CONST_WIDTH
    assert _model(0.0, 2.0).coupling_case is CouplingCase.FULLY_ANISOTROPIC
    assert _model(0.7, 0.0).coupling_case is CouplingCase.ISOTROPIC
    assert _model(0.0, 0.0).coupling_case is CouplingCase.CONST_WIDTH
    assert _model(2.0, 3.0).coupling_case is CouplingCase.GENERAL


def test_model_coupling_consistency():
    # Jx = 1.2 and Jy = 0.8 in a field B = 2 are 0.6 and 0.4 in units of B
    m = IsingModel.from_couplings(2.0, 1.2, 0.8)
    assert math.isclose(m.k_param, 0.5, rel_tol=1e-12)
    assert math.isclose(m.l_param, 0.1, rel_tol=1e-12)
    assert math.isclose(m.jx, 0.6, rel_tol=1e-12)
    assert math.isclose(m.jy, 0.4, rel_tol=1e-12)
    with pytest.raises(ValueError, match="b_field must be positive"):
        IsingModel.from_couplings(0.0, 0.1, 0.1)
    # a non-finite field is named as such, whatever its sign
    for b in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"b_field must be finite, got {b!r}"):
            IsingModel.from_couplings(b, 0.1, 0.1)


@pytest.mark.parametrize(
    "b, jx, jy",
    [(2.0, 1.2, 0.8), (1.0, 0.4, 0.2), (0.3, -0.7, 0.05), (1e-3, 3.0, -3.0),
     (7.0, 1e-9, 2.5), (1.0, 0.0, 0.0)],
)
def test_derived_couplings_reproduce_the_inputs(b, jx, jy):
    # Jx = K + L and Jy = K - L are derived in units of B, so B times them may
    # differ from the typed couplings by roundoff, but by no more than a few ulps
    m = IsingModel.from_couplings(b, jx, jy)
    tol = 4.0 * math.ulp(max(abs(jx), abs(jy)))
    assert abs(b * m.jx - jx) <= tol and abs(b * m.jy - jy) <= tol


def test_non_finite_derived_coupling_is_named():
    # K and L are finite, but K + L or K - L overflows: an overflow, named
    # with its inputs; a non-finite K or L is an invalid input
    with pytest.raises(OverflowError, match=r"^jx = K \+ L overflows at K=1e\+308, L=1e\+308$"):
        IsingModel(1e308, 1e308)
    with pytest.raises(OverflowError, match=r"^jy = K - L overflows at K=1e\+308, L=-1e\+308$"):
        IsingModel(1e308, -1e308)
    with pytest.raises(ValueError, match="^jx must be finite, got inf"):
        IsingModel(math.inf, 1.0)
    with pytest.raises(ValueError, match="^jx must be finite, got nan"):
        IsingModel(1.0, math.nan)


@pytest.mark.parametrize(
    "b, jx, jy, name",
    [(1.0, 1e308, 1e308, "K"), (1.0, 1e308, -1e308, "L"), (1e-320, 1.0, 1.0, "K"),
     (0.5, 1.5e308, 0.0, "jx/B"), (0.5, 0.0, 1.5e308, "jy/B")],
)
def test_from_couplings_names_the_derived_coupling_that_overflows(b, jx, jy, name):
    # finite inputs whose K, L, Jx/B or Jy/B overflows: an overflow, not an
    # invalid input
    inputs = re.escape(f" overflows at jx={jx!r}, jy={jy!r}, B={b!r}")
    message = f"^{re.escape(name)} = .*{inputs}$"
    with pytest.raises(OverflowError, match=message):
        IsingModel.from_couplings(b, jx, jy)
    with pytest.raises(ValueError, match="^jx must be finite, got inf"):
        IsingModel.from_couplings(b, math.inf, jy)


def test_derived_constants_are_computed_once_per_model(monkeypatch):
    m = _model(2.0, 0.5)
    assert m.squared_couplings == (4.0, 0.25) and m.squared_couplings is m.squared_couplings
    assert m.extreme_coefficient == 2.0 / math.pi * (math.sqrt(3.0) + math.asin(0.5))
    assert _model(-0.5, 0.0).extreme_coefficient == 1.0
    huge = _model(0.0, 1e200)
    for _ in range(2):  # an overflowing square raises at every read
        with pytest.raises(OverflowError, match=r"^junction width overflows: L\^2"):
            huge.squared_couplings
    node = _model(2.0, 0.0)
    assert node.gap_node is node.gap_node and node.gap_node[1] == "linear"
    assert node.reads_e_bar and not _model(0.5, 0.0).reads_e_bar and not m.reads_e_bar
    # omega on the k-grid and the window edge belong to a gapped model: a
    # second round of e_bar, e_0 and gate calls on it runs _omega no more (its
    # trapezoid sums read no other omega)
    calls = []
    omega = ising_module._omega
    monkeypatch.setattr(ising_module, "_omega", lambda *a: calls.append(a) or omega(*a))
    for kl in ((0.0, 0.5), (0.3, -0.3), (1.5, 1.5)):
        model, counts = _model(*kl), []
        assert model.gap_node is None
        for _ in range(2):
            mean_energy_per_site(np.array([0.5, 2.0]), model)
            mean_energy_per_site(3.0, model)
            ground_energy_per_site(model)
            e_bar_can_bind(model, ACC, np.array([1e-3, 1.0, 1e3]))
            _window_edge(model)
            counts.append(len(calls))
        assert counts[1] == counts[0] and model.trapezoid_omega is model.trapezoid_omega
    # the ground-energy cache holds the models it saw, but not their omega
    ground_energy_per_site(fresh := _model(0.0, 0.4375))
    assert "trapezoid_omega" not in vars(fresh)


def test_dispersion_periodic_band_edges():
    # omega_k = 2 |1 - K cos k| at L = 0, in units of B
    m = _model(0.4, 0.0)
    assert math.isclose(dispersion_periodic(0.0, m), 2 * 0.6, rel_tol=1e-12)
    assert math.isclose(dispersion_periodic(math.pi, m), 2 * 1.4, rel_tol=1e-12)
    # at the critical ratio the node survives anisotropy but turns linear
    # with slope 2|L|
    critical = _model(1.0, 0.5)
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
        (1.5, 0.0, -1.1763215978147172),
        (1.0, 0.5, -1.0881102451032918),
        (-1.0, 1.0, -1.2732395447351628),
    ],
)
def test_ground_energy_gapless_bitwise(k, l, expected):
    # closed forms, each within 1 ulp of mpmath (40 digits): -1.17632159781471704,
    # -1.08811024510329169 and -1.27323954473516269 (= -4/pi)
    assert ground_energy_per_site(_model(k, l)) == expected


def _mpmath_ground_energy(k, l):
    import mpmath

    with mpmath.workdps(40):
        k, l = mpmath.mpf(k), mpmath.mpf(l)
        omega = lambda q: 2 * mpmath.sqrt((1 - k * mpmath.cos(q)) ** 2 + (l * mpmath.sin(q)) ** 2)
        nodes = [0, mpmath.acos(1 / k), mpmath.pi] if l == 0 and abs(k) > 1 else [0, mpmath.pi]
        return float(-mpmath.quad(omega, nodes) / (2 * mpmath.pi))


@pytest.mark.parametrize("k,l", [(1e5, 0.0), (1.0, 1e4), (-1.0, 1e4), (1.0, 1e200)])
def test_ground_energy_gapless_strong_coupling_matches_mpmath(k, l):
    # an absolute quadrature tolerance cannot be met once omega ~ 1e5, and
    # L^2 overflows at L = 1e200
    e0 = ground_energy_per_site(_model(k, l))
    assert math.isclose(e0, _mpmath_ground_energy(k, l), rel_tol=1e-15)


def test_ground_energy_gapless_calls_no_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("integrate called")

    monkeypatch.setattr("localtemp.ising.integrate", no_quadrature)
    for k, l in ((1.0, 0.0), (-1.0, 0.0), (2.0, 0.0), (-1.6, 0.0), (1.0, 1.0),
                 (-1.0, 1.0), (1.0, 1e-3), (1.0, 7.0)):
        ground_energy_per_site.__wrapped__(_model(k, l))  # past the cache


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
    # K = L = 0: independent sites, flat band at 2 (in units of B)
    m = _model(0.0, 0.0)
    for beta in (0.3, 1.5, 6.0):
        expected = 2.0 / (math.exp(2.0 * beta) + 1.0)
        assert math.isclose(mean_energy_per_site(beta, m), expected, rel_tol=1e-10)


def test_mean_energy_increasing_in_t():
    m = _model(0.0, 10.0)
    grid = np.geomspace(1e-2, 1e2, 25)
    vals = [mean_energy_per_site(1.0 / float(t), m) for t in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_group_energy_and_s_range():
    m = _model(0.3, 0.0)
    # single site: k = pi/2, energy +-B exactly
    assert math.isclose(group_energy([1], m), 1.0, rel_tol=1e-12)
    assert math.isclose(group_energy([0], m), -1.0, rel_tol=1e-12)


def test_group_energy_within_extremes():
    m = _model(0.8, 0.0)
    for n in range(1, 13):
        e = group_energy(occupation_patterns(n), m)
        assert np.all(np.abs(e) <= n * m.extreme_coefficient + 1e-12)


def test_group_energy_complement_antisymmetry():
    m = _model(1.7, 0.0)
    for n in range(1, 13):
        e = group_energy(occupation_patterns(n), m)
        # row 2^n - 1 - p holds the complement of row p
        for a, b in zip(e, -e[::-1]):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_delta_sq_within_extremes():
    m = _model(0.6, 0.9)
    lo, hi = sorted(m.squared_couplings)
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
    lo, hi = sorted(m.squared_couplings)
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
    assert nmin(1.0, ACC, _model(0.0, 10.0)).n_linearity == 2501


@pytest.mark.parametrize(
    "t, k, l", [(0.5, 1.0, 0.0), (1e-3, 10.0, 0.0), (0.3, 0.5, 0.0), (1.0, 0.0, 10.0),
                (0.7, 0.0, 0.5)]
)
def test_linearity_bound_does_not_depend_on_field(t, k, l):
    # B enters only where Jx, Jy in a field B are turned into K and L; here
    # that conversion is exact, and the bound is the same. At t = 0.5, K = 1,
    # L = 0 it is 50 exactly, which B = 0.7 used to round to 49.99999999999999
    # and n_linearity to 50
    bound = linearity_bound(t, ACC, _model(k, l))
    n_lin = nmin(t, ACC, _model(k, l)).n_linearity
    for b in (1e-40, 1e-12, 0.7, 1.0, 1e12, 1e40):
        model = IsingModel.from_couplings(b, b * (k + l), b * (k - l))
        assert linearity_bound(t, ACC, model) == bound
        assert nmin(t, ACC, model).n_linearity == n_lin


def test_const_width_thresholds():
    weak, strong = _model(0.1, 0.1), _model(10.0, 10.0)
    for m, t_star in ((weak, 0.755987105272306), (strong, 27.571296748746548)):
        assert nmin(t_star * 1.001, ACC, m).n_cond_const == 1
        assert nmin(t_star * 0.999, ACC, m).n_cond_const > 1
    assert nmin(0.05, ACC, weak).n_cond_const == 80


def test_isotropic_weak_bound_values():
    m = _model(0.1, 0.0)
    assert math.isclose(isotropic_weak_bound(1.0, m), 0.2 / 9.0, rel_tol=1e-12)
    assert nmin(1.0, ACC, m).n_cond_const == 1
    assert nmin(1e-3, ACC, m).n_cond_const == 23
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
    model = _model(0.0, 0.5)
    k, w = _K_NODES, model.trapezoid_omega
    assert model.trapezoid_omega is w
    for array in (k, w):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_trapezoid_grid_nodes_are_built_once_with_the_same_bits():
    # every gapped model reads one set of nodes, cos k and sin k; omega there
    # and the window edge keep the bits of sin and cos taken afresh
    k_fresh = np.linspace(0.0, math.pi, 4097)
    for kl in ((0.0, 0.5), (0.3, -0.3), (-0.7, 0.7), (1e-9, 1e-9), (2.5, 2.5), (0.5, 0.0)):
        model = _model(*kl)
        k, w = _K_NODES, model.trapezoid_omega
        assert k.tobytes() == k_fresh.tobytes()
        assert w.tobytes() == dispersion_periodic(k_fresh, model).tobytes()
        if abs(model.k_param) <= 1.0:
            ls = model.l_param * np.sin(k_fresh)
            lift = ls * (ls / (0.25 * (w + 2.0 * (1.0 - model.k_param * np.cos(k_fresh)))))
            assert _window_edge(model) == float(np.trapezoid(lift, k_fresh) / (2.0 * math.pi))


@pytest.mark.parametrize("kl", [(0.0, 0.5), (2.0, 0.0), (1.0, 0.0)],
                         ids=["gapped", "linear-node", "quadratic-node"])
def test_empty_temperature_array_gives_an_empty_array(kl):
    got = mean_energy_per_site(np.array([]), _model(*kl))
    assert isinstance(got, np.ndarray) and got.shape == (0,)


@pytest.mark.parametrize("kl", [(2.0, 0.0), (1.0, 0.0), (1.0, 1.0), (-1.0, 0.5)],
                         ids=["linear-node", "quadratic-node", "K=L=1", "K=-1"])
def test_gapless_e_bar_at_infinite_beta_is_its_zero_temperature_limit(kl):
    # an infinite beta (1/t overflowed) gives e_bar = 0, and leaves the bits of
    # the finite temperatures beside it; a node slope that overflows at a
    # finite beta (beta 2|L| at K = L = 1) still names its empty cell
    model = _model(*kl)
    assert mean_energy_per_site(math.inf, model) == 0.0
    beta = np.array([1.0, math.inf, 1e3, math.inf])
    got = mean_energy_per_site(beta, model)
    assert got[1] == got[3] == 0.0
    assert got[[0, 2]].tobytes() == mean_energy_per_site(beta[[0, 2]], model).tobytes()
    if kl == (1.0, 1.0):
        with pytest.raises(QuadratureError, match="^ladder cell width 0.0 is not positive"):
            mean_energy_per_site(np.array([math.inf, 1e308]), model)


@contextlib.contextmanager
def _one_second_alarm():
    # a ladder that never reaches its end loops while the cell list grows; a
    # one-second alarm turns that into a failure before memory runs out
    def timed_out(signum, frame):
        raise TimeoutError("ladder did not terminate")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("delta", [0.0, math.nan, -1.0])
def test_ladder_rejects_degenerate_cell_width(delta):
    from localtemp.ising import _ladder_integral

    with _one_second_alarm(), pytest.raises(QuadratureError):
        _ladder_integral(lambda kp: np.cos(kp[0]), 0.0, (math.pi,), delta)


def test_ladder_infinite_cell_width_is_one_cell():
    from localtemp.ising import _ladder_integral

    # beta times the node slope underflowed: each ladder is one cell
    with _one_second_alarm():
        value = _ladder_integral(lambda kp: np.cos(kp[0]), 0.0, (math.pi / 2,), math.inf)
    assert value.shape == (1, 1)
    assert value[0, 0] == pytest.approx(1.0, rel=1e-10)


def test_tightest_golden_ising_integer():
    # the second point of the K = 2 sweep: its bound ends in ...019.0286
    t = 0.0010718913192051276
    model = _model(2.0, 0.0)
    assert nmin(t, ACC, model).n_cond_const == 214881706020
    grid_e_bar = mean_energy_per_site(np.array([1e3, 1.0 / t]), model)[1]
    assert nmin(t, ACC, model, grid_e_bar).n_cond_const == 214881706020


@pytest.mark.parametrize("k, l", [(1.000001, 0.0), (1.0, 0.1)])
def test_underflowed_beta_divides_by_zero(k, l):
    # beta = 5e-324 times a linear node's slope (2 sqrt(K^2 - 1), 2|L| at
    # K = 1) below 1/2 underflows to 0, so the node's thermal width is 1/0:
    # one cell per ladder, the beta -> 0 limit, where every mode is half
    # occupied and e_bar is minus the ground energy
    model = _model(k, l)
    limit = -ground_energy_per_site(model)
    assert mean_energy_per_site(5e-324, model) == pytest.approx(limit, rel=1e-9)
    grid = mean_energy_per_site(np.array([1.0, 5e-324]), model)
    assert grid[1] == pytest.approx(limit, rel=1e-9)


@pytest.mark.parametrize("points", [37, 150])
@pytest.mark.parametrize("kl", [(0.0, 0.5), (1.5, 1.5), (2.0, 0.0), (1.0, 0.0)])
def test_grid_matches_one_call_per_point(kl, points):
    # gapped (K=0, L=0.5; K=L=1.5: chunks of 16 rows), the linear node
    # at K=2 and the quadratic node at K=1 (chunks of up to 64 ladders):
    # 37 and 150 points cross several chunks of unequal length, and every
    # point keeps the bits of a call of its own
    model = _model(*kl)
    beta_b = (1.0 / np.geomspace(1e-3, 1e3, points)).tolist()
    grid = mean_energy_per_site(np.array(beta_b), model).tolist()
    assert grid == [mean_energy_per_site(b, model) for b in beta_b]


def test_gapped_grid_beta_overflow_is_silent():
    # beta = inf, and beta = 1e308, which overflows beta * omega, both clip
    # to the Fermi factor's exp(700) without a numpy warning, as float
    # arithmetic would
    import warnings

    model = _model(0.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for huge in (math.inf, 1e308):
            grid = mean_energy_per_site(np.array([1.0, huge]), model)
            assert grid[1] == mean_energy_per_site(huge, model)
            assert 0.0 <= grid[1] < 1e-300


_SKIP_MODELS = [(1.0, 1.0), (-1.0, 1.0), (1.5, 1.5), (0.3, -0.3), (10.0, 10.0), (0.0, 0.5),
                (0.0, 10.0), (0.0, 2.0), (0.1, 0.1), (-0.7, 0.7)]


@settings(max_examples=80, deadline=None)
@given(kl=st.sampled_from(_SKIP_MODELS),
       alpha=st.sampled_from([1.01, 1.5, 2.0, 3.0, 4.0, 4.5, 6.0, 8.0, 10.0, 17.0, 100.0]),
       log_t=st.floats(-4.0, 4.0))
def test_skipped_e_bar_keeps_the_bound_to_the_bit(kl, alpha, log_t):
    # where e_bar / alpha cannot reach the window edge at this temperature,
    # the bound computed without e_bar equals the one given the explicit
    # e_bar, bit for bit
    model, acc, t = _model(*kl), AccuracyParams(alpha=alpha, delta=0.01), 10.0**log_t
    e_bar = mean_energy_per_site(1.0 / t, model)
    if not e_bar_can_bind(model, acc, 1.0 / t):
        assert e_bar / alpha < _window_edge(model)
    assert cond_const_bound(t, acc, model) == cond_const_bound(t, acc, model, e_bar)


@pytest.mark.parametrize("alpha", [1.5, 10.0, 100.0])
@pytest.mark.parametrize("kl", [(0.1, 0.1), (-0.7, 0.7), (0.0, 0.5), (1.5, 1.5)])
def test_cold_gapped_points_skip_e_bar_to_the_bit(kl, alpha):
    # on a gapped chain the bound on e_bar falls as e^{-beta w_min} once
    # beta w_min >= 1, so cold points skip e_bar where the model's gate
    # (beta = 0) would compute it, and keep the bound's bits
    model, acc = _model(*kl), AccuracyParams(alpha=alpha, delta=0.01)
    grid = np.geomspace(1e-3, 1e3, 61).tolist()
    binds = [bool(e_bar_can_bind(model, acc, 1.0 / t)) for t in grid]
    e_bar = mean_energy_per_site(np.array([1.0 / t for t in grid]), model)
    for t, e, bind in zip(grid, e_bar.tolist(), binds):
        assert bind or e / alpha < _window_edge(model)
        assert cond_const_bound(t, acc, model) == cond_const_bound(t, acc, model, e)
    assert e_bar_can_bind(model, acc, 0.0) == e_bar_can_bind(model, acc) == any(binds)
    if any(binds):  # the hot end reads e_bar, the cold end does not
        assert binds[-1] and not binds[0]


def test_cold_point_computes_no_e_bar(monkeypatch):
    model = _model(0.0, 0.5)
    explicit = cond_const_bound(1e-3, ACC, model, mean_energy_per_site(1e3, model))

    def unused(*args):
        raise AssertionError("e_bar computed")

    monkeypatch.setattr("localtemp.ising.mean_energy_per_site", unused)
    got = cond_const_bound(1e-3, ACC, model)
    assert got == explicit
    # the value that e_bar and the edge -1 - e_0 gave before, to its roundoff
    assert got == pytest.approx(4177.85076008531, rel=1e-14)


def test_e_bar_skip_depends_on_model_and_alpha():
    strong, weak = _model(1.0, 1.0), _model(0.0, 0.5)
    assert not e_bar_can_bind(strong, ACC)
    assert e_bar_can_bind(strong, AccuracyParams(alpha=2.0, delta=0.01))
    assert e_bar_can_bind(weak, ACC) and not e_bar_can_bind(_model(0.0, 10.0), ACC)
    # nmin never reads e_bar below |K| = 1 at L = 0 (the all-states bound) or
    # for general couplings (rejected), whatever alpha
    loose = AccuracyParams(alpha=1.01, delta=0.01)
    for model in (_model(0.5, 0.0), _model(0.5, 0.2)):
        assert not e_bar_can_bind(model, ACC) and not e_bar_can_bind(model, loose)
    # the rule is tight: at K = 0, L = 0.5 and alpha = 17 the hot e_bar / alpha
    # passes the edge, though B hypot(1, L) / alpha is only 6% above it
    acc = AccuracyParams(alpha=17.0, delta=0.01)
    edge = -weak.extreme_coefficient - ground_energy_per_site(weak)
    assert mean_energy_per_site(1e-4, weak) / 17.0 > edge and e_bar_can_bind(weak, acc)


@pytest.mark.parametrize("kl", _SKIP_MODELS + [(1.0, 0.0), (2.0, 0.0), (-1.6, 0.0), (1.0, 0.3)])
def test_e_bar_stays_below_the_skip_bound(kl):
    # at beta -> 0 every Fermi factor is 1/2 and e_bar is the mean of omega / 2,
    # within 6% of hypot(1 + |K|, L) at K = 0, L = 0.5; gapped and gapless.
    # On a gapped chain the bound falls below that from beta w_min = 1 on, as
    # the largest value a trapezoid node can take, down to the clip at e^-700
    model = _model(*kl)
    gapped = model.gap_node is None
    beta = np.concatenate([[1e-12, 1e-6, 1e-3, 1.0], np.geomspace(1e-2, 1e4, 57)]
                          + [[1e300, math.inf]] * gapped)
    reach = _e_bar_reach(model, beta)
    e_bar = mean_energy_per_site(beta, model)
    hot = math.hypot(1.0 + abs(model.k_param), model.l_param)
    cold = reach < hot
    assert (e_bar <= hot).all() and (e_bar[~cold] <= reach[~cold]).all()
    assert (e_bar[cold] <= reach[cold]).all()
    assert reach[0] == hot and e_bar[0] > 0.45 * hot
    assert cold.any() == gapped


@pytest.mark.parametrize("kl", [(1e-9, 1e-9), (1e-7, -1e-7), (0.0, 1e-9), (-3e-8, 3e-8)])
def test_weak_coupling_window_edge_keeps_its_digits(kl):
    # e_min - e_0 -> L^2 / 4 as K, L -> 0; -1 - e_0 read 0 at K = L = 1e-9,
    # so the constant condition divided by e_bar / alpha ~ 1e-304 and printed
    # a 302-digit n_cond_const; beta K^2 / (L^2 / 4) is 4000 there
    model = _model(*kl)
    assert _window_edge(model) == pytest.approx(kl[1] ** 2 / 4.0, rel=1e-12)
    if kl == (1e-9, 1e-9):
        assert nmin(1e-3, ACC, model).n_cond_const == 4001


@pytest.mark.parametrize("kl", [(0.5, 0.5), (0.0, 1.0), (0.0, 0.5), (-0.7, 0.7), (0.1, 0.1),
                                (0.999, 0.001)])
def test_window_edge_matches_mpmath(kl):
    import mpmath

    with mpmath.workdps(30):
        k, l = (mpmath.mpf(x) for x in kl)
        omega = lambda q: 2 * mpmath.sqrt((1 - k * mpmath.cos(q)) ** 2 + (l * mpmath.sin(q)) ** 2)
        exact = mpmath.quad(lambda q: omega(q) - 2, [0, mpmath.pi / 2, mpmath.pi]) / (2 * mpmath.pi)
    model = _model(*kl)
    assert _window_edge(model) == pytest.approx(float(exact), rel=1e-13)
    assert _window_edge(model) == pytest.approx(-1.0 - ground_energy_per_site(model), rel=1e-9)


@pytest.mark.parametrize("t,delta", [(1.0, 1e-320), (1e-10, 1e-300), (1.0, 0.01)])
def test_const_width_linearity_bound_is_zero(t, delta):
    # |K| = |L| leaves the width no range, so the bound is +0.0 even where
    # beta / 2 delta overflows; inf * 0 used to make it nan
    acc = AccuracyParams(alpha=10.0, delta=delta)
    for model in (_model(1.0, 1.0), _model(1.5, -1.5)):
        bound = linearity_bound(t, acc, model)
        assert bound == 0.0 and math.copysign(1.0, bound) == 1.0
