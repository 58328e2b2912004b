"""Dense-diagonalization checks of every analytic building block.

Small chains only (up to 10 sites here); everything is compared against
numbers the closed-form package modules produce, or against frozen values
recorded from an independent implementation.
"""
from __future__ import annotations

import functools
import math
import tracemalloc

import numpy as np
import pytest

from localtemp.canonical import AccuracyParams, rho_diag
from localtemp.harmonic import HarmonicModel
from localtemp.ising import IsingModel, delta_sq, group_energy, occupation_patterns
from localtemp.oracle import (
    Boundary,
    _basis_transpose_apply,
    _overlap_sq,
    DenseThermalSystem,
    build_hamiltonian,
    harmonic_mode_check,
    interaction_statistics,
    moments_check,
    occupations_by_energy,
    product_basis,
    product_moments,
    rho_diag_check,
    rho_product_diag,
    skewness_by_groups,
    spectrum_check,
    thermal_state,
)


def _model(k, l, b=1.0):
    return IsingModel.from_kl(b, k, l)


def _system(n_sites, model, beta_b=1.0, boundary=Boundary.OPEN):
    h = build_hamiltonian(n_sites, model, boundary)
    return DenseThermalSystem.solve(h, beta_b / model.b_field)


def test_single_site_hamiltonian():
    h = build_hamiltonian(1, _model(0.5, 0.2, b=3.0))
    assert np.allclose(h, np.diag([-3.0, 3.0]))


def test_build_hamiltonian_size_limits():
    with pytest.raises(ValueError):
        build_hamiltonian(0, _model(0.1, 0.0))
    with pytest.raises(ValueError):
        build_hamiltonian(15, _model(0.1, 0.0))


def test_spectra_match_formula_without_anisotropy():
    # open chains diagonalize exactly onto the half-open momentum grid
    for k_param in (0.3, 1.7):
        model = _model(k_param, 0.0)
        for n in (2, 3, 4):
            dense = np.sort(np.linalg.eigvalsh(build_hamiltonian(n, model)))
            formula = np.sort(group_energy(occupation_patterns(n), model))
            assert float(np.max(np.abs(dense - formula))) <= 1e-10


def test_spectrum_deviation_with_anisotropy():
    # K=0, L=1, n=2: exact levels {+-sqrt(5) B, 0, 0} against the formula's
    # {+-2B, 0, 0}; the boundary pairing term shifts the edges
    model = _model(0.0, 1.0)
    dense = np.sort(np.linalg.eigvalsh(build_hamiltonian(2, model)))
    expected = np.sort([-math.sqrt(5.0), 0.0, 0.0, math.sqrt(5.0)])
    assert np.allclose(dense, expected, atol=1e-12)
    formula = np.sort(group_energy(occupation_patterns(2), model))
    maxdev = float(np.max(np.abs(dense - formula)))
    assert abs(maxdev - (math.sqrt(5.0) - 2.0)) <= 1e-10


def test_interaction_mean_vanishes():
    eps, _ = interaction_statistics(product_basis(6, 2, _model(0.3, 0.0)))
    assert float(np.max(np.abs(eps))) == 0.0


def test_width_decomposes_over_junctions():
    # interaction variance of every product state equals the sum of the
    # per-junction widths evaluated at the matched occupations
    model = _model(0.3, 0.0)
    n, n_groups = 2, 3
    _, dsq = interaction_statistics(product_basis(n * n_groups, n, model))
    occs = occupations_by_energy(model, n)
    dim = 2**n
    worst = 0.0
    for a in range(dim**n_groups):
        states = [occs[(a >> (n * g)) % dim] for g in range(n_groups)]
        formula = sum(
            delta_sq(states[g], states[g + 1], model) for g in range(n_groups - 1)
        )
        worst = max(worst, abs(dsq[a] - formula))
    assert worst <= 1e-10


def test_thermal_state_normalization():
    sys = _system(4, _model(0.5, 0.0), beta_b=2.0)
    log_z, weights = thermal_state(sys)
    assert math.isclose(float(np.sum(weights)), 1.0, rel_tol=1e-12)
    direct = math.log(float(np.sum(np.exp(-sys.beta * sys.eigenvalues))))
    assert math.isclose(log_z, direct, rel_tol=1e-12)


def test_w_a_moment_identities():
    # first two moments of the overlap distribution must reproduce the
    # product-state mean and variance at any coupling
    for k_param, l_param in ((0.0, 0.4), (0.3, 0.0), (1.2, 2.0)):
        model = _model(k_param, l_param)
        sys = _system(6, model, beta_b=1.0)
        pb = product_basis(6, 2, model)
        eps, dsq = interaction_statistics(pb)
        mean, var, _ = product_moments(sys, pb)
        assert np.max(np.abs(mean - (pb.product_energies + eps))) <= 1e-10
        assert np.max(np.abs(var - dsq)) <= 1e-10


def test_skewness_decays_with_group_count():
    # zero-width product states carry no distribution shape and are masked
    rows = skewness_by_groups(10, 5, _model(0.3, 0.0), 1.0)
    assert [(row.n_groups, row.sites) for row in rows] == [
        (2, 4), (3, 6), (4, 8), (5, 10)
    ]
    maxima = [row.max_abs_skewness for row in rows[1:]]
    for worst, target in zip(maxima, (2.0, 1.632993, 1.5)):
        assert math.isclose(worst, target, rel_tol=1e-5)
    assert maxima[0] > maxima[1] > maxima[2]


def test_rho_diag_formula_tracks_dense():
    # per-junction error of the Gaussian-weight formula stays near 5e-3 and
    # decreases as groups are added, while the total grows additively
    model = _model(0.3, 0.0)
    expected = [0.005127, 0.010221, 0.015316, 0.020410]
    per_junction = []
    for n_groups, target in zip(range(2, 6), expected):
        report = rho_diag_check(2 * n_groups, n_groups, model, 1.0)
        assert (report.sites, report.groups) == (2 * n_groups, n_groups)
        assert math.isclose(report.max_abs_log_deviation, target, rel_tol=1e-3)
        assert report.per_junction == report.max_abs_log_deviation / (n_groups - 1)
        per_junction.append(report.per_junction)
    assert all(b < a for a, b in zip(per_junction, per_junction[1:]))


_CHECKS = {
    "moments": moments_check,
    "gaussian": functools.partial(skewness_by_groups, beta=1.0),
    "rho": functools.partial(rho_diag_check, beta=1.0),
}


@pytest.mark.parametrize("n_groups", [0, 3, 9])
@pytest.mark.parametrize("check", sorted(_CHECKS))
def test_checks_reject_groups_that_do_not_divide_the_chain(check, n_groups):
    # 8 // 3 would measure 4 groups of 2 and report 3; 0 and 9 divide by zero
    for l_param in (0.0, 0.2):
        with pytest.raises(ValueError, match=f"cannot split 8 sites into {n_groups} "):
            _CHECKS[check](8, n_groups, _model(0.3, l_param))


def test_rho_diag_check_calls_formula_once(monkeypatch):
    # all product states of nonzero width go through one array rho_diag call
    calls = []

    def counted(stats, beta, log_z):
        calls.append(np.shape(stats.e_a))
        return rho_diag(stats, beta, log_z)

    monkeypatch.setattr("localtemp.oracle.rho_diag", counted)
    report = rho_diag_check(10, 5, _model(0.3, 0.0), 1.0)
    assert len(calls) == 1 and calls[0][0] > 1
    assert 0.0 < report.max_abs_log_deviation < 1.0


def test_rho_product_diag_sums_to_one():
    model = _model(0.4, 0.9)
    sys = _system(6, model, beta_b=0.7)
    pb = product_basis(6, 2, model)
    assert math.isclose(float(np.sum(rho_product_diag(sys, pb))), 1.0, rel_tol=1e-12)


def test_periodic_ground_energy_approaches_integral():
    from localtemp.ising import ground_energy_per_site

    model = _model(0.5, 0.3)
    integral = ground_energy_per_site(model)

    def dev(n):
        h = build_hamiltonian(n, model, Boundary.PERIODIC)
        return abs(float(np.min(np.linalg.eigvalsh(h))) / n - integral)

    assert dev(10) < dev(5)
    assert dev(10) < 5e-3


def test_group_norm_bound():
    for k_param, l_param, n in ((0.3, 0.0, 4), (0.0, 2.0, 3), (1.2, 1.2, 5)):
        model = _model(k_param, l_param)
        h = build_hamiltonian(n, model)
        norm = float(np.max(np.abs(np.linalg.eigvalsh(h))))
        assert norm <= n * 1.0 * (1.0 + abs(k_param) + abs(l_param)) + 1e-12


def test_product_basis_validation():
    with pytest.raises(ValueError):
        product_basis(6, 4, _model(0.3, 0.0))


def test_dense_system_rejects_nonsymmetric():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        DenseThermalSystem.solve(bad, 1.0)
    with pytest.raises(ValueError):
        DenseThermalSystem.solve(np.zeros((2, 2)), -1.0)


def test_occupations_by_energy_ordering():
    model = _model(0.3, 0.0)
    occs = occupations_by_energy(model, 3)
    energies = group_energy(occs, model)
    assert energies.tolist() == sorted(energies)
    assert occs[0].tolist() == [0, 0, 0]
    assert occs[-1].tolist() == [1, 1, 1]
    # uncoupled chain is fully degenerate
    with pytest.raises(ValueError):
        occupations_by_energy(_model(0.0, 0.0), 2)


def test_harmonic_mode_check_values():
    model = HarmonicModel(theta=2.0, a0=1.0)
    for n in (1, 3, 64):
        assert harmonic_mode_check(n, model) <= 1e-10
    # n=3 closed form: eigenvalues {2 - sqrt2, 2, 2 + sqrt2} times omega0^2
    w2 = np.array([2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)])
    l = np.arange(1, 4)
    assert np.allclose(4.0 * np.sin(math.pi * l / 8.0) ** 2, w2, atol=1e-12)
    with pytest.raises(ValueError):
        harmonic_mode_check(65, model)


def test_harmonic_mode_check_scales_with_frequency():
    model = HarmonicModel(theta=5.0, a0=1.0)
    assert harmonic_mode_check(16, model) <= 1e-10 * 2.5**2


# ---------------------------------------------------------------------------
# Kronecker-product reference: every operator embedded site by site


_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_IY = np.array([[0.0, 1.0], [-1.0, 0.0]])  # i sigma^y


def _site_op(op, j, n):
    return np.kron(np.eye(2 ** (n - 1 - j)), np.kron(op, np.eye(2**j)))


def _reference_hamiltonian(n, model, boundary=Boundary.OPEN):
    bonds = [(i, i + 1) for i in range(n - 1)]
    if boundary is Boundary.PERIODIC and n > 1:
        bonds.append((n - 1, 0))
    h = -model.b_field * sum(_site_op(_SZ, j, n) for j in range(n))
    for i, j in bonds:
        xx = _site_op(_SX, i, n) @ _site_op(_SX, j, n)
        yy = -(_site_op(_IY, i, n) @ _site_op(_IY, j, n))
        h = h - 0.5 * model.jx * xx - 0.5 * model.jy * yy
    return h


def _kron_power(pb):
    # the explicit product basis, group 0 on the low index bits
    return functools.reduce(np.kron, [pb.group_vecs] * pb.n_groups)


def _reference_interaction(n_sites, group_size, model, boundary=Boundary.OPEN):
    # the explicit product basis and H - H_0 in it, with H_0 the Kronecker
    # sum of the open group Hamiltonians
    n_groups = n_sites // group_size
    h_group = _reference_hamiltonian(group_size, model)
    h0 = sum(
        np.kron(
            np.eye(2 ** (group_size * (n_groups - 1 - g))),
            np.kron(h_group, np.eye(2 ** (group_size * g))),
        )
        for g in range(n_groups)
    )
    basis = _kron_power(product_basis(n_sites, group_size, model))
    h = _reference_hamiltonian(n_sites, model, boundary)
    return basis, basis.T @ (h - h0) @ basis


_COUPLINGS = ((0.3, 0.0), (1.2, 2.0), (0.0, 0.5), (-0.7, 0.7))


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("k_param, l_param", _COUPLINGS)
def test_build_hamiltonian_matches_kronecker_reference(boundary, k_param, l_param):
    model = _model(k_param, l_param)
    for n in range(1, 7):
        dev = build_hamiltonian(n, model, boundary) - _reference_hamiltonian(
            n, model, boundary
        )
        assert np.max(np.abs(dev)) <= 1e-14


@pytest.mark.parametrize("boundary", [Boundary.OPEN])
@pytest.mark.parametrize("k_param, l_param", _COUPLINGS)
def test_interaction_is_full_minus_decoupled_hamiltonian(boundary, k_param, l_param):
    # junction bonds alone must equal H - H_0 with H_0 the Kronecker sum of
    # the open group Hamiltonians, and the group-by-group rotation must
    # match the explicit Kronecker power. Group sizes 1-4
    model = _model(k_param, l_param)
    rng = np.random.default_rng(7)
    partitions = ((4, 2), (6, 3), (6, 2), (3, 3), (2, 1), (4, 1), (8, 4), (8, 2))
    for n_sites, group_size in partitions:
        pb = product_basis(n_sites, group_size, model)
        basis, reference = _reference_interaction(n_sites, group_size, model, boundary)
        assert np.max(np.abs(pb.interaction_matrix - reference)) <= 1e-13
        x = rng.standard_normal((2**n_sites, 5))
        assert np.max(np.abs(_basis_transpose_apply(pb, x) - basis.T @ x)) <= 1e-13


def _reference_junctions(n_sites, group_size, model, boundary):
    # one dense operator per junction bond, junction v after group v
    n_groups = n_sites // group_size
    ends = [(v + 1) * group_size for v in range(n_groups - 1)]
    bonds = [(end - 1, end) for end in ends]
    if boundary is Boundary.PERIODIC and n_sites > 1:
        bonds.append((n_sites - 1, 0))
    return [
        -0.5 * model.jx * (_site_op(_SX, i, n_sites) @ _site_op(_SX, j, n_sites))
        + 0.5 * model.jy * (_site_op(_IY, i, n_sites) @ _site_op(_IY, j, n_sites))
        for i, j in bonds
    ]


def _worst_adjacent_covariance(n_sites, group_size, model, boundary):
    # max over product states a and neighbouring junctions of
    # |<a|J_v J_v+1|a> - <a|J_v|a><a|J_v+1|a>|, from the Kronecker reference
    basis = _kron_power(product_basis(n_sites, group_size, model))
    ops = [
        basis.T @ op @ basis
        for op in _reference_junctions(n_sites, group_size, model, boundary)
    ]
    worst = 0.0
    for left, right in zip(ops, ops[1:]):
        cov = np.einsum("ab,ba->a", left, right) - np.diag(left) * np.diag(right)
        worst = max(worst, float(np.max(np.abs(cov))))
    return worst


def test_adjacent_junction_covariance_vanishes():
    for k_param, l_param in ((0.3, 0.0), (0.0, 0.7), (0.4, 0.9)):
        model = _model(k_param, l_param)
        assert _worst_adjacent_covariance(6, 2, model, Boundary.OPEN) == 0.0


@pytest.mark.parametrize(
    "n_sites, group_size, boundary",
    [(6, 2, Boundary.OPEN), (6, 1, Boundary.OPEN), (8, 2, Boundary.OPEN),
     (6, 2, Boundary.PERIODIC), (4, 2, Boundary.PERIODIC)],
)
def test_junction_covariance_matches_kronecker_reference(n_sites, group_size, boundary):
    # the width sum Delta_a^2 = sum_mu Delta_mu^2 needs neighbouring junction
    # operators uncorrelated in every product state a. They are, exactly,
    # except on a two-group ring, where both junctions join the same pair
    for k_param, l_param in _COUPLINGS + ((0.4, 0.9),):
        model = _model(k_param, l_param)
        worst = _worst_adjacent_covariance(n_sites, group_size, model, boundary)
        if boundary is Boundary.OPEN or n_sites // group_size > 2:
            assert worst == 0.0
        elif l_param == 0.0:
            assert worst > 1e-2


@pytest.mark.parametrize("k_param, l_param", _COUPLINGS)
def test_w_a_distribution_matches_kronecker_reference(k_param, l_param):
    # the weights |<a|phi>|^2 that every w_a moment and rho_aa are summed from
    model = _model(k_param, l_param)
    sys = _system(6, model)
    pb = product_basis(6, 2, model)
    probs = (_kron_power(pb).T @ sys.eigenvectors) ** 2
    got = _overlap_sq(sys, pb)
    assert np.max(np.abs(got - probs)) <= 1e-13
    assert np.max(np.abs(got.sum(axis=1) - 1.0)) <= 1e-12


def test_product_moments_match_per_state_distribution():
    # every product state's w_a, mean and width from the explicit Kronecker
    # basis; skewness is compared only where the width is above roundoff, as
    # the oracle commands do: a point distribution's skewness is noise / noise
    for k_param, l_param in _COUPLINGS:
        model = _model(k_param, l_param)
        sys = _system(6, model, beta_b=1.0)
        pb = product_basis(6, 2, model)
        basis, inter = _reference_interaction(6, 2, model)
        probs = (basis.T @ sys.eigenvectors) ** 2
        ref_mean = probs @ sys.eigenvalues
        dev = sys.eigenvalues - ref_mean[:, None]
        ref_var = np.sum(probs * dev**2, axis=1)
        mean, var, skew = product_moments(sys, pb)
        assert np.max(np.abs(mean - ref_mean)) <= 1e-10
        assert np.max(np.abs(var - ref_var)) <= 1e-10
        wide = ref_var >= 1e-12
        ref_skew = np.sum(probs * dev**3, axis=1)[wide] / ref_var[wide] ** 1.5
        assert np.max(np.abs(skew[wide] - ref_skew)) <= 1e-10
        ref_eps = np.diag(inter)
        eps, dsq = interaction_statistics(pb)
        assert np.max(np.abs(eps - ref_eps)) <= 1e-14
        assert np.max(np.abs(dsq - (np.sum(inter**2, axis=1) - ref_eps**2))) <= 1e-14


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("k_param, l_param", _COUPLINGS + ((0.0, 0.0), (0.6, 0.6)))
def test_parity_blocked_solve_matches_full_spectrum(boundary, k_param, l_param):
    # K = L = 0 and K = +-L put equal eigenvalues in different sectors; the
    # thermal projector is unique even where the eigenvectors are not
    model = _model(k_param, l_param)
    for n in range(1, 10):
        h = build_hamiltonian(n, model, boundary)
        sys = DenseThermalSystem.solve(h, 1.0)
        vals, vecs = np.linalg.eigh(h)
        assert np.all(np.diff(sys.eigenvalues) >= 0.0)
        assert np.max(np.abs(sys.eigenvalues - vals)) <= 1e-12
        got = (sys.eigenvectors * np.exp(-sys.eigenvalues)) @ sys.eigenvectors.T
        ref = (vecs * np.exp(-vals)) @ vecs.T
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        v = sys.eigenvectors
        assert np.max(np.abs(v.T @ v - np.eye(2**n))) <= 1e-12


def test_solve_rejects_reflection_breaking_field():
    # a field on site 0 alone keeps the parity but breaks j -> n - 1 - j
    h = build_hamiltonian(4, _model(0.3, 0.2))
    idx = np.arange(16)
    h[idx, idx] += np.where(idx & 1, 0.25, -0.25)
    with pytest.raises(ValueError, match="reflection"):
        DenseThermalSystem.solve(h, 1.0)


def test_sector_eigh_sizes_at_ten_sites(monkeypatch):
    # a (parity, reflection) sector holds the mirror pairs of a parity block
    # and at most all its palindromes: 240 + 32 at 10 sites, below 2^n / 4 +
    # 2^(n/2), where a parity block holds 512
    shapes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def record(a, *args, _original=original, **kwargs):
            shapes.append(a.shape[0])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    model = _model(0.3, 0.2)
    DenseThermalSystem.solve(build_hamiltonian(10, model), 1.0)
    for boundary in Boundary:
        spectrum_check(10, model, boundary)
    assert len(shapes) == 12
    assert max(shapes) <= 2**10 // 4 + 2**5


def test_solve_rejects_cross_parity_entries():
    h = build_hamiltonian(3, _model(0.3, 0.2))
    h[0, 1] = h[1, 0] = 0.25  # index 0 is even, index 1 odd
    with pytest.raises(ValueError, match="parity"):
        DenseThermalSystem.solve(h, 1.0)


def test_dense_system_rejects_non_finite_beta():
    h = build_hamiltonian(2, _model(0.3, 0.0))
    for beta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="beta"):
            DenseThermalSystem.solve(h, beta)


def test_dense_system_checks_each_parity_block():
    # a field-free site: any rotation of its two zero levels is an
    # eigenbasis, but only a parity-pure one is accepted
    h = np.zeros((2, 2))
    DenseThermalSystem(1, h, np.zeros(2), np.eye(2), 1.0)
    rotation = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    with pytest.raises(ValueError, match="eigenvector mixes"):
        DenseThermalSystem(1, h, np.zeros(2), rotation, 1.0)
    # an element between the blocks is rejected even with the exact eigh
    mixing = np.array([[0.0, 1.0], [1.0, 0.0]])
    vals, vecs = np.linalg.eigh(mixing)
    with pytest.raises(ValueError, match="hamiltonian mixes"):
        DenseThermalSystem(1, mixing, vals, vecs, 1.0)
    # each block must be symmetric
    skew = np.zeros((4, 4))
    skew[0, 3] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        DenseThermalSystem(2, skew, np.zeros(4), np.eye(4), 1.0)
    # a wrong eigenvalue still fails the per-block residual
    field = np.diag([-1.0, 1.0])
    with pytest.raises(ValueError, match="residual too large"):
        DenseThermalSystem(1, field, np.array([-1.0, 2.0]), np.eye(2), 1.0)


def test_dense_system_rejects_non_unit_eigenvectors():
    # the residual cannot see scale, so a scaled or zero eigenvector matrix
    # passes it; the norm check must catch both
    field = np.diag([-1.0, 1.0])
    for vecs in (2.0 * np.eye(2), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="unit norm"):
            DenseThermalSystem(1, field, np.array([-1.0, 1.0]), vecs, 1.0)


def test_thermal_state_log_z_at_large_beta():
    # beta * |E| ~ 1e3: exp(-beta E) overflows a double, log Z must not
    sys = _system(4, _model(0.5, 0.0), beta_b=300.0)
    e_min = float(np.min(sys.eigenvalues))
    assert sys.beta * abs(e_min) > 500.0
    log_z, weights = thermal_state(sys)
    assert math.isfinite(log_z)
    assert -sys.beta * e_min <= log_z <= -sys.beta * e_min + math.log(16)
    assert math.isclose(float(np.sum(weights)), 1.0, rel_tol=1e-12)
    # small beta: agrees with the plain sum
    sys = _system(4, _model(0.5, 0.0), beta_b=0.01)
    log_z, _ = thermal_state(sys)
    direct = math.log(math.fsum(math.exp(-sys.beta * e) for e in sys.eigenvalues))
    assert math.isclose(log_z, direct, rel_tol=1e-14)


@pytest.mark.parametrize("n_groups", [2, 5])
def test_peak_memory_in_dense_arrays(n_groups):
    # tracemalloc sees numpy's allocations. Peaks are counted in dim x dim
    # float64 arrays at 10 sites; the 0.1 margin covers the length-dim
    # vectors. A formed 2^n x 2^n product basis adds one array to each
    model = _model(0.3, 0.0)
    unit = 8 * 4**10
    calls = (
        (product_basis, (10, 10 // n_groups, model), 2),
        (rho_diag_check, (10, n_groups, model, 1.0), 4),
        (skewness_by_groups, (10, n_groups, model, 1.0), 4),
    )
    for fn, args, limit in calls:
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / unit <= limit + 0.1, fn.__name__
