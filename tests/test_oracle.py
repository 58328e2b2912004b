"""Dense-diagonalization checks of every analytic building block.

Small chains only (up to 10 sites here, and 400-site rings where no dense
matrix is formed); everything is compared against numbers the closed-form
package modules produce, or against frozen values recorded from an
independent implementation.
"""
from __future__ import annotations

import functools
import math
import tracemalloc

import numpy as np
import pytest

from localtemp.canonical import rho_diag
from localtemp.ising import (
    IsingModel,
    delta_sq,
    ground_energy_per_site,
    group_energy,
    occupation_patterns,
)
from localtemp.oracle import (
    _basis_transpose_apply,
    _overlap_blocks,
    _w_a_moments,
    DenseThermalSystem,
    build_hamiltonian,
    interaction_statistics,
    moments_check,
    occupations_by_energy,
    product_basis,
    rho_diag_check,
    rho_product_diag,
    skewness_by_groups,
    spectrum_check,
    thermal_state,
)
from localtemp.quadratic import _fock_modes, periodic_ground_energy, product_cumulants


def _model(k, l):
    return IsingModel(k, l)


def _system(n_sites, model):
    return DenseThermalSystem.solve(build_hamiltonian(n_sites, model))


def test_single_site_hamiltonian():
    # -sigma^z in units of B, whatever the couplings
    h = build_hamiltonian(1, _model(0.5, 0.2))
    assert np.array_equal(h, np.diag([-1.0, 1.0]))


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
    sys = _system(4, _model(0.5, 0.0))
    log_z, weights = thermal_state(sys, 2.0)
    assert math.isclose(float(np.sum(weights)), 1.0, rel_tol=1e-12)
    direct = math.log(float(np.sum(np.exp(-2.0 * sys.eigenvalues))))
    assert math.isclose(log_z, direct, rel_tol=1e-12)


def test_w_a_moment_identities():
    # the first two moments of w_a, read off H in the product basis, must
    # reproduce the product-state mean and variance at any coupling
    for k_param, l_param in ((0.0, 0.4), (0.3, 0.0), (1.2, 2.0)):
        model = _model(k_param, l_param)
        pb = product_basis(6, 2, model)
        eps, dsq = interaction_statistics(pb)
        mean, var = _w_a_moments(6, model, pb)
        assert np.max(np.abs(mean - (pb.product_energies + eps))) <= 1e-10
        assert np.max(np.abs(var - dsq)) <= 1e-10


def test_skewness_decays_with_group_count():
    # zero-width product states carry no distribution shape and are masked
    rows = skewness_by_groups(10, 5, _model(0.3, 0.0))
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
    "gaussian": skewness_by_groups,
    "rho": functools.partial(rho_diag_check, beta=1.0),
}


@pytest.mark.parametrize("n_groups", [0, 3, 9])
@pytest.mark.parametrize("check", sorted(_CHECKS))
def test_checks_reject_groups_that_do_not_divide_the_chain(check, n_groups):
    # 8 // 3 would measure 4 groups of 2 and report 3; 0 and 9 divide by zero
    for l_param in (0.0, 0.2):
        with pytest.raises(ValueError, match=f"cannot split 8 sites into {n_groups} "):
            _CHECKS[check](8, n_groups, _model(0.3, l_param))


@pytest.mark.parametrize("n_sites, n_groups", [(16, 4), (52, 2)])
@pytest.mark.parametrize("check", sorted(_CHECKS))
def test_checks_reject_too_many_sites_before_any_array(monkeypatch, check, n_sites, n_groups):
    # the site limit comes first: at 52 sites the occupation table of one
    # 26-site group alone would take 13 GiB
    def refuse(*args):
        pytest.fail("an array was built before the site limit was checked")

    for name in ("occupations_by_energy", "product_basis", "product_cumulants"):
        monkeypatch.setattr(f"localtemp.oracle.{name}", refuse)
    with pytest.raises(ValueError, match="n_sites must be between 1 and 12"):
        _CHECKS[check](n_sites, n_groups, _model(0.3, 0.0))


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
    sys = _system(6, model)
    pb = product_basis(6, 2, model)
    weights = thermal_state(sys, 0.7)[1]
    assert math.isclose(float(np.sum(rho_product_diag(sys, pb, weights))), 1.0, rel_tol=1e-12)


def test_periodic_ground_energy_approaches_integral():
    model = _model(0.5, 0.3)
    integral = ground_energy_per_site(model)

    def dev(n):
        h = _reference_hamiltonian(n, model, "periodic")
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
        DenseThermalSystem.solve(bad)
    with pytest.raises(ValueError, match="square"):
        DenseThermalSystem.solve(np.zeros((4, 5)))
    # parity-pure and reflection-symmetric, but not symmetric: eigh reads one
    # triangle, and the residual against the whole sector sees the other
    h = build_hamiltonian(4, _model(0.3, 0.2))
    for i, j in ((3, 5), (12, 10)):  # two even pairs, mirrors of each other
        h[i, j] += 1e-3
        h[j, i] -= 1e-3
    with pytest.raises(ValueError, match="residual too large"):
        DenseThermalSystem.solve(h)


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


# ---------------------------------------------------------------------------
# Kronecker-product reference: every operator embedded site by site


_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_IY = np.array([[0.0, 1.0], [-1.0, 0.0]])  # i sigma^y


def _site_op(op, j, n):
    return np.kron(np.eye(2 ** (n - 1 - j)), np.kron(op, np.eye(2**j)))


@functools.cache
def _reference_terms(n, boundary):
    # sum_j sz_j, and sum sx_i sx_j and sum sy_i sy_j over the bonds
    bonds = [(i, i + 1) for i in range(n - 1)]
    if boundary == "periodic" and n > 1:
        bonds.append((n - 1, 0))
    field = sum(_site_op(_SZ, j, n) for j in range(n))
    xx, yy = np.zeros((2**n, 2**n)), np.zeros((2**n, 2**n))
    for i, j in bonds:
        xx += _site_op(_SX, i, n) @ _site_op(_SX, j, n)
        yy -= _site_op(_IY, i, n) @ _site_op(_IY, j, n)
    return field, xx, yy


def _reference_hamiltonian(n, model, boundary="open"):
    field, xx, yy = _reference_terms(n, boundary)
    return -field - 0.5 * model.jx * xx - 0.5 * model.jy * yy


def _kron_power(pb):
    # the explicit product basis, group 0 on the low index bits
    return functools.reduce(np.kron, [pb.group_vecs] * pb.n_groups)


def _reference_interaction(n_sites, group_size, model, boundary="open"):
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
# a boundary string keeps the test id it had as a member of an enum
_BOUNDARY_IDS = {"open": "Boundary.OPEN", "periodic": "Boundary.PERIODIC"}.get


@pytest.mark.parametrize("boundary", ["open"], ids=_BOUNDARY_IDS)
@pytest.mark.parametrize("k_param, l_param", _COUPLINGS)
def test_build_hamiltonian_matches_kronecker_reference(boundary, k_param, l_param):
    model = _model(k_param, l_param)
    for n in range(1, 7):
        dev = build_hamiltonian(n, model) - _reference_hamiltonian(n, model, boundary)
        assert np.max(np.abs(dev)) <= 1e-14


# the couplings of _COUPLINGS, no coupling at all, both signs of the critical
# and of a strong isotropic chain (where the two parity sectors compete), and
# K = +-L and a fully anisotropic pair
_RING_COUPLINGS = _COUPLINGS + (
    (0.0, 0.0), (1.0, 0.0), (1.6, 0.0), (-1.6, 0.0), (1.2, 1.2), (0.5, -1.2)
)


@pytest.mark.parametrize("k_param, l_param", _RING_COUPLINGS)
def test_periodic_ground_energy_matches_kronecker_reference(k_param, l_param):
    # the lower of the two parity sectors, each with its own fermion boundary
    # condition, is the ground level of the ring's 2^n x 2^n Hamiltonian
    model = _model(k_param, l_param)
    for n in range(1, 11):
        ring = _reference_hamiltonian(n, model, "periodic")
        dense = np.linalg.eigvalsh(ring)
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert abs(periodic_ground_energy(n, model) - dense[0]) <= 1e-12 * scale


@pytest.mark.parametrize(
    "k_param, l_param, bound",
    [(1.6, 0.0, (1.0 + 1.6) / 400**2), (0.3, 0.0, 1e-12), (0.5, 0.3, 1e-12)],
    ids=["gapless", "gapped-isotropic", "gapped-anisotropic"],
)
def test_periodic_spectrum_at_four_hundred_sites(k_param, l_param, bound):
    # a gapless ring is within (1 + |K| + |L|) / N^2 of the infinite chain,
    # and a gapped one within roundoff
    model = _model(k_param, l_param)
    report = spectrum_check(400, model, "periodic")
    assert report.ground_per_site_integral == ground_energy_per_site(model)
    assert report.deviation <= bound
    with pytest.raises(ValueError, match="between 1 and 400"):
        spectrum_check(401, model, "periodic")


@pytest.mark.parametrize("boundary", ["Open", "PERIODIC", "ring", ""])
def test_spectrum_check_rejects_an_unknown_boundary(boundary):
    with pytest.raises(ValueError, match="boundary must be 'open' or 'periodic'"):
        spectrum_check(4, _model(0.3, 0.2), boundary)


@pytest.mark.parametrize("boundary", ["open"], ids=_BOUNDARY_IDS)
@pytest.mark.parametrize("k_param, l_param", _COUPLINGS)
def test_interaction_is_full_minus_decoupled_hamiltonian(boundary, k_param, l_param):
    # the junction sums must give the diagonal and the squared off-diagonal
    # row norms of H - H_0, with H_0 the Kronecker sum of the open group
    # Hamiltonians, and the group-by-group rotation must match the explicit
    # Kronecker power. Group sizes 1-5; at L = 0, groups of 4 and 5 sites
    # have degenerate levels, where eigh may mix parities and the term of two
    # junctions sharing a group is nonzero; (4, 4) is one group alone
    model = _model(k_param, l_param)
    rng = np.random.default_rng(7)
    partitions = (
        (4, 2), (6, 3), (6, 2), (3, 3), (2, 1), (4, 1), (8, 4), (8, 2), (10, 5), (4, 4)
    )
    for n_sites, group_size in partitions:
        pb = product_basis(n_sites, group_size, model)
        basis, reference = _reference_interaction(n_sites, group_size, model, boundary)
        eps, dsq = interaction_statistics(pb)
        ref_eps = np.diag(reference).copy()
        np.fill_diagonal(reference, 0.0)
        assert np.max(np.abs(eps - ref_eps)) <= 1e-13
        assert np.max(np.abs(dsq - np.einsum("ab,ab->a", reference, reference))) <= 1e-13
        x = rng.standard_normal((2**n_sites, 5))
        assert np.max(np.abs(_basis_transpose_apply(pb, x) - basis.T @ x)) <= 1e-13


def _reference_junctions(n_sites, group_size, model, boundary):
    # one dense operator per junction bond, junction v after group v
    n_groups = n_sites // group_size
    ends = [(v + 1) * group_size for v in range(n_groups - 1)]
    bonds = [(end - 1, end) for end in ends]
    if boundary == "periodic" and n_sites > 1:
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
        assert _worst_adjacent_covariance(6, 2, model, "open") == 0.0


@pytest.mark.parametrize(
    "n_sites, group_size, boundary",
    [(6, 2, "open"), (6, 1, "open"), (8, 2, "open"),
     (6, 2, "periodic"), (4, 2, "periodic")],
    ids=_BOUNDARY_IDS,
)
def test_junction_covariance_matches_kronecker_reference(n_sites, group_size, boundary):
    # the width sum Delta_a^2 = sum_mu Delta_mu^2 needs neighbouring junction
    # operators uncorrelated in every product state a. They are, exactly,
    # except on a two-group ring, where both junctions join the same pair
    for k_param, l_param in _COUPLINGS + ((0.4, 0.9),):
        model = _model(k_param, l_param)
        worst = _worst_adjacent_covariance(n_sites, group_size, model, boundary)
        if boundary == "open" or n_sites // group_size > 2:
            assert worst == 0.0
        elif l_param == 0.0:
            assert worst > 1e-2


@pytest.mark.parametrize("k_param, l_param", _COUPLINGS)
def test_w_a_distribution_matches_kronecker_reference(k_param, l_param):
    # the weights |<a|phi>|^2 that every w_a moment and rho_aa are summed
    # from, at 8 sites, where they come in two blocks of eigenvector columns
    model = _model(k_param, l_param)
    sys = _system(8, model)
    pb = product_basis(8, 2, model)
    probs = (_kron_power(pb).T @ sys.eigenvectors) ** 2
    # every column exactly once, block by block
    got = np.full_like(probs, np.nan)
    for cols, block in _overlap_blocks(sys, pb):
        assert block.shape[1] < probs.shape[1]
        assert np.all(np.isnan(got[:, cols]))
        got[:, cols] = block
    assert np.max(np.abs(got - probs)) <= 1e-13
    assert np.max(np.abs(got.sum(axis=1) - 1.0)) <= 1e-12


_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def _majoranas(n):
    # a_2j = S_j sx_j and a_2j+1 = S_j sy_j, with the string S_j = prod_{l<j} sz_l
    ops, string = [], np.eye(2**n)
    for j in range(n):
        ops += [string @ _site_op(_SX, j, n), string @ _site_op(_SY, j, n)]
        string = string @ _site_op(_SZ, j, n)
    return np.array(ops)


def _even_odd(block):
    # the antisymmetric 2n x 2n matrix whose even-odd block is block, 0 elsewhere
    a = np.zeros((2 * len(block), 2 * len(block)))
    a[0::2, 1::2] = block
    return a - a.T


def _fock_states(group_size, model):
    # column p is the group state with mode k occupied where bit k of p is
    # set: the joint eigenvector of the occupations n_k = (1 + (i/2) a^T G_k a) / 2
    a = _majoranas(group_size)
    one = np.eye(2**group_size)
    u, _, v = _fock_modes(group_size, model)
    label = sum(
        2**k * 0.5 * (one + 0.5j * np.einsum("ij,iab,jbc->ac", g, a, a))
        for k, g in enumerate(map(_even_odd, np.einsum("ik,jk->kij", u, v)))
    )
    values, states = np.linalg.eigh(label)
    assert np.max(np.abs(values - np.arange(2**group_size))) <= 1e-10
    return states


def _fock_reference_moments(n_sites, group_size, model):
    # mean, variance and third central moment of w_a for every product of
    # group Fock states, from the explicit Kronecker basis and a full eigh
    states = _fock_states(group_size, model)
    basis = functools.reduce(np.kron, [states] * (n_sites // group_size))
    vals, vecs = np.linalg.eigh(_reference_hamiltonian(n_sites, model))
    probs = np.abs(basis.conj().T @ vecs) ** 2
    mean = probs @ vals
    dev = vals - mean[:, None]
    return mean, np.sum(probs * dev**2, axis=1), np.sum(probs * dev**3, axis=1)


def test_product_moments_match_per_state_distribution():
    # every product state's w_a mean and width against the spectral sums
    # sum_phi |<a|phi>|^2 E_phi^k, from the explicit Kronecker basis and a
    # full eigh. The skewness of the free-fermion cumulants is pinned against
    # the products of group Fock states, compared only where the width is
    # above roundoff, as the oracle commands do: a point distribution's
    # skewness is noise / noise
    for k_param, l_param in _COUPLINGS:
        model = _model(k_param, l_param)
        pb = product_basis(6, 2, model)
        basis, inter = _reference_interaction(6, 2, model)
        vals, vecs = np.linalg.eigh(_reference_hamiltonian(6, model))
        probs = (basis.T @ vecs) ** 2
        ref_mean = probs @ vals
        ref_var = probs @ vals**2 - ref_mean**2
        mean, var = _w_a_moments(6, model, pb)
        assert np.max(np.abs(mean - ref_mean)) <= 1e-10
        assert np.max(np.abs(var - ref_var)) <= 1e-10
        _, fock_var, fock_m3 = _fock_reference_moments(6, 2, model)
        _, k2, k3 = product_cumulants(3, 2, model)[1][-1]
        wide = fock_var >= 1e-12
        ref_skew = fock_m3[wide] / fock_var[wide] ** 1.5
        assert np.max(np.abs(k3[wide] / k2[wide] ** 1.5 - ref_skew)) <= 1e-10
        ref_eps = np.diag(inter)
        eps, dsq = interaction_statistics(pb)
        assert np.max(np.abs(eps - ref_eps)) <= 1e-14
        assert np.max(np.abs(dsq - (np.sum(inter**2, axis=1) - ref_eps**2))) <= 1e-14


@pytest.mark.parametrize("boundary", ["open", "periodic"], ids=_BOUNDARY_IDS)
@pytest.mark.parametrize("k_param, l_param", _COUPLINGS + ((0.0, 0.0), (0.6, 0.6)))
def test_parity_blocked_solve_matches_full_spectrum(boundary, k_param, l_param):
    # K = L = 0 and K = +-L put equal eigenvalues in different sectors; the
    # thermal projector is unique even where the eigenvectors are not
    model = _model(k_param, l_param)
    for n in range(1, 11):
        if boundary == "open":
            h = build_hamiltonian(n, model)
        else:
            h = _reference_hamiltonian(n, model, boundary)
        sys = DenseThermalSystem.solve(h)
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
        DenseThermalSystem.solve(h)


def _record_eigh_sizes(monkeypatch):
    # the dimension of every np.linalg.eigh, eigvalsh and svd call from now on
    shapes = []
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def record(a, *args, _original=original, **kwargs):
            shapes.append(a.shape[0])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    return shapes


def test_sector_eigh_sizes_at_ten_sites(monkeypatch):
    # a (parity, reflection) sector holds the mirror pairs of a parity block
    # and at most all its palindromes: 240 + 32 at 10 sites, below 2^n / 4 +
    # 2^(n/2), where a parity block holds 512
    shapes = _record_eigh_sizes(monkeypatch)
    model = _model(0.3, 0.2)
    DenseThermalSystem.solve(build_hamiltonian(10, model))
    for boundary in ("open", "periodic"):
        spectrum_check(10, model, boundary)
    # the open spectrum takes one svd of the 10 x 10 chiral block, and the
    # periodic one an svd of each ring's block
    sector_sized = [size for size in shapes if size > 2 * 10]
    assert len(sector_sized) == 4
    assert max(shapes) <= 2**10 // 4 + 2**5
    assert shapes[4:] == [10, 10, 10]


@pytest.mark.parametrize("k_param, l_param", [(0.3, 0.0), (0.3, 0.2)])
def test_moments_diagonalize_only_a_group(monkeypatch, k_param, l_param):
    # moments rotates H into the product basis: the one eigensolver call is
    # the group Hamiltonian's, never a chain or sector matrix
    shapes = _record_eigh_sizes(monkeypatch)
    for n_sites, n_groups in ((10, 5), (9, 3)):
        shapes.clear()
        moments_check(n_sites, n_groups, _model(k_param, l_param))
        assert shapes and max(shapes) <= 2 ** (n_sites // n_groups)


def test_solve_rejects_cross_parity_entries():
    h = build_hamiltonian(3, _model(0.3, 0.2))
    h[0, 1] = h[1, 0] = 0.25  # index 0 is even, index 1 odd
    # sigma^x on one site flips one bit, so a field mixes the parities; on
    # every site alike it keeps j -> n - 1 - j, so only the parity check sees it
    field = build_hamiltonian(4, _model(0.3, 0.2))
    idx = np.arange(16)
    for j in range(4):
        field[idx ^ (1 << j), idx] += 0.25
    for bad in (h, field):
        with pytest.raises(ValueError, match="^hamiltonian mixes the fermion-parity sectors$"):
            DenseThermalSystem.solve(bad)


def test_thermal_state_rejects_non_finite_or_negative_beta():
    sys = _system(2, _model(0.3, 0.0))
    for beta in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match="^beta must be finite and nonnegative"):
            thermal_state(sys, beta)
    assert thermal_state(sys, 0.0)[0] == math.log(4.0)


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda vals, vecs: (vals + 0.5, vecs), "residual too large"),
        (lambda vals, vecs: (vals, 2.0 * vecs), "unit norm"),
    ],
)
def test_each_eigh_is_checked_where_it_is_computed(monkeypatch, spoil, message):
    # a wrong eigenvalue fails the residual; a scaled eigenvector passes the
    # residual, so the norm check must catch it, for the sector and the group
    # eigh alike
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: spoil(*original(a)))
    model = _model(0.3, 0.2)
    with pytest.raises(ValueError, match=message):
        DenseThermalSystem.solve(build_hamiltonian(4, model))
    with pytest.raises(ValueError, match=message):
        product_basis(4, 2, model)


def test_thermal_state_log_z_at_large_beta():
    # beta * |E| ~ 1e3: exp(-beta E) overflows a double, log Z must not
    sys = _system(4, _model(0.5, 0.0))
    beta = 300.0
    e_min = float(np.min(sys.eigenvalues))
    assert beta * abs(e_min) > 500.0
    log_z, weights = thermal_state(sys, beta)
    assert math.isfinite(log_z)
    assert -beta * e_min <= log_z <= -beta * e_min + math.log(16)
    assert math.isclose(float(np.sum(weights)), 1.0, rel_tol=1e-12)
    # small beta: agrees with the plain sum
    log_z, _ = thermal_state(sys, 0.01)
    direct = math.log(math.fsum(math.exp(-0.01 * e) for e in sys.eigenvalues))
    assert math.isclose(log_z, direct, rel_tol=1e-14)


@pytest.mark.parametrize("n_groups", [2, 5])
def test_peak_memory_in_dense_arrays(n_groups):
    # tracemalloc sees numpy's allocations. Peaks are counted in dim x dim
    # float64 arrays at 10 sites; the 0.1 margin covers the length-dim
    # vectors. rho holds H and its eigenvectors, moments H and H_p, each
    # with blocked temporaries; any further dim x dim array fails
    model = _model(0.3, 0.0)
    unit = 8 * 4**10
    calls = [
        (product_basis, (10, 10 // n_groups, model), 0.1),
        (rho_diag_check, (10, n_groups, model, 1.0), 2.5),
    ]
    if n_groups == 5:  # 2 groups of 5 sites at L = 0 exit before any array
        calls.append((moments_check, (10, n_groups, model), 2.1))
    for fn, args, limit in calls:
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / unit <= limit + 0.1, fn.__name__
