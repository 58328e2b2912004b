"""The free-fermion core against the dense spin Hamiltonian.

Small chains only (up to 10 sites), where the dense 2^n matrices still fit.
"""
from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest
from test_oracle import (
    _COUPLINGS,
    _SZ,
    _even_odd,
    _fock_reference_moments,
    _majoranas,
    _model,
    _reference_hamiltonian,
)

from localtemp.ising import IsingModel
from localtemp.oracle import (
    Boundary,
    build_hamiltonian,
    skewness_by_groups,
    spectrum_check,
)
from localtemp.quadratic import (
    _chiral_matrix,
    _fock_modes,
    open_spectrum,
    product_cumulants,
)

_ALL_COUPLINGS = _COUPLINGS + ((0.0, 0.0), (0.6, 0.6), (0.3, 0.2))


def _majorana_matrix(n, model, ring=0.0):
    # the 2n x 2n A of H = 1/4 a^T (iA) a, whose even-odd block is M
    return _even_odd(_chiral_matrix(n, model, ring))


def _quadratic_hamiltonian(a):
    # 1/4 a^T (iA) a over the Jordan-Wigner Majoranas of a chain of len(A) / 2
    ops = _majoranas(a.shape[0] // 2)
    return 0.25j * np.einsum("ij,iab,jbc->ac", a, ops, ops)


@pytest.mark.parametrize("k_param, l_param", _ALL_COUPLINGS)
def test_majorana_matrix_is_the_hamiltonian(k_param, l_param):
    # H = 1/4 a^T (iA) a with the Jordan-Wigner Majoranas, and tr H = 0
    model = _model(k_param, l_param)
    for n in range(1, 6):
        h = _quadratic_hamiltonian(_majorana_matrix(n, model))
        assert np.max(np.abs(h - build_hamiltonian(n, model))) <= 1e-14


def _parity(n):
    # the diagonal of prod_j sz_j: +1 on an even count of down spins
    return functools.reduce(np.kron, [np.diag(_SZ)] * n)


@pytest.mark.parametrize("k_param, l_param", _COUPLINGS)
def test_ring_majorana_matrix_is_the_hamiltonian(k_param, l_param):
    # within the even sector the ring is A with the closing bond at weight
    # -1, within the odd sector at +1; two sites double the bond
    model = _model(k_param, l_param)
    for n in range(1, 7):
        ring = _reference_hamiltonian(n, model, Boundary.PERIODIC)
        parity = _parity(n)
        for weight, sector in ((-1.0, parity > 0), (1.0, parity < 0)):
            h = _quadratic_hamiltonian(_majorana_matrix(n, model, weight))
            block = np.ix_(sector, sector)
            assert np.max(np.abs(h[block] - ring[block])) <= 1e-14


@pytest.mark.parametrize("k_param, l_param", _ALL_COUPLINGS)
def test_pfaffian_sign_is_the_quadratic_ground_parity(k_param, l_param):
    # the ground state of 1/4 a^T (iA) a has parity sign Pf(A) = sign det M,
    # M = A[0::2, 1::2], for the open chain and both rings
    model = _model(k_param, l_param)
    for n in range(1, 6):
        for weight in (-1.0, 0.0, 1.0):
            a = _majorana_matrix(n, model, weight)
            vals, vecs = np.linalg.eigh(_quadratic_hamiltonian(a))
            if vals[1] - vals[0] < 1e-8:  # a zero mode: either parity
                continue
            parity = float(np.real(np.vdot(vecs[:, 0], _parity(n) * vecs[:, 0])))
            assert parity == pytest.approx(np.sign(np.linalg.det(a[0::2, 1::2])))


@pytest.mark.parametrize(
    "k_param, l_param",
    [(0.3, 0.0), (1.2, 2.0), (-0.7, 0.7), (0.6, 0.6), (0.3, 0.2), (1.6, -0.4)],
)
def test_fock_modes_match_complex_eigh(k_param, l_param):
    # u_k v_k^T is the even-odd block of G_k = 2 Im(v_k v_k^+), for the
    # eigenvector v_k of iA with eigenvalue Lambda_k > 0. Only where the
    # +-Lambda_k lie apart by 1e-3 of the largest: closer pairs (an edge mode
    # near 0 at 8 sites for K = 1.2, L = 2) move the eigenvectors by
    # roundoff / gap, and equal ones leave the modes not unique
    model = _model(k_param, l_param)
    checked = 0
    for n in range(1, 9):
        vals, vecs = np.linalg.eigh(1j * _majorana_matrix(n, model))
        modes = vals[n:]
        if np.min(np.diff(modes, prepend=-modes[0])) <= 1e-3 * modes[-1]:
            continue
        fock = 2.0 * np.einsum("ik,jk->kij", vecs[:, n:], vecs[:, n:].conj()).imag
        u, _, v = _fock_modes(n, model)
        ours = np.einsum("ik,jk->kij", u, v)
        assert np.max(np.abs(ours - fock[:, 0::2, 1::2])) <= 1e-12
        checked += 1
    assert checked >= 4


def test_free_fermion_checks_need_no_eigh(monkeypatch):
    # the open and periodic spectra and the cumulants take real n x n svds
    # and determinants only, never a 2n x 2n or complex eigensolver
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    blocks = []
    for name in ("svd", "slogdet"):
        original = getattr(np.linalg, name)

        def record(a, *args, _original=original, **kwargs):
            blocks.append((a.dtype, a.shape))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    model = _model(0.3, 0.2)
    for boundary in Boundary:
        blocks.clear()
        spectrum_check(10, model, boundary)
        assert blocks and set(blocks) == {(np.dtype(float), (10, 10))}
    # one svd of one group serves every group count and the degeneracy check
    for n_sites, n_groups in ((10, 5), (10, 2), (9, 3)):
        blocks.clear()
        skewness_by_groups(n_sites, n_groups, model)
        size = n_sites // n_groups
        assert blocks == [(np.dtype(float), (size, size))]


@pytest.mark.parametrize("k_param, l_param", _ALL_COUPLINGS)
def test_open_spectrum_matches_dense(k_param, l_param):
    model = _model(k_param, l_param)
    for n in range(1, 11):
        dense = np.linalg.eigvalsh(build_hamiltonian(n, model))
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(open_spectrum(n, model) - dense)) <= 1e-12 * scale


@pytest.mark.parametrize("k_param, l_param", _ALL_COUPLINGS)
def test_cumulants_match_fock_product_states(k_param, l_param):
    # kappa_1, kappa_2 and kappa_3 are the mean, variance and third central
    # moment of w_a for every product of group Fock states, in the order of
    # the occupation bits. Each count c read off the longer chain's cumulants
    # is checked against a fresh chain of c groups
    model = _model(k_param, l_param)
    for n_sites, group_size in ((8, 1), (10, 2), (9, 3), (8, 4)):
        n_groups = n_sites // group_size
        modes, cumulants = product_cumulants(n_groups, group_size, model)
        assert np.array_equal(modes, _fock_modes(group_size, model)[1])
        assert len(cumulants) == n_groups - 1
        for count, moments in enumerate(cumulants, start=2):
            reference = _fock_reference_moments(count * group_size, group_size, model)
            for ours, exact in zip(moments, reference):
                assert np.max(np.abs(ours - exact)) <= 1e-10


@pytest.mark.parametrize("k_param", [0.3, 10.0])
@pytest.mark.parametrize("n_sites, n_groups", [(8, 2), (8, 4), (9, 3)])
def test_skewness_does_not_depend_on_the_field(k_param, n_sites, n_groups):
    # at L = 0 the all-up and all-down products have zero width; Jx = Jy
    # given in a field B and converted to K in units of B must neither unmask
    # them nor move any row, at any B
    rows = skewness_by_groups(n_sites, n_groups, _model(k_param, 0.0))
    for b_field in (1e-300, 1e-160, 1e-8, 1e2, 1e3, 1e200):
        jx = b_field * k_param
        scaled = skewness_by_groups(
            n_sites, n_groups, IsingModel.from_couplings(b_field, jx, jx)
        )
        assert [(r.n_groups, r.sites) for r in scaled] == [
            (r.n_groups, r.sites) for r in rows
        ]
        for row, other in zip(rows, scaled):
            assert other.max_abs_skewness == pytest.approx(
                row.max_abs_skewness, rel=1e-9
            )


def test_skewness_needs_a_unique_fock_basis():
    # at K = 0 a group's modes pair up in energy: any rotation of a pair gives
    # other Fock states and another worst skewness
    with pytest.raises(ValueError, match="mode energies are degenerate"):
        skewness_by_groups(8, 4, _model(0.0, 0.5))
    # a strongly coupled group of 5 has an edge mode within roundoff of 0
    with pytest.raises(ValueError, match="mode energies are degenerate"):
        skewness_by_groups(10, 2, _model(1e3, 1e3))
    # Jx = 1e-200, Jy = 0: the modes agree within roundoff, and the widths,
    # of order Jx^2, underflow to 0; the basis, not the width, is reported,
    # and the message names the coupling as too weak
    with pytest.raises(ValueError, match="mode energies are degenerate") as weak:
        skewness_by_groups(6, 3, _model(5e-201, 5e-201))
    assert "a coupling too weak to split the modes" in str(weak.value)
    # at K = 1e150 the modes also agree within roundoff, but the cumulants
    # overflow first, and that is what the check reports
    with np.errstate(all="ignore"), pytest.raises(OverflowError, match="is nan"):
        skewness_by_groups(4, 2, _model(1e150, 0.0))
    # with no coupling at all every width is 0, whatever the basis
    rows = skewness_by_groups(8, 4, _model(0.0, 0.0))
    assert [r.max_abs_skewness for r in rows] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "check, args",
    [
        (skewness_by_groups, (10, 5)),
        (skewness_by_groups, (10, 2)),
        (spectrum_check, (10,)),
        (functools.partial(spectrum_check, boundary=Boundary.PERIODIC), (10,)),
    ],
)
def test_peak_memory_below_one_dense_array(check, args):
    # the free-fermion commands form no 2^n x 2^n array at 10 sites
    tracemalloc.start()
    try:
        check(*args, _model(0.3, 0.2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 4**10


@pytest.mark.parametrize(
    "n_sites, n_groups", [(10, 5), (10, 2), (12, 6), (12, 4), (12, 2)]
)
def test_gaussian_peak_memory_is_a_few_state_arrays(n_sites, n_groups):
    # the cumulants are built one group at a time from 2^g vectors, so the
    # peak is a few arrays over the 2^n product states, not 2^n x n ones
    tracemalloc.start()
    try:
        skewness_by_groups(n_sites, n_groups, _model(0.3, 0.2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * 2**n_sites
