"""The spin chain as free Majorana fermions: spectra and w_a cumulants.

The open chain is H = 1/4 a^T (iA) a, A real antisymmetric, in the Majoranas
a_2j = S_j sx_j and a_2j+1 = S_j sy_j, S_j = prod_{l<j} sz_l, for every K and
L (Lieb, Schultz & Mattis, Ann. Phys. 16, 407 (1961)). The positive
eigenvalues Lambda_k of iA are the mode energies, and the levels are
-1/2 sum_k (1 - 2 n_k) Lambda_k. A group eigenstate is a Fock state of the
group's modes, with covariance sum_k (2 n_k - 1) G_k, G_k = 2 Im(v_k v_k^+)
for the eigenvector v_k of Lambda_k; a product state's Gamma_a is block
diagonal. By Wick's theorem its w_a has kappa_1 = -tr(A Gamma_a) / 4. Split
A = A_G + A_V into the blocks inside groups and the bonds between them: A_G
commutes with Gamma_a, so the terms of order 0 and 1 in A_V (of size n B^2 and
n B^3) cancel exactly, and are left out rather than rounded into a width:

    kappa_2 = (|A_V|_F^2 - tr (A_V Gamma_a)^2) / 8,
    kappa_3 = -(tr(A_V^3 Gamma_a) + tr (A_V Gamma_a)^3 + 2 tr(A_V^2 A_G Gamma_a)
                + tr(A_V A_G A_V Gamma_a) + 3 tr(A_G Gamma_a (A_V Gamma_a)^2)) / 8.

Each trace is a polynomial in the signs 2 n_m - 1 of the chain's modes, with
coefficients over at most three modes, so no 2^n x 2^n matrix is formed.

The ring adds the bond from site n - 1 to site 0. In Majoranas that bond is
the one to a virtual site n, with a_2n = a_0 and a_2n+1 = a_1, times -P.
Here P = prod sz_j = prod(-i a_2j a_2j+1) is the fermion parity, +1 for an
even count of down spins. P commutes with H, so the ring is quadratic within
each parity sector: the even sector sees the closing bond with weight
ring = -1 (antiperiodic fermions), the odd sector with ring = +1. The
quadratic ground state of a ring matrix A, every mode empty, has parity
sign Pf(A): with A = O S O^T, S the 2 x 2 blocks of the Lambda_k > 0, that
state has P = det O, and Pf(A) = det O prod_k Lambda_k. If the sector's
parity is the other one, its lowest level lies Lambda_min higher, with the
softest mode filled. Every bond and the field join an even Majorana to an
odd one, so Pf(A) = det M for the n x n block M = A[0::2, 1::2], whose
singular values are the Lambda_k: one real SVD and one pivoted LU per sector.
"""
from __future__ import annotations

import numpy as np

from .ising import IsingModel, occupation_patterns

__all__ = [
    "mode_energies",
    "open_spectrum",
    "periodic_ground_energy",
    "product_cumulants",
]


def _majorana_matrix(n_sites: int, model: IsingModel, ring: float = 0.0) -> np.ndarray:
    """The real antisymmetric A of the chain, H = 1/4 a^T (iA) a:
    A[2j, 2j+1] = 2B, A[2j+1, 2j+2] = Jx and A[2j, 2j+3] = -Jy, and the bond
    from site n - 1 to site 0 with weight ring (none on a single site). It is
    added, so a two-site ring doubles its bond."""
    a = np.zeros((2 * n_sites, 2 * n_sites))
    site, bond = np.arange(n_sites), np.arange(n_sites - 1)
    a[2 * site, 2 * site + 1] = 2.0 * model.b_field
    a[2 * bond + 1, 2 * bond + 2] = model.jx
    a[2 * bond, 2 * bond + 3] = -model.jy
    if ring and n_sites > 1:
        a[2 * n_sites - 1, 0] += ring * model.jx
        a[2 * n_sites - 2, 1] -= ring * model.jy
    return a - a.T


def mode_energies(n_sites: int, model: IsingModel) -> np.ndarray:
    """The open chain's mode energies Lambda_k >= 0, ascending."""
    return np.linalg.eigvalsh(1j * _majorana_matrix(n_sites, model))[n_sites:]


def open_spectrum(n_sites: int, model: IsingModel) -> np.ndarray:
    """All 2^n levels of the open chain, ascending, from its mode energies."""
    modes = mode_energies(n_sites, model)
    return np.sort(occupation_patterns(n_sites) @ modes - 0.5 * np.sum(modes))


def periodic_ground_energy(n_sites: int, model: IsingModel) -> float:
    """Ground energy of the n-site ring: the lower of its two parity sectors,
    each -1/2 sum_k Lambda_k over its own ring's modes, plus Lambda_min where
    the quadratic ground state has the other parity (see the module
    docstring)."""
    energies = []
    for parity in (1.0, -1.0):  # the closing bond has weight -P
        m = _majorana_matrix(n_sites, model, -parity)[0::2, 1::2]
        modes = np.linalg.svd(m, compute_uv=False)  # descending
        flip = modes[-1] if np.linalg.slogdet(m)[0] != parity else 0.0
        energies.append(flip - 0.5 * np.sum(modes))
    return float(np.min(energies))  # np.min, unlike min(), keeps a nan


def _fock_modes(group_size: int, model: IsingModel) -> np.ndarray:
    """G_k = 2 Im(v_k v_k^+) of the group's modes, Lambda_k ascending."""
    _, vecs = np.linalg.eigh(1j * _majorana_matrix(group_size, model))
    v = vecs[:, group_size:]
    return 2.0 * np.einsum("ik,jk->kij", v, v.conj()).imag


def product_cumulants(
    n_groups: int, group_size: int, model: IsingModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kappa_1, kappa_2, kappa_3) of w_a for every product state a of an open
    chain of n_groups groups. Entry a is the state whose group g holds the
    occupation bits of (a >> group_size * g) mod 2^group_size."""
    n = n_groups * group_size
    a = _majorana_matrix(n, model)
    groups = np.zeros_like(a)
    modes = np.zeros((n, 2 * n, 2 * n))
    fock = _fock_modes(group_size, model)
    for start in range(0, n, group_size):
        block = slice(2 * start, 2 * (start + group_size))
        modes[start : start + group_size, block, block] = fock
        groups[block, block] = a[block, block]
    v = a - groups
    vm, gm = v @ modes, groups @ modes  # A_V G_m, A_G G_m
    # tr(X Y) is the dot product of X's rows with Y^T's rows, flattened
    vm_t = vm.transpose(0, 2, 1).reshape(n, -1)
    first = np.trace(a @ modes, axis1=1, axis2=2)  # tr(A G_m)
    second = vm.reshape(n, -1) @ vm_t.T  # tr(A_V G_m A_V G_n)
    pairs = (vm[:, None] @ vm[None, :]).reshape(n * n, -1)  # A_V G_n A_V G_p
    # tr((A_V + 3 A_G) G_m A_V G_n A_V G_p), indexed [m, n * n + p]
    third = (pairs @ (vm + 3.0 * gm).transpose(0, 2, 1).reshape(n, -1).T).T
    linear = v @ v @ v + 2.0 * v @ v @ groups + v @ groups @ v
    first_v = modes.reshape(n, -1) @ linear.T.ravel()  # tr(linear G_m)
    s = 2.0 * occupation_patterns(n) - 1.0
    cubic = np.einsum("anp,an,ap->a", (s @ third).reshape(-1, n, n), s, s)
    kappa1 = -0.25 * (s @ first)
    kappa2 = (np.sum(v * v) - np.einsum("an,an->a", s @ second, s)) / 8.0
    kappa3 = -(s @ first_v + cubic) / 8.0
    return kappa1, kappa2, kappa3
