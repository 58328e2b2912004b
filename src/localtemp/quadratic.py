"""The spin chain as free Majorana fermions: spectra and w_a cumulants.

In the Majoranas a_2j = S_j sx_j and a_2j+1 = S_j sy_j, S_j = prod_{l<j} sz_l,
the open chain is H = 1/4 a^T (iA) a with A real antisymmetric, for every K
and L (Lieb, Schultz & Mattis, Ann. Phys. 16, 407 (1961)). Every bond and the
field join an even Majorana to an odd one, so A is 0 outside its n x n block
M = A[0::2, 1::2] and that block's transpose. With M = U diag(Lambda) V^T, the
Lambda_k are the mode energies and the levels are
-1/2 sum_k (1 - 2 n_k) Lambda_k. A Fock state of a group's modes has the
covariance whose even-odd block is sum_k (2 n_k - 1) u_k v_k^T, and a product
state's is block diagonal. By Wick's theorem the w_a of such a state is a
polynomial in the signs s_m = 2 n_m - 1 of the chain's modes, with
coefficients over at most three modes, so no 2^n x 2^n matrix is formed. Split
M = M_G + M_V into the blocks inside groups and the bonds between them. In
the groups' modes M_G is diagonal (the sigma_m) and M_V is C, which has two
rank-one blocks per junction: -Jx u_0 v_{g-1}^T below the diagonal and
-Jy u_{g-1} v_0^T above it, u_i and v_i row i of a group's U and V. So
C_mm = 0, kappa_1 = 1/2 s.sigma, and the terms of order 0 and 1 in C of
kappa_2 and kappa_3 cancel exactly and are left out rather than rounded into
a width. The chain of the first c groups is C's leading (c g) x (c g) block,
and its product states are the first 2^(c g).

The ring adds the bond from site n - 1 to site 0, times -P, where
P = prod sz_j = prod(-i a_2j a_2j+1) is the fermion parity, +1 for an even
count of down spins. P commutes with H, so the ring is quadratic within each
parity sector: the even sector sees the closing bond with weight ring = -1
(antiperiodic fermions), the odd sector with ring = +1. The quadratic ground
state of a ring, every mode empty, has parity sign Pf(A) = det M. If the
sector's parity is the other one, its lowest level lies Lambda_min higher,
with the softest mode filled.
"""
from __future__ import annotations

import numpy as np

from .ising import IsingModel, occupation_patterns

__all__ = ["open_spectrum", "periodic_ground_energy", "product_cumulants"]


def _chiral_matrix(n_sites: int, model: IsingModel, ring: float = 0.0) -> np.ndarray:
    """The block M = A[0::2, 1::2] of the chain: 2B on the diagonal, -Jx below
    it and -Jy above it, and the bond from site n - 1 to site 0 with weight
    ring (none on a single site). It is added, so a two-site ring doubles its
    bond."""
    m = np.diag(np.full(n_sites, 2.0 * model.b_field))
    bond = np.arange(n_sites - 1)
    m[bond + 1, bond] = -model.jx
    m[bond, bond + 1] = -model.jy
    if ring and n_sites > 1:
        m[0, n_sites - 1] -= ring * model.jx
        m[n_sites - 1, 0] -= ring * model.jy
    return m


def open_spectrum(n_sites: int, model: IsingModel) -> np.ndarray:
    """All 2^n levels of the open chain, ascending, from its mode energies."""
    modes = np.linalg.svd(_chiral_matrix(n_sites, model), compute_uv=False)[::-1]
    return np.sort(occupation_patterns(n_sites) @ modes - 0.5 * np.sum(modes))


def periodic_ground_energy(n_sites: int, model: IsingModel) -> float:
    """Ground energy of the n-site ring: the lower of its two parity sectors,
    each -1/2 sum_k Lambda_k over its own ring's modes, plus Lambda_min where
    the quadratic ground state has the other parity (see the module
    docstring)."""
    energies = []
    for parity in (1.0, -1.0):  # the closing bond has weight -P
        m = _chiral_matrix(n_sites, model, -parity)
        modes = np.linalg.svd(m, compute_uv=False)  # descending
        flip = modes[-1] if np.linalg.slogdet(m)[0] != parity else 0.0
        energies.append(flip - 0.5 * np.sum(modes))
    return float(np.min(energies))  # np.min, unlike min(), keeps a nan


def _fock_modes(
    group_size: int, model: IsingModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, Lambda, V) of the group's M = U diag(Lambda) V^T, Lambda ascending:
    Fock mode k's covariance has the even-odd block u_k v_k^T."""
    u, modes, vt = np.linalg.svd(_chiral_matrix(group_size, model))
    return u[:, ::-1], modes[::-1], vt[::-1].T


def product_cumulants(
    n_groups: int, group_size: int, model: IsingModel
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """One group's mode energies, ascending, and for c = 2..n_groups the
    (kappa_1, kappa_2, kappa_3) of w_a for every product state a of the open
    chain of c groups. Entry a is the state whose group g holds the occupation
    bits of (a >> group_size * g) mod 2^group_size."""
    n = n_groups * group_size
    u, modes, v = _fock_modes(group_size, model)
    # C = M_V in the groups' modes, one rank-one block each side of a junction
    c = np.zeros((n_groups, group_size, n_groups, group_size))
    left = np.arange(n_groups - 1)
    c[left + 1, :, left] = np.outer(-model.jx * u[0], v[-1])
    c[left, :, left + 1] = np.outer(-model.jy * u[-1], v[0])
    c = c.reshape(n, n)
    sigma = np.tile(modes, n_groups)
    signs = 2.0 * occupation_patterns(n) - 1.0
    cumulants = []
    for size in range(2 * group_size, n + 1, group_size):  # size // group_size groups
        cm, sm, s = c[:size, :size], sigma[:size], signs[: 2**size, :size]
        d = np.diag(sm)
        square = cm * cm
        norms = square.sum(axis=1) + square.sum(axis=0)
        # diag(C C^T C + C^T C C^T + C D C + C^T D C^T) + 2 D diag(C C^T + C^T C)
        linear = np.diag(cm @ (cm.T + d) @ cm + cm.T @ (cm + d) @ cm.T) + 2.0 * sm * norms
        # T[m, n, p] = Y[p, m] C[m, n] C[n, p], Y = C + 3 D
        third = np.einsum("pm,mn,np->mnp", cm + 3.0 * d, cm, cm).reshape(size, -1)
        cubic = (s[:, None] @ (s @ third).reshape(-1, size, size) @ s[:, :, None]).ravel()
        kappa1 = 0.5 * (s @ sm)
        kappa2 = (np.sum(square) - np.einsum("an,an->a", s @ (cm * cm.T), s)) / 4.0
        kappa3 = -(s @ linear - 2.0 * cubic) / 8.0
        cumulants.append((kappa1, kappa2, kappa3))
    return modes, cumulants
