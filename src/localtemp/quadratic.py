"""The spin chain as free Majorana fermions: spectra and w_a cumulants.

In the Majoranas a_2j = S_j sx_j and a_2j+1 = S_j sy_j, S_j = prod_{l<j} sz_l,
the open chain is H = 1/4 a^T (iA) a with A real antisymmetric, for every K
and L (Lieb, Schultz & Mattis, Ann. Phys. 16, 407 (1961)). Energies are in
units of the field B, so Jx = K + L and Jy = K - L. Every bond and the
field join an even Majorana to an odd one, so A is 0 outside its n x n block
M = A[0::2, 1::2] and that block's transpose. With M = U diag(Lambda) V^T, the
Lambda_k are the mode energies and the levels are
-1/2 sum_k (1 - 2 n_k) Lambda_k. A Fock state of a group's modes has the
covariance whose even-odd block is sum_k (2 n_k - 1) u_k v_k^T, and a product
state's is block diagonal. By Wick's theorem the w_a of such a state is a
polynomial in the signs s_m = 2 n_m - 1 of the groups' modes, so no
2^n x 2^n matrix is formed. In the groups' modes each junction's bonds are
two rank-one blocks, -Jx u_0 v_{g-1}^T and -Jy u_{g-1} v_0^T, u_i and v_i row
i of a group's U and V. The rows of U and V have unit norm,
sum_k u_jk Lambda_k v_jk = M_jj = 2, and an open chain's junctions form no
three-cycle, so the cumulants are exact sums over the groups and the
junctions (d, b), with z_i = s.(u_i v_i) of each group:
  kappa_1 = sum_groups 1/2 s.Lambda,
  kappa_2 = sum_junctions (Jx^2 + Jy^2)/4 - 1/2 Jx Jy z_0[b] z_{g-1}[d],
  kappa_3 = sum_junctions t_{g-1}[d] + t_0[b],
t_0 = -1/4 [s.(Lambda (Jx^2 u_0^2 + Jy^2 v_0^2)) - 4 Jx Jy z_0], t_{g-1} the
same with u_{g-1}, v_{g-1} and Jx, Jy swapped: each group appends a junction.

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
    """The block M = A[0::2, 1::2] of the chain: 2 on the diagonal, -Jx below
    it and -Jy above it, and the bond from site n - 1 to site 0 with weight
    ring (none on a single site). It is added, so a two-site ring doubles its
    bond."""
    m = np.diag(np.full(n_sites, 2.0))
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
    u, modes, v = _fock_modes(group_size, model)
    signs = 2.0 * occupation_patterns(group_size) - 1.0
    jx2, jy2, jxy = model.jx * model.jx, model.jy * model.jy, model.jx * model.jy
    # z_0, z_{g-1}, and t_0, t_{g-1} times -4, of the module docstring
    z_first, z_last = signs @ (u[0] * v[0]), signs @ (u[-1] * v[-1])
    edge = 4.0 * jxy
    t_first = signs @ (modes * (jx2 * u[0] ** 2 + jy2 * v[0] ** 2)) - edge * z_first
    t_last = signs @ (modes * (jy2 * u[-1] ** 2 + jx2 * v[-1] ** 2)) - edge * z_last
    eps = 0.5 * (signs @ modes)
    # each junction's terms over [appended group b, previous last group d]
    terms = (
        eps[:, None],
        (jx2 + jy2) / 4.0 - 0.5 * jxy * np.outer(z_first, z_last),
        -(t_first[:, None] + t_last) / 4.0,
    )
    kappa = (eps, np.zeros_like(eps), np.zeros_like(eps))
    cumulants = []
    for _ in range(n_groups - 1):  # append one group and its junction
        kappa = tuple(
            (k.reshape(2**group_size, -1) + t[:, :, None]).ravel()
            for k, t in zip(kappa, terms)
        )
        cumulants.append(kappa)
    return modes, cumulants
