"""Exact verification of the analytic building blocks on small spin chains.

Everything here is exact, built from the chain's structure. `spectrum`
(open and periodic) and `gaussian` come from its free-fermion form
(quadratic.py): `gaussian` over products of group Fock states, the periodic
`spectrum` with each fermion-parity sector's own boundary condition.
`moments` and `rho` work in the product basis of the group eigenstates a
dense eigh picks. They measure the interaction mean and width, the moments
of the energy distribution w_a and the thermal state's diagonal, each as one
array over all product states. No Gaussian or thermodynamic-limit
approximation enters, so any disagreement beyond numerical noise points at
the formulas. Energies are in units of the field B, squared widths in units
of B^2, and beta is B/T.

Interaction statistics: H - H_0 is the sum of the junction bonds
J_j = sum_k P_k (x) Q_k, P_k on group j + 1 and Q_k on group j (the same
d x d pairs at every junction, in the group eigenbasis). A product state
|a> = |a_0 ... a_{G-1}> gives exactly
  eps_a = sum_j m(a_{j+1}, a_j),              m = sum_k diag P_k (x) diag Q_k,
  Delta_a^2 = sum_j (S - m^2)(a_{j+1}, a_j)
            + sum_j [C - 2 m_j m_{j+1}](a_{j+2}, a_{j+1}, a_j),
with S = sum_kl diag(P_k P_l) (x) diag(Q_k Q_l) the square of one junction
and C = sum_kl diag P_l (x) diag(P_k Q_l + Q_l P_k) (x) diag Q_k the term of
two junctions that share group j + 1; junctions further apart are
uncorrelated in a product state. Every P_k and Q_k flips the parity of its
group, so m and C vanish unless eigh mixes parities inside a degenerate
group level. `moments` then compares two independent computations: these
junction sums against the w_a moments read off the open chain's 2^n
Hamiltonian rotated into the product basis, H_p = V^T H V, whose diagonal is
<a|H|a> and whose off-diagonal row norms are the widths. Only `rho`
diagonalizes the chain, one symmetry sector at a time.

Basis conventions (fixed so golden vectors are reproducible): site j maps to
bit j of the basis index, so site 0 is the lowest-order bit; spin-up is bit
value 0, with sigma^z = diag(1, -1), making the single-site Hamiltonian
-sigma^z = diag(-1, +1). A bond (i, j) flips bits i and j: sigma^x sigma^x
gives that element 1, and sigma^y sigma^y gives it -1 when the two bits agree
and +1 when they differ, so every matrix stays real. The product basis is
the Kronecker power of the group eigenvector matrix with group 0 on the low
index bits. It is never formed: eigenvectors and H take its Kronecker
factors one at a time, the eigenvectors one block of columns at a time.

Sectors (`rho`): every bond flips two bits, so the fermion parity
prod sigma^z (the parity of a basis index's bit count) commutes with H for
every K and L. The couplings are uniform, so the site reflection
R: j -> n - 1 - j commutes with H too, and keeps the bit count. Each parity
class splits into a + and a - sector of R, with basis (|i> +- |R i>)/sqrt2
for a mirror pair and |i> alone for a palindrome (R i = i, + sector only).
Each sector is read straight from H, in one stage: its rows r are the
indices of one parity with i <= R i (+) or i < R i (-), and its matrix is
sign H[r, R r] + H[r, r], rescaled. R maps the + rows of a parity onto the
rest of it, so both checks run on those rows: a matrix with an element
between the parities, or one that does not commute with R, is rejected.
The four sector matrices are diagonalized one by one, and their
eigenvectors scattered back into site order, merged into ascending
eigenvalue order. Group Hamiltonians are diagonalized whole, so the product
basis is the one a full eigh of the group picks. Each eigh, of a sector or
of a group, is checked where it is computed: unit vectors and a small
residual against the matrix it was given. Besides H and its eigenvectors,
no dim x dim array is formed: each sector's matrix and vectors are freed
once used, and the overlaps <a|phi> run over blocks of columns.

The formulas label a group state by occupation bits instead: entry l is the
fermion mode k = pi (l + 1) / (n + 1), 1 meaning occupied. occupations_by_energy
pairs those labels with the dense eigenstates by sorting both by energy.

Rings: the periodic `spectrum` is the exact ground energy of the finite
ring, with each parity sector's fermion boundary condition tracked
(quadratic.periodic_ground_energy); only its comparison with the k-integral
of the infinite chain carries a finite-size term, O(1/n^2) for a gapless
chain and roundoff for a gapped one. Product bases are built on open chains
only.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .canonical import GroupStatistics, rho_diag
from .ising import (
    IsingModel,
    delta_sq,
    ground_energy_per_site,
    group_energy,
    occupation_patterns,
)
from .quadratic import open_spectrum, periodic_ground_energy, product_cumulants

__all__ = [
    "DenseThermalSystem",
    "ProductBasisData",
    "SpectrumReport",
    "GroundEnergyReport",
    "MomentsReport",
    "SkewnessRow",
    "RhoDiagReport",
    "build_hamiltonian",
    "product_basis",
    "thermal_state",
    "interaction_statistics",
    "rho_product_diag",
    "occupations_by_energy",
    "spectrum_check",
    "moments_check",
    "skewness_by_groups",
    "rho_diag_check",
]

_MAX_SITES = 12
# the periodic spectrum is O(n^3) in the ring's size, not 2^n
_MAX_RING_SITES = 400

# product states whose interaction width lies below this, relative to the
# junction's Jx^2 + Jy^2, carry no w_a shape
_ZERO_WIDTH = 1e-12

# eigenvector columns are processed dim // _COLUMN_BLOCKS at a time, so each
# such temporary is a fixed fraction of a dim x dim array, but at least
# _MIN_COLUMNS at a time, so small chains do not pay numpy's per-call cost
# block after block
_COLUMN_BLOCKS = 8
_MIN_COLUMNS = 128

# mode energies closer than this, relative to the largest, are degenerate
# within roundoff: eigh cannot tell their vectors, or their Fock states, apart
_MODE_GAP = 1e-13


def _check_sites(n_sites: int, limit: int = _MAX_SITES) -> None:
    if not 1 <= n_sites <= limit:
        raise ValueError(f"n_sites must be between 1 and {limit}")


def _group_size(n_sites: int, n_groups: int) -> int:
    """Sites per group of n_sites <= _MAX_SITES cut into n_groups >= 2 equal
    groups (every group check reads junctions); runs before any array."""
    _check_sites(n_sites)
    if n_groups < 1 or n_sites % n_groups != 0:
        raise ValueError(f"cannot split {n_sites} sites into {n_groups} equal groups")
    if n_groups < 2:
        raise ValueError(f"need at least two groups, got {n_groups}")
    return n_sites // n_groups


def build_hamiltonian(n_sites: int, model: IsingModel) -> np.ndarray:
    """Dense open-chain Hamiltonian sum_i -sz_i - (Jx/2) sx sx - (Jy/2) sy sy."""
    _check_sites(n_sites)
    idx = np.arange(2**n_sites)
    h = np.zeros((idx.size, idx.size))
    xx, yy = -0.5 * model.jx, 0.5 * model.jy
    for i in range(n_sites - 1):  # the bond (i, i + 1) flips bits i and i + 1
        equal = ((idx >> i) ^ (idx >> (i + 1))) & 1 == 0
        h[idx ^ (3 << i), idx] = np.where(equal, xx + yy, xx - yy)
    diag = np.zeros(idx.size)
    for j in range(n_sites):
        diag -= np.where((idx >> j) & 1, -1.0, 1.0)
    h[idx, idx] = diag
    return h


def _max_abs(a: np.ndarray) -> float:
    """max |a| without an |a| temporary; nan if a holds one."""
    return max(float(np.max(a, initial=0.0)), -float(np.min(a, initial=0.0)))


def _column_blocks(n_cols: int, dim: int):
    """Slices of n_cols columns, max(dim // _COLUMN_BLOCKS, _MIN_COLUMNS) at a
    time."""
    step = max(dim // _COLUMN_BLOCKS, _MIN_COLUMNS)
    return (slice(start, start + step) for start in range(0, n_cols, step))


def _sectors(hamiltonian: np.ndarray):
    """Split H by fermion parity and the site reflection R: j -> n - 1 - j.

    Yields (block, rows, mirrors, sign, coef) per nonempty sector, even +,
    even -, odd +, odd -, building each only when asked. Its basis vector k
    is coef_k (|rows_k> + sign |mirrors_k>), with mirrors_k = R(rows_k): coef
    1/sqrt2 for a mirror pair, and 1/2 for a palindrome (rows_k = mirrors_k,
    sign +1, which gives |rows_k> itself). block is H in that basis, read
    straight from H. Rejects an H that mixes the parities or does not commute
    with R, checked on the + rows of each parity.
    """
    idx = np.arange(hamiltonian.shape[0])
    n_sites = idx.size.bit_length() - 1
    parity, mirror = np.zeros_like(idx), np.zeros_like(idx)
    for j in range(n_sites):
        bit = (idx >> j) & 1
        parity ^= bit
        mirror |= bit << (n_sites - 1 - j)
    for p in (0, 1):
        upper = np.flatnonzero((parity == p) & (idx <= mirror))
        band = hamiltonian.take(upper, axis=0)
        if np.any(band.take(np.flatnonzero(parity != p), axis=1)):
            raise ValueError("hamiltonian mixes the fermion-parity sectors")
        asym = hamiltonian.take(mirror[upper], axis=0).take(mirror, axis=1)
        asym -= band
        if _max_abs(asym) > 1e-12 * max(1.0, _max_abs(band)):
            raise ValueError("hamiltonian breaks the site-reflection symmetry")
        del asym
        for sign, keep in ((1.0, slice(None)), (-1.0, upper < mirror[upper])):
            r = upper[keep]
            if not r.size:
                continue
            lone = (r == mirror[r]).astype(float)  # palindromes
            coef = np.where(lone, 0.5, math.sqrt(0.5))
            # [H, R] = 0 gives <k|H|l> = 2 coef_k coef_l (H[r_k, r_l] + sign
            # H[r_k, R r_l]); 2 coef_k coef_l is 1, 1/sqrt2 or exactly 1/2
            sector = band.take(mirror[r], axis=1)[keep]
            sector *= sign
            sector += band.take(r, axis=1)[keep]
            sector *= np.exp2(-0.5 * np.add.outer(lone, lone))
            yield sector, r, mirror[r], sign, coef


def _checked_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(matrix), checked: every eigenvector must have unit norm
    and a small residual |matrix v - lambda v| against the whole matrix, so
    an asymmetric matrix fails too (eigh reads only one triangle). A
    non-finite (overflowed) residual raises OverflowError."""
    vals, vecs = np.linalg.eigh(matrix)
    # the residual cannot see scale: 2 v or 0 would pass it
    lengths = np.sqrt(np.einsum("ij,ij->j", vecs, vecs))
    if not np.max(np.abs(lengths - 1.0), initial=0.0) <= 1e-10:
        raise ValueError("eigenvectors must have unit norm")
    residual = matrix @ vecs
    residual -= vecs * vals
    # np.max, unlike max(), carries a nan residual along
    worst = float(np.max(np.linalg.norm(residual, axis=0), initial=0.0))
    if not math.isfinite(worst):
        raise OverflowError(f"eigendecomposition residual is {worst!r}")
    if worst > 1e-9 * max(1.0, float(np.max(np.abs(vals), initial=0.0))):
        raise ValueError(f"eigendecomposition residual too large: {worst:g}")
    return vals, vecs


@dataclass(eq=False)
class DenseThermalSystem:
    """Exactly diagonalized chain: H, its eigenvalues and eigenvectors, as
    solve returns them. The temperature enters only through thermal_state;
    all queries only read.
    """

    hamiltonian: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def solve(cls, hamiltonian: np.ndarray) -> "DenseThermalSystem":
        """Diagonalize sector by sector (parity x site reflection), eigenpairs
        merged into ascending eigenvalue order; eigenvalues closer than
        8 eps max|E| are set to the lowest of them. Rejects a matrix that
        mixes parities or breaks the reflection symmetry, and each sector's
        eigenpairs as _checked_eigh does."""
        dim = hamiltonian.shape[0]
        n_sites = int(round(math.log2(dim)))
        if hamiltonian.shape != (dim, dim) or 2**n_sites != dim:
            raise ValueError("hamiltonian must be square, of power-of-two dimension")
        _check_sites(n_sites)
        # each sector matrix is built when needed and freed once used
        sectors = _sectors(hamiltonian)
        solved = [(_checked_eigh(sector), basis) for sector, *basis in sectors]
        vals = np.concatenate([w for (w, _), _ in solved])
        order = np.argsort(vals, kind="stable")
        column = np.empty(vals.size, dtype=int)
        column[order] = np.arange(vals.size)
        vecs = np.zeros((dim, dim))
        start = 0
        solved.reverse()
        while solved:  # each sector's vectors are freed after the scatter
            (w, v), (rows, mirrors, sign, coef) = solved.pop()
            cols = column[start : start + w.size]
            v *= coef[:, None]
            vecs[rows[:, None], cols] = v
            v *= sign
            vecs[mirrors[:, None], cols] += v  # palindrome: 1/2 + 1/2
            start += w.size
        # sectors round differently, so a level shared by two of them can
        # come out split by a few ulps of max|E|; at large beta max|E| that
        # split alone would decide which state holds the Boltzmann weight
        vals = vals[order]
        tol = 8.0 * np.finfo(float).eps * float(np.max(np.abs(vals)))
        starts = np.flatnonzero(np.diff(vals, prepend=-np.inf) > tol)
        vals = np.repeat(vals[starts], np.diff(starts, append=vals.size))
        return cls(hamiltonian, vals, vecs)


@dataclass(eq=False)
class ProductBasisData:
    """Spectra of the decoupled groups and the interaction they leave over.

    The n_groups groups are congruent, so they share one eigenbasis, the
    columns of group_vecs. Product state a is the Kronecker product of the
    columns that the base-2^group_size digits of a select (group 0 lowest);
    E_a = product_energies[a] sums their eigenvalues. The interaction
    I = H - H_0 is the sum over junctions of sum_k P_k (x) Q_k, P_k on the
    upper and Q_k on the lower group of the junction; junction_pairs holds
    the d x d pairs (P_k, Q_k) in the group eigenbasis, the same at every
    junction. interaction_statistics reads eps_a and Delta_a^2 off them.
    """

    n_groups: int
    group_vecs: np.ndarray
    product_energies: np.ndarray
    junction_pairs: list

    @functools.cached_property
    def _transpose_factors(self) -> tuple[np.ndarray, np.ndarray | None]:
        """_basis_transpose_apply's Kronecker factors V^T (x) ... (x) V^T of
        the upper half of the groups (at least one) and of the rest (None if
        none), built once per product basis."""
        vt = self.group_vecs.T
        n_upper = max(1, self.n_groups // 2)
        upper = functools.reduce(np.kron, [vt] * n_upper)
        if self.n_groups == n_upper:
            return upper, None
        return upper, functools.reduce(np.kron, [vt] * (self.n_groups - n_upper))


def _group_digits(n_groups: int, group_size: int) -> list[np.ndarray]:
    """Group-state index of every product state, one array per group."""
    indices = np.arange(2 ** (group_size * n_groups))
    return [(indices >> (group_size * g)) % 2**group_size for g in range(n_groups)]


_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_A = np.array([[0.0, -1.0], [1.0, 0.0]])  # -i sigma^y, so sy sy = -A A


def _junction_pairs(vecs: np.ndarray, model: IsingModel) -> list:
    """The bond between neighbouring groups in the group eigenbasis.

    The bond -(Jx/2) sx sx + (Jy/2) A A from the last site of group v to the
    first of group v + 1 equals sum_k P_k on group v + 1 times Q_k on group
    v, with the coupling folded into P_k; returns [(P_k, Q_k), ...]. The
    groups are congruent, so every junction has the same pairs.
    """
    d = vecs.shape[0]
    group_size = d.bit_length() - 1

    def rotated(op: np.ndarray, bit: int) -> np.ndarray:
        on_site = np.kron(np.eye(d >> (bit + 1)), np.kron(op, np.eye(1 << bit)))
        return vecs.T @ on_site @ vecs

    return [
        (c * rotated(op, 0), rotated(op, group_size - 1))
        for c, op in ((-0.5 * model.jx, _SX), (0.5 * model.jy, _A))
    ]


def product_basis(n_sites: int, group_size: int, model: IsingModel) -> ProductBasisData:
    """Partition the open chain into equal groups and set up the product basis.

    H - H_0 is exactly the bonds between groups, so the interaction is kept
    as one junction's bond rotated into the group eigenbasis; no operator on
    the whole chain is formed.
    """
    _check_sites(n_sites)
    if n_sites % group_size != 0:
        raise ValueError("group_size must divide n_sites")
    n_groups = n_sites // group_size
    vals, vecs = _checked_eigh(build_hamiltonian(group_size, model))

    energies = np.zeros(2**n_sites)
    for digits in _group_digits(n_groups, group_size):
        energies += vals[digits]
    return ProductBasisData(n_groups, vecs, energies, _junction_pairs(vecs, model))


def _basis_transpose_apply(pb: ProductBasisData, x: np.ndarray) -> np.ndarray:
    """(V (x) ... (x) V)^T x for the product basis V (x) ... (x) V.

    The groups fold into at most two Kronecker factors. The upper one acts on
    the leading axis of x in one product, the lower one on each upper block in
    place through one block buffer: dim * cols * (d_hi + d_lo) operations
    instead of dim^2 * cols, and no array of x's size besides the result.
    """
    upper, lower = pb._transpose_factors
    out = upper @ x.reshape(upper.shape[0], -1)
    if lower is not None:
        blocks = out.reshape(upper.shape[0], lower.shape[0], -1)
        buf = np.empty(blocks.shape[1:])
        for block in blocks:
            block[...] = np.matmul(lower, block, out=buf)
    return out.reshape(x.shape)


def thermal_state(sys: DenseThermalSystem, beta: float) -> tuple[float, np.ndarray]:
    """Log partition function and canonical weights over the eigenstates at
    inverse temperature beta."""
    if not (beta >= 0 and math.isfinite(beta)):
        raise ValueError("beta must be finite and nonnegative")
    exponents = -beta * sys.eigenvalues
    # shift by the largest exponent: no term overflows and the sum is >= 1
    top = float(np.max(exponents))
    log_z = top + math.log(float(np.sum(np.exp(exponents - top))))
    return log_z, np.exp(exponents - log_z)


def interaction_statistics(pb: ProductBasisData) -> tuple[np.ndarray, np.ndarray]:
    """Exact (eps_a, delta_sq_a) = (<a|I|a>, <a|I^2|a> - <a|I|a>^2) of the
    interaction for every product state a, as the junction sums of the module
    docstring: each junction's d x d term, and each shared group's
    d x d x d term, is added over the other groups by broadcasting."""
    d = pb.group_vecs.shape[0]
    ps = np.array([p for p, _ in pb.junction_pairs])
    qs = np.array([q for _, q in pb.junction_pairs])
    p, q = np.einsum("kii->ki", ps), np.einsum("kii->ki", qs)

    def diag_products(xs, ys):  # [k, l] = diag(X_k Y_l)
        return np.einsum("kij,lji->kli", xs, ys)

    m = p.T @ q  # [upper, lower]
    square = np.einsum("klx,kly->xy", diag_products(ps, ps), diag_products(qs, qs))
    square -= m * m
    eps, dsq = np.zeros(d**pb.n_groups), np.zeros(d**pb.n_groups)
    for j in range(pb.n_groups - 1):  # junction j joins groups j and j + 1
        for total, term in ((eps, m), (dsq, square)):
            view = total.reshape(-1, d, d, d**j)
            view += term[:, :, None]
    if pb.n_groups > 2:
        sym = diag_products(ps, qs) + diag_products(qs, ps).transpose(1, 0, 2)
        shared = np.einsum("lx,kly,kz->xyz", p, sym, q)
        shared -= 2.0 * m[:, :, None] * m
        for j in range(pb.n_groups - 2):  # junctions j and j + 1 share group j + 1
            view = dsq.reshape(-1, d, d, d, d**j)
            view += shared[:, :, :, None]
    return eps, dsq


def _overlap_blocks(sys: DenseThermalSystem, pb: ProductBasisData):
    """(cols, |<a|phi>|^2) for product states a and the eigenstates phi of
    each block cols of eigenvector columns."""
    vecs = sys.eigenvectors
    for cols in _column_blocks(vecs.shape[1], vecs.shape[0]):
        probs = _basis_transpose_apply(pb, vecs[:, cols])
        probs *= probs
        yield cols, probs


def _w_a_moments(
    n_sites: int, model: IsingModel, pb: ProductBasisData
) -> tuple[np.ndarray, np.ndarray]:
    """(mean, variance) of w_a for every product state a at once: <a|H|a> and
    <a|H^2|a> - <a|H|a>^2, read off H_p = V^T H V in the product basis V as
    the diagonal of H_p and the squared norm of each row of H_p without its
    diagonal entry, so nothing cancels."""
    h = build_hamiltonian(n_sites, model)
    h[...] = _basis_transpose_apply(pb, h).T  # (V^T H)^T = H V, in H's buffer
    h_p = _basis_transpose_apply(pb, h)
    mean = np.diag(h_p).copy()
    np.fill_diagonal(h_p, 0.0)
    return mean, np.einsum("ab,ab->a", h_p, h_p)


def rho_product_diag(
    sys: DenseThermalSystem, pb: ProductBasisData, weights: np.ndarray
) -> np.ndarray:
    """Exact diagonal <a|rho|a> in the product basis of the state with the
    given weights over the eigenstates (thermal_state's)."""
    return sum(probs @ weights[cols] for cols, probs in _overlap_blocks(sys, pb))


def occupations_by_energy(model: IsingModel, n: int) -> np.ndarray:
    """The rows of occupation_patterns(n) ordered by formula energy, ascending.

    Aligns the dense eigenvalue order (from eigh) with occupation bit arrays
    so per-state formulas can be compared index by index. Only meaningful
    where the formula is the exact group spectrum (L = 0) and requires the
    2^n energies to be nondegenerate.
    """
    patterns = occupation_patterns(n)
    energies = group_energy(patterns, model)
    order = np.argsort(energies, kind="stable")
    if np.any(np.diff(energies[order]) < 1e-9):
        raise ValueError(
            "degenerate group spectrum; cannot match occupations by energy"
        )
    return patterns[order]


# ---------------------------------------------------------------------------
# whole checks, one per `localtemp oracle` subcommand; field order is the
# order of the printed rows


class _Report:
    """A measured float that is nan or inf means the dense arithmetic
    overflowed (huge couplings), not that the check passed or failed, so
    building such a report raises OverflowError naming the field."""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise OverflowError(
                    f"{type(self).__name__}.{f.name} is {value!r}; the dense"
                    " arithmetic overflowed"
                )


@dataclass(frozen=True)
class SpectrumReport(_Report):
    """Open chain: worst gap between the sorted exact spectrum and the paper's
    L = 0 group formula (ising.group_energy). At L = 0 it is roundoff; at
    L != 0 it is that formula's error, e.g. 0.3155 at 6 sites, K = L = 0.5."""

    sites: int
    boundary: str
    max_spectrum_deviation: float


@dataclass(frozen=True)
class GroundEnergyReport(_Report):
    """Periodic chain: the exact ground energy per site of the finite ring,
    ground_per_site_dense, against the k-integral of the infinite chain."""

    sites: int
    boundary: str
    ground_per_site_dense: float
    ground_per_site_integral: float
    deviation: float


@dataclass(frozen=True)
class MomentsReport(_Report):
    """Worst deviations of the product-state moment identities.

    The w_a mean must equal E_a + eps_a and its variance Delta_a^2. At L = 0
    max_delta_sq_formula_dev compares Delta_a^2 with the per-junction width
    sum of ising.delta_sq; it is None otherwise.
    """

    sites: int
    groups: int
    max_abs_eps: float
    max_mean_identity_dev: float
    max_var_identity_dev: float
    max_delta_sq_formula_dev: float | None = None


@dataclass(frozen=True)
class SkewnessRow(_Report):
    """Largest |skewness| of w_a over product states with nonzero width."""

    n_groups: int
    sites: int
    max_abs_skewness: float


@dataclass(frozen=True)
class RhoDiagReport(_Report):
    """Worst |ln rho_aa| error of the Gaussian-weight formula (rho_diag)."""

    sites: int
    groups: int
    max_abs_log_deviation: float
    per_junction: float


def spectrum_check(
    n_sites: int, model: IsingModel, boundary: str = "open"
) -> SpectrumReport | GroundEnergyReport:
    """boundary "open" (up to _MAX_SITES): the free-fermion spectrum against
    the mode formula. boundary "periodic" (up to _MAX_RING_SITES), where only
    the ground energy is meaningful: the ring's exact ground energy against
    the k-integral. Any other boundary raises ValueError."""
    if boundary == "open":
        _check_sites(n_sites)
        exact = open_spectrum(n_sites, model)
        formula = np.sort(group_energy(occupation_patterns(n_sites), model))
        return SpectrumReport(n_sites, boundary, float(np.max(np.abs(exact - formula))))
    if boundary != "periodic":
        raise ValueError(f"boundary must be 'open' or 'periodic', got {boundary!r}")
    _check_sites(n_sites, _MAX_RING_SITES)
    dense_ground = periodic_ground_energy(n_sites, model) / n_sites
    integral = ground_energy_per_site(model)
    return GroundEnergyReport(
        n_sites, boundary, dense_ground, integral, abs(dense_ground - integral)
    )


def moments_check(n_sites: int, n_groups: int, model: IsingModel) -> MomentsReport:
    """Moment identities of w_a for every product state of an open chain."""
    group_size = _group_size(n_sites, n_groups)
    occs = occupations_by_energy(model, group_size) if model.l_param == 0.0 else None
    pb = product_basis(n_sites, group_size, model)
    eps, dsq = interaction_statistics(pb)
    mean, var = _w_a_moments(n_sites, model, pb)
    formula_dev = None
    if occs is not None:
        widths = delta_sq(occs[:, None], occs[None, :], model)
        digits = _group_digits(n_groups, group_size)
        formula = sum(widths[left, right] for left, right in zip(digits, digits[1:]))
        formula_dev = float(np.max(np.abs(dsq - formula)))
    return MomentsReport(
        sites=n_sites,
        groups=n_groups,
        max_abs_eps=float(np.max(np.abs(eps))),
        max_mean_identity_dev=float(
            np.max(np.abs(mean - (pb.product_energies + eps)))
        ),
        max_var_identity_dev=float(np.max(np.abs(var - dsq))),
        max_delta_sq_formula_dev=formula_dev,
    )


def skewness_by_groups(
    n_sites: int, n_groups: int, model: IsingModel
) -> tuple[SkewnessRow, ...]:
    """Worst w_a skewness kappa_3 / kappa_2^(3/2) for 2..n_groups groups of
    n_sites // n_groups sites, over the products of group Fock states (see
    quadratic.py); w_a, the energy distribution of a product state, does not
    depend on beta. Raises ValueError where those states are not unique."""
    group_size = _group_size(n_sites, n_groups)
    # the zero width is relative to the junction's Jx^2 + Jy^2
    zero_width = _ZERO_WIDTH * (model.jx * model.jx + model.jy * model.jy)
    modes, cumulants = product_cumulants(n_groups, group_size, model)
    rows = []
    for count, (_, k2, k3) in enumerate(cumulants, start=2):
        # a zero-width state has no shape; a non-finite cumulant is an
        # overflow, which the row must carry rather than mask
        keep = (k2 > zero_width) | ~np.isfinite(k2) | ~np.isfinite(k3)
        skew = k3[keep] / k2[keep] / np.sqrt(k2[keep])
        worst = float(np.max(np.abs(skew), initial=0.0))
        rows.append(SkewnessRow(count, group_size * count, worst))
    # checked after the rows, so an overflow is reported as such
    gaps = np.diff(modes, prepend=-modes[0])  # 2 Lambda_0, then neighbours
    if (model.jx or model.jy) and np.min(gaps) <= _MODE_GAP * modes[-1]:
        raise ValueError(
            "gaussian check is undefined: a group's mode energies are degenerate"
            " (K = 0, a coupling too weak to split the modes, or a strong-coupling"
            " edge mode), so its Fock states are not unique"
        )
    return tuple(rows)


def rho_diag_check(
    n_sites: int, n_groups: int, model: IsingModel, beta: float
) -> RhoDiagReport:
    """Gaussian-weight formula for ln <a|rho|a> against the exact diagonal,
    over the product states of nonzero interaction width.

    beta is B/T, and a width is zero below _ZERO_WIDTH times the junction's
    Jx^2 + Jy^2. Raises ValueError when no product state has a nonzero
    width, and OverflowError when an exact diagonal entry underflows to 0
    (large beta), since its logarithm is then not finite.
    """
    group_size = _group_size(n_sites, n_groups)
    zero_width = _ZERO_WIDTH * (model.jx * model.jx + model.jy * model.jy)
    pb = product_basis(n_sites, group_size, model)
    eps, dsq = interaction_statistics(pb)
    # a non-finite statistic is an overflow, which the report must carry
    states = np.flatnonzero((dsq > zero_width) | ~np.isfinite(dsq) | ~np.isfinite(eps))
    if not states.size:
        raise ValueError(
            "rho check is undefined: no product state has a nonzero interaction"
            " width (Jx = Jy = 0, or couplings too weak to resolve)"
        )
    sys = DenseThermalSystem.solve(build_hamiltonian(n_sites, model))
    log_z, weights = thermal_state(sys, beta)
    dense = rho_product_diag(sys, pb, weights)
    e0 = float(np.min(sys.eigenvalues))
    e1 = float(np.max(sys.eigenvalues))
    exact = dense[states]
    if not np.all(exact):
        a = states[exact == 0.0][0]
        raise OverflowError(
            f"exact <a|rho|a> underflows to 0 at product state a={a}"
            f" (beta={beta!r}); its logarithm is not finite"
        )
    e_a, eps, dsq = pb.product_energies[states], eps[states], dsq[states]
    # statistics the dense arithmetic overflowed carry a nan into the report
    finite = np.isfinite(e_a) & np.isfinite(eps) & np.isfinite(dsq)
    predicted = np.full(states.size, math.nan)
    stats = GroupStatistics(e_a[finite], eps[finite], dsq[finite], e0, e1)
    predicted[finite] = rho_diag(stats, beta, log_z)
    # math.log per state, as the formula side takes its logarithms
    deviations = np.abs(predicted - [math.log(p) for p in exact.tolist()])
    # np.max, unlike max(), carries a nan deviation into the report
    worst = float(np.max(deviations, initial=0.0))
    return RhoDiagReport(n_sites, n_groups, worst, worst / (n_groups - 1))
