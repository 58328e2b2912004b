"""Minimal group sizes for local temperature in transverse-field Ising chains.

The chain couples spins through sigma^x sigma^x (strength J_x) and
sigma^y sigma^y (J_y) in a field B > 0, summarized by the dimensionless

  K = (J_x + J_y) / 2B,   L = (J_x - J_y) / 2B.

After the fermionization the periodic chain has quasiparticle energies

  omega_k = 2B sqrt((1 - K cos k)^2 + (L sin k)^2),

while an open group of n spins carries modes at k = pi l / (n + 1) with the
signed energies 2B (1 - K cos k). A product state assigns each mode a bit
n_k, 1 meaning occupied: entry l - 1 along the last axis of a bit array is
mode l, and the functions below broadcast over leading axes. The group
energy is 2B sum_k (1 - K cos k)(n_k - 1/2) and the junction interaction to
the next group has width

  Delta^2 = B^2 (K^2 + L^2) / 2 - 2 B^2 (K^2 - L^2) S_mu S_{mu+1},
  S = (2/(n+1)) sum_k sin^2(k) (n_k - 1/2),

which stays inside [B^2 min(K^2, L^2), B^2 max(K^2, L^2)] for every
occupation pair. The two group-size criteria are evaluated per coupling
case: equal |K| and |L| make the width constant (only the constant condition
matters), K = 0 and L = 0 use the generic pair of bounds, and mixed
couplings with K != +-L are rejected since the width then depends on the
state in a way none of the closed-form bounds covers.

Temperatures enter as t = T/B. Thermal k-integrals are done by uniform
trapezoid sums when the dispersion is gapped (spectrally accurate for smooth
periodic integrands) and by a geometric cell ladder anchored at the gapless
point otherwise; at low T the Fermi weight is supported on a width ~ T/|w'|
that uniform grids miss entirely.

Temperature sweeps pass a whole grid to mean_energy_per_site: the cell
ladders of _GRID_BATCH points go through one quadrature pass, while the
gapped trapezoid runs point by point. Two caches keep repeated work out of
sweeps: the gapped k-grid and its dispersion are built once per model
(read-only arrays), and the ground energy is computed once per model.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .canonical import AccuracyParams, CriterionReport, build_report
from .specfun import (
    QuadratureError,
    integrate,
    min_integer_above,
    sequential_sums,
)

__all__ = [
    "CouplingCase",
    "IsingModel",
    "UnsupportedCouplingError",
    "dispersion_periodic",
    "group_k_values",
    "occupation_patterns",
    "mean_energy_per_site",
    "ground_energy_per_site",
    "uses_mean_energy",
    "group_energy",
    "delta_sq",
    "e_mu_extremes",
    "delta_sq_extremes",
    "cond_const_bound",
    "linearity_bound",
    "isotropic_weak_bound",
    "nmin_cond_const",
    "nmin_linearity",
    "nmin_isotropic_weak",
    "nmin",
]

_CASE_TOL = 1e-12
_TRAPEZOID_PANELS = 4096
# beta * omega beyond this underflows the Fermi factor to < 1e-304
_EXP_CLIP = 700.0
# Grid points whose ladder cells (~25-70 each) one quadrature pass refines
# together; bounds the pass's panel arrays on long sweeps.
_GRID_BATCH = 16


class UnsupportedCouplingError(ValueError):
    """No closed-form criterion exists for this coupling combination."""


class CouplingCase(enum.Enum):
    CONST_WIDTH = "ConstWidth"
    FULLY_ANISOTROPIC = "FullyAnisotropic"
    ISOTROPIC = "Isotropic"
    GENERAL = "General"


def _classify(k_param: float, l_param: float) -> CouplingCase:
    if abs(abs(k_param) - abs(l_param)) <= _CASE_TOL:
        return CouplingCase.CONST_WIDTH
    if abs(k_param) <= _CASE_TOL:
        return CouplingCase.FULLY_ANISOTROPIC
    if abs(l_param) <= _CASE_TOL:
        return CouplingCase.ISOTROPIC
    return CouplingCase.GENERAL


@dataclass(frozen=True)
class IsingModel:
    """Field and couplings of one chain; build via from_kl or from_couplings."""

    b_field: float
    jx: float
    jy: float
    k_param: float
    l_param: float
    coupling_case: CouplingCase

    def __post_init__(self) -> None:
        for name in ("b_field", "jx", "jy", "k_param", "l_param"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.b_field > 0:
            raise ValueError("b_field must be positive")
        scale = max(1.0, abs(self.k_param), abs(self.l_param))
        k_check = (self.jx + self.jy) / (2.0 * self.b_field)
        l_check = (self.jx - self.jy) / (2.0 * self.b_field)
        if abs(k_check - self.k_param) > 1e-9 * scale or abs(
            l_check - self.l_param
        ) > 1e-9 * scale:
            raise ValueError("k_param/l_param inconsistent with jx, jy")
        if self.coupling_case is not _classify(self.k_param, self.l_param):
            raise ValueError("coupling_case inconsistent with k_param/l_param")

    @classmethod
    def from_kl(cls, b_field: float, k_param: float, l_param: float) -> "IsingModel":
        return cls(
            b_field=b_field,
            jx=b_field * (k_param + l_param),
            jy=b_field * (k_param - l_param),
            k_param=k_param,
            l_param=l_param,
            coupling_case=_classify(k_param, l_param),
        )

    @classmethod
    def from_couplings(cls, b_field: float, jx: float, jy: float) -> "IsingModel":
        if not b_field > 0:
            raise ValueError("b_field must be positive")
        k_param = (jx + jy) / (2.0 * b_field)
        l_param = (jx - jy) / (2.0 * b_field)
        return cls(
            b_field=b_field,
            jx=jx,
            jy=jy,
            k_param=k_param,
            l_param=l_param,
            coupling_case=_classify(k_param, l_param),
        )


def dispersion_periodic(k, model: IsingModel):
    """Quasiparticle energy of the periodic chain at wavenumber k (a float
    or an array)."""
    c = 1.0 - model.k_param * np.cos(k)
    if model.l_param == 0.0:
        # hypot(c, 0) is |c| exactly; skipping sin and hypot saves 6-9% of
        # a `sweep` benchmark round (2-vCPU Xeon VM), whose gapless ladders
        # at L = 0 call this most
        return 2.0 * model.b_field * np.abs(c)
    s = model.l_param * np.sin(k)
    return 2.0 * model.b_field * np.hypot(c, s)


def group_k_values(n: int) -> np.ndarray:
    """Open-group mode wavenumbers pi l / (n+1), l = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.pi * np.arange(1, n + 1) / (n + 1)


# ---------------------------------------------------------------------------
# thermal k-integrals


def _gap_node(model: IsingModel) -> tuple[float, str, float] | None:
    """Gapless point of omega_k on [0, pi], if any.

    Returns (k0, kind, scale) with kind "linear" (scale = |d omega/dk|) or
    "quadratic" (scale = d^2 omega/dk^2); None when the spectrum is gapped.
    """
    K, L, B = model.k_param, model.l_param, model.b_field
    if abs(L) <= _CASE_TOL:
        if abs(abs(K) - 1.0) <= _CASE_TOL:
            return (0.0 if K > 0 else math.pi, "quadratic", 2.0 * B)
        if abs(K) > 1.0:
            return (math.acos(1.0 / K), "linear", 2.0 * B * math.sqrt(K * K - 1.0))
        return None
    if abs(K - 1.0) <= _CASE_TOL:
        return (0.0, "linear", 2.0 * B * abs(L))
    if abs(K + 1.0) <= _CASE_TOL:
        return (math.pi, "linear", 2.0 * B * abs(L))
    return None


@functools.lru_cache(maxsize=16)
def _trapezoid_grid(model: IsingModel) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes on [0, pi] and omega_k there, shared by every
    temperature of one model; both arrays are read-only."""
    k = np.linspace(0.0, math.pi, _TRAPEZOID_PANELS + 1)
    w = dispersion_periodic(k, model)
    k.flags.writeable = False
    w.flags.writeable = False
    return k, w


def _ladder_cells(k0: float, k_end: float, delta: np.ndarray):
    """Cells (a, b, p) of the ladders from k0 toward k_end, one ladder per
    entry p of delta: cell widths delta[p], 2 delta[p], 4 delta[p], ... with
    the last one cut at k_end. The cells come ladder by ladder, innermost
    first."""
    length = abs(k_end - k0)
    if length == 0.0:
        return delta[:0], delta[:0], np.zeros(0, dtype=np.intp)
    width = np.minimum(delta, length)
    # enough doublings for the narrowest ladder (with a spare one); the
    # cumulative sum adds the widths one after another, as a loop would
    cells = int(np.ceil(np.log2(length) - np.log2(width.min()))) + 2
    with np.errstate(over="ignore"):  # a ladder done early may overflow
        steps = np.ldexp(width[:, None], np.arange(-1, cells))
    steps[:, 0] = 0.0
    edges = np.cumsum(steps, axis=1)
    real = edges[:, :-1] < length
    edges = np.minimum(edges, length)
    sign = 1.0 if k_end > k0 else -1.0
    a, b = k0 + sign * edges[:, :-1][real], k0 + sign * edges[:, 1:][real]
    return np.minimum(a, b), np.maximum(a, b), np.nonzero(real)[0]


def _ladder_integral(f, k0: float, ends, delta) -> np.ndarray:
    """Integrals of f from k0 to each k of ends (columns), with cells growing
    geometrically from k0, for every width of delta (rows).

    delta[p] is the width of the innermost cell of the ladders of point p
    (the scale on which f varies next to k0); each further cell doubles. f
    takes a pair (k, p). All cells go through one adaptive pass, each ladder
    with a tolerance split evenly over its cells after a midpoint pre-pass.
    A delta that is not positive and finite raises QuadratureError: a zero
    width (the node slope overflowed) never reaches k_end, and an infinite
    one means the thermal scale at the node was lost.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    bad = ~((0.0 < delta) & (delta < math.inf))
    if bad.any():
        raise QuadratureError(f"ladder cell width {float(delta[bad][0])!r}"
                              " is not positive and finite")
    # ladder p * len(ends) + s runs from k0 toward ends[s] for point p
    cells = [_ladder_cells(k0, k_end, delta) for k_end in ends]
    a, b, ladder = (np.concatenate(part) for part in zip(*cells))
    ladder = ladder * len(ends) + np.repeat(range(len(ends)), [c[2].size for c in cells])
    order = np.argsort(ladder, kind="stable")
    a, b, ladder = a[order], b[order], ladder[order]
    point = ladder // len(ends)
    n = delta.size * len(ends)
    rough = sequential_sums(np.abs(f((0.5 * (a + b), point))) * (b - a), ladder, n)
    # relative target: at low T the integral itself is ~ T^2 and a fixed
    # absolute tolerance would swamp it; max(1e-14, .) as Python's max
    target = 1e-10 * rough[ladder]
    tol = np.where(target > 1e-14, target, 1e-14) / np.bincount(ladder)[ladder]
    cell = integrate(lambda kc: f((kc[0], point[kc[1]])), a, b, tol=tol, indexed=True)
    return sequential_sums(cell, ladder, n).reshape(delta.size, len(ends))


def _ladder_energy(beta: np.ndarray, node, model: IsingModel) -> np.ndarray:
    """Gapless mean_energy_per_site at the inverse temperatures beta."""
    k0, kind, scale = node
    thermal = beta * scale if kind == "linear" else np.sqrt(beta * scale / 2.0)
    if not thermal.all():
        # beta underflowed: the thermal width is lost, as 1/0 is in float math
        raise ZeroDivisionError("float division by zero")
    delta = 1.0 / thermal

    def integrand(k_point):
        # each abscissa comes with the grid point whose beta it needs
        k, point = k_point
        w = dispersion_periodic(k, model)
        return w / (np.exp(np.minimum(beta[point] * w, _EXP_CLIP)) + 1.0)

    ladders = _ladder_integral(integrand, k0, (0.0, math.pi), delta)
    return (ladders[:, 0] + ladders[:, 1]) / math.pi


def mean_energy_per_site(beta_b, model: IsingModel):
    """Thermal energy per site above the ground state, (1/2pi) int omega f(omega).

    beta_b is B/T: a float, or an array giving an array. Gapped spectra use
    a 4096-panel trapezoid sum over [0, pi]; a gapless spectrum concentrates
    the integrand on a thermal width around the node, resolved by the cell
    ladders.
    """
    betas = np.asarray(beta_b, dtype=float)
    if not (betas > 0).all():
        raise ValueError("beta_b must be positive")
    node = _gap_node(model)
    if node is None:
        k, w = _trapezoid_grid(model)
        energy = [
            np.trapezoid(w / (np.exp(np.minimum(b / model.b_field * w, _EXP_CLIP)) + 1.0), k)
            / math.pi
            for b in betas.ravel().tolist()
        ]
    else:
        # inf and nan stay silent, as in float arithmetic; the criteria name them
        with np.errstate(all="ignore"):
            beta = betas.ravel() / model.b_field
            energy = np.concatenate([
                _ladder_energy(beta[i:i + _GRID_BATCH], node, model)
                for i in range(0, beta.size, _GRID_BATCH)
            ])
    return float(energy[0]) if betas.ndim == 0 else np.asarray(energy)


@functools.lru_cache(maxsize=128)
def ground_energy_per_site(model: IsingModel) -> float:
    """Ground energy per site, -(1/2pi) int_0^pi omega_k dk (doubled by parity)."""
    node = _gap_node(model)
    if node is None:
        k, w = _trapezoid_grid(model)
        return float(-np.trapezoid(w, k) / (2.0 * math.pi))
    # split at the node: omega has a kink (or flat touch) there
    k0 = node[0]
    below, above = integrate(
        lambda k: dispersion_periodic(k, model), [0.0, k0], [k0, math.pi], tol=1e-12
    )
    return float(-(below + above) / (2.0 * math.pi))


def uses_mean_energy(model: IsingModel) -> bool:
    """Whether nmin reads the thermal energy e_bar of this model: the
    constant condition does; the all-states bound of isotropic coupling below
    |K| = 1 and the unsupported general case do not."""
    case = model.coupling_case
    if case is CouplingCase.GENERAL:
        return False
    return not (case is CouplingCase.ISOTROPIC and abs(model.k_param) < 1.0)


# ---------------------------------------------------------------------------
# group statistics


def occupation_patterns(n: int) -> np.ndarray:
    """All 2^n occupation bit arrays of an n-site group; row p holds the bits
    of p, lowest first."""
    return (np.arange(2**n)[:, None] >> np.arange(n)) & 1


def group_energy(bits, model: IsingModel):
    """Energy 2B sum_k (1 - K cos k)(n_k - 1/2) of open groups."""
    k = group_k_values(np.shape(bits)[-1])
    coeff = 2.0 * model.b_field * (1.0 - model.k_param * np.cos(k))
    return np.sum(coeff * (np.asarray(bits, dtype=float) - 0.5), axis=-1)


def _s_sum(bits):
    """S = (2/(n+1)) sum_k sin^2(k)(n_k - 1/2); lies in [-1/2, 1/2] exactly."""
    k = group_k_values(np.shape(bits)[-1])
    weight = np.sin(k) ** 2 * (np.asarray(bits, dtype=float) - 0.5)
    return 2.0 / (k.size + 1) * np.sum(weight, axis=-1)


def _squared_couplings(model: IsingModel) -> tuple[float, float, float]:
    """(B^2, K^2, L^2) of the junction width; a square that overflows raises
    an OverflowError naming its coupling."""
    squares = []
    couplings = (("B", model.b_field), ("K", model.k_param), ("L", model.l_param))
    for name, value in couplings:
        try:
            squares.append(value**2)
        except OverflowError:
            raise OverflowError(
                f"junction width overflows: {name}^2 at {name}={value!r}"
            ) from None
    return tuple(squares)


def delta_sq(bits_mu, bits_next, model: IsingModel):
    """Junction interaction width between neighbouring groups."""
    if np.shape(bits_mu)[-1] != np.shape(bits_next)[-1]:
        raise ValueError("groups must have equal size")
    b_sq, k_sq, l_sq = _squared_couplings(model)
    return 0.5 * b_sq * (k_sq + l_sq) - 2.0 * b_sq * (k_sq - l_sq) * _s_sum(
        bits_mu
    ) * _s_sum(bits_next)


def _extreme_coefficient(k_param: float) -> float:
    """Per-site bound on |group energy| over B: 1 for |K| <= 1, else
    (2/pi)(sqrt(K^2 - 1) + arcsin(1/|K|))."""
    a = abs(k_param)
    if a <= 1.0:
        return 1.0
    return 2.0 / math.pi * (math.sqrt(a * a - 1.0) + math.asin(1.0 / a))


def e_mu_extremes(model: IsingModel, n: int) -> tuple[float, float]:
    """Smallest and largest group energy attainable with n sites."""
    if n < 1:
        raise ValueError("n must be >= 1")
    bound = n * model.b_field * _extreme_coefficient(model.k_param)
    return (-bound, bound)


def delta_sq_extremes(model: IsingModel) -> tuple[float, float]:
    """Range of the junction width over all occupation pairs."""
    b_sq, k_sq, l_sq = _squared_couplings(model)
    return (b_sq * min(k_sq, l_sq), b_sq * max(k_sq, l_sq))


# ---------------------------------------------------------------------------
# criteria


def _underflow_is_overflow(bound):
    """Raise OverflowError, not ZeroDivisionError, from a raw bound whose
    divisor (t B, t (1 - |K|) or an energy gap) underflows to 0: the bound
    then exceeds every float, which min_integer_above reports the same way."""

    @functools.wraps(bound)
    def checked(t_over_b: float, *args):
        try:
            return bound(t_over_b, *args)
        except ZeroDivisionError:
            raise OverflowError(
                f"{bound.__name__} divides by a quantity that underflows to 0"
                f" at t_over_b={t_over_b!r}; the bound is not finite"
            ) from None

    return checked


@_underflow_is_overflow
def cond_const_bound(
    t_over_b: float, acc: AccuracyParams, model: IsingModel, e_bar: float | None = None
) -> float:
    """Raw constant-condition bound beta [Delta^2]_max / (e_min - e_0).

    e_min is the lower edge of the thermal window per site: the attainable
    group minimum or e_bar/alpha above the ground energy, whichever is
    higher. The denominator is positive at every t > 0. e_bar, when given,
    is mean_energy_per_site(1 / t_over_b, model) computed by the caller.
    """
    if not t_over_b > 0:
        raise ValueError("t_over_b must be positive")
    beta = 1.0 / (t_over_b * model.b_field)
    e0 = ground_energy_per_site(model)
    if e_bar is None:
        e_bar = mean_energy_per_site(1.0 / t_over_b, model)
    # e_min - e_0 computed without the cancellation e_min ~ e_0 at low T
    gap = max(e_mu_extremes(model, 1)[0] - e0, e_bar / acc.alpha)
    return beta * delta_sq_extremes(model)[1] / gap


@_underflow_is_overflow
def linearity_bound(t_over_b: float, acc: AccuracyParams, model: IsingModel) -> float:
    """Raw linearity bound (beta / 2 delta) ([D^2]_max - [D^2]_min) / e-span."""
    if not t_over_b > 0:
        raise ValueError("t_over_b must be positive")
    beta = 1.0 / (t_over_b * model.b_field)
    d_lo, d_hi = delta_sq_extremes(model)
    e_lo, e_hi = e_mu_extremes(model, 1)
    return beta / (2.0 * acc.delta) * (d_hi - d_lo) / (e_hi - e_lo)


@_underflow_is_overflow
def isotropic_weak_bound(t_over_b: float, model: IsingModel) -> float:
    """Raw bound 2 B beta K^2 / (1 - |K|) for isotropic coupling below the
    critical field ratio; needs no accuracy parameters because it covers
    every state but the ground state."""
    if not t_over_b > 0:
        raise ValueError("t_over_b must be positive")
    if abs(model.l_param) > _CASE_TOL:
        raise ValueError("isotropic bound needs L = 0")
    a = abs(model.k_param)
    if a >= 1.0:
        raise ValueError("isotropic bound needs |K| < 1")
    return 2.0 * model.k_param**2 / (t_over_b * (1.0 - a))


def nmin_cond_const(
    t_over_b: float, acc: AccuracyParams, model: IsingModel, e_bar: float | None = None
) -> int:
    """Smallest group size satisfying the constant condition."""
    return min_integer_above(cond_const_bound(t_over_b, acc, model, e_bar))


def nmin_linearity(t_over_b: float, acc: AccuracyParams, model: IsingModel) -> int:
    """Smallest group size keeping the exponent slope below delta."""
    return min_integer_above(linearity_bound(t_over_b, acc, model))


def nmin_isotropic_weak(t_over_b: float, model: IsingModel) -> int:
    return min_integer_above(isotropic_weak_bound(t_over_b, model))


def nmin(
    t_over_b: float, acc: AccuracyParams, model: IsingModel, e_bar: float | None = None
) -> CriterionReport:
    """Dispatch the criteria by coupling case and combine into a report.

    ConstWidth relies on the constant condition alone (the linearity bound
    is computed anyway; its numerator vanishes so it yields 1). Isotropic
    coupling below |K| = 1 swaps in the sharper all-states bound. General
    couplings are rejected. e_bar is passed on to the constant condition.
    """
    if model.coupling_case is CouplingCase.GENERAL:
        raise UnsupportedCouplingError(
            "no criterion covers K and L both nonzero with K != +-L"
        )
    if uses_mean_energy(model):
        n_cond = nmin_cond_const(t_over_b, acc, model, e_bar)
    else:
        n_cond = nmin_isotropic_weak(t_over_b, model)
    n_lin = nmin_linearity(t_over_b, acc, model)
    n_min = max(n_cond, n_lin)
    c1 = acc.delta * linearity_bound(t_over_b, acc, model) / n_min
    return build_report(n_cond, n_lin, c1, acc)
