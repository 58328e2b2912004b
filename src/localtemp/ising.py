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

Two caches keep repeated work out of temperature sweeps: the gapped k-grid
and its dispersion are built once per model (read-only arrays), and the
ground energy is computed once per model.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .canonical import AccuracyParams, CriterionReport, build_report
from .specfun import QuadratureError, QuadratureSpec, integrate, min_integer_above

__all__ = [
    "CouplingCase",
    "IsingModel",
    "UnsupportedCouplingError",
    "dispersion_periodic",
    "group_k_values",
    "occupation_patterns",
    "mean_energy_per_site",
    "ground_energy_per_site",
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


def dispersion_periodic(k: float, model: IsingModel) -> float:
    """Quasiparticle energy of the periodic chain at wavenumber k."""
    c = 1.0 - model.k_param * math.cos(k)
    s = model.l_param * math.sin(k)
    return 2.0 * model.b_field * math.hypot(c, s)


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
    c = 1.0 - model.k_param * np.cos(k)
    s = model.l_param * np.sin(k)
    w = 2.0 * model.b_field * np.hypot(c, s)
    k.flags.writeable = False
    w.flags.writeable = False
    return k, w


def _ladder_integral(f, k0: float, k_end: float, delta: float) -> float:
    """Integrate f over [k0, k_end] with cells growing geometrically from k0.

    delta is the width of the innermost cell (the scale on which f varies
    next to k0); each further cell doubles. Every cell goes through the
    adaptive rule with a tolerance split evenly after a midpoint pre-pass.
    A delta that is not positive and finite raises QuadratureError: a zero
    width (the node slope overflowed) never reaches k_end, and an infinite
    one means the thermal scale at the node was lost.
    """
    if not 0.0 < delta < math.inf:
        raise QuadratureError(
            f"ladder cell width {delta!r} is not positive and finite"
        )
    length = abs(k_end - k0)
    if length == 0.0:
        return 0.0
    sign = 1.0 if k_end > k0 else -1.0
    offsets = [0.0]
    width = min(delta, length)
    while offsets[-1] < length:
        offsets.append(min(offsets[-1] + width, length))
        width *= 2.0
    cells = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        a, b = k0 + sign * lo, k0 + sign * hi
        cells.append((min(a, b), max(a, b)))
    rough = sum(abs(f(0.5 * (a + b))) * (b - a) for a, b in cells)
    # relative target: at low T the integral itself is ~ T^2 and a fixed
    # absolute tolerance would swamp it
    tol = max(1e-14, 1e-10 * rough) / len(cells)
    spec = QuadratureSpec(abs_tol=tol, max_subdivisions=4096)
    return sum(integrate(f, a, b, spec) for a, b in cells)


def mean_energy_per_site(beta_b: float, model: IsingModel) -> float:
    """Thermal energy per site above the ground state, (1/2pi) int omega f(omega).

    beta_b is B/T. Gapped spectra use a 4096-panel trapezoid sum over
    [0, pi]; a gapless spectrum concentrates the integrand on a thermal
    width around the node, resolved by the cell ladder.
    """
    if not beta_b > 0:
        raise ValueError("beta_b must be positive")
    beta = beta_b / model.b_field

    node = _gap_node(model)
    if node is None:
        k, w = _trapezoid_grid(model)
        x = np.minimum(beta * w, _EXP_CLIP)
        return float(np.trapezoid(w / (np.exp(x) + 1.0), k) / math.pi)

    k0, kind, scale = node
    if kind == "linear":
        delta = 1.0 / (beta * scale)
    else:
        delta = 1.0 / math.sqrt(beta * scale / 2.0)

    # dispersion_periodic written out with locals: the ladder calls this
    # about a thousand times per point, and the expressions (hence every bit
    # of the result) are the same
    cos, sin, hypot, exp = math.cos, math.sin, math.hypot, math.exp
    k_param, l_param, two_b = model.k_param, model.l_param, 2.0 * model.b_field

    def integrand(k: float) -> float:
        w = two_b * hypot(1.0 - k_param * cos(k), l_param * sin(k))
        x = beta * w
        if x > _EXP_CLIP:
            x = _EXP_CLIP
        return w / (exp(x) + 1.0)

    total = _ladder_integral(integrand, k0, 0.0, delta)
    total += _ladder_integral(integrand, k0, math.pi, delta)
    return total / math.pi


@functools.lru_cache(maxsize=128)
def ground_energy_per_site(model: IsingModel) -> float:
    """Ground energy per site, -(1/2pi) int_0^pi omega_k dk (doubled by parity)."""
    node = _gap_node(model)
    if node is None:
        k, w = _trapezoid_grid(model)
        return float(-np.trapezoid(w, k) / (2.0 * math.pi))
    # split at the node: omega has a kink (or flat touch) there
    k0 = node[0]
    spec = QuadratureSpec(abs_tol=1e-12, max_subdivisions=4096)
    f = lambda k: dispersion_periodic(k, model)
    total = 0.0
    if k0 > 0.0:
        total += integrate(f, 0.0, k0, spec)
    if k0 < math.pi:
        total += integrate(f, k0, math.pi, spec)
    return -total / (2.0 * math.pi)


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
def cond_const_bound(t_over_b: float, acc: AccuracyParams, model: IsingModel) -> float:
    """Raw constant-condition bound beta [Delta^2]_max / (e_min - e_0).

    e_min is the lower edge of the thermal window per site: the attainable
    group minimum or e_bar/alpha above the ground energy, whichever is
    higher. The denominator is positive at every t > 0.
    """
    if not t_over_b > 0:
        raise ValueError("t_over_b must be positive")
    beta = 1.0 / (t_over_b * model.b_field)
    e0 = ground_energy_per_site(model)
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


def nmin_cond_const(t_over_b: float, acc: AccuracyParams, model: IsingModel) -> int:
    """Smallest group size satisfying the constant condition."""
    return min_integer_above(cond_const_bound(t_over_b, acc, model))


def nmin_linearity(t_over_b: float, acc: AccuracyParams, model: IsingModel) -> int:
    """Smallest group size keeping the exponent slope below delta."""
    return min_integer_above(linearity_bound(t_over_b, acc, model))


def nmin_isotropic_weak(t_over_b: float, model: IsingModel) -> int:
    return min_integer_above(isotropic_weak_bound(t_over_b, model))


def nmin(t_over_b: float, acc: AccuracyParams, model: IsingModel) -> CriterionReport:
    """Dispatch the criteria by coupling case and combine into a report.

    ConstWidth relies on the constant condition alone (the linearity bound
    is computed anyway; its numerator vanishes so it yields 1). Isotropic
    coupling below |K| = 1 swaps in the sharper all-states bound. General
    couplings are rejected.
    """
    case = model.coupling_case
    if case is CouplingCase.GENERAL:
        raise UnsupportedCouplingError(
            "no criterion covers K and L both nonzero with K != +-L"
        )
    if case is CouplingCase.ISOTROPIC and abs(model.k_param) < 1.0:
        n_cond = nmin_isotropic_weak(t_over_b, model)
    else:
        n_cond = nmin_cond_const(t_over_b, acc, model)
    n_lin = nmin_linearity(t_over_b, acc, model)
    n_min = max(n_cond, n_lin)
    c1 = acc.delta * linearity_bound(t_over_b, acc, model) / n_min
    return build_report(n_cond, n_lin, c1, acc)
