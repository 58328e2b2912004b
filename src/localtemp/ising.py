"""Minimal group sizes for local temperature in transverse-field Ising chains.

The chain couples spins through sigma^x sigma^x (strength J_x) and
sigma^y sigma^y (J_y) in a field B > 0, summarized by the dimensionless

  K = (J_x + J_y) / 2B,   L = (J_x - J_y) / 2B.

H(B, K, L) = B H(1, K, L), so energies are in units of B, squared widths in
units of B^2, and temperatures enter as t = T/B. After the fermionization
the periodic chain has quasiparticle energies

  omega_k = 2 sqrt((1 - K cos k)^2 + (L sin k)^2),

while an open group of n spins carries modes at k = pi l / (n + 1) with the
signed energies 2 (1 - K cos k). A product state assigns each mode a bit
n_k, 1 meaning occupied: entry l - 1 along the last axis of a bit array is
mode l, and the functions below broadcast over leading axes. The group
energy is 2 sum_k (1 - K cos k)(n_k - 1/2) and the junction interaction to
the next group has width

  Delta^2 = (K^2 + L^2) / 2 - 2 (K^2 - L^2) S_mu S_{mu+1},
  S = (2/(n+1)) sum_k sin^2(k) (n_k - 1/2),

which stays inside [min(K^2, L^2), max(K^2, L^2)] for every
occupation pair. The two group-size criteria are evaluated per coupling
case: equal |K| and |L| make the width constant (only the constant condition
matters), K = 0 and L = 0 use the generic pair of bounds, and mixed
couplings with K != +-L are rejected since the width then depends on the
state in a way none of the closed-form bounds covers.

Thermal k-integrals are done by uniform trapezoid sums when the dispersion
is gapped (spectrally accurate for smooth periodic integrands) and by a
geometric cell ladder anchored at the gapless point otherwise; at low T the
Fermi weight is supported on a width ~ T/|w'| that uniform grids miss
entirely. A gapless ground energy per site is a
closed form (Lieb, Schultz and Mattis): the group minimum per site at L = 0,
and -(2/pi)(|L| + g) at K = +-1, with c = sqrt(|L^2 - 1|) and g = asinh(c)/c
above |L| = 1, atan2(c, |L|)/c below.

Temperature sweeps pass a whole grid to mean_energy_per_site, which takes
it in chunks (specfun.in_chunks): one quadrature pass for the cell ladders of
up to 64 points, or one 2-D trapezoid array for up to 16. The gapped k-grid
and its dispersion (read-only arrays), the ground energy, a gapped window
edge at |K| <= 1, the group minimum -extreme_coefficient per site and the
width range squared_couplings = (K^2, L^2) are computed once per model.

e_bar_can_bind is the one gate on e_bar, one answer per temperature: nmin
reads e_bar only in the constant condition, and only where a bound on it
divided by alpha can reach the window edge e_min - e_0 at the group minimum.
Elsewhere the edge is the window, and e_bar is passed as 0.0: the same max().
A gapped edge at |K| <= 1 is formed without the cancellation -1 - e_0.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .canonical import AccuracyParams, CriterionReport, build_report
from .specfun import QuadratureError, in_chunks, integrate, min_integer_above

__all__ = [
    "CouplingCase",
    "IsingModel",
    "UnsupportedCouplingError",
    "dispersion_periodic",
    "group_k_values",
    "occupation_patterns",
    "mean_energy_per_site",
    "ground_energy_per_site",
    "e_bar_can_bind",
    "group_energy",
    "delta_sq",
    "cond_const_bound",
    "linearity_bound",
    "isotropic_weak_bound",
    "nmin",
]

_CASE_TOL = 1e-12
_TRAPEZOID_PANELS = 4096
# beta * omega beyond this underflows the Fermi factor to < 1e-304
_EXP_CLIP = 700.0
_TRAPEZOID_ROWS = 16  # temperatures per 2-D trapezoid pass: 16 x 4097 floats, 0.5 MB


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# the trapezoid nodes on [0, pi], their cos and sin and the panel widths, the
# same for every gapped model: built once per process, read-only
_K_NODES = _read_only(np.linspace(0.0, math.pi, _TRAPEZOID_PANELS + 1))
_COS_K, _SIN_K, _DK = (_read_only(f(_K_NODES)) for f in (np.cos, np.sin, np.diff))


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
    """Couplings K, L of one chain, in units of the field B; Jx = K + L,
    Jy = K - L, the coupling case, the junction width range (K^2, L^2) and
    the group-energy bound per site are derived, the last three once per
    model. from_couplings builds one from Jx, Jy in a field B."""

    k_param: float
    l_param: float

    def __post_init__(self) -> None:
        for name in ("jx", "jy", "k_param", "l_param"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    @classmethod
    def from_couplings(cls, b_field: float, jx: float, jy: float) -> "IsingModel":
        if not b_field > 0:
            raise ValueError("b_field must be positive")
        if b_field == math.inf:
            raise ValueError(f"b_field must be finite, got {b_field!r}")
        k_param, l_param = (jx + jy) / (2.0 * b_field), (jx - jy) / (2.0 * b_field)
        # a non-finite input is invalid input, which __post_init__ names
        if math.isfinite(jx) and math.isfinite(jy):
            derived = (("K = (jx + jy)/2B", k_param), ("L = (jx - jy)/2B", l_param),
                       ("jx/B = K + L", k_param + l_param),
                       ("jy/B = K - L", k_param - l_param))
            for name, value in derived:
                if not math.isfinite(value):
                    raise OverflowError(f"{name} overflows at jx={jx!r}, jy={jy!r},"
                                        f" B={b_field!r}")
        return cls(k_param, l_param)

    @property
    def jx(self) -> float:
        return self.k_param + self.l_param

    @property
    def jy(self) -> float:
        return self.k_param - self.l_param

    @functools.cached_property
    def coupling_case(self) -> CouplingCase:
        return _classify(self.k_param, self.l_param)

    @functools.cached_property
    def squared_couplings(self) -> tuple[float, float]:
        """(K^2, L^2), the ends of the junction width's range; an overflowing
        square raises OverflowError."""
        for name, value in (("K", self.k_param), ("L", self.l_param)):
            if value * value == math.inf:
                raise OverflowError(f"junction width overflows: {name}^2 at {name}={value!r}")
        return self.k_param**2, self.l_param**2

    @functools.cached_property
    def extreme_coefficient(self) -> float:
        """Per-site bound on |group energy|: 1 for |K| <= 1, else
        (2/pi)(sqrt(K^2 - 1) + arcsin(1/|K|))."""
        a = abs(self.k_param)
        if a <= 1.0:
            return 1.0
        return 2.0 / math.pi * (math.sqrt(a * a - 1.0) + math.asin(1.0 / a))


def dispersion_periodic(k, model: IsingModel):
    """Quasiparticle energy of the periodic chain at wavenumber k (a float
    or an array), computed in one buffer."""
    c = np.cos(k, out=np.empty(np.shape(k)))
    # hypot(c, 0) is |c| exactly; skipping sin and hypot saves 6-9% of a `sweep`
    # benchmark round (2-vCPU Xeon VM), whose gapless ladders at L = 0 call this most
    c = _omega(c, None if model.l_param == 0.0 else np.sin(k), model)
    return c if c.ndim else c[()]


def _omega(c: np.ndarray, sin_k, model: IsingModel) -> np.ndarray:
    """omega_k from c = cos k, written over c, and sin_k = sin k (read only
    where L != 0)."""
    np.subtract(1.0, np.multiply(c, model.k_param, out=c), out=c)
    if model.l_param == 0.0:
        np.abs(c, out=c)
    else:
        np.hypot(c, model.l_param * sin_k, out=c)
    c *= 2.0
    return c


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
    K, L = model.k_param, model.l_param
    if abs(L) <= _CASE_TOL:
        if abs(abs(K) - 1.0) <= _CASE_TOL:
            return (0.0 if K > 0 else math.pi, "quadratic", 2.0)
        if abs(K) > 1.0:
            return (math.acos(1.0 / K), "linear", 2.0 * math.sqrt(K * K - 1.0))
        return None
    if abs(K - 1.0) <= _CASE_TOL:
        return (0.0, "linear", 2.0 * abs(L))
    if abs(K + 1.0) <= _CASE_TOL:
        return (math.pi, "linear", 2.0 * abs(L))
    return None


@functools.lru_cache(maxsize=16)
def _trapezoid_grid(model: IsingModel) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes on [0, pi] (shared by every model) and omega_k there
    (by every temperature of one model); both arrays are read-only. An omega
    beyond the float range is inf, silently: the criteria name the coupling
    (a junction width L^2 that overflows first)."""
    with np.errstate(over="ignore"):
        return _K_NODES, _read_only(_omega(_COS_K.copy(), _SIN_K, model))


def _ladder_cells(k0: float, k_end: float, delta: np.ndarray):
    """Cells (a, b, p) of the ladders from k0 toward k_end, one ladder per
    entry p of delta: cell widths delta[p], 2 delta[p], 4 delta[p], ... with
    the last one cut at k_end. The cells come ladder by ladder, innermost
    first."""
    length = abs(k_end - k0)
    if length == 0.0:
        return delta[:0], delta[:0], np.zeros(0, dtype=np.intp)
    width = np.minimum(delta, length)
    # enough doublings for the narrowest ladder (with a spare one; two with
    # no ladder at all); the cumulative sum adds the widths one after
    # another, as a loop would
    cells = int(np.ceil(np.log2(length) - np.log2(width.min(initial=length)))) + 2
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
    A delta that is not positive (zero when the node slope overflowed, or
    nan) raises QuadratureError, as its ladder never reaches k_end. An
    infinite delta (beta times the slope underflowed, far above the band) is
    one cell: the beta -> 0 limit.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    bad = ~(delta > 0.0)
    if bad.any():
        raise QuadratureError(f"ladder cell width {float(delta[bad][0])!r}"
                              " is not positive and finite")
    # ladder p * len(ends) + s runs from k0 toward ends[s] for point p
    cells = [_ladder_cells(k0, k_end, delta) for k_end in ends]
    a, b, ladder = (np.concatenate(part) for part in zip(*cells))
    ladder = ladder * len(ends) + np.repeat(range(len(ends)), [c[2].size for c in cells])
    point = ladder // len(ends)
    n = delta.size * len(ends)
    # a weighted bincount adds in array order, each ladder innermost cell first
    rough = np.bincount(ladder, np.abs(f((0.5 * (a + b), point))) * (b - a), n)
    # relative target: at low T the integral itself is ~ T^2 and a fixed
    # absolute tolerance would swamp it; max(1e-14, .) as Python's max
    target = 1e-10 * rough[ladder]
    tol = np.where(target > 1e-14, target, 1e-14) / np.bincount(ladder)[ladder]
    cell = integrate(lambda kc: f((kc[0], point[kc[1]])), a, b, tol=tol, indexed=True)
    return np.bincount(ladder, cell, n).reshape(delta.size, len(ends))


def _trapezoid_energy(beta, w, dk, y, s) -> np.ndarray:
    """Gapped mean_energy_per_site at beta: a trapezoid sum per row, in the first
    rows of the buffers y (per node) and s (per panel) that all chunks reuse."""
    y, s = y[:beta.size], s[:beta.size]
    np.multiply(beta[:, None], w, out=y)
    np.exp(np.minimum(y, _EXP_CLIP, out=y), out=y)
    np.divide(w, np.add(y, 1.0, out=y), out=y)
    # np.trapezoid's (dk (y[1:] + y[:-1]) / 2).sum(), the same operations
    np.multiply(np.add(y[:, 1:], y[:, :-1], out=s), dk, out=s)
    return np.add.reduce(np.divide(s, 2.0, out=s), axis=-1) / math.pi


def _ladder_energy(beta: np.ndarray, node, model: IsingModel) -> np.ndarray:
    """Gapless mean_energy_per_site at the inverse temperatures beta."""
    k0, kind, scale = node
    thermal = beta * scale if kind == "linear" else np.sqrt(beta * scale / 2.0)
    delta = 1.0 / thermal

    def integrand(k_point):
        # each column of abscissae comes with the grid point whose beta it needs
        k, point = k_point
        w = dispersion_periodic(k, model)
        y = np.multiply(beta[point], w)
        np.exp(np.minimum(y, _EXP_CLIP, out=y), out=y)
        return np.divide(w, np.add(y, 1.0, out=y), out=y)

    ladders = _ladder_integral(integrand, k0, (0.0, math.pi), delta)
    return (ladders[:, 0] + ladders[:, 1]) / math.pi


def mean_energy_per_site(beta_b, model: IsingModel):
    """Thermal energy per site above the ground state, (1/2pi) int omega f(omega).

    beta_b is B/T = 1/t: a float, or an array giving an array. Gapped
    spectra use a 4096-panel trapezoid sum over [0, pi]; a gapless spectrum
    concentrates the integrand on a thermal width around the node, resolved
    by the cell ladders.
    """
    betas = np.asarray(beta_b, dtype=float)
    if not (betas > 0).all():
        raise ValueError("beta_b must be positive")
    # inf and nan stay silent, as in float arithmetic; the criteria name them
    with np.errstate(all="ignore"):
        beta = betas.ravel()
        if (node := _gap_node(model)) is None:
            k, w = _trapezoid_grid(model)
            rows = min(beta.size, _TRAPEZOID_ROWS)  # the largest chunk
            y, s = np.empty((rows, k.size)), np.empty((rows, k.size - 1))
            energy = in_chunks(_trapezoid_energy, beta, w, _DK, y, s, size=_TRAPEZOID_ROWS)
        else:
            energy = in_chunks(_ladder_energy, beta, node, model)
    return float(energy[0]) if betas.ndim == 0 else energy


@functools.lru_cache(maxsize=128)
def ground_energy_per_site(model: IsingModel) -> float:
    """Ground energy per site, -(1/2pi) int_0^pi omega_k dk (doubled by parity):
    a trapezoid sum if gapped. At L = 0 the integral of |1 - K cos k| is pi times
    model.extreme_coefficient; at K = +-1, u = cos(k/2) makes it elementary, and
    atan2 keeps the digits that asin(c) loses at small |L|."""
    if _gap_node(model) is None:
        k, w = _trapezoid_grid(model)
        with np.errstate(over="ignore"):  # as in _trapezoid_grid
            return float(-np.trapezoid(w, k) / (2.0 * math.pi))
    if abs(model.l_param) <= _CASE_TOL:
        return -model.extreme_coefficient
    a = abs(model.l_param)
    c = math.sqrt(abs(a - 1.0)) * math.sqrt(a + 1.0)  # no overflow of a^2
    g = 1.0 if c == 0.0 else (math.asinh(c) if a > 1.0 else math.atan2(c, a)) / c
    return -2.0 / math.pi * (a + g)


@functools.lru_cache(maxsize=16)
def _gapped_window_edge(model: IsingModel) -> float:
    """e_min - e_0 of a gapped chain at |K| <= 1, where e_min = -1 is
    -(1/pi) int_0^pi (1 - K cos k) dk: (1/2pi) int_0^pi (omega - m) dk with
    m = 2 (1 - K cos k) >= 0, summed on the trapezoid grid as
    ls (ls / ((omega + m) / 4)) with ls = L sin k, which does not cancel.
    -1 - e_0 rounds an edge below e_0's roundoff to 0 (K = L = 1e-9:
    2.5e-19). As omega >= 2 |ls|, the second factor is at most 2 in size, so
    a term overflows only from |L| ~ 9e307, far past the overflow of the
    junction width L^2 that the criteria name, and an omega that overflowed
    gives 0; the edge is then inf, silently."""
    k, w = _trapezoid_grid(model)
    ls = model.l_param * _SIN_K
    with np.errstate(over="ignore"):
        lift = ls * (ls / (0.25 * (w + 2.0 * (1.0 - model.k_param * _COS_K))))
        return float(np.trapezoid(lift, k) / (2.0 * math.pi))


def _window_edge(model: IsingModel) -> float:
    """The window edge e_min - e_0 at the group minimum."""
    if abs(model.k_param) <= 1.0 and _gap_node(model) is None:
        return _gapped_window_edge(model)
    return -model.extreme_coefficient - ground_energy_per_site(model)


def _e_bar_reach(model: IsingModel, beta: np.ndarray) -> np.ndarray:
    """The bound on mean_energy_per_site at each entry of beta that
    e_bar_can_bind describes."""
    reach = math.hypot(1.0 + abs(model.k_param), model.l_param)
    if _gap_node(model) is not None:
        return np.full(beta.shape, reach)
    w = _trapezoid_grid(model)[1]
    w_min, w_max = float(w.min()), float(w.max())
    with np.errstate(all="ignore"):  # nan and inf beta keep reach
        x = beta * w_min
        cold = np.maximum(w_min * np.exp(-np.minimum(x, _EXP_CLIP)),
                          w_max * math.exp(-_EXP_CLIP))
    return np.where(x >= 1.0, cold, reach)


def _reaches(edge: float, model: IsingModel, acc: AccuracyParams, beta):
    """Whether e_bar / alpha at beta (a float, or an array giving an array)
    can reach the window edge (nan can). The bound never exceeds its hot
    value hypot(1 + |K|, L), so where that falls short no beta is looked at."""
    def short(reach):
        return reach * (1.0 + 1e-9) / acc.alpha < edge
    if short(math.hypot(1.0 + abs(model.k_param), model.l_param)):
        return np.zeros(np.shape(beta), dtype=bool)[()]
    return ~short(_e_bar_reach(model, np.asarray(beta, dtype=float)))


def _uses_mean_energy(model: IsingModel) -> bool:
    """Whether nmin reads the thermal energy e_bar of this model: the
    constant condition does; the all-states bound of isotropic coupling below
    |K| = 1 and the unsupported general case do not."""
    case = model.coupling_case
    if case is CouplingCase.GENERAL:
        return False
    return not (case is CouplingCase.ISOTROPIC and abs(model.k_param) < 1.0)


def e_bar_can_bind(model: IsingModel, acc: AccuracyParams, beta_b=0.0):
    """Whether nmin at acc reads e_bar at beta_b = B/T (a float, or an array
    giving an array): the model's criteria read it, and a bound U on e_bar
    reaches the constant condition's window edge there, U (1 + 1e-9) / alpha
    >= e_min - e_0.

    Each integrand value w / (e^{beta w} + 1) is at most w/2 <=
    hypot(1 + |K|, L) and the quadrature weights are positive, so U =
    hypot(1 + |K|, L) at every beta; it holds at every T, so beta_b = 0 gives
    the model's answer. On a gapped chain, once beta w_min >= 1 (w_min, w_max
    the extremes of omega on the trapezoid nodes), w e^{-beta w} falls with w
    and the Fermi factor is clipped at e^{-700}, so no node value, and no
    trapezoid mean, exceeds U(beta) = max(w_min e^{-min(beta w_min, 700)},
    w_max e^{-700}).
    """
    beta = np.asarray(beta_b, dtype=float)
    if not _uses_mean_energy(model):
        return np.zeros(beta.shape, dtype=bool)[()]
    return _reaches(_window_edge(model), model, acc, beta)


# ---------------------------------------------------------------------------
# group statistics


def occupation_patterns(n: int) -> np.ndarray:
    """All 2^n occupation bit arrays of an n-site group; row p holds the bits
    of p, lowest first."""
    return (np.arange(2**n)[:, None] >> np.arange(n)) & 1


def group_energy(bits, model: IsingModel):
    """Energy 2 sum_k (1 - K cos k)(n_k - 1/2) of open groups."""
    k = group_k_values(np.shape(bits)[-1])
    coeff = 2.0 * (1.0 - model.k_param * np.cos(k))
    return np.sum(coeff * (np.asarray(bits, dtype=float) - 0.5), axis=-1)


def _s_sum(bits):
    """S = (2/(n+1)) sum_k sin^2(k)(n_k - 1/2); lies in [-1/2, 1/2] exactly."""
    k = group_k_values(np.shape(bits)[-1])
    weight = np.sin(k) ** 2 * (np.asarray(bits, dtype=float) - 0.5)
    return 2.0 / (k.size + 1) * np.sum(weight, axis=-1)


def delta_sq(bits_mu, bits_next, model: IsingModel):
    """Junction interaction width between neighbouring groups."""
    if np.shape(bits_mu)[-1] != np.shape(bits_next)[-1]:
        raise ValueError("groups must have equal size")
    k_sq, l_sq = model.squared_couplings
    return 0.5 * (k_sq + l_sq) - 2.0 * (k_sq - l_sq) * _s_sum(bits_mu) * _s_sum(bits_next)


# ---------------------------------------------------------------------------
# criteria

# a raw bound whose divisor underflows to 0 exceeds every float, which
# min_integer_above reports the same way
_UNDERFLOW = ("{} divides by a quantity that underflows to 0 at t_over_b={!r};"
              " the bound is not finite")


def cond_const_bound(
    t_over_b: float, acc: AccuracyParams, model: IsingModel, e_bar: float | None = None
) -> float:
    """Raw constant-condition bound beta [Delta^2]_max / (e_min - e_0).

    e_min is the lower edge of the thermal window per site: the attainable
    group minimum or e_bar/alpha above the ground energy, whichever is
    higher; it is 0 where the edge rounds to 0 (K = L = 0) and e_bar/alpha
    underflows, and that divisor of 0 raises OverflowError. e_bar is the
    caller's mean_energy_per_site(1 / t_over_b, model), or computed where it
    can pass the edge.
    """
    if not t_over_b > 0:
        raise ValueError("t_over_b must be positive")
    if t_over_b == math.inf:
        raise ValueError("t_over_b must be finite, got inf")
    beta = 1.0 / t_over_b
    # e_min - e_0 computed without the cancellation e_min ~ e_0 at low T
    edge = _window_edge(model)
    if e_bar is None:  # 0.0 for an e_bar that cannot reach the edge: the same max()
        e_bar = mean_energy_per_site(beta, model) if _reaches(edge, model, acc, beta) else 0.0
    gap = max(edge, e_bar / acc.alpha)
    if gap == 0.0:
        raise OverflowError(_UNDERFLOW.format("cond_const_bound", t_over_b))
    return beta * max(model.squared_couplings) / gap


def linearity_bound(t_over_b: float, acc: AccuracyParams, model: IsingModel) -> float:
    """Raw linearity bound (beta / 2 delta) ([D^2]_max - [D^2]_min) / e-span."""
    if not t_over_b > 0:
        raise ValueError("t_over_b must be positive")
    k_sq, l_sq = model.squared_couplings
    if k_sq == l_sq:  # constant width; beta / 2 delta may overflow, and inf * 0 is nan
        return 0.0
    span = 2.0 * model.extreme_coefficient
    return 1.0 / t_over_b / (2.0 * acc.delta) * abs(k_sq - l_sq) / span


def isotropic_weak_bound(t_over_b: float, model: IsingModel) -> float:
    """Raw bound 2 beta K^2 / (1 - |K|) for isotropic coupling below the
    critical field ratio; needs no accuracy parameters because it covers
    every state but the ground state. A divisor t (1 - |K|) that underflows
    to 0 raises OverflowError."""
    if not t_over_b > 0:
        raise ValueError("t_over_b must be positive")
    if abs(model.l_param) > _CASE_TOL:
        raise ValueError("isotropic bound needs L = 0")
    a = abs(model.k_param)
    if a >= 1.0:
        raise ValueError("isotropic bound needs |K| < 1")
    divisor = t_over_b * (1.0 - a)
    if divisor == 0.0:
        raise OverflowError(_UNDERFLOW.format("isotropic_weak_bound", t_over_b))
    return 2.0 * model.k_param**2 / divisor


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
    if _uses_mean_energy(model):
        n_cond = min_integer_above(cond_const_bound(t_over_b, acc, model, e_bar))
    else:
        n_cond = min_integer_above(isotropic_weak_bound(t_over_b, model))
    n_lin = min_integer_above(linearity_bound(t_over_b, acc, model))
    # c1 calls linearity_bound a second time; ROADMAP item 4 removes that call
    c1 = acc.delta * linearity_bound(t_over_b, acc, model) / max(n_cond, n_lin)
    return build_report(n_cond, n_lin, c1, acc)
