"""Independent reference values for single criteria queries.

Written from the formulas in the package README and the paper, not from the
package code: the harmonic Debye integral in closed form (Abramowitz &
Stegun 27.1), and the Ising thermal integrals with QUADPACK (`scipy.integrate
.quad`) split at the gapless node. The checker compares the CLI output with
these values, so a defect in the package's own quadrature or bounds shows up
as a failed operation.

Integer bounds n > b are compared with a band: when the reference bound lies
within REL_BAND of an integer, either neighbouring answer is accepted, since
two correct integrators may round to different sides there.
"""
from __future__ import annotations

import math

from scipy import integrate as sp_integrate
from scipy.special import spence

REL_BAND = 1e-7
_CASE_TOL = 1e-12


def debye_integral(x_upper: float) -> float:
    """D(X) = integral_0^X x / (e^x - 1) dx
    = pi^2/6 + X ln(1 - e^-X) - Li2(e^-X), with Li2(z) = spence(1 - z)."""
    q = math.exp(-x_upper)
    return math.pi**2 / 6.0 + x_upper * math.log1p(-q) - float(spence(1.0 - q))


def harmonic_e_bar(t: float) -> float:
    """Thermal energy per site over k_B Theta: t^2 D(1/t)."""
    return t * t * debye_integral(1.0 / t)


def int_range(bound: float) -> tuple[int, int]:
    """Smallest n >= 1 with n > bound, widened to both neighbours when bound
    lies within the comparison band of an integer."""
    if not math.isfinite(bound):
        raise ValueError("bound is not finite")

    def n_above(b: float) -> int:
        return 1 if b < 1.0 else math.floor(b) + 1

    slack = REL_BAND * max(1.0, abs(bound))
    return n_above(bound - slack), n_above(bound + slack)


def harmonic_bounds(t: float, alpha: float, delta: float) -> dict:
    """Reference (n_cond_const range, n_linearity range) for the harmonic chain."""
    e_bar = harmonic_e_bar(t)
    lin = (2.0 * alpha / delta) * e_bar / t
    ratio = 4.0 * e_bar / alpha
    cond = (1.0 / t) * (alpha / (4.0 * e_bar)) * (1.0 + ratio) ** 2
    n_cond = int_range(cond)
    if e_bar >= 0.25 * (1.0 + REL_BAND):
        n_cond = (1, 1)
    elif e_bar > 0.25 * (1.0 - REL_BAND):
        n_cond = (1, n_cond[1])
    return {"n_cond_const": n_cond, "n_linearity": int_range(lin)}


# ---------------------------------------------------------------------------
# Ising chain, K = (Jx + Jy)/2B, L = (Jx - Jy)/2B


def ising_case(k: float, l_: float) -> str:
    if abs(abs(k) - abs(l_)) <= _CASE_TOL:
        return "ConstWidth"
    if abs(k) <= _CASE_TOL:
        return "FullyAnisotropic"
    if abs(l_) <= _CASE_TOL:
        return "Isotropic"
    return "General"


def _omega(k_wave: float, k: float, l_: float, b: float) -> float:
    return 2.0 * b * math.hypot(1.0 - k * math.cos(k_wave), l_ * math.sin(k_wave))


def _node(k: float, l_: float, b: float):
    """(k0, thermal-width function of t) of a gapless point, or None."""
    if abs(l_) <= _CASE_TOL:
        if abs(abs(k) - 1.0) <= _CASE_TOL:
            k0 = 0.0 if k > 0 else math.pi
            # omega ~ B (k - k0)^2 near the node
            return k0, lambda t: math.sqrt(t)
        if abs(k) > 1.0:
            k0 = math.acos(1.0 / k)
            slope = 2.0 * b * math.sqrt(k * k - 1.0)
            return k0, lambda t: t * b / slope
        return None
    if abs(abs(k) - 1.0) <= _CASE_TOL:
        k0 = 0.0 if k > 0 else math.pi
        slope = 2.0 * b * abs(l_)
        return k0, lambda t: t * b / slope
    return None


def _quad(f, lo: float, hi: float, points: list[float]) -> float:
    inner = sorted(p for p in points if lo < p < hi)
    value, _ = sp_integrate.quad(
        f, lo, hi, points=inner or None, epsabs=0.0, epsrel=1e-12, limit=400
    )
    return value


def _split_points(node, t: float | None) -> list[float]:
    if node is None:
        return []
    k0, width = node
    pts = [k0]
    if t is not None:
        w = width(t)
        for scale in (1e-2, 1e-1, 1.0, 3.0, 10.0, 30.0, 100.0, 1e3):
            pts += [k0 - scale * w, k0 + scale * w]
    return pts


def ising_e0(k: float, l_: float, b: float) -> float:
    """Ground energy per site, -(1/2 pi) int_0^pi omega_k dk."""
    node = _node(k, l_, b)
    f = lambda q: _omega(q, k, l_, b)
    return -_quad(f, 0.0, math.pi, _split_points(node, None)) / (2.0 * math.pi)


def ising_e_bar(t: float, k: float, l_: float, b: float) -> float:
    """Thermal energy per site above the ground state at T = t B."""
    beta = 1.0 / (t * b)

    def f(q: float) -> float:
        w = _omega(q, k, l_, b)
        x = beta * w
        return w * math.exp(-x) / (1.0 + math.exp(-x)) if x < 700.0 else 0.0

    return _quad(f, 0.0, math.pi, _split_points(_node(k, l_, b), t)) / math.pi


def _extreme_coefficient(k: float) -> float:
    a = abs(k)
    if a <= 1.0:
        return 1.0
    return 2.0 / math.pi * (math.sqrt(a * a - 1.0) + math.asin(1.0 / a))


def ising_linearity_bound(t: float, k: float, l_: float, b: float, delta: float) -> float:
    beta = 1.0 / (t * b)
    d_lo = b * b * min(k * k, l_ * l_)
    d_hi = b * b * max(k * k, l_ * l_)
    span = 2.0 * b * _extreme_coefficient(k)
    return beta / (2.0 * delta) * (d_hi - d_lo) / span


def ising_bounds(t: float, k: float, l_: float, b: float, alpha: float,
                 delta: float) -> dict:
    """Reference n ranges, the linearity bound and the case for one query."""
    case = ising_case(k, l_)
    lin = ising_linearity_bound(t, k, l_, b, delta)
    if case == "General":
        return {"case": case}
    if case == "Isotropic" and abs(k) < 1.0:
        cond = 2.0 * k * k / (t * (1.0 - abs(k)))
    else:
        beta = 1.0 / (t * b)
        d_hi = b * b * max(k * k, l_ * l_)
        e0 = ising_e0(k, l_, b)
        e_bar = ising_e_bar(t, k, l_, b)
        gap = max(-b * _extreme_coefficient(k) - e0, e_bar / alpha)
        cond = beta * d_hi / gap
    return {
        "case": case,
        "n_cond_const": int_range(cond),
        "n_linearity": int_range(lin),
        "linearity_bound": lin,
    }
