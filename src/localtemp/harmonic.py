"""Minimal group sizes for local temperature in a harmonic chain.

The chain has nearest-neighbour springs and dispersion

  omega_k = 2 omega0 |sin(k a0 / 2)|,

treated in the Debye approximation (linear branch omega = v k, v = omega0 a0)
with per-site Debye temperature Theta = 2 omega0 in units hbar = k_B = 1.
All temperatures enter as the ratio t = T / Theta, and sizes as site counts;
kelvin, and the length l_min = n_min a0, appear only at the CLI boundary.
Reduced per-site energies are measured in units of k_B Theta:

  e_bar(t) = t^2 * integral_0^{1/t} x / (e^x - 1) dx,   e_0 = 1/4.

Two requirements set the minimal number n_min of sites a group must contain
for its temperature to be intensive:

  constant condition  n > (1/t) * (alpha / (4 e_bar)) * (4 e_bar / alpha + 1)^2
                      (only where e_bar < e_0; a single site works above),
  linearity           n > (2 alpha / delta) * (1/t) * e_bar.

The linearity bound grows toward the plateau 2 alpha / delta at high T; the
constant condition takes over below t ~ 0.09, diverging like
(3 alpha / (2 pi^2)) / t^3.

mean_energy_reduced takes one temperature or a whole grid. Each integral
is an adaptive Simpson quadrature to the integrator's default absolute
tolerance, 1e-10, within its fixed budget of 4096 splits. A grid integrates
each distinct upper limit once (every t <= 1/700 shares [0, 700]), in
quadrature passes of up to 64 limits (specfun.in_chunks), a sweep's only
source of e_bar. Where t**2 overflows (t above ~1.3e154), e_bar is
t * (t * integral), finite as the integral is ~1/t. A single temperature
keeps its last few results (keyed on t), so the e_bar >= 1/4 guard and both
bounds at one temperature share a single quadrature.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .canonical import AccuracyParams, CriterionReport, build_report
from .specfun import bose_integrand, in_chunks, integrate, min_integer_above

__all__ = [
    "mean_energy_reduced",
    "cond_const_bound",
    "linearity_bound",
    "nmin",
    "asymptotic_nmin",
]

# x/(e^x - 1) < 1e-300 beyond here; the dropped tail is far below quadrature
# tolerance.
_BOSE_CUTOFF = 700.0


def mean_energy_reduced(t_over_theta):
    """Thermal excitation energy per site over k_B Theta, Debye form.

    t_over_theta is a float, or an array giving an array. A temperature
    that is not positive and finite raises for the first such entry.
    """
    if np.ndim(t_over_theta) == 0:
        return _mean_energy_memo(t_over_theta)
    return _mean_energy(np.asarray(t_over_theta, dtype=float))


@functools.lru_cache(maxsize=4)
def _mean_energy_memo(t_over_theta: float) -> float:
    return float(_mean_energy(np.array([t_over_theta], dtype=float))[0])


def _mean_energy(t_over_theta: np.ndarray) -> np.ndarray:
    """mean_energy_reduced of an array, one integral per distinct upper limit."""
    scale, which, limits = [], [], {}  # limits: upper limit -> its integral's index
    for t in t_over_theta.tolist():
        if not t > 0:
            raise ValueError("t_over_theta must be positive")
        if t == math.inf:
            raise ValueError("t_over_theta must be finite, got inf")
        try:
            scale.append(t**2)
        except OverflowError:  # t above ~1.3e154
            scale.append(math.inf)
        which.append(limits.setdefault(min(1.0 / t, _BOSE_CUTOFF), len(limits)))
    integral = in_chunks(lambda u: integrate(bose_integrand, 0.0, u), np.array(list(limits)))
    e_bar = np.array(scale) * integral[which]
    huge = np.isinf(e_bar)  # t * (t * integral) is finite, as the integral is ~1/t
    e_bar[huge] = t_over_theta[huge] * (t_over_theta[huge] * integral[which][huge])
    return e_bar


def cond_const_bound(
    t_over_theta: float, acc: AccuracyParams, e_bar: float | None = None
) -> float:
    """Raw real bound of the constant condition, evaluated at any t.

    Only meaningful where e_bar < 1/4; nmin applies that guard, sweeps for
    plots use the raw curve. e_bar, when given, is the caller's
    mean_energy_reduced(t_over_theta); the same holds for linearity_bound.
    """
    if e_bar is None:
        e_bar = mean_energy_reduced(t_over_theta)
    if e_bar == 0.0:
        # t^2 underflowed: the bound ~ 1/(t e_bar) exceeds every float
        raise OverflowError(
            f"e_bar underflows to 0 at t_over_theta={t_over_theta!r}; "
            "the constant-condition bound is not finite"
        )
    ratio = 4.0 * e_bar / acc.alpha
    return (1.0 / t_over_theta) * (acc.alpha / (4.0 * e_bar)) * (1.0 + ratio) ** 2


def linearity_bound(
    t_over_theta: float, acc: AccuracyParams, e_bar: float | None = None
) -> float:
    """Raw real bound of the linearity condition."""
    if e_bar is None:
        e_bar = mean_energy_reduced(t_over_theta)
    return (2.0 * acc.alpha / acc.delta) * e_bar / t_over_theta


def nmin(
    t_over_theta: float, acc: AccuracyParams, e_bar: float | None = None
) -> CriterionReport:
    """Both criteria at one temperature, combined into a report.

    c1_estimate is the residual slope at the returned group size,
    (Theta/T) / (2 n_min).
    """
    guard = mean_energy_reduced(t_over_theta) if e_bar is None else e_bar
    # one site suffices once e_bar reaches the zero-point energy e_0 = 1/4
    n_cond = 1 if guard >= 0.25 else min_integer_above(
        cond_const_bound(t_over_theta, acc, e_bar))
    n_lin = min_integer_above(linearity_bound(t_over_theta, acc, e_bar))
    c1 = 1.0 / (2.0 * max(n_cond, n_lin) * t_over_theta)
    return build_report(n_cond, n_lin, c1, acc)


def asymptotic_nmin(t_over_theta: float, acc: AccuracyParams) -> float:
    """Closed-form estimate of n_min: 2 alpha / delta above Theta,
    (3 alpha / (2 pi^2)) (Theta/T)^3 below. The branches meet discontinuously
    at T = Theta; that is inherent to the piecewise estimate."""
    if not t_over_theta > 0:
        raise ValueError("t_over_theta must be positive")
    if t_over_theta > 1.0:
        return 2.0 * acc.alpha / acc.delta
    return 3.0 * acc.alpha / (2.0 * math.pi**2) / t_over_theta**3
