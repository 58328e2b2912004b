"""Minimal group sizes for local temperature in a harmonic chain.

The chain has nearest-neighbour springs and dispersion

  omega_k = 2 omega0 |sin(k a0 / 2)|,

treated in the Debye approximation (linear branch omega = v k, v = omega0 a0)
with per-site Debye temperature Theta = 2 omega0 in units hbar = k_B = 1.
All temperatures enter as the ratio t = T / Theta; kelvin appears only at the
CLI boundary. Reduced per-site energies are measured in units of k_B Theta:

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
tolerance, 1e-10, within its fixed budget of 4096 splits. A grid goes
through one quadrature pass per _GRID_BATCH distinct upper limits (every
t <= 1/700 shares [0, 700]); sweeps hand the values to the criteria through
their e_bar argument. A single temperature keeps its last few results (keyed
on t), so the e_bar >= 1/4 guard and both bounds at one temperature share a
single quadrature.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .canonical import AccuracyParams, CriterionReport, build_report
from .specfun import bose_integrand, integrate, min_integer_above

__all__ = [
    "HarmonicModel",
    "mean_energy_reduced",
    "ground_energy_reduced",
    "cond_const_bound",
    "linearity_bound",
    "nmin_cond_const",
    "nmin_linearity",
    "nmin",
    "asymptotic_nmin",
    "min_length",
]

# x/(e^x - 1) < 1e-300 beyond here; the dropped tail is far below quadrature
# tolerance.
_BOSE_CUTOFF = 700.0
# Integrals one quadrature pass of a grid refines together; bounds the
# pass's panel arrays on long sweeps.
_GRID_BATCH = 64


@dataclass(frozen=True)
class HarmonicModel:
    """Chain parameters: Theta in kelvin, a0 in meters. omega0 follows from
    Theta = 2 omega0 (hbar = k_B = 1), so it is in kelvin too."""

    theta: float
    a0: float

    def __post_init__(self) -> None:
        if not (self.theta > 0 and self.a0 > 0):
            raise ValueError("theta and a0 must be positive")

    @property
    def omega0(self) -> float:
        """Theta / 2."""
        return self.theta / 2.0


def mean_energy_reduced(t_over_theta):
    """Thermal excitation energy per site over k_B Theta, Debye form.

    t_over_theta is a float, or an array giving an array. An invalid or
    overflowing temperature raises for the first such entry.
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
        except OverflowError:
            raise OverflowError(f"e_bar overflows at t_over_theta={t!r}")
        which.append(limits.setdefault(min(1.0 / t, _BOSE_CUTOFF), len(limits)))
    upper = np.array(list(limits))
    integral = np.concatenate([
        integrate(bose_integrand, 0.0, upper[i:i + _GRID_BATCH])
        for i in range(0, upper.size, _GRID_BATCH)
    ])
    return np.array(scale) * integral[which]


def ground_energy_reduced() -> float:
    """Zero-point energy per site over k_B Theta."""
    return 0.25


def cond_const_bound(
    t_over_theta: float, acc: AccuracyParams, e_bar: float | None = None
) -> float:
    """Raw real bound of the constant condition, evaluated at any t.

    Only meaningful where e_bar < 1/4; nmin_cond_const applies that guard,
    sweeps for plots use the raw curve. e_bar, when given, is
    mean_energy_reduced(t_over_theta) computed by the caller; the same
    holds for the functions below.
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


def nmin_cond_const(
    t_over_theta: float, acc: AccuracyParams, e_bar: float | None = None
) -> int:
    """Smallest n satisfying the constant condition; 1 once e_bar >= 1/4.

    Above that point the thermal energy exceeds the zero-point energy and the
    condition no longer constrains the group size.
    """
    guard = mean_energy_reduced(t_over_theta) if e_bar is None else e_bar
    if guard >= ground_energy_reduced():
        return 1
    return min_integer_above(cond_const_bound(t_over_theta, acc, e_bar))


def nmin_linearity(
    t_over_theta: float, acc: AccuracyParams, e_bar: float | None = None
) -> int:
    """Smallest n keeping the exponent's slope below delta across the window."""
    return min_integer_above(linearity_bound(t_over_theta, acc, e_bar))


def nmin(
    t_over_theta: float, acc: AccuracyParams, e_bar: float | None = None
) -> CriterionReport:
    """Both criteria at one temperature, combined into a report.

    c1_estimate is the residual slope at the returned group size,
    (Theta/T) / (2 n_min).
    """
    n_cond = nmin_cond_const(t_over_theta, acc, e_bar)
    n_lin = nmin_linearity(t_over_theta, acc, e_bar)
    n_min = max(n_cond, n_lin)
    c1 = 1.0 / (2.0 * n_min * t_over_theta)
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


def min_length(
    t_over_theta: float, acc: AccuracyParams, model: HarmonicModel
) -> float:
    """Minimal chain length in meters carrying an intensive temperature."""
    return nmin(t_over_theta, acc).n_min * model.a0
