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
(3 alpha / (2 pi^2)) / t^3. Group interaction widths are available both in
the Debye form Delta^2 = 4 E_mu E_{mu+1} / n^2 and as the exact finite-n
mode sum, so the two can be compared directly.

mean_energy_reduced keeps its last few results (keyed on t and the
quadrature spec), so the e_bar >= 1/4 guard and both bounds at one
temperature share a single quadrature.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .canonical import AccuracyParams, CriterionReport, build_report
from .specfun import QuadratureSpec, bose_integrand, integrate, min_integer_above

__all__ = [
    "HarmonicModel",
    "ReducedEnergies",
    "dispersion",
    "mean_energy_reduced",
    "ground_energy_reduced",
    "reduced_energies",
    "delta_sq_debye",
    "delta_sq_exact",
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


@dataclass(frozen=True)
class HarmonicModel:
    """Chain parameters: Theta in kelvin, a0 in meters, omega0 in 1/time.

    mass only feeds the oracle-side dynamical matrix.
    """

    theta: float
    a0: float
    omega0: float
    mass: float = 1.0

    def __post_init__(self) -> None:
        if not (self.theta > 0 and self.a0 > 0 and self.omega0 > 0):
            raise ValueError("theta, a0 and omega0 must be positive")
        if not self.mass > 0:
            raise ValueError("mass must be positive")


@dataclass(frozen=True)
class ReducedEnergies:
    """Dimensionless per-site energies in units of k_B Theta."""

    e_bar: float
    e0: float = 0.25

    def __post_init__(self) -> None:
        if self.e_bar < 0:
            raise ValueError("e_bar must be nonnegative")


def dispersion(k: float, model: HarmonicModel) -> float:
    """Phonon frequency 2 omega0 |sin(k a0 / 2)| at wavenumber k (1/m)."""
    return 2.0 * model.omega0 * abs(math.sin(0.5 * k * model.a0))


@functools.lru_cache(maxsize=4)
def mean_energy_reduced(
    t_over_theta: float, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """Thermal excitation energy per site over k_B Theta, Debye form."""
    if not t_over_theta > 0:
        raise ValueError("t_over_theta must be positive")
    upper = min(1.0 / t_over_theta, _BOSE_CUTOFF)
    return t_over_theta**2 * integrate(bose_integrand, 0.0, upper, spec)


def ground_energy_reduced() -> float:
    """Zero-point energy per site over k_B Theta."""
    return 0.25


def reduced_energies(t_over_theta: float) -> ReducedEnergies:
    return ReducedEnergies(e_bar=mean_energy_reduced(t_over_theta))


def delta_sq_debye(e_mu: float, e_mu_next: float, n: int) -> float:
    """Junction interaction width in the Debye regime, (4/n^2) E_mu E_{mu+1}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 4.0 * e_mu * e_mu_next / (n * n)


def delta_sq_exact(
    occupations_mu: Sequence[int],
    occupations_next: Sequence[int],
    model: HarmonicModel,
    n: int,
) -> float:
    """Exact finite-n junction width from the group normal modes.

    For a group of n sites with open ends the modes sit at x_l = pi l / (2(n+1))
    and the width of the coupling to the next group factorizes:

      Delta^2 = (2/(n+1))^2 * A(occ_mu) * A(occ_next),
      A(occ)  = sum_l cos^2(x_l) * 2 omega0 sin(x_l) * (occ_l + 1/2).

    The vacuum 1/2 keeps every factor strictly positive.
    """
    if len(occupations_mu) != n or len(occupations_next) != n:
        raise ValueError("occupation lists must have length n")
    if any(o < 0 for o in occupations_mu) or any(o < 0 for o in occupations_next):
        raise ValueError("occupations must be nonnegative")

    def mode_sum(occ: Sequence[int]) -> float:
        total = 0.0
        for l, n_l in enumerate(occ, start=1):
            x = math.pi * l / (2.0 * (n + 1))
            total += math.cos(x) ** 2 * 2.0 * model.omega0 * math.sin(x) * (n_l + 0.5)
        return total

    return (2.0 / (n + 1)) ** 2 * mode_sum(occupations_mu) * mode_sum(occupations_next)


def cond_const_bound(t_over_theta: float, acc: AccuracyParams) -> float:
    """Raw real bound of the constant condition, evaluated at any t.

    Only meaningful where e_bar < 1/4; nmin_cond_const applies that guard,
    sweeps for plots use the raw curve.
    """
    e_bar = mean_energy_reduced(t_over_theta)
    if e_bar == 0.0:
        # t^2 underflowed: the bound ~ 1/(t e_bar) exceeds every float
        raise OverflowError(
            f"e_bar underflows to 0 at t_over_theta={t_over_theta!r}; "
            "the constant-condition bound is not finite"
        )
    ratio = 4.0 * e_bar / acc.alpha
    return (1.0 / t_over_theta) * (acc.alpha / (4.0 * e_bar)) * (1.0 + ratio) ** 2


def linearity_bound(t_over_theta: float, acc: AccuracyParams) -> float:
    """Raw real bound of the linearity condition."""
    e_bar = mean_energy_reduced(t_over_theta)
    return (2.0 * acc.alpha / acc.delta) * e_bar / t_over_theta


def nmin_cond_const(t_over_theta: float, acc: AccuracyParams) -> int:
    """Smallest n satisfying the constant condition; 1 once e_bar >= 1/4.

    Above that point the thermal energy exceeds the zero-point energy and the
    condition no longer constrains the group size.
    """
    if mean_energy_reduced(t_over_theta) >= ground_energy_reduced():
        return 1
    return min_integer_above(cond_const_bound(t_over_theta, acc))


def nmin_linearity(t_over_theta: float, acc: AccuracyParams) -> int:
    """Smallest n keeping the exponent's slope below delta across the window."""
    return min_integer_above(linearity_bound(t_over_theta, acc))


def nmin(t_over_theta: float, acc: AccuracyParams) -> CriterionReport:
    """Both criteria at one temperature, combined into a report.

    c1_estimate is the residual slope at the returned group size,
    (Theta/T) / (2 n_min).
    """
    n_cond = nmin_cond_const(t_over_theta, acc)
    n_lin = nmin_linearity(t_over_theta, acc)
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
