"""Model-independent machinery for local-temperature criteria.

Setting: a chain in a global thermal state rho = e^{-beta H}/Z is tiled into
N_G groups of n subsystems. In the product basis |a> of the decoupled groups,
the conditional distribution w_a(E) of total-energy eigenvalues is, for many
weakly coupled groups, close to a Gaussian with mean E_a + eps_a and variance
Delta_a^2, where eps_a and Delta_a^2 are the first two moments of the group
interaction in |a>. Integrating the Boltzmann weight against that Gaussian
between the spectral edges E_0 and E_1 gives the diagonal elements

  <a|rho|a> = exp(-beta y_a + beta^2 Delta_a^2 / 2) / (2 Z)
              * [erfc(A_0) - erfc(A_1)],
  y_a = E_a + eps_a,  A_i = (E_i - y_a + beta Delta_a^2) / (sqrt(2) Delta_a).

A group has an intensive local temperature when, across an energy window
picked by the accuracy parameter alpha, (i) the argument of the first erfc is
negative enough that the Boltzmann branch dominates and (ii) the leftover
exponent is affine in the group energy with slope below the tolerance delta.
The chain-specific modules turn both conditions into closed-form bounds on
the group size. This module holds what they share: the Gaussian <a|rho|a>
(checked against the exact diagonal by the oracle), the energy window, and
the report container.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .specfun import erfc_exact, erfcx

__all__ = [
    "GroupStatistics",
    "EnergyWindow",
    "AccuracyParams",
    "CriterionReport",
    "Binding",
    "InconsistentWindowError",
    "rho_diag",
    "energy_window",
    "build_report",
]


class InconsistentWindowError(ValueError):
    """Energy window came out empty (lower endpoint above upper endpoint)."""


class Binding(enum.Enum):
    COND_CONST = "ConditionConst"
    LINEARITY = "Linearity"
    NONE = "None"


@dataclass(frozen=True)
class GroupStatistics:
    """Moments of one product state: energy, interaction mean/width, edges.

    e1 may be math.inf for models with unbounded spectra; the upper erfc term
    then drops out.
    """

    e_a: float
    eps_a: float
    delta_sq_a: float
    e0: float
    e1: float

    def __post_init__(self) -> None:
        if self.delta_sq_a < 0:
            raise ValueError("delta_sq_a must be nonnegative")
        y = self.e_a + self.eps_a
        slack = 1e-9 * max(1.0, abs(self.e0), abs(y))
        if y < self.e0 - slack:
            raise ValueError("state energy lies below the spectral bottom")
        if math.isfinite(self.e1) and y > self.e1 + slack:
            raise ValueError("state energy lies above the spectral top")


@dataclass(frozen=True)
class EnergyWindow:
    """Per-group energy window [e_min, e_max]."""

    e_min: float
    e_max: float

    def __post_init__(self) -> None:
        if self.e_min > self.e_max:
            raise InconsistentWindowError(
                f"empty window: e_min={self.e_min!r} > e_max={self.e_max!r}"
            )


@dataclass(frozen=True)
class AccuracyParams:
    """alpha widens the energy window; delta bounds the tolerated slope."""

    alpha: float = 10.0
    delta: float = 0.01

    def __post_init__(self) -> None:
        if not self.alpha > 1:
            raise ValueError("alpha must exceed 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of both criteria at one temperature.

    n_cond_const may be math.inf when no finite group size satisfies the
    constant condition. binding names the larger bound (NONE when a single
    subsystem already suffices); intensive records |c1_estimate| <= delta.
    """

    n_cond_const: int | float
    n_linearity: int
    n_min: int | float
    binding: Binding
    c1_estimate: float
    intensive: bool

    def __post_init__(self) -> None:
        if self.n_min != max(self.n_cond_const, self.n_linearity):
            raise ValueError("n_min must be the max of the two bounds")


def build_report(
    n_cond_const: int | float,
    n_linearity: int,
    c1_estimate: float,
    acc: AccuracyParams,
) -> CriterionReport:
    """Assemble a CriterionReport; ties between the bounds go to cond_const."""
    n_min = max(n_cond_const, n_linearity)
    if n_min == 1:
        binding = Binding.NONE
    elif n_cond_const >= n_linearity:
        binding = Binding.COND_CONST
    else:
        binding = Binding.LINEARITY
    return CriterionReport(
        n_cond_const=n_cond_const,
        n_linearity=n_linearity,
        n_min=n_min,
        binding=binding,
        c1_estimate=c1_estimate,
        intensive=abs(c1_estimate) <= acc.delta,
    )


def _log_erfc_difference(a0: float, a1: float) -> float:
    """ln[erfc(a0) - erfc(a1)] for a0 <= a1, stable for large arguments."""
    if a1 <= a0:
        return -math.inf
    if a0 >= 2.0:
        # erfc(a) = e^{-a^2} erfcx(a); factor out the a0 exponential. The
        # remaining bracket is in [0, erfcx(a0)] so the log never overflows.
        second = 0.0
        if math.isfinite(a1):
            second = math.exp(a0 * a0 - a1 * a1) * erfcx(a1)
        bracket = erfcx(a0) - second
        if bracket <= 0.0:
            return -math.inf
        return -a0 * a0 + math.log(bracket)
    first = erfc_exact(a0)
    second = erfc_exact(a1) if math.isfinite(a1) else 0.0
    diff = first - second
    if diff <= 0.0:
        return -math.inf
    return math.log(diff)


def rho_diag(stats: GroupStatistics, beta: float, log_z: float) -> float:
    """ln <a|rho|a> from the Gaussian weight model; -inf on underflow."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if stats.delta_sq_a <= 0:
        raise ValueError("rho_diag needs delta_sq_a > 0")
    y = stats.e_a + stats.eps_a
    dsq = stats.delta_sq_a
    d = math.sqrt(dsq)
    a0 = (stats.e0 - y + beta * dsq) / (math.sqrt(2.0) * d)
    if math.isfinite(stats.e1):
        a1 = (stats.e1 - y + beta * dsq) / (math.sqrt(2.0) * d)
    else:
        a1 = math.inf
    log_diff = _log_erfc_difference(a0, a1)
    if log_diff == -math.inf:
        return -math.inf
    return -math.log(2.0) - log_z - beta * y + 0.5 * beta * beta * dsq + log_diff


def energy_window(
    e_bar_total: float,
    e0_total: float,
    n_groups: int,
    acc: AccuracyParams,
    e_mu_min: float,
    e_mu_max: float,
) -> EnergyWindow:
    """Per-group window: thermal mean scaled by 1/alpha and alpha, clamped
    to the attainable group energies [e_mu_min, e_mu_max].

    e_bar_total is the thermal excitation energy of the whole chain (above the
    ground energy e0_total). Raises InconsistentWindowError when the clamps
    cross.
    """
    if n_groups < 1:
        raise ValueError("n_groups must be >= 1")
    lo = max(e_mu_min, e_bar_total / (acc.alpha * n_groups) + e0_total / n_groups)
    hi = min(e_mu_max, acc.alpha * e_bar_total / n_groups + e0_total / n_groups)
    return EnergyWindow(e_min=lo, e_max=hi)
