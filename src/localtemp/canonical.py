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
(checked against the exact diagonal by the oracle) and the report
container.

rho_diag evaluates the formula for a whole array of product states at once:
y_a, A_0, A_1 and the prefactor with numpy, and ln[erfc(A_0) - erfc(A_1)]
per state from libm's erfc, or, once A_0 >= 2, from the scaled erfcx with
the A_0 exponential factored out. The criteria never call it.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .specfun import erfcx

__all__ = [
    "GroupStatistics",
    "AccuracyParams",
    "CriterionReport",
    "Binding",
    "rho_diag",
    "build_report",
]


class Binding(enum.Enum):
    COND_CONST = "ConditionConst"
    LINEARITY = "Linearity"
    NONE = "None"


@dataclass(frozen=True)
class GroupStatistics:
    """Moments of product states: energy, interaction mean/width, edges.

    e_a, eps_a and delta_sq_a are floats for one state or equal-shape arrays
    for many; every check runs per state. e1 may be math.inf for models with
    unbounded spectra; the upper erfc term then drops out.
    """

    e_a: float | np.ndarray
    eps_a: float | np.ndarray
    delta_sq_a: float | np.ndarray
    e0: float
    e1: float

    def __post_init__(self) -> None:
        for name in ("e_a", "eps_a", "delta_sq_a", "e0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if not (math.isfinite(self.e1) or self.e1 == math.inf):
            raise ValueError("e1 must be finite or +inf")
        if np.any(self.delta_sq_a < 0):
            raise ValueError("delta_sq_a must be nonnegative")
        y = self.e_a + self.eps_a
        slack = 1e-9 * np.maximum(max(1.0, abs(self.e0)), np.abs(y))
        if np.any(y < self.e0 - slack):
            raise ValueError("state energy lies below the spectral bottom")
        if math.isfinite(self.e1) and np.any(y > self.e1 + slack):
            raise ValueError("state energy lies above the spectral top")


@dataclass(frozen=True)
class AccuracyParams:
    """alpha widens the energy window; delta bounds the tolerated slope."""

    alpha: float = 10.0
    delta: float = 0.01

    def __post_init__(self) -> None:
        if not 1 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and exceed 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of both criteria at one temperature.

    n_min is the larger bound and binding names it: ties go to cond_const,
    and NONE when a single subsystem already suffices. intensive records
    |c1_estimate| <= delta.
    """

    n_cond_const: int
    n_linearity: int
    c1_estimate: float
    intensive: bool

    @property
    def n_min(self) -> int:
        return max(self.n_cond_const, self.n_linearity)

    @property
    def binding(self) -> Binding:
        if self.n_min == 1:
            return Binding.NONE
        if self.n_cond_const >= self.n_linearity:
            return Binding.COND_CONST
        return Binding.LINEARITY


def build_report(
    n_cond_const: int,
    n_linearity: int,
    c1_estimate: float,
    acc: AccuracyParams,
) -> CriterionReport:
    """Assemble a CriterionReport, judging c1_estimate against acc.delta."""
    return CriterionReport(
        n_cond_const, n_linearity, c1_estimate, abs(c1_estimate) <= acc.delta
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
    diff = math.erfc(a0) - math.erfc(a1)  # math.erfc(inf) == 0.0
    if diff <= 0.0:
        return -math.inf
    return math.log(diff)


def rho_diag(
    stats: GroupStatistics, beta: float, log_z: float
) -> float | np.ndarray:
    """ln <a|rho|a> from the Gaussian weight model, one entry per state of
    stats (a float for scalar stats); -inf where it underflows."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    if beta <= 0:
        raise ValueError("beta must be positive")
    dsq = np.asarray(stats.delta_sq_a, dtype=float)
    if np.any(dsq <= 0):
        raise ValueError("rho_diag needs delta_sq_a > 0")
    y = np.add(stats.e_a, stats.eps_a)
    width = math.sqrt(2.0) * np.sqrt(dsq)
    # a huge beta may overflow beta * Delta^2 and the prefactor, as floats do
    with np.errstate(over="ignore", invalid="ignore"):
        a0 = (stats.e0 - y + beta * dsq) / width
        a1 = (stats.e1 - y + beta * dsq) / width  # inf for an unbounded spectrum
        log_diff = np.array(
            list(map(_log_erfc_difference, a0.ravel().tolist(), a1.ravel().tolist()))
        ).reshape(np.shape(a0))
        log_rho = -math.log(2.0) - log_z - beta * y + 0.5 * beta * beta * dsq + log_diff
    # an overflowing prefactor must not turn an underflowed state into nan
    return np.where(log_diff == -math.inf, -math.inf, log_rho)[()]
