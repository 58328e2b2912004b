"""Scalar numerical kernels used throughout the package.

The criteria kernels are pure Python on top of math.exp/math.expm1, so the
n_min path is bit-stable across platforms: an adaptive Simpson integrator,
the Bose occupation integrand x/(e^x - 1) with its removable singularity
filled in, and integer extraction for strict inequalities of the form
n > bound. The oracle's Gaussian weight also needs the scaled complementary
error function erfcx; below its continued-fraction range it takes erfc from
the platform's libm (math.erfc), as the oracle's eigensolver comes from
LAPACK, so its last bits may differ between platforms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "erfcx",
    "integrate",
    "bose_integrand",
    "min_integer_above",
]

_SQRT_PI = math.sqrt(math.pi)

# Below this erfcx is exp(x^2) * math.erfc(x); above it the continued
# fraction, which holds near machine precision down to ~0.8 and does not
# underflow where erfc does (past ~27).
_LIBM_CF_SPLIT = 1.5


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget for adaptive integration.

    abs_tol is an absolute error target for the whole interval;
    max_subdivisions caps how many interval splits the refinement may perform.
    """

    abs_tol: float = 1e-10
    max_subdivisions: int = 4096

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


class QuadratureError(RuntimeError):
    """Raised when the subdivision budget is exhausted before convergence."""


def _erfcx_cf(x: float) -> float:
    # Scaled complementary error function via the Laplace continued fraction
    #   erfcx(x) = (1/sqrt(pi)) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    # evaluated with the modified Lentz algorithm. Accurate for x >= ~0.8;
    # called for x >= _LIBM_CF_SPLIT only, where every c and d stays positive.
    f = c = x
    d = 0.0
    for n in range(1, 300):
        a = 0.5 * n
        d = 1.0 / (x + a * d)
        c = x + a / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return 1.0 / (_SQRT_PI * f)


def erfcx(x: float) -> float:
    """exp(x^2) * erfc(x), stable for large positive x."""
    if x < _LIBM_CF_SPLIT:
        return math.exp(x * x) * math.erfc(x)
    return _erfcx_cf(x)


def integrate(f, a: float, b: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Adaptive Simpson quadrature of f over [a, b].

    Accepts a panel when the Richardson estimate |S2 - S1| <= 15 * local_tol
    holds, accumulating S2 + (S2 - S1)/15. Raises QuadratureError when the
    split budget runs out first.
    """
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    stack = [(a, b, fa, fm, fb, (fa + 4.0 * fm + fb) * (b - a) / 6.0, spec.abs_tol)]
    # hot loop: Simpson's rule written out and the stack methods bound once
    pop, push = stack.pop, stack.append
    total = 0.0
    splits = 0
    while stack:
        x0, x1, f0, f1, f2, whole, tol = pop()
        xm = 0.5 * (x0 + x1)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x1)
        fl, fr = f(xl), f(xr)
        left = (f0 + 4.0 * fl + f1) * (xm - x0) / 6.0
        right = (f1 + 4.0 * fr + f2) * (x1 - xm) / 6.0
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            total += left + right + err / 15.0
            continue
        splits += 1
        if splits > spec.max_subdivisions:
            raise QuadratureError(
                f"no convergence within {spec.max_subdivisions} subdivisions "
                f"on [{a!r}, {b!r}]"
            )
        half = 0.5 * tol
        push((x0, xm, f0, fl, f1, left, half))
        push((xm, x1, f1, fr, f2, right, half))
    return total


def bose_integrand(x: float) -> float:
    """x / (e^x - 1) with bose_integrand(0) = 1 (the x -> 0 limit)."""
    if x < 0:
        raise ValueError("bose_integrand defined for x >= 0")
    if x < 1e-4:
        # 1 - x/2 + x^2/12: keeps full precision where e^x - 1 cancels.
        return 1.0 - 0.5 * x + x * x / 12.0
    if x <= 700.0:
        return x / math.expm1(x)
    # e^x overflows a double past ~709; the value itself is ~x e^{-x}.
    return x * math.exp(-x)


def min_integer_above(bound: float) -> int:
    """Smallest integer n >= 1 with n > bound (strict)."""
    if math.isnan(bound):
        raise ValueError("bound is nan")
    if math.isinf(bound):
        raise OverflowError("bound is not finite; no integer exceeds it")
    if bound < 1.0:
        return 1
    return math.floor(bound) + 1
