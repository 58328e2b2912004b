"""Numerical kernels used throughout the package.

An adaptive Simpson integrator that refines many intervals together on
numpy arrays, each to its own absolute tolerance tol within a fixed budget
of 4096 splits, the Bose occupation integrand x/(e^x - 1) with its removable
singularity filled in, and integer extraction for strict inequalities of the
form n > bound. Floats hold to a few ulps across platforms, not to the bit:
the integrands' exp, expm1 and hypot come from numpy, whose SIMD loops can
differ from the platform's libm in the last bit. The n_min integers are
gated by the benchmark goldens; the tightest, harmonic n_cond_const at
t = 1.0718913192051276e-4, has its bound about 40 ulps from the integer
boundary. The oracle's Gaussian weight also needs the scaled complementary
error function erfcx; below its continued-fraction range it takes erfc from
the platform's libm (math.erfc), as the oracle's eigensolver comes from
LAPACK.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "QuadratureError",
    "erfcx",
    "integrate",
    "sequential_sums",
    "bose_integrand",
    "min_integer_above",
]

_SQRT_PI = math.sqrt(math.pi)

# Below this erfcx is exp(x^2) * math.erfc(x); above it the continued
# fraction, which holds near machine precision down to ~0.8 and does not
# underflow where erfc does (past ~27).
_LIBM_CF_SPLIT = 1.5
# Splits integrate may make on one interval before it gives up.
_MAX_SUBDIVISIONS = 4096


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


def sequential_sums(values, owner, n: int) -> np.ndarray:
    """n totals, each adding its values one after another from 0.0, as in
    the loop `for v, i in zip(values, owner): total[i] += v`; owner must be
    sorted. (np.add.reduce sums pairwise, in another order.)"""
    counts = np.bincount(owner, minlength=n)
    rank = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
    table = np.zeros((n, counts.max(initial=0) + 1))
    table[owner, rank + 1] = values
    return np.cumsum(table, axis=1, out=table)[:, -1].copy()


def integrate(f, a, b, tol=1e-10, indexed: bool = False):
    """Adaptive Simpson quadrature of f over [a, b], or over each interval
    [a[i], b[i]] of two arrays at once, returning an array.

    tol is the absolute error target of each interval: a float, or an array
    with one value per interval. A panel is accepted when the Richardson
    estimate |S2 - S1| <= 15 * tol holds, adding S2 + (S2 - S1)/15;
    otherwise it splits, and each half gets half its tolerance. The
    intervals are refined level by level: each level calls f once, with the
    quarter points of every live panel of every interval, as f(x), or as
    f((x, i)) with the interval index i of each abscissa when indexed is
    true. Each interval adds its accepted panels from right to left, in the
    order of a depth-first recursion, so in a batch every interval gets the
    bits of a call of its own.

    Raises QuadratureError naming the first interval, in array order, that
    needs more than _MAX_SUBDIVISIONS (4096) splits.
    """
    shape = np.broadcast(a, b).shape
    a, b = np.full(shape, a, dtype=float).ravel(), np.full(shape, b, dtype=float).ravel()
    if (a > b).any():
        raise ValueError("integration bounds must satisfy a <= b")
    tol = np.full(a.size, tol, dtype=float)
    with np.errstate(all="ignore"):  # inf and nan stay silent, as in float math
        total = _refine(f, a, b, tol, indexed)
    return total if shape else float(total[0])


# Rows of the panel table: the Simpson value of a panel, its interval (as a
# float), x at its left edge, midpoint and right edge, f there, and its
# tolerance; then, filled level by level, the quarter points (rows 9, 10), f
# there (11, 12), the Simpson values of the two halves (13, 14) and the
# halved tolerance (15). _CHILDREN picks the first nine rows of the left and
# right half of every panel.
_CHILDREN = np.array([[13, 14], [1, 1], [2, 3], [9, 10], [3, 4], [5, 6],
                      [11, 12], [6, 7], [15, 15]])


def _refine(f, a, b, tol, indexed: bool) -> np.ndarray:
    """The level-by-level refinement behind integrate."""
    n = a.size

    def evaluate(x, owner):
        if not indexed:
            return f(x)
        owner = owner.astype(np.intp)
        return f((x, np.concatenate([owner] * (x.size // owner.size))))

    live = np.flatnonzero(a != b)
    if not live.size:  # f is never called without abscissae
        return np.zeros(n)
    x0, x1 = a[live], b[live]
    xm = 0.5 * (x0 + x1)
    f0, fm, f1 = evaluate(np.concatenate((x0, xm, x1)), live).reshape(3, -1)
    whole = (f0 + 4.0 * fm + f1) * (x1 - x0) / 6.0
    panels = np.empty((16, live.size))
    panels[:9] = [whole, live, x0, xm, x1, f0, fm, f1, tol[live]]
    accepted = []  # per level, rows 0-2 (value, interval, left edge) of its accepted panels
    splits, count = 0, None  # over all intervals; per interval
    failed = n  # the first interval over its budget
    while panels.shape[1]:
        k = panels.shape[1]
        quarter, fq, halves = panels[9:11], panels[11:13], panels[13:15]
        np.add(panels[2:4], panels[3:5], out=quarter)
        quarter *= 0.5
        fq[:] = evaluate(quarter.ravel(), panels[1]).reshape(2, k)
        # Simpson's rule on both halves: (f0 + 4 fq + fm) (xm - x0) / 6 on
        # the left, (fm + 4 fq + f1) (x1 - xm) / 6 on the right
        np.multiply(fq, 4.0, out=halves)
        halves += panels[5:7]
        halves += panels[6:8]
        halves *= panels[3:5] - panels[2:4]
        halves /= 6.0
        both = halves[0] + halves[1]
        err = both - panels[0]
        ok = np.abs(err) <= 15.0 * panels[8]
        np.add(both, err / 15.0, out=panels[0])
        accepted.append(panels[0:3].compress(ok, axis=1))
        np.multiply(panels[8], 0.5, out=panels[15])
        split = panels.compress(~ok, axis=1)
        panels = np.empty((16, 2, split.shape[1]))
        np.take(split, _CHILDREN, axis=0, out=panels[:9], mode="clip")
        panels = panels.reshape(16, -1)
        splits += split.shape[1]
        if splits <= _MAX_SUBDIVISIONS:
            continue  # no interval can be over its budget yet
        if count is None:  # an interval has split (accepted + live - 1) times
            seen = np.concatenate([level[1] for level in accepted] + [panels[1]])
            count = np.bincount(seen.astype(np.intp), minlength=n) - 1
        else:
            count += np.bincount(split[1].astype(np.intp), minlength=n)
        failed = min(failed, np.flatnonzero(count > _MAX_SUBDIVISIONS).min(initial=n))
        if failed < n:  # later intervals cannot change which one is named
            panels = panels[:, panels[1] < failed]
    if failed < n:
        raise QuadratureError(
            f"no convergence within {_MAX_SUBDIVISIONS} subdivisions "
            f"on [{float(a[failed])!r}, {float(b[failed])!r}]"
        )
    # An interval's accepted panels do not overlap, and none has zero width (a
    # panel between adjacent floats has err = 0 and is accepted whole), so the
    # depth-first order, right to left, sorts them by descending left edge.
    # (The stable sort by interval runs as a radix sort on small integer types.)
    value, owner, x0 = np.concatenate(accepted, axis=1)
    order = np.argsort(-x0)
    order = order[np.argsort(owner[order].astype(np.min_scalar_type(n)), kind="stable")]
    return sequential_sums(value[order], owner[order].astype(np.intp), n)


def bose_integrand(x):
    """x / (e^x - 1) with bose_integrand(0) = 1 (the x -> 0 limit), for a
    float or elementwise over an array."""
    x = np.asarray(x, dtype=float)
    lo, hi = x.min(), x.max()
    if lo < 0:
        raise ValueError("bose_integrand defined for x >= 0")
    # the clip keeps 0/0 and e^x overflow out; both ends are replaced below,
    # only where the array reaches them: skipping the two np.where passes
    # cuts a one-temperature harmonic e_bar by about a fifth (2-vCPU Xeon VM)
    value = x / np.expm1(np.minimum(np.maximum(x, 1e-4), 700.0))
    if lo < 1e-4:
        # 1 - x/2 + x^2/12: keeps full precision where e^x - 1 cancels.
        value = np.where(x < 1e-4, 1.0 - 0.5 * x + x * x / 12.0, value)
    if hi > 700.0:
        # e^x overflows a double past ~709; the value itself is ~x e^{-x}.
        value = np.where(x > 700.0, x * np.exp(-x), value)
    return value if value.ndim else float(value)


def min_integer_above(bound: float) -> int:
    """Smallest integer n >= 1 with n > bound (strict).

    Above 2^53 a float bound has no fractional part and its spacing exceeds
    1, so the integer's low digits are the float rounding of the bound, not
    part of the answer.
    """
    if math.isnan(bound):
        raise ValueError("bound is nan")
    if math.isinf(bound):
        raise OverflowError("bound is not finite; no integer exceeds it")
    if bound < 1.0:
        return 1
    return math.floor(bound) + 1
