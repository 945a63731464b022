"""Legendre-type machinery for convex rate functions and anti-divergences.

A rate function here is convex on ``[1, t_hi]`` with ``f(1) = 0`` and
``f >= 0``; typical instances are cumulant limits ``alpha -> psi_bar(alpha)``
of state families.  Two transforms are provided:

* the polar ``f_polar(a) = sup_{t > 1} { a (t - 1) - f(t) }``, and
* the anti-divergence ``H_r = sup_{t > 1} (r (t - 1) - f(t)) / t``,

with the standard case split: ``H_r = 0`` for ``r`` at most the right
derivative of ``f`` at 1, a linear tail ``H_r = r - a_max`` beyond
``r_max = f_polar(a_max) + a_max`` when the slope at infinity ``a_max`` is
finite, and otherwise the interior value ``r - a_r`` where ``a_r`` is the
unique root of ``f_polar(a) + a = r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

DEFAULT_T_HI = 64.0
GOLDEN_XTOL = 1e-10  # golden-search stop width in t; at a smooth max, value error O(width^2)
BISECTION_XTOL = 1e-10  # bracket width in a where the anti-divergence bisection stops
BISECTION_MAX_STEPS = 200  # caps the halvings where float spacing at a keeps the bracket wider
TAIL_SLOPE_TOL = 1e-8  # a sup objective rising faster than this at t_hi is still climbing
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

__all__ = [
    "ConvexRate",
    "HoeffdingResult",
    "PolarResult",
    "polar",
    "polar_detail",
    "hoeffding_anti",
    "sc_lower_bound_curve",
    "rate_from_samples",
    "richardson",
]


def _golden_max(g, lo, hi):
    """Golden-section maximizer of a unimodal function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    gc, gd = g(c), g(d)
    while b - a > GOLDEN_XTOL:
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - _INVPHI * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _INVPHI * (b - a)
            gd = g(d)
    t = 0.5 * (a + b)
    return t, g(t)


def _convex_minorant(x, y):
    """Greatest convex minorant of points on a grid; returns minorant values."""
    hull = [0]
    for i in range(1, len(x)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = (x[i1] - x[i0]) * (y[i] - y[i0]) - (y[i1] - y[i0]) * (x[i] - x[i0])
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    hx = x[hull]
    hy = y[hull]
    return np.interp(x, hx, hy)


@dataclass
class ConvexRate:
    """Convex rate function on ``[1, t_hi]`` with ``f(1) = 0``.

    ``slope_at_infinity`` may be ``math.inf``.  Sampled curves take it from
    their last chord, a proxy rather than an exact limit, so ``slope_is_exact``
    is False and regime labels derived from it are best-available rather than
    certified.
    """

    fn: Callable[[float], float]
    right_derivative_at_1: float
    slope_at_infinity: float = math.inf
    t_hi: float = DEFAULT_T_HI
    slope_is_exact: bool = True
    residuals: Optional[np.ndarray] = field(default=None, repr=False)

    def __call__(self, t):
        if not 1.0 <= t <= self.t_hi + 1e-12:
            raise ValueError(f"t = {t!r} outside domain [1, {self.t_hi}]")
        return float(self.fn(min(t, self.t_hi)))

    @classmethod
    def from_callable(
        cls,
        fn,
        right_derivative_at_1,
        slope_at_infinity=math.inf,
        t_hi=DEFAULT_T_HI,
    ):
        """Rate ``t -> fn(t) - fn(1)``, memoised per ``t``: ``fn`` runs once per
        distinct ``t`` (two threads asking at once may both run it, for the
        same value).  The caller gives the exact right derivative at 1."""
        f1 = fn(1.0)
        if abs(f1) > 1e-9:
            raise ValueError(f"rate function must vanish at 1, got f(1) = {f1!r}")
        memo = {}

        def shifted(t):
            if t not in memo:
                memo[t] = fn(t) - f1
            return memo[t]

        return cls(
            fn=shifted,
            right_derivative_at_1=float(right_derivative_at_1),
            slope_at_infinity=float(slope_at_infinity),
            t_hi=float(t_hi),
        )

    @classmethod
    def from_samples(cls, alphas, values, residuals=None, right_derivative_at_1=None):
        """Piecewise-linear convex rate through sampled points.

        The grid must start at ``alpha = 1`` where the value must vanish to
        1e-8.  Data is projected onto its greatest convex minorant; a
        projection distance beyond ``1e-6 * scale`` is an error.  Linear
        interpolation keeps the curve convex, and Legendre-type sups then
        agree exactly with discrete sups over the grid.  When the exact
        derivative at 1 is known (e.g. a closed-form relative-entropy rate),
        pass it; the first-chord default overestimates it by O(grid step).
        """
        a = np.asarray(alphas, dtype=float)
        v = np.asarray(values, dtype=float).copy()
        if a.ndim != 1 or a.shape != v.shape or a.size < 2:
            raise ValueError("need matching 1-d grids with at least two points")
        if np.diff(a).min() <= 0:
            raise ValueError("alpha grid must be strictly increasing")
        if abs(a[0] - 1.0) > 1e-12:
            raise ValueError("alpha grid must start at 1")
        if abs(v[0]) > 1e-8:
            raise ValueError(f"rate at alpha = 1 must vanish, got {v[0]!r}")
        v[0] = 0.0
        minorant = _convex_minorant(a, v)
        scale = max(np.abs(v).max(), 1.0)
        worst = float((v - minorant).max())
        if worst > 1e-6 * scale:
            raise ValueError(
                f"samples are not convex: deviation {worst:.3e} above gate"
            )
        v = minorant
        chord_last = (v[-1] - v[-2]) / (a[-1] - a[-2])
        if right_derivative_at_1 is None:
            right_derivative_at_1 = (v[1] - v[0]) / (a[1] - a[0])
        return cls(
            fn=lambda t: float(np.interp(t, a, v)),
            right_derivative_at_1=float(right_derivative_at_1),
            slope_at_infinity=float(chord_last),
            t_hi=float(a[-1]),
            slope_is_exact=False,
            residuals=None if residuals is None else np.asarray(residuals, float),
        )


@dataclass
class PolarResult:
    value: float
    argmax_t: Optional[float]
    tail_dominated: bool


def _sup(g, f):
    """``(t, value, climbing)`` for the sup of ``g`` over ``[1, f.t_hi]``.

    A ``g`` still rising at ``t_hi`` returns ``(t_hi, g(t_hi), True)`` unsearched;
    otherwise the better of a golden search and the end point.
    """
    t_hi = f.t_hi
    delta = min(1e-6, (t_hi - 1.0) * 1e-3)
    end = g(t_hi)
    if end - g(t_hi - delta) > TAIL_SLOPE_TOL * delta:
        return t_hi, end, True
    t_star, val = _golden_max(g, 1.0, t_hi)
    if end > val:
        return t_hi, end, False
    return t_star, val, False


def polar_detail(f, a):
    """Polar transform with diagnostics.

    ``tail_dominated`` means the objective was still climbing at ``t_hi``; the
    supremum then lives at infinity.  In that case the value is ``inf`` when
    ``a`` exceeds the slope of ``f`` at infinity and the boundary value (best
    available) otherwise.
    """
    if a <= f.right_derivative_at_1:
        return PolarResult(0.0, None, False)
    t_star, val, climbing = _sup(lambda t: a * (t - 1.0) - f(t), f)
    if climbing:
        if a > f.slope_at_infinity:
            return PolarResult(math.inf, None, True)
        return PolarResult(val, t_star, True)
    return PolarResult(max(val, 0.0), t_star, False)


def polar(f, a):
    """``sup_{t > 1} { a (t - 1) - f(t) }``; exactly 0 below the derivative at 1."""
    return polar_detail(f, a).value


@dataclass
class HoeffdingResult:
    """Outcome of the anti-divergence case split at a given rate ``r``."""

    r: float
    value: float
    regime: str  # "zero" | "interior" | "linear_tail"
    a_r: Optional[float] = None
    attaining_t: Optional[float] = None
    tail_dominated: bool = False


def hoeffding_anti(f, r):
    """Anti-divergence ``sup_{t > 1} (r (t - 1) - f(t)) / t`` with case split.

    Returns a :class:`HoeffdingResult`; ``value`` is zero iff ``r`` does not
    exceed the right derivative of ``f`` at 1 (within 1e-9).
    """
    a_min = f.right_derivative_at_1
    if r <= a_min + 1e-9:
        return HoeffdingResult(r=r, value=0.0, regime="zero")
    a_max = f.slope_at_infinity
    if math.isfinite(a_max):
        tail = polar_detail(f, a_max)
        if math.isfinite(tail.value):
            r_max = tail.value + a_max
            if r >= r_max - 1e-12:
                return HoeffdingResult(
                    r=r,
                    value=r - a_max,
                    regime="linear_tail",
                    a_r=a_max,
                    attaining_t=None,
                    tail_dominated=tail.tail_dominated,
                )
        # an infinite polar at a_max pushes r_max to infinity: always interior

    def h(a):
        return polar(f, a) + a - r

    lo = a_min
    if math.isfinite(a_max):
        hi = a_max
    else:
        hi = r + 1.0
    # h is strictly increasing (polar slope >= 0 plus the +a term), and h(hi) > 0:
    # a finite tail gets here only with r < r_max - 1e-12, so h(a_max) = r_max - r;
    # an infinite tail makes h(a_max) infinite; and h(r + 1) >= 1, the polar being >= 0
    for _ in range(BISECTION_MAX_STEPS):
        if hi - lo <= BISECTION_XTOL:
            break
        mid = 0.5 * (lo + hi)
        if h(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    a_r = 0.5 * (lo + hi)
    detail = polar_detail(f, a_r)
    return HoeffdingResult(
        r=r,
        value=r - a_r,
        regime="interior",
        a_r=a_r,
        attaining_t=detail.argmax_t,
        tail_dominated=detail.tail_dominated,
    )


def sc_lower_bound_curve(f, r):
    """Direct evaluation of ``sup_{t > 1} (r (t - 1) - f(t)) / t``.

    Numerically identical to ``hoeffding_anti(f, r).value``; exposed
    separately so reports can cross-check the two routes.
    """
    _, val, climbing = _sup(lambda t: (r * (t - 1.0) - f(t)) / t, f)
    if climbing and math.isfinite(f.slope_at_infinity):
        return max(r - f.slope_at_infinity, val, 0.0)
    return max(val, 0.0)


def richardson(c, s):
    """One-term Richardson in ``1/c`` of rows ``s[i]`` sampled at scales ``c[i]``.

    Returns ``(fine, residual)``: ``fine`` cancels the ``1/c`` term between
    the two largest scales; ``residual`` is its change against the
    next-coarser pair, the last difference for two scales, ``inf`` for one.
    """
    c, s = np.asarray(c, dtype=float), np.asarray(s, dtype=float)
    if c.size == 1:
        return s[0], np.full(np.shape(s[0]), math.inf)
    fine = (c[-1] * s[-1] - c[-2] * s[-2]) / (c[-1] - c[-2])
    if c.size == 2:
        return fine, np.abs(s[-1] - s[-2])
    coarse = (c[-2] * s[-2] - c[-3] * s[-3]) / (c[-2] - c[-3])
    return fine, np.abs(fine - coarse)


def rate_from_samples(n_list, alphas, psi_matrix):
    """Extrapolated rate curve from finite-size cumulant samples.

    Parameters
    ----------
    n_list : increasing sample sizes (at least three).
    alphas : order grid starting at 1.
    psi_matrix : array (len(n_list), len(alphas)) of raw ``psi_n(alpha)``,
        which grow like ``n``; extrapolation is first-order Richardson in
        ``1/n`` using the two largest sizes, and the reported per-alpha
        residual is the shift relative to the next-coarser pair.
    """
    n = np.asarray(n_list, dtype=float)
    a = np.asarray(alphas, dtype=float)
    m = np.asarray(psi_matrix, dtype=float)
    if n.size < 3:
        raise ValueError("need at least three sample sizes for extrapolation")
    if np.diff(n).min() <= 0:
        raise ValueError("sample sizes must be strictly increasing")
    if m.shape != (n.size, a.size):
        raise ValueError(f"psi matrix shape {m.shape} does not match grids")
    c_fine, residuals = richardson(n, m / n[:, None])
    return ConvexRate.from_samples(a, c_fine, residuals=residuals)
