"""Classical large-deviation bounds for weighted finite sample sequences.

A :class:`WeightedSampleSequence` is a family of finite positive measures
``mu_n`` (support points plus log-weights, not necessarily normalized) with a
positive scale sequence ``c_n``.  The module computes log-moment-generating
functions and extrapolates the normalized curve ``Lambda_bar(t) = lim (1/c_n)
Lambda_n(c_n t)``.  :func:`build_rate_curve` is the one place that builds the
``(size x t)`` table of ``Lambda_n(c_n t)/c_n`` over a ``t`` grid; it takes
:func:`sconv.hoeffding.richardson` of the table and splines the result into a
:class:`RateCurve`, which keeps the sequence and the table.  The bounds read a
curve built beforehand, so one table serves every ``x``: the Chernoff-style
upper bound on tail rates reads the curve's values, and the tilted-measure
construction verifies the matching lower bound empirically: it locates
``t_x`` with ``Lambda_bar'(t_x) = x``, predicts the windowed tail rate
``-Lambda_bar*(x)``, and reports per-``n`` margins plus the concentration of
the exponentially tilted measure.

Everything is exact log-space arithmetic on the finite supports; at block
sizes in the thousands the tail masses themselves underflow doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hoeffding import richardson
from .hyptest import _sector_spectra
from .operators import log_factorials, logsumexp, logsumexp_rows

CAUCHY_TOL = 1e-3  # normalized log-MGF gap between the largest sizes that counts as converged
TILT_WINDOW_FRACTION = 0.05
# entries per logsumexp_rows call of a log-MGF grid, about 1 MB of temporaries:
# smaller blocks pay numpy's per-call cost more often, larger ones are no faster
BLOCK = 16384

__all__ = [
    "WeightedSampleSequence",
    "RateCurve",
    "GELowerVerdict",
    "log_mgf",
    "lambda_bar",
    "build_rate_curve",
    "chernoff_upper",
    "exact_tail_rate",
    "windowed_rate",
    "gartner_ellis_lower_check",
    "binomial_sequence",
    "pinched_pair_sequence",
]


@dataclass
class WeightedSampleSequence:
    """Finite positive measures ``mu_n`` with scales ``c_n``.

    ``points`` maps each size ``n`` to its ``(y, log_w)`` arrays; the sizes are
    the keys.  Every size is converted and checked here, once: weights are
    positive by construction (log-space) and supports finite and non-empty.
    """

    points: dict
    c: Callable[[int], float]

    def __post_init__(self):
        if not self.points:
            raise ValueError("need at least one sample size")
        self.points = {n: (np.asarray(y, dtype=float), np.asarray(lw, dtype=float))
                       for n, (y, lw) in self.points.items()}
        for n, (y, lw) in self.points.items():
            if y.size == 0:
                raise ValueError(f"empty support at n = {n}")
            if y.shape != lw.shape:
                raise ValueError(f"support points and log-weights must align at n = {n}")
            if not np.isfinite(y).all():
                raise ValueError(f"support points must be finite at n = {n}")
            if not (lw < np.inf).all():  # NaN or +inf; -inf is a zero weight
                raise ValueError(f"log-weights must not be NaN or +inf at n = {n}")
        if any(self.c(n) <= 0 for n in self.n_list):
            raise ValueError("scales c_n must be positive")

    @property
    def n_list(self):
        return tuple(sorted(self.points))

    def support(self, n):
        """The ``(y, log_w)`` arrays of size ``n``."""
        if n not in self.points:
            raise ValueError(f"n = {n} is not a size of this sequence {self.n_list}")
        return self.points[n]


def log_mgf(seq, n, t):
    """``Lambda_n(t) = log sum w_i e^{t y_i}`` by log-sum-exp.

    A scalar ``t`` gives a float.  A 1-d grid ``t`` of finite points gives the
    array of values over it: the rows ``lw + t_i y`` are built and reduced
    ``max(1, BLOCK // size)`` grid points at a time by one
    :func:`logsumexp_rows` call, and each value is the same to the bit as the
    scalar call at that point.  A ``t`` of two or more dimensions, or with a
    non-finite entry, raises ``ValueError``.
    """
    y, lw = seq.support(n)
    if np.ndim(t) == 0:
        return logsumexp(lw + t * y)
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"t must be a scalar or a 1-d grid, not an array of shape {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError("grid points t must be finite")
    k = max(1, BLOCK // y.size)
    rows = [logsumexp_rows(lw + t[i:i + k, None] * y) for i in range(0, t.size, k)]
    return np.concatenate(rows) if rows else np.empty(0)


def lambda_bar(seq, t):
    """Extrapolated ``lim (1/c_n) Lambda_n(c_n t)`` at one ``t`` with a residual.

    One-term Richardson in ``1/c_n`` from the two largest sizes; the residual
    is the change against the next-coarser pair (or the last finite
    difference when only two sizes exist).
    """
    cs = np.array([float(seq.c(n)) for n in seq.n_list])
    samples = [log_mgf(seq, n, cn * t) / cn for n, cn in zip(seq.n_list, cs)]
    fine, resid = richardson(cs, samples)
    return float(fine), float(resid)


class _PPoly:
    """A piecewise polynomial as scipy 1.17's ``PPoly`` evaluates it, to the bit.

    Column ``c[:, i]`` holds the power-basis coefficients, highest degree
    first, of interval ``[x[i], x[i + 1])`` in ``s = t - x[i]``; the last
    interval is closed and the end intervals extend past the nodes.
    """

    def __init__(self, x, c):
        self.x, self.c = x, c

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.x.size - 2)
        s = t - self.x[i]
        out, z = 0.0, 1.0
        for coef in self.c[::-1, i]:  # a power sum with z *= s, as PPoly sums it
            out = out + coef * z
            z = z * s
        return out

    def derivative(self):
        return _PPoly(self.x, self.c[:-1] * np.arange(len(self.c) - 1, 0, -1.0)[:, None])


def _not_a_knot_spline(x, y):
    """scipy 1.17's ``CubicSpline(x, y)`` on ``n >= 4`` nodes, to the bit.

    The node slopes solve scipy's not-a-knot tridiagonal system by
    :func:`_gtsv`; the coefficients are then taken as ``CubicHermiteSpline``
    takes them.
    """
    if not (np.isfinite(x).all() and (np.diff(x) > 0).all()):
        raise ValueError("spline nodes must be finite and strictly increasing")
    if not np.isfinite(y).all():
        raise ValueError("spline values must be finite")
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d, du, dl, b = (np.empty(len(x) - k) for k in (0, 1, 1, 0))
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du[1:], dl[:-1] = dx[:-1], dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    h0, h1 = x[2] - x[0], x[-1] - x[-3]  # the not-a-knot end rows
    d[0], du[0], d[-1], dl[-1] = dx[1], h0, dx[-2], h1
    b[0] = ((dx[0] + 2 * h0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / h0
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * h1 + dx[-1]) * dx[-2] * slope[-1]) / h1
    s = np.array(_gtsv(dl.tolist(), d.tolist(), du.tolist(), b.tolist()))
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return _PPoly(x, np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])))


def _gtsv(dl, d, du, b):
    """LAPACK ``dgtsv`` on one right-hand side: Gaussian elimination with
    partial pivoting of the tridiagonal system ``(dl, d, du)``, in the
    reference routine's order of operations.  Works on the lists in place and
    returns the solution ``b``."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):  # no interchange
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:  # interchange rows i and i + 1; dl[i] keeps the fill-in of row i
            fact = d[i] / dl[i]
            d[i], temp = dl[i], d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _brentq(f, a, b):
    """A root of ``f`` in ``[a, b]``: scipy 1.17's ``brentq`` (its C loop) with
    its defaults, ``xtol = 2e-12``, ``rtol = 4 eps`` and 100 iterations."""
    xtol, rtol = 2e-12, 4 * np.finfo(float).eps
    xpre, xcur = np.float64(a), np.float64(b)
    fpre, fcur = np.float64(f(xpre)), np.float64(f(xcur))
    if fpre == 0:
        return float(xpre)
    if fcur == 0:
        return float(xcur)
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return float(xcur)
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            with np.errstate(all="ignore"):  # IEEE results as in C; a nan step bisects
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = np.float64(f(xcur))
    raise RuntimeError(f"root finder did not converge in 100 iterations (last x = {xcur})")


@dataclass
class RateCurve:
    """Extrapolated log-MGF curve and its Legendre transform on a grid; ``table``
    holds ``Lambda_n(c_n t)/c_n`` of ``seq``, one row per size."""

    seq: WeightedSampleSequence
    t_grid: np.ndarray
    table: np.ndarray
    values: np.ndarray
    residuals: np.ndarray
    spline: _PPoly

    def lambda_bar(self, t):
        lo, hi = self.t_grid[0], self.t_grid[-1]
        if not lo - 1e-12 <= t <= hi + 1e-12:
            raise ValueError(f"t = {t!r} outside fitted range [{lo}, {hi}]")
        return float(self.spline(t))

    def slope_range(self):
        d = self.spline.derivative()
        return float(d(self.t_grid[0])), float(d(self.t_grid[-1]))

    def stationary_t(self, x):
        """Solve ``Lambda_bar'(t) = x``; domain error outside the slope range."""
        d = self.spline.derivative()
        lo, hi = self.slope_range()
        if not lo < x < hi:
            raise ValueError(
                f"x = {x!r} outside the exposed slope interval ({lo:.6g}, {hi:.6g})"
            )
        return _brentq(lambda t: float(d(t)) - x, self.t_grid[0], self.t_grid[-1])

    def legendre(self, x):
        t_x = self.stationary_t(x)
        return x * t_x - float(self.spline(t_x))


def build_rate_curve(seq, t_grid):
    """Tabulate ``Lambda_n(c_n t)/c_n`` over an increasing grid (the one
    log-MGF table builder), Richardson-extrapolate it to ``Lambda_bar``, and
    spline it unless the extrapolation is visibly non-convex."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 4 or np.diff(t_grid).min() <= 0:
        raise ValueError("need an increasing grid with at least four points")
    cs = np.array([float(seq.c(n)) for n in seq.n_list])
    table = np.array([log_mgf(seq, n, cn * t_grid) / cn
                      for n, cn in zip(seq.n_list, cs)])
    vals, resid = richardson(cs, table)
    scale = max(float(np.abs(vals).max()), 1.0)
    if np.diff(vals, 2).min() < -1e-6 * scale:
        raise ValueError("extrapolated curve is visibly non-convex; refuse to spline")
    return RateCurve(seq=seq, t_grid=t_grid, table=table, values=vals, residuals=resid,
                     spline=_not_a_knot_spline(t_grid, vals))


def chernoff_upper(curve, x, side="ge"):
    """Upper bound ``-sup_t { t x - Lambda_bar(t) }`` over the curve's grid.

    ``side='ge'`` bounds ``limsup (1/c_n) log mu_n([x, oo))`` and needs a grid
    of ``t >= 0``; ``side='le'`` bounds the ``(-oo, x]`` tail and needs
    ``t <= 0``.  The grid must contain ``t = 0``, so the bound is at most
    ``Lambda_bar(0)`` (vacuous for probability measures).
    """
    if side not in ("ge", "le"):
        raise ValueError(f"unknown side {side!r}")
    t_grid = curve.t_grid
    if side == "ge" and t_grid[0] < 0:
        raise ValueError("upper-tail bound needs t >= 0")
    if side == "le" and t_grid[-1] > 0:
        raise ValueError("lower-tail bound needs t <= 0")
    if not np.any(t_grid == 0.0):
        raise ValueError("Chernoff bound needs the grid node t = 0")
    return -float(np.max(t_grid * x - curve.values))


def exact_tail_rate(seq, n, x, side="ge"):
    """``(1/c_n) log mu_n`` of the closed tail at ``x`` (exact log-space sum)."""
    if side not in ("ge", "le"):
        raise ValueError(f"unknown side {side!r}")
    y, lw = seq.support(n)
    mask = y >= x if side == "ge" else y <= x
    return logsumexp(lw[mask]) / float(seq.c(n))


def windowed_rate(seq, n, x0, x1):
    """``(1/c_n) log mu_n((x0, x1))`` over the open window."""
    y, lw = seq.support(n)
    mask = (y > x0) & (y < x1)
    return logsumexp(lw[mask]) / float(seq.c(n))


@dataclass
class GELowerVerdict:
    """Outcome of the empirical tilted-measure lower-bound verification."""

    x: float
    t_x: float
    legendre_value: float
    margins: list  # per-n: windowed rate + Lambda_bar*(x); -> 0 from below
    tilted_mass: float
    curve: RateCurve
    notes: tuple = ()

    @property
    def final_margin(self):
        return self.margins[-1][1]


def gartner_ellis_lower_check(curve, x, window, delta_fraction=TILT_WINDOW_FRACTION):
    """Verify the tilted-measure lower bound for the windowed tail at ``x``.

    Reads the sequence and its log-MGF table off ``curve``.  Refuses to run
    when the table has not numerically converged (successive differences over
    the grid above ``CAUCHY_TOL`` for the last three sizes).  Returns the
    stationary point, the rate prediction ``-Lambda_bar*(x)``, per-``n``
    margins (windowed empirical rate minus prediction), and the concentration
    of the tilted measure near ``x``.
    """
    x0, x1 = window
    if not x0 <= x < x1:
        raise ValueError("x must lie at the left edge of the open window")
    seq = curve.seq
    if len(seq.n_list) < 3:
        raise ValueError("need at least three sizes for the convergence gate")
    gaps = np.abs(np.diff(curve.table[-3:], axis=0)).max(axis=1)
    if not (gaps <= CAUCHY_TOL).all():
        raise ValueError(
            f"normalized log-MGF not Cauchy at tolerance {CAUCHY_TOL}: gaps {gaps}"
        )
    t_x = curve.stationary_t(x)
    leg = x * t_x - float(curve.spline(t_x))
    margins = [(n, windowed_rate(seq, n, x0, x1) + leg) for n in seq.n_list]
    # tilted-measure concentration at the largest size
    delta = delta_fraction * (x1 - x0)
    y_mid = x + 0.5 * delta
    try:
        t_y = curve.stationary_t(y_mid)
    except ValueError:
        t_y = t_x
    n_big = seq.n_list[-1]
    y, lw = seq.support(n_big)
    cn = float(seq.c(n_big))
    log_tilt = lw + cn * t_y * y
    log_tilt -= logsumexp(log_tilt)
    sel = (y > x) & (y < x + delta)
    mass = math.exp(logsumexp(log_tilt[sel]))
    notes = []
    if mass < 0.99:
        notes.append(
            f"tilted mass {mass:.4f} below 0.99 at n = {n_big}; "
            "window may be too narrow for this size"
        )
    return GELowerVerdict(
        x=float(x),
        t_x=t_x,
        legendre_value=leg,
        margins=margins,
        tilted_mass=mass,
        curve=curve,
        notes=tuple(notes),
    )


# -- shipped instantiations ------------------------------------------------


def binomial_sequence(n_list, prob=0.5):
    """Sample means of ``n`` coin flips: ``mu_n`` the binomial law on ``k/n``."""
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie in (0, 1)")
    lp, lq = math.log(prob), math.log1p(-prob)
    points = {}
    for n in n_list:
        k = np.arange(n + 1, dtype=float)
        log_fact = log_factorials(n)
        lw = log_fact[n] - log_fact - log_fact[::-1] + k * lp + (n - k) * lq
        points[n] = k / n, lw
    return WeightedSampleSequence(points, c=lambda n: float(n))


def pinched_pair_sequence(rho1, sigma1, n_list, under="sigma"):
    """Normalized log-likelihood ratio of a pinched qubit i.i.d. pair.

    Support points are ``y = (1/n)(log lam - log mu)`` over joint eigenpairs
    of the pinched state and the reference ``sigma_n``, one Hamming sector of
    ``hyptest._sector_spectra`` at a time, one point per eigenvalue class;
    weights are the class multiplicity times the ``sigma_n`` eigenvalue
    (``under='sigma'``) or the pinched-state eigenvalue
    (``under='rho_hat'``).  With sigma-weights, ``Lambda_n(n t) = psi(t)``
    of the pinched pair; with rho-weights it is ``psi(1 + t)``.  Every size's
    points are built once, here, largest size first (so an over-cap size is
    refused before any other).
    """
    if under not in ("sigma", "rho_hat"):
        raise ValueError(f"unknown weighting {under!r}")
    points = {}
    for n in sorted(set(n_list), reverse=True):
        ys, lws = [], []
        for log_mult, log_lam, log_mu_k in _sector_spectra(rho1, sigma1, n):
            live = log_lam > -np.inf
            log_mult, log_lam = log_mult[live], log_lam[live]
            ys.append((log_lam - log_mu_k) / n)
            lws.append(log_mult + (log_mu_k if under == "sigma" else log_lam))
        points[n] = np.concatenate(ys), np.concatenate(lws)
    return WeightedSampleSequence(points, c=lambda n: float(n))
