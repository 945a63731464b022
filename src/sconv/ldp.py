"""Classical large-deviation bounds for weighted finite sample sequences.

A :class:`WeightedSampleSequence` is a family of finite positive measures
``mu_n`` (support points plus log-weights, not necessarily normalized) with a
positive scale sequence ``c_n``.  The module computes log-moment-generating
functions and extrapolates the normalized curve ``Lambda_bar(t) = lim (1/c_n)
Lambda_n(c_n t)`` over whole ``t`` grids: each call builds one ``(size x t)``
table of ``Lambda_n(c_n t)/c_n`` and takes :func:`sconv.hoeffding.richardson`
of it.  From that curve it derives Chernoff-style upper bounds on tail rates and
verifies the matching lower bound empirically through the tilted-measure
construction: locate ``t_x`` with ``Lambda_bar'(t_x) = x``, predict the
windowed tail rate ``-Lambda_bar*(x)``, and report per-``n`` margins plus the
concentration of the exponentially tilted measure.

Everything is exact log-space arithmetic on the finite supports; at block
sizes in the thousands the tail masses themselves underflow doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.special import gammaln, logsumexp

from .hoeffding import richardson
from .hyptest import _pinched_sectors

CAUCHY_TOL = 1e-3  # normalized log-MGF gap between the largest sizes that counts as converged
TILT_WINDOW_FRACTION = 0.05

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

    ``support(n)`` returns ``(y, log_w)`` arrays; weights are positive by
    construction (log-space) and supports finite.
    """

    support: Callable[[int], tuple]
    c: Callable[[int], float]
    n_list: tuple

    def __post_init__(self):
        self.n_list = tuple(sorted(int(n) for n in self.n_list))
        if not self.n_list:
            raise ValueError("need at least one sample size")
        for n in self.n_list[:1]:
            y, lw = self.support(n)
            if np.asarray(y).size == 0:
                raise ValueError("empty support")
            if np.asarray(y).shape != np.asarray(lw).shape:
                raise ValueError("support points and log-weights must align")
        if any(self.c(n) <= 0 for n in self.n_list):
            raise ValueError("scales c_n must be positive")


def _support(seq, n):
    y, lw = seq.support(n)
    return np.asarray(y, dtype=float), np.asarray(lw, dtype=float)


def log_mgf(seq, n, t):
    """``Lambda_n(t) = log sum w_i e^{t y_i}`` by log-sum-exp.

    A 1-d ``t`` gives the array of values over the grid from one fetch of the
    support.
    """
    y, lw = _support(seq, n)
    if y.size == 0:
        raise ValueError("empty support")
    if np.ndim(t) == 0:
        return float(logsumexp(lw + t * y))
    return np.array([logsumexp(lw + ti * y) for ti in t])


def _normalized_samples(seq, t_grid):
    """Scales ``c_n`` and the ``(size x t)`` table of ``Lambda_n(c_n t)/c_n``."""
    cs = np.array([float(seq.c(n)) for n in seq.n_list])
    table = np.array([log_mgf(seq, n, cn * t_grid) / cn
                      for n, cn in zip(seq.n_list, cs)])
    return cs, table


def lambda_bar(seq, t):
    """Extrapolated ``lim (1/c_n) Lambda_n(c_n t)`` with a Cauchy residual.

    One-term Richardson in ``1/c_n`` from the two largest sizes; the residual
    is the change against the next-coarser pair (or the last finite
    difference when only two sizes exist).  A 1-d ``t`` gives both as arrays.
    """
    fine, resid = richardson(*_normalized_samples(seq, np.atleast_1d(t)))
    if np.ndim(t) == 0:
        return float(fine[0]), float(resid[0])
    return fine, resid


@dataclass
class RateCurve:
    """Extrapolated log-MGF curve and its Legendre transform on a grid."""

    t_grid: np.ndarray
    values: np.ndarray
    residuals: np.ndarray
    spline: CubicSpline

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
        return float(brentq(lambda t: float(d(t)) - x, self.t_grid[0], self.t_grid[-1]))

    def legendre(self, x):
        t_x = self.stationary_t(x)
        return x * t_x - float(self.spline(t_x))


def _check_grid(t_grid):
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 4 or np.diff(t_grid).min() <= 0:
        raise ValueError("need an increasing grid with at least four points")
    return t_grid


def _rate_curve(t_grid, cs, table):
    vals, resid = richardson(cs, table)
    second = np.diff(vals, 2)
    scale = max(float(np.abs(vals).max()), 1.0)
    if second.min() < -1e-6 * scale:
        raise ValueError("extrapolated curve is visibly non-convex; refuse to spline")
    return RateCurve(t_grid=t_grid, values=vals, residuals=resid,
                     spline=CubicSpline(t_grid, vals))


def build_rate_curve(seq, t_grid):
    """Richardson-extrapolate ``Lambda_bar`` over a grid and spline it."""
    t_grid = _check_grid(t_grid)
    return _rate_curve(t_grid, *_normalized_samples(seq, t_grid))


def chernoff_upper(seq, x, t_grid=None, side="ge"):
    """Upper bound ``-sup_t { t x - Lambda_bar(t) }`` on the tail rate.

    ``side='ge'`` bounds ``limsup (1/c_n) log mu_n([x, oo))`` with ``t >= 0``;
    ``side='le'`` bounds the ``(-oo, x]`` tail with ``t <= 0``.  ``t = 0`` is
    always included, so the bound is at most ``Lambda_bar(0)`` (vacuous for
    probability measures).
    """
    if side not in ("ge", "le"):
        raise ValueError(f"unknown side {side!r}")
    if t_grid is None:
        t_grid = np.linspace(0.0, 32.0, 129)
        if side == "le":
            t_grid = -t_grid
    t_grid = np.asarray(t_grid, dtype=float)
    if side == "ge" and t_grid.min() < 0:
        raise ValueError("upper-tail bound needs t >= 0")
    if side == "le" and t_grid.max() > 0:
        raise ValueError("lower-tail bound needs t <= 0")
    if not np.any(t_grid == 0.0):
        t_grid = np.append(t_grid, 0.0)
    vals, _ = lambda_bar(seq, t_grid)
    return -float(np.max(t_grid * x - vals))


def exact_tail_rate(seq, n, x, side="ge"):
    """``(1/c_n) log mu_n`` of the closed tail at ``x`` (exact log-space sum)."""
    if side not in ("ge", "le"):
        raise ValueError(f"unknown side {side!r}")
    y, lw = _support(seq, n)
    mask = y >= x if side == "ge" else y <= x
    if not mask.any():
        return -math.inf
    return float(logsumexp(lw[mask])) / float(seq.c(n))


def windowed_rate(seq, n, x0, x1):
    """``(1/c_n) log mu_n((x0, x1))`` over the open window."""
    y, lw = _support(seq, n)
    mask = (y > x0) & (y < x1)
    if not mask.any():
        return -math.inf
    return float(logsumexp(lw[mask])) / float(seq.c(n))


@dataclass
class GELowerVerdict:
    """Outcome of the empirical tilted-measure lower-bound verification."""

    x: float
    window: tuple
    t_x: float
    legendre_value: float
    margins: list  # per-n: windowed rate + Lambda_bar*(x); -> 0 from below
    tilted_mass: float
    delta: float
    converged: bool
    curve: RateCurve
    notes: tuple = ()

    @property
    def final_margin(self):
        return self.margins[-1][1]


def gartner_ellis_lower_check(seq, x, window, t_range, grid_points=201,
                              delta_fraction=TILT_WINDOW_FRACTION):
    """Verify the tilted-measure lower bound for the windowed tail at ``x``.

    Refuses to run when the normalized log-MGF samples have not numerically
    converged (successive differences over the grid above ``CAUCHY_TOL`` for
    the last three sizes).  Returns the stationary point, the rate prediction
    ``-Lambda_bar*(x)``, per-``n`` margins (windowed empirical rate minus
    prediction), and the concentration of the tilted measure near ``x``.
    """
    x0, x1 = window
    if not x0 <= x < x1:
        raise ValueError("x must lie at the left edge of the open window")
    if len(seq.n_list) < 3:
        raise ValueError("need at least three sizes for the convergence gate")
    t_grid = _check_grid(np.linspace(t_range[0], t_range[1], grid_points))
    cs, table = _normalized_samples(seq, t_grid)
    gaps = np.abs(np.diff(table[-3:], axis=0)).max(axis=1)
    converged = bool((gaps <= CAUCHY_TOL).all())
    if not converged:
        raise ValueError(
            f"normalized log-MGF not Cauchy at tolerance {CAUCHY_TOL}: gaps {gaps}"
        )
    curve = _rate_curve(t_grid, cs, table)
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
    y, lw = _support(seq, n_big)
    cn = float(seq.c(n_big))
    log_tilt = lw + cn * t_y * y
    log_tilt -= logsumexp(log_tilt)
    sel = (y > x) & (y < x + delta)
    mass = float(np.exp(logsumexp(log_tilt[sel]))) if sel.any() else 0.0
    notes = []
    if mass < 0.99:
        notes.append(
            f"tilted mass {mass:.4f} below 0.99 at n = {n_big}; "
            "window may be too narrow for this size"
        )
    return GELowerVerdict(
        x=float(x),
        window=(float(x0), float(x1)),
        t_x=t_x,
        legendre_value=leg,
        margins=margins,
        tilted_mass=mass,
        delta=delta,
        converged=converged,
        curve=curve,
        notes=tuple(notes),
    )


# -- shipped instantiations ------------------------------------------------


def binomial_sequence(n_list, prob=0.5):
    """Sample means of ``n`` coin flips: ``mu_n`` the binomial law on ``k/n``."""
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie in (0, 1)")
    lp, lq = math.log(prob), math.log1p(-prob)

    def support(n):
        k = np.arange(n + 1, dtype=float)
        lw = (
            gammaln(n + 1)
            - gammaln(k + 1)
            - gammaln(n - k + 1)
            + k * lp
            + (n - k) * lq
        )
        return k / n, lw

    return WeightedSampleSequence(support=support, c=lambda n: float(n),
                                  n_list=tuple(n_list))


def pinched_pair_sequence(rho1, sigma1, n_list, under="sigma"):
    """Normalized log-likelihood ratio of a pinched qubit i.i.d. pair.

    Support points are ``y = (1/n)(log lam - log mu)`` over joint eigenpairs
    of the pinched state and the reference ``sigma_n``, one Hamming sector of
    ``hyptest._pinched_sectors`` at a time; weights are the
    ``sigma_n`` eigenvalues (``under='sigma'``) or the pinched-state
    eigenvalues (``under='rho_hat'``).  With sigma-weights,
    ``Lambda_n(n t) = psi(t)`` of the pinched pair; with rho-weights it is
    ``psi(1 + t)``.
    """
    if under not in ("sigma", "rho_hat"):
        raise ValueError(f"unknown weighting {under!r}")

    def support(n):
        ys, lws = [], []
        for lam, log_mu_k in _pinched_sectors(rho1, sigma1, n):
            lam = lam[lam > 0]
            ys.append((np.log(lam) - log_mu_k) / n)
            lws.append(np.full(lam.size, log_mu_k) if under == "sigma" else np.log(lam))
        return np.concatenate(ys), np.concatenate(lws)

    return WeightedSampleSequence(support=support, c=lambda n: float(n),
                                  n_list=tuple(n_list))
