"""Renyi relative quantities for pairs of positive semidefinite operators.

Two families are covered: the "plain" trace functional
``Q_t = Tr rho^t sigma^(1-t)`` (any real ``t``) and the sandwiched one
``Q*_t = Tr (rho^(1/2) sigma^((1-t)/t) rho^(1/2))^t`` (``t > 0``).  All
powers and logarithms follow the support convention of
:mod:`sconv.operators`; trace functionals are evaluated through eigen-overlap
weights and log-sum-exp so that large orders (``t`` up to a few hundred) do
not overflow.

Divergences return ``math.inf`` (never NaN) when the support condition fails
at order ``> 1``; callers are expected to test ``math.isinf`` before doing
arithmetic with the result.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from .operators import (
    HermitianOperator,
    log_on_support,
    power_on_support,
    supports_nested,
)

VARIANTS = ("plain", "sandwiched")

__all__ = [
    "VARIANTS",
    "q_value",
    "psi",
    "renyi_divergence",
    "relative_entropy",
    "max_relative_entropy",
    "psi_derivative",
    "psi_scaling_residual",
    "divergence_scaling_residual",
    "classical_psi",
    "classical_renyi_divergence",
]


def _check_variant(variant):
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _overlap(rho, sigma):
    """``(logp, logq, ov)`` over the two supports, ``None`` if either is empty.

    ``logp``/``logq`` are the log-eigenvalues of ``rho``/``sigma`` on their
    supports and ``ov[i, j]`` is the squared overlap of their eigenvectors.
    """
    ir = rho.support_indices()
    js = sigma.support_indices()
    if ir.size == 0 or js.size == 0:
        return None
    logp = np.log(rho.eigenvalues[ir])
    logq = np.log(sigma.eigenvalues[js])
    ov = np.abs(rho.eigenvectors[:, ir].conj().T @ sigma.eigenvectors[:, js]) ** 2
    return logp, logq, ov


def _log_terms(overlap, t):
    """Log-terms of Tr rho^t sigma^(1-t) as a (support, support) array."""
    logp, logq, ov = overlap
    with np.errstate(divide="ignore"):
        logw = np.log(ov)
    return logw + t * logp[:, None] + (1.0 - t) * logq[None, :]


def _sandwiched_base(rho, sigma, t):
    """The operator M = rho^(1/2) sigma^((1-t)/t) rho^(1/2)."""
    if t <= 0:
        raise ValueError(f"sandwiched quantities need t > 0, got {t!r}")
    a = power_on_support(sigma, (1.0 - t) / t)
    sq = power_on_support(rho, 0.5)
    m = sq.entries @ a.entries @ sq.entries
    return HermitianOperator(0.5 * (m + m.conj().T))


def psi(rho, sigma, t, variant="plain"):
    """Cumulant-type functional ``log Q_t``; ``-inf`` when ``Q_t`` vanishes."""
    _check_variant(variant)
    if variant == "plain":
        overlap = _overlap(rho, sigma)
        if overlap is None:
            return -math.inf
        return float(logsumexp(_log_terms(overlap, t).ravel()))
    m = _sandwiched_base(rho, sigma, t)
    cut = m.support_cutoff()
    lam = m.eigenvalues[m.eigenvalues > cut]
    if lam.size == 0:
        return -math.inf
    return float(logsumexp(t * np.log(lam)))


def q_value(rho, sigma, t, variant="plain"):
    """Trace functional ``Q_t`` (plain) or ``Q*_t`` (sandwiched)."""
    return math.exp(psi(rho, sigma, t, variant))


def relative_entropy(rho, sigma):
    """Umegaki relative entropy, normalized by ``Tr rho``; ``inf`` off-support."""
    ok, _ = supports_nested(rho, sigma)
    if not ok:
        return math.inf
    idx = rho.support_indices()
    p = rho.eigenvalues[idx]
    term1 = float((p * np.log(p)).sum())
    ls = log_on_support(sigma)
    term2 = float(np.trace(rho.entries @ ls.entries).real)
    return (term1 - term2) / rho.trace


def max_relative_entropy(rho, sigma):
    """``log`` of the largest eigenvalue of ``sigma^(-1/2) rho sigma^(-1/2)``."""
    ok, _ = supports_nested(rho, sigma)
    if not ok:
        return math.inf
    si = power_on_support(sigma, -0.5)
    x = si.entries @ rho.entries @ si.entries
    w = np.linalg.eigvalsh(0.5 * (x + x.conj().T))
    top = float(w[-1])
    if top <= 0.0:
        return -math.inf
    return math.log(top)


def renyi_divergence(rho, sigma, alpha, variant="plain"):
    """Renyi divergence of order ``alpha``; ``inf`` flags the singular cases.

    ``alpha = 1`` is the relative entropy; ``alpha > 1`` returns ``inf``
    whenever ``supp rho`` is not contained in ``supp sigma``.
    """
    _check_variant(variant)
    if alpha < 0:
        raise ValueError("negative orders are out of scope")
    if abs(alpha - 1.0) < 1e-12:
        return relative_entropy(rho, sigma)
    if alpha > 1.0:
        ok, _ = supports_nested(rho, sigma)
        if not ok:
            return math.inf
    p = psi(rho, sigma, alpha, variant)
    if math.isinf(p):
        # vanishing Q at alpha < 1 means orthogonal supports
        return math.inf
    return (p - math.log(rho.trace)) / (alpha - 1.0)


def psi_derivative(rho, sigma, t, variant="plain"):
    """Closed-form derivative ``d psi / dt`` at ``t``.

    Plain variant: ``(1/Q_t) Tr rho^t sigma^(1-t) (log rho - log sigma)``,
    valid for every real ``t``.  Sandwiched variant (``t > 0``), with
    ``M = rho^(1/2) sigma^((1-t)/t) rho^(1/2)``:

    ``(1/Q*_t) [Tr M^t log M - (1/t) Tr M^(t-1) rho^(1/2) sigma^((1-t)/t)
    (log sigma) rho^(1/2)]``.

    Both reduce to the relative entropy at ``t = 1`` for states.
    """
    _check_variant(variant)
    if variant == "plain":
        overlap = _overlap(rho, sigma)
        if overlap is None:
            raise ValueError("derivative undefined: rho * sigma vanishes")
        logp, logq, _ = overlap
        terms = _log_terms(overlap, t)
        total = logsumexp(terms)
        if math.isinf(total):
            raise ValueError("derivative undefined: rho * sigma vanishes")
        weights = np.exp(terms - total)
        return float((weights * (logp[:, None] - logq[None, :])).sum())

    m = _sandwiched_base(rho, sigma, t)
    cut = m.support_cutoff()
    on = m.eigenvalues > cut
    lam = m.eigenvalues[on]
    if lam.size == 0:
        raise ValueError("derivative undefined: sandwiched base vanishes")
    log_q = logsumexp(t * np.log(lam))
    term1 = float((np.exp(t * np.log(lam) - log_q) * np.log(lam)).sum())
    a = power_on_support(sigma, (1.0 - t) / t)
    ls = log_on_support(sigma)
    sq = power_on_support(rho, 0.5)
    b = sq.entries @ (a.entries @ ls.entries) @ sq.entries
    mpow = power_on_support(m, t - 1.0)
    term2 = float(np.trace(mpow.entries @ b).real) / t
    return term1 - term2 * math.exp(-log_q)


def psi_scaling_residual(rho, sigma, lam, kappa, t, variant="plain"):
    """|psi(t | lam*rho, kappa*sigma) - t log lam - (1-t) log kappa - psi(t)|."""
    lhs = psi(
        HermitianOperator(lam * rho.entries),
        HermitianOperator(kappa * sigma.entries),
        t,
        variant,
    )
    rhs = t * math.log(lam) + (1.0 - t) * math.log(kappa) + psi(rho, sigma, t, variant)
    return abs(lhs - rhs)


def divergence_scaling_residual(rho, sigma, lam, kappa, alpha, variant="plain"):
    """|D(lam*rho || kappa*sigma) - log lam + log kappa - D(rho || sigma)|."""
    lhs = renyi_divergence(
        HermitianOperator(lam * rho.entries),
        HermitianOperator(kappa * sigma.entries),
        alpha,
        variant,
    )
    rhs = math.log(lam) - math.log(kappa) + renyi_divergence(rho, sigma, alpha, variant)
    if math.isinf(lhs) or math.isinf(rhs):
        return 0.0 if lhs == rhs else math.inf
    return abs(lhs - rhs)


# -- classical (commuting / probability-vector) forms ----------------------


def classical_psi(p, q, t):
    """``log sum_i p_i^t q_i^(1-t)`` over the common support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    on = (p > 0) & (q > 0)
    if not on.any():
        return -math.inf
    return float(logsumexp(t * np.log(p[on]) + (1.0 - t) * np.log(q[on])))


def classical_renyi_divergence(p, q, alpha):
    """Renyi divergence of probability vectors (plain = sandwiched here)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if alpha < 0:
        raise ValueError("negative orders are out of scope")
    total = p.sum()
    if abs(alpha - 1.0) < 1e-12:
        on = p > 0
        if (q[on] <= 0).any():
            return math.inf
        return float((p[on] * (np.log(p[on]) - np.log(q[on]))).sum() / total)
    if alpha > 1.0 and (q[p > 0] <= 0).any():
        return math.inf
    val = classical_psi(p, q, alpha)
    if math.isinf(val):
        return math.inf
    return (val - math.log(total)) / (alpha - 1.0)
