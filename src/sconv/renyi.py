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

from .operators import (
    HermitianOperator,
    _read_only,
    log_on_support,
    logsumexp,
    power_matrices,
    power_on_support,
    supports_nested,
)

VARIANTS = ("plain", "sandwiched")
ORDER_ONE_TOL = 1e-12  # |alpha - 1| under this is order 1: the divergence quotient is 0/0

__all__ = [
    "VARIANTS",
    "psi",
    "psi_curve",
    "renyi_divergence",
    "relative_entropy",
    "max_relative_entropy",
    "psi_derivative",
]


def _check_variant(variant):
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _check_order(t):
    if t <= 0:
        raise ValueError(f"sandwiched quantities need t > 0, got {t!r}")


def _check_args(variant, t):
    """Refuse an unknown variant, then a non-finite order, then a sandwiched
    order ``t <= 0``, before any operator is looked at."""
    _check_variant(variant)
    if not math.isfinite(t):
        raise ValueError(f"order must be finite, got {t!r}")
    if variant == "sandwiched":
        _check_order(t)


def _overlap(rho, sigma):
    """``(logp, logq, ov)`` over the two supports (empty arrays on an empty one).

    ``logp``/``logq`` are the log-eigenvalues of ``rho``/``sigma`` on their
    supports and ``ov[i, j]`` is the squared overlap of their eigenvectors.
    """
    ir = rho.support_indices()
    js = sigma.support_indices()
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


def _sandwiched_base(rho, sigma):
    """The function ``t -> (M, A, S)`` with ``M = S A S`` an operator and the
    matrices ``A = sigma^((1-t)/t)`` and ``S = rho^(1/2)``.

    Sigma's PSD gate and spectrum and ``S`` (rho's gate) are taken here, once;
    each order then costs one power of sigma's spectrum and one ``eigh``.
    """
    power = power_matrices(sigma)
    sq = _read_only(power_on_support(rho, 0.5).entries)

    def base(t):
        _check_order(t)
        a = power((1.0 - t) / t)
        m = sq @ a @ sq
        return HermitianOperator(0.5 * (m + m.conj().T)), a, sq

    return base


def psi_curve(rho, sigma, variant="plain"):
    """The function ``t -> psi(rho, sigma, t, variant)``, its order-free work
    done once, here: the eigen-overlaps (plain), or rho^(1/2) and sigma's
    spectrum (sandwiched, which refuses a sigma that is not PSD now).

    It reads only read-only arrays, so threads may share it.
    """
    _check_variant(variant)
    if variant == "plain":
        overlap = tuple(map(_read_only, _overlap(rho, sigma)))
        return lambda t: logsumexp(_log_terms(overlap, t))
    base = _sandwiched_base(rho, sigma)

    def sandwiched(t):
        m = base(t)[0]
        cut = m.support_cutoff()
        return logsumexp(t * np.log(m.eigenvalues[m.eigenvalues > cut]))

    return sandwiched


def psi(rho, sigma, t, variant="plain"):
    """Cumulant-type functional ``log Q_t``; ``-inf`` when ``Q_t`` vanishes."""
    _check_args(variant, t)
    return psi_curve(rho, sigma, variant)(t)


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
    _check_args(variant, alpha)
    if alpha < 0:
        raise ValueError("negative orders are out of scope")
    if abs(alpha - 1.0) < ORDER_ONE_TOL:
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
    _check_args(variant, t)
    if variant == "plain":
        overlap = _overlap(rho, sigma)
        logp, logq, _ = overlap
        terms = _log_terms(overlap, t)
        total = logsumexp(terms)
        if math.isinf(total):
            raise ValueError("derivative undefined: rho * sigma vanishes")
        weights = np.exp(terms - total)
        return float((weights * (logp[:, None] - logq[None, :])).sum())

    m, a, sq = _sandwiched_base(rho, sigma)(t)
    keep = m.eigenvalues > m.support_cutoff()
    log_lam = np.log(m.eigenvalues[keep])
    log_q = logsumexp(t * log_lam)
    if log_q == -math.inf:
        raise ValueError("derivative undefined: sandwiched base vanishes")
    term1 = float((np.exp(t * log_lam - log_q) * log_lam).sum())
    # Tr M^(t-1) B / Q in M's eigenpairs, each weight taken in the log domain
    # so that M^(t-1) is never formed: it overflows at orders of a few hundred
    v = m.eigenvectors[:, keep]
    b = sq @ (a @ log_on_support(sigma).entries) @ sq
    diag_b = np.einsum("ij,ij->j", v.conj(), b @ v).real
    term2 = float((np.exp((t - 1.0) * log_lam - log_q) * diag_b).sum()) / t
    return term1 - term2
