"""Translation-invariant quasi-free fermion families.

A family is described by two real symbols ``q, r`` on the torus ``[0, 2pi)^nu``
(``nu`` = 1 or 2) bounded into ``[c, 1-c]``.  Block ``n`` uses the Toeplitz
compressions ``Q_n``, ``R_n`` of the symbols (multi-level, lexicographic over
the hypercube for ``nu = 2``).  Renyi quantities reduce to ``n^nu``-dimensional
single-particle formulas; small blocks can additionally be materialized as
explicit ``2^m``-dimensional Fock-space densities through the determinant
construction ``w_Q = det(I-Q) (+)_k wedge^k (Q (I-Q)^{-1})``, which serves as
an independent oracle.  Per-mode limits are Szego-type integrals of the
symbols.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.linalg import toeplitz

from .hoeffding import ConvexRate
from .operators import HermitianOperator

FOURIER_GRID_1D = 2**14
FOURIER_GRID_2D = 2**11  # 2^14 per axis is beyond desk scale in two dimensions
QUAD_GRID = 2**12
FOCK_MODE_CAP = 12

__all__ = [
    "TrigPolySymbol",
    "QuasiFreePayload",
    "quasifree_block_symbol",
    "quasifree_psi_singleparticle",
    "singleparticle_psi",
    "fock_density",
    "fock_basis",
    "szego_limit",
    "quasifree_relent_limit",
    "quasifree_slope_at_infinity",
    "quasifree_rate",
    "payload_to_json",
    "payload_from_json",
]


@dataclass
class TrigPolySymbol:
    """Real trigonometric polynomial ``c0 + sum_k a_k cos(kx) + b_k sin(kx)``."""

    constant: float
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.constant)
        for k, a in enumerate(self.cos_coeffs, start=1):
            out += a * np.cos(k * x)
        for k, b in enumerate(self.sin_coeffs, start=1):
            out += b * np.sin(k * x)
        return out


SymbolLike = Union[TrigPolySymbol, Callable]


@dataclass
class QuasiFreePayload:
    """Symbol pair with a common bound ``c <= q, r <= 1 - c``, ``c in (0, 1/2)``.

    Symbols are trig-polynomial coefficient tables (``nu = 1``) or callables
    on ``[0, 2pi)^nu`` vectorized over numpy arrays (``nu = 2`` callables take
    two broadcastable arguments).
    """

    nu: int
    q_symbol: SymbolLike
    r_symbol: SymbolLike
    c_bound: float

    def __post_init__(self):
        if self.nu not in (1, 2):
            raise ValueError("only lattice dimensions 1 and 2 are supported")
        if not 0.0 < self.c_bound < 0.5:
            raise ValueError("c_bound must lie in (0, 1/2)")
        for name, sym in (("q", self.q_symbol), ("r", self.r_symbol)):
            vals = _sample_symbol(sym, self.nu, 2**12 if self.nu == 1 else 2**9)
            lo, hi = float(vals.min()), float(vals.max())
            if lo < self.c_bound - 1e-9 or hi > 1.0 - self.c_bound + 1e-9:
                raise ValueError(
                    f"{name} symbol range [{lo:.6g}, {hi:.6g}] escapes "
                    f"[{self.c_bound}, {1 - self.c_bound}]"
                )


def _sample_symbol(sym, nu, grid):
    # broadcast so that symbols ignoring an argument (constants, or functions
    # of one coordinate only) still sample the full torus grid
    x = 2.0 * np.pi * np.arange(grid) / grid
    if nu == 1:
        return np.broadcast_to(np.asarray(sym(x), dtype=float), (grid,))
    vals = np.asarray(sym(x[:, None], x[None, :]), dtype=float)
    return np.broadcast_to(vals, (grid, grid))


def quasifree_block_symbol(payload, n, dim_cap=4096):
    """Toeplitz compressions ``(Q_n, R_n)`` of the two symbols.

    Entries are Fourier coefficients evaluated by dense FFT sums; the result
    is Hermitian by construction and its spectrum is checked against the
    ``c_bound`` window (compressions cannot escape the symbol's essential
    range).
    """
    if n < 1:
        raise ValueError("block size must be positive")
    if n**payload.nu > dim_cap:
        raise ValueError(f"single-particle dimension {n}^{payload.nu} exceeds cap")
    out = []
    for sym in (payload.q_symbol, payload.r_symbol):
        t = _toeplitz_compression(sym, payload.nu, n)
        op = HermitianOperator(t, hermiticity_tol=1e-10)
        lo, hi = op.min_eigenvalue, op.max_eigenvalue
        if lo < payload.c_bound - 1e-8 or hi > 1.0 - payload.c_bound + 1e-8:
            raise ValueError(
                f"compression spectrum [{lo:.6g}, {hi:.6g}] violates symbol bounds"
            )
        out.append(op)
    return tuple(out)


def _toeplitz_compression(sym, nu, n):
    if nu == 1:
        grid = FOURIER_GRID_1D
        vals = _sample_symbol(sym, 1, grid)
        coeffs = np.fft.fft(vals) / grid
        col = coeffs[:n].copy()
        col[0] = col[0].real
        return toeplitz(col)  # row defaults to the conjugate: Hermitian
    grid = FOURIER_GRID_2D
    vals = _sample_symbol(sym, 2, grid)
    coeffs = np.fft.fft2(vals) / grid**2
    idx = np.arange(n)
    diff = np.mod(idx[:, None] - idx[None, :], grid)
    block = coeffs[diff[:, None, :, None], diff[None, :, None, :]]
    t = block.reshape(n * n, n * n)
    return 0.5 * (t + t.conj().T)


def _strict_unit_interval(op, what):
    w = op.eigenvalues
    if w[0] <= 0.0 or w[-1] >= 1.0:
        raise ValueError(
            f"{what} spectrum [{w[0]:.6g}, {w[-1]:.6g}] is not strictly inside (0, 1)"
        )
    return w


def _log1p_pow(mu, alpha):
    """``log(1 + mu**alpha)`` without overflow for large ``mu**alpha``."""
    mu = np.asarray(mu, dtype=float)
    out = np.empty_like(mu)
    big = mu > 1.0
    with np.errstate(over="ignore"):
        out[big] = alpha * np.log(mu[big]) + np.log1p(mu[big] ** (-alpha))
        out[~big] = np.log1p(np.clip(mu[~big], 0.0, None) ** alpha)
    return out


def singleparticle_psi(qn, rn, alpha, variant="sandwiched"):
    """Raw ``psi`` of the quasi-free pair from single-particle data.

    Sandwiched:
    ``alpha Tr log(I-Qn) + (1-alpha) Tr log(I-Rn) + Tr log(I + W^alpha)`` with
    ``W = Qhat^(1/2) Rhat^((1-alpha)/alpha) Qhat^(1/2)`` and
    ``Qhat = Qn (I-Qn)^{-1}``.  Plain uses
    ``Tr log(I + Qhat^(alpha/2) Rhat^(1-alpha) Qhat^(alpha/2))`` instead, so
    every matrix function acts on a Hermitian argument.  Callers divide by
    ``n^nu`` themselves.
    """
    if alpha <= 0:
        raise ValueError("order must be positive")
    if variant not in ("plain", "sandwiched"):
        raise ValueError(f"unknown variant {variant!r}")
    lam_q = _strict_unit_interval(qn, "Qn")
    lam_r = _strict_unit_interval(rn, "Rn")
    term_q = alpha * float(np.log1p(-lam_q).sum())
    term_r = (1.0 - alpha) * float(np.log1p(-lam_r).sum())
    qhat = lam_q / (1.0 - lam_q)
    rhat = lam_r / (1.0 - lam_r)
    vq, vr = qn.eigenvectors, rn.eigenvectors
    if variant == "sandwiched":
        x = (vq * np.sqrt(qhat)) @ vq.conj().T
        y = (vr * rhat ** ((1.0 - alpha) / alpha)) @ vr.conj().T
        w = x @ y @ x
        mu = np.clip(np.linalg.eigvalsh(0.5 * (w + w.conj().T)), 0.0, None)
        return term_q + term_r + float(_log1p_pow(mu, alpha).sum())
    z = (vq * qhat ** (alpha / 2.0)) @ vq.conj().T
    y = (vr * rhat ** (1.0 - alpha)) @ vr.conj().T
    w = z @ y @ z
    mu = np.clip(np.linalg.eigvalsh(0.5 * (w + w.conj().T)), 0.0, None)
    return term_q + term_r + float(np.log1p(mu).sum())


def quasifree_psi_singleparticle(payload, n, alpha, variant="sandwiched"):
    """``psi`` at block ``n`` straight from the payload's symbols."""
    qn, rn = quasifree_block_symbol(payload, n)
    return singleparticle_psi(qn, rn, alpha, variant=variant)


# -- Fock-space oracle -----------------------------------------------------


def fock_basis(m):
    """Occupation basis in sector order: (k, subset) for k = 0..m, subsets lex."""
    out = []
    for k in range(m + 1):
        out.extend((k, s) for s in itertools.combinations(range(m), k))
    return out


def fock_density(symbol):
    """Explicit ``2^m``-dimensional density of the quasi-free state.

    Built as ``det(I-Q)`` times the direct sum over particle sectors of
    ``wedge^k(Q (I-Q)^{-1})``, whose entries are the ``k x k`` minors
    ``det A[S, T]`` (subsets in lexicographic order).  Determinants are
    evaluated in batched chunks.
    """
    m = symbol.dim
    if m > FOCK_MODE_CAP:
        raise ValueError(f"{m} modes exceed the Fock cap {FOCK_MODE_CAP}")
    lam = _strict_unit_interval(symbol, "symbol")
    log_det = float(np.log1p(-lam).sum())
    c0 = math.exp(log_det)
    a = (symbol.eigenvectors * (lam / (1.0 - lam))) @ symbol.eigenvectors.conj().T
    a = 0.5 * (a + a.conj().T)
    dim = 2**m
    out = np.zeros((dim, dim), dtype=complex)
    offset = 0
    for k in range(m + 1):
        subs = np.array(list(itertools.combinations(range(m), k)), dtype=int)
        count = subs.shape[0]
        if k == 0:
            out[offset, offset] = c0
            offset += 1
            continue
        chunk = max(1, int(2_000_000 // max(count * k * k, 1)))
        for s0 in range(0, count, chunk):
            rows = subs[s0 : s0 + chunk]
            batch = a[rows[:, None, :, None], subs[None, :, None, :]]
            dets = np.linalg.det(batch)
            out[offset + s0 : offset + s0 + rows.shape[0], offset : offset + count] = (
                c0 * dets
            )
        offset += count
    op = HermitianOperator(out, hermiticity_tol=1e-9)
    if abs(op.trace - 1.0) > 1e-10:
        raise ValueError(f"Fock density trace {op.trace!r} deviates from 1")
    return op


# -- per-mode limits -------------------------------------------------------


def _symbol_mean(payload, integrand, grid=QUAD_GRID):
    """Torus average of ``integrand(q_values, r_values)`` on a periodic grid."""
    x = 2.0 * np.pi * np.arange(grid) / grid
    if payload.nu == 1:
        qv = np.asarray(payload.q_symbol(x), dtype=float)
        rv = np.asarray(payload.r_symbol(x), dtype=float)
        return float(np.mean(integrand(qv, rv)))
    total = 0.0
    rows = 256
    for i0 in range(0, grid, rows):
        xi = x[i0 : i0 + rows, None]
        shape = (xi.shape[0], grid)
        qv = np.broadcast_to(np.asarray(payload.q_symbol(xi, x[None, :]), dtype=float), shape)
        rv = np.broadcast_to(np.asarray(payload.r_symbol(xi, x[None, :]), dtype=float), shape)
        total += float(integrand(qv, rv).sum())
    return total / grid**2


def szego_limit(payload, alpha, grid=QUAD_GRID):
    """Per-mode limit of ``(1/n^nu) psi_n``: torus average of the binary
    cumulant ``log[q^a r^(1-a) + (1-q)^a (1-r)^(1-a)]`` (both variants share
    it)."""
    if alpha <= 0:
        raise ValueError("order must be positive")

    def integrand(q, r):
        return np.logaddexp(
            alpha * np.log(q) + (1.0 - alpha) * np.log(r),
            alpha * np.log1p(-q) + (1.0 - alpha) * np.log1p(-r),
        )

    return _symbol_mean(payload, integrand, grid)


def quasifree_relent_limit(payload, grid=QUAD_GRID):
    """Per-mode relative entropy: torus average of the binary divergence."""

    def integrand(q, r):
        return q * (np.log(q) - np.log(r)) + (1.0 - q) * (np.log1p(-q) - np.log1p(-r))

    return _symbol_mean(payload, integrand, grid)


def quasifree_slope_at_infinity(payload, grid=QUAD_GRID):
    """``lim psi_bar(alpha)/(alpha-1)``: average of the larger log-ratio."""

    def integrand(q, r):
        return np.maximum(np.log(q) - np.log(r), np.log1p(-q) - np.log1p(-r))

    return _symbol_mean(payload, integrand, grid)


def quasifree_rate(payload, grid=QUAD_GRID):
    """Asymptotic rate curve of the family from the Szego limits."""
    return ConvexRate.from_callable(
        lambda t: szego_limit(payload, t, grid),
        right_derivative_at_1=quasifree_relent_limit(payload, grid),
        slope_at_infinity=quasifree_slope_at_infinity(payload, grid),
    )


# -- JSON ------------------------------------------------------------------


def _symbol_to_json(sym):
    if not isinstance(sym, TrigPolySymbol):
        raise ValueError("only trig-polynomial coefficient tables serialize to JSON")
    return {
        "constant": sym.constant,
        "cos_coeffs": list(sym.cos_coeffs),
        "sin_coeffs": list(sym.sin_coeffs),
    }


def _symbol_from_json(d):
    return TrigPolySymbol(
        constant=float(d["constant"]),
        cos_coeffs=tuple(d.get("cos_coeffs", ())),
        sin_coeffs=tuple(d.get("sin_coeffs", ())),
    )


def payload_to_json(payload):
    return {
        "nu": payload.nu,
        "q_symbol": _symbol_to_json(payload.q_symbol),
        "r_symbol": _symbol_to_json(payload.r_symbol),
        "c_bound": payload.c_bound,
    }


def payload_from_json(d):
    return QuasiFreePayload(
        nu=int(d["nu"]),
        q_symbol=_symbol_from_json(d["q_symbol"]),
        r_symbol=_symbol_from_json(d["r_symbol"]),
        c_bound=float(d["c_bound"]),
    )
