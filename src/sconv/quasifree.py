"""Translation-invariant quasi-free fermion families.

A family is described by two real symbols ``q, r`` on the torus ``[0, 2pi)^nu``
(``nu`` = 1 or 2) bounded into ``[c, 1-c]``.  Block ``n`` uses the Toeplitz
compressions ``Q_n``, ``R_n`` of the symbols (multi-level, lexicographic over
the hypercube for ``nu = 2``).  Renyi quantities reduce to ``n^nu``-dimensional
single-particle formulas; small blocks can additionally be materialized as
explicit ``2^m``-dimensional Fock-space densities
``w_Q = det(I-Q) (+)_k wedge^k (Q (I-Q)^{-1})``, which serve as an independent
oracle.  That density is block-diagonal in particle number: sector ``k``
(``C(m, k)`` occupation strings) is ``det(I-Q) wedge^k(...)``, built from
sector ``k - 1`` by Laplace expansion, and nothing couples two sectors, so
each block is diagonalised on its own.  Each call builds its density afresh:
a threshold sweep asks for each block's pair once (see :mod:`sconv.hyptest`).
Per-mode limits are Szego-type integrals of the symbols: one sampler,
``_sample_symbol``, evaluates them on the torus grid for both ``nu``, and one
mean, ``_symbol_mean``, averages each integrand over the samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .hoeffding import ConvexRate
from .operators import (DIM_CAP, HermitianOperator, StatePair, _check_json_object,
                        finite_json_numbers)

FOURIER_GRID_1D = 2**14
FOURIER_GRID_2D = 2**11  # 2^14 per axis is beyond desk scale in two dimensions
QUAD_GRID = 2**12

__all__ = [
    "TrigPolySymbol",
    "QuasiFreePayload",
    "quasifree_block_symbol",
    "quasifree_psi_singleparticle",
    "singleparticle_psi",
    "fock_density",
    "szego_limit",
    "quasifree_relent_limit",
    "quasifree_slope_at_infinity",
    "quasifree_rate",
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

    kind = "quasifree"

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

    @property
    def scaling_exponent(self):
        return self.nu

    @property
    def scalar_reference(self):
        """Whether the reference symbol is identically 1/2 (maximally mixed blocks).

        A ``TrigPolySymbol`` is decided from its coefficients: constant 1/2 and
        every other coefficient 0.  A callable is sampled on a periodic grid
        (512 points, or 64 per axis for ``nu = 2``), so one that differs from
        1/2 only between the grid points reads as scalar.
        """
        sym = self.r_symbol
        if isinstance(sym, TrigPolySymbol):
            return sym.constant == 0.5 and not any((*sym.cos_coeffs, *sym.sin_coeffs))
        vals = _sample_symbol(sym, self.nu, 64 if self.nu == 2 else 512)
        return bool(np.abs(vals - 0.5).max() <= 1e-12)

    def block_dim(self, n):
        return 2 ** (n**self.nu)

    def states(self, n):
        qn, rn = quasifree_block_symbol(self, n)
        return StatePair(fock_density(qn), fock_density(rn))

    def rate(self, variant):
        return quasifree_rate(self)

    def to_json(self):
        return {"nu": self.nu, "q_symbol": _symbol_to_json(self.q_symbol),
                "r_symbol": _symbol_to_json(self.r_symbol), "c_bound": self.c_bound}

    @classmethod
    def from_json(cls, d):
        """Payload from its JSON object; every number must be a finite JSON number,
        and the payload and each symbol take no keys but their own."""
        _check_json_object(d, "quasi-free payload", ("nu", "q_symbol", "r_symbol", "c_bound"))
        if type(d["nu"]) is not int or d["nu"] != 1:  # not isinstance: true is an int too
            raise ValueError(f"quasi-free nu must be the JSON integer 1, got {d['nu']!r}: "
                             "JSON symbols are one-dimensional trig polynomials")
        if not finite_json_numbers([d["c_bound"]]):
            raise ValueError(
                f"quasi-free c_bound must be a finite JSON number, got {d['c_bound']!r}")
        return cls(1, _symbol_from_json(d["q_symbol"], "q_symbol"),
                   _symbol_from_json(d["r_symbol"], "r_symbol"), float(d["c_bound"]))


def _sample_symbol(sym, nu, grid, rows=slice(None)):
    """``sym`` on the periodic grid of ``grid`` points per axis: the whole circle
    for ``nu = 1``, the ``rows`` slice of the first axis for ``nu = 2``.

    The values are broadcast to the grid's shape, so that symbols ignoring an
    argument (constants, or functions of one coordinate only) still sample
    every point.
    """
    x = 2.0 * np.pi * np.arange(grid) / grid
    if nu == 1:
        return np.broadcast_to(np.asarray(sym(x), dtype=float), (grid,))
    xi = x[rows, None]
    vals = np.asarray(sym(xi, x[None, :]), dtype=float)
    return np.broadcast_to(vals, (xi.shape[0], grid))


def quasifree_block_symbol(payload, n):
    """Toeplitz compressions ``(Q_n, R_n)`` of the two symbols.

    Entries are Fourier coefficients evaluated by dense FFT sums; the result
    is Hermitian by construction and its spectrum is checked against the
    ``c_bound`` window (compressions cannot escape the symbol's essential
    range).
    """
    if n < 1:
        raise ValueError("block size must be positive")
    if n**payload.nu > DIM_CAP:
        raise ValueError(f"single-particle dimension {n}^{payload.nu} exceeds cap")
    out = []
    for sym in (payload.q_symbol, payload.r_symbol):
        op = HermitianOperator(_toeplitz_compression(sym, payload.nu, n))
        lo, hi = op.min_eigenvalue, op.max_eigenvalue
        if lo < payload.c_bound - 1e-8 or hi > 1.0 - payload.c_bound + 1e-8:
            raise ValueError(
                f"compression spectrum [{lo:.6g}, {hi:.6g}] violates symbol bounds"
            )
        out.append(op)
    return tuple(out)


def _toeplitz_compression(sym, nu, n):
    """``T[i, j] = c[i - j]`` on and below the diagonal, over the ``n^nu`` sites in
    lexicographic order (``c``: the symbol's Fourier coefficients, constant term
    real), and conjugates above it: exactly Hermitian for both ``nu``."""
    grid = FOURIER_GRID_1D if nu == 1 else FOURIER_GRID_2D
    coeffs = np.fft.fftn(_sample_symbol(sym, nu, grid)) / grid**nu
    coeffs.flat[0] = coeffs.flat[0].real
    sites = np.indices((n,) * nu).reshape(nu, -1)
    t = coeffs[tuple(np.mod(k[:, None] - k[None, :], grid) for k in sites)]
    return np.where(np.tri(n**nu, dtype=bool), t, t.conj().T)


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
    sandwiched = variant == "sandwiched"
    eq, er = (0.5, (1.0 - alpha) / alpha) if sandwiched else (alpha / 2.0, 1.0 - alpha)
    vq, vr = qn.eigenvectors, rn.eigenvectors
    x = (vq * qhat ** eq) @ vq.conj().T
    y = (vr * rhat ** er) @ vr.conj().T
    w = x @ y @ x
    mu = np.clip(np.linalg.eigvalsh(0.5 * (w + w.conj().T)), 0.0, None)
    tail = _log1p_pow(mu, alpha) if sandwiched else np.log1p(mu)
    return term_q + term_r + float(tail.sum())


def quasifree_psi_singleparticle(payload, n, alpha, variant="sandwiched"):
    """``psi`` at block ``n`` straight from the payload's symbols."""
    qn, rn = quasifree_block_symbol(payload, n)
    return singleparticle_psi(qn, rn, alpha, variant=variant)


# -- Fock-space oracle -----------------------------------------------------


def fock_density(symbol):
    """Explicit ``2^m``-dimensional density of the quasi-free state.

    Built as ``det(I-Q)`` times the direct sum over particle sectors of
    ``wedge^k A``, ``A = Q (I-Q)^{-1}``, whose entries are the ``k x k`` minors
    ``C_k[S, T] = det A[S, T]`` (subsets in lexicographic order).  Each sector
    comes from the one before by Laplace expansion along the first row
    ``s0 = min S``,
    ``C_k[S, T] = sum_p (-1)^p A[s0, t_p] C_{k-1}[S - s0, T - t_p]``: ``k``
    vectorised gathers per sector and no determinant, with no temporary larger
    than a sector.  The density is block-diagonal in particle number: it is
    kept in blocks by :meth:`HermitianOperator.block_diagonal`, one ``eigh``
    per sector, and its ``sectors`` are ``(C(m, k))_{k=0..m}``; the dense
    ``2^m`` forms are built only if read.

    Every call builds a new density, whose blocks, spectra and dense forms
    are read-only.
    """
    m = symbol.dim
    if 2**m > DIM_CAP:
        raise ValueError(f"Fock dimension 2^{m} exceeds cap {DIM_CAP}")
    lam = _strict_unit_interval(symbol, "symbol")
    log_det = float(np.log1p(-lam).sum())
    c0 = math.exp(log_det)
    a = (symbol.eigenvectors * (lam / (1.0 - lam))) @ symbol.eigenvectors.conj().T
    a = 0.5 * (a + a.conj().T)
    rank = np.zeros(2**m, dtype=int)  # a subset's place in its sector, by bit mask
    minors = np.ones((1, 1), dtype=complex)  # wedge^0 A
    blocks = [c0 * minors]
    for k in range(1, m + 1):
        subs = np.array(list(itertools.combinations(range(m), k)), dtype=int)
        bits = 1 << subs
        masks = bits.sum(axis=1)
        rank[masks] = np.arange(len(subs))
        # Laplace expansion of every minor along its first row s0 = min S
        rows = a[subs[:, 0]]
        rest = minors[rank[masks - bits[:, 0]]]
        minors = np.zeros((len(subs), len(subs)), dtype=complex)
        for p in range(k):
            term = rows[:, subs[:, p]] * rest[:, rank[masks - bits[:, p]]]
            minors += -term if p % 2 else term
        blocks.append(c0 * minors)
    op = HermitianOperator.block_diagonal(blocks)
    if abs(op.trace - 1.0) > 1e-10:
        raise ValueError(f"Fock density trace {op.trace!r} deviates from 1")
    for arr in (*op.blocks, *itertools.chain(*op.block_spectra), op.eigenvalues):
        arr.flags.writeable = False
    return op


# -- per-mode limits -------------------------------------------------------


@dataclass
class _LogSamples:
    """``q`` symbol values on a grid with the four logarithms the integrands use."""

    q: np.ndarray
    log_q: np.ndarray
    log_r: np.ndarray
    log1m_q: np.ndarray  # log(1 - q)
    log1m_r: np.ndarray

    @classmethod
    def chunks(cls, payload):
        """Yield the samples of ``payload`` on the torus grid of ``QUAD_GRID``
        points per axis: the whole circle for ``nu = 1``, 256 rows at a time
        for ``nu = 2``."""
        rows = 256 if payload.nu == 2 else QUAD_GRID
        for i0 in range(0, QUAD_GRID, rows):
            q, r = (_sample_symbol(sym, payload.nu, QUAD_GRID, slice(i0, i0 + rows))
                    for sym in (payload.q_symbol, payload.r_symbol))
            yield cls(q, np.log(q), np.log(r), np.log1p(-q), np.log1p(-r))


def _symbol_mean(payload, integrand):
    """Torus average of ``integrand(samples)`` on the periodic grid of
    ``QUAD_GRID`` points per axis: the sum of its sums over the chunks of
    ``_LogSamples.chunks``, divided by the number of points.

    ``payload`` may also be a tuple of such chunks, which
    :func:`quasifree_rate` samples once for all its quadratures.
    """
    total, count = 0.0, 0
    for s in payload if isinstance(payload, tuple) else _LogSamples.chunks(payload):
        vals = integrand(s)
        total += float(vals.sum())
        count += vals.size
    return total / count


def szego_limit(payload, alpha):
    """Per-mode limit of ``(1/n^nu) psi_n``: torus average of the binary
    cumulant ``log[q^a r^(1-a) + (1-q)^a (1-r)^(1-a)]`` (both variants share
    it)."""
    if alpha <= 0:
        raise ValueError("order must be positive")

    def integrand(s):
        return np.logaddexp(
            alpha * s.log_q + (1.0 - alpha) * s.log_r,
            alpha * s.log1m_q + (1.0 - alpha) * s.log1m_r,
        )

    return _symbol_mean(payload, integrand)


def quasifree_relent_limit(payload):
    """Per-mode relative entropy: torus average of the binary divergence."""

    def integrand(s):
        return s.q * (s.log_q - s.log_r) + (1.0 - s.q) * (s.log1m_q - s.log1m_r)

    return _symbol_mean(payload, integrand)


def quasifree_slope_at_infinity(payload):
    """``lim psi_bar(alpha)/(alpha-1)``: average of the larger log-ratio."""

    def integrand(s):
        return np.maximum(s.log_q - s.log_r, s.log1m_q - s.log1m_r)

    return _symbol_mean(payload, integrand)


def quasifree_rate(payload):
    """Asymptotic rate curve of the family from the Szego limits."""
    if payload.nu == 1:  # sample the symbols and their logs once for every order
        payload = tuple(_LogSamples.chunks(payload))
    return ConvexRate.from_callable(
        lambda t: szego_limit(payload, t),
        right_derivative_at_1=quasifree_relent_limit(payload),
        slope_at_infinity=quasifree_slope_at_infinity(payload),
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


def _symbol_from_json(d, name):
    _check_json_object(d, f"quasi-free {name}", ("constant", "cos_coeffs", "sin_coeffs"))
    cos, sin = d.get("cos_coeffs", []), d.get("sin_coeffs", [])
    for key, vals in (("constant", [d["constant"]]), ("cos_coeffs", cos), ("sin_coeffs", sin)):
        if not (isinstance(vals, list) and finite_json_numbers(vals)):
            what = "a finite JSON number" if key == "constant" else "a list of finite JSON numbers"
            raise ValueError(f"quasi-free {name}.{key} must be {what}, got {d[key]!r}")
    return TrigPolySymbol(float(d["constant"]), tuple(cos), tuple(sin))
