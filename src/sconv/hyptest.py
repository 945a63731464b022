"""Finite-size Neyman–Pearson testing and strong-converse exponent reports.

Tests are thresholded likelihood comparisons ``{rho_n - e^c sigma_n > 0}``
(``c`` the *total* exponent, i.e. ``a * n^scaling``) and their pinched
variants; a linear-tail report shifts their error pairs (``_shifted_pair``).
Error pairs carry log-domain fields alongside the plain traces: at block
sizes in the thousands the classical engines below work entirely with exact
log-space tail algebra, where the float error probabilities underflow long
before the rates converge.

Engines, most specific first, each a module function that
``_resolve_engine`` binds to the family's data:

* commuting i.i.d. pairs — ``iid_type_class_error_pair``, exact type-class
  sums over the compositions of ``n``;
* two-state Markov chains — ``markov_error_pair``, exact run-length
  combinatorics, O(n^2) classes;
* non-commuting qubit i.i.d. in pinched mode — ``qubit_sector_error_pair``,
  per-sector spectral sums over the Hamming sectors of the reference basis,
  each spectrum in closed form (Schur-Weyl duality) with no matrix built;
  a block is refused past ``MAX_TYPE_CLASSES`` closed-form terms, about
  ``n^3 / 24`` (so ``n <= 360``);
* everything else — ``_dense_error_pair``, dense matrices of at most
  ``operators.DIM_CAP`` rows.

Every engine takes the total exponents ``c`` as a sequence and returns a
list of one ``ErrorPair`` per threshold, in order, from one pass over block
``n`` (an empty ``c`` gives ``[]`` and builds nothing), so a sweep builds
each block's classes or states once and keeps nothing between blocks; a pair
carries its block size but no threshold label.  A scalar form exists only at
the public boundary: ``exponent_sweep`` and ``sc_report`` take one rate or a
grid through ``operators._as_grid``, and unwrap one report.  The
exact engines share one log-space reducer, ``_log_terms_to_pair``: it
reduces each class chunk for every threshold by ``operators.logsumexp`` (an
empty class set sums to ``-inf``) before it drops the chunk, then the chunk
sums of every threshold in one ``operators.logsumexp_rows`` call.  The dense
engine builds the block's states once and diagonalises the (pinched)
threshold operator once per ``(c, sector)``, reading both traces and the
positive-part floor off it.  The two states of a pair must share their
diagonal ``blocks``: the one block of a dense state, or the particle-number
sectors of quasi-free Fock densities; a pair whose ``sectors`` differ is
refused.  Each block of the threshold operator gets its own ``eigh`` and
the three traces are summed over the blocks, so no quasi-free ``eigh`` is
larger than ``C(m, m/2)`` and no dense ``2^m`` matrix is built; in pinched
mode each block is pinched on its own.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import families as fam
from .hoeffding import hoeffding_anti, polar_detail
from .operators import (
    STATE_TOL,
    HermitianOperator,
    Test,
    _as_grid,
    _cluster_labels,
    _pinch_matrix,
    _pinch_slice,
    log_factorials,
    logsumexp,
    logsumexp_rows,
    positive_part_trace,
    xlogy,
)

STRICT_POSITIVE_TOL = 1e-12  # eigenvalues this close to zero are not "strictly positive"
COMMUTING_TOL = 1e-12  # off-diagonal size in sigma's eigenbasis that still counts as commuting
MAX_TYPE_CLASSES = 2_000_000  # classes (or closed-form sector terms) one exact block may sum
RUN_CLASS_CHUNK = 16_384  # Markov run classes per chunk: bounds the engine's working set
CLASS_MASS_TOL = 1e-9  # |log| of an exact engine's total class mass: summation leaves ~1e-15
R_SQUARED_GATE = 0.98

__all__ = [
    "ErrorPair",
    "RateFit",
    "ExponentReport",
    "np_test",
    "pinched_np_test",
    "error_pair",
    "fit_rate",
    "exponent_sweep",
    "sc_report",
    "default_a_grid",
]


# -- result containers -----------------------------------------------------


@dataclass
class ErrorPair:
    """Type-I/II errors of one test at one block size.

    Each trace is clamped onto [0, 1] from within ``operators.STATE_TOL``, and
    ``alpha_err + success`` must account for all of ``rho_n`` to that slack;
    ``log_success``/``log_beta`` stay meaningful after the floats underflow.
    ``log_pos_part`` is ``log Tr(rho_n - e^c sigma_n)_+`` when the engine can
    compute it, with ``rho_n`` pinched in pinched mode (it lower-bounds
    ``log_success`` for the threshold test of the same pair).
    """

    n: int
    alpha_err: float
    beta_err: float
    success: float
    log_success: float = field(default=None)
    log_beta: float = field(default=None)
    log_pos_part: Optional[float] = None

    def __post_init__(self):
        for name in ("alpha_err", "beta_err", "success"):
            v = getattr(self, name)
            if -STATE_TOL <= v < 0.0:
                setattr(self, name, 0.0)
            elif 1.0 < v <= 1.0 + STATE_TOL:
                setattr(self, name, 1.0)
            elif not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} = {v!r} outside [0, 1]")
        if abs(self.alpha_err + self.success - 1.0) > STATE_TOL:
            raise ValueError(
                f"alpha_err + success = {self.alpha_err + self.success!r} != 1"
            )
        if self.log_success is None:
            self.log_success = math.log(self.success) if self.success > 0 else -math.inf
        if self.log_beta is None:
            self.log_beta = math.log(self.beta_err) if self.beta_err > 0 else -math.inf

    @classmethod
    def from_logs(cls, n, log_success, log_alpha, log_beta, log_pos_part):
        """Pair from log-domain traces, a log of ``-inf`` being mass 0; with
        ``log_alpha = None`` the type-I error is ``1 - success``."""
        success = math.exp(log_success)
        return cls(
            n=n,
            alpha_err=1.0 - success if log_alpha is None else math.exp(log_alpha),
            beta_err=math.exp(log_beta),
            success=success,
            log_success=log_success,
            log_beta=log_beta,
            log_pos_part=log_pos_part,
        )


@dataclass
class RateFit:
    """OLS fit of a log-error sequence against ``n^scaling``.

    ``rate`` is the *decay* rate (positive when the error decays), minus the
    regression slope.  ``asymptotic`` is False when R-squared falls under
    0.98, flagging pre-asymptotic transients.
    """

    rate: float
    intercept: float
    r_squared: float
    asymptotic: bool
    n_used: tuple


@dataclass
class ExponentReport:
    """Per-n error pairs plus fitted and predicted exponents for one family."""

    family: object  # a payload instance: IIDPayload, MarkovPayload, GibbsPairPayload, ...
    mode: str
    a: float
    per_n: list
    success_fit: RateFit
    beta_fit: RateFit
    predicted_success_rate: float
    predicted_beta_rate: float
    r: Optional[float] = None
    predicted_H: Optional[float] = None
    regime: Optional[str] = None
    provenance: str = "dense"
    notes: tuple = ()


# -- test constructions (matrix route) -------------------------------------


def _threshold_split(rho, sigma, c):
    """``rho - e^c sigma`` of two matrices (``c`` capped at 700) and the eigenvectors
    of its strictly positive eigenvalues: none when ``e^c`` overflows."""
    diff = HermitianOperator(rho - math.exp(min(c, 700.0)) * sigma)
    cut = STRICT_POSITIVE_TOL if c <= 700.0 else math.inf
    return diff, diff.eigenvectors[:, diff.eigenvalues > cut]


def _threshold_projection(rho, sigma, c):
    """Spectral projection onto the strictly positive part of rho - e^c sigma."""
    _, v = _threshold_split(rho, sigma, c)
    return Test(HermitianOperator(v @ v.conj().T))


def np_test(pair, n_scaled_a):
    """Threshold test ``{rho - e^c sigma > 0}`` with ``c`` the total exponent."""
    return _threshold_projection(pair.rho.entries, pair.sigma.entries, n_scaled_a)


def pinched_np_test(pair, n_scaled_a):
    """Threshold test of the pinched pair; commutes with sigma by construction."""
    rho_hat = _pinch_matrix(pair.rho, pair.sigma)
    return _threshold_projection(rho_hat, pair.sigma.entries, n_scaled_a)


def error_pair(pair, t, n=1):
    """Evaluate the three traces of a test against a state pair."""
    success = float(np.trace(pair.rho.entries @ t.op.entries).real)
    beta = float(np.trace(pair.sigma.entries @ t.op.entries).real)
    return ErrorPair(n=n, alpha_err=1.0 - success, beta_err=beta, success=success)


# -- exact classical engines ----------------------------------------------


def _log_terms_to_pair(n, chunks, c):
    """Assemble error pairs from per-class exact log-weights.

    ``chunks`` yields ``(log_mult, lp, lq)`` arrays: classes of multiplicity
    ``e^log_mult`` and per-string log-likelihoods ``lp``/``lq``. Inclusion is
    the strict comparison ``lp - lq > c``; the positive part accumulates
    ``log1p(-e^{-(lp - lq - c)})`` per included class, all in log space.
    Each chunk is reduced to four partial log-sums per threshold as it
    arrives and then dropped, so one chunk is held at a time; the partial
    sums of every threshold are then reduced in one ``logsumexp_rows`` call,
    each row as one array of a single threshold would be.  ``c`` is a
    sequence, and the pairs come back as a list in its order; an empty ``c``
    gives ``[]`` before any chunk is drawn.
    """
    if len(c) == 0:
        return []

    def _chunk_sums(chunk):
        log_mult, lp, lq = chunk
        alive = lp > -math.inf
        with np.errstate(invalid="ignore"):  # (-inf) - (-inf) under a dead class
            ratio = lp - lq
        lsp, lsq = log_mult + lp, log_mult + lq
        out = []
        for ci in c:
            inc = alive & (ratio > ci)
            d = ratio[inc] - ci  # > 0 strictly
            out.append((
                logsumexp(lsp[inc]),
                logsumexp(lsp[alive & ~inc]),
                logsumexp(lsq[inc]),
                logsumexp(lsp[inc] + np.log1p(-np.exp(-d))),
            ))
        return out

    # map() lets go of each chunk before the next one is built
    sums = np.array(list(map(_chunk_sums, chunks)))  # (chunk, threshold, sum)
    pairs = []
    for log_success, log_alpha, log_beta, log_pos in logsumexp_rows(
            sums.transpose(1, 2, 0)).tolist():
        total = np.logaddexp(log_success, log_alpha)
        if abs(total) > CLASS_MASS_TOL:
            raise AssertionError(f"class masses sum to e^{total}, not 1")
        pairs.append(ErrorPair.from_logs(n, log_success, log_alpha, log_beta, log_pos))
    return pairs


def _safe_log(x):
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -math.inf)
    np.log(x, out=out, where=x > 0)
    return out


def _type_classes(p, q, n):
    """Yield the type classes of an i.i.d. pair as one ``(log_mult, lp, lq)`` chunk.

    The classes are the ``C(n + d - 1, d - 1)`` compositions of ``n`` into
    ``d`` parts (``n + 1`` for two outcomes) and are capped.
    """
    logp, logq = _safe_log(p), _safe_log(q)
    d = logp.size
    total = math.comb(n + d - 1, d - 1)
    if total > MAX_TYPE_CLASSES:
        raise ValueError(
            f"{total} type classes exceed the exact-enumeration cap; "
            "use smaller n or the dense route"
        )
    bars = np.array(
        list(itertools.combinations(range(n + d - 1), d - 1)), dtype=int
    ).reshape(total, d - 1)
    edges = np.concatenate(
        [np.full((total, 1), -1), bars, np.full((total, 1), n + d - 1)], axis=1
    )
    counts = np.diff(edges, axis=1) - 1
    log_fact = log_factorials(n)
    log_mult = log_fact[n]
    for col in counts.T:  # one column at a time: two outcomes give the binomial bits
        log_mult = log_mult - log_fact[col]
    with np.errstate(invalid="ignore"):
        lp = np.where(counts > 0, counts * logp[None, :], 0.0).sum(axis=1)
        lq = np.where(counts > 0, counts * logq[None, :], 0.0).sum(axis=1)
    yield log_mult, lp, lq


def iid_type_class_error_pair(p, q, n, c):
    """Exact error pairs for a commuting i.i.d. pair via its type classes
    (``_type_classes``), one per threshold of ``c``."""
    return _log_terms_to_pair(n, _type_classes(p, q, n), c)


def _markov_run_classes(payload, n):
    """Yield the run classes of a two-state chain as ``(log_mult, lp, lq)`` chunks.

    Strings are grouped by (start s, end e, zero count z, number j of 0->1
    transitions): within a group both chain log-likelihoods are constant and
    the multiplicity is a product of two run-composition binomials, read off
    one log-factorial table.  The two constant strings come first; then each
    (s, e) numbers its (z, j) classes z-major and emits them as whole arrays,
    at most ``RUN_CLASS_CHUNK`` classes per chunk.
    """
    lpi = (_safe_log(payload.pi0), _safe_log(payload.pi1))
    lP = (_safe_log(payload.P0).ravel(), _safe_log(payload.P1).ravel())
    log_fact = log_factorials(n)

    def _log_likelihoods(s, counts):
        """Both chains' log-likelihoods from the start ``s`` and the edge
        counts ``(n00, n01, n10, n11)``."""
        lp, lq = lpi[0][s], lpi[1][s]
        with np.errstate(invalid="ignore"):
            for edge, cnt in enumerate(counts):
                # 0 * (-inf) must read as "edge unused": contribute nothing
                used = cnt > 0
                lp = lp + np.where(used, cnt * lP[0][edge], 0.0)
                lq = lq + np.where(used, cnt * lP[1][edge], 0.0)
        return lp, lq

    # constant strings (all zeros, all ones); at n = 1 these are all strings
    starts = np.array([0, 1])
    zero = np.zeros(2)
    counts = ((n - 1) * (1 - starts), zero, zero, (n - 1) * starts)
    yield (zero, *_log_likelihoods(starts, counts))

    def _mixed(s, e, j_lo, offsets, k0):
        """Classes ``k0 ..`` of the (s, e) numbering: zero runs = j + r0,
        one runs = j + r1."""
        r0, r1 = 1 - e, s
        k = np.arange(k0, min(k0 + RUN_CLASS_CHUNK, offsets[-1]))
        z = np.searchsorted(offsets, k, side="right")  # class k lies in row z
        j = k - offsets[z - 1] + j_lo
        o = n - z
        log_mult = (
            log_fact[z - 1] - log_fact[j + r0 - 1] - log_fact[z - j - r0]
        ) + (log_fact[o - 1] - log_fact[j + r1 - 1] - log_fact[o - j - r1])
        n10 = j + s - e
        return (log_mult, *_log_likelihoods(s, (z - r0 - j, j, n10, o - e - n10)))

    # mixed strings, z = 1..n-1 zeros: row z holds the j with j_lo <= j <= j_hi
    z_all = np.arange(1, n)
    for s in (0, 1):
        for e in (0, 1):
            j_lo = max(e, 1 - s)
            j_hi = np.minimum(z_all - 1 + e, n - z_all - s)
            width = np.maximum(j_hi - j_lo + 1, 0)
            offsets = np.concatenate(([0], np.cumsum(width)))
            for k0 in range(0, int(offsets[-1]), RUN_CLASS_CHUNK):
                yield _mixed(s, e, j_lo, offsets, k0)


def markov_error_pair(payload, n, c):
    """Exact error pairs of a two-state Markov chain's tests, one per threshold of ``c``.

    The ``2^n`` strings fall into O(n^2) run classes of equal likelihood
    (``_markov_run_classes``), built as arrays of at most ``RUN_CLASS_CHUNK``
    classes and reduced chunk by chunk in log space.  The working set is the
    arrays of one chunk, about 2 MB whatever ``n``; exact through ``n`` in the
    low thousands.
    """
    if payload.d != 2:
        raise ValueError("exact run combinatorics requires a two-state chain")
    if n < 1:
        raise ValueError("block size must be positive")
    return _log_terms_to_pair(n, _markov_run_classes(payload, n), c)


# -- pinched qubit i.i.d. sector engine ------------------------------------


def _splits_into_sectors(sigma1):
    """Whether ``sigma1`` is a positive nondegenerate qubit state, whose
    eigenbasis splits every block into Hamming sectors."""
    mu = sigma1.eigenvalues
    return mu.size == 2 and mu.min() > 0 and mu[1] - mu[0] > 1e-12


def _sector_terms(n):
    """Number of terms the closed form sums over block ``n``:
    ``(m + 1)(m + 2) / 2`` for sector ``k``, ``m = min(k, n - k)``."""
    h = n // 2
    if n % 2:
        return 2 * math.comb(h + 3, 3)
    return 2 * math.comb(h + 2, 3) + (h + 1) * (h + 2) // 2


def _sector_spectra(rho1, sigma1, n):
    """Yield ``(log_mult, log_lam, log mu_k)`` per Hamming sector ``k = 0..n`` of block ``n``.

    The reference state's eigenbasis splits block ``n`` into Hamming sectors;
    pinching keeps exactly the sector-diagonal blocks, so the pinched spectrum
    is the union of the sector spectra, and on sector ``k`` the reference is
    ``mu_k``.  Each sector holds classes of ``e^log_mult`` equal eigenvalues
    ``e^log_lam`` (``-inf`` for a zero eigenvalue; see ``_sector_spectrum``).
    A block over the work cap is refused before any of its sectors is built.
    """
    if not _splits_into_sectors(sigma1):
        raise ValueError("Hamming sectors need a positive nondegenerate qubit reference")
    terms = _sector_terms(n)
    if terms > MAX_TYPE_CLASSES:  # refused before any sector of block n is built
        raise ValueError(f"block {n} exceeds cap {MAX_TYPE_CLASSES} on the terms of its "
                         f"Hamming sector spectra ({terms})")
    v = sigma1.eigenvectors
    rho_ref = v.conj().T @ rho1.entries @ v
    coeffs = (
        max(rho_ref[0, 0].real, 0.0),
        max(rho_ref[1, 1].real, 0.0),
        abs(rho_ref[0, 1]) ** 2,
        float(np.prod(np.clip(rho1.eigenvalues, 0.0, None))),  # det rho, no cancellation
    )
    log_binom, log_mult = _log_binomials(n)
    log_mu = np.log(sigma1.eigenvalues)
    for k in range(n + 1):
        log_lam = _sector_spectrum(coeffs, log_binom, n, k)
        yield log_mult[: log_lam.size], log_lam, (n - k) * log_mu[0] + k * log_mu[1]


def _log_binomials(n):
    """``log C(r, i)`` for ``i <= r <= n`` (``-inf`` for ``i > r``) and the log
    multiplicities ``C(n, j) - C(n, j - 1)``, ``j <= n / 2``: each the log of
    an exact integer rounded once to a float."""
    log_binom = np.full((n + 1, n + 1), -math.inf)
    row = [1]  # row r of Pascal's triangle, in exact integers
    for r in range(n + 1):
        log_binom[r, : r + 1] = np.log(np.array(row, dtype=float))
        row = [1, *(x + y for x, y in zip(row, row[1:])), 1]
    mult = [math.comb(n, j) * (n - 2 * j + 1) // (n - j + 1) for j in range(n // 2 + 1)]
    return log_binom, np.log(np.array(mult, dtype=float))


def _sector_spectrum(coeffs, log_binom, n, k):
    """``log lam`` of Hamming sector ``k`` of ``rho^{(x) n}``, in closed form.

    In the reference basis ``rho = [[a, b], [conj(b), c]]`` with ``D = det rho``
    (``coeffs = (a, c, |b|^2, D)``).  By Schur-Weyl duality the sector acts as
    a scalar ``lam_j`` on each Specht component ``(n - j, j)``,
    ``j <= m = min(k, n - k)``, of multiplicity ``C(n, j) - C(n, j - 1)``: the
    weight-``(k - j)`` entry of ``det^j (x) Sym^{n - 2j}``, each of whose
    weight spaces is one-dimensional,

        lam_j = D^j sum_i C(k-j, i) C(n-k-j, i) a^(n-k-j-i) c^(k-j-i) |b|^(2i),

    over ``i <= m - j`` (``log_binom`` of ``_log_binomials`` is ``-inf`` past
    it).  Every term is ``>= 0``, so the sum is taken in log space; ``xlogy``
    reads ``0 log 0`` as 0 (a pure ``rho`` or ``b = 0``).
    """
    a, c, b2, det = coeffs
    m = min(k, n - k)
    j = np.arange(m + 1)[:, None]
    i = np.arange(m + 1)
    terms = (
        log_binom[k - j, i] + log_binom[n - k - j, i]
        + xlogy(np.maximum(n - k - j - i, 0), a)
        + xlogy(np.maximum(k - j - i, 0), c)
        + xlogy(i, b2)
    )
    return xlogy(j[:, 0], det) + logsumexp_rows(terms)


def qubit_sector_error_pair(rho1, sigma1, n, c):
    """Exact pinched-test error pairs of a qubit i.i.d. pair, one per threshold of ``c``.

    The pinched threshold comparison is a scalar test per eigenvalue, so each
    sector of ``_sector_spectra`` is one ``(log_mult, log lambda, log mu_k)``
    chunk of ``_log_terms_to_pair``; a zero eigenvalue carries no mass.  Block
    ``n`` has ``O(n^2)`` eigenvalue classes and no matrix is built.
    """
    return _log_terms_to_pair(n, _sector_spectra(rho1, sigma1, n), c)


# -- engine dispatch -------------------------------------------------------


def _commuting_iid_probs(payload):
    """(p, q) classical tables when the single-site pair shares an eigenbasis."""
    sigma = payload.sigma1
    v = sigma.eigenvectors
    w = v.conj().T @ payload.rho1.entries @ v
    off = w - np.diag(np.diag(w))
    if np.abs(off).max() > COMMUTING_TOL:
        return None
    p = np.clip(np.diag(w).real, 0.0, None)
    return p, sigma.eigenvalues.copy()


def _dense_error_pair(family, mode, n, c):
    """Error pairs of the (pinched) threshold tests from dense matrices.

    The block's states are built once; then one eigh of the threshold
    operator per ``(c, sector)``: both traces are sums of ``<v|X|v>`` over the
    test's range ``V``, and the floor is its positive part.  The pair's states
    must share their diagonal blocks (one for a dense state, the particle
    numbers for Fock densities); the pair splits into those blocks, and no
    dense ``2^m`` form is built.  In pinched mode each block is pinched by
    sigma's own eigenvectors of that block, grouped by sigma's global
    clusters.
    """
    if len(c) == 0:
        return []
    pair = fam.family_states(family, n)
    rho, sigma = pair.rho, pair.sigma
    if rho.sectors != sigma.sectors:  # zip would pair the wrong blocks
        raise ValueError(f"block n = {n}: rho and sigma do not share their diagonal "
                         f"blocks (sectors {rho.sectors} and {sigma.sectors})")
    if mode == "pinched":
        # place in sigma's sorted spectrum, block by block
        labels = _cluster_labels(sigma)[np.argsort(sigma.order)]
    slices, at = [], 0  # (rho, rho pinched or not, sigma) on each block
    for rho_b, sigma_b, (_, v_b) in zip(rho.blocks, sigma.blocks, sigma.block_spectra):
        rho_hat = rho_b
        if mode == "pinched":
            rho_hat = _pinch_slice(rho_b, v_b, labels[at : at + len(v_b)])
        slices.append((rho_b, rho_hat, sigma_b))
        at += len(v_b)
    pairs = []
    for ci in c:
        success = beta = lp = 0.0
        for rho_b, rho_hat, sigma_b in slices:
            diff, v = _threshold_split(rho_hat, sigma_b, ci)
            success += float(np.vdot(v, rho_b @ v).real)
            beta += float(np.vdot(v, sigma_b @ v).real)
            lp += positive_part_trace(diff)
        pairs.append(ErrorPair(n=n, alpha_err=1.0 - success, beta_err=beta, success=success,
                               log_pos_part=math.log(lp) if lp > 0 else -math.inf))
    return pairs


def _resolve_engine(family, mode):
    """Pick the cheapest exact engine; fall back to dense matrices.

    Returns ``(engine, provenance)``: ``engine(n, c)`` is one of the four
    engine functions with the family's data bound, ``c`` a sequence.
    """
    if family.kind == "iid":
        tables = _commuting_iid_probs(family)
        if tables is not None:
            label = "exact-binomial" if tables[0].size == 2 else "exact-type-classes"
            return partial(iid_type_class_error_pair, *tables), label
        if mode == "pinched" and _splits_into_sectors(family.sigma1):
            return (partial(qubit_sector_error_pair, family.rho1, family.sigma1),
                    "pinched-sectors")
    if family.kind == "markov" and family.d == 2:
        return partial(markov_error_pair, family), "exact-run-classes"
    return partial(_dense_error_pair, family, mode), "dense"


# -- fitting and reports ---------------------------------------------------


def fit_rate(n_list, log_errors, scaling=1.0):
    """Decay-rate fit: OLS of log-error against ``n^scaling``, last half only."""
    ns = np.asarray(n_list, dtype=float)
    ys = np.asarray(log_errors, dtype=float)
    if ns.size != ys.size or ns.size < 2:
        raise ValueError("need at least two matched sample sizes")
    start = ns.size // 2 if ns.size > 3 else 0
    x, y = ns[start:] ** scaling, ys[start:]
    keep = np.isfinite(y)
    x, y = x[keep], y[keep]
    if x.size < 2:
        raise ValueError("fewer than two finite log-errors in the fit window")
    if x.min() == x.max():
        raise ValueError("fewer than two distinct sizes in the fit window")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return RateFit(
        rate=-float(slope),
        intercept=float(intercept),
        r_squared=r2,
        asymptotic=r2 >= R_SQUARED_GATE,
        n_used=tuple(int(v) for v in ns[start:][keep]),
    )


def default_a_grid(rate):
    """Nine thresholds spanning the open interval between the two endpoint
    slopes of the rate curve, inset by 2% of the gap on each side."""
    lo, hi = rate.right_derivative_at_1, rate.slope_at_infinity
    if not math.isfinite(hi):
        raise ValueError("rate curve has unbounded slope; supply thresholds explicitly")
    gap = hi - lo
    if gap <= 0:
        raise ValueError("degenerate rate curve: no open threshold interval")
    return np.linspace(lo + 0.02 * gap, hi - 0.02 * gap, 9)


def _build_report(family, thresholds, n_list, mode, rate, threads):
    """One report per ``(a, h, notes)`` of ``thresholds``: the engine runs once per
    block size for every threshold rate ``a``, then each report is fitted once.

    ``h`` is the anti-divergence at the report's ``r`` (``None`` for a plain
    threshold sweep).  In its linear tail each pair becomes that of the scaled
    test (see ``_shifted_pair``) and the predictions are ``(r - a_max, r)``;
    otherwise they are the polar pair ``(phi(a), phi(a) + a)``.  ``notes``
    follow the builder's own.  ``threads`` workers share the block sizes (with
    one, the calling thread works them).
    """
    engine, provenance = _resolve_engine(family, mode)
    s = float(family.scaling_exponent)
    ns = sorted(n_list, reverse=True)
    cs = [[a * float(n) ** s for a, _, _ in thresholds] for n in ns]
    # largest block first: an engine refuses an over-limit block before any other is built
    with ThreadPoolExecutor(max_workers=threads) as pool:
        per_n = list((pool.map if threads > 1 else map)(engine, ns, cs))[::-1]
    reports = []
    for j, (a, h, notes) in enumerate(thresholds):
        pairs = [row[j] for row in per_n]
        pd = polar_detail(rate, a)
        success_rate, beta_rate = pd.value, pd.value + float(a)
        if h is not None and h.regime == "linear_tail":
            gap = h.r - a - pd.value
            pairs = [_shifted_pair(ep, gap * float(ep.n) ** s) for ep in pairs]
            success_rate, beta_rate = h.r - rate.slope_at_infinity, h.r
        ns = [ep.n for ep in pairs]
        success_fit = fit_rate(ns, [ep.log_success for ep in pairs], scaling=s)
        beta_fit = fit_rate(ns, [ep.log_beta for ep in pairs], scaling=s)
        own = []
        if pd.tail_dominated:
            own.append("polar sup still climbing at the grid edge; phi(a) is a floor")
        if not (success_fit.asymptotic and beta_fit.asymptotic):
            own.append("not yet asymptotic: fit R^2 below 0.98")
        reports.append(ExponentReport(
            family=family,
            mode=mode,
            a=float(a),
            per_n=pairs,
            success_fit=success_fit,
            beta_fit=beta_fit,
            predicted_success_rate=success_rate,
            predicted_beta_rate=beta_rate,
            r=None if h is None else float(h.r),
            predicted_H=None if h is None else h.value,
            regime=None if h is None else h.regime,
            provenance=provenance,
            notes=tuple(own + notes),
        ))
    return reports


def _check_sweep(n_list, mode, threads):
    """Refuse a sweep's ``n_list``, ``mode`` or ``threads`` before any rate or
    block is built."""
    # a bool is no size
    bad = [n for n in n_list if type(n) is bool or not isinstance(n, (int, np.integer)) or n < 1]
    if bad:
        raise ValueError(f"n_list entries must be positive integers, got {bad[0]!r}")
    if len(set(n_list)) < 2:  # no fit can use it
        raise ValueError(f"n_list needs at least two distinct sizes, got {list(n_list)!r}")
    if mode not in ("np", "pinched"):
        raise ValueError(f"unknown mode {mode!r}")
    if type(threads) is not int or threads < 1:  # a bool is no worker count
        raise ValueError(f"threads must be a positive integer, got {threads!r}")


def exponent_sweep(family, a, n_list, mode="np", rate=None, threads=1):
    """Error pairs over ``n_list`` at fixed threshold rate ``a``, with fitted
    decay rates compared against the polar prediction ``(phi(a), phi(a)+a)``;
    a sequence ``a`` gives one report per value, as in ``sc_report``.  A
    non-finite ``a`` is refused.  ``rate=None`` builds the family's
    sandwiched ``asymptotic_rate``."""
    _check_sweep(n_list, mode, threads)
    grid, one = _as_grid(a, "a")
    if not grid.size:
        raise ValueError("empty threshold grid a")
    if rate is None:
        rate = fam.asymptotic_rate(family)
    reports = _build_report(family, [(ai, None, []) for ai in grid.tolist()], n_list, mode,
                            rate, threads)
    return reports[0] if one else reports


def _shifted_pair(ep, shift):
    """Error pair of the scaled test: both traces shrink by ``e^{-shift}``."""
    return ErrorPair.from_logs(ep.n, ep.log_success - shift, None, ep.log_beta - shift, None)


def sc_report(family, r, n_list, mode="np", rate=None, threads=1):
    """Full strong-converse report at success-vs-type-II tradeoff ``r``.

    Resolves the regime of the anti-divergence at ``r``, picks the matching
    threshold (``a = r`` in the zero regime, the interior optimizer, or the
    boundary slope with rescaled tests in the linear tail), sweeps, and
    returns the report with the predicted exponent attached.  A sequence
    ``r`` gives one report per value, each block size worked once for all of
    them by one of ``threads`` workers, largest first.  A negative or
    non-finite ``r`` is refused.  ``rate=None`` builds the family's sandwiched
    ``asymptotic_rate``.
    """
    _check_sweep(n_list, mode, threads)
    grid, one = _as_grid(r, "r")
    if not grid.size:
        raise ValueError("empty tradeoff grid r")
    if (grid < 0).any():
        raise ValueError("tradeoff rate r must be nonnegative")
    if rate is None:
        rate = fam.asymptotic_rate(family)
    thresholds = []
    for ri in grid.tolist():
        h = hoeffding_anti(rate, ri)
        notes = []
        if h.regime == "zero":
            a = ri
            notes.append("zero regime: success probability stays bounded away from 0")
        elif h.regime == "interior":
            a = h.a_r
        else:  # linear tail: threshold just inside the boundary slope, then rescale
            a_max = rate.slope_at_infinity
            # exactly at a_max the strict threshold set can be empty (lattice
            # families put their extreme class right on the boundary ratio), so
            # back off by 1% of the slope gap; the rescale absorbs the rest
            a = a_max - 0.01 * max(a_max - rate.right_derivative_at_1, 1e-6)
            notes.append("linear-tail regime: rescaled sub-tests in effect")
            if not rate.slope_is_exact:
                notes.append("boundary slope estimated from the grid tail")
        if family.kind == "quasifree" and not family.scalar_reference:
            notes.append("reference symbol is not the scalar 1/2: prediction is a lower "
                         "bound in a two-sided bracket, not claimed as an equality")
        thresholds.append((a, h, notes))
    reports = _build_report(family, thresholds, n_list, mode, rate, threads)
    return reports[0] if one else reports
