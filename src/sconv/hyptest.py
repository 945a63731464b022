"""Finite-size Neyman–Pearson testing and strong-converse exponent reports.

Tests are thresholded likelihood comparisons ``{rho_n - e^c sigma_n > 0}``
(``c`` the *total* exponent, i.e. ``a * n^scaling``), their pinched variants,
and the rescaled sub-tests used in the linear-tail regime.  Error pairs carry
log-domain fields alongside the plain traces: at block sizes in the thousands
the classical engines below work entirely with exact log-space tail algebra,
where the float error probabilities underflow long before the rates converge.

Engines, most specific first:

* commuting i.i.d. pairs — exact type-class sums over the compositions of
  ``n``;
* two-state Markov chains — exact run-length combinatorics, O(n^2) classes;
* non-commuting qubit i.i.d. in pinched mode — per-sector spectral sums over
  the Hamming blocks of the reference basis;
* everything else — dense matrices up to the dimension cap.

The exact engines share one log-space reducer, ``_log_terms_to_pair``.  The
dense engine diagonalises the (pinched) threshold operator once per
``(n, c)`` and reads both traces and the positive-part floor off it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import gammaln, logsumexp

from . import families as fam
from .hoeffding import hoeffding_anti, polar_detail
from .operators import (
    DEFAULT_DIM_CAP,
    HermitianOperator,
    Test,
    _pinch_matrix,
    positive_part_trace,
)

STRICT_POSITIVE_TOL = 1e-12  # eigenvalues this close to zero are not "strictly positive"
COMMUTING_TOL = 1e-12  # off-diagonal size in sigma's eigenbasis that still counts as commuting
MAX_TYPE_CLASSES = 2_000_000
RUN_CLASS_CHUNK = 16_384  # Markov run classes per chunk: bounds the engine's working set
R_SQUARED_GATE = 0.98

__all__ = [
    "ErrorPair",
    "RateFit",
    "ExponentReport",
    "np_test",
    "pinched_np_test",
    "scaled_test",
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

    ``alpha_err + success`` must account for all of ``rho_n`` (1e-10);
    ``log_success``/``log_beta`` stay meaningful after the floats underflow.
    ``log_pos_part`` is ``log Tr(rho_n - e^c sigma_n)_+`` when the engine can
    compute it, with ``rho_n`` pinched in pinched mode (it lower-bounds
    ``log_success`` for the threshold test of the same pair).
    """

    n: int
    a: float
    alpha_err: float
    beta_err: float
    success: float
    log_success: float = field(default=None)
    log_beta: float = field(default=None)
    log_pos_part: Optional[float] = None

    def __post_init__(self):
        for name in ("alpha_err", "beta_err", "success"):
            v = getattr(self, name)
            if -1e-10 <= v < 0.0:
                setattr(self, name, 0.0)
            elif 1.0 < v <= 1.0 + 1e-10:
                setattr(self, name, 1.0)
            elif not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} = {v!r} outside [0, 1]")
        if abs(self.alpha_err + self.success - 1.0) > 1e-10:
            raise ValueError(
                f"alpha_err + success = {self.alpha_err + self.success!r} != 1"
            )
        if self.log_success is None:
            self.log_success = math.log(self.success) if self.success > 0 else -math.inf
        if self.log_beta is None:
            self.log_beta = math.log(self.beta_err) if self.beta_err > 0 else -math.inf


@dataclass
class RateFit:
    """OLS fit of a log-error sequence against ``n^scaling``.

    ``rate`` is the *decay* rate (positive when the error decays); ``slope``
    is the raw regression slope ``= -rate``.  ``asymptotic`` is False when
    R-squared falls under 0.98, flagging pre-asymptotic transients.
    """

    rate: float
    intercept: float
    r_squared: float
    asymptotic: bool
    n_used: tuple

    @property
    def slope(self):
        return -self.rate


@dataclass
class ExponentReport:
    """Per-n error pairs plus fitted and predicted exponents for one family."""

    family: fam.StateFamilySpec
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

    @property
    def fitted_success_rate(self):
        return self.success_fit.rate

    @property
    def fitted_beta_rate(self):
        return self.beta_fit.rate


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


def scaled_test(t, n, r, a, phi_a, scaling=1.0):
    """Shrink ``t`` by ``e^{-n^scaling (r - a - phi_a)}`` (linear-tail device)."""
    gap = r - a - phi_a
    if gap < -1e-12:
        raise ValueError(f"r - a - phi(a) = {gap!r} < 0: not in the linear-tail regime")
    return t.scale(math.exp(-float(n) ** scaling * max(gap, 0.0)))


def error_pair(pair, t, n=1, a=0.0):
    """Evaluate the three traces of a test against a state pair."""
    success = float(np.trace(pair.rho.entries @ t.op.entries).real)
    beta = float(np.trace(pair.sigma.entries @ t.op.entries).real)
    return ErrorPair(
        n=n,
        a=a,
        alpha_err=1.0 - success,
        beta_err=beta,
        success=success,
    )


# -- exact classical engines ----------------------------------------------


def _log_terms_to_pair(n, a, chunks, c):
    """Assemble an ErrorPair from per-class exact log-weights.

    ``chunks`` yields ``(log_mult, lp, lq)`` arrays: classes of multiplicity
    ``e^log_mult`` and per-string log-likelihoods ``lp``/``lq``. Inclusion is
    the strict comparison ``lp - lq > c``; the positive part accumulates
    ``log1p(-e^{-(lp - lq - c)})`` per included class, all in log space.
    Each chunk is reduced to four partial log-sums as it arrives and then
    dropped, so one chunk is held at a time; a single chunk reduces exactly
    as one array would.
    """

    def _lse(mask, arr):
        return float(logsumexp(arr[mask])) if mask.any() else -math.inf

    def _chunk_sums(chunk):
        log_mult, lp, lq = chunk
        alive = lp > -math.inf
        with np.errstate(invalid="ignore"):  # (-inf) - (-inf) under a dead class
            ratio = lp - lq
        inc = alive & (ratio > c)
        exc = alive & ~inc
        lsp = log_mult + lp
        d = ratio[inc] - c  # > 0 strictly
        pos = lsp[inc] + np.log1p(-np.exp(-d))
        return (
            _lse(inc, lsp),
            _lse(exc, lsp),
            _lse(inc, log_mult + lq),
            float(logsumexp(pos)) if pos.size else -math.inf,
        )

    # map() lets go of each chunk before the next one is built
    sums = np.array(list(map(_chunk_sums, chunks)))
    log_success, log_alpha, log_beta, log_pos = (
        float(logsumexp(col)) for col in sums.T
    )
    total = np.logaddexp(log_success, log_alpha)
    if abs(total) > 1e-9:
        raise AssertionError(f"class masses sum to e^{total}, not 1")
    return ErrorPair(
        n=n,
        a=a,
        alpha_err=math.exp(log_alpha) if log_alpha > -math.inf else 0.0,
        beta_err=math.exp(log_beta) if log_beta > -math.inf else 0.0,
        success=math.exp(log_success) if log_success > -math.inf else 0.0,
        log_success=log_success,
        log_beta=log_beta,
        log_pos_part=log_pos,
    )


def _safe_log(x):
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -math.inf)
    np.log(x, out=out, where=x > 0)
    return out


def iid_type_class_error_pair(p, q, n, c, a=0.0):
    """Exact error pair for a commuting i.i.d. pair via type classes.

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
        list(itertools.combinations(range(n + d - 1), d - 1)), dtype=float
    ).reshape(total, d - 1)
    edges = np.concatenate(
        [np.full((total, 1), -1.0), bars, np.full((total, 1), float(n + d - 1))],
        axis=1,
    )
    counts = np.diff(edges, axis=1) - 1.0
    log_mult = gammaln(n + 1)
    for col in counts.T:  # one column at a time: two outcomes give the binomial bits
        log_mult = log_mult - gammaln(col + 1.0)
    with np.errstate(invalid="ignore"):
        lp = np.where(counts > 0, counts * logp[None, :], 0.0).sum(axis=1)
        lq = np.where(counts > 0, counts * logq[None, :], 0.0).sum(axis=1)
    return _log_terms_to_pair(n, a, [(log_mult, lp, lq)], c)


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
    log_fact = gammaln(np.arange(n + 1) + 1.0)

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


def markov_error_pair(payload, n, c, a=0.0):
    """Exact error pair for a two-state Markov chain test.

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
    return _log_terms_to_pair(n, a, _markov_run_classes(payload, n), c)


# -- pinched qubit i.i.d. sector engine ------------------------------------


def _hamming_block(rho_ref, n, k):
    """Block of ``rho_ref^{(x) n}`` on weight-``k`` strings of the reference basis."""
    combos = list(itertools.combinations(range(n), k))
    m = len(combos)
    occ = np.zeros((m, n), dtype=int)
    for i, cmb in enumerate(combos):
        occ[i, list(cmb)] = 1
    block = np.ones((m, m), dtype=complex)
    for i in range(n):
        col = occ[:, i]
        block = block * rho_ref[col[:, None], col[None, :]]
    return block


def _pinched_sectors(rho1, sigma1, n):
    """Yield ``(lam, log mu_k)`` per Hamming sector ``k = 0..n`` of block ``n``.

    The reference state's eigenbasis splits block ``n`` into Hamming sectors;
    pinching keeps exactly the sector-diagonal blocks, so the pinched spectrum
    is the union of the sector spectra ``lam`` (with dust ``<= 0`` from
    rank-deficient blocks), and on sector ``k`` the reference is ``mu_k``.
    """
    mu = sigma1.eigenvalues
    if mu.size != 2 or mu.min() <= 0 or mu[1] - mu[0] <= 1e-12:
        raise ValueError("Hamming sectors need a positive nondegenerate qubit reference")
    v = sigma1.eigenvectors
    rho_ref = v.conj().T @ rho1.entries @ v
    log_mu = np.log(mu)
    for k in range(n + 1):
        lam = np.linalg.eigvalsh(_hamming_block(rho_ref, n, k))
        yield lam, (n - k) * log_mu[0] + k * log_mu[1]


def qubit_sector_error_pair(rho1, sigma1, n, c, a=0.0):
    """Exact pinched-test error pair for a qubit i.i.d. pair.

    The pinched threshold comparison is a scalar test per eigenvalue, so each
    sector of ``_pinched_sectors`` is one ``(0, log lambda, log mu_k)`` chunk of
    ``_log_terms_to_pair``; eigenvalues ``<= 0`` carry no mass.  Cost is
    driven by the largest sector, ``C(n, n/2)``, instead of ``2^n``.
    """
    chunks = (
        (np.zeros(lam.size), _safe_log(lam), np.full(lam.size, log_mu_k))
        for lam, log_mu_k in _pinched_sectors(rho1, sigma1, n)
    )
    return _log_terms_to_pair(n, a, chunks, c)


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


def _resolve_engine(spec, mode, dim_cap):
    """Pick the cheapest exact engine; fall back to dense matrices."""
    if spec.kind == "iid":
        tables = _commuting_iid_probs(spec.payload)
        if tables is not None:
            p, q = tables

            def classical(n, c, a):
                return iid_type_class_error_pair(p, q, n, c, a=a)

            label = "exact-binomial" if p.size == 2 else "exact-type-classes"
            return classical, label
        if mode == "pinched" and spec.payload.rho1.dim == 2:
            r1, s1 = spec.payload.rho1, spec.payload.sigma1

            def sector(n, c, a):
                return qubit_sector_error_pair(r1, s1, n, c, a=a)

            return sector, "pinched-sectors"
    if spec.kind == "markov" and spec.payload.d == 2:

        def markov(n, c, a):
            return markov_error_pair(spec.payload, n, c, a=a)

        return markov, "exact-run-classes"

    def dense(n, c, a):
        # one eigh of the threshold operator per (n, c): both traces are sums
        # of <v|X|v> over the test's range V, and the floor is its positive part
        pair = fam.family_states(spec, n, dim_cap=dim_cap)
        rho = _pinch_matrix(pair.rho, pair.sigma) if mode == "pinched" else pair.rho.entries
        diff, v = _threshold_split(rho, pair.sigma.entries, c)
        success, beta = (
            float(np.vdot(v, x.entries @ v).real) for x in (pair.rho, pair.sigma))
        lp = positive_part_trace(diff)
        return ErrorPair(
            n=n,
            a=a,
            alpha_err=1.0 - success,
            beta_err=beta,
            success=success,
            log_pos_part=math.log(lp) if lp > 0 else -math.inf,
        )

    return dense, "dense"


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


def exponent_sweep(spec, a, n_list, mode="np", rate=None, dim_cap=DEFAULT_DIM_CAP,
                   variant="sandwiched"):
    """Error pairs over ``n_list`` at fixed threshold rate ``a``, with fitted
    decay rates compared against the polar prediction ``(phi(a), phi(a)+a)``."""
    if mode not in ("np", "pinched"):
        raise ValueError(f"unknown mode {mode!r}")
    if rate is None:
        rate = fam.asymptotic_rate(spec, variant=variant)
    engine, provenance = _resolve_engine(spec, mode, dim_cap)
    s = float(spec.scaling_exponent)
    pairs = [engine(n, a * float(n) ** s, a) for n in sorted(n_list)]
    ns = [ep.n for ep in pairs]
    success_fit = fit_rate(ns, [ep.log_success for ep in pairs], scaling=s)
    beta_fit = fit_rate(ns, [ep.log_beta for ep in pairs], scaling=s)
    pd = polar_detail(rate, a)
    notes = []
    if pd.tail_dominated:
        notes.append("polar sup still climbing at the grid edge; phi(a) is a floor")
    if not (success_fit.asymptotic and beta_fit.asymptotic):
        notes.append("not yet asymptotic: fit R^2 below 0.98")
    return ExponentReport(
        family=spec,
        mode=mode,
        a=float(a),
        per_n=pairs,
        success_fit=success_fit,
        beta_fit=beta_fit,
        predicted_success_rate=pd.value,
        predicted_beta_rate=pd.value + float(a),
        provenance=provenance,
        notes=tuple(notes),
    )


def _shifted_pair(ep, shift):
    """Error pair of the scaled test: both traces shrink by ``e^{-shift}``."""
    log_success = ep.log_success - shift
    log_beta = ep.log_beta - shift
    success = math.exp(log_success) if log_success > -math.inf else 0.0
    return ErrorPair(
        n=ep.n,
        a=ep.a,
        alpha_err=1.0 - success,
        beta_err=math.exp(log_beta) if log_beta > -math.inf else 0.0,
        success=success,
        log_success=log_success,
        log_beta=log_beta,
        log_pos_part=None,
    )


def sc_report(spec, r, n_list, mode="np", rate=None, dim_cap=DEFAULT_DIM_CAP,
              variant="sandwiched"):
    """Full strong-converse report at success-vs-type-II tradeoff ``r``.

    Resolves the regime of the anti-divergence at ``r``, picks the matching
    threshold (``a = r`` in the zero regime, the interior optimizer, or the
    boundary slope with rescaled tests in the linear tail), sweeps, and
    returns the report with the predicted exponent attached.
    """
    if r < 0:
        raise ValueError("tradeoff rate r must be nonnegative")
    if rate is None:
        rate = fam.asymptotic_rate(spec, variant=variant)
    h = hoeffding_anti(rate, r)
    notes = []
    if h.regime == "zero":
        report = exponent_sweep(spec, r, n_list, mode=mode, rate=rate,
                                dim_cap=dim_cap, variant=variant)
        notes.append("zero regime: success probability stays bounded away from 0")
    elif h.regime == "interior":
        report = exponent_sweep(spec, h.a_r, n_list, mode=mode, rate=rate,
                                dim_cap=dim_cap, variant=variant)
    else:  # linear tail: threshold just inside the boundary slope, then rescale
        a_max = rate.slope_at_infinity
        # exactly at a_max the strict threshold set can be empty (lattice
        # families put their extreme class right on the boundary ratio), so
        # back off by 1% of the slope gap; the rescale absorbs the rest
        inset = 0.01 * max(a_max - rate.right_derivative_at_1, 1e-6)
        a_lt = a_max - inset
        phi_a = polar_detail(rate, a_lt).value
        report = exponent_sweep(spec, a_lt, n_list, mode=mode, rate=rate,
                                dim_cap=dim_cap, variant=variant)
        s = float(spec.scaling_exponent)
        shifts = [(r - a_lt - phi_a) * float(ep.n) ** s for ep in report.per_n]
        report.per_n = [
            _shifted_pair(ep, sh) for ep, sh in zip(report.per_n, shifts)
        ]
        ns = [ep.n for ep in report.per_n]
        report.success_fit = fit_rate(ns, [ep.log_success for ep in report.per_n],
                                      scaling=s)
        report.beta_fit = fit_rate(ns, [ep.log_beta for ep in report.per_n], scaling=s)
        report.predicted_success_rate = r - a_max
        report.predicted_beta_rate = r
        notes.append("linear-tail regime: rescaled sub-tests in effect")
        if not rate.slope_is_exact:
            notes.append("boundary slope estimated from the grid tail")
    if spec.kind == "quasifree" and not _scalar_reference(spec.payload):
        notes.append(
            "reference symbol is not the scalar 1/2: prediction is a lower bound "
            "in a two-sided bracket, not claimed as an equality"
        )
    report.r = float(r)
    report.predicted_H = h.value
    report.regime = h.regime
    report.notes = report.notes + tuple(notes)
    return report


def _scalar_reference(payload):
    """Whether the reference symbol is identically 1/2 (maximally mixed blocks)."""
    from . import quasifree as qf

    vals = qf._sample_symbol(payload.r_symbol, payload.nu, 64 if payload.nu == 2 else 512)
    return bool(np.abs(vals - 0.5).max() <= 1e-12)
