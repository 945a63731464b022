"""Dense Hermitian operators with cached spectra and support-restricted calculus.

Everything downstream (Renyi quantities, Neyman-Pearson tests, state families)
works through :class:`HermitianOperator`, which pairs a dense matrix with its
eigendecomposition computed once at construction.  Matrix functions follow the
support convention: powers and logarithms act on the strictly positive part of
the spectrum only, and ``A^0`` is the support projection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12  # relative asymmetry that rounding leaves; more means bad input
SUPPORT_TOL = 1e-12  # eigenvalues under this fraction of the largest are noise: off-support
CLUSTER_TOL = 1e-10  # eigenvalue gaps under this fraction of the norm are rounding: one level
PSD_ORDER_TOL = 1e-9  # relative slack of the PSD order, above eigvalsh noise on a difference
SUPPORT_LEAKAGE_TOL = 1e-8  # weight of rho on ker sigma: rounding gives ~1e-16, a leak more
STATE_TOL = 1e-10  # eigenvalue and trace slack of a state or test; rounding leaves ~1e-15
DIM_CAP = 4096  # most rows of any matrix a route builds; a larger one is refused, not built

__all__ = [
    "HermitianOperator",
    "StatePair",
    "Test",
    "logsumexp",
    "logsumexp_rows",
    "log_factorials",
    "xlogy",
    "power_on_support",
    "power_matrices",
    "log_on_support",
    "positive_part_trace",
    "pinch",
    "eigenvalue_clusters",
    "psd_dominates",
    "tensor_power",
    "tensor_product",
    "supports_nested",
    "finite_json_numbers",
    "operator_to_json",
    "operator_from_json",
    "rand_density",
]


class HermitianOperator:
    """A Hermitian matrix bundled with its spectral decomposition.

    Parameters
    ----------
    entries : array_like
        Square complex matrix; Hermitian up to ``HERMITICITY_TOL`` relative to
        its largest entry.

    Attributes
    ----------
    blocks : tuple of ndarray
        The (symmetrized) diagonal blocks of the matrix, in order; the one
        block ``(entries,)`` unless built by :meth:`block_diagonal`.
    block_spectra : tuple
        Each block's ascending ``(eigenvalues, eigenvectors)``, from one
        ``eigh`` per block.
    order : ndarray
        The stable sort of the blocks' joint eigenvalues: ``eigenvalues[i]``
        is entry ``order[i]`` of the blocks' eigenvalues laid end to end.
    entries : ndarray
        The dense matrix, the direct sum of ``blocks``.
    eigenvalues : ndarray
        Real eigenvalues in ascending order.
    eigenvectors : ndarray
        Orthonormal eigenvectors as columns, aligned with ``eigenvalues``;
        each stays supported on its own block.
    eig_labels : tuple or None
        Hashable label per eigenvalue, set only by :func:`tensor_power`: its
        type, the multiset of base-spectrum clusters it came from, so that
        type classes are recognized without floating-point comparisons.
        Every spectral map (:func:`power_on_support`, :func:`log_on_support`)
        drops them, since a map can merge levels that the labels keep apart.
    sectors : tuple of int
        Sizes of the ``blocks``, which split any operator that shares them
        into independent slices; ``(dim,)`` unless built by
        :meth:`block_diagonal`.

    Of several blocks, ``entries`` and ``eigenvectors`` are assembled on
    first read and are read-only from then on.
    """

    __slots__ = ("blocks", "block_spectra", "dim", "eigenvalues", "eig_labels", "_order",
                 "_entries", "_eigenvectors")

    def __init__(self, entries):
        (a,) = _hermitian_parts([entries])
        self._fill([a], [np.linalg.eigh(a)], None)

    def _fill(self, blocks, spectra, eig_labels):
        """Set every slot (the one place they are assigned) and return self.

        ``spectra`` holds each block's ascending ``(eigenvalues,
        eigenvectors)``.  One block is the dense matrix, its spectrum already
        sorted; the spectra of several are stable-sorted jointly.
        """
        self.blocks, self.block_spectra = tuple(blocks), tuple(spectra)
        self.eig_labels = eig_labels
        if len(self.blocks) == 1:
            ((self.eigenvalues, self._eigenvectors),) = self.block_spectra
            self._entries, self._order = self.blocks[0], None
        else:
            w = np.concatenate([w for w, _ in self.block_spectra])
            self._order = np.argsort(w, kind="stable")
            self.eigenvalues = w[self._order]
            self._entries = self._eigenvectors = None
        self.dim = len(self.eigenvalues)
        return self

    @classmethod
    def block_diagonal(cls, blocks):
        """Direct sum of square blocks, diagonalised one block at a time.

        The blocks must be Hermitian up to ``HERMITICITY_TOL`` relative to the
        largest entry over all of them.  The joined spectrum is stable-sorted
        into ascending order and every eigenvector stays supported on its own
        block; the dense forms are not built until they are read.
        """
        blocks = _hermitian_parts(blocks)
        return cls.__new__(cls)._fill(blocks, map(np.linalg.eigh, blocks), None)

    @classmethod
    def from_spectral(cls, eigenvalues, eigenvectors, eig_labels=None):
        """Build an operator from a known eigendecomposition (no fresh eigh)."""
        w = np.asarray(eigenvalues, dtype=float)
        v = np.asarray(eigenvectors, dtype=complex)
        if v.shape[0] != v.shape[1] or w.shape[0] != v.shape[0]:
            raise ValueError("inconsistent spectral data")
        order, w, v, a = _spectral_matrix(w, v)
        if eig_labels is not None:
            eig_labels = tuple(eig_labels[i] for i in order)
        return cls.__new__(cls)._fill([a], [(w, v)], eig_labels)

    @property
    def entries(self):
        if self._entries is None:
            self._entries = _read_only(_direct_sum(self.blocks))
        return self._entries

    @property
    def eigenvectors(self):
        if self._eigenvectors is None:
            vecs = _direct_sum([v for _, v in self.block_spectra])
            self._eigenvectors = _read_only(vecs[:, self._order])
        return self._eigenvectors

    @property
    def order(self):
        return np.arange(self.dim) if self._order is None else self._order

    @property
    def sectors(self):
        return tuple(len(b) for b in self.blocks)

    # -- cheap scalar summaries -------------------------------------------

    @property
    def trace(self):
        """The sum of the blocks' diagonals laid end to end: ``np.trace`` of
        ``entries`` to the bit, without assembling it."""
        return float(np.concatenate([b.diagonal() for b in self.blocks]).sum().real)

    @property
    def norm(self):
        """Operator (spectral) norm."""
        return float(np.abs(self.eigenvalues).max()) if self.dim else 0.0

    @property
    def min_eigenvalue(self):
        return float(self.eigenvalues[0])

    @property
    def max_eigenvalue(self):
        return float(self.eigenvalues[-1])

    def support_cutoff(self):
        """Absolute cutoff below which eigenvalues count as zero."""
        return SUPPORT_TOL * max(self.max_eigenvalue, 0.0)

    def support_indices(self):
        return np.nonzero(self.eigenvalues > self.support_cutoff())[0]

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim}, trace={self.trace:.6g})"


def _hermitian_parts(blocks):
    """``(A + A^\\dagger)/2`` of each square block, once the blocks are checked
    Hermitian to ``HERMITICITY_TOL`` relative to their largest entry."""
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    for b in blocks:
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {b.shape}")
    scale = max(max(np.abs(b).max() for b in blocks), 1e-300)
    dev = max(np.abs(b - b.conj().T).max() for b in blocks)
    if dev > HERMITICITY_TOL * scale:
        raise ValueError(
            f"matrix is not Hermitian: relative deviation {dev / scale:.3e} "
            f"exceeds {HERMITICITY_TOL:.1e}"
        )
    return [0.5 * (b + b.conj().T) for b in blocks]


def logsumexp(a):
    """``log sum exp(a)`` over every entry of ``a`` as a float; an empty sum is
    ``-inf``.  Every log-domain sum of the package goes through here or
    through :func:`logsumexp_rows`, which holds the one body.
    """
    return logsumexp_rows(np.ravel(a, order="K")).item()


def logsumexp_rows(a):
    """``log sum exp`` over the last axis of ``a``, one float per row; an empty
    row sums to ``-inf``.

    The body performs scipy 1.17's ``scipy.special.logsumexp`` operations on
    real input, row by row and without its array-API dispatch, so each row's
    result is the same to the bit as scipy's on that row alone: the ``m``
    maximal entries are summed apart from the rest, and a result that is not
    finite is replaced by the direct ``log(sum(exp(row)))``.
    """
    a = np.ascontiguousarray(a, dtype=float)  # each row is summed as a 1-D array is
    if not a.shape[-1]:
        return np.full(a.shape[:-1], -math.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=-1, keepdims=True)
        top = a == a_max
        m = top.sum(axis=-1, keepdims=True, dtype=float)
        s = np.exp(np.where(top, -np.inf, a) - a_max).sum(axis=-1, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max  # scipy divides a nonzero s only; 0 / m is 0
        if not all(map(math.isfinite, out.ravel().tolist())):  # cheaper than a reduction
            bad = ~np.isfinite(out)
            out[bad] = np.log(np.exp(a[bad[..., 0]]).sum(axis=-1))
    return out[..., 0]


def _spectral_matrix(w, v):
    """``(order, w, v, a)``: the stable ascending sort of the eigenvalues ``w``,
    the sorted pair, and ``a = v diag(w) v^+`` made exactly Hermitian."""
    order = np.argsort(w, kind="stable")
    w, v = w[order], v[:, order]
    a = (v * w) @ v.conj().T
    return order, w, v, 0.5 * (a + a.conj().T)


def _read_only(a):
    a.flags.writeable = False
    return a


def _direct_sum(blocks):
    """The block-diagonal matrix of the square ``blocks`` in their joint dtype
    (``np.result_type``), as scipy's ``block_diag`` builds it."""
    out = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=np.result_type(*blocks))
    at = 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


def log_factorials(n):
    """``log k!`` for ``k = 0..n``, each the same to the bit as scipy 1.17's
    ``gammaln(k + 1)``.

    The body is cephes ``lgam`` at the integer ``x = k + 1``: below 13 the log
    of the exact product ``(x - 1)!``; from 13 up ``(x - 1/2) log x - x +
    log sqrt(2 pi)`` plus cephes' polynomial ``A(1/x^2) / x`` (its three-term
    series from ``x = 1000``, nothing past ``1e8``).  Every log is glibc's
    ``math.log``: numpy's vectorised ``log`` differs from it in the last bit
    on some integers.
    """
    small = [math.log(float(math.factorial(k))) for k in range(min(n, 11) + 1)]
    x = np.arange(13.0, n + 2.0)
    q = (x - 0.5) * np.array([math.log(v) for v in x.tolist()]) - x + 0.91893853320467274178
    p = 1.0 / (x * x)
    poly = 0.0  # cephes polevl: 0 * p + A[0] is A[0] exactly
    for coef in (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
                 -2.77777777730099687205e-3, 8.33333333333331927722e-2):
        poly = poly * p + coef
    tail = np.where(x < 1000.0, poly, (7.9365079365079365079365e-4 * p
                                       - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333)
    return np.concatenate([small, np.where(x > 1e8, q, q + tail / x)])


def xlogy(x, y):
    """``x log y`` over an array ``x`` for one scalar ``y >= 0``, with ``0 log y
    = 0`` (so ``0 log 0 = 0``): scipy 1.17's ``xlogy`` to the bit, its log
    glibc's ``math.log`` as in :func:`log_factorials`."""
    x = np.asarray(x, dtype=float)
    log_y = math.log(y) if y > 0 else -math.inf
    with np.errstate(invalid="ignore"):  # 0 * -inf, replaced by 0
        return np.where(x == 0, 0.0, x * log_y)


def _require_psd(op):
    floor = -(SUPPORT_TOL * max(op.norm, 1.0) + 1e-14)
    if op.min_eigenvalue < floor:
        raise ValueError(
            "operator is not positive semidefinite: min eigenvalue "
            f"{op.min_eigenvalue:.3e}"
        )


def _support_map(w, cut, fn):
    """``fn`` of the eigenvalues ``w`` above ``cut``, 0 on the rest."""
    out = np.zeros_like(w)
    on = w > cut
    out[on] = fn(w[on])
    return out


def _power(t):
    """The eigenvalue map of ``w**t``; exact ones at ``t = 0``."""
    return np.ones_like if t == 0 else lambda w: w ** t


def _on_support(op, fn):
    """``fn`` of the eigenvalues above the support cutoff, 0 on the rest, in
    ``op``'s eigenbasis; the result carries no eigen-labels."""
    out = _support_map(op.eigenvalues, op.support_cutoff(), fn)
    return HermitianOperator.from_spectral(out, op.eigenvectors)


def power_on_support(op, t):
    """``op**t`` on the support; eigenvalues at or below the cutoff map to 0.

    ``t = 0`` returns the support projection.  Negative ``t`` inverts on the
    support (Moore-Penrose style).  The operator must be PSD up to support
    tolerance; tiny negative eigenvalues are clipped.
    """
    _require_psd(op)
    return _on_support(op, _power(t))


def power_matrices(op):
    """The function ``t -> power_on_support(op, t).entries``, the same to the
    bit, with ``op``'s PSD gate, support cutoff and spectrum taken once.

    It reads only read-only copies of the spectrum, so threads may share it.
    """
    _require_psd(op)
    cut = op.support_cutoff()
    w = _read_only(op.eigenvalues.copy())
    v = _read_only(np.array(op.eigenvectors, dtype=complex))
    return lambda t: _spectral_matrix(_support_map(w, cut, _power(t)), v)[3]


def log_on_support(op):
    """Eigenvalue-wise natural log on the support, zero elsewhere."""
    _require_psd(op)
    return _on_support(op, np.log)


def positive_part_trace(op):
    """Trace of the positive part, ``max { Tr(op T) : 0 <= T <= I }``."""
    if not isinstance(op, HermitianOperator):
        op = HermitianOperator(op)
    return float(np.clip(op.eigenvalues, 0.0, None).sum())


def eigenvalue_clusters(op):
    """Group eigenvalue indices into clusters.

    Tensor powers are grouped by ``eig_labels``, one cluster per type class
    (see :func:`tensor_power`); otherwise clusters are maximal runs of the
    sorted spectrum with gaps at most ``CLUSTER_TOL`` relative to the norm.
    """
    if op.eig_labels is not None:
        groups = {}
        for i, lab in enumerate(op.eig_labels):
            groups.setdefault(lab, []).append(i)
        # order clusters by their smallest eigenvalue for reproducibility
        return sorted(
            (np.asarray(ix) for ix in groups.values()),
            key=lambda ix: op.eigenvalues[ix[0]],
        )
    w = op.eigenvalues
    if w.size == 0:
        return []
    thr = CLUSTER_TOL * max(np.abs(w).max(), 1e-300)
    breaks = np.nonzero(np.diff(w) > thr)[0]
    return np.split(np.arange(w.size), breaks + 1)


def distinct_eigenvalue_count(op):
    """Pinching constant ``v``: the number of :func:`eigenvalue_clusters`."""
    return len(eigenvalue_clusters(op))


def pinch(x, sigma):
    """``sum_i P_i x P_i`` over the projections onto sigma's
    :func:`eigenvalue_clusters` (type classes for a tensor power); the result
    commutes with ``sigma``, has the same trace as ``x``, and satisfies
    ``x <= v pinch(x, sigma)`` for PSD ``x``, ``v = distinct_eigenvalue_count``.
    """
    return HermitianOperator(_pinch_matrix(x, sigma))


def _pinch_matrix(x, sigma):
    """The exactly Hermitian matrix of :func:`pinch`, without its eigenbasis."""
    if x.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    return _pinch_slice(x.entries, sigma.eigenvectors, _cluster_labels(sigma))


def _cluster_labels(sigma):
    """Index, in ``eigenvalue_clusters(sigma)``, of the cluster of each eigenvector."""
    labels = np.empty(sigma.dim, dtype=int)
    for c, ix in enumerate(eigenvalue_clusters(sigma)):
        labels[ix] = c
    return labels


def _pinch_slice(x, v, labels):
    """``sum_c V_c V_c^+ x V_c V_c^+``, exactly Hermitian, over the groups ``V_c``
    of the orthonormal columns of ``v`` that share a label ``c``: the pinching
    of ``x`` when the columns span the space ``x`` acts on."""
    w = v.conj().T @ x @ v
    out = v @ np.where(labels[:, None] == labels[None, :], w, 0.0) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def psd_dominates(a, b):
    """Whether ``a >= b`` in the PSD order, up to a slack of ``PSD_ORDER_TOL``
    times the larger operator norm (at least 1)."""
    slack = PSD_ORDER_TOL * max(a.norm, b.norm, 1.0)
    w = np.linalg.eigvalsh(a.entries - b.entries)
    return bool(w[0] >= -slack)


def tensor_power(op, n):
    """``op^{\\otimes n}`` with a symbolically labelled spectrum.

    The eigenvectors are Kronecker products of the base eigenvectors and each
    eigenvalue carries its type, the multiset of base cluster indices it came
    from.  Type classes are spectral projections only if no two types share
    an eigenvalue: true for a qubit with two levels (``n+1`` classes), not for
    ``diag(1/7, 2/7, 4/7)^{\\otimes 2}`` (6 classes, 5 eigenvalues).
    """
    if n < 1:
        raise ValueError("tensor power requires n >= 1")
    if op.dim ** n > DIM_CAP:
        raise ValueError(f"dim {op.dim}^{n} exceeds cap {DIM_CAP}")
    cluster_of = _cluster_labels(op)
    labels = [
        tuple(sorted(cluster_of[i] for i in digits))
        for digits in itertools.product(range(op.dim), repeat=n)
    ]
    return HermitianOperator.from_spectral(*_kron_spectra([op] * n), labels)


def tensor_product(*ops):
    """Plain Kronecker product of operators, its spectrum the Kronecker product
    of the factors' cached spectra (no fresh eigendecomposition)."""
    total = 1
    for op in ops:
        total *= op.dim
    if total > DIM_CAP:
        raise ValueError(f"product dimension {total} exceeds cap {DIM_CAP}")
    return HermitianOperator.from_spectral(*_kron_spectra(ops))


def _kron_spectra(ops):
    """Kronecker products of the factors' eigenvalues and eigenvectors."""
    w, v = np.ones(1), np.ones((1, 1), dtype=complex)
    for op in ops:
        w = np.kron(w, op.eigenvalues)
        v = np.kron(v, op.eigenvectors)
    return w, v


def supports_nested(rho, sigma):
    """Check ``supp rho \\subseteq supp sigma``.

    Returns ``(ok, leakage)`` where leakage is the largest squared overlap of
    a supported eigenvector of ``rho`` with the kernel of ``sigma`` and ``ok``
    means leakage at most ``SUPPORT_LEAKAGE_TOL``.
    """
    idx = rho.support_indices()
    if idx.size == 0:
        return True, 0.0
    ker = np.nonzero(sigma.eigenvalues <= sigma.support_cutoff())[0]
    if ker.size == 0:
        return True, 0.0
    k = sigma.eigenvectors[:, ker]
    overlaps = np.abs(k.conj().T @ rho.eigenvectors[:, idx]) ** 2
    leakage = float(overlaps.sum(axis=0).max())
    return leakage <= SUPPORT_LEAKAGE_TOL, leakage


@dataclass
class StatePair:
    """A validated null/alternative pair of density operators.

    ``rho`` and ``sigma`` must be PSD with unit trace (tolerance
    ``STATE_TOL``) and satisfy the support condition ``supp rho \\subseteq
    supp sigma`` with per-eigenvector leakage at most ``SUPPORT_LEAKAGE_TOL``.
    """

    rho: HermitianOperator
    sigma: HermitianOperator

    def __post_init__(self):
        if self.rho.dim != self.sigma.dim:
            raise ValueError("rho and sigma must share a dimension")
        for name, op in (("rho", self.rho), ("sigma", self.sigma)):
            if op.min_eigenvalue < -STATE_TOL:
                raise ValueError(f"{name} is not PSD: min eig {op.min_eigenvalue:.3e}")
            if abs(op.trace - 1.0) > STATE_TOL:
                raise ValueError(f"{name} is not normalized: trace {op.trace!r}")
        ok, leak = supports_nested(self.rho, self.sigma)
        if not ok:
            raise ValueError(
                f"support condition violated: leakage {leak:.3e} "
                f"exceeds 1e{math.log10(SUPPORT_LEAKAGE_TOL):.0f}"  # "1e-8", not :g's "1e-08"
            )


@dataclass
class Test:
    """A binary test ``0 <= T <= I`` (eigenvalue slack ``STATE_TOL`` on both sides)."""

    op: HermitianOperator

    def __post_init__(self):
        w = self.op.eigenvalues
        if w.size and (w[0] < -STATE_TOL or w[-1] > 1.0 + STATE_TOL):
            raise ValueError(
                f"test eigenvalues outside [0, 1]: range [{w[0]:.3e}, {w[-1]:.3e}]"
            )


# -- serialization ---------------------------------------------------------


def finite_json_numbers(vals):
    """Whether every entry is a finite JSON number: no bool, no string, no NaN."""
    try:
        return all(type(v) in (int, float) and math.isfinite(v) for v in vals)
    except OverflowError:  # an integer beyond the double range
        return False


def _check_json_object(d, what, keys):
    """Refuse ``d`` unless it is a JSON object with no keys but ``keys``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise ValueError(f"a {what} takes no {unknown[0]!r}; it takes {keys}")


def operator_to_json(op):
    """JSON-safe dict: dimension plus row-major real and imaginary parts."""
    return {
        "dim": op.dim,
        "re": [float(x) for x in op.entries.real.ravel()],
        "im": [float(x) for x in op.entries.imag.ravel()],
    }


def _json_entries(vals, dim, key):
    if not (isinstance(vals, list) and len(vals) == dim * dim and finite_json_numbers(vals)):
        raise ValueError(f"operator {key} must be a list of {dim * dim} finite JSON numbers")
    return np.asarray(vals, dtype=float).reshape(dim, dim)


def operator_from_json(data):
    """Operator from its JSON dict: ``dim`` a positive JSON integer, ``re`` and
    ``im`` row-major lists of ``dim**2`` finite JSON numbers, ``im`` optional,
    and no other key."""
    _check_json_object(data, "operator", ("dim", "re", "im"))
    dim = data["dim"]
    if type(dim) is not int or dim < 1:  # not isinstance: true is an int too
        raise ValueError(f"operator dim must be a positive JSON integer, got {dim!r}")
    re = _json_entries(data["re"], dim, "re")
    im = 0.0 if data.get("im") is None else _json_entries(data["im"], dim, "im")
    return HermitianOperator(re + 1j * im)


# -- random instances (seeded; used by `sconv verify` and the tests) -------


def rand_density(dim, rng, rank=None):
    """Random full-rank (or fixed-rank) density operator, Hilbert-Schmidt style."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    a = g @ g.conj().T
    return HermitianOperator(a / np.trace(a).real)
