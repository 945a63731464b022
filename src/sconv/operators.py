"""Dense Hermitian operators with cached spectra and support-restricted calculus.

Everything downstream (Renyi quantities, Neyman-Pearson tests, state families)
works through :class:`HermitianOperator`, which pairs a dense matrix with its
eigendecomposition computed once at construction.  Matrix functions follow the
support convention: powers and logarithms act on the strictly positive part of
the spectrum only, and ``A^0`` is the support projection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12  # relative asymmetry that rounding leaves; more means bad input
SUPPORT_TOL = 1e-12  # eigenvalues under this fraction of the largest are noise: off-support
CLUSTER_TOL = 1e-10  # eigenvalue gaps under this fraction of the norm are rounding: one level
PSD_ORDER_TOL = 1e-9  # relative slack of the PSD order, above eigvalsh noise on a difference
DEFAULT_DIM_CAP = 4096

__all__ = [
    "HermitianOperator",
    "StatePair",
    "Test",
    "spectral",
    "power_on_support",
    "log_on_support",
    "positive_part_trace",
    "pinch",
    "eigenvalue_clusters",
    "distinct_eigenvalue_count",
    "psd_dominates",
    "tensor_power",
    "tensor_product",
    "supports_nested",
    "operator_to_json",
    "operator_from_json",
    "rand_hermitian",
    "rand_density",
    "rand_test",
]


class HermitianOperator:
    """A Hermitian matrix bundled with its spectral decomposition.

    Parameters
    ----------
    entries : array_like
        Square complex matrix; Hermitian up to ``hermiticity_tol`` relative to
        its largest entry.
    hermiticity_tol : float
        Relative deviation allowed between ``A`` and ``A^\\dagger``.

    Attributes
    ----------
    entries : ndarray
        The (symmetrized) dense matrix.
    eigenvalues : ndarray
        Real eigenvalues in ascending order.
    eigenvectors : ndarray
        Orthonormal eigenvectors as columns, aligned with ``eigenvalues``.
    eig_labels : tuple or None
        Optional hashable label per eigenvalue.  Tensor powers attach the
        multiset of base-spectrum indices so that exact degeneracies are
        recognized symbolically instead of by floating-point coincidence.
    """

    __slots__ = ("entries", "dim", "eigenvalues", "eigenvectors", "eig_labels")

    def __init__(self, entries, hermiticity_tol=HERMITICITY_TOL):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        scale = max(np.abs(a).max(), 1e-300)
        dev = np.abs(a - a.conj().T).max()
        if dev > hermiticity_tol * scale:
            raise ValueError(
                f"matrix is not Hermitian: relative deviation {dev / scale:.3e} "
                f"exceeds {hermiticity_tol:.1e}"
            )
        a = 0.5 * (a + a.conj().T)
        w, v = np.linalg.eigh(a)
        self.entries = a
        self.dim = a.shape[0]
        self.eigenvalues = w
        self.eigenvectors = v
        self.eig_labels = None

    @classmethod
    def from_spectral(cls, eigenvalues, eigenvectors, eig_labels=None):
        """Build an operator from a known eigendecomposition (no fresh eigh)."""
        w = np.asarray(eigenvalues, dtype=float)
        v = np.asarray(eigenvectors, dtype=complex)
        if v.shape[0] != v.shape[1] or w.shape[0] != v.shape[0]:
            raise ValueError("inconsistent spectral data")
        order = np.argsort(w, kind="stable")
        w = w[order]
        v = v[:, order]
        if eig_labels is not None:
            eig_labels = tuple(eig_labels[i] for i in order)
        a = (v * w) @ v.conj().T
        a = 0.5 * (a + a.conj().T)
        obj = cls.__new__(cls)
        obj.entries = a
        obj.dim = a.shape[0]
        obj.eigenvalues = w
        obj.eigenvectors = v
        obj.eig_labels = eig_labels
        return obj

    # -- cheap scalar summaries -------------------------------------------

    @property
    def trace(self):
        return float(np.trace(self.entries).real)

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

    def support_projection(self):
        idx = self.support_indices()
        v = self.eigenvectors[:, idx]
        p = v @ v.conj().T
        return HermitianOperator(0.5 * (p + p.conj().T))

    def rank(self):
        return int(self.support_indices().size)

    def map_eigenvalues(self, fn):
        """New operator with the same eigenvectors and mapped eigenvalues."""
        w = np.array([fn(x) for x in self.eigenvalues], dtype=float)
        return HermitianOperator.from_spectral(w, self.eigenvectors, self.eig_labels)

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim}, trace={self.trace:.6g})"


def spectral(op):
    """Return ``(eigenvalues, eigenvectors)`` copies of the cached decomposition."""
    return op.eigenvalues.copy(), op.eigenvectors.copy()


def _require_psd(op):
    floor = -(SUPPORT_TOL * max(op.norm, 1.0) + 1e-14)
    if op.min_eigenvalue < floor:
        raise ValueError(
            "operator is not positive semidefinite: min eigenvalue "
            f"{op.min_eigenvalue:.3e}"
        )


def power_on_support(op, t):
    """``op**t`` on the support; eigenvalues at or below the cutoff map to 0.

    ``t = 0`` returns the support projection.  Negative ``t`` inverts on the
    support (Moore-Penrose style).  The operator must be PSD up to support
    tolerance; tiny negative eigenvalues are clipped.
    """
    _require_psd(op)
    cut = op.support_cutoff()
    w = op.eigenvalues
    out = np.zeros_like(w)
    on = w > cut
    out[on] = w[on] ** t if t != 0 else 1.0
    return HermitianOperator.from_spectral(out, op.eigenvectors, op.eig_labels)


def log_on_support(op):
    """Eigenvalue-wise natural log on the support, zero elsewhere."""
    _require_psd(op)
    cut = op.support_cutoff()
    w = op.eigenvalues
    out = np.zeros_like(w)
    on = w > cut
    out[on] = np.log(w[on])
    return HermitianOperator.from_spectral(out, op.eigenvectors, op.eig_labels)


def positive_part_trace(op):
    """Trace of the positive part, ``max { Tr(op T) : 0 <= T <= I }``."""
    if not isinstance(op, HermitianOperator):
        op = HermitianOperator(op)
    return float(np.clip(op.eigenvalues, 0.0, None).sum())


def eigenvalue_clusters(op):
    """Group eigenvalue indices into degenerate clusters.

    Operators carrying symbolic ``eig_labels`` (tensor powers) are grouped by
    exact label; otherwise clusters are maximal runs of the sorted spectrum
    with consecutive gaps at most ``CLUSTER_TOL`` relative to the norm.
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
    """Number of distinct eigenvalues (pinching constant ``v``)."""
    return len(eigenvalue_clusters(op))


def pinch(x, sigma):
    """Pinching of ``x`` by the spectral projections of ``sigma``.

    Returns ``sum_i P_i x P_i`` over sigma's distinct-eigenvalue projections;
    the result commutes with ``sigma`` and has the same trace as ``x``.
    """
    return HermitianOperator(_pinch_matrix(x, sigma))


def _pinch_matrix(x, sigma):
    """The exactly Hermitian matrix of :func:`pinch`, without its eigenbasis."""
    if x.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    clusters = eigenvalue_clusters(sigma)
    v = sigma.eigenvectors
    w = v.conj().T @ x.entries @ v
    masked = np.zeros_like(w)
    for ix in clusters:
        masked[np.ix_(ix, ix)] = w[np.ix_(ix, ix)]
    out = v @ masked @ v.conj().T
    return 0.5 * (out + out.conj().T)


def psd_dominates(a, b):
    """Whether ``a >= b`` in the PSD order, up to a slack of ``PSD_ORDER_TOL``
    times the larger operator norm (at least 1)."""
    slack = PSD_ORDER_TOL * max(a.norm, b.norm, 1.0)
    w = np.linalg.eigvalsh(a.entries - b.entries)
    return bool(w[0] >= -slack)


def tensor_power(op, n, dim_cap=DEFAULT_DIM_CAP):
    """``op^{\\otimes n}`` with a symbolically labelled spectrum.

    The eigenvectors are Kronecker products of the base eigenvectors and each
    eigenvalue carries the multiset of base cluster indices it came from, so
    exact degeneracies of the power are available without floating-point
    comparisons (a qubit ``sigma^{\\otimes n}`` has exactly ``n+1`` distinct
    eigenvalues).
    """
    if n < 1:
        raise ValueError("tensor power requires n >= 1")
    if op.dim ** n > dim_cap:
        raise ValueError(f"dim {op.dim}^{n} exceeds cap {dim_cap}")
    base_clusters = eigenvalue_clusters(op)
    cluster_of = np.empty(op.dim, dtype=int)
    for ci, ix in enumerate(base_clusters):
        cluster_of[ix] = ci
    w = op.eigenvalues.copy()
    v = op.eigenvectors.copy()
    wn, vn = w, v
    for _ in range(n - 1):
        wn = np.kron(wn, w)
        vn = np.kron(vn, v)
    labels = [
        tuple(sorted(cluster_of[i] for i in digits))
        for digits in itertools.product(range(op.dim), repeat=n)
    ]
    return HermitianOperator.from_spectral(wn, vn, labels)


def tensor_product(*ops, dim_cap=DEFAULT_DIM_CAP):
    """Plain Kronecker product of operators, its spectrum the Kronecker product
    of the factors' cached spectra (no fresh eigendecomposition)."""
    total = 1
    for op in ops:
        total *= op.dim
    if total > dim_cap:
        raise ValueError(f"product dimension {total} exceeds cap {dim_cap}")
    w, v = np.ones(1), np.ones((1, 1), dtype=complex)
    for op in ops:
        w = np.kron(w, op.eigenvalues)
        v = np.kron(v, op.eigenvectors)
    return HermitianOperator.from_spectral(w, v)


def supports_nested(rho, sigma):
    """Check ``supp rho \\subseteq supp sigma``.

    Returns ``(ok, leakage)`` where leakage is the largest squared overlap of
    a supported eigenvector of ``rho`` with the kernel of ``sigma`` and ``ok``
    means leakage at most 1e-8.
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
    return leakage <= 1e-8, leakage


@dataclass
class StatePair:
    """A validated null/alternative pair of density operators.

    ``rho`` and ``sigma`` must be PSD with unit trace (tolerance 1e-10) and
    satisfy the support condition ``supp rho \\subseteq supp sigma`` with
    per-eigenvector leakage at most 1e-8.  ``support_margin`` is the smallest
    retained relative eigenvalue of sigma; downstream reports flag pairs whose
    margin falls below 1e-6 as numerically delicate.
    """

    rho: HermitianOperator
    sigma: HermitianOperator
    support_leakage: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.rho.dim != self.sigma.dim:
            raise ValueError("rho and sigma must share a dimension")
        for name, op in (("rho", self.rho), ("sigma", self.sigma)):
            if op.min_eigenvalue < -1e-10:
                raise ValueError(f"{name} is not PSD: min eig {op.min_eigenvalue:.3e}")
            if abs(op.trace - 1.0) > 1e-10:
                raise ValueError(f"{name} is not normalized: trace {op.trace!r}")
        ok, leak = supports_nested(self.rho, self.sigma)
        self.support_leakage = leak
        if not ok:
            raise ValueError(
                f"support condition violated: leakage {leak:.3e} exceeds 1e-8"
            )

    @property
    def dim(self):
        return self.rho.dim

    @property
    def support_margin(self):
        """Smallest retained relative eigenvalue of sigma."""
        idx = self.sigma.support_indices()
        w = self.sigma.eigenvalues[idx]
        return float(w.min() / w.max()) if idx.size else 0.0

    @property
    def support_marginal(self):
        return self.support_margin < 1e-6


@dataclass
class Test:
    """A binary test ``0 <= T <= I`` (eigenvalue slack 1e-10 on both sides)."""

    op: HermitianOperator

    def __post_init__(self):
        w = self.op.eigenvalues
        if w.size and (w[0] < -1e-10 or w[-1] > 1.0 + 1e-10):
            raise ValueError(
                f"test eigenvalues outside [0, 1]: range [{w[0]:.3e}, {w[-1]:.3e}]"
            )

    @property
    def dim(self):
        return self.op.dim

    def complement(self):
        eye = np.eye(self.dim)
        return Test(HermitianOperator(eye - self.op.entries))

    def scale(self, factor):
        if not 0.0 <= factor <= 1.0 + 1e-12:
            raise ValueError(f"scaling factor {factor!r} outside [0, 1]")
        return Test(
            HermitianOperator.from_spectral(
                np.clip(factor * self.op.eigenvalues, 0.0, 1.0),
                self.op.eigenvectors,
            )
        )


# -- serialization ---------------------------------------------------------


def operator_to_json(op):
    """JSON-safe dict: dimension plus row-major real and imaginary parts."""
    return {
        "dim": op.dim,
        "re": [float(x) for x in op.entries.real.ravel()],
        "im": [float(x) for x in op.entries.imag.ravel()],
    }


def operator_from_json(data):
    dim = int(data["dim"])
    re = np.asarray(data["re"], dtype=float).reshape(dim, dim)
    im = np.asarray(data.get("im") or np.zeros(dim * dim), dtype=float).reshape(dim, dim)
    return HermitianOperator(re + 1j * im)


# -- random instances (seeded; used by tests, demos and `sconv verify`) ----


def rand_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(0.5 * (g + g.conj().T))


def rand_density(dim, rng, rank=None):
    """Random full-rank (or fixed-rank) density operator, Hilbert-Schmidt style."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    a = g @ g.conj().T
    return HermitianOperator(a / np.trace(a).real)


def rand_test(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    w = rng.uniform(0.0, 1.0, size=dim)
    return Test(HermitianOperator.from_spectral(w, q))
