"""Constructors for correlated state sequences.

Four kinds of families are supported.  A family is an instance of its kind's
payload class, which knows the kind's tag, states, block dimension, rate
curve, JSON form and per-``n`` scaling exponent (1 for chains, the lattice
dimension for quasi-free families):

* ``iid`` — tensor powers of a single-site pair;
* ``markov`` — classical chains, materialized as diagonal path-probability
  operators at small ``n`` and handled by transfer matrices everywhere else;
* ``gibbs`` — local Gibbs states of translation-invariant finite-range
  interactions with open boundaries, as a null/alternative pair of
  interactions, plus two-sided factorization certificates;
* ``quasifree`` — fermionic quasi-free states (see :mod:`sconv.quasifree`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quasifree as qf
from .hoeffding import DEFAULT_T_HI, ConvexRate, rate_from_samples
from .operators import (
    DIM_CAP,
    HermitianOperator,
    StatePair,
    _check_json_object,
    finite_json_numbers,
    operator_from_json,
    operator_to_json,
    psd_dominates,
    tensor_power,
    tensor_product,
)
# ``psi`` is not called here: the benchmark's tracer test (perfbench/tests)
# checks that this module's alias of it is rebound
from .renyi import _overlap, max_relative_entropy, psi, psi_curve, relative_entropy  # noqa: F401

PERRON_TOL = 1e-12  # relative Rayleigh-quotient change that ends the power iteration
PERRON_MAX_ITER = 200_000  # bounds the work on a slowly mixing chain; keeps the last root
RELENT_CHORD_STEP = 1e-6  # chord step at 1: O(h) truncation against O(eps/h) rounding
OVERLAP_TOL = 1e-12  # squared eigenvector overlaps under this are rounding: no shared direction
STOCHASTIC_TOL = 1e-12  # |sum - 1| of a distribution or transition row: rounding of d terms

__all__ = [
    "PAULI_X",
    "PAULI_Z",
    "IIDPayload",
    "MarkovPayload",
    "GibbsPayload",
    "GibbsPairPayload",
    "family_states",
    "gibbs_local_hamiltonian",
    "gibbs_state",
    "factorization_certificate",
    "smallest_factorization_eta",
    "markov_psi_n",
    "markov_psi_limit",
    "markov_relent_rate",
    "markov_rate",
    "iid_rate",
    "gibbs_rate",
    "asymptotic_rate",
    "family_from_json",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _as_operator(x):
    return x if isinstance(x, HermitianOperator) else HermitianOperator(np.asarray(x))


@dataclass
class IIDPayload:
    """Single-site null/alternative pair; block ``n`` takes tensor powers."""

    kind, scaling_exponent = "iid", 1

    rho1: HermitianOperator
    sigma1: HermitianOperator

    def __post_init__(self):
        self.rho1 = _as_operator(self.rho1)
        self.sigma1 = _as_operator(self.sigma1)
        StatePair(self.rho1, self.sigma1)  # validates states + support

    def block_dim(self, n):
        return self.rho1.dim**n

    def states(self, n):
        return StatePair(tensor_power(self.rho1, n), tensor_power(self.sigma1, n))

    def rate(self, variant):
        return iid_rate(self.rho1, self.sigma1, variant=variant)

    def to_json(self):
        return {"rho": operator_to_json(self.rho1), "sigma": operator_to_json(self.sigma1)}

    @classmethod
    def from_json(cls, d):
        _check_json_object(d, "iid payload", ("rho", "sigma"))
        return cls(operator_from_json(d["rho"]), operator_from_json(d["sigma"]))


@dataclass
class MarkovPayload:
    """Two classical chains on a common alphabet.

    ``P0``/``P1`` are row-stochastic (``STOCHASTIC_TOL``); the support condition demands
    ``P0[i,j] > 0`` implies ``P1[i,j] > 0`` (likewise for the initial
    distributions) so that order-``alpha > 1`` quantities stay finite.
    """

    kind, scaling_exponent = "markov", 1

    pi0: np.ndarray
    pi1: np.ndarray
    P0: np.ndarray
    P1: np.ndarray

    def __post_init__(self):
        self.pi0 = np.asarray(self.pi0, dtype=float)
        self.pi1 = np.asarray(self.pi1, dtype=float)
        self.P0 = np.asarray(self.P0, dtype=float)
        self.P1 = np.asarray(self.P1, dtype=float)
        d = self.pi0.size
        if self.P0.shape != (d, d) or self.P1.shape != (d, d) or self.pi1.size != d:
            raise ValueError("inconsistent chain dimensions")
        for name, arr in (("pi0", self.pi0), ("pi1", self.pi1)):
            if (arr < 0).any() or not abs(arr.sum() - 1.0) <= STOCHASTIC_TOL:  # NaN fails
                raise ValueError(f"{name} is not a distribution")
        for name, arr in (("P0", self.P0), ("P1", self.P1)):
            if (arr < 0).any() or not np.abs(arr.sum(axis=1) - 1.0).max() <= STOCHASTIC_TOL:
                raise ValueError(f"{name} is not row-stochastic")
        if ((self.P0 > 0) & (self.P1 == 0)).any() or ((self.pi0 > 0) & (self.pi1 == 0)).any():
            raise ValueError("support condition violated: P0 charges a P1-null transition")

    @property
    def d(self):
        return self.pi0.size

    def block_dim(self, n):
        return self.d**n

    def states(self, n):
        rho = np.diag(_markov_path_distribution(self.pi0, self.P0, n))
        sig = np.diag(_markov_path_distribution(self.pi1, self.P1, n))
        return StatePair(HermitianOperator(rho), HermitianOperator(sig))

    def rate(self, variant):
        return markov_rate(self)

    def to_json(self):
        return {"pi0": self.pi0.tolist(), "pi1": self.pi1.tolist(),
                "P0": self.P0.tolist(), "P1": self.P1.tolist()}

    @classmethod
    def from_json(cls, d):
        """Payload from its JSON object: ``pi0``/``pi1`` are lists of finite JSON
        numbers and ``P0``/``P1`` lists of such lists, and no other key."""
        _check_json_object(d, "markov payload", ("pi0", "pi1", "P0", "P1"))
        for key in ("pi0", "pi1", "P0", "P1"):
            vector = key.startswith("pi")
            rows = [d[key]] if vector else d[key]
            if not (isinstance(rows, list)
                    and all(isinstance(row, list) and finite_json_numbers(row) for row in rows)):
                what = "finite JSON numbers" if vector else "lists of finite JSON numbers"
                raise ValueError(f"markov {key} must be a list of {what}")
        return cls(d["pi0"], d["pi1"], d["P0"], d["P1"])


@dataclass
class GibbsPayload:
    """Translation-invariant finite-range interaction on a spin chain.

    ``terms[j-1]`` is the range-``j`` interaction term, Hermitian on
    ``site_dim**j`` dimensions; the local Hamiltonian sums open-boundary
    embeddings of every term at every admissible position.
    """

    site_dim: int
    terms: list
    beta: float

    def __post_init__(self):
        if self.site_dim < 2:
            raise ValueError("site dimension must be at least 2")
        if not 0 < self.beta < math.inf:  # NaN fails too
            raise ValueError(f"inverse temperature must be positive and finite, got {self.beta!r}")
        if not self.terms:
            raise ValueError("need at least one interaction term")
        self.terms = [_as_operator(t) for t in self.terms]
        for j, term in enumerate(self.terms, start=1):
            if term.dim != self.site_dim**j:
                raise ValueError(
                    f"term {j} has dim {term.dim}, expected {self.site_dim**j}"
                )

    def to_json(self):
        return {"site_dim": self.site_dim, "beta": self.beta,
                "terms": [operator_to_json(t) for t in self.terms]}

    @classmethod
    def from_json(cls, d):
        """Payload from its JSON object: ``site_dim`` is a JSON integer and
        ``beta`` a finite JSON number, and no other key."""
        _check_json_object(d, "gibbs payload", ("site_dim", "beta", "terms"))
        if type(d["site_dim"]) is not int:  # not isinstance: true is an int too
            raise ValueError(f"gibbs site_dim must be a JSON integer, got {d['site_dim']!r}")
        if not finite_json_numbers([d["beta"]]):
            raise ValueError(f"gibbs beta must be a finite JSON number, got {d['beta']!r}")
        terms = [operator_from_json(t) for t in d["terms"]]
        return cls(d["site_dim"], terms, float(d["beta"]))


@dataclass
class GibbsPairPayload:
    """Null/alternative pair of Gibbs interactions on the same site space."""

    kind, scaling_exponent = "gibbs", 1

    null: GibbsPayload
    alt: GibbsPayload

    def __post_init__(self):
        if self.null.site_dim != self.alt.site_dim:
            raise ValueError("gibbs pair must share the site dimension")

    def block_dim(self, n):
        return self.null.site_dim**n

    def states(self, n):
        return StatePair(gibbs_state(self.null, n), gibbs_state(self.alt, n))

    def rate(self, variant):
        return gibbs_rate(self, variant=variant)

    def to_json(self):
        return {"null": self.null.to_json(), "alt": self.alt.to_json()}

    @classmethod
    def from_json(cls, d):
        _check_json_object(d, "gibbs pair payload", ("null", "alt"))
        return cls(GibbsPayload.from_json(d["null"]), GibbsPayload.from_json(d["alt"]))


_PAYLOADS = {c.kind: c for c in (IIDPayload, MarkovPayload, GibbsPairPayload, qf.QuasiFreePayload)}


# -- explicit state construction ------------------------------------------


def _markov_path_distribution(pi, P, n):
    """Probabilities of the ``d^n`` paths in lexicographic order, each a product
    taken left to right from its initial probability."""
    d = pi.size
    probs = pi
    for _ in range(n - 1):
        probs = (probs[:, None] * P[np.arange(probs.size) % d]).ravel()
    return probs


def family_states(family, n):
    """Explicit density-operator pair of block ``n``; the cap is checked before any work."""
    if n < 1:
        raise ValueError("block size must be positive")
    if family.block_dim(n) > DIM_CAP:
        raise ValueError(f"the dimension of block {n} exceeds cap {DIM_CAP}")
    return family.states(n)


def gibbs_local_hamiltonian(payload, n):
    """Open-boundary local Hamiltonian: every term at every position that fits."""
    d = payload.site_dim
    if d**n > DIM_CAP:
        raise ValueError(f"dimension {d}^{n} exceeds cap {DIM_CAP}")
    h = np.zeros((d**n, d**n), dtype=complex)
    for j, term in enumerate(payload.terms, start=1):
        if j > n:
            continue
        for k in range(1, n - j + 2):
            left = np.eye(d ** (k - 1))
            right = np.eye(d ** (n - k - j + 1))
            h += np.kron(np.kron(left, term.entries), right)
    return HermitianOperator(h)


def gibbs_state(payload, n):
    """``exp(-beta H_n) / Tr exp(-beta H_n)`` via eigendecomposition."""
    h = gibbs_local_hamiltonian(payload, n)
    w = -payload.beta * h.eigenvalues
    w -= w.max()
    ew = np.exp(w)
    return HermitianOperator.from_spectral(ew / ew.sum(), h.eigenvectors)


def factorization_certificate(payload, m, k, r_rem, eta):
    """Two-sided PSD factorization check at the split ``n = k*m + r_rem``.

    Returns ``(upper_ok, lower_ok)`` for
    ``eta^k  w_m^(x k) (x) w_r  >=  w_n`` and
    ``w_n  >=  eta^-k  w_m^(x k) (x) w_r``.
    """
    if m < 1 or k < 1 or r_rem < 0:
        raise ValueError("need m >= 1, k >= 1, r_rem >= 0")
    if not eta >= 1.0:
        raise ValueError("factorization constant must be >= 1")
    w_n = gibbs_state(payload, k * m + r_rem)
    w_m = gibbs_state(payload, m)
    factors = [w_m] * k
    if r_rem:
        factors.append(gibbs_state(payload, r_rem))
    prod = tensor_product(*factors)
    w, v, scale = prod.eigenvalues, prod.eigenvectors, eta**k
    upper = psd_dominates(HermitianOperator.from_spectral(scale * w, v), w_n)
    lower = psd_dominates(w_n, HermitianOperator.from_spectral(w / scale, v))
    return upper, lower


def _all_splits(max_total):
    for m in range(1, max_total + 1):
        for k in range(1, max_total // m + 1):
            for r_rem in range(0, max_total - k * m + 1):
                yield m, k, r_rem


def smallest_factorization_eta(payload, max_total=8):
    """Smallest eta certifying every split with ``k*m + r <= max_total``, in closed form.

    With ``prod = w_m^(x k) (x) w_r``, both inequalities of
    :func:`factorization_certificate` hold iff ``eta^k`` is at least
    ``exp(D_max(w_n || prod))`` and ``exp(D_max(prod || w_n))``, so eta is the
    largest ``exp(max(D_max(w_n || prod), D_max(prod || w_n)) / k)``, and at
    least 1.  A split that passes both checks at ``eta = 1`` (within the slack
    of :func:`psd_dominates`) contributes exactly 1, so on-site interactions
    give ``1.0``.  The result certifies the tested sizes only.
    """
    # largest first, so an over-cap block is refused before any other is built
    w = {j: gibbs_state(payload, j) for j in range(max_total, 0, -1)}
    eta = 1.0
    for m, k, r_rem in _all_splits(max_total):
        w_n = w[k * m + r_rem]
        factors = [w[m]] * k + ([w[r_rem]] if r_rem else [])
        prod = tensor_product(*factors)
        if psd_dominates(prod, w_n) and psd_dominates(w_n, prod):
            continue
        d_max = max(max_relative_entropy(w_n, prod), max_relative_entropy(prod, w_n))
        eta = max(eta, math.exp(d_max / k))
    return eta


# -- Markov transfer machinery --------------------------------------------


def _markov_transfer(payload, alpha):
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(payload.P0 > 0, payload.P0**alpha * payload.P1 ** (1.0 - alpha), 0.0)
        u = np.where(payload.pi0 > 0, payload.pi0**alpha * payload.pi1 ** (1.0 - alpha), 0.0)
    if not np.isfinite(m).all() or not np.isfinite(u).all():
        return None, None  # support violation at alpha > 1
    return m, u


def markov_psi_n(payload, alpha, n):
    """``log sum_paths rho_n(x)^alpha sigma_n(x)^(1-alpha)`` by transfer matrices.

    Stable at ``n`` in the thousands: the matrix-vector recursion renormalizes
    every step and accumulates the log of the scale.  Returns ``inf`` when a
    support violation meets ``alpha > 1``.
    """
    if n < 1:
        raise ValueError("block size must be positive")
    if alpha == 1.0:
        return 0.0  # row-stochastic transfer and normalized initial term
    m, u = _markov_transfer(payload, alpha)
    if m is None:
        return math.inf
    v = np.ones(payload.d)
    log_scale = 0.0
    for _ in range(n - 1):
        v = m @ v
        s = v.max()
        if s <= 0:
            return -math.inf
        v /= s
        log_scale += math.log(s)
    total = float(u @ v)
    if total <= 0:
        return -math.inf
    return math.log(total) + log_scale


def markov_psi_limit(payload, alpha):
    """Log of the Perron root of the transfer matrix, by power iteration.

    A unit shift keeps the iteration convergent for periodic-but-irreducible
    support graphs (the Perron root shifts by exactly one).
    """
    if alpha == 1.0:
        return 0.0
    m, _ = _markov_transfer(payload, alpha)
    if m is None:
        return math.inf
    d = payload.d
    reach = np.linalg.matrix_power((m > 0).astype(int) + np.eye(d, dtype=int), d - 1)
    if (reach == 0).any():
        raise ValueError("transfer matrix is reducible; Perron limit undefined")
    shifted = m + np.eye(d)
    v = np.ones(d) / d
    root = 0.0
    for _ in range(PERRON_MAX_ITER):
        w = shifted @ v
        new_root = float(w @ v)  # Rayleigh quotient (v normalized)
        w /= np.linalg.norm(w)
        if abs(new_root - root) <= PERRON_TOL * max(new_root, 1.0):
            v = w
            root = new_root
            break
        v = w
        root = new_root
    return math.log(root - 1.0)


def markov_relent_rate(payload):
    """Relative-entropy rate as the Perron curve's derivative at 1 (chord)."""
    h = RELENT_CHORD_STEP
    return (markov_psi_limit(payload, 1.0 + h) - markov_psi_limit(payload, 1.0)) / h


_MARKOV_GRID = np.concatenate(
    [
        np.linspace(1.0, 1.5, 26),
        np.linspace(1.52, 4.0, 63),
        np.geomspace(4.1, DEFAULT_T_HI, 64),
    ]
)


def markov_rate(payload):
    """Convex rate curve sampled from the Perron-root limit."""
    vals = np.array([markov_psi_limit(payload, a) for a in _MARKOV_GRID])
    if not np.isfinite(vals).all():
        raise ValueError("Perron curve is infinite on the requested grid")
    return ConvexRate.from_samples(
        _MARKOV_GRID, vals, right_derivative_at_1=markov_relent_rate(payload)
    )


# -- asymptotic rate curves per family ------------------------------------


def _plain_slope_at_infinity(rho, sigma):
    """``lim psi(t)/t`` for the plain variant: max log-ratio over overlapping
    eigenpairs."""
    logp, logq, ov = _overlap(rho, sigma)
    mask = ov > OVERLAP_TOL
    if not mask.any():
        return math.inf
    return float((logp[:, None] - logq[None, :])[mask].max())


def iid_rate(rho1, sigma1, variant="sandwiched"):
    """Asymptotic cumulant curve of an i.i.d. pair (additivity makes it exact)."""
    if variant == "sandwiched":
        slope = max_relative_entropy(rho1, sigma1)
    else:
        slope = _plain_slope_at_infinity(rho1, sigma1)
    return ConvexRate.from_callable(
        psi_curve(rho1, sigma1, variant),
        right_derivative_at_1=relative_entropy(rho1, sigma1),
        slope_at_infinity=slope,
    )


_GIBBS_GRID = np.concatenate([np.linspace(1.0, 2.0, 21), np.linspace(2.1, 8.0, 60)])
_GIBBS_SIZES = (4, 5, 6, 7, 8)


def gibbs_rate(pair_payload, variant="sandwiched"):
    """Extrapolated rate curve for a Gibbs pair from its ``_GIBBS_SIZES`` blocks;
    the largest is built first, so an over-cap one is refused before any other."""
    pairs = [pair_payload.states(n) for n in sorted(_GIBBS_SIZES, reverse=True)][::-1]
    mat = np.array([list(map(psi_curve(p.rho, p.sigma, variant), _GIBBS_GRID)) for p in pairs])
    return rate_from_samples(list(_GIBBS_SIZES), _GIBBS_GRID, mat)


def asymptotic_rate(family, variant="sandwiched"):
    """The family's asymptotic rate curve, as its payload class builds it."""
    return family.rate(variant)


# -- JSON form ------------------------------------------------------------


def family_from_json(data):
    """The family (its payload instance) of a ``{"kind", "scaling_exponent",
    "payload"}`` object; a given scaling exponent must be the lattice dimension."""
    _check_json_object(data, "family", ("kind", "scaling_exponent", "payload"))
    kind, scaling = data["kind"], data.get("scaling_exponent")
    if kind not in _PAYLOADS:
        raise ValueError(f"unknown family kind {kind!r}")
    family = _PAYLOADS[kind].from_json(data["payload"])
    if scaling not in (None, family.scaling_exponent):
        raise ValueError(f"scaling exponent {scaling!r} must equal the lattice "
                         f"dimension {family.scaling_exponent} of a {kind} family")
    return family
