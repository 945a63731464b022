"""Constructors for correlated state sequences.

Four kinds of families are supported, each described declaratively by a
:class:`StateFamilySpec` holding a kind tag, a payload, and the per-``n``
scaling exponent (1 for chains, the lattice dimension for quasi-free
families):

* ``iid`` — tensor powers of a single-site pair;
* ``markov`` — classical chains, materialized as diagonal path-probability
  operators at small ``n`` and handled by transfer matrices everywhere else;
* ``gibbs`` — local Gibbs states of translation-invariant finite-range
  interactions with open boundaries, as a null/alternative pair of
  interactions, plus two-sided factorization certificates;
* ``quasifree`` — fermionic quasi-free states (see :mod:`sconv.quasifree`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import quasifree as qf
from .hoeffding import DEFAULT_T_HI, ConvexRate, rate_from_samples
from .operators import (
    DEFAULT_DIM_CAP,
    HermitianOperator,
    StatePair,
    operator_from_json,
    operator_to_json,
    psd_dominates,
    tensor_power,
    tensor_product,
)
from .renyi import _overlap, max_relative_entropy, psi, relative_entropy

PERRON_TOL = 1e-12  # relative Rayleigh-quotient change that ends the power iteration
PERRON_MAX_ITER = 200_000  # bounds the work on a slowly mixing chain; keeps the last root
RELENT_CHORD_STEP = 1e-6  # chord step at 1: O(h) truncation against O(eps/h) rounding

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IIDPayload",
    "MarkovPayload",
    "GibbsPayload",
    "GibbsPairPayload",
    "StateFamilySpec",
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
    "family_to_json",
    "family_from_json",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _as_operator(x):
    return x if isinstance(x, HermitianOperator) else HermitianOperator(np.asarray(x))


@dataclass
class IIDPayload:
    """Single-site null/alternative pair; block ``n`` takes tensor powers."""

    rho1: HermitianOperator
    sigma1: HermitianOperator

    def __post_init__(self):
        self.rho1 = _as_operator(self.rho1)
        self.sigma1 = _as_operator(self.sigma1)
        StatePair(self.rho1, self.sigma1)  # validates states + support


@dataclass
class MarkovPayload:
    """Two classical chains on a common alphabet.

    ``P0``/``P1`` are row-stochastic (1e-12); the support condition demands
    ``P0[i,j] > 0`` implies ``P1[i,j] > 0`` (likewise for the initial
    distributions) so that order-``alpha > 1`` quantities stay finite.
    """

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
            if (arr < 0).any() or abs(arr.sum() - 1.0) > 1e-12:
                raise ValueError(f"{name} is not a distribution")
        for name, arr in (("P0", self.P0), ("P1", self.P1)):
            if (arr < 0).any() or np.abs(arr.sum(axis=1) - 1.0).max() > 1e-12:
                raise ValueError(f"{name} is not row-stochastic")
        if ((self.P0 > 0) & (self.P1 == 0)).any() or ((self.pi0 > 0) & (self.pi1 == 0)).any():
            raise ValueError("support condition violated: P0 charges a P1-null transition")

    @property
    def d(self):
        return self.pi0.size

    @property
    def strictly_positive(self):
        """Whether both transition matrices are entrywise positive."""
        return bool((self.P0 > 0).all() and (self.P1 > 0).all())


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
        if self.beta <= 0:
            raise ValueError("inverse temperature must be positive")
        if not self.terms:
            raise ValueError("need at least one interaction term")
        self.terms = [_as_operator(t) for t in self.terms]
        for j, term in enumerate(self.terms, start=1):
            if term.dim != self.site_dim**j:
                raise ValueError(
                    f"term {j} has dim {term.dim}, expected {self.site_dim**j}"
                )

    @property
    def interaction_range(self):
        return len(self.terms)


@dataclass
class GibbsPairPayload:
    """Null/alternative pair of Gibbs interactions on the same site space."""

    null: GibbsPayload
    alt: GibbsPayload

    def __post_init__(self):
        if self.null.site_dim != self.alt.site_dim:
            raise ValueError("gibbs pair must share the site dimension")


@dataclass
class StateFamilySpec:
    """Declarative description of a correlated sequence of state pairs."""

    kind: str
    payload: object
    scaling_exponent: int = 1

    def __post_init__(self):
        kinds = ("iid", "markov", "gibbs", "quasifree")
        if self.kind not in kinds:
            raise ValueError(f"unknown family kind {self.kind!r}; expected {kinds}")
        expected = {
            "iid": IIDPayload,
            "markov": MarkovPayload,
            "gibbs": GibbsPairPayload,
            "quasifree": qf.QuasiFreePayload,
        }[self.kind]
        if not isinstance(self.payload, expected):
            raise ValueError(f"{self.kind} family needs a {expected.__name__} payload")
        if self.scaling_exponent < 1:
            raise ValueError("scaling exponent must be a positive integer")
        if self.kind == "quasifree" and self.scaling_exponent != self.payload.nu:
            raise ValueError("quasifree scaling exponent must equal the lattice dimension")


# -- explicit state construction ------------------------------------------


def _markov_path_distribution(pi, P, n):
    d = pi.size
    probs = np.empty(d**n)
    for idx, path in enumerate(itertools.product(range(d), repeat=n)):
        p = pi[path[0]]
        for a, b in zip(path, path[1:]):
            p *= P[a, b]
        probs[idx] = p
    return probs


def family_states(spec, n, dim_cap=DEFAULT_DIM_CAP):
    """Materialize the explicit density-operator pair at block size ``n``.

    Quasi-free families go through the Fock-space construction here, which is
    only affordable under the cap; large-``n`` quasi-free work should use the
    single-particle operations instead.
    """
    if n < 1:
        raise ValueError("block size must be positive")
    if spec.kind == "iid":
        p = spec.payload
        if p.rho1.dim**n > dim_cap:
            raise ValueError(f"dimension {p.rho1.dim}^{n} exceeds cap {dim_cap}")
        return StatePair(
            tensor_power(p.rho1, n, dim_cap=dim_cap),
            tensor_power(p.sigma1, n, dim_cap=dim_cap),
        )
    if spec.kind == "markov":
        p = spec.payload
        if p.d**n > dim_cap:
            raise ValueError(f"dimension {p.d}^{n} exceeds cap {dim_cap}")
        rho = np.diag(_markov_path_distribution(p.pi0, p.P0, n))
        sig = np.diag(_markov_path_distribution(p.pi1, p.P1, n))
        return StatePair(HermitianOperator(rho), HermitianOperator(sig))
    if spec.kind == "gibbs":
        p = spec.payload
        return StatePair(
            gibbs_state(p.null, n, dim_cap=dim_cap),
            gibbs_state(p.alt, n, dim_cap=dim_cap),
        )
    # quasifree: Fock oracle path
    p = spec.payload
    qn, rn = qf.quasifree_block_symbol(p, n)
    if 2 ** qn.dim > dim_cap:
        raise ValueError(
            f"Fock dimension 2^{qn.dim} exceeds cap {dim_cap}; "
            "use the single-particle operations for large n"
        )
    return StatePair(qf.fock_density(qn), qf.fock_density(rn))


def gibbs_local_hamiltonian(payload, n, dim_cap=DEFAULT_DIM_CAP):
    """Open-boundary local Hamiltonian: every term at every position that fits."""
    d = payload.site_dim
    if d**n > dim_cap:
        raise ValueError(f"dimension {d}^{n} exceeds cap {dim_cap}")
    h = np.zeros((d**n, d**n), dtype=complex)
    for j, term in enumerate(payload.terms, start=1):
        if j > n:
            continue
        for k in range(1, n - j + 2):
            left = np.eye(d ** (k - 1))
            right = np.eye(d ** (n - k - j + 1))
            h += np.kron(np.kron(left, term.entries), right)
    return HermitianOperator(h)


def gibbs_state(payload, n, dim_cap=DEFAULT_DIM_CAP):
    """``exp(-beta H_n) / Tr exp(-beta H_n)`` via eigendecomposition."""
    h = gibbs_local_hamiltonian(payload, n, dim_cap=dim_cap)
    w = -payload.beta * h.eigenvalues
    w -= w.max()
    ew = np.exp(w)
    return HermitianOperator.from_spectral(ew / ew.sum(), h.eigenvectors)


def factorization_certificate(payload, m, k, r_rem, eta, dim_cap=DEFAULT_DIM_CAP):
    """Two-sided PSD factorization check at the split ``n = k*m + r_rem``.

    Returns ``(upper_ok, lower_ok)`` for
    ``eta^k  w_m^(x k) (x) w_r  >=  w_n`` and
    ``w_n  >=  eta^-k  w_m^(x k) (x) w_r``.
    """
    if m < 1 or k < 1 or r_rem < 0:
        raise ValueError("need m >= 1, k >= 1, r_rem >= 0")
    if eta < 1.0:
        raise ValueError("factorization constant must be >= 1")
    n = k * m + r_rem
    d = payload.site_dim
    if d**n > dim_cap:
        raise ValueError(f"dimension {d}^{n} exceeds cap {dim_cap}")
    w_n = gibbs_state(payload, n, dim_cap=dim_cap)
    w_m = gibbs_state(payload, m, dim_cap=dim_cap)
    factors = [w_m] * k
    if r_rem:
        factors.append(gibbs_state(payload, r_rem, dim_cap=dim_cap))
    prod = tensor_product(*factors, dim_cap=dim_cap)
    w, v, scale = prod.eigenvalues, prod.eigenvectors, eta**k
    upper = psd_dominates(HermitianOperator.from_spectral(scale * w, v), w_n)
    lower = psd_dominates(w_n, HermitianOperator.from_spectral(w / scale, v))
    return upper, lower


def _all_splits(max_total):
    for m in range(1, max_total + 1):
        for k in range(1, max_total // m + 1):
            for r_rem in range(0, max_total - k * m + 1):
                yield m, k, r_rem


def smallest_factorization_eta(payload, max_total=8, dim_cap=DEFAULT_DIM_CAP):
    """Smallest eta certifying every split with ``k*m + r <= max_total``, in closed form.

    With ``prod = w_m^(x k) (x) w_r``, both inequalities of
    :func:`factorization_certificate` hold iff ``eta^k`` is at least
    ``exp(D_max(w_n || prod))`` and ``exp(D_max(prod || w_n))``, so eta is the
    largest ``exp(max(D_max(w_n || prod), D_max(prod || w_n)) / k)``, and at
    least 1.  A split that passes both checks at ``eta = 1`` (within the slack
    of :func:`psd_dominates`) contributes exactly 1, so on-site interactions
    give ``1.0``.  The result certifies the tested sizes only.
    """
    w = {j: gibbs_state(payload, j, dim_cap=dim_cap) for j in range(1, max_total + 1)}
    eta = 1.0
    for m, k, r_rem in _all_splits(max_total):
        w_n = w[k * m + r_rem]
        factors = [w[m]] * k + ([w[r_rem]] if r_rem else [])
        prod = tensor_product(*factors, dim_cap=dim_cap)
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
    overlap = _overlap(rho, sigma)
    if overlap is None:
        return math.inf
    logp, logq, ov = overlap
    mask = ov > 1e-12
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
        lambda t: psi(rho1, sigma1, t, variant),
        right_derivative_at_1=relative_entropy(rho1, sigma1),
        slope_at_infinity=slope,
    )


_GIBBS_GRID = np.concatenate([np.linspace(1.0, 2.0, 21), np.linspace(2.1, 8.0, 60)])


def gibbs_rate(pair_payload, n_list=(4, 5, 6, 7, 8), variant="sandwiched",
               dim_cap=DEFAULT_DIM_CAP):
    """Extrapolated rate curve for a Gibbs pair from finite-volume samples."""
    pairs = [
        (gibbs_state(pair_payload.null, n, dim_cap), gibbs_state(pair_payload.alt, n, dim_cap))
        for n in n_list
    ]
    mat = np.array(
        [[psi(rho, sig, a, variant) for a in _GIBBS_GRID] for rho, sig in pairs]
    )
    return rate_from_samples(list(n_list), _GIBBS_GRID, mat, scaling=1.0)


def asymptotic_rate(spec, variant="sandwiched", dim_cap=DEFAULT_DIM_CAP):
    """Dispatch to the family-appropriate rate-curve construction."""
    if spec.kind == "iid":
        return iid_rate(spec.payload.rho1, spec.payload.sigma1, variant=variant)
    if spec.kind == "markov":
        return markov_rate(spec.payload)
    if spec.kind == "gibbs":
        return gibbs_rate(spec.payload, variant=variant, dim_cap=dim_cap)
    return qf.quasifree_rate(spec.payload)


# -- JSON round trip -------------------------------------------------------


def family_to_json(spec):
    if spec.kind == "iid":
        payload = {
            "rho": operator_to_json(spec.payload.rho1),
            "sigma": operator_to_json(spec.payload.sigma1),
        }
    elif spec.kind == "markov":
        payload = {
            "pi0": spec.payload.pi0.tolist(),
            "pi1": spec.payload.pi1.tolist(),
            "P0": spec.payload.P0.tolist(),
            "P1": spec.payload.P1.tolist(),
        }
    elif spec.kind == "gibbs":
        payload = {
            "null": _gibbs_payload_to_json(spec.payload.null),
            "alt": _gibbs_payload_to_json(spec.payload.alt),
        }
    else:
        payload = qf.payload_to_json(spec.payload)
    return {"kind": spec.kind, "scaling_exponent": spec.scaling_exponent, "payload": payload}


def _gibbs_payload_to_json(p):
    return {
        "site_dim": p.site_dim,
        "beta": p.beta,
        "terms": [operator_to_json(t) for t in p.terms],
    }


def _gibbs_payload_from_json(d):
    return GibbsPayload(
        site_dim=int(d["site_dim"]),
        terms=[operator_from_json(t) for t in d["terms"]],
        beta=float(d["beta"]),
    )


def family_from_json(data):
    kind = data["kind"]
    payload = data["payload"]
    if kind == "iid":
        p = IIDPayload(
            operator_from_json(payload["rho"]), operator_from_json(payload["sigma"])
        )
    elif kind == "markov":
        p = MarkovPayload(payload["pi0"], payload["pi1"], payload["P0"], payload["P1"])
    elif kind == "gibbs":
        p = GibbsPairPayload(
            _gibbs_payload_from_json(payload["null"]),
            _gibbs_payload_from_json(payload["alt"]),
        )
    elif kind == "quasifree":
        p = qf.payload_from_json(payload)
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    return StateFamilySpec(kind=kind, payload=p,
                           scaling_exponent=int(data.get("scaling_exponent", 1)))
