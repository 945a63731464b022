"""Reference constructions that only the tests use; the package never needs them.

The classical formulas are closed-form oracles for the quantum routines on
commuting pairs; the random generators draw test inputs; the table reader
parses what ``sconv.cli`` writes; ``family_to_json`` writes the family object
that ``sconv.families.family_from_json`` reads.
"""

import csv
import itertools
import math

import numpy as np

from sconv.cli import CONVERGENCE_COLUMNS
from sconv.operators import HermitianOperator, Test, logsumexp
from sconv.renyi import psi, renyi_divergence


def fock_basis(m):
    """Occupation basis in sector order: (k, subset) for k = 0..m, subsets lex."""
    out = []
    for k in range(m + 1):
        out.extend((k, s) for s in itertools.combinations(range(m), k))
    return out


def classical_pair(p, q):
    """Diagonal (commuting) pair from two probability vectors."""
    return (
        HermitianOperator(np.diag(np.asarray(p, dtype=float))),
        HermitianOperator(np.diag(np.asarray(q, dtype=float))),
    )


# -- classical (commuting / probability-vector) forms ----------------------


def classical_psi(p, q, t):
    """``log sum_i p_i^t q_i^(1-t)`` over the common support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    on = (p > 0) & (q > 0)
    return logsumexp(t * np.log(p[on]) + (1.0 - t) * np.log(q[on]))


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


# -- scaling residuals -----------------------------------------------------


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


# -- random instances (seeded) ---------------------------------------------


def rand_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(0.5 * (g + g.conj().T))


def rand_test(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    w = rng.uniform(0.0, 1.0, size=dim)
    return Test(HermitianOperator.from_spectral(w, q))


# -- reading back what the CLI writes --------------------------------------


def _parse_cell(s):
    return None if s == "" else float(s)


# the footer's keys for the columns that carry fit results there
FOOTER_KEYS = {
    "alpha_err": "success_r_squared",
    "beta_err": "fitted_beta_rate",
    "success": "fitted_success_rate",
    "log_success_over_n": "beta_r_squared",
}


def parse_convergence_table(path):
    """Read back an emitted table into plain dicts (per-n rows + footer)."""
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if not rows or tuple(rows[0]) != CONVERGENCE_COLUMNS:
        raise ValueError(f"{path} is not a convergence table")
    per_n, footer = [], None
    for row in rows[1:]:
        rec = {col: cell if col in ("n", "provenance") else _parse_cell(cell)
               for col, cell in zip(CONVERGENCE_COLUMNS, row)}
        if rec["n"] == "fit":
            footer = {FOOTER_KEYS.get(col, col): v for col, v in rec.items() if col != "n"}
        else:
            per_n.append({**rec, "n": int(rec["n"])})
    return {"per_n": per_n, "footer": footer}


# -- writing the family object ---------------------------------------------


def family_to_json(family):
    """The ``{"kind", "scaling_exponent", "payload"}`` object of a family."""
    return {"kind": family.kind, "scaling_exponent": family.scaling_exponent,
            "payload": family.to_json()}
