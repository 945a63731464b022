"""Cross-module invariant suite behind the ``verify`` subcommand.

Each check is a named callable returning quietly or raising; the runner
aggregates pass/fail counts with one-line details.  Randomized checks draw
from a seeded generator (``SCONV_SEED``, default 42) so failures reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import families as fam
from . import hyptest as ht
from . import ldp
from . import quasifree as qf
from . import renyi
from .hoeffding import ConvexRate, hoeffding_anti, polar
from .operators import (
    StatePair,
    pinch,
    positive_part_trace,
    power_on_support,
    rand_density,
    tensor_power,
)

__all__ = ["CheckResult", "run_all_checks"]


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check_operator_core(rng):
    a = rand_density(4, rng, rank=3)
    recon = (a.eigenvectors * a.eigenvalues) @ a.eigenvectors.conj().T
    err = np.abs(recon - a.entries).max()
    if err > 1e-12:
        raise AssertionError(f"eigendecomposition reconstruction off by {err:.2e}")
    proj = power_on_support(a, 0.0)
    again = proj.entries @ proj.entries
    err = np.abs(again - proj.entries).max()
    if err > 1e-12:
        raise AssertionError(f"support projection not idempotent: {err:.2e}")
    return "reconstruction and support projection within 1e-12"


def _check_renyi_additivity(rng):
    r1, s1 = rand_density(2, rng), rand_density(2, rng)
    worst = 0.0
    for variant in renyi.VARIANTS:
        base = renyi.psi(r1, s1, 1.7, variant=variant)
        got = renyi.psi(tensor_power(r1, 3), tensor_power(s1, 3), 1.7, variant=variant)
        worst = max(worst, abs(got - 3 * base))
    if worst > 1e-9:
        raise AssertionError(f"tensor-power additivity violated by {worst:.2e}")
    return f"additivity residual {worst:.2e}"


def _check_renyi_derivative(rng):
    r1, s1 = rand_density(3, rng), rand_density(3, rng)
    h = 1e-5
    worst = 0.0
    for variant in renyi.VARIANTS:
        for t in (0.8, 1.6):
            fd = (renyi.psi(r1, s1, t + h, variant=variant)
                  - renyi.psi(r1, s1, t - h, variant=variant)) / (2 * h)
            cf = renyi.psi_derivative(r1, s1, t, variant=variant)
            worst = max(worst, abs(fd - cf) / max(abs(cf), 1.0))
        d1 = renyi.psi_derivative(r1, s1, 1.0, variant=variant)
        worst = max(worst, abs(d1 - renyi.relative_entropy(r1, s1)))
    if worst > 1e-6:
        raise AssertionError(f"derivative formulas off by {worst:.2e}")
    return f"derivative residual {worst:.2e}"


def _check_variant_order(rng):
    r1, s1 = rand_density(3, rng), rand_density(3, rng)
    for alpha in (1.5, 4.0):
        plain = renyi.renyi_divergence(r1, s1, alpha, variant="plain")
        sand = renyi.renyi_divergence(r1, s1, alpha, variant="sandwiched")
        if sand > plain + 1e-9:
            raise AssertionError(f"variant ordering violated at alpha={alpha}")
    return "sandwiched <= plain for alpha > 1 on sampled pairs"


def _check_hoeffding_quadratic(rng):
    f = ConvexRate.from_callable(
        lambda t: (t - 1.0) ** 2, right_derivative_at_1=0.0,
        slope_at_infinity=math.inf,
    )
    h = hoeffding_anti(f, 3.0)
    if abs(h.value - 1.0) > 1e-9 or abs(h.a_r - 2.0) > 1e-9:
        raise AssertionError(f"quadratic closed form missed: {h}")
    if polar(f, -0.5) != 0.0:
        raise AssertionError("polar must vanish left of the derivative at 1")
    return "quadratic closed form and zero regime exact"


def _check_markov_transfer(rng):
    p = fam.MarkovPayload(
        pi0=np.array([0.6, 0.4]), pi1=np.array([0.3, 0.7]),
        P0=np.array([[0.7, 0.3], [0.4, 0.6]]),
        P1=np.array([[0.5, 0.5], [0.2, 0.8]]),
    )
    alpha = 1.4
    acc = 0.0
    for x0 in range(2):
        for x1 in range(2):
            lp = p.pi0[x0] * p.P0[x0, x1]
            lq = p.pi1[x0] * p.P1[x0, x1]
            acc += lp**alpha * lq ** (1 - alpha)
    err = abs(fam.markov_psi_n(p, alpha, 2) - math.log(acc))
    if err > 1e-14:
        raise AssertionError(f"transfer matrix vs enumeration off by {err:.2e}")
    if fam.markov_psi_n(p, 1.0, 17) != 0.0:
        raise AssertionError("normalized chains must give psi_n(1) = 0")
    return f"n=2 enumeration residual {err:.2e}"


def _check_gibbs_onsite(rng):
    payload = fam.GibbsPayload(
        site_dim=2, terms=[np.diag([0.4, -0.4])], beta=0.6
    )
    eta = fam.smallest_factorization_eta(payload, max_total=6)
    if eta != 1.0:
        raise AssertionError(f"on-site interaction should certify eta=1, got {eta}")
    return "on-site interaction certifies eta = 1"


def _check_quasifree_identity(rng):
    pay = qf.QuasiFreePayload(
        nu=1,
        q_symbol=qf.TrigPolySymbol(0.45, (0.1,)),
        r_symbol=qf.TrigPolySymbol(0.55, (-0.06,)),
        c_bound=0.25,
    )
    n = 3
    qn, rn = qf.quasifree_block_symbol(pay, n)
    worst = 0.0
    for variant in renyi.VARIANTS:
        sp = qf.singleparticle_psi(qn, rn, 2.0, variant=variant)
        fk = renyi.psi(qf.fock_density(qn), qf.fock_density(rn), 2.0, variant=variant)
        worst = max(worst, abs(sp - fk))
    if worst > 1e-9:
        raise AssertionError(f"single-particle vs Fock mismatch {worst:.2e}")
    return f"Fock-space agreement {worst:.2e}"


def _check_np_sandwich(rng):
    r1, s1 = rand_density(2, rng), rand_density(2, rng)
    pair = StatePair(tensor_power(r1, 4), tensor_power(s1, 4))
    for a in (-0.2, 0.1, 0.4):
        c = 4.0 * a
        t = ht.np_test(pair, c)
        ep = ht.error_pair(pair, t, n=4)
        lower = positive_part_trace(
            pair.rho.entries - math.exp(c) * pair.sigma.entries
        )
        if ep.success < lower - 1e-12:
            raise AssertionError(
                f"threshold-test success {ep.success} below positive part {lower}"
            )
    return "success dominates the positive-part trace at sampled thresholds"


def _check_beta_monotone(rng):
    p = np.array([0.5, 0.5])
    q = np.array([0.25, 0.75])
    last = math.inf
    for ep in ht.iid_type_class_error_pair(p, q, 64, 64 * np.linspace(0.0, 0.6, 7)):
        if ep.beta_err > last + 1e-15:
            raise AssertionError("beta error must be nonincreasing in the threshold")
        last = ep.beta_err
    return "type-II error nonincreasing in the threshold"


def _check_pinched_commutes(rng):
    r1, s1 = rand_density(2, rng), rand_density(2, rng)
    pair = StatePair(tensor_power(r1, 4), tensor_power(s1, 4))
    t = ht.pinched_np_test(pair, 0.5)
    comm = t.op.entries @ pair.sigma.entries - pair.sigma.entries @ t.op.entries
    err = np.abs(comm).max()
    if err > 1e-10:
        raise AssertionError(f"pinched test does not commute with sigma: {err:.2e}")
    rho_hat = pinch(pair.rho, pair.sigma)
    tr_direct = float(np.trace(pair.rho.entries @ t.op.entries).real)
    tr_pinched = float(np.trace(rho_hat.entries @ t.op.entries).real)
    if abs(tr_direct - tr_pinched) > 1e-12:
        raise AssertionError("pinched success trace identity violated")
    return f"commutation residual {err:.2e}"


def _check_ldp_chernoff(rng):
    ns = (64, 128, 256)
    seq = ldp.binomial_sequence(ns, 0.5)
    bound = ldp.chernoff_upper(ldp.build_rate_curve(seq, np.linspace(0, 8, 801)), 0.7)
    for n in ns:
        exact = ldp.exact_tail_rate(seq, n, 0.7)
        if exact > bound + 1e-12:
            raise AssertionError(f"exact tail rate beats its upper bound at n={n}")
    lb, _ = ldp.lambda_bar(seq, 1.3)
    expected = math.log1p(math.exp(1.3)) - math.log(2.0)
    if abs(lb - expected) > 1e-10:
        raise AssertionError("binomial log-MGF limit mismatch")
    return "upper bound dominates exact binomial tails"


def _check_ldp_duality(rng):
    seq = ldp.binomial_sequence((256, 512, 1024), 0.5)
    curve = ldp.build_rate_curve(seq, np.linspace(-1.0, 2.0, 61))
    worst = 0.0
    for t in (0.3, 0.9, 1.5):
        x = float(curve.spline.derivative()(t))
        res = abs(curve.legendre(x) + float(curve.spline(t)) - t * x)
        worst = max(worst, res)
    if worst > 1e-8:
        raise AssertionError(f"Legendre duality residual {worst:.2e}")
    return f"duality residual {worst:.2e}"


ALL_CHECKS = (
    ("operator-core/spectral", _check_operator_core),
    ("renyi/additivity", _check_renyi_additivity),
    ("renyi/derivatives", _check_renyi_derivative),
    ("renyi/variant-order", _check_variant_order),
    ("hoeffding/closed-forms", _check_hoeffding_quadratic),
    ("families/markov-transfer", _check_markov_transfer),
    ("families/gibbs-onsite", _check_gibbs_onsite),
    ("families/quasifree-fock", _check_quasifree_identity),
    ("testing/np-sandwich", _check_np_sandwich),
    ("testing/beta-monotone", _check_beta_monotone),
    ("testing/pinched-commutation", _check_pinched_commutes),
    ("ldp/chernoff-domination", _check_ldp_chernoff),
    ("ldp/legendre-duality", _check_ldp_duality),
)


def run_all_checks(seed=42):
    """Run every module's invariant checks; returns a list of CheckResult."""
    results = []
    for name, fn in ALL_CHECKS:
        rng = np.random.default_rng(seed)
        try:
            detail = fn(rng)
            results.append(CheckResult(name=name, ok=True, detail=detail))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            results.append(CheckResult(name=name, ok=False, detail=str(exc)))
    return results
