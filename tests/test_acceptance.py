"""End-to-end acceptance suite: one test per shipped guarantee.

Each test is self-contained (its own frozen instances and oracles) and
asserts the guarantee at the tolerance the package documents.  Runtime-capped
cases time themselves; seeded generators keep every run identical.
"""

import itertools
import math
import time

import numpy as np
import pytest

from sconv.families import (
    GibbsPairPayload,
    GibbsPayload,
    IIDPayload,
    MarkovPayload,
    PAULI_X,
    PAULI_Z,
    asymptotic_rate,
    factorization_certificate,
    gibbs_state,
    markov_psi_limit,
    markov_psi_n,
    markov_rate,
    markov_relent_rate,
    smallest_factorization_eta,
)
from sconv.hoeffding import ConvexRate, hoeffding_anti, polar_detail
from sconv.hyptest import exponent_sweep, fit_rate, sc_report
from sconv.ldp import (
    binomial_sequence,
    build_rate_curve,
    chernoff_upper,
    exact_tail_rate,
    gartner_ellis_lower_check,
)
from sconv.operators import (
    HermitianOperator,
    distinct_eigenvalue_count,
    pinch,
    rand_density,
    tensor_power,
)
from sconv.quasifree import (
    QuasiFreePayload,
    TrigPolySymbol,
    fock_density,
    quasifree_block_symbol,
    quasifree_psi_singleparticle,
    quasifree_relent_limit,
    singleparticle_psi,
    szego_limit,
)
from sconv.renyi import psi, psi_derivative, relative_entropy, renyi_divergence

VARIANTS = ("plain", "sandwiched")


def quadratic_rate():
    # f(t) = (t-1)^2: polar(a) = a^2/4, slope at infinity unbounded
    return ConvexRate.from_callable(
        lambda t: (t - 1.0) ** 2, right_derivative_at_1=0.0, t_hi=256.0
    )


def linear_rate(slope=0.5):
    return ConvexRate.from_callable(
        lambda t: slope * (t - 1.0),
        right_derivative_at_1=slope,
        slope_at_infinity=slope,
        t_hi=64.0,
    )


def test_01_tensor_power_additivity_qutrits(eigh_shapes):
    # psi of a k-fold tensor power is k times psi of the base pair, both
    # variants, across orders below and above 1; bounded spectral work.
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        rho, sigma = rand_density(3, rng), rand_density(3, rng)
        for variant in VARIANTS:
            base = {a: psi(rho, sigma, a, variant) for a in (0.6, 1.5, 3.0)}
            for k in (2, 3, 4):
                rk, sk = tensor_power(rho, k), tensor_power(sigma, k)
                for a in (0.6, 1.5, 3.0):
                    worst = max(worst, abs(psi(rk, sk, a, variant) - k * base[a]))
    assert worst <= 1e-8
    # spectral work, unlike wall time, is the same on every host: no eigh above
    # the 81 rows of a 4-fold qutrit power, and at most 280 eigh calls
    assert max(rows for rows, _ in eigh_shapes) <= 81
    assert len(eigh_shapes) <= 280


def test_02_closed_form_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(5):
        rho, sigma = rand_density(3, rng), rand_density(3, rng)
        for variant in VARIANTS:
            for t in (0.7, 1.0, 1.8, 4.0):
                d = psi_derivative(rho, sigma, t, variant)
                fd = (psi(rho, sigma, t + h, variant)
                      - psi(rho, sigma, t - h, variant)) / (2.0 * h)
                assert d == pytest.approx(fd, rel=1e-6, abs=1e-8)
            # at t = 1 the derivative is the relative entropy for both variants
            assert psi_derivative(rho, sigma, 1.0, variant) == pytest.approx(
                relative_entropy(rho, sigma), abs=1e-8
            )


def test_03_pinching_sandwich_with_symbolic_degeneracy_count():
    # psi* - alpha log v(sigma_n) <= psi(pinched) <= psi* at every block size,
    # with the qubit power's distinct-eigenvalue count v = n + 1 certified
    # symbolically rather than by floating-point comparison.
    rng = np.random.default_rng(11)
    for _ in range(10):
        rho1, sigma1 = rand_density(2, rng), rand_density(2, rng)
        for n in range(1, 9):
            rho_n, sigma_n = tensor_power(rho1, n), tensor_power(sigma1, n)
            v = distinct_eigenvalue_count(sigma_n)
            assert v == n + 1
            rho_hat = pinch(rho_n, sigma_n)
            for alpha in (1.5, 2.0, 3.0):
                upper = psi(rho_n, sigma_n, alpha, "sandwiched")
                hat = psi(rho_hat, sigma_n, alpha, "plain")
                assert hat <= upper + 1e-9
                assert upper - alpha * math.log(v) <= hat + 1e-9


def test_04_legendre_anti_divergence_closed_forms():
    quad = quadratic_rate()
    # interior case on the quadratic: sup_{t>1} (3(t-1) - (t-1)^2)/t = 1 at a_r = 2
    h = hoeffding_anti(quad, 3.0)
    assert h.regime == "interior"
    assert h.value == pytest.approx(1.0, abs=1e-10)
    assert h.a_r == pytest.approx(2.0, abs=1e-10)
    # linear rate: beyond the boundary the value is exactly r - a_max
    lin = linear_rate(0.5)
    for r in (0.75, 1.0, 2.0):
        hl = hoeffding_anti(lin, r)
        assert hl.regime == "linear_tail"
        assert hl.value == r - 0.5
    # continuity across both regime boundaries
    eps = 1e-9
    assert abs(hoeffding_anti(lin, 0.5 + eps).value
               - hoeffding_anti(lin, 0.5 - eps).value) <= 1e-8
    assert abs(hoeffding_anti(quad, eps).value
               - hoeffding_anti(quad, 0.0).value) <= 1e-8
    # zero value exactly when r does not exceed the right derivative at 1
    assert hoeffding_anti(quad, 0.0).value == 0.0
    assert hoeffding_anti(quad, 0.5).value > 0.0
    assert hoeffding_anti(lin, 0.4).value == 0.0
    assert hoeffding_anti(lin, 0.6).value > 0.0


def test_05_binary_strong_converse_exponent_fit():
    # (1/2,1/2) against (1/4,3/4) at the midpoint threshold between the
    # relative entropy and the max-divergence: fitted positive-part and
    # type-II decay rates land on the polar predictions via exact binomial
    # tails, within 0.01 at block size 4096.
    start = time.perf_counter()
    rho = HermitianOperator(np.diag([0.5, 0.5]))
    sigma = HermitianOperator(np.diag([0.25, 0.75]))
    spec = IIDPayload(rho1=rho, sigma1=sigma)
    rate = asymptotic_rate(spec, variant="plain")
    d1 = relative_entropy(rho, sigma)
    a = 0.5 * (d1 + rate.slope_at_infinity)
    phi = polar_detail(rate, a).value
    ns = [512, 1024, 2048, 4096]
    report = exponent_sweep(spec, a, ns, rate=rate)
    assert report.provenance == "exact-binomial"
    pos_fit = fit_rate(ns, [ep.log_pos_part for ep in report.per_n])
    assert abs(pos_fit.rate - phi) <= 0.01
    assert abs(report.beta_fit.rate - (phi + a)) <= 0.01
    assert time.perf_counter() - start < 30.0


def test_06_pinched_route_rate_convergence():
    # Frozen non-commuting qubit pair: Neyman-Pearson tests on the pinched
    # states approach the polar-predicted exponent pair monotonically; the
    # fitted rates land within 0.1, and the measured success never beats the
    # measurement-monotonicity ceiling beyond fit residual + 0.02.
    theta = 0.45
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    rho1 = HermitianOperator(np.diag([0.85, 0.15]))
    sigma1 = HermitianOperator(rot @ np.diag([0.7, 0.3]) @ rot.T)
    spec = IIDPayload(rho1=rho1, sigma1=sigma1)
    rate = asymptotic_rate(spec, variant="sandwiched")
    a = 0.2162
    phi = polar_detail(rate, a).value
    ns = list(range(4, 13))
    report = exponent_sweep(spec, a, ns, mode="pinched", rate=rate)
    assert report.provenance == "pinched-sectors"

    # success-fit residual in rate units over the fitted window
    window = [ep for ep in report.per_n if ep.n in report.success_fit.n_used]
    xw = np.array([ep.n for ep in window], dtype=float)
    yw = np.array([ep.log_success for ep in window])
    slope, intercept = np.polyfit(xw, yw, 1)
    residual = float(np.max(np.abs(yw - (slope * xw + intercept)) / xw))

    gaps = []
    for ep in report.per_n:
        gap_s = abs(ep.log_success / ep.n + phi)
        gap_b = abs(ep.log_beta / ep.n + phi + a)
        gaps.append(max(gap_s, gap_b))
        # per-n ceiling: success cannot exceed the anti-divergence bound at
        # the type-II rate this very test achieved
        r_n = -ep.log_beta / ep.n
        ceiling = -hoeffding_anti(rate, r_n).value
        assert ep.log_success / ep.n <= ceiling + residual + 0.02
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))  # monotone approach
    fitted_gap = max(abs(report.success_fit.rate - phi),
                     abs(report.beta_fit.rate - (phi + a)))
    assert fitted_gap <= 0.1
    # fitted form of the same ceiling
    h_star = hoeffding_anti(rate, report.beta_fit.rate).value
    assert report.success_fit.rate >= h_star - (residual + 0.02)


def random_symbol(rng, span=0.1):
    coeffs = rng.uniform(-span / 4, span / 4, size=4)
    return TrigPolySymbol(float(rng.uniform(0.45, 0.55)),
                          tuple(coeffs[:2]), tuple(coeffs[2:]))


def test_07_quasifree_single_particle_matches_fock_oracle():
    # The determinant-free single-particle formula agrees with brute-force
    # second quantization (minor-determinant Fock densities) to 1e-8.
    rng = np.random.default_rng(5)
    for _ in range(3):
        payload = QuasiFreePayload(nu=1, q_symbol=random_symbol(rng),
                                   r_symbol=random_symbol(rng), c_bound=0.2)
        for n in (2, 4, 6, 8):
            qn, rn = quasifree_block_symbol(payload, n)
            rho_f, sigma_f = fock_density(qn), fock_density(rn)
            for alpha in (1.5, 2.0, 3.0):
                direct = singleparticle_psi(qn, rn, alpha, variant="sandwiched")
                oracle = psi(rho_f, sigma_f, alpha, "sandwiched")
                assert abs(direct - oracle) <= 1e-8


def test_08_szego_limit_convergence_and_entropy_derivative():
    payload = QuasiFreePayload(
        nu=1,
        q_symbol=TrigPolySymbol(0.5, (0.2,)),
        r_symbol=TrigPolySymbol(0.45, (-0.1,), (0.05,)),
        c_bound=0.2,
    )
    ns = (64, 128, 256, 512)
    for alpha in (1.5, 2.0):
        limit = szego_limit(payload, alpha)
        errs = [abs(quasifree_psi_singleparticle(payload, n, alpha) / n - limit)
                for n in ns]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-3
    # the relative-entropy limit is the order-derivative of the cumulant at 1
    h = 1e-5
    fd = (szego_limit(payload, 1.0 + h) - szego_limit(payload, 1.0 - h)) / (2 * h)
    assert abs(quasifree_relent_limit(payload) - fd) <= 1e-6


def test_09_gibbs_factorization_certificates_and_bracket():
    onsite = GibbsPayload(site_dim=2,
                          terms=[HermitianOperator(np.diag([0.0, 1.0]))],
                          beta=0.5)
    zzx = GibbsPayload(
        site_dim=2,
        terms=[HermitianOperator(0.6 * PAULI_X),
               HermitianOperator(np.kron(PAULI_Z, PAULI_Z))],
        beta=0.5,
    )
    # on-site interactions factorize exactly
    assert smallest_factorization_eta(onsite, max_total=8) == 1.0
    eta = max(smallest_factorization_eta(zzx, max_total=8), 1.0)
    assert eta > 1.0
    # both PSD inequalities hold at the certified constant for every split
    for payload, e in ((onsite, 1.0), (zzx, eta)):
        for m in range(1, 9):
            for k in range(1, 9):
                for r in range(0, m):
                    if not 2 <= k * m + r <= 8:
                        continue
                    assert all(factorization_certificate(payload, m, k, r, e))
    # near-additivity bracket: |psi*_n/n - psibar| <= (2 alpha - 1) log(eta)/n
    GibbsPairPayload(null=zzx, alt=onsite)  # payload validation
    ns = (4, 5, 6, 7, 8)
    for alpha in (1.5, 2.0):
        samples = {
            n: psi(gibbs_state(zzx, n), gibbs_state(onsite, n), alpha, "sandwiched")
            for n in ns
        }
        # limit estimate: one-term Richardson from the two largest sizes
        psibar = 8 * (samples[8] / 8) - 7 * (samples[7] / 7)
        for n in ns:
            assert abs(samples[n] / n - psibar) <= (2 * alpha - 1) * math.log(eta) / n


def test_10_ldp_chernoff_domination_and_tilted_lower_bound():
    seq = binomial_sequence([256, 512, 1024, 2048, 4096])
    x = 0.7
    bound = chernoff_upper(build_rate_curve(seq, np.linspace(0.0, 8.0, 641)), x)
    for n in seq.n_list:
        assert exact_tail_rate(seq, n, x) <= bound + 1e-12
    verdict = gartner_ellis_lower_check(build_rate_curve(seq, np.linspace(-1.0, 4.0, 201)),
                                        x, (x, 1.0), delta_fraction=1.0 / 6.0)
    margins = [m for _, m in verdict.margins]
    assert all(m <= 1e-12 for m in margins)  # approach from below
    assert margins[-1] == max(margins)
    assert abs(verdict.final_margin) < 0.01
    kl = x * math.log(x / 0.5) + (1 - x) * math.log((1 - x) / 0.5)
    assert abs(verdict.curve.legendre(x) - kl) <= 1e-8  # Legendre duality
    assert verdict.tilted_mass >= 0.99


def test_11_markov_transfer_limit_and_regime_boundary():
    payload = MarkovPayload(
        pi0=np.array([0.6, 0.4]), pi1=np.array([0.5, 0.5]),
        P0=np.array([[0.7, 0.3], [0.4, 0.6]]),
        P1=np.array([[0.5, 0.5], [0.55, 0.45]]),
    )
    # short-block transfer values against literal path enumeration
    for alpha in (1.5, 2.5):
        for n in (2, 3):
            total = 0.0
            for path in itertools.product((0, 1), repeat=n):
                p = payload.pi0[path[0]]
                q = payload.pi1[path[0]]
                for a, b in zip(path, path[1:]):
                    p *= payload.P0[a, b]
                    q *= payload.P1[a, b]
                total += p**alpha * q ** (1.0 - alpha)
            assert abs(markov_psi_n(payload, alpha, n) - math.log(total)) <= 1e-14
    # normalized transfer value reaches the Perron-root limit
    for alpha in (1.5, 2.0):
        gap = abs(markov_psi_n(payload, alpha, 2048) / 2048
                  - markov_psi_limit(payload, alpha))
        assert gap <= 1e-3
    # the rate curve passes its convexity gates and exposes the relative
    # entropy rate as its left slope
    rate = markov_rate(payload)
    dbar = markov_relent_rate(payload)
    assert rate.right_derivative_at_1 == pytest.approx(dbar, abs=1e-9)
    # regime boundary of the reports sits at the relative entropy rate,
    # located within one step of the scanning grid
    ns = [32, 64, 128, 256]
    r_grid = np.linspace(dbar - 0.02, dbar + 0.02, 9)
    step = float(r_grid[1] - r_grid[0])
    regimes = [sc_report(payload, float(r), ns, rate=rate).regime for r in r_grid]
    flip = next(i for i, reg in enumerate(regimes) if reg != "zero")
    assert all(reg == "zero" for reg in regimes[:flip])
    assert all(reg != "zero" for reg in regimes[flip:])
    assert r_grid[flip - 1] - step <= dbar <= r_grid[flip] + step


def test_12_data_processing_under_two_outcome_measurements():
    # classical divergence of measurement outcomes never exceeds the quantum
    # divergence: 10 seeded pairs x 100 random effects = 1000 measurements
    rng = np.random.default_rng(42)
    worst = -math.inf
    for _ in range(10):
        rho, sigma = rand_density(3, rng), rand_density(3, rng)
        quantum = {al: renyi_divergence(rho, sigma, al, "sandwiched")
                   for al in (0.5, 1.5, 4.0, 32.0)}
        for _ in range(100):
            u = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = u @ u.conj().T
            effect = h / (np.linalg.eigvalsh(h)[-1] + rng.uniform(0.1, 2.0))
            p = float(np.real(np.trace(rho.entries @ effect)))
            q = float(np.real(np.trace(sigma.entries @ effect)))
            pd = HermitianOperator(np.diag([p, 1.0 - p]))
            qd = HermitianOperator(np.diag([q, 1.0 - q]))
            for al in (0.5, 1.5, 4.0, 32.0):
                classical = renyi_divergence(pd, qd, al, "sandwiched")
                worst = max(worst, classical - quantum[al])
    assert worst <= 1e-9
