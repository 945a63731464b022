"""Unit tests for the correlated state-family constructors."""

import itertools
import math
import re

import numpy as np
import pytest

from sconv import quasifree as qf
from sconv.families import (
    PAULI_X,
    PAULI_Z,
    GibbsPairPayload,
    GibbsPayload,
    IIDPayload,
    MarkovPayload,
    _markov_path_distribution,
    asymptotic_rate,
    factorization_certificate,
    family_from_json,
    family_states,
    gibbs_local_hamiltonian,
    gibbs_rate,
    gibbs_state,
    iid_rate,
    markov_psi_limit,
    markov_psi_n,
    markov_rate,
    markov_relent_rate,
    smallest_factorization_eta,
)
from sconv.operators import HermitianOperator, rand_density, tensor_power
from sconv.quasifree import QuasiFreePayload, TrigPolySymbol
from sconv.renyi import psi, relative_entropy

from helpers import classical_psi, family_to_json


def two_state_markov():
    return MarkovPayload(
        pi0=[0.6, 0.4],
        pi1=[0.5, 0.5],
        P0=[[0.7, 0.3], [0.2, 0.8]],
        P1=[[0.5, 0.5], [0.4, 0.6]],
    )


def onsite_gibbs(beta=0.7):
    h1 = HermitianOperator(np.diag([0.0, 1.0]))
    return GibbsPayload(site_dim=2, terms=[h1], beta=beta)


def zzx_gibbs(beta=0.5):
    return GibbsPayload(
        site_dim=2,
        terms=[HermitianOperator(0.6 * PAULI_X), HermitianOperator(np.kron(PAULI_Z, PAULI_Z))],
        beta=beta,
    )


def loop_path_distribution(pi, P, n):
    """Reference: each path's probability multiplied left to right in a loop."""
    d = pi.size
    probs = np.empty(d**n)
    for idx, path in enumerate(itertools.product(range(d), repeat=n)):
        p = pi[path[0]]
        for a, b in zip(path, path[1:]):
            p *= P[a, b]
        probs[idx] = p
    return probs


class TestPayloadValidation:
    def test_iid_support_violation(self):
        rho = HermitianOperator(np.diag([0.5, 0.5, 0.0]))
        sigma = HermitianOperator(np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="support"):
            IIDPayload(rho, sigma)

    def test_markov_rejects_non_stochastic(self):
        with pytest.raises(ValueError, match="row-stochastic"):
            MarkovPayload([0.5, 0.5], [0.5, 0.5], [[0.9, 0.2], [0.2, 0.8]],
                          [[0.5, 0.5], [0.5, 0.5]])

    def test_markov_rejects_support_violation(self):
        with pytest.raises(ValueError, match="support"):
            MarkovPayload([0.5, 0.5], [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                          [[1.0, 0.0], [0.5, 0.5]])

    def test_gibbs_term_dimension_check(self):
        with pytest.raises(ValueError, match="dim"):
            GibbsPayload(site_dim=2, terms=[HermitianOperator(np.eye(3))], beta=1.0)

    def test_gibbs_pair_site_mismatch(self):
        a = onsite_gibbs()
        b = GibbsPayload(site_dim=3, terms=[HermitianOperator(np.eye(3))], beta=1.0)
        with pytest.raises(ValueError, match="site dimension"):
            GibbsPairPayload(a, b)

    def test_quasifree_scaling_must_match_nu(self):
        payload = QuasiFreePayload(1, TrigPolySymbol(0.4), TrigPolySymbol(0.5), 0.2)
        with pytest.raises(ValueError, match="lattice dimension"):
            family_from_json({**family_to_json(payload), "scaling_exponent": 2})

    def test_scaling_exponent_is_the_lattice_dimension(self, rng):
        iid = IIDPayload(rand_density(2, rng), rand_density(2, rng))
        assert iid.scaling_exponent == 1
        back = family_from_json({**family_to_json(iid), "scaling_exponent": 1})
        assert back.scaling_exponent == 1
        two_d = QuasiFreePayload(2, lambda x, y: 0.45 + 0.1 * np.cos(x),
                                 lambda x, y: 0.5 + 0.05 * np.sin(y), 0.2)
        assert two_d.scaling_exponent == 2
        for payload in (iid, two_state_markov(), GibbsPairPayload(onsite_gibbs(), zzx_gibbs())):
            with pytest.raises(ValueError, match="lattice dimension"):
                family_from_json({**family_to_json(payload), "scaling_exponent": 2})


class TestFamilyStates:
    def test_iid_states_are_tensor_powers(self, rng):
        rho1, sigma1 = rand_density(2, rng), rand_density(2, rng)
        spec = IIDPayload(rho1, sigma1)
        pair = family_states(spec, 3)
        assert np.allclose(
            pair.rho.entries, tensor_power(rho1, 3).entries, atol=1e-12
        )

    def test_iid_dim_cap(self, rng):
        spec = IIDPayload(rand_density(2, rng), rand_density(2, rng))
        with pytest.raises(ValueError, match="cap"):
            family_states(spec, 20)

    def test_markov_states_are_path_distributions(self):
        mp = two_state_markov()
        pair = family_states(mp, 2)
        # diagonal with entries pi(a) P(a, b) in lexicographic path order
        expect = np.array(
            [mp.pi0[a] * mp.P0[a, b] for a in range(2) for b in range(2)]
        )
        assert np.allclose(np.diag(pair.rho.entries).real, expect, atol=1e-15)
        assert pair.rho.trace == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d, n_max", [(2, 7), (3, 7), (4, 5)])
    def test_markov_paths_bit_equal_to_loop(self, rng, d, n_max):
        for _ in range(3):
            pi, P = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d), size=d)
            for n in range(1, n_max + 1):
                assert np.array_equal(_markov_path_distribution(pi, P, n),
                                      loop_path_distribution(pi, P, n))

    def test_quasifree_cap_refused_before_block_symbol(self, monkeypatch):
        payload = QuasiFreePayload(1, TrigPolySymbol(0.45, (0.1,)), TrigPolySymbol(0.5), 0.2)
        calls = []
        monkeypatch.setattr(qf, "quasifree_block_symbol", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="block 13 exceeds cap 4096"):
            family_states(payload, 13)
        assert calls == []

    def test_gibbs_pair_states(self):
        spec = GibbsPairPayload(onsite_gibbs(0.5), onsite_gibbs(1.1))
        pair = family_states(spec, 3)
        assert pair.rho.dim == 8
        assert pair.rho.trace == pytest.approx(1.0, abs=1e-10)


class TestGibbs:
    def test_local_hamiltonian_onsite_sum(self):
        p = onsite_gibbs()
        h2 = gibbs_local_hamiltonian(p, 2)
        h1 = p.terms[0].entries
        expect = np.kron(h1, np.eye(2)) + np.kron(np.eye(2), h1)
        assert np.allclose(h2.entries, expect, atol=1e-12)

    def test_local_hamiltonian_nearest_neighbor(self):
        p = zzx_gibbs()
        h3 = gibbs_local_hamiltonian(p, 3)
        x, zz = p.terms[0].entries, p.terms[1].entries
        eye = np.eye(2)
        expect = (
            np.kron(np.kron(x, eye), eye)
            + np.kron(np.kron(eye, x), eye)
            + np.kron(np.kron(eye, eye), x)
            + np.kron(zz, eye)
            + np.kron(eye, zz)
        )
        assert np.allclose(h3.entries, expect, atol=1e-12)

    def test_onsite_gibbs_state_is_product(self):
        p = onsite_gibbs(0.9)
        w1 = gibbs_state(p, 1)
        w3 = gibbs_state(p, 3)
        assert np.allclose(w3.entries, tensor_power(w1, 3).entries, atol=1e-12)

    def test_gibbs_rate_refuses_over_cap_block_before_any_smaller_one(self, monkeypatch):
        # a qutrit chain's block 8 has 3^8 = 6561 rows, over the cap of 4096
        built = []
        build = gibbs_state
        monkeypatch.setattr("sconv.families.gibbs_state",
                            lambda payload, n: built.append(n) or build(payload, n))
        qutrit = GibbsPayload(site_dim=3, terms=[HermitianOperator(np.diag([0.0, 1.0, 2.0]))],
                              beta=0.7)
        with pytest.raises(ValueError, match=r"3\^8 exceeds cap 4096"):
            gibbs_rate(GibbsPairPayload(qutrit, qutrit))
        assert built == [8]

    def test_onsite_certifies_eta_one(self):
        p = onsite_gibbs()
        for m, k, r in [(1, 2, 0), (2, 2, 1), (1, 3, 2), (3, 2, 0)]:
            upper, lower = factorization_certificate(p, m, k, r, 1.0)
            assert upper and lower
        assert smallest_factorization_eta(p, max_total=6) == pytest.approx(1.0)

    def test_zzx_needs_eta_above_one(self):
        p = zzx_gibbs()
        upper, lower = factorization_certificate(p, 2, 2, 0, 1.0)
        assert not (upper and lower)
        eta = smallest_factorization_eta(p, max_total=6)
        assert eta > 1.0
        upper, lower = factorization_certificate(p, 2, 2, 0, eta)
        assert upper and lower

    def test_zzx_eta_is_tight(self):
        # the closed form certifies every split, and no smaller eta does
        p = zzx_gibbs()
        eta = smallest_factorization_eta(p, max_total=6)
        splits = [(m, k, r) for m in range(1, 7) for k in range(1, 6 // m + 1)
                  for r in range(0, 6 - k * m + 1)]
        assert all(all(factorization_certificate(p, m, k, r, eta)) for m, k, r in splits)
        below = eta * (1.0 - 1e-6)
        assert not all(
            all(factorization_certificate(p, m, k, r, below)) for m, k, r in splits
        )

    def test_certificate_argument_validation(self):
        p = onsite_gibbs()
        with pytest.raises(ValueError, match="m >= 1"):
            factorization_certificate(p, 0, 1, 0, 1.0)
        with pytest.raises(ValueError, match=">= 1"):
            factorization_certificate(p, 1, 1, 0, 0.5)

    def test_certificate_refuses_nan_eta(self, monkeypatch):
        # refused before any Gibbs state is built (NaN passed `eta < 1.0`)
        monkeypatch.setattr("sconv.families.gibbs_state", None)
        with pytest.raises(ValueError, match="factorization constant must be >= 1"):
            factorization_certificate(onsite_gibbs(), 1, 1, 0, math.nan)


class TestMarkovTransfer:
    def test_n1_reduces_to_classical(self):
        mp = two_state_markov()
        for alpha in (0.5, 1.5, 3.0):
            assert markov_psi_n(mp, alpha, 1) == pytest.approx(
                classical_psi(mp.pi0, mp.pi1, alpha), abs=1e-14
            )

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_brute_force_paths(self, n):
        mp = two_state_markov()
        pair = family_states(mp, n)
        for alpha in (0.6, 1.7, 2.5):
            brute = psi(pair.rho, pair.sigma, alpha)
            assert markov_psi_n(mp, alpha, n) == pytest.approx(brute, abs=1e-12)

    def test_alpha_one_is_zero(self):
        assert markov_psi_n(two_state_markov(), 1.0, 100) == 0.0
        assert markov_psi_limit(two_state_markov(), 1.0) == 0.0

    def test_identical_chains_give_zero_curve(self):
        mp = MarkovPayload([0.5, 0.5], [0.5, 0.5], [[0.3, 0.7], [0.6, 0.4]],
                           [[0.3, 0.7], [0.6, 0.4]])
        for alpha in (0.5, 2.0, 8.0):
            assert abs(markov_psi_limit(mp, alpha)) < 1e-10

    def test_per_step_value_approaches_limit(self):
        mp = two_state_markov()
        alpha = 2.0
        lim = markov_psi_limit(mp, alpha)
        gaps = [abs(markov_psi_n(mp, alpha, n) / n - lim) for n in (16, 64, 256)]
        assert gaps[-1] < 1e-2
        assert gaps[2] < gaps[0]

    def test_null_edges_in_p0_stay_finite(self):
        # zeros in P0 where P1 is positive are allowed and contribute nothing
        mp = MarkovPayload([1.0, 0.0], [0.5, 0.5], [[1.0, 0.0], [0.3, 0.7]],
                           [[0.6, 0.4], [0.2, 0.8]])
        val = markov_psi_n(mp, 2.0, 3)
        assert math.isfinite(val)
        # single surviving path 000: psi = log pi0^2 pi1^-1 P0[00]^(2*2) P1[00]^-2
        expect = 2 * math.log(1.0) - math.log(0.5) + 2 * (2 * math.log(1.0) - math.log(0.6))
        assert val == pytest.approx(expect, abs=1e-12)

    def test_relent_rate_between_bounds(self):
        mp = two_state_markov()
        d = markov_relent_rate(mp)
        # the rate lies in the convex hull of conditional relative entropies
        conds = []
        for i in range(2):
            conds.append(
                sum(
                    mp.P0[i, j] * math.log(mp.P0[i, j] / mp.P1[i, j])
                    for j in range(2)
                )
            )
        assert min(conds) - 1e-6 <= d <= max(conds) + 1e-6


class TestRateCurves:
    def test_iid_rate_matches_psi(self, rng):
        rho1, sigma1 = rand_density(2, rng), rand_density(2, rng)
        f = iid_rate(rho1, sigma1)
        for t in (1.0, 1.5, 3.0, 10.0):
            assert f(t) == pytest.approx(psi(rho1, sigma1, t, "sandwiched"), abs=1e-12)
        assert f.right_derivative_at_1 == pytest.approx(
            relative_entropy(rho1, sigma1), abs=1e-12
        )
        assert f.slope_is_exact

    def test_markov_rate_convex_with_exact_derivative(self):
        mp = two_state_markov()
        f = markov_rate(mp)
        assert f(1.0) == 0.0
        assert f.right_derivative_at_1 == pytest.approx(markov_relent_rate(mp), abs=1e-12)
        ts = np.linspace(1.0, 8.0, 40)
        vals = np.array([f(t) for t in ts])
        assert np.all(np.diff(vals, 2) >= -1e-9)

    def test_onsite_gibbs_rate_reduces_to_iid(self):
        pair = GibbsPairPayload(onsite_gibbs(0.5), onsite_gibbs(1.2))
        f = gibbs_rate(pair)
        w_null, w_alt = gibbs_state(pair.null, 1), gibbs_state(pair.alt, 1)
        for a in (1.5, 2.0, 4.0):
            assert f(a) == pytest.approx(psi(w_null, w_alt, a, "sandwiched"), abs=1e-9)

    def test_asymptotic_rate_dispatch(self, rng):
        spec = IIDPayload(rand_density(2, rng), rand_density(2, rng))
        f = asymptotic_rate(spec)
        assert f(1.0) == 0.0
        g = asymptotic_rate(two_state_markov())
        assert g(1.0) == 0.0


class TestJsonRoundTrip:
    def test_iid(self, rng):
        spec = IIDPayload(rand_density(2, rng), rand_density(2, rng))
        back = family_from_json(family_to_json(spec))
        assert np.allclose(back.rho1.entries, spec.rho1.entries)

    def test_markov(self):
        spec = two_state_markov()
        back = family_from_json(family_to_json(spec))
        assert np.allclose(back.P0, spec.P0)
        assert markov_psi_n(back, 2.0, 5) == pytest.approx(
            markov_psi_n(spec, 2.0, 5), abs=1e-15
        )

    def test_gibbs(self):
        spec = GibbsPairPayload(zzx_gibbs(), onsite_gibbs())
        back = family_from_json(family_to_json(spec))
        assert back.null.beta == spec.null.beta
        w0 = gibbs_state(spec.null, 3)
        w1 = gibbs_state(back.null, 3)
        assert np.allclose(w0.entries, w1.entries, atol=1e-12)

    def test_quasifree(self):
        payload = QuasiFreePayload(
            1,
            TrigPolySymbol(0.45, cos_coeffs=(0.1,)),
            TrigPolySymbol(0.5, sin_coeffs=(0.05,)),
            0.2,
        )
        back = family_from_json(family_to_json(payload))
        x = np.linspace(0, 2 * np.pi, 17)
        assert np.allclose(back.q_symbol(x), payload.q_symbol(x), atol=1e-15)
        assert back.scaling_exponent == 1

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="kind"):
            family_from_json({"kind": "bogus", "payload": {}})


_ONSITE_TERM = HermitianOperator(np.diag([0.0, 1.0]))


# payload refusals that no shipped scenario reaches, each with its own message
@pytest.mark.parametrize("build, message", [
    (lambda: MarkovPayload(pi0=[0.6, 0.4], pi1=[0.5, 0.5], P0=[[1.0]],
                           P1=[[0.5, 0.5], [0.4, 0.6]]), "inconsistent chain dimensions"),
    (lambda: MarkovPayload(pi0=[0.6, 0.6], pi1=[0.5, 0.5], P0=[[0.7, 0.3], [0.2, 0.8]],
                           P1=[[0.5, 0.5], [0.4, 0.6]]), "pi0 is not a distribution"),
    (lambda: GibbsPayload(1, [_ONSITE_TERM], 0.7), "site dimension must be at least 2"),
    (lambda: GibbsPayload(2, [_ONSITE_TERM], 0.0), "inverse temperature must be positive"),
    (lambda: GibbsPayload(2, [], 0.7), "need at least one interaction term"),
    # a NaN fails every gate written "not x <= tol"; the JSON form never carries one
    (lambda: MarkovPayload(pi0=[math.nan, math.nan], pi1=[0.5, 0.5],
                           P0=[[0.7, 0.3], [0.2, 0.8]], P1=[[0.5, 0.5], [0.4, 0.6]]),
     "pi0 is not a distribution"),
    (lambda: MarkovPayload(pi0=[0.6, 0.4], pi1=[0.5, 0.5], P0=[[math.nan, 0.3], [0.2, 0.8]],
                           P1=[[0.5, 0.5], [0.4, 0.6]]), "P0 is not row-stochastic"),
    (lambda: GibbsPayload(2, [_ONSITE_TERM], math.nan), "inverse temperature must be positive"),
    (lambda: GibbsPayload(2, [_ONSITE_TERM], math.inf), "inverse temperature must be positive"),
], ids=["markov-dimensions", "markov-distribution", "gibbs-site-dim", "gibbs-beta",
        "gibbs-no-terms", "markov-nan-distribution", "markov-nan-row", "gibbs-nan-beta",
        "gibbs-inf-beta"])
def test_payload_refusals(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
