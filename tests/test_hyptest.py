"""Unit tests for the Neyman-Pearson engines and exponent reports."""

import itertools
import json
import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.special import logsumexp

from sconv import families as fam
from sconv import operators
from sconv.cli import main
from sconv.families import IIDPayload, MarkovPayload, markov_psi_n
from sconv.hyptest import (
    RUN_CLASS_CHUNK,
    ErrorPair,
    _dense_error_pair,
    _markov_run_classes,
    _resolve_engine,
    _sector_spectra,
    default_a_grid,
    error_pair,
    exponent_sweep,
    fit_rate,
    iid_type_class_error_pair,
    markov_error_pair,
    np_test,
    pinched_np_test,
    qubit_sector_error_pair,
    sc_report,
)
from sconv.families import asymptotic_rate, family_states
from sconv.hoeffding import ConvexRate, polar, polar_detail
from sconv.operators import (
    HermitianOperator,
    StatePair,
    operator_to_json,
    pinch,
    positive_part_trace,
    rand_density,
)
from sconv.quasifree import (QuasiFreePayload, TrigPolySymbol, fock_density,
                             quasifree_block_symbol)

from helpers import classical_pair, rand_test


def binary_spec(p=0.25, q=0.75):
    """Commuting binary i.i.d. family as diagonal qubits."""
    return IIDPayload(
        HermitianOperator(np.diag([1 - p, p])),
        HermitianOperator(np.diag([1 - q, q])),
    )


def noncommuting_qubits(theta=0.45):
    rho = HermitianOperator(np.diag([0.85, 0.15]))
    c, s = math.cos(theta), math.sin(theta)
    u = np.array([[c, -s], [s, c]])
    sigma = HermitianOperator(u @ np.diag([0.7, 0.3]) @ u.T)
    return rho, sigma


def _hamming_block(rho_ref, n, k):
    """Oracle: the block of ``rho_ref^{(x) n}`` on the weight-``k`` strings, as a matrix."""
    combos = list(itertools.combinations(range(n), k))
    occ = np.zeros((len(combos), n), dtype=int)
    for i, cmb in enumerate(combos):
        occ[i, list(cmb)] = 1
    block = np.ones((len(combos), len(combos)), dtype=complex)
    for i in range(n):
        col = occ[:, i]
        block = block * rho_ref[col[:, None], col[None, :]]
    return block


def _reference_frame(rho1, sigma1):
    v = sigma1.eigenvectors
    return v.conj().T @ rho1.entries @ v


class TestErrorPair:
    def test_boundary_clamps(self):
        ep = ErrorPair(n=1, alpha_err=-5e-11, beta_err=1.0 + 5e-11,
                       success=1.0 + 5e-11)
        assert ep.alpha_err == 0.0 and ep.success == 1.0 and ep.beta_err == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            ErrorPair(n=1, alpha_err=0.3, beta_err=1.5, success=0.7)

    def test_rejects_mass_leak(self):
        with pytest.raises(ValueError, match="!= 1"):
            ErrorPair(n=1, alpha_err=0.5, beta_err=0.1, success=0.4)

    def test_log_fields_derived(self):
        ep = ErrorPair(n=2, alpha_err=0.75, beta_err=0.0, success=0.25)
        assert ep.log_success == pytest.approx(math.log(0.25))
        assert ep.log_beta == -math.inf

    def test_from_logs(self):
        empty = ErrorPair.from_logs(3, -math.inf, 0.0, -math.inf, None)
        assert (empty.success, empty.alpha_err, empty.beta_err) == (0.0, 1.0, 0.0)
        assert empty.log_success == -math.inf and empty.log_beta == -math.inf
        # no log_alpha: the type-I error is the complement of success
        scaled = ErrorPair.from_logs(3, math.log(0.25), None, math.log(0.5), -2.0)
        assert scaled.alpha_err == 1.0 - scaled.success
        assert scaled.beta_err == pytest.approx(0.5) and scaled.log_pos_part == -2.0


class TestThresholdTests:
    def test_commuting_strict_threshold(self):
        rho, sigma = classical_pair([0.8, 0.2], [0.5, 0.5])
        pair = StatePair(rho, sigma)
        t = np_test(pair, 0.0)
        assert np.allclose(t.op.entries, np.diag([1.0, 0.0]), atol=1e-12)
        ep = error_pair(pair, t)
        assert ep.success == pytest.approx(0.8, abs=1e-12)
        assert ep.beta_err == pytest.approx(0.5, abs=1e-12)

    def test_threshold_exactly_on_ratio_excludes(self):
        # strict comparison: a class whose log-ratio equals c drops out
        rho, sigma = classical_pair([0.8, 0.2], [0.5, 0.5])
        pair = StatePair(rho, sigma)
        t = np_test(pair, math.log(0.8 / 0.5))
        assert np.abs(t.op.entries).max() < 1e-12

    def test_huge_threshold_gives_empty_test(self):
        rho, sigma = classical_pair([0.8, 0.2], [0.5, 0.5])
        pair = StatePair(rho, sigma)
        t = np_test(pair, 1000.0)
        assert np.abs(t.op.entries).max() < 1e-12

    def test_pinched_equals_plain_when_commuting(self):
        rho, sigma = classical_pair([0.7, 0.2, 0.1], [0.3, 0.3, 0.4])
        pair = StatePair(rho, sigma)
        for c in (-0.5, 0.0, 0.6):
            tp = pinched_np_test(pair, c)
            tn = np_test(pair, c)
            assert np.allclose(tp.op.entries, tn.op.entries, atol=1e-10)

    def test_pinched_test_commutes_with_sigma(self, rng):
        pair = StatePair(rand_density(3, rng), rand_density(3, rng))
        t = pinched_np_test(pair, 0.2)
        comm = t.op.entries @ pair.sigma.entries - pair.sigma.entries @ t.op.entries
        assert np.abs(comm).max() < 1e-10

    def test_neyman_pearson_optimality(self, rng):
        # among random tests with beta at most the threshold test's beta, none
        # beats its success probability (up to the randomized-boundary slack)
        pair = StatePair(rand_density(3, rng), rand_density(3, rng))
        c = 0.3
        t_star = np_test(pair, c)
        star = error_pair(pair, t_star)
        lagrangian_star = star.success - math.exp(c) * star.beta_err

        for _ in range(50):
            t = rand_test(3, rng)
            ep = error_pair(pair, t)
            assert ep.success - math.exp(c) * ep.beta_err <= lagrangian_star + 1e-10


class TestExactClassicalEngines:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_binary_type_classes_match_dense(self, n):
        p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        spec = binary_spec(0.7, 0.4)  # diag entries [0.3, 0.7] / [0.6, 0.4]
        pair = family_states(spec, n)
        for a in (-0.2, 0.05, 0.3):
            c = a * n
            exact = iid_type_class_error_pair(p, q, n, c)
            t = np_test(pair, c)
            dense = error_pair(pair, t, n=n)
            assert exact.success == pytest.approx(dense.success, abs=1e-12)
            assert exact.beta_err == pytest.approx(dense.beta_err, abs=1e-12)

    def test_type_classes_three_outcomes(self):
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.3, 0.5])
        n = 5
        rho, sigma = classical_pair(p, q)
        pair = StatePair(
            HermitianOperator(np.kron(np.kron(np.kron(np.kron(rho.entries, rho.entries), rho.entries), rho.entries), rho.entries)),
            HermitianOperator(np.kron(np.kron(np.kron(np.kron(sigma.entries, sigma.entries), sigma.entries), sigma.entries), sigma.entries)),
        )
        c = 0.4
        exact = iid_type_class_error_pair(p, q, n, c)
        dense = error_pair(pair, np_test(pair, c), n=n)
        assert exact.success == pytest.approx(dense.success, abs=1e-11)
        assert exact.beta_err == pytest.approx(dense.beta_err, abs=1e-11)

    def test_over_cap_type_classes_refused_before_any_smaller_block(self, monkeypatch):
        # block 2100 of a three-outcome pair has C(2102, 2) = 2208051 classes, over the
        # cap; block 1500 is under it, and the engine never runs there
        sizes = []
        engine = iid_type_class_error_pair
        monkeypatch.setattr("sconv.hyptest.iid_type_class_error_pair",
                            lambda p, q, n, c: sizes.append(n) or engine(p, q, n, c))
        qutrit = IIDPayload(
            HermitianOperator(np.diag([0.5, 0.3, 0.2])),
            HermitianOperator(np.diag([0.2, 0.3, 0.5])),
        )
        with pytest.raises(ValueError, match="type classes exceed"):
            exponent_sweep(qutrit, 0.3, [1500, 2100])
        assert sizes == [2100]

    def test_pos_part_identity(self):
        # for the strict threshold test, Tr(rho - e^c sigma)_+ =
        # success - e^c beta
        p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        ep = iid_type_class_error_pair(p, q, 12, 0.5)
        assert math.exp(ep.log_pos_part) == pytest.approx(
            ep.success - math.exp(0.5) * ep.beta_err, abs=1e-12
        )

    def test_log_fields_survive_underflow(self):
        p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
        ep = iid_type_class_error_pair(p, q, 4096, 0.5 * 4096)
        assert ep.success == 0.0  # underflowed as a float
        assert -math.inf < ep.log_success < -500.0
        assert math.isfinite(ep.log_beta)
        assert ep.log_pos_part <= ep.log_success + 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    def test_markov_run_classes_match_dense(self, n):
        mp = MarkovPayload(
            pi0=[0.6, 0.4], pi1=[0.5, 0.5],
            P0=[[0.7, 0.3], [0.2, 0.8]], P1=[[0.5, 0.5], [0.4, 0.6]],
        )
        pair = family_states(mp, n)
        for a in (-0.1, 0.04, 0.2):
            c = a * n
            exact = markov_error_pair(mp, n, c)
            dense = error_pair(pair, np_test(pair, c), n=n)
            assert exact.success == pytest.approx(dense.success, abs=1e-11)
            assert exact.beta_err == pytest.approx(dense.beta_err, abs=1e-11)
            assert exact.alpha_err == pytest.approx(dense.alpha_err, abs=1e-11)

    def test_markov_zero_edge_chain(self):
        mp = MarkovPayload(
            pi0=[1.0, 0.0], pi1=[0.5, 0.5],
            P0=[[1.0, 0.0], [0.3, 0.7]], P1=[[0.6, 0.4], [0.2, 0.8]],
        )
        n = 5
        pair = family_states(mp, n)
        c = 0.1 * n
        exact = markov_error_pair(mp, n, c)
        dense = error_pair(pair, np_test(pair, c), n=n)
        assert exact.success == pytest.approx(dense.success, abs=1e-12)
        assert exact.beta_err == pytest.approx(dense.beta_err, abs=1e-12)

    @pytest.mark.parametrize("chain", [
        dict(pi0=[0.6, 0.4], pi1=[0.5, 0.5],  # the chain of acceptance test 11
             P0=[[0.7, 0.3], [0.4, 0.6]], P1=[[0.5, 0.5], [0.55, 0.45]]),
        dict(pi0=[1.0, 0.0], pi1=[0.5, 0.5],  # the zero-edge chain above
             P0=[[1.0, 0.0], [0.3, 0.7]], P1=[[0.6, 0.4], [0.2, 0.8]]),
    ], ids=["test_11", "zero_edge"])
    def test_markov_run_classes_match_transfer_matrix(self, chain):
        mp = MarkovPayload(**chain)
        for n in (2, 7, 1024):
            chunks = list(_markov_run_classes(mp, n))
            assert max(lm.size for lm, _, _ in chunks) <= RUN_CLASS_CHUNK
            for alpha in (0.5, 1.0, 2.0):
                psi = markov_psi_n(mp, alpha, n)
                got = logsumexp([
                    logsumexp(lm + alpha * lp + (1.0 - alpha) * lq)
                    for lm, lp, lq in chunks
                ])
                assert abs(got - psi) <= 1e-9 * max(1.0, abs(psi))
        assert len(chunks) > 1 + 4 * 2  # n = 1024: over two chunks per (s, e)

    def test_markov_requires_two_states(self):
        mp3 = MarkovPayload(
            pi0=np.ones(3) / 3, pi1=np.ones(3) / 3,
            P0=np.full((3, 3), 1 / 3), P1=np.full((3, 3), 1 / 3),
        )
        with pytest.raises(ValueError, match="two-state"):
            markov_error_pair(mp3, 4, 0.0)


class TestSectorEngine:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_dense_pinched(self, n):
        rho1, sigma1 = noncommuting_qubits()
        spec = IIDPayload(rho1, sigma1)
        pair = family_states(spec, n)
        for a in (0.0, 0.15):
            c = a * n
            exact = qubit_sector_error_pair(rho1, sigma1, n, c)
            dense = error_pair(pair, pinched_np_test(pair, c), n=n)
            assert exact.success == pytest.approx(dense.success, abs=1e-10)
            assert exact.beta_err == pytest.approx(dense.beta_err, abs=1e-10)
            assert exact.alpha_err == pytest.approx(dense.alpha_err, abs=1e-10)
            floor = positive_part_trace(
                pinch(pair.rho, pair.sigma).entries - math.exp(c) * pair.sigma.entries
            )
            assert math.exp(exact.log_pos_part) == pytest.approx(floor, abs=1e-10)

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_pure_state_dust(self, n):
        # a pure rho_1 makes every Hamming block rank one, so eigvalsh returns
        # dust around 0; the closed form gives those eigenvalues as exact zeros,
        # which carry no mass
        rho1 = HermitianOperator(np.diag([1.0, 0.0]))
        _, sigma1 = noncommuting_qubits()
        rho_ref = _reference_frame(rho1, sigma1)
        lams = np.concatenate([
            np.linalg.eigvalsh(_hamming_block(rho_ref, n, k)) for k in range(n + 1)
        ])
        assert (lams <= 0).any()
        assert abs(lams[lams <= 0].sum()) < 1e-12
        for a in (0.0, 0.15, 0.4):
            ep = qubit_sector_error_pair(rho1, sigma1, n, a * n)
            assert ep.success + ep.alpha_err == pytest.approx(1.0, abs=1e-10)
            if n == 4:
                spec = IIDPayload(rho1, sigma1)
                pair = family_states(spec, n)
                dense = error_pair(pair, pinched_np_test(pair, a * n), n=n)
                assert ep.success == pytest.approx(dense.success, abs=1e-10)
                assert ep.beta_err == pytest.approx(dense.beta_err, abs=1e-10)

    def test_requires_nondegenerate_reference(self):
        rho1 = HermitianOperator(np.diag([0.9, 0.1]))
        sigma1 = HermitianOperator(0.5 * np.eye(2))
        with pytest.raises(ValueError, match="nondegenerate"):
            qubit_sector_error_pair(rho1, sigma1, 3, 0.0)


def _qubit_pairs():
    """Five seeded random complex qubit pairs and one pure rho_1."""
    rng = np.random.default_rng(20261019)
    pairs = [(rand_density(2, rng), rand_density(2, rng)) for _ in range(5)]
    return pairs + [(rand_density(2, rng, rank=1), rand_density(2, rng))]


class TestSectorClosedForm:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9, 10])
    def test_spectrum_matches_dense_block(self, n):
        for rho1, sigma1 in _qubit_pairs():
            rho_ref = _reference_frame(rho1, sigma1)
            for k, (log_mult, log_lam, _) in enumerate(_sector_spectra(rho1, sigma1, n)):
                mult = np.exp(log_mult)
                counts = np.rint(mult).astype(int)
                assert np.abs(mult - counts).max() < 1e-9
                assert counts.min() >= 1 and counts.sum() == math.comb(n, k)
                want = np.linalg.eigvalsh(_hamming_block(rho_ref, n, k))
                got = np.sort(np.repeat(np.exp(log_lam), counts))
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n", [64, 256])
    def test_commuting_pair_matches_type_classes(self, n):
        # b = 0 exactly: every |b|^(2i) with i > 0 is xlogy's 0 * log 0 edge
        rho1 = HermitianOperator(np.diag([0.8, 0.2]))
        sigma1 = HermitianOperator(np.diag([0.35, 0.65]))
        p, q = np.diag(_reference_frame(rho1, sigma1)).real, sigma1.eigenvalues
        for a in (-0.4, 0.1, 0.6, 1.1):
            got = qubit_sector_error_pair(rho1, sigma1, n, a * n)
            want = iid_type_class_error_pair(p, q, n, a * n)
            for name in ("log_success", "log_beta", "log_pos_part"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-12)
            assert got.success == pytest.approx(want.success, abs=1e-12)
            assert got.alpha_err == pytest.approx(want.alpha_err, abs=1e-12)


class TestSectorCache:
    def test_threaded_sc_report_computes_each_spectrum_once(self, tmp_path, sector_calls):
        rho1, sigma1 = noncommuting_qubits()
        ns = [4, 5, 6, 7]
        scenario = {
            "task": "sc-report",
            "family": {
                "kind": "iid",
                "scaling_exponent": 1,
                "payload": {"rho": operator_to_json(rho1), "sigma": operator_to_json(sigma1)},
            },
            "params": {"mode": "pinched", "n_list": ns, "r_grid": [0.05, 0.1, 0.15, 0.2]},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        rc = main(["sc-report", "--scenario", str(path), "--out", str(tmp_path),
                   "--threads", "2"])
        assert rc == 0
        assert len(list(tmp_path.glob("sc_report_*.csv"))) == 4
        assert len(sector_calls) == sum(n + 1 for n in ns)


def quasifree_spec():
    return QuasiFreePayload(
        nu=1,
        q_symbol=TrigPolySymbol(0.5, cos_coeffs=(0.2,)),
        r_symbol=TrigPolySymbol(0.45, cos_coeffs=(-0.1,), sin_coeffs=(0.05,)),
        c_bound=0.2,
    )


class TestDenseSectors:
    @pytest.mark.parametrize("mode", ["np", "pinched"])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_sector_split_matches_one_sector(self, n, mode, monkeypatch):
        spec = quasifree_spec()
        engine, provenance = _resolve_engine(spec, mode)
        assert provenance == "dense"
        states = fam.family_states
        assert states(spec, n).rho.sectors == tuple(math.comb(n, k) for k in range(n + 1))
        thresholds = (0.02, 0.1, 0.3)
        split = [engine(n, a * n) for a in thresholds]

        def one_sector(spec, n):
            pair = states(spec, n)
            return StatePair(HermitianOperator(pair.rho.entries),
                             HermitianOperator(pair.sigma.entries))

        monkeypatch.setattr(fam, "family_states", one_sector)
        whole = [engine(n, a * n) for a in thresholds]
        for got, want in zip(split, whole):
            assert 0.0 < want.success < 1.0
            assert got.success == pytest.approx(want.success, abs=1e-12)
            assert got.beta_err == pytest.approx(want.beta_err, abs=1e-12)
            assert math.exp(got.log_pos_part) == pytest.approx(
                math.exp(want.log_pos_part), abs=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_pinched_slices_match_whole_matrix_pinch(self, n):
        # the engine pinches each particle-number slice on its own; the public
        # pinched test pinches the whole 2^n matrix
        spec = quasifree_spec()
        pair = fam.family_states(spec, n)
        rho_hat = pinch(pair.rho, pair.sigma).entries
        for a in (0.02, 0.1, 0.3):
            got = _dense_error_pair(spec, "pinched", n, a * n)
            want = error_pair(pair, pinched_np_test(pair, a * n), n=n)
            floor = positive_part_trace(rho_hat - math.exp(a * n) * pair.sigma.entries)
            assert 0.0 < want.success < 1.0
            assert got.success == pytest.approx(want.success, abs=1e-12)
            assert got.beta_err == pytest.approx(want.beta_err, abs=1e-12)
            assert math.exp(got.log_pos_part) == pytest.approx(floor, abs=1e-12)

    @pytest.mark.parametrize("mode", ["np", "pinched"])
    def test_resolved_engine_is_the_dense_function(self, mode):
        spec = quasifree_spec()
        engine, provenance = _resolve_engine(spec, mode)
        assert provenance == "dense"
        for n, a in ((5, 0.05), (6, 0.2)):
            assert engine(n, a * n) == _dense_error_pair(spec, mode,
                                                         n, a * n)

    @pytest.mark.parametrize("mode", ["np", "pinched"])
    def test_pair_without_shared_blocks_is_refused(self, mode):
        # a Fock rho in particle-number blocks against a sigma in one dense
        # block: zipping their blocks would pair the wrong ones
        spec = quasifree_spec()

        class MixedBlocks:
            def block_dim(self, n):
                return 2**n

            def states(self, n):
                qn, rn = quasifree_block_symbol(spec, n)
                return StatePair(fock_density(qn), HermitianOperator(fock_density(rn).entries))

        with pytest.raises(ValueError, match=r"^block n = 4: rho and sigma do not share"):
            _dense_error_pair(MixedBlocks(), mode, 4, 0.1 * 4)

    def test_sc_report_eigh_fits_largest_sector(self, eigh_shapes):
        report = sc_report(quasifree_spec(), 0.2, [5, 6, 7, 8])
        assert report.provenance == "dense"
        assert max(max(shape) for shape in eigh_shapes) <= math.comb(8, 4)
        assert (70, 70) in eigh_shapes  # the n = 8 middle sector


class TestBlockMemory:
    # two dense 2^10-row complex matrices; each state's blocks and block
    # eigenvectors take about 3 MiB apiece
    DENSE_PAIR_BYTES = 2 * 1024**2 * 16

    @pytest.mark.parametrize("mode", ["np", "pinched"])
    def test_dense_engine_peak_stays_below_two_dense_matrices(self, mode):
        tracemalloc.start()
        try:
            _dense_error_pair(quasifree_spec(), mode, 10, [0.02 * 10, 0.1 * 10, 0.3 * 10])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.DENSE_PAIR_BYTES

    def test_sc_report_assembles_no_dense_fock_matrix(self, monkeypatch):
        calls = []
        direct_sum = operators._direct_sum

        def counted(blocks):
            calls.append(len(blocks))
            return direct_sum(blocks)

        monkeypatch.setattr(operators, "_direct_sum", counted)
        report = sc_report(quasifree_spec(), 0.2, [6, 7, 8, 9, 10])
        assert report.provenance == "dense"
        assert calls == []
        # the dense form is still there for a reader who asks for it
        assert fam.family_states(quasifree_spec(), 4).rho.entries.shape == (16, 16)
        assert calls == [5]


def _markov_chain():
    return MarkovPayload(pi0=[0.6, 0.4], pi1=[0.5, 0.5],
                         P0=[[0.7, 0.3], [0.2, 0.8]], P1=[[0.5, 0.5], [0.4, 0.6]])


class TestOnePassPerBlock:
    # below every class, inside, and above every class (an empty test)
    RATES = (-0.5, 0.02, 0.1, 0.3, 5.0)

    @pytest.mark.parametrize("engine, n", [
        (partial(iid_type_class_error_pair, np.array([0.5, 0.3, 0.2]),
                 np.array([0.2, 0.3, 0.5])), 24),
        (partial(markov_error_pair, _markov_chain()), 300),  # 300 run classes span chunks
        (partial(qubit_sector_error_pair, *noncommuting_qubits()), 12),
        (partial(_dense_error_pair, quasifree_spec(), "np"), 6),
        (partial(_dense_error_pair, quasifree_spec(), "pinched"), 6),
        (partial(_dense_error_pair, IIDPayload(*noncommuting_qubits()), "pinched"), 5),
    ], ids=["type-classes", "run-classes", "sectors", "dense-np", "dense-sectors-pinched",
            "dense-pinched"])
    def test_batched_engine_equals_scalar_calls(self, engine, n):
        cs = [a * n for a in self.RATES]
        batched = engine(n, cs)
        assert len(batched) == len(cs)
        for got, c in zip(batched, cs):
            assert got == engine(n, c)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sc_report_grid_equals_per_r_reports(self, threads):
        spec = binary_spec()
        rate = asymptotic_rate(spec)
        d1, a_max = rate.right_derivative_at_1, rate.slope_at_infinity
        rs = [0.5 * d1, 2.5 * d1, a_max + 0.4]
        ns = [64, 128, 256, 512]
        reports = sc_report(spec, rs, ns, rate=rate, threads=threads)
        assert [rep.regime for rep in reports] == ["zero", "interior", "linear_tail"]
        assert reports == [sc_report(spec, r, ns, rate=rate) for r in rs]

    def test_exponent_sweep_grid_equals_per_a_reports(self):
        spec = IIDPayload(*noncommuting_qubits())
        rate = asymptotic_rate(spec)
        grid = [float(a) for a in default_a_grid(rate)[:6:2]]  # the top third can empty a test
        ns = [6, 8, 10, 12]
        reports = exponent_sweep(spec, grid, ns, mode="pinched", rate=rate, threads=2)
        assert reports == [exponent_sweep(spec, a, ns, mode="pinched", rate=rate)
                           for a in grid]


class TestFitting:
    def test_exact_exponential(self):
        ns = [16, 32, 64, 128]
        ys = [-0.3 * n + 2.0 for n in ns]
        fit = fit_rate(ns, ys)
        assert fit.rate == pytest.approx(0.3, abs=1e-12)
        assert fit.intercept == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.asymptotic

    def test_uses_last_half(self):
        # early transient, clean tail: only the tail enters the fit
        ns = [8, 16, 512, 1024]
        ys = [5.0, -40.0, -0.25 * 512, -0.25 * 1024]
        fit = fit_rate(ns, ys)
        assert fit.n_used == (512, 1024)
        assert fit.rate == pytest.approx(0.25, abs=1e-12)

    def test_filters_infinities(self):
        ns = [8, 16, 32, 64, 128, 256]
        ys = [-1.0, -2.0, -4.0, -math.inf, -0.1 * 128, -0.1 * 256]
        fit = fit_rate(ns, ys)
        assert fit.rate == pytest.approx(0.1, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="two"):
            fit_rate([4], [-1.0])

    def test_needs_two_distinct_sizes(self):
        # one size twice is a rank-deficient fit that would claim r_squared = 1.0
        with pytest.raises(ValueError, match="fewer than two distinct sizes in the fit window"):
            fit_rate([16, 16], [-1.0, -1.1])

    def test_square_root_scaling(self):
        ns = [16, 64, 256, 1024]
        ys = [-0.5 * math.sqrt(n) for n in ns]
        fit = fit_rate(ns, ys, scaling=0.5)
        assert fit.rate == pytest.approx(0.5, abs=1e-12)


class TestSweepAndReport:
    def test_default_grid_inside_slope_interval(self):
        spec = binary_spec()
        rate = asymptotic_rate(spec)
        grid = default_a_grid(rate)
        assert grid[0] > rate.right_derivative_at_1
        assert grid[-1] < rate.slope_at_infinity
        assert len(grid) == 9

    def test_sweep_binary_matches_polar(self):
        spec = binary_spec()
        rate = asymptotic_rate(spec)
        a = float(default_a_grid(rate)[4])
        report = exponent_sweep(spec, a, [128, 256, 512, 1024], rate=rate)
        assert report.provenance == "exact-binomial"
        phi = polar(rate, a)
        assert report.success_fit.rate == pytest.approx(phi, abs=0.02)
        assert report.beta_fit.rate == pytest.approx(phi + a, abs=0.02)
        assert report.predicted_beta_rate == pytest.approx(
            report.predicted_success_rate + a, abs=1e-12
        )
        assert report.success_fit.asymptotic

    def test_sweep_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            exponent_sweep(binary_spec(), 0.1, [4, 8], mode="bogus")

    def test_provenance_dispatch(self, rng):
        mp = MarkovPayload(
            pi0=[0.6, 0.4], pi1=[0.5, 0.5],
            P0=[[0.7, 0.3], [0.2, 0.8]], P1=[[0.5, 0.5], [0.4, 0.6]],
        )
        report = exponent_sweep(mp, 0.12, [8, 16, 32, 64])
        assert report.provenance == "exact-run-classes"

        rho1, sigma1 = noncommuting_qubits()
        spec = IIDPayload(rho1, sigma1)
        pinched = exponent_sweep(spec, 0.2, [2, 4, 6], mode="pinched")
        assert pinched.provenance == "pinched-sectors"
        plain = exponent_sweep(spec, 0.2, [2, 4, 6], mode="np")
        assert plain.provenance == "dense"

        qutrit = IIDPayload(
            HermitianOperator(np.diag([0.5, 0.3, 0.2])),
            HermitianOperator(np.diag([0.2, 0.3, 0.5])),
        )
        typed = exponent_sweep(qutrit, 0.3, [4, 8, 16])
        assert typed.provenance == "exact-type-classes"

    def test_dense_pinched_one_eigh_per_block(self, qutrit_pair, monkeypatch):
        # the pinched matrix needs no eigenbasis: only the threshold operator's eigh
        rho1, sigma1 = qutrit_pair
        spec = IIDPayload(rho1, sigma1)
        engine, provenance = _resolve_engine(spec, "pinched")
        assert provenance == "dense"
        shapes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a, *args: shapes.append(a.shape) or eigh(a, *args))
        for n, c in ((3, 0.15), (4, 0.2), (4, -0.4)):
            engine(n, c)
        assert shapes == [(27, 27), (81, 81), (81, 81)]

    def test_dense_pinched_floor_is_pinched_positive_part(self, qutrit_pair):
        rho1, sigma1 = qutrit_pair
        spec = IIDPayload(rho1, sigma1)
        a = 0.05
        report = exponent_sweep(spec, a, [2, 3, 4, 5], mode="pinched")
        assert report.provenance == "dense"
        for ep in report.per_n:
            pair = family_states(spec, ep.n)
            floor = positive_part_trace(
                pinch(pair.rho, pair.sigma).entries
                - math.exp(a * ep.n) * pair.sigma.entries
            )
            assert ep.log_pos_part == pytest.approx(math.log(floor), abs=1e-12)
            assert ep.log_pos_part <= ep.log_success + 1e-12

    def test_sc_report_zero_regime(self):
        spec = binary_spec()
        rate = asymptotic_rate(spec)
        r = 0.5 * rate.right_derivative_at_1
        report = sc_report(spec, r, [64, 128, 256, 512], rate=rate)
        assert report.regime == "zero"
        assert report.predicted_H == 0.0
        # success probability tends to 1, not to 0
        assert report.per_n[-1].success > 0.9
        assert any("zero regime" in note for note in report.notes)

    def test_sc_report_interior_regime(self):
        spec = binary_spec()
        rate = asymptotic_rate(spec)
        d1 = rate.right_derivative_at_1
        r = 2.5 * d1
        report = sc_report(spec, r, [128, 256, 512, 1024], rate=rate)
        assert report.regime == "interior"
        # at the interior optimum the success rate is exactly H*_r = r - a_r
        assert report.predicted_success_rate == pytest.approx(
            report.predicted_H, abs=1e-9
        )
        assert report.success_fit.rate == pytest.approx(report.predicted_H, abs=0.02)
        assert report.beta_fit.rate == pytest.approx(report.r, abs=0.02)
        assert report.r == pytest.approx(r)

    def test_sc_report_linear_tail(self):
        spec = binary_spec()
        rate = asymptotic_rate(spec)
        a_max = rate.slope_at_infinity
        r = a_max + 0.4
        report = sc_report(spec, r, [128, 256, 512, 1024], rate=rate)
        assert report.regime == "linear_tail"
        assert report.predicted_H == pytest.approx(r - a_max, abs=1e-12)
        assert report.predicted_success_rate == pytest.approx(r - a_max, abs=1e-12)
        assert report.predicted_beta_rate == pytest.approx(r, abs=1e-12)
        assert any("rescaled" in note for note in report.notes)
        assert report.success_fit.rate == pytest.approx(r - a_max, abs=0.03)
        assert report.beta_fit.rate == pytest.approx(r, abs=0.03)

    def test_linear_tail_pairs_are_the_threshold_pairs_shifted_in_log_space(self):
        # the binary pair of the tracer's engine-call test
        spec = binary_spec(0.75, 0.25)
        rate = asymptotic_rate(spec)
        r = rate.slope_at_infinity + 0.4
        report = sc_report(spec, r, [8, 16, 32, 64], rate=rate)
        assert report.regime == "linear_tail"
        sweep = exponent_sweep(spec, report.a, [8, 16, 32, 64], rate=rate)
        gap = r - report.a - polar_detail(rate, report.a).value
        assert gap > 0
        for tail, base in zip(report.per_n, sweep.per_n, strict=True):
            assert tail.n == base.n
            assert tail.log_success == base.log_success - gap * tail.n
            assert tail.log_beta == base.log_beta - gap * tail.n

    def test_sc_report_rejects_negative_r(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sc_report(binary_spec(), -0.1, [4, 8])

    # an empty grid is refused before any rate is built (the rate builder is gone)
    def test_sc_report_rejects_empty_grid(self, monkeypatch):
        monkeypatch.setattr(fam, "asymptotic_rate", None)
        with pytest.raises(ValueError, match="empty tradeoff grid r"):
            sc_report(binary_spec(), [], [4, 8])

    def test_exponent_sweep_rejects_empty_grid(self, monkeypatch):
        monkeypatch.setattr(fam, "asymptotic_rate", None)
        with pytest.raises(ValueError, match="empty threshold grid a"):
            exponent_sweep(binary_spec(), [], [4, 8])

    # so is an n_list that no fit can use: fewer than two distinct sizes
    @pytest.mark.parametrize("sweep", [sc_report, exponent_sweep])
    @pytest.mark.parametrize("n_list", [[], [16], [16, 16]])
    def test_sweeps_reject_fewer_than_two_distinct_sizes(self, monkeypatch, sweep, n_list):
        monkeypatch.setattr(fam, "asymptotic_rate", None)
        with pytest.raises(ValueError, match="n_list needs at least two distinct sizes"):
            sweep(binary_spec(), 0.5, n_list)

    # and so is a size of which no block can be built, bool included
    @pytest.mark.parametrize("sweep", [sc_report, exponent_sweep])
    @pytest.mark.parametrize("n_list, bad", [
        ([0, 4, 8], "0"), ([-4, 8], "-4"), ([4.5, 8], "4.5"), ([True, 8], "True"),
    ], ids=["zero", "negative", "float", "bool"])
    def test_sweeps_refuse_sizes_that_are_not_positive_integers(self, monkeypatch, sweep,
                                                                n_list, bad):
        monkeypatch.setattr(fam, "asymptotic_rate", None)
        with pytest.raises(ValueError, match=re.escape(
                f"n_list entries must be positive integers, got {bad}")):
            sweep(binary_spec(), 0.3, n_list)

    # a Markov chain's engine refused n = 0 too, but only after the rate was built
    @pytest.mark.parametrize("sweep", [sc_report, exponent_sweep])
    def test_markov_sweeps_refuse_zero_before_the_rate(self, monkeypatch, sweep):
        monkeypatch.setattr(fam, "asymptotic_rate", None)
        with pytest.raises(ValueError, match="n_list entries must be positive integers, got 0"):
            sweep(_markov_chain(), 0.1, [0, 8, 16])

    # numpy integers are sizes: the report equals the one of plain ints
    def test_sweep_takes_numpy_integer_sizes(self):
        spec = binary_spec()
        rate = asymptotic_rate(spec)
        plain = exponent_sweep(spec, 0.3, [64, 128], rate=rate)
        numpy = exponent_sweep(spec, 0.3, np.array([64, 128]), rate=rate)
        assert numpy.per_n == plain.per_n

    # and so are a mode and a worker count that no engine can run
    @pytest.mark.parametrize("sweep", [sc_report, exponent_sweep])
    @pytest.mark.parametrize("kwargs, message", [
        ({"mode": "pinchd"}, "unknown mode 'pinchd'"),
        ({"threads": 0}, "threads must be a positive integer, got 0"),
        ({"threads": True}, "threads must be a positive integer, got True"),
    ], ids=["mode", "zero-threads", "bool-threads"])
    def test_sweeps_refuse_mode_and_threads_before_any_rate(self, monkeypatch, sweep,
                                                            kwargs, message):
        monkeypatch.setattr(fam, "asymptotic_rate", None)
        with pytest.raises(ValueError, match=message):
            sweep(binary_spec(), [0.2, 0.3], [16, 32], **kwargs)


# refusals of the fitting layer that no shipped scenario reaches
@pytest.mark.parametrize("call, message", [
    (lambda: default_a_grid(ConvexRate(fn=lambda t: t - 1.0, right_derivative_at_1=1.0)),
     "rate curve has unbounded slope; supply thresholds explicitly"),
    (lambda: default_a_grid(ConvexRate(fn=lambda t: t - 1.0, right_derivative_at_1=1.0,
                                       slope_at_infinity=1.0)),
     "degenerate rate curve: no open threshold interval"),
    (lambda: fit_rate([4, 8], [-math.inf, -1.0]),
     "fewer than two finite log-errors in the fit window"),
], ids=["unbounded-slope", "degenerate-curve", "one-finite-log-error"])
def test_fitting_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
