"""Unit tests for the large-deviation machinery."""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from sconv import ldp
from sconv.cli import main
from sconv.ldp import (
    WeightedSampleSequence,
    binomial_sequence,
    build_rate_curve,
    chernoff_upper,
    exact_tail_rate,
    gartner_ellis_lower_check,
    lambda_bar,
    log_mgf,
    pinched_pair_sequence,
    windowed_rate,
)
from sconv.operators import HermitianOperator, rand_density, tensor_power
from sconv.renyi import psi
from sconv.operators import pinch


SHORT_JOBS_CASE = (Path(__file__).resolve().parents[1] / "perfbench" / "catalog"
                   / "pinched-and-short-jobs" / "s00")


def fair_coin_lambda(t):
    """Closed form for the fair-coin mean: log((1 + e^t)/2)."""
    return float(np.logaddexp(0.0, t)) - math.log(2.0)


def binary_kl(x, p=0.5):
    return x * math.log(x / p) + (1 - x) * math.log((1 - x) / (1 - p))


class TestSequences:
    def test_binomial_support_is_probability(self):
        seq = binomial_sequence([8, 16])
        y, lw = seq.support(8)
        assert y.size == 9
        assert float(np.exp(lw).sum()) == pytest.approx(1.0, abs=1e-12)
        assert y[0] == 0.0 and y[-1] == 1.0

    def test_ldp_run_builds_each_binomial_size_once(self, tmp_path, monkeypatch):
        # a binomial size's points start with one log-factorial table
        built = []
        log_factorials = ldp.log_factorials

        def counted(n):
            built.append(n)
            return log_factorials(n)

        monkeypatch.setattr(ldp, "log_factorials", counted)
        scenario = SHORT_JOBS_CASE / "ldp.json"
        assert main(["ldp", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
        sizes = json.loads(scenario.read_text(encoding="utf-8"))["params"]["n_list"]
        assert sorted(built) == sorted(sizes)

    def test_binomial_rejects_degenerate_prob(self):
        with pytest.raises(ValueError, match="prob"):
            binomial_sequence([4], prob=0.0)

    def test_sequence_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            WeightedSampleSequence({}, lambda n: 1.0)
        with pytest.raises(ValueError, match="positive"):
            WeightedSampleSequence({4: (np.ones(1), np.zeros(1))}, lambda n: 0.0)

    # every size is checked at construction, not only the largest
    def test_smaller_size_with_misaligned_points_refused(self):
        points = {4: (np.ones(3), np.zeros(1)), 8: (np.ones(2), np.zeros(2))}
        with pytest.raises(ValueError, match="align at n = 4"):
            WeightedSampleSequence(points, lambda n: float(n))

    @pytest.mark.parametrize("y, log_w, message", [
        ([0.1, math.nan], [0.0, 0.0], "support points must be finite at n = 4"),
        ([0.1, -math.inf], [0.0, 0.0], "support points must be finite at n = 4"),
        ([0.1, 0.2], [0.0, math.nan], "log-weights must not be NaN or +inf at n = 4"),
        ([0.1, 0.2], [0.0, math.inf], "log-weights must not be NaN or +inf at n = 4"),
    ], ids=["nan-point", "infinite-point", "nan-weight", "infinite-weight"])
    def test_non_finite_smaller_size_refused(self, y, log_w, message):
        points = {4: (y, log_w), 8: (np.ones(2), np.zeros(2))}
        with pytest.raises(ValueError, match=re.escape(message)):
            WeightedSampleSequence(points, lambda n: float(n))

    def test_zero_weight_accepted(self):
        # a log-weight of -inf is a zero weight, not a refusal
        seq = WeightedSampleSequence({4: ([0.1, 0.2], [0.0, -math.inf])}, lambda n: float(n))
        assert log_mgf(seq, 4, 1.0) == pytest.approx(0.1, abs=1e-15)

    def test_empty_smaller_size_refused(self):
        points = {4: (np.ones(0), np.zeros(0)), 8: (np.ones(2), np.zeros(2))}
        with pytest.raises(ValueError, match="empty support at n = 4"):
            WeightedSampleSequence(points, lambda n: float(n))

    def test_duplicate_sizes_collapse(self):
        assert binomial_sequence([64, 128, 128]).n_list == (64, 128)

    @pytest.mark.parametrize("build", [
        lambda: binomial_sequence([8, 16]),
        lambda: pinched_pair_sequence(HermitianOperator(np.diag([0.4, 0.6])),
                                      HermitianOperator(np.diag([0.7, 0.3])), [8, 16]),
    ], ids=["binomial", "pinched"])
    def test_log_mgf_refuses_size_outside_n_list(self, build):
        with pytest.raises(ValueError, match="n = 12 is not a size"):
            log_mgf(build(), 12, 0.5)


class TestLogMgf:
    def test_binomial_closed_form(self):
        # Lambda_n(n t)/n = log((1 + e^t)/2) exactly, independent of n
        seq = binomial_sequence([16, 64, 256])
        for n in (16, 64, 256):
            for t in (-1.0, 0.0, 0.7, 2.5):
                got = log_mgf(seq, n, n * t) / n
                assert got == pytest.approx(fair_coin_lambda(t), abs=1e-12)

    def test_grid_equals_scalar_calls(self):
        seq = binomial_sequence([16, 64, 256])
        t = np.linspace(-2.0, 3.0, 11) * 64
        grid = log_mgf(seq, 64, t)
        assert grid.tolist() == [log_mgf(seq, 64, float(ti)) for ti in t]

    @pytest.mark.parametrize("n, points", [
        (4096, 513),  # 3 rows of 4097 entries per block, 171 full blocks
        (4096, 512),  # 170 full blocks and a last block of 2 rows
        (16, 101),  # the whole grid in one block
        (20000, 5),  # a row above BLOCK: one row per block
    ], ids=["exact-multiple", "partial-last-block", "one-block", "row-above-block"])
    def test_grid_blocks_equal_scalar_calls_bit_for_bit(self, n, points):
        seq = binomial_sequence([n])
        t = np.linspace(-2.0, 3.0, points) * n
        scalar = np.array([log_mgf(seq, n, float(ti)) for ti in t])
        assert log_mgf(seq, n, t).tobytes() == scalar.tobytes()

    def test_block_cases_cross_the_boundaries_they_name(self):
        # the grids above sit on either side of a block boundary at n = 4096
        k = ldp.BLOCK // 4097
        assert k > 1 and 513 % k == 0 and 512 % k != 0
        assert 17 * 101 <= ldp.BLOCK < 20001

    def test_grid_of_two_dimensions_refused(self):
        seq = binomial_sequence([4, 8, 16])
        with pytest.raises(ValueError, match=re.escape("shape (2, 5)")):
            log_mgf(seq, 4, np.ones((2, 5)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_point_refused(self, bad):
        seq = binomial_sequence([4, 8, 16])
        with pytest.raises(ValueError, match="grid points t must be finite"):
            log_mgf(seq, 4, np.array([0.5, bad]))

    def test_empty_grid_gives_empty_float_array(self):
        got = log_mgf(binomial_sequence([4, 8, 16]), 4, np.array([]))
        assert got.dtype == np.float64 and got.shape == (0,)

    def test_rate_curve_table_peak_memory_stays_below_one_mib(self):
        # the grid is reduced in blocks: a whole 513 x 4097 table of
        # temporaries would take 16.8 MB each
        seq = binomial_sequence([1024, 2048, 4096])
        t_grid = np.linspace(0.0, 4.0, 513)
        build_rate_curve(seq, t_grid)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            build_rate_curve(seq, t_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_lambda_bar_exact_for_binomial(self):
        seq = binomial_sequence([64, 128, 256, 512])
        val, resid = lambda_bar(seq, 1.3)
        assert val == pytest.approx(fair_coin_lambda(1.3), abs=1e-12)
        assert resid < 1e-12

    def test_lambda_bar_removes_first_order_bias(self):
        # mu_n with Lambda_n(nt)/n = f(t) + g0/n: Richardson recovers f exactly
        base = binomial_sequence([32, 64, 128])
        g0 = 0.37

        seq = WeightedSampleSequence({n: (y, lw + g0) for n, (y, lw) in base.points.items()},
                                     lambda n: float(n))
        t = 0.8
        plain = log_mgf(seq, 128, 128 * t) / 128
        exact = fair_coin_lambda(t)
        assert abs(plain - exact) > 1e-3  # visible bias before extrapolation
        val, resid = lambda_bar(seq, t)
        assert val == pytest.approx(exact, abs=1e-10)
        assert resid < 1e-10


class TestRateCurve:
    def test_spline_and_legendre(self):
        seq = binomial_sequence([128, 256, 512])
        curve = build_rate_curve(seq, np.linspace(-2.0, 4.0, 121))
        for t in (-1.0, 0.5, 3.0):
            assert curve.lambda_bar(t) == pytest.approx(fair_coin_lambda(t), abs=1e-9)
        # Legendre transform of the fair coin at x is the binary KL to 1/2
        for x in (0.6, 0.7, 0.8):
            assert curve.legendre(x) == pytest.approx(binary_kl(x), abs=1e-8)

    def test_stationary_point_closed_form(self):
        # Lambda'(t) = e^t/(1+e^t) = x  =>  t = log(x/(1-x))
        seq = binomial_sequence([128, 256, 512])
        curve = build_rate_curve(seq, np.linspace(-2.0, 4.0, 121))
        assert curve.stationary_t(0.7) == pytest.approx(math.log(7.0 / 3.0), abs=1e-5)

    def test_domain_errors(self):
        seq = binomial_sequence([64, 128, 256])
        curve = build_rate_curve(seq, np.linspace(-1.0, 1.0, 41))
        with pytest.raises(ValueError, match="outside"):
            curve.lambda_bar(5.0)
        with pytest.raises(ValueError, match="slope interval"):
            curve.stationary_t(0.99)  # needs t ~ log(99) far beyond the grid

    def test_grid_validation(self):
        seq = binomial_sequence([64, 128, 256])
        with pytest.raises(ValueError, match="four"):
            build_rate_curve(seq, [0.0, 1.0])


def _oracle_grids():
    """Seeded uniform and non-uniform grids of 4 to 801 nodes, the sizes of
    the shipped rate-curve grids among them."""
    rng = np.random.default_rng(20261023)
    for n in (4, 5, 6, 9, 17, 41, 61, 121, 201, 513, 801):
        yield np.linspace(-2.0, 4.0, n)
        yield np.cumsum(rng.uniform(0.01, 1.0, n)) - 3.0


class TestScipyPorts:
    """``RateCurve``'s spline and root finder repeat scipy 1.17's
    ``CubicSpline`` and ``brentq`` to the bit."""

    def test_spline_matches_cubic_spline_bit_for_bit(self):
        rng = np.random.default_rng(20261024)
        for x in _oracle_grids():
            y = np.logaddexp(0.0, x) + rng.normal(0.0, 0.05, x.size)
            ours, ref = ldp._not_a_knot_spline(x, y), CubicSpline(x, y)
            assert ours.c.tobytes() == ref.c.tobytes(), x.size
            # inside, on every node (half-open intervals, the last closed) and past both ends
            t = np.concatenate([rng.uniform(x[0] - 1.0, x[-1] + 1.0, 300), x])
            assert ours(t).tobytes() == ref(t).tobytes(), x.size
            assert ours.derivative()(t).tobytes() == ref.derivative()(t).tobytes(), x.size
            assert [float(ours(v)) for v in t[:20]] == [float(ref(v)) for v in t[:20]]

    def test_root_finder_matches_brentq_bit_for_bit(self):
        rng = np.random.default_rng(20261025)
        for x in _oracle_grids():
            d = ldp._not_a_knot_spline(x, np.logaddexp(0.0, x)).derivative()
            for target in rng.uniform(float(d(x[0])), float(d(x[-1])), 20):
                def f(t, target=target):
                    return float(d(t)) - target
                assert ldp._brentq(f, x[0], x[-1]) == brentq(f, x[0], x[-1]), x.size

    @pytest.mark.parametrize("x, y, message", [
        ([0.0, 1.0, 2.0, 3.0], [0.0, np.nan, 1.0, 2.0], "values must be finite"),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, np.inf, 2.0], "values must be finite"),
        ([0.0, 1.0, 1.0, 3.0], [0.0, 1.0, 1.0, 2.0], "strictly increasing"),
        ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 1.0, 2.0], "strictly increasing"),
        ([0.0, 1.0, 2.0, np.inf], [0.0, 1.0, 1.0, 2.0], "finite and strictly"),
    ], ids=["nan-value", "inf-value", "repeated-node", "decreasing-node", "inf-node"])
    def test_spline_refusals(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            ldp._not_a_knot_spline(np.array(x), np.array(y))
        with pytest.raises(ValueError):  # scipy refuses the same input
            CubicSpline(x, y)

    def test_root_finder_refusals(self):
        with pytest.raises(ValueError, match="different signs"):
            ldp._brentq(lambda t: t * t + 1.0, -1.0, 1.0)

        def step(t):  # a sign change that bisection needs about 1000 halvings to pin
            return -1.0 if t < 0.3 else 1.0

        with pytest.raises(RuntimeError, match="100 iterations"):
            ldp._brentq(step, -1e300, 1e300)
        with pytest.raises(RuntimeError):
            brentq(step, -1e300, 1e300)


class TestChernoff:
    def test_matches_binary_kl(self):
        # discrete t-grid: optimum within half a grid step, error ~ curvature*(dt/2)^2
        seq = binomial_sequence([256, 512, 1024])
        for x in (0.6, 0.7, 0.85):
            bound = chernoff_upper(build_rate_curve(seq, np.linspace(0.0, 8.0, 321)), x)
            assert bound == pytest.approx(-binary_kl(x), abs=5e-5)
            assert bound >= -binary_kl(x) - 1e-12  # grid sup never exceeds true sup

    def test_dominates_exact_tails(self):
        seq = binomial_sequence([16, 64, 256, 1024])
        x = 0.7
        bound = chernoff_upper(build_rate_curve(seq, np.linspace(0.0, 8.0, 321)), x)
        for n in seq.n_list:
            assert exact_tail_rate(seq, n, x) <= bound + 1e-12

    def test_lower_side(self):
        seq = binomial_sequence([256, 512, 1024])
        x = 0.3
        bound = chernoff_upper(build_rate_curve(seq, np.linspace(-32.0, 0.0, 129)), x,
                               side="le")  # coarse grid
        assert bound == pytest.approx(-binary_kl(x), abs=5e-3)
        for n in seq.n_list:
            assert exact_tail_rate(seq, n, x, side="le") <= bound + 1e-12

    def test_never_positive_for_probability_measures(self):
        seq = binomial_sequence([64, 128, 256])
        assert chernoff_upper(build_rate_curve(seq, np.linspace(0.0, 32.0, 129)), 0.5) <= 1e-12

    def test_grid_equals_pointwise_sup(self):
        seq = binomial_sequence([256, 512, 1024])
        t_grid = np.linspace(0.0, 8.0, 321)
        for x in (0.6, 0.7):
            pointwise = -max(t * x - lambda_bar(seq, float(t))[0] for t in t_grid)
            assert chernoff_upper(build_rate_curve(seq, t_grid), x) == pointwise

    def test_side_validation(self):
        seq = binomial_sequence([64, 128, 256])
        with pytest.raises(ValueError, match="side"):
            chernoff_upper(build_rate_curve(seq, np.linspace(0, 1, 11)), 0.6, side="both")
        with pytest.raises(ValueError, match="t >= 0"):
            chernoff_upper(build_rate_curve(seq, np.linspace(-1, 1, 11)), 0.6)

    def test_grid_needs_the_zero_node(self):
        seq = binomial_sequence([64, 128, 256])
        with pytest.raises(ValueError, match="t = 0"):
            chernoff_upper(build_rate_curve(seq, np.linspace(0.5, 2.0, 11)), 0.6)
        with pytest.raises(ValueError, match="t <= 0"):
            chernoff_upper(build_rate_curve(seq, np.linspace(0.0, 2.0, 11)), 0.3, side="le")


class TestTailHelpers:
    def test_exact_tail_rate_small_case(self):
        seq = binomial_sequence([4])
        # P(mean >= 3/4) = (C(4,3) + C(4,4)) / 16 = 5/16
        assert exact_tail_rate(seq, 4, 0.75) == pytest.approx(
            math.log(5.0 / 16.0) / 4.0, abs=1e-12
        )

    def test_windowed_rate_open_window(self):
        seq = binomial_sequence([4])
        # open (0.5, 1): k = 3 only -> 4/16
        assert windowed_rate(seq, 4, 0.5, 1.0) == pytest.approx(
            math.log(4.0 / 16.0) / 4.0, abs=1e-12
        )

    def test_exact_tail_rate_side_validation(self):
        seq = binomial_sequence([4])
        with pytest.raises(ValueError, match="side"):
            exact_tail_rate(seq, 4, 0.5, side="both")

    def test_empty_tail_is_minus_inf(self):
        seq = binomial_sequence([4])
        assert exact_tail_rate(seq, 4, 1.5) == -math.inf
        assert windowed_rate(seq, 4, 0.96, 0.99) == -math.inf


class TestGartnerEllisLower:
    def test_binomial_margins_shrink(self):
        seq = binomial_sequence([256, 512, 1024, 2048, 4096])
        verdict = gartner_ellis_lower_check(
            build_rate_curve(seq, np.linspace(-1.0, 4.0, 201)), 0.7, (0.7, 1.0),
            delta_fraction=1.0 / 6.0
        )
        assert verdict.t_x == pytest.approx(math.log(7.0 / 3.0), abs=1e-6)
        assert verdict.legendre_value == pytest.approx(binary_kl(0.7), abs=1e-7)
        margins = [m for _, m in verdict.margins]
        # margins approach zero from below as n grows
        assert all(m <= 1e-12 for m in margins)
        assert margins[-1] > margins[0]
        assert abs(verdict.final_margin) < 0.01
        assert verdict.tilted_mass >= 0.99
        assert verdict.notes == ()

    def test_curve_equals_pointwise_lambda_bar(self):
        seq = binomial_sequence([256, 512, 1024])
        verdict = gartner_ellis_lower_check(
            build_rate_curve(seq, np.linspace(-1.0, 4.0, 41)), 0.7, (0.7, 1.0))
        t_grid = np.linspace(-1.0, 4.0, 41)
        values = build_rate_curve(seq, t_grid).values
        assert verdict.curve.values.tolist() == values.tolist()
        assert values.tolist() == [lambda_bar(seq, t)[0] for t in t_grid]

    def test_reads_the_table_of_its_curve(self, monkeypatch):
        curve = build_rate_curve(binomial_sequence([256, 512, 1024]),
                                 np.linspace(-1.0, 4.0, 41))
        monkeypatch.setattr(ldp, "log_mgf", None)  # any new table would call it
        for x in (0.6, 0.7):
            verdict = gartner_ellis_lower_check(curve, x, (x, 1.0))
            assert verdict.curve is curve
            assert verdict.legendre_value == pytest.approx(binary_kl(x), abs=1e-6)

    def test_narrow_tilt_window_flagged(self):
        seq = binomial_sequence([256, 512, 1024, 2048, 4096])
        verdict = gartner_ellis_lower_check(
            build_rate_curve(seq, np.linspace(-1.0, 4.0, 201)), 0.7, (0.7, 1.0),
            delta_fraction=0.05
        )
        # the 5% default window is CLT-narrow at n = 4096: mass visibly < 0.99
        assert verdict.tilted_mass < 0.99
        assert any("tilted mass" in note for note in verdict.notes)

    def test_convergence_gate(self):
        # log-weights drifting with n at O(1) per point break the Cauchy gate
        points = {n: (np.array([0.0, 1.0]),
                      np.array([math.log(0.5) + 0.5 * math.sqrt(n), math.log(0.5)]))
                  for n in (64, 128, 256)}
        seq = WeightedSampleSequence(points, lambda n: float(n))
        with pytest.raises(ValueError, match="Cauchy"):
            # from t = 0.5 on the extrapolated curve is the line t, so the
            # convexity gate of the build passes and the Cauchy gate refuses
            gartner_ellis_lower_check(build_rate_curve(seq, np.linspace(0.5, 2.0, 201)),
                                      0.6, (0.6, 1.0))

    def test_window_validation(self):
        seq = binomial_sequence([64, 128, 256])
        with pytest.raises(ValueError, match="left edge"):
            gartner_ellis_lower_check(seq, 0.5, (0.6, 1.0), (0.0, 2.0))

    def test_needs_three_sizes(self):
        seq = binomial_sequence([64, 128])
        with pytest.raises(ValueError, match="three"):
            gartner_ellis_lower_check(build_rate_curve(seq, np.linspace(0.0, 2.0, 201)),
                                      0.6, (0.6, 1.0))


    def test_pinched_sectors_computed_once_per_size(self, sector_calls):
        rho1 = HermitianOperator(np.diag([0.4, 0.6]))
        sigma1 = HermitianOperator(np.array([[0.7, 0.02], [0.02, 0.3]]))
        seq = pinched_pair_sequence(rho1, sigma1, (6, 8, 10))
        verdict = gartner_ellis_lower_check(
            build_rate_curve(seq, np.linspace(-1.0, 2.0, 201)), 0.3, (0.3, 1.0))
        assert len(sector_calls) == sum(n + 1 for n in seq.n_list)


class TestPinchedPairSequence:
    def test_sigma_weights_reproduce_psi(self, rng):
        rho1, sigma1 = rand_density(2, rng), rand_density(2, rng)
        seq = pinched_pair_sequence(rho1, sigma1, [4, 6])
        for n in (4, 6):
            rho_n = tensor_power(rho1, n)
            sigma_n = tensor_power(sigma1, n)
            rho_hat = pinch(rho_n, sigma_n)
            for t in (0.5, 1.5):
                got = log_mgf(seq, n, n * t)
                expect = psi(rho_hat, sigma_n, t)
                assert got == pytest.approx(expect, abs=1e-9)

    def test_rho_weights_shift_by_one(self, rng):
        rho1, sigma1 = rand_density(2, rng), rand_density(2, rng)
        s_sig = pinched_pair_sequence(rho1, sigma1, [5])
        s_rho = pinched_pair_sequence(rho1, sigma1, [5], under="rho_hat")
        for t in (0.3, 1.2):
            assert log_mgf(s_rho, 5, 5 * t) == pytest.approx(
                log_mgf(s_sig, 5, 5 * (t + 1.0)), abs=1e-9
            )

    def test_total_masses(self, rng):
        rho1, sigma1 = rand_density(2, rng), rand_density(2, rng)
        s_sig = pinched_pair_sequence(rho1, sigma1, [4])
        s_rho = pinched_pair_sequence(rho1, sigma1, [4], under="rho_hat")
        _, lw_s = s_sig.support(4)
        _, lw_r = s_rho.support(4)
        assert float(np.exp(lw_s).sum()) == pytest.approx(1.0, abs=1e-10)
        assert float(np.exp(lw_r).sum()) == pytest.approx(1.0, abs=1e-10)

    def test_reference_validation(self, rng):
        rho1 = rand_density(2, rng)
        degenerate = HermitianOperator(0.5 * np.eye(2))
        with pytest.raises(ValueError, match="nondegenerate"):
            pinched_pair_sequence(rho1, degenerate, [4])

    def test_over_cap_sector_refused_before_any_block(self, rng, sector_calls):
        # block 361's sector spectra sum 2,009,462 closed-form terms, over the
        # cap of 2,000,000 (block 360 sums 1,992,991)
        rho1, sigma1 = rand_density(2, rng), rand_density(2, rng)
        with pytest.raises(ValueError, match="cap"):
            pinched_pair_sequence(rho1, sigma1, [361])
        assert sector_calls == []

    def test_over_cap_size_refused_before_any_smaller_one(self, rng, sector_calls):
        # block 6 is under the cap and block 361 over it: no sector of either is built
        rho1, sigma1 = rand_density(2, rng), rand_density(2, rng)
        with pytest.raises(ValueError, match="block 361 exceeds cap"):
            pinched_pair_sequence(rho1, sigma1, [6, 361])
        assert sector_calls == []


# a two-point support at n = 1 and a point mass at n = 2 extrapolate to
# 0 - log cosh(t), which is concave
@pytest.mark.parametrize("points, message", [
    ({1: ([-1.0, 1.0], [math.log(0.5)] * 2), 2: ([0.0], [0.0])},
     "extrapolated curve is visibly non-convex; refuse to spline"),
], ids=["concave-extrapolation"])
def test_rate_curve_refusals(points, message):
    seq = WeightedSampleSequence(points, c=float)
    with pytest.raises(ValueError, match=re.escape(message)):
        build_rate_curve(seq, np.linspace(-2.0, 2.0, 9))
