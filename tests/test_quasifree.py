"""Unit tests for the quasi-free fermion machinery."""

import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from sconv import quasifree
from sconv.hyptest import sc_report
from sconv.operators import HermitianOperator
from sconv.quasifree import (
    QuasiFreePayload,
    TrigPolySymbol,
    fock_density,
    quasifree_block_symbol,
    quasifree_psi_singleparticle,
    quasifree_rate,
    quasifree_relent_limit,
    quasifree_slope_at_infinity,
    singleparticle_psi,
    szego_limit,
)
from sconv.renyi import psi, relative_entropy

from helpers import fock_basis


def payload_1d():
    return QuasiFreePayload(
        nu=1,
        q_symbol=TrigPolySymbol(0.45, cos_coeffs=(0.15,)),
        r_symbol=TrigPolySymbol(0.55, cos_coeffs=(-0.1,), sin_coeffs=(0.08,)),
        c_bound=0.2,
    )


def payload_2d():
    q = lambda x, y: 0.5 + 0.1 * np.cos(x) + 0.05 * np.sin(y)
    r = lambda x, y: 0.45 - 0.08 * np.cos(y)
    return QuasiFreePayload(nu=2, q_symbol=q, r_symbol=r, c_bound=0.25)


def draw0_payload():
    """The quasi-free pair of the benchmark's draw 0."""
    case = Path(__file__).resolve().parents[1] / "perfbench" / "catalog"
    scenario = json.loads((case / "quasifree-sc-report" / "s00" / "sc_report.json").read_text())
    return QuasiFreePayload.from_json(scenario["family"]["payload"])


class TestSymbolsAndPayload:
    def test_trig_poly_evaluation(self):
        sym = TrigPolySymbol(0.5, cos_coeffs=(0.1, 0.05), sin_coeffs=(0.2,))
        x = 0.7
        expect = 0.5 + 0.1 * math.cos(x) + 0.05 * math.cos(2 * x) + 0.2 * math.sin(x)
        assert sym(x) == pytest.approx(expect, abs=1e-15)

    def test_payload_rejects_escaping_symbol(self):
        with pytest.raises(ValueError, match="escapes"):
            QuasiFreePayload(1, TrigPolySymbol(0.5, cos_coeffs=(0.45,)),
                             TrigPolySymbol(0.5), 0.2)

    def test_payload_rejects_bad_bound(self):
        with pytest.raises(ValueError, match="c_bound"):
            QuasiFreePayload(1, TrigPolySymbol(0.5), TrigPolySymbol(0.5), 0.7)

    def test_scalar_reference(self):
        assert not payload_1d().scalar_reference
        assert not payload_2d().scalar_reference
        flat = QuasiFreePayload(1, TrigPolySymbol(0.45, (0.1,)), TrigPolySymbol(0.5), 0.2)
        assert flat.scalar_reference
        flat_2d = QuasiFreePayload(2, lambda x, y: 0.45 + 0.1 * np.cos(x),
                                   lambda x, y: 0.5 + 0.0 * x, 0.2)
        assert flat_2d.scalar_reference

    def test_scalar_reference_reads_trig_coefficients(self):
        # sin(256x) vanishes at all 512 points of the sampling grid
        aliased = TrigPolySymbol(0.5, sin_coeffs=(0.0,) * 255 + (0.1,))
        assert not QuasiFreePayload(1, TrigPolySymbol(0.45, (0.1,)), aliased, 0.2).scalar_reference
        zeros = TrigPolySymbol(0.5, cos_coeffs=(0.0, 0.0), sin_coeffs=(0.0,))
        assert QuasiFreePayload(1, TrigPolySymbol(0.45, (0.1,)), zeros, 0.2).scalar_reference

    def test_payload_rejects_bad_nu(self):
        with pytest.raises(ValueError, match="lattice"):
            QuasiFreePayload(3, TrigPolySymbol(0.5), TrigPolySymbol(0.5), 0.2)


class TestToeplitzCompression:
    def test_constant_symbol_is_scalar_matrix(self):
        p = QuasiFreePayload(1, TrigPolySymbol(0.4), TrigPolySymbol(0.3), 0.25)
        qn, rn = quasifree_block_symbol(p, 5)
        assert np.allclose(qn.entries, 0.4 * np.eye(5), atol=1e-10)
        assert np.allclose(rn.entries, 0.3 * np.eye(5), atol=1e-10)

    def test_trig_poly_fourier_coefficients(self):
        # cos(x) contributes 1/2 on the first off-diagonals, sin(x) +-1/(2i)
        p = QuasiFreePayload(
            1, TrigPolySymbol(0.5, cos_coeffs=(0.2,), sin_coeffs=(0.1,)),
            TrigPolySymbol(0.5), 0.1,
        )
        qn, _ = quasifree_block_symbol(p, 4)
        expect = (
            0.5 * np.eye(4)
            + 0.1 * (np.eye(4, k=1) + np.eye(4, k=-1))
            + 0.05j * (np.eye(4, k=1) - np.eye(4, k=-1))
        )
        assert np.abs(qn.entries - expect).max() < 1e-10

    def test_spectrum_inside_symbol_window(self):
        p = payload_1d()
        qn, rn = quasifree_block_symbol(p, 16)
        for op in (qn, rn):
            assert op.min_eigenvalue > p.c_bound - 1e-8
            assert op.max_eigenvalue < 1.0 - p.c_bound + 1e-8

    def test_2d_block_toeplitz_constant(self):
        p = QuasiFreePayload(2, lambda x, y: 0.4 + 0 * x * y,
                             lambda x, y: 0.6 + 0 * x * y, 0.3)
        qn, rn = quasifree_block_symbol(p, 3)
        assert qn.dim == 9
        assert np.allclose(qn.entries, 0.4 * np.eye(9), atol=1e-10)

    def test_dim_cap(self):
        with pytest.raises(ValueError, match="cap"):
            quasifree_block_symbol(payload_2d(), 100)

    @pytest.mark.parametrize("n", [1, 6, 10])
    def test_1d_is_scipy_toeplitz_bit_for_bit(self, n):
        # oracle: scipy's toeplitz of the first column, constant term real
        grid = quasifree.FOURIER_GRID_1D
        x = 2.0 * np.pi * np.arange(grid) / grid
        p = draw0_payload()
        for sym in (p.q_symbol, p.r_symbol):
            col = (np.fft.fft(sym(x)) / grid)[:n]
            col[0] = col[0].real
            t = quasifree._toeplitz_compression(sym, 1, n)
            assert t.tobytes() == scipy.linalg.toeplitz(col).tobytes()

    @pytest.mark.parametrize("payload", [payload_1d, payload_2d, draw0_payload])
    def test_exactly_hermitian(self, payload):
        p = payload()
        for sym in (p.q_symbol, p.r_symbol):
            t = quasifree._toeplitz_compression(sym, p.nu, 4)
            assert np.array_equal(t, t.conj().T)

    def test_2d_within_rounding_of_averaged_construction(self):
        # oracle: index arithmetic over the 2-D coefficients, then (t + t^+)/2
        n, grid = 8, quasifree.FOURIER_GRID_2D
        mixed = lambda x, y: 0.5 + 0.2 * np.cos(x) + 0.1 * np.sin(y) + 0.03 * np.sin(x + 2 * y)
        for sym in (payload_2d().q_symbol, mixed):
            coeffs = np.fft.fft2(quasifree._sample_symbol(sym, 2, grid)) / grid**2
            diff = np.mod(np.arange(n)[:, None] - np.arange(n)[None, :], grid)
            t = coeffs[diff[:, None, :, None], diff[None, :, None, :]].reshape(n * n, n * n)
            oracle = 0.5 * (t + t.conj().T)
            assert np.abs(quasifree._toeplitz_compression(sym, 2, n) - oracle).max() <= 1e-17


class TestFockOracle:
    def test_fock_basis_order(self):
        basis = fock_basis(3)
        assert basis[0] == (0, ())
        assert basis[1:4] == [(1, (0,)), (1, (1,)), (1, (2,))]
        assert basis[-1] == (3, (0, 1, 2))
        assert len(basis) == 8

    def test_single_mode_density(self):
        q = HermitianOperator(np.array([[0.3]]))
        w = fock_density(q)
        assert np.allclose(w.entries, np.diag([0.7, 0.3]), atol=1e-12)

    def test_two_commuting_modes(self):
        q = HermitianOperator(np.diag([0.3, 0.4]))
        w = fock_density(q)
        # sector order 0; {0}; {1}; {0,1}
        expect = np.diag([0.7 * 0.6, 0.3 * 0.6, 0.7 * 0.4, 0.3 * 0.4])
        assert np.allclose(w.entries, expect, atol=1e-12)

    def test_occupation_marginals(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((4, 4))
        sym = HermitianOperator(0.5 * np.eye(4) + 0.05 * (g + g.T))
        w = fock_density(sym)
        assert w.trace == pytest.approx(1.0, abs=1e-10)
        # <n_i> equals Q_ii: sum the weight of basis states occupying mode i
        basis = fock_basis(4)
        diag = np.diag(w.entries).real
        for i in range(4):
            occ = sum(diag[b] for b, (k, s) in enumerate(basis) if i in s)
            assert occ == pytest.approx(sym.entries[i, i].real, abs=1e-10)

    def test_mode_cap(self):
        with pytest.raises(ValueError, match="cap"):
            fock_density(HermitianOperator(0.5 * np.eye(13)))

    @pytest.mark.parametrize("m", [1, 4, 7])
    def test_sectors_are_particle_numbers(self, m):
        qn, _ = quasifree_block_symbol(payload_1d(), m)
        w = fock_density(qn)
        assert w.sectors == tuple(math.comb(m, k) for k in range(m + 1))
        # the basis order of fock_basis walks the same sectors
        counts = [k for k, _ in fock_basis(m)]
        assert tuple(counts.count(k) for k in range(m + 1)) == w.sectors


def _lu_minor_sectors(symbol):
    """Oracle: the particle-number sectors ``det(I-Q) wedge^k A`` of the Fock
    density, each ``k x k`` minor of ``A = Q (I-Q)^{-1}`` by its own LU, with
    the ``A`` of ``quasifree.fock_density``."""
    m = symbol.dim
    lam = symbol.eigenvalues
    c0 = math.exp(float(np.log1p(-lam).sum()))
    a = (symbol.eigenvectors * (lam / (1.0 - lam))) @ symbol.eigenvectors.conj().T
    a = 0.5 * (a + a.conj().T)
    sectors = [np.full((1, 1), c0, dtype=complex)]
    for k in range(1, m + 1):
        subs = np.array(list(itertools.combinations(range(m), k)), dtype=int)
        sectors.append(c0 * np.linalg.det(a[subs[:, None, :, None], subs[None, :, None, :]]))
    return sectors


def _seeded_symbol(seed, c_bound):
    """Trig polynomial ``0.5 + `` three cosine and three sine terms whose
    absolute coefficients sum to ``0.5 - c_bound``, so that its values stay in
    ``[c_bound, 1 - c_bound]``."""
    coeffs = np.random.default_rng(seed).normal(size=6)
    coeffs *= (0.5 - c_bound) / np.abs(coeffs).sum()
    return TrigPolySymbol(0.5, tuple(coeffs[:3]), tuple(coeffs[3:]))


def minor_tolerance(k, kappa):
    """Largest difference between the Laplace-recursion and LU sectors, relative
    to the sector's largest entry: ``2 k eps kappa`` for ``k x k`` minors of an
    ``A`` with condition number ``kappa``.

    Each builder returns, to first order, the exact minors of a matrix whose
    entries are off by at most ``k`` rounding units: LU with partial pivoting is
    backward stable, and the recursion rounds each product and each partial sum
    once per level, ``k`` levels deep.  A relative change ``d`` in the entries
    moves a ``k x k`` minor by at most ``k d kappa(B)`` of its scale (the
    derivative of ``log det B`` along ``dB`` is ``Tr B^{-1} dB``), and
    ``kappa(B) <= kappa(A)`` for the positive definite ``A`` by interlacing.
    The sector is positive semidefinite, so its largest entry is on its
    diagonal and bounds every entry.  The two builders err independently, so
    their difference stays within twice one builder's bound.  Measured on 60
    seeded symbols (``c_bound`` 0.005, 0.05, 0.2; ``m <= 10``): at most
    ``0.43 k eps kappa``.
    """
    return 2 * k * np.finfo(float).eps * kappa


@pytest.fixture
def fock_builds(monkeypatch):
    """Symbol dimension of every Fock density built."""
    builds = []
    build = quasifree.fock_density

    def counted(symbol):
        builds.append(symbol.dim)
        return build(symbol)

    monkeypatch.setattr(quasifree, "fock_density", counted)
    return builds


class TestSectorRecursion:
    @pytest.mark.parametrize("c_bound", [0.005, 0.05, 0.2])
    @pytest.mark.parametrize("m", range(1, 11))
    def test_sectors_match_lu_minors(self, c_bound, m):
        for seed in range(3):
            p = QuasiFreePayload(1, _seeded_symbol(seed, c_bound), TrigPolySymbol(0.5), c_bound)
            q, _ = quasifree_block_symbol(p, m)
            ahat = q.eigenvalues / (1.0 - q.eigenvalues)
            w = fock_density(q)
            edges = np.cumsum((0,) + w.sectors)
            for k, (lo, hi, oracle) in enumerate(zip(edges, edges[1:], _lu_minor_sectors(q))):
                scale = np.abs(oracle).max()
                err = np.abs(w.entries[lo:hi, lo:hi] - oracle).max()
                assert err <= minor_tolerance(max(k, 1), ahat.max() / ahat.min()) * scale, \
                    (seed, k, err / scale)

    def test_default_gate_accepts_density_at_c_bound(self):
        # q = 0.5 + 0.449 cos x has range [0.051, 0.949], against c_bound = 0.05
        p = QuasiFreePayload(1, TrigPolySymbol(0.5, (0.449,)), TrigPolySymbol(0.5), 0.05)
        q, _ = quasifree_block_symbol(p, 10)
        w = fock_density(q)
        assert w.sectors == tuple(math.comb(10, k) for k in range(11))
        assert w.trace == pytest.approx(1.0, abs=1e-10)

    def test_builds_no_determinant_and_one_eigh_per_sector(self, monkeypatch):
        m = 6
        q, _ = quasifree_block_symbol(payload_1d(), m)
        calls = {"det": 0, "eigh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "det", counted("det", np.linalg.det))
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        fock_density(q)
        assert calls == {"det": 0, "eigh": m + 1}


class TestFockMemo:
    def test_sc_report_builds_each_density_once(self, fock_builds):
        case = Path(__file__).resolve().parents[1] / "perfbench" / "catalog"
        scenario = json.loads(
            (case / "quasifree-sc-report" / "s00" / "sc_report.json").read_text())
        family = QuasiFreePayload.from_json(scenario["family"]["payload"])
        rate = quasifree_rate(family)
        reports = sc_report(family, scenario["params"]["r_grid"], scenario["params"]["n_list"],
                            rate=rate)
        assert len(reports) == len(scenario["params"]["r_grid"])
        assert sorted(fock_builds) == sorted(2 * scenario["params"]["n_list"])

    @pytest.mark.parametrize("slot", ["entries", "eigenvalues", "eigenvectors"])
    def test_cached_density_is_read_only(self, slot):
        qn, _ = quasifree_block_symbol(payload_1d(), 3)
        arr = getattr(fock_density(qn), slot)
        with pytest.raises(ValueError):
            arr[0] = 0.0


class TestSingleParticleFormulas:
    @pytest.mark.parametrize("variant", ["plain", "sandwiched"])
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_matches_fock_oracle(self, variant, alpha):
        p = payload_1d()
        qn, rn = quasifree_block_symbol(p, 5)
        got = singleparticle_psi(qn, rn, alpha, variant=variant)
        oracle = psi(fock_density(qn), fock_density(rn), alpha, variant=variant)
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_commuting_symbols_binary_product(self):
        # diagonal single-particle data factorizes into binary cumulants
        q = HermitianOperator(np.diag([0.3, 0.45]))
        r = HermitianOperator(np.diag([0.55, 0.4]))
        alpha = 2.5
        expect = sum(
            math.log(
                qq**alpha * rr ** (1 - alpha)
                + (1 - qq) ** alpha * (1 - rr) ** (1 - alpha)
            )
            for qq, rr in [(0.3, 0.55), (0.45, 0.4)]
        )
        for variant in ("plain", "sandwiched"):
            assert singleparticle_psi(q, r, alpha, variant) == pytest.approx(
                expect, abs=1e-12
            )

    def test_identical_symbols_give_zero(self):
        p = QuasiFreePayload(1, TrigPolySymbol(0.4, cos_coeffs=(0.1,)),
                             TrigPolySymbol(0.4, cos_coeffs=(0.1,)), 0.25)
        for alpha in (1.5, 4.0):
            assert abs(quasifree_psi_singleparticle(p, 6, alpha)) < 1e-10

    def test_rejects_spectrum_outside_unit_interval(self):
        bad = HermitianOperator(np.diag([0.5, 1.0]))
        ok = HermitianOperator(np.diag([0.5, 0.5]))
        with pytest.raises(ValueError, match="strictly inside"):
            singleparticle_psi(bad, ok, 2.0)


class TestLimits:
    def test_constant_symbols_have_closed_form(self):
        q0, r0 = 0.35, 0.55
        p = QuasiFreePayload(1, TrigPolySymbol(q0), TrigPolySymbol(r0), 0.3)
        alpha = 2.0
        expect = math.log(
            q0**alpha * r0 ** (1 - alpha) + (1 - q0) ** alpha * (1 - r0) ** (1 - alpha)
        )
        assert szego_limit(p, alpha) == pytest.approx(expect, abs=1e-12)
        # per-mode value is exactly n * limit for constant symbols
        assert quasifree_psi_singleparticle(p, 7, alpha) == pytest.approx(
            7 * expect, abs=1e-9
        )

    def test_relent_limit_matches_binary_divergence(self):
        q0, r0 = 0.35, 0.55
        p = QuasiFreePayload(1, TrigPolySymbol(q0), TrigPolySymbol(r0), 0.3)
        rho = HermitianOperator(np.diag([q0, 1 - q0]))
        sig = HermitianOperator(np.diag([r0, 1 - r0]))
        assert quasifree_relent_limit(p) == pytest.approx(
            relative_entropy(rho, sig), abs=1e-12
        )

    def test_relent_is_szego_derivative_at_one(self):
        p = payload_1d()
        h = 1e-6
        fd = (szego_limit(p, 1.0 + h) - szego_limit(p, 1.0 - h)) / (2 * h)
        assert quasifree_relent_limit(p) == pytest.approx(fd, rel=1e-6)

    def test_slope_at_infinity_dominates_curve(self):
        p = payload_1d()
        slope = quasifree_slope_at_infinity(p)
        for alpha in (4.0, 16.0, 64.0):
            assert szego_limit(p, alpha) <= slope * (alpha - 1.0) + 1e-9

    def test_rate_curve_wiring(self):
        p = payload_1d()
        f = quasifree_rate(p)
        assert f(1.0) == pytest.approx(0.0, abs=1e-12)
        assert f.right_derivative_at_1 == pytest.approx(
            quasifree_relent_limit(p), abs=1e-12
        )
        assert f.slope_is_exact

    def test_rate_samples_symbols_once(self):
        p = payload_1d()
        q_symbol, calls = p.q_symbol, []
        p.q_symbol = lambda x: calls.append(x.size) or q_symbol(x)
        f = quasifree_rate(p)
        values = [f.fn(t) for t in (0.5, 2.0, 7.0)]
        assert calls == [quasifree.QUAD_GRID]
        # the shared samples give every quadrature's floats unchanged
        f1 = szego_limit(p, 1.0)
        assert values == [szego_limit(p, t) - f1 for t in (0.5, 2.0, 7.0)]
        assert f.right_derivative_at_1 == quasifree_relent_limit(p)
        assert f.slope_at_infinity == quasifree_slope_at_infinity(p)

    def test_2d_limits_match_row_loop_oracle(self, monkeypatch):
        # grid 512 is two blocks of 256 rows; every limit must keep the floats of
        # a plain row-by-row sum with the same integrands
        p, grid = payload_2d(), 512
        monkeypatch.setattr(quasifree, "QUAD_GRID", grid)

        def row_mean(integrand):
            x = 2.0 * np.pi * np.arange(grid) / grid
            total = 0.0
            rows = 256
            for i0 in range(0, grid, rows):
                xi = x[i0 : i0 + rows, None]
                shape = (xi.shape[0], grid)
                qv = np.broadcast_to(np.asarray(p.q_symbol(xi, x[None, :]), dtype=float), shape)
                rv = np.broadcast_to(np.asarray(p.r_symbol(xi, x[None, :]), dtype=float), shape)
                total += float(integrand(qv, rv, np.log(qv), np.log(rv), np.log1p(-qv),
                                         np.log1p(-rv)).sum())
            return total / grid**2

        def szego(alpha):
            return lambda q, r, lq, lr, l1q, l1r: np.logaddexp(
                alpha * lq + (1.0 - alpha) * lr, alpha * l1q + (1.0 - alpha) * l1r)

        for alpha in (2.0, 30.0):
            assert szego_limit(p, alpha) == row_mean(szego(alpha))
        assert quasifree_relent_limit(p) == row_mean(
            lambda q, r, lq, lr, l1q, l1r: q * (lq - lr) + (1.0 - q) * (l1q - l1r))
        assert quasifree_slope_at_infinity(p) == row_mean(
            lambda q, r, lq, lr, l1q, l1r: np.maximum(lq - lr, l1q - l1r))

    def test_2d_limits_consistent(self, monkeypatch):
        p = payload_2d()
        n = 6
        per_mode = quasifree_psi_singleparticle(p, n, 2.0) / n**2
        monkeypatch.setattr(quasifree, "QUAD_GRID", 512)
        lim = szego_limit(p, 2.0)
        assert per_mode == pytest.approx(lim, abs=0.05)



def _narrowed_bound_payload():
    """``payload_1d`` with ``c_bound`` raised past its symbols' range after its
    own range check has passed."""
    payload = payload_1d()
    payload.c_bound = 0.45
    return payload


# refusals that no shipped scenario reaches
@pytest.mark.parametrize("call, message", [
    (lambda: quasifree_block_symbol(_narrowed_bound_payload(), 4), "violates symbol bounds"),
    (lambda: singleparticle_psi(*quasifree_block_symbol(payload_1d(), 3), 0.0),
     "order must be positive"),
    (lambda: szego_limit(payload_1d(), -1.0), "order must be positive"),
    (lambda: quasifree._symbol_to_json(payload_2d().q_symbol),
     "only trig-polynomial coefficient tables serialize to JSON"),
], ids=["symbol-bounds", "singleparticle-order", "szego-order", "callable-symbol"])
def test_quasifree_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
