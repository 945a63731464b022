"""Unit tests for the dense Hermitian primitives."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.special
from scipy.linalg import block_diag

from sconv import operators
from sconv.operators import (
    HermitianOperator,
    StatePair,
    _direct_sum,
    distinct_eigenvalue_count,
    eigenvalue_clusters,
    log_factorials,
    log_on_support,
    logsumexp,
    logsumexp_rows,
    operator_from_json,
    operator_to_json,
    pinch,
    positive_part_trace,
    power_on_support,
    psd_dominates,
    rand_density,
    supports_nested,
    tensor_power,
    tensor_product,
    xlogy,
)
from sconv.operators import Test as BinaryTest
from sconv.quasifree import QuasiFreePayload, TrigPolySymbol, fock_density, quasifree_block_symbol

from helpers import rand_hermitian, rand_test


class TestHermitianOperator:
    def test_spectral_reconstruction(self, rng):
        op = rand_hermitian(6, rng)
        w, v = op.eigenvalues, op.eigenvectors
        assert np.allclose((v * w) @ v.conj().T, op.entries, atol=1e-12)
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianOperator(np.zeros((2, 3)))

    @pytest.mark.parametrize("build", [HermitianOperator,
                                       lambda a: HermitianOperator.block_diagonal([a])])
    def test_hermiticity_gate_is_the_module_constant(self, build):
        # both constructors check against HERMITICITY_TOL (1e-12) and take no other
        msg = "matrix is not Hermitian: relative deviation 1.000e-11 exceeds 1.0e-12"
        with pytest.raises(ValueError) as err:
            build(np.array([[1.0, 0.5], [0.5 + 1e-11, 1.0]]))
        assert str(err.value) == msg
        assert build(np.array([[1.0, 0.5], [0.5 + 5e-13, 1.0]])).dim == 2

    def test_from_spectral_round_trip(self, rng):
        op = rand_hermitian(5, rng)
        rebuilt = HermitianOperator.from_spectral(op.eigenvalues, op.eigenvectors)
        assert np.allclose(rebuilt.entries, op.entries, atol=1e-12)

    def test_scalar_summaries(self):
        op = HermitianOperator(np.diag([-1.0, 0.5, 2.0]))
        assert op.trace == pytest.approx(1.5)
        assert op.norm == pytest.approx(2.0)
        assert op.min_eigenvalue == pytest.approx(-1.0)
        assert op.max_eigenvalue == pytest.approx(2.0)

    def test_support_and_rank(self):
        op = HermitianOperator(np.diag([0.0, 0.0, 0.3, 0.7]))
        assert op.support_indices().size == 2
        proj = power_on_support(op, 0.0)
        assert proj.trace == pytest.approx(2.0)
        assert np.allclose(proj.entries @ op.entries, op.entries, atol=1e-12)


class TestBlockDiagonal:
    def _blocks(self, rng):
        return [rand_hermitian(d, rng).entries for d in (1, 4, 6, 4, 1)]

    def test_matches_dense_assembly(self, rng):
        blocks = self._blocks(rng)
        op = HermitianOperator.block_diagonal(blocks)
        dense = HermitianOperator(block_diag(*blocks))
        assert np.array_equal(op.entries, dense.entries)
        assert op.sectors == (1, 4, 6, 4, 1)
        assert dense.sectors == (16,)
        assert np.all(np.diff(op.eigenvalues) >= 0)
        assert np.abs(op.eigenvalues - dense.eigenvalues).max() <= 1e-13
        v, w = op.eigenvectors, op.eigenvalues
        assert np.abs(op.entries @ v - v * w).max() <= 1e-13
        assert np.allclose(v.conj().T @ v, np.eye(16), atol=1e-13)

    def test_eigenvectors_stay_in_their_block(self, rng):
        op = HermitianOperator.block_diagonal(self._blocks(rng))
        edges = np.cumsum((0,) + op.sectors)
        for col in op.eigenvectors.T:
            nonzero = np.nonzero(col)[0]
            k = np.searchsorted(edges, nonzero[0], side="right") - 1
            assert edges[k] <= nonzero.min() and nonzero.max() < edges[k + 1]

    def test_rejects_non_hermitian_block_with_dense_message(self, rng):
        blocks = self._blocks(rng)
        blocks[2] = blocks[2] + np.triu(np.ones((6, 6)), 1)
        with pytest.raises(ValueError, match="not Hermitian") as dense:
            HermitianOperator(block_diag(*blocks))
        with pytest.raises(ValueError) as split:
            HermitianOperator.block_diagonal(blocks)
        assert str(split.value) == str(dense.value)

    @staticmethod
    def _assert_lazy_forms_match_eager_assembly(op):
        # the eager assembly: the direct sums of the blocks and of their eigh
        # eigenvectors, the latter in the stable order of the joint spectrum
        spectra = [np.linalg.eigh(b) for b in op.blocks]
        w = np.concatenate([s.eigenvalues for s in spectra])
        order = np.argsort(w, kind="stable")
        entries = block_diag(*op.blocks)
        vectors = block_diag(*[s.eigenvectors for s in spectra])[:, order]
        calls = []
        direct_sum = operators._direct_sum
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_direct_sum",
                       lambda blocks: calls.append(len(blocks)) or direct_sum(blocks))
            assert np.array_equal(op.eigenvalues, w[order])
            assert op.trace == float(np.trace(entries).real)
            assert calls == []  # the spectrum and the trace assemble nothing
            assert np.array_equal(op.entries, entries) and op.entries.dtype == entries.dtype
            assert np.array_equal(op.eigenvectors, vectors)
            assert op.entries is op.entries and op.eigenvectors is op.eigenvectors
            assert calls == [len(op.blocks)] * 2  # each dense form is built once
        for dense in (op.entries, op.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                dense[0, 0] = 0.0

    def test_lazy_dense_forms_match_eager_assembly(self, rng):
        op = HermitianOperator.block_diagonal(self._blocks(rng))
        self._assert_lazy_forms_match_eager_assembly(op)

    @pytest.mark.parametrize("m", [1, 4, 7, 10])
    def test_fock_dense_forms_match_eager_assembly(self, m):
        payload = QuasiFreePayload(nu=1, q_symbol=TrigPolySymbol(0.5, cos_coeffs=(0.2,)),
                                   r_symbol=TrigPolySymbol(0.45, cos_coeffs=(-0.1,),
                                                           sin_coeffs=(0.05,)),
                                   c_bound=0.2)
        for symbol in quasifree_block_symbol(payload, m):
            op = fock_density(symbol)
            assert op.sectors == tuple(math.comb(m, k) for k in range(m + 1))
            self._assert_lazy_forms_match_eager_assembly(op)

    def test_other_constructors_have_one_sector(self, rng):
        op = rand_hermitian(3, rng)
        assert op.sectors == (3,)
        assert HermitianOperator.from_spectral(op.eigenvalues, op.eigenvectors).sectors == (3,)
        assert tensor_power(rand_density(2, rng), 3).sectors == (8,)


class TestMatrixFunctions:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.0])
    def test_power_matches_dense(self, rng, t):
        op = rand_density(5, rng)
        w, v = op.eigenvalues, op.eigenvectors
        expect = (v * w**t) @ v.conj().T
        assert np.allclose(power_on_support(op, t).entries, expect, atol=1e-12)

    def test_power_zero_is_support_projection(self):
        op = HermitianOperator(np.diag([0.0, 0.4, 0.6]))
        p0 = power_on_support(op, 0.0)
        assert np.allclose(p0.entries, np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    def test_negative_power_is_pseudo_inverse(self):
        op = HermitianOperator(np.diag([0.0, 0.5, 2.0]))
        inv = power_on_support(op, -1.0)
        assert np.allclose(inv.entries, np.diag([0.0, 2.0, 0.5]), atol=1e-12)

    def test_power_rejects_indefinite(self):
        op = HermitianOperator(np.diag([-0.5, 1.5]))
        with pytest.raises(ValueError, match="positive semidefinite"):
            power_on_support(op, 0.5)

    def test_log_on_support(self):
        op = HermitianOperator(np.diag([0.0, 1.0, np.e]))
        lg = log_on_support(op)
        assert np.allclose(lg.entries, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_positive_part_trace(self):
        op = HermitianOperator(np.diag([-0.3, 0.2, 0.8]))
        assert positive_part_trace(op) == pytest.approx(1.0)
        # also accepts a raw ndarray
        assert positive_part_trace(np.diag([-1.0, 2.0])) == pytest.approx(2.0)

    def test_positive_part_is_best_test_payoff(self, rng):
        op = rand_hermitian(4, rng)
        best = positive_part_trace(op)
        for _ in range(25):
            t = rand_test(4, rng)
            payoff = float(np.trace(op.entries @ t.op.entries).real)
            assert payoff <= best + 1e-10


class TestPinching:
    def test_pinch_preserves_trace_and_commutes(self, rng):
        x = rand_hermitian(5, rng)
        sigma = rand_density(5, rng)
        px = pinch(x, sigma)
        assert px.trace == pytest.approx(x.trace, abs=1e-12)
        comm = px.entries @ sigma.entries - sigma.entries @ px.entries
        assert np.abs(comm).max() < 1e-12

    def test_pinch_fixed_point(self, rng):
        sigma = rand_density(4, rng)
        w = sigma.eigenvalues
        f = HermitianOperator.from_spectral(w + w**2, sigma.eigenvectors)
        assert np.allclose(pinch(f, sigma).entries, f.entries, atol=1e-12)

    def test_pinch_degenerate_blocks(self):
        # degenerate sigma keeps the whole block, not just the diagonal
        sigma = HermitianOperator(np.diag([0.25, 0.25, 0.5]))
        x = HermitianOperator(np.ones((3, 3)))
        px = pinch(x, sigma)
        expect = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=float)
        assert np.allclose(px.entries, expect, atol=1e-12)

    def test_pinch_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension"):
            pinch(rand_hermitian(3, rng), rand_density(4, rng))


class TestClustersAndTensors:
    def test_distinct_count_numeric(self):
        op = HermitianOperator(np.diag([0.2, 0.2 + 1e-13, 0.5, 0.9]))
        assert distinct_eigenvalue_count(op) == 3

    def test_tensor_power_symbolic_degeneracy(self, rng):
        # a qubit power has exactly n+1 distinct eigenvalues, recognized
        # symbolically even when products collide numerically
        sigma = rand_density(2, rng)
        for n in (2, 3, 4, 5):
            sn = tensor_power(sigma, n)
            assert distinct_eigenvalue_count(sn) == n + 1

    def test_tensor_power_clusters_are_type_classes(self, rng):
        # mu0 mu2 = mu1^2, so two types share an eigenvalue: sigma^{(x)2} has 6 type
        # classes but 5 distinct eigenvalues, and pinching by the classes still commutes
        sigma = tensor_power(HermitianOperator(np.diag([1.0, 2.0, 4.0]) / 7.0), 2)
        assert distinct_eigenvalue_count(sigma) == 6
        assert distinct_eigenvalue_count(HermitianOperator(sigma.entries)) == 5
        x = rand_density(9, rng)
        px = pinch(x, sigma)
        assert np.abs(px.entries @ sigma.entries - sigma.entries @ px.entries).max() < 1e-15
        assert psd_dominates(HermitianOperator(6 * px.entries), x)

    def test_spectral_maps_drop_tensor_labels(self):
        # a map can merge levels the labels keep apart: the support projection
        # of a qubit cube is the identity, one level, and pinching by it is a no-op
        rng = np.random.default_rng(1)
        s, x = rand_density(2, rng), rand_density(8, rng)
        cube = tensor_power(s, 3)
        assert distinct_eigenvalue_count(cube) == 4
        proj = power_on_support(cube, 0.0)
        assert distinct_eigenvalue_count(proj) == 1
        assert np.abs(pinch(x, proj).entries - x.entries).max() < 1e-12
        for op in (proj, log_on_support(cube)):
            assert op.eig_labels is None

    def test_tensor_power_matches_kron(self, rng):
        op = rand_density(2, rng)
        p3 = tensor_power(op, 3)
        expect = np.kron(np.kron(op.entries, op.entries), op.entries)
        assert np.allclose(p3.entries, expect, atol=1e-12)

    def test_tensor_power_dim_cap(self, rng):
        with pytest.raises(ValueError, match="cap"):
            tensor_power(rand_density(2, rng), 13)

    def test_tensor_product(self, rng):
        a, b = rand_density(2, rng), rand_density(3, rng)
        ab = tensor_product(a, b)
        assert ab.dim == 6
        assert np.allclose(ab.entries, np.kron(a.entries, b.entries), atol=1e-12)

    def test_cluster_sizes_sum_to_dim(self, rng):
        op = rand_hermitian(7, rng)
        clusters = eigenvalue_clusters(op)
        assert sum(len(c) for c in clusters) == 7


class TestLogSumExp:
    @pytest.mark.parametrize("a", [np.array([]), np.zeros((0, 3)),
                                   np.full(4, -np.inf), np.full((2, 3), -np.inf)],
                             ids=["empty", "empty-2d", "all-minus-inf", "all-minus-inf-2d"])
    def test_vanishing_sum_is_float_minus_inf(self, a):
        out = logsumexp(a)
        assert type(out) is float and out == -math.inf

    @pytest.mark.parametrize("shape", [(7,), (40,), (3, 5), (16, 9)])
    def test_matches_scipy(self, shape):
        rng = np.random.default_rng(20140713)
        for _ in range(50):
            a = rng.normal(0.0, 30.0, shape)
            flat = a.reshape(-1)
            flat[rng.integers(flat.size)] = flat.max()  # a tie at the maximum
            flat[rng.random(flat.size) < 0.2] = -np.inf
            out = logsumexp(a)
            assert type(out) is float
            assert out == float(scipy.special.logsumexp(a))
        for special in (np.inf, -np.inf):
            a = rng.normal(0.0, 1.0, shape)
            a.reshape(-1)[0] = special
            assert logsumexp(a) == float(scipy.special.logsumexp(a))


def test_logsumexp_matches_scipy_bit_for_bit():
    # seeded 1-D and 2-D inputs with ties, all-equal values, +-inf, NaN and
    # all -inf: the direct body must repeat scipy's result to the last bit
    rng = np.random.default_rng(20261019)
    for i in range(20000):
        shape = (int(rng.integers(1, 60)),) if i % 2 else tuple(rng.integers(1, 9, 2))
        a = rng.normal(0.0, 10.0 ** int(rng.integers(-3, 4)), shape)
        flat = a.reshape(-1)
        case = i % 8
        if case == 1:
            flat[rng.integers(flat.size)] = flat.max()
        elif case == 2:
            flat[:] = flat[0]
        elif case == 3:
            flat[rng.random(flat.size) < 0.3] = -np.inf
        elif case == 4:
            flat[rng.integers(flat.size)] = np.inf
        elif case == 5:
            flat[rng.integers(flat.size)] = np.nan
        elif case == 6:
            flat[:] = -np.inf
        elif case == 7:
            flat[rng.integers(flat.size)] = np.inf
            flat[rng.integers(flat.size)] = -np.inf
        with np.errstate(all="ignore"):
            ref = scipy.special.logsumexp(a)
        out = logsumexp(a)
        assert type(out) is float
        assert np.float64(out).tobytes() == np.float64(ref).tobytes(), (i, a)


def test_logsumexp_rows_match_one_call_per_row_bit_for_bit():
    # seeded matrices with ties at the maximum, -inf entries and rows, +inf,
    # NaN and scales up to 800: each row of the row-wise form must equal
    # scipy's logsumexp of that row alone, to the last bit
    rng = np.random.default_rng(20261020)
    for i in range(2000):
        rows, cols = (int(x) for x in rng.integers(1, 40, 2))
        a = rng.normal(0.0, 800.0 ** rng.random(), (rows, cols))
        case = i % 6
        if case == 1:
            a[:, -1] = a.max(axis=1)
        elif case == 2:
            a[rng.random(a.shape) < 0.3] = -np.inf
        elif case == 3:
            a[rng.integers(rows)] = -np.inf
        elif case == 4:
            a[rng.integers(rows), rng.integers(cols)] = np.inf
        elif case == 5:
            a[rng.integers(rows), rng.integers(cols)] = np.nan
        with np.errstate(all="ignore"):
            expect = np.array([float(scipy.special.logsumexp(row)) for row in a])
        assert logsumexp_rows(a).tobytes() == expect.tobytes(), i
        assert logsumexp_rows(a.T.copy().T).tobytes() == expect.tobytes(), i  # strided rows


def test_logsumexp_rows_of_empty_rows_are_minus_inf():
    out = logsumexp_rows(np.zeros((3, 0)))
    assert out.shape == (3,) and (out == -math.inf).all()


def test_log_factorials_match_gammaln_bit_for_bit():
    # every branch of cephes lgam at an integer: the exact product below 13,
    # the A polynomial up to 1000 and the three-term series past it
    for n in (0, 1, 11, 12, 13, 200_000):
        expect = scipy.special.gammaln(np.arange(n + 1) + 1.0)
        assert log_factorials(n).tobytes() == expect.tobytes(), n


def test_xlogy_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20261021)
    x = rng.integers(0, 60, 400)
    x[::7] = 0
    for y in (0.0, 1.0, 1e-300, *rng.random(20), *rng.uniform(1.0, 1e3, 10)):
        assert xlogy(x, y).tobytes() == scipy.special.xlogy(x, y).tobytes(), y


def test_direct_sum_matches_block_diag_bytes_and_dtype():
    rng = np.random.default_rng(20261022)
    for kinds in ((float,), (float, complex), (complex, float, float), (np.float32, float)):
        blocks = [rng.normal(size=(k, k)).astype(kind) for k, kind in
                  zip(rng.integers(1, 6, len(kinds)), kinds)]
        blocks = [b + 1j * rng.normal(size=b.shape) if b.dtype == complex else b
                  for b in blocks]
        out, expect = _direct_sum(blocks), block_diag(*blocks)
        assert out.dtype == expect.dtype and out.tobytes() == expect.tobytes()


class TestOrderAndSupports:
    def test_psd_dominates(self):
        a = HermitianOperator(np.diag([2.0, 3.0]))
        b = HermitianOperator(np.diag([1.0, 3.0]))
        assert psd_dominates(a, b)
        assert not psd_dominates(b, a)

    def test_supports_nested(self):
        rho = HermitianOperator(np.diag([1.0, 0.0, 0.0]))
        sigma = HermitianOperator(np.diag([0.5, 0.5, 0.0]))
        ok, leak = supports_nested(rho, sigma)
        assert ok and leak < 1e-12
        ok, leak = supports_nested(sigma, rho)
        assert not ok and leak == pytest.approx(1.0)


class TestStatePairAndTest:
    def test_state_pair_valid(self, rng):
        pair = StatePair(rand_density(3, rng), rand_density(3, rng))
        assert pair.rho.dim == 3
        assert supports_nested(pair.rho, pair.sigma) == (True, 0.0)

    def test_state_pair_rejects_unnormalized(self, rng):
        bad = HermitianOperator(2.0 * rand_density(3, rng).entries)
        with pytest.raises(ValueError, match="normalized"):
            StatePair(bad, rand_density(3, rng))

    def test_state_pair_rejects_support_violation(self):
        rho = HermitianOperator(np.diag([0.5, 0.5, 0.0]))
        sigma = HermitianOperator(np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="support"):
            StatePair(rho, sigma)

    def test_test_validation_and_complement(self, rng):
        t = rand_test(4, rng)
        # its complement I - T is a test too
        BinaryTest(HermitianOperator(np.eye(4) - t.op.entries))
        with pytest.raises(ValueError, match="outside"):
            BinaryTest(HermitianOperator(np.diag([1.5, 0.0, 0.0, 0.0])))


class TestSerialization:
    def test_json_round_trip(self, rng):
        op = rand_hermitian(4, rng)
        back = operator_from_json(operator_to_json(op))
        assert np.allclose(back.entries, op.entries, atol=1e-15)

    def test_json_real_only(self):
        data = {"dim": 2, "re": [1.0, 0.0, 0.0, 2.0], "im": None}
        op = operator_from_json(data)
        assert np.allclose(op.entries, np.diag([1.0, 2.0]), atol=1e-15)


# constructor refusals that no shipped family reaches
@pytest.mark.parametrize("call, message", [
    (lambda: StatePair(HermitianOperator(np.eye(2) / 2), HermitianOperator(np.eye(3) / 3)),
     "rho and sigma must share a dimension"),
    (lambda: StatePair(HermitianOperator(np.diag([1.2, -0.2])),
                       HermitianOperator(np.diag([0.5, 0.5]))),
     "rho is not PSD: min eig -2.000e-01"),
    (lambda: tensor_power(HermitianOperator(np.diag([0.5, 0.5])), 0),
     "tensor power requires n >= 1"),
    (lambda: tensor_product(*[HermitianOperator(np.diag([0.5, 0.5]))] * 13),
     "product dimension 8192 exceeds cap 4096"),
    (lambda: HermitianOperator.from_spectral([1.0, 2.0], np.eye(3)),
     "inconsistent spectral data"),
    # NaN fails the Hermiticity gate, in any block
    (lambda: HermitianOperator([[math.nan, 0.0], [0.0, 1.0]]),
     "matrix is not Hermitian: relative deviation nan"),
    (lambda: HermitianOperator.block_diagonal([np.eye(1), [[math.nan]]]),
     "matrix is not Hermitian: relative deviation nan"),
    # a given spectrum passes no Hermiticity gate: the unit trace refuses it
    (lambda: StatePair(HermitianOperator.from_spectral([math.nan, 1.0], np.eye(2)),
                       HermitianOperator(np.eye(2) / 2)),
     "rho is not normalized: trace nan"),
], ids=["pair-dimensions", "pair-not-psd", "tensor-power-zero", "tensor-product-cap",
        "spectral-data", "nan-entry", "nan-second-block", "pair-nan-trace"])
def test_construction_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("build", [HermitianOperator,
                                   lambda a: HermitianOperator.block_diagonal([np.eye(1), a])])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, complex(0.0, math.inf)])
def test_infinite_entry_refused_without_a_warning(build, bad):
    # inf - inf in the Hermiticity deviation once warned before the refusal
    # (under an error filter the caller got the RuntimeWarning instead), and an
    # imaginary infinity on the diagonal passed the gate against an infinite scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix is not Hermitian: relative deviation nan"):
            build(np.array([[bad, 0.0], [0.0, 1.0]]))
