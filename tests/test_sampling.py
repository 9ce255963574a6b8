"""Sampling schemes: partitions, the sampler's scaled blocks, and bound
quantities."""

from itertools import combinations

import numpy as np
import pytest

from conftest import decode_block, dense_sketch, row_coded_rhs
from momsolve.errors import InvalidBlockSizeError, UnsupportedError
from momsolve.linalg import Matrix
from momsolve.problems import generate_gaussian_problem
from momsolve.sampling import (
    UNIFORM_SUPPORT_CAP,
    BlockSampler,
    FixedIdentity,
    PartitionBlock,
    SchemeSpec,
    SingleRowWeighted,
    UniformBlock,
    block_spectral_norm_sq,
    build_partition,
    expected_gram,
    lambda_max_sup,
    parse_scheme,
)
from momsolve.solvers import (
    SolverConfig,
    solve_ashbm,
    solve_basic,
    solve_modified_basic,
    solve_scg,
)


def _sampler(scheme, A, rng):
    """``scheme`` bound to A with a row-coded right-hand side."""
    return BlockSampler(scheme, A, row_coded_rhs(A), rng)


class TestBuildPartition:
    def test_even_split(self):
        blocks = build_partition(4, 2, seed=0)
        assert len(blocks) == 2
        assert sorted(len(b) for b in blocks) == [2, 2]
        np.testing.assert_array_equal(np.sort(np.concatenate(blocks)), np.arange(4))

    def test_ragged_last_block(self):
        blocks = build_partition(5, 2, seed=0)
        assert [len(b) for b in blocks] == [2, 2, 1]

    def test_large_ragged(self):
        blocks = build_partition(958, 30, seed=3)
        sizes = [len(b) for b in blocks]
        assert len(blocks) == 32
        assert sizes.count(30) == 31
        assert sizes.count(28) == 1

    def test_determinism_and_blocks_sorted(self):
        a = build_partition(20, 6, seed=5)
        b = build_partition(20, 6, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
            np.testing.assert_array_equal(x, np.sort(x))

    def test_invalid_block_size(self):
        with pytest.raises(InvalidBlockSizeError):
            build_partition(4, 0, seed=0)
        with pytest.raises(InvalidBlockSizeError):
            build_partition(4, 5, seed=0)


class TestDraw:
    def test_fixed_identity(self, rng):
        A = Matrix.from_dense(np.eye(3))
        sampler = _sampler(FixedIdentity(), A, rng)
        first = sampler.draw()
        for _ in range(3):
            assert sampler.draw() is first
        rows, scale = decode_block(first[0], A)
        np.testing.assert_array_equal(rows, np.arange(3))
        np.testing.assert_allclose(scale, 1.0)

    def test_uniform_block_shape_and_scale(self, rng):
        A = Matrix.from_dense(rng.standard_normal((12, 4)))
        rows, scale = decode_block(_sampler(UniformBlock(p=3), A, rng).draw()[0], A)
        assert len(rows) == 3
        assert len(set(rows.tolist())) == 3
        expected = np.sqrt(12 / 3) / np.sqrt(A.fro_norm_sq)
        np.testing.assert_allclose(scale, expected)

    def test_single_row_scale(self, rng):
        A = Matrix.from_dense(rng.standard_normal((6, 4)))
        rows, scale = decode_block(_sampler(SingleRowWeighted(), A, rng).draw()[0], A)
        i = int(rows[0])
        assert len(rows) == 1
        assert scale[0] == pytest.approx(1.0 / np.sqrt(A.row_norms_sq[i]))

    def test_partition_op_is_a_block(self, rng):
        A = Matrix.from_dense(rng.standard_normal((10, 5)))
        scheme = PartitionBlock.from_permutation(10, 4, seed=1)
        rows, scale = decode_block(_sampler(scheme, A, rng).draw()[0], A)
        assert any(np.array_equal(rows, blk) for blk in scheme.blocks)
        fro = np.sqrt(A.row_norms_sq[rows].sum())
        np.testing.assert_allclose(scale, 1.0 / fro)

    def test_row_probabilities_proportional_to_norms(self, rng):
        A = Matrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        sampler = _sampler(SingleRowWeighted(), A, rng)
        draws = 30000
        counts = np.bincount([int(decode_block(sampler.draw()[0], A)[0][0])
                              for _ in range(draws)], minlength=3)
        probs = np.array([1.0, 4.0, 9.0]) / 14.0
        sd = np.sqrt(draws * probs * (1.0 - probs))
        assert np.all(np.abs(counts - draws * probs) <= 4.0 * sd)

    @pytest.mark.parametrize("m,p", [(4, 2), (40, 3)])
    def test_uniform_support_size(self, rng, m, p):
        system = generate_gaussian_problem(m, 2, 2, 2.0, seed=0)
        sampler = BlockSampler(UniformBlock(p=p), system.A, system.b, rng)
        assert sampler.support_size == UNIFORM_SUPPORT_CAP

    def test_partition_must_cover_rows(self, rng):
        A = Matrix.from_dense(rng.standard_normal((6, 3)))
        bad = PartitionBlock(blocks=(np.array([0, 1]), np.array([2, 3])))
        with pytest.raises(ValueError):
            BlockSampler(bad, A, np.zeros(6), rng)
        # the solvers bind the sampler and must reject it as well
        system = generate_gaussian_problem(20, 10, 10, 2.0, seed=0)
        half = PartitionBlock(blocks=(np.arange(0, 5), np.arange(5, 10)))
        with pytest.raises(ValueError):
            solve_ashbm(system, half, SolverConfig(seed=0, record_timing=False))

    @pytest.mark.parametrize("p", [0, 21])
    def test_uniform_block_size_checked(self, rng, p):
        system = generate_gaussian_problem(20, 10, 10, 2.0, seed=0)
        with pytest.raises(InvalidBlockSizeError, match="1 <= p <= m=20"):
            BlockSampler(UniformBlock(p=p), system.A, system.b, rng)
        for solve in (solve_basic, solve_modified_basic, solve_ashbm, solve_scg):
            with pytest.raises(InvalidBlockSizeError, match="1 <= p <= m=20"):
                solve(system, UniformBlock(p=p), SolverConfig(seed=0, record_timing=False))
        with pytest.raises(InvalidBlockSizeError, match="1 <= p <= m=20"):
            lambda_max_sup(UniformBlock(p=p), system.A)


class TestStructuredProducts:
    """A drawn block times [x; 1] is S^T (Ax − b); its transpose times w
    is A^T S w in the first n entries."""

    def test_transpose_single_row(self, rng):
        A = Matrix.from_dense(np.eye(2))
        sampler = BlockSampler(SingleRowWeighted(), A, np.zeros(2), rng)
        fwd, _, _ = sampler.blocks[1]
        np.testing.assert_allclose(fwd.dot([3.0, 5.0, 1.0]), [5.0])

    def test_transpose_identity(self, rng):
        A = Matrix.from_dense(np.eye(2))
        fwd, _, _ = BlockSampler(FixedIdentity(), A, np.zeros(2), rng).draw()
        np.testing.assert_allclose(fwd.dot([3.0, 5.0, 1.0]), [3.0, 5.0])

    def test_matches_dense_sketch(self, rng):
        A = Matrix.from_dense(rng.standard_normal((15, 8)))
        b = row_coded_rhs(A)
        x = rng.standard_normal(8)
        w = rng.standard_normal(3)
        fwd, bwd, _ = BlockSampler(UniformBlock(p=3), A, b, rng).draw()
        S = dense_sketch(*decode_block(fwd, A), 15)
        np.testing.assert_allclose(fwd.dot(np.append(x, 1.0)), S.T @ (A.matvec(x) - b),
                                   atol=1e-12)
        np.testing.assert_allclose(bwd.dot(w)[:8], A.toarray().T @ (S @ w), atol=1e-13)

    def test_identity_pullback(self, rng):
        A = Matrix.from_dense(rng.standard_normal((5, 4)))
        w = rng.standard_normal(5)
        _, bwd, _ = BlockSampler(FixedIdentity(), A, np.zeros(5), rng).draw()
        np.testing.assert_allclose(bwd.dot(w)[:4], A.toarray().T @ w, atol=1e-13)


class TestExpectedGram:
    def test_uniform_block(self, rng):
        A = Matrix.from_dense(rng.standard_normal((7, 4)))
        np.testing.assert_allclose(expected_gram(UniformBlock(p=3), A),
                                   np.eye(7) / A.fro_norm_sq)

    def test_fixed_identity(self, rng):
        A = Matrix.from_dense(rng.standard_normal((4, 4)))
        np.testing.assert_allclose(expected_gram(FixedIdentity(), A), np.eye(4))

    def test_partition_monte_carlo(self, rng):
        A = Matrix.from_dense(rng.standard_normal((30, 10)))
        scheme = PartitionBlock.from_permutation(30, 7, seed=2)
        sampler = _sampler(scheme, A, rng)
        acc = np.zeros((30, 30))
        n_draws = 20000
        for _ in range(n_draws):
            S = dense_sketch(*decode_block(sampler.draw()[0], A), 30)
            acc += S @ S.T
        np.testing.assert_allclose(acc / n_draws, expected_gram(scheme, A), atol=5e-3)

    def test_single_row_closed_form_is_exact_average(self, rng):
        # sum over the support, weighted by probabilities, equals I/||A||_F^2
        A = Matrix.from_dense(rng.standard_normal((6, 3)))
        sampler = _sampler(SingleRowWeighted(), A, rng)
        probs = A.row_norms_sq / A.fro_norm_sq
        acc = np.zeros((6, 6))
        for i, (fwd, _, _) in enumerate(sampler.blocks):
            rows, scale = decode_block(fwd, A)
            acc[rows[0], rows[0]] = probs[i] * scale[0] ** 2
        np.testing.assert_allclose(acc, expected_gram(SingleRowWeighted(), A),
                                   atol=1e-13)


class TestLambdaMaxSup:
    def test_single_row_is_one(self, rng):
        A = Matrix.from_dense(rng.standard_normal((5, 3)))
        res = lambda_max_sup(SingleRowWeighted(), A)
        assert res.value == 1.0
        assert not res.is_estimate

    def test_identity_is_sigma_max_sq(self):
        A = Matrix.from_dense(np.diag([3.0, 1.0]))
        assert lambda_max_sup(FixedIdentity(), A).value == pytest.approx(9.0)

    @pytest.mark.parametrize("shape", [(100, 20), (20, 100)], ids=["tall", "wide"])
    def test_identity_matches_svd(self, rng, shape):
        A = Matrix.from_dense(rng.standard_normal(shape))
        res = lambda_max_sup(FixedIdentity(), A)
        assert res.value == pytest.approx(np.linalg.norm(A.toarray(), 2) ** 2, rel=1e-12)
        assert not res.is_estimate

    def test_uniform_matches_brute_force(self, rng):
        A = Matrix.from_dense(rng.standard_normal((5, 3)))
        res = lambda_max_sup(UniformBlock(p=2), A)
        dense = A.toarray()
        scale = np.sqrt(5 / 2) / np.sqrt(A.fro_norm_sq)
        worst = 0.0
        for J in combinations(range(5), 2):
            S = dense_sketch(np.array(J), scale, 5)
            M = dense.T @ S @ S.T @ dense
            worst = max(worst, float(np.linalg.eigvalsh(M)[-1]))
        assert res.value == pytest.approx(worst, rel=1e-10)
        assert not res.is_estimate

    def test_partition_matches_dense_evaluation(self, rng):
        A = Matrix.from_dense(rng.standard_normal((12, 5)))
        scheme = PartitionBlock.from_permutation(12, 4, seed=0)
        res = lambda_max_sup(scheme, A)
        dense = A.toarray()
        worst = 0.0
        for blk in scheme.blocks:
            scale = 1.0 / np.sqrt(A.row_norms_sq[blk].sum())
            S = dense_sketch(blk, scale, 12)
            M = dense.T @ S @ S.T @ dense
            worst = max(worst, float(np.linalg.eigvalsh(M)[-1]))
        assert res.value == pytest.approx(worst, rel=1e-10)

    def test_large_uniform_support_is_estimate(self, rng):
        A = Matrix.from_dense(rng.standard_normal((60, 5)))
        res = lambda_max_sup(UniformBlock(p=10), A)
        assert res.is_estimate
        assert res.value > 0.0

    @pytest.mark.parametrize("shape", [(300, 40), (250, 400)], ids=["tall", "wide"])
    @pytest.mark.parametrize("q", [1, 64, 65, 200])
    def test_block_spectral_norm_is_exact(self, rng, shape, q):
        # the tall system's blocks of more than 40 rows take the n x n Gram,
        # the wide system's the q x q one; both must match the SVD
        A = Matrix.from_dense(rng.standard_normal(shape))
        idx = np.sort(rng.choice(shape[0], size=q, replace=False))
        direct = float(np.linalg.norm(A.toarray()[idx], 2) ** 2)
        assert block_spectral_norm_sq(A, idx) == pytest.approx(direct, rel=1e-12)


class TestSchemeSpec:
    @pytest.mark.parametrize("text,variant,p", [
        ("row", "row", None),
        ("identity", "identity", None),
        ("uniform:4", "uniform", 4),
        ("partition:8", "partition", 8),
    ])
    def test_parse(self, text, variant, p):
        spec = parse_scheme(text)
        assert spec == SchemeSpec(variant=variant, p=p)
        assert str(spec) == text

    def test_parse_errors(self):
        with pytest.raises(UnsupportedError):
            parse_scheme("bogus")
        with pytest.raises(UnsupportedError):
            parse_scheme("uniform:x")
        with pytest.raises(InvalidBlockSizeError):
            parse_scheme("partition:0")

    def test_materialize(self, rng):
        A = Matrix.from_dense(rng.standard_normal((10, 4)))
        assert isinstance(parse_scheme("row").materialize(A, 0), SingleRowWeighted)
        assert isinstance(parse_scheme("identity").materialize(A, 0), FixedIdentity)
        assert parse_scheme("uniform:3").materialize(A, 0) == UniformBlock(p=3)
        part = parse_scheme("partition:4").materialize(A, 7)
        again = parse_scheme("partition:4").materialize(A, 7)
        assert isinstance(part, PartitionBlock)
        for x, y in zip(part.blocks, again.blocks):
            np.testing.assert_array_equal(x, y)
