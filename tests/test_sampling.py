"""Sampling schemes: partitions, the sampler's scaled blocks, and bound
quantities."""

from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import decode_block, dense_sketch, materialize, row_coded_rhs
from momsolve.analysis import theoretical_bound
from momsolve.errors import InvalidBlockSizeError, UnsupportedError, ZeroMatrixError
from momsolve.linalg import Matrix, augmented
from momsolve.problems import LinearSystem, generate_gaussian_problem
from momsolve.sampling import (
    UNIFORM_SUPPORT_CAP,
    BlockSampler,
    LambdaMaxResult,
    PartitionBlock,
    SchemeSpec,
    UniformBlock,
    _block_pair,
    block_spectral_norm_sq,
    build_partition,
    compute_tau,
    floyd_subsets,
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


def _draws(scheme, A, rng):
    """Draws from ``scheme`` bound to A with a row-coded right-hand side."""
    return BlockSampler(scheme, LinearSystem(A, row_coded_rhs(A))).draws(rng)


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
        draws = _draws(materialize("identity", A), A, rng)
        first = next(draws)
        for _ in range(3):
            assert next(draws) is first
        rows, scale = decode_block(first[0], A)
        np.testing.assert_array_equal(rows, np.arange(3))
        np.testing.assert_allclose(scale, 1.0)

    def test_uniform_block_shape_and_scale(self, rng):
        A = Matrix.from_dense(rng.standard_normal((12, 4)))
        rows, scale = decode_block(next(_draws(UniformBlock(p=3), A, rng))[0], A)
        assert len(rows) == 3
        assert len(set(rows.tolist())) == 3
        expected = np.sqrt(12 / 3) / np.sqrt(A.fro_norm_sq)
        np.testing.assert_allclose(scale, expected)

    def test_single_row_scale(self, rng):
        A = Matrix.from_dense(rng.standard_normal((6, 4)))
        rows, scale = decode_block(next(_draws(materialize("row", A), A, rng))[0], A)
        i = int(rows[0])
        assert len(rows) == 1
        assert scale[0] == pytest.approx(1.0 / np.sqrt(A.row_norms_sq[i]))

    def test_partition_op_is_a_block(self, rng):
        A = Matrix.from_dense(rng.standard_normal((10, 5)))
        scheme = PartitionBlock.from_permutation(10, 4, seed=1)
        rows, scale = decode_block(next(_draws(scheme, A, rng))[0], A)
        assert any(np.array_equal(rows, blk) for blk in scheme.blocks)
        fro = np.sqrt(A.row_norms_sq[rows].sum())
        np.testing.assert_allclose(scale, 1.0 / fro)

    def test_row_probabilities_proportional_to_norms(self, rng):
        A = Matrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        stream = _draws(materialize("row", A), A, rng)
        draws = 30000
        counts = np.bincount([int(decode_block(next(stream)[0], A)[0][0])
                              for _ in range(draws)], minlength=3)
        probs = np.array([1.0, 4.0, 9.0]) / 14.0
        sd = np.sqrt(draws * probs * (1.0 - probs))
        assert np.all(np.abs(counts - draws * probs) <= 4.0 * sd)

    @pytest.mark.parametrize("m,p", [(4, 2), (40, 3)])
    def test_uniform_support_size(self, m, p):
        system = generate_gaussian_problem(m, 2, 2, 2.0, seed=0)
        sampler = BlockSampler(UniformBlock(p=p), system)
        assert sampler.attempts == range(100 * UNIFORM_SUPPORT_CAP)

    def test_partition_must_cover_rows(self, rng):
        A = Matrix.from_dense(rng.standard_normal((6, 3)))
        bad = PartitionBlock(blocks=(np.array([0, 1]), np.array([2, 3])))
        with pytest.raises(ValueError):
            BlockSampler(bad, LinearSystem(A, np.zeros(6)))
        # the solvers bind the sampler and must reject it as well
        system = generate_gaussian_problem(20, 10, 10, 2.0, seed=0)
        half = PartitionBlock(blocks=(np.arange(0, 5), np.arange(5, 10)))
        with pytest.raises(ValueError):
            solve_ashbm(system, half, SolverConfig(seed=0, record_timing=False))

    @pytest.mark.parametrize("p", [0, 21])
    def test_uniform_block_size_checked(self, rng, p):
        system = generate_gaussian_problem(20, 10, 10, 2.0, seed=0)
        with pytest.raises(InvalidBlockSizeError, match="1 <= p <= m=20"):
            BlockSampler(UniformBlock(p=p), system)
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
        sampler = BlockSampler(materialize("row", A), LinearSystem(A, np.zeros(2)))
        fwd, _, _ = sampler.blocks[1]
        np.testing.assert_allclose(fwd.dot([3.0, 5.0, 1.0]), [5.0])

    def test_transpose_identity(self, rng):
        A = Matrix.from_dense(np.eye(2))
        sampler = BlockSampler(materialize("identity", A), LinearSystem(A, np.zeros(2)))
        fwd, _, _ = next(sampler.draws(rng))
        np.testing.assert_allclose(fwd.dot([3.0, 5.0, 1.0]), [3.0, 5.0])

    def test_matches_dense_sketch(self, rng):
        A = Matrix.from_dense(rng.standard_normal((15, 8)))
        b = row_coded_rhs(A)
        x = rng.standard_normal(8)
        w = rng.standard_normal(3)
        fwd, bwd, _ = next(BlockSampler(UniformBlock(p=3), LinearSystem(A, b)).draws(rng))
        S = dense_sketch(*decode_block(fwd, A), 15)
        np.testing.assert_allclose(fwd.dot(np.append(x, 1.0)), S.T @ (A.matvec(x) - b),
                                   atol=1e-12)
        np.testing.assert_allclose(bwd.dot(w)[:8], A.toarray().T @ (S @ w), atol=1e-13)

    def test_identity_pullback(self, rng):
        A = Matrix.from_dense(rng.standard_normal((5, 4)))
        w = rng.standard_normal(5)
        sampler = BlockSampler(materialize("identity", A), LinearSystem(A, np.zeros(5)))
        _, bwd, _ = next(sampler.draws(rng))
        np.testing.assert_allclose(bwd.dot(w)[:4], A.toarray().T @ w, atol=1e-13)


class TestExpectedGram:
    """E[S S^T] = I / ||A||_F^2 for every randomized scheme (H = I/||A||_F^2
    in the bound), and I for the identity scheme."""

    def test_uniform_block(self, rng):
        # each row lies in a fraction p/m of the subsets, each scaled by
        # (m/p)/||A||_F^2, so the average is exact
        A = Matrix.from_dense(rng.standard_normal((7, 4)))
        draws = _draws(UniformBlock(p=3), A, rng)
        acc = np.zeros((7, 7))
        subsets = list(combinations(range(7), 3))
        for J in subsets:
            S = dense_sketch(np.array(J), np.sqrt(7 / 3 / A.fro_norm_sq), 7)
            acc += S @ S.T / len(subsets)
        np.testing.assert_allclose(acc, np.eye(7) / A.fro_norm_sq, atol=1e-15)
        # the sampler's blocks carry the same scale
        _, scale = decode_block(next(draws)[0], A)
        np.testing.assert_allclose(scale, np.sqrt(7 / 3 / A.fro_norm_sq))

    def test_fixed_identity(self, rng):
        # the single sample is S = I: its block is [A | -b] unscaled
        A = Matrix.from_dense(rng.standard_normal((4, 4)))
        sampler = BlockSampler(materialize("identity", A), LinearSystem(A, np.zeros(4)))
        fwd, _, _ = next(sampler.draws(rng))
        np.testing.assert_array_equal(fwd[:, :4], A.toarray())

    def test_partition_monte_carlo(self, rng):
        A = Matrix.from_dense(rng.standard_normal((30, 10)))
        scheme = PartitionBlock.from_permutation(30, 7, seed=2)
        draws = _draws(scheme, A, rng)
        acc = np.zeros((30, 30))
        n_draws = 20000
        for _ in range(n_draws):
            S = dense_sketch(*decode_block(next(draws)[0], A), 30)
            acc += S @ S.T
        np.testing.assert_allclose(acc / n_draws, np.eye(30) / A.fro_norm_sq, atol=5e-3)

    def test_single_row_closed_form_is_exact_average(self, rng):
        # sum over the support, weighted by probabilities, equals I/||A||_F^2
        A = Matrix.from_dense(rng.standard_normal((6, 3)))
        sampler = BlockSampler(materialize("row", A), LinearSystem(A, row_coded_rhs(A)))
        probs = A.row_norms_sq / A.fro_norm_sq
        acc = np.zeros((6, 6))
        for i, (fwd, _, _) in enumerate(sampler.blocks):
            rows, scale = decode_block(fwd, A)
            acc[rows[0], rows[0]] = probs[i] * scale[0] ** 2
        np.testing.assert_allclose(acc, np.eye(6) / A.fro_norm_sq, atol=1e-13)


class TestLambdaMaxSup:
    def test_single_row_is_one(self, rng):
        A = Matrix.from_dense(rng.standard_normal((5, 3)))
        res = lambda_max_sup(materialize("row", A), A)
        assert res.value == 1.0
        assert not res.is_estimate

    def test_identity_is_sigma_max_sq(self):
        A = Matrix.from_dense(np.diag([3.0, 1.0]))
        assert lambda_max_sup(materialize("identity", A), A).value == pytest.approx(9.0)

    @pytest.mark.parametrize("shape", [(100, 20), (20, 100)], ids=["tall", "wide"])
    def test_identity_matches_svd(self, rng, shape):
        A = Matrix.from_dense(rng.standard_normal(shape))
        res = lambda_max_sup(materialize("identity", A), A)
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

    def test_partition_skips_zero_block(self):
        # a block of zero rows has probability 0, so it is outside the
        # support; first in the partition, its 0/0 used to make the sup NaN
        A = Matrix.from_dense([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0], [1.0, 1.0]])
        scheme = PartitionBlock(blocks=tuple(np.array([i]) for i in range(4)))
        assert lambda_max_sup(scheme, A).value == pytest.approx(1.0)

    @pytest.mark.parametrize("spec", ["row", "uniform:2", "identity", "partition:2"],
                             ids=["row", "uniform", "identity", "partition"])
    def test_zero_matrix_rejected(self, spec):
        A = Matrix.from_dense(np.zeros((4, 2)))
        with pytest.raises(ZeroMatrixError):
            lambda_max_sup(materialize(spec, A), A)

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
        block = A.toarray()[idx]
        direct = float(np.linalg.norm(block, 2) ** 2)
        assert block_spectral_norm_sq(A, idx) == pytest.approx(direct, rel=1e-12)
        # mrabk's tau, and so its traces, rest on these bits of a dense block
        gram = block @ block.T if q <= shape[1] else block.T @ block
        assert block_spectral_norm_sq(A, idx) == float(np.linalg.eigvalsh(gram)[-1])


def _zero_block_system(kind, p):
    """A 45 x 10 system, dense or CSR, and its partition into blocks of p
    rows (the last ragged for p = 8 and 16), whose third block is all zero
    rows: it gets scale 0."""
    rng = np.random.default_rng(12)
    dense = rng.standard_normal((45, 10)) * (rng.random((45, 10)) < 0.6)
    blocks = build_partition(45, p, seed=4)
    dense[blocks[2]] = 0.0
    A = Matrix.from_dense(dense) if kind == "dense" else Matrix.from_scipy(sp.csr_matrix(dense))
    return LinearSystem(A, rng.standard_normal(45)), PartitionBlock(blocks=blocks)


class TestOnePassBinding:
    """Blocks cut from one row-permuted copy of A have the bits of the
    per-block gathers they replace, and so do the products of a run."""

    @pytest.mark.parametrize("kind", ["dense", "csr"])
    @pytest.mark.parametrize("spec", ["partition:8", "partition:16", "row"])
    def test_blocks_match_per_block_gather(self, kind, spec):
        system, part = _zero_block_system(kind, 16 if spec == "partition:16" else 8)
        A = system.A
        scheme = materialize(spec, A) if spec == "row" else part
        rows = scheme.blocks
        sampler = BlockSampler(scheme, system)
        # K_J needs the QR factor of the dense [A | -b]; a CSR run never carries
        maps = sampler.residual_maps if kind == "dense" else [None] * len(rows)
        aug = augmented(A, system.b)
        table = A.data.dot(system.residual_factor[:, :A.cols].T) if kind == "dense" else None
        rng = np.random.default_rng(1)
        weights = [A.row_norms_sq[blk].sum() for blk in rows]
        assert len(sampler.blocks) == len(maps) == len(rows) and 0.0 in weights
        for i, ((fwd, bwd, key), K_t, blk, w) in enumerate(zip(sampler.blocks, maps, rows,
                                                                weights)):
            assert key == i
            s = 1.0 / np.sqrt(w) if w > 0 else 0.0
            old_fwd, old_bwd = _block_pair(aug[blk] * s)
            xa, t = rng.standard_normal(A.cols + 1), rng.standard_normal(len(blk))
            assert np.array_equal(fwd.dot(xa), old_fwd.dot(xa))
            assert np.array_equal(bwd.dot(t), old_bwd.dot(t))
            if table is not None:
                assert np.array_equal(K_t.T.dot(t), (table[blk] * s).T.dot(t))

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_uniform_residual_map_matches_scaled_gather(self, p):
        # a uniform:<p> draw's key is its rows J, and K_J is (s·table[J])^T
        # with table = A·R[:, :n]^T: the scale multiplies the product, never
        # A or R ahead of it
        system, _ = _zero_block_system("dense", 8)
        A = system.A
        table = A.data.dot(system.residual_factor[:, :A.cols].T)
        s = np.sqrt(A.rows / p / A.fro_norm_sq)
        aug = augmented(A, system.b)
        sampler = BlockSampler(UniformBlock(p=p), system)
        draws = sampler.draws(np.random.default_rng(2))
        reused = sampler.draws(np.random.default_rng(2), reuse=True)
        replay, rng = next(sampler.key_chunks(np.random.default_rng(2))), np.random.default_rng(3)
        for rows in replay[:20]:
            (fwd, _, key), (again, _, same) = next(draws), next(reused)
            assert np.array_equal(key, rows) and np.array_equal(same, rows)
            assert np.array_equal(fwd, aug[rows] * s) and np.array_equal(again, fwd)
            t = rng.standard_normal(p)
            assert np.array_equal(sampler.residual_maps[key].T.dot(t),
                                  (table[rows] * s).T.dot(t))

    def test_reused_draws_gather_into_one_buffer(self):
        system, _ = _zero_block_system("dense", 8)
        draws = BlockSampler(UniformBlock(p=3), system).draws(np.random.default_rng(0),
                                                              reuse=True)
        first, second = next(draws), next(draws)
        assert first[0] is second[0] and first[1] is second[1]

    def test_bind_keeps_a_sampler_of_the_same_system(self):
        system, part = _zero_block_system("dense", 8)
        sampler = BlockSampler.bind(part, system)
        assert sampler.scheme is part and BlockSampler.bind(sampler, system) is sampler
        other, _ = _zero_block_system("dense", 8)
        with pytest.raises(ValueError, match="bound to another system"):
            BlockSampler.bind(sampler, other)

    @pytest.mark.parametrize("kind", ["dense", "csr"])
    @pytest.mark.parametrize("p", [8, 16])
    def test_lambda_max_matches_per_block_loop(self, kind, p):
        system, part = _zero_block_system(kind, p)
        A = system.A
        worst = max(block_spectral_norm_sq(A, blk) / w for blk in part.blocks
                    if (w := A.row_norms_sq[blk].sum()) > 0)
        assert lambda_max_sup(part, A).value == float(worst)
        assert compute_tau(part, A) == float(worst) / A.fro_norm_sq

    def test_csr_lambda_max_makes_no_row_gather(self, monkeypatch):
        system, part = _zero_block_system("csr", 8)
        expected = lambda_max_sup(part, system.A)

        def no_row_block(self, idx):
            raise AssertionError("a partition's blocks come from one permuted copy")

        monkeypatch.setattr(Matrix, "row_block", no_row_block)
        assert lambda_max_sup(part, system.A) == expected

    # ``row`` and ``identity`` are partitions too: what sets them apart is
    # their label, the identity's S = I and the size of their support

    @pytest.mark.parametrize("spec", ["row", "identity", "uniform:3", "partition:8"])
    def test_describe_round_trips(self, spec):
        system, _ = _zero_block_system("dense", 8)
        assert materialize(spec, system.A).describe() == spec

    @pytest.mark.parametrize("kind", ["dense", "csr"])
    @pytest.mark.parametrize("spec", ["row", "partition:1"])
    def test_one_row_blocks_give_exactly_one(self, kind, spec):
        system, _ = _zero_block_system(kind, 8)
        assert lambda_max_sup(materialize(spec, system.A), system.A) == LambdaMaxResult(1.0)

    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_identity_lambda_max_is_unscaled(self, kind):
        system, _ = _zero_block_system(kind, 8)
        A = system.A
        expected = block_spectral_norm_sq(A, np.arange(A.rows))
        assert lambda_max_sup(materialize("identity", A), A) == LambdaMaxResult(expected)

    @pytest.mark.parametrize("spec,attempts", [
        ("identity", 1), ("partition:45", 1), ("row", 100 * 45), ("partition:8", 100 * 6),
    ])
    def test_attempts_per_block(self, spec, attempts):
        system, _ = _zero_block_system("dense", 8)
        sampler = BlockSampler(materialize(spec, system.A), system)
        assert sampler.attempts == range(attempts)

    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_bound_refuses_identity(self, kind):
        system, _ = _zero_block_system(kind, 8)
        with pytest.raises(UnsupportedError, match="deterministic scheme"):
            theoretical_bound(materialize("identity", system.A), system.A)


def _floyd(t, m, p):
    """Floyd's algorithm, step by step, on one row of draws t."""
    taken = set()
    for j, v in enumerate(t.tolist()):
        taken.add(m - p + j if v in taken else v)
    return sorted(taken)


class TestUniformStream:
    """``uniform:<p>`` keys come from ``floyd_subsets``, 256 a chunk."""

    @pytest.mark.parametrize("m, p", [(6, 3), (40, 1), (40, 40), (50, 7), (40, 33), (2000, 32)])
    def test_chunks_are_sorted_distinct_rows(self, m, p):
        system = generate_gaussian_problem(m, 2, 2, 2.0, seed=0)
        chunks = BlockSampler(UniformBlock(p=p), system).key_chunks(np.random.default_rng(1))
        for _ in range(3):
            keys = next(chunks)
            assert keys.dtype == np.int64 and keys.shape == (256, p)
            assert keys.min() >= 0 and keys.max() < m
            assert (np.diff(keys, axis=1) > 0).all()

    @pytest.mark.parametrize("m, p", [(6, 3), (40, 1), (40, 40), (50, 7), (40, 33), (9, 8)])
    def test_vectorised_draws_are_floyds(self, m, p):
        # the same generator calls as a step-by-step Floyd on each row
        t = np.random.default_rng(5).integers(0, np.arange(m - p + 1, m + 1), size=(500, p))
        expected = np.array([_floyd(row, m, p) for row in t])
        assert np.array_equal(floyd_subsets(np.random.default_rng(5), m, p, 500), expected)

    def test_every_subset_equally_likely(self):
        # chi-square over the 20 subsets of 3 of 6 rows
        from scipy.stats import chisquare

        system = generate_gaussian_problem(6, 2, 2, 2.0, seed=0)
        chunks = BlockSampler(UniformBlock(p=3), system).key_chunks(np.random.default_rng(7))
        keys = np.concatenate([next(chunks) for _ in range(80)])
        index = {J: i for i, J in enumerate(combinations(range(6), 3))}
        counts = np.bincount([index[tuple(J)] for J in keys.tolist()], minlength=20)
        assert len(counts) == 20 and counts.sum() == 80 * 256
        assert chisquare(counts).pvalue > 1e-3


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
        row = parse_scheme("row").materialize(A, 0)
        assert [blk.tolist() for blk in row.blocks] == [[i] for i in range(10)]
        identity = parse_scheme("identity").materialize(A, 0)
        assert len(identity.blocks) == 1 and identity.unit_scale
        np.testing.assert_array_equal(identity.blocks[0], np.arange(10))
        assert parse_scheme("uniform:3").materialize(A, 0) == UniformBlock(p=3)
        with pytest.raises(InvalidBlockSizeError, match="1 <= p <= m=10"):
            parse_scheme("uniform:11").materialize(A, 0)
        part = parse_scheme("partition:4").materialize(A, 7)
        again = parse_scheme("partition:4").materialize(A, 7)
        assert isinstance(part, PartitionBlock)
        for x, y in zip(part.blocks, again.blocks):
            np.testing.assert_array_equal(x, y)
