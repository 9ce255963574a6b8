"""Solver steps (checked through one-step runs) and full solver runs."""

import gc
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    augmented_iterates,
    csr_rows,
    dense_sketch,
    materialize,
    record_draws,
    sketched_residual_cosines,
    step_cosines,
)
from momsolve import sampling, solvers
from momsolve.errors import (
    BreakdownError,
    DegenerateDirectionError,
    DivergedError,
    StalledSamplingError,
    UnsupportedError,
)
from momsolve.linalg import Matrix, min_norm_solution
from momsolve.problems import LinearSystem, attach_min_norm, generate_gaussian_problem
from momsolve.sampling import (
    BlockSampler,
    PartitionBlock,
    compute_tau,
    parse_scheme,
)
from momsolve.solvers import (
    RESIDUAL_WINDOW,
    SOLVER_IDS,
    SolverConfig,
    ashbm_parameters,
    solve_ashbm,
    solve_basic,
    solve_cgne,
    solve_modified_basic,
    solve_mrabk,
    solve_scg,
)


def _system(dense, b):
    return attach_min_norm(LinearSystem(A=Matrix.from_dense(dense), b=np.asarray(b, float)))


def _first_steps(solve, system, scheme, seeds=range(8), **kw):
    """One-step runs of ``solve`` under several seeds, so that every row
    of a small system gets drawn first in some run."""
    return [solve(system, scheme, _cfg(max_iters=1, seed=seed, **kw)) for seed in seeds]


class TestPolyakStepsize:
    def test_identity_single_coordinate(self):
        sys_ = _system(np.eye(2), [1.0, -1.0])  # r0 = -b = [-1, 1]
        for _, trace in _first_steps(solve_modified_basic, sys_, materialize("row", sys_.A)):
            assert trace.alpha[0] == pytest.approx(1.0)

    def test_row_normalized_recovers_row_projection(self, rng):
        # with S = e_i/||A_i||, one relaxed step with zeta=1 equals the
        # classical projection onto the i-th hyperplane
        dense = rng.standard_normal((6, 4))
        sys_ = _system(dense, dense @ rng.standard_normal(4))
        classical = [(sys_.b[i] / (dense[i] @ dense[i])) * dense[i] for i in range(6)]
        for state, _ in _first_steps(solve_modified_basic, sys_, materialize("row", sys_.A)):
            assert min(np.max(np.abs(state.x - c)) for c in classical) <= 1e-12

    def test_block_matches_dense_formula(self):
        dense = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        sys_ = _system(dense, dense @ np.array([1.0, -1.5]))
        scheme = PartitionBlock(blocks=(np.array([0, 1]), np.array([2])))
        r = -sys_.b  # residual at x0 = 0
        expected = []
        for blk in scheme.blocks:
            S = dense_sketch(blk, 1.0 / np.sqrt((dense[blk] ** 2).sum()), 3)
            t = S.T @ r
            g = dense.T @ S @ t
            expected.append(((t @ t) / (g @ g), -((t @ t) / (g @ g)) * g))
        for state, trace in _first_steps(solve_modified_basic, sys_, scheme):
            assert any(trace.alpha[0] == pytest.approx(alpha, rel=1e-13)
                       and np.allclose(state.x, x, rtol=0, atol=1e-13)
                       for alpha, x in expected)

    def test_zero_sketch_is_resampled(self):
        # r0 = [0, -5]: row 0 gives a zero sketch, which is never stepped on
        sys_ = _system(np.eye(2), [0.0, 5.0])
        runs = _first_steps(solve_modified_basic, sys_, materialize("row", sys_.A))
        for state, trace in runs:
            assert trace.alpha[0] == pytest.approx(1.0)
            np.testing.assert_allclose(state.x, [0.0, 5.0], atol=1e-14)
        assert max(trace.sample_draws for _, trace in runs) > 1


class TestBasicStep:
    def test_exact_row_projection(self):
        sys_ = _system(np.eye(2), [1.0, 2.0])
        for state, trace in _first_steps(solve_basic, sys_, materialize("row", sys_.A)):
            assert trace.moved[0]
            assert any(np.allclose(state.x, x, rtol=0, atol=1e-14)
                       for x in ([1.0, 0.0], [0.0, 2.0]))
            np.testing.assert_allclose(state.r, sys_.A.matvec(state.x) - sys_.b, atol=1e-14)

    def test_zero_sketch_keeps_iterate(self):
        sys_ = _system(np.eye(2), [1.0, 0.0])
        unmoved = [(state, trace) for state, trace in
                   _first_steps(solve_basic, sys_, materialize("row", sys_.A))
                   if not trace.moved[0]]
        assert unmoved
        for state, trace in unmoved:
            assert trace.alpha[0] == 0.0
            np.testing.assert_allclose(state.x, [0.0, 0.0])
            assert state.k == 1

    def test_relaxed_step(self):
        sys_ = _system([[2.0, 0.0], [0.0, 1.0]], [2.0, 1.0])
        row = materialize("row", sys_.A)
        for state, trace in _first_steps(solve_basic, sys_, row, zeta=0.5):
            # row i is scaled by 1/||A_i||, so alpha = (2 - 0.5) * 1 / 1
            assert trace.alpha[0] == pytest.approx(1.5)
            assert any(np.allclose(state.x, x, rtol=0, atol=1e-14)
                       for x in ([1.5, 0.0], [0.0, 1.5]))


def _gram(g, d):
    """The entries ||d||^2, d.g, ||g||^2 of the Gram matrix of [d; g]."""
    return float(d @ d), float(g @ d), float(g @ g)


class TestAshbmParameters:
    def test_orthogonal_directions_reduce_to_polyak(self):
        alpha, beta = ashbm_parameters(*_gram(np.array([2.0, 0.0]), np.array([0.0, 3.0])), 5.0)
        assert alpha == pytest.approx(5.0 / 4.0)
        assert beta == 0.0

    def test_worked_example(self):
        alpha, beta = ashbm_parameters(*_gram(np.array([1.0, 0.0]), np.array([1.0, 1.0])), 2.0)
        assert alpha == pytest.approx(4.0)
        assert beta == pytest.approx(2.0)

    def test_parallel_directions_degenerate(self):
        g = np.array([1.0, 2.0])
        with pytest.raises(DegenerateDirectionError):
            ashbm_parameters(*_gram(g, 3.0 * g), 1.0)

    def test_matches_least_squares_oracle(self):
        # replay the draws of a two-step ashbm run and compare its second
        # (alpha, beta) against the direct 2-variable least squares
        # minimizer of ||err - alpha g + beta d|| using the oracle A^+ b.
        # Valid because <d, err> = 0 after an exact Polyak step and
        # <g, err> = ||S^T r||^2 for consistent systems.
        sys_ = generate_gaussian_problem(30, 20, 20, 3.0, seed=8)
        A, b = sys_.A, sys_.b
        target = min_norm_solution(A, b)
        state, trace = solve_ashbm(sys_, materialize("row", sys_.A), _cfg(max_iters=2, seed=4))
        assert trace.sample_draws == 2
        draws = BlockSampler(materialize("row", sys_.A), sys_).draws(np.random.default_rng(4))

        def gradient(x):
            fwd, bwd, _ = next(draws)
            t = fwd.dot(np.append(x, 1.0))
            return bwd.dot(t)[:20], float(t @ t)

        x0 = np.zeros(20)
        g0, s0 = gradient(x0)
        x1 = x0 - (s0 / (g0 @ g0)) * g0
        d = x1 - x0
        g, s = gradient(x1)
        alpha, beta = ashbm_parameters(*_gram(g, d), s)
        err = x1 - target
        M = np.array([[g @ g, -(g @ d)], [-(g @ d), d @ d]])
        rhs = np.array([g @ err, -(d @ err)])
        ref_alpha, ref_beta = np.linalg.solve(M, rhs)
        assert alpha == pytest.approx(ref_alpha, rel=1e-10)
        assert beta == pytest.approx(ref_beta, rel=1e-10, abs=1e-12)
        assert trace.alpha[1] == pytest.approx(ref_alpha, rel=1e-10)
        assert trace.beta[1] == pytest.approx(ref_beta, rel=1e-10, abs=1e-12)
        np.testing.assert_allclose(state.x, x1 - alpha * g + beta * d, atol=1e-12)


class TestComputeTau:
    def test_singleton_blocks(self, rng):
        A = Matrix.from_dense(rng.standard_normal((5, 3)))
        scheme = PartitionBlock(blocks=tuple(np.array([i]) for i in range(5)))
        assert compute_tau(scheme, A) == pytest.approx(1.0 / A.fro_norm_sq)

    def test_diagonal_worked_example(self):
        A = Matrix.from_dense(np.diag([2.0, 1.0]))
        scheme = PartitionBlock(blocks=(np.array([0]), np.array([1])))
        assert compute_tau(scheme, A) == pytest.approx(1.0 / 5.0)


def _cfg(**kw):
    base = dict(rse_tolerance=1e-12, max_iters=100000, seed=3, record_timing=False)
    base.update(kw)
    return SolverConfig(**base)


class TestSolverRuns:
    def test_already_solved(self):
        A = Matrix.from_dense(np.eye(2))
        sys_ = attach_min_norm(LinearSystem(A=A, b=np.zeros(2)))
        state, trace = solve_modified_basic(sys_, materialize("row", sys_.A), _cfg())
        assert trace.converged
        assert trace.iterations == 0
        assert trace.reason == "already_solved"

    @pytest.mark.parametrize("solve", [solve_modified_basic, solve_ashbm, solve_scg])
    def test_rse_is_relative_squared_error(self, rng, solve):
        # rse[k-1] = ||x_k - A^+b||^2 / ||x_0 - A^+b||^2 with x_0 = 0
        dense = rng.standard_normal((12, 6))
        sys_ = _system(dense, dense @ rng.standard_normal(6))
        _, trace = solve(sys_, PartitionBlock.from_permutation(12, 3, seed=1),
                         _cfg(max_iters=20), keep_iterates=True)
        x_min = sys_.min_norm
        expected = [np.sum((x - x_min) ** 2) / np.sum(x_min ** 2) for x in trace.iterates]
        assert len(expected) == trace.iterations > 0
        np.testing.assert_allclose(trace.rse, expected, rtol=1e-10, atol=1e-15)

    def test_orthogonal_rows_two_steps(self):
        sys_ = attach_min_norm(
            LinearSystem(A=Matrix.from_dense(np.eye(2)), b=np.array([1.0, 1.0]))
        )
        state, trace = solve_modified_basic(sys_, materialize("row", sys_.A), _cfg())
        assert trace.converged
        assert trace.iterations <= 2
        np.testing.assert_allclose(state.x, [1.0, 1.0], atol=1e-12)

    def test_basic_records_unmoved_steps(self):
        # b = e_1, so drawing row 2 yields a zero sketch and no motion
        sys_ = attach_min_norm(
            LinearSystem(A=Matrix.from_dense(np.eye(2)), b=np.array([1.0, 0.0]))
        )
        # seed chosen so the first draw lands on the zero-residual row
        state, trace = solve_basic(sys_, materialize("row", sys_.A),
                                   _cfg(max_iters=50, seed=0))
        assert trace.converged
        assert not trace.moved.all()
        np.testing.assert_allclose(state.x, [1.0, 0.0], atol=1e-12)

    def test_modified_basic_converges_to_min_norm(self):
        sys_ = generate_gaussian_problem(100, 50, 50, 2.0, seed=1)
        scheme = PartitionBlock.from_permutation(100, 10, seed=1)
        state, trace = solve_modified_basic(sys_, scheme, _cfg())
        assert trace.converged
        rel = np.linalg.norm(state.x - sys_.min_norm) / np.linalg.norm(sys_.min_norm)
        assert rel <= 1e-5
        assert trace.final_rse <= 1e-12
        assert trace.moved.all()

    def test_modified_basic_strictly_decreasing(self):
        sys_ = generate_gaussian_problem(60, 30, 30, 3.0, seed=2)
        _, trace = solve_modified_basic(sys_, materialize("row", sys_.A), _cfg())
        assert np.all(np.diff(trace.rse) < 0)

    def test_trace_determinism(self):
        sys_ = generate_gaussian_problem(80, 40, 40, 2.0, seed=5)
        scheme = PartitionBlock.from_permutation(80, 8, seed=5)
        _, t1 = solve_modified_basic(sys_, scheme, _cfg())
        _, t2 = solve_modified_basic(sys_, scheme, _cfg())
        np.testing.assert_array_equal(t1.rse, t2.rse)
        np.testing.assert_array_equal(t1.alpha, t2.alpha)
        np.testing.assert_array_equal(t1.wall_nanos, 0)

    def test_min_norm_required(self):
        sys_ = LinearSystem(A=Matrix.from_dense(np.eye(2)), b=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            solve_modified_basic(sys_, materialize("row", sys_.A), _cfg())

    def test_stalled_sampling(self):
        sys_ = generate_gaussian_problem(20, 10, 10, 2.0, seed=0)
        cfg = _cfg(zero_test_threshold=1e6)
        with pytest.raises(StalledSamplingError):
            solve_modified_basic(sys_, materialize("row", sys_.A), cfg)

    def test_keep_iterates(self):
        sys_ = generate_gaussian_problem(30, 15, 15, 2.0, seed=4)
        _, trace = solve_modified_basic(sys_, materialize("row", sys_.A),
                                        _cfg(max_iters=25), keep_iterates=True)
        assert len(trace.iterates) == len(trace)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sys_ = generate_gaussian_problem(10, 5, 5, 2.0, seed=0)
            solve_modified_basic(sys_, materialize("row", sys_.A), _cfg(zeta=2.0))
        with pytest.raises(ValueError):
            _cfg(momentum_beta=1.0).validate()


class TestAshbm:
    def test_first_iterate_matches_modified_basic(self):
        sys_ = generate_gaussian_problem(50, 25, 25, 3.0, seed=6)
        scheme = PartitionBlock.from_permutation(50, 5, seed=6)
        s1, _ = solve_ashbm(sys_, scheme, _cfg(max_iters=1))
        s2, _ = solve_modified_basic(sys_, scheme, _cfg(max_iters=1))
        np.testing.assert_allclose(s1.x, s2.x, atol=1e-14)

    def test_converges_faster_than_no_momentum(self):
        sys_ = generate_gaussian_problem(100, 50, 50, 2.0, seed=1)
        scheme = PartitionBlock.from_permutation(100, 10, seed=1)
        _, plain = solve_modified_basic(sys_, scheme, _cfg())
        _, mom = solve_ashbm(sys_, scheme, _cfg())
        assert mom.converged and plain.converged
        assert mom.iterations < plain.iterations

    def test_step_orthogonality(self):
        sys_ = generate_gaussian_problem(100, 50, 50, 5.0, seed=7)
        scheme = PartitionBlock.from_permutation(100, 10, seed=7)
        _, trace = solve_ashbm(sys_, scheme, _cfg(), keep_iterates=True)
        assert np.max(np.abs(step_cosines(augmented_iterates(trace)))) <= 1e-8

    def test_identity_scheme_matches_cgne(self):
        sys_ = generate_gaussian_problem(40, 25, 25, 8.0, seed=9)
        cfg = _cfg(max_iters=20, rse_tolerance=1e-32, zero_test_threshold=1e-150)
        _, ta = solve_ashbm(sys_, materialize("identity", sys_.A), cfg, keep_iterates=True)
        _, tc = solve_cgne(sys_, cfg, keep_iterates=True)
        for xa, xc in zip(ta.iterates, tc.iterates):
            rel = np.linalg.norm(xa - xc) / np.linalg.norm(xc)
            assert rel <= 1e-10


class TestScg:
    def test_initial_direction(self):
        # deterministic scheme pins the first direction to -A^T(Ax0 - b)
        sys_ = generate_gaussian_problem(20, 12, 12, 2.0, seed=3)
        state, _ = solve_scg(sys_, materialize("identity", sys_.A), _cfg(max_iters=1))
        p0 = sys_.A.rmatvec(sys_.b)  # -A^T(0 - b)
        delta = float(sys_.b @ sys_.b) / float(p0 @ p0)
        np.testing.assert_allclose(state.x, delta * p0, atol=1e-13)

    def test_matches_ashbm(self):
        sys_ = generate_gaussian_problem(200, 50, 50, 5.0, seed=2)
        scheme = PartitionBlock.from_permutation(200, 10, seed=2)
        cfg = _cfg(max_iters=100, rse_tolerance=1e-14)
        _, ta = solve_ashbm(sys_, scheme, cfg, keep_iterates=True)
        _, ts = solve_scg(sys_, scheme, cfg, keep_iterates=True)
        assert len(ta.iterates) == len(ts.iterates)
        for xa, xs in zip(ta.iterates, ts.iterates):
            rel = np.linalg.norm(xa - xs) / max(np.linalg.norm(xs), 1e-300)
            assert rel <= 1e-10

    def test_direction_orthogonality(self):
        sys_ = generate_gaussian_problem(100, 50, 50, 5.0, seed=7)
        scheme = PartitionBlock.from_permutation(100, 10, seed=7)
        sampler = BlockSampler(scheme, sys_)
        blocks = record_draws(sampler)
        _, trace = solve_scg(sys_, sampler, _cfg(), keep_iterates=True)
        del blocks[trace.sample_draws:]
        # no draw was rejected, so blocks[k − 1] is step k's sketch
        assert trace.reason == "rse" and len(blocks) == trace.iterations
        X = augmented_iterates(trace)
        assert np.max(np.abs(step_cosines(X))) <= 1e-8
        assert np.max(np.abs(sketched_residual_cosines(blocks, X))) <= 1e-8

    @pytest.mark.parametrize("make", [
        lambda: generate_gaussian_problem(200, 50, 50, 10.0, seed=0),
        lambda: _sparse_system(300, 80, seed=4),
    ], ids=["dense", "csr"])
    def test_one_forward_product_per_draw(self, make):
        # eta comes from the pullback of the draw, so each drawn block is
        # applied forward once: to the iterate it sketches
        sys_ = make()
        sampler = BlockSampler(materialize("partition:4", sys_.A), sys_)
        calls = []

        class Counted:
            def __init__(self, block):
                self.block = block

            def dot(self, *args, **kw):
                calls.append(1)
                return self.block.dot(*args, **kw)

        sampler.blocks = [(Counted(fwd), bwd, key) for fwd, bwd, key in sampler.blocks]
        _, trace = solve_scg(sys_, sampler, _cfg(max_iters=300, rse_tolerance=0.0))
        assert trace.iterations == 300 and trace.sample_draws >= 300
        assert len(calls) == trace.sample_draws


class TestDiagnostics:
    # the identities are checked on returned iterates, not recorded by a run
    @pytest.mark.parametrize("solver", sorted(SOLVER_IDS))
    def test_takes_no_diagnostics(self, solver):
        sys_ = generate_gaussian_problem(40, 10, 10, 2.0, seed=3)
        scheme = () if solver == "cgne" else (PartitionBlock.from_permutation(40, 5, seed=3),)
        with pytest.raises(TypeError, match="diagnostics"):
            SOLVER_IDS[solver](sys_, *scheme, _cfg(), diagnostics=True)


class TestResidualStop:
    """With every sketch below the zero test, a run ends before its first
    step: reason "residual" when max|b| is below the tolerance, an error
    otherwise. One rule decides it for the draw loop, scg and cgne."""

    @staticmethod
    def _run(solver, scale):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((30, 10))
        sys_ = _system(A, A @ (scale * rng.standard_normal(10)))
        args = (sys_,) if solver == "cgne" else (sys_, materialize("row", sys_.A))
        return SOLVER_IDS[solver](*args, _cfg(zero_test_threshold=1e6))[1]

    @pytest.mark.parametrize("solver", ["mbasic", "ashbm", "scg", "cgne"])
    def test_tiny_residual_stops_at_step_zero(self, solver):
        trace = self._run(solver, 1e-20)
        assert (trace.converged, trace.reason, trace.iterations) == (True, "residual", 0)

    @pytest.mark.parametrize("solver, error", [
        ("mbasic", StalledSamplingError), ("ashbm", StalledSamplingError),
        ("scg", StalledSamplingError), ("cgne", BreakdownError)])
    def test_large_residual_raises(self, solver, error):
        with pytest.raises(error):
            self._run(solver, 1.0)


class TestCgne:
    def test_scalar_system_one_step(self):
        sys_ = attach_min_norm(
            LinearSystem(A=Matrix.from_dense([[2.0]]), b=np.array([4.0]))
        )
        state, trace = solve_cgne(sys_, _cfg())
        assert trace.iterations == 1
        assert trace.alpha[0] == pytest.approx(0.25)  # 16 / 64
        np.testing.assert_allclose(state.x, [2.0], atol=1e-14)

    def test_diagonal_two_steps(self):
        sys_ = attach_min_norm(
            LinearSystem(A=Matrix.from_dense(np.diag([1.0, 2.0])),
                         b=np.array([1.0, 4.0]))
        )
        state, trace = solve_cgne(sys_, _cfg(rse_tolerance=1e-28))
        assert trace.iterations <= 2
        np.testing.assert_allclose(state.x, [1.0, 2.0], atol=1e-12)
        assert np.linalg.norm(state.r) <= 1e-12

    def test_gaussian_residual_decay(self):
        sys_ = generate_gaussian_problem(60, 40, 40, 8.0, seed=11)
        cfg = _cfg(max_iters=50, rse_tolerance=1e-28, zero_test_threshold=1e-30)
        state, trace = solve_cgne(sys_, cfg)
        assert np.linalg.norm(state.r) <= 1e-8
        assert trace.iterations <= 50

    def test_rank_deficient_converges_to_min_norm(self):
        sys_ = generate_gaussian_problem(40, 60, 25, 4.0, seed=12)
        state, trace = solve_cgne(sys_, _cfg(max_iters=200))
        assert trace.converged
        rel = np.linalg.norm(state.x - sys_.min_norm) / np.linalg.norm(sys_.min_norm)
        assert rel <= 1e-5


class TestMrabk:
    def test_bound_sampler_computes_tau_once(self, monkeypatch):
        sys_ = generate_gaussian_problem(40, 10, 10, 2.0, seed=4)
        sampler = BlockSampler(PartitionBlock.from_permutation(40, 8, seed=4), sys_)
        calls = []
        lambda_max_sup = sampling.lambda_max_sup
        monkeypatch.setattr(sampling, "lambda_max_sup",
                            lambda *args: calls.append(1) or lambda_max_sup(*args))
        traces = [solve_mrabk(sys_, sampler, _cfg(max_iters=5, seed=seed))[1]
                  for seed in range(3)]
        assert len(calls) == 1
        assert traces[0].alpha[0] == 1.0 / (compute_tau(sampler.scheme, sys_.A)
                                             * sys_.A.fro_norm_sq)

    def test_requires_partition(self):
        sys_ = generate_gaussian_problem(20, 10, 10, 2.0, seed=0)
        with pytest.raises(UnsupportedError,
                           match="mrabk requires partition:<p> sampling, got 'uniform:4'"):
            solve_mrabk(sys_, materialize("uniform:4", sys_.A), _cfg())

    def test_singleton_blocks_unit_step(self, rng):
        sys_ = generate_gaussian_problem(10, 5, 5, 2.0, seed=1)
        scheme = PartitionBlock(blocks=tuple(np.array([i]) for i in range(10)))
        _, trace = solve_mrabk(sys_, scheme, _cfg(max_iters=5))
        np.testing.assert_allclose(trace.alpha, 1.0)

    def test_beta_zero_is_fixed_step_update(self):
        sys_ = generate_gaussian_problem(30, 15, 15, 2.0, seed=2)
        scheme = PartitionBlock.from_permutation(30, 5, seed=2)
        cfg = _cfg(max_iters=1, momentum_beta=0.0, seed=42)
        state, trace = solve_mrabk(sys_, scheme, cfg)
        # replicate the single draw and the constant-step update in numpy:
        # block i has probability ||A_Ii||_F^2 / ||A||_F^2
        dense, b = sys_.A.toarray(), sys_.b
        fro_sq = np.array([(dense[blk] ** 2).sum() for blk in scheme.blocks])
        u = np.random.default_rng(42).random()
        blk = scheme.blocks[int(np.searchsorted(np.cumsum(fro_sq) / fro_sq.sum(), u,
                                                side="right"))]
        tau = max(np.linalg.norm(dense[J], 2) ** 2 / f
                  for J, f in zip(scheme.blocks, fro_sq)) / fro_sq.sum()
        alpha = 1.0 / (tau * fro_sq.sum())
        s = 1.0 / np.sqrt((dense[blk] ** 2).sum())
        t = s * (dense[blk] @ np.zeros(15) - b[blk])
        expected = -alpha * (dense[blk].T @ (s * t))
        np.testing.assert_allclose(state.x, expected, atol=1e-13)
        assert trace.alpha[0] == pytest.approx(alpha)
        assert trace.beta[0] == 0.0

    def test_converges(self):
        sys_ = generate_gaussian_problem(100, 50, 50, 2.0, seed=3)
        scheme = PartitionBlock.from_permutation(100, 10, seed=3)
        _, trace = solve_mrabk(sys_, scheme, _cfg(rse_tolerance=1e-10,
                                                  max_iters=200000))
        assert trace.converged

    def test_divergence_stops_the_run(self):
        # beta = 0.999 overshoots: the RSE overflows after a few thousand
        # steps, and the run must stop there instead of spinning to max_iters;
        # the overflow on the way raises no numpy warning
        sys_ = generate_gaussian_problem(200, 50, 50, 5.0, seed=0)
        scheme = PartitionBlock.from_permutation(200, 10, seed=0)
        with pytest.raises(DivergedError):
            solve_mrabk(sys_, scheme, _cfg(momentum_beta=0.999, max_iters=20000))

    @pytest.mark.parametrize("seed", range(4))
    def test_error_growing_without_overflow_diverges(self, seed):
        # the default beta = 0.7 overshoots on this wide system: the error
        # grows past ||x*||/eps long before it overflows, and the run stops
        # there instead of spinning to max_iters
        sys_ = generate_gaussian_problem(80, 200, 80, 10.0, seed=2)
        scheme = PartitionBlock.from_permutation(80, 10, seed=2)
        with pytest.raises(DivergedError, match=r"at step (\d+)") as caught:
            solve_mrabk(sys_, scheme, _cfg(seed=seed, max_iters=6000))
        rse = float(caught.value.args[0].split()[1])
        assert 2.0 ** 104 < rse < math.inf


def _sparse_system(m, n, seed):
    rng = np.random.default_rng(seed)
    A = Matrix.from_scipy(sp.random(m, n, density=0.2, random_state=rng) + sp.eye(m, n))
    return attach_min_norm(LinearSystem(A=A, b=A.matvec(rng.standard_normal(n))))


_CHANNEL_SYSTEMS = [
    lambda: generate_gaussian_problem(120, 40, 40, 5.0, seed=1),  # dense tall
    lambda: generate_gaussian_problem(80, 40, 20, 5.0, seed=2),  # rank-deficient
    lambda: generate_gaussian_problem(30, 60, 30, 5.0, seed=3),  # dense wide
    lambda: _sparse_system(90, 30, seed=4),
]
_CHANNEL_SYSTEM_IDS = ["tall", "rank_deficient", "wide", "sparse"]
_BLOCK_SOLVERS = (solve_ashbm, solve_scg, solve_basic, solve_modified_basic)


def _scheme_runs():
    """(solver, scheme spec) for every solver that samples, under each
    scheme it accepts; ``partition:10`` runs are named by the solver alone."""
    runs = [pytest.param(solve, "partition:10", id=solve.__name__)
            for solve in _BLOCK_SOLVERS + (solve_mrabk,)]
    runs += [pytest.param(solve, spec, id=f"{solve.__name__}-{spec.replace(':', '')}")
             for solve in _BLOCK_SOLVERS for spec in ("row", "uniform:10", "identity")]
    return runs


def _assert_residuals_match(sys_, trace):
    direct = [np.linalg.norm(sys_.A.matvec(x) - sys_.b) for x in trace.iterates]
    b_norm = float(np.linalg.norm(sys_.b))
    assert len(direct) == len(trace) > 0
    np.testing.assert_allclose(trace.residual_norm, direct, rtol=0,
                               atol=1e-10 * (1.0 + b_norm))


class TestResidualChannel:
    """The tracked ``residual_norm`` of each step against ||A x_k − b||."""

    @pytest.mark.parametrize("make", _CHANNEL_SYSTEMS, ids=_CHANNEL_SYSTEM_IDS)
    @pytest.mark.parametrize("solve, spec", _scheme_runs())
    def test_matches_direct_product(self, make, solve, spec):
        sys_ = make()
        scheme = parse_scheme(spec).materialize(sys_.A, 5)
        _, trace = solve(sys_, scheme, _cfg(max_iters=400), keep_iterates=True)
        _assert_residuals_match(sys_, trace)

    def test_matches_direct_product_past_a_refresh(self, monkeypatch):
        # long enough that the carried R·xa and R·d are replaced by exact
        # products at two window ends, and at the run's end
        flush = solvers._Window.flush
        ends = []

        def counting_flush(window, state):
            flush(window, state)
            ends.append(len(window.col))

        monkeypatch.setattr(solvers._Window, "flush", counting_flush)
        sys_ = generate_gaussian_problem(200, 50, 50, 10.0, seed=7)
        scheme = PartitionBlock.from_permutation(200, 4, seed=7)
        config = _cfg(max_iters=2 * RESIDUAL_WINDOW + 50)
        _, trace = solve_modified_basic(sys_, scheme, config, keep_iterates=True)
        assert ends == [RESIDUAL_WINDOW, 2 * RESIDUAL_WINDOW, 2 * RESIDUAL_WINDOW + 50]
        _assert_residuals_match(sys_, trace)

    @pytest.mark.parametrize("p", [8, 64])
    def test_scg_carries_its_residual(self, monkeypatch, p):
        # a tracked dense scg run follows R·xa through R·p, past one refresh,
        # with no product with R on the records
        def no_product(run, xa):
            raise AssertionError("a carried residual needs no product with R")

        monkeypatch.setattr(solvers._Run, "residual_norm", no_product)
        sys_ = generate_gaussian_problem(400, 100, 100, 20.0, seed=9)
        scheme = PartitionBlock.from_permutation(400, p, seed=9)
        config = _cfg(max_iters=RESIDUAL_WINDOW + 100, rse_tolerance=0.0)
        _, trace = solve_scg(sys_, scheme, config, keep_iterates=True)
        assert len(trace) == RESIDUAL_WINDOW + 100
        _assert_residuals_match(sys_, trace)

    def test_factor_only_when_tracking(self, monkeypatch):
        sys_ = generate_gaussian_problem(60, 20, 20, 3.0, seed=6)
        scheme = PartitionBlock.from_permutation(60, 6, seed=6)
        calls = []
        qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            calls.append(kwargs.get("mode"))
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        for solve in (solve_basic, solve_modified_basic, solve_ashbm, solve_scg, solve_mrabk):
            solve(sys_, scheme, _cfg(max_iters=50, track_residual=False))
        solve_cgne(sys_, _cfg(max_iters=50))  # records its own recurrence residual
        assert calls == []
        solve_ashbm(sys_, scheme, _cfg(max_iters=50))
        assert calls == ["r"]
        # the factor is the system's, so later tracked runs on it factor
        # nothing again
        solve_ashbm(sys_, scheme, _cfg(max_iters=50, seed=4))
        solve_scg(sys_, scheme, _cfg(max_iters=50))
        assert calls == ["r"]

    def test_run_is_freed_without_the_cycle_collector(self):
        # a finished run holds its sampler's blocks and the factor; a
        # reference cycle would keep them alive until the next collection
        sys_ = generate_gaussian_problem(60, 20, 20, 3.0, seed=6)
        scheme = PartitionBlock.from_permutation(60, 6, seed=6)
        gc.collect()
        gc.disable()
        try:
            solve_ashbm(sys_, scheme, _cfg(max_iters=50))
            alive = [o for o in gc.get_objects() if type(o).__name__ == "_Run"]
        finally:
            gc.enable()
        assert alive == []


def _split_system():
    """A dense system whose last 20 rows are orthogonal to the first 40 and
    have b = 0: steps on the first 40 rows never change their residual, so
    ``basic`` leaves x unmoved whenever it draws one of their blocks."""
    rng = np.random.default_rng(11)
    dense = np.zeros((60, 20))
    dense[:40, :15] = rng.standard_normal((40, 15))
    dense[40:, 15:] = rng.standard_normal((20, 5))
    b = np.zeros(60)
    b[:40] = dense[:40] @ rng.standard_normal(20)
    rows = np.arange(60)
    rows.setflags(write=False)
    return _system(dense, b), PartitionBlock(blocks=tuple(rows.reshape(15, 4)))


class TestResidualWindow:
    """A carried residual is advanced in windows of RESIDUAL_WINDOW logged
    steps; every way a run can end inside or at the edge of one leaves one
    norm per step, each within the channel's tolerance of ||A x_k − b||."""

    @staticmethod
    def _run(solve, steps, **kw):
        sys_ = generate_gaussian_problem(200, 50, 50, 10.0, seed=7)
        scheme = PartitionBlock.from_permutation(200, 4, seed=7)
        config = _cfg(max_iters=steps, rse_tolerance=0.0, **kw)
        return sys_, solve(sys_, scheme, config, keep_iterates=True)[1]

    @pytest.mark.parametrize("steps", [RESIDUAL_WINDOW, RESIDUAL_WINDOW + 1,
                                       RESIDUAL_WINDOW + RESIDUAL_WINDOW // 2 + 3],
                             ids=["on_boundary", "one_past", "mid_window"])
    @pytest.mark.parametrize("solve", [solve_ashbm, solve_scg], ids=["ashbm", "scg"])
    def test_max_iters_at_the_edges(self, solve, steps):
        sys_, trace = self._run(solve, steps)
        assert len(trace) == steps and trace.reason == "max_iters"
        _assert_residuals_match(sys_, trace)

    def test_scg_past_two_refreshes(self):
        sys_, trace = self._run(solve_scg, 2 * RESIDUAL_WINDOW + 7)
        assert len(trace) == 2 * RESIDUAL_WINDOW + 7
        _assert_residuals_match(sys_, trace)

    def test_basic_repeats_unmoved_steps(self):
        sys_, scheme = _split_system()
        _, trace = solve_basic(sys_, scheme, _cfg(max_iters=RESIDUAL_WINDOW + 40,
                                                  rse_tolerance=0.0), keep_iterates=True)
        assert len(trace) == RESIDUAL_WINDOW + 40
        # moved and unmoved steps mix inside the first window
        assert 0 < trace.moved[:RESIDUAL_WINDOW].sum() < RESIDUAL_WINDOW
        _assert_residuals_match(sys_, trace)

    @pytest.mark.parametrize("solve, spec", [(solve_ashbm, "partition:4"),
                                             (solve_scg, "partition:4"),
                                             (solve_basic, "split"),
                                             (solve_ashbm, "uniform:10")],
                             ids=["ashbm", "scg", "basic-unmoved", "ashbm-uniform10"])
    def test_mid_window_end_records_the_exact_norm(self, solve, spec):
        # the run's last window is cut short, and still closes on the
        # exact ||R·[x_K; 1]||
        if spec == "split":
            sys_, scheme = _split_system()
        else:
            sys_ = generate_gaussian_problem(200, 50, 50, 10.0, seed=7)
            scheme = materialize(spec, sys_.A, 7)
        steps = RESIDUAL_WINDOW + 437
        state, trace = solve(sys_, scheme, _cfg(max_iters=steps, rse_tolerance=0.0))
        assert len(trace) == steps
        r = sys_.residual_factor.dot(np.append(state.x, 1.0))
        assert trace.residual_norm[-1] == math.sqrt(r.dot(r))
        if spec == "split":
            assert not trace.moved[RESIDUAL_WINDOW:].all()

    def test_divergence_mid_window_leaves_the_sampler_clean(self):
        sys_ = generate_gaussian_problem(200, 50, 50, 5.0, seed=0)
        scheme = PartitionBlock.from_permutation(200, 10, seed=0)
        sampler = BlockSampler(scheme, sys_)
        with pytest.raises(DivergedError, match=r"at step (\d+)") as caught:
            solve_mrabk(sys_, sampler, _cfg(momentum_beta=0.999, max_iters=20000))
        step = int(re.search(r"at step (\d+)", str(caught.value)).group(1))
        assert step % RESIDUAL_WINDOW != 0
        config = _cfg(max_iters=RESIDUAL_WINDOW + 30, rse_tolerance=0.0)
        _, after = solve_mrabk(sys_, sampler, config, keep_iterates=True)
        _, fresh = solve_mrabk(sys_, BlockSampler(scheme, sys_), config)
        for column in ("k", "rse", "residual_norm", "alpha", "beta", "moved"):
            assert getattr(after, column).tobytes() == getattr(fresh, column).tobytes()
        _assert_residuals_match(sys_, after)

    def test_uniform_holds_no_gathers(self):
        # a uniform:<p> window logs the rows of each draw, never its
        # p x (n+1) gather of the residual map: a tracked run's traced peak
        # stays within one window of products of the untracked run's
        sys_ = generate_gaussian_problem(600, 300, 300, 10.0, seed=2)
        sampler = BlockSampler(materialize("uniform:32", sys_.A), sys_)
        solve_ashbm(sys_, sampler, _cfg(max_iters=5))  # builds R and the table
        peaks = {}
        for track in (False, True):
            config = _cfg(max_iters=2 * RESIDUAL_WINDOW, rse_tolerance=0.0,
                          track_residual=track)
            tracemalloc.start()
            try:
                solve_ashbm(sys_, sampler, config)
                peaks[track] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        window_bytes = RESIDUAL_WINDOW * sys_.residual_factor.shape[0] * 8
        assert peaks[True] - peaks[False] <= window_bytes


def _slow_csr_system():
    """A 400 x 100 CSR system, 4 entries a row, with its columns scaled from
    1 down to 1/20, on which ``partition:8`` runs take thousands of steps."""
    A = Matrix.from_scipy(csr_rows(400, 100, 4, seed=0) @ sp.diags(np.geomspace(1.0, 0.05, 100)))
    b = A.matvec(np.random.default_rng(0).standard_normal(100))
    return attach_min_norm(LinearSystem(A=A, b=b))


class TestCsrResidual:
    """A tracked CSR run in the compiled loop carries r = Ax − b and A·d
    itself, refreshed exactly every RESIDUAL_WINDOW steps and at the end,
    and never factors [A | −b]."""

    @pytest.mark.parametrize("solve, spec", [(solve_ashbm, "partition:8"),
                                             (solve_modified_basic, "row"),
                                             (solve_ashbm, "uniform:8"),
                                             (solve_basic, "split")],
                             ids=["ashbm", "mbasic-row", "ashbm-uniform8", "basic-unmoved"])
    def test_matches_direct_product_past_two_refreshes(self, monkeypatch, solve, spec):
        ends, flush = [], solvers._SparseResidual.flush

        def counting_flush(carry, state):
            flush(carry, state)
            ends.append(len(carry.col))

        monkeypatch.setattr(solvers._SparseResidual, "flush", counting_flush)
        if spec == "split":  # moved and unmoved steps mix in every window
            dense, scheme = _split_system()
            sys_ = attach_min_norm(LinearSystem(A=Matrix.from_scipy(sp.csr_matrix(
                dense.A.toarray())), b=dense.b))
        else:
            sys_ = _slow_csr_system()
            scheme = materialize(spec, sys_.A, 7)
        assert solvers.step_engine("ashbm", sys_.A) == "native"
        steps = 2 * RESIDUAL_WINDOW + 437
        state, trace = solve(sys_, scheme, _cfg(max_iters=steps, rse_tolerance=0.0),
                             keep_iterates=True)
        assert len(trace) == steps and ends == [RESIDUAL_WINDOW, 2 * RESIDUAL_WINDOW, steps]
        _assert_residuals_match(sys_, trace)
        r = sys_.A.matvec(state.x) - sys_.b
        assert trace.residual_norm[-1] == math.sqrt(r.dot(r))
        if spec == "split":
            assert 0 < trace.moved[:RESIDUAL_WINDOW].sum() < RESIDUAL_WINDOW

    @pytest.mark.parametrize("spec", ["partition:8", "row", "uniform:8"])
    def test_tracked_equals_untracked(self, monkeypatch, spec):
        sys_ = _slow_csr_system()
        scheme = materialize(spec, sys_.A, 7)
        calls, loop = [], solvers._native_loop
        monkeypatch.setattr(solvers, "_native_loop", lambda *a: calls.append(a) or loop(*a))
        tracked, untracked = (solve_ashbm(sys_, scheme, _cfg(
            max_iters=RESIDUAL_WINDOW + 300, rse_tolerance=0.0, track_residual=on))[1]
            for on in (True, False))
        assert len(calls) == 2
        for column in ("k", "rse", "alpha", "beta", "moved"):
            assert getattr(tracked, column).tobytes() == getattr(untracked, column).tobytes()
        assert np.isfinite(tracked.residual_norm).all()
        assert np.isnan(untracked.residual_norm).all()

    @pytest.mark.parametrize("engine", ["native", "numpy"])
    def test_never_factors(self, monkeypatch, engine):
        calls, qr = [], np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: calls.append(1) or qr(*a, **kw))
        if engine == "numpy":
            monkeypatch.setattr(solvers, "_KERNEL", None)
        sys_ = _sparse_system(90, 30, seed=4)
        for spec in ("partition:4", "uniform:4"):
            scheme = materialize(spec, sys_.A, 1)
            for name, solve in SOLVER_IDS.items():
                for track in (False, True):
                    config = _cfg(max_iters=300, track_residual=track)
                    if name == "cgne":
                        solve(sys_, config)
                    elif name != "mrabk" or spec.startswith("partition"):
                        solve(sys_, scheme, config)
        assert calls == [] and "residual_factor" not in vars(sys_)


class TestTrackingLeavesTheTrajectory:
    """Residual tracking only adds the ``residual_norm`` column: every other
    column and count of a run is the untracked run's, bit for bit."""

    @pytest.mark.parametrize("make", _CHANNEL_SYSTEMS, ids=_CHANNEL_SYSTEM_IDS)
    @pytest.mark.parametrize("solve, spec", _scheme_runs())
    def test_tracked_equals_untracked(self, make, solve, spec):
        sys_ = make()
        scheme = parse_scheme(spec).materialize(sys_.A, 5)
        tracked, untracked = (solve(sys_, scheme, _cfg(max_iters=300, track_residual=on))[1]
                              for on in (True, False))
        for column in ("k", "rse", "alpha", "beta", "moved"):
            assert getattr(tracked, column).tobytes() == getattr(untracked, column).tobytes()
        assert tracked.sample_draws == untracked.sample_draws
        assert tracked.fallback_steps == untracked.fallback_steps
        assert np.isnan(untracked.residual_norm).all()


def test_solver_registry():
    assert set(SOLVER_IDS) == {"basic", "mbasic", "ashbm", "scg", "cgne", "mrabk"}
    assert SOLVER_IDS["ashbm"] is solve_ashbm
