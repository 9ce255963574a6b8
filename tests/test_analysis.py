"""Error metrics, contraction bounds, and the bound-dominance check."""

from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import dense_sketch, materialize, scaled_sparse
from momsolve import analysis
from momsolve.analysis import (
    BOUND_SLACK,
    BoundReport,
    contraction_check,
    convergence_factor,
    median_rse_curve,
    theoretical_bound,
)
from momsolve.errors import InvalidBlockSizeError, UnsupportedError
from momsolve.linalg import Matrix
from momsolve.problems import LinearSystem, generate_gaussian_problem
from momsolve.sampling import (
    BlockSampler,
    PartitionBlock,
    UniformBlock,
    compute_tau,
    lambda_max_sup,
)
from momsolve.solvers import SolverConfig, Trace, solve_ashbm, solve_modified_basic, solve_mrabk


def _trace_from_rse(values):
    values = np.asarray(values, dtype=float)
    n = len(values)
    return Trace(
        k=np.arange(1, n + 1),
        rse=values,
        residual_norm=np.full(n, np.nan),
        alpha=np.zeros(n),
        beta=np.zeros(n),
        wall_nanos=np.zeros(n, dtype=np.int64),
        moved=np.ones(n, dtype=bool),
    )


class TestConvergenceFactor:
    def test_power_of_ten(self):
        assert convergence_factor(1e-12, 12) == pytest.approx(0.1)

    def test_no_progress(self):
        assert convergence_factor(1.0, 7) == 1.0

    def test_exact_convergence(self):
        assert convergence_factor(0.0, 5) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            convergence_factor(0.5, 0)
        with pytest.raises(ValueError):
            convergence_factor(1.5, 3)


class TestTheoreticalBound:
    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_badly_scaled_matrix_refused(self, scale):
        # not a NaN factor from an overflowed ||A||_F^2, nor a zero matrix
        A = Matrix.from_scipy(scaled_sparse(scale))
        with pytest.raises(ValueError, match="badly scaled system"):
            theoretical_bound(materialize("partition:8", A), A)

    def test_orthonormal_rows_single_row(self):
        A = Matrix.from_dense(np.eye(10))
        rep = theoretical_bound(materialize("row", A), A, zeta=1.0)
        assert rep.per_iter_factor == pytest.approx(0.9)
        assert rep.lambda_max == 1.0
        assert not rep.is_estimate

    @pytest.mark.parametrize("zero_row", [False, True])
    def test_singleton_partition_equals_single_row(self, rng, zero_row):
        dense = rng.standard_normal((8, 4))
        if zero_row:
            dense[0] = 0.0  # a block outside the support, first in the partition
        A = Matrix.from_dense(dense)
        row = theoretical_bound(materialize("row", A), A)
        part = theoretical_bound(
            PartitionBlock(blocks=tuple(np.array([i]) for i in range(8))), A
        )
        assert part.per_iter_factor == pytest.approx(row.per_iter_factor, rel=1e-12)

    def test_uniform_matches_brute_force(self, rng):
        A = Matrix.from_dense(rng.standard_normal((5, 3)))
        rep = theoretical_bound(UniformBlock(p=2), A, zeta=1.0)
        dense = A.toarray()
        svals = np.linalg.svd(dense, compute_uv=False)
        scale = np.sqrt(5 / 2) / np.sqrt(A.fro_norm_sq)
        lam = 0.0
        for J in combinations(range(5), 2):
            S = dense_sketch(np.array(J), scale, 5)
            M = dense.T @ S @ S.T @ dense
            lam = max(lam, float(np.linalg.eigvalsh(M)[-1]))
        expected = 1.0 - (svals[-1] ** 2 / A.fro_norm_sq) / lam
        assert rep.per_iter_factor == pytest.approx(expected, rel=1e-10)

    def test_zeta_dependence(self, rng):
        A = Matrix.from_dense(rng.standard_normal((8, 4)))
        mid = theoretical_bound(materialize("row", A), A, zeta=1.0)
        edge = theoretical_bound(materialize("row", A), A, zeta=0.5)
        assert mid.per_iter_factor < edge.per_iter_factor  # zeta=1 is optimal

    def test_identity_unsupported(self):
        A = Matrix.from_dense(np.eye(3))
        with pytest.raises(UnsupportedError):
            theoretical_bound(materialize("identity", A), A)

    def test_invalid_zeta(self):
        A = Matrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            theoretical_bound(materialize("row", A), A, zeta=2.0)

    def test_measured_factor_beats_bound(self):
        sys_ = generate_gaussian_problem(100, 20, 20, 2.0, seed=14)
        rep = theoretical_bound(materialize("row", sys_.A), sys_.A)
        cfg = SolverConfig(rse_tolerance=1e-12, max_iters=10 ** 5, seed=14,
                           record_timing=False)
        _, trace = solve_modified_basic(sys_, materialize("row", sys_.A), cfg)
        rho = convergence_factor(trace.final_rse, trace.iterations)
        assert rho < rep.per_iter_factor


# partitions of 40 rows that the sampler refuses: they overlap, leave rows
# out, name a row past the last, hold no block, or hold float indices
_UNFIT = {
    "overlapping": (np.arange(0, 20), np.arange(10, 40)),
    "gapped": (np.arange(0, 20),),
    "out_of_range": (np.arange(0, 20), np.arange(20, 45)),
    "no_blocks": (),
    "float_rows": (np.arange(0.0, 20.0), np.arange(20.0, 40.0)),
}


def _fit_system(kind):
    system = generate_gaussian_problem(40, 10, 10, 3.0, seed=0)
    if kind == "dense":
        return system
    return LinearSystem(Matrix.from_scipy(sp.csr_matrix(system.A.toarray())), system.b)


def _no_spectral(A):
    raise AssertionError("spectral_quantities ran")


class TestOneFitRule:
    """The bound, tau and lambda_max refuse every scheme that the sampler
    refuses, with the sampler's error; the bound before any spectral work."""

    @pytest.mark.parametrize("kind", ["dense", "csr"])
    @pytest.mark.parametrize("name", sorted(_UNFIT))
    def test_unfit_partition_refused_like_the_sampler(self, monkeypatch, kind, name):
        monkeypatch.setattr(analysis, "spectral_quantities", _no_spectral)
        system = _fit_system(kind)
        scheme = PartitionBlock(blocks=_UNFIT[name])
        with pytest.raises(ValueError) as refused:
            BlockSampler(scheme, system)
        assert str(refused.value) == "partition does not cover the matrix rows exactly once"
        for quantity in (lambda_max_sup, compute_tau, theoretical_bound):
            with pytest.raises(ValueError) as exc:
                quantity(scheme, system.A)
            assert type(exc.value) is type(refused.value)
            assert str(exc.value) == str(refused.value)

    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_bound_refuses_uniform_above_m_before_spectral_work(self, monkeypatch, kind):
        monkeypatch.setattr(analysis, "spectral_quantities", _no_spectral)
        with pytest.raises(InvalidBlockSizeError, match="p=41 must satisfy 1 <= p <= m=40"):
            theoretical_bound(UniformBlock(p=41), _fit_system(kind).A)


class TestOneTypeRule:
    def test_non_family_refused_with_one_error(self, monkeypatch):
        # a scheme spec string is not a sketch family: every user of a
        # scheme refuses it as UnsupportedError (exit 2), the bound before
        # any spectral work
        monkeypatch.setattr(analysis, "spectral_quantities", _no_spectral)
        system = _fit_system("dense")
        for call in (lambda: BlockSampler("row", system),
                     lambda: solve_ashbm(system, "row", SolverConfig()),
                     lambda: solve_mrabk(system, "row", SolverConfig()),
                     lambda: lambda_max_sup("row", system.A),
                     lambda: theoretical_bound("row", system.A)):
            with pytest.raises(UnsupportedError, match="unsupported scheme 'row'"):
                call()


class TestMedianRseCurve:
    def test_padding_with_final_value(self):
        traces = [_trace_from_rse([0.4, 0.2]), _trace_from_rse([0.8, 0.6, 0.5])]
        ks, med = median_rse_curve(traces)
        np.testing.assert_array_equal(ks, [1, 2, 3])
        np.testing.assert_allclose(med, [0.6, 0.4, 0.35])


class TestContractionCheck:
    def _report(self, factor):
        return BoundReport(scheme="partition:2", sigma_min_sq_HA=0.0,
                           lambda_max=1.0, per_iter_factor=factor,
                           is_estimate=False)

    def test_trace_on_the_bound_passes(self):
        factor = 0.9
        curve = factor ** np.arange(1, 41)
        traces = [_trace_from_rse(curve) for _ in range(30)]
        verdict = contraction_check(traces, self._report(factor))
        assert verdict.passed
        assert verdict.worst_ratio == pytest.approx(1.0 / (1.0 + BOUND_SLACK))

    def test_violation_detected(self):
        factor = 0.9
        curve = factor ** np.arange(1, 41)
        curve[10] *= 1.10  # 10% above the bound, beyond the 5% slack
        traces = [_trace_from_rse(curve) for _ in range(30)]
        verdict = contraction_check(traces, self._report(factor))
        assert not verdict.passed
        assert verdict.first_violation == 11

    def test_floor_is_ignored(self):
        # once the curve stalls below the floating-point floor it is exempt
        # from the bound, even where the bound keeps shrinking
        factor = 0.3
        curve = np.maximum(factor ** np.arange(1, 41), 1e-15)
        traces = [_trace_from_rse(curve) for _ in range(30)]
        assert contraction_check(traces, self._report(factor)).passed

    def test_needs_thirty_trials(self):
        traces = [_trace_from_rse([0.5])] * 29
        with pytest.raises(ValueError):
            contraction_check(traces, self._report(0.9))

    def test_real_run_respects_bound(self):
        sys_ = generate_gaussian_problem(200, 50, 50, 2.0, seed=21)
        scheme = PartitionBlock.from_permutation(200, 10, seed=21)
        rep = theoretical_bound(scheme, sys_.A, zeta=1.0)
        traces = []
        for i in range(50):
            cfg = SolverConfig(rse_tolerance=1e-13, max_iters=10 ** 5,
                               seed=1000 + i, record_timing=False,
                               track_residual=False)
            _, t = solve_modified_basic(sys_, scheme, cfg)
            traces.append(t)
        verdict = contraction_check(traces, rep)
        assert verdict.passed, verdict
