"""Matrix primitives, spectral summaries, and the SVD min-norm oracle."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from momsolve.errors import InconsistentSystemError, ZeroMatrixError
from momsolve.linalg import Matrix, min_norm_solution, spectral_quantities

DATA_DIRS = [Path(__file__).parent / "data", Path(__file__).parent.parent / "data"]


def _find_data(name):
    for d in DATA_DIRS:
        p = d / name
        if p.exists():
            return p
    return None


class TestMatrix:
    def test_dense_shape_and_row_norms(self):
        A = Matrix.from_dense([[3.0, 0.0], [0.0, 1.0]])
        assert A.shape == (2, 2)
        assert not A.is_sparse
        np.testing.assert_allclose(A.row_norms_sq, [9.0, 1.0])
        assert A.fro_norm_sq == pytest.approx(10.0)

    def test_sparse_construction_from_scipy(self):
        coo = sp.coo_matrix(([1.0, 2.0], ([0, 1], [0, 1])), shape=(2, 2))
        A = Matrix.from_scipy(coo)
        assert A.is_sparse
        np.testing.assert_allclose(A.toarray(), np.diag([1.0, 2.0]))
        np.testing.assert_allclose(A.row_norms_sq, [1.0, 4.0])

    def test_from_csr_roundtrip(self):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        A = Matrix.from_scipy(sp.csr_matrix(dense))
        assert A.is_sparse
        np.testing.assert_array_equal(A.toarray(), dense)

    def test_matvec_example(self):
        A = Matrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(A.matvec([1.0, 0.0]), [1.0, 3.0])

    def test_rmatvec_gives_first_row(self):
        A = Matrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(A.rmatvec([1.0, 0.0]), [1.0, 2.0])

    def test_sparse_matches_dense_products(self, rng):
        dense = rng.standard_normal((20, 15))
        dense[rng.random((20, 15)) < 0.5] = 0.0
        Ad = Matrix.from_dense(dense)
        As = Matrix.from_scipy(sp.csr_matrix(dense))
        x = rng.standard_normal(15)
        y = rng.standard_normal(20)
        idx = np.array([2, 5, 11])
        np.testing.assert_allclose(As.matvec(x), Ad.matvec(x), atol=1e-13)
        np.testing.assert_allclose(As.rmatvec(y), Ad.rmatvec(y), atol=1e-13)
        np.testing.assert_allclose(As.row_block(idx), Ad.row_block(idx), atol=1e-13)

    def test_shape_validation(self):
        A = Matrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            A.matvec([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            A.rmatvec([1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        dense = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ValueError):
            Matrix.from_dense(dense)
        with pytest.raises(ValueError):
            Matrix.from_scipy(sp.csr_matrix(dense))

    def test_storage_is_read_only(self):
        A = Matrix.from_dense([[1.0, 2.0]])
        out = A.toarray()
        out[0, 0] = 99.0  # toarray returns a copy
        np.testing.assert_allclose(A.toarray(), [[1.0, 2.0]])
        with pytest.raises(ValueError):
            A.row_norms_sq[0] = 0.0


class TestSpectralQuantities:
    def test_diagonal_matrix(self):
        s = spectral_quantities(Matrix.from_dense(np.diag([3.0, 1.0])))
        assert s.sigma_max == pytest.approx(3.0)
        assert s.sigma_min_nonzero == pytest.approx(1.0)
        assert s.rank == 2
        assert s.fro_norm == pytest.approx(np.sqrt(10.0))

    def test_rank_one_symmetric(self):
        s = spectral_quantities(Matrix.from_dense([[1.0, 1.0], [1.0, 1.0]]))
        assert s.sigma_max == pytest.approx(2.0)
        assert s.sigma_min_nonzero == pytest.approx(2.0)
        assert s.rank == 1
        assert s.fro_norm == pytest.approx(2.0)

    def test_matches_numpy_svd_oracle(self, rng):
        dense = rng.standard_normal((12, 7))
        s = spectral_quantities(Matrix.from_dense(dense))
        svals = np.linalg.svd(dense, compute_uv=False)
        assert s.sigma_max == pytest.approx(svals[0], rel=1e-12)
        assert s.sigma_min_nonzero == pytest.approx(svals[-1], rel=1e-12)
        assert s.rank == 7

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrixError):
            spectral_quantities(Matrix.from_dense(np.zeros((3, 3))))

    def test_worldcities_spectrum(self):
        path = _find_data("WorldCities.mtx")
        if path is None:
            pytest.skip("WorldCities.mtx not available")
        from momsolve.problems import load_matrix_market

        A = load_matrix_market(path)
        assert A.shape == (315, 100)
        s = spectral_quantities(A)
        assert s.rank == 100
        assert s.sigma_max / s.sigma_min_nonzero == pytest.approx(6.60, abs=0.01)


class TestMinNormSolution:
    def test_identity(self):
        x = min_norm_solution(Matrix.from_dense(np.eye(2)), [3.0, 4.0])
        np.testing.assert_allclose(x, [3.0, 4.0])

    def test_underdetermined_row(self):
        x = min_norm_solution(Matrix.from_dense([[1.0, 1.0]]), [2.0])
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-13)

    def test_rank_deficient_consistent(self):
        A = Matrix.from_dense([[1.0, 0.0], [0.0, 0.0]])
        x = min_norm_solution(A, [5.0, 0.0])
        np.testing.assert_allclose(x, [5.0, 0.0], atol=1e-13)

    def test_inconsistent_raises(self):
        A = Matrix.from_dense([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InconsistentSystemError):
            min_norm_solution(A, [0.0, 1.0])

    def test_non_finite_rhs_rejected(self):
        # a NaN residual must fail the consistency check, not pass it
        with pytest.raises(InconsistentSystemError):
            min_norm_solution(Matrix.from_dense(np.eye(2)), [1.0, np.nan])

    def test_solution_lies_in_row_space(self, rng):
        dense = rng.standard_normal((6, 10))
        A = Matrix.from_dense(dense)
        x_any = rng.standard_normal(10)
        b = A.matvec(x_any)
        x = min_norm_solution(A, b)
        np.testing.assert_allclose(A.matvec(x), b, atol=1e-10)
        # min-norm solution is in Range(A^T): removing the row-space
        # projection leaves nothing
        P = dense.T @ np.linalg.pinv(dense.T)
        np.testing.assert_allclose(P @ x, x, atol=1e-10)

    @pytest.mark.parametrize("case", ["tall", "wide", "rank_deficient", "csr", "zero_row"])
    def test_matches_truncated_pseudo_inverse(self, rng, case):
        if case == "tall":
            dense = rng.standard_normal((40, 12))
        elif case == "wide":
            dense = rng.standard_normal((9, 25))
        elif case == "rank_deficient":
            dense = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 15))
        else:
            dense = rng.standard_normal((30, 10))
            if case == "csr":
                dense[rng.random(dense.shape) < 0.7] = 0.0
            else:
                dense[[3, 17]] = 0.0
        A = Matrix.from_scipy(sp.csr_matrix(dense)) if case == "csr" else Matrix.from_dense(dense)
        b = dense @ rng.standard_normal(dense.shape[1])
        # A^+ b from the full SVD, zeroing sigma <= max(m, n)·eps·sigma_1
        U, svals, Vt = np.linalg.svd(dense, full_matrices=False)
        keep = svals > max(dense.shape) * np.finfo(np.float64).eps * svals[0]
        expected = Vt[keep].T @ ((U[:, keep].T @ b) / svals[keep])
        x = min_norm_solution(A, b)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrixError):
            min_norm_solution(Matrix.from_dense(np.zeros((2, 2))), [0.0, 0.0])

    def test_bad_rhs_length(self):
        with pytest.raises(ValueError):
            min_norm_solution(Matrix.from_dense(np.eye(2)), [1.0, 2.0, 3.0])
