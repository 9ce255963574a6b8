"""Matrix primitives, spectral summaries, and the min-norm oracle (LSQR for
CSR, gelsd for dense and as the fallback)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from conftest import csr_rows, scaled_sparse, spy_eigsh
from momsolve.errors import InconsistentSystemError, ZeroMatrixError
from momsolve import linalg
from momsolve.linalg import Matrix, SpectralSummary, min_norm_solution, spectral_quantities
from momsolve.problems import generate_gaussian_problem

SRC = str(Path(__file__).parent.parent / "src")
DATA_DIRS = [Path(__file__).parent / "data", Path(__file__).parent.parent / "data"]


def _find_data(name):
    for d in DATA_DIRS:
        p = d / name
        if p.exists():
            return p
    return None


def _with_singular_values(rng, m, svals) -> np.ndarray:
    """A random m x len(svals) matrix with the given singular values."""
    n = len(svals)
    U = np.linalg.qr(rng.standard_normal((m, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (U * svals) @ V.T


def _svd_route(A) -> SpectralSummary:
    """The spectral summary from the SVD of a dense copy of A, the route
    that ``spectral_quantities`` keeps for inputs its Gram cannot resolve."""
    from scipy.linalg import svd

    svals = svd(A.toarray(order="F"), compute_uv=False, overwrite_a=True, check_finite=False)
    nonzero = svals[svals > max(A.shape) * np.finfo(np.float64).eps * svals[0]]
    return SpectralSummary(sigma_max=float(svals[0]), sigma_min_nonzero=float(nonzero[-1]),
                           rank=int(nonzero.size), fro_norm=float(np.sqrt(A.fro_norm_sq)))


def _gram_route(A) -> SpectralSummary:
    """The spectral summary from the smaller Gram's ``eigvalsh``, the route
    that ``spectral_quantities`` keeps for a dense, well-conditioned A."""
    lam = linalg.gram_eigenvalues(A.data)
    return SpectralSummary(sigma_max=float(np.sqrt(lam[-1])),
                           sigma_min_nonzero=float(np.sqrt(lam[0])),
                           rank=min(A.shape), fro_norm=float(np.sqrt(A.fro_norm_sq)))


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

    @pytest.mark.parametrize("make", [
        lambda: generate_gaussian_problem(200, 50, 50, 2.0, seed=1).A,
        lambda: generate_gaussian_problem(500, 100, 100, 20.0, seed=3).A,
        lambda: Matrix.from_dense(np.random.default_rng(4).standard_normal((50, 200))),
        lambda: Matrix.from_scipy(sp.random(300, 80, density=0.1, random_state=4)),
    ], ids=["kappa-2", "kappa-20", "wide", "csr"])
    def test_gram_side_matches_svd(self, monkeypatch, make):
        # well conditioned: the Gram's eigenvalues decide, and no SVD runs
        A = make()

        def no_svd(A):
            raise AssertionError("a well-conditioned input must not reach the SVD")

        monkeypatch.setattr(linalg, "_singular_values", no_svd)
        s = spectral_quantities(A)
        svals = np.linalg.svd(A.toarray(), compute_uv=False)
        assert s.sigma_max == pytest.approx(svals[0], rel=1e-12)
        assert s.sigma_min_nonzero == pytest.approx(svals[-1], rel=1e-10)
        assert s.rank == min(A.shape)
        assert s.fro_norm == float(np.sqrt(A.fro_norm_sq))

    @pytest.mark.parametrize("make", [
        lambda: generate_gaussian_problem(200, 100, 60, 5.0, seed=2).A,
        lambda: Matrix.from_dense(_with_singular_values(np.random.default_rng(5), 80,
                                                        np.geomspace(1.0, 1e-8, 30))),
        lambda: Matrix.from_scipy(sp.hstack([sp.random(100, 39, density=0.2, random_state=6),
                                             sp.csr_matrix((100, 1))])),
        lambda: Matrix.from_dense([[1.0, 1.0], [1.0, 1.0]]),
        lambda: Matrix.from_dense(np.diag([1e-160, 3e-161])),
        lambda: Matrix.from_dense(np.diag([1e160, 3e159])),
    ], ids=["rank-60", "kappa-1e8", "csr-zero-column", "ones", "gram-underflow", "gram-overflow"])
    def test_svd_side_equals_svd_route(self, monkeypatch, make):
        # rank-deficient or ill-conditioned: the result of the SVD route,
        # which every input took before the Gram route, bit for bit
        A = make()
        calls, svd = [], linalg._singular_values
        monkeypatch.setattr(linalg, "_singular_values", lambda A: calls.append(A) or svd(A))
        assert spectral_quantities(A) == _svd_route(A)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_overflowing_frobenius_norm_takes_the_svd(self, capfd, kind):
        # ||A||_F^2 is inf, and the Gram would overflow: no eigvalsh, ARPACK
        # or Cholesky sees it, and LAPACK's SVD scales A itself
        M = scaled_sparse(1e160)
        A = Matrix.from_scipy(M) if kind == "csr" else Matrix.from_dense(M.toarray())
        s = spectral_quantities(A)
        assert s == _svd_route(A) and s.rank == 600
        captured = capfd.readouterr()
        assert "DLASCL" not in captured.out + captured.err

    @staticmethod
    def _csr_with_stored_zero_column():
        M = sp.random(300, 80, density=0.1, random_state=7, format="csr")
        M.data[M.indices == 8] = 0.0  # stored entries, all zero
        return Matrix.from_scipy(M)

    @staticmethod
    def _wide_with_zero_row():
        dense = np.random.default_rng(8).standard_normal((40, 120))
        dense[5] = 0.0
        return Matrix.from_dense(dense)

    @pytest.mark.parametrize("make", ["_csr_with_stored_zero_column", "_wide_with_zero_row"])
    def test_singular_gram_goes_straight_to_svd(self, monkeypatch, make):
        # a zero column of a tall A, or a zero row of a wide one, makes the
        # smaller Gram singular: no eigvalsh, and the SVD route's result
        A = getattr(self, make)()

        def no_gram(M):
            raise AssertionError("a certainly singular Gram must not be formed")

        monkeypatch.setattr(linalg, "gram_eigenvalues", no_gram)
        assert spectral_quantities(A) == _svd_route(A)

    @staticmethod
    def _well_conditioned_csr(wide=False):
        # 2400 x 600 with 4 entries a row: sparse enough for Lanczos
        M = csr_rows(2400, 600, 4, seed=2)
        return Matrix.from_scipy(M.T if wide else M)

    @pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
    def test_certified_lanczos_matches_svd(self, monkeypatch, wide):
        A = self._well_conditioned_csr(wide)
        svals = np.linalg.svd(A.toarray(), compute_uv=False)

        def no_dense_spectrum(M):
            raise AssertionError("certified Lanczos extremes need no eigvalsh or SVD")

        monkeypatch.setattr(linalg, "gram_eigenvalues", no_dense_spectrum)
        monkeypatch.setattr(linalg, "_singular_values", no_dense_spectrum)
        calls = spy_eigsh(monkeypatch)
        s = spectral_quantities(A)
        assert calls == ["SA", "LA"]
        assert s.sigma_max == pytest.approx(svals[0], rel=1e-12)
        assert s.sigma_min_nonzero == pytest.approx(svals[-1], rel=1e-10)
        assert s.rank == 600
        assert s.fro_norm == float(np.sqrt(A.fro_norm_sq))

    @pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
    def test_singular_gram_fails_the_certificate(self, monkeypatch, wide):
        # column 8 copies column 9, so the Gram is singular with no zero row
        # or column. ARPACK's smallest Ritz value is the smallest nonzero
        # eigenvalue; the Cholesky shifted by it breaks down, and the Gram
        # and SVD routes decide as they do without Lanczos
        M = csr_rows(2400, 600, 4, seed=1).tolil()
        M[:, 8] = M[:, 9]
        A = Matrix.from_scipy(M.T if wide else M)
        calls = spy_eigsh(monkeypatch)
        assert spectral_quantities(A) == _svd_route(A)
        assert calls == ["SA", "LA"]

    def test_arpack_no_convergence_takes_the_gram_route(self, monkeypatch):
        import scipy.sparse.linalg

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0),
                                                          np.empty((0, 0)))

        A = self._well_conditioned_csr()
        expected = _gram_route(A)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        assert spectral_quantities(A) == expected

    @pytest.mark.parametrize("make", [
        lambda: Matrix.from_scipy(sp.random(50, 2, density=0.5, random_state=9) + sp.eye(50, 2)),
        lambda: Matrix.from_scipy(sp.random(2, 50, density=0.5, random_state=9) + sp.eye(2, 50)),
        lambda: Matrix.from_scipy(sp.random(40, 1, density=0.5, random_state=9) + sp.eye(40, 1)),
        lambda: Matrix.from_dense(TestSpectralQuantities._well_conditioned_csr().toarray()),
    ], ids=["csr-2-columns", "csr-2-rows", "csr-1-column", "dense"])
    def test_dense_and_tiny_csr_keep_the_gram_route(self, monkeypatch, make):
        A = make()
        calls = spy_eigsh(monkeypatch)
        assert spectral_quantities(A) == _gram_route(A)
        assert calls == []

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_non_finite_rhs_rejected(self, storage, bad):
        # a NaN residual must fail the consistency check, not pass it
        A = Matrix.from_dense(np.eye(2)) if storage == "dense" else Matrix.from_scipy(sp.eye(2))
        with pytest.raises(InconsistentSystemError):
            min_norm_solution(A, [1.0, bad])

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

    @pytest.mark.parametrize("case", ["tall", "wide", "rank_deficient", "csr", "zero_row",
                                      "csr_wide", "csr_rank_deficient", "csr_ill_conditioned"])
    def test_matches_truncated_pseudo_inverse(self, rng, case):
        if case == "tall":
            dense = rng.standard_normal((40, 12))
        elif case in ("wide", "csr_wide"):
            dense = rng.standard_normal((9, 25))
        elif case == "rank_deficient":
            dense = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 15))
        elif case == "csr_ill_conditioned":
            dense = _with_singular_values(rng, 40, np.geomspace(1.0, 1e-10, 12))
        else:
            dense = rng.standard_normal((30, 10))
            if case == "zero_row":
                dense[[3, 17]] = 0.0
            else:
                dense[rng.random(dense.shape) < 0.7] = 0.0
            if case == "csr_rank_deficient":
                dense[:, 7] = dense[:, 2]
        if case.startswith("csr"):
            A = Matrix.from_scipy(sp.csr_matrix(dense))
        else:
            A = Matrix.from_dense(dense)
        b = dense @ rng.standard_normal(dense.shape[1])
        x = min_norm_solution(A, b)
        cut = max(dense.shape) * np.finfo(np.float64).eps
        if case == "csr_ill_conditioned":
            # LSQR runs into its iteration cap and the answer is gelsd's, bit
            # for bit; at kappa = 1e10 no two SVD routes agree to 1e-12
            assert np.array_equal(x, np.linalg.lstsq(dense, b, rcond=cut)[0])
            return
        # A^+ b from the full SVD, zeroing sigma <= max(m, n)·eps·sigma_1
        U, svals, Vt = np.linalg.svd(dense, full_matrices=False)
        keep = svals > cut * svals[0]
        expected = Vt[keep].T @ ((U[:, keep].T @ b) / svals[keep])
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_csr_never_densifies(self, rng, monkeypatch):
        # a well-conditioned CSR system is solved by LSQR alone
        A = Matrix.from_scipy(sp.random(60, 20, density=0.3, random_state=rng) + sp.eye(60, 20))
        b = A.matvec(rng.standard_normal(20))
        expected = np.linalg.lstsq(A.toarray(), b, rcond=None)[0]

        def densify(*args, **kwargs):
            raise AssertionError("the CSR oracle densified A")

        monkeypatch.setattr(Matrix, "toarray", densify)
        monkeypatch.setattr(np.linalg, "lstsq", densify)
        x = min_norm_solution(A, b)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_lsqr_agrees_with_gelsd_on_sparse_system(self):
        # a seeded 1%-dense system like the benchmark's .mtx, at half its size
        rng = np.random.default_rng(2024)
        m, n, per_row = 2000, 500, 5
        rows = np.repeat(np.arange(m), per_row)
        cols = np.concatenate([rng.choice(n, per_row, replace=False) for _ in range(m)])
        A = Matrix.from_scipy(sp.coo_matrix((rng.standard_normal(m * per_row), (rows, cols)),
                                            shape=(m, n)))
        b = A.matvec(rng.standard_normal(n))
        gelsd = np.linalg.lstsq(A.toarray(), b, rcond=max(m, n) * np.finfo(np.float64).eps)[0]
        x = min_norm_solution(A, b)
        assert np.linalg.norm(x - gelsd) <= 1e-12 * np.linalg.norm(gelsd)

    def test_import_leaves_scipy_solvers_unloaded(self):
        # scipy.sparse, scipy.linalg and scipy.sparse.linalg are imported
        # where they are used, so a run that needs none does not pay their
        # memory
        code = ("import sys, momsolve.cli; "
                "print(sorted(m for m in ('scipy.sparse', 'scipy.linalg', 'scipy.sparse.linalg') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "[]"

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrixError):
            min_norm_solution(Matrix.from_dense(np.zeros((2, 2))), [0.0, 0.0])

    def test_bad_rhs_length(self):
        with pytest.raises(ValueError):
            min_norm_solution(Matrix.from_dense(np.eye(2)), [1.0, 2.0, 3.0])


# argv: out directory, coordinate .mtx file, and "dense" to run the dense
# commands and report the loaded scipy modules before the file's solve
_RUNS = """
import sys
from momsolve import cli

out, mtx, *dense_first = sys.argv[1:]
if dense_first:
    dense = ["--m", "60", "--n", "20", "--r", "20", "--kappa", "2", "--seed", "3",
             "--trials", "1", "--workers", "1", "--no-timing"]
    assert cli.main(["solve", *dense, "--solver", "ashbm", "--sampling", "partition:8",
                     "--out", out + "/solve"]) == 0
    assert cli.main(["sweep", *dense, "--solver", "ashbm,mrabk", "--sampling", "partition:8",
                     "--p-list", "4,8", "--out", out + "/sweep"]) == 0
    assert cli.main(["bound", *dense, "--sampling", "partition:8", "--out", out + "/bound"]) == 0
    print("loaded:", sorted(m for m in ("scipy.sparse", "scipy.linalg", "scipy.sparse.linalg")
                            if m in sys.modules))
assert cli.main(["solve", "--matrix", mtx, "--solver", "ashbm", "--sampling", "partition:8",
                 "--seed", "3", "--trials", "1", "--workers", "1", "--no-timing",
                 "--out", out + "/mtx"]) == 0
"""


class TestScipyLoadedWhereUsed:
    def test_dense_runs_leave_scipy_unloaded(self, tmp_path):
        # a tracked dense solve, a sweep and a full-rank bound need no scipy
        # module; the first coordinate file then loads scipy.sparse itself,
        # with the same trace as a process that loaded it from the start
        mtx = tmp_path / "A.mtx"
        scipy.io.mmwrite(mtx, sp.random(80, 30, density=0.2, random_state=2) + sp.eye(80, 30))
        loaded, traces = [], []
        for args in (["dense"], []):
            out = tmp_path / (args[0] if args else "fresh")
            stdout = subprocess.run([sys.executable, "-c", _RUNS, str(out), str(mtx), *args],
                                    capture_output=True, text=True, check=True,
                                    env={**os.environ, "PYTHONPATH": SRC}).stdout
            loaded += [line for line in stdout.splitlines() if line.startswith("loaded:")]
            traces.append((out / "mtx" / "trace_000.csv").read_bytes())
        assert loaded == ["loaded: []"]
        assert traces[0] == traces[1]
