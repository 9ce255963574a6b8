"""Synthetic problem generation and the Matrix Market reader."""

import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from momsolve.errors import (
    InconsistentSystemError,
    InvalidRankError,
    MatrixMarketParseError,
    UnsupportedError,
)
from momsolve.linalg import min_norm_solution, spectral_quantities
from momsolve.problems import (
    LinearSystem,
    attach_min_norm,
    generate_gaussian_problem,
    load_matrix_market,
)

DATA_DIRS = [Path(__file__).parent / "data", Path(__file__).parent.parent / "data"]


class TestGenerateGaussianProblem:
    def test_kappa_one_gives_unit_spectrum(self):
        sys_ = generate_gaussian_problem(100, 50, 50, 1.0, seed=4)
        svals = np.linalg.svd(sys_.A.toarray(), compute_uv=False)
        np.testing.assert_allclose(svals[:50], 1.0, atol=1e-10)
        assert svals[0] / svals[49] == pytest.approx(1.0, abs=1e-10)

    def test_spectrum_bounds_full_rank(self):
        sys_ = generate_gaussian_problem(500, 100, 100, 5.0, seed=7)
        s = spectral_quantities(sys_.A)
        assert s.rank == 100
        assert s.sigma_min_nonzero >= 1.0 - 1e-8
        assert s.sigma_max <= 5.0 + 1e-8

    def test_rank_deficient_min_norm(self):
        sys_ = generate_gaussian_problem(50, 100, 30, 10.0, seed=3)
        # generically x* is not in the row space, so the target differs
        assert np.linalg.norm(sys_.min_norm - sys_.planted_solution) > 1e-3
        assert np.linalg.norm(sys_.A.matvec(sys_.min_norm) - sys_.b) <= 1e-10

    def test_min_norm_matches_svd_oracle(self):
        sys_ = generate_gaussian_problem(50, 100, 30, 10.0, seed=3)
        oracle = min_norm_solution(sys_.A, sys_.b)
        rel = np.linalg.norm(sys_.min_norm - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-10

    def test_consistency(self):
        sys_ = generate_gaussian_problem(40, 30, 20, 3.0, seed=0)
        np.testing.assert_allclose(sys_.A.matvec(sys_.planted_solution), sys_.b,
                                   atol=1e-12)
        assert sys_.consistency_residual <= 1e-10

    def test_determinism(self):
        a = generate_gaussian_problem(30, 20, 10, 2.0, seed=9)
        b = generate_gaussian_problem(30, 20, 10, 2.0, seed=9)
        np.testing.assert_array_equal(a.A.toarray(), b.A.toarray())
        np.testing.assert_array_equal(a.b, b.b)

    def test_invalid_rank(self):
        with pytest.raises(InvalidRankError):
            generate_gaussian_problem(10, 5, 6, 2.0, seed=0)
        with pytest.raises(InvalidRankError):
            generate_gaussian_problem(10, 5, 0, 2.0, seed=0)

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            generate_gaussian_problem(10, 5, 5, 0.5, seed=0)


class TestAttachMinNorm:
    def test_idempotent(self):
        sys_ = generate_gaussian_problem(20, 10, 10, 2.0, seed=1)
        assert attach_min_norm(sys_) is sys_

    def test_fills_min_norm_via_oracle(self):
        gen = generate_gaussian_problem(30, 40, 15, 4.0, seed=2)
        bare = LinearSystem(A=gen.A, b=gen.b)
        filled = attach_min_norm(bare)
        rel = np.linalg.norm(filled.min_norm - gen.min_norm)
        rel /= np.linalg.norm(gen.min_norm)
        assert rel <= 1e-10

    def test_non_finite_rhs_rejected(self):
        gen = generate_gaussian_problem(20, 10, 10, 2.0, seed=1)
        bad = np.array(gen.b)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            LinearSystem(A=gen.A, b=bad)

    def test_inconsistent_rhs_rejected(self):
        gen = generate_gaussian_problem(50, 100, 30, 5.0, seed=6)
        # push b out of Range(A) by a 1e-3 off-range component
        U, _, _ = np.linalg.svd(gen.A.toarray(), full_matrices=True)
        off_range = U[:, 40]
        bad = np.array(gen.b) + 1e-3 * off_range
        with pytest.raises(InconsistentSystemError):
            attach_min_norm(LinearSystem(A=gen.A, b=bad))


def _write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadMatrixMarket:
    def test_coordinate_diagonal(self, tmp_path):
        path = _write(tmp_path, "\n".join([
            "%%MatrixMarket matrix coordinate real general",
            "2 2 2",
            "1 1 1.0",
            "2 2 2.0",
        ]) + "\n")
        A = load_matrix_market(path)
        assert A.shape == (2, 2)
        np.testing.assert_allclose(A.toarray(), np.diag([1.0, 2.0]))

    def test_symmetric_expansion(self, tmp_path):
        path = _write(tmp_path, "\n".join([
            "%%MatrixMarket matrix coordinate real symmetric",
            "% comment line",
            "3 3 2",
            "2 1 5.0",
            "3 3 7.0",
        ]) + "\n")
        dense = load_matrix_market(path).toarray()
        assert dense[1, 0] == 5.0
        assert dense[0, 1] == 5.0
        assert dense[2, 2] == 7.0

    def test_skew_symmetric_expansion(self, tmp_path):
        path = _write(tmp_path, "\n".join([
            "%%MatrixMarket matrix coordinate real skew-symmetric",
            "2 2 1",
            "2 1 3.0",
        ]) + "\n")
        dense = load_matrix_market(path).toarray()
        assert dense[1, 0] == 3.0
        assert dense[0, 1] == -3.0

    def test_pattern_entries_become_ones(self, tmp_path):
        path = _write(tmp_path, "\n".join([
            "%%MatrixMarket matrix coordinate pattern general",
            "2 3 2",
            "1 3",
            "2 1",
        ]) + "\n")
        dense = load_matrix_market(path).toarray()
        np.testing.assert_allclose(dense, [[0, 0, 1], [1, 0, 0]])

    def test_duplicates_are_summed(self, tmp_path):
        path = _write(tmp_path, "\n".join([
            "%%MatrixMarket matrix coordinate real general",
            "2 2 2",
            "1 1 1.5",
            "1 1 2.5",
        ]) + "\n")
        assert load_matrix_market(path).toarray()[0, 0] == 4.0

    def test_array_format_column_major(self, tmp_path):
        path = _write(tmp_path, "\n".join([
            "%%MatrixMarket matrix array real general",
            "2 3",
            "1.0", "2.0", "3.0", "4.0", "5.0", "6.0",
        ]) + "\n")
        dense = load_matrix_market(path).toarray()
        np.testing.assert_allclose(dense, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])

    def test_array_symmetric_packed_lower(self, tmp_path):
        path = _write(tmp_path, "\n".join([
            "%%MatrixMarket matrix array real symmetric",
            "2 2",
            "1.0", "2.0", "3.0",
        ]) + "\n")
        dense = load_matrix_market(path).toarray()
        np.testing.assert_allclose(dense, [[1.0, 2.0], [2.0, 3.0]])

    @pytest.mark.parametrize("symmetry", ["general", "symmetric", "skew-symmetric"])
    @pytest.mark.parametrize("fmt", ["array", "coordinate"])
    def test_reads_back_scipy_writer(self, tmp_path, rng, fmt, symmetry):
        # a skew-symmetric array stores only the strictly lower triangle
        dense = rng.standard_normal((4, 4))
        if symmetry == "symmetric":
            dense = dense + dense.T
        elif symmetry == "skew-symmetric":
            dense = dense - dense.T
        path = tmp_path / "m.mtx"
        source = dense if fmt == "array" else scipy.sparse.coo_matrix(dense)
        scipy.io.mmwrite(path, source, symmetry=symmetry)
        assert path.read_text().split()[2:5] == [fmt, "real", symmetry]
        np.testing.assert_array_equal(load_matrix_market(path).toarray(), dense)

    def test_empty_body_reads_without_warning(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 3 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            A = load_matrix_market(path)
        assert A.shape == (2, 3)
        assert A.fro_norm_sq == 0.0

    def test_matches_scipy_reader(self, tmp_path, rng):
        m, n, nnz = 9, 6, 25
        lines = ["%%MatrixMarket matrix coordinate real general", f"{m} {n} {nnz}"]
        for _ in range(nnz):
            i = rng.integers(1, m + 1)
            j = rng.integers(1, n + 1)
            lines.append(f"{i} {j} {rng.standard_normal()!r}")
        path = _write(tmp_path, "\n".join(lines) + "\n")
        ours = load_matrix_market(path).toarray()
        theirs = np.asarray(scipy.io.mmread(path).todense())
        np.testing.assert_allclose(ours, theirs, atol=1e-14)

    def test_bibd_dimensions(self):
        path = None
        for d in DATA_DIRS:
            cand = d / "bibd_16_8.mtx"
            if cand.exists():
                path = cand
        if path is None:
            pytest.skip("bibd_16_8.mtx not available")
        A = load_matrix_market(path)
        assert A.shape == (120, 12870)

    @pytest.mark.parametrize("text,exc", [
        ("%%Garbage matrix coordinate real general\n1 1 0\n", MatrixMarketParseError),
        ("%%MatrixMarket matrix coordinate real general\n1 1\n", MatrixMarketParseError),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n2 1 1.0\n",
         MatrixMarketParseError),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
         MatrixMarketParseError),
        ("%%MatrixMarket matrix tensor coordinate real general\n1 1 1\n",
         MatrixMarketParseError),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n",
         MatrixMarketParseError),
        ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n",
         UnsupportedError),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0abc\n",
         MatrixMarketParseError),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 0x10\n",
         MatrixMarketParseError),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0 5\n",
         MatrixMarketParseError),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1.0 1 2.0\n",
         MatrixMarketParseError),
        ("%%MatrixMarket matrix coordinate real general\n1 1 0\n1 1 1.0\n",
         MatrixMarketParseError),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1000000000000\n1 1 1.0\n",
         MatrixMarketParseError),
        ("%%MatrixMarket matrix array real skew-symmetric\n3 3\n"
         "1.0\n2.0\n3.0\n4.0\n5.0\n6.0\n", MatrixMarketParseError),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0 2.0\n",
         MatrixMarketParseError),
    ])
    def test_malformed_inputs(self, tmp_path, text, exc):
        path = _write(tmp_path, text)
        with pytest.raises(exc):
            load_matrix_market(path)

    @pytest.mark.parametrize("index", ["2.9", "1e0", "1.0"])
    def test_non_integer_index_rejected_with_warnings_ignored(self, tmp_path, index):
        # numpy only warns when it truncates such a token into an int64
        # field; the reader must reject it under any warning filter
        path = _write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                                f"2 2 1\n{index} 1 5.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(MatrixMarketParseError):
                load_matrix_market(path)
