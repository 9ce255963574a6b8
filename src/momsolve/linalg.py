"""Matrix/vector primitives, spectral quantities, and the SVD oracle.

``min_norm_solution`` is the independent ground truth used by the tests and
the error metrics: LAPACK's SVD least squares (``gelsd`` through
``np.linalg.lstsq``), which never forms the left singular vectors. It shares
no code with the iterative solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InconsistentSystemError, ZeroMatrixError

__all__ = [
    "Matrix",
    "SpectralSummary",
    "spectral_quantities",
    "min_norm_solution",
]


class Matrix:
    """Immutable dense (row-major) or CSR real matrix with cached row norms.

    Construct via :meth:`from_dense`, :meth:`from_csr`, or
    :meth:`from_scipy`.
    """

    __slots__ = ("rows", "cols", "_dense", "_csr", "row_norms_sq", "fro_norm_sq")

    def __init__(self, *, dense=None, csr=None):
        if (dense is None) == (csr is None):
            raise ValueError("exactly one of dense/csr must be given")
        if dense is not None:
            dense = np.ascontiguousarray(np.asarray(dense, dtype=np.float64))
            if dense.ndim != 2:
                raise ValueError("dense matrix must be 2-D")
            if not np.isfinite(dense).all():
                raise ValueError("matrix has non-finite entries")
            dense.setflags(write=False)
            self._dense = dense
            self._csr = None
            self.rows, self.cols = dense.shape
            self.row_norms_sq = np.einsum("ij,ij->i", dense, dense)
        else:
            csr = csr.tocsr().astype(np.float64)
            csr.sum_duplicates()
            csr.sort_indices()
            if not np.isfinite(csr.data).all():
                raise ValueError("matrix has non-finite entries")
            self._dense = None
            self._csr = csr
            self.rows, self.cols = csr.shape
            self.row_norms_sq = np.asarray(csr.multiply(csr).sum(axis=1)).ravel()
        self.row_norms_sq.setflags(write=False)
        self.fro_norm_sq = float(self.row_norms_sq.sum())

    # -- constructors --------------------------------------------------

    @classmethod
    def from_dense(cls, values) -> "Matrix":
        return cls(dense=values)

    @classmethod
    def from_csr(cls, row_offsets, col_indices, values, shape) -> "Matrix":
        m = sp.csr_matrix(
            (np.asarray(values, dtype=np.float64), col_indices, row_offsets),
            shape=shape,
        )
        return cls(csr=m)

    @classmethod
    def from_scipy(cls, matrix) -> "Matrix":
        return cls(csr=sp.csr_matrix(matrix))

    # -- storage views -------------------------------------------------

    @property
    def is_sparse(self) -> bool:
        return self._csr is not None

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def row_offsets(self):
        return self._csr.indptr

    @property
    def col_indices(self):
        return self._csr.indices

    @property
    def values(self):
        return self._csr.data

    def toarray(self) -> np.ndarray:
        if self._dense is not None:
            return np.array(self._dense)
        return self._csr.toarray()

    # -- products --------------------------------------------------------

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cols,):
            raise ValueError(f"matvec: expected vector of length {self.cols}, got {x.shape}")
        if self._dense is not None:
            return self._dense @ x
        return self._csr @ x

    def rmatvec(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.rows,):
            raise ValueError(f"rmatvec: expected vector of length {self.rows}, got {y.shape}")
        if self._dense is not None:
            return self._dense.T @ y
        return self._csr.T @ y

    def row_block(self, idx) -> np.ndarray:
        """Selected rows as a dense array (small blocks only)."""
        if self._dense is not None:
            return np.array(self._dense[idx])
        return self._csr[idx].toarray()

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return f"Matrix({self.rows}x{self.cols}, {kind})"


@dataclass(frozen=True)
class SpectralSummary:
    sigma_max: float
    sigma_min_nonzero: float
    rank: int
    fro_norm: float


def _singular_values(A: Matrix) -> np.ndarray:
    return np.linalg.svd(A.toarray(), compute_uv=False)


def rank_tolerance(A: Matrix, sigma_max: float) -> float:
    """Singular values at or below this threshold count as zero."""
    return max(A.rows, A.cols) * np.finfo(np.float64).eps * sigma_max


def spectral_quantities(A: Matrix) -> SpectralSummary:
    """Singular extremes of A, with sigma_min over nonzero singular values."""
    if A.fro_norm_sq == 0.0:
        raise ZeroMatrixError("spectral_quantities: zero matrix")
    svals = _singular_values(A)
    sigma_max = float(svals[0])
    tol = rank_tolerance(A, sigma_max)
    nonzero = svals[svals > tol]
    rank = int(nonzero.size)
    return SpectralSummary(
        sigma_max=sigma_max,
        sigma_min_nonzero=float(nonzero[-1]),
        rank=rank,
        fro_norm=float(np.sqrt(A.fro_norm_sq)),
    )


def min_norm_solution(A: Matrix, b, *, tol: float | None = None) -> np.ndarray:
    """Min-norm solution A^+ b of a consistent system, via SVD least squares.

    Raises InconsistentSystemError when the residual of the pseudoinverse
    solution exceeds ``tol`` (default 1e-8 * (1 + ||b||)).
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.rows,):
        raise ValueError(f"b must have length {A.rows}")
    if A.fro_norm_sq == 0.0:
        raise ZeroMatrixError("min_norm_solution: zero matrix")
    # gelsd zeroes sigma <= rcond * sigma_max: the cut of rank_tolerance
    x = np.linalg.lstsq(A.toarray(), b, rcond=rank_tolerance(A, 1.0))[0]
    if tol is None:
        tol = 1e-8 * (1.0 + float(np.linalg.norm(b)))
    residual = float(np.linalg.norm(A.matvec(x) - b))
    # written so that a NaN residual (non-finite b) fails the check too
    if not residual <= tol:
        raise InconsistentSystemError(
            f"residual {residual:.3e} exceeds consistency tolerance {tol:.3e}"
        )
    return x
