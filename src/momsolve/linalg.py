"""Matrix/vector primitives, spectral quantities, and the min-norm oracle.

``min_norm_solution`` is the independent ground truth used by the tests and
the error metrics. A CSR matrix gets LSQR started from 0 (Paige & Saunders
1982), which never densifies A; LAPACK's SVD least squares (``gelsd``
through ``np.linalg.lstsq``) serves dense matrices and every CSR system on
which LSQR does not stop at machine precision. Neither shares code with the
iterative solvers.

Importing the module loads numpy only. ``scipy.sparse`` is imported by the
first sparse input (``Matrix.from_scipy`` and the CSR branch of
``augmented``), ``scipy.linalg`` by the SVD fallback and the Lanczos
certificate, and ``scipy.sparse.linalg`` by LSQR and Lanczos.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentSystemError, ZeroMatrixError

__all__ = [
    "Matrix",
    "SpectralSummary",
    "spectral_quantities",
    "gram_eigenvalues",
    "min_norm_solution",
]


class Matrix:
    """Immutable dense (row-major) or CSR real matrix with cached row norms.

    ``data`` is the storage: a read-only ndarray, or a scipy CSR matrix when
    ``is_sparse``. Construct via :meth:`from_dense` or :meth:`from_scipy`
    (any scipy sparse format, CSR included).
    """

    __slots__ = ("rows", "cols", "data", "is_sparse", "row_norms_sq", "fro_norm_sq")

    def __init__(self, data):
        # a scipy sparse matrix can exist only once scipy.sparse is imported
        sparse = sys.modules.get("scipy.sparse")
        self.is_sparse = sparse is not None and sparse.issparse(data)
        if self.is_sparse:
            data = data.tocsr().astype(np.float64)
            data.sum_duplicates()
            data.sort_indices()
        else:
            data = np.ascontiguousarray(data, dtype=np.float64)
            if data.ndim != 2:
                raise ValueError("dense matrix must be 2-D")
            data.setflags(write=False)
        if not np.isfinite(data.data if self.is_sparse else data).all():
            raise ValueError("matrix has non-finite entries")
        self.data = data
        self.row_norms_sq = (np.asarray(data.multiply(data).sum(axis=1)).ravel() if self.is_sparse
                             else np.einsum("ij,ij->i", data, data))
        self.rows, self.cols = data.shape
        self.row_norms_sq.setflags(write=False)
        self.fro_norm_sq = float(self.row_norms_sq.sum())

    # -- constructors --------------------------------------------------

    @classmethod
    def from_dense(cls, values) -> "Matrix":
        return cls(np.asarray(values, dtype=np.float64))

    @classmethod
    def from_scipy(cls, matrix) -> "Matrix":
        import scipy.sparse as sp

        return cls(sp.csr_matrix(matrix))

    # -- storage views -------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def toarray(self, order="C") -> np.ndarray:
        if self.is_sparse:
            return self.data.toarray(order=order)
        return np.array(self.data, order=order)

    # -- products --------------------------------------------------------

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cols,):
            raise ValueError(f"matvec: expected vector of length {self.cols}, got {x.shape}")
        return self.data @ x

    def rmatvec(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.rows,):
            raise ValueError(f"rmatvec: expected vector of length {self.rows}, got {y.shape}")
        return self.data.T @ y

    def row_block(self, idx) -> np.ndarray:
        """Selected rows as a dense array (small blocks only)."""
        block = self.data[idx]
        return block.toarray() if self.is_sparse else np.array(block)

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return f"Matrix({self.rows}x{self.cols}, {kind})"


def augmented(A: Matrix, b: np.ndarray):
    """[A | −b] in A's own storage: an ndarray, or CSR for a sparse A."""
    if A.is_sparse:
        import scipy.sparse as sp

        return sp.hstack([A.data, sp.csr_matrix(-b.reshape(-1, 1))], format="csr")
    return np.hstack([A.data, -b.reshape(-1, 1)])


def check_scale(A: Matrix, b=()) -> None:
    """Raise ValueError when the squares of the entries of A or b leave the
    floating-point range: ||A||_F^2 or ||b||^2 overflows, or ||A||_F^2 is 0
    for a nonzero A. A zero A is left to the routines that refuse it."""
    with np.errstate(over="ignore"):
        bn2 = float(np.dot(b, b))
    if 0.0 < A.fro_norm_sq < np.inf and bn2 < np.inf:
        return
    amax = float(np.abs(A.data.data if A.is_sparse else A.data).max(initial=0.0))
    if amax > 0.0 or bn2 == np.inf:
        raise ValueError(f"badly scaled system: max|A_ij| = {amax:.3g}, ||A||_F^2 = "
                         f"{A.fro_norm_sq:.3g} and ||b||^2 = {bn2:.3g}; rescale A and b")


@dataclass(frozen=True)
class SpectralSummary:
    sigma_max: float
    sigma_min_nonzero: float
    rank: int
    fro_norm: float


def _singular_values(A: Matrix) -> np.ndarray:
    # scipy, unlike numpy, lets LAPACK overwrite the one F-ordered copy
    from scipy.linalg import svd

    return svd(A.toarray(order="F"), compute_uv=False, overwrite_a=True, check_finite=False)


def gram_eigenvalues(M) -> np.ndarray:
    """Ascending eigenvalues (``eigvalsh``) of the smaller Gram of M: M Mᵀ
    when M has no more rows than columns, else Mᵀ M. They are the squares of
    M's min(rows, cols) largest singular values. M is an ndarray or a scipy
    sparse matrix, whose Gram comes from the sparse product; only the Gram
    is densified."""
    q, n = M.shape
    gram = M @ M.T if q <= n else M.T @ M
    if not isinstance(gram, np.ndarray):
        gram = gram.toarray()  # and free the sparse Gram before LAPACK's copy
    return np.linalg.eigvalsh(gram)


def rank_tolerance(A: Matrix, sigma_max: float) -> float:
    """Singular values at or below this threshold count as zero."""
    return max(A.rows, A.cols) * np.finfo(np.float64).eps * sigma_max


def gram_cut(A: Matrix) -> float:
    """Smallest λ_min/λ_max of the smaller Gram from which
    ``spectral_quantities`` reads σ_min; below it the SVD decides. The
    Gram's eigenvalues carry absolute errors up to about max(m, n)·eps·λ_max
    (measured: under 3.2·eps·λ_max on dense inputs from 60×20 to 2000×500),
    so above the cut σ_min = √λ_min is within 1/(2·5e9) = 1e-10 of the
    SVD's, relative."""
    return 5e9 * max(A.rows, A.cols) * np.finfo(np.float64).eps


def _lanczos_extremes(A: Matrix) -> np.ndarray | None:
    """[λ_min, λ_max] of a CSR A's smaller Gram G = MᵀM from ARPACK's
    Lanczos on two sparse products, from a fixed start vector; None when
    ARPACK fails or stops unconverged, or λ_min fails its certificate. A
    Ritz value θ_min is never below λ_min, and a Cholesky of
    G − θ_min·(1 − 1e-10)·I that succeeds proves λ_min above that shift.
    Values at or below ``gram_cut``, which send A to the SVD, need none."""
    from scipy.linalg.lapack import dpotrf
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    M, Mt = A.data, A.data.T.tocsr()  # G = MᵀM, both factors row-major
    if A.rows <= A.cols:
        M, Mt = Mt, M
    q = M.shape[1]
    G = LinearOperator((q, q), matvec=lambda v: Mt @ (M @ v), dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(q)
    try:
        # q // 10 restarts cap each extreme at about q products with G
        lo, hi = (float(eigsh(G, k=1, which=which, v0=v0, tol=0, maxiter=q // 10,
                              return_eigenvectors=False)[0]) for which in ("SA", "LA"))
    except ArpackError:
        return None
    if lo > max(gram_cut(A) * hi, np.finfo(np.float64).tiny):
        gram = (Mt @ M).toarray()
        gram.flat[::q + 1] -= lo * (1.0 - 1e-10)
        # the symmetric C-ordered Gram's transpose is F-ordered: no copy
        if dpotrf(gram.T, overwrite_a=True, clean=False)[1] != 0:
            return None
    return np.array([lo, hi])


def spectral_quantities(A: Matrix) -> SpectralSummary:
    """Singular extremes of A, with sigma_min over nonzero singular values.

    They come from the extreme eigenvalues of the smaller Gram when its
    λ_min/λ_max is above ``gram_cut`` (A is then of full rank min(m, n)),
    else from the SVD of a dense copy of A. A CSR A sparse enough for
    Lanczos to beat the tridiagonal reduction takes ``_lanczos_extremes``;
    every other A, and one whose extremes are not settled, takes the Gram's
    ``eigvalsh``. A zero row (m <= n) or column (m > n) makes that Gram
    singular, and an overflowing ||A||_F^2 would overflow it, so such an A
    goes straight to the SVD."""
    if A.fro_norm_sq == 0.0:
        raise ZeroMatrixError("spectral_quantities: zero matrix")
    full = A.row_norms_sq.all() if A.rows <= A.cols else (A.data != 0).sum(axis=0).all()
    # a few hundred Lanczos steps of 30 µs + 2.5 ns·nnz(A) against the
    # 0.1 ns·q³ by which eigvalsh outlasts the Cholesky (1 BLAS thread)
    lanczos = A.is_sparse and 1e4 * (A.data.nnz + 1e4) < min(A.shape) ** 3
    lam = np.zeros(1)
    if full and A.fro_norm_sq < np.inf:
        lam = _lanczos_extremes(A) if lanczos else None
        if lam is None:
            lam = gram_eigenvalues(A.data)
    # a Gram that underflowed fails the test
    if lam[0] > max(gram_cut(A) * lam[-1], np.finfo(np.float64).tiny):
        sigma_min, sigma_max, rank = *np.sqrt(lam[[0, -1]]).tolist(), min(A.shape)
    else:
        svals = _singular_values(A)
        sigma_max = float(svals[0])
        nonzero = svals[svals > rank_tolerance(A, sigma_max)]
        sigma_min, rank = float(nonzero[-1]), int(nonzero.size)
    return SpectralSummary(sigma_max, sigma_min, rank, float(np.sqrt(A.fro_norm_sq)))


def _lsqr_solution(A: Matrix, b: np.ndarray, cut: float) -> np.ndarray | None:
    """LSQR's solution from 0 for a CSR A, or None unless LSQR stopped at
    machine precision. A condition estimate past 1/cut (the rank cut), or
    2·min(m, n) iterations without convergence, leaves the system to SVD."""
    from scipy.sparse.linalg import lsqr

    x, istop = lsqr(A.data, b, atol=0.0, btol=0.0, conlim=1.0 / cut,
                    iter_lim=2 * min(A.shape))[:2]
    # 0: A^T b = 0; 1, 2: exact; 4, 5: within machine precision
    return x if istop in (0, 1, 2, 4, 5) else None


def min_norm_solution(A: Matrix, b) -> np.ndarray:
    """Min-norm solution A^+ b of a consistent system: LSQR for a CSR A,
    SVD least squares (``gelsd``) for a dense A and as LSQR's fallback.

    Raises InconsistentSystemError when the residual of the pseudoinverse
    solution exceeds 1e-8 * (1 + ||b||).
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.rows,):
        raise ValueError(f"b must have length {A.rows}")
    if A.fro_norm_sq == 0.0:
        raise ZeroMatrixError("min_norm_solution: zero matrix")
    cut = rank_tolerance(A, 1.0)
    # a non-finite b goes straight to gelsd, whose NaN fails the check below
    x = _lsqr_solution(A, b, cut) if A.is_sparse and np.isfinite(b).all() else None
    if x is None:
        # gelsd zeroes sigma <= rcond * sigma_max: the cut of rank_tolerance
        x = np.linalg.lstsq(A.toarray(), b, rcond=cut)[0]
    tol = 1e-8 * (1.0 + float(np.linalg.norm(b)))
    residual = float(np.linalg.norm(A.matvec(x) - b))
    # written so that a NaN residual (non-finite b) fails the check too
    if not residual <= tol:
        raise InconsistentSystemError(
            f"residual {residual:.3e} exceeds consistency tolerance {tol:.3e}"
        )
    return x
