"""Problem construction: synthetic Gaussian systems and Matrix Market files."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import InvalidRankError, MatrixMarketParseError, UnsupportedError
from .linalg import Matrix, min_norm_solution

__all__ = [
    "LinearSystem",
    "generate_gaussian_problem",
    "load_matrix_market",
    "attach_min_norm",
]


@dataclass(frozen=True)
class LinearSystem:
    A: Matrix
    b: np.ndarray
    planted_solution: np.ndarray | None = None
    min_norm: np.ndarray | None = None
    consistency_residual: float = float("nan")

    def __post_init__(self):
        if not np.isfinite(self.b).all():
            raise ValueError("right-hand side has non-finite entries")


def generate_gaussian_problem(m: int, n: int, r: int, kappa: float, seed: int) -> LinearSystem:
    """Dense A = U D V^T with orthonormal U (m x r), V (n x r) from QR of
    Gaussian matrices and D uniform on [1, kappa]; b = A x* for Gaussian x*.

    rank(A) = r and the condition number is bounded by kappa (not equal to
    it). The min-norm solution is V V^T x*, the projection of x* onto
    Range(A^T).
    """
    if r < 1 or r > min(m, n):
        raise InvalidRankError(f"rank r={r} must satisfy 1 <= r <= min({m}, {n})")
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((m, r)))
    V, _ = np.linalg.qr(rng.standard_normal((n, r)))
    d = 1.0 + (kappa - 1.0) * rng.random(r)
    A = Matrix.from_dense((U * d) @ V.T)
    x_star = rng.standard_normal(n)
    b = A.matvec(x_star)
    x_min = V @ (V.T @ x_star)
    resid = float(np.linalg.norm(A.matvec(x_min) - b))
    b.setflags(write=False)
    x_star.setflags(write=False)
    x_min.setflags(write=False)
    return LinearSystem(
        A=A,
        b=b,
        planted_solution=x_star,
        min_norm=x_min,
        consistency_residual=resid,
    )


def attach_min_norm(system: LinearSystem) -> LinearSystem:
    """Fill ``min_norm`` via the SVD oracle if absent (idempotent)."""
    if system.min_norm is not None:
        return system
    x_min = min_norm_solution(system.A, system.b)
    resid = float(np.linalg.norm(system.A.matvec(x_min) - system.b))
    x_min.setflags(write=False)
    return replace(system, min_norm=x_min, consistency_residual=resid)


# ---------------------------------------------------------------------------
# Matrix Market reader
# ---------------------------------------------------------------------------

def load_matrix_market(path) -> Matrix:
    """Read a real-valued Matrix Market file into a sparse Matrix.

    Supports coordinate and array formats; general/symmetric/skew-symmetric
    headers (symmetry expanded to full storage); pattern entries become 1.0;
    duplicate coordinate entries are summed.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        parts = header.strip().split()
        if len(parts) != 5 or parts[0] != "%%MatrixMarket" or parts[1].lower() != "matrix":
            raise MatrixMarketParseError(f"bad header line: {header!r}")
        fmt, field, symmetry = (p.lower() for p in parts[2:5])
        if fmt not in ("coordinate", "array"):
            raise MatrixMarketParseError(f"unknown format {fmt!r}")
        if field == "complex":
            raise UnsupportedError("complex-valued Matrix Market files are not supported")
        if field not in ("real", "integer", "pattern"):
            raise MatrixMarketParseError(f"unknown field {field!r}")
        if symmetry not in ("general", "symmetric", "skew-symmetric"):
            if symmetry == "hermitian":
                raise UnsupportedError("hermitian symmetry is not supported")
            raise MatrixMarketParseError(f"unknown symmetry {symmetry!r}")
        if fmt == "array" and field == "pattern":
            raise MatrixMarketParseError("array format cannot have a pattern field")

        line = fh.readline()
        while line and line.lstrip().startswith("%"):
            line = fh.readline()
        size = line.split()
        if fmt == "coordinate":
            if len(size) != 3:
                raise MatrixMarketParseError(f"bad size line: {line!r}")
            try:
                m, n, nnz = (int(s) for s in size)
            except ValueError as exc:
                raise MatrixMarketParseError(f"bad size line: {line!r}") from exc
            return _read_coordinate(fh, m, n, nnz, field, symmetry)
        if len(size) != 2:
            raise MatrixMarketParseError(f"bad size line: {line!r}")
        try:
            m, n = (int(s) for s in size)
        except ValueError as exc:
            raise MatrixMarketParseError(f"bad size line: {line!r}") from exc
        return _read_array(fh, m, n, symmetry)


def _read_coordinate(fh, m, n, nnz, field, symmetry) -> Matrix:
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64)
    pattern = field == "pattern"
    count = 0
    for line in fh:
        toks = line.split()
        if not toks:
            continue
        if count >= nnz:
            raise MatrixMarketParseError("more entries than declared")
        expected = 2 if pattern else 3
        if len(toks) != expected:
            raise MatrixMarketParseError(f"bad entry line: {line!r}")
        try:
            i = int(toks[0]) - 1
            j = int(toks[1]) - 1
            v = 1.0 if pattern else float(toks[2])
        except ValueError as exc:
            raise MatrixMarketParseError(f"bad entry line: {line!r}") from exc
        if not (0 <= i < m and 0 <= j < n):
            raise MatrixMarketParseError(f"index out of range: {line!r}")
        rows[count], cols[count], vals[count] = i, j, v
        count += 1
    if count != nnz:
        raise MatrixMarketParseError(f"expected {nnz} entries, found {count}")

    if symmetry in ("symmetric", "skew-symmetric"):
        if m != n:
            raise MatrixMarketParseError("symmetric matrix must be square")
        off = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, sign * vals[off]]),
        )
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(m, n))
    return Matrix.from_scipy(coo)


def _read_array(fh, m, n, symmetry) -> Matrix:
    if symmetry in ("symmetric", "skew-symmetric") and m != n:
        raise MatrixMarketParseError("symmetric matrix must be square")
    values = []
    for line in fh:
        toks = line.split()
        if not toks:
            continue
        try:
            values.extend(float(t) for t in toks)
        except ValueError as exc:
            raise MatrixMarketParseError(f"bad value line: {line!r}") from exc
    dense = np.zeros((m, n), dtype=np.float64)
    if symmetry == "general":
        if len(values) != m * n:
            raise MatrixMarketParseError(f"expected {m * n} values, found {len(values)}")
        dense[:] = np.array(values).reshape((n, m)).T  # column-major on disk
    else:
        # packed lower triangle, column-major
        expected = m * (m + 1) // 2
        if len(values) != expected:
            raise MatrixMarketParseError(f"expected {expected} values, found {len(values)}")
        it = iter(values)
        for j in range(n):
            for i in range(j, m):
                dense[i, j] = next(it)
        if symmetry == "symmetric":
            dense = dense + np.tril(dense, -1).T
        else:
            dense = dense - np.tril(dense, -1).T
            np.fill_diagonal(dense, 0.0)
    return Matrix.from_scipy(sp.csr_matrix(dense))
