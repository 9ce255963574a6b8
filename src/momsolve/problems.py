"""Problem construction: synthetic Gaussian systems and Matrix Market files."""

from __future__ import annotations

import warnings
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
    duplicate coordinate entries are summed. Array files hold one value per
    line, column-major; symmetric arrays store the lower triangle and
    skew-symmetric arrays the strictly lower one.
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
        if len(size) != (3 if fmt == "coordinate" else 2):
            raise MatrixMarketParseError(f"bad size line: {line!r}")
        try:
            size = [int(s) for s in size]
        except ValueError as exc:
            raise MatrixMarketParseError(f"bad size line: {line!r}") from exc
        if symmetry != "general" and size[0] != size[1]:
            raise MatrixMarketParseError("symmetric matrix must be square")
        if fmt == "coordinate":
            return _read_coordinate(fh, *size, field, symmetry)
        return _read_array(fh, *size, symmetry)


def _read_entries(fh, dtype) -> np.ndarray:
    """The rest of ``fh`` as one structured array, one record per non-blank
    line; each line must hold exactly the dtype's fields."""
    with warnings.catch_warnings():
        # numpy only deprecates truncating a token such as "2.9" into an
        # int64 field; as an error it becomes the ValueError caught below
        warnings.simplefilter("error", DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(fh, dtype=dtype, comments=None, ndmin=1)
        except ValueError as exc:
            raise MatrixMarketParseError(f"bad entry line: {exc}") from exc


def _read_coordinate(fh, m, n, nnz, field, symmetry) -> Matrix:
    fields = [("i", np.int64), ("j", np.int64)]
    if field != "pattern":
        fields.append(("v", np.float64))
    entries = _read_entries(fh, np.dtype(fields))
    if len(entries) != nnz:
        raise MatrixMarketParseError(f"expected {nnz} entries, found {len(entries)}")
    rows, cols = entries["i"] - 1, entries["j"] - 1
    if nnz and not (rows.min() >= 0 and cols.min() >= 0 and rows.max() < m and cols.max() < n):
        raise MatrixMarketParseError("entry index out of range")
    vals = np.ones(nnz) if field == "pattern" else entries["v"]

    if symmetry in ("symmetric", "skew-symmetric"):
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
    values = _read_entries(fh, np.dtype([("v", np.float64)]))["v"]
    if symmetry == "general":
        if len(values) != m * n:
            raise MatrixMarketParseError(f"expected {m * n} values, found {len(values)}")
        dense = values.reshape((n, m)).T  # column-major on disk
    else:
        skew = symmetry == "skew-symmetric"
        expected = n * (n - 1) // 2 if skew else n * (n + 1) // 2
        if len(values) != expected:
            raise MatrixMarketParseError(f"expected {expected} values, found {len(values)}")
        # the packed lower triangle, column-major, is the upper triangle of
        # the transpose in row-major order; skew-symmetric skips the diagonal
        dense = np.zeros((n, n))
        dense.T[np.triu_indices(n, 1 if skew else 0)] = values
        dense += (-1.0 if skew else 1.0) * np.tril(dense, -1).T
    return Matrix.from_scipy(sp.csr_matrix(dense))
