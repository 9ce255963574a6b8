"""Sketch distributions over row index sets and their bound quantities.

Every shipped scheme draws a sketching matrix of the form
S = scale * I[:, J] for an index set J, so S^T v and A^T S w reduce to
gathers and row-submatrix products; S is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidBlockSizeError, UnsupportedError
from .linalg import Matrix

__all__ = [
    "SingleRowWeighted",
    "UniformBlock",
    "PartitionBlock",
    "FixedIdentity",
    "SampleOp",
    "SchemeSpec",
    "parse_scheme",
    "build_partition",
    "make_sampler",
    "draw_sample",
    "apply_sample_transpose",
    "pullback",
    "expected_gram",
    "lambda_max_sup",
    "LambdaMaxResult",
    "UNIFORM_SUPPORT_CAP",
]

# Rejection-cap basis of ``uniform:<p>``. Its C(m, p) subsets are too many
# to count against, so both samplers report this fixed support size and a
# rejection loop gives up after 100 times as many zero sketches.
UNIFORM_SUPPORT_CAP = 100


# ---------------------------------------------------------------------------
# Scheme descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleRowWeighted:
    """Row i with probability ||A_i||^2 / ||A||_F^2; S = e_i / ||A_i||."""

    def describe(self) -> str:
        return "row"


@dataclass(frozen=True)
class UniformBlock:
    """Uniform size-p subset J; S = sqrt(m/p) I[:, J] / ||A||_F."""

    p: int

    def describe(self) -> str:
        return f"uniform:{self.p}"


@dataclass(frozen=True)
class PartitionBlock:
    """Fixed partition; block i with probability ||A_Ii||_F^2 / ||A||_F^2,
    S = I[:, Ii] / ||A_Ii||_F."""

    blocks: tuple  # tuple of read-only int arrays

    @property
    def p(self) -> int:
        return max(len(blk) for blk in self.blocks)

    @classmethod
    def from_permutation(cls, m: int, p: int, seed: int) -> "PartitionBlock":
        return cls(blocks=build_partition(m, p, seed))

    def check_covers(self, m: int) -> None:
        """Raise ValueError unless the blocks cover rows 0..m-1 exactly once."""
        union = np.concatenate(self.blocks)
        if len(union) != m or not np.array_equal(np.sort(union), np.arange(m)):
            raise ValueError("partition does not cover the matrix rows exactly once")

    def describe(self) -> str:
        return f"partition:{self.p}"


@dataclass(frozen=True)
class FixedIdentity:
    """Deterministic scheme: the sample space is the single matrix I."""

    def describe(self) -> str:
        return "identity"


@dataclass(frozen=True)
class SampleOp:
    """One realized sketch: row indices plus scaling (indices=None means I).

    ``scale`` is a scalar for all shipped schemes, but per-index diagonal
    weights are accepted for custom sketches.
    """

    indices: np.ndarray | None
    scale: float | np.ndarray = 1.0

    @property
    def is_identity(self) -> bool:
        return self.indices is None


def build_partition(m: int, p: int, seed: int) -> tuple:
    """Partition [0, m) into ceil(m/p) blocks from a seeded uniform
    permutation; all blocks have size p except possibly the last."""
    if p < 1 or p > m:
        raise InvalidBlockSizeError(f"block size p={p} must satisfy 1 <= p <= m={m}")
    perm = np.random.default_rng(seed).permutation(m)
    t = math.ceil(m / p)
    blocks = []
    for i in range(t):
        blk = np.sort(perm[i * p: min((i + 1) * p, m)])
        blk.setflags(write=False)
        blocks.append(blk)
    return tuple(blocks)


# ---------------------------------------------------------------------------
# Samplers (scheme bound to a matrix, ready to draw)
# ---------------------------------------------------------------------------

class _RowSampler:
    def __init__(self, scheme: SingleRowWeighted, A: Matrix):
        if A.fro_norm_sq <= 0.0:
            raise ValueError("cannot sample rows of a zero matrix")
        self.scheme = scheme
        self._row_norms = np.sqrt(A.row_norms_sq)
        self._cum = np.cumsum(A.row_norms_sq / A.fro_norm_sq)
        self.support_size = A.rows

    def draw(self, rng) -> SampleOp:
        i = int(np.searchsorted(self._cum, rng.random(), side="right"))
        i = min(i, len(self._cum) - 1)
        idx = np.array([i])
        return SampleOp(indices=idx, scale=1.0 / self._row_norms[i])

    def probabilities(self) -> np.ndarray:
        return np.diff(self._cum, prepend=0.0)


class _UniformSampler:
    def __init__(self, scheme: UniformBlock, A: Matrix):
        if not 1 <= scheme.p <= A.rows:
            raise InvalidBlockSizeError(f"p={scheme.p} out of range for m={A.rows}")
        self.scheme = scheme
        self._m = A.rows
        self._p = scheme.p
        self._scale = math.sqrt(A.rows / scheme.p) / math.sqrt(A.fro_norm_sq)
        self.support_size = UNIFORM_SUPPORT_CAP

    def draw(self, rng) -> SampleOp:
        idx = np.sort(rng.choice(self._m, size=self._p, replace=False))
        return SampleOp(indices=idx, scale=self._scale)


class _PartitionSampler:
    def __init__(self, scheme: PartitionBlock, A: Matrix):
        scheme.check_covers(A.rows)
        self.scheme = scheme
        fro_sq = np.array([A.row_norms_sq[blk].sum() for blk in scheme.blocks])
        self._scales = 1.0 / np.sqrt(fro_sq)
        self._cum = np.cumsum(fro_sq / A.fro_norm_sq)
        self.support_size = len(scheme.blocks)

    def draw(self, rng) -> SampleOp:
        i = int(np.searchsorted(self._cum, rng.random(), side="right"))
        i = min(i, len(self._cum) - 1)
        return SampleOp(indices=self.scheme.blocks[i], scale=self._scales[i])

    def probabilities(self) -> np.ndarray:
        return np.diff(self._cum, prepend=0.0)


class _IdentitySampler:
    def __init__(self, scheme: FixedIdentity, A: Matrix):
        self.scheme = scheme
        self.support_size = 1

    def draw(self, rng) -> SampleOp:
        return SampleOp(indices=None, scale=1.0)


_SAMPLERS = {
    SingleRowWeighted: _RowSampler,
    UniformBlock: _UniformSampler,
    PartitionBlock: _PartitionSampler,
    FixedIdentity: _IdentitySampler,
}


def make_sampler(scheme, A: Matrix):
    """Bind a scheme to a matrix; the result draws SampleOps from an rng."""
    try:
        cls = _SAMPLERS[type(scheme)]
    except KeyError:
        raise UnsupportedError(f"unknown sampling scheme {scheme!r}") from None
    return cls(scheme, A)


def draw_sample(scheme, A: Matrix, rng) -> SampleOp:
    return make_sampler(scheme, A).draw(rng)


# ---------------------------------------------------------------------------
# Structured products
# ---------------------------------------------------------------------------

def apply_sample_transpose(op: SampleOp, v: np.ndarray) -> np.ndarray:
    """S^T v by gathering and scaling the indexed entries."""
    if op.is_identity:
        return np.asarray(v, dtype=np.float64)
    return op.scale * np.asarray(v, dtype=np.float64)[op.indices]


def pullback(op: SampleOp, A: Matrix, w: np.ndarray) -> np.ndarray:
    """A^T (S w) using only the rows selected by the sample."""
    w = np.asarray(w, dtype=np.float64)
    if op.is_identity:
        return A.rmatvec(w)
    return A.rows_rmatvec(op.indices, op.scale * w)


# ---------------------------------------------------------------------------
# Bound quantities
# ---------------------------------------------------------------------------

def expected_gram(scheme, A: Matrix) -> np.ndarray:
    """Closed-form E[S S^T] for the shipped schemes."""
    if isinstance(scheme, FixedIdentity):
        return np.eye(A.rows)
    if isinstance(scheme, (SingleRowWeighted, UniformBlock, PartitionBlock)):
        return np.eye(A.rows) / A.fro_norm_sq
    raise UnsupportedError(f"no closed-form expected gram for {scheme!r}")


@dataclass(frozen=True)
class LambdaMaxResult:
    value: float
    is_estimate: bool = False


# threshold above which uniform-block subsets are sampled instead of
# enumerated
_ENUMERATION_LIMIT = 10 ** 5
_ESTIMATE_DRAWS = 10 ** 4


def block_spectral_norm_sq(A: Matrix, idx) -> float:
    """lambda_max(A_J^T A_J) = ||A_J||_2^2 for a row block J."""
    block = A.row_block(idx)
    q = block.shape[0]
    gram = block @ block.T
    if q <= 64:
        return float(np.linalg.eigvalsh(gram)[-1])
    return _power_iteration(gram)


def _power_iteration(gram: np.ndarray, tol: float = 1e-10, max_iter: int = 10000) -> float:
    rng = np.random.default_rng(0)
    v = rng.standard_normal(gram.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v_new = w / nw
        lam_new = float(v_new @ gram @ v_new)
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        v, lam = v_new, lam_new
    return lam


def lambda_max_sup(scheme, A: Matrix) -> LambdaMaxResult:
    """sup over the scheme's support of lambda_max(A^T S S^T A)."""
    if isinstance(scheme, SingleRowWeighted):
        return LambdaMaxResult(1.0)
    if isinstance(scheme, FixedIdentity):
        sigma_sq = block_spectral_norm_sq(A, np.arange(A.rows)) if A.rows <= 64 else None
        if sigma_sq is None:
            sigma_sq = float(np.linalg.svd(A.toarray(), compute_uv=False)[0] ** 2)
        return LambdaMaxResult(sigma_sq)
    if isinstance(scheme, PartitionBlock):
        worst = max(
            block_spectral_norm_sq(A, blk) / A.row_norms_sq[blk].sum()
            for blk in scheme.blocks
        )
        return LambdaMaxResult(float(worst))
    if isinstance(scheme, UniformBlock):
        m, p = A.rows, scheme.p
        factor = (m / p) / A.fro_norm_sq
        if math.comb(m, p) <= _ENUMERATION_LIMIT:
            worst = max(
                block_spectral_norm_sq(A, np.array(J))
                for J in combinations(range(m), p)
            )
            return LambdaMaxResult(factor * worst, is_estimate=False)
        rng = np.random.default_rng(0)
        worst = max(
            block_spectral_norm_sq(A, np.sort(rng.choice(m, size=p, replace=False)))
            for _ in range(_ESTIMATE_DRAWS)
        )
        return LambdaMaxResult(factor * worst, is_estimate=True)
    raise UnsupportedError(f"lambda_max_sup not defined for {scheme!r}")


# ---------------------------------------------------------------------------
# Scheme-spec grammar: row | uniform:<p> | partition:<p> | identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeSpec:
    variant: str
    p: int | None = None

    def materialize(self, A: Matrix, seed: int):
        """Turn the spec into a concrete scheme; for partition sampling the
        partition is fixed here, once per run."""
        if self.variant == "row":
            return SingleRowWeighted()
        if self.variant == "identity":
            return FixedIdentity()
        if self.variant == "uniform":
            return UniformBlock(p=self.p)
        if self.variant == "partition":
            return PartitionBlock.from_permutation(A.rows, self.p, seed)
        raise UnsupportedError(f"unknown scheme variant {self.variant!r}")

    def __str__(self) -> str:
        return self.variant if self.p is None else f"{self.variant}:{self.p}"


def parse_scheme(text: str) -> SchemeSpec:
    text = text.strip()
    if text in ("row", "identity"):
        return SchemeSpec(variant=text)
    for name in ("uniform", "partition"):
        if text.startswith(name + ":"):
            try:
                p = int(text[len(name) + 1:])
            except ValueError:
                raise UnsupportedError(f"bad block size in scheme spec {text!r}") from None
            if p < 1:
                raise InvalidBlockSizeError(f"block size must be >= 1 in {text!r}")
            return SchemeSpec(variant=name, p=p)
    raise UnsupportedError(f"unknown sampling scheme spec {text!r}")
