"""Sketch distributions over row index sets, the sampler that draws from
them, and their bound quantities.

Every shipped scheme draws a sketching matrix of the form
S = scale * I[:, J] for an index set J, so S^T v and A^T S w reduce to
products with the scaled row block; S is never materialized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidBlockSizeError, UnsupportedError
from .linalg import Matrix

__all__ = [
    "SingleRowWeighted",
    "UniformBlock",
    "PartitionBlock",
    "FixedIdentity",
    "BlockSampler",
    "SchemeSpec",
    "parse_scheme",
    "build_partition",
    "expected_gram",
    "lambda_max_sup",
    "LambdaMaxResult",
    "UNIFORM_SUPPORT_CAP",
]

# Rejection-cap basis of ``uniform:<p>``. Its C(m, p) subsets are too many
# to count against, so the sampler reports this fixed support size and a
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


def _check_block_size(p: int, m: int) -> None:
    if p < 1 or p > m:
        raise InvalidBlockSizeError(f"block size p={p} must satisfy 1 <= p <= m={m}")


def build_partition(m: int, p: int, seed: int) -> tuple:
    """Partition [0, m) into ceil(m/p) blocks from a seeded uniform
    permutation; all blocks have size p except possibly the last."""
    _check_block_size(p, m)
    perm = np.random.default_rng(seed).permutation(m)
    t = math.ceil(m / p)
    blocks = []
    for i in range(t):
        blk = np.sort(perm[i * p: min((i + 1) * p, m)])
        blk.setflags(write=False)
        blocks.append(blk)
    return tuple(blocks)


# ---------------------------------------------------------------------------
# The sampler: a scheme bound to one system, ready to draw
# ---------------------------------------------------------------------------

# uniforms drawn per call to the generator; Generator.random(n) yields the
# same stream as n scalar calls, so the chunk size never changes a draw
_DRAW_CHUNK = 256


class _CsrDot:
    """A scipy sparse matrix behind ndarray's ``dot(v, out=None)``."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        self.mat = mat

    def dot(self, v, out=None):
        if out is None:
            return self.mat @ v
        out[:] = self.mat @ v
        return out


def _block_pair(aug):
    """(aug, aug^T) with the ``dot`` the solver loops call on both."""
    if isinstance(aug, np.ndarray):
        return aug, aug.T
    return _CsrDot(aug), _CsrDot(aug.T)


class BlockSampler:
    """A sampling scheme bound to one system.

    Each support element J is cached once as the scaled augmented block
    ``[s·A_J | −s·b_J]``. With the augmented iterate ``xa = [x; 1]`` the
    sketched residual is one product, ``S^T(Ax − b) = block·xa``, and
    ``block^T·t`` is ``A^T S t`` in its first n entries (the caller zeroes
    the last entry, ``−s b_J·t``).

    Given the triangular factor R of ``[A | −b] = Q·R``, each block also
    carries ``K_J = R[:, :n]·(s·A_J)^T``, so that ``R·[A^T S t; 0] = K_J·t``
    follows a step without a product with R. K is cached only when every
    block has fewer rows than R, where ``K_J·t`` is the cheaper product;
    otherwise, and without R, it is None.

    ``draw()`` returns the triple ``(block, block^T, K)`` of the next
    sample. Weighted schemes (partition, row) draw their uniforms in chunks
    with one ``searchsorted`` per chunk; ``uniform:<p>`` gathers its rows
    (and its K from one scaled m×rows(R) table) on every draw; the identity
    scheme always returns its single block.
    """

    def __init__(self, scheme, A: Matrix, b: np.ndarray, rng, residual_factor=None):
        if isinstance(scheme, UniformBlock):
            _check_block_size(scheme.p, A.rows)
        if A.is_sparse:
            aug = sp.hstack([A._csr, sp.csr_matrix(-b.reshape(-1, 1))], format="csr")
        else:
            aug = np.hstack([A._dense, -b.reshape(-1, 1)])
        self.deterministic = isinstance(scheme, FixedIdentity)
        if isinstance(scheme, FixedIdentity):
            self.blocks = [(*_block_pair(aug), None)]
            self.support_size = 1
            self.carries_residual = False
            self.draw = itertools.repeat(self.blocks[0]).__next__
            return
        if isinstance(scheme, PartitionBlock):
            scheme.check_covers(A.rows)
            rows = scheme.blocks
            weights = np.array([A.row_norms_sq[blk].sum() for blk in rows])
            largest = scheme.p
        elif isinstance(scheme, SingleRowWeighted):
            rows = [np.array([i]) for i in range(A.rows)]
            weights = A.row_norms_sq
            largest = 1
        elif isinstance(scheme, UniformBlock):
            rows, largest = None, scheme.p
        else:
            raise TypeError(f"unsupported scheme {scheme!r}")
        R = residual_factor
        self.carries_residual = R is not None and largest < len(R)
        # row i of the table is R[:, :n]·A_i, so K_J = (s·table[J])^T
        table = A._dense.dot(R[:, :A.cols].T) if self.carries_residual else None
        if rows is None:
            scale = np.sqrt(A.rows / scheme.p / A.fro_norm_sq)
            aug *= scale
            if table is not None:
                table *= scale
            self.blocks = None
            self.support_size = UNIFORM_SUPPORT_CAP
            self.draw = _uniform_draws(rng, aug, table, A.rows, scheme.p).__next__
            return
        scales = [1.0 / np.sqrt(w) if w > 0 else 0.0 for w in weights]
        self.blocks = [
            (*_block_pair(aug[blk] * s), None if table is None else (table[blk] * s).T)
            for blk, s in zip(rows, scales)
        ]
        self.support_size = len(self.blocks)
        cum = np.cumsum(weights / A.fro_norm_sq)
        self.draw = _weighted_draws(rng, cum, self.blocks).__next__


def _weighted_draws(rng, cum, blocks):
    last = len(blocks) - 1
    while True:
        idx = np.searchsorted(cum, rng.random(_DRAW_CHUNK), side="right")
        # cum[-1] may round to just below 1
        for i in np.minimum(idx, last).tolist():
            yield blocks[i]


def _uniform_draws(rng, aug, table, m, p):
    while True:
        rows = np.sort(rng.choice(m, size=p, replace=False))
        yield (*_block_pair(aug[rows]), None if table is None else table[rows].T)


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
    """lambda_max(A_J^T A_J) = ||A_J||_2^2 for a row block J, exactly: the
    largest eigenvalue of the smaller of the two Grams of A_J."""
    block = A.row_block(idx)
    q, n = block.shape
    gram = block @ block.T if q <= n else block.T @ block
    return float(np.linalg.eigvalsh(gram)[-1])


def lambda_max_sup(scheme, A: Matrix) -> LambdaMaxResult:
    """sup over the scheme's support of lambda_max(A^T S S^T A)."""
    if isinstance(scheme, SingleRowWeighted):
        return LambdaMaxResult(1.0)
    if isinstance(scheme, FixedIdentity):
        return LambdaMaxResult(block_spectral_norm_sq(A, np.arange(A.rows)))
    if isinstance(scheme, PartitionBlock):
        worst = max(
            block_spectral_norm_sq(A, blk) / A.row_norms_sq[blk].sum()
            for blk in scheme.blocks
        )
        return LambdaMaxResult(float(worst))
    if isinstance(scheme, UniformBlock):
        m, p = A.rows, scheme.p
        _check_block_size(p, m)
        factor = (m / p) / A.fro_norm_sq
        if math.comb(m, p) <= _ENUMERATION_LIMIT:
            worst = max(
                block_spectral_norm_sq(A, np.array(J))
                for J in itertools.combinations(range(m), p)
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
            _check_block_size(self.p, A.rows)
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
