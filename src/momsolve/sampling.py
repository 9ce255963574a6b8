"""Sketch distributions over row index sets, the sampler that draws from
them, and their bound quantities.

Every shipped scheme draws a sketching matrix of the form
S = scale * I[:, J] for an index set J, so S^T v and A^T S w reduce to
products with the scaled row block; S is never materialized.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBlockSizeError, UnsupportedError, ZeroMatrixError
from .linalg import Matrix, augmented, gram_eigenvalues
from .problems import LinearSystem

__all__ = [
    "UniformBlock",
    "PartitionBlock",
    "BlockSampler",
    "SchemeSpec",
    "parse_scheme",
    "build_partition",
    "floyd_subsets",
    "compute_tau",
    "lambda_max_sup",
    "LambdaMaxResult",
    "UNIFORM_SUPPORT_CAP",
]

# Rejection-cap basis of ``uniform:<p>``. Its C(m, p) subsets are too many
# to count against, so the sampler counts this many instead, and a
# rejection loop gives up after 100 times as many zero sketches.
UNIFORM_SUPPORT_CAP = 100


# ---------------------------------------------------------------------------
# Scheme descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformBlock:
    """Uniform size-p subset J; S = sqrt(m/p) I[:, J] / ||A||_F."""

    p: int

    def check(self, m: int) -> None:
        """Raise InvalidBlockSizeError unless 1 <= p <= m."""
        _check_block_size(self.p, m)

    def describe(self) -> str:
        return f"uniform:{self.p}"


@dataclass(frozen=True)
class PartitionBlock:
    """Fixed partition; block i with probability ||A_Ii||_F^2 / ||A||_F^2,
    S = I[:, Ii] / ||A_Ii||_F.

    ``row`` is the partition into singletons in row order, and ``identity``
    the one block of every row with S = I unscaled (``unit_scale``); their
    ``label`` is what ``describe`` reports."""

    blocks: tuple  # tuple of read-only int arrays
    label: str | None = None
    unit_scale: bool = False

    @property
    def p(self) -> int:
        return max(len(blk) for blk in self.blocks)

    @classmethod
    def from_permutation(cls, m: int, p: int, seed: int) -> "PartitionBlock":
        return cls(blocks=build_partition(m, p, seed))

    def check(self, m: int) -> None:
        """Raise ValueError unless integer blocks cover rows 0..m-1 exactly once."""
        union = np.concatenate(self.blocks) if self.blocks else np.empty(0)
        if (union.dtype.kind not in "iu" or len(union) != m
                or not np.array_equal(np.sort(union), np.arange(m))):
            raise ValueError("partition does not cover the matrix rows exactly once")

    def describe(self) -> str:
        return self.label or f"partition:{self.p}"

    def norms_sq(self, A: Matrix):
        """(w, d): each block's weight w_J = ||A_J||_F^2 and d_J = 1/s_J^2,
        which is w_J, or 1 for a ``unit_scale`` family."""
        w = np.array([A.row_norms_sq[blk].sum() for blk in self.blocks])
        return w, np.ones_like(w) if self.unit_scale else w


def _check_family(scheme, m: int) -> None:
    """The one type-and-fit rule: UnsupportedError unless ``scheme`` is a
    sketch family, then the family's own error unless it fits m rows."""
    if not isinstance(scheme, (UniformBlock, PartitionBlock)):
        raise UnsupportedError(f"unsupported scheme {scheme!r}")
    scheme.check(m)


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

# keys drawn per call to the generator. A partition's chunk is 256 uniforms,
# and Generator.random(n) yields the same stream as n scalar calls, so the
# chunk size never changes its draws; a uniform:<p> chunk is 256 subsets
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


def floyd_subsets(rng, m: int, p: int, count: int):
    """``count`` uniform p-subsets of range(m), as an int64 (count, p) array
    of sorted rows, each drawn by Floyd's algorithm (Bentley & Floyd, CACM
    1987), all from one ``rng.integers`` call.

    Step j of a row draws t_j uniform in [0, i_j], i_j = m − p + j, and takes
    t_j, or i_j when t_j is taken already. A value below m − p is taken
    before step j if and only if an earlier step drew it; i_l with l < j if
    an earlier step drew it, or if step l took it. So step j takes i_j if
    and only if, on the chain j → l = t_j − (m − p) → … (while l is below
    the step it comes from), some step repeats an earlier draw of its row.
    Pointer doubling follows every chain at once, in O(count·p) memory."""
    t = rng.integers(0, np.arange(m - p + 1, m + 1), size=(count, p))
    j, end = np.arange(p), count * p
    # hit[r·p + j]: step j of row r repeats an earlier draw. Sorting t·p + j
    # orders a row's draws by value, equal values by step.
    ranked = np.sort(t * p + j, axis=1)
    repeat = ranked[:, 1:] // p == ranked[:, :-1] // p
    hit = np.zeros(end + 1, dtype=bool)  # entry ``end`` ends every chain
    rows, cols = np.nonzero(repeat)
    hit[rows * p + ranked[rows, cols + 1] % p] = True
    # to[r·p + j]: the step of t_j's i_l, or ``end``
    parent = t - (m - p)
    node = np.flatnonzero((parent >= 0) & (parent < j))
    to = np.full(end + 1, end)
    to[node] = node - node % p + parent.ravel()[node]
    while len(node):  # at most ceil(log2 p) rounds
        hit[node] |= hit[to[node]]
        to[node] = to[to[node]]
        node = node[to[node] != end]
    return np.sort(np.where(hit[:end].reshape(count, p), j + (m - p), t), axis=1)


def _partition_rows(M, blocks):
    """An ndarray or CSR M with its rows gathered once in block order, and
    the offsets of the blocks: block i is rows ``offsets[i]:offsets[i + 1]``."""
    return M[np.concatenate(blocks)], np.cumsum([0, *map(len, blocks)])


class BlockSampler:
    """A sampling scheme bound to one system, once per (system, scheme)
    pair; ``draws(rng)`` is one run's stream of draws from it. A solver
    takes such a sampler, or a bare scheme that it binds for the run.

    Each support element J is the scaled augmented block ``[s·A_J |
    −s·b_J]``, rows of one scaled copy of ``[A | −b]``. With the augmented
    iterate ``xa = [x; 1]`` the sketched residual is one product,
    ``S^T(Ax − b) = block·xa``, and ``block^T·t`` is ``A^T S t`` in its
    first n entries (the caller zeroes the last entry, ``−s b_J·t``).

    A draw is ``(block, block^T, key)``: a partition's key is the index of
    its block, a ``uniform:<p>`` key the sorted rows J. The key finds the
    block's residual map in ``residual_maps``: K_J = R[:, :n]·(s·A_J)^T, R
    being the system's ``residual_factor``, gives ``R·[A^T S t; 0] = K_J·t``
    without a product with R. ``can_carry`` says whether A is dense and
    every block has fewer rows than R, where ``K_J·t`` is the cheaper
    product; a tracked CSR run carries Ax − b in the compiled loop
    instead.

    Both kinds draw their keys in chunks (``key_chunks``): a partition
    (``row`` and ``identity`` included) with one ``searchsorted`` per chunk,
    ``uniform:<p>`` with ``floyd_subsets``. ``rows`` holds what the compiled
    loop reads in place, an ndarray or CSR in A's storage: a partition's
    blocks in block order, cut at ``offsets``, or the scaled ``[A | −b]``
    whose rows a uniform key names (``offsets`` None); a ``uniform:<p>``
    draw of the NumPy loop gathers its rows from it. ``blocks``, the draws
    of a partition, is made from ``rows`` only when the NumPy loop first
    asks for ``draws``. Rejection gives up after ``len(attempts)`` draws: 100
    per support element, or one for a partition of one block, which a
    redraw cannot change.
    """

    def __init__(self, scheme, system: LinearSystem):
        A = system.A
        self.scheme, self.system = scheme, system
        _check_family(scheme, A.rows)
        aug = augmented(A, system.b)
        # R has min(m, n + 1) rows
        self.can_carry = not A.is_sparse and scheme.p < min(A.rows, A.cols + 1)
        if isinstance(scheme, UniformBlock):
            self.scale = np.sqrt(A.rows / scheme.p / A.fro_norm_sq)
            aug *= self.scale
            self.rows, self.offsets = aug, None
            self.attempts = range(100 * UNIFORM_SUPPORT_CAP)
            return
        weights, inv_sq = scheme.norms_sq(A)
        self.scales = [1.0 / np.sqrt(d) if d > 0 else 0.0 for d in inv_sq]
        self.rows, self.offsets = self._scaled_rows(aug)
        count = len(self.offsets) - 1
        self.attempts = range(1 if count == 1 else 100 * count)
        self.cum = np.cumsum(weights / A.fro_norm_sq)

    @classmethod
    def bind(cls, scheme, system: LinearSystem) -> "BlockSampler":
        """A bare scheme bound to ``system``, or a sampler already bound to it."""
        sampler = scheme if isinstance(scheme, cls) else cls(scheme, system)
        if sampler.system is not system:
            raise ValueError("the sampler is bound to another system")
        return sampler

    def describe(self) -> str:
        return self.scheme.describe()

    @functools.cached_property
    def blocks(self):
        """The draws ``(block, block^T, key)`` of every partition block, made
        on first use (None for ``uniform:<p>``): views of a dense ``rows``,
        or one scipy copy of a CSR block's rows and its transpose."""
        if self.offsets is None:
            return None
        P = self.rows
        return [(*_block_pair(P[a:b]), i)
                for i, (a, b) in enumerate(itertools.pairwise(self.offsets))]

    @functools.cached_property
    def tau(self) -> float:
        """``compute_tau`` of the bound partition, made on first use."""
        return compute_tau(self.scheme, self.system.A)

    def _scaled_rows(self, M):
        """(P, offsets): s·M_J for every block J is P[offsets[J]:offsets[J + 1]],
        P one row-permuted copy of M."""
        P, offsets = _partition_rows(M, self.scheme.blocks)
        scale = np.repeat(self.scales, np.diff(offsets))
        if isinstance(P, np.ndarray):
            P *= scale[:, None]
        else:
            P.data *= np.repeat(scale, np.diff(P.indptr))
        return P, offsets

    @functools.cached_property
    def residual_maps(self):
        """K_J^T = s·table[J] of every block, table = A·R[:, :n]^T, as
        C-ordered slices of one row-permuted copy of the table, made on the
        first run that carries its residual; for ``uniform:<p>``, the table
        scaled once, whose rows a key selects."""
        A = self.system.A
        table = A.data.dot(self.system.residual_factor[:, :A.cols].T)
        if self.offsets is None:
            table *= self.scale
            return table
        P, offsets = self._scaled_rows(table)
        return [P[a:b] for a, b in itertools.pairwise(offsets)]

    def draws(self, rng, reuse: bool = False):
        """One run's endless stream of draws, its randomness from ``rng``.
        With ``reuse``, a dense ``uniform:<p>`` draw gathers its block into
        one buffer of the stream, which the next draw overwrites."""
        aug, chunks = self.rows, self.key_chunks(rng)
        if self.offsets is not None:
            blocks = self.blocks
            for keys in chunks:
                for i in keys.tolist():
                    yield blocks[i]
        elif reuse and isinstance(aug, np.ndarray):
            buf = np.empty((self.scheme.p, aug.shape[1]))
            pair = _block_pair(buf)
            for keys in chunks:
                for rows in keys:
                    # a gather with mode="clip" writes into ``out`` unbuffered
                    aug.take(rows, axis=0, out=buf, mode="clip")
                    yield *pair, rows
        else:
            for keys in chunks:
                for rows in keys:
                    yield *_block_pair(aug[rows]), rows

    def key_chunks(self, rng):
        """The endless stream of drawn keys that ``draws`` makes from
        ``rng``, ``_DRAW_CHUNK`` keys an array: a partition's int64 block
        indices, or (``_DRAW_CHUNK``, p) int64 rows of a ``uniform:<p>``
        key each, from ``floyd_subsets``."""
        if self.offsets is None:
            m, p = self.system.A.rows, self.scheme.p
            while True:
                yield floyd_subsets(rng, m, p, _DRAW_CHUNK)
        last = len(self.offsets) - 2
        while True:
            idx = np.searchsorted(self.cum, rng.random(_DRAW_CHUNK), side="right")
            # cum[-1] may round to just below 1
            yield np.minimum(idx, last)


# ---------------------------------------------------------------------------
# Bound quantities
# ---------------------------------------------------------------------------

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
    return float(gram_eigenvalues(A.row_block(idx))[-1])


def _csr_blocks(A: Matrix, blocks):
    """A CSR A's row blocks as dense arrays, one at a time in one reused
    buffer filled straight from the arrays of A's row-permuted copy."""
    if not blocks:
        return
    P, offsets = _partition_rows(A.data, blocks)
    buf = np.zeros(np.diff(offsets).max() * A.cols)
    # each stored entry's place in its block's row-major buffer
    row = np.arange(P.shape[0]) - np.repeat(offsets[:-1], np.diff(offsets))
    flat = np.repeat(row * A.cols, np.diff(P.indptr)) + P.indices
    for a, b in itertools.pairwise(offsets):
        lo, hi = P.indptr[a], P.indptr[b]
        buf[flat[lo:hi]] = P.data[lo:hi]
        yield buf[:(b - a) * A.cols].reshape(b - a, A.cols)
        buf[flat[lo:hi]] = 0.0


def lambda_max_sup(scheme, A: Matrix) -> LambdaMaxResult:
    """sup over the scheme's support of lambda_max(A^T S S^T A)."""
    _check_family(scheme, A.rows)
    if A.fro_norm_sq == 0.0:
        raise ZeroMatrixError("lambda_max_sup: zero matrix")
    if isinstance(scheme, PartitionBlock):
        # s_J^2·lambda_max(A_J A_J^T) = lambda_max / d_J. A block of zero rows
        # has probability 0, so it is not in the support; a one-row block's
        # lambda_max is its squared norm w_J, which needs no eigensolver.
        w, inv_sq = scheme.norms_sq(A)
        multi = [blk for blk, wj in zip(scheme.blocks, w) if wj > 0 and len(blk) > 1]
        dense = _csr_blocks(A, multi) if A.is_sparse else map(A.row_block, multi)
        lam = iter([float(gram_eigenvalues(M)[-1]) for M in dense])
        worst = max((next(lam) if len(blk) > 1 else wj) / dj
                    for blk, wj, dj in zip(scheme.blocks, w, inv_sq) if wj > 0)
        return LambdaMaxResult(float(worst))
    m, p = A.rows, scheme.p
    factor = (m / p) / A.fro_norm_sq
    exact = math.comb(m, p) <= _ENUMERATION_LIMIT
    rng = np.random.default_rng(0)
    subsets = (itertools.combinations(range(m), p) if exact else
               (np.sort(rng.choice(m, size=p, replace=False)) for _ in range(_ESTIMATE_DRAWS)))
    worst = max(block_spectral_norm_sq(A, np.array(J)) for J in subsets)
    return LambdaMaxResult(factor * worst, is_estimate=not exact)


def compute_tau(partition: PartitionBlock, A: Matrix) -> float:
    """Step-size constant for the fixed-parameter momentum baseline:
    tau = max_i ||A_Ii||_2^2 / ||A_Ii||_F^2 / ||A||_F^2."""
    return lambda_max_sup(partition, A).value / A.fro_norm_sq


# ---------------------------------------------------------------------------
# Scheme-spec grammar: row | uniform:<p> | partition:<p> | identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeSpec:
    variant: str
    p: int | None = None

    def materialize(self, A: Matrix, seed: int):
        """Turn the spec into a concrete scheme; for partition sampling the
        partition is fixed here, once per run. ``row`` and ``identity`` are
        the two fixed partitions: singletons in row order, and one block."""
        if self.variant in ("row", "identity"):
            rows = np.arange(A.rows)
            rows.setflags(write=False)
            if self.variant == "row":
                return PartitionBlock(blocks=tuple(rows.reshape(-1, 1)), label="row")
            return PartitionBlock(blocks=(rows,), label="identity", unit_scale=True)
        if self.variant == "uniform":
            scheme = UniformBlock(p=self.p)
            scheme.check(A.rows)
            return scheme
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
