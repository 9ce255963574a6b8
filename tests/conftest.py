"""Shared helpers: a dense sketch-matrix oracle used to cross-check the
sampler's scaled row blocks, a right-hand side that lets a test read
back which rows a drawn block holds, and the paper's identities computed
from a run's returned iterates and drawn blocks."""

import numpy as np
import pytest

from momsolve.sampling import parse_scheme


def dense_sketch(indices, scale, m: int) -> np.ndarray:
    """Materialize the m x q sketching matrix S = scale * I[:, J]
    (indices=None means J = all rows)."""
    if indices is None:
        return np.eye(m) * scale
    q = len(indices)
    S = np.zeros((m, q))
    scale = np.broadcast_to(np.asarray(scale, dtype=float), (q,))
    for col, (i, s) in enumerate(zip(indices, scale)):
        S[i, col] = s
    return S


def row_coded_rhs(A) -> np.ndarray:
    """b_i = (i + 1)·||A_i||, so that a block [s·A_J | −s·b_J] drawn by
    ``BlockSampler`` gives its rows J back (A must have no zero row)."""
    return (np.arange(A.rows) + 1.0) * np.sqrt(A.row_norms_sq)


def decode_block(block, A):
    """(rows J, scales s) of a dense block drawn with ``row_coded_rhs``.
    Also takes a stack of blocks, or of block rows, along leading axes."""
    row_norms = np.linalg.norm(block[..., :-1], axis=-1)
    rows = np.rint(-block[..., -1] / row_norms).astype(int) - 1
    return rows, row_norms / np.sqrt(A.row_norms_sq[rows])


def csr_rows(m, n, per_row, seed):
    """A CSR m x n matrix whose every row holds ``per_row`` distinct columns
    with standard normal values, like the benchmark's sparse file."""
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    cols = np.array([np.sort(rng.choice(n, size=per_row, replace=False)) for _ in range(m)])
    return sp.csr_matrix((rng.standard_normal(m * per_row), cols.ravel(),
                          np.arange(0, m * per_row + 1, per_row)), shape=(m, n))


def scaled_sparse(scale):
    """A 2000 x 600 CSR matrix of full rank (σ from 0.597 to 3.64) times
    ``scale``: at 1e160 the squares of its entries overflow, at 1e-170
    they underflow to 0."""
    import scipy.sparse as sp

    M = sp.random(2000, 600, density=0.004, random_state=3) + sp.eye(2000, 600)
    return M.tocsr() * scale


def spy_eigsh(monkeypatch):
    """The ``which`` of every ARPACK ``eigsh`` call made from now on."""
    import scipy.sparse.linalg

    calls, eigsh = [], scipy.sparse.linalg.eigsh
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                        lambda *a, **kw: calls.append(kw["which"]) or eigsh(*a, **kw))
    return calls


def record_draws(sampler):
    """The list that every block a run draws from ``sampler`` is appended
    to, in draw order, from now on. ``sampler.key_chunks``, the key stream
    that both step engines read, is wrapped, so a whole chunk of keys is
    appended as it is handed out: the run's draws are the first
    ``trace.sample_draws`` entries."""
    drawn, key_chunks = [], sampler.key_chunks

    def recording(rng):
        for keys in key_chunks(rng):
            drawn.extend(sampler.blocks[i][0] for i in keys.tolist())
            yield keys
    sampler.key_chunks = recording
    return drawn


def augmented_iterates(trace):
    """Rows [x^k; 1], k = 0..K, of a ``keep_iterates`` run from x^0 = 0."""
    X = np.ones((len(trace.iterates) + 1, len(trace.iterates[0]) + 1))
    X[0, :-1] = 0.0
    X[1:, :-1] = trace.iterates
    return X


def _cosine(u, v):
    return float(u @ v) / float(np.linalg.norm(u) * np.linalg.norm(v))


def step_cosines(X):
    """cos(d_k, d_{k+1}) of consecutive steps d_k = x^k − x^{k−1}, from the
    rows of ``augmented_iterates``. A heavy-ball step is such a difference,
    and each ``scg`` direction is parallel to one."""
    D = np.diff(X[:, :-1], axis=0)
    return np.array([_cosine(d, d_next) for d, d_next in zip(D, D[1:])])


def sketched_residual_cosines(blocks, X):
    """cos(S_k^T r^k, S_k^T r^{k−1}) for step k's dense drawn block
    [s·A_J | −s·b_J] = blocks[k − 1]: the sketched residual after step k
    against the one the step was taken from."""
    return np.array([_cosine(B @ X[k + 1], B @ X[k]) for k, B in enumerate(blocks)])


def materialize(spec: str, A, seed: int = 0):
    """The scheme that ``spec`` names, made for A as the CLI makes it."""
    return parse_scheme(spec).materialize(A, seed)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
