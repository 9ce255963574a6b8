"""Iterative solvers: basic/modified SGD with Polyak steps, adaptive
heavy-ball momentum, stochastic CG, CGNE, and the fixed-parameter momentum
baseline.

``basic``, ``mbasic``, ``ashbm`` and ``mrabk`` are one stochastic heavy-ball
update, x_{k+1} = x_k − alpha_k·grad f_S(x_k) + beta_k·(x_k − x_{k−1}), run
by one loop; each method supplies only its (alpha, beta) rule and how it
treats a zero sketch. That loop runs in the compiled kernel
``_heavy_ball.c`` (built by ``_native``) on dense and CSR blocks alike, and
in NumPy where the kernel could not be built; ``step_engine`` says which,
and both read one stream of draws.
``scg`` and ``cgne`` keep their own recursions: they are the references
the momentum form is checked against. A sampled step of a NumPy loop sees
its draw only through ``_Run.draw``: the key of the drawn block (see
``BlockSampler``), its sketch t and ||t||², one sketch product per draw.

All solvers start from x0 = 0 (which lies in Range(A^T)) and converge to
the min-norm solution; the relative solution error is tracked against
``system.min_norm``. Iteration records carry k starting at 1 so that the
RSE of x^k aligns with the k-th power of theoretical contraction factors.
"""

from __future__ import annotations

import ctypes
import math
import time
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _native
from .errors import (
    BreakdownError,
    DegenerateDirectionError,
    DivergedError,
    StalledSamplingError,
    UnsupportedError,
)
from .problems import LinearSystem
from .sampling import BlockSampler, PartitionBlock

__all__ = [
    "SolverConfig",
    "SolverState",
    "Trace",
    "TraceRecord",
    "ashbm_parameters",
    "solve_basic",
    "solve_modified_basic",
    "solve_ashbm",
    "solve_scg",
    "solve_cgne",
    "solve_mrabk",
    "SOLVER_IDS",
    "HEAVY_BALL_IDS",
    "step_engine",
]

# numerically-zero test for the 2x2 system determinant in the momentum
# parameter formulas, relative to ||g||^2 ||d||^2
DEGENERACY_THRESHOLD = 1e-14

# steps between exact recomputations of an updated residual: CGNE's
# recurrence residual, and the window of a carried R·[x; 1] (see ``_Window``)
RESIDUAL_WINDOW = 1000

# An RSE past 1/eps² (||x − x*|| > ||x*||/eps) is a diverged run, and
# ``record`` raises DivergedError; a run can overflow in its products before
# that. Each solver runs under this state (entered once per run, not per
# step), so numpy stays silent until then.
_DIVERGED_RSE = 2.0 ** 104
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@dataclass
class SolverConfig:
    zeta: float = 1.0
    max_iters: int = 1_000_000
    rse_tolerance: float = 1e-12
    zero_test_threshold: float | None = None
    momentum_beta: float = 0.7
    seed: int = 0
    track_residual: bool = True
    record_timing: bool = True

    def validate(self) -> None:
        if not 0.0 < self.zeta < 2.0:
            raise ValueError(f"zeta={self.zeta} outside (0, 2)")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.rse_tolerance < 0:
            raise ValueError("rse_tolerance must be >= 0")
        if self.zero_test_threshold is not None and self.zero_test_threshold <= 0:
            raise ValueError("zero_test_threshold must be > 0")
        if not 0.0 <= self.momentum_beta < 1.0:
            raise ValueError("momentum_beta must lie in [0, 1)")


@dataclass
class SolverState:
    x: np.ndarray
    r: np.ndarray
    k: int


class TraceRecord(NamedTuple):
    k: int
    rse: float
    residual_norm: float
    alpha: float
    beta: float
    wall_nanos: int
    moved: bool


@dataclass
class Trace:
    k: np.ndarray
    rse: np.ndarray
    residual_norm: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    wall_nanos: np.ndarray
    moved: np.ndarray
    converged: bool = False
    reason: str = ""
    fallback_steps: int = 0
    sample_draws: int = 0
    iterates: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.k)

    @property
    def iterations(self) -> int:
        return int(self.k[-1]) if len(self.k) else 0

    @property
    def final_rse(self) -> float:
        return float(self.rse[-1]) if len(self.rse) else 0.0

    def rows(self):
        """The rows as Python scalars in ``TraceRecord`` order, ``moved`` 0 or 1."""
        return zip(self.k.tolist(), self.rse.tolist(), self.residual_norm.tolist(),
                   self.alpha.tolist(), self.beta.tolist(), self.wall_nanos.tolist(),
                   self.moved.astype(np.int64).tolist())

    def records(self):
        return [TraceRecord(*row[:-1], bool(row[-1])) for row in self.rows()]


def ashbm_parameters(dn2: float, gd: float, gn2: float, s: float) -> tuple[float, float]:
    """Closed-form momentum parameters minimizing the error over the plane
    spanned by the sampled gradient g and the previous step d.

    Takes the entries ||d||^2, d.g and ||g||^2 of the Gram matrix of
    [d; g], and s = ||S^T r||^2. Raises DegenerateDirectionError when g
    and d are numerically dependent.
    """
    det = gn2 * dn2 - gd * gd
    if det <= DEGENERACY_THRESHOLD * gn2 * dn2:
        raise DegenerateDirectionError("gradient and momentum direction are parallel")
    return dn2 * s / det, gd * s / det


# ---------------------------------------------------------------------------
# Shared run machinery
# ---------------------------------------------------------------------------

class _State:
    """One buffer of the working rows W = [xa; err; d; g] of a run.

    xa = [x; 1] is the augmented iterate, err = [x − min_norm; 0], d the
    last step and g the sampled gradient; the last three end in 0. A block
    solver step is one small product written into the other buffer:
    ``[x'; err'; d'] = C·[x; err; d; g]`` with ``d' = beta d − alpha g``,
    so the iterate, the error and the step are updated together.
    """

    __slots__ = ("W", "xa", "err", "d", "g", "head", "dg", "dg_t")

    def __init__(self, W):
        self.W = W
        self.xa, self.err, self.d, self.g = W
        self.head = W[:3]
        self.dg = W[2:]
        self.dg_t = self.dg.T


# steps that a window runs per pass through its step buffer, which stays
# small enough to be read back from cache for the norms
_PASS = 50


class _Window:
    """The carried residual R·xa of a run, advanced one window of steps at
    a time; R is the system's ``residual_factor``, so ||R·xa|| = ||Ax − b||.

    A step only logs ``(key, t, c, e, w)`` with ``log``: the key of its
    drawn block (see ``BlockSampler``), its sketch t, and its 2×3 step
    ``[[1, w·c, w·e], [0, c, e]]`` on ``[R·xa; R·d; u]`` with u = K_J·t =
    R·g, so that R·d becomes c·R·d + e·u and R·xa gains w times the new R·d;
    a step that leaves x and d where they are is (c, e, w) = (1, 0, 0).
    ``flush`` forms the u of each partition block drawn in the window with
    one product, plain for a block drawn once, then runs the steps
    ``_PASS`` at a time and appends the norms of R·xa to the trace column
    ``col``. A ``uniform:<p>`` key is a fresh set of rows, so its u is
    formed in the pass, from one gather of p rows at a time.

    The log is a window's worth of arrays: ``keys`` (a partition's block
    index per step, or the p rows of a ``uniform:<p>`` step, a row of a
    (RESIDUAL_WINDOW, p) array), the sketches one after another in ``ts``,
    and (c, e, w) in ``cew``, filled to ``fill`` = (steps, sketch entries);
    the compiled loop writes them as ``log`` does.

    Y holds a pass's rows [R·xa; R·d; u] step after step: rows 3i..3i+2 for
    step i, whose product fills rows 3i+3 and 3i+4. Every buffer is made
    once per run.
    """

    __slots__ = ("R", "Y", "C", "U", "T", "G", "B", "sizes", "maps", "steps", "keys", "ts", "cew",
                 "fill", "col")

    def __init__(self, sampler, R, col):
        self.R = R
        q = R.shape[0]
        self.Y = Y = np.zeros((3 * _PASS + 2, q))
        Y[0] = R[:, -1]  # R·[x0; 1] with x0 = 0, and R·d0 = 0
        self.C = C = np.zeros((_PASS, 2, 3))
        C[:, 0, 0] = 1.0
        self.steps = [(C[i], Y[3 * i:3 * i + 3], Y[3 * i + 3:3 * i + 5]) for i in range(_PASS)]
        self.maps = sampler.residual_maps
        # a window's sketches and products, block by block; or the
        # gathered rows of one uniform:<p> key
        p, partition = sampler.scheme.p, sampler.offsets is not None
        self.U = np.empty((RESIDUAL_WINDOW, q)) if partition else None
        self.T = np.empty(RESIDUAL_WINDOW * p) if partition else None
        self.B = np.empty((_PASS, q)) if partition else None
        self.sizes = np.diff(sampler.offsets) if partition else None
        self.G = None if partition else np.empty((p, q))
        self.keys = np.empty(RESIDUAL_WINDOW if partition else (RESIDUAL_WINDOW, p),
                             dtype=np.int64)
        self.ts = np.empty(RESIDUAL_WINDOW * p)
        self.cew = np.empty((3, RESIDUAL_WINDOW))
        self.fill = np.zeros(2, dtype=np.int64)
        self.col = col

    def log(self, entry) -> None:
        # a method, not a bound method kept on self: that would be a cycle,
        # and hold every run's buffers until the cyclic collector ran
        key, t, c, e, w = entry
        i, a = self.fill.tolist()
        self.keys[i] = key
        self.ts[a:a + len(t)] = t
        self.cew[:, i] = c, e, w
        self.fill[:] = i + 1, a + len(t)

    def flush(self, state) -> None:
        """Run the logged steps and append one norm per step; then replace
        R·xa and R·d by exact products from ``state``, which bounds the
        drift of the carried values, and the last norm by the exact one.
        The log is read in place, so a window is flushed before the next
        step is logged."""
        n, length = self.fill.tolist()
        if not n:
            return
        self.fill[:] = 0
        keys, ts, (c, e, w) = self.keys[:n], self.ts[:length], self.cew[:, :n]
        wc, we = w * c, w * e
        if self.U is None:
            ts = ts.reshape(n, -1)

            def fill(u, a, m):
                self._gathered_products(u, keys[a:a + m], ts[a:a + m])
        else:
            where, buf = self._block_products(keys, ts), self.B

            def fill(u, a, m):
                # a gather into a strided view is buffered; into B it is not
                self.U.take(where[a:a + m], axis=0, out=buf[:m], mode="clip")
                u[...] = buf[:m]
        Y, C = self.Y, self.C
        for a in range(0, n, _PASS):
            m = min(_PASS, n - a)
            fill(Y[2:3 * m:3], a, m)
            C[:m, 0, 1], C[:m, 0, 2] = wc[a:a + m], we[a:a + m]
            C[:m, 1, 1], C[:m, 1, 2] = c[a:a + m], e[a:a + m]
            for step, rows, out in self.steps[:m]:
                step.dot(rows, out=out)
            X = Y[3:3 * m + 1:3]
            self.col.frombytes(np.sqrt(np.einsum("ij,ij->i", X, X)).tobytes())
            Y[:2] = Y[3 * m:3 * m + 2]
        rx = Y[0]
        self.R.dot(state.xa, out=rx)
        self.R.dot(state.d, out=Y[1])
        self.col[-1] = math.sqrt(rx.dot(rx))

    def _block_products(self, keys, ts):
        """u = K_J·t of every step into U, one product per block drawn,
        block after block; returns the row of U that holds each step's u.
        ``ts`` holds the steps' sketches one after another."""
        n, U, maps = len(keys), self.U, self.maps
        order = np.argsort(keys, kind="stable")
        where = np.empty(n, dtype=np.intp)
        where[order] = np.arange(n)
        # the sketches, block after block
        sizes = self.sizes[keys]
        starts, sizes = (np.cumsum(sizes) - sizes)[order], sizes[order]
        T = self.T[:len(ts)]
        np.take(ts, np.arange(len(ts)) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes),
                out=T)
        keys = keys[order]
        cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
        start = 0
        for a, b in zip([0, *cuts], [*cuts, n]):
            K = maps[keys[a]]
            rows = T[start:start + (b - a) * len(K)]
            start += len(rows)
            if b - a == 1:
                rows.dot(K, out=U[a])
            else:  # as U^T = K_J·T^T, the faster order when K_J is not in cache
                np.matmul(K.T, rows.reshape(b - a, len(K)).T, out=U[a:b].T)
        return where

    def _gathered_products(self, u, keys, ts):
        """u = K_J·t of ``uniform:<p>`` steps, whose keys are their rows J
        and ``ts`` their sketches, a row each."""
        for ui, rows, t in zip(u, keys, ts):
            t.dot(self.maps.take(rows, axis=0, out=self.G, mode="clip"), out=ui)


class _SparseResidual:
    """The carried r = Ax − b of a tracked CSR run in the compiled loop,
    which advances r and A·d on every step (see ``csr_carry`` in
    ``_heavy_ball.c``); its norms go to the trace column ``col``.

    Every RESIDUAL_WINDOW steps and at the run's end, ``flush`` replaces r
    and A·d by exact products from ``state``, which bounds the drift of the
    carried values, and the last norm by the exact one. Every buffer, A by
    columns included, is made once per run."""

    __slots__ = ("A", "b", "res", "Ad", "u", "columns", "col")

    def __init__(self, system, col):
        self.A, self.b = system.A.data, system.b
        self.res, self.Ad = -system.b, np.zeros(len(system.b))  # at x0 = 0 and d0 = 0
        self.u = np.empty_like(self.res)
        self.columns = _native.Csr(self.A.tocsc())
        self.col = col

    def flush(self, state) -> None:
        n = self.A.shape[1]
        np.subtract(self.A @ state.xa[:n], self.b, out=self.res)
        self.Ad[:] = self.A @ state.d[:n]
        if self.col:
            self.col[-1] = math.sqrt(self.res.dot(self.res))


class _Run:
    """State shared by the solver loops: the run's draws, the two working
    buffers (see ``_State``), the step weights and the trace columns. The
    loops swap the buffers on every step, so the one not in use holds the
    previous iterate. A sampled run carries R·[x; 1] in a ``_Window``
    (``window``) whenever it tracks the residual and its sampler's blocks
    allow it; a tracked CSR run in the compiled loop carries Ax − b in a
    ``_SparseResidual`` there.
    """

    def __init__(self, system: LinearSystem, scheme, config: SolverConfig,
                 keep_iterates: bool):
        config.validate()
        if system.min_norm is None:
            raise ValueError("system.min_norm is required; call attach_min_norm first")
        self.system, self.A, self.b = system, system.A, system.b
        self.config = config
        self.n = n = self.A.cols
        threshold = config.zero_test_threshold
        if threshold is None:
            threshold = 1e-14 * (1.0 + float(np.linalg.norm(self.b)))
        self.threshold_sq = threshold ** 2
        self.b_inf = float(np.max(np.abs(self.b))) if len(self.b) else 0.0
        W = np.zeros((4, n + 1))
        W[0, n] = 1.0
        W[1, :n] = -system.min_norm
        self.states = (_State(W), _State(W.copy()))
        self.err0_sq = float(W[1].dot(W[1]))
        self.rse_col, self.alpha_col, self.beta_col = array("d"), array("d"), array("d")
        self.resnorm_col, self.wall_col = array("d"), array("q")
        self.window = self.sampler = None
        if scheme is not None:
            self.sampler = sampler = BlockSampler.bind(scheme, system)
            self.rng = rng = np.random.default_rng(config.seed)
            # a draw's block is read before the next draw
            self.next_block = sampler.draws(rng, reuse=True).__next__
            self.attempts = sampler.attempts
            if config.track_residual and sampler.can_carry:
                self.window = _Window(sampler, system.residual_factor, self.resnorm_col)
        # step weights C: columns 2 and 3 take beta and -alpha
        self.C = np.zeros((3, 4))
        self.C[0, 0] = self.C[1, 1] = 1.0
        self.timing = config.record_timing
        self.clock = time.perf_counter_ns if self.timing else lambda: 0
        self.unmoved = []
        self.iterates = [] if keep_iterates else None
        self.draws = 0
        self.fallbacks = 0

    # -- draws -----------------------------------------------------------

    def draw(self, xa, g, resample=True):
        """Draw once, or with ``resample`` until ||S^T (Ax − b)|| passes the
        zero test; write the pullback [A^T S t; 0] into g and return (key, t,
        ||t||^2), t = S^T (Ax − b), with one product with the block, which
        stays here. None when the cap is reached on a solved residual."""
        for _ in self.attempts:  # never empty
            fwd, bwd, key = self.next_block()
            self.draws += 1
            t = fwd.dot(xa)
            tn2 = float(t.dot(t))
            if tn2 > self.threshold_sq or not resample:
                bwd.dot(t, out=g)
                g[-1] = 0.0
                return key, t, tn2
        return self.capped(xa)

    def capped(self, xa):
        """None when a rejection loop that reached the cap at xa stopped on a
        solved residual; else raises StalledSamplingError."""
        if self.solved(self.A.matvec(xa[:self.n]) - self.b):
            return None
        raise StalledSamplingError(
            f"{len(self.attempts)} consecutive zero sketches with residual above tolerance"
        )

    # -- bookkeeping -----------------------------------------------------

    def solved(self, r) -> bool:
        """The run's one test that the residual r = Ax − b counts as zero:
        max|r| <= tol·(1 + max|b|)."""
        return float(np.max(np.abs(r))) <= self.config.rse_tolerance * (1.0 + self.b_inf)

    def residual_norm(self, xa) -> float:
        """||Ax − b|| for the trace when the run does not carry it. A
        sparse A keeps its O(nnz) product; a dense A costs one product with
        R, (n+1)² instead of m·n for a tall A."""
        if self.A.is_sparse:
            return float(np.linalg.norm(self.A.matvec(xa[:self.n]) - self.b))
        r = self.system.residual_factor.dot(xa)
        return math.sqrt(r.dot(r))

    def record(self, state: _State, alpha, beta, t0, moved=True, resnorm=None) -> float:
        """Append one iteration to the trace; returns its RSE. The step's
        wall time, counted from ``t0``, excludes this bookkeeping and the
        work of a carried residual's window, which ends here every
        RESIDUAL_WINDOW steps.

        Raises DivergedError when the RSE passes _DIVERGED_RSE or is NaN."""
        if self.timing:
            self.wall_col.append(self.clock() - t0)
        err = state.err
        rse = float(err.dot(err)) / self.err0_sq
        if not rse <= _DIVERGED_RSE:
            raise DivergedError(f"RSE {rse} at step {len(self.rse_col) + 1}")
        if resnorm is not None:
            self.resnorm_col.append(resnorm)
        elif self.window is not None:
            if (len(self.rse_col) + 1) % RESIDUAL_WINDOW == 0:
                self.window.flush(state)
        elif self.config.track_residual:
            self.resnorm_col.append(self.residual_norm(state.xa))
        self.rse_col.append(rse)
        self.alpha_col.append(alpha)
        self.beta_col.append(beta)
        if not moved:
            self.unmoved.append(len(self.rse_col) - 1)
        if self.iterates is not None:
            self.iterates.append(state.xa[:self.n].copy())
        return rse

    def finish(self, state: _State, reason) -> tuple[SolverState, Trace]:
        """The final state and trace; converged unless ``reason`` is "max_iters".
        A carried residual ends its last window here, on the exact norm."""
        if self.window is not None:
            self.window.flush(state)
        n, k = self.n, len(self.rse_col)
        x = state.xa[:n].copy()
        final = SolverState(x=x, r=self.A.matvec(x) - self.b, k=k)
        moved = np.ones(k, dtype=bool)
        moved[self.unmoved] = False
        trace = Trace(
            k=np.arange(1, k + 1, dtype=np.int64),
            rse=np.array(self.rse_col, dtype=np.float64),
            residual_norm=(np.array(self.resnorm_col, dtype=np.float64)
                           if self.resnorm_col else np.full(k, np.nan)),
            alpha=np.array(self.alpha_col, dtype=np.float64),
            beta=np.array(self.beta_col, dtype=np.float64),
            wall_nanos=(np.array(self.wall_col, dtype=np.int64)
                        if self.wall_col else np.zeros(k, dtype=np.int64)),
            moved=moved,
            converged=reason != "max_iters",
            reason=reason,
            fallback_steps=self.fallbacks,
            sample_draws=self.draws,
            iterates=self.iterates if self.iterates is not None else [],
        )
        return final, trace

    def already_solved(self):
        """The trivial run when x0 = 0 is already the min-norm solution."""
        return self.finish(self.states[0], "already_solved")


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

@_quiet_overflow
def _heavy_ball(system: LinearSystem, scheme, config: SolverConfig,
                keep_iterates: bool, draw_mode: str, rule: str, fixed_step=None):
    """The heavy-ball loop shared by basic, mbasic, ashbm and mrabk.

    ``draw_mode`` says what a zero sketch does: ``"resample"`` draws again
    (mbasic, ashbm), ``"skip"`` records it as an unmoved step (basic) and
    ``"plain"`` steps on it (mrabk). ``rule`` names the step rule in
    ``_RULES``, ``(k, ||t||^2, state) -> (alpha, beta)``; the state's g
    holds the sampled gradient and its d the previous step. ``"fixed"``
    steps with the (alpha, beta) that ``fixed_step()`` returns.

    When the run carries its residual, each step logs its block's key, t,
    beta and −alpha to the run's window (see ``_Window``); W and its
    arithmetic are the same either way, so tracking never changes the
    trajectory. The steps run in the compiled kernel (see ``_native_loop``)
    unless it could not be built.
    """
    run = _Run(system, scheme, config, keep_iterates)
    if run.err0_sq == 0.0:
        return run.already_solved()
    fixed = fixed_step() if rule == "fixed" else (0.0, 0.0)
    if _KERNEL is not None:
        return _native_loop(run, draw_mode, rule, fixed)
    draw, resample = run.draw, draw_mode == "resample"
    # a sketch at or below this counts as zero and leaves x unmoved
    skip_below = run.threshold_sq if draw_mode == "skip" else -1.0
    rule = _RULES[rule](run, fixed)
    tol, clock, C = config.rse_tolerance, run.clock, run.C
    beta_col, minus_alpha = C[:, 2], C[:, 3]
    log = run.window.log if run.window is not None else None
    cur, nxt = run.states
    for k in range(1, config.max_iters + 1):
        t0 = clock()
        drawn = draw(cur.xa, cur.g, resample)
        if drawn is None:
            return run.finish(cur, "residual")
        key, t, tn2 = drawn
        if tn2 <= skip_below:
            if log is not None:
                log((key, t, 1.0, 0.0, 0.0))
            if run.record(cur, 0.0, 0.0, t0, moved=False) <= tol:
                return run.finish(cur, "rse")
            continue
        alpha, beta = rule(k, tn2, cur)
        minus_alpha.fill(-alpha)
        beta_col.fill(beta)
        C.dot(cur.W, out=nxt.head)
        if log is not None:
            log((key, t, beta, -alpha, 1.0))
        cur, nxt = nxt, cur
        if run.record(cur, alpha, beta, t0) <= tol:
            return run.finish(cur, "rse")
    return run.finish(cur, "max_iters")


def _polyak_rule(run, fixed):
    """alpha = (2 − zeta)·||t||^2 / ||g||^2 and beta = 0."""
    w = 2.0 - run.config.zeta
    return lambda k, tn2, cur: (w * tn2 / float(cur.g.dot(cur.g)), 0.0)


def _ashbm_rule(run, fixed):
    """A Polyak step first, then the closed-form (alpha, beta)."""
    def rule(k, tn2, cur):
        if k == 1:
            # the first step is one modified-basic step with zeta = 1
            return tn2 / float(cur.g.dot(cur.g)), 0.0
        # one product gives ||d||^2, d.g and ||g||^2
        (dn2, gd), (_, gn2) = cur.dg.dot(cur.dg_t).tolist()
        try:
            return ashbm_parameters(dn2, gd, gn2, tn2)
        except DegenerateDirectionError:
            # fall back to the alpha-only minimizer (one zeta=1 basic step)
            run.fallbacks += 1
            return tn2 / gn2, 0.0
    return rule


_RULES = {"polyak": _polyak_rule, "ashbm": _ashbm_rule, "fixed": lambda run, fixed: (
    lambda k, tn2, cur: fixed)}


# ---------------------------------------------------------------------------
# The compiled kernel
# ---------------------------------------------------------------------------

_KERNEL, _KERNEL_FAILURE = _native.load()
# the kernel's codes for a draw mode, a rule, and how a call ended
_MODES = {"resample": 0, "skip": 1, "plain": 2}
_RULE_CODES = {"polyak": 0, "ashbm": 1, "fixed": 2}
(_NEED_KEYS, _STOP_RSE, _STOP_MAX_ITERS, _STOP_CAP, _STOP_DIVERGED, _STOP_WINDOW,
 _STOP_ZERO_DIVISION) = range(7)


def step_engine(solver: str, A) -> str:
    """The engine that runs ``solver``'s steps on A, dense or CSR, under
    any sketch family: "native", or "numpy: " and why."""
    if solver not in HEAVY_BALL_IDS:
        return f"numpy: {solver} has no compiled loop"
    return "native" if _KERNEL is not None else f"numpy: {_KERNEL_FAILURE}"


def _pointer(a) -> int:
    return a.ctypes.data if a is not None else 0


def _native_loop(run, draw_mode, rule, fixed):
    """``_heavy_ball`` in the compiled kernel, one call per chunk of the
    sampler's keys: the same draws, rules, stops and trace columns (see
    ``_heavy_ball.c``). The kernel reads a block's rows in place, through
    one list of row pointers (dense) or row ids (CSR) per run."""
    sampler, config, n = run.sampler, run.config, run.n
    sparse = run.A.is_sparse
    # the kernel reads contiguous int64 keys, float64 rows and int64 offsets
    chunks = (np.ascontiguousarray(keys, dtype=np.int64) for keys in sampler.key_chunks(run.rng))
    keys, pos = next(chunks), 0
    rows = len(keys)  # a call reads at most this many keys, and writes a row per step
    r = _native.Run()
    out = {name: np.empty(rows) for name in ("rse", "alpha", "beta")}
    out["wall"] = np.zeros(rows, dtype=np.int64)
    out["moved"] = np.empty(rows, dtype=np.int8)
    if (window := run.window) is not None:  # the kernel logs to the window's arrays
        r.log_key, r.log_t, r.log_fill = map(_pointer, (window.keys, window.ts, window.fill))
        r.log_c, r.log_e, r.log_w = map(_pointer, window.cew)
        r.window = RESIDUAL_WINDOW
    elif config.track_residual:  # a norm per step
        out["resnorm"] = np.empty(rows)
        if sparse:  # carried in the kernel, and flushed like a window
            run.window = carry = _SparseResidual(run.system, run.resnorm_col)
            r.At, r.m = ctypes.addressof(carry.columns), len(carry.res)
            r.res, r.Ad, r.u = map(_pointer, (carry.res, carry.Ad, carry.u))
            r.window = RESIDUAL_WINDOW
        else:  # from R
            R = np.ascontiguousarray(run.system.residual_factor)
            r.R, r.q = _pointer(R), R.shape[0]
    iterates = np.empty((rows, n)) if run.iterates is not None else None
    # a block has at most p rows; a partition key is one int64, a uniform key p
    p = sampler.scheme.p
    t, P, B = np.empty(p), None, None
    if sparse:  # a block's rows by their ids
        S, J = _native.Csr(sampler.rows), np.empty(p, dtype=np.int64)
        r.S, r.J = ctypes.addressof(S), _pointer(J)
    else:  # by pointers to them
        P, B = np.ascontiguousarray(sampler.rows, dtype=np.float64), np.empty(p, dtype=np.uintp)
    offsets = None
    if sampler.offsets is not None:
        offsets = np.ascontiguousarray(sampler.offsets, dtype=np.int64)
    r.P, r.offsets, r.B, r.t = _pointer(P), _pointer(offsets), _pointer(B), _pointer(t)
    r.width = 1 if offsets is not None else p
    r.W[0], r.W[1] = (_pointer(state.W) for state in run.states)
    for name, a in out.items():
        setattr(r, name, _pointer(a))
    r.iterates, r.keep = _pointer(iterates), iterates is not None
    r.n1, r.mode, r.rule = n + 1, _MODES[draw_mode], _RULE_CODES[rule]
    r.cap, r.max_iters, r.timing = len(run.attempts), config.max_iters, config.record_timing
    r.threshold_sq, r.relax, r.tol, r.err0_sq = (run.threshold_sq, 2.0 - config.zeta,
                                                 config.rse_tolerance, run.err0_sq)
    r.fixed_alpha, r.fixed_beta = fixed
    r.degeneracy, r.diverged = DEGENERACY_THRESHOLD, _DIVERGED_RSE
    while True:
        status = _KERNEL.momsolve_heavy_ball(r, keys.ctypes.data + keys.strides[0] * pos,
                                             min(len(keys) - pos, rows))
        pos += r.used
        if m := r.records:
            base = len(run.rse_col)
            run.rse_col.frombytes(out["rse"][:m].tobytes())
            run.alpha_col.frombytes(out["alpha"][:m].tobytes())
            run.beta_col.frombytes(out["beta"][:m].tobytes())
            if run.timing:
                run.wall_col.frombytes(out["wall"][:m].tobytes())
            if "resnorm" in out:
                run.resnorm_col.frombytes(out["resnorm"][:m].tobytes())
            run.unmoved.extend((np.flatnonzero(out["moved"][:m] == 0) + base).tolist())
            if iterates is not None:
                run.iterates.extend(iterates[:m])
                iterates = np.empty((rows, n))
                r.iterates = _pointer(iterates)
        run.draws, run.fallbacks = r.draws, r.fallbacks
        state = run.states[r.cur]
        if status == _NEED_KEYS:
            if pos == len(keys):
                keys, pos = next(chunks), 0
        elif status == _STOP_WINDOW:
            run.window.flush(state)
        elif status == _STOP_RSE:
            return run.finish(state, "rse")
        elif status == _STOP_MAX_ITERS:
            return run.finish(state, "max_iters")
        elif status == _STOP_CAP:
            run.capped(state.xa)  # raises unless the residual is solved
            return run.finish(state, "residual")
        elif status == _STOP_DIVERGED:
            raise DivergedError(f"RSE {r.last_rse} at step {r.k}")
        else:
            raise ZeroDivisionError("float division by zero")


def solve_basic(system: LinearSystem, scheme, config: SolverConfig,
                *, keep_iterates: bool = False):
    """Algorithm with plain sampling: a zero sketch leaves the iterate
    unchanged (moved=False) instead of resampling."""
    return _heavy_ball(system, scheme, config, keep_iterates, "skip", "polyak")


def solve_modified_basic(system: LinearSystem, scheme, config: SolverConfig,
                         *, keep_iterates: bool = False):
    """Rejection-samples until the sketched residual is nonzero, then takes
    a relaxed Polyak step; the error decreases strictly on every step."""
    return _heavy_ball(system, scheme, config, keep_iterates, "resample", "polyak")


def solve_ashbm(system: LinearSystem, scheme, config: SolverConfig,
                *, keep_iterates: bool = False):
    """Adaptive heavy-ball momentum: the first step is a Polyak step, after
    which (alpha, beta) minimize the error over the gradient/previous-step
    plane in closed form."""
    return _heavy_ball(system, scheme, config, keep_iterates, "resample", "ashbm")


@_quiet_overflow
def solve_scg(system: LinearSystem, scheme, config: SolverConfig,
              *, keep_iterates: bool = False):
    """Stochastic CG recursion; identical sample sequences make it
    iterate-for-iterate equal to the momentum form. The search direction p
    is the d row of the working buffers and each draw's pullback g their g
    row. As r' = r + delta·A·p, the paper's eta = (s' − <t', S'^T r>)/s is
    delta·<g', p>/s, so a draw makes one sketch product. A carried residual
    follows x' = x + delta·p through R·p = eta·R·p_prev − K·t of the
    previous draw: each step logs ``[[1, delta·eta, −delta], [0, eta, −1]]``
    on [R·xa; R·p_prev; K·t] (see ``_Window``)."""
    run = _Run(system, scheme, config, keep_iterates)
    if run.err0_sq == 0.0:
        return run.already_solved()
    tol, n = config.rse_tolerance, run.n
    log = run.window.log if run.window is not None else None
    cur, nxt = run.states
    drawn = run.draw(cur.xa, cur.g)
    if drawn is None:
        return run.finish(cur, "residual")
    key, t, s_cur = drawn
    eta = 0.0
    np.negative(cur.g, out=nxt.d)
    for k in range(1, config.max_iters + 1):
        t0 = run.clock()
        p = nxt.d
        pn2 = float(p.dot(p))
        if pn2 <= run.threshold_sq:
            if run.solved(run.A.matvec(cur.xa[:n]) - run.b):
                return run.finish(cur, "residual")
            raise DegenerateDirectionError("search direction vanished with large residual")
        delta = s_cur / pn2
        step = delta * p
        np.add(cur.xa, step, out=nxt.xa)
        np.add(cur.err, step, out=nxt.err)
        if log is not None:
            log((key, t, eta, -1.0, delta))
        cur, nxt = nxt, cur
        if run.record(cur, delta, 0.0, t0) <= tol:
            return run.finish(cur, "rse")
        drawn = run.draw(cur.xa, cur.g)
        if drawn is None:
            return run.finish(cur, "residual")
        key, t, s_new = drawn
        eta = delta * float(cur.g.dot(cur.d)) / s_cur
        np.multiply(cur.d, eta, out=nxt.d)
        nxt.d -= cur.g
        s_cur = s_new
    return run.finish(cur, "max_iters")


@_quiet_overflow
def solve_cgne(system: LinearSystem, config: SolverConfig, *, keep_iterates: bool = False):
    """Conjugate gradient on A A^T y = b with x = A^T y; finite termination
    on full-rank consistent systems."""
    run = _Run(system, None, config, keep_iterates)
    if run.err0_sq == 0.0:
        return run.already_solved()
    A, b = run.A, run.b
    state = run.states[0]
    x, err = state.xa[:run.n], state.err[:run.n]  # updated in place
    r = A.matvec(x) - b
    p = -A.rmatvec(r)
    rn2 = float(r @ r)
    for k in range(1, config.max_iters + 1):
        t0 = run.clock()
        pn2 = float(p @ p)
        if pn2 <= run.threshold_sq:
            if run.solved(r):
                return run.finish(state, "residual")
            raise BreakdownError("CG direction vanished with large residual")
        mu = rn2 / pn2
        x += mu * p
        err += mu * p
        r = r + mu * A.matvec(p)
        if k % RESIDUAL_WINDOW == 0:
            r = A.matvec(x) - b  # bound incremental drift
        rn2_new = float(r @ r)
        rse = run.record(state, mu, 0.0, t0, resnorm=float(np.sqrt(rn2_new)))
        if rse <= config.rse_tolerance or run.solved(r):
            return run.finish(state, "rse" if rse <= config.rse_tolerance else "residual")
        p = -A.rmatvec(r) + (rn2_new / rn2) * p
        rn2 = rn2_new
    return run.finish(state, "max_iters")


def solve_mrabk(system: LinearSystem, scheme, config: SolverConfig,
                *, keep_iterates: bool = False):
    """Fixed-parameter momentum baseline on partition sampling: constant
    step 1 / (tau ||A||_F^2) plus constant momentum beta. A bound sampler
    computes tau once for all the runs it serves."""
    sampler = BlockSampler.bind(scheme, system)
    if not isinstance(sampler.scheme, PartitionBlock):
        raise UnsupportedError(f"mrabk requires partition:<p> sampling, got {sampler.describe()!r}")

    def fixed_step():
        return 1.0 / (sampler.tau * system.A.fro_norm_sq), config.momentum_beta

    try:
        return _heavy_ball(system, sampler, config, keep_iterates, "plain", "fixed", fixed_step)
    except DivergedError as exc:
        raise DivergedError("{} under the fixed step 1/(tau ||A||_F^2) = {:.6g} and beta = "
                            "{:g}; a lower beta may converge".format(exc, *fixed_step())) from exc


SOLVER_IDS = {
    "basic": solve_basic,
    "mbasic": solve_modified_basic,
    "ashbm": solve_ashbm,
    "scg": solve_scg,
    "cgne": solve_cgne,
    "mrabk": solve_mrabk,
}
# the solvers that step in ``_heavy_ball``, and so in the kernel where
# ``step_engine`` says it runs
HEAVY_BALL_IDS = frozenset({"basic", "mbasic", "ashbm", "mrabk"})
