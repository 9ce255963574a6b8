"""Iterative solvers: basic/modified SGD with Polyak steps, adaptive
heavy-ball momentum, stochastic CG, CGNE, and the fixed-parameter momentum
baseline.

``basic``, ``mbasic``, ``ashbm`` and ``mrabk`` are one stochastic heavy-ball
update, x_{k+1} = x_k − alpha_k·grad f_S(x_k) + beta_k·(x_k − x_{k−1}), run
by one loop; each method supplies only its (alpha, beta) rule and how it
treats a zero sketch. ``scg`` and ``cgne`` keep their own recursions: they
are the references the momentum form is checked against.

All solvers start from x0 = 0 (which lies in Range(A^T)) and converge to
the min-norm solution; the relative solution error is tracked against
``system.min_norm``. Iteration records carry k starting at 1 so that the
RSE of x^k aligns with the k-th power of theoretical contraction factors.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BreakdownError,
    DegenerateDirectionError,
    DivergedError,
    StalledSamplingError,
)
from .linalg import Matrix
from .problems import LinearSystem
from .sampling import BlockSampler, PartitionBlock, lambda_max_sup

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
    "compute_tau",
    "SOLVER_IDS",
]

# numerically-zero test for the 2x2 system determinant in the momentum
# parameter formulas, relative to ||g||^2 ||d||^2
DEGENERACY_THRESHOLD = 1e-14

# steps between exact recomputations of an updated residual: CGNE's
# recurrence residual and the heavy-ball loop's carried R·[x; 1]
DRIFT_CHECK_INTERVAL = 1000

# A diverging run overflows in its products a few steps before ``record``
# sees a non-finite RSE and raises DivergedError. Each solver runs under this
# state (entered once per run, not per step), so numpy stays silent until then.
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
    diagnostics: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.k)

    @property
    def iterations(self) -> int:
        return int(self.k[-1]) if len(self.k) else 0

    @property
    def final_rse(self) -> float:
        return float(self.rse[-1]) if len(self.rse) else 0.0

    def records(self):
        return [
            TraceRecord(int(k), float(e), float(rn), float(a), float(bt), int(w), bool(mv))
            for k, e, rn, a, bt, w, mv in zip(
                self.k, self.rse, self.residual_norm, self.alpha,
                self.beta, self.wall_nanos, self.moved,
            )
        ]


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


def compute_tau(partition: PartitionBlock, A: Matrix) -> float:
    """Step-size constant for the fixed-parameter momentum baseline:
    tau = max_i ||A_Ii||_2^2 / ||A_Ii||_F^2 / ||A||_F^2."""
    return lambda_max_sup(partition, A).value / A.fro_norm_sq


# ---------------------------------------------------------------------------
# Shared run machinery
# ---------------------------------------------------------------------------

def _no_clock() -> int:
    return 0


class _State:
    """One buffer of the working rows W = [xa; err; d; g] of a run.

    xa = [x; 1] is the augmented iterate, err = [x − min_norm; 0], d the
    last step and g the sampled gradient; the last three end in 0. A block
    solver step is one small product written into the other buffer:
    ``[x'; err'; d'] = C·[x; err; d; g]`` with ``d' = beta d − alpha g``,
    so the iterate, the error and the step are updated together.

    When the run carries its residual (see ``_Run.carry_residual``), V holds
    the same rows mapped through the factor R of ``[A | −b]``, V = W·R^T,
    and the same C advances it; ``||V[0]|| = ||R·xa|| = ||Ax − b||``.
    """

    __slots__ = ("W", "xa", "err", "d", "g", "head", "dg", "dg_t", "V", "rx")

    def __init__(self, W):
        self.W = W
        self.xa, self.err, self.d, self.g = W
        self.head = W[:3]
        self.dg = W[2:]
        self.dg_t = self.dg.T
        self.V = self.rx = None

    def carry(self, R):
        self.V = self.W.dot(R.T)
        self.rx = self.V[0]


class _Run:
    """State shared by the solver loops: the bound sampler, the two
    working buffers (see ``_State``), the step weights and the trace
    columns. The loops swap the buffers on every step, so the one not in
    use holds the previous iterate.
    """

    def __init__(self, system: LinearSystem, scheme, config: SolverConfig,
                 keep_iterates: bool, diagnostics: bool, carry_residual: bool = False):
        config.validate()
        if system.min_norm is None:
            raise ValueError("system.min_norm is required; call attach_min_norm first")
        self.A, self.b = system.A, system.b
        self.config = config
        self.n = n = self.A.cols
        self.res_factor = self.res_buf = None
        R = (self.residual_factor()
             if carry_residual and config.track_residual and not self.A.is_sparse else None)
        self.sampler = (
            BlockSampler(scheme, self.A, self.b, np.random.default_rng(config.seed), R)
            if scheme is not None else None
        )
        b_norm = float(np.linalg.norm(self.b))
        self.threshold_sq = (
            config.zero_test_threshold
            if config.zero_test_threshold is not None
            else 1e-14 * (1.0 + b_norm)
        ) ** 2
        self.b_inf = float(np.max(np.abs(self.b))) if len(self.b) else 0.0
        self.cap = 100 * (self.sampler.support_size if self.sampler else 1)
        # the identity scheme has one sample, so a rejection cannot help
        self.attempts = range(1 if self.sampler and self.sampler.deterministic else self.cap)
        W = np.zeros((4, n + 1))
        W[0, n] = 1.0
        W[1, :n] = -system.min_norm
        self.states = (_State(W), _State(W.copy()))
        self.err0_sq = float(W[1].dot(W[1]))
        # the loop that asked to carry R·xa does so when the blocks allow it
        self.carry_residual = self.sampler is not None and self.sampler.carries_residual
        if self.carry_residual:
            for state in self.states:
                state.carry(R)
        # step weights C: columns 2 and 3 take beta and -alpha
        self.C = np.zeros((3, 4))
        self.C[0, 0] = self.C[1, 1] = 1.0
        self.timing = config.record_timing
        self.clock = time.perf_counter_ns if self.timing else _no_clock
        self.rse_col, self.alpha_col, self.beta_col = array("d"), array("d"), array("d")
        self.resnorm_col, self.wall_col = array("d"), array("q")
        self.unmoved = []
        self.iterates = [] if keep_iterates else None
        self.diag = {} if diagnostics else None
        self.draws = 0
        self.fallbacks = 0

    # -- draws -----------------------------------------------------------

    def draw_once(self, xa):
        """One draw; returns (block, block^T, K, t, ||t||^2) with
        t = S^T (Ax − b) and K the block's residual map (see BlockSampler)."""
        fwd, bwd, K = self.sampler.draw()
        self.draws += 1
        t = fwd.dot(xa)
        return fwd, bwd, K, t, float(t.dot(t))

    def draw_nonzero(self, xa):
        """Rejection-sample until ||S^T (Ax − b)|| is above the zero test.

        Returns (block, block^T, K, t, ||t||^2) or None when the cap was
        reached with a residual already below tolerance (i.e. solved).
        """
        thr2, draw = self.threshold_sq, self.sampler.draw
        for _ in self.attempts:
            fwd, bwd, K = draw()
            self.draws += 1
            t = fwd.dot(xa)
            tn2 = float(t.dot(t))
            if tn2 > thr2:
                return fwd, bwd, K, t, tn2
        r = self.A.matvec(xa[:self.n]) - self.b
        if float(np.max(np.abs(r))) <= self.config.rse_tolerance * (1.0 + self.b_inf):
            return None
        raise StalledSamplingError(
            f"{self.cap} consecutive zero sketches with residual above tolerance"
        )

    # -- bookkeeping -----------------------------------------------------

    def residual_norm(self, xa) -> float:
        """||Ax − b|| from the full product with A."""
        r = self.A.matvec(xa[:self.n]) - self.b
        return float(np.linalg.norm(r))

    def residual_factor(self) -> np.ndarray:
        """R of the QR factorisation [A | −b] = Q·R of a dense A, so that
        ||Ax − b|| = ||R·xa|| for any rank. R has n + 1 columns and
        min(m, n + 1) rows. It is factored on the first call, so runs that
        record their own residual (cgne) never pay for it."""
        if self.res_factor is None:
            self.res_factor = np.linalg.qr(
                np.hstack([self.A._dense, -self.b.reshape(-1, 1)]), mode="r")
            self.res_buf = np.empty(len(self.res_factor))
        return self.res_factor

    def tracked_residual_norm(self, xa) -> float:
        """||Ax − b|| for the trace when the run does not carry it. A
        sparse A keeps its O(nnz) product; a dense A costs one product with
        R, (n+1)² instead of m·n for a tall A."""
        if self.A.is_sparse:
            return self.residual_norm(xa)
        r = self.residual_factor().dot(xa, out=self.res_buf)
        return math.sqrt(r.dot(r))

    def refresh_residual(self, state: _State) -> None:
        """Replace the carried R·xa and R·d by exact products, which bounds
        the drift of the updated values."""
        R = self.res_factor
        R.dot(state.xa, out=state.V[0])
        R.dot(state.d, out=state.V[2])

    def record(self, state: _State, alpha, beta, t0, moved=True, resnorm=None) -> float:
        """Append one iteration to the trace; returns its RSE. The step's
        wall time, counted from ``t0``, excludes this bookkeeping.

        Raises DivergedError when the RSE is no longer finite."""
        if self.timing:
            self.wall_col.append(self.clock() - t0)
        err = state.err
        rse = float(err.dot(err)) / self.err0_sq
        if not rse < math.inf:
            raise DivergedError(f"RSE {rse} at step {len(self.rse_col) + 1}")
        self.rse_col.append(rse)
        self.alpha_col.append(alpha)
        self.beta_col.append(beta)
        if resnorm is not None:
            self.resnorm_col.append(resnorm)
        elif self.config.track_residual:
            rx = state.rx
            self.resnorm_col.append(math.sqrt(rx.dot(rx)) if rx is not None
                                    else self.tracked_residual_norm(state.xa))
        if not moved:
            self.unmoved.append(len(self.rse_col) - 1)
        if self.iterates is not None:
            self.iterates.append(state.xa[:self.n].copy())
        return rse

    def add_diag(self, key, value):
        if self.diag is not None:
            self.diag.setdefault(key, []).append(value)

    def finish(self, xa, converged, reason) -> tuple[SolverState, Trace]:
        n, k = self.n, len(self.rse_col)
        x = xa[:n].copy()
        state = SolverState(x=x, r=self.A.matvec(x) - self.b, k=k)
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
            converged=converged,
            reason=reason,
            fallback_steps=self.fallbacks,
            sample_draws=self.draws,
            iterates=self.iterates if self.iterates is not None else [],
            diagnostics=({key: np.array(v) for key, v in self.diag.items()}
                         if self.diag is not None else {}),
        )
        return state, trace

    def already_solved(self):
        """The trivial run when x0 = 0 is already the min-norm solution."""
        return self.finish(self.states[0].xa, True, "already_solved")


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

@_quiet_overflow
def _heavy_ball(system: LinearSystem, scheme, config: SolverConfig, keep_iterates: bool,
                diagnostics: bool, draw_mode: str, rule_for, observer_for=None):
    """The heavy-ball loop shared by basic, mbasic, ashbm and mrabk.

    ``draw_mode`` says what a zero sketch does: ``"resample"`` draws again
    (mbasic, ashbm), ``"skip"`` records it as an unmoved step (basic) and
    ``"plain"`` steps on it (mrabk). ``rule_for(run)`` returns the step
    rule ``(k, ||t||^2, state) -> (alpha, beta)``; the state's g holds the
    sampled gradient and its d the previous step. ``observer_for(run)``, if
    given, returns a diagnostics hook called after every step.

    When the run carries its residual, ``R·g = K·t`` and the step's C
    advance V = W·R^T next to W; W and its arithmetic are the same either
    way, so tracking never changes the trajectory.
    """
    run = _Run(system, scheme, config, keep_iterates, diagnostics, carry_residual=True)
    if run.err0_sq == 0.0:
        return run.already_solved()
    draw = run.draw_nonzero if draw_mode == "resample" else run.draw_once
    # a sketch at or below this counts as zero and leaves x unmoved
    skip_below = run.threshold_sq if draw_mode == "skip" else -1.0
    rule = rule_for(run)
    observe = observer_for(run) if observer_for is not None and run.diag is not None else None
    tol, n, clock, C = config.rse_tolerance, run.n, run.clock, run.C
    beta_col, minus_alpha = C[:, 2], C[:, 3]
    carry = run.carry_residual
    cur, nxt = run.states
    for k in range(1, config.max_iters + 1):
        t0 = clock()
        drawn = draw(cur.xa)
        if drawn is None:
            return run.finish(cur.xa, True, "residual")
        fwd, bwd, K, t, tn2 = drawn
        if tn2 <= skip_below:
            if run.record(cur, 0.0, 0.0, t0, moved=False) <= tol:
                return run.finish(cur.xa, True, "rse")
            continue
        g = bwd.dot(t, out=cur.g)
        g[n] = 0.0
        alpha, beta = rule(k, tn2, cur)
        minus_alpha.fill(-alpha)
        beta_col.fill(beta)
        C.dot(cur.W, out=nxt.head)
        if carry:
            K.dot(t, out=cur.V[3])
            C.dot(cur.V, out=nxt.V[:3])
            if k % DRIFT_CHECK_INTERVAL == 0:
                run.refresh_residual(nxt)
        cur, nxt = nxt, cur
        if observe is not None:
            observe(k, cur, nxt, fwd, t, tn2)
        if run.record(cur, alpha, beta, t0) <= tol:
            return run.finish(cur.xa, True, "rse")
    return run.finish(cur.xa, False, "max_iters")


def _polyak_rule(run):
    """alpha = (2 − zeta)·||t||^2 / ||g||^2 and beta = 0."""
    w = 2.0 - run.config.zeta
    return lambda k, tn2, cur: (w * tn2 / float(cur.g.dot(cur.g)), 0.0)


def _ashbm_rule(run):
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


def _ashbm_observer(run):
    """Records the Pythagorean and orthogonality identities of each step
    after the first. ``prev`` still holds the step's err, d and g."""
    add = run.add_diag

    def observe(k, cur, prev, fwd, t, tn2):
        if k == 1:
            return
        gn2 = prev.dg.dot(prev.dg_t)[1, 1]
        add("pythagorean_rhs", float(np.linalg.norm(prev.err - (tn2 / gn2) * prev.g)))
        add("pythagorean_lhs", float(np.linalg.norm(cur.err)))
        denom = float(np.linalg.norm(cur.d) * np.linalg.norm(prev.d))
        add("step_orth", float(cur.d.dot(prev.d)) / denom if denom else 0.0)
        t_next = fwd.dot(cur.xa)
        dn = float(np.linalg.norm(t_next) * np.sqrt(tn2))
        add("sketch_resid_orth", float(t_next.dot(t)) / dn if dn else 0.0)
    return observe


def solve_basic(system: LinearSystem, scheme, config: SolverConfig,
                *, keep_iterates: bool = False, diagnostics: bool = False):
    """Algorithm with plain sampling: a zero sketch leaves the iterate
    unchanged (moved=False) instead of resampling."""
    return _heavy_ball(system, scheme, config, keep_iterates, diagnostics,
                       "skip", _polyak_rule)


def solve_modified_basic(system: LinearSystem, scheme, config: SolverConfig,
                         *, keep_iterates: bool = False, diagnostics: bool = False):
    """Rejection-samples until the sketched residual is nonzero, then takes
    a relaxed Polyak step; the error decreases strictly on every step."""
    return _heavy_ball(system, scheme, config, keep_iterates, diagnostics,
                       "resample", _polyak_rule)


def solve_ashbm(system: LinearSystem, scheme, config: SolverConfig,
                *, keep_iterates: bool = False, diagnostics: bool = False):
    """Adaptive heavy-ball momentum: the first step is a Polyak step, after
    which (alpha, beta) minimize the error over the gradient/previous-step
    plane in closed form."""
    return _heavy_ball(system, scheme, config, keep_iterates, diagnostics,
                       "resample", _ashbm_rule, _ashbm_observer)


@_quiet_overflow
def solve_scg(system: LinearSystem, scheme, config: SolverConfig,
              *, keep_iterates: bool = False, diagnostics: bool = False):
    """Stochastic CG recursion; identical sample sequences make it
    iterate-for-iterate equal to the momentum form."""
    run = _Run(system, scheme, config, keep_iterates, diagnostics)
    if run.err0_sq == 0.0:
        return run.already_solved()
    tol, n = config.rse_tolerance, run.n
    cur, nxt = run.states

    drawn = run.draw_nonzero(cur.xa)
    if drawn is None:
        return run.finish(cur.xa, True, "residual")
    fwd, bwd, _, t, s_cur = drawn
    g = bwd.dot(t)
    g[n] = 0.0
    p = -g

    for k in range(1, config.max_iters + 1):
        t0 = run.clock()
        pn2 = float(p.dot(p))
        if pn2 <= run.threshold_sq:
            if run.residual_norm(cur.xa) <= tol * (1.0 + run.b_inf):
                return run.finish(cur.xa, True, "residual")
            raise DegenerateDirectionError("search direction vanished with large residual")
        delta = s_cur / pn2
        step = delta * p
        np.add(cur.xa, step, out=nxt.xa)
        np.add(cur.err, step, out=nxt.err)
        cur, nxt = nxt, cur
        rse = run.record(cur, delta, 0.0, t0)
        if run.diag is not None:
            t_next_same = fwd.dot(cur.xa)  # S_k^T r^{k+1}
            dn = float(np.linalg.norm(t_next_same) * np.sqrt(s_cur))
            run.add_diag("sketch_resid_orth", float(t_next_same.dot(t)) / dn if dn else 0.0)
        if rse <= tol:
            return run.finish(cur.xa, True, "rse")
        drawn = run.draw_nonzero(cur.xa)
        if drawn is None:
            return run.finish(cur.xa, True, "residual")
        fwd_next, bwd_next, _, t_new, s_new = drawn
        t_old = fwd_next.dot(nxt.xa)  # S_{k+1}^T r^k
        eta = (s_new - float(t_new.dot(t_old))) / s_cur
        g = bwd_next.dot(t_new)
        g[n] = 0.0
        p_new = eta * p - g
        if run.diag is not None:
            dn = float(np.linalg.norm(p) * np.linalg.norm(p_new))
            run.add_diag("direction_orth", float(p.dot(p_new)) / dn if dn else 0.0)
        p = p_new
        fwd, t, s_cur = fwd_next, t_new, s_new
    return run.finish(cur.xa, False, "max_iters")


@_quiet_overflow
def solve_cgne(system: LinearSystem, config: SolverConfig,
               *, keep_iterates: bool = False, diagnostics: bool = False):
    """Conjugate gradient on A A^T y = b with x = A^T y; finite termination
    on full-rank consistent systems."""
    run = _Run(system, None, config, keep_iterates, diagnostics)
    if run.err0_sq == 0.0:
        return run.already_solved()
    cfg = config
    A, b = run.A, run.b
    state = run.states[0]
    x, err = state.xa[:run.n], state.err[:run.n]  # updated in place
    r = A.matvec(x) - b
    p = -A.rmatvec(r)
    rn2 = float(r @ r)
    res_tol = cfg.rse_tolerance * (1.0 + run.b_inf)
    for k in range(1, cfg.max_iters + 1):
        t0 = run.clock()
        pn2 = float(p @ p)
        if pn2 <= run.threshold_sq:
            if np.sqrt(rn2) <= res_tol or float(np.max(np.abs(r))) <= res_tol:
                return run.finish(x, True, "residual")
            raise BreakdownError("CG direction vanished with large residual")
        mu = rn2 / pn2
        x += mu * p
        err += mu * p
        r = r + mu * A.matvec(p)
        if k % DRIFT_CHECK_INTERVAL == 0:
            r = A.matvec(x) - b  # bound incremental drift
        rn2_new = float(r @ r)
        rse = run.record(state, mu, 0.0, t0, resnorm=float(np.sqrt(rn2_new)))
        if rse <= cfg.rse_tolerance or float(np.max(np.abs(r))) <= res_tol:
            return run.finish(x, True, "rse" if rse <= cfg.rse_tolerance else "residual")
        tau = rn2_new / rn2
        if run.diag is not None:
            p_new = -A.rmatvec(r) + tau * p
            dn = float(np.linalg.norm(p) * np.linalg.norm(p_new))
            run.add_diag("direction_orth", float(p @ p_new) / dn if dn else 0.0)
            p = p_new
        else:
            p = -A.rmatvec(r) + tau * p
        rn2 = rn2_new
    return run.finish(x, False, "max_iters")


def solve_mrabk(system: LinearSystem, scheme: PartitionBlock, config: SolverConfig,
                *, keep_iterates: bool = False, diagnostics: bool = False):
    """Fixed-parameter momentum baseline on partition sampling: constant
    step 1 / (tau ||A||_F^2) plus constant momentum beta."""
    if not isinstance(scheme, PartitionBlock):
        raise TypeError("the fixed-parameter baseline requires partition sampling")

    def fixed_rule(run):
        step = (1.0 / (compute_tau(scheme, run.A) * run.A.fro_norm_sq), config.momentum_beta)
        return lambda k, tn2, cur: step

    return _heavy_ball(system, scheme, config, keep_iterates, diagnostics,
                       "plain", fixed_rule)


SOLVER_IDS = {
    "basic": solve_basic,
    "mbasic": solve_modified_basic,
    "ashbm": solve_ashbm,
    "scg": solve_scg,
    "cgne": solve_cgne,
    "mrabk": solve_mrabk,
}
