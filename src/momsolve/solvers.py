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
]

# numerically-zero test for the 2x2 system determinant in the momentum
# parameter formulas, relative to ||g||^2 ||d||^2
DEGENERACY_THRESHOLD = 1e-14

# steps between exact recomputations of an updated residual: CGNE's
# recurrence residual and the carried R·[x; 1] of the heavy-ball loop and SCG
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

def _no_clock() -> int:
    return 0


class _State:
    """One buffer of the working rows W = [xa; err; d; g] of a run.

    xa = [x; 1] is the augmented iterate, err = [x − min_norm; 0], d the
    last step and g the sampled gradient; the last three end in 0. A block
    solver step is one small product written into the other buffer:
    ``[x'; err'; d'] = C·[x; err; d; g]`` with ``d' = beta d − alpha g``,
    so the iterate, the error and the step are updated together.

    When the run carries its residual (see ``_Run``), V holds
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
    """State shared by the solver loops: the run's draws, the two working
    buffers (see ``_State``), the step weights and the trace columns. The
    loops swap the buffers on every step, so the one not in use holds the
    previous iterate. A sampled run carries R·[x; 1] (``carry_residual``)
    whenever it tracks the residual and its sampler's blocks allow it.
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
        self.carry_residual = False
        if scheme is not None:
            sampler = BlockSampler.bind(scheme, system)
            self.carry_residual = config.track_residual and sampler.can_carry
            rng = np.random.default_rng(config.seed)
            self.next_block = sampler.draws(rng, self.carry_residual).__next__
            self.attempts = sampler.attempts
        if self.carry_residual:
            for state in self.states:
                state.carry(system.residual_factor)
        # step weights C: columns 2 and 3 take beta and -alpha
        self.C = np.zeros((3, 4))
        self.C[0, 0] = self.C[1, 1] = 1.0
        self.timing = config.record_timing
        self.clock = time.perf_counter_ns if self.timing else _no_clock
        self.rse_col, self.alpha_col, self.beta_col = array("d"), array("d"), array("d")
        self.resnorm_col, self.wall_col = array("d"), array("q")
        self.unmoved = []
        self.iterates = [] if keep_iterates else None
        self.draws = 0
        self.fallbacks = 0

    # -- draws -----------------------------------------------------------

    def draw(self, xa, g, resample=True):
        """Draw once, or with ``resample`` until ||S^T (Ax − b)|| passes the
        zero test; write the pullback [A^T S t; 0] into g and return (block,
        K, t, ||t||^2), t = S^T (Ax − b) and K the block's residual map (see
        BlockSampler). None when the cap is reached on a solved residual."""
        for _ in self.attempts:  # never empty
            fwd, bwd, K = self.next_block()
            self.draws += 1
            t = fwd.dot(xa)
            tn2 = float(t.dot(t))
            if tn2 > self.threshold_sq or not resample:
                bwd.dot(t, out=g)
                g[-1] = 0.0
                return fwd, K, t, tn2
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

    def refresh_residual(self, state: _State) -> None:
        """Replace the carried R·xa and R·d by exact products, which bounds
        the drift of the updated values."""
        R = self.system.residual_factor
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
                                    else self.residual_norm(state.xa))
        if not moved:
            self.unmoved.append(len(self.rse_col) - 1)
        if self.iterates is not None:
            self.iterates.append(state.xa[:self.n].copy())
        return rse

    def finish(self, xa, reason) -> tuple[SolverState, Trace]:
        """The final state and trace; converged unless ``reason`` is "max_iters"."""
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
            converged=reason != "max_iters",
            reason=reason,
            fallback_steps=self.fallbacks,
            sample_draws=self.draws,
            iterates=self.iterates if self.iterates is not None else [],
        )
        return state, trace

    def already_solved(self):
        """The trivial run when x0 = 0 is already the min-norm solution."""
        return self.finish(self.states[0].xa, "already_solved")


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

@_quiet_overflow
def _heavy_ball(system: LinearSystem, scheme, config: SolverConfig,
                keep_iterates: bool, draw_mode: str, rule_for):
    """The heavy-ball loop shared by basic, mbasic, ashbm and mrabk.

    ``draw_mode`` says what a zero sketch does: ``"resample"`` draws again
    (mbasic, ashbm), ``"skip"`` records it as an unmoved step (basic) and
    ``"plain"`` steps on it (mrabk). ``rule_for(run)`` returns the step
    rule ``(k, ||t||^2, state) -> (alpha, beta)``; the state's g holds the
    sampled gradient and its d the previous step.

    When the run carries its residual, ``R·g = K·t`` and the step's C
    advance V = W·R^T next to W; W and its arithmetic are the same either
    way, so tracking never changes the trajectory.
    """
    run = _Run(system, scheme, config, keep_iterates)
    if run.err0_sq == 0.0:
        return run.already_solved()
    draw, resample = run.draw, draw_mode == "resample"
    # a sketch at or below this counts as zero and leaves x unmoved
    skip_below = run.threshold_sq if draw_mode == "skip" else -1.0
    rule = rule_for(run)
    tol, clock, C = config.rse_tolerance, run.clock, run.C
    beta_col, minus_alpha = C[:, 2], C[:, 3]
    carry = run.carry_residual
    cur, nxt = run.states
    for k in range(1, config.max_iters + 1):
        t0 = clock()
        drawn = draw(cur.xa, cur.g, resample)
        if drawn is None:
            return run.finish(cur.xa, "residual")
        _, K, t, tn2 = drawn
        if tn2 <= skip_below:
            if run.record(cur, 0.0, 0.0, t0, moved=False) <= tol:
                return run.finish(cur.xa, "rse")
            continue
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
        if run.record(cur, alpha, beta, t0) <= tol:
            return run.finish(cur.xa, "rse")
    return run.finish(cur.xa, "max_iters")


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


def solve_basic(system: LinearSystem, scheme, config: SolverConfig,
                *, keep_iterates: bool = False):
    """Algorithm with plain sampling: a zero sketch leaves the iterate
    unchanged (moved=False) instead of resampling."""
    return _heavy_ball(system, scheme, config, keep_iterates, "skip", _polyak_rule)


def solve_modified_basic(system: LinearSystem, scheme, config: SolverConfig,
                         *, keep_iterates: bool = False):
    """Rejection-samples until the sketched residual is nonzero, then takes
    a relaxed Polyak step; the error decreases strictly on every step."""
    return _heavy_ball(system, scheme, config, keep_iterates, "resample", _polyak_rule)


def solve_ashbm(system: LinearSystem, scheme, config: SolverConfig,
                *, keep_iterates: bool = False):
    """Adaptive heavy-ball momentum: the first step is a Polyak step, after
    which (alpha, beta) minimize the error over the gradient/previous-step
    plane in closed form."""
    return _heavy_ball(system, scheme, config, keep_iterates, "resample", _ashbm_rule)


@_quiet_overflow
def solve_scg(system: LinearSystem, scheme, config: SolverConfig,
              *, keep_iterates: bool = False):
    """Stochastic CG recursion; identical sample sequences make it
    iterate-for-iterate equal to the momentum form. A carried residual
    follows x' = x + delta·p through R·p' = eta·R·p − K·t."""
    run = _Run(system, scheme, config, keep_iterates)
    if run.err0_sq == 0.0:
        return run.already_solved()
    tol, n, carry = config.rse_tolerance, run.n, run.carry_residual
    cur, nxt = run.states
    g = np.empty(n + 1)  # the pullback of each draw

    drawn = run.draw(cur.xa, g)
    if drawn is None:
        return run.finish(cur.xa, "residual")
    _, K, t, s_cur = drawn
    p = -g
    rp = -K.dot(t) if carry else None

    for k in range(1, config.max_iters + 1):
        t0 = run.clock()
        pn2 = float(p.dot(p))
        if pn2 <= run.threshold_sq:
            if run.solved(run.A.matvec(cur.xa[:n]) - run.b):
                return run.finish(cur.xa, "residual")
            raise DegenerateDirectionError("search direction vanished with large residual")
        delta = s_cur / pn2
        step = delta * p
        np.add(cur.xa, step, out=nxt.xa)
        np.add(cur.err, step, out=nxt.err)
        if carry:
            np.add(cur.rx, delta * rp, out=nxt.rx)
            if k % DRIFT_CHECK_INTERVAL == 0:
                system.residual_factor.dot(nxt.xa, out=nxt.rx)
                rp = system.residual_factor.dot(p)
        cur, nxt = nxt, cur
        if run.record(cur, delta, 0.0, t0) <= tol:
            return run.finish(cur.xa, "rse")
        drawn = run.draw(cur.xa, g)
        if drawn is None:
            return run.finish(cur.xa, "residual")
        fwd, K, t, s_new = drawn
        t_old = fwd.dot(nxt.xa)  # S_{k+1}^T r^k
        eta = (s_new - float(t.dot(t_old))) / s_cur
        p = eta * p - g
        if carry:
            rp = eta * rp - K.dot(t)
        s_cur = s_new
    return run.finish(cur.xa, "max_iters")


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
                return run.finish(x, "residual")
            raise BreakdownError("CG direction vanished with large residual")
        mu = rn2 / pn2
        x += mu * p
        err += mu * p
        r = r + mu * A.matvec(p)
        if k % DRIFT_CHECK_INTERVAL == 0:
            r = A.matvec(x) - b  # bound incremental drift
        rn2_new = float(r @ r)
        rse = run.record(state, mu, 0.0, t0, resnorm=float(np.sqrt(rn2_new)))
        if rse <= config.rse_tolerance or run.solved(r):
            return run.finish(x, "rse" if rse <= config.rse_tolerance else "residual")
        p = -A.rmatvec(r) + (rn2_new / rn2) * p
        rn2 = rn2_new
    return run.finish(x, "max_iters")


def solve_mrabk(system: LinearSystem, scheme, config: SolverConfig,
                *, keep_iterates: bool = False):
    """Fixed-parameter momentum baseline on partition sampling: constant
    step 1 / (tau ||A||_F^2) plus constant momentum beta. A bound sampler
    computes tau once for all the runs it serves."""
    sampler = BlockSampler.bind(scheme, system)
    if not isinstance(sampler.scheme, PartitionBlock):
        raise UnsupportedError(f"mrabk requires partition:<p> sampling, got {sampler.describe()!r}")

    def fixed_rule(run):
        step = (1.0 / (sampler.tau * run.A.fro_norm_sq), config.momentum_beta)
        return lambda k, tn2, cur: step

    return _heavy_ball(system, sampler, config, keep_iterates, "plain", fixed_rule)


SOLVER_IDS = {
    "basic": solve_basic,
    "mbasic": solve_modified_basic,
    "ashbm": solve_ashbm,
    "scg": solve_scg,
    "cgne": solve_cgne,
    "mrabk": solve_mrabk,
}
