"""The benchmark's workloads.

Each workload is a fixed unit of work (a *pass*) built from ``--seed``.
The harness repeats passes for the run's measuring time; every pass of a
run does identical work, so its iteration counts and trace digest must
repeat exactly. Every solve uses tol 1e-12 and starts from x0 = 0.

A workload offers:

* ``set_up()``: one repetition of the program's set-up for the workload,
  timed by the harness for ``setup_s``; the last repetition's result is
  kept for the passes and the checks;
* ``run_pass(section, after_step)``: one pass, with the measured part
  inside ``with section():``; ``after_step(seconds)`` is called after each
  timed step and outside its timing (the harness samples machine speed
  there); returns a :class:`PassResult`;
* ``verify()``: the output checks that need more than one pass's data;
* ``reference``: the weights of the reference-kernel parts that stand for
  its mix of work (see ``ReferenceKernel`` in ``run.py``).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from momsolve import analysis, cli, linalg, problems, sampling, solvers
from momsolve.errors import MomsolveError

TOL = 1e-12
# A final iterate passes when ||x - A^+ b||^2 / ||A^+ b||^2 (the RSE from
# x0 = 0, measured against the SVD oracle) is within 10x the solve tolerance.
ORACLE_RSE_MAX = 10 * TOL
# The CLI's last residual_norm must match ||A x - b|| of the verified iterate
# to this absolute tolerance, scaled by (1 + ||b||).
RESIDUAL_MATCH = 1e-8


@dataclass
class PassResult:
    steps: list                 # wall seconds of each solve call or CLI command
    iterations: list            # per solve, in order
    full_iters: list            # iterations * p / m per solve
    attempted: int
    failures: list              # {op, trial, seed, type, message}
    digest: str                 # sha256 of the pass's --no-timing trace bytes
    errors: list = field(default_factory=list)  # failed output checks


def _oracle_rse(x, x_oracle) -> float:
    diff = np.asarray(x) - x_oracle
    return float(diff @ diff) / float(x_oracle @ x_oracle)


# ---------------------------------------------------------------------------
# hotloop-dense
# ---------------------------------------------------------------------------

class HotloopDense:
    """Library calls to ``solve_*`` on the criterion-6 system
    (2000 x 500, rank 500, kappa 20), residual tracking and timing off.

    Why: almost all of the time goes to the solver loop and the sampler,
    with no residual and no I/O, so sampler, step-kernel and run-loop work
    shows here. ``uniform:32`` covers the sampler path that gathers rows on
    every draw, next to the cached partition atoms.
    """

    name = "hotloop-dense"
    setup_reps = 5
    # Reference-kernel weights (see run.py): the solver loop is interpreter
    # work and small BLAS calls; generating the problem is dense LAPACK.
    reference = {"loop": 0.5, "lapack": 0.5}
    M, N, R, KAPPA = 2000, 500, 500, 20.0
    CELLS = (
        ("mbasic", "partition:8"),
        ("ashbm", "partition:8"),
        ("basic", "partition:64"),
        ("mbasic", "partition:64"),
        ("ashbm", "partition:64"),
        ("scg", "partition:64"),
        ("mrabk", "partition:64"),
        ("ashbm", "uniform:32"),
    )
    TRIALS = 1
    # The system and partitions are criterion 6's for every workload seed:
    # the iteration counts of other generated systems differ by up to 15%,
    # which would swamp the timings. The workload seed picks the trials.
    PROBLEM_SEED = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.system = None
        self.schemes = {}
        self.x_oracle = None

    def set_up(self):
        self.system = problems.generate_gaussian_problem(
            self.M, self.N, self.R, self.KAPPA, self.PROBLEM_SEED)
        self.schemes = {
            spec: sampling.parse_scheme(spec).materialize(self.system.A, self.PROBLEM_SEED)
            for spec in sorted({spec for _, spec in self.CELLS})
        }

    def trial_seeds(self):
        # the default seed 1 gives criterion 6's trial seeds 3000 + i
        return [3000 * self.seed + i for i in range(self.TRIALS)]

    def run_pass(self, section, after_step) -> PassResult:
        if self.x_oracle is None:
            self.x_oracle = linalg.min_norm_solution(self.system.A, self.system.b)
        outcomes, steps = [], []
        with section():
            for solver_id, spec in self.CELLS:
                for i, seed in enumerate(self.trial_seeds()):
                    cfg = solvers.SolverConfig(rse_tolerance=TOL, seed=seed,
                                               track_residual=False, record_timing=False)
                    t0 = time.perf_counter()
                    try:
                        state, trace = solvers.SOLVER_IDS[solver_id](
                            self.system, self.schemes[spec], cfg)
                    except MomsolveError as exc:
                        outcomes.append((solver_id, spec, i, seed, exc))
                    else:
                        outcomes.append((solver_id, spec, i, seed, (state.x, trace)))
                    steps.append(time.perf_counter() - t0)
                    after_step(steps[-1])
        digest = hashlib.sha256()
        result = PassResult(steps, [], [], len(outcomes), [], "")
        for solver_id, spec, i, seed, out in outcomes:
            op = f"{solver_id}.{spec}"
            if isinstance(out, MomsolveError):
                result.failures.append({"op": op, "trial": i, "seed": seed,
                                        "type": type(out).__name__, "message": str(out)})
                continue
            x, trace = out
            p = self.schemes[spec].p
            result.iterations.append(trace.iterations)
            result.full_iters.append(trace.iterations * p / self.M)
            for column in (trace.k, trace.rse, trace.residual_norm, trace.alpha,
                           trace.beta, trace.wall_nanos, trace.moved):
                digest.update(column.tobytes())
            err = _oracle_rse(x, self.x_oracle)
            if not trace.converged or not err <= ORACLE_RSE_MAX:
                result.errors.append(f"{op} trial {i}: oracle RSE {err:.3e}, "
                                     f"converged={trace.converged}")
        result.digest = digest.hexdigest()
        return result

    def verify(self) -> list:
        return []


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    solver: str | None        # None for `bound`
    spec: str | None
    trials: int = 1


def _read_trace_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


class _CliWorkload:
    """Runs ``momsolve`` subcommands in-process through ``cli.main`` and
    checks what they write. Output paths are relative to the checkout root,
    which is the working directory."""

    commands: tuple = ()
    M = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.system = None
        self.schemes = {}
        self.measured_factor = {}   # per-iteration contraction of each solve

    def out_dir(self, cmd: Command) -> str:
        return os.path.join(self.workdir, cmd.label)

    def experiment(self, cmd: Command) -> cli.ExperimentConfig:
        raise NotImplementedError

    def run_pass(self, section, after_step) -> PassResult:
        for cmd in self.commands:
            shutil.rmtree(self.out_dir(cmd), ignore_errors=True)
        codes, steps = [], []
        with section():
            for cmd in self.commands:
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    try:
                        codes.append(cli.main(list(cmd.argv) + ["--out", self.out_dir(cmd)]))
                    except MomsolveError as exc:
                        codes.append(exc)
                steps.append(time.perf_counter() - t0)
                after_step(steps[-1])
        result = PassResult(steps, [], [], 0, [], "")
        digest = hashlib.sha256()
        for cmd, code in zip(self.commands, codes):
            out = self.out_dir(cmd)
            if cmd.solver is None:
                result.attempted += 1
                if code != 0:
                    result.failures.append({"op": cmd.label, "trial": 0, "seed": self.seed,
                                            "type": _code_type(code), "message": ""})
                    continue
                with open(os.path.join(out, "bound.json"), "rb") as fh:
                    digest.update(fh.read())
                continue
            result.attempted += cmd.trials
            summary = {}
            if os.path.exists(os.path.join(out, "summary.json")):
                with open(os.path.join(out, "summary.json"), encoding="ascii") as fh:
                    summary = json.load(fh)
            messages = iter(summary.get("errors", []))
            p = self.M if cmd.spec is None else sampling.parse_scheme(cmd.spec).p
            for i in range(cmd.trials):
                path = os.path.join(out, f"trace_{i:03d}.csv")
                if not os.path.exists(path):
                    result.failures.append(self._trial_failure(cmd, i, next(messages, "")))
                    continue
                with open(path, "rb") as fh:
                    data = fh.read()
                digest.update(data)
                k = data.count(b"\n") - 1
                result.iterations.append(k)
                result.full_iters.append(k * p / self.M)
        result.digest = digest.hexdigest()
        return result

    def _solve(self, cmd: Command, solver_cfg):
        if cmd.solver == "cgne":
            return solvers.solve_cgne(self.system, solver_cfg)
        return solvers.SOLVER_IDS[cmd.solver](self.system, self.schemes[cmd.spec], solver_cfg)

    def _trial_failure(self, cmd: Command, i: int, message: str) -> dict:
        """Failure record of a CLI trial. The summary keeps only the message,
        so the trial is re-run through the library for the exception type."""
        solver_cfg = self.experiment(cmd).solver_config(i)
        try:
            self._solve(cmd, solver_cfg)
        except MomsolveError as exc:
            kind = type(exc).__name__
        else:
            kind = "none in a library re-run"
        return {"op": cmd.label, "trial": i, "seed": solver_cfg.seed,
                "type": kind, "message": message}

    def verify(self) -> list:
        """Re-run every CLI trial through the library with residual tracking
        off, check the final iterate against the SVD oracle, and check that
        the CLI's trace is the trace of that iterate."""
        errors = []
        system = self.system
        x_oracle = linalg.min_norm_solution(system.A, system.b)
        b_norm = float(np.linalg.norm(system.b))
        for cmd in self.commands:
            if cmd.solver is None:
                continue
            cfg = self.experiment(cmd)
            for i in range(cmd.trials):
                path = os.path.join(self.out_dir(cmd), f"trace_{i:03d}.csv")
                if not os.path.exists(path):
                    continue  # a failed trial, counted in ``failed``
                solver_cfg = dataclasses.replace(cfg.solver_config(i), track_residual=False)
                where = f"{cmd.label} trial {i}"
                try:
                    state, trace = self._solve(cmd, solver_cfg)
                except MomsolveError as exc:
                    errors.append(f"{where}: library re-run raised {type(exc).__name__}: {exc}")
                    continue
                err = _oracle_rse(state.x, x_oracle)
                if not trace.converged or not err <= ORACLE_RSE_MAX:
                    errors.append(f"{where}: oracle RSE {err:.3e}, converged={trace.converged}")
                rows = _read_trace_csv(path)
                ours = [(int(r.k), float(r.rse), float(r.alpha), float(r.beta), int(r.moved))
                        for r in trace.records()]
                theirs = [(int(r["k"]), float(r["rse"]), float(r["alpha"]), float(r["beta"]),
                           int(r["moved"])) for r in rows]
                if ours != theirs:
                    errors.append(f"{where}: CLI trace differs from the verified run")
                if any(r["wall_nanos"] != "0" for r in rows):
                    errors.append(f"{where}: --no-timing trace has nonzero wall_nanos")
                true_res = float(np.linalg.norm(system.A.matvec(state.x) - system.b))
                cli_res = float(rows[-1]["residual_norm"]) if rows else math.nan
                if not abs(cli_res - true_res) <= RESIDUAL_MATCH * (1.0 + b_norm):
                    errors.append(f"{where}: CLI residual_norm {cli_res:.3e} "
                                  f"vs ||Ax-b|| {true_res:.3e}")
                if trace.iterations and trace.final_rse > 0:
                    self.measured_factor[cmd.label] = trace.final_rse ** (1.0 / trace.iterations)
        return errors


def _code_type(code) -> str:
    if isinstance(code, BaseException):
        return type(code).__name__
    return f"exit {code}"


class CliTracked(_CliWorkload):
    """``momsolve solve`` on the generated 2000 x 500 system with ``ashbm``
    on ``partition:64``, a few trials, CSV traces, residual tracking on
    (the CLI default).

    Why: this is the path users run. The per-record ``A @ x`` of residual
    tracking dominates a trial, followed by trace writing and problem
    generation, so gains from residual tracking, trace output and batched
    trials show here. It runs the same ``ashbm`` loop as ``hotloop-dense``,
    which gives the per-iteration cost with tracking off.
    """

    name = "cli-tracked"
    setup_reps = 5
    # Reference-kernel weights: in a traced pass 72% of the time is the
    # dense matrix-vector product of each record, 24% the solver loop and 4%
    # generating the problem. Weighting the loop part as well added noise
    # in ten-seed runs, so the loop's share goes to the lapack part.
    reference = {"gemv": 0.75, "lapack": 0.25}
    M = 2000
    TRIALS = 2
    # The CLI derives the problem, the partition and the trial seeds from
    # its one --seed, and the systems of other seeds need 9k to 12k ashbm
    # iterations instead of 10.8k, which would add to the spread of the
    # timings. So every workload seed runs the command with --seed 1;
    # hotloop-dense varies the trial seeds of the same ashbm loop.
    CLI_SEED = 1

    def __init__(self, seed: int, workdir: str):
        super().__init__(self.CLI_SEED, workdir)
        self.commands = (
            Command("solve-ashbm", (
                "solve", "--m", "2000", "--n", "500", "--r", "500", "--kappa", "20",
                "--solver", "ashbm", "--sampling", "partition:64",
                "--seed", str(self.CLI_SEED), "--tol", "1e-12", "--no-timing",
                "--workers", "1", "--trials", str(self.TRIALS)),
                "ashbm", "partition:64", self.TRIALS),
        )

    def experiment(self, cmd):
        return cli.ExperimentConfig(
            problem={"kind": "generate", "m": 2000, "n": 500, "r": 500, "kappa": 20.0},
            scheme=cmd.spec, solver=cmd.solver, trials=cmd.trials, seed=self.seed,
            tol=TOL, record_timing=False)

    def set_up(self):
        cfg = self.experiment(self.commands[0])
        self.system = cli.build_system(cfg)
        self.schemes = {cfg.scheme: sampling.parse_scheme(cfg.scheme).materialize(
            self.system.A, cfg.seed)}


class MtxSparse(_CliWorkload):
    """``momsolve solve``/``bound`` on a seeded sparse coordinate-format
    Matrix Market file (4000 x 1000, 10 entries per row, 1% dense) with a
    right-hand side the CLI synthesizes: ``cgne``, ``ashbm`` on
    ``partition:32``, and the ``partition:32`` bound report.

    Why: most of the time goes to set-up: parsing, the SVD oracle once per
    command, and the spectral quantities of the bound. ``cgne`` converges in
    a few dozen iterations and uses no sampling; the ``ashbm`` cell runs the
    solver on sparse CSR row blocks, a second way through the solver layer.
    Oracle and reader work shows here, and so does any dense-only
    optimisation that slows sparse inputs.
    """

    name = "mtx-sparse"
    setup_reps = 3
    # Reference-kernel weights: about three quarters of a pass is the dense
    # SVD oracle and the spectral set-up; the rest is parsing and the loop.
    reference = {"loop": 0.25, "lapack": 0.75}
    M, N, PER_ROW = 4000, 1000, 10

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.matrix = os.path.join(workdir, "A.mtx")
        common = ("--matrix", self.matrix, "--seed", str(seed), "--tol", "1e-12")
        self.commands = (
            Command("solve-cgne", ("solve", *common, "--solver", "cgne", "--no-timing"),
                    "cgne", None),
            Command("solve-ashbm", ("solve", *common, "--solver", "ashbm",
                                    "--sampling", "partition:32", "--no-timing"),
                    "ashbm", "partition:32"),
            Command("bound", ("bound", *common, "--sampling", "partition:32"),
                    None, "partition:32"),
        )
        self.write_matrix()

    def write_matrix(self):
        """Benchmark input, written before any timing: every row holds
        PER_ROW distinct columns with standard normal values."""
        rng = np.random.default_rng(self.seed)
        lines = ["%%MatrixMarket matrix coordinate real general",
                 f"{self.M} {self.N} {self.M * self.PER_ROW}"]
        for i in range(self.M):
            cols = np.sort(rng.choice(self.N, size=self.PER_ROW, replace=False))
            vals = rng.standard_normal(self.PER_ROW)
            lines.extend(f"{i + 1} {j + 1} {float(v)!r}" for j, v in zip(cols, vals))
        with open(self.matrix, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    def experiment(self, cmd):
        return cli.ExperimentConfig(
            problem={"kind": "mtx", "matrix": self.matrix, "rhs": None},
            scheme=cmd.spec or "row", solver=cmd.solver or "mbasic", seed=self.seed,
            tol=TOL, record_timing=False)

    def set_up(self):
        cfg = self.experiment(self.commands[2])
        self.system = cli.build_system(cfg)
        scheme = sampling.parse_scheme(cfg.scheme).materialize(self.system.A, cfg.seed)
        self.schemes = {cfg.scheme: scheme}
        self.bound = analysis.theoretical_bound(scheme, self.system.A, cfg.zeta)

    def verify(self) -> list:
        errors = super().verify()
        path = os.path.join(self.out_dir(self.commands[2]), "bound.json")
        if not os.path.exists(path):
            return errors
        with open(path, encoding="ascii") as fh:
            factor = json.load(fh)["per_iter_factor"]
        if factor != self.bound.per_iter_factor or not 0.0 < factor < 1.0:
            errors.append(f"bound: factor {factor!r} vs library "
                          f"{self.bound.per_iter_factor!r}")
        measured = self.measured_factor.get("solve-ashbm")
        if measured is not None and not measured < factor:
            errors.append(f"bound: measured ashbm factor {measured:.6f} "
                          f"not below the bound {factor:.6f}")
        return errors


WORKLOADS = {w.name: w for w in (HotloopDense, CliTracked, MtxSparse)}
