"""Command-line benchmark harness: generate problems, run seeded trials,
sweep block sizes, and emit theoretical bound reports.

Per-trial streams are independent of worker scheduling: trial i always runs
with the seed derived from (base seed, i), so re-running with a different
worker count yields identical traces.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis
from .errors import (
    BreakdownError,
    DegenerateDirectionError,
    ExactConvergence,
    InconsistentSystemError,
    InvalidBlockSizeError,
    InvalidRankError,
    MatrixMarketParseError,
    MomsolveError,
    StalledSamplingError,
    UnsupportedError,
    ZeroMatrixError,
)
from .linalg import Matrix
from .problems import LinearSystem, attach_min_norm, generate_gaussian_problem, load_matrix_market
from .sampling import parse_scheme
from .seeds import trial_seed
from .solvers import SOLVER_IDS, SolverConfig, Trace, solve_cgne

__all__ = ["ExperimentConfig", "main", "run_trials", "summarize"]

TRACE_HEADER = "k,rse,residual_norm,alpha,beta,wall_nanos,moved"

EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_BREAKDOWN = 3
EXIT_INCONSISTENT = 4


@dataclass(frozen=True)
class ExperimentConfig:
    problem: dict
    scheme: str = "row"
    solver: str = "mbasic"
    trials: int = 1
    seed: int = 0
    zeta: float = 1.0
    beta: float = 0.7
    tol: float = 1e-12
    max_iters: int = 10 ** 6
    out: str = "."
    fmt: str = "csv"
    workers: int = 1
    track_residual: bool = True
    record_timing: bool = True

    def __post_init__(self):
        # checked here so that flags and --config files are held to it alike
        for name in ("trials", "workers"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    def solver_config(self, trial: int) -> SolverConfig:
        return SolverConfig(
            zeta=self.zeta,
            max_iters=self.max_iters,
            rse_tolerance=self.tol,
            momentum_beta=self.beta,
            seed=trial_seed(self.seed, trial),
            track_residual=self.track_residual,
            record_timing=self.record_timing,
        )


# ---------------------------------------------------------------------------
# Problem construction / persistence
# ---------------------------------------------------------------------------

def build_system(cfg: ExperimentConfig) -> LinearSystem:
    """The experiment's system with its min-norm solution attached."""
    return attach_min_norm(_load_system(cfg))


def _load_system(cfg: ExperimentConfig) -> LinearSystem:
    """The experiment's system; a Matrix Market problem comes without its
    min-norm solution, which only the error metrics read."""
    prob = cfg.problem
    kind = prob.get("kind")
    if kind == "generate":
        return generate_gaussian_problem(
            int(prob["m"]), int(prob["n"]), int(prob["r"]),
            float(prob["kappa"]), int(cfg.seed),
        )
    if kind == "mtx":
        A = load_matrix_market(prob["matrix"])
        rhs = prob.get("rhs")
        if rhs:
            b = read_vector(rhs)
            if b.shape != (A.rows,):
                raise ValueError(f"rhs length {b.shape} does not match {A.rows} rows")
            system = LinearSystem(A=A, b=b)
        else:
            # synthesize a consistent right-hand side from the base seed
            x_star = np.random.default_rng(cfg.seed).standard_normal(A.cols)
            system = LinearSystem(A=A, b=A.matvec(x_star), planted_solution=x_star)
        return system
    raise ValueError(f"unknown problem kind {kind!r}")


def write_vector(path, v) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for value in v:
            fh.write(f"{float(value)!r}\n")


def read_vector(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return np.array([float(line) for line in fh if line.strip()])


def write_matrix_market(path, A: Matrix) -> None:
    """Dense array-format writer (column-major, full precision)."""
    dense = A.toarray()
    m, n = dense.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{m} {n}\n")
        for j in range(n):
            for i in range(m):
                fh.write(f"{float(dense[i, j])!r}\n")


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------

def _run_one(system, scheme, cfg: ExperimentConfig, trial: int) -> Trace:
    solver_cfg = cfg.solver_config(trial)
    if cfg.solver == "cgne":
        _, trace = solve_cgne(system, solver_cfg)
    else:
        solve = SOLVER_IDS[cfg.solver]
        _, trace = solve(system, scheme, solver_cfg)
    return trace


def run_trials(system, scheme, cfg: ExperimentConfig):
    """Run cfg.trials independent seeded runs; per-trial errors are captured
    without aborting the other trials."""
    if cfg.solver not in SOLVER_IDS:
        raise ValueError(f"unknown solver {cfg.solver!r}")
    results: list = [None] * cfg.trials

    def work(i):
        try:
            results[i] = _run_one(system, scheme, cfg, i)
        except MomsolveError as exc:
            results[i] = exc

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            list(pool.map(work, range(cfg.trials)))
    else:
        for i in range(cfg.trials):
            work(i)
    return results


def summarize(results, seed: int) -> dict:
    """Summary of one ``run_trials`` result list; ``seed`` is the base seed,
    so each failure record names the seed its trial ran with."""
    traces = [t for t in results if isinstance(t, Trace)]
    errors = [{"trial": i, "seed": trial_seed(seed, i), "type": type(e).__name__,
               "message": str(e)}
              for i, e in enumerate(results) if not isinstance(e, Trace)]
    out = {"trials": len(results), "failed": len(errors), "errors": errors}
    if traces:
        iters = np.array([t.iterations for t in traces], dtype=float)
        final = np.array([t.final_rse for t in traces], dtype=float)
        out["iterations"] = _stats(iters)
        out["final_rse"] = _stats(final)
        out["converged"] = int(sum(t.converged for t in traces))
    return out


def _median(values) -> float:
    """The median, or NaN for a cell with no finished trial."""
    return float(np.median(values)) if len(values) else math.nan


def _stats(values: np.ndarray) -> dict:
    return {
        "median": float(np.median(values)),
        "min": float(values.min()),
        "max": float(values.max()),
        "q25": float(np.quantile(values, 0.25)),
        "q75": float(np.quantile(values, 0.75)),
    }


def _trace_rows(trace: Trace):
    """The trace as rows of Python scalars, in TRACE_HEADER order."""
    return zip(trace.k.tolist(), trace.rse.tolist(), trace.residual_norm.tolist(),
               trace.alpha.tolist(), trace.beta.tolist(), trace.wall_nanos.tolist(),
               trace.moved.astype(np.int64).tolist())


def write_trace(path, trace: Trace, fmt: str) -> None:
    if fmt == "csv":
        with open(path, "w", encoding="ascii") as fh:
            fh.write(TRACE_HEADER + "\n")
            fh.write("".join([f"{k},{e!r},{rn!r},{a!r},{bt!r},{w},{mv}\n"
                              for k, e, rn, a, bt, w, mv in _trace_rows(trace)]))
    elif fmt == "json":
        payload = {
            "header": TRACE_HEADER.split(","),
            "records": [list(row) for row in _trace_rows(trace)],
            "converged": trace.converged,
            "reason": trace.reason,
            "fallback_steps": trace.fallback_steps,
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    system = generate_gaussian_problem(args.m, args.n, args.r, args.kappa, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_market(out / "A.mtx", system.A)
    write_vector(out / "b.txt", system.b)
    write_vector(out / "xstar.txt", system.planted_solution)
    write_vector(out / "min_norm.txt", system.min_norm)
    meta = {
        "m": args.m, "n": args.n, "r": args.r, "kappa": args.kappa,
        "seed": args.seed, "consistency_residual": system.consistency_residual,
    }
    with open(out / "meta.json", "w", encoding="ascii") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")
    print(f"wrote problem files to {out}")
    return 0


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        with open(args.config, "r", encoding="ascii") as fh:
            return ExperimentConfig.from_json(fh.read())
    if args.matrix:
        problem = {"kind": "mtx", "matrix": args.matrix, "rhs": args.rhs}
    else:
        problem = {
            "kind": "generate",
            "m": args.m, "n": args.n, "r": args.r, "kappa": args.kappa,
        }
    return ExperimentConfig(
        problem=problem,
        scheme=args.sampling,
        solver=args.solver,
        trials=args.trials,
        seed=args.seed,
        zeta=args.zeta,
        beta=args.beta,
        tol=args.tol,
        max_iters=args.max_iters,
        out=args.out,
        fmt=args.format,
        workers=args.workers,
        record_timing=not args.no_timing,
    )


def _materialize(cfg: ExperimentConfig, system):
    spec = parse_scheme(cfg.scheme)
    return spec.materialize(system.A, cfg.seed)


def cmd_solve(args) -> int:
    cfg = _config_from_args(args)
    system = build_system(cfg)
    scheme = _materialize(cfg, system) if cfg.solver != "cgne" else None
    results = run_trials(system, scheme, cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, res in enumerate(results):
        if isinstance(res, Trace):
            write_trace(out / f"trace_{i:03d}.{cfg.fmt}", res, cfg.fmt)
    summary = summarize(results, cfg.seed)
    summary["config"] = cfg.to_dict()
    with open(out / "summary.json", "w", encoding="ascii") as fh:
        json.dump(summary, fh, sort_keys=True)
        fh.write("\n")
    print(json.dumps({k: v for k, v in summary.items() if k != "config"}, sort_keys=True))
    if summary.get("failed"):
        first = next(e for e in results if not isinstance(e, Trace))
        raise first
    return 0


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    if not cfg.scheme.split(":")[0] in ("uniform", "partition"):
        raise UnsupportedError("sweep requires a block scheme (uniform/partition)")
    p_list = [int(p) for p in args.p_list.split(",")]
    solvers = args.solver.split(",")
    system = build_system(cfg)
    m = system.A.rows
    rows, failures = [], []
    for p in p_list:
        base = cfg.scheme.split(":")[0]
        for solver in solvers:
            sub = dataclasses.replace(cfg, scheme=f"{base}:{p}", solver=solver)
            scheme = _materialize(sub, system)
            results = run_trials(system, scheme, sub)
            traces = [t for t in results if isinstance(t, Trace)]
            failures += [e for e in results if not isinstance(e, Trace)]
            iters = np.array([t.iterations for t in traces], dtype=float)
            finals = np.array([max(t.final_rse, 0.0) for t in traces])
            factors = []
            for t in traces:
                try:
                    factors.append(analysis.convergence_factor(t.final_rse, t.iterations))
                except ExactConvergence:
                    factors.append(0.0)
            rows.append({
                "p": p,
                "solver": solver,
                "iters_median": _median(iters),
                "full_iters_median": _median(iters) * p / m,
                "final_rse_median": _median(finals),
                "conv_factor_median": _median(factors),
                "trials": len(results),
                "failed": len(results) - len(traces),
            })
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    cols = ["p", "solver", "iters_median", "full_iters_median",
            "final_rse_median", "conv_factor_median", "trials", "failed"]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")
    print(f"wrote {len(rows)} sweep rows to {path} ({len(failures)} failed trials)")
    if failures:
        raise failures[0]
    return 0


def cmd_bound(args) -> int:
    # the report depends only on A and the scheme, so the oracle is skipped
    cfg = _config_from_args(args)
    system = _load_system(cfg)
    scheme = _materialize(cfg, system)
    report = analysis.theoretical_bound(scheme, system.A, cfg.zeta)
    factor = report.per_iter_factor
    curve = []
    value = 1.0
    for _ in range(min(cfg.max_iters, 10 ** 6)):
        value *= factor
        curve.append(value)
        if value < 1e-16:
            break
    payload = dataclasses.asdict(report)
    payload["curve"] = curve
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "bound.json"
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    print(json.dumps({k: payload[k] for k in
                      ("scheme", "per_iter_factor", "lambda_max", "is_estimate")},
                     sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_problem_flags(p):
    p.add_argument("--config", help="JSON experiment config file")
    p.add_argument("--matrix", help="Matrix Market file for A")
    p.add_argument("--rhs", help="right-hand side vector file (one value per line)")
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--r", type=int, default=50)
    p.add_argument("--kappa", type=float, default=2.0)


def _add_run_flags(p):
    p.add_argument("--solver", default="mbasic",
                   help="basic|mbasic|ashbm|scg|mrabk|cgne (sweep: comma list)")
    p.add_argument("--sampling", default="row",
                   help="row | uniform:<p> | partition:<p> | identity")
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.7)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=10 ** 6)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-timing", action="store_true",
                   help="record wall_nanos as 0 for bit-reproducible traces")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momsolve",
        description="Randomized momentum/CG solvers for consistent linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic problem to disk")
    g.add_argument("m", type=int)
    g.add_argument("n", type=int)
    g.add_argument("r", type=int)
    g.add_argument("kappa", type=float)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="problem")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run seeded solver trials")
    _add_problem_flags(s)
    _add_run_flags(s)
    s.set_defaults(func=cmd_solve)

    w = sub.add_parser("sweep", help="block-size sweep")
    _add_problem_flags(w)
    _add_run_flags(w)
    w.add_argument("--p-list", dest="p_list", required=True,
                   help="comma-separated block sizes")
    w.set_defaults(func=cmd_sweep)

    b = sub.add_parser("bound", help="write the theoretical bound report")
    _add_problem_flags(b)
    _add_run_flags(b)
    b.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BreakdownError, StalledSamplingError, DegenerateDirectionError) as exc:
        print(f"solver breakdown: {exc}", file=sys.stderr)
        return EXIT_SOLVER_BREAKDOWN
    except InconsistentSystemError as exc:
        print(f"inconsistent system: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, KeyError, UnsupportedError, InvalidRankError,
            InvalidBlockSizeError, MatrixMarketParseError, ZeroMatrixError,
            FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
