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
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis
from .errors import BreakdownError, InconsistentSystemError, MomsolveError, UnsupportedError
from .linalg import Matrix
from .problems import LinearSystem, attach_min_norm, generate_gaussian_problem, load_matrix_market
from .sampling import BlockSampler, SchemeSpec, parse_scheme
from .seeds import trial_seed
from .solvers import SOLVER_IDS, SolverConfig, Trace, TraceRecord, solve_cgne, step_engine

__all__ = ["ExperimentConfig", "main", "run_trials", "summarize"]

TRACE_HEADER = ",".join(TraceRecord._fields)

EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_BREAKDOWN = 3
EXIT_INCONSISTENT = 4

# most powers of the per-iteration factor that bound.json's curve holds
CURVE_CAP = 10 ** 6

# the exact types each ExperimentConfig field or problem key may hold, by name
_FIELD_TYPES = {"dict": {dict}, "str": {str}, "int": {int}, "float": {int, float}, "bool": {bool},
                "str or None": {str, type(None)}}
# the keys of each problem kind; a key that may be None may be left out
_PROBLEM_KEYS = {"generate": {"m": "int", "n": "int", "r": "int", "kappa": "float"},
                 "mtx": {"matrix": "str", "rhs": "str or None"}}
# the problem of a command given no --config and no --matrix
_GENERATE_PROBLEM = {"kind": "generate", "m": 100, "n": 50, "r": 50, "kappa": 2.0}


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
    out: str = "out"
    fmt: str = "csv"
    workers: int = 1
    track_residual: bool = True
    record_timing: bool = True

    def __post_init__(self):
        # every check that needs no system, so that flags, --config files
        # and sweep cells are held to it alike before a system is built;
        # only p <= m waits for the system
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if type(value) not in _FIELD_TYPES[f.type]:
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.name in ("trials", "workers") and value < 1:
                raise ValueError(f"{f.name} must be an integer >= 1, got {value!r}")
        kind = self.problem.get("kind")
        keys = _PROBLEM_KEYS.get(kind) if type(kind) is str else None
        if keys is None:
            raise ValueError(f"unknown problem kind {kind!r}")
        for key in self.problem:
            if key != "kind" and key not in keys:
                raise ValueError(f"unknown {kind} problem key {key!r}")
        for key, name in keys.items():
            value = self.problem.get(key)  # None where the key is left out
            if type(value) not in _FIELD_TYPES[name]:
                raise ValueError(f"{kind} problem {key} must be of type {name}, got {value!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.solver not in SOLVER_IDS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if parse_scheme(self.scheme).variant != "partition" and self.solver == "mrabk":
            raise UnsupportedError(f"mrabk requires partition:<p> sampling, got {self.scheme!r}")
        self.solver_config(0).validate()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

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
    if prob["kind"] == "generate":
        return generate_gaussian_problem(prob["m"], prob["n"], prob["r"], prob["kappa"], cfg.seed)
    A = load_matrix_market(prob["matrix"])
    rhs = prob.get("rhs")
    if rhs is not None:
        b = read_vector(rhs)
        if b.shape != (A.rows,):
            raise ValueError(f"rhs length {b.shape} does not match {A.rows} rows")
        return LinearSystem(A=A, b=b)
    # synthesize a consistent right-hand side from the base seed
    x_star = np.random.default_rng(cfg.seed).standard_normal(A.cols)
    return LinearSystem(A=A, b=A.matvec(x_star), planted_solution=x_star)


def write_vector(path, v) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(f"{float(value)!r}\n" for value in v)


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
        fh.writelines(f"{float(value)!r}\n" for value in dense.T.flat)


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------

def run_trials(system, cells, workers: int):
    """One result list per ExperimentConfig cell: each trial's trace, or
    the MomsolveError that ended it. The cells' (cell, trial) tasks form one
    list; more workers than one run in one pool of processes, and worker w
    takes tasks w, w + W, ..., so it receives the system once and factors
    it once."""
    tasks = [(cfg, i) for cfg in cells for i in range(cfg.trials)]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        done = _run_tasks(system, tasks)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_tasks, system, tasks[w::workers])
                       for w in range(workers)]
            shares = [f.result() for f in futures]
        done = [shares[j % workers][j // workers] for j in range(len(tasks))]
    results = iter(done)
    return [[next(results) for _ in range(cfg.trials)] for cfg in cells]


def _run_tasks(system, tasks):
    """Run (cell, trial) tasks in order. Consecutive tasks of one (scheme,
    seed) share its bound sampler, and one sampler at most is alive at a
    time."""
    results, key, sampler = [], None, None
    for cfg, i in tasks:
        if cfg.solver == "cgne":
            solve, args = solve_cgne, (system,)
        else:
            if (cfg.scheme, cfg.seed) != key:
                sampler = None  # release the last scheme's blocks before binding
                scheme = parse_scheme(cfg.scheme).materialize(system.A, cfg.seed)
                sampler, key = BlockSampler(scheme, system), (cfg.scheme, cfg.seed)
            solve, args = SOLVER_IDS[cfg.solver], (system, sampler)
        try:
            results.append(solve(*args, cfg.solver_config(i))[1])
        except MomsolveError as exc:
            results.append(exc)
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


def write_trace(path, trace: Trace, fmt: str) -> None:
    if fmt == "csv":
        text = TRACE_HEADER + "\n" + "".join([f"{k},{e!r},{rn!r},{a!r},{bt!r},{w},{mv}\n"
                                              for k, e, rn, a, bt, w, mv in trace.rows()])
    elif fmt == "json":
        text = json.dumps({
            "header": TRACE_HEADER.split(","),
            "records": [list(row) for row in trace.rows()],
            "converged": trace.converged,
            "reason": trace.reason,
            "fallback_steps": trace.fallback_steps,
        }, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


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
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
    print(f"wrote problem files to {out}")
    return 0


def _config_from_args(args, solver=None) -> ExperimentConfig:
    """The --config file's object (with no file, the default problem) with
    each flag that was given laid over it, and ``solver`` over --solver."""
    fields = {"problem": dict(_GENERATE_PROBLEM)}
    if args.config:
        with open(args.config, "r", encoding="ascii") as fh:
            fields = json.load(fh)
        if not isinstance(fields, dict):
            raise ValueError(f"bad config: {args.config} holds no JSON object")
    fields.update((f.name, v) for f in dataclasses.fields(ExperimentConfig)
                  if (v := getattr(args, f.name, None)) is not None)
    if solver is not None:
        fields["solver"] = solver
    sizes = {k: v for k in ("m", "n", "r", "kappa") if (v := getattr(args, k)) is not None}
    if args.matrix is not None:
        fields["problem"] = {"kind": "mtx", "matrix": args.matrix, "rhs": args.rhs, **sizes}
    elif args.rhs is not None:
        raise ValueError("--rhs needs --matrix")
    elif sizes:
        base = fields.get("problem")
        if not (isinstance(base, dict) and base.get("kind") == "generate"):
            base = _GENERATE_PROBLEM
        fields["problem"] = {**base, **sizes}
    try:
        cfg = ExperimentConfig(**fields)
    except TypeError as exc:  # an unknown key or no problem
        raise ValueError(f"bad config: {exc}") from exc
    # create nothing yet, but reject an out that mkdir would fail on
    out = Path(cfg.out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"out {cfg.out!r}: {existing} is not a directory")
    return cfg


def cmd_solve(args) -> int:
    cfg = _config_from_args(args)
    system = build_system(cfg)
    (results,) = run_trials(system, [cfg], cfg.workers)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, res in enumerate(results):
        if isinstance(res, Trace):
            write_trace(out / f"trace_{i:03d}.{cfg.fmt}", res, cfg.fmt)
    summary = summarize(results, cfg.seed)
    summary["engine"] = step_engine(cfg.solver, system.A)
    summary["config"] = cfg.to_dict()
    with open(out / "summary.json", "w", encoding="ascii") as fh:
        fh.write(json.dumps(summary, sort_keys=True) + "\n")
    print(json.dumps({k: v for k, v in summary.items() if k != "config"}, sort_keys=True))
    if summary.get("failed"):
        first = next(e for e in results if not isinstance(e, Trace))
        raise first
    return 0


def cmd_sweep(args) -> int:
    # a given --solver list overrides the config's one solver
    cfg = _config_from_args(args, args.solver and args.solver.split(",")[0])
    solvers = args.solver.split(",") if args.solver else [cfg.solver]
    variant = parse_scheme(cfg.scheme).variant
    if variant not in ("uniform", "partition"):
        raise UnsupportedError("sweep requires a block scheme (uniform/partition)")
    specs = [SchemeSpec(variant, int(p)) for p in args.p_list.split(",")]
    # sweep.csv reads only iterations and final RSEs, which neither the
    # residual column nor the timing changes
    cells = [dataclasses.replace(cfg, scheme=str(spec), solver=solver,
                                 track_residual=False, record_timing=False)
             for spec in specs for solver in solvers]
    system = build_system(cfg)
    m = system.A.rows
    for spec in specs:  # p <= m needs the system; check it before any cell runs
        spec.materialize(system.A, cfg.seed)
    rows, failures = [], []
    for sub, results in zip(cells, run_trials(system, cells, cfg.workers)):
        p = parse_scheme(sub.scheme).p
        traces = [t for t in results if isinstance(t, Trace)]
        failures += [e for e in results if not isinstance(e, Trace)]
        iters = np.array([t.iterations for t in traces], dtype=float)
        finals = np.array([t.final_rse for t in traces])
        # no step, or the error grew: no contraction factor
        factors = [analysis.convergence_factor(t.final_rse, t.iterations)
                   for t in traces if t.iterations > 0 and t.final_rse <= 1.0]
        rows.append({
            "p": p,
            "solver": sub.solver,
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


def bound_curve(factor: float, max_iters: int) -> np.ndarray:
    """factor^k for k = 1, 2, ... up to the first power below 1e-16, or
    max_iters or CURVE_CAP powers, whichever comes first. cumprod multiplies
    in order, so each power is the running product of a loop, bit for bit.
    A factor in (0, 1) first tries a few powers past log(1e-16)/log(factor)."""
    full = min(max_iters, CURVE_CAP)
    guess = int(math.log(1e-16) / math.log(factor)) + 8 if 0.0 < factor < 1.0 else full
    for size in sorted({min(guess, full), full}):
        curve = np.full(size, factor).cumprod()
        below = np.flatnonzero(curve < 1e-16)
        if below.size:
            return curve[:below[0] + 1]
    return curve


def cmd_bound(args) -> int:
    # the report depends only on A and the scheme, so the oracle is skipped
    cfg = _config_from_args(args)
    system = _load_system(cfg)
    scheme = parse_scheme(cfg.scheme).materialize(system.A, cfg.seed)
    report = analysis.theoretical_bound(scheme, system.A, cfg.zeta)
    payload = dataclasses.asdict(report)
    payload["curve"] = bound_curve(report.per_iter_factor, cfg.max_iters).tolist()
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "bound.json"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
    print(json.dumps({k: payload[k] for k in
                      ("scheme", "per_iter_factor", "lambda_max", "is_estimate")},
                     sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# a flag that is not given is None: the --config file or ExperimentConfig decides
def _add_problem_flags(p):
    p.add_argument("--config", help="JSON experiment config file; flags given override it")
    p.add_argument("--matrix", help="Matrix Market file for A")
    p.add_argument("--rhs", help="right-hand side vector file (one value per line)")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--kappa", type=float)


def _add_run_flags(p):
    p.add_argument("--solver", help="basic|mbasic|ashbm|scg|mrabk|cgne (sweep: comma list)")
    p.add_argument("--sampling", dest="scheme",
                   help="row | uniform:<p> | partition:<p> | identity")
    p.add_argument("--zeta", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--format", dest="fmt", help="csv | json")
    p.add_argument("--workers", type=int)
    p.add_argument("--no-timing", dest="record_timing", action="store_false", default=None,
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
    except BreakdownError as exc:
        print(f"solver breakdown: {exc}", file=sys.stderr)
        return EXIT_SOLVER_BREAKDOWN
    except InconsistentSystemError as exc:
        print(f"inconsistent system: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (MomsolveError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
