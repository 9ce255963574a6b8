"""momsolve benchmark.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload hotloop-dense --seed 1 --seconds 30 --trace 0

The workloads are defined in ``workloads.py``; ``BENCHMARK.json`` at the
checkout root names the metrics this prints. The program under test is the
checkout's ``src/momsolve``, imported in this process with BLAS pinned to
one thread and glibc's malloc thresholds fixed. The run

1. sets the workload up ``setup_reps`` times (``setup_s`` is the median);
2. repeats identical passes of the workload until ``--seconds`` would be
   exceeded (at least two passes); ``wall_ref_s`` is the mean pass wall;
   both times are rescaled to the reference speed (see
   :class:`ReferenceKernel`), which is sampled after every set-up for a
   quarter of its time and after every step of a pass (solve call, CLI
   command) for a tenth of its time;
3. checks the outputs: final iterates against the SVD oracle, CLI traces
   against a library re-run, and identical iteration counts and trace
   digests on every pass;
4. prints a readable report, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
   ``--trace 0``, the per-layer metrics with ``--trace 1``.

With ``--trace 1`` the set-up repetitions and every other pass (starting
with the first) run with span wrappers installed (see ``spans.py``); the
other passes run without them, and the difference of their pass walls (each
step at its fastest repetition) is the tracing overhead. Traced runs do not
sample the reference speed. Details of each run, with the environment and the
determinism record, go to ``.bench_work/<workload>/``.
"""

from __future__ import annotations

import ctypes
import os
import sys

# Pin BLAS before numpy loads: one thread, never more than nproc, the same on
# every machine, so timings and floating-point reductions repeat.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True


def fix_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds at 128 KiB. With its default
    moving thresholds, where large arrays land (mmap or heap) and how much
    freed heap stays resident vary from run to run of the same code, and
    peak RSS with them by up to 15%; fixed, every array of 128 KiB or more
    is mapped and unmapped on its own and peak RSS repeats."""
    try:
        libc = ctypes.CDLL("libc.so.6")
        return bool(libc.mallopt(-3, 128 * 1024)    # M_MMAP_THRESHOLD
                    and libc.mallopt(-1, 128 * 1024))  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):
        return False


MALLOC_FIXED = fix_malloc_thresholds()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = ".bench_work"
MIN_PASSES = 2
# ROADMAP "Recent" per-iteration figures (us) checked by the traced runs; a
# figure holds when the measurement is within BASELINE_SLACK of it.
BASELINE_UNTRACKED = {
    "solvers.mbasic.partition8": 27.0,
    "solvers.ashbm.partition8": 40.0,
    "solvers.mbasic.partition64": 51.0,
    "solvers.ashbm.partition64": 61.0,
}
BASELINE_TRACKED = (320.0, 335.0)
BASELINE_SLACK = 0.2
# Seconds of reference kernel run after each timed step of a pass, and
# after each set-up, per second of that step or set-up. Set-ups are short
# and few, so they get a larger share to estimate their speed as well.
REF_SHARE = 0.1
SETUP_REF_SHARE = 0.25


class ReferenceKernel:
    """Fixed numpy work that measures how fast the machine is right now.

    This box is shared: its speed moves between states about 1.6x apart
    that last from seconds to minutes, so a whole run can sit in a slow
    state. The kernel has three parts, written here so that no change to
    momsolve changes them:

    * ``loop``: block Kaczmarz on a fixed 2000 x 500 inconsistent Gaussian
      system with 64-row blocks, the solvers' mix of interpreter work and
      small BLAS calls;
    * ``gemv``: products of the same 2000 x 500 matrix with a vector, like
      the residual of every tracked record;
    * ``lapack``: the SVD of a fixed 800 x 200 Gaussian matrix, like the
      dense oracle and the spectral set-up.

    Run for a share of every timed step, split between the parts by the
    workload's ``reference`` weights, each part's seconds per iteration
    over ``ITER_S`` is its slowdown, and the weighted sum of the slowdowns
    is how much slower the workload's mix of work ran than at the
    reference speed.
    """

    # Seconds per iteration that define the reference speed: about what
    # each part takes on the 2-core Xeon (Python 3.11.7, numpy 2.4.6,
    # OpenBLAS 0.3.31, one BLAS thread) in its fast state.
    ITER_S = {"loop": 20e-6, "gemv": 0.4e-3, "lapack": 12e-3}
    LOOP_CHUNK, GEMV_CHUNK = 200, 20

    def __init__(self, weights: dict):
        self.weights = weights
        rng = np.random.default_rng(0)
        A = rng.standard_normal((2000, 500))
        b = rng.standard_normal(2000)   # inconsistent: updates never vanish
        self.A = A
        self.blocks = [(A[i:i + 64], b[i:i + 64]) for i in range(0, 2000, 64)]
        self.x = np.zeros(500)
        self.rng = np.random.default_rng(1)
        self.dense = rng.standard_normal((800, 200))
        self.chunks = {"loop": self._loop, "gemv": self._gemv, "lapack": self._lapack}
        self.seconds = dict.fromkeys(self.ITER_S, 0.0)
        self.iterations = dict.fromkeys(self.ITER_S, 0)

    def _loop(self):
        x, blocks, draw = self.x, self.blocks, self.rng.integers
        for _ in range(self.LOOP_CHUNK):
            Ab, bb = blocks[int(draw(len(blocks)))]
            res = Ab @ x - bb
            g = Ab.T @ res
            x -= (float(res @ res) / float(g @ g)) * g
        return self.LOOP_CHUNK

    def _gemv(self):
        A, x = self.A, self.x
        for _ in range(self.GEMV_CHUNK):
            A @ x
        return self.GEMV_CHUNK

    def _lapack(self):
        np.linalg.svd(self.dense, full_matrices=False)
        return 1

    def run(self, seconds: float):
        """Run each part in whole chunks for at least its share of
        ``seconds``."""
        for part, weight in self.weights.items():
            spent = 0.0
            while True:
                t0 = time.perf_counter()
                self.iterations[part] += self.chunks[part]()
                spent += time.perf_counter() - t0
                if spent >= weight * seconds:
                    break
            self.seconds[part] += spent

    def take(self) -> tuple:
        """(weighted slowdown, slowdown of each part) since the last take;
        resets the tallies."""
        parts = {part: self.seconds[part] / self.iterations[part] / self.ITER_S[part]
                 for part in self.weights}
        self.seconds = dict.fromkeys(self.ITER_S, 0.0)
        self.iterations = dict.fromkeys(self.ITER_S, 0)
        return sum(self.weights[p] * parts[p] for p in parts), parts


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("hotloop-dense", "cli-tracked", "mtx-sparse"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "malloc_thresholds_fixed": MALLOC_FIXED,
        "git_commit": git_commit(),
    }


@contextlib.contextmanager
def traced(tracer, root):
    with tracer.installed(), tracer.span(root):
        yield


def fastest_steps(results) -> float:
    """Wall time of a pass with each step (solve call or CLI command) at its
    fastest repetition among ``results``. Traced runs compare their traced
    and untraced passes this way, since they do not sample the reference
    speed; the fastest repetition is the least disturbed by the machine."""
    return sum(min(times) for times in zip(*(r.steps for r in results)))


def baseline_check(workload: str, layers: dict) -> list:
    """Whether the ROADMAP per-iteration figures hold on this machine."""
    rows = []
    if workload == "hotloop-dense":
        for key, figure in BASELINE_UNTRACKED.items():
            got = layers.get(f"{key}.us_per_iter")
            if got:
                rows.append({"cell": key, "tracking": False, "us_per_iter": got,
                             "roadmap_us": figure,
                             "holds": abs(got - figure) <= BASELINE_SLACK * figure})
    elif workload == "cli-tracked":
        lo, hi = BASELINE_TRACKED
        got = layers.get("solvers.ashbm.partition64.us_per_iter")
        if got:
            rows.append({"cell": "solvers.ashbm.partition64", "tracking": True,
                         "us_per_iter": got, "roadmap_us": [lo, hi],
                         "holds": lo * (1 - BASELINE_SLACK) <= got <= hi * (1 + BASELINE_SLACK)})
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "momsolve")):
        print(f"no momsolve sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from spans import Tracer, layer_metrics

    with open("BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    workdir = os.path.join(WORKDIR, args.workload)
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    reference = None if tracer else ReferenceKernel(workload.reference)

    def sample_speed(seconds, share=REF_SHARE):
        if reference is not None:
            reference.run(share * seconds)

    if reference is not None:
        sample_speed(0.2, share=1.0)   # warm-up, not counted
        reference.take()
    setup_times = []
    for _ in range(workload.setup_reps):
        section = traced(tracer, "bench.setup") if tracer else contextlib.nullcontext()
        with section:
            t0 = time.perf_counter()
            workload.set_up()
            setup_times.append(time.perf_counter() - t0)
        sample_speed(setup_times[-1], SETUP_REF_SHARE)
    setup_slowdown, setup_parts = reference.take() if reference else (1.0, {})

    results, flags = [], []
    begin = time.perf_counter()
    while True:
        is_traced = tracer is not None and len(results) % 2 == 0
        section = functools.partial(traced, tracer, "bench.pass") if is_traced \
            else contextlib.nullcontext
        results.append(workload.run_pass(section, sample_speed))
        flags.append(is_traced)
        elapsed = time.perf_counter() - begin
        if len(results) >= MIN_PASSES and elapsed * (1 + 1 / len(results)) > args.seconds:
            break

    errors = [e for res in results for e in res.errors] + workload.verify()
    first = results[0]
    for n, res in enumerate(results[1:], start=2):
        if res.iterations != first.iterations or res.digest != first.digest:
            errors.append(f"pass {n} differs from pass 1: iterations {res.iterations} "
                          f"vs {first.iterations}, digest {res.digest[:12]} vs {first.digest[:12]}")
    attempted = sum(res.attempted for res in results)
    failures = [f for res in results for f in res.failures]

    plain = [r for r, is_traced in zip(results, flags) if not is_traced]
    pass_slowdown, pass_parts = reference.take() if reference else (1.0, {})
    wall = statistics.mean(sum(r.steps) for r in plain)
    end_to_end = {
        "wall_ref_s": wall / pass_slowdown,
        "setup_s": statistics.median(setup_times) / setup_slowdown,
        "wall_s": wall,
        "wall_fastest_s": fastest_steps(plain),
        "setup_raw_s": statistics.median(setup_times),
        "slowdown": {"setup": setup_slowdown, "passes": pass_slowdown,
                     "setup_parts": setup_parts, "pass_parts": pass_parts},
        "iters_per_s": sum(first.iterations) / wall,
        "full_iters_p50": statistics.median(first.full_iters) if first.full_iters else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layers = {}
    if tracer:
        layers = layer_metrics(tracer.spans, {"bench.setup": workload.setup_reps,
                                              "bench.pass": sum(flags)})
        untraced = fastest_steps(plain)
        layers["tracing.overhead_s"] = fastest_steps(
            [r for r, is_traced in zip(results, flags) if is_traced]) - untraced
        layers["tracing.overhead_frac"] = layers["tracing.overhead_s"] / untraced
        tracer.write(os.path.join(workdir, f"spans-seed{args.seed}.jsonl"))

    declared = spec["per_layer"] if tracer else spec["end_to_end"]
    source = layers if tracer else end_to_end
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "passes": len(results), "setup_times_s": setup_times,
        "pass_walls_s": [sum(r.steps) for r in results],
        "step_walls_s": [r.steps for r in results],
        "traced_pass": flags,
        "determinism": {"iterations": first.iterations, "digest": first.digest},
        "end_to_end": end_to_end, "fail_frac": len(failures) / attempted,
        "failures": failures, "check_errors": errors,
        "per_layer": layers, "baseline_check": baseline_check(args.workload, layers),
    }
    with open(os.path.join(workdir, f"result-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print(f"{args.workload} seed {args.seed}: {len(results)} passes, "
          f"{workload.setup_reps} set-ups, environment {json.dumps(record['environment'])}")
    for name, metric in metrics.items():
        print(f"  {name:<44s} {metric['value']:.6g} {metric['unit']}")
    if not tracer:
        print(f"  measured: wall_s {end_to_end['wall_s']:.6g} s, iters_per_s "
              f"{end_to_end['iters_per_s']:.6g} 1/s, slowdown {pass_slowdown:.4g} "
              f"(passes), {setup_slowdown:.4g} (set-ups)")
    print(f"  fail_frac {record['fail_frac']:.6g} ({len(failures)} of {attempted} attempted)")
    print(f"  determinism: iterations {first.iterations} digest {first.digest}")
    for row in record["baseline_check"]:
        print(f"  baseline {row['cell']} tracking={row['tracking']}: "
              f"{row['us_per_iter']:.1f} us/iter vs ROADMAP {row['roadmap_us']} "
              f"-> {'holds' if row['holds'] else 'does not hold'}")
    for line in failures:
        print(f"  FAILED {line}")
    for line in errors:
        print(f"  CHECK FAILED {line}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
