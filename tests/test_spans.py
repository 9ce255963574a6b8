"""The benchmark's span tracer against the package: every name it patches
resolves, the commands it times call those names, and each solver span
names its scheme."""

import importlib.util
from pathlib import Path

import pytest

from momsolve import cli, problems, sampling, solvers

_SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_cover_the_traced_commands(spans, tmp_path):
    common = ["--m", "60", "--n", "20", "--r", "20", "--kappa", "3", "--seed", "4",
              "--tol", "1e-10", "--no-timing"]
    system = problems.generate_gaussian_problem(60, 20, 20, 3.0, seed=4)
    scheme = sampling.parse_scheme("partition:4").materialize(system.A, 4)
    tracer = spans.Tracer()
    # installing looks every patched name up, so a renamed one raises here
    with tracer.installed():
        assert cli.main(["solve", "--solver", "ashbm", "--sampling", "partition:4",
                         "--trials", "2", "--out", str(tmp_path / "ashbm")] + common) == 0
        assert cli.main(["solve", "--solver", "cgne",
                         "--out", str(tmp_path / "cgne")] + common) == 0
        assert cli.main(["bound", "--sampling", "partition:4",
                         "--out", str(tmp_path / "bound")] + common) == 0
        solvers.SOLVER_IDS["ashbm"](system, scheme, solvers.SolverConfig(seed=1))
    names = [span[spans.NAME] for span in tracer.spans]
    for name in ("cli.main", "cli.build_system", "cli.run_trials", "cli.write_trace",
                 "cli.summarize", "problems.generate", "sampling.materialize",
                 "analysis.theoretical_bound", "sampling.lambda_max_sup",
                 "linalg.spectral_quantities", "linalg.matvec"):
        assert name in names, name
    solver_spans = [(span[spans.NAME], span[spans.ATTRS]["scheme"])
                    for span in tracer.spans if span[spans.NAME].startswith("solvers.")]
    assert solver_spans == [("solvers.ashbm", "partition4"), ("solvers.ashbm", "partition4"),
                            ("solvers.cgne", "identity"), ("solvers.ashbm", "partition4")]
