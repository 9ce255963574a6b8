"""End-to-end CLI tests: generate/solve/sweep/bound, formats, exit codes."""

import json

import numpy as np
import pytest

from momsolve import cli, problems
from momsolve.cli import ExperimentConfig, main
from momsolve.errors import BreakdownError
from momsolve.linalg import Matrix, spectral_quantities
from momsolve.problems import (
    LinearSystem,
    attach_min_norm,
    generate_gaussian_problem,
    load_matrix_market,
)
from momsolve.sampling import PartitionBlock, SingleRowWeighted
from momsolve.seeds import trial_seed
from momsolve.solvers import SolverConfig, solve_ashbm, solve_basic
from momsolve.analysis import theoretical_bound


def _read_json(path):
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


class TestGenerate:
    def test_roundtrip(self, tmp_path):
        out = tmp_path / "prob"
        assert main(["generate", "100", "50", "50", "1", "--seed", "1",
                     "--out", str(out)]) == 0
        for name in ("A.mtx", "b.txt", "xstar.txt", "min_norm.txt", "meta.json"):
            assert (out / name).exists()
        A = load_matrix_market(out / "A.mtx")
        b = cli.read_vector(out / "b.txt")
        x_star = cli.read_vector(out / "xstar.txt")
        mn = cli.read_vector(out / "min_norm.txt")
        assert A.shape == (100, 50)
        np.testing.assert_allclose(A.matvec(x_star), b, atol=1e-12)
        np.testing.assert_allclose(A.matvec(mn), b, atol=1e-10)
        svals = np.linalg.svd(A.toarray(), compute_uv=False)
        np.testing.assert_allclose(svals, 1.0, atol=1e-10)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", "30", "20", "10", "3", "--seed", "5", "--out", str(a)])
        main(["generate", "30", "20", "10", "3", "--seed", "5", "--out", str(b)])
        for name in ("A.mtx", "b.txt", "xstar.txt", "min_norm.txt", "meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_reloaded_spectrum_bounds(self, tmp_path):
        out = tmp_path / "p"
        main(["generate", "500", "100", "100", "5", "--seed", "7",
              "--out", str(out)])
        s = spectral_quantities(load_matrix_market(out / "A.mtx"))
        assert s.rank == 100
        assert s.sigma_min_nonzero >= 1.0 - 1e-8
        assert s.sigma_max <= 5.0 + 1e-8


class TestSolve:
    def test_cgne_on_generated_system(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["solve", "--m", "60", "--n", "40", "--r", "40",
                   "--kappa", "8", "--solver", "cgne", "--trials", "1",
                   "--seed", "11", "--tol", "1e-13", "--max-iters", "200",
                   "--out", str(out)])
        assert rc == 0
        summary = _read_json(out / "summary.json")
        assert summary["converged"] == 1
        assert summary["iterations"]["median"] <= 50
        trace = (out / "trace_000.csv").read_text().splitlines()
        assert trace[0] == cli.TRACE_HEADER

    def test_summary_determinism(self, tmp_path):
        args = ["solve", "--m", "50", "--n", "25", "--r", "25", "--kappa", "2",
                "--solver", "mbasic", "--sampling", "partition:5",
                "--trials", "3", "--seed", "4", "--tol", "1e-10", "--no-timing"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        sa = _read_json(a / "summary.json")
        sb = _read_json(b / "summary.json")
        sa["config"].pop("out")
        sb["config"].pop("out")
        assert sa == sb
        for i in range(3):
            name = f"trace_{i:03d}.csv"
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_json_trace_format(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["solve", "--m", "30", "--n", "15", "--r", "15", "--kappa", "2",
                   "--solver", "ashbm", "--sampling", "partition:5",
                   "--trials", "1", "--seed", "2", "--tol", "1e-10",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        payload = _read_json(out / "trace_000.json")
        assert payload["header"] == cli.TRACE_HEADER.split(",")
        assert payload["converged"]
        assert len(payload["records"][0]) == 7

    def test_matrix_file_input(self, tmp_path):
        prob = tmp_path / "prob"
        main(["generate", "40", "20", "20", "2", "--seed", "3", "--out", str(prob)])
        out = tmp_path / "run"
        rc = main(["solve", "--matrix", str(prob / "A.mtx"),
                   "--rhs", str(prob / "b.txt"), "--solver", "mbasic",
                   "--sampling", "row", "--trials", "1", "--seed", "3",
                   "--tol", "1e-10", "--out", str(out)])
        assert rc == 0
        assert _read_json(out / "summary.json")["converged"] == 1

    def test_config_file(self, tmp_path):
        cfg = ExperimentConfig(
            problem={"kind": "generate", "m": 30, "n": 15, "r": 15, "kappa": 2.0},
            scheme="partition:5", solver="mbasic", trials=2, seed=9,
            tol=1e-10, out=str(tmp_path / "run"), record_timing=False,
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json() + "\n")
        assert main(["solve", "--config", str(path)]) == 0
        summary = _read_json(tmp_path / "run" / "summary.json")
        assert summary["trials"] == 2
        assert summary["failed"] == 0


def _records_csv(trace):
    """Reference CSV trace, formatted one TraceRecord at a time."""
    lines = [cli.TRACE_HEADER + "\n"]
    for rec in trace.records():
        lines.append(f"{rec.k},{rec.rse!r},{rec.residual_norm!r},{rec.alpha!r},"
                     f"{rec.beta!r},{rec.wall_nanos},{int(rec.moved)}\n")
    return "".join(lines).encode("ascii")


def _records_json(trace):
    """Reference JSON trace, formatted one TraceRecord at a time."""
    payload = {
        "header": cli.TRACE_HEADER.split(","),
        "records": [[rec.k, rec.rse, rec.residual_norm, rec.alpha, rec.beta,
                     rec.wall_nanos, int(rec.moved)] for rec in trace.records()],
        "converged": trace.converged,
        "reason": trace.reason,
        "fallback_steps": trace.fallback_steps,
    }
    return (json.dumps(payload, sort_keys=True) + "\n").encode("ascii")


class TestWriteTrace:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_match_record_format(self, tmp_path, fmt):
        # b = e_1: drawing row 2 gives a zero sketch, so some steps do not move
        unit = attach_min_norm(LinearSystem(A=Matrix.from_dense(np.eye(2)),
                                            b=np.array([1.0, 0.0])))
        system = generate_gaussian_problem(40, 20, 20, 3.0, seed=2)
        scheme = PartitionBlock.from_permutation(40, 5, seed=2)
        traces = [
            # timed and tracked
            solve_basic(unit, SingleRowWeighted(), SolverConfig(seed=0, max_iters=50))[1],
            solve_ashbm(system, scheme, SolverConfig(seed=1))[1],
            # no residual column (NaN) and zero wall times
            solve_ashbm(system, scheme, SolverConfig(seed=1, track_residual=False,
                                                     record_timing=False))[1],
        ]
        assert not traces[0].moved.all()
        reference = _records_csv if fmt == "csv" else _records_json
        for i, trace in enumerate(traces):
            path = tmp_path / f"trace_{i}.{fmt}"
            cli.write_trace(path, trace, fmt)
            assert path.read_bytes() == reference(trace)


class TestConfigRoundtrip:
    def test_json_roundtrip(self):
        cfg = ExperimentConfig(
            problem={"kind": "generate", "m": 10, "n": 5, "r": 5, "kappa": 2.0},
            scheme="uniform:3", solver="scg", trials=4, seed=17, zeta=1.2,
            beta=0.5, tol=1e-9, max_iters=1234, out="somewhere", fmt="json",
            workers=2, track_residual=False, record_timing=False,
        )
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg


class TestSweep:
    def test_row_count_and_columns(self, tmp_path):
        out = tmp_path / "sw"
        rc = main(["sweep", "--m", "60", "--n", "20", "--r", "20", "--kappa", "2",
                   "--sampling", "partition:4", "--solver", "mbasic,ashbm",
                   "--p-list", "2,6", "--trials", "2", "--seed", "6",
                   "--tol", "1e-10", "--no-timing", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("p,solver,iters_median,full_iters_median,"
                            "final_rse_median,conv_factor_median,trials,failed")
        assert len(lines) == 1 + 2 * 2

    def test_degenerate_sweep_matches_solve(self, tmp_path):
        common = ["--m", "40", "--n", "20", "--r", "20", "--kappa", "2",
                  "--solver", "mbasic", "--trials", "3", "--seed", "8",
                  "--tol", "1e-10", "--no-timing"]
        sw = tmp_path / "sw"
        main(["sweep", "--sampling", "partition:1", "--p-list", "1",
              "--out", str(sw)] + common)
        run = tmp_path / "run"
        main(["solve", "--sampling", "partition:1", "--out", str(run)] + common)
        row = (sw / "sweep.csv").read_text().splitlines()[1].split(",")
        summary = _read_json(run / "summary.json")
        assert float(row[2]) == summary["iterations"]["median"]

    def test_failed_trials_are_counted(self, tmp_path, capsys):
        # beta = 0.99 makes every mrabk trial diverge; its cells are written
        # with NaN medians and no warning, and the sweep exits like solve
        out = tmp_path / "sw"
        rc = main(["sweep", "--m", "200", "--n", "50", "--r", "50", "--kappa", "5",
                   "--sampling", "partition:8", "--p-list", "8,16",
                   "--solver", "mrabk,ashbm", "--beta", "0.99", "--trials", "2",
                   "--max-iters", "20000", "--out", str(out)])
        assert rc == cli.EXIT_SOLVER_BREAKDOWN
        assert "RSE inf" in capsys.readouterr().err
        header, *lines = (out / "sweep.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert [(r["p"], r["solver"], r["trials"], r["failed"]) for r in rows] == [
            ("8", "mrabk", "2", "2"), ("8", "ashbm", "2", "0"),
            ("16", "mrabk", "2", "2"), ("16", "ashbm", "2", "0")]
        for r in rows:
            medians = [float(r[c]) for c in ("iters_median", "full_iters_median",
                                             "final_rse_median", "conv_factor_median")]
            assert np.isnan(medians).all() == (r["solver"] == "mrabk")

    def test_requires_block_scheme(self, tmp_path):
        rc = main(["sweep", "--m", "10", "--n", "5", "--r", "5", "--kappa", "2",
                   "--sampling", "row", "--p-list", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG_ERROR


class TestBound:
    def test_orthonormal_rows_factor(self, tmp_path):
        mtx = tmp_path / "I10.mtx"
        cli.write_matrix_market(mtx, Matrix.from_dense(np.eye(10)))
        out = tmp_path / "b"
        rc = main(["bound", "--matrix", str(mtx), "--sampling", "row",
                   "--out", str(out)])
        assert rc == 0
        payload = _read_json(out / "bound.json")
        assert payload["per_iter_factor"] == pytest.approx(0.9)
        assert payload["curve"][0] == pytest.approx(0.9)

    def test_matches_analysis_module(self, tmp_path):
        out = tmp_path / "b"
        rc = main(["bound", "--m", "500", "--n", "100", "--r", "100",
                   "--kappa", "5", "--seed", "7", "--sampling", "partition:30",
                   "--out", str(out)])
        assert rc == 0
        payload = _read_json(out / "bound.json")
        from momsolve.problems import generate_gaussian_problem

        sys_ = generate_gaussian_problem(500, 100, 100, 5.0, seed=7)
        scheme = PartitionBlock.from_permutation(500, 30, seed=7)
        rep = theoretical_bound(scheme, sys_.A, zeta=1.0)
        assert payload["per_iter_factor"] == pytest.approx(rep.per_iter_factor,
                                                           rel=1e-12)

    def test_matrix_file_skips_oracle(self, tmp_path, monkeypatch):
        def no_oracle(A, b, **kw):
            raise AssertionError("bound must not compute the min-norm solution")

        monkeypatch.setattr(problems, "min_norm_solution", no_oracle)
        mtx = tmp_path / "A.mtx"
        cli.write_matrix_market(mtx, Matrix.from_dense(np.eye(10)))
        rc = main(["bound", "--matrix", str(mtx), "--sampling", "partition:3",
                   "--out", str(tmp_path / "b")])
        assert rc == 0

    def test_inconsistent_rhs_reads_only_matrix(self, tmp_path):
        # the report depends only on A and the scheme, so a right-hand side
        # that solve would reject with exit 4 changes nothing here
        mtx = tmp_path / "A.mtx"
        cli.write_matrix_market(mtx, Matrix.from_dense([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
        rhs = tmp_path / "b.txt"
        cli.write_vector(rhs, np.array([0.0, 1.0, 0.0]))
        common = ["bound", "--matrix", str(mtx), "--sampling", "row"]
        assert main(common + ["--rhs", str(rhs), "--out", str(tmp_path / "with")]) == 0
        assert main(common + ["--out", str(tmp_path / "without")]) == 0
        assert ((tmp_path / "with" / "bound.json").read_bytes()
                == (tmp_path / "without" / "bound.json").read_bytes())

    def test_identity_scheme_rejected(self, tmp_path):
        rc = main(["bound", "--m", "10", "--n", "5", "--r", "5", "--kappa", "2",
                   "--sampling", "identity", "--out", str(tmp_path / "b")])
        assert rc == cli.EXIT_CONFIG_ERROR


class TestExitCodes:
    def test_unknown_solver(self, tmp_path):
        rc = main(["solve", "--m", "10", "--n", "5", "--r", "5", "--kappa", "2",
                   "--solver", "nope", "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG_ERROR

    def test_bad_scheme(self, tmp_path):
        rc = main(["solve", "--m", "10", "--n", "5", "--r", "5", "--kappa", "2",
                   "--sampling", "bogus", "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("command", ["solve", "bound"])
    def test_uniform_block_larger_than_m(self, tmp_path, capsys, command):
        out = tmp_path / "x"
        rc = main([command, "--m", "20", "--n", "10", "--r", "10", "--kappa", "2",
                   "--solver", "ashbm", "--sampling", "uniform:30", "--trials", "3",
                   "--out", str(out)])
        assert rc == cli.EXIT_CONFIG_ERROR
        assert "block size p=30 must satisfy 1 <= p <= m=20" in capsys.readouterr().err
        # rejected before any trial runs
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("flags", [["--trials", "-2", "--workers", "0"],
                                       ["--trials", "0"], ["--workers", "0"]],
                             ids=["both", "trials", "workers"])
    def test_trials_and_workers_below_one(self, tmp_path, capsys, command, flags):
        out = tmp_path / "x"
        argv = [command, "--m", "20", "--n", "10", "--r", "10", "--kappa", "2",
                "--sampling", "partition:4", "--out", str(out), *flags]
        if command == "sweep":
            argv += ["--p-list", "4"]
        rc = main(argv)
        assert rc == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert "must be an integer >= 1" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_config_file_trials_below_one(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            problem={"kind": "generate", "m": 30, "n": 15, "r": 15, "kappa": 2.0},
            out=str(tmp_path / "run")).to_dict()
        cfg["trials"] = 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg) + "\n")
        assert main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "run").exists()

    def test_missing_matrix_file(self, tmp_path):
        rc = main(["solve", "--matrix", str(tmp_path / "missing.mtx"),
                   "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG_ERROR

    def test_invalid_rank(self, tmp_path):
        rc = main(["solve", "--m", "10", "--n", "5", "--r", "9", "--kappa", "2",
                   "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG_ERROR

    def test_inconsistent_rhs(self, tmp_path):
        mtx = tmp_path / "A.mtx"
        cli.write_matrix_market(mtx, Matrix.from_dense([[1.0, 0.0], [0.0, 0.0]]))
        rhs = tmp_path / "b.txt"
        cli.write_vector(rhs, np.array([0.0, 1.0]))
        rc = main(["solve", "--matrix", str(mtx), "--rhs", str(rhs),
                   "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_INCONSISTENT

    def test_non_finite_rhs(self, tmp_path):
        mtx = tmp_path / "A.mtx"
        cli.write_matrix_market(mtx, Matrix.from_dense(np.eye(2)))
        rhs = tmp_path / "b.txt"
        rhs.write_text("1.0\nnan\n")
        rc = main(["solve", "--matrix", str(mtx), "--rhs", str(rhs),
                   "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG_ERROR

    def test_non_finite_matrix_entry(self, tmp_path):
        mtx = tmp_path / "A.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                       "2 2 2\n1 1 1.0\n2 2 inf\n")
        rc = main(["solve", "--matrix", str(mtx), "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG_ERROR

    def test_diverged_run(self, tmp_path):
        out = tmp_path / "x"
        rc = main(["solve", "--m", "200", "--n", "50", "--r", "50", "--kappa", "5",
                   "--solver", "mrabk", "--sampling", "partition:10",
                   "--beta", "0.999", "--max-iters", "20000",
                   "--out", str(out)])
        assert rc == cli.EXIT_SOLVER_BREAKDOWN
        (record,) = _read_json(out / "summary.json")["errors"]
        assert sorted(record) == ["message", "seed", "trial", "type"]
        assert (record["trial"], record["seed"]) == (0, trial_seed(0, 0))
        assert record["type"] == "DivergedError"
        assert record["message"].startswith("RSE ")

    def test_diverged_run_warns_nothing(self, tmp_path, capsys):
        # the overflow before the RSE check used to escape as a numpy
        # RuntimeWarning; with warnings as errors that was exit 1
        rc = main(["solve", "--m", "200", "--n", "50", "--r", "50", "--kappa", "5",
                   "--solver", "mrabk", "--sampling", "partition:10",
                   "--beta", "0.999", "--max-iters", "20000",
                   "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_SOLVER_BREAKDOWN
        assert "Warning" not in capsys.readouterr().err

    def test_solver_breakdown(self, tmp_path, monkeypatch):
        def boom(system, scheme, config, **kw):
            raise BreakdownError(f"forced at seed {config.seed}")

        monkeypatch.setitem(cli.SOLVER_IDS, "mbasic", boom)
        out = tmp_path / "x"
        rc = main(["solve", "--m", "10", "--n", "5", "--r", "5", "--kappa", "2",
                   "--solver", "mbasic", "--trials", "2", "--seed", "6",
                   "--out", str(out)])
        assert rc == cli.EXIT_SOLVER_BREAKDOWN
        summary = _read_json(out / "summary.json")
        assert summary["failed"] == 2
        assert summary["errors"] == [
            {"trial": i, "seed": trial_seed(6, i), "type": "BreakdownError",
             "message": f"forced at seed {trial_seed(6, i)}"}
            for i in range(2)
        ]


class TestWorkerDeterminism:
    def test_traces_independent_of_pool_size(self, tmp_path):
        common = ["solve", "--m", "60", "--n", "30", "--r", "30", "--kappa", "2",
                  "--solver", "mbasic", "--sampling", "partition:6",
                  "--trials", "4", "--seed", "13", "--tol", "1e-10",
                  "--no-timing"]
        a, b = tmp_path / "w1", tmp_path / "w4"
        assert main(common + ["--workers", "1", "--out", str(a)]) == 0
        assert main(common + ["--workers", "4", "--out", str(b)]) == 0
        for i in range(4):
            name = f"trace_{i:03d}.csv"
            assert (a / name).read_bytes() == (b / name).read_bytes()
