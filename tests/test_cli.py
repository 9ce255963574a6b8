"""End-to-end CLI tests: generate/solve/sweep/bound, formats, exit codes."""

import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from conftest import csr_rows, materialize, scaled_sparse, spy_eigsh
from momsolve import cli, linalg, problems
from momsolve.cli import ExperimentConfig, main
from momsolve.errors import (
    BreakdownError,
    DegenerateDirectionError,
    DivergedError,
    InconsistentSystemError,
    InvalidBlockSizeError,
    InvalidRankError,
    MatrixMarketParseError,
    MomsolveError,
    StalledSamplingError,
    UnsupportedError,
    ZeroMatrixError,
)
from momsolve.linalg import Matrix, spectral_quantities
from momsolve.problems import (
    LinearSystem,
    attach_min_norm,
    generate_gaussian_problem,
    load_matrix_market,
)
from momsolve.sampling import BlockSampler, PartitionBlock, parse_scheme
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

    def test_coordinate_matrix_never_densified(self, tmp_path, monkeypatch):
        # LSQR certifies the oracle of this well-conditioned file, and the
        # solvers and the residual tracker work on CSR rows
        rng = np.random.default_rng(5)
        mtx = tmp_path / "A.mtx"
        scipy.io.mmwrite(mtx, sp.random(80, 30, density=0.2, random_state=rng)
                         + sp.eye(80, 30))
        assert "coordinate" in mtx.read_text().splitlines()[0]

        def densify(*args, **kwargs):
            raise AssertionError("a coordinate .mtx was densified")

        monkeypatch.setattr(Matrix, "toarray", densify)
        for solver, sampling in (("cgne", "row"), ("ashbm", "partition:8")):
            out = tmp_path / solver
            rc = main(["solve", "--matrix", str(mtx), "--solver", solver,
                       "--sampling", sampling, "--trials", "1", "--seed", "2",
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
        path.write_text(json.dumps(cfg.to_dict()) + "\n")
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
            solve_basic(unit, materialize("row", unit.A), SolverConfig(seed=0, max_iters=50))[1],
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
    def test_json_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(
            problem={"kind": "generate", "m": 10, "n": 5, "r": 5, "kappa": 2.0},
            scheme="uniform:3", solver="scg", trials=4, seed=17, zeta=1.2,
            beta=0.5, tol=1e-9, max_iters=1234, out="somewhere", fmt="json",
            workers=2, track_residual=False, record_timing=False,
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()) + "\n")
        args = cli.build_parser().parse_args(["solve", "--config", str(path)])
        assert cli._config_from_args(args) == cfg


def _write_config(tmp_path, **fields):
    """A --config file of a small generated problem; ``fields`` override."""
    cfg = {"problem": {"kind": "generate", "m": 40, "n": 10, "r": 10, "kappa": 2.0},
           "scheme": "partition:4", "solver": "ashbm", "trials": 3, "seed": 2,
           "tol": 1e-10, "out": str(tmp_path / "file_out"), "record_timing": False, **fields}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg) + "\n")
    return str(path)


def _no_system(monkeypatch):
    def no_system(*args):
        raise AssertionError("a system was built")

    monkeypatch.setattr(cli, "build_system", no_system)
    monkeypatch.setattr(cli, "_load_system", no_system)


class TestConfigPrecedence:
    """Flags given with --config override the file key by key; the file
    or ExperimentConfig decides the rest."""

    def test_solve_flags_override_file(self, tmp_path):
        out = tmp_path / "o2"
        assert main(["solve", "--config", _write_config(tmp_path),
                     "--trials", "1", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["summary.json", "trace_000.csv"]
        summary = _read_json(out / "summary.json")
        assert summary["trials"] == 1
        assert summary["config"]["solver"] == "ashbm"
        assert not (tmp_path / "file_out").exists()

    @pytest.mark.parametrize("flags, solver", [([], "ashbm"), (["--solver", "scg"], "scg")])
    def test_sweep_runs_the_file_solver_unless_given(self, tmp_path, flags, solver):
        out = tmp_path / "sw"
        assert main(["sweep", "--config", _write_config(tmp_path), "--p-list", "4,8",
                     "--trials", "1", "--out", str(out), *flags]) == 0
        header, *lines = (out / "sweep.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert [(r["p"], r["solver"]) for r in rows] == [("4", solver), ("8", solver)]

    def test_bound_flag_overrides_file_scheme(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert main(["bound", "--config", _write_config(tmp_path),
                     "--sampling", "partition:8", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["scheme"] == "partition:8"
        assert _read_json(out / "bound.json")["scheme"] == "partition:8"

    def test_size_flag_overrides_file_problem_key(self, tmp_path):
        path = _write_config(tmp_path, trials=1)
        assert main(["solve", "--config", path, "--kappa", "5",
                     "--out", str(tmp_path / "file")]) == 0
        assert main(["solve", "--m", "40", "--n", "10", "--r", "10", "--kappa", "5",
                     "--sampling", "partition:4", "--solver", "ashbm", "--seed", "2",
                     "--tol", "1e-10", "--no-timing", "--out", str(tmp_path / "flags")]) == 0
        summary = _read_json(tmp_path / "file" / "summary.json")
        assert summary["config"]["problem"] == {"kind": "generate", "m": 40, "n": 10,
                                                "r": 10, "kappa": 5.0}
        assert ((tmp_path / "file" / "trace_000.csv").read_bytes()
                == (tmp_path / "flags" / "trace_000.csv").read_bytes())

    def test_size_flag_replaces_file_matrix_problem(self, tmp_path):
        path = _write_config(tmp_path, problem={"kind": "mtx", "matrix": "A.mtx"})
        args = cli.build_parser().parse_args(["solve", "--config", path, "--m", "60"])
        assert cli._config_from_args(args).problem == {**cli._GENERATE_PROBLEM, "m": 60}

    def test_config_without_out_writes_to_out(self, tmp_path, monkeypatch):
        path = _write_config(tmp_path, trials=1)
        cfg = _read_json(path)
        del cfg["out"]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--config", path]) == 0
        assert (tmp_path / "out" / "summary.json").exists()
        assert not (tmp_path / "summary.json").exists()


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
        assert capsys.readouterr().err.startswith("solver breakdown: RSE ")
        header, *lines = (out / "sweep.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert [(r["p"], r["solver"], r["trials"], r["failed"]) for r in rows] == [
            ("8", "mrabk", "2", "2"), ("8", "ashbm", "2", "0"),
            ("16", "mrabk", "2", "2"), ("16", "ashbm", "2", "0")]
        for r in rows:
            medians = [float(r[c]) for c in ("iters_median", "full_iters_median",
                                             "final_rse_median", "conv_factor_median")]
            assert np.isnan(medians).all() == (r["solver"] == "mrabk")

    def test_error_growth_leaves_factor_empty(self, tmp_path):
        # mrabk at p=10 ends with its error above the start; that trial has
        # no contraction factor, so its cell is NaN and the sweep succeeds
        out = tmp_path / "sw"
        rc = main(["sweep", "--m", "200", "--n", "50", "--r", "50", "--kappa", "10",
                   "--solver", "mrabk,basic", "--sampling", "partition:10",
                   "--p-list", "10,20", "--beta", "0.95", "--max-iters", "10",
                   "--seed", "1", "--no-timing", "--out", str(out)])
        assert rc == 0
        header, *lines = (out / "sweep.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert [(r["p"], r["solver"], r["failed"]) for r in rows] == [
            ("10", "mrabk", "0"), ("10", "basic", "0"),
            ("20", "mrabk", "0"), ("20", "basic", "0")]
        assert float(rows[0]["final_rse_median"]) > 1.0
        assert np.isnan(float(rows[0]["conv_factor_median"]))
        for r in rows[1:]:
            assert 0.0 < float(r["conv_factor_median"]) < 1.0

    def test_already_solved_system(self, tmp_path):
        # a zero right-hand side is solved by x0 = 0: its trials take no
        # step, have no contraction factor, and the sweep succeeds
        prob = tmp_path / "prob"
        main(["generate", "30", "10", "10", "2", "--seed", "3", "--out", str(prob)])
        cli.write_vector(prob / "zero.txt", np.zeros(30))
        out = tmp_path / "sw"
        rc = main(["sweep", "--matrix", str(prob / "A.mtx"), "--rhs", str(prob / "zero.txt"),
                   "--sampling", "partition:5", "--p-list", "5,10",
                   "--solver", "mbasic,ashbm", "--trials", "2", "--out", str(out)])
        assert rc == 0
        header, *lines = (out / "sweep.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert len(rows) == 4
        for r in rows:
            assert (r["iters_median"], r["failed"]) == ("0.0", "0")
            assert np.isnan(float(r["conv_factor_median"]))

    def test_requires_block_scheme(self, tmp_path):
        rc = main(["sweep", "--m", "10", "--n", "5", "--r", "5", "--kappa", "2",
                   "--sampling", "row", "--p-list", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG_ERROR


class TestSharedSetUp:
    """A ``solve`` command factors ``[A | −b]`` once, however many trials it
    runs, a ``sweep`` never, and their runs equal runs on fresh systems."""

    PROBLEM = ["--m", "60", "--n", "20", "--r", "20", "--kappa", "3", "--seed", "4",
               "--tol", "1e-10", "--no-timing"]

    @staticmethod
    def _count_factors(monkeypatch, delay=0.0):
        # mode "r" is the residual factor; generating the problem runs two
        # reduced QRs of its own
        calls = []
        qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            calls.append(kwargs.get("mode", "reduced"))
            time.sleep(delay)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        return calls

    @staticmethod
    def _fresh_run(argv, solver, spec, trial):
        """Trial ``trial`` of a command, run by the library on a system of
        its own."""
        args = cli.build_parser().parse_args(argv)
        cfg = dataclasses.replace(cli._config_from_args(args, solver), scheme=spec)
        system = cli.build_system(cfg)
        scheme = parse_scheme(cfg.scheme).materialize(system.A, cfg.seed)
        return cli.SOLVER_IDS[solver](system, scheme, cfg.solver_config(trial))[1]

    def test_solve_trials_factor_once(self, tmp_path, monkeypatch):
        calls = self._count_factors(monkeypatch)
        argv = ["solve", "--solver", "ashbm", "--sampling", "partition:4", "--trials", "3",
                "--out", str(tmp_path / "run")] + self.PROBLEM
        assert main(argv) == 0
        assert calls.count("r") == 1
        for i in range(3):
            trace = self._fresh_run(argv, "ashbm", "partition:4", i)
            cli.write_trace(tmp_path / "lib.csv", trace, "csv")
            assert ((tmp_path / "run" / f"trace_{i:03d}.csv").read_bytes()
                    == (tmp_path / "lib.csv").read_bytes())

    def test_sweep_cells_factor_no_residual(self, tmp_path, monkeypatch):
        calls = self._count_factors(monkeypatch)
        argv = ["sweep", "--solver", "mbasic,ashbm", "--sampling", "partition:4",
                "--p-list", "4,8", "--trials", "2",
                "--out", str(tmp_path / "sw")] + self.PROBLEM
        assert main(argv) == 0
        assert "r" not in calls
        header, *lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            spec = f"partition:{row['p']}"
            traces = [self._fresh_run(argv, row["solver"], spec, i) for i in range(2)]
            assert float(row["iters_median"]) == np.median([t.iterations for t in traces])
            assert float(row["final_rse_median"]) == np.median([t.final_rse for t in traces])


def test_sweep_trials_neither_track_nor_time(tmp_path, monkeypatch):
    # sweep.csv reads iterations and final RSEs only, so no trial records
    # a residual or a wall time, whatever the flags or the config file say
    configs = []

    def spying(solve):
        def run(*args):
            configs.append(args[-1])
            return solve(*args)
        return run

    for solver in ("mbasic", "ashbm"):
        monkeypatch.setitem(cli.SOLVER_IDS, solver, spying(cli.SOLVER_IDS[solver]))
    rc = main(["sweep", "--m", "60", "--n", "20", "--r", "20", "--kappa", "3",
               "--solver", "mbasic,ashbm", "--sampling", "partition:4", "--p-list", "4,8",
               "--trials", "2", "--out", str(tmp_path / "sw")])
    assert rc == 0
    assert len(configs) == 8
    assert all(not c.track_residual and not c.record_timing for c in configs)


class TestOneRunner:
    """``run_trials`` binds each scheme once per process and runs every cell
    of a command in one pool."""

    PROBLEM = ["--m", "60", "--n", "20", "--r", "20", "--kappa", "3", "--seed", "4",
               "--tol", "1e-10", "--no-timing"]

    def test_trials_of_a_cell_share_their_blocks(self, monkeypatch):
        # every block each run's key stream hands out, chunk by chunk
        drawn = []
        key_chunks = BlockSampler.key_chunks

        def recording_chunks(sampler, rng):
            drawn.append([])
            for keys in key_chunks(sampler, rng):
                drawn[-1].extend(sampler.blocks[i][0] for i in keys.tolist())
                yield keys

        monkeypatch.setattr(BlockSampler, "key_chunks", recording_chunks)
        cfg = ExperimentConfig(problem={"kind": "generate", "m": 60, "n": 20, "r": 20,
                                        "kappa": 3.0},
                               scheme="partition:30", solver="mbasic", trials=2,
                               max_iters=20, record_timing=False)
        system = cli.build_system(cfg)
        (results,) = cli.run_trials(system, [cfg], 1)
        assert all(isinstance(r, cli.Trace) for r in results)
        first, second = drawn
        assert len(first) >= 20 and len(second) >= 20
        # two blocks, each one array that both trials draw
        assert len({id(block) for block in first + second}) == 2

    def test_cells_of_one_scheme_and_another_seed_bind_apart(self):
        # one partition string under two seeds is two partitions
        cfg = ExperimentConfig(problem={"kind": "generate", "m": 60, "n": 20, "r": 20,
                                        "kappa": 3.0},
                               scheme="partition:8", solver="mbasic", trials=2,
                               tol=1e-10, record_timing=False)
        other = dataclasses.replace(cfg, seed=1)
        system = cli.build_system(cfg)
        together = cli.run_trials(system, [cfg, other], 1)
        apart = [cli.run_trials(system, [c], 1)[0] for c in (cfg, other)]
        assert [[t.rse.tolist() for t in cell] for cell in together] == \
            [[t.rse.tolist() for t in cell] for cell in apart]

    @staticmethod
    def _count_pools(monkeypatch):
        pools, tasks = [], []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

            def submit(self, fn, /, *args, **kwargs):
                tasks.append(fn)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        return pools, tasks

    def test_one_worker_loads_no_pool(self, tmp_path):
        # the process pool is imported where a pool starts, so a run that
        # needs none does not pay for the module
        code = ("import sys; from momsolve import cli; "
                "rc = cli.main(sys.argv[1:]); "
                "sys.exit(rc or int('concurrent.futures.process' in sys.modules))")
        argv = ["solve", "--trials", "2", "--workers", "1",
                "--out", str(tmp_path / "one")] + self.PROBLEM
        src = str(Path(__file__).parent.parent / "src")
        subprocess.run([sys.executable, "-c", code, *argv], check=True,
                       env={**os.environ, "PYTHONPATH": src})

    @pytest.mark.parametrize("trials", ["1", "2"])
    def test_sweep_runs_in_one_pool(self, tmp_path, monkeypatch, trials):
        # with one trial per cell the (cell, trial) tasks still fill the pool
        pools, tasks = self._count_pools(monkeypatch)
        argv = ["sweep", "--solver", "mbasic,ashbm", "--sampling", "partition:8",
                "--p-list", "8,16", "--trials", trials, "--workers", "2",
                "--out", str(tmp_path / "sw")] + self.PROBLEM
        assert main(argv) == 0
        assert len(pools) == 1
        assert len(tasks) == 2
        assert len((tmp_path / "sw" / "sweep.csv").read_text().splitlines()) == 1 + 4


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

    @pytest.mark.parametrize("spec", ["uniform:11", "partition:11"])
    def test_oversized_block_fails_before_spectral_work(self, tmp_path, monkeypatch, spec):
        def no_spectrum(A):
            raise AssertionError("a block size above m must exit before spectral_quantities")

        monkeypatch.setattr("momsolve.analysis.spectral_quantities", no_spectrum)
        rc = main(["bound", "--m", "10", "--n", "5", "--r", "5", "--kappa", "2",
                   "--sampling", spec, "--out", str(tmp_path / "b")])
        assert rc == cli.EXIT_CONFIG_ERROR
        assert not (tmp_path / "b" / "bound.json").exists()

    def test_identity_scheme_rejected(self, tmp_path):
        rc = main(["bound", "--m", "10", "--n", "5", "--r", "5", "--kappa", "2",
                   "--sampling", "identity", "--out", str(tmp_path / "b")])
        assert rc == cli.EXIT_CONFIG_ERROR

    def test_well_conditioned_csr_never_densifies(self, tmp_path, monkeypatch):
        def densify(*args, **kwargs):
            raise AssertionError("bound must not densify a well-conditioned CSR A")

        monkeypatch.setattr(Matrix, "toarray", densify)
        monkeypatch.setattr(linalg, "_singular_values", densify)
        mtx = tmp_path / "A.mtx"
        rvs = np.random.default_rng(3).standard_normal
        scipy.io.mmwrite(str(mtx), sp.random(400, 100, density=0.05, random_state=3,
                                              data_rvs=rvs))
        assert load_matrix_market(mtx).is_sparse
        rc = main(["bound", "--matrix", str(mtx), "--sampling", "partition:8",
                   "--out", str(tmp_path / "b")])
        assert rc == 0
        assert _read_json(tmp_path / "b" / "bound.json")["per_iter_factor"] < 1.0

    def test_csr_lanczos_report_repeats(self, tmp_path, monkeypatch):
        # a CSR file sparse enough for the Lanczos extremes: fixed start
        # vector, so two runs write the same bytes
        calls = spy_eigsh(monkeypatch)
        mtx = tmp_path / "A.mtx"
        scipy.io.mmwrite(str(mtx), csr_rows(2400, 600, 4, seed=5))
        for out in ("b1", "b2"):
            assert main(["bound", "--matrix", str(mtx), "--sampling", "partition:8",
                         "--out", str(tmp_path / out)]) == 0
        assert calls == ["SA", "LA"] * 2
        assert ((tmp_path / "b1" / "bound.json").read_bytes()
                == (tmp_path / "b2" / "bound.json").read_bytes())

    @pytest.mark.parametrize("factor,max_iters,length", [
        (0.9999, 10 ** 6, 368_396), (0.5, 30, 30), (1.0 - 1e-7, 2 * 10 ** 6, 10 ** 6),
        (0.0, 10 ** 6, 1), (-0.5, 10 ** 6, 1), (1.0, 2 * 10 ** 6, 10 ** 6),
        (1e-300, 10 ** 6, 1), (10 ** (-16 / 3000), 10 ** 6, 3001),
    ], ids=["near-one", "max-iters-cap", "million-cap", "zero", "negative", "one",
            "one-power", "cut-past-log-estimate"])
    def test_curve_matches_sequential_loop(self, factor, max_iters, length):
        # the loop bound.json's curve came from; it stops at the first power
        # below 1e-16, at max_iters or at 10^6, whichever comes first. The
        # last case's log(1e-16)/log(factor) is 3000.00000001: its cut is
        # one power past the estimate's whole part
        curve, value = [], 1.0
        for _ in range(min(max_iters, 10 ** 6)):
            value *= factor
            curve.append(value)
            if value < 1e-16:
                break
        assert len(curve) == length
        assert cli.bound_curve(factor, max_iters).tolist() == curve


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

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    @pytest.mark.parametrize("command", [["bound"], ["solve", "--solver", "ashbm"]],
                             ids=["bound", "solve"])
    def test_badly_scaled_matrix(self, tmp_path, capfd, scale, command):
        # squares of the entries overflow or underflow: exit 2 with the
        # scale named, not a LAPACK failure, a breakdown or "zero matrix"
        mtx = tmp_path / "A.mtx"
        scipy.io.mmwrite(str(mtx), scaled_sparse(scale))
        rc = main([*command, "--matrix", str(mtx), "--sampling", "partition:8",
                   "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG_ERROR
        captured = capfd.readouterr()
        assert "config error: badly scaled system: max|A_ij| = 1.46e" in captured.err
        assert "DLASCL" not in captured.out + captured.err

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

    @pytest.mark.parametrize("payload", [
        lambda cfg: {**cfg, "bogus": 1},
        lambda cfg: {k: v for k, v in cfg.items() if k != "problem"},
        lambda cfg: [cfg],
        lambda cfg: {**cfg, "problem": "x"},
        lambda cfg: {**cfg, "zeta": "x"},
        lambda cfg: {**cfg, "max_iters": 1.5},
        lambda cfg: {**cfg, "problem": {"kind": "mtx", "matrix": "A.mtx", "rsh": "b.txt"}},
        lambda cfg: {**cfg, "problem": {**cfg["problem"], "m": 30.7}},
        lambda cfg: {**cfg, "problem": {**cfg["problem"], "m": True}},
        lambda cfg: {**cfg, "problem": {"kind": "generate", "n": 15, "r": 15, "kappa": 2.0}},
        lambda cfg: {**cfg, "problem": {"kind": "csv", "matrix": "A.csv"}},
        lambda cfg: {**cfg, "problem": {**cfg["problem"], "kind": ["generate"]}},
        lambda cfg: {**cfg, "problem": {"kind": "mtx", "matrix": None}},
    ], ids=["unknown-key", "no-problem", "not-an-object", "problem-not-an-object",
            "zeta-not-a-number", "max-iters-not-an-integer", "problem-misspelled-key",
            "problem-float-m", "problem-bool-m", "problem-missing-m", "problem-unknown-kind",
            "problem-unhashable-kind", "problem-matrix-none"])
    def test_malformed_config_file(self, tmp_path, capsys, monkeypatch, payload):
        _no_system(monkeypatch)
        cfg = ExperimentConfig(
            problem={"kind": "generate", "m": 30, "n": 15, "r": 15, "kappa": 2.0},
            out=str(tmp_path / "run")).to_dict()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload(cfg)) + "\n")
        assert main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--solver", "mrabk", "--sampling", "row"],
        ["sweep", "--solver", "mrabk", "--sampling", "uniform:8", "--p-list", "8"],
        ["sweep", "--solver", "mbasic,mrabk", "--sampling", "uniform:8", "--p-list", "8"],
    ], ids=["solve-row", "sweep-uniform", "sweep-second-solver"])
    def test_mrabk_without_partition(self, tmp_path, capsys, monkeypatch, argv):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_trials", no_trials)
        out = tmp_path / "x"
        rc = main([*argv, "--m", "40", "--n", "10", "--r", "10", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: mrabk requires partition:<p> sampling")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--solver", "nope"],
        ["sweep", "--solver", "mbasic,nope", "--sampling", "partition:8", "--p-list", "8"],
    ], ids=["solve", "sweep-second-solver"])
    def test_unknown_solver_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, argv):
        def no_work(*args):
            raise AssertionError("the command went past its checks")

        monkeypatch.setattr(cli, "build_system", no_work)
        monkeypatch.setattr(cli, "run_trials", no_work)
        out = tmp_path / "x"
        rc = main([*argv, "--m", "40", "--n", "10", "--r", "10", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == "config error: unknown solver 'nope'\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--sampling", "bogus"],
        ["solve", "--solver", "cgne", "--sampling", "bogus"],
        ["solve", "--zeta", "3"],
        ["solve", "--solver", "ashbm", "--beta", "1.5"],
        ["sweep", "--sampling", "partition:8", "--p-list", "8,0"],
        ["bound", "--sampling", "partition:8", "--beta", "1.5"],
        ["solve", "--rhs", "b.txt"],
        ["solve", "--matrix", "A.mtx"],
    ], ids=["scheme", "scheme-with-cgne", "zeta", "beta", "sweep-p-zero", "bound-beta",
            "rhs-without-matrix", "matrix-with-size"])
    def test_config_errors_need_no_system(self, tmp_path, capsys, monkeypatch, argv):
        # every field is checked, also where the command ignores it
        _no_system(monkeypatch)
        out = tmp_path / "x"
        rc = main([*argv, "--m", "40", "--n", "10", "--r", "10", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert captured.out == ""
        assert not out.exists()

    def test_config_file_format_needs_no_system(self, tmp_path, capsys, monkeypatch):
        _no_system(monkeypatch)
        cfg = ExperimentConfig(
            problem={"kind": "generate", "m": 30, "n": 15, "r": 15, "kappa": 2.0},
            out=str(tmp_path / "run")).to_dict()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "fmt": "xml"}) + "\n")
        assert main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err == "config error: unknown format 'xml'\n"
        assert captured.out == ""
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("scheme", ["partition:8", "uniform:8"])
    def test_sweep_block_above_m_runs_no_cell(self, tmp_path, capsys, monkeypatch, scheme):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_trials", no_trials)
        rc = main(["sweep", "--m", "40", "--n", "10", "--r", "10", "--sampling", scheme,
                   "--p-list", "8,50", "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == ("config error: block size p=50 must satisfy "
                                           "1 <= p <= m=40\n")

    def test_stalled_identity_run_reports_its_one_draw(self, tmp_path, capsys):
        # the identity scheme has one sample, so its rejection loop stops
        # after one draw, and the message says so
        rc = main(["solve", "--m", "40", "--n", "10", "--r", "10", "--kappa", "2",
                   "--solver", "mbasic", "--sampling", "identity", "--tol", "1e-30",
                   "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_SOLVER_BREAKDOWN
        assert capsys.readouterr().err == ("solver breakdown: 1 consecutive zero sketches "
                                           "with residual above tolerance\n")

    # every library error, by the exit code the README gives it
    EXIT_CODES = {
        ZeroMatrixError: 2, InvalidRankError: 2, UnsupportedError: 2,
        MatrixMarketParseError: 2, InvalidBlockSizeError: 2, InconsistentSystemError: 4,
        BreakdownError: 3, StalledSamplingError: 3, DegenerateDirectionError: 3,
        DivergedError: 3,
    }

    def test_every_error_has_an_exit_code(self):
        def subclasses(cls):
            return {cls}.union(*(subclasses(c) for c in cls.__subclasses__()))

        assert subclasses(MomsolveError) - {MomsolveError} == set(self.EXIT_CODES)

    @pytest.mark.parametrize("error", list(EXIT_CODES), ids=lambda e: e.__name__)
    def test_error_exit_code(self, tmp_path, capsys, monkeypatch, error):
        def failing_build(cfg):
            raise error("forced")

        monkeypatch.setattr(cli, "build_system", failing_build)
        rc = main(["solve", "--m", "20", "--n", "10", "--r", "10",
                   "--out", str(tmp_path / "x")])
        assert rc == self.EXIT_CODES[error]
        assert capsys.readouterr().err.endswith(": forced\n")

    def test_matrix_directory(self, tmp_path, capsys):
        rc = main(["solve", "--matrix", str(tmp_path), "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("command, sub", [("solve", ""), ("bound", "sub")])
    def test_out_through_a_file(self, tmp_path, capsys, monkeypatch, command, sub):
        _no_system(monkeypatch)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / sub if sub else blocker
        rc = main([command, "--m", "20", "--n", "10", "--r", "10", "--sampling",
                   "partition:4", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (f"config error: out {str(out)!r}: "
                                           f"{blocker} is not a directory\n")
        assert blocker.read_text() == ""

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

    def test_run_whose_error_grows_finite_diverges(self, tmp_path, capsys):
        # at the default beta the squared error passes ||x*||²/eps² long
        # before it overflows; both trials stop there, not at --max-iters,
        # and the message names the fixed step and the beta that diverged
        out = tmp_path / "x"
        rc = main(["solve", "--solver", "mrabk", "--sampling", "partition:10",
                   "--m", "80", "--n", "200", "--r", "80", "--kappa", "10", "--seed", "2",
                   "--max-iters", "6000", "--trials", "2", "--out", str(out)])
        assert rc == cli.EXIT_SOLVER_BREAKDOWN
        summary = _read_json(out / "summary.json")
        assert [e["type"] for e in summary["errors"]] == ["DivergedError"] * 2
        err = capsys.readouterr().err
        assert err.startswith("solver breakdown: RSE ") and " at step " in err
        assert "fixed step 1/(tau ||A||_F^2) = " in err and "beta = 0.7;" in err

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
                  "--trials", "8", "--seed", "13", "--tol", "1e-10",
                  "--no-timing"]
        a, b = tmp_path / "w1", tmp_path / "w8"
        assert main(common + ["--workers", "1", "--out", str(a)]) == 0
        # more workers than cores: the pool is capped at the core count
        assert main(common + ["--workers", "8", "--out", str(b)]) == 0
        for i in range(8):
            name = f"trace_{i:03d}.csv"
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_failures_cross_the_process_boundary(self, tmp_path):
        common = ["solve", "--m", "200", "--n", "50", "--r", "50", "--kappa", "5",
                  "--solver", "mrabk", "--sampling", "partition:10",
                  "--beta", "0.999", "--max-iters", "20000", "--trials", "3",
                  "--no-timing"]
        summaries = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            rc = main(common + ["--workers", workers, "--out", str(out)])
            assert rc == cli.EXIT_SOLVER_BREAKDOWN
            summary = _read_json(out / "summary.json")
            del summary["config"]["workers"], summary["config"]["out"]
            summaries.append(summary)
        assert summaries[0] == summaries[1]
        assert [e["type"] for e in summaries[0]["errors"]] == ["DivergedError"] * 3

    def test_sweep_independent_of_pool_size(self, tmp_path):
        common = ["sweep", "--m", "60", "--n", "30", "--r", "30", "--kappa", "2",
                  "--sampling", "partition:8", "--p-list", "8,16",
                  "--solver", "mbasic,ashbm,mrabk", "--trials", "4", "--seed", "5",
                  "--tol", "1e-10", "--no-timing"]
        a, b = tmp_path / "w1", tmp_path / "w2"
        rc = main(common + ["--workers", "1", "--out", str(a)])
        assert main(common + ["--workers", "2", "--out", str(b)]) == rc
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
