"""The compiled heavy-ball kernel against the NumPy loop it replaces on
dense and CSR blocks, partition and ``uniform:<p>``: the same draws, stops
and counts, and iterates equal to rounding."""

import gc
import json
import os
import stat
import sysconfig

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import csr_rows, materialize
from momsolve import _native, cli, solvers
from momsolve.errors import DivergedError, MomsolveError, StalledSamplingError
from momsolve.linalg import Matrix
from momsolve.problems import LinearSystem, attach_min_norm, generate_gaussian_problem
from momsolve.sampling import UNIFORM_SUPPORT_CAP, BlockSampler, PartitionBlock, UniformBlock
from momsolve.solvers import (
    SOLVER_IDS,
    SolverConfig,
    solve_ashbm,
    solve_basic,
    solve_modified_basic,
    solve_mrabk,
    step_engine,
)

pytestmark = pytest.mark.skipif(solvers._KERNEL is None,
                                reason=f"no compiled kernel: {solvers._KERNEL_FAILURE}")

CHUNK = 256  # keys per chunk of the sampler's stream
_SYSTEMS = {
    "tall": lambda: generate_gaussian_problem(120, 40, 40, 5.0, seed=1),
    "rank_deficient": lambda: generate_gaussian_problem(80, 40, 20, 5.0, seed=2),
    "wide": lambda: generate_gaussian_problem(30, 60, 30, 5.0, seed=3),
}
_SOLVERS = {"basic": solve_basic, "mbasic": solve_modified_basic, "ashbm": solve_ashbm,
            "mrabk": solve_mrabk}
# mrabk steps on partitions only
_UNIFORM_SOLVERS = {name: _SOLVERS[name] for name in ("basic", "mbasic", "ashbm")}


def _csr_system(m, n):
    A = Matrix.from_scipy(csr_rows(m, n, 5, seed=4))
    return attach_min_norm(LinearSystem(A=A, b=A.matvec(np.ones(n))))


def _csr_with_zero_row(M, row):
    """The consistent system of the CSR M with its row ``row`` emptied."""
    M = M.tolil()
    M[row, :] = 0.0
    A = Matrix.from_scipy(M.tocsr())
    A.data.eliminate_zeros()
    assert A.data.indptr[row] == A.data.indptr[row + 1]
    return attach_min_norm(LinearSystem(A=A, b=A.matvec(np.linspace(-1.0, 2.0, A.cols))))


# every CSR system has an empty row; the rank-deficient one has rank 20,
# its last 20 columns repeating its first 20
_CSR_SYSTEMS = {
    "tall": lambda: _csr_with_zero_row(csr_rows(120, 40, 5, seed=1), 7),
    "rank_deficient": lambda: _csr_with_zero_row(
        sp.hstack([csr_rows(80, 20, 3, seed=2)] * 2, format="csr"), 11),
    "wide": lambda: _csr_with_zero_row(csr_rows(30, 60, 5, seed=3), 2),
}


def _cfg(**kw):
    base = dict(rse_tolerance=1e-12, max_iters=1500, seed=3, record_timing=False)
    base.update(kw)
    return SolverConfig(**base)


def _numpy_engine(monkeypatch, reason="forced"):
    monkeypatch.setattr(solvers, "_KERNEL", None)
    monkeypatch.setattr(solvers, "_KERNEL_FAILURE", reason)


def _outcome(solve, system, scheme, config, keep=False):
    """(state, trace), or the error's type and message."""
    try:
        return solve(system, scheme, config, keep_iterates=keep)
    except MomsolveError as exc:
        return type(exc), str(exc)


def _both(monkeypatch, solve, system, scheme, config, keep=False):
    native = _outcome(solve, system, scheme, config, keep)
    with monkeypatch.context() as patch:
        _numpy_engine(patch)
        reference = _outcome(solve, system, scheme, config, keep)
    return native, reference


def _window_keys(monkeypatch):
    """The list that the keys logged in each window are appended to, one
    array per flush, from now on."""
    logged, flush = [], solvers._Window.flush

    def recording(window, state):
        logged.append(window.keys[:int(window.fill[0])].copy())
        flush(window, state)

    monkeypatch.setattr(solvers._Window, "flush", recording)
    return logged


def _numpy_distance_to_cgne(monkeypatch, system, sampler, config):
    """The largest relative distance of the NumPy loop's ashbm iterates on
    the identity from CGNE's, which they equal in exact arithmetic."""
    with monkeypatch.context() as patch:
        _numpy_engine(patch)
        _, ref = solve_ashbm(system, sampler, config, keep_iterates=True)
    _, cg = solvers.solve_cgne(system, config, keep_iterates=True)
    return max(np.linalg.norm(x - z) / np.linalg.norm(z) for x, z in zip(ref.iterates, cg.iterates))


def _close(a, b, rel=1e-12):
    scale = max(float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(np.asarray(a) - b)) <= rel * scale


def _step_of(error):
    """The type of the error and the step a DivergedError names; its RSE
    may differ in its last digits."""
    kind, message = error
    return kind, message.split(" at step ")[1].split()[0] if kind is DivergedError else message


def _assert_same_run(native, reference, system, config, keep, rel=1e-12):
    if isinstance(reference[0], type):  # both raised, at the same step
        assert _step_of(native) == _step_of(reference)
        return
    (state, trace), (ref_state, ref) = native, reference
    assert trace.iterations == ref.iterations and trace.reason == ref.reason
    assert trace.sample_draws == ref.sample_draws
    assert trace.fallback_steps == ref.fallback_steps
    assert trace.moved.tobytes() == ref.moved.tobytes()
    assert _close(state.x, ref_state.x, rel)
    # sqrt(rse) is ||x − x*|| / ||x*||, so iterates within rel of each
    # other give errors within rel·||x|| / ||x*|| <= rel·(1 + sqrt(rse))
    err, ref_err = np.sqrt(trace.rse), np.sqrt(ref.rse)
    assert np.all(np.abs(err - ref_err) <= rel * (1.0 + ref_err) + 1e-15)
    if config.track_residual:
        # the residual channel's tolerance, and ||A (x − y)|| <= ||A||_F·||x − y||
        slack = 1e-10 * (1.0 + np.linalg.norm(system.b))
        reach = rel * np.sqrt(system.A.fro_norm_sq) * np.linalg.norm(system.min_norm)
        assert np.all(np.abs(trace.residual_norm - ref.residual_norm)
                      <= slack + reach * (1.0 + ref_err))
    else:
        assert np.isnan(trace.residual_norm).all()
    assert (trace.wall_nanos > 0).all() if config.record_timing else \
        not trace.wall_nanos.any()
    assert len(trace.iterates) == (len(trace) if keep else 0)
    assert all(_close(x, y, rel) for x, y in zip(trace.iterates, ref.iterates))


class TestEqualsTheNumpyLoop:
    @pytest.mark.parametrize("track, timing, keep", [(False, False, False), (True, True, True),
                                                     (True, False, False), (False, True, True)],
                             ids=["bare", "tracked-timed-kept", "tracked", "timed-kept"])
    @pytest.mark.parametrize("spec", ["row", "partition:4", "partition:10", "identity"])
    @pytest.mark.parametrize("solver", list(_SOLVERS))
    @pytest.mark.parametrize("kind", list(_SYSTEMS))
    def test_grid(self, monkeypatch, kind, solver, spec, track, timing, keep):
        system = _SYSTEMS[kind]()
        sampler = BlockSampler(materialize(spec, system.A, 5), system)
        assert step_engine(solver, system.A) == "native"
        config = _cfg(track_residual=track, record_timing=timing)
        native, reference = _both(monkeypatch, _SOLVERS[solver], system, sampler, config, keep)
        rel = 1e-12
        if (kind, solver, spec) == ("wide", "ashbm", "identity"):
            # ashbm on the identity is CG, whose rounding grows once its
            # directions lose conjugacy: from step 15 of 23 the two engines
            # part about as far as the NumPy loop parts from CGNE
            rel = 2 * _numpy_distance_to_cgne(monkeypatch, system, sampler, config)
        _assert_same_run(native, reference, system, config, keep, rel)


def _csr_runs():
    """(solver, spec) on CSR blocks: every heavy-ball solver under every
    family it accepts (mrabk steps on partitions only)."""
    return [pytest.param(solver, spec, id=f"{solver}-{spec}")
            for spec in ("row", "partition:4", "partition:10", "identity", "uniform:4")
            for solver in (_UNIFORM_SOLVERS if spec.startswith("uniform") else _SOLVERS)]


class TestCsrEqualsTheNumpyLoop:
    """The kernel reads a CSR block's rows in place from the sampler's
    scaled CSR copy and carries a tracked run's Ax − b itself: the same
    runs as the NumPy loop's scipy products, under every family."""

    @pytest.mark.parametrize("track, timing, keep", [(False, False, False), (True, True, True),
                                                     (True, False, False), (False, True, True)],
                             ids=["bare", "tracked-timed-kept", "tracked", "timed-kept"])
    @pytest.mark.parametrize("solver, spec", _csr_runs())
    @pytest.mark.parametrize("kind", list(_CSR_SYSTEMS))
    def test_grid(self, monkeypatch, kind, solver, spec, track, timing, keep):
        system = _CSR_SYSTEMS[kind]()
        sampler = BlockSampler(materialize(spec, system.A, 5), system)
        assert step_engine(solver, system.A) == "native"
        config = _cfg(track_residual=track, record_timing=timing)
        calls, loop = [], solvers._native_loop
        monkeypatch.setattr(solvers, "_native_loop", lambda *a: calls.append(a) or loop(*a))
        native, reference = _both(monkeypatch, _SOLVERS[solver], system, sampler, config, keep)
        assert len(calls) == 1  # the native run; the reference ran the NumPy loop
        rel = 1e-12
        if (kind, solver, spec) == ("wide", "ashbm", "identity"):
            # CG again, as in TestEqualsTheNumpyLoop: over its 31 steps the
            # NumPy loop parts from CGNE by 2e-6, and the engines may part
            # twice as far
            rel = 2 * _numpy_distance_to_cgne(monkeypatch, system, sampler, config)
        _assert_same_run(native, reference, system, config, keep, rel)


class TestUniform:
    """A ``uniform:<p>`` key is p rows of the scaled [A | −b], which the
    kernel reads in place; both engines read one stream of keys, and both
    log each step's p rows to the window."""

    @staticmethod
    def _compare(monkeypatch, solve, system, scheme, config, keep):
        logged = _window_keys(monkeypatch)
        native = _outcome(solve, system, scheme, config, keep)
        native_keys = logged[:]
        logged.clear()
        with monkeypatch.context() as patch:
            _numpy_engine(patch)
            reference = _outcome(solve, system, scheme, config, keep)
        _assert_same_run(native, reference, system, config, keep)
        assert len(native_keys) == len(logged)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(native_keys, logged))
        return native, native_keys

    @pytest.mark.parametrize("track, keep", [(False, False), (True, False), (False, True),
                                             (True, True)],
                             ids=["bare", "tracked", "kept", "tracked-kept"])
    @pytest.mark.parametrize("p", [4, 10])
    @pytest.mark.parametrize("solver", list(_UNIFORM_SOLVERS))
    @pytest.mark.parametrize("kind", list(_SYSTEMS))
    def test_grid(self, monkeypatch, kind, solver, p, track, keep):
        system = _SYSTEMS[kind]()
        sampler = BlockSampler(UniformBlock(p=p), system)
        assert step_engine(solver, system.A) == "native"
        config = _cfg(track_residual=track)
        native, keys = self._compare(monkeypatch, _UNIFORM_SOLVERS[solver], system, sampler,
                                     config, keep)
        # every system here carries its residual at these p: p rows a step
        assert sum(map(len, keys)) == (len(native[1]) if track else 0)
        assert all(k.shape[1:] == (p,) for k in keys)

    @pytest.mark.parametrize("track", [False, True], ids=["bare", "tracked"])
    @pytest.mark.parametrize("p", [1, 120], ids=["p=1", "p=m"])
    @pytest.mark.parametrize("solver", list(_UNIFORM_SOLVERS))
    def test_smallest_and_largest_p(self, monkeypatch, solver, p, track):
        # p = m has one subset, and is too large to carry the residual: its
        # tracked run takes a norm per step in the kernel
        system = _SYSTEMS["tall"]()
        config = _cfg(track_residual=track, max_iters=700)
        native, keys = self._compare(monkeypatch, _UNIFORM_SOLVERS[solver], system,
                                     UniformBlock(p=p), config, True)
        assert bool(keys) == (track and p == 1)

    def test_rejection_cap_across_chunks(self, monkeypatch):
        # every sketch fails the zero test, so the first step's rejection
        # loop reads all 10,000 keys its cap allows: 39 chunks and 16 keys
        cap = 100 * UNIFORM_SUPPORT_CAP
        assert cap % CHUNK
        system = generate_gaussian_problem(60, 20, 20, 2.0, seed=0)
        solved = _cfg(zero_test_threshold=1e6, rse_tolerance=10.0)
        native, _ = self._compare(monkeypatch, solve_modified_basic, system, UniformBlock(p=3),
                                  solved, False)
        assert native[1].reason == "residual" and native[1].sample_draws == cap
        stalled = _cfg(zero_test_threshold=1e6)
        native, reference = _both(monkeypatch, solve_modified_basic, system, UniformBlock(p=3),
                                  stalled)
        assert native == reference and native[0] is StalledSamplingError


class TestChunkEdges:
    """A call of the kernel reads one chunk of keys; a run that stops, or
    whose rejection loop ends, at the end of a chunk or just past it."""

    @pytest.mark.parametrize("spec", ["partition:4", "uniform:4"])
    @pytest.mark.parametrize("steps", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK])
    def test_max_iters(self, monkeypatch, steps, spec):
        system = _SYSTEMS["tall"]()
        scheme = materialize(spec, system.A, 1)
        config = _cfg(max_iters=steps, rse_tolerance=0.0)
        native, reference = _both(monkeypatch, solve_ashbm, system, scheme, config, True)
        _assert_same_run(native, reference, system, config, True)
        assert native[1].sample_draws == steps

    @pytest.mark.parametrize("first, then", [(1, 1000), (7, 300), (1000, 1)])
    def test_chunks_of_any_size(self, monkeypatch, first, then):
        # the same keys handed out in a first chunk of one size and chunks of
        # another: a call reads at most as many keys as the first chunk held,
        # the length of its output rows, so the run is the same
        key_chunks = BlockSampler.key_chunks

        def rechunked(sampler, rng):
            stream, held, size = key_chunks(sampler, rng), np.empty(0, dtype=np.int64), first
            while True:
                while len(held) < size:
                    held = np.concatenate([held, next(stream)])
                yield held[:size]
                held, size = held[size:], then

        system = _SYSTEMS["tall"]()
        scheme = PartitionBlock.from_permutation(120, 4, seed=1)
        config = _cfg(max_iters=700, rse_tolerance=0.0, track_residual=True)
        native, reference = _both(monkeypatch, solve_ashbm, system, scheme, config, True)
        monkeypatch.setattr(BlockSampler, "key_chunks", rechunked)
        _assert_same_run(_outcome(solve_ashbm, system, scheme, config, True), reference,
                         system, config, True)
        _assert_same_run(native, reference, system, config, True)

    @pytest.mark.parametrize("step", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_rse_stop(self, monkeypatch, step):
        # a tolerance between the errors of steps step − 1 and step; the
        # error of mbasic decreases strictly, so the run stops at ``step``
        system = _SYSTEMS["tall"]()
        scheme = PartitionBlock.from_permutation(120, 4, seed=1)
        _, probe = solve_modified_basic(system, scheme, _cfg(max_iters=step, rse_tolerance=0.0))
        tol = float(np.sqrt(probe.rse[step - 2] * probe.rse[step - 1]))
        config = _cfg(rse_tolerance=tol)
        native, reference = _both(monkeypatch, solve_modified_basic, system, scheme, config)
        _assert_same_run(native, reference, system, config, False)
        assert native[1].iterations == step and native[1].reason == "rse"

    @pytest.mark.parametrize("rows", [60, 64], ids=["mid_chunk", "on_edge"])
    def test_rejection_cap_across_chunks(self, monkeypatch, rows):
        # every sketch fails the zero test, so the first step's rejection
        # loop reads 100 keys a row, over many chunks: 6400 = 25 chunks
        system = generate_gaussian_problem(rows, 20, 20, 2.0, seed=0)
        scheme = materialize("row", system.A)
        solved = _cfg(zero_test_threshold=1e6, rse_tolerance=10.0)
        native, reference = _both(monkeypatch, solve_modified_basic, system, scheme, solved)
        _assert_same_run(native, reference, system, solved, False)
        assert native[1].reason == "residual" and native[1].sample_draws == 100 * rows
        stalled = _cfg(zero_test_threshold=1e6)
        native, reference = _both(monkeypatch, solve_modified_basic, system, scheme, stalled)
        assert native == reference and native[0] is StalledSamplingError

    @pytest.mark.parametrize("seed, step", [(254, 7 * CHUNK), (142, 6 * CHUNK + 1)],
                             ids=["on_edge", "one_past"])
    def test_divergence(self, monkeypatch, seed, step):
        # mrabk draws once a step, so its step k reads key k: these trial
        # seeds diverge on the last key of a chunk and on the first
        system = generate_gaussian_problem(80, 200, 80, 10.0, seed=2)
        scheme = PartitionBlock.from_permutation(80, 10, seed=2)
        config = _cfg(seed=seed, max_iters=6000)
        native, reference = _both(monkeypatch, solve_mrabk, system, scheme, config)
        assert _step_of(native) == _step_of(reference) == (DivergedError, str(step))


@pytest.mark.parametrize("kind", ["dense", "csr"])
@pytest.mark.parametrize("spec", ["partition:4", "uniform:4"])
@pytest.mark.parametrize("engine", ["native", "numpy"])
def test_tracked_run_leaves_no_cycles(monkeypatch, engine, spec, kind):
    # a run's window buffers are freed when it returns, not whenever the
    # cyclic collector next runs: a window in a cycle kept tens of MB alive
    system = (_SYSTEMS if kind == "dense" else _CSR_SYSTEMS)["tall"]()
    sampler = BlockSampler(materialize(spec, system.A), system)
    if engine == "numpy":
        _numpy_engine(monkeypatch)
    gc.collect()
    gc.disable()
    try:
        solve_ashbm(system, sampler, _cfg(track_residual=True))
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestFallback:
    def test_failed_build_runs_numpy(self, monkeypatch, tmp_path):
        config_var = sysconfig.get_config_var
        monkeypatch.setattr(sysconfig, "get_config_var", lambda name: (
            str(tmp_path / "no-such-cc") if name == "CC" else config_var(name)))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(_native.tempfile, "tempdir", str(tmp_path / "tmp"))
        lib, reason = _native.load()
        assert lib is None and reason.startswith("kernel build failed")
        system = _SYSTEMS["tall"]()
        sampler = BlockSampler(PartitionBlock.from_permutation(120, 4, seed=1), system)
        native = solve_ashbm(system, sampler, _cfg())
        _numpy_engine(monkeypatch, reason)
        assert step_engine("ashbm", system.A) == f"numpy: {reason}"
        state, trace = solve_ashbm(system, sampler, _cfg())
        assert trace.converged and trace.final_rse <= 1e-12
        assert trace.iterations == native[1].iterations
        assert _close(state.x, native[0].x)

    @pytest.mark.parametrize("spec", ["partition:4", "uniform:4"])
    def test_csr_runs_native(self, monkeypatch, spec):
        # CSR heavy-ball steps run in the kernel, and a failed build runs
        # them in NumPy: the same run to rounding
        system = _csr_system(90, 30)
        assert step_engine("ashbm", system.A) == "native"
        assert step_engine("scg", system.A) == "numpy: scg has no compiled loop"
        calls, loop = [], solvers._native_loop
        monkeypatch.setattr(solvers, "_native_loop", lambda *a: calls.append(a) or loop(*a))
        sampler = BlockSampler(materialize(spec, system.A), system)
        config = _cfg(max_iters=300, rse_tolerance=0.0, track_residual=True)
        native = solve_ashbm(system, sampler, config, keep_iterates=True)
        assert len(calls) == 1
        _numpy_engine(monkeypatch, "kernel build failed: no compiler")
        assert step_engine("ashbm", system.A) == "numpy: kernel build failed: no compiler"
        reference = solve_ashbm(system, sampler, config, keep_iterates=True)
        assert len(calls) == 1
        _assert_same_run(native, reference, system, config, True)

    @pytest.mark.parametrize("solver", ["basic", "mbasic", "ashbm", "scg"])
    def test_dense_uniform_runs_native(self, monkeypatch, tmp_path, solver):
        # the heavy-ball solvers step on dense uniform:<p> blocks in the
        # kernel, tracked runs too, and the summary says so
        calls, loop = [], solvers._native_loop
        monkeypatch.setattr(solvers, "_native_loop", lambda *a: calls.append(a) or loop(*a))
        system = _SYSTEMS["tall"]()
        SOLVER_IDS[solver](system, UniformBlock(p=4), _cfg(max_iters=50, track_residual=True))
        engine = "native" if solver in solvers.HEAVY_BALL_IDS else "numpy: scg has no compiled loop"
        assert step_engine(solver, system.A) == engine and bool(calls) == (engine == "native")
        assert cli.main(["solve", "--m", "40", "--n", "10", "--r", "10", "--kappa", "2",
                         "--sampling", "uniform:4", "--solver", solver, "--no-timing",
                         "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["engine"] == engine

    @pytest.mark.parametrize("spec", ["partition:4", "row"])
    def test_csr_native_run_builds_no_block_pairs(self, spec):
        # a CSR sampler keeps its row-permuted scaled rows, which the kernel
        # reads; the per-block scipy pairs are made only for the NumPy
        # loop, here scg's, which then runs on them
        system = _csr_system(90, 30)
        sampler = BlockSampler(materialize(spec, system.A, 1), system)
        assert sp.issparse(sampler.rows) and sampler.rows.shape == (90, 31)
        for track in (False, True):
            solve_ashbm(system, sampler, _cfg(max_iters=200, track_residual=track))
        assert "blocks" not in vars(sampler)
        _, trace = solvers.solve_scg(system, sampler, _cfg(max_iters=300, rse_tolerance=0.0))
        assert len(sampler.blocks) == len(sampler.offsets) - 1
        assert all(sp.issparse(fwd.mat) for fwd, _, _ in sampler.blocks)
        assert trace.iterations == 300 and trace.final_rse < 0.5 * trace.rse[0]

    @pytest.mark.parametrize("solver", sorted(SOLVER_IDS))
    def test_reported_engine_is_the_one_that_runs(self, monkeypatch, solver):
        calls, loop = [], solvers._native_loop
        monkeypatch.setattr(solvers, "_native_loop", lambda *a: calls.append(a) or loop(*a))
        system, config = _SYSTEMS["tall"](), _cfg(max_iters=50)
        if solver == "cgne":
            SOLVER_IDS[solver](system, config)
        else:
            SOLVER_IDS[solver](system, PartitionBlock.from_permutation(120, 4, seed=1), config)
        assert (step_engine(solver, system.A) == "native") == bool(calls)

    def test_summary_names_the_engine(self, monkeypatch, tmp_path, capsys):
        args = ["solve", "--m", "40", "--n", "10", "--r", "10", "--kappa", "2",
                "--sampling", "partition:4", "--no-timing"]

        def engine(solver, out):
            assert cli.main([*args, "--solver", solver, "--out", str(tmp_path / out)]) == 0
            return json.loads((tmp_path / out / "summary.json").read_text())["engine"]

        assert engine("ashbm", "native") == "native"
        assert engine("scg", "scg") == "numpy: scg has no compiled loop"
        _numpy_engine(monkeypatch, "kernel build failed: no compiler")
        assert engine("ashbm", "numpy") == "numpy: kernel build failed: no compiler"


class TestCache:
    """The library is built into, and loaded from, only a directory that
    this user owns and no one else can write."""

    @staticmethod
    def _temp_only(monkeypatch, tmp_path):
        """The user cache cannot be made, so the build goes to the temp
        directory; returns the directory it uses there."""
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(_native.tempfile, "tempdir", str(tmp_path / "tmp"))
        return tmp_path / "tmp" / f"momsolve-{os.getuid()}"

    def test_temp_fallback_is_private(self, monkeypatch, tmp_path):
        private = self._temp_only(monkeypatch, tmp_path)
        lib, reason = _native.load()
        assert lib is not None and reason == ""
        assert stat.S_IMODE(private.stat().st_mode) & 0o077 == 0
        name = _native._library_name(sysconfig.get_config_var("CC") or "cc")
        assert [path.name for path in private.iterdir()] == [name]

    @pytest.mark.parametrize("plant", ["world_writable", "group_writable", "symlink"])
    def test_planted_library_is_not_loaded(self, monkeypatch, tmp_path, plant):
        # someone made the temp directory's cache first and put a file under
        # the library's name in it: it is neither loaded nor built over
        shared = self._temp_only(monkeypatch, tmp_path)
        made = tmp_path / "elsewhere" if plant == "symlink" else shared
        made.mkdir()
        made.chmod({"world_writable": 0o777, "group_writable": 0o770, "symlink": 0o700}[plant])
        if plant == "symlink":
            shared.symlink_to(made)
        planted = made / _native._library_name(sysconfig.get_config_var("CC") or "cc")
        planted.write_bytes(b"planted")
        lib, reason = _native.load()
        assert lib is None and reason.startswith("kernel build failed")
        assert f"{shared} is not a directory that only this user can write" in reason
        assert [path.name for path in made.iterdir()] == [planted.name]
        assert planted.read_bytes() == b"planted"

    def test_a_build_prunes_earlier_builds(self, monkeypatch, tmp_path):
        # a new library replaces the ones older builds left in its private
        # directory; other files there stay
        private = tmp_path / "cache" / "momsolve"
        private.mkdir(parents=True, mode=0o700)
        (private / "heavy_ball-00000000.so").write_bytes(b"stale")
        (private / "notes.txt").write_text("kept")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        built = _native.build()
        assert os.path.dirname(built) == str(private)
        assert sorted(path.name for path in private.iterdir()) == sorted(
            [os.path.basename(built), "notes.txt"])

    def test_a_refused_directory_is_not_pruned(self, monkeypatch, tmp_path):
        # the user cache is world-writable, so the build goes to the temp
        # directory's private cache and prunes only there
        shared = tmp_path / "cache" / "momsolve"
        shared.mkdir(parents=True)
        shared.chmod(0o777)
        stale = shared / "heavy_ball-00000000.so"
        stale.write_bytes(b"stale")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(_native.tempfile, "tempdir", str(tmp_path / "tmp"))
        private = tmp_path / "tmp" / f"momsolve-{os.getuid()}"
        private.mkdir(mode=0o700)
        (private / stale.name).write_bytes(b"stale")
        built = _native.build()
        assert [path.name for path in private.iterdir()] == [os.path.basename(built)]
        assert [path.name for path in shared.iterdir()] == [stale.name]
        assert stale.read_bytes() == b"stale"

    def test_a_library_pruned_before_it_loads_is_built_again(self, monkeypatch, tmp_path):
        # another build pruned the library between its rename and its load
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        opened, real = [], _native.ctypes.CDLL

        def open_after_prune(path):
            if not opened:
                os.unlink(path)
            opened.append(path)
            return real(path)

        monkeypatch.setattr(_native.ctypes, "CDLL", open_after_prune)
        lib, reason = _native.load()
        assert lib is not None and reason == "" and len(opened) == 2
        assert os.path.exists(opened[1])
