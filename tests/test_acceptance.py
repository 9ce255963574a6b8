"""Acceptance gate: one test per shipped guarantee, each printing a single
PASS/FAIL line and enforcing its runtime budget.

The criteria cover solver equivalences (momentum form vs. stochastic CG vs.
CGNE), conjugacy/orthogonality identities, monotone error decrease, the
theoretical contraction bound, the momentum advantage over the fixed-step
baseline, oracle agreement, sampling statistics, and bit-level determinism.
"""

import time

import numpy as np
import pytest

from conftest import (
    augmented_iterates,
    decode_block,
    materialize,
    record_draws,
    row_coded_rhs,
    sketched_residual_cosines,
    step_cosines,
)
from momsolve import cli
from momsolve.analysis import (
    contraction_check,
    convergence_factor,
    theoretical_bound,
)
from momsolve.linalg import Matrix, min_norm_solution
from momsolve.problems import LinearSystem, generate_gaussian_problem
from momsolve.sampling import (
    BlockSampler,
    PartitionBlock,
    UniformBlock,
)
from momsolve.solvers import (
    SolverConfig,
    solve_ashbm,
    solve_cgne,
    solve_modified_basic,
    solve_scg,
)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_console(capsys):
    # lets _report bypass output capture so every verdict line reaches the
    # console even on success
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(number, description, passed, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    line = (f"CRITERION {number:2d}: {status} — {description} "
            f"[{elapsed:.2f}s / budget {budget:.0f}s]")
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert passed, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def _cfg(**kw):
    base = dict(rse_tolerance=1e-12, max_iters=10 ** 6, seed=0,
                record_timing=False, track_residual=False)
    base.update(kw)
    return SolverConfig(**base)


@pytest.fixture(scope="module")
def mid_instance():
    """500x100 full-rank instance with 50 paired solver trials (shared by
    the bound-dominance and convergence-factor-ordering criteria)."""
    system = generate_gaussian_problem(500, 100, 100, 5.0, seed=11)
    scheme = PartitionBlock.from_permutation(500, 30, seed=11)
    plain, momentum = [], []
    t0 = time.perf_counter()
    for i in range(50):
        cfg = _cfg(rse_tolerance=1e-14, seed=2000 + i)
        _, tp = solve_modified_basic(system, scheme, cfg)
        plain.append(tp)
        _, tm = solve_ashbm(system, scheme, cfg)
        momentum.append(tm)
    elapsed = time.perf_counter() - t0
    return dict(system=system, scheme=scheme, plain=plain, momentum=momentum,
                elapsed=elapsed)


def test_criterion_1_cgne_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        system = generate_gaussian_problem(40, 25, 25, 2.0 + 0.8 * seed, seed=seed)
        cfg = _cfg(max_iters=20, rse_tolerance=1e-32, zero_test_threshold=1e-150,
                   seed=seed)
        _, ta = solve_ashbm(system, materialize("identity", system.A), cfg, keep_iterates=True)
        _, tc = solve_cgne(system, cfg, keep_iterates=True)
        for xa, xc in zip(ta.iterates, tc.iterates):
            worst = max(worst, float(np.linalg.norm(xa - xc) / np.linalg.norm(xc)))
    elapsed = time.perf_counter() - t0
    _report(1, f"momentum form with identity sketch equals CGNE "
               f"(max rel diff {worst:.2e} <= 1e-10)", worst <= 1e-10, elapsed, 1.0)


def test_criterion_2_scg_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        system = generate_gaussian_problem(200, 50, 50, 5.0, seed=seed)
        scheme = PartitionBlock.from_permutation(200, 10, seed=seed)
        cfg = _cfg(max_iters=100, rse_tolerance=1e-14, seed=seed)
        _, ta = solve_ashbm(system, scheme, cfg, keep_iterates=True)
        _, ts = solve_scg(system, scheme, cfg, keep_iterates=True)
        assert len(ta.iterates) == len(ts.iterates)
        for xa, xs in zip(ta.iterates, ts.iterates):
            worst = max(worst, float(np.linalg.norm(xa - xs) / np.linalg.norm(xs)))
    elapsed = time.perf_counter() - t0
    _report(2, f"momentum form equals stochastic CG under shared samples "
               f"(max rel diff {worst:.2e} <= 1e-10)", worst <= 1e-10, elapsed, 5.0)


def test_criterion_3_orthogonality():
    # the identities of n steps, from the iterates and the blocks drawn:
    # each scg direction is parallel to its step x^k − x^{k−1}
    t0 = time.perf_counter()
    system = generate_gaussian_problem(2000, 500, 500, 20.0, seed=5)
    scheme = PartitionBlock.from_permutation(2000, 32, seed=5)
    n = 10 ** 4
    cfg = _cfg(seed=5, max_iters=n + 1)
    _, tm = solve_ashbm(system, scheme, cfg, keep_iterates=True)
    sampler = BlockSampler(scheme, system)
    blocks = record_draws(sampler)
    _, ts = solve_scg(system, sampler, cfg, keep_iterates=True)
    del blocks[ts.sample_draws:]
    assert tm.iterations == ts.iterations == n + 1
    # no draw was rejected, so blocks[k − 1] is step k's sketch
    assert len(blocks) == n + 2
    Xs = augmented_iterates(ts)
    worst_dir = float(np.max(np.abs(step_cosines(Xs))))
    worst_sketch = float(np.max(np.abs(sketched_residual_cosines(blocks[:n], Xs))))
    worst_step = float(np.max(np.abs(step_cosines(augmented_iterates(tm)))))
    ok = max(worst_dir, worst_sketch, worst_step) <= 1e-8
    elapsed = time.perf_counter() - t0
    _report(3, f"conjugacy/orthogonality over {n} steps (directions "
               f"{worst_dir:.1e}, sketched residuals {worst_sketch:.1e}, "
               f"consecutive steps {worst_step:.1e}; all <= 1e-8)",
            ok, elapsed, 10.0)


def test_criterion_4_monotonicity_and_pythagorean():
    t0 = time.perf_counter()
    system = generate_gaussian_problem(2000, 500, 500, 20.0, seed=6)
    scheme = PartitionBlock.from_permutation(2000, 32, seed=6)
    n = 10 ** 4
    _, tp = solve_modified_basic(system, scheme, _cfg(seed=6))
    assert tp.iterations >= n
    monotone = bool(np.all(np.diff(tp.rse[:n]) < 0))
    # steps 2..n + 1 of ashbm against one Polyak step (zeta = 1) on the
    # same sketch: ||e^k|| <= ||e^{k−1} − (||t||^2 / ||g||^2)·g||, with
    # t = S_k^T r^{k−1} and g = A^T S_k t
    sampler = BlockSampler(scheme, system)
    blocks = record_draws(sampler)
    _, tm = solve_ashbm(system, sampler, _cfg(seed=6, max_iters=n + 1), keep_iterates=True)
    del blocks[tm.sample_draws:]
    assert tm.iterations == len(blocks) == n + 1  # no draw was rejected
    X = augmented_iterates(tm)
    err = X[:, :-1] - system.min_norm
    lhs = np.linalg.norm(err[2:], axis=1)
    rhs = np.empty(n)
    for k in range(2, n + 2):
        B = blocks[k - 1]
        t = B @ X[k - 1]
        g = B[:, :-1].T @ t
        rhs[k - 2] = np.linalg.norm(err[k - 1] - (t @ t) / (g @ g) * g)
    worst_gap = float(np.max(lhs - rhs))
    dominated = worst_gap <= 1e-10
    elapsed = time.perf_counter() - t0
    _report(4, f"monotone error decrease over {n} plain steps and momentum "
               f"error <= same-sample one-parameter error + 1e-10 "
               f"(worst gap {worst_gap:.1e})", monotone and dominated,
            elapsed, 10.0)


def test_criterion_5_bound_dominance(mid_instance):
    t0 = time.perf_counter()
    report = theoretical_bound(mid_instance["scheme"], mid_instance["system"].A,
                               zeta=1.0)
    verdict = contraction_check(mid_instance["plain"], report)
    elapsed = time.perf_counter() - t0 + mid_instance["elapsed"]
    _report(5, f"50-trial median RSE under 1.05 x factor^k "
               f"(factor {report.per_iter_factor:.6f}, worst ratio "
               f"{verdict.worst_ratio:.3f})", verdict.passed, elapsed, 30.0)


def test_criterion_6_momentum_advantage():
    t0 = time.perf_counter()
    system = generate_gaussian_problem(2000, 500, 500, 20.0, seed=1)
    m = system.A.rows
    med_plain, med_momentum = {}, {}
    for p in (8, 32, 64):
        scheme = PartitionBlock.from_permutation(m, p, seed=1)
        full_plain, full_momentum = [], []
        for i in range(50):
            cfg = _cfg(seed=3000 + i)
            _, tp = solve_modified_basic(system, scheme, cfg)
            full_plain.append(tp.iterations * p / m)
            _, tm = solve_ashbm(system, scheme, cfg)
            full_momentum.append(tm.iterations * p / m)
        med_plain[p] = float(np.median(full_plain))
        med_momentum[p] = float(np.median(full_momentum))
    each_p = all(med_momentum[p] < med_plain[p] for p in med_plain)
    spread_plain = max(med_plain.values()) / min(med_plain.values())
    spread_momentum = max(med_momentum.values()) / min(med_momentum.values())
    ok = each_p and spread_momentum < spread_plain
    elapsed = time.perf_counter() - t0
    _report(6, f"adaptive momentum beats the plain adaptive method at every "
               f"block size (medians {med_momentum} vs {med_plain}) and is "
               f"flatter in p (spread {spread_momentum:.3f} < "
               f"{spread_plain:.3f})", ok, elapsed, 300.0)


def test_criterion_7_convergence_factor_ordering(mid_instance):
    t0 = time.perf_counter()
    report = theoretical_bound(mid_instance["scheme"], mid_instance["system"].A,
                               zeta=1.0)
    rho_plain = float(np.median([
        convergence_factor(t.final_rse, t.iterations)
        for t in mid_instance["plain"]
    ]))
    rho_momentum = float(np.median([
        convergence_factor(t.final_rse, t.iterations)
        for t in mid_instance["momentum"]
    ]))
    ok = rho_momentum < rho_plain < report.per_iter_factor
    elapsed = time.perf_counter() - t0 + mid_instance["elapsed"]
    _report(7, f"measured factors ordered: momentum {rho_momentum:.4f} < "
               f"plain {rho_plain:.4f} < bound {report.per_iter_factor:.4f}",
            ok, elapsed, 60.0)


def test_criterion_8_cgne_finite_termination():
    t0 = time.perf_counter()
    ok = True
    for i in range(20):
        m = 60 if i % 2 == 0 else 120
        n = min(20 + 4 * i, m, 100)
        kappa = 1.5 + 0.4 * i
        system = generate_gaussian_problem(m, n, n, min(kappa, 10.0), seed=40 + i)
        cfg = _cfg(max_iters=n + 10, rse_tolerance=1e-28,
                   zero_test_threshold=1e-30, seed=i)
        state, trace = solve_cgne(system, cfg)
        if float(np.linalg.norm(state.r)) > 1e-8 or trace.iterations > n + 10:
            ok = False
    elapsed = time.perf_counter() - t0
    _report(8, "CGNE residual <= 1e-8 within rank+10 iterations on 20 "
               "full-column-rank systems", ok, elapsed, 5.0)


def test_criterion_9_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        m = 40 + 5 * i
        n = 30 + 3 * i
        r = max(5, min(m, n) - 8)
        system = generate_gaussian_problem(m, n, r, 2.0 + 0.3 * i, seed=70 + i)
        oracle = min_norm_solution(system.A, system.b)
        rel = float(np.linalg.norm(system.min_norm - oracle)
                    / np.linalg.norm(oracle))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(9, f"planted min-norm target agrees with the SVD oracle on 20 "
               f"rank-deficient systems (max rel diff {worst:.2e} <= 1e-10)",
            worst <= 1e-10, elapsed, 5.0)


def test_criterion_10_sampling_statistics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    draws = 10 ** 5

    # partition frequencies vs. squared-Frobenius-norm probabilities, drawn
    # through the solvers' sampler; a row-coded b gives each block's rows.
    # Blocks are decoded 1000 draws at a time.
    batches = [1000] * (draws // 1000)
    A = Matrix.from_dense(rng.standard_normal((100, 20)))
    scheme = PartitionBlock.from_permutation(100, 7, seed=99)
    probs = np.array([A.row_norms_sq[blk].sum() for blk in scheme.blocks]) / A.fro_norm_sq
    stream = BlockSampler(scheme, LinearSystem(A, row_coded_rhs(A))).draws(rng)
    block_of_row = np.empty(A.rows, dtype=int)
    for i, blk in enumerate(scheme.blocks):
        block_of_row[blk] = i
    counts = np.zeros(len(scheme.blocks))
    for size in batches:
        first_rows, _ = decode_block(np.stack([next(stream)[0][0] for _ in range(size)]), A)
        counts += np.bincount(block_of_row[first_rows], minlength=len(scheme.blocks))
    sd = np.sqrt(draws * probs * (1.0 - probs))
    freq_dev = np.abs(counts - draws * probs) / sd
    freq_ok = bool(np.all(freq_dev <= 4.0))

    # uniform-block Monte-Carlo second moment vs. the closed form
    B = Matrix.from_dense(rng.standard_normal((30, 10)))
    m, p = B.rows, 6
    ustream = BlockSampler(UniformBlock(p=p), LinearSystem(B, row_coded_rhs(B))).draws(rng)
    diag = np.zeros(30)
    for size in batches:
        rows, scale = decode_block(np.stack([next(ustream)[0] for _ in range(size)]), B)
        diag += np.bincount(rows.ravel(), weights=scale.ravel() ** 2, minlength=30)
    estimate = np.diag(diag / draws)
    target = np.eye(30) / B.fro_norm_sq
    # a diagonal entry averages (m/p)/||B||_F^2 · 1[i in J] over the draws;
    # its Monte-Carlo SD is sqrt((m/p)(1 - p/m)/N)/||B||_F^2
    gram_sd = np.sqrt((m / p) * (1.0 - p / m) / draws) / B.fro_norm_sq
    gram_dev = float(np.max(np.abs(estimate - target))) / gram_sd
    gram_ok = gram_dev <= 5.0

    elapsed = time.perf_counter() - t0
    _report(10, f"partition frequencies within 4 binomial SDs (max "
                f"{float(freq_dev.max()):.2f}) and uniform-block second "
                f"moment within 5 Monte-Carlo SDs entrywise (max "
                f"{gram_dev:.2f}), both drawn through the solvers' sampler",
            freq_ok and gram_ok, elapsed, 10.0)


def test_criterion_11_trace_determinism(tmp_path):
    t0 = time.perf_counter()
    common = ["solve", "--m", "100", "--n", "50", "--r", "50", "--kappa", "2",
              "--solver", "mbasic", "--sampling", "partition:10",
              "--trials", "8", "--seed", "17", "--tol", "1e-10", "--no-timing"]
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    rc1 = cli.main(common + ["--workers", "1", "--out", str(out1)])
    rc4 = cli.main(common + ["--workers", "4", "--out", str(out4)])
    identical = rc1 == 0 and rc4 == 0
    for i in range(8):
        name = f"trace_{i:03d}.csv"
        identical = identical and (
            (out1 / name).read_bytes() == (out4 / name).read_bytes()
        )
    elapsed = time.perf_counter() - t0
    _report(11, "trace files bit-identical across worker-pool sizes",
            identical, elapsed, 10.0)
