"""Error metrics and theoretical per-iteration contraction bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedError
from .linalg import Matrix, check_scale, spectral_quantities
from .sampling import PartitionBlock, lambda_max_sup

__all__ = [
    "BoundReport",
    "convergence_factor",
    "theoretical_bound",
    "contraction_check",
    "ContractionVerdict",
    "median_rse_curve",
]

RSE_FLOOR = 100.0 * np.finfo(np.float64).eps
BOUND_SLACK = 0.05


@dataclass(frozen=True)
class BoundReport:
    scheme: str
    sigma_min_sq_HA: float
    lambda_max: float
    per_iter_factor: float
    is_estimate: bool


def convergence_factor(final_rse: float, K: int) -> float:
    """Geometric per-iteration contraction rho = final_rse^(1/K); exact
    convergence (final_rse = 0) gives 0."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if not 0.0 <= final_rse <= 1.0:
        raise ValueError(f"final_rse={final_rse} outside [0, 1]")
    return float(final_rse ** (1.0 / K))


def theoretical_bound(scheme, A: Matrix, zeta: float = 1.0) -> BoundReport:
    """Per-iteration contraction factor 1 - zeta(2-zeta) sigma_min^2(H^1/2 A)
    / lambda_max, specialized per scheme."""
    if not 0.0 < zeta < 2.0:
        raise ValueError("zeta must lie in (0, 2)")
    # H = I/||A||_F^2 needs sketches scaled by 1/||A_J||_F; the identity's is S = I
    if isinstance(scheme, PartitionBlock) and scheme.unit_scale:
        raise UnsupportedError("deterministic scheme: contraction bound degenerate")
    check_scale(A)
    lam = lambda_max_sup(scheme, A)  # checks the scheme's type and fit first
    spec = spectral_quantities(A)
    sigma_min_sq_HA = spec.sigma_min_nonzero ** 2 / A.fro_norm_sq  # H = I/||A||_F^2
    factor = 1.0 - zeta * (2.0 - zeta) * sigma_min_sq_HA / lam.value
    return BoundReport(
        scheme=scheme.describe(),
        sigma_min_sq_HA=float(sigma_min_sq_HA),
        lambda_max=float(lam.value),
        per_iter_factor=float(factor),
        is_estimate=lam.is_estimate,
    )


def median_rse_curve(traces) -> tuple[np.ndarray, np.ndarray]:
    """Per-iteration median RSE across trials; trials that converged early
    are padded with their final (converged) RSE."""
    lengths = [len(t) for t in traces]
    kmax = max(lengths)
    grid = np.empty((len(traces), kmax))
    for row, t in enumerate(traces):
        vals = t.rse
        grid[row, : len(vals)] = vals
        if len(vals) < kmax:
            grid[row, len(vals):] = vals[-1] if len(vals) else 0.0
    return np.arange(1, kmax + 1), np.median(grid, axis=0)


@dataclass(frozen=True)
class ContractionVerdict:
    passed: bool
    checked_upto: int
    worst_ratio: float
    first_violation: int | None = None


def contraction_check(traces, report: BoundReport) -> ContractionVerdict:
    """Pass iff the median RSE is dominated by (factor)^k (1 + slack) at
    every k where the median is still above the floating-point floor."""
    if len(traces) < 30:
        raise ValueError("contraction_check needs at least 30 trials")
    ks, med = median_rse_curve(traces)
    bound = report.per_iter_factor ** ks.astype(np.float64)
    active = med > RSE_FLOOR
    ratios = np.where(active, med / (bound * (1.0 + BOUND_SLACK)), 0.0)
    worst = float(ratios.max()) if len(ratios) else 0.0
    violated = np.nonzero(ratios > 1.0)[0]
    return ContractionVerdict(
        passed=violated.size == 0,
        checked_upto=int(active.sum()),
        worst_ratio=worst,
        first_violation=int(ks[violated[0]]) if violated.size else None,
    )
