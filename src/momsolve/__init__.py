"""Randomized Kaczmarz-type solvers with adaptive heavy-ball momentum,
a stochastic CG framework, sampling schemes, and convergence-bound tools."""

from .analysis import (
    BoundReport,
    ContractionVerdict,
    contraction_check,
    convergence_factor,
    theoretical_bound,
)
from .linalg import (
    Matrix,
    SpectralSummary,
    min_norm_solution,
    spectral_quantities,
)
from .problems import (
    LinearSystem,
    attach_min_norm,
    generate_gaussian_problem,
    load_matrix_market,
)
from .sampling import (
    PartitionBlock,
    UniformBlock,
    build_partition,
    compute_tau,
    lambda_max_sup,
    parse_scheme,
)
from .solvers import (
    SolverConfig,
    SolverState,
    Trace,
    TraceRecord,
    ashbm_parameters,
    solve_ashbm,
    solve_basic,
    solve_cgne,
    solve_modified_basic,
    solve_mrabk,
    solve_scg,
)

__version__ = "0.1.0"
