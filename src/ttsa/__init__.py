"""Simulation lab for two-time-scale stochastic approximation."""

from .engine import (
    BatchTrace,
    GainMatrices,
    SAState,
    checkpoint_indices,
    decompose_step,
    initial_decomposition,
    initial_state,
    matricial_step,
    optimal_gains,
    run,
    simulate_batch,
    step,
)
from .linalg import is_hurwitz, mat_exp, solve_lyapunov, spectral_summary, stability_gap
from .montecarlo import (
    MCConfig,
    MonteCarloReport,
    clt_verdict,
    negligibility_curves,
    rate_slope,
    run_monte_carlo,
    sample_covariance,
)
from .problems import (
    BiasModel,
    NoiseModel,
    NonlinearResidual,
    ProblemSpec,
    library_problem,
    validate_problem,
)
from .schedules import StepSchedule, validate_schedule
from .theory import (
    TheoryReport,
    averaged_covariance,
    fast_error_cov,
    optimal_covariances,
    slow_error_cov,
    theory_report,
)

__version__ = "0.1.0"

__all__ = [
    "BatchTrace",
    "BiasModel",
    "GainMatrices",
    "MCConfig",
    "MonteCarloReport",
    "NoiseModel",
    "NonlinearResidual",
    "ProblemSpec",
    "SAState",
    "StepSchedule",
    "TheoryReport",
    "averaged_covariance",
    "checkpoint_indices",
    "clt_verdict",
    "decompose_step",
    "fast_error_cov",
    "initial_decomposition",
    "initial_state",
    "is_hurwitz",
    "library_problem",
    "mat_exp",
    "matricial_step",
    "negligibility_curves",
    "optimal_covariances",
    "optimal_gains",
    "rate_slope",
    "run",
    "run_monte_carlo",
    "sample_covariance",
    "simulate_batch",
    "slow_error_cov",
    "solve_lyapunov",
    "spectral_summary",
    "stability_gap",
    "step",
    "theory_report",
    "validate_problem",
    "validate_schedule",
]
