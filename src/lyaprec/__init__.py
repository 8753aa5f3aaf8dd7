"""Growth rates of the random linear recursion x_{i+1} = a_i x_i + b_i
with log-correlated multipliers, in the fixed-beta scaling regime.

The top-level names cover the exact variational solver, the
flat-profile (mean-field) approximation, the phase-structure tools, and
the path simulators. The command line lives in lyaprec.cli.
"""
from .errors import (
    AccuracyError,
    BudgetError,
    DomainError,
    EvaluationError,
    NumericsError,
)
from .meanfield import (
    MeanFieldResult,
    mf_beta_level,
    mf_derivative_jumps,
    mf_gap,
    mf_lambda,
    mf_phase_curve,
)
from .numerics import (
    QuadratureSpec,
    integrate_adaptive,
    integrate_inverse_sqrt_singularity,
    inverse_softplus,
    polylog,
    softplus,
    softplus_diff,
)
from .phase import (
    AsymptoticsReport,
    CriticalPoint,
    ExponentFit,
    PhaseCurvePoint,
    appendix_b_checks,
    clausius_clapeyron_check,
    critical_exponent_fit,
    critical_jump_constants,
    jump_coefficients_near_critical,
    locate_critical_point,
    mf_critical_point,
    mf_trace,
    near_critical_rho_grid,
    trace_phase_curve,
)
from .simulate import (
    CLTReport,
    LLNReport,
    MomentEstimate,
    NoiseSpec,
    SimSpec,
    clt_check,
    estimate_moment,
    exact_moment,
    lln_check,
    simulate_paths,
)
from .variational import (
    Branch,
    LyapunovResult,
    ModelParams,
    OptimizerProfile,
    RootSet,
    big_F,
    big_F_scan,
    correction_integral,
    d_of_h1,
    entropy_I,
    lambda_of_d,
    lambda_of_h1,
    lyapunov,
    lyapunov_q,
    reconstruct_profile,
    solve_h1,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "BudgetError", "DomainError", "EvaluationError",
    "NumericsError",
    "QuadratureSpec", "RootSet", "integrate_adaptive",
    "integrate_inverse_sqrt_singularity", "inverse_softplus", "polylog",
    "softplus", "softplus_diff",
    "ModelParams", "Branch", "LyapunovResult", "OptimizerProfile",
    "entropy_I", "big_F", "big_F_scan", "solve_h1", "lambda_of_h1",
    "d_of_h1", "correction_integral", "lambda_of_d", "lyapunov",
    "lyapunov_q", "reconstruct_profile",
    "MeanFieldResult", "mf_beta_level", "mf_lambda", "mf_gap",
    "mf_phase_curve", "mf_derivative_jumps",
    "PhaseCurvePoint", "CriticalPoint", "ExponentFit", "AsymptoticsReport",
    "trace_phase_curve", "locate_critical_point", "mf_critical_point", "mf_trace",
    "clausius_clapeyron_check",
    "near_critical_rho_grid", "critical_exponent_fit",
    "jump_coefficients_near_critical", "critical_jump_constants",
    "appendix_b_checks",
    "NoiseSpec", "SimSpec", "MomentEstimate", "LLNReport", "CLTReport",
    "simulate_paths", "estimate_moment", "exact_moment", "lln_check",
    "clt_check",
    "__version__",
]
