"""Optimal extraction under a regime-switching jump-diffusion price.

The package solves the dynamic-programming balance equation for the value
of a finite reserve extracted at a bounded rate, on a regular grid over
(time, log-price-like state, reserve, regime), and cross-checks the result
against Monte Carlo payoff estimates under the extracted bang-bang policy.
"""

from .errors import (
    ConfigError,
    ContractionError,
    ConvergenceError,
    MonotonicityError,
    NumericalError,
)
from .grid import Grid4D, GridField, build_grid
from .model import (
    Dynamics,
    Economics,
    LevyMeasure,
    MarketModel,
    ValidationReport,
    profit_rate,
    terminal_value,
    validate_model,
)
from .policy import (
    CrossingDiagnostics,
    curve_table,
    extract_policy,
    switching_curve,
    switching_function,
    write_curve_csv,
    write_policy_csv,
)
from .quadrature import (
    ContractionReport,
    QuadratureScheme,
    build_quadrature,
    check_contraction,
)
from .simulate import (
    EstimateReport,
    PathRecord,
    analytic_oracle,
    estimate_value,
    simulate_path,
    simulate_regime_chain,
)
from .solver import (
    ConvergenceReport,
    DiscreteOperator,
    SolverConfig,
    dpp_residual,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractionError",
    "ContractionReport",
    "ConvergenceError",
    "ConvergenceReport",
    "CrossingDiagnostics",
    "DiscreteOperator",
    "Dynamics",
    "Economics",
    "EstimateReport",
    "Grid4D",
    "GridField",
    "LevyMeasure",
    "MarketModel",
    "MonotonicityError",
    "NumericalError",
    "PathRecord",
    "QuadratureScheme",
    "SolverConfig",
    "ValidationReport",
    "analytic_oracle",
    "build_grid",
    "build_quadrature",
    "check_contraction",
    "curve_table",
    "dpp_residual",
    "estimate_value",
    "extract_policy",
    "profit_rate",
    "simulate_path",
    "simulate_regime_chain",
    "solve",
    "switching_curve",
    "switching_function",
    "terminal_value",
    "validate_model",
    "write_curve_csv",
    "write_policy_csv",
    "__version__",
]
