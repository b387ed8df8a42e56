"""Benchmark library for constrained online convex optimization with
model-based augmented Lagrangian methods, delayed feedback, and the
standard primal-dual baselines."""

from .baselines import (BaselineConfig, BaselineState, cl_step, czp_step,
                        mosp_step, ny_step, paper_baseline_config,
                        run_baseline)
from .core import (Box, ConvergenceError, EuclideanBall,
                   InfeasibleProblemError, ProblemArgumentError,
                   ProblemConstants, RoundOracle, SupNormBall, Trajectory,
                   UnsupportedProblemError, contains, diameter, project,
                   project_psd)
from .harness import (ALGO_IDS, PRESETS, ExperimentConfig, generate_problem,
                      run_cell, run_experiment, sweep)
from .malm import (InnerSolverConfig, MalmConfig, aug_lagrangian,
                   closed_form_linearized_p1, multiplier_update, run_malm,
                   solve_subproblem, subproblem_objective)
from .metrics import (MetricsSeries, full_series, lambda_norm_series,
                      min_psi_bound, multiplier_bound_holds, psi_bound,
                      psi_kappas, regret_series, violation_series)
from .models import (LINEARIZED, MODEL_KINDS, PLAIN, QUADRATIC_LINEARIZED,
                     TRUNCATED, ModelAt, build_linearized, build_plain,
                     build_quadratic_linearized, build_truncated, make_model)
from .offline import project_l1_box, solve_comparator
from .problems import (ProblemInstance, generate_nra, generate_olr,
                       generate_oqcqp)

__version__ = "0.1.0"

__all__ = [
    "ALGO_IDS", "BaselineConfig", "BaselineState", "Box", "ConvergenceError",
    "EuclideanBall", "ExperimentConfig", "InfeasibleProblemError",
    "InnerSolverConfig", "LINEARIZED", "MODEL_KINDS", "MalmConfig",
    "MetricsSeries", "ModelAt", "PLAIN", "PRESETS", "ProblemArgumentError", "ProblemConstants",
    "ProblemInstance", "QUADRATIC_LINEARIZED", "RoundOracle", "SupNormBall",
    "TRUNCATED", "Trajectory", "UnsupportedProblemError", "aug_lagrangian",
    "build_linearized", "build_plain", "build_quadratic_linearized",
    "build_truncated", "cl_step", "closed_form_linearized_p1", "contains",
    "czp_step", "diameter", "full_series", "generate_nra", "generate_olr",
    "generate_oqcqp", "generate_problem", "lambda_norm_series", "make_model",
    "min_psi_bound", "mosp_step", "multiplier_bound_holds",
    "multiplier_update", "ny_step", "paper_baseline_config", "project",
    "project_l1_box", "project_psd", "psi_bound", "psi_kappas",
    "regret_series", "run_baseline", "run_cell", "run_experiment", "run_malm",
    "solve_comparator", "solve_subproblem", "sweep",
    "subproblem_objective", "violation_series",
]
