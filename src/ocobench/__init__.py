"""Benchmark library for constrained online convex optimization with
model-based augmented Lagrangian methods, delayed feedback, and the
standard primal-dual baselines."""

from .baselines import (BaselineConfig, cl_step, czp_step, mosp_step, ny_step,
                        paper_baseline_config, run_baseline)
from .core import (Box, ConvergenceError, EuclideanBall,
                   InfeasibleProblemError, ProblemArgumentError,
                   ProblemConstants, RoundOracle, SupNormBall, Trajectory,
                   UnsupportedProblemError, contains, diameter, project,
                   project_psd)
from .harness import (ALGO_IDS, PRESETS, ExperimentConfig, generate_problem,
                      run_cell, run_experiment)
from .malm import (MalmConfig, aug_lagrangian, closed_form_linearized_p1,
                   multiplier_update, run_malm, solve_subproblem,
                   subproblem_objective)
from .metrics import (MetricsSeries, full_series, min_psi_bound,
                      multiplier_bound_holds, psi_bound, psi_kappas)
from .models import (LINEARIZED, MODEL_KINDS, PLAIN, QUADRATIC_LINEARIZED,
                     TRUNCATED, ModelAt, make_model)
from .offline import project_l1_box, solve_comparator
from .problems import (ProblemInstance, generate_nra, generate_olr,
                       generate_oqcqp)

__version__ = "0.1.0"

__all__ = [
    "ALGO_IDS", "BaselineConfig", "Box", "ConvergenceError", "EuclideanBall",
    "ExperimentConfig", "InfeasibleProblemError", "LINEARIZED", "MODEL_KINDS",
    "MalmConfig", "MetricsSeries", "ModelAt", "PLAIN", "PRESETS",
    "ProblemArgumentError", "ProblemConstants", "ProblemInstance",
    "QUADRATIC_LINEARIZED", "RoundOracle", "SupNormBall", "TRUNCATED",
    "Trajectory", "UnsupportedProblemError", "aug_lagrangian", "cl_step",
    "closed_form_linearized_p1", "contains", "czp_step", "diameter",
    "full_series", "generate_nra", "generate_olr", "generate_oqcqp",
    "generate_problem", "make_model", "min_psi_bound", "mosp_step",
    "multiplier_bound_holds", "multiplier_update", "ny_step",
    "paper_baseline_config", "project", "project_l1_box", "project_psd",
    "psi_bound", "psi_kappas", "run_baseline", "run_cell", "run_experiment",
    "run_malm", "solve_comparator", "solve_subproblem", "subproblem_objective",
]
