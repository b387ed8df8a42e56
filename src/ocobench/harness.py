"""Experiment orchestration: algorithm x problem x delay x seed grids to CSV.

One CSV row per round with cumulative metrics; float columns use 17
significant digits so parsing the file back reproduces the exact doubles.
Identical configs byte-reproduce the file (no timestamps).
"""

from __future__ import annotations

import math
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .baselines import BaselineConfig, run_baseline
from .core import (ConvergenceError, InfeasibleProblemError, Trajectory,
                   UnsupportedProblemError)
from .malm import MalmConfig, run_malm
from .metrics import MetricsSeries, full_series
from .models import LINEARIZED, MODEL_KINDS, PLAIN
from .offline import solve_comparator
from .problems import (ProblemInstance, generate_nra, generate_olr,
                       generate_oqcqp)

# Each problem's generator and its arguments other than T and seed, with
# their defaults.  An argument is converted by its default's type, so an
# integer default marks a count, refused unless integral.
PROBLEMS = {
    "nra": (generate_nra, {"J": 10, "K": 10}),
    "olr": (generate_olr, {"n": 5, "k": 10, "M": 10.0}),
    "oqcqp": (generate_oqcqp, {"n": 8, "p": 3, "R": 10.0}),
}


def _check_problem_params(problem: str, params: Mapping) -> None:
    defaults = PROBLEMS[problem][1]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {problem} parameter(s) "
                         f"{', '.join(map(repr, unknown))}; expected some of "
                         f"{', '.join(defaults)}")
    for name, value in params.items():
        if type(defaults[name]) is int and not float(value).is_integer():
            raise ValueError(f"{problem} parameter {name!r} must be an "
                             f"integer, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment grid: a problem, algorithms, delays and seeds.

    ``problem_params`` carries the generator arguments other than T and
    seed, by the generator's own (case-sensitive) names; a name the
    generator does not take is refused.  ``malm_alpha``/``malm_sigma``
    override the delay-aware defaults alpha = sqrt(T/(tau+1)),
    sigma = sqrt((tau+1)/T); baselines always use their published
    stepsizes, and a delay for MOSP or CL is refused here, before any cell
    runs, as are an unknown or repeated algorithm and a repeated delay or seed.
    """

    problem: str
    algos: tuple = ("malm",)
    T: int = 100
    taus: tuple = (0,)
    seeds: tuple = (0,)
    out: str = "results.csv"
    tol_inner: float = 1e-9
    tol_comparator: float = 1e-7
    problem_params: Mapping = field(default_factory=dict)
    malm_alpha: Optional[float] = None
    malm_sigma: Optional[float] = None
    malm_model: str = PLAIN

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        _check_problem_params(self.problem, self.problem_params)
        if not self.algos:
            raise ValueError("need at least one algorithm")
        if not self.out:
            raise ValueError("need an output path")
        for name in ("tol_inner", "tol_comparator", "malm_alpha", "malm_sigma"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError("seeds must be nonnegative")
        if not self.taus:
            raise ValueError("need at least one delay value")
        if any(tau < 0 for tau in self.taus):
            raise ValueError("delays must be nonnegative")
        if self.T <= max(self.taus):
            raise ValueError("time horizon T must exceed every delay")
        for name in ("algos", "taus", "seeds"):
            entries = getattr(self, name)
            if len(set(entries)) < len(entries):
                raise ValueError(f"{name} repeats an entry: {entries!r}")
        if self.malm_model not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.malm_model!r}")
        for algo in self.algos:
            if algo != "malm":
                for tau in self.taus:
                    BaselineConfig(algo, self.T, tau)


PRESETS = {
    "nra-paper": ExperimentConfig(
        problem="nra", algos=("malm", "mosp", "cl", "ny"), T=10_000,
        taus=(0,), problem_params={"J": 10, "K": 10},
        malm_alpha=0.1 * math.sqrt(10_000), malm_sigma=100.0 / math.sqrt(10_000),
        malm_model=PLAIN),
    "olr-paper": ExperimentConfig(
        problem="olr", algos=("malm", "cl", "ny"), T=5_000,
        taus=(0,), problem_params={"n": 5, "k": 10, "M": 10.0},
        malm_alpha=10.0 * math.sqrt(5_000), malm_sigma=10.0 / math.sqrt(5_000),
        malm_model=LINEARIZED),
    "oqcqp-paper": ExperimentConfig(
        problem="oqcqp", algos=("malm", "czp", "ny"), T=1_000,
        taus=(0, 10, 20, 50, 100),
        problem_params={"n": 8, "p": 3, "R": 10.0}, malm_model=PLAIN),
    "smoke": ExperimentConfig(
        problem="oqcqp", algos=("malm", "cl"), T=100, taus=(0,), seeds=(0,),
        problem_params={"n": 4, "p": 2, "R": 5.0}, malm_model=PLAIN,
        out="smoke.csv"),
}


def generate_problem(config: ExperimentConfig, seed: int) -> ProblemInstance:
    """Instantiate the configured generator for one seed.

    Raises ``ValueError`` if ``problem_params`` names an argument the
    generator does not take.
    """
    _check_problem_params(config.problem, config.problem_params)
    generator, defaults = PROBLEMS[config.problem]
    params = {name: type(default)(config.problem_params.get(name, default))
              for name, default in defaults.items()}
    return generator(**params, T=config.T, seed=seed)


def malm_config_for(config: ExperimentConfig, tau: int) -> MalmConfig:
    T = config.T
    alpha = config.malm_alpha if config.malm_alpha is not None \
        else math.sqrt(T / (tau + 1))
    sigma = config.malm_sigma if config.malm_sigma is not None \
        else math.sqrt((tau + 1) / T)
    return MalmConfig(alpha=alpha, sigma=sigma, T=T, tau=tau,
                      model_kind=config.malm_model, tol=config.tol_inner)


def run_cell(config: ExperimentConfig, problem: ProblemInstance,
             algo: str, tau: int) -> Trajectory:
    """Run one (algorithm, delay) cell on an instantiated problem."""
    if algo == "malm":
        return run_malm(problem, malm_config_for(config, tau))
    return run_baseline(problem, BaselineConfig(algo, config.T, tau))


def csv_header(p: int) -> list:
    return (["problem", "algo", "seed", "tau", "t", "cum_regret",
             "avg_regret", "max_avg_vio"]
            + [f"vio_{i}" for i in range(1, p + 1)] + ["lambda_norm"])


def _write_rows(fh, config: ExperimentConfig, algo: str, seed: int,
                tau: int, series: MetricsSeries) -> None:
    values = np.column_stack([series.cum_regret, series.avg_regret,
                              series.avg_vio_max, series.cum_vio,
                              series.lambda_norm])
    row = (f"{config.problem},{algo},{seed},{tau},%d,"
           + ",".join(["%.17g"] * values.shape[1]) + "\r\n")
    fh.write("".join(row % (t, *v) for t, v in enumerate(values.tolist(), 1)))


def run_experiment(config: ExperimentConfig) -> str:
    """Run the whole grid and write one CSV; returns the output path.

    Every seed's instance and comparator are set up, and ``mosp`` refused on
    nonlinear constraints, before the first cell runs; they are shared
    across delays and algorithms.  Numeric failures propagate (the CLI maps
    them to exit code 3 naming the failing cell and round).

    The rows go to a temporary file next to ``config.out`` that replaces it
    only once the whole grid is written, so a failed run leaves ``out`` as
    it was and no partial file behind.  A missing output directory, or an
    ``out`` that is a directory, is refused with FileNotFoundError or
    IsADirectoryError before any computation.
    """
    head, tail = os.path.split(os.path.abspath(config.out))
    if not os.path.isdir(head):
        raise FileNotFoundError(f"cannot write {config.out!r}: "
                                f"directory {head!r} does not exist")
    if os.path.isdir(config.out):
        raise IsADirectoryError(f"cannot write {config.out!r}: it is a directory")
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex[:8]}.tmp")
    try:
        _write_grid(config, tmp)
        os.replace(tmp, config.out)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return config.out


@contextmanager
def _naming_cell(**cell):
    """Attach ``cell`` to a numeric failure raised inside, for the CLI."""
    try:
        yield
    except (ConvergenceError, InfeasibleProblemError) as err:
        err.cell = cell
        raise


def _write_grid(config: ExperimentConfig, path: str) -> None:
    problems, comparators = {}, {}
    for seed in config.seeds:
        with _naming_cell(problem=config.problem, seed=seed):
            problems[seed] = problem = generate_problem(config, seed)
            if "mosp" in config.algos and any(r.g_kind != "affine"
                                              for r in problem.rounds):
                raise UnsupportedProblemError(f"mosp requires linear constraints; "
                                              f"{config.problem} has others")
            comparators[seed] = solve_comparator(problem, config.tol_comparator)
    with open(path, "x", newline="") as fh:
        fh.write(",".join(csv_header(problems[config.seeds[0]].p)) + "\r\n")
        for tau in config.taus:
            for algo in config.algos:
                for seed in config.seeds:
                    with _naming_cell(problem=config.problem, algo=algo,
                                      seed=seed, tau=tau):
                        traj = run_cell(config, problems[seed], algo, tau)
                    series = full_series(traj, problems[seed], comparators[seed])
                    _write_rows(fh, config, algo, seed, tau, series)
