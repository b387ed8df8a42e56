"""Command-line front end: presets, INI config files, and flag overrides.

Precedence: command-line flags > config file > preset > built-in defaults.
Exit codes: 0 success, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import replace

from .core import (ConvergenceError, InfeasibleProblemError,
                   ProblemArgumentError, UnsupportedProblemError)
from .harness import PRESETS, PROBLEMS, ExperimentConfig, run_experiment


def _split(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in _split(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


# The flags that set ExperimentConfig fields: (flag, field, type, other
# add_argument keywords).  The field is the flag's dest and, matched in any
# case, its [experiment] INI key, whose value the type parses.
_FLAGS = (
    ("--problem", "problem", str, {"choices": sorted(PROBLEMS)}),
    ("--algo", "algos", _split, {"metavar": "A[,B...]", "help":
                                 "comma-separated algorithms: malm,mosp,cl,ny,czp"}),
    ("--T", "T", int, {"help": "number of rounds"}),
    ("--tau", "taus", _int_list, {"metavar": "T0[,T1...]",
                                  "help": "comma-separated feedback delays"}),
    ("--seed", "seeds", _int_list, {"metavar": "S0[,S1...]",
                                    "help": "comma-separated instance seeds"}),
    ("--out", "out", str, {"help": "output CSV path"}),
    ("--tol-inner", "tol_inner", float, {"help": "subproblem solver tolerance"}),
    ("--tol-comparator", "tol_comparator", float,
     {"help": "offline comparator tolerance"}),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocobench",
        description="Constrained online convex optimization benchmark runner.")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="start from a named experiment preset")
    parser.add_argument("--config", metavar="FILE",
                        help="INI config file (sections: experiment, problem, malm)")
    for flag, field, parse, keywords in _FLAGS:
        parser.add_argument(flag, dest=field, type=parse, **keywords)
    return parser


# [malm] INI key (matched case-insensitively) -> (ExperimentConfig field,
# parser).  [experiment] keys come from _FLAGS, and the [problem] section is
# passed through as floats by the generator's own case-sensitive names.
_INI_KEYS = {
    "alpha": ("malm_alpha", float),
    "sigma": ("malm_sigma", float),
    "model": ("malm_model", str),
}


def _file_updates(path: str) -> dict:
    ini = configparser.ConfigParser()
    ini.optionxform = str  # keep the case of [problem] keys such as R, J, M
    read = ini.read(path)
    if not read:
        raise ValueError(f"config file not found: {path}")
    sections = {"experiment": {field.lower(): (field, parse)
                               for _, field, parse, _ in _FLAGS},
                "malm": _INI_KEYS}
    updates: dict = {}
    for section in ini.sections():
        items = ini[section].items()
        if section == "problem":
            updates["problem_params"] = {key: float(val) for key, val in items}
            continue
        if section not in sections:
            raise ValueError(f"{path}: unknown section [{section}]; expected "
                             f"experiment, problem or malm")
        for key, val in items:
            try:
                field, parse = sections[section][key.lower()]
            except KeyError:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")
            updates[field] = parse(val)
    return updates


def _cli_updates(args: argparse.Namespace) -> dict:
    return {field: value for field, value in vars(args).items()
            if value is not None and field not in ("preset", "config")}


def assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    updates: dict = {}
    if args.config:
        updates.update(_file_updates(args.config))
    updates.update(_cli_updates(args))
    if args.preset:
        preset = PRESETS[args.preset]
        if updates.get("problem", preset.problem) != preset.problem:
            # Another generator: the preset's arguments are not its own, so
            # start from its defaults unless the file names some.
            updates.setdefault("problem_params", {})
        elif "problem_params" in updates:
            # Same generator: the file's [problem] keys override the
            # preset's one by one.
            updates["problem_params"] = {**preset.problem_params,
                                         **updates["problem_params"]}
        return replace(preset, **updates)
    problem = updates.pop("problem", None)
    if problem is None:
        raise ValueError("no problem selected: pass --problem, --preset, "
                         "or a config file with problem=")
    return ExperimentConfig(problem=problem, **updates)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = assemble_config(args)
    except (ValueError, KeyError, configparser.Error,
            argparse.ArgumentTypeError) as err:
        parser.error(str(err))
    try:
        path = run_experiment(config)
    except (UnsupportedProblemError, ProblemArgumentError,
            FileNotFoundError, IsADirectoryError) as err:
        parser.error(str(err))
    except (ConvergenceError, InfeasibleProblemError) as err:
        print(f"ocobench: numeric failure{_where(err)}: {err}", file=sys.stderr)
        return 3
    print(path)
    return 0


def _where(err) -> str:
    """' (problem P, algo A, seed S, tau U, round R)' for the known parts."""
    parts = dict(err.cell or {})
    if getattr(err, "round_index", None) is not None:
        parts["round"] = err.round_index
    if not parts:
        return ""
    return " (" + ", ".join(f"{key} {val}" for key, val in parts.items()) + ")"


if __name__ == "__main__":
    sys.exit(main())
