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
from .harness import PRESETS, ExperimentConfig, run_experiment


def _split(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _ints(text: str) -> tuple:
    return tuple(int(part) for part in _split(text))


def _int_list(text: str) -> tuple:
    try:
        return _ints(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocobench",
        description="Constrained online convex optimization benchmark runner.")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="start from a named experiment preset")
    parser.add_argument("--config", metavar="FILE",
                        help="INI config file (sections: experiment, problem, malm)")
    # Every other flag's dest is the ExperimentConfig field it sets.
    parser.add_argument("--problem", choices=("nra", "olr", "oqcqp"))
    parser.add_argument("--algo", type=_split, dest="algos", metavar="A[,B...]",
                        help="comma-separated algorithms: malm,mosp,cl,ny,czp")
    parser.add_argument("--T", type=int, help="number of rounds")
    parser.add_argument("--tau", type=_int_list, dest="taus", metavar="T0[,T1...]",
                        help="comma-separated feedback delays")
    parser.add_argument("--seed", type=_int_list, dest="seeds", metavar="S0[,S1...]",
                        help="comma-separated instance seeds")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--tol-inner", type=float, dest="tol_inner",
                        help="subproblem solver tolerance")
    parser.add_argument("--tol-comparator", type=float, dest="tol_comparator",
                        help="offline comparator tolerance")
    return parser


def _coerce(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


# INI key (matched case-insensitively) -> (ExperimentConfig field, parser),
# per section.  The [problem] section is passed through by the generator's
# own case-sensitive names instead.
_INI_KEYS = {
    "experiment": {
        "problem": ("problem", str),
        "algos": ("algos", _split),
        "t": ("T", int),
        "taus": ("taus", _ints),
        "seeds": ("seeds", _ints),
        "out": ("out", str),
        "tol_inner": ("tol_inner", float),
        "tol_comparator": ("tol_comparator", float),
    },
    "malm": {
        "alpha": ("malm_alpha", float),
        "sigma": ("malm_sigma", float),
        "model": ("malm_model", str),
    },
}


def _file_updates(path: str) -> dict:
    ini = configparser.ConfigParser()
    ini.optionxform = str  # keep the case of [problem] keys such as R, J, M
    read = ini.read(path)
    if not read:
        raise ValueError(f"config file not found: {path}")
    updates: dict = {}
    for section in ini.sections():
        items = ini[section].items()
        if section == "problem":
            updates["problem_params"] = {key: _coerce(val) for key, val in items}
            continue
        if section not in _INI_KEYS:
            raise ValueError(f"{path}: unknown section [{section}]; expected "
                             f"experiment, problem or malm")
        for key, val in items:
            try:
                field, parse = _INI_KEYS[section][key.lower()]
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
    except (ValueError, KeyError, configparser.Error) as err:
        parser.error(str(err))
    try:
        path = run_experiment(config)
    except (UnsupportedProblemError, ProblemArgumentError,
            FileNotFoundError) as err:
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
