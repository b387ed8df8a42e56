"""Rebuild ``reference.json``: the instance pools and reference final values.

Usage, from the root of a checkout::

    python3 bench/make_reference.py [WORKLOAD ...]

For each workload, candidate instance seeds 0, 1, 2, ... are run through the
CLI one at a time at the default inner tolerance; a seed the CLI rejects
with exit code 3 (an ``nra`` instance with no round-universal feasible
point) is left out of the pool, until the pool holds ``Workload.pool``
seeds.  The pool is then run again at a 100x tighter inner tolerance.  The
check tolerance of each final-round quantity is SPREAD_FACTOR times the
largest difference between the two runs over all cells, and at least
FLOOR_REL times the largest reference magnitude, so that a solver which
keeps the residual certificate passes and a wrong answer fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import SRC, WORK_ROOT, child_env, environment
from workloads import (CHECKED, REFERENCE_PATH, WORKLOADS, cli_args, digest,
                       read_cells)

sys.path.insert(0, SRC)
from ocobench.harness import PRESETS  # noqa: E402

TIGHT_FACTOR = 100.0
SPREAD_FACTOR = 100.0
FLOOR_REL = 1e-10
MAX_CANDIDATES = 200


def run_cli(workload, seeds, out: str, tol_inner: float) -> int:
    argv = [sys.executable, "-m", "ocobench",
            *cli_args(workload, seeds, out), "--tol-inner", repr(tol_inner)]
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True)
    if proc.returncode not in (0, 3):
        raise RuntimeError(f"{argv}: exit {proc.returncode}: {proc.stderr}")
    return proc.returncode


def final_values(cells, col) -> dict:
    return {key: {name: float(rows[-1][0][col[name]]) for name in CHECKED}
            for key, rows in cells.items()}


def build(workload, work: str) -> dict:
    preset = PRESETS[workload.preset]
    tol = preset.tol_inner
    out = os.path.join(work, "ref.csv")
    pool, skipped = [], []
    for seed in range(MAX_CANDIDATES):
        if len(pool) == workload.pool:
            break
        if run_cli(workload, [seed], out, tol) == 3:
            skipped.append(seed)
        else:
            pool.append(seed)
    if len(pool) < workload.pool:
        raise RuntimeError(f"{workload.name}: only {len(pool)} usable seeds")

    if run_cli(workload, pool, out, tol) != 0:
        raise RuntimeError(f"{workload.name}: pool run failed")
    header, cells = read_cells(out)
    col = {name: header.index(name) for name in CHECKED}
    ref = final_values(cells, col)
    if run_cli(workload, pool, out, tol / TIGHT_FACTOR) != 0:
        raise RuntimeError(f"{workload.name}: tight-tolerance run failed")
    _, tight_cells = read_cells(out)
    tight = final_values(tight_cells, col)

    spread = {name: max(abs(ref[k][name] - tight[k][name]) for k in ref)
              for name in CHECKED}
    scale = {name: max(abs(v[name]) for v in ref.values()) for name in CHECKED}
    tolerance = {name: max(SPREAD_FACTOR * spread[name],
                           FLOOR_REL * max(1.0, scale[name]))
                 for name in CHECKED}
    by_seed: dict = {}
    for (algo, seed, tau), rows in cells.items():
        by_seed.setdefault(seed, {})[f"{algo}/{tau}"] = dict(
            ref[(algo, seed, tau)], digest=digest(rows))
    return {
        "preset": workload.preset,
        "T": workload.T,
        "problem": preset.problem,
        "algos": list(preset.algos),
        "taus": list(preset.taus),
        "header": header,
        "tol_inner": tol,
        "tol_inner_tight": tol / TIGHT_FACTOR,
        "spread": spread,
        "tolerance": tolerance,
        "seeds_rejected": skipped,
        "cells": by_seed,
    }


def main(names) -> int:
    names = names or sorted(WORKLOADS)
    work = os.path.join(WORK_ROOT, f"reference-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    reference = {"workloads": {}}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as fh:
            reference = json.load(fh)
    try:
        for name in names:
            print(f"building reference for {name}", flush=True)
            reference["workloads"][name] = build(WORKLOADS[name], work)
    finally:
        for entry in os.listdir(work):
            os.remove(os.path.join(work, entry))
        os.rmdir(work)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    reference["environment"] = environment()
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
