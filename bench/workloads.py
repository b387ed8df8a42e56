"""Workload definitions and the per-cell correctness check of the benchmark.

Each workload is one CLI preset with only ``--T`` and ``--seed`` overridden.
The instance seeds a run uses are drawn by the workload seed from a pool of
reference instances stored in ``reference.json``; every cell of every pool
instance has reference final-round values there, so any workload seed gives
inputs whose outputs can be checked.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Final-round columns compared against the reference, by CSV column name.
CHECKED = ("cum_regret", "max_avg_vio", "lambda_norm")


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    T: int
    pool: int
    draw: int
    per_child: int
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="nra-malm", preset="nra-paper", T=150, pool=10, draw=9, per_child=3,
            why="MALM plain model, FISTA-bound, piecewise-quadratic subproblem "
                "(Newton target); about half of nra seeds are infeasible (CLI "
                "exit 3), so the pool holds feasible seeds only"),
        Workload(
            name="oqcqp-delay", preset="oqcqp-paper", T=120, pool=5, draw=4, per_child=2,
            why="MALM with delays 0-100 on quadratic constraints: FISTA "
                "dominates but no Newton path, five delay cells per seed "
                "to batch, PSD-projection generator"),
        Workload(
            name="olr-closedform", preset="olr-paper", T=2000, pool=14, draw=12, per_child=4,
            why="linearized MALM takes the closed form every round: no "
                "FISTA, so per-round Python overhead (models, baselines, "
                "metrics, CSV) is the whole cost"),
    )
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def instance_seeds(workload: Workload, seed: int, reference: dict) -> list:
    """The instance seeds a run on ``workload`` with workload ``seed`` uses.

    ``draw`` of the workload's reference pool, in an order the seed also
    sets.  Drawing most of the pool keeps a run's total work close to the
    pool average, so different workload seeds give comparable timings.
    """
    pool = sorted(int(s) for s in reference["workloads"][workload.name]["cells"])
    return random.Random(seed).sample(pool, workload.draw)


def groups(workload: Workload, seeds) -> list:
    """The instance seeds split into the groups one timed CLI child runs."""
    step = workload.per_child
    return [seeds[i:i + step] for i in range(0, len(seeds), step)]


def cli_args(workload: Workload, seeds, out: str) -> list:
    return ["--preset", workload.preset, "--T", str(workload.T),
            "--seed", ",".join(str(s) for s in seeds), "--out", out]


@dataclass
class CellReport:
    attempted: int
    failed: int
    digest_matches: int
    problems: list


def cell_keys(wref: dict, seeds) -> list:
    """(algo, seed, tau) of every cell, in the order the CLI writes them."""
    return [(algo, str(seed), str(tau)) for tau in wref["taus"]
            for algo in wref["algos"] for seed in seeds]


def read_cells(path: str):
    """Header and rows of a CLI output grouped by (algo, seed, tau).

    Each row is kept as its split fields and its raw bytes.  Raises
    ValueError on a row whose column count differs from the header's.
    """
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\r\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if not lines:
        raise ValueError("empty output")
    header = lines[0].decode().split(",")
    cells: dict = {}
    for line in lines[1:]:
        fields = line.decode().split(",")
        if len(fields) != len(header):
            raise ValueError(f"malformed row: {line[:80]!r}")
        cells.setdefault((fields[1], fields[2], fields[3]), []).append((fields, line))
    return header, cells


def digest(rows) -> str:
    h = hashlib.sha256()
    for _, line in rows:
        h.update(line + b"\r\n")
    return h.hexdigest()


def check_csv(path: str, workload: Workload, seeds, reference: dict,
              exit_code: int = 0) -> CellReport:
    """Check one CLI output, cell by cell.

    A cell fails when the CLI exited non-zero, when the output is malformed
    (header, column count, unknown cell, row count or round order), when a
    value is not finite, or when a final-round value of ``CHECKED`` is off
    its reference by more than the workload's tolerance.  The digest of a
    cell's rows is compared with the reference digest for information only.
    """
    wref = reference["workloads"][workload.name]
    keys = cell_keys(wref, seeds)
    total = len(keys)
    if exit_code != 0:
        return CellReport(total, total, 0, [f"CLI exited with code {exit_code}"])
    try:
        header, cells = read_cells(path)
    except (OSError, ValueError) as err:
        return CellReport(total, total, 0, [str(err)])
    if header != wref["header"]:
        return CellReport(total, total, 0, ["header differs from the reference"])
    unknown = set(cells) - set(keys)
    if unknown or any(rows[0][0][0] != wref["problem"] for rows in cells.values()):
        return CellReport(total, total, 0,
                          [f"rows of unexpected cells: {sorted(unknown)[:3]}"])

    col = {name: header.index(name) for name in CHECKED}
    failed, matches, problems = 0, 0, []
    for key in keys:
        rows = cells.get(key, [])
        ref = wref["cells"][key[1]][f"{key[0]}/{key[2]}"]
        reason = _check_cell(rows, ref, wref["tolerance"], workload.T, col)
        if reason is not None:
            failed += 1
            problems.append(f"cell {key}: {reason}")
        elif digest(rows) == ref["digest"]:
            matches += 1
    return CellReport(total, failed, matches, problems)


def _check_cell(rows, ref: dict, tolerance: dict, T: int, col: dict):
    if len(rows) != T:
        return f"{len(rows)} rows, expected {T}"
    for t, (fields, _) in enumerate(rows, start=1):
        if fields[4] != str(t):
            return f"round {fields[4]} where {t} was expected"
        try:
            values = [float(v) for v in fields[5:]]
        except ValueError:
            return f"unparsable value in round {t}"
        if not all(math.isfinite(v) for v in values):
            return f"non-finite value in round {t}"
    final = rows[-1][0]
    for name in CHECKED:
        got, want = float(final[col[name]]), ref[name]
        if abs(got - want) > tolerance[name]:
            return (f"final {name} {got!r} differs from reference {want!r} "
                    f"by more than {tolerance[name]:.3g}")
    return None
