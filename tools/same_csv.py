"""Check that this checkout and another commit write byte-identical CSVs.

Usage::

    python tools/same_csv.py REF

Runs the standard byte-identity runs (the presets cut short, three delay
grids, one of them up to tau = T - 1 and one with three olr seeds stepped
together, seven INI model runs, one INI run that sets every key, one seed
the CLI refuses as infeasible and one algorithm it refuses on a problem)
twice: on this checkout, uncommitted edits included, and on REF, checked
out in a temporary ``git worktree``.  Each run is
``PYTHONPATH=<tree>/src python -m ocobench ...`` in a scratch directory.  A run is the same in both trees when its exit codes match and
either both exit 0 with CSVs that ``cmp`` finds identical, or both print
the same stderr.  The runs that differ are printed, each with its exit
codes and stderr, or, when both exit 0, with the largest absolute change
of each numeric CSV column, next to its largest change on the cells' final
rows (the values the benchmark checks), and the row counts if they differ.
The exit code is 1 if any run differs, else 0.  A refactor that must not
move any number should pass it against its parent commit.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# INI runs at seed 0, by file name.
INI_FILES = {
    "nra-truncated.ini": "[experiment]\nproblem = nra\nT = 120\nseeds = 0\n"
                         "[malm]\nmodel = truncated\n",
    "olr-truncated.ini": "[experiment]\nproblem = olr\nT = 300\nseeds = 0\n"
                         "[malm]\nmodel = truncated\nalpha = 0.05\n",
    "olr-quadlin.ini": "[experiment]\nproblem = olr\nT = 300\ntaus = 0,4\n"
                       "seeds = 0\n[malm]\nmodel = quadratic_linearized\n",
    "nra-linearized.ini": "[experiment]\nproblem = nra\nT = 150\nseeds = 0\n"
                          "[malm]\nmodel = linearized\n",
    # iota from the rounds' diagonal hess_f, then Newton with h = iota.
    "nra-quadlin.ini": "[experiment]\nproblem = nra\nT = 150\nseeds = 0\n"
                       "[malm]\nmodel = quadratic_linearized\n",
    # p = 3 affine rows on a ball: Newton with interior steps.
    "oqcqp-linearized.ini": "[experiment]\nproblem = oqcqp\nT = 200\n"
                            "taus = 0,5\nseeds = 0\n[problem]\np = 3\n"
                            "[malm]\nmodel = linearized\n",
    # The plain model's l1 constraint: FISTA under the exact l1 prox.
    "olr-plain.ini": "[experiment]\nproblem = olr\nT = 300\nseeds = 0\n"
                     "[malm]\nmodel = plain\n",
    # Every [experiment] and [malm] key; the --out flag overrides out.
    "all-keys.ini": "[experiment]\nproblem = oqcqp\nalgos = malm,czp,ny\n"
                    "T = 80\ntaus = 0,3\nseeds = 1,2\nout = unused.csv\n"
                    "tol_inner = 1e-10\ntol_comparator = 1e-8\n"
                    "[problem]\nn = 5\np = 2\nR = 4.0\n"
                    "[malm]\nalpha = 6.0\nsigma = 0.2\nmodel = quadratic_linearized\n",
}

# (name, CLI flags); each run writes <name>.csv.
RUNS = (
    ("smoke", ["--preset", "smoke"]),
    ("nra-paper", ["--preset", "nra-paper", "--T", "150", "--seed", "0,2,4"]),
    ("oqcqp-paper", ["--preset", "oqcqp-paper", "--T", "120", "--seed", "0"]),
    ("olr-paper", ["--preset", "olr-paper", "--T", "2000", "--seed", "0,1"]),
    ("olr-grid", ["--problem", "olr", "--T", "200", "--tau", "0,3",
                  "--algo", "malm,ny,czp"]),
    # Three seeds per (tau, algo) cell, stepped together, delayed too.
    ("olr-lockstep", ["--preset", "olr-paper", "--T", "300", "--seed", "0,1,2",
                      "--tau", "0,4", "--algo", "malm,czp,ny"]),
    # At tau = T - 1 = 59 every decision is blind.
    ("oqcqp-delay-edge", ["--problem", "oqcqp", "--T", "60", "--tau", "0,20,59",
                          "--algo", "malm,czp,ny"]),
    # Seed 1 has a negative Slater margin: the comparator refuses it, exit 3.
    ("nra-infeasible", ["--problem", "nra", "--T", "40", "--seed", "1"]),
    # MOSP needs affine constraints; oqcqp's are quadratic, exit 2.
    ("oqcqp-mosp", ["--problem", "oqcqp", "--algo", "mosp", "--T", "20"]),
) + tuple((name[:-4], ["--config", name]) for name in INI_FILES)


def run_all(tree: str, work: str) -> dict:
    """Run every standard run on ``tree``; (exit code, stderr) per run name."""
    os.makedirs(work)
    for name, text in INI_FILES.items():
        with open(os.path.join(work, name), "w") as fh:
            fh.write(text)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    codes = {}
    for name, flags in RUNS:
        proc = subprocess.run(
            [sys.executable, "-m", "ocobench", *flags, "--out", f"{name}.csv"],
            cwd=work, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        codes[name] = proc.returncode, proc.stderr
    return codes


def column_moves(here_csv: str, ref_csv: str) -> list:
    """Lines giving the largest absolute change of each numeric column
    between two CSVs, row by row, and at the final rows of the cells, and
    their row counts if they differ.  A cell counts t up from 1, so its final
    row is the CSV's last or the one before a t of 1."""
    with open(here_csv, newline="") as here_fh, open(ref_csv, newline="") as ref_fh:
        here, ref = list(csv.DictReader(here_fh)), list(csv.DictReader(ref_fh))
    lines = [] if len(here) == len(ref) else [
        f"rows: {len(here)} here, {len(ref)} in REF"]
    pairs = list(zip(here, ref))
    final = [i for i in range(len(pairs))
             if i + 1 == len(pairs) or here[i + 1].get("t") == "1"]
    for column in (here[0] if here else ()):
        try:
            moves = [abs(float(row[column]) - float(ref_row[column]))
                     for row, ref_row in pairs]
            last = max(moves[i] for i in final)
        except (KeyError, ValueError):  # not numeric, not in REF, or no rows
            continue
        lines.append(f"{column}: largest change {max(moves):.3g}, "
                     f"final rows {last:.3g}")
    return lines


def differing_runs(here_tree: str, ref_tree: str, tmp: str) -> list:
    """Run everything on both trees under ``tmp``; the names of the runs
    that are not the same, each printed with its verdict."""
    here = run_all(here_tree, os.path.join(tmp, "here"))
    there = run_all(ref_tree, os.path.join(tmp, "there"))
    differ = []
    for name, _ in RUNS:
        (code, err), (ref_code, ref_err) = here[name], there[name]
        here_csv, ref_csv = (os.path.join(tmp, side, f"{name}.csv")
                             for side in ("here", "there"))
        same = code == ref_code and (err == ref_err if code else subprocess.run(
            ["cmp", "-s", here_csv, ref_csv]).returncode == 0)
        print(f"{'same' if same else 'DIFFERS'}  {name}  (exit {code})")
        if same:
            continue
        if code == ref_code == 0:
            for line in column_moves(here_csv, ref_csv):
                print(f"  {line}", file=sys.stderr)
        else:
            print(f"  exit {code} here, {ref_code} in REF\n  here: "
                  f"{err.strip()}\n  REF:  {ref_err.strip()}", file=sys.stderr)
        differ.append(name)
    return differ


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_csv.") as tmp:
        ref_tree = os.path.join(tmp, "ref")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--quiet",
                        "--detach", ref_tree, args[0]], check=True)
        try:
            differ = differing_runs(ROOT, ref_tree, tmp)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", ref_tree], check=True)
    print(f"{len(RUNS) - len(differ)} of {len(RUNS)} runs the same as "
          f"{args[0]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
