"""Check that this checkout and another commit write byte-identical CSVs.

Usage::

    python tools/same_csv.py REF

Runs the standard byte-identity runs (the presets cut short, a delay grid
and four INI model runs) twice: on this checkout, uncommitted edits
included, and on REF, checked out in a temporary ``git worktree``.  Each
run is ``PYTHONPATH=<tree>/src python -m ocobench ...`` in a scratch
directory.  The two CSVs of each run are compared with ``cmp``; the runs
that differ, or fail in either tree, are printed, and the exit code is 1
if there is any, else 0.  A refactor that must not move any number should
pass it against its parent commit.
"""

from __future__ import annotations

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
}

# (name, CLI flags); each run writes <name>.csv.
RUNS = (
    ("smoke", ["--preset", "smoke"]),
    ("nra-paper", ["--preset", "nra-paper", "--T", "150", "--seed", "0,2,4"]),
    ("oqcqp-paper", ["--preset", "oqcqp-paper", "--T", "120", "--seed", "0"]),
    ("olr-paper", ["--preset", "olr-paper", "--T", "2000", "--seed", "0,1"]),
    ("olr-grid", ["--problem", "olr", "--T", "200", "--tau", "0,3",
                  "--algo", "malm,ny,czp"]),
) + tuple((name[:-4], ["--config", name]) for name in INI_FILES)


def run_all(tree: str, work: str) -> dict:
    """Run every standard run on ``tree``; the exit code per run name."""
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
        if proc.returncode:
            print(f"{name}: exit {proc.returncode} in {tree}\n"
                  f"{proc.stderr.strip()}", file=sys.stderr)
        codes[name] = proc.returncode
    return codes


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
            here = run_all(ROOT, os.path.join(tmp, "here"))
            there = run_all(ref_tree, os.path.join(tmp, "there"))
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", ref_tree], check=True)
        differ = []
        for name, _ in RUNS:
            same = here[name] == there[name] == 0 and subprocess.run(
                ["cmp", "-s", os.path.join(tmp, "here", f"{name}.csv"),
                 os.path.join(tmp, "there", f"{name}.csv")]).returncode == 0
            print(f"{'same' if same else 'DIFFERS'}  {name}")
            if not same:
                differ.append(name)
    print(f"{len(RUNS) - len(differ)} of {len(RUNS)} runs byte-identical "
          f"to {args[0]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
