"""Check every benchmark cell of this checkout against bench/reference.json.

Usage::

    python tools/bench_cells.py

For each workload of ``bench/workloads.py`` the CLI runs once,
``PYTHONPATH=<checkout>/src python -m ocobench`` with the workload's
``cli_args`` over its whole reference pool, in a temporary directory with
BLAS threads pinned to one.  ``check_csv`` then checks each
cell: the exit code, the row layout and the final-round values within the
workload's tolerance.  The tool prints, per workload, the failing cells,
how many cells match their reference digest byte for byte and, when every
cell passes, the worst final-value margin of each checked column: the
largest |got - reference| / tolerance over the cells, which shows how much
of the tolerance a change that moves the numbers on purpose has used.  It
exits 1 if any cell fails, else 0.  It reads ``bench/`` and writes nothing
there.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import (CHECKED, WORKLOADS, check_csv, cli_args,  # noqa: E402
                       load_reference, read_cells)


def margins(path: str, workload, reference: dict) -> dict:
    """Per checked column, max |final value - reference| / tolerance over
    the cells of a CLI output whose every cell passed ``check_csv``."""
    wref = reference["workloads"][workload.name]
    header, cells = read_cells(path)
    worst = dict.fromkeys(CHECKED, 0.0)
    for (algo, seed, tau), rows in cells.items():
        ref, final = wref["cells"][seed][f"{algo}/{tau}"], rows[-1][0]
        for name in CHECKED:
            off = abs(float(final[header.index(name)]) - ref[name])
            worst[name] = max(worst[name], off / wref["tolerance"][name])
    return worst


def check_pool(workload, reference: dict, work: str):
    """Run the workload's whole pool in one CLI call; its CellReport and,
    when every cell passes, its ``margins``."""
    seeds = sorted(int(s) for s in reference["workloads"][workload.name]["cells"])
    out = os.path.join(work, f"{workload.name}.csv")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-m", "ocobench",
                           *cli_args(workload, seeds, out)],
                          cwd=work, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        print(proc.stderr.strip(), file=sys.stderr)
    report = check_csv(out, workload, seeds, reference, proc.returncode)
    return report, None if report.failed else margins(out, workload, reference)


def main() -> int:
    reference = load_reference()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="bench_cells.") as work:
        for name, workload in WORKLOADS.items():
            report, worst = check_pool(workload, reference, work)
            for problem in report.problems:
                print(f"  {problem}")
            print(f"{name}: {report.attempted - report.failed} of "
                  f"{report.attempted} cells pass, {report.digest_matches} "
                  f"match their reference digest")
            if worst is not None:
                print("  worst final-value margin (|got - reference| / "
                      "tolerance): " + ", ".join(f"{col} {value:.3g}"
                                                 for col, value in worst.items()))
            failed += report.failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
