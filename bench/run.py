"""ocobench benchmark: one workload, one seed, end-to-end or traced.

Usage, from the root of a checkout::

    python3 bench/run.py --workload nra-malm --seed 0 --seconds 42 --trace 0

``--trace 0`` runs the real CLI (``python -m ocobench``) as child processes,
one at a time, with BLAS threads pinned to one, and reports the end-to-end
metrics: CLI wall time for the run's instances in multiples of a fixed
reference kernel timed around each CLI child (``wall_ref``), online rounds
per kernel time, set-up time (a child that only imports ocobench and
generates the instances) and peak RSS.  ``--trace 1`` runs the CLI on all the run's instances once
untraced and at least twice under ``tracing.py`` and reports the per-layer
metrics.  Every output cell is
checked against ``reference.json``.  The last line of standard output is
one JSON object: correct, attempted (cells), failed (cells), metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

from workloads import (WORKLOADS, check_csv, cli_args, groups,
                       instance_seeds, load_reference)
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
KERNEL = os.path.join(HERE, "reference_kernel.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

MIN_CYCLES = 3          # timed CLI children per instance group, at least
MIN_TRACED = 2          # traced children per run, at least (counts must repeat)
# Self times must sum to at least this share of the traced process's wall
# from its first statement to the CLI's return.
SELF_COVER_SHARE = 0.01
RUN_LIMIT_S = 170.0     # a child still running this long after start is killed
BLAS_THREADS = "1"

SETUP_CODE = """\
import sys
from dataclasses import replace
from ocobench.harness import PRESETS, generate_problem
config = replace(PRESETS[sys.argv[1]], T=int(sys.argv[2]))
for seed in sys.argv[3:]:
    generate_problem(config, int(seed))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # Bytecode caches are written once and reused, as in an installed copy.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Child:
    """One finished child process: exit code, wall seconds, peak RSS in MB."""

    def __init__(self, argv, cwd: str, env: dict, deadline: float,
                 stderr_path: str):
        with open(stderr_path, "wb") as err:
            self.spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            try:
                timeout = max(deadline - time.monotonic(), 0.0)
                if not select.select([pidfd], [], [], timeout)[0]:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
        self.wall_s = time.monotonic() - self.spawned
        self.exit_code = os.waitstatus_to_exitcode(status)
        proc.returncode = self.exit_code
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        with open(stderr_path, "rb") as err:
            self.stderr = err.read().decode(errors="replace")[-2000:]


def git_commit() -> str:
    """HEAD of the checkout's own repository, read from .git; else unknown."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def quartiles(values) -> tuple:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Run:
    """State of one benchmark run: inputs, scratch directory, cell tallies."""

    def __init__(self, workload, seed: int, seconds: int, reference: dict,
                 work: str):
        self.workload = workload
        self.reference = reference
        self.seeds = instance_seeds(workload, seed, reference)
        self.seconds = seconds
        self.work = work
        self.env = child_env()
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.digest_matches = 0
        self.problems: list = []
        self.samples: dict = {}
        self.info: dict = {}

    def child(self, argv) -> Child:
        return Child(argv, self.work, self.env, self.started + RUN_LIMIT_S,
                     os.path.join(self.work, "stderr.txt"))

    def cli(self, out: str, seeds) -> Child:
        argv = [sys.executable, "-m", "ocobench",
                *cli_args(self.workload, seeds, out)]
        return self.child(argv)

    def check(self, out: str, child: Child, seeds) -> None:
        report = check_csv(out, self.workload, seeds, self.reference,
                           child.exit_code)
        self.attempted += report.attempted
        self.failed += report.failed
        self.digest_matches += report.digest_matches
        if child.exit_code != 0:
            report.problems.append(child.stderr.strip())
        self.problems.extend(report.problems)

    def rounds(self) -> int:
        """Online rounds over all cells of all the run's instances."""
        wref = self.reference["workloads"][self.workload.name]
        return (len(wref["algos"]) * len(wref["taus"]) * len(self.seeds)
                * self.workload.T)

    def fits(self, durations: list) -> bool:
        """Whether one more step of median length ends within the run time."""
        elapsed = time.monotonic() - self.started
        return elapsed + statistics.median(durations) <= self.seconds

    def setup_child(self) -> Child:
        argv = [sys.executable, "-c", SETUP_CODE, self.workload.preset,
                str(self.workload.T), *map(str, self.seeds)]
        child = self.child(argv)
        if child.exit_code != 0:
            self.problems.append(f"set-up child failed: {child.stderr.strip()}")
        return child

    def kernel_child(self) -> Child:
        child = self.child([sys.executable, KERNEL])
        if child.exit_code != 0:
            self.problems.append(f"reference kernel failed: {child.stderr.strip()}")
        return child

    def end_to_end(self) -> dict:
        """Time the run's instances group by group, cycling over the groups.

        Each step runs one CLI child on one group, then a reference-kernel
        child, then a set-up child.  A CLI child's wall time is divided by
        the mean of the kernel children just before and just after it, so
        the ratio is in multiples of the kernel's time on the machine as it
        ran at that moment.  ``wall_ref`` is the sum over groups of the
        median ratio of the group's children: what running all the
        instances takes, in kernel times.  The raw ``wall_s`` (sum of group
        medians of wall seconds) is printed for information.
        """
        # The first set-up and kernel children compile bytecode and fill the
        # file cache, which a user pays once per install, not per run: they
        # are not reported.
        self.setup_child()
        kernels = [self.kernel_child() for _ in range(2)][1:]
        out = os.path.join(self.work, "out.csv")
        parts = groups(self.workload, self.seeds)
        walls = [[] for _ in parts]
        ratios = [[] for _ in parts]
        children, setups, steps = [], [], []
        while True:
            g = len(children) % len(parts)
            if (len(children) >= MIN_CYCLES * len(parts)
                    and not self.fits(steps)):
                break
            began = time.monotonic()
            child = self.cli(out, parts[g])
            self.check(out, child, parts[g])
            kernels.append(self.kernel_child())
            setups.append(self.setup_child().wall_s)
            steps.append(time.monotonic() - began)
            children.append(child)
            walls[g].append(child.wall_s)
            ratios[g].append(child.wall_s
                             / statistics.mean(k.wall_s for k in kernels[-2:]))
        wall_ref = sum(statistics.median(r) for r in ratios)
        wall_s = sum(statistics.median(w) for w in walls)
        self.samples = {f"wall_ref of group {parts[g]}": r
                        for g, r in enumerate(ratios)}
        self.samples["kernel_s"] = [k.wall_s for k in kernels]
        self.samples["setup_s"] = setups
        self.info = {"wall_s": (wall_s, "s"),
                     "rounds_per_s": (self.rounds() / wall_s, "1/s"),
                     "kernel_s": (statistics.median(self.samples["kernel_s"]), "s")}
        return {
            "wall_ref": (wall_ref, "ref"),
            "rounds_per_ref": (self.rounds() / wall_ref, "1/ref"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in children),
                            "MB"),
        }

    def traced(self) -> dict:
        plain_out = os.path.join(self.work, "plain.csv")
        plain = self.cli(plain_out, self.seeds)
        self.check(plain_out, plain, self.seeds)
        if plain.exit_code != 0:
            return {}
        with open(plain_out, "rb") as fh:
            plain_bytes = fh.read()

        runs, walls = [], []
        while len(runs) < MIN_TRACED or self.fits(walls):
            out = os.path.join(self.work, "traced.csv")
            spans_path = os.path.join(self.work, "spans.json")
            argv = [sys.executable, os.path.join(HERE, "tracing.py"),
                    spans_path, "--",
                    *cli_args(self.workload, self.seeds, out)]
            child = self.child(argv)
            self.check(out, child, self.seeds)
            if child.exit_code != 0:
                break
            with open(spans_path) as fh:
                doc = json.load(fh)
            with open(out, "rb") as fh:
                if fh.read() != plain_bytes:
                    self.problems.append("traced CSV differs from the untraced one")
            metrics = tracing.summarize(doc["spans"])
            wall = doc["t_end"] - child.spawned
            walls.append(child.wall_s)
            cover = (metrics.pop("trace.self_s")[0]
                     / (doc["t_end"] - doc["t_start"]))
            if not 1.0 - SELF_COVER_SHARE <= cover <= 1.0 + 1e-9:
                self.problems.append(
                    f"self times cover {cover:.4f} of the traced wall")
            fista_s = sum(metrics[f"apg.{part}_s"][0]
                          for part in ("grad", "prox", "self"))
            metrics["apg.wall_share"] = (fista_s / wall, "ratio")
            metrics["trace.wall_s"] = (wall, "s")
            metrics["trace.overhead_s"] = (wall - plain.wall_s, "s")
            metrics["trace.self_cover"] = (cover, "ratio")
            metrics["harness.csv_bytes"] = (len(plain_bytes), "B")
            runs.append(metrics)

        if not runs:
            return {}
        for name in tracing.EXACT:
            values = {r[name][0] for r in runs}
            if len(values) > 1:
                self.problems.append(f"{name} differs between traced runs: {values}")
        self.samples = {"trace.wall_s": [r["trace.wall_s"][0] for r in runs]}
        return {name: (statistics.median(r[name][0] for r in runs), unit)
                for name, (_, unit) in runs[0].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ocobench", "__init__.py")):
        print(f"bench: no ocobench sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    reference = load_reference()
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds,
                  reference, work)
        metrics = run.traced() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"instances {run.seeds}")
    for name, values in run.samples.items():
        q1, q3 = quartiles(values)
        print(f"  samples {name}: n={len(values)} q1={q1:.6g} q3={q3:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    for name, (value, unit) in run.info.items():
        print(f"{name:28s} {value:.6g} {unit} (information only)")
    print(f"{'cells_failed':28s} {run.failed} of {run.attempted} cells_attempted"
          f" (reference digest matches {run.digest_matches})")
    for problem in run.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    correct = not run.problems and run.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
