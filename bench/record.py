"""Run the benchmark over several seeds and summarize each metric.

Usage, from the root of a checkout::

    python3 bench/record.py --seeds 0-9 [--trace 0|1] [--workloads A,B]
                            [--out bench/BENCH_<label>.json]

With ``--out``, the summary and every run's result go into the file's
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) section; the other
section of an existing file is kept.

Each (seed, workload) is one ``bench/run.py`` process with the run length of
``BENCHMARK.json``; workloads are interleaved so that slow drift of the
machine's speed reaches all of them alike.  For every metric the summary
gives the sample count, median, quartiles (``statistics.quantiles(n=4)``)
and the spread, (q3 - q1) / median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import ROOT, environment, quartiles
from workloads import WORKLOADS


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, q3 = quartiles(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    names = args.workloads.split(",")
    runs = []
    for seed in args.seeds:
        for name in names:
            argv = [sys.executable, os.path.join(ROOT, "bench", "run.py"),
                    "--workload", name, "--seed", str(seed),
                    "--trace", str(args.trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": name, "seed": seed, **result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()
                             if k in ("wall_ref", "setup_s", "trace.wall_s")),
                  flush=True)
            if proc.returncode != 0 or not result["correct"]:
                sys.stderr.write(proc.stderr)

    summary = {}
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        units = {k: v["unit"] for r in mine for k, v in r["metrics"].items()}
        summary[name] = {
            "runs": len(mine),
            "correct_runs": sum(r["correct"] for r in mine),
            "cells_attempted": sum(r["attempted"] for r in mine),
            "cells_failed": sum(r["failed"] for r in mine),
            "metrics": {k: dict(summarize([r["metrics"][k]["value"] for r in mine]),
                                unit=unit)
                        for k, unit in units.items()},
        }
        print(f"\n{name}: {summary[name]['correct_runs']}/{len(mine)} runs "
              f"correct, cells_failed {summary[name]['cells_failed']} of "
              f"{summary[name]['cells_attempted']}")
        for k, s in summary[name]["metrics"].items():
            print(f"  {k:26s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                  f"{s['unit']} (n={s['n']})")

    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc["per_layer" if args.trace else "end_to_end"] = {
            "environment": environment(), "seeds": args.seeds,
            "summary": summary, "runs": runs}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
