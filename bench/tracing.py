"""Traced run of the ocobench CLI, in process, with spans around each layer.

Usage::

    python bench/tracing.py SPANS_JSON -- <ocobench CLI flags>

The traced process imports ``ocobench``, replaces the names each calling
module looks up (``ocobench.malm.fista``, ``ocobench.harness.full_series``,
...) with timing wrappers, and runs ``ocobench.cli.main`` on the flags.
Nothing in the package itself is changed.  Spans are kept in memory as
``[name, parent, start, end, extra]`` and written to SPANS_JSON when the CLI
returns; ``summarize`` turns them into the per-layer metrics.

Times come from ``time.monotonic``, which on Linux is the system-wide
CLOCK_MONOTONIC, so the parent process can compare them with its own clock.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.monotonic

# (module, attribute, span name): the calls timed in the traced run.  Each
# attribute is the name the calling module looks up at call time.
WRAPPED = (
    ("ocobench.cli", "run_experiment", "harness.run_experiment"),
    ("ocobench.harness", "generate_problem", "problems.generate"),
    ("ocobench.harness", "solve_comparator", "offline.solve_comparator"),
    ("ocobench.harness", "run_malm", "malm.run_malm"),
    ("ocobench.harness", "run_baseline", "baselines.run_baseline"),
    ("ocobench.harness", "full_series", "metrics.full_series"),
    ("ocobench.malm", "make_model", "models.make_model"),
    ("ocobench.malm", "solve_subproblem", "malm.solve_subproblem"),
    ("ocobench.malm", "multiplier_update", "malm.multiplier_update"),
    ("ocobench.baselines", "mosp_step", "baselines.step"),
    ("ocobench.baselines", "cl_step", "baselines.step"),
    ("ocobench.baselines", "ny_step", "baselines.step"),
    ("ocobench.baselines", "czp_step", "baselines.step"),
)
# Modules whose ``fista`` is wrapped; the span records the caller.
FISTA_CALLERS = ("malm", "offline")

# Counts that must repeat exactly between two traced runs of one input.
EXACT = ("apg.calls", "apg.iters", "apg.grad_evals", "malm.rounds",
         "models.calls", "baselines.steps", "offline.fista_iters")


class Tracer:
    """Spans in memory, each with the id of the span open when it started."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def open(self, name: str, extra=None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, clock(), 0.0, extra])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = clock()
        self._stack.pop()


def _timed(tracer: Tracer, fn, name: str):
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(sid)
    return traced


def _timed_fista(tracer: Tracer, fista, caller: str, error_type):
    """FISTA wrapper counting gradient and prox calls and their time.

    Gradient and prox calls are far too many for spans of their own; their
    counts and summed durations go into the FISTA span's ``extra``.
    """
    def traced(x0, smooth_grad, prox, *args, **kwargs):
        extra = {"caller": caller, "iters": 0, "grad_n": 0, "grad_s": 0.0,
                 "prox_n": 0, "prox_s": 0.0}

        def grad(x):
            t0 = clock()
            g = smooth_grad(x)
            extra["grad_s"] += clock() - t0
            extra["grad_n"] += 1
            return g

        def timed_prox(z, step):
            t0 = clock()
            p = prox(z, step)
            extra["prox_s"] += clock() - t0
            extra["prox_n"] += 1
            return p

        sid = tracer.open("apg.fista", extra)
        try:
            result = fista(x0, grad, timed_prox, *args, **kwargs)
            extra["iters"] = int(result[2])
            return result
        except error_type as err:
            extra["iters"] = max(int(err.iterations), 0)
            raise
        finally:
            tracer.close(sid)
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every name in WRAPPED and each caller's ``fista``."""
    import importlib

    from ocobench.core import ConvergenceError

    for module_name, attr, span in WRAPPED:
        module = importlib.import_module(module_name)
        setattr(module, attr, _timed(tracer, getattr(module, attr), span))
    for caller in FISTA_CALLERS:
        module = importlib.import_module(f"ocobench.{caller}")
        module.fista = _timed_fista(tracer, module.fista, caller, ConvergenceError)


def main(argv) -> int:
    t_start = clock()
    spans_path, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        print("usage: tracing.py SPANS_JSON -- <ocobench flags>", file=sys.stderr)
        return 2
    tracer = Tracer()
    sid = tracer.open("import")
    import ocobench.cli
    tracer.close(sid)
    install(tracer)
    sid = tracer.open("cli.main")
    try:
        code = ocobench.cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    tracer.close(sid)
    t_end = clock()
    with open(spans_path, "w") as fh:
        json.dump({"t_start": t_start, "t_end": t_end, "exit_code": code,
                   "spans": tracer.spans}, fh)
    return code


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def summarize(spans: list) -> dict:
    """Per-layer metrics from a traced run's spans, as {name: (value, unit)}.

    A span's self time is its duration minus its children's durations; for
    a FISTA span the gradient and prox time counts as children's time.
    Also returns ``trace.self_s``, the sum of all self times plus gradient
    and prox time, which equals the root spans' total duration when the
    spans nest properly.
    """
    child_s = [0.0] * len(spans)
    has_fista = [False] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
            if name == "apg.fista":
                has_fista[parent] = True
    by_name: dict = {}
    total_self = 0.0
    for sid, (name, parent, start, end, extra) in enumerate(spans):
        dur = end - start
        pseudo = extra["grad_s"] + extra["prox_s"] if extra is not None else 0.0
        self_s = dur - child_s[sid] - pseudo
        total_self += self_s + pseudo
        by_name.setdefault(name, []).append((sid, dur, self_s, extra))

    def spans_of(name):
        return by_name.get(name, [])

    def total(name, field=1):
        return sum(s[field] for s in spans_of(name))

    fista = spans_of("apg.fista")
    iters = [s[3]["iters"] for s in fista]
    fista_s = total("apg.fista")
    grad_evals = sum(s[3]["grad_n"] for s in fista)
    solves = spans_of("malm.solve_subproblem")
    steps = spans_of("baselines.step")
    return {
        "apg.calls": (len(fista), "count"),
        "apg.iters": (sum(iters), "count"),
        "apg.iters_p50": (_percentile(iters, 50), "count"),
        "apg.iters_p99": (_percentile(iters, 99), "count"),
        "apg.grad_evals": (grad_evals, "count"),
        "apg.iters_per_grad": (sum(iters) / grad_evals if grad_evals else 0.0,
                               "ratio"),
        "apg.grad_s": (sum(s[3]["grad_s"] for s in fista), "s"),
        "apg.prox_s": (sum(s[3]["prox_s"] for s in fista), "s"),
        "apg.self_s": (total("apg.fista", 2), "s"),
        "apg.us_per_iter": (1e6 * fista_s / sum(iters) if sum(iters) else 0.0,
                            "us"),
        "malm.rounds": (len(solves), "count"),
        "malm.run_s": (total("malm.run_malm"), "s"),
        "malm.self_s": (total("malm.run_malm", 2), "s"),
        "malm.solve_s": (total("malm.solve_subproblem"), "s"),
        "malm.solve_us_p50": (_percentile([1e6 * s[1] for s in solves], 50), "us"),
        "malm.solve_us_p99": (_percentile([1e6 * s[1] for s in solves], 99), "us"),
        "malm.fista_free_ratio": (
            sum(1 for s in solves if not has_fista[s[0]]) / len(solves)
            if solves else 0.0, "ratio"),
        "malm.multiplier_update_s": (total("malm.multiplier_update"), "s"),
        "models.calls": (len(spans_of("models.make_model")), "count"),
        "models.make_model_s": (total("models.make_model"), "s"),
        "baselines.run_s": (total("baselines.run_baseline"), "s"),
        "baselines.steps": (len(steps), "count"),
        "baselines.step_us_p50": (_percentile([1e6 * s[1] for s in steps], 50), "us"),
        "offline.comparator_s": (total("offline.solve_comparator"), "s"),
        "offline.fista_iters": (sum(s[3]["iters"] for s in fista
                                    if s[3]["caller"] == "offline"), "count"),
        "problems.generate_s": (total("problems.generate"), "s"),
        "metrics.full_series_s": (total("metrics.full_series"), "s"),
        "harness.self_s": (total("harness.run_experiment", 2), "s"),
        "trace.spans": (len(spans), "count"),
        "trace.self_s": (total_self, "s"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
