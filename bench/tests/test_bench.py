"""Tests of the benchmark itself: traced-run integrity and the cell check.

Run from the root of a checkout with ``python -m pytest bench/tests``.  The
traced-run tests use one reference instance per workload, so they run the
real CLI at the workload's size in a few seconds each.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS, check_csv, instance_seeds, load_reference

REFERENCE = load_reference()


def first_seed(name):
    return [min(int(s) for s in REFERENCE["workloads"][name]["cells"])]


def run_child(tmp_path, argv):
    return run.Child(argv, str(tmp_path), run.child_env(),
                     run.time.monotonic() + run.RUN_LIMIT_S,
                     str(tmp_path / "stderr.txt"))


def cli(tmp_path, name, seeds, out):
    child = run_child(tmp_path, [sys.executable, "-m", "ocobench",
                                 *run.cli_args(WORKLOADS[name], seeds, str(out))])
    assert child.exit_code == 0, child.stderr
    return child


def traced(tmp_path, name, seeds, tag):
    out, spans = tmp_path / f"traced-{tag}.csv", tmp_path / f"spans-{tag}.json"
    child = run_child(tmp_path, [sys.executable, os.path.join(run.HERE, "tracing.py"),
                                 str(spans), "--",
                                 *run.cli_args(WORKLOADS[name], seeds, str(out))])
    assert child.exit_code == 0, child.stderr
    doc = json.loads(spans.read_text())
    return out, doc, child, tracing.summarize(doc["spans"])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_pair(request, tmp_path_factory):
    """One untraced and two traced CLI runs of one instance of a workload."""
    name = request.param
    tmp_path = tmp_path_factory.mktemp(name)
    seeds = first_seed(name)
    plain = tmp_path / "plain.csv"
    cli(tmp_path, name, seeds, plain)
    return name, seeds, plain, [traced(tmp_path, name, seeds, i) for i in (0, 1)]


def test_traced_csv_is_byte_identical_to_untraced(traced_pair):
    name, seeds, plain, runs = traced_pair
    for out, _, _, _ in runs:
        assert out.read_bytes() == plain.read_bytes()
    report = check_csv(str(plain), WORKLOADS[name], seeds, REFERENCE)
    assert report.failed == 0, report.problems


def test_counts_repeat_exactly_between_traced_runs(traced_pair):
    _, _, _, runs = traced_pair
    first, second = runs[0][3], runs[1][3]
    for metric in tracing.EXACT:
        assert first[metric] == second[metric], metric
    assert first["malm.rounds"][0] > 0


def test_self_times_sum_to_traced_wall(traced_pair):
    _, _, _, runs = traced_pair
    for _, doc, _, metrics in runs:
        cover = metrics["trace.self_s"][0] / (doc["t_end"] - doc["t_start"])
        assert 1.0 - run.SELF_COVER_SHARE <= cover <= 1.0 + 1e-9


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(tmp_path, name):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    bench_run = run.Run(WORKLOADS[name], 0, 0, REFERENCE, str(tmp_path))
    bench_run.seeds = first_seed(name)
    metrics = bench_run.traced()
    assert bench_run.problems == [] and bench_run.failed == 0
    assert set(metrics) == declared
    if name == "olr-closedform":
        assert metrics["malm.fista_free_ratio"][0] == 1.0


def test_end_to_end_reports_every_end_to_end_metric(tmp_path):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    bench_run = run.Run(WORKLOADS["olr-closedform"], 0, 0, REFERENCE, str(tmp_path))
    bench_run.seeds = first_seed("olr-closedform")
    metrics = bench_run.end_to_end()
    assert bench_run.problems == [] and bench_run.failed == 0
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    # wall_ref is the CLI's wall time over the kernel's, both measured here.
    wall_s, kernel_s = bench_run.info["wall_s"][0], bench_run.info["kernel_s"][0]
    assert metrics["wall_ref"][0] == pytest.approx(wall_s / kernel_s, rel=0.5)


def test_summarize_self_time_subtracts_children_and_inner_calls():
    extra = {"caller": "malm", "iters": 3, "grad_n": 7, "grad_s": 0.5,
             "prox_n": 4, "prox_s": 0.25}
    spans = [["cli.main", -1, 0.0, 10.0, None],
             ["malm.run_malm", 0, 1.0, 9.0, None],
             ["malm.solve_subproblem", 1, 2.0, 6.0, None],
             ["apg.fista", 2, 2.5, 5.5, extra],
             ["malm.solve_subproblem", 1, 6.0, 7.0, None]]
    m = tracing.summarize(spans)
    assert m["malm.self_s"][0] == pytest.approx(8.0 - 5.0)
    assert m["apg.self_s"][0] == pytest.approx(3.0 - 0.75)
    assert m["malm.fista_free_ratio"][0] == 0.5
    assert m["apg.iters_per_grad"][0] == pytest.approx(3 / 7)
    assert m["trace.self_s"][0] == pytest.approx(10.0)


# The cell check, on a CSV the CLI wrote.

@pytest.fixture(scope="module")
def olr_output(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("check")
    seeds = first_seed("olr-closedform")
    out = tmp_path / "olr.csv"
    cli(tmp_path, "olr-closedform", seeds, out)
    return seeds, out.read_bytes(), tmp_path


def rewrite(olr_output, edit):
    seeds, data, tmp_path = olr_output
    lines = data.split(b"\r\n")
    edit(lines)
    path = tmp_path / "edited.csv"
    path.write_bytes(b"\r\n".join(lines))
    return check_csv(str(path), WORKLOADS["olr-closedform"], seeds, REFERENCE)


def final_row_index(lines, algo):
    return max(i for i, line in enumerate(lines) if line.split(b",")[1:2] == [algo])


def shift_final(lines, algo, column, delta):
    i = final_row_index(lines, algo)
    fields = lines[i].split(b",")
    col = REFERENCE["workloads"]["olr-closedform"]["header"].index(column)
    fields[col] = repr(float(fields[col]) + delta).encode()
    lines[i] = b",".join(fields)


def test_check_passes_the_cli_output(olr_output):
    report = rewrite(olr_output, lambda lines: None)
    assert (report.attempted, report.failed) == (3, 0)


def test_change_within_tolerance_passes_and_digest_only_informs(olr_output):
    base = rewrite(olr_output, lambda lines: None)
    tol = REFERENCE["workloads"]["olr-closedform"]["tolerance"]["cum_regret"]
    report = rewrite(olr_output,
                     lambda lines: shift_final(lines, b"malm", "cum_regret", 0.5 * tol))
    assert report.failed == 0
    assert report.digest_matches == max(base.digest_matches - 1, 0)


@pytest.mark.parametrize("column", ["cum_regret", "max_avg_vio", "lambda_norm"])
def test_wrong_final_value_fails_its_cell(olr_output, column):
    tol = REFERENCE["workloads"]["olr-closedform"]["tolerance"][column]
    report = rewrite(olr_output,
                     lambda lines: shift_final(lines, b"cl", column, 3.0 * tol))
    assert report.failed == 1
    assert "cl" in report.problems[0]


def test_non_finite_value_fails_its_cell(olr_output):
    def edit(lines):
        fields = lines[5].split(b",")
        fields[6] = b"nan"
        lines[5] = b",".join(fields)
    assert rewrite(olr_output, edit).failed == 1


def test_missing_rows_fail_the_cell(olr_output):
    def edit(lines):
        del lines[final_row_index(lines, b"ny")]
    assert rewrite(olr_output, edit).failed == 1


def test_malformed_output_fails_every_cell(olr_output):
    def edit(lines):
        lines[0] = lines[0].replace(b"cum_regret", b"regret")
    assert rewrite(olr_output, edit).failed == 3

    def short_row(lines):
        lines[2] = b"olr,malm,0"
    assert rewrite(olr_output, short_row).failed == 3


def test_nonzero_exit_fails_every_cell(olr_output):
    seeds, _, tmp_path = olr_output
    report = check_csv(str(tmp_path / "absent.csv"), WORKLOADS["olr-closedform"],
                       seeds, REFERENCE, exit_code=3)
    assert (report.attempted, report.failed) == (3, 3)


def test_instance_seeds_come_from_the_pool_and_repeat():
    for name, workload in WORKLOADS.items():
        pool = {int(s) for s in REFERENCE["workloads"][name]["cells"]}
        seeds = instance_seeds(workload, 7, REFERENCE)
        assert seeds == instance_seeds(workload, 7, REFERENCE)
        assert len(set(seeds)) == workload.draw and set(seeds) <= pool


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "olr-closedform", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
