import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ocobench.harness as harness
import ocobench.metrics as metrics
from ocobench import (PRESETS, ExperimentConfig, full_series, run_experiment,
                      solve_comparator)
from ocobench.cli import (_FLAGS, _build_parser, _file_updates,
                          assemble_config, main)
from ocobench.harness import (_write_rows, csv_header, generate_problem,
                              malm_config_for, run_cell)
from ocobench.metrics import MetricsSeries

SMALL = ExperimentConfig(problem="oqcqp", algos=("malm", "cl"), T=40,
                         problem_params={"n": 4, "p": 2, "R": 5.0})


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_preset_registry_pins():
    assert set(PRESETS) == {"nra-paper", "olr-paper", "oqcqp-paper", "smoke"}
    nra = PRESETS["nra-paper"]
    assert nra.T == 10_000 and nra.problem_params == {"J": 10, "K": 10}
    assert nra.malm_alpha == pytest.approx(0.1 * 100.0)
    assert nra.malm_sigma == pytest.approx(100.0 / 100.0)
    olr = PRESETS["olr-paper"]
    assert olr.T == 5_000 and olr.malm_model == "linearized"
    oqcqp = PRESETS["oqcqp-paper"]
    assert oqcqp.taus == (0, 10, 20, 50, 100)
    assert oqcqp.problem_params == {"n": 8, "p": 3, "R": 10.0}
    assert PRESETS["smoke"].T == 100


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(problem="lp")
    with pytest.raises(ValueError):
        ExperimentConfig(problem="olr", algos=("sgd",))
    with pytest.raises(ValueError):
        ExperimentConfig(problem="olr", seeds=())
    with pytest.raises(ValueError):
        ExperimentConfig(problem="olr", taus=())
    with pytest.raises(ValueError):
        ExperimentConfig(problem="olr", taus=(-1,))
    with pytest.raises(ValueError):
        ExperimentConfig(problem="olr", T=10, taus=(10,))
    with pytest.raises(ValueError):
        ExperimentConfig(problem="olr", malm_model="affine")
    for kwargs in ({"T": 5.5}, {"taus": (0.5,)}, {"seeds": (1.5,)}):
        with pytest.raises(ValueError, match="must be an integer"):
            ExperimentConfig(problem="nra", **kwargs)
    assert ExperimentConfig(problem="nra", T=np.int64(5), taus=(np.int32(1),),
                            seeds=(np.int64(2),)).T == 5


def test_config_refuses_a_delay_for_undelayed_baselines():
    for algo in ("mosp", "cl"):
        with pytest.raises(ValueError, match=f"{algo} has no delayed variant"):
            ExperimentConfig(problem="nra", algos=("malm", algo), T=300,
                             taus=(0, 5))
    ExperimentConfig(problem="nra", algos=("malm", "ny", "czp"), T=300,
                     taus=(0, 5))


def test_malm_config_defaults_and_overrides():
    cfg = malm_config_for(SMALL, 3)
    assert cfg.alpha == pytest.approx(np.sqrt(40.0 / 4.0))
    assert cfg.sigma == pytest.approx(np.sqrt(4.0 / 40.0))
    assert cfg.tau == 3 and cfg.x0 is None

    tuned = ExperimentConfig(problem="oqcqp", malm_alpha=7.0, malm_sigma=0.3,
                             tol_inner=1e-8,
                             problem_params={"n": 4, "p": 2, "R": 5.0})
    cfg = malm_config_for(tuned, 0)
    assert cfg.alpha == 7.0 and cfg.sigma == 0.3 and cfg.tol == 1e-8


def test_run_experiment_schema_and_row_counts(tmp_path):
    out = tmp_path / "grid.csv"
    cfg = ExperimentConfig(problem="oqcqp", algos=("malm", "cl"), T=40,
                           taus=(0,), seeds=(0, 1), out=str(out),
                           problem_params={"n": 4, "p": 2, "R": 5.0})
    path = run_experiment(cfg)
    assert path == str(out)
    header, rows = read_rows(path)
    assert header == ["problem", "algo", "seed", "tau", "t", "cum_regret",
                      "avg_regret", "max_avg_vio", "vio_1", "vio_2",
                      "lambda_norm"]
    assert header == csv_header(2)
    assert len(rows) == 40 * 2 * 2
    for algo in ("malm", "cl"):
        for seed in ("0", "1"):
            cell = [r for r in rows if r[1] == algo and r[2] == seed]
            assert len(cell) == 40
            assert [r[4] for r in cell] == [str(t) for t in range(1, 41)]
    assert {r[0] for r in rows} == {"oqcqp"}


def test_run_experiment_byte_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(dataclasses.replace(SMALL, out=str(a)))
    run_experiment(dataclasses.replace(SMALL, out=str(b)))
    assert a.read_bytes() == b.read_bytes()


def test_csv_floats_round_trip_exactly(tmp_path):
    out = tmp_path / "rt.csv"
    cfg = dataclasses.replace(SMALL, out=str(out), algos=("malm",))
    run_experiment(cfg)
    _, rows = read_rows(str(out))

    problem = generate_problem(cfg, 0)
    x_star = solve_comparator(problem, cfg.tol_comparator)
    series = full_series(run_cell(cfg, problem, "malm", 0), problem, x_star)
    for t, row in enumerate(rows):
        assert float(row[5]) == series.cum_regret[t]
        assert float(row[6]) == series.avg_regret[t]
        assert float(row[7]) == series.avg_vio_max[t]
        assert float(row[8]) == series.cum_vio[t, 0]
        assert float(row[9]) == series.cum_vio[t, 1]
        assert float(row[10]) == series.lambda_norm[t]


@pytest.mark.parametrize("p", [1, 3])
def test_row_bytes_match_a_csv_writer_with_17_digits(p):
    special = [0.0, -0.0, 1e300, -1e300, 5e-324, math.inf, -math.inf,
               math.nan, 0.1, -2.5e-7, 1.0 / 3.0]
    T = len(special)
    series = MetricsSeries(cum_regret=np.array(special),
                           avg_regret=np.array(special[::-1]),
                           cum_vio=np.column_stack([np.roll(special, i + 5)
                                                    for i in range(p)]),
                           avg_vio_max=np.roll(special, 3),
                           lambda_norm=np.roll(special, -2))
    got = io.StringIO(newline="")
    _write_rows(got, SMALL, "malm", 7, 2, series)

    want = io.StringIO(newline="")
    writer = csv.writer(want)
    for t in range(T):
        values = [series.cum_regret[t], series.avg_regret[t],
                  series.avg_vio_max[t], *series.cum_vio[t],
                  series.lambda_norm[t]]
        writer.writerow(["oqcqp", "malm", "7", "2", str(t + 1)]
                        + [format(float(v), ".17g") for v in values])
    assert got.getvalue().encode() == want.getvalue().encode()


def test_rows_are_written_in_chunks_with_the_bytes_of_one_write(monkeypatch):
    rng = np.random.default_rng(3)
    T = 23
    series = MetricsSeries(cum_regret=rng.normal(size=T),
                           avg_regret=rng.normal(size=T),
                           cum_vio=rng.normal(size=(T, 2)),
                           avg_vio_max=rng.normal(size=T),
                           lambda_norm=rng.normal(size=T))

    class Writes(io.StringIO):
        count = 0

        def write(self, text):
            self.count += 1
            return super().write(text)

    whole, chunked = Writes(newline=""), Writes(newline="")
    _write_rows(whole, SMALL, "cl", 3, 0, series)
    monkeypatch.setattr(harness, "_ROWS_PER_WRITE", 7)
    _write_rows(chunked, SMALL, "cl", 3, 0, series)
    assert (whole.count, chunked.count) == (1, 4)
    assert chunked.getvalue() == whole.getvalue()
    assert whole.getvalue().count("\r\n") == T


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, cwd):
    # cwd is a scratch directory, where an inherited relative PYTHONPATH
    # (such as "src") no longer resolves; put this checkout's src first.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def run_cli(args, cwd):
    return run_python(["-m", "ocobench", *args], cwd)


def test_cli_smoke_preset_succeeds(tmp_path):
    out = tmp_path / "smoke.csv"
    res = run_cli(["--preset", "smoke", "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == str(out)
    header, rows = read_rows(str(out))
    assert len(rows) == 100 * 2


def scipy_modules_after(args, cwd):
    """Exit code and the scipy modules loaded after ``main(args)`` in a child."""
    script = ("import sys\nfrom ocobench.cli import main\n"
              f"code = main({args!r})\n"
              "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    res = run_python(["-c", script], cwd)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1]


def test_cli_smoke_run_never_imports_scipy(tmp_path):
    # scipy serves only the truncated model, so an oqcqp run should not pay
    # for its import
    assert scipy_modules_after(["--preset", "smoke", "--out", "smoke.csv"],
                               tmp_path) == "0 []"


def test_cli_linearized_olr_run_never_imports_scipy(tmp_path):
    # the sigmoid comes from math.exp, in the rounds and in the comparator
    assert scipy_modules_after(["--preset", "olr-paper", "--T", "200",
                                "--out", "olr.csv"], tmp_path) == "0 []"


def test_cli_olr_run_never_imports_numpy_ma(tmp_path):
    # np.unique loads numpy.ma (numpy 2.4); the l1 threshold dedupes its
    # breakpoints without it
    script = ("import sys\nfrom ocobench.cli import main\n"
              "code = main(['--preset', 'olr-paper', '--T', '300', '--seed', "
              "'0,1', '--out', 'olr.csv'])\n"
              "print(code, 'numpy.ma' in sys.modules)")
    res = run_python(["-c", script], tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 False"


def test_the_grid_scores_each_comparator_once_per_seed(tmp_path, monkeypatch):
    # every (algo, tau) cell of a seed subtracts the same f_t(x*) floats,
    # and full_series, which scores x* itself when not handed them, is not
    # asked to
    scored = []
    real = harness._comparator_losses

    def spy(problem, x_star, T):
        scored.append(problem.seed)
        return real(problem, x_star, T)

    monkeypatch.setattr(harness, "_comparator_losses", spy)
    monkeypatch.setattr(metrics, "_comparator_losses", spy)
    out = tmp_path / "grid.csv"
    cfg = dataclasses.replace(SMALL, algos=("malm", "czp"), taus=(0, 2),
                              seeds=(0, 1), out=str(out))
    run_experiment(cfg)
    assert scored == [0, 1]
    _, rows = read_rows(str(out))
    for seed in (0, 1):
        problem = generate_problem(cfg, seed)
        x_star = solve_comparator(problem, cfg.tol_comparator)
        for algo in cfg.algos:
            for tau in cfg.taus:
                series = full_series(run_cell(cfg, problem, algo, tau),
                                     problem, x_star)
                cell = [r for r in rows if r[1:4] == [algo, str(seed), str(tau)]]
                assert [float(r[5]) for r in cell] == series.cum_regret.tolist()


def assert_runs_without_scipy(args, tmp_path):
    """``args`` exits 0 where any scipy import fails, with the same bytes."""
    script = ("import sys\nsys.modules['scipy'] = None\n"
              "from ocobench.cli import main\n"
              f"sys.exit(main({args + ['--out', 'blocked.csv']!r}))")
    blocked = run_python(["-c", script], tmp_path)
    assert blocked.returncode == 0, blocked.stderr
    free = run_cli(args + ["--out", "free.csv"], tmp_path)
    assert free.returncode == 0, free.stderr
    assert (tmp_path / "blocked.csv").read_bytes() \
        == (tmp_path / "free.csv").read_bytes()


def test_cli_nra_run_needs_no_scipy(tmp_path):
    # the Slater-margin LP is solved in the package
    assert_runs_without_scipy(["--problem", "nra", "--T", "40", "--seed", "0"],
                              tmp_path)


def test_cli_olr_run_needs_no_scipy(tmp_path):
    # the rounds' gradients and the comparator's Newton steps and FISTA
    # share the package's sigmoid
    assert_runs_without_scipy(["--preset", "olr-paper", "--T", "300",
                               "--seed", "0"], tmp_path)


def test_cli_rejects_unknown_preset(tmp_path):
    res = run_cli(["--preset", "bogus"], tmp_path)
    assert res.returncode == 2
    assert "preset" in res.stderr


def test_cli_requires_a_problem(tmp_path):
    res = run_cli(["--T", "50"], tmp_path)
    assert res.returncode == 2
    assert "problem" in res.stderr


def test_cli_reports_infeasible_instance(tmp_path):
    # this demand pattern admits no round-universal feasible decision
    res = run_cli(["--problem", "nra", "--T", "10000", "--seed", "1",
                   "--out", str(tmp_path / "x.csv")], tmp_path)
    assert res.returncode == 3
    assert "numeric failure" in res.stderr
    assert not (tmp_path / "x.csv").exists()


EXP_INI = ("[experiment]\n"
           "problem = oqcqp\n"
           "algos = malm\n"
           "T = 40\n"
           "seeds = 0\n"
           "out = from_file.csv\n"
           "[problem]\n"
           "n = 4\n"
           "p = 2\n"
           "R = 5.0\n"
           "[malm]\n"
           "alpha = 2.0\n"
           "sigma = 0.5\n"
           "model = plain\n")


def test_cli_config_file_and_flag_precedence(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(EXP_INI)
    out = tmp_path / "override.csv"
    res = run_cli(["--config", str(ini), "--T", "30", "--out", str(out)],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    _, rows = read_rows(str(out))
    # flag beats the file for T; the file supplies everything else
    assert len(rows) == 30
    assert not (tmp_path / "from_file.csv").exists()


def test_cli_missing_config_file(tmp_path):
    res = run_cli(["--config", str(tmp_path / "nope.ini")], tmp_path)
    assert res.returncode == 2


def test_config_file_problem_keys_keep_case_and_unknown_keys_are_refused(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(EXP_INI)
    updates = _file_updates(str(ini))
    assert updates["problem_params"] == {"n": 4, "p": 2, "R": 5.0}
    assert updates["T"] == 40
    config = dataclasses.replace(SMALL, problem_params=updates["problem_params"])
    assert generate_problem(config, 0).set.radius == 5.0

    with pytest.raises(ValueError, match="bogus"):
        ExperimentConfig(problem="oqcqp", problem_params={"bogus": 3})
    config.problem_params["bogus"] = 3  # bypasses the constructor's check
    with pytest.raises(ValueError, match="bogus"):
        generate_problem(config, 0)

    ini.write_text(EXP_INI.replace("alpha", "alfa"))
    with pytest.raises(ValueError, match="alfa"):
        _file_updates(str(ini))
    ini.write_text(EXP_INI + "x0_zero = true\n")
    with pytest.raises(ValueError, match="x0_zero"):
        _file_updates(str(ini))

    ini.write_text(EXP_INI.replace("R = 5.0\n", "R = 5.0\nbogus = 3\n"))
    res = run_cli(["--config", str(ini), "--out", str(tmp_path / "b.csv")],
                  tmp_path)
    assert res.returncode == 2
    assert "bogus" in res.stderr
    assert not (tmp_path / "b.csv").exists()


def test_each_flag_sets_the_config_field_it_is_named_for():
    args = _build_parser().parse_args(
        ["--problem", "olr", "--algo", "malm,ny", "--T", "50", "--tau", "0,2",
         "--seed", "1,3", "--out", "x.csv", "--tol-inner", "1e-8",
         "--tol-comparator", "1e-6"])
    config = assemble_config(args)
    assert (config.problem, config.algos, config.T, config.taus, config.seeds,
            config.out, config.tol_inner, config.tol_comparator) \
        == ("olr", ("malm", "ny"), 50, (0, 2), (1, 3), "x.csv", 1e-8, 1e-6)


# [experiment] INI key -> (the flag that sets the same field, a value).
EXPERIMENT_KEYS = {
    "problem": ("--problem", "oqcqp"),
    "algos": ("--algo", "malm, ny,czp"),
    "T": ("--T", "50"),
    "taus": ("--tau", "0, 2"),
    "seeds": ("--seed", "1,3"),
    "out": ("--out", "x.csv"),
    "tol_inner": ("--tol-inner", "1e-8"),
    "tol_comparator": ("--tol-comparator", "1e-6"),
}


def test_each_ini_key_parses_as_its_flag(tmp_path):
    fields = {flag: field for flag, field, _, _ in _FLAGS}
    assert {field.lower() for field in fields.values()} \
        == {key.lower() for key in EXPERIMENT_KEYS}
    ini = tmp_path / "k.ini"
    for key, (flag, value) in EXPERIMENT_KEYS.items():
        problem = "" if key == "problem" else "problem = olr\n"
        for spelling in (key, key.upper()):
            ini.write_text(f"[experiment]\n{problem}{spelling} = {value}\n")
            from_file = assemble_config(
                _build_parser().parse_args(["--config", str(ini)]))
            from_flag = assemble_config(
                _build_parser().parse_args(["--problem", "olr", flag, value]))
            a, b = getattr(from_file, fields[flag]), getattr(from_flag, fields[flag])
            assert a == b and type(a) is type(b)

    for key, flag in (("taus", "--tau"), ("seeds", "--seed")):
        ini.write_text(f"[experiment]\nproblem = olr\n{key} = 0,x\n")
        for argv in (["--config", str(ini)], ["--problem", "olr", flag, "0,x"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", str(tmp_path / "k.csv")])
            assert exc.value.code == 2
    assert not (tmp_path / "k.csv").exists()


def test_config_file_problem_keys_merge_over_the_preset(tmp_path):
    ini = tmp_path / "r.ini"
    ini.write_text("[problem]\nR = 2.0\n")
    args = _build_parser().parse_args(["--preset", "smoke", "--config", str(ini)])
    assert assemble_config(args).problem_params == {"n": 4, "p": 2, "R": 2.0}


def test_preset_problem_params_stay_with_the_preset_problem(tmp_path):
    # smoke is an oqcqp preset: its n, p, R are not olr's arguments
    args = _build_parser().parse_args(["--preset", "smoke", "--problem", "olr"])
    assert assemble_config(args).problem_params == {}
    ini = tmp_path / "olr.ini"
    ini.write_text("[problem]\nM = 2.0\n")
    args = _build_parser().parse_args(["--preset", "smoke", "--problem", "olr",
                                       "--config", str(ini)])
    assert assemble_config(args).problem_params == {"M": 2.0}
    args = _build_parser().parse_args(["--preset", "smoke", "--problem", "oqcqp"])
    assert assemble_config(args).problem_params == {"n": 4, "p": 2, "R": 5.0}
    out = tmp_path / "olr.csv"
    res = run_cli(["--preset", "smoke", "--problem", "olr", "--out", str(out)],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    _, rows = read_rows(str(out))
    assert len(rows) == 100 * 2


def test_config_refuses_empty_and_nonpositive_settings():
    for bad in ({"algos": ()}, {"out": ""}, {"tol_inner": 0.0},
                {"tol_comparator": -1e-7}, {"malm_alpha": 0.0},
                {"malm_sigma": -1.0}, {"tol_inner": math.inf},
                {"tol_comparator": math.nan}, {"malm_alpha": math.inf},
                {"malm_sigma": math.nan}):
        with pytest.raises(ValueError):
            ExperimentConfig(problem="oqcqp", **bad)


def test_cli_usage_errors_found_during_the_run_exit_2(tmp_path):
    out = tmp_path / "u.csv"
    res = run_cli(["--problem", "oqcqp", "--algo", "mosp", "--T", "10",
                   "--out", str(out)], tmp_path)
    assert res.returncode == 2
    assert "linear constraints" in res.stderr
    assert not out.exists()

    ini = tmp_path / "neg.ini"
    ini.write_text(EXP_INI.replace("R = 5.0", "R = -1"))
    res = run_cli(["--config", str(ini), "--out", str(out)], tmp_path)
    assert res.returncode == 2
    assert "R > 0" in res.stderr
    assert not out.exists()


def test_cli_refuses_a_delay_for_mosp_before_any_cell_runs(tmp_path):
    out = tmp_path / "d.csv"
    res = run_cli(["--problem", "nra", "--algo", "malm,mosp", "--tau", "0,5",
                   "--T", "300", "--seed", "0", "--out", str(out)], tmp_path)
    assert res.returncode == 2
    assert "mosp has no delayed variant" in res.stderr
    assert not out.exists()


def _spy_on_cells(monkeypatch):
    """Record every comparator solve and cell run the harness starts."""
    import ocobench.harness as harness

    calls = []
    for name in ("solve_comparator", "run_cell"):
        def spy(*args, real=getattr(harness, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(harness, name, spy)
    return calls


def test_mosp_on_nonlinear_constraints_is_refused_before_any_work(
        tmp_path, monkeypatch):
    calls = _spy_on_cells(monkeypatch)
    out = tmp_path / "m.csv"
    with pytest.raises(SystemExit) as exc:
        main(["--problem", "oqcqp", "--algo", "malm,mosp", "--T", "1000",
              "--seed", "0", "--out", str(out)])
    assert exc.value.code == 2
    assert calls == []
    assert not out.exists()


def test_cli_out_that_is_a_directory_exits_2_before_any_work(
        tmp_path, monkeypatch, capsys):
    calls = _spy_on_cells(monkeypatch)
    out = tmp_path / "d"
    out.mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["--preset", "smoke", "--T", "20", "--out", str(out)])
    assert exc.value.code == 2
    assert "is a directory" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []


def test_repeated_grid_entries_are_refused_before_any_work(
        tmp_path, monkeypatch):
    for repeat in ({"algos": ("malm", "ny", "malm")}, {"taus": (0, 2, 2)},
                   {"seeds": (0, 0)}):
        with pytest.raises(ValueError, match="repeats an entry"):
            ExperimentConfig(problem="olr", T=20, **repeat)
    calls = _spy_on_cells(monkeypatch)
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exc:
        main(["--problem", "olr", "--T", "20", "--seed", "0,0",
              "--algo", "malm,malm", "--out", str(out)])
    assert exc.value.code == 2
    assert calls == []
    assert not out.exists()


def test_a_failing_seed_is_refused_before_any_cell_runs(
        tmp_path, monkeypatch, capsys):
    # nra seed 1 is overloaded (Slater margin -0.98); seed 0 is feasible
    calls = _spy_on_cells(monkeypatch)
    out = tmp_path / "s.csv"
    assert main(["--problem", "nra", "--T", "40", "--seed", "0,1",
                 "--out", str(out)]) == 3
    assert "seed 1" in capsys.readouterr().err
    assert "run_cell" not in calls
    assert not out.exists()


def test_cli_lets_linear_algebra_failures_through(tmp_path, monkeypatch):
    # LinAlgError is a ValueError; it is a numeric fault, not a usage error
    def broken(config):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr("ocobench.cli.run_experiment", broken)
    with pytest.raises(np.linalg.LinAlgError):
        main(["--preset", "smoke", "--out", str(tmp_path / "l.csv")])


def test_cli_numeric_failure_names_the_cell(tmp_path):
    out = tmp_path / "n.csv"
    res = run_cli(["--preset", "smoke", "--T", "20", "--tol-inner", "1e-30",
                   "--out", str(out)], tmp_path)
    assert res.returncode == 3
    for part in ("numeric failure", "problem oqcqp", "algo malm", "seed 0",
                 "tau 0", "round 0"):
        assert part in res.stderr
    assert not out.exists()


def test_negative_seeds_are_refused(tmp_path):
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig(problem="olr", seeds=(0, -1))
    out = tmp_path / "neg.csv"
    res = run_cli(["--problem", "olr", "--T", "20", "--seed=-1",
                   "--out", str(out)], tmp_path)
    assert res.returncode == 2
    assert "seeds must be nonnegative" in res.stderr
    assert not out.exists()


def test_count_arguments_must_be_integral(tmp_path):
    for problem, name in (("nra", "J"), ("nra", "K"), ("olr", "n"),
                          ("olr", "k"), ("oqcqp", "n"), ("oqcqp", "p")):
        with pytest.raises(ValueError, match=f"'{name}' must be an integer"):
            ExperimentConfig(problem=problem, problem_params={name: 2.5})
    config = ExperimentConfig(problem="nra", T=5, problem_params={"J": 3.0})
    assert generate_problem(config, 0).p == 3 + 10

    ini = tmp_path / "j.ini"
    ini.write_text("[experiment]\nproblem = nra\nT = 20\n[problem]\nJ = 2.5\n")
    out = tmp_path / "j.csv"
    res = run_cli(["--config", str(ini), "--out", str(out)], tmp_path)
    assert res.returncode == 2
    assert "'J' must be an integer, got 2.5" in res.stderr
    assert not out.exists()


OLR_INI = ("[experiment]\nproblem = olr\nalgos = malm\nT = 20\n"
           "[problem]\nM = 2.0\n")

# (INI text, extra flags, part of the refusal message) per non-finite input.
NON_FINITE = {
    "R-nan": (EXP_INI.replace("R = 5.0", "R = nan"), [], "finite R > 0"),
    "R-inf": (EXP_INI.replace("R = 5.0", "R = inf"), [], "finite R > 0"),
    "M-nan": (OLR_INI.replace("M = 2.0", "M = nan"), [], "finite M > 0"),
    "M-inf": (OLR_INI.replace("M = 2.0", "M = inf"), [], "finite M > 0"),
    "alpha-inf": (EXP_INI.replace("alpha = 2.0", "alpha = inf"), [],
                  "malm_alpha must be positive and finite"),
    "tol-inner-inf": (EXP_INI, ["--tol-inner", "inf"],
                      "tol_inner must be positive and finite"),
    "tol-comparator-inf": (EXP_INI, ["--tol-comparator", "inf"],
                           "tol_comparator must be positive and finite"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_cli_refuses_non_finite_inputs(tmp_path, case):
    text, flags, message = NON_FINITE[case]
    ini = tmp_path / "x.ini"
    ini.write_text(text)
    out = tmp_path / "x.csv"
    res = run_cli(["--config", str(ini), *flags, "--out", str(out)], tmp_path)
    assert res.returncode == 2, res.stderr
    assert message in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_cli_out_in_a_missing_directory_exits_2(tmp_path):
    out = tmp_path / "missing" / "x.csv"
    res = run_cli(["--preset", "smoke", "--T", "10", "--out", str(out)],
                  tmp_path)
    assert res.returncode == 2
    assert str(out) in res.stderr
    assert ".tmp" not in res.stderr and "Traceback" not in res.stderr
    assert list(tmp_path.iterdir()) == []
