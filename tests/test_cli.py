import json
import math
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from logigof import statistics
from logigof.cli import (EXIT_DEGENERATE, EXIT_OK, EXIT_USAGE, Dataset,
                         InputError, bundled_data_path, load_dataset, main,
                         parse_power_config)
from logigof.montecarlo import AlternativeSpec
from proc_helpers import fresh_env, live_processes


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# data ingestion


def test_load_dataset_basics(tmp_path):
    path = write(tmp_path, "d.txt", "# header\n1.5\n\n 2.25 # inline\n-3\n")
    data = load_dataset(path)
    assert isinstance(data, Dataset)
    np.testing.assert_array_equal(data.values, [1.5, 2.25, -3.0])
    assert data.transform == "none"
    assert data.n == 3


def test_load_dataset_log_transform(tmp_path):
    path = write(tmp_path, "d.txt", "1\n2.718281828459045\n")
    data = load_dataset(path, log=True)
    np.testing.assert_allclose(data.values, [0.0, 1.0], atol=1e-12)
    assert data.transform == "log"


def test_load_dataset_reports_bad_line_number(tmp_path):
    path = write(tmp_path, "d.txt", "1.0\n2.0\noops\n4.0\n")
    with pytest.raises(InputError, match=r":3:"):
        load_dataset(path)


def test_load_dataset_log_guard_names_line(tmp_path):
    path = write(tmp_path, "d.txt", "1.0\n0.0\n2.0\n")
    with pytest.raises(InputError, match=r":2:.*positive"):
        load_dataset(path, log=True)


def test_load_dataset_empty_and_missing(tmp_path):
    empty = write(tmp_path, "e.txt", "# nothing\n\n")
    with pytest.raises(InputError, match="no data"):
        load_dataset(empty)
    with pytest.raises(InputError, match="cannot read"):
        load_dataset(str(tmp_path / "absent.txt"))


def test_bundled_dataset_loads():
    data = load_dataset(str(bundled_data_path()), log=True)
    assert data.n == 128
    with pytest.raises(InputError):
        bundled_data_path("nope")


def test_bundled_token_resolves(capsys):
    assert main(["fit", "bundled:", "--log"]) == EXIT_OK
    short = capsys.readouterr().out
    assert main(["fit", "bundled:bladder_cancer", "--log"]) == EXIT_OK
    named = capsys.readouterr().out
    assert main(["fit", str(bundled_data_path()), "--log"]) == EXIT_OK
    explicit = capsys.readouterr().out
    # identical apart from the echoed source line
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("source")]
    assert strip(short) == strip(named) == strip(explicit)
    assert main(["fit", "bundled:nope", "--log"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# fit


def test_fit_bundled_cancer_data(capsys):
    assert main(["fit", str(bundled_data_path()), "--log"]) == EXIT_OK
    out = dict(line.split(" = ") for line in
               capsys.readouterr().out.strip().split("\n"))
    assert out["n"] == "128"
    assert round(float(out["mu_hat"]), 3) == 1.753
    assert round(float(out["sigma_hat"]), 3) == 0.592


def test_fit_two_point_sample(tmp_path, capsys):
    path = write(tmp_path, "two.txt", "-1\n1\n")
    assert main(["fit", path]) == EXIT_OK
    out = dict(line.split(" = ") for line in
               capsys.readouterr().out.strip().split("\n"))
    assert float(out["mu_hat"]) == pytest.approx(0.0, abs=1e-12)
    assert float(out["sigma_hat"]) == pytest.approx(math.sqrt(3) / math.pi,
                                                    rel=1e-5)


def test_fit_log_guard_exit_code(tmp_path, capsys):
    path = write(tmp_path, "neg.txt", "2.0\n-7\n")
    assert main(["fit", path, "--log"]) == EXIT_USAGE
    assert ":2:" in capsys.readouterr().err


def test_fit_degenerate_exit_code(tmp_path, capsys):
    path = write(tmp_path, "deg.txt", "3.3\n3.3\n3.3\n")
    assert main(["fit", path]) == EXIT_DEGENERATE
    capsys.readouterr()


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_fit_and_test_are_scale_invariant_on_the_bundled_data(scale, tmp_path, capsys):
    # The variance of the scaled data leaves the double range; the moment fit
    # takes those rows in units of a power of two.
    values = load_dataset(str(bundled_data_path())).values * scale
    path = write(tmp_path, "scaled.txt", "\n".join(repr(float(v)) for v in values))
    assert main(["fit", path]) == EXIT_OK
    out = dict(line.split(" = ") for line in capsys.readouterr().out.strip().split("\n"))
    assert float(out["sigma_hat"]) == pytest.approx(5.77087 * scale, rel=1e-5)
    assert main(["test", path, "--stat", "T", "--reps", "50", "--workers", "1"]) == EXIT_OK
    out = dict(line.split(" = ") for line in capsys.readouterr().out.strip().split("\n"))
    assert out["value"] == "7.8542"


@pytest.mark.parametrize("args", [
    ["fit", "bundled:"],
    ["test", "bundled:", "--stat", "KS", "--reps", "10", "--workers", "1"],
    ["calibrate", "--stat", "KS", "--n", "10", "--reps", "10", "--workers", "1"],
])
def test_unknown_method_is_a_usage_error(args, capsys):
    assert main(args + ["--method", "banana"]) == EXIT_USAGE
    assert "error: unknown estimation method: 'banana'" in capsys.readouterr().err


def test_fit_rejects_unbiased_with_ml(capsys):
    assert main(["fit", "bundled:", "--log", "--method", "ml", "--unbiased"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "moment fit only" in captured.err


# ---------------------------------------------------------------------------
# test subcommand


def test_test_unknown_statistic(tmp_path, capsys):
    path = write(tmp_path, "d.txt", "1\n2\n3\n")
    assert main(["test", path, "--stat", "NOPE", "--reps", "10",
                 "--workers", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    for name in ("T", "S", "R", "KS", "CM", "AD", "WA"):
        assert name in err


def test_test_malformed_tuning_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "d.txt", "1\n2\n3\n")
    assert main(["test", path, "--stat", "T:abc", "--reps", "10",
                 "--workers", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "abc" in err and "number" in err


def test_workers_env_var_garbage_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOGIGOF_WORKERS", "lots")
    path = write(tmp_path, "d.txt", "\n".join(str(v) for v in range(1, 12)))
    assert main(["test", path, "--stat", "KS", "--reps", "10"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "LOGIGOF_WORKERS" in err and "lots" in err


@pytest.mark.parametrize("value", ["-3", "0"])
def test_workers_env_var_non_positive_is_usage_error(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("LOGIGOF_WORKERS", value)
    path = write(tmp_path, "d.txt", "\n".join(str(v) for v in range(1, 12)))
    assert main(["test", path, "--stat", "KS", "--reps", "10"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "LOGIGOF_WORKERS must be a positive integer" in err and repr(value) in err


def test_test_same_seed_identical_output(tmp_path, capsys):
    path = write(tmp_path, "d.txt", "\n".join(str(v) for v in range(1, 25)))
    args = ["test", path, "--stat", "T", "--a", "3", "--reps", "300",
            "--seed", "5", "--workers", "1"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    parsed = dict(line.split(" = ") for line in first.strip().split("\n"))
    assert parsed["statistic"] == "T"
    assert 0.0 < float(parsed["p_value"]) <= 1.0


def test_test_plot_data(tmp_path, capsys):
    path = write(tmp_path, "d.txt", "\n".join(str(v) for v in range(1, 13)))
    assert main(["test", path, "--plot-data"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "theoretical_quantile,ordered_residual"
    assert len(lines) == 13
    theo = [float(line.split(",")[0]) for line in lines[1:]]
    emp = [float(line.split(",")[1]) for line in lines[1:]]
    assert theo == sorted(theo)
    assert emp == sorted(emp)
    # Quantile levels are k/(n+1) mapped through the standard quantile.
    assert theo[0] == pytest.approx(math.log((1 / 13) / (1 - 1 / 13)), rel=1e-5)


def test_test_compound_stat_spec(tmp_path, capsys):
    path = write(tmp_path, "d.txt", "\n".join(str(v) for v in range(1, 25)))
    assert main(["test", path, "--stat", "R:2", "--reps", "50",
                 "--workers", "1"]) == EXIT_OK
    parsed = dict(line.split(" = ") for line in
                  capsys.readouterr().out.strip().split("\n"))
    assert parsed["statistic"] == "R"
    assert parsed["tuning"] == "2"


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_to_stdout_and_file(tmp_path, capsys):
    assert main(["calibrate", "--stat", "T,KS", "--a", "3,4", "--n", "15",
                 "--alpha-list", "0.5", "--reps", "400", "--seed", "3",
                 "--workers", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("statistic,tuning,n,alpha,")
    assert len(lines) == 4  # T:3, T:4, KS
    out_path = tmp_path / "cv.csv"
    assert main(["calibrate", "--stat", "T,KS", "--a", "3,4", "--n", "15",
                 "--alpha-list", "0.5", "--reps", "400", "--seed", "3",
                 "--workers", "1", "--out", str(out_path)]) == EXIT_OK
    capsys.readouterr()
    assert out_path.read_text() == out


def test_calibrate_bad_alpha(capsys):
    assert main(["calibrate", "--stat", "KS", "--n", "10", "--alpha-list",
                 "0.0", "--reps", "50", "--workers", "1"]) == EXIT_USAGE
    capsys.readouterr()


def test_calibrate_rejects_a_sample_size_of_one(capsys):
    # A usage error (exit 2), not 5000 failed fits (exit 4).
    assert main(["calibrate", "--stat", "T", "--n", "1", "--reps", "5000",
                 "--workers", "1"]) == EXIT_USAGE
    assert "at least 2" in capsys.readouterr().err


def test_calibrate_rejects_fractional_sample_size(capsys):
    assert main(["calibrate", "--stat", "KS", "--n", "20.5", "--reps", "50",
                 "--workers", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--n" in err and "integers" in err


@pytest.mark.parametrize("flag, value", [("--n", "20,,30"), ("--n", "20,"),
                                         ("--alpha-list", "0.05,"),
                                         ("--alpha-list", ",0.1")])
def test_calibrate_rejects_an_empty_list_field(flag, value, capsys):
    args = {"--n": "20", "--alpha-list": "0.05", flag: value}
    assert main(["calibrate", "--stat", "KS", "--reps", "50", "--workers", "1",
                 *(v for item in args.items() for v in item)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert flag in err and repr(value) in err


@pytest.mark.parametrize("value", ["KS,,CM", "KS,", ",KS", "KS, ,CM", " "])
def test_calibrate_rejects_an_empty_stat_item(value, capsys):
    assert main(["calibrate", "--stat", value, "--n", "20", "--reps", "50",
                 "--workers", "1"]) == EXIT_USAGE
    assert "--stat" in capsys.readouterr().err


def test_r_orders_above_100_are_usage_errors(tmp_path, capsys):
    data = write(tmp_path, "d.txt", "\n".join(str(v) for v in range(1, 21)))
    cfg = write(tmp_path, "p.cfg", "n = 20\nreps = 50\nstatistic = R:101\n"
                                   "alternative = cauchy\n")
    for args in (["test", data, "--stat", "R:101", "--reps", "10"],
                 ["test", data, "--stat", "R", "--v", "101", "--reps", "10"],
                 ["calibrate", "--stat", "R", "--v", "1,101", "--n", "20", "--reps", "10"],
                 ["power", "--config", cfg]):
        assert main([*args, "--workers", "1"]) == EXIT_USAGE
        assert "error: " in (err := capsys.readouterr().err) and "at most 100" in err
    assert main(["calibrate", "--stat", "R:100", "--n", "20", "--reps", "10",
                 "--workers", "1"]) == EXIT_OK


def test_t_rates_below_the_smallest_are_usage_errors(capsys):
    # T at 1e-300 was NaN on every replication, and calibrate then divided
    # by its zero valid values.
    assert main(["calibrate", "--stat", "T:1e-300", "--n", "20", "--reps", "10",
                 "--workers", "1"]) == EXIT_USAGE
    assert "must be at least 1e-100, got 1e-300" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# power


SMOKE_CFG = """
# quick smoke study
mode = power
n = 12
reps = 100
calibration-reps = 200
seed = 17
alpha = 0.05
statistic = T:3
statistic = KS
alternative = cauchy
alternative = uniform
"""


def test_power_smoke_config_fast_and_sane(tmp_path, capsys):
    import csv
    import io
    import time
    path = write(tmp_path, "smoke.cfg", SMOKE_CFG)
    started = time.monotonic()
    assert main(["power", "--config", path, "--workers", "1"]) == EXIT_OK
    assert time.monotonic() - started < 10.0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["statistic", "tuning", "n", "alternative", "value",
                       "mc_std_error", "excluded_reps"]
    assert len(rows) == 5
    for row in rows[1:]:
        assert 0.0 <= float(row[4]) <= 100.0


def test_power_local_mode_with_out_file(tmp_path, capsys):
    cfg = """
mode = local-power
n = 12
reps = 80
calibration-reps = 150
seed = 4
statistic = T:3
contaminant = cauchy
p = 0, 1
out = {out}
"""
    out_path = tmp_path / "curve.csv"
    path = write(tmp_path, "local.cfg", cfg.format(out=out_path))
    assert main(["power", "--config", path, "--workers", "1"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "statistic" in stdout  # rounded table goes to standard output
    csv_lines = out_path.read_text().strip().split("\n")
    assert csv_lines[0].endswith("p,value,mc_std_error,excluded_reps")
    assert len(csv_lines) == 3


POOL_CFG = """
mode = power
n = 30
reps = 2048
calibration-reps = 2048
seed = 23
alpha = 0.05
statistic = T:3
statistic = KS
alternative = cauchy
alternative = uniform
"""


def test_power_csv_is_the_same_for_any_worker_count_in_one_process(tmp_path, capsys):
    # 2048 replications at n = 30 are two chunks, so each --workers 2 run
    # maps them on the process's pool; the second one reuses it.
    path = write(tmp_path, "pool.cfg", POOL_CFG)
    outputs = []
    for workers in ("2", "1", "2"):
        assert main(["power", "--config", path, "--workers", workers]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith("statistic,")
    assert outputs[0] == outputs[1] == outputs[2]


def test_power_config_diagnostics(tmp_path, capsys):
    bad_key = write(tmp_path, "a.cfg", "mode = power\nbanana = 1\n")
    with pytest.raises(InputError, match=r"a\.cfg:2"):
        parse_power_config(bad_key)
    dup = write(tmp_path, "b.cfg", "n = 10\nn = 20\nstatistic = KS\n"
                                   "alternative = cauchy\n")
    with pytest.raises(InputError, match="duplicate"):
        parse_power_config(dup)
    no_eq = write(tmp_path, "c.cfg", "mode power\n")
    with pytest.raises(InputError, match=r"c\.cfg:1"):
        parse_power_config(no_eq)
    missing_n = write(tmp_path, "d.cfg", "statistic = KS\nalternative = u\n")
    with pytest.raises(InputError, match="'n'"):
        parse_power_config(missing_n)
    no_alt = write(tmp_path, "e.cfg", "n = 10\nstatistic = KS\n")
    with pytest.raises(InputError, match="alternative"):
        parse_power_config(no_alt)
    assert main(["power", "--config", bad_key]) == EXIT_USAGE
    bad_alt = write(tmp_path, "f.cfg", "n = 10\nreps = 50\nstatistic = KS\n"
                                       "alternative = normal(5)\n")
    with pytest.raises(InputError, match="normal"):
        parse_power_config(bad_alt)
    assert main(["power", "--config", bad_alt]) == EXIT_USAGE
    wide = write(tmp_path, "g.cfg", "n = 10\nreps = 50\nstatistic = KS\n"
                                    "alternative = uniform(-1e308,1e308)\n")
    assert main(["power", "--config", wide, "--workers", "1"]) == EXIT_USAGE
    assert "uniform" in capsys.readouterr().err


def test_power_config_parses_shipped_style(tmp_path):
    cfg = parse_power_config(write(tmp_path, "t.cfg", SMOKE_CFG))
    assert cfg.mode == "power"
    assert cfg.n_list == (12,)
    assert cfg.reps == 100
    assert cfg.calibration_reps == 200
    assert [s.label() for s in cfg.specs] == ["T:3", "KS"]
    assert [a.label() for a in cfg.alternatives] == ["cauchy", "uniform"]


def test_shipped_configs_parse():
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "configs"
    table2 = parse_power_config(str(root / "table2.cfg"))
    assert table2.mode == "power"
    assert len(table2.specs) == 11
    assert len(table2.alternatives) == 6
    table4 = parse_power_config(str(root / "table4.cfg"))
    assert table4.mode == "local-power"
    assert table4.contaminant.label() == "cauchy"
    assert table4.p_grid == (0.0, 0.2, 0.5, 0.8, 1.0)
    assert table4.n_list == (20, 50)


def test_console_script_entrypoint_installed():
    proc = subprocess.run([sys.executable, "-m", "logigof.cli", "--help"],
                          capture_output=True, text=True, env=fresh_env())
    assert proc.returncode == 0
    assert "fit" in proc.stdout and "power" in proc.stdout


# ---------------------------------------------------------------------------
# import hygiene: scipy is loaded only by the oracles that need it, and the
# process-pool machinery only by a parallel Monte Carlo call


def run_fresh(code):
    """stdout of ``code`` run by a new interpreter that imports this copy of
    logigof."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=fresh_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_paths_import_no_scipy(tmp_path):
    cfg = write(tmp_path, "smoke.cfg", SMOKE_CFG)
    code = f"""
import contextlib, io, json, sys
import logigof
import logigof.cli as c
# scipy, and the process-pool machinery that only a parallel call needs
unwanted = lambda: sorted(m for m in sys.modules
                          if m.split(".")[0] in ("scipy", "multiprocessing")
                          or m == "concurrent.futures.process")
c.build_parser()
seen = {{"import": unwanted()}}
runs = {{
    "fit": ["fit", "bundled:", "--log"],
    "test": ["test", "bundled:", "--log", "--reps", "50", "--workers", "1"],
    "calibrate": ["calibrate", "--stat", "T,S,R,KS,AD", "--n", "12", "--reps", "40",
                  "--workers", "1"],
    "power": ["power", "--config", {cfg!r}, "--workers", "1"],
}}
for name, args in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        assert c.main(args) == 0, name
    seen[name] = unwanted()
print(json.dumps(seen))
"""
    seen = json.loads(run_fresh(code).strip().splitlines()[-1])
    assert seen == {name: [] for name in ("import", "fit", "test", "calibrate", "power")}


def test_expectations_under_the_logistic_law_import_no_scipy():
    code = """
import sys
from logigof import statistics
from logigof.estimation import Method
statistics.moment_identities()
statistics.covariance_kernel(0.5, 1.0, Method.MAX_LIKELIHOOD)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert run_fresh(code).strip() == "[]"


def test_lazy_scipy_oracles_work_on_first_call():
    code = """
from logigof import statistics
from logigof.montecarlo import AlternativeSpec
t5 = AlternativeSpec.parse("t(5)")
print(repr(statistics.covariance_kernel(0.5, 1.0)))
print(repr(float(t5.pdf(0.5))), repr(t5.mean()), repr(t5.std()))
"""
    kernel, law = run_fresh(code).strip().splitlines()
    assert float(kernel) == statistics.covariance_kernel(0.5, 1.0)
    t5 = AlternativeSpec.parse("t(5)")
    assert [float(v) for v in law.split()] == [t5.pdf(0.5), t5.mean(), t5.std()]


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_parallel_calibrate_exits_cleanly_and_leaves_no_process(tmp_path):
    out = tmp_path / "cv.csv"
    cmd = [sys.executable, "-m", "logigof.cli", "calibrate", "--stat", "T:3,KS",
           "--n", "30", "--reps", "2048", "--workers", "2", "--out", str(out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=fresh_env(), start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=300)
    finally:
        proc.kill()
        proc.wait()
    left = [pid for pid, sid in live_processes().items() if sid == proc.pid]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert proc.returncode == 0 and stderr == ""
    assert out.read_text().startswith("statistic,")
    assert left == []
