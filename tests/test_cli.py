import os

import numpy as np
import pytest

from paraopt import _parallel
from paraopt import experiments as ex
from paraopt import propagators
from paraopt.cli import (EXIT_CONFLICT, EXIT_GOLDEN, EXIT_INVALID,
                         EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_UNKNOWN_KEY,
                         EXIT_USAGE, CliError, main, parse_config)


def run(tmp_path, *args):
    return main(list(args) + [f"--output-dir={tmp_path}"])


def test_empty_argv_prints_usage_exit_2(capsys):
    assert main([]) == EXIT_USAGE
    out = capsys.readouterr().out
    assert "usage:" in out


def test_unknown_subcommand_exit_2():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_unknown_key_exit_4():
    assert main(["analyze", "--bogus=1"]) == EXIT_UNKNOWN_KEY


def test_parse_error_exit_2():
    assert main(["analyze", "--sigma=abc"]) == EXIT_USAGE
    assert main(["sweep"]) == EXIT_USAGE   # missing required mode


def test_invalid_parameter_exit_6(tmp_path, capsys):
    assert run(tmp_path, "analyze", "--alpha=0") == EXIT_INVALID
    # 0 is a given value: a preset's alpha only fills in a missing one
    for preset in ("dahlquist", "heat"):
        capsys.readouterr()
        assert run(tmp_path, "solve", f"--preset={preset}",
                   "--alpha=0") == EXIT_INVALID
        assert "alpha must be positive" in capsys.readouterr().err
    for workers in ("0", "-5"):
        assert run(tmp_path, "solve", "--preset=dahlquist",
                   f"--workers={workers}") == EXIT_INVALID
        assert "workers must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (("lv", "--L=0"), "need at least one sub-interval"),
    (("heat", "--L=0"), "need at least one sub-interval"),
    (("heat", "--delta-t=0"), "delta_t must be positive"),
    (("analyze", "--L=0", "--dt=0.1"), "--dt needs L >= 1 and dt > 0"),
    (("analyze", "--dt=0"), "--dt needs L >= 1 and dt > 0"),
    (("lv", "--r=nan"), "is not a positive integer"),
    (("solve", "--preset=dahlquist", "--outer-tol=nan"),
     "outer_tol must be finite and positive, got nan"),
    (("solve", "--preset=dahlquist", "--outer-tol=inf"),
     "outer_tol must be finite and positive, got inf"),
])
def test_zero_windows_or_step_exit_6(tmp_path, capsys, args, message):
    # each used to divide by zero (or round a NaN) before any check; a NaN
    # outer tolerance ran to max_outer and an infinite one converged at once
    assert run(tmp_path, *args) == EXIT_INVALID
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (("--samples=5", "--max-L=0"), "need at least one window count L"),
    (("--samples=0", "--max-L=1"), "need at least one sample"),
])
def test_check_with_an_empty_suite_exit_6(tmp_path, capsys, monkeypatch,
                                         flags, message):
    # an empty suite used to pass with zero violations of zero cases, and
    # --max-L=0 ran the other two suites before it was rejected
    called = []
    for suite in ("appendix_grid", "bound_suite", "oracle_equivalence"):
        monkeypatch.setattr(ex, suite,
                            lambda *args, suite=suite, **kw: called.append(suite))
    assert run(tmp_path, "check", *flags) == EXIT_INVALID
    assert message in capsys.readouterr().err
    assert called == []


def test_conflicting_step_spec_exit_5():
    # dt and coarse-per-sub disagree about the coarse grid
    assert main(["analyze", "--T=100", "--L=30", "--coarse-per-sub=50",
                 "--dt=0.1"]) == EXIT_CONFLICT


def test_dt_equals_fine_with_explicit_fine_per_coarse_exit_5(tmp_path):
    # an explicit 100 equals the default and must still be caught
    assert main(["solve", "--dt-equals-fine",
                 "--fine-per-coarse=100"]) == EXIT_CONFLICT
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fine-per-coarse=100\n", encoding="utf-8")
    assert main(["solve", f"--config={cfg}",
                 "--dt-equals-fine"]) == EXIT_CONFLICT
    cfg = parse_config(["solve", "--dt-equals-fine", "--fine-per-coarse=1"])
    assert cfg["fine-per-coarse"] == 1
    assert parse_config(["solve"])["fine-per-coarse"] == 100


def test_dt_not_tiling_the_subinterval_exit_6(capsys):
    # T/L/dt = 2.5 coarse steps per sub-interval
    assert main(["analyze", "--T=1", "--L=4", "--dt=0.1"]) == EXIT_INVALID
    assert "--dt must tile the sub-interval" in capsys.readouterr().err
    assert main(["analyze", "--T=1", "--L=4", "--dt=0.5"]) == EXIT_INVALID


def test_dt_consistent_with_count_accepted(tmp_path):
    DT = 100.0 / 30.0
    assert run(tmp_path, "analyze", "--T=100", "--L=30",
               "--coarse-per-sub=50", f"--dt={DT / 50}") == EXIT_OK


def test_config_file_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma=-2\nalpha=1\n# note\nT=100\n", encoding="utf-8")
    rc = run(tmp_path, "analyze", f"--config={cfg}", "--L=30",
             "--sigma=-0.5")
    assert rc == EXIT_OK
    first_row = (tmp_path / "analyze.csv").read_text().splitlines()[1]
    assert first_row.startswith("-0.5,")


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobs=3\n", encoding="utf-8")
    assert main(["analyze", f"--config={cfg}"]) == EXIT_UNKNOWN_KEY


def test_table31_exit_0_and_csv(tmp_path):
    assert run(tmp_path, "table31") == EXIT_OK
    lines = (tmp_path / "table31.csv").read_text().splitlines()
    assert len(lines) == 7    # header + six sigma rows
    assert lines[0].startswith("sigma,beta,gamma,C,L0")


def test_analyze_csv_schema(tmp_path):
    assert run(tmp_path, "analyze", "--sigma=-16", "--alpha=1", "--T=100",
               "--L=30", "--coarse-per-sub=50", "--fine-per-coarse=100") == EXIT_OK
    header = (tmp_path / "analyze.csv").read_text().splitlines()[0]
    assert header == ("sigma,beta,gamma,C,L0,disc_center,disc_radius,"
                      "exists_isolated,mu_star_bound,rho,rho_bound,"
                      "global_bound")
    assert (tmp_path / "spectrum.csv").exists()


def test_solve_dt_equals_fine_single_iteration(tmp_path, capsys):
    rc = run(tmp_path, "solve", "--preset=dahlquist", "--dt-equals-fine",
             "--coarse-per-sub=4")
    assert rc == EXIT_OK
    assert "outer_iterations=1" in capsys.readouterr().out
    header = (tmp_path / "history.csv").read_text().splitlines()[0]
    assert header == "iter,residual_inf,err_inf,inner_iters,wall_seconds"


def test_lv_long_horizon_single_window_exit_1(tmp_path):
    rc = run(tmp_path, "lv", "--T=1", "--L=1", "--r=1",
             "--fine-total=12000", "--no-reference")
    assert rc == EXIT_NO_CONVERGENCE


def test_singular_coarse_jacobian_exit_6(tmp_path, monkeypatch, capsys):
    # P_lam = 1 makes the one-window J^G singular (see test_solver)
    def singular_blocks(self, gauss_newton=False):
        return tuple(np.array([[b]]) for b in (0.5, 1.0, 0.0, 0.7))

    monkeypatch.setattr(propagators.CoarseLinearization, "blocks",
                        singular_blocks)
    rc = run(tmp_path, "solve", "--preset=dahlquist", "--L=1",
             "--inner=assembled_direct")
    assert rc == EXIT_INVALID
    assert "Jacobian is singular" in capsys.readouterr().err


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["analyze", "--sigma=-2", f"--output-dir={out}"]) == EXIT_OK
        assert main(["sweep", "--mode=scal_fixed_T",
                     f"--output-dir={out}"]) == EXIT_OK
        assert main(["solve", "--preset=dahlquist", "--coarse-per-sub=4",
                     "--zero-timings", f"--output-dir={out}"]) == EXIT_OK
    for name in ("analyze.csv", "spectrum.csv", "sweep_scal_fixed_T.csv",
                 "history.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_bench_zero_timings_byte_identical(tmp_path):
    # wall times and every speedup derived from them are blanked
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["bench", "--preset=dahlquist", "--worker-counts=1,2",
                     "--zero-timings", f"--output-dir={out}"]) == EXIT_OK
    assert (a / "timing.csv").read_bytes() == (b / "timing.csv").read_bytes()
    rows = (a / "timing.csv").read_text().splitlines()
    assert rows[0] == ("workers,wall_seconds,speedup,outer_iterations,"
                       "speedup_vs_serial")
    assert [row.split(",")[:3] for row in rows[1:]] == [["1", "0.0", "0.0"],
                                                        ["2", "0.0", "0.0"]]


def test_json_output(tmp_path):
    assert run(tmp_path, "analyze", "--format=json") == EXIT_OK
    import json

    payload = json.loads((tmp_path / "analyze.json").read_text())
    assert payload["columns"][0] == "sigma"


def test_golden_failure_exit_3(tmp_path, monkeypatch):
    monkeypatch.setitem(ex.TABLE31_GOLDEN, -0.125,
                        (0.9, 2.2462, 0.8268, 0.4280, 2.00e-3, -6.08e-3))
    assert run(tmp_path, "table31") == EXIT_GOLDEN


def test_check_subcommand(tmp_path):
    assert run(tmp_path, "check", "--samples=50", "--max-L=3") == EXIT_OK


def test_parse_config_structure():
    cfg = parse_config(["lv", "--T=1", "--L=1"])
    assert cfg.subcommand == "lv"
    assert cfg["T"] == 1.0 and cfg["L"] == 1
    with pytest.raises(CliError):
        parse_config([])


def test_workers_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("PARAOPT_WORKERS", "2")
    from paraopt._parallel import resolve_workers

    assert resolve_workers(None, 8) == 2
    monkeypatch.delenv("PARAOPT_WORKERS")
    assert resolve_workers(None, 8) == min(8, _parallel._usable_cpus())
    assert resolve_workers(3, 8) == 3


def test_default_workers_follow_the_affinity_mask(monkeypatch):
    # a process pinned to 3 of 64 CPUs gets 3 workers, not 12
    monkeypatch.delenv("PARAOPT_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9},
                        raising=False)
    assert _parallel.resolve_workers(None, 12) == 3
    assert _parallel.resolve_workers(None, 2) == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _parallel.resolve_workers(None, 12) == 12


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_malformed_workers_env_exit_6(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("PARAOPT_WORKERS", value)
    assert run(tmp_path, "solve", "--preset=dahlquist") == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"PARAOPT_WORKERS must be a positive integer, got {value!r}" in err
