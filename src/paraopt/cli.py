"""Command-line front end: config parsing, dispatch, CSV/JSON emission.

Exit codes:
    0  success, all golden checks passing
    1  solver no-convergence
    2  usage shown / malformed invocation or value (parse error)
    3  golden-check failure
    4  unknown configuration key
    5  conflicting configuration values
    6  invalid parameter value (rejected by the model constructors), or
       another solver error: a singular step matrix or coarse Jacobian

Configuration values come from an optional flat ``key=value`` file
(``--config=FILE``) overridden by command-line flags.  Numeric output uses
shortest round-trip formatting (up to 17 significant digits) and LF line
endings so identical configurations produce byte-identical files; history
files additionally honor ``--zero-timings`` to blank the one
machine-dependent column.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import experiments as ex
from . import linear_analysis as la
from .errors import (InvalidParameterError, NewtonDivergenceError,
                     NoConvergenceError, ParaoptError)
from .model import make_dahlquist, make_grid, make_heat_1d, step_count
from .solver import ParaoptOptions, paraopt_solve

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 1
EXIT_USAGE = 2
EXIT_GOLDEN = 3
EXIT_UNKNOWN_KEY = 4
EXIT_CONFLICT = 5
EXIT_INVALID = 6

USAGE = """\
usage: paraopt SUBCOMMAND [--key=value ...] [--config=FILE]

subcommands:
  analyze   scalar convergence analysis for one (sigma, alpha, grid)
  sweep     spectral-radius sensitivity sweeps (--mode=...)
  table31   golden table of the scalar analysis quantities
  solve     run the interface solver on a preset problem
  lv        predator-prey control run
  heat      periodic heat-control run
  bench     repeat a solve over worker counts; report timings
  check     invariant suites (inequalities, bounds, spectrum oracles)

common keys: --output-dir=DIR --format=csv|json --workers=N --zero-timings
Flags override config-file values.  PARAOPT_WORKERS sets the default
worker count.
"""


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _flag(default=False):
    return ("flag", default)


_COMMON = {
    "output-dir": (str, "out"),
    "format": (str, "csv"),
    "workers": (int, None),
    "zero-timings": _flag(),
    "config": (str, None),
}

SCHEMAS = {
    "analyze": {
        "sigma": (float, -16.0), "alpha": (float, 1.0), "T": (float, 100.0),
        "L": (int, 30), "coarse-per-sub": (int, None),
        "fine-per-coarse": (int, 100), "dt": (float, None),
    },
    "sweep": {
        "mode": (str, None), "sigma": (float, -16.0), "alpha": (float, 1.0),
    },
    "table31": {},
    "solve": {
        "preset": (str, "dahlquist"), "sigma": (float, -16.0),
        "alpha": (float, None), "T": (float, None), "L": (int, 10),
        "coarse-per-sub": (int, 10), "fine-per-coarse": (int, None),
        "dt-equals-fine": _flag(), "outer-tol": (float, 1e-13),
        "inner": (str, "assembled_direct"), "variant": (str, "newton"),
    },
    "lv": {
        "T": (float, 1.0 / 3.0), "alpha": (float, 5e-2), "L": (int, 10),
        "r": (float, 1e-4), "variant": (str, "newton"),
        "fine-total": (int, ex.LV_DEFAULT_FINE_TOTAL),
        "outer-tol": (float, 1e-13), "no-reference": _flag(),
    },
    "heat": {
        "delta-t": (float, 1e-7), "r": (float, 1e-1), "alpha": (float, 1e-4),
        "L": (int, 10), "n": (int, 50), "T": (float, 1e-2),
        "outer-tol": (float, 1e-11),
    },
    "bench": {
        "preset": (str, "lotka_volterra"), "worker-counts": (str, "1,4"),
        "fine-total": (int, 24_000),
    },
    "check": {
        "samples": (int, 200), "seed": (int, 20240817),
        "max-L": (int, 5),
    },
}


@dataclass
class RunConfig:
    subcommand: str
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]


def _parse_value(key, spec, raw):
    kind = spec[0]
    if kind == "flag":
        if raw in (None, "", "true", "1"):
            return True
        if raw in ("false", "0"):
            return False
        raise CliError(EXIT_USAGE, f"flag --{key} takes no value (got {raw!r})")
    try:
        if kind is int:
            value = float(raw)
            if value != int(value):
                raise ValueError
            return int(value)
        return kind(raw)
    except (TypeError, ValueError):
        raise CliError(EXIT_USAGE,
                       f"could not parse value {raw!r} for key {key!r}")


def _read_config_file(path, schema):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(EXIT_USAGE,
                           f"{path}:{lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in schema:
            raise CliError(EXIT_UNKNOWN_KEY,
                           f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, schema[key], raw)
    return values


def parse_config(argv) -> RunConfig:
    """Parse argv (without the program name) into a validated RunConfig."""
    if not argv:
        raise CliError(EXIT_USAGE, USAGE)
    sub = argv[0]
    if sub in ("-h", "--help", "help"):
        raise CliError(EXIT_USAGE, USAGE)
    if sub not in SCHEMAS:
        raise CliError(EXIT_USAGE, f"unknown subcommand {sub!r}\n\n{USAGE}")
    schema = dict(_COMMON)
    schema.update(SCHEMAS[sub])

    flags = {}
    tokens = list(argv[1:])
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise CliError(EXIT_USAGE, f"unexpected argument {tok!r}")
        body = tok[2:]
        if "=" in body:
            key, raw = body.split("=", 1)
        else:
            key = body
            raw = None
            if (key in schema and schema[key][0] != "flag"
                    and i + 1 < len(tokens) and not tokens[i + 1].startswith("--")):
                raw = tokens[i + 1]
                i += 1
        if key not in schema:
            raise CliError(EXIT_UNKNOWN_KEY, f"unknown key --{key}")
        if schema[key][0] != "flag" and raw is None:
            raise CliError(EXIT_USAGE, f"missing value for --{key}")
        flags[key] = _parse_value(key, schema[key], raw)
        i += 1

    values = {key: spec[1] for key, spec in schema.items()}
    config_path = flags.get("config", values.get("config"))
    if config_path:
        values.update(_read_config_file(config_path, schema))
    values.update(flags)

    _validate(sub, values)
    return RunConfig(sub, values)


def _validate(sub, values):
    if values["format"] not in ("csv", "json"):
        raise CliError(EXIT_USAGE, f"unknown format {values['format']!r}")
    if sub == "analyze":
        T, L = values["T"], values["L"]
        dt = values["dt"]
        cps = values["coarse-per-sub"]
        if dt is not None:
            if not (L >= 1 and dt > 0):
                raise CliError(EXIT_INVALID, "--dt needs L >= 1 and dt > 0 "
                               f"(got L={L}, dt={dt})")
            derived = (T / L) / dt
            if cps is not None and abs(derived - cps) > 1e-9 * max(1.0, derived):
                raise CliError(
                    EXIT_CONFLICT,
                    f"--dt={dt} conflicts with --coarse-per-sub={cps} "
                    f"(T/L/dt = {derived:.6g})")
            try:
                values["coarse-per-sub"] = step_count(derived, "T/L/dt")
            except InvalidParameterError as exc:
                raise CliError(EXIT_INVALID,
                               "--dt must tile the sub-interval an integer "
                               f"number of times ({exc})") from exc
        elif cps is None:
            values["coarse-per-sub"] = 50
    if sub == "solve":
        fpc = values["fine-per-coarse"]
        if values["dt-equals-fine"]:
            if fpc not in (None, 1):
                raise CliError(
                    EXIT_CONFLICT,
                    "--dt-equals-fine conflicts with --fine-per-coarse")
            values["fine-per-coarse"] = 1
        elif fpc is None:
            values["fine-per-coarse"] = 100
    if sub == "sweep":
        if values["mode"] is None:
            raise CliError(EXIT_USAGE, "sweep requires --mode=<name>")
        if values["mode"] not in ex.SWEEP_MODES:
            raise CliError(EXIT_USAGE,
                           f"unknown sweep mode {values['mode']!r}; pick from "
                           + ", ".join(ex.SWEEP_MODES))
    if sub == "check":
        # each suite runs in turn: an empty one is rejected before any runs
        if values["max-L"] < 1:
            raise CliError(EXIT_INVALID, "need at least one window count L "
                           f"(got --max-L={values['max-L']})")
        if values["samples"] < 1:
            raise CliError(EXIT_INVALID, "need at least one sample "
                           f"(got --samples={values['samples']})")
    if sub == "bench":
        try:
            counts = tuple(int(tok) for tok in
                           str(values["worker-counts"]).split(","))
        except ValueError:
            raise CliError(EXIT_USAGE, "worker-counts must be like 1,4,12")
        if not counts or any(c < 1 for c in counts):
            raise CliError(EXIT_INVALID, "worker counts must be >= 1")
        values["worker-counts"] = counts


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_artifact(artifact, out_dir, fmt, zero_timings=False):
    os.makedirs(out_dir, exist_ok=True)
    rows = artifact.rows
    if zero_timings and "wall_seconds" in artifact.columns:
        j = artifact.columns.index("wall_seconds")
        rows = [tuple(0.0 if i == j else v for i, v in enumerate(row))
                for row in rows]
    path = os.path.join(out_dir, f"{artifact.name}.{fmt}")
    if fmt == "csv":
        lines = [",".join(artifact.columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        payload = "\n".join(lines) + "\n"
    else:
        payload = json.dumps(
            {"columns": list(artifact.columns),
             "rows": [[(_fmt(v) if isinstance(v, float) else v) for v in row]
                      for row in rows]},
            indent=1, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    return path


def _emit(result, cfg) -> int:
    out_dir = cfg["output-dir"]
    for artifact in result.artifacts:
        path = _write_artifact(artifact, out_dir, cfg["format"],
                               cfg["zero-timings"])
        print(f"wrote {path}")
    status = EXIT_OK
    for check in result.checks:
        mark = "ok" if check.passed else "FAIL"
        print(f"[{mark}] {check.name}: {_fmt(check.value)} "
              f"(expected {_fmt(check.expected)})")
        if not check.passed:
            status = EXIT_GOLDEN
    return status


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _history_result(name, report):
    return ex.ExperimentResult(
        name, artifacts=[ex._history_artifact("history", report)])


def _run_analyze(cfg):
    grid = make_grid(cfg["T"], cfg["L"],
                     cfg["coarse-per-sub"] * cfg["fine-per-coarse"],
                     cfg["coarse-per-sub"])
    setup = la.DahlquistSetup(cfg["sigma"], cfg["alpha"], grid)
    s = la.spectral_summary(setup)
    rho = la.spectral_radius(setup)
    spectrum = la.iteration_spectrum(setup)
    result = ex.ExperimentResult("analyze")
    result.artifacts.append(ex.Artifact(
        "analyze",
        ["sigma", "beta", "gamma", "C", "L0", "disc_center", "disc_radius",
         "exists_isolated", "mu_star_bound", "rho", "rho_bound",
         "global_bound"],
        [(s.sigma, s.beta_coarse, s.gamma_coarse, s.C, s.L0, s.disc_center,
          s.disc_radius, s.exists_isolated, s.mu_star_bound, rho,
          s.rho_bound, s.global_bound)]))
    order = np.lexsort((spectrum.imag, spectrum.real))
    result.artifacts.append(ex.Artifact(
        "spectrum", ["index", "real", "imag"],
        [(i, float(z.real), float(z.imag))
         for i, z in enumerate(spectrum[order])]))
    return result


def _run_solve(cfg):
    preset = cfg["preset"]
    if preset == "dahlquist":
        problem = make_dahlquist(
            cfg["sigma"], cfg["alpha"] if cfg["alpha"] is not None else 1.0)
        T = cfg["T"] if cfg["T"] is not None else 1.0
    elif preset == "heat":
        problem = make_heat_1d(
            alpha=cfg["alpha"] if cfg["alpha"] is not None else 1e-4)
        T = cfg["T"] if cfg["T"] is not None else 1e-2
    else:
        raise CliError(EXIT_USAGE,
                       f"unknown preset {preset!r} (dahlquist or heat; "
                       "use the lv subcommand for the predator-prey runs)")
    cps = cfg["coarse-per-sub"]
    grid = make_grid(T, cfg["L"], cps * cfg["fine-per-coarse"], cps)
    options = ParaoptOptions(outer_tol=cfg["outer-tol"],
                             inner_solver=cfg["inner"],
                             variant=cfg["variant"], workers=cfg["workers"])
    report = paraopt_solve(problem, grid, options)
    result = _history_result(f"solve_{preset}", report)
    print(f"converged={report.converged} outer_iterations={report.iterations} "
          f"residual={report.final_residual:.3e}")
    if not report.converged:
        raise NoConvergenceError("solve did not converge", report=report)
    return result


def _run_lv(cfg):
    return ex.lotka_volterra_run(
        T=cfg["T"], alpha=cfg["alpha"], L=cfg["L"], r=cfg["r"],
        variant=cfg["variant"], workers=cfg["workers"],
        fine_total=cfg["fine-total"], outer_tol=cfg["outer-tol"],
        with_reference=not cfg["no-reference"])


def _run_heat(cfg):
    return ex.heat_run(delta_t=cfg["delta-t"], r=cfg["r"],
                       alpha=cfg["alpha"], L=cfg["L"], n=cfg["n"],
                       T=cfg["T"], workers=cfg["workers"],
                       outer_tol=cfg["outer-tol"])


def _run_bench(cfg):
    return ex.timing_run(preset=cfg["preset"],
                         worker_counts=cfg["worker-counts"],
                         fine_total=cfg["fine-total"])


def _run_check(cfg):
    combined = ex.ExperimentResult("check")
    for result in (ex.appendix_grid(),
                   ex.bound_suite(cfg["samples"], cfg["seed"]),
                   ex.oracle_equivalence(
                       Ls=tuple(range(1, cfg["max-L"] + 1)))):
        combined.checks.extend(result.checks)
        combined.artifacts.extend(result.artifacts)
    return combined


_HANDLERS = {
    "analyze": _run_analyze,
    "sweep": lambda cfg: ex.scalar_sweeps(cfg["mode"], cfg["sigma"],
                                          cfg["alpha"]),
    "table31": lambda cfg: ex.table31(),
    "solve": _run_solve,
    "lv": _run_lv,
    "heat": _run_heat,
    "bench": _run_bench,
    "check": _run_check,
}


def dispatch(config: RunConfig) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        result = _HANDLERS[config.subcommand](config.values)
        return _emit(result, config)
    except CliError:
        raise
    except (NoConvergenceError, NewtonDivergenceError) as exc:
        report = getattr(exc, "report", None)
        if report is not None:
            _emit(_history_result(config.subcommand, report), config)
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except InvalidParameterError as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ParaoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config = parse_config(argv)
    except CliError as exc:
        stream = sys.stdout if exc.code == EXIT_USAGE and not argv else sys.stderr
        print(exc, file=stream)
        return exc.code
    try:
        return dispatch(config)
    except CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
