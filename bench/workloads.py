"""The two benchmark workloads: instances, warm-up, timed calls, checks.

Each workload drives paraopt through its public API, as in the README
library example.  Calls go through module attributes (``solver.paraopt_solve``,
``linear_analysis.spectral_summary``) so that the traced run can wrap them.
Sizes are scaled down from the 1.2e6-step study grid so that one instance
takes seconds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from paraopt import (ParaoptOptions, coarse_linearize, default_initial_guess,
                     fine_propagate, linear_analysis, make_grid, make_heat_1d,
                     make_lotka_volterra, solver)

# Window Newton tolerance of ParaoptOptions (1e-12).  Each fine step's
# equations hold to it, so values accumulated over N fine steps may differ
# from an exact solve by up to N * LOCAL_TOL (no growth factor assumed).
LOCAL_TOL = ParaoptOptions().local_tol

LV_ALPHA = 5e-2
LV_Y_INIT = (20.0, 10.0)
LV_Y_TARGET = (100.0, 20.0)
LV_SPREAD = 0.05          # seeded states lie within +-5% of the study values


def _warm_windows(problem, grid):
    """One fine and one coarse window solve plus blocks on window 1.

    Fills the process-lifetime caches keyed on window length
    (``propagators._stencil`` for nonlinear problems) before timing starts.
    """
    X = default_initial_guess(problem, grid)
    fine_propagate(problem, grid, 1, X.states[0], X.adjoints[0])
    coarse_linearize(problem, grid, 1, X.states[0], X.adjoints[0]).blocks()


@dataclass(frozen=True)
class Outcome:
    """What one instance produced: outer iterations and its checks."""

    outer_iterations: int
    checks: dict     # name -> (value, limit); passes when value <= limit
    converged: bool

    @property
    def ok(self) -> bool:
        return self.converged and all(v <= limit
                                      for v, limit in self.checks.values())


class LvParareal:
    name = "lv_parareal"
    grid = make_grid(1.0 / 3.0, 12, 20_000, 20)      # r = 1e-3, 240k fine steps
    # verify_residual re-solves every window; its matching residual can
    # differ from zero by what one window's fine steps accumulate.
    residual_tol = grid.fine_steps * LOCAL_TOL
    # per-layer numbers the traced run must find non-zero: the layers this
    # workload loads
    traced_layers = ("solve.propagators.fine.calls",
                     "solve.propagators.coarse.calls",
                     "solve.propagators.blocks.calls", "solve.model.rows",
                     "solve.parallel.map_s")

    def params(self, seed: int, index: int) -> dict:
        rng = np.random.default_rng([seed, index])
        scale = 1.0 + rng.uniform(-LV_SPREAD, LV_SPREAD, 4)
        return dict(y_init=[float(v) for v in np.array(LV_Y_INIT) * scale[:2]],
                    y_target=[float(v)
                              for v in np.array(LV_Y_TARGET) * scale[2:]])

    def problem(self, params: dict):
        return make_lotka_volterra(alpha=LV_ALPHA, **params)

    def options(self, workers: int) -> ParaoptOptions:
        return ParaoptOptions(outer_tol=1e-13, inner_solver="assembled_direct",
                              workers=workers)

    def warm_up(self) -> None:
        _warm_windows(make_lotka_volterra(alpha=LV_ALPHA), self.grid)

    def run(self, problem, workers: int, phase) -> Outcome:
        options = self.options(workers)
        with phase("solve"):
            report = solver.paraopt_solve(problem, self.grid, options)
        checks = {}
        if report.converged:
            verified = solver.verify_residual(problem, self.grid, report.final,
                                              options)
            checks["verified_residual"] = (verified, self.residual_tol)
        return Outcome(report.iterations, checks, report.converged)


class HeatKrylov:
    name = "heat_krylov"
    n = 200
    alpha = 1e-4
    grid = make_grid(1e-2, 10, 10_000, 1_000)
    error_tol = grid.total_fine_steps * LOCAL_TOL
    centre_spread = 0.05     # profile centres move by up to +-0.05
    traced_layers = tuple(f"{ph}.propagators.{kind}.calls"
                          for ph in ("reference", "solve")
                          for kind in ("fine", "coarse", "blocks")) + (
        "solve.solver.inner_krylov_iters", "solve.parallel.map_s",
        "analysis.linear_analysis.calls")

    def params(self, seed: int, index: int) -> dict:
        rng = np.random.default_rng([seed, index])
        d = rng.uniform(-self.centre_spread, self.centre_spread, 3)
        return dict(init_centre=0.5 + float(d[0]),
                    target_centres=[0.25 + float(d[1]), 0.75 + float(d[2])])

    def problem(self, params: dict):
        c0 = params["init_centre"]
        c1, c2 = params["target_centres"]
        return make_heat_1d(
            n=self.n, alpha=self.alpha,
            y_init_fn=lambda x: np.exp(-100.0 * (x - c0) ** 2),
            y_target_fn=lambda x: 0.5 * (np.exp(-100.0 * (x - c1) ** 2)
                                         + np.exp(-100.0 * (x - c2) ** 2)))

    def options(self, workers: int) -> ParaoptOptions:
        return ParaoptOptions(outer_tol=1e-11, inner_solver="krylov",
                              inner_tol=1e-12, workers=workers)

    @functools.cached_property
    def modes(self) -> np.ndarray:
        """Decaying eigenvalues of the diffusion matrix (the per-mode table)."""
        A = make_heat_1d(n=self.n).linear_matrix
        eigs = np.sort(np.linalg.eigvalsh(A))
        return eigs[eigs < -1e-9]

    def warm_up(self) -> None:
        _warm_windows(make_heat_1d(n=self.n, alpha=self.alpha), self.grid)
        linear_analysis.spectral_summary(
            linear_analysis.DahlquistSetup(float(self.modes[0]), self.alpha,
                                           self.grid))

    def run(self, problem, workers: int, phase) -> Outcome:
        options = self.options(workers)
        with phase("reference"):
            reference = solver.reference_solve(problem, self.grid, options)
        with phase("solve"):
            report = solver.paraopt_solve(problem, self.grid, options,
                                          reference=reference)
        with phase("analysis"):
            bounds = [linear_analysis.spectral_summary(
                linear_analysis.DahlquistSetup(float(s), self.alpha, self.grid)
            ).rho_bound for s in self.modes]
        nonfinite = sum(not (math.isfinite(b) and b >= 0.0) for b in bounds)
        checks = {"interface_error": (float(report.errors[-1]), self.error_tol),
                  "nonfinite_mode_bounds": (nonfinite, 0)}
        return Outcome(report.iterations, checks, report.converged)


WORKLOADS = {w.name: w for w in (LvParareal(), HeatKrylov())}
