"""Study configurations: golden tables, parameter sweeps, solver runs.

Each function returns an :class:`ExperimentResult` holding a parameter
table, CSV-ready artifacts, and any golden-value comparisons.  Golden
values are embedded with per-entry tolerances: 1e-3 relative wherever the
source table prints four or more significant digits, the print-rounding
allowance otherwise (each such entry is annotated).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import linear_analysis as la
from .errors import InvalidParameterError, NoConvergenceError
from .model import (ControlProblem, InterfaceVector, TimeGrid, make_dahlquist,
                    make_grid, make_heat_1d, make_lotka_volterra,
                    step_count)
from .propagators import fine_propagate
from .solver import (VARIANT_GAUSS_NEWTON, VARIANT_NEWTON,
                     ConvergenceReport, ParaoptOptions, paraopt_solve,
                     reference_solve)

Array = np.ndarray


@dataclass
class GoldenCheck:
    name: str
    value: float
    expected: float
    rtol: Optional[float] = None
    atol: Optional[float] = None
    note: str = ""

    @property
    def passed(self) -> bool:
        tol = 0.0
        if self.rtol is not None:
            tol += self.rtol * abs(self.expected)
        if self.atol is not None:
            tol += self.atol
        return abs(self.value - self.expected) <= tol


@dataclass
class Artifact:
    """One named CSV payload: column names plus value rows."""

    name: str
    columns: list
    rows: list


@dataclass
class ExperimentResult:
    name: str
    params: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def artifact(self, name: str) -> Artifact:
        for a in self.artifacts:
            if a.name == name:
                return a
        raise KeyError(name)


# ---------------------------------------------------------------------------
# golden table of the scalar analysis quantities
# ---------------------------------------------------------------------------

TABLE31_GRID = dict(T=100.0, L=30, coarse_per_sub=50, fine_per_coarse=100)

# (beta, gamma, C, L0, disc radius, mu* bound at alpha=1) per sigma; the
# rtol overrides mark entries printed with fewer than 4 significant digits
# (print-rounding allowance) plus one suspected misprint, see the note.
TABLE31_GOLDEN = {
    -0.125: (0.6604, 2.2462, 0.8268, 0.4280, 2.00e-3, -6.08e-3),
    -0.25: (0.4376, 1.6037, 0.6960, 0.5300, 3.67e-3, -9.34e-3),
    -0.5: (0.1941, 0.9466, 0.4713, 0.5539, 5.35e-3, -1.24e-2),
    -1.0: (0.0397, 0.4831, 0.1588, 0.2930, 3.97e-3, -1.36e-2),
    -2.0: (0.0019, 0.2344, 0.0116, 0.0417, 6.36e-4, -1.30e-2),
    -16.0: (1.72e-16, 0.0204, 5e-16, 1.61e-14, 1.72e-16, -1.05e-2),
}
TABLE31_COLUMNS = ("beta", "gamma", "C", "L0", "disc_radius", "mu_star_bound")
_T31_DEFAULT_RTOL = 1e-3
_T31_RTOL_OVERRIDES = {
    (-0.25, "mu_star_bound"): (8e-3, "source prints -9.34e-3; the bound "
                                     "formula gives -9.395e-3 on this grid "
                                     "(all other entries of the row agree "
                                     "to 4 digits)"),
    (-0.5, "mu_star_bound"): (4e-3, "3 printed digits"),
    (-1.0, "mu_star_bound"): (4e-3, "3 printed digits"),
    (-2.0, "mu_star_bound"): (4e-3, "3 printed digits"),
    (-2.0, "beta"): (1.3e-2, "2 printed digits"),
    (-2.0, "C"): (4.5e-3, "3 printed digits"),
    (-2.0, "L0"): (1.5e-3, "3 printed digits"),
    (-16.0, "beta"): (3e-3, "3 printed digits"),
    (-16.0, "C"): (1e-1, "1 printed digit"),
    (-16.0, "disc_radius"): (3e-3, "3 printed digits"),
}


def table31() -> ExperimentResult:
    """Scalar analysis quantities on the reference grid, vs golden values."""
    cfg = TABLE31_GRID
    grid = make_grid(cfg["T"], cfg["L"], cfg["coarse_per_sub"] * cfg["fine_per_coarse"],
                     cfg["coarse_per_sub"])
    result = ExperimentResult("table31", params=dict(cfg, alpha=1.0))
    rows = []
    for sigma, golden in TABLE31_GOLDEN.items():
        s = la.spectral_summary(la.DahlquistSetup(sigma, 1.0, grid))
        values = (s.beta_coarse, s.gamma_coarse, s.C, s.L0, s.disc_radius,
                  s.mu_star_bound)
        rows.append((sigma,) + values)
        for col, value, expect in zip(TABLE31_COLUMNS, values, golden):
            rtol, note = _T31_RTOL_OVERRIDES.get((sigma, col),
                                                 (_T31_DEFAULT_RTOL, ""))
            result.checks.append(GoldenCheck(
                name=f"sigma={sigma}:{col}", value=value, expected=expect,
                rtol=rtol, note=note))
    result.artifacts.append(Artifact(
        "table31", ["sigma"] + list(TABLE31_COLUMNS), rows))
    return result


# ---------------------------------------------------------------------------
# scalar sensitivity sweeps
# ---------------------------------------------------------------------------

SWEEP_MODES = ("vary_fine", "vary_coarse", "fixed_ratio", "scal_fixed_T",
               "scal_fixed_DT")
_SWEEP_COLUMNS = ["key", "sigma", "alpha", "L", "sub_length", "coarse_dt",
                  "fine_dt", "rho", "rho_bound", "global_bound"]


def scalar_sweeps(mode: str, sigma: float = -16.0,
                  alpha: float = 1.0) -> ExperimentResult:
    """Spectral radius sensitivity sweeps of the scalar problem.

    vary_fine:     T=1, L=10, coarse_dt=1e-4, fine_dt=coarse_dt/2^k, k=1..15
    vary_coarse:   T=1, L=10, fine_dt=1e-2*2^-20, coarse_dt=2^-k, k=0..20
    fixed_ratio:   T=1, L=10, fine/coarse=1e-2, coarse_dt=2^-k, k=1..15
    scal_fixed_T:  T=1, sub_length=coarse_dt=1/L, fine ratio 1e-4, L doubling
    scal_fixed_DT: sub_length=coarse_dt=1, T=L, fine ratio 1e-4, L doubling

    The two coarse-step sweeps probe step sizes that do not tile the
    sub-interval by an integer count; their coefficients are evaluated with
    real exponents (``strict=False``), matching how such parameter maps are
    plotted.
    """
    if mode not in SWEEP_MODES:
        raise InvalidParameterError(f"unknown sweep mode {mode!r}")
    # (key, L, sub_length, coarse_dt, fine_dt) of each point
    if mode == "vary_fine":
        points = [(k, 10, 0.1, 1e-4, 1e-4 / 2 ** k) for k in range(1, 16)]
    elif mode == "vary_coarse":
        points = [(k, 10, 0.1, 2.0 ** -k, 1e-2 * 2.0 ** -20)
                  for k in range(0, 21)]
    elif mode == "fixed_ratio":
        points = [(k, 10, 0.1, 2.0 ** -k, 1e-2 * 2.0 ** -k)
                  for k in range(1, 16)]
    else:
        points = []
        for L in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            T = 1.0 if mode == "scal_fixed_T" else float(L)
            points.append((L, L, T / L, T / L, T / L / 10 ** 4))
    strict = mode not in ("vary_coarse", "fixed_ratio")
    rows = []
    for key, L, DT, coarse_dt, fine_dt in points:
        rho, s = la.analysis_point(sigma, alpha, L, DT, coarse_dt, fine_dt,
                                   strict=strict)
        rows.append((key, sigma, alpha, L, DT, coarse_dt, fine_dt, rho,
                     s.rho_bound, s.global_bound))
    result = ExperimentResult(f"sweep_{mode}",
                              params=dict(mode=mode, sigma=sigma, alpha=alpha))
    result.artifacts.append(Artifact(f"sweep_{mode}", _SWEEP_COLUMNS, rows))
    return result


# ---------------------------------------------------------------------------
# Lotka-Volterra runs
# ---------------------------------------------------------------------------

LV_DEFAULT_FINE_TOTAL = 1_200_000  # fine steps over the whole horizon
LV_TABLE_COUNTS = {3: 10, 6: 9, 12: 9, 24: 9}   # outer iterations, r=1e-4
LV_COUNT_SLACK = 3
LV_MINIMA_COSTS = (1064.84, 15.74)               # two distinct local minima

_HISTORY_COLUMNS = ["iter", "residual_inf", "err_inf", "inner_iters",
                    "wall_seconds"]


def _lv_grid(T: float, L: int, r: float, fine_total: int) -> TimeGrid:
    if L < 1:
        raise InvalidParameterError("need at least one sub-interval")
    if fine_total % L:
        raise InvalidParameterError(
            f"total fine step count {fine_total} is not a multiple of L={L}")
    N = fine_total // L
    return make_grid(T, L, N,
                     step_count(N * r, f"coarse steps per window at r={r}"))


def _history_artifact(name: str, report: ConvergenceReport) -> Artifact:
    return Artifact(name, _HISTORY_COLUMNS, report.history_rows())


def lotka_volterra_run(T: float = 1.0 / 3.0, alpha: float = 5e-2, L: int = 10,
                       r: float = 1e-4, variant: str = VARIANT_NEWTON,
                       workers: Optional[int] = None,
                       fine_total: int = LV_DEFAULT_FINE_TOTAL,
                       outer_tol: float = 1e-13,
                       with_reference: bool = True) -> ExperimentResult:
    """One predator-prey solve; emits the convergence history.

    Raises :class:`NoConvergenceError` when the outer iteration fails, which
    genuinely happens for long horizons (e.g. T=1 with a single window).
    """
    problem = make_lotka_volterra(alpha=alpha)
    grid = _lv_grid(T, L, r, fine_total)
    options = ParaoptOptions(outer_tol=outer_tol, variant=variant,
                             workers=workers, inner_solver="assembled_direct")
    reference = (reference_solve(problem, grid, options) if with_reference
                 else None)
    report = paraopt_solve(problem, grid, options, reference=reference)
    result = ExperimentResult(
        f"lv_T{T:g}_L{L}_r{r:g}_{variant}",
        params=dict(T=T, alpha=alpha, L=L, r=r, variant=variant,
                    fine_total=fine_total,
                    fine_steps=grid.fine_steps, coarse_steps=grid.coarse_steps,
                    outer_iterations=report.iterations,
                    converged=report.converged))
    result.artifacts.append(_history_artifact("history", report))
    if not report.converged:
        raise NoConvergenceError(
            f"outer iteration did not converge ({report.message})",
            report=report)
    expected = LV_TABLE_COUNTS.get(L)
    if expected is not None and r == 1e-4 and T == 1.0 / 3.0:
        result.checks.append(GoldenCheck(
            name=f"outer_iterations_L{L}", value=report.iterations,
            expected=expected, atol=LV_COUNT_SLACK,
            note="outer iteration count, +-3"))
    return result


def fit_decay_exponent(errors: Sequence[float], floor_factor: float = 100.0
                       ) -> float:
    """Least-squares slope of log e_{k+1} against log e_k above the floor.

    An exponent near 2 signals quadratic convergence, near 1 linear.
    Pairs whose successor already sits near the terminal floor are dropped.
    """
    e = np.asarray([x for x in errors if x > 0 and np.isfinite(x)])
    if len(e) < 3:
        raise InvalidParameterError("need at least 3 positive errors to fit")
    floor = e.min()
    xs, ys = [], []
    for k in range(len(e) - 1):
        if e[k] > floor_factor * floor and e[k + 1] > floor_factor * floor:
            xs.append(math.log(e[k]))
            ys.append(math.log(e[k + 1]))
    if len(xs) < 2:
        raise InvalidParameterError("too few pre-floor pairs to fit")
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


def discrete_cost(problem: ControlProblem, grid: TimeGrid,
                  X: InterfaceVector) -> float:
    """Objective value of an interface solution on the fine grid.

    Re-propagates every window and accumulates the control energy from the
    adjoints (the control is a pointwise function of the adjoint under
    either discretization branch).
    """
    from .propagators import discrete_control

    total = 0.0
    tau = grid.fine_step
    yT = None
    for ell in range(1, grid.num_subintervals + 1):
        _, _, traj = fine_propagate(problem, grid, ell, X.states[ell - 1],
                                    X.adjoints[ell - 1])
        c = discrete_control(problem, tau, traj.adjoints[1:])
        total += tau * float(np.sum(c * c))
        yT = traj.states[-1]
    misfit = yT - problem.y_target
    return 0.5 * float(misfit @ misfit) + 0.5 * problem.alpha * total


def lotka_volterra_minima(T: float = 1.0, L: int = 10,
                          fine_total: int = 120_000,
                          workers: Optional[int] = None) -> ExperimentResult:
    """Two distinct critical points from the two outer-iteration variants.

    On the longer horizon the full-derivative and the Gauss-Newton outer
    loops converge to different solutions of the same optimality system;
    their objective values are compared at 10% (they depend on
    discretization details finer than the published digits).  The published
    figures match the unhalved quadratic form, i.e. twice the objective
    with the customary 1/2 factors; the comparison accounts for that.
    """
    problem = make_lotka_volterra(alpha=5e-2)
    grid = _lv_grid(T, L, 1.0, fine_total)
    result = ExperimentResult("lv_minima",
                              params=dict(T=T, L=L, fine_total=fine_total))
    costs = []
    for variant, expected in zip((VARIANT_NEWTON, VARIANT_GAUSS_NEWTON),
                                 LV_MINIMA_COSTS):
        options = ParaoptOptions(outer_tol=1e-11, variant=variant,
                                 workers=workers,
                                 inner_solver="assembled_direct",
                                 max_outer=200)
        report = paraopt_solve(problem, grid, options)
        if not report.converged:
            raise NoConvergenceError(f"{variant} run did not converge",
                                     report=report)
        cost = discrete_cost(problem, grid, report.final)
        costs.append(cost)
        result.checks.append(GoldenCheck(
            name=f"cost_{variant}", value=2.0 * cost, expected=expected,
            rtol=0.1, note="unhalved quadratic form at the critical point"))
        result.artifacts.append(_history_artifact(f"history_{variant}", report))
    result.checks.append(GoldenCheck(
        name="minima_distinct",
        value=float(abs(costs[0] - costs[1]) > 0.5 * abs(costs[1])),
        expected=1.0, atol=0.0, note="the two variants reach distinct minima"))
    result.params["costs"] = tuple(costs)
    return result


# ---------------------------------------------------------------------------
# heat equation runs
# ---------------------------------------------------------------------------

def heat_run(delta_t: float = 1e-7, r: float = 1e-1, alpha: float = 1e-4,
             L: int = 10, n: int = 50, T: float = 1e-2,
             control_support=(1.0 / 3.0, 2.0 / 3.0),
             workers: Optional[int] = None,
             outer_tol: float = 1e-11) -> ExperimentResult:
    """Periodic heat control run plus per-mode predicted contraction bounds.

    The per-mode table applies the scalar analysis to every eigenvalue of
    the diffusion matrix; it predicts the contraction exactly when the
    control acts everywhere (B = I) and is emitted with ``modes_valid``
    False otherwise.
    """
    if L < 1:
        raise InvalidParameterError("need at least one sub-interval")
    if not delta_t > 0:
        raise InvalidParameterError(f"delta_t must be positive, got {delta_t}")
    N_int = step_count(T / L / delta_t, "fine steps per window T/L/delta_t")
    mc_int = step_count(N_int * r, f"coarse steps per window at r={r}")
    problem = make_heat_1d(n=n, control_support=control_support, alpha=alpha)
    grid = make_grid(T, L, N_int, mc_int)
    options = ParaoptOptions(outer_tol=outer_tol, workers=workers,
                             inner_solver="krylov", inner_tol=1e-12)
    reference = reference_solve(problem, grid, options)
    report = paraopt_solve(problem, grid, options, reference=reference)

    lo, hi = control_support
    modes_valid = lo <= 0.0 and hi >= 1.0 - 1.0 / n
    eigs = np.linalg.eigvalsh(problem.linear_matrix)
    mode_rows = []
    worst = 0.0
    for k, sig in enumerate(np.sort(eigs)):
        if sig >= -1e-9:   # neutral mode: both grids agree exactly
            mode_rows.append((k, float(sig), 0.0))
            continue
        s = la.spectral_summary(la.DahlquistSetup(float(sig), alpha, grid))
        worst = max(worst, s.rho_bound)
        mode_rows.append((k, float(sig), s.rho_bound))

    result = ExperimentResult(
        f"heat_dt{delta_t:g}_r{r:g}",
        params=dict(T=T, L=L, n=n, alpha=alpha, delta_t=delta_t, r=r,
                    fine_steps=N_int, coarse_steps=mc_int,
                    modes_valid=modes_valid, max_mode_bound=worst,
                    outer_iterations=report.iterations,
                    converged=report.converged))
    result.artifacts.append(_history_artifact("history", report))
    result.artifacts.append(Artifact("mode_bounds",
                                     ["mode", "sigma", "rho_bound"],
                                     mode_rows))
    if not report.converged:
        raise NoConvergenceError("heat run did not converge", report=report)
    return result


# ---------------------------------------------------------------------------
# invariant suites (shared by the acceptance tests and the `check` command)
# ---------------------------------------------------------------------------

def appendix_grid(num_k: int = 100, num_x: int = 100) -> ExperimentResult:
    """Evaluate the two scalar inequalities on a log-spaced (k, x) grid."""
    ks = np.logspace(-2, np.log10(50.0), num_k)
    violations1 = violations2 = 0
    total = 0
    for k in ks:
        for x in np.logspace(-6, 0, num_x) * k:   # (0, k]
            ok1, ok2 = la.check_appendix_inequalities(float(k), float(x))
            violations1 += not ok1
            violations2 += not ok2
            total += 1
    result = ExperimentResult("appendix_grid",
                              params=dict(num_k=num_k, num_x=num_x,
                                          points=total))
    result.checks.append(GoldenCheck("power_inequality_violations",
                                     violations1, 0.0, atol=0.0))
    result.checks.append(GoldenCheck("log_inequality_violations",
                                     violations2, 0.0, atol=0.0))
    return result


def bound_suite(num_samples: int = 500, seed: int = 20240817,
                max_subintervals: int = 12) -> ExperimentResult:
    """Randomized sweep of admissible setups against every proved bound.

    Per sample: the sign conditions of the coefficients, C < 1, spectral
    radius <= its bound, the two coefficient estimates, the grid-only global
    bound, and contraction (rho < 1) whenever alpha > 0.4544 * coarse_step.
    """
    if num_samples < 1:
        raise InvalidParameterError(
            f"need at least one sample, got {num_samples}")
    rng = np.random.default_rng(seed)
    names = ["sign_conditions", "C_below_one", "rho_le_bound",
             "dgamma_ratio_estimate", "dbeta_ratio_estimate",
             "rho_le_global_bound", "contraction_when_alpha_large"]
    violations = dict.fromkeys(names, 0)
    slack = 1e-9
    rows = []
    for _ in range(num_samples):
        sigma = -(10.0 ** rng.uniform(-3, 3))
        alpha = 10.0 ** rng.uniform(-4, 3)
        T = 10.0 ** rng.uniform(-2, 2)
        L = int(rng.integers(1, max_subintervals + 1))
        cps = int(rng.integers(1, 51))
        fpc = int(rng.integers(2, 101))
        grid = make_grid(T, L, cps * fpc, cps)
        setup = la.DahlquistSetup(sigma, alpha, grid)
        s = la.spectral_summary(setup)
        rho = la.spectral_radius(setup)
        # strictness of delta_beta < beta is unobservable once the fine
        # coefficient underflows below one ulp of the coarse one
        strict_db = (s.delta_beta < s.beta_coarse
                     or s.beta_fine <= 1e-15 * s.beta_coarse)
        checks = {
            "sign_conditions": (0.0 < s.beta_coarse < 1.0
                                and 0.0 < s.delta_beta <= s.beta_coarse
                                and strict_db
                                and s.gamma_coarse > 0.0
                                and s.delta_gamma < 0.0),
            "C_below_one": 0.0 < s.C < 1.0,
            "rho_le_bound": rho <= s.rho_bound * (1 + slack) + 1e-14,
            "dgamma_ratio_estimate":
                abs(s.delta_gamma) / s.gamma_coarse
                <= 1.58 * abs(sigma) * (grid.coarse_step - grid.fine_step)
                * (1 + slack) + 1e-16,
            "dbeta_ratio_estimate":
                s.delta_beta / (1.0 - s.beta_coarse) <= 0.3 * (1 + slack),
            "rho_le_global_bound": rho <= s.global_bound * (1 + slack),
            "contraction_when_alpha_large":
                (alpha <= 0.4544 * grid.coarse_step) or rho < 1.0,
        }
        for name, ok in checks.items():
            violations[name] += not ok
        rows.append((sigma, alpha, T, L, cps, fpc, rho, s.rho_bound,
                     s.global_bound))
    result = ExperimentResult("bound_suite",
                              params=dict(num_samples=num_samples, seed=seed))
    result.artifacts.append(Artifact(
        "bound_suite",
        ["sigma", "alpha", "T", "L", "coarse_per_sub", "fine_per_coarse",
         "rho", "rho_bound", "global_bound"], rows))
    for name in names:
        result.checks.append(GoldenCheck(f"{name}_violations",
                                         violations[name], 0.0, atol=0.0))
    return result


def oracle_equivalence(Ls: Sequence[int] = (1, 2, 3, 5, 10, 30),
                       sigmas: Sequence[float] = tuple(TABLE31_GOLDEN),
                       alpha: float = 1.0,
                       match_tol: float = 1e-8) -> ExperimentResult:
    """Dense eigensolve vs characteristic-polynomial roots, plus disc counts.

    For each case the eigenvalue multiset must equal {0, 0} plus the
    polynomial roots within ``match_tol`` (optimal matching), at most one
    eigenvalue may leave the cluster disc, and the isolated eigenvalue must
    exist exactly when L exceeds alpha * L0 (checked from both sides of the
    threshold by scaling alpha).
    """
    from scipy.optimize import linear_sum_assignment

    if not Ls:
        raise InvalidParameterError("need at least one window count L")
    cfg = TABLE31_GRID
    mismatch = disc_violations = threshold_violations = 0
    worst_match = 0.0
    rows = []

    def outside_count(setup, summary):
        ev = la.iteration_spectrum(setup)
        dist = np.abs(ev - summary.disc_center) - summary.disc_radius
        return int(np.sum(dist > 1e-10)), ev

    for L in Ls:
        T = cfg["T"] * L / cfg["L"]   # keep the window length fixed
        grid = make_grid(T, L, cfg["coarse_per_sub"] * cfg["fine_per_coarse"],
                         cfg["coarse_per_sub"])
        for sigma in sigmas:
            setup = la.DahlquistSetup(float(sigma), alpha, grid)
            summary = la.spectral_summary(setup)
            count, ev = outside_count(setup, summary)
            roots = la.charpoly_roots(setup)
            allv = np.concatenate([roots, [0.0, 0.0]])
            D = np.abs(ev[:, None] - allv[None, :])
            ri, ci = linear_sum_assignment(D)
            gap = float(D[ri, ci].max())
            worst_match = max(worst_match, gap)
            mismatch += gap > match_tol
            disc_violations += count > 1
            threshold_violations += (count >= 1) != summary.exists_isolated
            rows.append((L, sigma, alpha, gap, count,
                         int(summary.exists_isolated)))
            # both sides of the isolated-eigenvalue threshold L = alpha*L0
            if np.isfinite(summary.L0) and summary.L0 > 0:
                for factor, expect in ((0.5, True), (2.0, False)):
                    a2 = factor * L / summary.L0
                    if not (1e-300 < a2 < 1e300):
                        continue
                    setup2 = la.DahlquistSetup(float(sigma), a2, grid)
                    summary2 = la.spectral_summary(setup2)
                    threshold_violations += summary2.exists_isolated != expect
                    if expect and abs(summary2.mu_star_bound) \
                            <= summary2.disc_reach + 1e-8:
                        # eigenvalue provably closer to the disc than the
                        # membership tolerance can resolve: formula only
                        continue
                    count2, _ = outside_count(setup2, summary2)
                    threshold_violations += (count2 >= 1) != expect

    result = ExperimentResult(
        "oracle_equivalence",
        params=dict(Ls=tuple(Ls), alpha=alpha, worst_match=worst_match))
    result.artifacts.append(Artifact(
        "oracle_equivalence",
        ["L", "sigma", "alpha", "match_gap", "outside_count",
         "exists_isolated"], rows))
    result.checks.append(GoldenCheck("eigenvalue_root_mismatches", mismatch,
                                     0.0, atol=0.0))
    result.checks.append(GoldenCheck("disc_count_violations", disc_violations,
                                     0.0, atol=0.0))
    result.checks.append(GoldenCheck("threshold_violations",
                                     threshold_violations, 0.0, atol=0.0))
    return result


# ---------------------------------------------------------------------------
# timing / determinism
# ---------------------------------------------------------------------------

TABLE2_SPEEDUPS = {3: 4.52, 6: 9.47, 12: 17.95, 24: 30.20}  # context only


def timing_run(preset: str = "lotka_volterra",
               worker_counts: Sequence[int] = (1, 4),
               fine_total: int = 24_000) -> ExperimentResult:
    """Repeat one solve over worker counts; results must agree bitwise.

    Wall times and speedups are reported, never asserted (they are
    machine-dependent); bitwise agreement of the numerical output across
    worker counts is the contract under test.  An untimed solve and an
    untimed ``reference_solve`` run first, so that no timed call pays what
    a process does once: building the linear operator sets, binding LAPACK.
    The serial baseline is a timed ``reference_solve`` on the same grid
    (param ``reference_seconds``); ``speedup_vs_serial`` divides it by each
    solve's time.
    """
    if preset == "lotka_volterra":
        problem = make_lotka_volterra(alpha=5e-2)
        grid = _lv_grid(1.0 / 3.0, 12, 1e-3, fine_total)
    elif preset == "heat":
        problem = make_heat_1d()
        grid = make_grid(1e-2, 10, 100, 10)
    elif preset == "dahlquist":
        problem = make_dahlquist(-16.0, 1.0)
        grid = make_grid(1.0, 10, 400, 4)
    else:
        raise InvalidParameterError(f"unknown preset {preset!r}")
    direct = ParaoptOptions(workers=1, inner_solver="assembled_direct")
    paraopt_solve(problem, grid, direct)
    reference_solve(problem, grid, direct)
    t0 = time.perf_counter()
    reference_solve(problem, grid, direct)
    serial = time.perf_counter() - t0
    rows = []
    signatures = set()
    for w in worker_counts:
        t0 = time.perf_counter()
        report = paraopt_solve(problem, grid, replace(direct, workers=int(w)))
        elapsed = time.perf_counter() - t0
        signatures.add((report.final.to_stacked().tobytes(),
                        report.residuals.tobytes()))
        base_time = rows[0][1] if rows else elapsed
        rows.append((int(w), elapsed, base_time / elapsed,
                     int(report.iterations), serial / elapsed))
    result = ExperimentResult(
        f"timing_{preset}",
        params=dict(preset=preset, worker_counts=tuple(int(w) for w in worker_counts),
                    reference_speedups=TABLE2_SPEEDUPS,
                    reference_seconds=serial))
    result.artifacts.append(Artifact(
        "timing", ["workers", "wall_seconds", "speedup", "outer_iterations",
                   "speedup_vs_serial"],
        rows))
    result.checks.append(GoldenCheck(
        name="bitwise_identical_across_workers",
        value=float(len(signatures) <= 1),
        expected=1.0, atol=0.0))
    return result
