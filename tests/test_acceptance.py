"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (on the real stdout, visible under
pytest capture).  The predator-prey criteria run on the full study grid, so
this module takes several minutes; everything else is seconds.
"""

import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from paraopt import (ParaoptOptions, make_dahlquist, make_grid, make_heat_1d,
                     paraopt_solve)
from paraopt import experiments as ex
from paraopt import linear_analysis as la


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}", file=sys.__stdout__, flush=True)
        raise
    print(f"[PASS] {name}", file=sys.__stdout__, flush=True)


def test_table31_reproduction():
    with criterion("Table 3.1 reproduction (golden values, < 1 s)"):
        t0 = time.perf_counter()
        result = ex.table31()
        elapsed = time.perf_counter() - t0
        failures = [c for c in result.checks if not c.passed]
        assert not failures, failures
        strict = sum(abs(c.value - c.expected) <= 1e-3 * abs(c.expected)
                     for c in result.checks)
        assert strict >= 24
        assert elapsed < 1.0


def test_large_alpha_isolated_bound_text_value():
    with criterion("sigma=-16, alpha=1000 isolated-eigenvalue bound"):
        grid = make_grid(100.0, 30, 5000, 50)
        s = la.spectral_summary(la.DahlquistSetup(-16.0, 1000.0, grid))
        assert abs(s.mu_star_bound - (-1.07e-5)) <= 1e-2 * 1.07e-5


def test_oracle_equivalence_full():
    with criterion("spectrum oracle equivalence, disc and threshold counts"):
        result = ex.oracle_equivalence(Ls=(1, 2, 3, 5, 10, 30))
        failures = [c for c in result.checks if not c.passed]
        assert not failures, failures
        assert result.params["worst_match"] <= 1e-8


def test_bound_suite_500():
    with criterion("randomized bound suite (>= 500 tuples, < 1 min)"):
        t0 = time.perf_counter()
        result = ex.bound_suite(500)
        elapsed = time.perf_counter() - t0
        failures = [c for c in result.checks if not c.passed]
        assert not failures, failures
        assert elapsed < 60.0


def _sample_measurable_setups(count=10):
    """Setups with 0.01 < rho < 0.9 whose leading eigenvalue is isolated
    enough for the contraction to be measurable in double precision."""
    rng = np.random.default_rng(42)
    out = []
    while len(out) < count:
        sigma = -(10.0 ** rng.uniform(-2, 1.5))
        alpha = 10.0 ** rng.uniform(-4, 0)
        L = int(rng.integers(2, 13))
        cps = int(rng.integers(1, 31))
        fpc = int(rng.integers(2, 81))
        grid = make_grid(10.0 ** rng.uniform(-1, 1.5), L, cps * fpc, cps)
        setup = la.DahlquistSetup(sigma, alpha, grid)
        mags = np.sort(np.abs(la.charpoly_roots(setup)))[::-1]
        rho = mags[0]
        if not (0.01 < rho < 0.9):
            continue
        if len(mags) > 1 and mags[1] * 1.3 > rho:
            continue
        out.append((setup, rho))
    return out


def test_iteration_contraction_matches_spectrum():
    with criterion("stationary iteration contraction vs spectral radius"):
        for setup, rho in _sample_measurable_setups(10):
            # start on the slowest mode so the tail window is asymptotic
            # even for small rho (double precision affords ~13 decades)
            A_f, rhs = la.assemble_system(setup, "fine")
            A_c, _ = la.assemble_system(setup, "coarse")
            M = np.eye(len(rhs)) - np.linalg.solve(A_c, A_f)
            v = np.cos(np.arange(len(rhs)) + 0.5)
            for _ in range(50):
                v = M @ v
                v /= np.linalg.norm(v)
            x0 = np.linalg.solve(A_f, rhs) + v
            run = la.linear_iterate(setup, x0=x0, max_iters=500, tol=1e-12)
            assert abs(run.contraction - rho) <= 0.1 * rho, (setup, rho)


def test_exact_jacobian_single_outer_iteration():
    with criterion("matching grids: one outer iteration on linear presets"):
        cases = [
            (make_dahlquist(-16.0, 1.0), make_grid(1.0, 10, 40, 40)),
            (make_dahlquist(-0.5, 1.0), make_grid(2.0, 4, 25, 25)),
            (make_heat_1d(), make_grid(1e-2, 10, 100, 100)),
        ]
        for problem, grid in cases:
            for inner in ("assembled_direct", "krylov"):
                options = ParaoptOptions(outer_tol=1e-10, inner_solver=inner,
                                         inner_tol=1e-13)
                report = paraopt_solve(problem, grid, options)
                assert report.converged and report.iterations == 1
                assert report.final_residual <= 1e-10


# -- predator-prey criteria (full study grid; the slow part) -----------------

LV_FULL = ex.LV_DEFAULT_FINE_TOTAL


@pytest.fixture(scope="module")
def lv_quadratic_run():
    return ex.lotka_volterra_run(T=1.0 / 3.0, alpha=5e-2, L=10, r=1.0,
                                 fine_total=LV_FULL, outer_tol=1e-13)


@pytest.mark.slow
def test_lotka_volterra_quadratic_decay(lv_quadratic_run):
    with criterion("predator-prey r=1: quadratic error decay"):
        errors = [row[2] for row in lv_quadratic_run.artifact("history").rows]
        exponent = ex.fit_decay_exponent(errors)
        assert exponent >= 1.8, exponent


@pytest.mark.slow
def test_lotka_volterra_iteration_counts():
    with criterion("predator-prey r=1e-4: tolerance 1e-13 and iteration "
                   "counts within +-3 of (10, 9, 9, 9)"):
        for L, expected in ex.LV_TABLE_COUNTS.items():
            # the counts and residuals need no reference solve
            result = ex.lotka_volterra_run(T=1.0 / 3.0, alpha=5e-2, L=L,
                                           r=1e-4, fine_total=LV_FULL,
                                           outer_tol=1e-13,
                                           with_reference=False)
            rows = result.artifact("history").rows
            assert rows[-1][1] <= 1e-13          # residual criterion
            count = result.params["outer_iterations"]
            assert abs(count - expected) <= 3, (L, count)


@pytest.mark.slow
def test_lotka_volterra_two_minima():
    with criterion("predator-prey long horizon: two distinct minima, "
                   "objective values within 10%"):
        result = ex.lotka_volterra_minima(T=1.0, L=10, fine_total=120_000)
        failures = [c for c in result.checks if not c.passed]
        assert not failures, failures


def test_heat_convergence_and_equal_coarse_step_histories():
    with criterion("heat runs converge; equal coarse-step histories agree "
                   "within one iteration"):
        counts = {}
        for dt, r in ((1e-7, 1e-1), (1e-7, 1e-2), (1e-9, 1e-3), (1e-9, 1e-4)):
            result = ex.heat_run(delta_t=dt, r=r, outer_tol=1e-11)
            assert result.params["converged"]
            counts[(dt, r)] = result.params["outer_iterations"]
        assert abs(counts[(1e-7, 1e-1)] - counts[(1e-9, 1e-3)]) <= 1
        assert abs(counts[(1e-7, 1e-2)] - counts[(1e-9, 1e-4)]) <= 1


def test_appendix_inequalities_grid():
    with criterion("scalar inequalities on the 100 x 100 grid"):
        result = ex.appendix_grid(100, 100)
        failures = [c for c in result.checks if not c.passed]
        assert not failures, failures


def test_determinism_across_worker_counts():
    with criterion("bitwise identical results for worker counts {1, 4, L}"):
        lv = ex.timing_run("lotka_volterra", worker_counts=(1, 4, 12))
        assert lv.passed
        heat = ex.timing_run("heat", worker_counts=(1, 4, 10))
        assert heat.passed
