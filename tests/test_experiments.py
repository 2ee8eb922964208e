import numpy as np
import pytest

from paraopt import (InvalidParameterError, default_initial_guess,
                     fine_propagate, make_grid, make_heat_1d,
                     make_lotka_volterra, propagators)
from paraopt import experiments as ex


def test_table31_all_entries_match():
    result = ex.table31()
    assert result.passed
    assert len(result.checks) == 36
    # the bulk of the table agrees at 1e-3 relative; entries printed with
    # fewer digits only need their print-rounding allowance
    strict = sum(abs(c.value - c.expected) <= 1e-3 * abs(c.expected)
                 for c in result.checks)
    assert strict >= 24
    art = result.artifact("table31")
    assert len(art.rows) == 6
    assert art.columns[0] == "sigma"


def _sweep_grid(mode, key):
    """(L, sub_length, coarse_dt, fine_dt) of one point, as the
    ``scalar_sweeps`` docstring states them."""
    if mode == "vary_fine":
        return 10, 1.0 / 10, 1e-4, 1e-4 / 2.0 ** key
    if mode == "vary_coarse":
        return 10, 1.0 / 10, 2.0 ** -key, 1e-2 * 2.0 ** -20
    if mode == "fixed_ratio":
        return 10, 1.0 / 10, 2.0 ** -key, 1e-2 * 2.0 ** -key
    T = 1.0 if mode == "scal_fixed_T" else float(key)
    return key, T / key, T / key, T / key / 1e4


_SWEEP_KEYS = {"vary_fine": range(1, 16), "vary_coarse": range(0, 21),
               "fixed_ratio": range(1, 16),
               "scal_fixed_T": [2 ** j for j in range(9)],
               "scal_fixed_DT": [2 ** j for j in range(9)]}


@pytest.mark.parametrize("mode", ex.SWEEP_MODES)
def test_sweeps_complete_sorted_and_bounded(mode):
    result = ex.scalar_sweeps(mode)
    rows = result.artifact(f"sweep_{mode}").rows
    keys = [row[0] for row in rows]
    assert keys == sorted(keys) == list(_SWEEP_KEYS[mode])
    for row in rows:
        assert len(row) == len(result.artifact(f"sweep_{mode}").columns)
        assert all(np.isfinite(v) for v in row)
        # L, sub_length, coarse_dt and fine_dt, bit for bit
        assert row[3:7] == _sweep_grid(mode, row[0])
        rho, rho_bound = row[7], row[8]
        assert rho <= rho_bound * (1 + 1e-9) + 1e-12


def test_sweep_scalability_bounded_in_L():
    rows = ex.scalar_sweeps("scal_fixed_T").artifact("sweep_scal_fixed_T").rows
    rhos = [row[7] for row in rows]
    bound = rows[0][9]
    assert max(rhos) <= bound
    rows = ex.scalar_sweeps("scal_fixed_DT").artifact("sweep_scal_fixed_DT").rows
    assert max(row[7] for row in rows) <= rows[0][9]


def test_sweep_vary_fine_approaches_limit_monotonically():
    from paraopt import linear_analysis as la

    rows = ex.scalar_sweeps("vary_fine").artifact("sweep_vary_fine").rows
    rho_limit, _ = la.analysis_point(-16.0, 1.0, 10, 0.1, 1e-4,
                                     1e-4 / 2 ** 20)
    gaps = [abs(row[7] - rho_limit) for row in rows]
    assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    assert gaps[-1] <= 1e-2 * gaps[0]


def test_sweep_rejects_unknown_mode():
    with pytest.raises(InvalidParameterError):
        ex.scalar_sweeps("bogus")


def test_fit_decay_exponent_detects_orders():
    quad = [1e-1]
    for _ in range(5):
        quad.append(quad[-1] ** 2)
    assert abs(ex.fit_decay_exponent(quad) - 2.0) <= 0.05
    lin = [0.5 * 0.07 ** k for k in range(8)]
    assert abs(ex.fit_decay_exponent(lin) - 1.0) <= 0.05
    with pytest.raises(InvalidParameterError):
        ex.fit_decay_exponent([1.0, 0.5])


def test_lv_grid_rejects_inexpressible_ratio():
    with pytest.raises(InvalidParameterError):
        ex._lv_grid(1.0 / 3.0, 24, 1e-4, 120_000)   # half a coarse step
    with pytest.raises(InvalidParameterError):
        ex._lv_grid(1.0 / 3.0, 7, 1e-4, 120_000)    # L does not divide


def test_lotka_volterra_run_small_grid():
    result = ex.lotka_volterra_run(L=3, r=1e-3, fine_total=12_000,
                                   outer_tol=1e-11)
    assert result.params["converged"]
    rows = result.artifact("history").rows
    assert [r[0] for r in rows] == list(range(len(rows)))
    assert rows[-1][1] <= 1e-11
    # error against the converged fine reference decays
    errs = [r[2] for r in rows]
    assert errs[-1] <= 1e-6 * errs[0]


def test_heat_run_small_grid():
    result = ex.heat_run(delta_t=1e-5, r=1e-1, L=10, n=20, outer_tol=1e-10)
    assert result.params["converged"]
    assert not result.params["modes_valid"]     # indicator control operator
    modes = result.artifact("mode_bounds").rows
    assert len(modes) == 20
    assert all(row[2] >= 0.0 for row in modes)
    # Krylov iterations per outer step, as the paper's heat runs report
    # them.  Rows 1-5 do not move under round-off.  From row 6 on, each
    # GMRES run ends on a plateau where the relative residual falls by
    # under 10% per step near inner_tol = 1e-12, so a change in the order
    # of the inner solve's floating-point operations moves those rows by a
    # few iterations; such a change has to say so.
    inner = [row[3] for row in result.artifact("history").rows]
    assert inner == [0, 87, 92, 90, 89, 89, 92, 98, 102, 104]
    # observed late contraction should respect the worst per-mode bound when
    # the control acts everywhere
    full = ex.heat_run(delta_t=1e-5, r=1e-1, L=10, n=20, outer_tol=1e-10,
                       control_support=(0.0, 1.0))
    assert full.params["modes_valid"]
    hist = full.artifact("history").rows
    errs = np.array([row[2] for row in hist])
    good = errs > 1e3 * errs.min()
    ratios = [errs[k + 1] / errs[k] for k in range(1, len(errs) - 1)
              if good[k] and good[k + 1]]
    if ratios:
        assert max(ratios) <= full.params["max_mode_bound"] * 1.05 + 1e-12


def test_timing_run_bitwise_identical():
    result = ex.timing_run("dahlquist", worker_counts=(1, 4, 10))
    assert result.passed
    rows = result.artifact("timing").rows
    assert [row[0] for row in rows] == [1, 4, 10]
    assert rows[0][2] == 1.0   # speedup of the baseline worker count
    assert result.artifact("timing").columns[-1] == "speedup_vs_serial"
    serial = result.params["reference_seconds"]
    assert serial > 0
    assert [row[4] for row in rows] == [serial / row[1] for row in rows]


def test_timing_run_needs_a_worker_count():
    with pytest.raises(InvalidParameterError, match="at least one worker"):
        ex.timing_run("dahlquist", worker_counts=())


def test_timing_run_times_warm_solves(monkeypatch):
    # a process builds its linear operator sets once; an untimed warm-up
    # solve must pay for that, not the first timed one
    fresh = propagators._OperatorCache(maxsize=64)
    monkeypatch.setattr(propagators, "_linear_ops", fresh)
    solve, built = ex.paraopt_solve, []

    def counted(*args, **kwargs):
        before = fresh.cache_info().misses
        report = solve(*args, **kwargs)
        built.append(fresh.cache_info().misses - before)
        return report

    monkeypatch.setattr(ex, "paraopt_solve", counted)
    ex.timing_run("dahlquist", worker_counts=(1, 1))
    assert built[0] > 0                 # the untimed warm-up
    assert built[1:] == [0, 0]


def test_invariant_suites_small():
    assert ex.appendix_grid(25, 25).passed
    assert ex.bound_suite(120, seed=7).passed
    assert ex.oracle_equivalence(Ls=(1, 2, 4)).passed
    with pytest.raises(InvalidParameterError, match="at least one sample"):
        ex.bound_suite(0)
    with pytest.raises(InvalidParameterError, match="at least one window"):
        ex.oracle_equivalence(Ls=())


def _per_step_cost(problem, grid, X):
    """The discrete objective with one control evaluation per fine step."""
    tau = grid.fine_step
    B = problem.control_operator
    total = 0.0
    for ell in range(1, grid.num_subintervals + 1):
        _, _, traj = fine_propagate(problem, grid, ell, X.states[ell - 1],
                                    X.adjoints[ell - 1])
        controls = []
        for lam in traj.adjoints[1:]:
            w = lam
            if problem.is_linear:      # c = -B^T (I - tau A)^{-T} lam / alpha
                w = propagators._linear_ops(problem, tau, 1).ST @ lam
            controls.append(-(w if B is None else B.T @ w) / problem.alpha)
        c = np.stack(controls)
        total += tau * float(np.sum(c * c))
        yT = traj.states[-1]
    misfit = yT - problem.y_target
    return 0.5 * float(misfit @ misfit) + 0.5 * problem.alpha * total


def test_discrete_cost_matches_per_step_controls_nonlinear():
    p = make_lotka_volterra(alpha=5e-2)
    g = make_grid(1.0 / 3.0, 3, 200, 20)
    X = default_initial_guess(p, g)
    assert ex.discrete_cost(p, g, X) == _per_step_cost(p, g, X)


def test_discrete_cost_matches_per_step_controls_linear():
    # the controls of a window are one product of its adjoint rows with S
    # and then B, so they round apart from the per-step products
    p = make_heat_1d(n=12)
    assert p.control_operator is not None
    g = make_grid(1e-2, 3, 40, 8)
    X = default_initial_guess(p, g)
    expected = _per_step_cost(p, g, X)
    assert abs(ex.discrete_cost(p, g, X) - expected) <= 1e-14 * expected
