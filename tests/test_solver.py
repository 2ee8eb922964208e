import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraopt import (InterfaceVector, InvalidParameterError,
                     NewtonDivergenceError, NoConvergenceError, ParaoptOptions,
                     SingularStepError, apply_approx_jacobian,
                     coarse_linearize, default_initial_guess, fine_propagate,
                     make_dahlquist, make_grid, make_heat_1d,
                     make_lotka_volterra, paraopt_solve, reference_solve,
                     residual, solve_jacobian_system)
from paraopt import linear_analysis as la
from paraopt import solver
from paraopt.propagators import window_recurrence_residual
from paraopt.solver import gmres, verify_residual


def dahlquist_setup(sigma=-1.0, alpha=1.0, T=2.0, L=2, fine=4, coarse=2,
                    y_init=1.0, y_target=0.0):
    p = make_dahlquist(sigma, alpha, y_init, y_target)
    g = make_grid(T, L, fine, coarse)
    return p, g


def interface_from_dense(setup, grid):
    A, rhs = la.assemble_system(setup, "fine")
    x = np.linalg.solve(A, rhs)
    return InterfaceVector.from_stacked(x, grid.num_subintervals, 1)


# -- residual ----------------------------------------------------------------

def test_residual_at_exact_solution_is_small():
    p, g = dahlquist_setup(sigma=-0.8, T=3.0, L=3, fine=12, coarse=4)
    setup = la.DahlquistSetup(-0.8, 1.0, g)
    X = interface_from_dense(setup, g)
    F, trajs = residual(p, g, X)
    assert np.abs(F).max() <= 1e-11
    assert len(trajs) == 3


def test_residual_single_interval_structure():
    p, g = dahlquist_setup(L=1, T=1.0, fine=1, coarse=1)
    from paraopt import fine_propagate

    X = InterfaceVector(np.array([[0.7], [0.2]]), np.array([[0.4]]))
    F, _ = residual(p, g, X)
    P, Q, _ = fine_propagate(p, g, 1, [0.7], [0.4])
    assert np.allclose(F, [0.7 - 1.0, 0.2 - P[0], 0.4 - 0.2 + 0.0])


def test_residual_zero_guess_example():
    # two windows, single unit steps: F = (-1, 0, 0, 0, 0) at X = 0
    p, g = dahlquist_setup()
    X = InterfaceVector(np.zeros((3, 1)), np.zeros((2, 1)))
    F, _ = residual(p, g, X)
    assert np.allclose(F, [-1.0, 0.0, 0.0, 0.0, 0.0])


def test_residual_rejects_mismatched_vector():
    p, g = dahlquist_setup()
    with pytest.raises(InvalidParameterError):
        residual(p, g, InterfaceVector(np.zeros((4, 1)), np.zeros((3, 1))))


# -- approximate Jacobian application ----------------------------------------

def make_linearizations(p, g, X):
    return [coarse_linearize(p, g, ell, X.states[ell - 1],
                             X.adjoints[ell - 1])
            for ell in range(1, g.num_subintervals + 1)]


def test_apply_jacobian_zero_vector():
    p, g = dahlquist_setup()
    lins = make_linearizations(p, g, default_initial_guess(p, g))
    out = apply_approx_jacobian(lins, np.zeros(5))
    assert np.all(out == 0.0)


def test_apply_jacobian_exact_for_matching_grids():
    # finite-difference cross-check of the residual map, linear problem
    p, g = dahlquist_setup(sigma=-0.6, T=2.0, L=2, fine=6, coarse=6)
    X = default_initial_guess(p, g)
    lins = make_linearizations(p, g, X)
    rng = np.random.default_rng(2)
    dX = rng.standard_normal(5)
    eps = 1e-6
    F0, _ = residual(p, g, X)
    X1 = InterfaceVector.from_stacked(X.to_stacked() + eps * dX, 2, 1)
    F1, _ = residual(p, g, X1)
    fd = (F1 - F0) / eps
    assert np.allclose(apply_approx_jacobian(lins, dX), fd, atol=1e-6)


def test_apply_jacobian_assembles_to_coarse_interface_matrix():
    p, g = dahlquist_setup(sigma=-1.0, alpha=1.0, T=2.0, L=2, fine=4, coarse=2)
    setup = la.DahlquistSetup(-1.0, 1.0, g)
    A_coarse, _ = la.assemble_system(setup, "coarse")
    lins = make_linearizations(
        p, g, InterfaceVector(np.zeros((3, 1)), np.zeros((2, 1))))
    J = np.column_stack([apply_approx_jacobian(lins, col)
                         for col in np.eye(5).T])
    assert np.abs(J - A_coarse).max() <= 1e-12


# -- inner solves ------------------------------------------------------------

def test_gmres_solves_small_system():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 12)) + 6 * np.eye(12)
    b = rng.standard_normal(12)
    x, iters, relres, ok = gmres(lambda v: A @ v, b, 1e-12, 12)
    assert ok and relres <= 1e-12
    assert np.allclose(A @ x, b, atol=1e-10)
    x0, it0, _, ok0 = gmres(lambda v: A @ v, np.zeros(12), 1e-12, 12)
    assert ok0 and it0 == 0 and np.all(x0 == 0.0)


def test_solve_jacobian_system_zero_rhs():
    p, g = dahlquist_setup()
    lins = make_linearizations(p, g, default_initial_guess(p, g))
    dX, stats = solve_jacobian_system(lins, np.zeros(5), ParaoptOptions())
    assert np.all(dX == 0.0) and stats.converged


@pytest.mark.parametrize("L,fine,coarse", [(1, 4, 2), (3, 8, 2), (5, 6, 3)])
def test_krylov_and_direct_agree(L, fine, coarse):
    p, g = dahlquist_setup(sigma=-1.2, T=float(L), L=L, fine=fine,
                           coarse=coarse)
    X = default_initial_guess(p, g)
    lins = make_linearizations(p, g, X)
    rhs = np.cos(np.arange(2 * L + 1) * 0.7)
    direct, _ = solve_jacobian_system(
        lins, rhs, ParaoptOptions(inner_solver="assembled_direct"))
    krylov, stats = solve_jacobian_system(
        lins, rhs, ParaoptOptions(inner_solver="krylov", inner_tol=1e-12))
    assert stats.converged
    scale = np.abs(direct).max()
    assert np.abs(direct - krylov).max() <= 1e-8 * scale


def test_krylov_stagnation_flagged_not_raised():
    p, g = dahlquist_setup(sigma=-1.2, T=3.0, L=3, fine=8, coarse=2)
    lins = make_linearizations(p, g, default_initial_guess(p, g))
    rhs = np.ones(7)
    dX, stats = solve_jacobian_system(
        lins, rhs, ParaoptOptions(inner_solver="krylov", inner_tol=1e-14,
                                  inner_max_iters=1))
    assert not stats.converged
    assert stats.iterations == 1
    assert np.all(np.isfinite(dX))   # best iterate still returned


def test_krylov_and_direct_agree_nonlinear_blocks():
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 4, 60, 6)
    X = default_initial_guess(p, g)
    lins = make_linearizations(p, g, X)
    rhs = np.sin(np.arange(2 * (2 * 4 + 1)) * 0.3)
    direct, _ = solve_jacobian_system(
        lins, rhs, ParaoptOptions(inner_solver="assembled_direct"))
    krylov, stats = solve_jacobian_system(
        lins, rhs, ParaoptOptions(inner_solver="krylov", inner_tol=1e-12))
    assert stats.converged
    assert np.abs(direct - krylov).max() <= 1e-8 * np.abs(direct).max()


# -- initial guess -----------------------------------------------------------

def test_default_initial_guess_interpolates():
    p = make_lotka_volterra()
    g = make_grid(1.0, 10, 10, 1)
    X = default_initial_guess(p, g)
    assert np.allclose(X.states[0], p.y_init)
    assert np.allclose(X.states[10], p.y_target)
    assert np.allclose(X.states[5], [60.0, 15.0])
    assert np.all(X.adjoints == 1.0)
    Z = default_initial_guess(p, g, zero_adjoints=True)
    assert np.all(Z.adjoints == 0.0)
    assert np.allclose(Z.states, X.states)


# -- outer solver ------------------------------------------------------------

def test_linear_one_step_convergence():
    # matching grids on a linear problem: exact Newton, one outer iteration
    for inner in ("assembled_direct", "krylov"):
        p, g = dahlquist_setup(sigma=-2.0, T=2.0, L=4, fine=5, coarse=5)
        opts = ParaoptOptions(outer_tol=1e-10, inner_solver=inner,
                              inner_tol=1e-13)
        rep = paraopt_solve(p, g, opts)
        assert rep.converged and rep.iterations == 1
        assert rep.final_residual <= 1e-10


def test_linear_error_contracts_at_spectral_radius():
    sigma, alpha = -0.25, 0.05
    g = make_grid(10.0, 5, 400, 4)
    setup = la.DahlquistSetup(sigma, alpha, g)
    rho = la.spectral_radius(setup)
    assert 0.05 < rho < 0.9
    p = make_dahlquist(sigma, alpha)
    ref = interface_from_dense(setup, g)
    rep = paraopt_solve(p, g, ParaoptOptions(outer_tol=1e-12,
                                             inner_solver="assembled_direct"),
                        reference=ref)
    errors = rep.errors
    good = errors > 1e3 * errors.min()
    ratios = [errors[k + 1] / errors[k]
              for k in range(2, len(errors) - 1) if good[k] and good[k + 1]]
    contraction = np.exp(np.mean(np.log(ratios[-5:])))
    assert abs(contraction - rho) <= 0.1 * rho


def test_gauss_newton_equals_newton_on_linear():
    p, g = dahlquist_setup(sigma=-1.0, T=3.0, L=3, fine=9, coarse=3)
    rep_n = paraopt_solve(p, g, ParaoptOptions(variant="newton"))
    rep_gn = paraopt_solve(p, g, ParaoptOptions(variant="gauss_newton"))
    assert np.array_equal(rep_n.final.to_stacked(), rep_gn.final.to_stacked())
    assert np.array_equal(rep_n.residuals, rep_gn.residuals)


def test_report_invariants():
    p, g = dahlquist_setup(sigma=-1.0, T=2.0, L=2, fine=8, coarse=2)
    rep = paraopt_solve(p, g)
    assert rep.converged
    assert rep.final_residual <= ParaoptOptions().outer_tol
    assert len(rep.residuals) == rep.iterations + 1
    assert len(rep.inner_iterations) == rep.iterations
    rows = rep.history_rows()
    assert rows[0][0] == 0 and rows[-1][0] == rep.iterations


def test_divergence_guard_reports_not_converged():
    # rho > 1 regime: the stationary analysis predicts divergence and the
    # outer loop must stop on the guard instead of looping forever
    g = make_grid(20.0, 10, 100, 1)
    setup = la.DahlquistSetup(-3.0, 1e-7, g)
    assert la.spectral_radius(setup) > 1.0
    p = make_dahlquist(-3.0, 1e-7)
    rep = paraopt_solve(p, g, ParaoptOptions(max_outer=200,
                                             inner_solver="assembled_direct"))
    assert not rep.converged
    assert rep.message in ("divergence guard triggered",
                           "iteration limit reached")


def test_verify_residual_matches_solver():
    p, g = dahlquist_setup(sigma=-0.7, T=2.0, L=4, fine=16, coarse=4)
    opts = ParaoptOptions(verify_final=True)
    rep = paraopt_solve(p, g, opts)
    assert rep.converged
    assert rep.verified_residual is not None
    assert rep.verified_residual <= 10 * opts.outer_tol
    p2 = make_lotka_volterra()
    g2 = make_grid(1.0 / 3.0, 5, 120, 12)
    opts2 = ParaoptOptions(outer_tol=1e-11, verify_final=True,
                           inner_solver="assembled_direct")
    rep2 = paraopt_solve(p2, g2, opts2)
    assert rep2.converged
    assert rep2.verified_residual <= 10 * opts2.outer_tol


def test_zero_adjoint_guess_option_linear():
    p, g = dahlquist_setup(sigma=-1.0, T=2.0, L=2, fine=6, coarse=6)
    rep = paraopt_solve(p, g, ParaoptOptions(initial_guess="zeros",
                                             outer_tol=1e-10))
    assert rep.converged and rep.iterations == 1


def test_user_supplied_guess_paths():
    p, g = dahlquist_setup()
    X = default_initial_guess(p, g)
    rep = paraopt_solve(p, g, ParaoptOptions(initial_guess="user_supplied"),
                        x0=X)
    assert rep.converged
    with pytest.raises(InvalidParameterError):
        paraopt_solve(p, g, ParaoptOptions(initial_guess="user_supplied"))
    with pytest.raises(InvalidParameterError):
        paraopt_solve(p, g, x0=X)


# -- reference solve ----------------------------------------------------------

def test_reference_solve_matches_dense_elimination():
    sigma = -1.4
    g = make_grid(3.0, 3, 40, 8)
    p = make_dahlquist(sigma, 1.0, 2.0, -0.5)
    setup = la.DahlquistSetup(sigma, 1.0, g, y_init=2.0, y_target=-0.5)
    ref = reference_solve(p, g)
    expected = interface_from_dense(setup, g)
    assert ref.diff_inf(expected) <= 1e-10


def test_reference_solve_heat_single_newton():
    p = make_heat_1d(n=8)
    g = make_grid(1e-2, 5, 40, 8)
    ref = reference_solve(p, g)
    F, _ = residual(p, g, ref)
    assert np.abs(F).max() <= 1e-10
    # the linear reference is the outer iteration on the one-window grid;
    # its exact derivative blocks converge in a single step (heat_run's grid
    # and options)
    options = ParaoptOptions(outer_tol=1e-10, inner_solver="krylov",
                             inner_tol=1e-12)
    single = make_grid(1e-2, 10, 100, 10).with_single_subinterval()
    report = paraopt_solve(make_heat_1d(n=20), single, options)
    assert report.converged and report.iterations == 1


def test_single_window_lotka_volterra_long_horizon_diverges():
    # a single long window does not admit the outer iteration from the
    # default guess; the solver must report that honestly
    p = make_lotka_volterra()
    with pytest.raises(NewtonDivergenceError):
        paraopt_solve(p, make_grid(1.0, 1, 30_000, 30_000))


def test_reference_solve_lotka_volterra_long_horizon_converges():
    p = make_lotka_volterra()
    g = make_grid(1.0, 10, 3_000, 3_000)
    ref = reference_solve(p, g)
    F, _ = residual(p, g, ref)
    assert np.abs(F).max() <= g.total_fine_steps * ParaoptOptions().local_tol


def test_reference_solve_reports_newton_failure():
    p = make_lotka_volterra()
    with pytest.raises(NoConvergenceError):
        reference_solve(p, make_grid(1.0 / 3.0, 4, 100, 10),
                        ParaoptOptions(local_max_newton=1))


def test_coarse_failure_names_its_window(monkeypatch):
    def failing(problem, grid, ell, *args):
        if ell == 2:
            raise NewtonDivergenceError("coarse window failed")
        return coarse_linearize(problem, grid, ell, *args)

    monkeypatch.setattr(solver, "coarse_linearize", failing)
    p = make_lotka_volterra()
    with pytest.raises(NewtonDivergenceError) as info:
        paraopt_solve(p, make_grid(1.0 / 3.0, 3, 40, 4),
                      ParaoptOptions(workers=1))
    assert info.value.subinterval == 2


@pytest.mark.parametrize("attr", ["fine_propagate", "coarse_linearize"])
def test_singular_step_names_its_window(monkeypatch, attr):
    original = getattr(solver, attr)

    def singular(problem, grid, ell, *args, **kwargs):
        if ell == 2:
            raise SingularStepError("singular window system")
        return original(problem, grid, ell, *args, **kwargs)

    monkeypatch.setattr(solver, attr, singular)
    p = make_lotka_volterra()
    with pytest.raises(SingularStepError) as info:
        paraopt_solve(p, make_grid(1.0 / 3.0, 3, 40, 4),
                      ParaoptOptions(workers=2))
    assert info.value.subinterval == 2


@settings(derandomize=True, max_examples=60, deadline=None)
@given(y_init=st.tuples(st.floats(19.0, 21.0), st.floats(9.5, 10.5)),
       y_target=st.tuples(st.floats(95.0, 105.0), st.floats(19.0, 21.0)),
       T=st.floats(0.05, 1.0 / 3.0), L=st.integers(2, 6),
       N=st.sampled_from([60, 120, 240]), coarse=st.sampled_from([10, 4, 1]))
def test_paraopt_matches_nonlinear_reference(y_init, y_target, T, L, N,
                                             coarse):
    # oracle: the parallel solve reaches the whole-horizon discrete solution
    p = make_lotka_volterra(y_init=y_init, y_target=y_target)
    g = make_grid(T, L, N, N // coarse)
    options = ParaoptOptions(inner_solver="assembled_direct", outer_tol=1e-11)
    report = paraopt_solve(p, g, options)
    assert report.converged
    err = report.final.diff_inf(reference_solve(p, g, options))
    assert err <= L * N * options.local_tol


# -- warm-started fine windows -----------------------------------------------

LV_PRESET = dict(inner_solver="assembled_direct", outer_tol=1e-11)


def lv_preset():
    return make_lotka_volterra(), make_grid(1.0 / 3.0, 6, 50, 5)


def test_warm_started_windows_take_one_newton_step_at_the_end():
    p, g = lv_preset()
    rep = paraopt_solve(p, g, ParaoptOptions(workers=1, **LV_PRESET))
    assert rep.converged
    rows = rep.newton_iterations
    assert len(rows) == rep.iterations + 1
    assert all(len(row) == g.num_subintervals for row in rows)
    assert min(rows[0]) >= 2                   # cold start from the guess
    for row in rows[-3:]:                      # the iterates barely move
        assert row == (1,) * g.num_subintervals


def test_warm_start_within_tolerance_still_takes_one_step():
    p, g = lv_preset()
    X = default_initial_guess(p, g)
    options = ParaoptOptions(**LV_PRESET)
    P, Q, cold = fine_propagate(p, g, 2, X.states[1], X.adjoints[1],
                                options.local_tol)
    assert window_recurrence_residual(p, cold) <= options.local_tol
    P2, Q2, warm = fine_propagate(p, g, 2, X.states[1], X.adjoints[1],
                                  options.local_tol, start=cold)
    assert warm.newton_iterations == 1
    assert np.abs(P2 - P).max() <= g.fine_steps * options.local_tol
    assert np.abs(Q2 - Q).max() <= g.fine_steps * options.local_tol


def test_warm_resolves_of_a_long_window_do_not_drift():
    # each warm re-solve takes one Newton step; its round-off must not walk
    # P and Q away over a 20k-step window
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 12, 20_000, 20)
    Y, Lam = np.array([25.0, 12.0]), np.array([3.0, -1.0])
    P0, Q0, traj = fine_propagate(p, g, 5, Y, Lam)
    for _ in range(6):
        P, Q, traj = fine_propagate(p, g, 5, Y, Lam, start=traj)
        assert np.all(np.abs(P - P0) <= 4 * np.spacing(np.abs(P0)))
        assert np.all(np.abs(Q - Q0) <= 4 * np.spacing(np.abs(Q0)))


def test_warm_start_rejects_a_trajectory_of_another_grid():
    p, g = lv_preset()
    _, _, other = fine_propagate(p, make_grid(1.0 / 3.0, 6, 40, 5), 1,
                                 p.y_init, [1.0, 1.0])
    with pytest.raises(InvalidParameterError):
        fine_propagate(p, g, 1, p.y_init, [1.0, 1.0], start=other)


# -- determinism across worker counts ----------------------------------------

@pytest.mark.parametrize("preset", ["lv", "heat"])
def test_worker_count_invariance(preset):
    if preset == "lv":
        p, g = lv_preset()
        opts = LV_PRESET
    else:
        p = make_heat_1d(n=10)
        g = make_grid(1e-2, 6, 30, 6)
        opts = dict(inner_solver="krylov", outer_tol=1e-11)
    runs = [paraopt_solve(p, g, ParaoptOptions(workers=w, **opts))
            for w in (1, 4, 6)]
    base = runs[0]
    for other in runs[1:]:
        assert np.array_equal(base.final.to_stacked(),
                              other.final.to_stacked())
        assert np.array_equal(base.residuals, other.residuals)
        assert base.inner_iterations == other.inner_iterations
        assert base.newton_iterations == other.newton_iterations
