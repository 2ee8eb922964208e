import threading
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraopt import (InterfaceVector, InvalidParameterError,
                     NewtonDivergenceError, NoConvergenceError, ParaoptOptions,
                     SingularMatrixError, SingularStepError, coarse_linearize,
                     default_initial_guess, fine_propagate, make_dahlquist,
                     make_grid, make_heat_1d, make_lotka_volterra,
                     paraopt_solve, reference_solve, residual,
                     solve_jacobian_system)
from paraopt import linear_analysis as la
from paraopt import propagators, solver
from paraopt._parallel import parallel_map
from paraopt.propagators import _interpolate_nodes, window_recurrence_residual
from paraopt.solver import (_jacobian_matvec, _window_blocks, gmres,
                            verify_residual)


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


@pytest.mark.parametrize("misfit", [
    dict(x0=InterfaceVector(np.zeros((3, 1)), np.zeros((2, 1)))),
    dict(x0=InterfaceVector(np.zeros((5, 2)), np.zeros((4, 2)))),
    dict(reference=InterfaceVector(np.zeros((3, 1)), np.zeros((2, 1)))),
], ids=["x0_too_few_windows", "x0_wrong_dimension", "reference_misfit"])
def test_solve_rejects_misfit_vectors_before_any_window(monkeypatch, misfit):
    # checked before the first coarse linearization: without the check the
    # worker tasks fail with raw IndexError / reshape or broadcast errors
    p, g = dahlquist_setup(L=4)
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return coarse_linearize(*args, **kwargs)

    monkeypatch.setattr(solver, "coarse_linearize", counting)
    name = next(iter(misfit))
    with pytest.raises(InvalidParameterError,
                       match=f"^{name} does not fit the grid$"):
        paraopt_solve(p, g, ParaoptOptions(workers=2), **misfit)
    assert calls == []


@pytest.mark.parametrize("workers", [0, -5, 1.5])
def test_options_reject_workers_that_are_not_positive_integers(workers):
    with pytest.raises(InvalidParameterError,
                       match="workers must be a positive integer"):
        ParaoptOptions(workers=workers)
    assert ParaoptOptions(workers=np.int64(2)).workers == 2


@pytest.mark.parametrize("max_outer", [0, -3, 2.5, float("nan"), float("inf")])
def test_options_reject_max_outer_that_is_not_a_positive_integer(max_outer):
    # a NaN max_outer used to return at once with "iteration limit reached",
    # an infinite one to leave only the divergence guard
    with pytest.raises(InvalidParameterError,
                       match="max_outer must be a positive integer"):
        ParaoptOptions(max_outer=max_outer)
    assert ParaoptOptions(max_outer=np.int64(3)).max_outer == 3


@pytest.mark.parametrize("name", ["outer_tol", "inner_tol", "local_tol"])
@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan"), float("inf")])
def test_options_reject_tolerances_that_are_not_finite_and_positive(name, tol):
    # a NaN local_tol used to skip every cold window's Newton loop, a NaN
    # outer_tol to run max_outer iterations, an infinite one to report
    # convergence at X^0
    with pytest.raises(InvalidParameterError,
                       match=f"^{name} must be finite and positive"):
        ParaoptOptions(**{name: tol})


# -- approximate Jacobian application ----------------------------------------

def make_linearizations(p, g, X):
    return [coarse_linearize(p, g, ell, X.states[ell - 1],
                             X.adjoints[ell - 1])
            for ell in range(1, g.num_subintervals + 1)]


def jacobian_operator(lins, variant="newton"):
    """The coarse interface Jacobian J^G as the inner solvers apply it."""
    return _jacobian_matvec(_window_blocks(lins, variant, 1))


def apply_jacobian(lins, dX, variant="newton"):
    """The coarse interface Jacobian J^G applied to a vector or matrix."""
    return jacobian_operator(lins, variant)(np.asarray(dX, dtype=float))


def dense_solve(lins, rhs, variant="newton"):
    """The dense oracle: J^G assembled column by column, then LU."""
    rhs = np.asarray(rhs, dtype=float)
    return np.linalg.solve(apply_jacobian(lins, np.eye(rhs.size), variant),
                           rhs)


def test_apply_jacobian_zero_vector():
    p, g = dahlquist_setup()
    lins = make_linearizations(p, g, default_initial_guess(p, g))
    assert np.all(apply_jacobian(lins, np.zeros(5)) == 0.0)
    assert np.all(apply_jacobian(lins, np.zeros((5, 3))) == 0.0)


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
    assert np.allclose(apply_jacobian(lins, dX), fd, atol=1e-6)


def test_apply_jacobian_assembles_to_coarse_interface_matrix():
    p, g = dahlquist_setup(sigma=-1.0, alpha=1.0, T=2.0, L=2, fine=4, coarse=2)
    setup = la.DahlquistSetup(-1.0, 1.0, g)
    A_coarse, _ = la.assemble_system(setup, "coarse")
    lins = make_linearizations(
        p, g, InterfaceVector(np.zeros((3, 1)), np.zeros((2, 1))))
    J = apply_jacobian(lins, np.eye(5))
    assert np.abs(J - A_coarse).max() <= 1e-12
    # the matrix is the operator's action column by column
    for j, col in enumerate(np.eye(5)):
        assert np.array_equal(J[:, j], apply_jacobian(lins, col))


def dense_jacobian(blocks):
    """J^G assembled from the window blocks, one block at a time."""
    L = len(blocks)
    n = blocks[0][0].shape[0]
    J = np.eye((2 * L + 1) * n)

    def at(i, j):
        return slice(i * n, (i + 1) * n), slice(j * n, (j + 1) * n)

    for ell in range(1, L + 1):
        Py, Pl, Qy, Ql = blocks[ell - 1]
        J[at(ell, ell - 1)] = -Py            # row Y_ell
        J[at(ell, L + ell)] = -Pl
        if ell >= 2:                          # row Lam_{ell-1}
            J[at(L + ell - 1, ell - 1)] = -Qy
            J[at(L + ell - 1, L + ell)] = -Ql
    J[at(2 * L, L)] = -np.eye(n)              # row Lam_L
    return J


def loop_matvec(blocks, v):
    """J^G applied window by window, one block product at a time."""
    L = len(blocks)
    n = blocks[0][0].shape[0]
    w = v.reshape((2 * L + 1, n) + v.shape[1:])
    dY, dLam = w[:L + 1], w[L + 1:]
    out = np.empty_like(w)
    out[0] = dY[0]
    for ell in range(1, L + 1):
        Py, Pl, _, _ = blocks[ell - 1]
        out[ell] = dY[ell] - Py @ dY[ell - 1] - Pl @ dLam[ell - 1]
    for ell in range(1, L):
        _, _, Qy, Ql = blocks[ell]
        out[L + ell] = dLam[ell - 1] - Qy @ dY[ell] - Ql @ dLam[ell]
    out[2 * L] = dLam[L - 1] - dY[L]
    return out.reshape(v.shape)


def matvec_inputs(D, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(D), rng.standard_normal((D, 1)),
            rng.standard_normal((D, 7)), np.eye(D)]


@pytest.mark.parametrize("L", [1, 4])
def test_linear_matvec_matches_dense_jacobian(L):
    # shared blocks: one GEMM per block kind over all windows and columns
    p = make_heat_1d(n=20)
    g = make_grid(1e-2, L, 40, 8)
    lins = make_linearizations(p, g, default_initial_guess(p, g))
    J = dense_jacobian([lin.blocks() for lin in lins])
    for variant in ("newton", "gauss_newton"):
        for v in matvec_inputs(J.shape[0], L):
            got, want = apply_jacobian(lins, v, variant), J @ v
            assert got.shape == v.shape
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("L", [1, 4])
def test_nonlinear_matvec_is_the_window_loop(L):
    # per-window blocks: the stacked products are bitwise the loop's
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, L, 60, 6)
    rng = np.random.default_rng(L)
    X = default_initial_guess(p, g)
    X = InterfaceVector(X.states + rng.standard_normal(X.states.shape),
                        X.adjoints)
    lins = make_linearizations(p, g, X)
    for variant in ("newton", "gauss_newton"):
        blocks = [lin.blocks(variant == "gauss_newton") for lin in lins]
        J = dense_jacobian(blocks)
        for v in matvec_inputs(J.shape[0], L):
            got = apply_jacobian(lins, v, variant)
            assert got.shape == v.shape
            assert np.array_equal(got, loop_matvec(blocks, v))
            assert np.allclose(got, J @ v, rtol=1e-13, atol=1e-13)


def test_singular_jacobian_raises_singular_matrix_error(monkeypatch):
    # scalar blocks P_y = 1/2, P_lam = 1, Q_y = 0, Q_lam = -2.  With L = 1,
    # J^G = [[1, 0, 0], [-P_y, 1, -P_lam], [0, -1, 1]], whose determinant is
    # 1 - P_lam.  With L = 3 the elimination's first two pivot blocks are
    # regular and the last is singular: det J^G = 1 - P_lam (1 + a + a^2)
    # with a = P_y Q_lam = -1
    def singular_blocks(self, gauss_newton=False):
        return tuple(np.array([[b]]) for b in (0.5, 1.0, 0.0, -2.0))

    monkeypatch.setattr(propagators.CoarseLinearization, "blocks",
                        singular_blocks)
    for L in (1, 3):
        p, g = dahlquist_setup(L=L, T=float(L), fine=4, coarse=2)
        lins = make_linearizations(p, g, default_initial_guess(p, g))
        D = 2 * L + 1
        assert np.linalg.matrix_rank(apply_jacobian(lins, np.eye(D))) == D - 1
        for inner in ("krylov", "assembled_direct"):
            with pytest.raises(SingularMatrixError, match=inner):
                solve_jacobian_system(lins, np.eye(D)[0],
                                      ParaoptOptions(inner_solver=inner))
            # F(X^0) is not in the range of J^G: GMRES breaks down on a
            # pivot of order eps, with a residual estimate that reads
            # converged and a step of order 1e16 that the outer loop must
            # not take
            with pytest.raises(SingularMatrixError, match=inner):
                paraopt_solve(p, g, ParaoptOptions(inner_solver=inner))


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


def test_gmres_memory_follows_iterations_taken():
    # a basis preallocated for max_iters = D would need 26.8 GiB here
    b = np.ones(60_000)
    tracemalloc.start()
    try:
        x, iters, relres, ok = gmres(lambda v: 2.0 * v, b, 1e-12, 60_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and iters == 1 and relres <= 1e-12
    assert np.allclose(x, 0.5, rtol=0, atol=1e-14)
    assert peak < 50 * 2**20


@pytest.mark.parametrize("max_iters", [5, 20, 60])
def test_gmres_relative_residual_is_the_true_one(max_iters):
    # seeded nonsymmetric system; more iterations than the initial basis
    # holds, so the basis grows on the way
    rng = np.random.default_rng(11)
    A = np.eye(60) + rng.standard_normal((60, 60)) / 12.0
    assert not np.allclose(A, A.T)
    b = rng.standard_normal(60)
    x, iters, relres, ok = gmres(lambda v: A @ v, b, 1e-10, max_iters)
    true = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert iters <= max_iters and ok == (relres <= 1e-10)
    assert ok == (max_iters == 60)
    assert abs(relres - true) <= 1e-6 * true


def test_gmres_relative_residual_on_a_heat_jacobian():
    # a coarse interface system of the heat runs that takes over 100 Arnoldi
    # steps: lost orthogonality of the basis would show as a reported
    # residual drifting from the true one
    p = make_heat_1d(n=20)
    g = make_grid(1e-2, 10, 1000, 100)
    lins = make_linearizations(p, g, default_initial_guess(p, g))
    matvec = jacobian_operator(lins)
    b = np.random.default_rng(3).standard_normal(21 * 20)
    x, iters, relres, ok = gmres(matvec, b, 1e-9, b.size)
    true = np.linalg.norm(b - matvec(x)) / np.linalg.norm(b)
    assert ok and iters >= 100
    assert abs(relres - true) <= 1e-6 * true


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
    dX, iters, relres, ok = gmres(jacobian_operator(lins), np.ones(7),
                                  1e-14, 1)
    assert not ok and relres > 1e-14
    assert iters == 1
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


def oracle_case(n, L):
    """Linearizations of an n-dimensional problem on L windows: Dahlquist
    (n = 1), predator-prey about perturbed states (n = 2), heat (n >= 3)."""
    rng = np.random.default_rng([n, L])
    if n == 1:
        p, g = dahlquist_setup(sigma=-1.2, T=float(L), L=L, fine=8, coarse=2)
    elif n == 2:
        p, g = make_lotka_volterra(), make_grid(1.0 / 3.0, L, 60, 6)
    else:
        p, g = make_heat_1d(n=n), make_grid(1e-2, L, 40, 8)
    X = default_initial_guess(p, g)
    if not p.is_linear:
        X = InterfaceVector(X.states + rng.standard_normal(X.states.shape),
                            X.adjoints)
    return make_linearizations(p, g, X), rng


# n = 200 with L = 12 is left out: its dense oracle is 5000 x 5000
@pytest.mark.parametrize("n,L", [(n, L) for n in (1, 2, 20, 200)
                                 for L in (1, 3, 12) if (n, L) != (200, 12)])
def test_block_elimination_matches_the_dense_oracle(n, L):
    lins, rng = oracle_case(n, L)
    for variant in ("newton", "gauss_newton"):
        rhs = rng.standard_normal((2 * L + 1) * n)
        got, stats = solve_jacobian_system(
            lins, rhs, ParaoptOptions(inner_solver="assembled_direct",
                                      variant=variant))
        want = dense_solve(lins, rhs, variant)
        assert stats.converged and stats.iterations == 0
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_direct_inner_solve_holds_no_dense_jacobian():
    # heat n = 200, L = 10: J^G is 4200 x 4200 (141 MB); the elimination
    # holds ten (400, 201) solutions and one pivot block at a time
    p = make_heat_1d(n=200)
    g = make_grid(1e-2, 10, 1000, 100)
    lins = make_linearizations(p, g, default_initial_guess(p, g))
    rhs = np.random.default_rng(4).standard_normal(21 * 200)
    options = ParaoptOptions(inner_solver="assembled_direct")
    tracemalloc.start()
    try:
        dX, _ = solve_jacobian_system(lins, rhs, options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    matvec = jacobian_operator(lins)
    assert np.linalg.norm(matvec(dX) - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_gmres_grows_its_basis_in_place():
    # 100 iterations fill a basis grown 17 -> 34 -> 68 -> 101 rows; a copy
    # into a larger array would hold 68 + 101 rows at once
    D, max_iters = 20_000, 100
    scale = np.linspace(1.0, 1e4, D)
    b = np.ones(D)
    tracemalloc.start()
    try:
        x, iters, relres, ok = gmres(lambda v: scale * v, b, 1e-300,
                                     max_iters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iters == max_iters and not ok
    basis = (max_iters + 1) * D * 8
    assert peak <= 1.1 * basis
    true = np.linalg.norm(b - scale * x) / np.linalg.norm(b)
    assert abs(relres - true) <= 1e-6 * true


# -- initial guess -----------------------------------------------------------

def test_default_initial_guess_interpolates():
    p = make_lotka_volterra()
    g = make_grid(1.0, 10, 10, 1)
    X = default_initial_guess(p, g)
    assert np.allclose(X.states[0], p.y_init)
    assert np.allclose(X.states[10], p.y_target)
    assert np.allclose(X.states[5], [60.0, 15.0])
    assert np.all(X.adjoints == 1.0)


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
    opts = ParaoptOptions()
    rep = paraopt_solve(p, g, opts)
    assert rep.converged
    assert verify_residual(p, g, rep.final, opts) <= 10 * opts.outer_tol
    p2 = make_lotka_volterra()
    g2 = make_grid(1.0 / 3.0, 5, 120, 12)
    opts2 = ParaoptOptions(outer_tol=1e-11, inner_solver="assembled_direct")
    rep2 = paraopt_solve(p2, g2, opts2)
    assert rep2.converged
    assert verify_residual(p2, g2, rep2.final, opts2) <= 10 * opts2.outer_tol


def test_verification_failure_names_its_phase_and_window(monkeypatch):
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 3, 40, 4)
    X = default_initial_guess(p, g)
    # a tolerance no window meets: window 1 runs out of Newton steps
    opts = ParaoptOptions(local_tol=1e-300)
    with pytest.raises(NewtonDivergenceError, match="verification") as info:
        verify_residual(p, g, X, opts)
    assert info.value.subinterval == 1
    assert info.value.phase == "verification"
    assert "fine window 1" in str(info.value)
    assert info.value.residual is not None

    def singular(problem, grid, ell, *args, **kwargs):
        if ell == 2:
            raise SingularStepError("singular window system")
        return fine_propagate(problem, grid, ell, *args, **kwargs)

    monkeypatch.setattr(solver, "fine_propagate", singular)
    with pytest.raises(SingularStepError, match="verification") as info:
        verify_residual(p, g, X, ParaoptOptions())
    assert info.value.subinterval == 2
    assert info.value.phase == "verification"


def test_zero_adjoint_guess_option_linear():
    # a guess with zero adjoints, passed as x0; matching grids give the
    # exact Jacobian, so one outer step converges from any start
    p, g = dahlquist_setup(sigma=-1.0, T=2.0, L=2, fine=6, coarse=6)
    X = default_initial_guess(p, g)
    x0 = InterfaceVector(X.states, np.zeros_like(X.adjoints))
    rep = paraopt_solve(p, g, ParaoptOptions(outer_tol=1e-10), x0=x0)
    assert rep.converged and rep.iterations == 1
    assert rep.residuals[0] != paraopt_solve(
        p, g, ParaoptOptions(outer_tol=1e-10)).residuals[0]


def test_user_supplied_guess_paths():
    # x0=None is the paper's default guess; a given x0 is used, not changed
    p, g = dahlquist_setup()
    X = default_initial_guess(p, g)
    rep_default = paraopt_solve(p, g)
    rep_given = paraopt_solve(p, g, x0=X)
    assert rep_given.converged
    assert np.array_equal(rep_given.residuals, rep_default.residuals)
    assert np.array_equal(X.to_stacked(),
                          default_initial_guess(p, g).to_stacked())
    Z = InterfaceVector(np.zeros((3, 1)), np.zeros((2, 1)))
    assert paraopt_solve(p, g, x0=Z).residuals[0] == 1.0  # F(0) = -e_0
    with pytest.raises(InvalidParameterError):
        paraopt_solve(p, g, x0=InterfaceVector(np.zeros((4, 1)),
                                               np.zeros((3, 1))))


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


def test_linear_reference_takes_one_direct_inner_solve(monkeypatch):
    # a caller's loose GMRES tolerance must not cost the reference a second
    # outer step: the one-window system is solved directly
    calls = []

    def counting(lins, rhs, options, workers=1):
        calls.append(options.inner_solver)
        return solve_jacobian_system(lins, rhs, options, workers)

    monkeypatch.setattr(solver, "solve_jacobian_system", counting)
    p = make_heat_1d(n=20)
    g = make_grid(1e-2, 10, 100, 10)
    ref = reference_solve(p, g, ParaoptOptions(outer_tol=1e-11,
                                               inner_solver="krylov",
                                               inner_tol=1e-4))
    assert calls == ["assembled_direct"]
    F, _ = residual(p, g, ref)
    assert np.abs(F).max() <= 1e-10


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


def test_reference_solve_reports_newton_failure(monkeypatch):
    p = make_lotka_volterra()
    monkeypatch.setattr(propagators, "DEFAULT_MAX_NEWTON", 1)
    with pytest.raises(NoConvergenceError) as info:
        reference_solve(p, make_grid(1.0 / 3.0, 4, 100, 10))
    assert isinstance(info.value.__cause__, NewtonDivergenceError)
    assert info.value.__cause__.phase == "reference"


@pytest.mark.parametrize("error", [SingularStepError, NewtonDivergenceError])
def test_linear_reference_failure_names_its_phase(monkeypatch, error):
    # the linear reference runs paraopt_solve on one window, whose own
    # handler names the phase "fine" first
    def failing(*args, **kwargs):
        raise error("window failed")

    monkeypatch.setattr(solver, "fine_propagate", failing)
    p = make_heat_1d(n=8)
    expected = (SingularStepError if error is SingularStepError
                else NoConvergenceError)
    with pytest.raises(expected) as info:
        reference_solve(p, make_grid(1e-2, 3, 10, 2))
    exc = info.value if error is SingularStepError else info.value.__cause__
    assert isinstance(exc, error)
    assert exc.phase == "reference"


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
    assert info.value.phase == "coarse"


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
    assert info.value.phase == {"fine_propagate": "fine",
                                "coarse_linearize": "coarse"}[attr]


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
    # row 0 starts from the coarse trajectories at the guess, which miss
    # the fine ones by the coarse discretization error
    assert min(rows[0]) >= 2
    for row in rows[-3:]:                      # the iterates barely move
        assert row == (1,) * g.num_subintervals


def test_row_zero_starts_from_the_coarse_trajectories():
    # with coarse_steps == fine_steps each coarse trajectory solves its fine
    # window, so row 0 takes only the one step that every start takes; so
    # does every later row, whose Parareal start F_old + G_new - G_old is
    # G_new up to the window tolerance
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 6, 50, 50)
    for variant in ("newton", "gauss_newton"):
        rep = paraopt_solve(p, g, ParaoptOptions(workers=1, variant=variant,
                                                 **LV_PRESET))
        assert rep.converged and rep.iterations >= 2
        for row in rep.newton_iterations:
            assert row == (1,) * g.num_subintervals


def test_linearizations_are_timed_with_the_row_of_their_iterate(
        monkeypatch):
    # each iterate is linearized before its residual, in the same history
    # row: row 0 includes the coarse linearizations at X^0
    p, g = lv_preset()
    L = g.num_subintervals
    calls = []

    def slow_at_the_guess(*args, **kwargs):
        calls.append(None)
        if len(calls) <= L:
            time.sleep(0.1)
        return coarse_linearize(*args, **kwargs)

    monkeypatch.setattr(solver, "coarse_linearize", slow_at_the_guess)
    rep = paraopt_solve(p, g, ParaoptOptions(workers=1, **LV_PRESET))
    assert rep.converged and rep.iterations >= 2
    assert len(calls) == L * (rep.iterations + 1)
    assert rep.wall_times[1] < 0.1 * L <= rep.wall_times[0]


def test_predicted_starts_follow_the_outer_step(monkeypatch):
    # one outer step by hand: each start is the Parareal update
    # F_old + G_new - G_old, the old fine trajectory plus the change of the
    # coarse one interpolated onto the fine nodes, added in place
    p, g = lv_preset()
    L, n = g.num_subintervals, p.dim
    X = default_initial_guess(p, g)
    F, trajs = residual(p, g, X)
    old_lins = make_linearizations(p, g, X)
    windows = [solver._WindowState() for _ in range(L)]
    for window, lin, traj in zip(windows, old_lins, trajs):
        window.coarse, window.fine = lin.trajectory, traj
    dX, _ = solve_jacobian_system(old_lins, -F, ParaoptOptions(**LV_PRESET))
    X = InterfaceVector.from_stacked(X.to_stacked() + dX, L, n)
    lins = make_linearizations(p, g, X)
    expected = []
    for ell in range(1, L + 1):
        new, old = lins[ell - 1].trajectory, old_lins[ell - 1].trajectory
        fine = trajs[ell - 1]
        expected.append((
            fine.states + _interpolate_nodes(new.states - old.states,
                                             g.fine_steps),
            fine.adjoints + _interpolate_nodes(new.adjoints - old.adjoints,
                                               g.fine_steps)))
    for ell in range(1, L + 1):
        start = windows[ell - 1].start(lins[ell - 1].trajectory, g)
        assert start.states is trajs[ell - 1].states
        assert start.adjoints is trajs[ell - 1].adjoints
        assert np.array_equal(start.states, expected[ell - 1][0])
        assert np.array_equal(start.adjoints, expected[ell - 1][1])
        assert windows[ell - 1].coarse is lins[ell - 1].trajectory

    # in a solve, after window l's fine solve at row k >= 1 its coarse
    # trajectory of row k - 1 is gone: building the start let go of it
    g = make_grid(1.0 / 3.0, 6, 50, 50)
    L = g.num_subintervals
    coarse_refs, released = [], []

    def recorded_coarse(*args, **kwargs):
        lin = coarse_linearize(*args, **kwargs)
        coarse_refs.append(weakref.ref(lin.trajectory))
        return lin

    def checked_fine(problem, grid, ell, *args, **kwargs):
        out = fine_propagate(problem, grid, ell, *args, **kwargs)
        row = len(released) // L
        if row >= 1:
            previous = coarse_refs[(row - 1) * L + ell - 1]
            released.append(previous() is None)
        else:
            released.append(True)
        return out

    monkeypatch.setattr(solver, "coarse_linearize", recorded_coarse)
    monkeypatch.setattr(solver, "fine_propagate", checked_fine)
    rep = paraopt_solve(p, g, ParaoptOptions(workers=1, **LV_PRESET))
    assert rep.converged and rep.iterations >= 2
    assert len(released) == L * (rep.iterations + 1)
    assert all(released)


def test_predicted_starts_save_newton_steps_in_the_outer_steps(monkeypatch):
    p, g = lv_preset()
    options = ParaoptOptions(workers=1, **LV_PRESET)
    predicted = paraopt_solve(p, g, options)

    def previous_trajectory(window, coarse, grid):
        return window.fine

    monkeypatch.setattr(solver._WindowState, "start", previous_trajectory)
    plain = paraopt_solve(p, g, options)
    assert predicted.converged and plain.converged

    def steps_after_row_zero(report):
        return sum(map(sum, report.newton_iterations[1:]))

    assert steps_after_row_zero(predicted) < steps_after_row_zero(plain)


def test_the_benchmark_hooks_see_every_layer(monkeypatch):
    # the benchmark's traced run times the layers by replacing these
    # attributes, so the solve must look each one up when it calls it; the
    # fine windows must run inside residual, and paraopt_solve must map the
    # coarse windows itself
    hooks = [(solver, "paraopt_solve"), (solver, "residual"),
             (solver, "fine_propagate"), (solver, "coarse_linearize"),
             (solver, "solve_jacobian_system"), (solver, "parallel_map"),
             (propagators.CoarseLinearization, "blocks")]
    calls = {name: 0 for _, name in hooks}
    running = {name: 0 for _, name in hooks}      # in any thread
    fine_outside_residual, coarse_map_callers = [], []
    lock = threading.Lock()
    local = threading.local()

    def recorder(name, fn):
        def recorded(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            caller = stack[-1] if stack else None
            with lock:
                calls[name] += 1
                running[name] += 1
                if name == "fine_propagate" and not running["residual"]:
                    fine_outside_residual.append(args[2])
                coarse_before = calls["coarse_linearize"]
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                with lock:
                    running[name] -= 1
                    if (name == "parallel_map"
                            and calls["coarse_linearize"] > coarse_before):
                        coarse_map_callers.append(caller)
        return recorded

    for owner, name in hooks:
        monkeypatch.setattr(owner, name, recorder(name, vars(owner)[name]))
    p, g = lv_preset()
    rep = solver.paraopt_solve(p, g, ParaoptOptions(workers=2, **LV_PRESET))
    assert rep.converged
    rows, L = rep.iterations + 1, g.num_subintervals
    assert all(calls.values()), calls
    assert calls["residual"] == rows
    assert calls["fine_propagate"] == calls["coarse_linearize"] == rows * L
    assert not fine_outside_residual
    assert coarse_map_callers == ["paraopt_solve"] * rows


def test_unconverged_inner_solve_raises_with_the_partial_report(monkeypatch):
    # GMRES gets its full budget on the first outer step and one iteration
    # on the second, which ends it short of inner_tol: that step must not
    # be taken
    calls = []

    def budgeted_gmres(matvec, b, tol, max_iters):
        calls.append(max_iters)
        return gmres(matvec, b, tol, max_iters if len(calls) == 1 else 1)

    monkeypatch.setattr(solver, "gmres", budgeted_gmres)
    p, g = lv_preset()
    options = ParaoptOptions(workers=1, inner_solver="krylov")
    with pytest.raises(NoConvergenceError,
                       match=r"inner krylov solve of outer step 2 did not "
                             r"converge: 1 iterations, relative residual "
                             r"\S+ > inner_tol 1\.000e-10") as info:
        paraopt_solve(p, g, options)
    report = info.value.report
    assert not report.converged and report.iterations == 1
    assert len(report.residuals) == 2 and len(report.inner_iterations) == 1
    assert report.message == str(info.value)
    # the iterate is the one after the first step, as a one-step run gives
    monkeypatch.setattr(solver, "gmres", gmres)
    one = paraopt_solve(p, g, replace(options, max_outer=1))
    assert np.array_equal(report.final.to_stacked(), one.final.to_stacked())
    assert np.array_equal(report.residuals, one.residuals)


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


def test_early_rows_factor_once_per_fine_window(monkeypatch):
    # 12 windows of 20k fine steps at the study values: in rows 0-2 a
    # window's Newton step cuts its residual by about 1e-4, to about 1e-10,
    # so its second step is a chord step on the same factors
    p = make_lotka_volterra(alpha=5e-2)
    g = make_grid(1.0 / 3.0, 12, 20_000, 20)
    L = g.num_subintervals
    factored, windows = [], []
    factor = propagators._band_factor

    def counting(n, ab, context):
        factored.append(context)
        return factor(n, ab, context)

    def counted_fine(*args, **kwargs):
        before = len(factored)
        out = fine_propagate(*args, **kwargs)
        windows.append(len(factored) - before)
        return out

    monkeypatch.setattr(propagators, "_band_factor", counting)
    monkeypatch.setattr(solver, "fine_propagate", counted_fine)
    rep = paraopt_solve(p, g, ParaoptOptions(
        workers=1, outer_tol=1e-13, inner_solver="assembled_direct"))
    assert rep.converged and rep.iterations == 8
    # the step counts of Newton steps only; the chord steps count in them
    assert rep.newton_iterations == (
        [(2,) * L] * 2 + [(2,) * (L - 1) + (1,)] + [(1,) * L] * 6)
    rows = [windows[k:k + L] for k in range(0, len(windows), L)]
    assert rows[:3] == [[1] * L] * 3
    assert sum(windows) == 108


def test_warm_start_rejects_a_trajectory_of_another_grid():
    p, g = lv_preset()
    _, _, other = fine_propagate(p, make_grid(1.0 / 3.0, 6, 40, 5), 1,
                                 p.y_init, [1.0, 1.0])
    with pytest.raises(InvalidParameterError):
        fine_propagate(p, g, 1, p.y_init, [1.0, 1.0], start=other)


# -- determinism across worker counts ----------------------------------------

def test_linear_windows_run_inline(monkeypatch):
    # closed-form windows cost less than a pool start: every map of a linear
    # solve runs on one worker; a nonlinear solve keeps the requested count
    seen = []

    def recording(fn, items, workers):
        seen.append(workers)
        return parallel_map(fn, items, workers)

    monkeypatch.setattr(solver, "parallel_map", recording)
    p = make_heat_1d(n=10)
    g = make_grid(1e-2, 6, 30, 6)
    rep = paraopt_solve(p, g, ParaoptOptions(workers=4, outer_tol=1e-11))
    assert rep.converged and seen and set(seen) == {1}
    seen.clear()
    p, g = lv_preset()
    paraopt_solve(p, g, ParaoptOptions(workers=4, max_outer=1, **LV_PRESET))
    assert set(seen) == {4}


@pytest.mark.parametrize("preset", ["lv", "heat", "heat200_krylov",
                                    "heat200_direct"])
def test_worker_count_invariance(preset):
    workers = (1, 4, 6)
    if preset == "lv":
        p, g = lv_preset()
        opts = LV_PRESET
    elif preset == "heat":
        p = make_heat_1d(n=10)
        g = make_grid(1e-2, 6, 30, 6)
        opts = dict(inner_solver="krylov", outer_tol=1e-11)
    else:
        # n = 200 is large enough for OpenBLAS to thread the window
        # products; two outer steps run every phase of the iteration
        p = make_heat_1d(n=200)
        g = make_grid(1e-2, 10, 1000, 100)
        inner = "krylov" if preset == "heat200_krylov" else "assembled_direct"
        opts = dict(inner_solver=inner, outer_tol=1e-11, max_outer=2)
        workers = (1, 2, 10)
    runs = [paraopt_solve(p, g, ParaoptOptions(workers=w, **opts))
            for w in workers]
    base = runs[0]
    for other in runs[1:]:
        assert np.array_equal(base.final.to_stacked(),
                              other.final.to_stacked())
        assert np.array_equal(base.residuals, other.residuals)
        assert base.inner_iterations == other.inner_iterations
        assert base.newton_iterations == other.newton_iterations
