import numpy as np
import pytest

from paraopt import (SingularStepError, coarse_linearize, derivative_action,
                     fine_propagate, make_dahlquist, make_grid, make_heat_1d,
                     make_lotka_volterra, propagators)
from paraopt.propagators import (_assemble_banded, _nonlinear_residual,
                                 window_recurrence_residual)


def test_dahlquist_single_step_closed_form():
    # one implicit step, sigma=-1, alpha=1: beta=1/2, gamma=1/4
    p = make_dahlquist(-1.0, 1.0)
    g = make_grid(1.0, 1, 1, 1)
    P, Q, traj = fine_propagate(p, g, 1, [1.0], [2.0])
    assert np.isclose(P[0], 0.0, atol=1e-14)
    assert np.isclose(Q[0], 1.0)
    assert traj.steps == 1
    assert np.isclose(traj.states[0, 0], 1.0)
    assert np.isclose(traj.adjoints[1, 0], 2.0)


def test_zero_adjoint_decouples_linear():
    p = make_dahlquist(-2.0, 1.0, y_init=3.0)
    g = make_grid(1.0, 2, 8, 2)
    P, Q, _ = fine_propagate(p, g, 1, [3.0], [0.0])
    assert Q[0] == 0.0
    tau = g.fine_step
    assert np.isclose(P[0], 3.0 * (1.0 - (-2.0) * tau) ** -8)


def test_heat_zero_adjoint_uncontrolled_flow():
    p = make_heat_1d(n=10)
    g = make_grid(1e-2, 5, 20, 4)
    P, Q, _ = fine_propagate(p, g, 1, p.y_init, np.zeros(10))
    assert np.abs(Q).max() == 0.0
    S = np.linalg.solve(np.eye(10) - g.fine_step * p.linear_matrix, np.eye(10))
    y = p.y_init.copy()
    for _ in range(20):
        y = S @ y
    assert np.allclose(P, y, atol=1e-12)


@pytest.mark.parametrize("Lam", [(0.0, 0.0), (1.0, 1.0), (-2.0, 0.5)])
def test_lotka_volterra_resubstitution(Lam):
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 10, 300, 30)
    _, _, traj = fine_propagate(p, g, 2, [25.0, 12.0], Lam, tol=1e-12)
    assert window_recurrence_residual(p, traj) <= 1e-12


def test_linear_trajectory_satisfies_recurrences():
    p = make_heat_1d(n=8)
    g = make_grid(1e-2, 4, 50, 10)
    _, _, traj = fine_propagate(p, g, 1, p.y_init, np.ones(8))
    assert window_recurrence_residual(p, traj) <= 1e-13


def test_coarse_equals_fine_when_steps_match():
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 5, 60, 60)
    Y, Lam = np.array([22.0, 11.0]), np.array([0.3, -0.2])
    P, Q, traj = fine_propagate(p, g, 3, Y, Lam)
    lin = coarse_linearize(p, g, 3, Y, Lam)
    assert np.allclose(lin.coarse_P, P, atol=1e-12)
    assert np.allclose(lin.coarse_Q, Q, atol=1e-12)
    assert np.allclose(lin.trajectory.states, traj.states, atol=1e-12)


def test_coarse_linearize_dahlquist_single_step():
    p = make_dahlquist(-1.0, 1.0)
    g = make_grid(1.0, 1, 1, 1)
    lin = coarse_linearize(p, g, 1, [1.0], [2.0])
    assert np.isclose(lin.coarse_P[0], 0.0, atol=1e-14)
    assert np.isclose(lin.coarse_Q[0], 1.0)


def test_derivative_action_zero_input():
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 5, 100, 10)
    lin = coarse_linearize(p, g, 1, p.y_init, [1.0, 1.0])
    dP, dQ = derivative_action(p, lin, np.zeros(2), np.zeros(2))
    assert np.all(dP == 0.0) and np.all(dQ == 0.0)


def test_derivative_action_dahlquist_closed_form():
    p = make_dahlquist(-1.0, 1.0)
    g = make_grid(1.0, 1, 1, 1)
    lin = coarse_linearize(p, g, 1, [1.0], [2.0])
    dP, dQ = derivative_action(p, lin, [1.0], [0.0])
    assert np.isclose(dP[0], 0.5) and np.isclose(dQ[0], 0.0)
    dP, dQ = derivative_action(p, lin, [0.0], [1.0])
    assert np.isclose(dP[0], -0.25) and np.isclose(dQ[0], 0.5)


def test_derivative_action_superposition_linear():
    p = make_heat_1d(n=6)
    g = make_grid(1e-2, 2, 40, 8)
    rng = np.random.default_rng(1)
    lin1 = coarse_linearize(p, g, 1, rng.standard_normal(6), rng.standard_normal(6))
    lin2 = coarse_linearize(p, g, 2, rng.standard_normal(6), rng.standard_normal(6))
    dY = rng.standard_normal(6)
    dL = rng.standard_normal(6)
    for lin in (lin1, lin2):
        full = derivative_action(p, lin, dY, dL)
        partY = derivative_action(p, lin, dY, np.zeros(6))
        partL = derivative_action(p, lin, np.zeros(6), dL)
        assert np.allclose(full[0], partY[0] + partL[0], atol=1e-12)
        assert np.allclose(full[1], partY[1] + partL[1], atol=1e-12)
    # base-point independence for linear problems
    a1 = derivative_action(p, lin1, dY, dL)
    a2 = derivative_action(p, lin2, dY, dL)
    assert np.allclose(a1[0], a2[0]) and np.allclose(a1[1], a2[1])


def test_derivative_action_finite_difference_consistency():
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 5, 200, 20)
    Y, Lam = np.array([30.0, 12.0]), np.array([1.0, 1.0])
    lin = coarse_linearize(p, g, 2, Y, Lam)
    eps = 1e-6
    rng = np.random.default_rng(4)
    for _ in range(3):
        dY = rng.standard_normal(2)
        dL = rng.standard_normal(2)
        dP, dQ = derivative_action(p, lin, dY, dL)
        lin2 = coarse_linearize(p, g, 2, Y + eps * dY, Lam + eps * dL)
        fdP = (lin2.coarse_P - lin.coarse_P) / eps
        fdQ = (lin2.coarse_Q - lin.coarse_Q) / eps
        scale = 1.0 + max(np.abs(dP).max(), np.abs(dQ).max())
        assert np.abs(dP - fdP).max() <= 1e-4 * scale
        assert np.abs(dQ - fdQ).max() <= 1e-4 * scale


def test_derivative_action_is_exact_jacobian_for_linear_fine_grid():
    # coarse step == fine step on a linear problem: derivative = propagator map
    p = make_heat_1d(n=7)
    g = make_grid(1e-2, 3, 25, 25)
    rng = np.random.default_rng(9)
    Y, Lam = rng.standard_normal(7), rng.standard_normal(7)
    dY, dL = rng.standard_normal(7), rng.standard_normal(7)
    P0, Q0, _ = fine_propagate(p, g, 1, Y, Lam)
    P1, Q1, _ = fine_propagate(p, g, 1, Y + dY, Lam + dL)
    lin = coarse_linearize(p, g, 1, Y, Lam)
    dP, dQ = derivative_action(p, lin, dY, dL)
    assert np.allclose(P1 - P0, dP, atol=1e-11)
    assert np.allclose(Q1 - Q0, dQ, atol=1e-11)


def test_gauss_newton_drops_second_order_coupling():
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 5, 100, 10)
    lin = coarse_linearize(p, g, 1, p.y_init, [1.0, 1.0])
    full = derivative_action(p, lin, [1.0, 0.0], [0.0, 0.0], gauss_newton=False)
    gn = derivative_action(p, lin, [1.0, 0.0], [0.0, 0.0], gauss_newton=True)
    assert not np.allclose(full[1], gn[1])   # adjoint derivative differs
    # the state derivative block never carries the dropped term for dLam
    fl = derivative_action(p, lin, [0.0, 0.0], [1.0, 0.0], gauss_newton=False)
    gl = derivative_action(p, lin, [0.0, 0.0], [1.0, 0.0], gauss_newton=True)
    assert np.allclose(fl[1], gl[1], rtol=5e-2)


def test_blocks_match_unit_actions():
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 4, 80, 8)
    lin = coarse_linearize(p, g, 2, [24.0, 11.0], [0.5, 1.5])
    Py, Pl, Qy, Ql = lin.blocks()
    eye = np.eye(2)
    for i in range(2):
        dP, dQ = derivative_action(p, lin, eye[i], np.zeros(2))
        assert np.array_equal(Py[:, i], dP)
        assert np.array_equal(Qy[:, i], dQ)
        dP, dQ = derivative_action(p, lin, np.zeros(2), eye[i])
        assert np.array_equal(Pl[:, i], dP)
        assert np.array_equal(Ql[:, i], dQ)


def test_linear_blocks_structure():
    p = make_dahlquist(-0.5, 2.0)
    g = make_grid(2.0, 2, 10, 5)
    lin = coarse_linearize(p, g, 1, [1.0], [0.0])
    Py, Pl, Qy, Ql = lin.blocks()
    from paraopt.linear_analysis import beta, gamma
    b = beta(-0.5, g.coarse_step, g.sub_length)
    c = gamma(-0.5, g.coarse_step, g.sub_length)
    assert np.isclose(Py[0, 0], b)
    assert np.isclose(Ql[0, 0], b)
    assert np.isclose(Pl[0, 0], -c / 2.0)
    assert Qy[0, 0] == 0.0


def test_singular_step_raises():
    # 1 - tau*sigma = 0 for sigma=1, tau=1 (growth problem, algebraic check)
    p = make_dahlquist(1.0, 1.0)
    g = make_grid(2.0, 2, 1, 1)
    with pytest.raises(SingularStepError):
        fine_propagate(p, g, 1, [1.0], [0.0])


def test_newton_iteration_counts_recorded():
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 10, 100, 10)
    _, _, traj = fine_propagate(p, g, 1, p.y_init, [1.0, 1.0])
    assert traj.newton_iterations >= 1
    p2 = make_dahlquist(-1.0, 1.0)
    g2 = make_grid(1.0, 1, 4, 2)
    _, _, traj2 = fine_propagate(p2, g2, 1, [1.0], [0.0])
    assert traj2.newton_iterations == 0   # direct linear solve


def _dense_window_jacobian(p, y, lam, tau, gauss_newton, terminal):
    """The window Jacobian block by block, in plain dense storage."""
    n, m = p.dim, len(y) - 1
    A = np.zeros((2 * n * m, 2 * n * m))
    eye = np.eye(n)
    bbt = p.bbt() / p.alpha
    jac = p.eval_jacobian_many(y)
    K = p.eval_hess_coupling_many(y[:-1], lam[:-1])
    for t in range(m):
        r2, r1 = 2 * n * t, 2 * n * t + n     # rows of R2_t and R1_t
        lam_t, y_next = 2 * n * t, 2 * n * t + n
        A[r2:r2 + n, lam_t:lam_t + n] = eye - tau * jac[t].T
        A[r1:r1 + n, y_next:y_next + n] = eye - tau * jac[t + 1]
        if t + 1 < m:
            lam_next = 2 * n * (t + 1)
            A[r2:r2 + n, lam_next:lam_next + n] = -eye
            A[r1:r1 + n, lam_next:lam_next + n] = tau * bbt
        if t >= 1:
            y_t = 2 * n * (t - 1) + n
            A[r1:r1 + n, y_t:y_t + n] = -eye
            if not gauss_newton:
                A[r2:r2 + n, y_t:y_t + n] = -tau * K[t]
    if terminal:   # lam_m = y_m - y_target
        y_m = 2 * n * (m - 1) + n
        A[2 * n * (m - 1):2 * n * (m - 1) + n, y_m:y_m + n] = -eye
        A[2 * n * (m - 1) + n:2 * n * m, y_m:y_m + n] += tau * bbt
    return A


@pytest.mark.parametrize("gauss_newton,terminal",
                         [(False, False), (True, False), (False, True)])
def test_banded_assembly_matches_dense_jacobian(gauss_newton, terminal):
    p = make_lotka_volterra()
    n, m, tau = 2, 4, 1e-2
    rng = np.random.default_rng(3)
    y = np.array([20.0, 10.0]) + rng.standard_normal((m + 1, n))
    lam = rng.standard_normal((m + 1, n))
    if terminal:
        lam[-1] = y[-1] - p.y_target
    bbt = p.bbt() / p.alpha
    ab = _assemble_banded(p, y, lam, tau, bbt, gauss_newton, terminal)
    l = 3 * n - 1
    dense = np.zeros((2 * n * m, 2 * n * m))
    for i in range(2 * n * m):
        for j in range(max(0, i - l), min(2 * n * m, i + l + 1)):
            dense[i, j] = ab[2 * l + i - j, j]
    expected = _dense_window_jacobian(p, y, lam, tau, gauss_newton, terminal)
    assert np.array_equal(dense, expected)
    assert np.count_nonzero(ab) == np.count_nonzero(expected)
    if gauss_newton:
        return
    # the Newton variant is the derivative of the window residual

    def stacked_residual(u):
        yy, ll = y.copy(), lam.copy()
        slots = u.reshape(m, 2 * n)
        ll[:-1], yy[1:] = slots[:, :n], slots[:, n:]
        if terminal:
            ll[-1] = yy[-1] - p.y_target
        R1, R2 = _nonlinear_residual(p, yy, ll, tau, bbt)
        return np.hstack([R2, R1]).ravel()

    u0 = np.hstack([lam[:-1], y[1:]]).ravel()
    eps = 1e-6
    fd = np.column_stack([
        (stacked_residual(u0 + eps * e) - stacked_residual(u0 - eps * e))
        / (2 * eps) for e in np.eye(u0.size)])
    assert np.abs(fd - expected).max() <= 1e-6 * np.abs(expected).max()


def test_blocks_singular_step_names_its_window(monkeypatch):
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 4, 40, 4)
    lin = coarse_linearize(p, g, 3, p.y_init, [1.0, 1.0])

    def singular(*args, **kwargs):
        raise SingularStepError("singular")

    monkeypatch.setattr(propagators, "_banded_solve", singular)
    with pytest.raises(SingularStepError) as info:
        lin.blocks()
    assert info.value.subinterval == 3
