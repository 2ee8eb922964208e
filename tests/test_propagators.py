import ctypes
import gc
import importlib.util
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from paraopt import (ControlProblem, NewtonDivergenceError, ParaoptOptions,
                     SingularStepError,
                     coarse_linearize, default_initial_guess, fine_propagate,
                     make_dahlquist, make_grid, make_heat_1d,
                     make_lotka_volterra, paraopt_solve, propagators)
from paraopt.propagators import (LocalTrajectory, _assemble_banded,
                                 _band_factor, _band_solve, _band_workspace,
                                 _interpolate_nodes, _nonlinear_residual,
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
    assert np.allclose(lin.trajectory.states[-1], P, atol=1e-12)
    assert np.allclose(lin.trajectory.adjoints[0], Q, atol=1e-12)
    assert np.allclose(lin.trajectory.states, traj.states, atol=1e-12)


def test_coarse_linearize_dahlquist_single_step():
    p = make_dahlquist(-1.0, 1.0)
    g = make_grid(1.0, 1, 1, 1)
    lin = coarse_linearize(p, g, 1, [1.0], [2.0])
    assert np.isclose(lin.trajectory.states[-1, 0], 0.0, atol=1e-14)
    assert np.isclose(lin.trajectory.adjoints[0, 0], 1.0)


def coarse_propagate(p, g, ell, Y, Lam):
    """(P, Q) of window ``ell`` on ``g``'s coarse step, by fine_propagate on
    a grid whose fine step it is."""
    coarse = make_grid(g.horizon, g.num_subintervals, g.coarse_steps,
                       g.coarse_steps)
    return fine_propagate(p, coarse, ell, Y, Lam)[:2]


def derivative_action(lin, dY, dLam, gauss_newton=False):
    """(dP, dQ) for boundary perturbations (dY, dLam), from the blocks."""
    Py, Pl, Qy, Ql = lin.blocks(gauss_newton)
    return Py @ dY + Pl @ dLam, Qy @ dY + Ql @ dLam


def test_derivative_action_dahlquist_closed_form():
    p = make_dahlquist(-1.0, 1.0)
    g = make_grid(1.0, 1, 1, 1)
    lin = coarse_linearize(p, g, 1, [1.0], [2.0])
    Py, Pl, Qy, Ql = lin.blocks()
    assert np.isclose(Py[0, 0], 0.5) and np.isclose(Qy[0, 0], 0.0)
    assert np.isclose(Pl[0, 0], -0.25) and np.isclose(Ql[0, 0], 0.5)


def test_derivative_action_superposition_linear():
    # a linear window map is its own derivative: (P, Q) at (Y, Lam) is the
    # derivative action on (Y, Lam), whatever the base point
    p = make_heat_1d(n=6)
    g = make_grid(1e-2, 2, 40, 8)
    rng = np.random.default_rng(1)
    Y1, L1, Y2, L2 = rng.standard_normal((4, 6))
    lin1 = coarse_linearize(p, g, 1, Y1, L1)
    lin2 = coarse_linearize(p, g, 2, Y2, L2)
    for ell, lin, Y, Lam in ((1, lin1, Y1, L1), (2, lin2, Y2, L2)):
        dP, dQ = derivative_action(lin, Y, Lam)
        P, Q = coarse_propagate(p, g, ell, Y, Lam)
        assert np.allclose(dP, P, atol=1e-12)
        assert np.allclose(dQ, Q, atol=1e-12)
    dY, dL = rng.standard_normal((2, 6))
    a1 = derivative_action(lin1, dY, dL)
    a2 = derivative_action(lin2, dY, dL)
    assert np.allclose(a1[0], a2[0]) and np.allclose(a1[1], a2[1])


def test_derivative_action_finite_difference_consistency():
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 5, 200, 20)
    Y, Lam = np.array([30.0, 12.0]), np.array([1.0, 1.0])
    lin = coarse_linearize(p, g, 2, Y, Lam)
    P, Q = coarse_propagate(p, g, 2, Y, Lam)
    eps = 1e-6
    rng = np.random.default_rng(4)
    for _ in range(3):
        dY = rng.standard_normal(2)
        dL = rng.standard_normal(2)
        dP, dQ = derivative_action(lin, dY, dL)
        P2, Q2 = coarse_propagate(p, g, 2, Y + eps * dY, Lam + eps * dL)
        fdP = (P2 - P) / eps
        fdQ = (Q2 - Q) / eps
        scale = 1.0 + max(np.abs(dP).max(), np.abs(dQ).max())
        assert np.abs(dP - fdP).max() <= 1e-4 * scale
        assert np.abs(dQ - fdQ).max() <= 1e-4 * scale


def test_predict_interpolates_onto_any_fine_grid():
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 3, 70, 7)
    lin = coarse_linearize(p, g, 1, p.y_init, [1.0, 1.0])
    coarse = (lin.trajectory.states, lin.trajectory.adjoints)
    for steps in (70, 23):        # a multiple of 7 and not one
        for c in coarse:
            f = _interpolate_nodes(c, steps)
            assert f.shape == (steps + 1, 2)
            assert np.array_equal(f[0], c[0]) and np.array_equal(f[-1], c[-1])
            t = np.linspace(0.0, 1.0, steps + 1)
            for i in range(2):
                expected = np.interp(t, np.linspace(0.0, 1.0, 8), c[:, i])
                assert np.allclose(f[:, i], expected, rtol=1e-14, atol=0)
    # the fine nodes that coincide with coarse ones carry their values
    for c in coarse:
        assert np.array_equal(_interpolate_nodes(c, 70)[::10], c)


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
    dP, dQ = derivative_action(lin, dY, dL)
    assert np.allclose(P1 - P0, dP, atol=1e-11)
    assert np.allclose(Q1 - Q0, dQ, atol=1e-11)


def test_gauss_newton_drops_second_order_coupling():
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 5, 100, 10)
    lin = coarse_linearize(p, g, 1, p.y_init, [1.0, 1.0])
    full = lin.blocks(gauss_newton=False)
    gn = lin.blocks(gauss_newton=True)
    assert not np.allclose(full[2][:, 0], gn[2][:, 0])   # dQ/dY differs
    # the state derivative block never carries the dropped term for dLam
    assert np.allclose(full[3][:, 0], gn[3][:, 0], rtol=5e-2)


def test_blocks_match_unit_actions():
    # the interface operator applied to unit vectors places -P_y, -P_lam,
    # -Q_y, -Q_lam at their window's rows and columns
    from paraopt.solver import _jacobian_matvec, _window_blocks
    from test_solver import apply_columns

    p = make_lotka_volterra()
    L, n = 4, 2
    g = make_grid(1.0 / 3.0, L, 80, 8)
    rng = np.random.default_rng(6)
    lins = [coarse_linearize(p, g, ell, [24.0, 11.0] + rng.standard_normal(2),
                             [0.5, 1.5]) for ell in range(1, L + 1)]
    J = apply_columns(_jacobian_matvec(_window_blocks(lins, "newton", 1)),
                      np.eye(n * (2 * L + 1)))

    def block(i, j):
        return J[n * i:n * (i + 1), n * j:n * (j + 1)]

    for ell in range(1, L + 1):
        Py, Pl, Qy, Ql = lins[ell - 1].blocks()
        assert np.array_equal(block(ell, ell - 1), -Py)
        assert np.array_equal(block(ell, L + ell), -Pl)
        if ell >= 2:
            assert np.array_equal(block(L + ell - 1, ell - 1), -Qy)
            assert np.array_equal(block(L + ell - 1, L + ell), -Ql)


def test_linear_blocks_structure():
    p = make_dahlquist(-0.5, 2.0)
    g = make_grid(2.0, 2, 10, 5)
    lin = coarse_linearize(p, g, 1, [1.0], [0.0])
    Py, Pl, Qy, Ql = lin.blocks()
    from paraopt.linear_analysis import scalar_coefficients
    b, c = scalar_coefficients(-0.5, g.coarse_step, g.sub_length)
    assert np.isclose(Py[0, 0], b)
    assert np.isclose(Ql[0, 0], b)
    assert np.isclose(Pl[0, 0], -c / 2.0)
    assert Qy[0, 0] == 0.0


def test_linear_blocks_are_shared_and_read_only():
    p = make_heat_1d(n=12)
    g = make_grid(1e-2, 4, 40, 8)
    lins = [coarse_linearize(p, g, ell, p.y_init, np.ones(12))
            for ell in range(1, 5)]
    first = lins[0].blocks()
    for lin in lins:
        for variant in (False, True):
            assert all(a is b for a, b in zip(lin.blocks(variant), first))
    for block in first:
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
    # Q_y is zero because Q = (S^T)^m Lam_plus does not read Y; the
    # interface operator skips it, so it is a broadcast zero, not an array
    assert not np.any(first[2])
    assert first[2].shape == (12, 12) and first[2].strides == (0, 0)
    Lam = np.linspace(-1.0, 2.0, 12)
    Qs = [fine_propagate(p, g, 2, Y, Lam)[1]
          for Y in (p.y_init, np.ones(12), -3.0 * p.y_init)]
    assert all(np.array_equal(Q, Qs[0]) for Q in Qs)


def _heat_like(p, **changes):
    """A problem with ``p``'s data except for ``changes``."""
    fields = dict(dim=p.dim, alpha=p.alpha, y_init=p.y_init,
                  y_target=p.y_target, control_operator=p.control_operator,
                  linear_matrix=p.linear_matrix)
    fields.update(changes)
    return ControlProblem(**fields)


def test_linear_ops_shared_by_equal_dynamics():
    tau, steps = 1e-4, 20
    p = make_heat_1d(n=50)
    q = make_heat_1d(n=50, y_init_fn=lambda x: np.cos(2 * np.pi * x),
                     y_target_fn=lambda x: x)
    assert not np.array_equal(p.y_init, q.y_init)
    assert not np.array_equal(p.y_target, q.y_target)
    ops = propagators._linear_ops(p, tau, steps)
    assert propagators._linear_ops(q, tau, steps) is ops
    assert propagators._linear_ops(p, tau, steps + 1) is not ops
    B = p.control_operator.copy()
    B[0, 0] = 1.0 - B[0, 0]
    A = p.linear_matrix * 2.0
    for other in (make_heat_1d(n=50, alpha=2e-4), _heat_like(p, alpha=2e-4),
                  _heat_like(p, control_operator=B),
                  _heat_like(p, control_operator=None),
                  _heat_like(p, linear_matrix=A)):
        assert propagators._linear_ops(other, tau, steps) is not ops


def test_linear_ops_keyed_on_the_arrays_not_their_contents(monkeypatch):
    # content-equal copies of A and B build their own operator set, with the
    # same bits, and the solve is bitwise the one on the shared arrays
    cache = propagators._OperatorCache(maxsize=64)
    monkeypatch.setattr(propagators, "_linear_ops", cache)
    p = make_heat_1d(n=30)
    q = _heat_like(p, linear_matrix=p.linear_matrix.copy(),
                   control_operator=p.control_operator.copy())
    g = make_grid(1e-2, 3, 30, 6)
    options = ParaoptOptions(inner_solver="krylov", inner_tol=1e-12)
    reports = [paraopt_solve(problem, g, options) for problem in (p, q)]
    assert cache.cache_info().misses == 4     # fine and coarse step, twice
    for coarse in (False, True):
        tau, steps = (g.coarse_step, g.coarse_steps) if coarse \
            else (g.fine_step, g.fine_steps)
        ops_p, ops_q = cache(p, tau, steps), cache(q, tau, steps)
        assert ops_q is not ops_p
        assert all(np.array_equal(a, b)
                   for a, b in zip(ops_p.blocks, ops_q.blocks))
    first, second = reports
    assert first.iterations == second.iterations >= 1
    assert np.array_equal(first.final.to_stacked(), second.final.to_stacked())
    assert np.array_equal(first.residuals, second.residuals)
    # the cache holds the arrays it is keyed on, so no other array can take
    # their ids while the entry lives
    refs = [weakref.ref(q.linear_matrix), weakref.ref(q.control_operator)]
    del q, reports, second
    gc.collect()
    assert all(ref() is not None for ref in refs)


def test_linear_ops_built_once_per_dynamics(monkeypatch):
    built = []

    class Counting(propagators._LinearOps):
        def __init__(self, *args):
            built.append(args[1:])
            super().__init__(*args)

    monkeypatch.setattr(propagators, "_LinearOps", Counting)
    monkeypatch.setattr(propagators, "_linear_ops",
                        propagators._OperatorCache(maxsize=64))
    g = make_grid(1e-2, 3, 30, 6)
    counts = []
    for k in range(10):
        centre = 0.3 + 0.04 * k
        p = make_heat_1d(
            n=20, alpha=3.7e-4,
            y_init_fn=lambda x: np.exp(-100.0 * (x - centre) ** 2))
        report = paraopt_solve(p, g, ParaoptOptions(max_outer=2,
                                                    workers=2))
        assert report.iterations >= 1
        counts.append(len(built))
    assert counts[0] >= 2          # fine and coarse step
    assert counts == [counts[0]] * 10


def test_operator_cache_builds_once_under_contention():
    # more threads than cores and a short switch interval: a check-then-act
    # race in the cache would build a key twice or hand out two objects
    problems = [make_heat_1d(n=40, alpha=a) for a in (1.0, 2.0, 3.0)]
    threads_n, rounds = 8, 20
    cache = propagators._OperatorCache(maxsize=len(problems) * rounds)
    got = [[] for _ in range(threads_n)]
    start = threading.Barrier(threads_n, timeout=30)

    def work(i):
        p = problems[i % len(problems)]
        for r in range(rounds):
            start.wait()      # each round, about 3 threads miss one new key
            got[i].append(((p.alpha, r), cache(p, 0.01 * (r + 1), 5)))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(switch)
    seen = {}
    for results in got:
        assert len(results) == rounds
        for key, ops in results:
            assert seen.setdefault(key, ops) is ops
    info = cache.cache_info()
    assert info.misses == len(seen) == info.currsize == len(problems) * rounds
    assert info.hits == threads_n * rounds - info.misses


def test_operator_cache_evicts_the_least_recently_used():
    cache = propagators._OperatorCache(maxsize=2)
    a, b, c = (make_heat_1d(n=6, alpha=x) for x in (1.0, 2.0, 3.0))

    def get(problem):
        ops = cache(problem, 0.01, 4)
        assert cache.cache_info().currsize <= cache.maxsize
        return ops

    ops_a, ops_b = get(a), get(b)
    assert get(a) is ops_a            # a hit: b is now the least recent
    ops_c = get(c)                    # evicts b
    assert get(a) is ops_a and get(c) is ops_c
    assert cache.cache_info() == (3, 3, 2, 2)   # hits, misses, max, size
    again = get(b)                    # evicted: a miss that builds it anew
    assert again is not ops_b and np.array_equal(again.SN, ops_b.SN)
    assert cache.cache_info() == (3, 4, 2, 2)
    # b evicted a, the less recent of a and c
    assert get(c) is ops_c
    assert get(a) is not ops_a
    assert cache.cache_info() == (4, 5, 2, 2)


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
    jac = p.jacobian_many(y)
    K = p.hess_coupling_many(y[:-1], lam[:-1])
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


def _band_to_dense(ab, n):
    """The dense matrix held in a window's gbsv storage ``ab``."""
    l, size = propagators._bandwidth(n), ab.shape[1]
    dense = np.zeros((size, size))
    for i in range(size):
        for j in range(max(0, i - l), min(size, i + l + 1)):
            dense[i, j] = ab[2 * l + i - j, j]
    return dense


VARIANTS = [(False, False), (True, False), (False, True)]


@pytest.mark.parametrize("gauss_newton,terminal", VARIANTS)
def test_banded_assembly_matches_dense_jacobian(gauss_newton, terminal,
                                                monkeypatch):
    # the window in one chunk, then in chunks of 2 slots that begin and end
    # inside the band, the last one short
    for chunk, m in ((propagators._ASSEMBLY_CHUNK, 4), (2, 7)):
        monkeypatch.setattr(propagators, "_ASSEMBLY_CHUNK", chunk)
        _check_predator_prey_assembly(gauss_newton, terminal, m)


def _check_predator_prey_assembly(gauss_newton, terminal, m):
    p = make_lotka_volterra()
    n, tau = 2, 1e-2
    rng = np.random.default_rng(3)
    y = np.array([20.0, 10.0]) + rng.standard_normal((m + 1, n))
    lam = rng.standard_normal((m + 1, n))
    if terminal:
        lam[-1] = y[-1] - p.y_target
    bbt = p.bbt() / p.alpha
    # a used workspace is refilled completely
    ab = _band_workspace(n, m)
    ab.fill(np.nan)
    assert _assemble_banded(ab, p, y, lam, tau, bbt, gauss_newton,
                            terminal) is ab
    expected = _dense_window_jacobian(p, y, lam, tau, gauss_newton, terminal)
    assert np.array_equal(_band_to_dense(ab, n), expected)
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
        R = np.empty((m, 2 * n))
        _nonlinear_residual(R, p, yy, ll, tau, bbt)
        return R.ravel()

    u0 = np.hstack([lam[:-1], y[1:]]).ravel()
    eps = 1e-6
    fd = np.column_stack([
        (stacked_residual(u0 + eps * e) - stacked_residual(u0 - eps * e))
        / (2 * eps) for e in np.eye(u0.size)])
    assert np.abs(fd - expected).max() <= 1e-6 * np.abs(expected).max()


def _random_dense_problem(n, seed):
    """A nonlinear problem whose assembly blocks are dense and non-symmetric.

    The callables are seeded and depend on the first row entry, so every
    slot gets its own f' and K; they are not derivatives of one f, which
    the assembly does not need.
    """
    rng = np.random.default_rng(seed)
    B, J0, J1, K0, K1 = rng.standard_normal((5, n, n))
    return ControlProblem(
        dim=n, alpha=0.7, y_init=rng.standard_normal(n),
        y_target=rng.standard_normal(n), control_operator=B,
        rhs_many=lambda Y: Y @ J0.T,
        jacobian_many=lambda Y: J0 + Y[:, :1, None] * J1,
        hess_coupling_many=lambda Y, Lam: K0 + Lam[:, :1, None] * K1)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("gauss_newton,terminal", VARIANTS)
def test_banded_assembly_general_dimension(n, gauss_newton, terminal,
                                           monkeypatch):
    for chunk, m in ((propagators._ASSEMBLY_CHUNK, 5), (2, 7)):
        monkeypatch.setattr(propagators, "_ASSEMBLY_CHUNK", chunk)
        _check_general_assembly(n, gauss_newton, terminal, m)


def _check_general_assembly(n, gauss_newton, terminal, m):
    # dense BB^T, f' and K with distinct (a, b) and (b, a) entries catch a
    # transposed block that predator-prey's BB^T = I and symmetric K hide
    p = _random_dense_problem(n, seed=40 + n)
    tau = 0.1
    rng = np.random.default_rng(n)
    y = rng.standard_normal((m + 1, n))
    lam = rng.standard_normal((m + 1, n))
    if terminal:
        lam[-1] = y[-1] - p.y_target
    ab = _band_workspace(n, m)
    ab.fill(np.nan)
    _assemble_banded(ab, p, y, lam, tau, p.bbt() / p.alpha, gauss_newton,
                     terminal)
    expected = _dense_window_jacobian(p, y, lam, tau, gauss_newton, terminal)
    assert np.array_equal(_band_to_dense(ab, n), expected)
    assert np.count_nonzero(ab) == np.count_nonzero(expected)
    # the band is tight: the -I couplings reach exactly 2n
    i, j = np.nonzero(expected)
    assert np.abs(i - j).max() == propagators._bandwidth(n) == 2 * n


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("gauss_newton,terminal", VARIANTS)
def test_chunked_assembly_equals_one_chunk(n, gauss_newton, terminal,
                                           monkeypatch):
    # two full chunks and a short third one against a single chunk
    chunk = propagators._ASSEMBLY_CHUNK
    m = 2 * chunk + 37
    p = make_lotka_volterra() if n == 2 else _random_dense_problem(n, 50 + n)
    rng = np.random.default_rng(n)
    y = p.y_init + rng.standard_normal((m + 1, n))
    lam = rng.standard_normal((m + 1, n))
    if terminal:
        lam[-1] = y[-1] - p.y_target
    bands = []
    for size in (chunk, m):
        monkeypatch.setattr(propagators, "_ASSEMBLY_CHUNK", size)
        ab = _band_workspace(n, m)
        ab.fill(np.nan)
        bands.append(_assemble_banded(ab, p, y, lam, 1e-3, p.bbt() / p.alpha,
                                      gauss_newton, terminal))
    assert np.array_equal(bands[0], bands[1])


def _random_band_system(n, m, seed, nrhs=None):
    """A diagonally dominant system in gbsv storage and a right-hand side."""
    rng = np.random.default_rng(seed)
    l, size = propagators._bandwidth(n), 2 * n * m
    ab = np.zeros((3 * l + 1, size), order="F")
    ab[l:] = rng.uniform(-1.0, 1.0, (2 * l + 1, size))
    ab[2 * l] += 4.0 * l     # diagonal row
    rhs = rng.standard_normal(size if nrhs is None else (size, nrhs))
    return ab, rhs


def _factor_and_solve(n, ab, rhs, context):
    ab, x = ab.copy(order="F"), np.array(rhs, order="F")
    _band_solve(n, ab, _band_factor(n, ab, context), x)
    return x


@pytest.mark.parametrize("nrhs", [None, 4])     # one column, and 2n
def test_banded_solve_matches_scipy_dgbsv(nrhs):
    n = 2
    ab, rhs = _random_band_system(n, 60, seed=11, nrhs=nrhs)
    l = propagators._bandwidth(n)
    lu, ipiv_expected, expected, info = lapack.dgbsv(
        l, l, ab.copy(order="F"), rhs)
    assert info == 0
    ipiv = _band_factor(n, ab, "test")
    # dgbtrf leaves the factors and pivots dgbsv leaves (1-based pivots)
    assert np.array_equal(ab, lu)
    assert np.array_equal(ipiv, ipiv_expected + 1)
    # the solution overwrites the right-hand side
    x = np.array(rhs, order="F")
    _band_solve(n, ab, ipiv, x)
    assert np.array_equal(x, expected)
    # the factors are only read: a second back-solve gives the same answer
    x = np.array(rhs, order="F")
    _band_solve(n, ab, ipiv, x)
    assert np.array_equal(x, expected)


def test_banded_solve_rejects_singular_and_misfit_storage():
    n = 2
    ab, rhs = _random_band_system(n, 10, seed=12)
    ab[:, 7] = 0.0           # a zero column
    with pytest.raises(SingularStepError, match="lapack info=8"):
        _band_factor(n, ab, "test")
    ab, rhs = _random_band_system(n, 10, seed=12)
    with pytest.raises(ValueError):
        _band_factor(n, np.ascontiguousarray(ab), "test")
    ipiv = _band_factor(n, ab, "test")
    with pytest.raises(ValueError):
        _band_solve(n, ab, ipiv, rhs[:-1])
    with pytest.raises(ValueError):
        _band_solve(n, ab, ipiv.astype(np.int64), rhs)
    # a C-ordered matrix of columns is rejected, not copied
    with pytest.raises(ValueError):
        _band_solve(n, ab, ipiv, np.ones((len(rhs), 2)))


def test_concurrent_banded_solves_match_serial():
    n, m = 2, 20_000
    systems = [_random_band_system(n, m, seed=s, nrhs=k)
               for s, k in ((21, None), (22, 2))]
    serial = [_factor_and_solve(n, ab, rhs, "serial") for ab, rhs in systems]
    results = [[], []]
    start = threading.Barrier(2, timeout=30)

    def work(i):
        ab, rhs = systems[i]
        start.wait()
        for _ in range(5):
            results[i].append(_factor_and_solve(n, ab, rhs, f"thread {i}"))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    for expected, got in zip(serial, results):
        assert len(got) == 5
        assert all(np.array_equal(expected, x) for x in got)


def _run_fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this paraopt."""
    src = str(Path(propagators.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("preset", ["heat", "dahlquist", "lotka_volterra"])
def test_linear_runs_do_not_import_scipy_linalg(preset):
    # only a band factorization needs LAPACK; a linear solve, its reference
    # and the spectral table are numpy alone, and a predator-prey solve and
    # its reference load scipy's cython_lapack without the scipy.linalg
    # package
    out = _run_fresh(f"""
        import sys
        from paraopt import (ParaoptOptions, make_dahlquist, make_grid,
                             make_heat_1d, make_lotka_volterra, paraopt_solve,
                             reference_solve)
        from paraopt import linear_analysis as la
        problem = {{"heat": lambda: make_heat_1d(n=20),
                    "dahlquist": lambda: make_dahlquist(-1.0, 1.0),
                    "lotka_volterra": make_lotka_volterra}}[{preset!r}]()
        grid = (make_grid(1.0 / 3.0, 4, 500, 5) if {preset!r} == "lotka_volterra"
                else make_grid(1e-2, 4, 100, 10))
        options = ParaoptOptions(inner_solver="krylov", workers=2)
        report = paraopt_solve(problem, grid, options,
                               reference=reference_solve(problem, grid, options))
        la.spectral_summary(la.DahlquistSetup(-1.0, 1.0, grid))
        assert report.converged
        print("scipy.linalg" in sys.modules)
    """)
    assert out.split() == ["False"]


def test_scipy_linalg_imported_after_binding_shares_the_bound_module():
    # the binder drops the entry that the extension makes for itself, and
    # the package import later binds that same module object
    out = _run_fresh("""
        import ctypes, sys
        from paraopt import propagators
        routines = propagators._lapack()
        print("scipy.linalg" in sys.modules,
              propagators._CYTHON_LAPACK in sys.modules)
        import scipy.linalg
        capi = scipy.linalg.cython_lapack.__pyx_capi__
        print(scipy.linalg.cython_lapack
              is sys.modules[propagators._CYTHON_LAPACK],
              [ctypes.cast(f, ctypes.c_void_p).value for f in routines]
              == [propagators._capsule_address(capi[name])
                  for name in routines._fields])
    """)
    assert out.split() == ["False", "False", "True", "True"]


def test_binding_reuses_an_imported_scipy_linalg(monkeypatch):
    # this module imports scipy.linalg, so its cython_lapack is in
    # sys.modules: the binder takes it and loads nothing
    import scipy.linalg

    def load(spec):
        raise AssertionError(f"{spec.name} loaded a second time")

    monkeypatch.setattr(importlib.util, "module_from_spec", load)
    monkeypatch.setattr(propagators, "_lapack_routines", None)
    assert propagators._cython_lapack() is scipy.linalg.cython_lapack
    routines = propagators._lapack()
    capi = scipy.linalg.cython_lapack.__pyx_capi__
    assert ([ctypes.cast(f, ctypes.c_void_p).value for f in routines]
            == [propagators._capsule_address(capi[name])
                for name in routines._fields])


def test_band_factorization_without_scipy_raises_import_error(monkeypatch):
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args:
                        None if name == "scipy" else find_spec(name, *args))
    monkeypatch.delitem(sys.modules, propagators._CYTHON_LAPACK, raising=False)
    monkeypatch.setattr(propagators, "_lapack_routines", None)
    with pytest.raises(ImportError, match="scipy is not installed") as info:
        _band_factor(2, _band_workspace(2, 4), "test")
    assert info.value.name == "scipy"
    assert propagators._lapack_routines is None


def test_first_band_factorizations_in_two_threads_bind_once():
    # two predator-prey windows make the process's first factorizations at
    # once; the second thread waits on the binder's lock, and P and Q are
    # those of a serial run, bit for bit
    out = _run_fresh("""
        import sys, threading, time
        from paraopt import (default_initial_guess, fine_propagate, make_grid,
                             make_lotka_volterra, propagators)
        assert "scipy.linalg" not in sys.modules
        binds = []
        bind = propagators._bind_lapack

        def slow_bind():
            binds.append(threading.get_ident())
            time.sleep(0.05)
            return bind()

        propagators._bind_lapack = slow_bind
        p, g = make_lotka_volterra(), make_grid(1.0 / 3.0, 2, 2000, 20)
        X = default_initial_guess(p, g)
        results = {}
        start = threading.Barrier(2, timeout=30)

        def work(ell):
            start.wait()
            P, Q, _ = fine_propagate(p, g, ell, X.states[ell - 1],
                                     X.adjoints[ell - 1])
            results[ell] = P.tobytes().hex() + Q.tobytes().hex()

        threads = [threading.Thread(target=work, args=(ell,))
                   for ell in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        print(len(binds), results[1], results[2])
    """)
    p, g = make_lotka_volterra(), make_grid(1.0 / 3.0, 2, 2000, 20)
    X = default_initial_guess(p, g)
    serial = []
    for ell in (1, 2):
        P, Q, _ = fine_propagate(p, g, ell, X.states[ell - 1],
                                 X.adjoints[ell - 1])
        serial.append(P.tobytes().hex() + Q.tobytes().hex())
    assert out.split() == ["1"] + serial


def _warm_window(p, g):
    """Window 1 of a predator-prey grid at the default guess, with its
    coarse trajectory as the start."""
    X = default_initial_guess(p, g)
    Y, Lam = X.states[0], X.adjoints[0]
    lin = coarse_linearize(p, g, 1, Y, Lam)
    start = LocalTrajectory(
        g.fine_step, g.fine_steps,
        states=_interpolate_nodes(lin.trajectory.states, g.fine_steps),
        adjoints=_interpolate_nodes(lin.trajectory.adjoints, g.fine_steps))
    return Y, Lam, start


def _count_factorizations(monkeypatch):
    factored = []
    original = propagators._band_factor

    def counting(n, ab, context):
        factored.append(context)
        return original(n, ab, context)

    monkeypatch.setattr(propagators, "_band_factor", counting)
    return factored


def test_chord_steps_reuse_the_factors_of_a_warm_window(monkeypatch):
    # the first step cuts the residual 2.9e-2 -> 1.9e-5; three chord steps
    # on its factors take it to 5e-14
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 6, 50, 5)
    Y, Lam, start = _warm_window(p, g)
    factored = _count_factorizations(monkeypatch)
    _, _, traj = fine_propagate(p, g, 1, Y, Lam, start=start)
    assert factored == ["fine window 1"]
    assert traj.newton_iterations == 4       # chord steps count
    assert window_recurrence_residual(p, traj) <= 1e-12
    # a cold solve of the same window factors at every step
    factored.clear()
    _, _, cold = fine_propagate(p, g, 1, Y, Lam)
    assert len(factored) == cold.newton_iterations


def test_chord_step_that_does_not_lower_the_residual_is_redone(monkeypatch):
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 6, 50, 5)
    Y, Lam, start = _warm_window(p, g)
    with monkeypatch.context() as m:
        m.setattr(propagators, "_CHORD_CONTRACTION", 0.0)     # Newton only
        _, _, newton = fine_propagate(p, g, 1, Y, Lam, start=start)
    assert newton.newton_iterations == 3
    # every back-solve that does not follow a factorization (a chord step)
    # goes the wrong way, so it raises the residual
    factored = _count_factorizations(monkeypatch)
    chords = []
    solve = propagators._band_solve

    def wrong_way_chords(n, ab, ipiv, b):
        solve(n, ab, ipiv, b)
        if chords.count(False) < len(factored):
            chords.append(False)
            return
        chords.append(True)
        np.negative(b, out=b)

    monkeypatch.setattr(propagators, "_band_solve", wrong_way_chords)
    _, _, traj = fine_propagate(p, g, 1, Y, Lam, start=start)
    # each chord step is dropped and redone as a Newton step at the same
    # iterate: the Newton-only solve, with its factorizations
    assert chords == [False, True, False, True, False]
    assert len(factored) == 3
    assert traj.newton_iterations == newton.newton_iterations
    assert np.array_equal(traj.states, newton.states)
    assert np.array_equal(traj.adjoints, newton.adjoints)


def test_blocks_singular_step_names_its_window(monkeypatch):
    p = make_lotka_volterra()
    g = make_grid(1.0 / 3.0, 4, 40, 4)
    lin = coarse_linearize(p, g, 3, p.y_init, [1.0, 1.0])

    def singular(*args, **kwargs):
        raise SingularStepError("singular")

    monkeypatch.setattr(propagators, "_band_factor", singular)
    with pytest.raises(SingularStepError) as info:
        lin.blocks()
    assert info.value.subinterval == 3
    assert info.value.phase == "blocks"


@pytest.mark.parametrize("terminal", [False, True])
def test_chunked_trial_residual_equals_one_update_and_chunk(terminal,
                                                            monkeypatch):
    # the residual of (y, lam) + step * du, made chunk by chunk from the
    # nodes, against the update applied to whole copies and one chunk
    p = make_lotka_volterra()
    n, m, tau, step = 2, 40, 1e-2, 0.25
    rng = np.random.default_rng(5)
    y = p.y_init + rng.standard_normal((m + 1, n))
    lam = rng.standard_normal((m + 1, n))
    if terminal:
        lam[-1] = y[-1] - p.y_target
    du = rng.standard_normal(2 * n * m)
    bbt = p.bbt() / p.alpha
    y_new, lam_new = y.copy(), lam.copy()
    y_new[1:] += step * du.reshape(m, 2 * n)[:, n:]
    lam_new[:-1] += step * du.reshape(m, 2 * n)[:, :n]
    if terminal:
        lam_new[-1] = y_new[-1] - p.y_target
    whole, chunked = np.empty((m, 2 * n)), np.empty((m, 2 * n))
    monkeypatch.setattr(propagators, "_RESIDUAL_CHUNK", m)
    res = _nonlinear_residual(whole, p, y_new, lam_new, tau, bbt)
    assert res == np.abs(whole).max()
    monkeypatch.setattr(propagators, "_RESIDUAL_CHUNK", 7)
    assert _nonlinear_residual(chunked, p, y, lam, tau, bbt, du, step,
                               terminal) == res
    assert np.array_equal(chunked, whole)
    # a NaN in any chunk makes the norm NaN, as one max over the window does
    du[5] = np.nan
    assert np.isnan(_nonlinear_residual(chunked, p, y, lam, tau, bbt, du,
                                        step, terminal))


def _copying_window_solve(p, Y, Lam_plus, tau, m, start=None, tol=1e-12):
    """The window Newton with a new array per damping trial, the best trial
    kept whole and the right-hand side copied for each back-solve: what
    ``_solve_window_nonlinear`` computes in place.

    Returns (states, adjoints, iterations, halved trials, steps that took
    the best of failed trials, the residual at which the solve gives up or
    None).  It gives up as the window Newton does: after its step budget,
    on divergence, or after ``_STALL_STEPS`` steps in a row that lowered
    nothing while above ``tol``.
    """
    n = p.dim
    bbt = p.bbt() / p.alpha
    terminal, warm = Lam_plus is None, start is not None
    if warm:
        y, lam = start.states.copy(), start.adjoints.copy()
        y[0], lam[-1] = Y, Lam_plus
    else:
        y = np.tile(np.asarray(Y, dtype=float), (m + 1, 1))
        lam = np.tile(np.ones(n) if terminal
                      else np.asarray(Lam_plus, dtype=float), (m + 1, 1))
    if terminal:
        lam[-1] = y[-1] - p.y_target

    def update(du, step):
        y_new, lam_new = y.copy(), lam.copy()
        y_new[1:] += step * du.reshape(m, 2 * n)[:, n:]
        lam_new[:-1] += step * du.reshape(m, 2 * n)[:, :n]
        if terminal:
            lam_new[-1] = y_new[-1] - p.y_target
        R = np.empty((m, 2 * n))
        return (_nonlinear_residual(R, p, y_new, lam_new, tau, bbt),
                y_new, lam_new, R)

    def back_solve(rhs):
        du = rhs.copy()
        _band_solve(n, ab, ipiv, du)
        return du

    ab, ipiv = _band_workspace(n, m), None
    iters = halved = recovered = stalled = 0
    R = np.empty((m, 2 * n))
    res = _nonlinear_residual(R, p, y, lam, tau, bbt)
    res0 = max(res, 1.0)
    while res > tol or iters < warm:
        if iters >= propagators.DEFAULT_MAX_NEWTON:
            return y, lam, iters, halved, recovered, res
        rhs, best = -R.ravel(), None
        if ipiv is not None:
            best = update(back_solve(rhs), 1.0)
            if not best[0] < res:
                best = None
        if best is None:
            _assemble_banded(ab, p, y, lam, tau, bbt, False, terminal)
            ipiv = _band_factor(n, ab, "copying solve")
            du = back_solve(rhs)
            ipiv = ipiv if warm else None
            step = 1.0
            for _ in range(propagators._MAX_DAMPINGS + 1):
                trial = update(du, step)
                halved += step < 1.0
                if best is None or trial[0] < best[0]:
                    best = trial
                if trial[0] < res:
                    break
                step *= 0.5
            recovered += best is not trial
        if not best[0] <= propagators._CHORD_CONTRACTION * res:
            ipiv = None
        stalled = 0 if best[0] < res else stalled + 1
        res, y, lam, R = best
        iters += 1
        if not np.isfinite(res) or res > 1e8 * res0:
            return y, lam, iters, halved, recovered, res
        if stalled >= propagators._STALL_STEPS and res > tol:
            return y, lam, iters, halved, recovered, res
    return y, lam, iters, halved, recovered, None


@pytest.mark.parametrize("case", ["damped", "terminal", "warm", "recovering",
                                  "stalling"])
def test_in_place_window_solve_is_bitwise_the_copying_one(case, monkeypatch):
    # windows of 3 to 50 slots in chunks of 4.  All but "warm" halve steps;
    # "warm" takes chord steps; "recovering" has a step that takes the best
    # of eleven failed trials, evaluated again in place, and converges;
    # "stalling" stays at the round-off floor above the tolerance and gives
    # up after _STALL_STEPS such steps in a row, long before its step budget
    monkeypatch.setattr(propagators, "_RESIDUAL_CHUNK", 4)
    p = make_lotka_volterra()
    start, tol = None, propagators.DEFAULT_LOCAL_TOL
    T, m, Lam = {"damped": (1 / 3, 10, [30.0, -15.0]),
                 "terminal": (1.0, 3, None),
                 "warm": (1 / 18, 50, None),
                 "recovering": (1 / 3, 5, [30.0, 30.0]),
                 "stalling": (1 / 3, 5, [3.0, 3.0])}[case]
    Y, tau = p.y_init, T / m
    if case == "warm":
        Y, Lam, start = _warm_window(p, make_grid(1 / 3, 6, m, 5))
    if case == "recovering":
        tol = 1e-10
    y_expected, lam_expected, iters, halved, recovered, gave_up = \
        _copying_window_solve(p, Y, Lam, tau, m, start, tol)
    assert (halved > 0) == (case != "warm")
    assert (recovered > 0) == (case in ("recovering", "stalling"))
    assert (gave_up is not None) == (case == "stalling")
    if case == "warm":
        assert iters == 4        # one Newton step and three chord steps
    if case == "stalling":
        assert iters < propagators.DEFAULT_MAX_NEWTON

    def solve():
        return propagators._solve_window_nonlinear(
            p, Y, Lam, tau, m, tol, "test",
            start=None if start is None else (start.states, start.adjoints))

    if gave_up is not None:
        with pytest.raises(NewtonDivergenceError, match="stalled") as info:
            solve()
        assert info.value.residual == gave_up
        return
    y, lam, got_iters = solve()
    assert got_iters == iters
    assert np.array_equal(y, y_expected)
    assert np.array_equal(lam, lam_expected)


def test_cold_window_solve_holds_its_byte_model():
    # the model of the module docstring at n = 2: besides the 416 B band,
    # the iterate, R and du (32 B each) and the pivots (16 B) while they
    # live, 112 B per step; the pivots' phase is the peak.  Measured 112.1
    # at 200k steps; the slack of 16 B per step (3.2 MB) covers a residual
    # chunk's temporaries (about 2.5 MB, 12 B per step here; a 50k-step
    # window is two chunks, where they would add 48 B per step) and small
    # objects.  Binding LAPACK first keeps scipy's import out of the trace.
    p = make_lotka_volterra()
    m = 200_000
    propagators._lapack()
    tracemalloc.start()
    try:
        y, lam, _ = propagators._solve_window_nonlinear(
            p, p.y_init, None, (1 / 3) / m, m, propagators.DEFAULT_LOCAL_TOL,
            "test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.shape == lam.shape == (m + 1, 2)
    outside_band = peak / m - _band_workspace(2, 1).nbytes
    assert outside_band <= 112 + 16
