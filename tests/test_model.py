import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from paraopt import (ControlProblem, InvalidParameterError, InterfaceVector,
                     coarse_linearize, make_dahlquist, make_grid, make_heat_1d,
                     make_lotka_volterra)
from paraopt.model import periodic_laplacian, step_count

# distinct rates, so that a coefficient in the wrong slot shows
ALL_PROBLEMS = [
    lambda: make_lotka_volterra(),
    lambda: make_lotka_volterra(a1=1.5, b1=0.7, a2=0.3, b2=2.0),
    lambda: make_lotka_volterra(a1=0.4, b1=0.05, a2=1.1, b2=6.0),
    lambda: make_lotka_volterra(a1=7.0, b1=2.5, a2=0.9, b2=0.35),
]


def sample_states(problem, seed, rows=5):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 30.0, size=(rows, problem.dim))


@pytest.mark.parametrize("factory", ALL_PROBLEMS)
def test_jacobian_matches_finite_differences(factory):
    # jacobian_many against central differences of rhs_many, row by row
    problem = factory()
    Y = sample_states(problem, 7)
    J = problem.jacobian_many(Y)
    assert J.shape == (len(Y), problem.dim, problem.dim)
    eps = 1e-6 * (1.0 + np.linalg.norm(Y, axis=1, keepdims=True))
    for j in range(problem.dim):
        E = np.zeros_like(Y)
        E[:, j] = eps[:, 0]
        fd = (problem.rhs_many(Y + E) - problem.rhs_many(Y - E)) / (2 * eps)
        gap = np.linalg.norm(J[:, :, j] - fd, axis=1)
        assert np.all(gap <= 1e-5 * (1.0 + np.linalg.norm(J, axis=(1, 2))))


@pytest.mark.parametrize("factory", ALL_PROBLEMS)
def test_hessian_action_matches_jacobian_differences(factory):
    # hess_coupling_many(Y, Lam) z is the derivative of f'(y)^T lam in
    # direction z: compare with central differences of jacobian_many
    problem = factory()
    rng = np.random.default_rng(11)
    Y = sample_states(problem, 11)
    Lam = rng.standard_normal(Y.shape)
    K = problem.hess_coupling_many(Y, Lam)
    eps = 1e-6 * (1.0 + np.linalg.norm(Y, axis=1, keepdims=True))
    for j in range(problem.dim):
        E = np.zeros_like(Y)
        E[:, j] = eps[:, 0]
        dJ = (problem.jacobian_many(Y + E) - problem.jacobian_many(Y - E)) \
            / (2 * eps[:, :, None])
        fd = np.einsum("tik,ti->tk", dJ, Lam)     # d/dy_j (f'(y)^T lam)
        gap = np.linalg.norm(K[:, :, j] - fd, axis=1)
        assert np.all(gap <= 1e-5 * (1.0 + np.linalg.norm(K, axis=(1, 2))))


@pytest.mark.parametrize("factory", ALL_PROBLEMS)
def test_hessian_action_linear_in_direction(factory):
    # K(y, lam) is linear in the adjoint it contracts with
    problem = factory()
    rng = np.random.default_rng(3)
    Y = sample_states(problem, 3)
    lam1, lam2 = rng.standard_normal((2,) + Y.shape)
    a, b = 1.7, -0.3
    lhs = problem.hess_coupling_many(Y, a * lam1 + b * lam2)
    rhs = (a * problem.hess_coupling_many(Y, lam1)
           + b * problem.hess_coupling_many(Y, lam2))
    assert np.allclose(lhs, rhs, atol=1e-12 * (1 + np.abs(rhs).max()))


def test_dahlquist_values():
    p = make_dahlquist(-1.0, 1.0, 0.0, 0.0)
    assert p.is_linear
    assert np.array_equal(p.linear_matrix, [[-1.0]])
    assert np.array_equal(make_dahlquist(-16.0, 1.0).linear_matrix, [[-16.0]])
    assert p.rhs_many is p.jacobian_many is p.hess_coupling_many is None


def test_dahlquist_rejects_bad_alpha():
    with pytest.raises(InvalidParameterError):
        make_dahlquist(-1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        make_dahlquist(-1.0, -2.0)
    with pytest.raises(InvalidParameterError):
        make_dahlquist(-1.0, float("nan"))


def test_lotka_volterra_derivatives_at_initial_point():
    p = make_lotka_volterra()
    assert np.allclose(p.y_init, [20.0, 10.0])
    assert np.allclose(p.y_target, [100.0, 20.0])
    Y = np.array([[20.0, 10.0]])
    assert np.allclose(p.rhs_many(Y), [[160.0, -60.0]])
    assert np.allclose(p.jacobian_many(Y), [[[8.0, -4.0], [2.0, -6.0]]])
    # K(y, lam) = (a2*lam2 - b1*lam1) [[0, 1], [1, 0]]
    K = p.hess_coupling_many(Y, np.array([[1.0, 2.0]]))
    assert np.allclose(K, [[[0.0, 0.2], [0.2, 0.0]]])


def test_lotka_volterra_rejects_nonpositive_rates():
    with pytest.raises(InvalidParameterError):
        make_lotka_volterra(a1=0.0)
    with pytest.raises(InvalidParameterError):
        make_lotka_volterra(b2=-1.0)
    for alpha in (0.0, float("nan")):
        with pytest.raises(InvalidParameterError):
            make_lotka_volterra(alpha=alpha)


def test_lotka_volterra_hessian_symmetry():
    # K(y, lam) is the Hessian of lam^T f(y): symmetric for every (y, lam)
    rng = np.random.default_rng(5)
    for factory in ALL_PROBLEMS:
        p = factory()
        Y = sample_states(p, 5, rows=10)
        K = p.hess_coupling_many(Y, rng.standard_normal(Y.shape))
        assert np.array_equal(K, np.transpose(K, (0, 2, 1)))


def test_linear_problems_have_constant_jacobian_and_zero_hessian():
    # the window derivative blocks of a linear problem depend neither on the
    # base point (constant Jacobian) nor on dropping the second-derivative
    # coupling (zero Hessian)
    rng = np.random.default_rng(13)
    for p in (make_dahlquist(-3.0, 1.0), make_heat_1d(n=9)):
        assert p.is_linear
        g = make_grid(1.0, 2, 12, 4)
        Y1, L1, Y2, L2 = rng.standard_normal((4, p.dim))
        lin1 = coarse_linearize(p, g, 1, Y1, L1)
        lin2 = coarse_linearize(p, g, 1, Y2, L2)
        for a, b, c in zip(lin1.blocks(), lin2.blocks(),
                           lin1.blocks(gauss_newton=True)):
            assert np.array_equal(a, b) and np.array_equal(a, c)


def test_nonlinear_problem_needs_all_batch_callables():
    p = make_lotka_volterra()
    callables = dict(rhs_many=p.rhs_many, jacobian_many=p.jacobian_many,
                     hess_coupling_many=p.hess_coupling_many)
    base = dict(dim=2, alpha=1.0, y_init=[1.0, 1.0], y_target=[0.0, 0.0])
    assert not ControlProblem(**base, **callables).is_linear
    for missing in callables:
        with pytest.raises(InvalidParameterError):
            ControlProblem(**base, **{**callables, missing: None})
    # a linear problem carries only its matrix, which must be (n, n)
    assert ControlProblem(**base, linear_matrix=-np.eye(2)).is_linear
    with pytest.raises(InvalidParameterError):
        ControlProblem(**base, linear_matrix=np.eye(3))


def test_periodic_laplacian_properties():
    A = periodic_laplacian(50)
    assert np.allclose(A, A.T)
    assert np.abs(A @ np.ones(50)).max() <= 1e-9
    assert np.linalg.eigvalsh(A).max() <= 1e-9


def test_heat_laplacian_eigenvalues_match_dense_oracle():
    n = 50
    p = make_heat_1d(n=n)
    computed = np.sort(np.linalg.eigvalsh(p.linear_matrix))
    k = np.arange(n)
    expected = np.sort(-(4.0 * n * n) * np.sin(np.pi * k / n) ** 2)
    assert np.allclose(computed, expected, atol=1e-8 * n * n)
    assert np.isclose(computed[0], -10000.0)


def test_heat_control_operator_is_indicator():
    p = make_heat_1d(n=50, control_support=(1 / 3, 2 / 3))
    B = p.control_operator
    x = np.arange(50) / 50.0
    assert np.allclose(np.diag(B), ((x >= 1 / 3) & (x <= 2 / 3)).astype(float))
    assert np.allclose(B, np.diag(np.diag(B)))
    # full support reduces to the identity
    assert np.allclose(make_heat_1d(n=10, control_support=(0.0, 1.0)).bbt(),
                       np.eye(10))


def test_heat_problems_share_read_only_dynamics():
    p = make_heat_1d(n=30)
    q = make_heat_1d(n=30, alpha=2.0, y_init_fn=np.cos, y_target_fn=np.sin)
    assert p.linear_matrix is q.linear_matrix
    assert p.control_operator is q.control_operator
    for M in (p.linear_matrix, p.control_operator):
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
    # bitwise the arrays a fresh build makes
    assert np.array_equal(p.linear_matrix, periodic_laplacian(30))
    wider = make_heat_1d(n=30, control_support=(0.0, 0.5))
    finer = make_heat_1d(n=31)
    assert wider.control_operator is not p.control_operator
    assert not np.array_equal(wider.control_operator, p.control_operator)
    assert finer.linear_matrix is not p.linear_matrix
    assert finer.control_operator is not p.control_operator
    # A does not depend on the support
    assert wider.linear_matrix is p.linear_matrix


def test_heat_dynamics_shared_under_contention():
    # more threads than cores and a short switch interval: a check-then-act
    # race in the cache would hand two problems of one n different arrays
    threads_n, rounds, sizes = 8, 10, (33, 34, 35)
    made = [[] for _ in range(threads_n)]
    start = threading.Barrier(threads_n, timeout=30)

    def work(i):
        for _ in range(rounds):
            start.wait()
            made[i].extend(make_heat_1d(n=n) for n in sizes)

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
    problems = [p for ps in made for p in ps]
    assert len(problems) == threads_n * rounds * len(sizes)
    for n in sizes:
        same = [p for p in problems if p.dim == n]
        assert len({id(p.linear_matrix) for p in same}) == 1
        assert len({id(p.control_operator) for p in same}) == 1


def test_periodic_laplacian_returns_a_fresh_writable_array():
    p = make_heat_1d(n=30)
    A, B = periodic_laplacian(30), periodic_laplacian(30)
    assert A is not B and A is not p.linear_matrix
    A[0, 0] = 1.0
    assert p.linear_matrix[0, 0] == B[0, 0] == -2.0 * 30 ** 2


def test_heat_dynamics_go_with_their_last_problem():
    p = make_heat_1d(n=257)
    refs = [weakref.ref(p.linear_matrix), weakref.ref(p.control_operator)]
    q = make_heat_1d(n=257)
    del p
    gc.collect()
    assert all(ref() is not None for ref in refs)   # q still holds them
    del q
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_heat_default_profiles_sampled_at_nodes():
    p = make_heat_1d(n=50)
    x = np.arange(50) / 50.0
    assert np.allclose(p.y_init, np.exp(-100 * (x - 0.5) ** 2))
    assert np.allclose(p.y_target, 0.5 * np.exp(-100 * (x - 0.25) ** 2)
                       + 0.5 * np.exp(-100 * (x - 0.75) ** 2))


def test_heat_rejects_bad_support_and_size():
    with pytest.raises(InvalidParameterError):
        make_heat_1d(n=2)
    with pytest.raises(InvalidParameterError):
        make_heat_1d(control_support=(-0.1, 0.5))
    with pytest.raises(InvalidParameterError):
        make_heat_1d(control_support=(0.2, 1.3))
    for alpha in (0.0, float("nan")):
        with pytest.raises(InvalidParameterError):
            make_heat_1d(alpha=alpha)


def test_make_grid_reference_configuration():
    g = make_grid(100.0, 30, 5000, 50)
    assert np.isclose(g.sub_length, 10.0 / 3.0)
    assert np.isclose(g.coarse_step, g.sub_length / 50)
    assert np.isclose(g.fine_step, g.sub_length / 5000)
    assert g.horizon == g.num_subintervals * g.fine_steps * g.fine_step


def test_make_grid_degenerate_and_ratio():
    g = make_grid(1.0, 1, 1, 1)
    assert g.fine_step == g.coarse_step == g.sub_length == 1.0
    for k in (1, 3):
        g = make_grid(1.0 / 3.0, 10, 10_000 * k, k)
        assert np.isclose(g.coarse_steps / g.fine_steps, 1e-4)


def test_make_grid_rejects_bad_counts():
    for bad in ((1.0, 10, 0, 1), (1.0, 10, 4, 0), (1.0, 10, 2, 4),
                (1.0, 0, 4, 2), (-1.0, 10, 4, 2)):
        with pytest.raises(InvalidParameterError):
            make_grid(*bad)


@pytest.mark.parametrize("value,expected", [
    (100.0, 100), (1e4 * (1 + 5e-10), 10_000), (1.0 - 5e-10, 1),
    (2.5, None), (0.0, None), (100.0 + 1e-6, None)])
def test_step_count_accepts_integers_within_slack(value, expected):
    if expected is None:
        with pytest.raises(InvalidParameterError):
            step_count(value, "steps")
    else:
        count = step_count(value, "steps")
        assert count == expected and isinstance(count, int)


def test_interface_vector_roundtrip_and_validation():
    L, n = 4, 3
    rng = np.random.default_rng(0)
    X = InterfaceVector(rng.standard_normal((L + 1, n)),
                        rng.standard_normal((L, n)))
    stacked = X.to_stacked()
    assert stacked.shape == (n * (2 * L + 1),)
    Y = InterfaceVector.from_stacked(stacked, L, n)
    assert np.array_equal(Y.states, X.states)
    assert np.array_equal(Y.adjoints, X.adjoints)
    with pytest.raises(InvalidParameterError):
        InterfaceVector(np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(InvalidParameterError):
        InterfaceVector.from_stacked(np.zeros(7), 2, 2)
