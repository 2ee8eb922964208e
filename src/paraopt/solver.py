"""The outer interface iteration: inexact Newton with a coarse Jacobian.

The unknowns are the stacked interface values X = (Y_0..Y_L, Lam_1..Lam_L).
The nonlinear residual enforces the matching conditions

    Y_0 - y_init,
    Y_l - P(Y_{l-1}, Lam_l)            l = 1..L,
    Lam_l - Q(Y_l, Lam_{l+1})          l = 1..L-1,
    Lam_L - Y_L + y_target,

with P, Q the fine window propagators.  Each outer step solves
J^G(X) dX = -F(X) where J^G carries the *coarse* derivative blocks of P and
Q, then updates X += dX.  The L window solves of a residual evaluation and
the L coarse linearizations are independent tasks run on a worker pool;
assembly and norms happen in a fixed order, so results are identical for
any worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._parallel import parallel_map, resolve_workers
from .errors import (InvalidParameterError, NewtonDivergenceError,
                     NoConvergenceError, SingularStepError)
from .model import ControlProblem, InterfaceVector, TimeGrid
from .propagators import (_linear_ops, _solve_window_nonlinear,
                          coarse_linearize, fine_propagate,
                          window_recurrence_residual)

Array = np.ndarray

INNER_KRYLOV = "krylov"
INNER_DIRECT = "assembled_direct"
VARIANT_NEWTON = "newton"
VARIANT_GAUSS_NEWTON = "gauss_newton"
GUESS_PAPER = "paper_default"
GUESS_ZEROS = "zeros"
GUESS_USER = "user_supplied"


@dataclass(frozen=True)
class ParaoptOptions:
    """Tolerances and strategy switches of the outer iteration."""

    outer_tol: float = 1e-13
    max_outer: int = 50
    inner_solver: str = INNER_KRYLOV
    inner_tol: float = 1e-10
    inner_max_iters: Optional[int] = None   # None: the stacked dimension
    variant: str = VARIANT_NEWTON
    initial_guess: str = GUESS_PAPER
    local_tol: float = 1e-12
    local_max_newton: int = 50
    workers: Optional[int] = None           # None: min(L, cores)
    divergence_factor: float = 1e8
    verify_final: bool = False

    def __post_init__(self):
        if self.outer_tol <= 0 or self.inner_tol <= 0 or self.local_tol <= 0:
            raise InvalidParameterError("tolerances must be positive")
        if self.max_outer < 1 or self.local_max_newton < 1:
            raise InvalidParameterError("iteration limits must be >= 1")
        if self.inner_solver not in (INNER_KRYLOV, INNER_DIRECT):
            raise InvalidParameterError(f"unknown inner solver {self.inner_solver!r}")
        if self.variant not in (VARIANT_NEWTON, VARIANT_GAUSS_NEWTON):
            raise InvalidParameterError(f"unknown variant {self.variant!r}")
        if self.initial_guess not in (GUESS_PAPER, GUESS_ZEROS, GUESS_USER):
            raise InvalidParameterError(f"unknown initial guess {self.initial_guess!r}")


@dataclass
class InnerStats:
    mode: str
    iterations: int
    relative_residual: float
    converged: bool


@dataclass
class ConvergenceReport:
    """Per-iteration history of one outer solve."""

    converged: bool
    iterations: int
    residuals: Array                 # len iterations+1, starts at X^0
    errors: Optional[Array]          # vs reference, same length; None if absent
    inner_iterations: list           # per outer step
    wall_times: Array                # seconds per history row
    final: InterfaceVector
    message: str = ""
    verified_residual: Optional[float] = None
    # per history row: the Newton steps of the L fine windows, window order
    newton_iterations: list = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1])

    def history_rows(self):
        """Rows (iter, residual_inf, err_inf, inner_iters, wall_seconds)."""
        rows = []
        for k in range(len(self.residuals)):
            rows.append((
                k,
                float(self.residuals[k]),
                float(self.errors[k]) if self.errors is not None else float("nan"),
                int(self.inner_iterations[k - 1]) if k >= 1 else 0,
                float(self.wall_times[k]),
            ))
        return rows


def default_initial_guess(problem: ControlProblem, grid: TimeGrid,
                          zero_adjoints: bool = False) -> InterfaceVector:
    """Linear interpolation between endpoints; unit (or zero) adjoints."""
    theta = grid.interface_times() / grid.horizon
    states = np.outer(1.0 - theta, problem.y_init) + np.outer(theta, problem.y_target)
    L = grid.num_subintervals
    adjoints = (np.zeros((L, problem.dim)) if zero_adjoints
                else np.ones((L, problem.dim)))
    return InterfaceVector(states, adjoints)


def _window_task(solve, problem, grid, X, tol, max_newton, starts=None):
    """Task solving window ell from X; a window failure names the window."""
    def task(ell):
        warm = {} if starts is None else {"start": starts[ell - 1]}
        try:
            return solve(problem, grid, ell, X.states[ell - 1],
                         X.adjoints[ell - 1], tol, max_newton, **warm)
        except (NewtonDivergenceError, SingularStepError) as exc:
            exc.subinterval = ell
            raise
    return task


def residual(problem: ControlProblem, grid: TimeGrid, X: InterfaceVector,
             tol: float = 1e-12, max_newton: int = 50,
             workers: int = 1, starts: Optional[list] = None):
    """Matching-condition residual F(X) and the window trajectories.

    ``starts`` holds the L fine trajectories of an earlier call on the same
    grid; each window's Newton iteration starts from its own (see
    :func:`fine_propagate`).
    """
    L = grid.num_subintervals
    n = problem.dim
    if X.num_subintervals != L or X.dim != n:
        raise InvalidParameterError("interface vector does not fit the grid")
    if starts is not None and len(starts) != L:
        raise InvalidParameterError("need one start trajectory per window")
    results = parallel_map(
        _window_task(fine_propagate, problem, grid, X, tol, max_newton,
                     starts),
        range(1, L + 1), workers)
    F = np.empty((2 * L + 1, n))
    F[0] = X.states[0] - problem.y_init
    for ell in range(1, L + 1):
        F[ell] = X.states[ell] - results[ell - 1][0]
    for ell in range(1, L):
        F[L + ell] = X.adjoints[ell - 1] - results[ell][1]
    F[2 * L] = X.adjoints[L - 1] - X.states[L] + problem.y_target
    return F.ravel(), [r[2] for r in results]


def apply_approx_jacobian(linearizations: list, dX: Array,
                          variant: str = VARIANT_NEWTON,
                          workers: int = 1) -> Array:
    """Apply the coarse interface Jacobian built from the window blocks."""
    L = len(linearizations)
    dX = np.asarray(dX, dtype=float)
    if dX.size != linearizations[0].problem.dim * (2 * L + 1):
        raise InvalidParameterError("vector length does not match L windows")
    return _jacobian_matvec(linearizations, variant, workers)[0](dX)


def _jacobian_matvec(linearizations, variant, workers):
    """Fast operator built from the cached window derivative blocks."""
    L = len(linearizations)
    problem = linearizations[0].problem
    n = problem.dim
    gn = variant == VARIANT_GAUSS_NEWTON
    blocks = parallel_map(lambda lin: lin.blocks(gn), linearizations, workers)

    def matvec(v):
        w = v.reshape(2 * L + 1, n)
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
        return out.ravel()

    return matvec, blocks


def _assemble_jacobian(blocks, n) -> Array:
    L = len(blocks)
    D = n * (2 * L + 1)
    J = np.zeros((D, D))

    def put(i, j, B):
        J[n * i:n * (i + 1), n * j:n * (j + 1)] = B

    eye = np.eye(n)
    put(0, 0, eye)
    for ell in range(1, L + 1):
        Py, Pl, _, _ = blocks[ell - 1]
        put(ell, ell, eye)
        put(ell, ell - 1, -Py)
        put(ell, L + ell, -Pl)
    for ell in range(1, L):
        _, _, Qy, Ql = blocks[ell]
        put(L + ell, L + ell, eye)
        put(L + ell, ell, -Qy)
        put(L + ell, L + ell + 1, -Ql)
    put(2 * L, 2 * L, eye)
    put(2 * L, L, -eye)
    return J


def gmres(matvec: Callable[[Array], Array], b: Array, tol: float,
          max_iters: int):
    """Full (unrestarted, unpreconditioned) GMRES from the zero iterate.

    Arnoldi with modified Gram-Schmidt and Givens rotations; stops when the
    relative residual drops below ``tol``.  Returns (x, iterations, relative
    residual, converged).
    """
    b = np.asarray(b, dtype=float)
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros_like(b), 0, 0.0, True
    D = b.size
    max_iters = min(max_iters, D)
    V = np.empty((max_iters + 1, D))
    H = np.zeros((max_iters + 1, max_iters))
    cs = np.empty(max_iters)
    sn = np.empty(max_iters)
    g = np.zeros(max_iters + 1)
    V[0] = b / beta
    g[0] = beta
    k = 0
    relres = 1.0
    for j in range(max_iters):
        w = matvec(V[j])
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w = w - H[i, j] * V[i]
        h_next = np.linalg.norm(w)
        for i in range(j):
            t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = t
        r = np.hypot(H[j, j], h_next)
        if r == 0.0:
            cs[j], sn[j] = 1.0, 0.0
        else:
            cs[j], sn[j] = H[j, j] / r, h_next / r
        H[j, j] = r
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]
        k = j + 1
        relres = abs(g[j + 1]) / beta
        if relres <= tol or h_next == 0.0:  # happy breakdown: exact in span
            break
        if j + 1 < max_iters:
            V[j + 1] = w / h_next
    y = np.linalg.solve(H[:k, :k], g[:k]) if k else np.zeros(0)
    x = V[:k].T @ y if k else np.zeros_like(b)
    return x, k, relres, relres <= tol


def solve_jacobian_system(linearizations: list, rhs: Array,
                          options: ParaoptOptions, workers: int = 1):
    """Solve J^G dX = rhs by full GMRES or by assembled dense LU."""
    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise InvalidParameterError("right-hand side must be finite")
    n = linearizations[0].problem.dim
    matvec, blocks = _jacobian_matvec(linearizations, options.variant, workers)
    if options.inner_solver == INNER_DIRECT:
        J = _assemble_jacobian(blocks, n)
        dX = np.linalg.solve(J, rhs)
        res = np.linalg.norm(J @ dX - rhs) / max(np.linalg.norm(rhs), 1e-300)
        return dX, InnerStats(INNER_DIRECT, 0, float(res), True)
    max_iters = options.inner_max_iters or rhs.size
    dX, iters, relres, ok = gmres(matvec, rhs, options.inner_tol, max_iters)
    return dX, InnerStats(INNER_KRYLOV, iters, float(relres), ok)


def _initial_vector(problem, grid, options, x0) -> InterfaceVector:
    if options.initial_guess == GUESS_USER:
        if x0 is None:
            raise InvalidParameterError("user_supplied guess requires x0")
        return x0.copy()
    if x0 is not None:
        raise InvalidParameterError(
            "x0 given but initial_guess is not 'user_supplied'")
    return default_initial_guess(problem, grid,
                                 zero_adjoints=options.initial_guess == GUESS_ZEROS)


def verify_residual(problem: ControlProblem, grid: TimeGrid,
                    X: InterfaceVector, options: ParaoptOptions) -> float:
    """Independent re-check of ||F(X)||_inf with fresh, tighter window solves."""
    F, trajs = residual(problem, grid, X, tol=options.local_tol / 10.0,
                        max_newton=options.local_max_newton + 10, workers=1)
    worst = max(window_recurrence_residual(problem, t) for t in trajs)
    if worst > options.local_tol:
        raise NewtonDivergenceError(
            f"verification windows missed their tolerance ({worst:.3e})",
            residual=worst)
    return float(np.abs(F).max())


def paraopt_solve(problem: ControlProblem, grid: TimeGrid,
                  options: Optional[ParaoptOptions] = None,
                  reference: Optional[InterfaceVector] = None,
                  x0: Optional[InterfaceVector] = None) -> ConvergenceReport:
    """Run the outer iteration until ||F||_inf <= outer_tol.

    When ``reference`` is given, the max-norm interface error against it is
    recorded per iteration (the convergence-history metric of the
    experiments).  Each residual evaluation after the first warm-starts the
    fine windows from the trajectories of the previous one.  Returns a
    report; ``converged`` is False when the iteration limit or the
    divergence guard hits.
    """
    options = options or ParaoptOptions()
    L = grid.num_subintervals
    workers = resolve_workers(options.workers, L)
    X = _initial_vector(problem, grid, options, x0)

    residuals = []
    errors = [] if reference is not None else None
    inner_iterations = []
    wall_times = []
    newton_iterations = []
    message = ""

    def record(F, trajs, seconds):
        residuals.append(float(np.abs(F).max()))
        if errors is not None:
            errors.append(X.diff_inf(reference))
        wall_times.append(seconds)
        newton_iterations.append(tuple(t.newton_iterations for t in trajs))

    t0 = time.perf_counter()
    F, trajs = residual(problem, grid, X, options.local_tol,
                        options.local_max_newton, workers)
    record(F, trajs, time.perf_counter() - t0)

    converged = residuals[0] <= options.outer_tol
    guard = options.divergence_factor * max(residuals[0], 1e-300)
    while not converged and len(residuals) <= options.max_outer:
        t0 = time.perf_counter()
        lins = parallel_map(
            _window_task(coarse_linearize, problem, grid, X,
                         options.local_tol, options.local_max_newton),
            range(1, L + 1), workers)
        dX, stats = solve_jacobian_system(lins, -F, options, workers)
        X = InterfaceVector.from_stacked(X.to_stacked() + dX, L, problem.dim)
        F, trajs = residual(problem, grid, X, options.local_tol,
                            options.local_max_newton, workers, starts=trajs)
        inner_iterations.append(stats.iterations)
        record(F, trajs, time.perf_counter() - t0)
        converged = residuals[-1] <= options.outer_tol
        if not converged and residuals[-1] > guard:
            message = "divergence guard triggered"
            break
    if not converged and not message:
        message = "iteration limit reached"

    report = ConvergenceReport(
        converged=converged,
        iterations=len(residuals) - 1,
        residuals=np.array(residuals),
        errors=None if errors is None else np.array(errors),
        inner_iterations=inner_iterations,
        wall_times=np.array(wall_times),
        final=X,
        message=message,
        newton_iterations=newton_iterations,
    )
    if options.verify_final and converged:
        report.verified_residual = verify_residual(problem, grid, X, options)
    return report


def reference_solve(problem: ControlProblem, grid: TimeGrid,
                    options: Optional[ParaoptOptions] = None
                    ) -> InterfaceVector:
    """Converged fine-grid interface values on ``grid``.

    Solves the discrete optimality system of the whole horizon sequentially
    on the fine step and samples it at the interface times of ``grid``.
    Nonlinear problems take one damped banded Newton solve of all fine steps
    with the terminal condition built in (tolerance ``local_tol``, at most
    ``local_max_newton`` steps).  Linear problems take the outer iteration on
    the one-window grid, whose exact derivative blocks converge in one step,
    and are restricted with the closed-form window maps.  Raises
    :class:`NoConvergenceError` when the solve fails.
    """
    options = options or ParaoptOptions()
    single = grid.with_single_subinterval()
    L, N = grid.num_subintervals, grid.fine_steps
    if not problem.is_linear:
        try:
            y, lam, _ = _solve_window_nonlinear(
                problem, problem.y_init, None, single.fine_step,
                single.fine_steps, options.local_tol,
                options.local_max_newton, context="reference")
        except NewtonDivergenceError as exc:
            raise NoConvergenceError(
                f"reference solve diverged: {exc}") from exc
        idx = np.arange(L + 1) * N
        return InterfaceVector(y[idx], lam[idx[1:]])
    report = paraopt_solve(problem, single, options)
    if not report.converged:
        raise NoConvergenceError("reference solve did not converge",
                                 report=report)
    ops = _linear_ops(problem, grid.fine_step, N)
    adj = np.empty((L, problem.dim))
    adj[L - 1] = report.final.adjoints[0]
    for ell in range(L - 1, 0, -1):
        adj[ell - 1] = ops.SNT @ adj[ell]
    states = np.empty((L + 1, problem.dim))
    states[0] = report.final.states[0]
    for ell in range(L):
        states[ell + 1] = ops.SN @ states[ell] - (ops.G @ adj[ell]) / problem.alpha
    return InterfaceVector(states, adj)
