"""The outer interface iteration: inexact Newton with a coarse Jacobian.

The unknowns are the stacked interface values X = (Y_0..Y_L, Lam_1..Lam_L).
The nonlinear residual enforces the matching conditions

    Y_0 - y_init,
    Y_l - P(Y_{l-1}, Lam_l)            l = 1..L,
    Lam_l - Q(Y_l, Lam_{l+1})          l = 1..L-1,
    Lam_L - Y_L + y_target,

with P, Q the fine window propagators.  Each outer step solves
J^G(X) dX = -F(X) where J^G carries the *coarse* derivative blocks of P and
Q, then updates X += dX.  Each window carries one state through the
iteration: its coarse and its fine trajectory at the last iterate.  Every
history row takes one path: linearize the coarse windows at the iterate,
run the fine pass of its residual, replace the states.  Each window's task
builds its fine start from its state, a prediction of where the fine window
lands: at X^0 the coarse trajectory interpolated onto the fine nodes,
afterwards the Parareal update F_old + G_new - G_old of the previous fine
trajectory, so the fine Newton iterations only correct.  Building the start
frees the window's old coarse trajectory.  The L window solves of a
residual evaluation and the L coarse linearizations are independent tasks
run on a worker pool; assembly and norms happen in a fixed order, so
results are identical for any worker count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._parallel import parallel_map, resolve_workers
from .errors import (InvalidParameterError, NewtonDivergenceError,
                     NoConvergenceError, SingularMatrixError,
                     SingularStepError)
from .model import ControlProblem, InterfaceVector, TimeGrid
from .propagators import (DEFAULT_LOCAL_TOL, LocalTrajectory,
                          _interpolate_nodes, _solve_window_nonlinear,
                          coarse_linearize, fine_propagate,
                          window_recurrence_residual)

Array = np.ndarray

INNER_KRYLOV = "krylov"
INNER_DIRECT = "assembled_direct"
VARIANT_NEWTON = "newton"
VARIANT_GAUSS_NEWTON = "gauss_newton"
# the outer loop stops once ||F|| exceeds this multiple of ||F(X^0)||
DIVERGENCE_FACTOR = 1e8


@dataclass(frozen=True)
class ParaoptOptions:
    """Tolerances and strategy switches of the outer iteration."""

    outer_tol: float = 1e-13
    max_outer: int = 50
    inner_solver: str = INNER_KRYLOV
    inner_tol: float = 1e-10
    variant: str = VARIANT_NEWTON
    local_tol: float = DEFAULT_LOCAL_TOL
    # None: min(L, usable CPUs).  Linear problems run their windows inline
    # whatever the count: a closed-form window takes microseconds, less
    # than starting a pool
    workers: Optional[int] = None

    def __post_init__(self):
        for name in ("outer_tol", "inner_tol", "local_tol"):
            tol = getattr(self, name)
            if not 0 < tol < math.inf:      # NaN fails both comparisons
                raise InvalidParameterError(
                    f"{name} must be finite and positive, got {tol!r}")
        if not (isinstance(self.max_outer, (int, np.integer))
                and self.max_outer >= 1):
            raise InvalidParameterError(
                f"max_outer must be a positive integer, got {self.max_outer!r}")
        if self.inner_solver not in (INNER_KRYLOV, INNER_DIRECT):
            raise InvalidParameterError(f"unknown inner solver {self.inner_solver!r}")
        if self.variant not in (VARIANT_NEWTON, VARIANT_GAUSS_NEWTON):
            raise InvalidParameterError(f"unknown variant {self.variant!r}")
        if self.workers is not None and not (
                isinstance(self.workers, (int, np.integer))
                and self.workers >= 1):
            raise InvalidParameterError("workers must be a positive integer")


@dataclass
class InnerStats:
    iterations: int
    converged: bool
    relative_residual: float = 0.0


@dataclass
class ConvergenceReport:
    """Per-iteration history of one outer solve."""

    converged: bool
    iterations: int
    residuals: Array                 # len iterations+1, starts at X^0
    errors: Optional[Array]          # vs reference, same length; None if absent
    inner_iterations: list           # per outer step
    # seconds per history row: row 0 the coarse linearizations at X^0 and
    # the first residual, row k outer step k (inner solve, then the coarse
    # linearizations and the residual at the new iterate)
    wall_times: Array
    final: InterfaceVector
    message: str = ""
    # per history row: the Newton steps (chord steps included) of the L fine
    # windows, in window order
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


def default_initial_guess(problem: ControlProblem,
                          grid: TimeGrid) -> InterfaceVector:
    """The paper's guess: states interpolate the endpoints, adjoints are 1."""
    theta = grid.interface_times() / grid.horizon
    states = np.outer(1.0 - theta, problem.y_init) + np.outer(theta, problem.y_target)
    return InterfaceVector(states, np.ones((grid.num_subintervals, problem.dim)))


def _check_fits(problem, grid, X, name):
    if X.num_subintervals != grid.num_subintervals or X.dim != problem.dim:
        raise InvalidParameterError(f"{name} does not fit the grid")


def _window_task(solve, phase, problem, grid, X, tol, starts=None):
    """Task solving window ell from X; a failure names the window and phase."""
    def task(ell):
        warm = {} if starts is None else {"start": starts[ell - 1]}
        try:
            return solve(problem, grid, ell, X.states[ell - 1],
                         X.adjoints[ell - 1], tol, **warm)
        except (NewtonDivergenceError, SingularStepError) as exc:
            exc.subinterval = ell
            exc.phase = phase
            raise
    return task


class _WindowState:
    """One window's coarse and fine trajectories at the last iterate.

    The outer iteration carries one state per window from iterate to
    iterate; both trajectories are None before the first residual.
    """

    def __init__(self):
        self.coarse = self.fine = None

    def start(self, coarse: LocalTrajectory,
              grid: TimeGrid) -> LocalTrajectory:
        """The start of the window's fine solve at a new iterate.

        ``coarse`` is the window's coarse trajectory at that iterate.  At
        the first iterate the start is ``coarse`` interpolated onto the fine
        nodes; afterwards it is the Parareal update F_old + G_new - G_old:
        the state's fine trajectory plus the change from its coarse
        trajectory to ``coarse``, interpolated onto the fine nodes and added
        in place, so the old fine trajectory is not read again.  The start
        is built on first access, inside the window's task; building it
        replaces the state's coarse trajectory by ``coarse``, so the old one
        is freed before the fine solve.  A linear window is closed-form and
        never builds its start.
        """
        steps = grid.fine_steps

        def build():
            old, self.coarse = self.coarse, coarse
            if old is None:
                return (_interpolate_nodes(coarse.states, steps),
                        _interpolate_nodes(coarse.adjoints, steps))
            y, lam = self.fine.states, self.fine.adjoints
            y += _interpolate_nodes(coarse.states - old.states, steps)
            lam += _interpolate_nodes(coarse.adjoints - old.adjoints, steps)
            return y, lam
        return LocalTrajectory(grid.fine_step, steps, builder=build)


def residual(problem: ControlProblem, grid: TimeGrid, X: InterfaceVector,
             tol: float = DEFAULT_LOCAL_TOL, workers: int = 1,
             starts: Optional[list] = None):
    """Matching-condition residual F(X) and the window trajectories.

    ``starts`` holds L trajectories on the fine grid; each window's Newton
    iteration starts from its own (see :func:`fine_propagate`).  The outer
    iteration passes the predicted starts of :meth:`_WindowState.start`,
    which each window's task builds when its solve reads them.
    """
    L = grid.num_subintervals
    n = problem.dim
    _check_fits(problem, grid, X, "interface vector")
    if starts is not None and len(starts) != L:
        raise InvalidParameterError("need one start trajectory per window")
    results = parallel_map(
        _window_task(fine_propagate, "fine", problem, grid, X, tol, starts),
        range(1, L + 1), workers)
    F = np.empty((2 * L + 1, n))
    F[0] = X.states[0] - problem.y_init
    for ell in range(1, L + 1):
        F[ell] = X.states[ell] - results[ell - 1][0]
    for ell in range(1, L):
        F[L + ell] = X.adjoints[ell - 1] - results[ell][1]
    F[2 * L] = X.adjoints[L - 1] - X.states[L] + problem.y_target
    return F.ravel(), [r[2] for r in results]


class _WindowBlocks(NamedTuple):
    """The derivative blocks of the L windows, each kind an (L, n, n) stack.

    Entry l - 1 holds window l's block.  ``shared``: every window holds the
    one read-only block set of a linear problem (``_LinearOps.blocks``,
    whose Q_y is zero), broadcast over the windows, not copied.
    """

    Py: Array
    Pl: Array
    Qy: Array
    Ql: Array
    shared: bool


def _window_blocks(linearizations, variant, workers) -> _WindowBlocks:
    """The windows' derivative blocks, from one parallel map over them."""
    L = len(linearizations)
    gn = variant == VARIANT_GAUSS_NEWTON
    blocks = parallel_map(lambda lin: lin.blocks(gn), linearizations, workers)
    if linearizations[0].problem.is_linear:
        return _WindowBlocks(*(np.broadcast_to(b, (L,) + b.shape)
                               for b in blocks[0]), shared=True)
    return _WindowBlocks(*(np.stack(kind) for kind in zip(*blocks)),
                         shared=False)


def _jacobian_matvec(blocks: _WindowBlocks):
    """The coarse interface Jacobian J^G as an operator on (2L+1)n rows.

    The operator takes a vector or a matrix of k columns and applies each
    kind of block to all windows at once:

    * a shared block set (linear problems) has a zero Q_y.  The
      (Y_{l-1}, Lam_l) pairs of all windows and columns form one
      (2n, L*k) panel, and the Lam_{l+1} one (n, (L-1)*k) panel, so J^G
      takes one GEMM with [P_y P_lam] and one with Q_lam;
    * otherwise each window has its own blocks: one stacked ``np.matmul``
      per block kind, each window's product bitwise equal to that block
      times that window's slice.
    """
    L, n = blocks.Py.shape[:2]
    if blocks.shared:
        P = np.hstack((blocks.Py[0], blocks.Pl[0]))
        Ql = blocks.Ql[0]
    else:
        Py, Pl = blocks.Py, blocks.Pl
        Qy, Ql = blocks.Qy[1:], blocks.Ql[1:]   # window 1's Q enters no row

    def panel_product(M, *parts):
        # M times every window's slice of the parts, each (m, rows, k), as
        # one GEMM on the panel whose column l*k + c stacks their [l, :, c]
        m, _, k = parts[0].shape
        panel = np.concatenate([p.transpose(1, 0, 2) for p in parts])
        z = M @ panel.reshape(len(panel), m * k)
        return z.reshape(M.shape[0], m, k).transpose(1, 0, 2)

    def matvec(v):
        # rows of w: Y_0..Y_L, then Lam_1..Lam_L; one trailing column axis
        w = v.reshape(2 * L + 1, n, -1)
        out = np.empty_like(w)
        out[0] = w[0]
        # Y_l - P_y Y_{l-1} - P_lam Lam_l                      l = 1..L
        # Lam_l - Q_y Y_l - Q_lam Lam_{l+1}                    l = 1..L-1
        if blocks.shared:
            out[1:L + 1] = w[1:L + 1] - panel_product(P, w[:L], w[L + 1:])
            out[L + 1:2 * L] = w[L + 1:2 * L] - panel_product(Ql, w[L + 2:])
        else:
            out[1:L + 1] = w[1:L + 1] - Py @ w[:L] - Pl @ w[L + 1:]
            out[L + 1:2 * L] = w[L + 1:2 * L] - Qy @ w[1:L] - Ql @ w[L + 2:]
        out[2 * L] = w[2 * L] - w[L]
        return out.reshape(v.shape)

    return matvec


def _block_solve(blocks: _WindowBlocks, rhs: Array) -> Array:
    """Solve J^G x = rhs by block elimination over the windows.

    Y_0 = rhs_0.  The other unknowns form the pairs z_l = (Lam_l, Y_l),
    l = 1..L, whose rows are the matching conditions of Lam_l and Y_l:

        Lam_l - Q_y(l+1) Y_l - Q_lam(l+1) Lam_{l+1}   (Lam_L - Y_L for l = L)
        Y_l - P_lam(l) Lam_l - P_y(l) Y_{l-1}

    J^G is block tridiagonal in z, with the pivot blocks
    D_l = [[I, -Q_y(l+1)], [-P_lam(l), I]] ([[I, -I], [-P_lam(L), I]] for
    l = L); P_y(l) couples z_l down to Y_{l-1}, Q_lam(l+1) up to Lam_{l+1}.
    The forward sweep solves S_l [w_l, E_l] = [g_l, (Q_lam(l+1); 0)], so
    that z_l = w_l + E_l Lam_{l+1}; inserting z_{l-1} into the Y_l rows
    gives S_l = D_l with -P_y(l) E_{l-1}^Y added to its (Y, Lam) block, and
    g_l = rhs_l plus P_y(l) w_{l-1}^Y in its Y rows.  The backward sweep
    takes z_L = w_L, then z_l = w_l + E_l Lam_{l+1}.  Each S_l is solved by
    LU with partial pivoting (``np.linalg.solve``), which raises
    ``np.linalg.LinAlgError`` on an exactly singular pivot block.  For a
    linear problem Q_y = 0, so every S_l but the last is unit block lower
    triangular.  Memory is the L (2n, n + 1) solutions [w_l, E_l], not the
    D x D matrix.
    """
    L, n = blocks.Py.shape[:2]
    r = rhs.reshape(2 * L + 1, n)
    eye = np.eye(n)
    S = np.empty((2 * n, 2 * n))     # np.linalg.solve leaves it as it is
    S[:n, :n] = eye
    S[n:, n:] = eye
    sols = []                  # [w_l, E_l] per window, (Lam; Y) rows
    wy = r[0][:, None]         # Y_0 = rhs_0, the w^Y of window 0 (no E)
    for ell in range(1, L + 1):
        last = ell == L
        S[:n, n:] = -eye if last else -blocks.Qy[ell]
        coupled = blocks.Py[ell - 1] @ wy         # P_y(l) [w, E]^Y_{l-1}
        np.negative(blocks.Pl[ell - 1], out=S[n:, :n])
        if ell > 1:
            S[n:, :n] -= coupled[:, 1:]
        b = np.zeros((2 * n, 1 if last else n + 1))
        b[:n, 0] = r[L + ell]
        b[n:, 0] = r[ell] + coupled[:, 0]
        if not last:
            b[:n, 1:] = blocks.Ql[ell]
        sol = np.linalg.solve(S, b)
        sols.append(sol)
        wy = sol[n:]
    x = np.empty((2 * L + 1, n))
    x[0] = r[0]
    z = sols[-1][:, 0]
    for ell in range(L, 0, -1):
        if ell < L:                    # z_l = w_l + E_l Lam_{l+1}
            sol = sols[ell - 1]
            z = sol[:, 0] + sol[:, 1:] @ x[L + ell + 1]
        x[L + ell], x[ell] = z[:n], z[n:]
    return x.ravel()


def gmres(matvec: Callable[[Array], Array], b: Array, tol: float,
          max_iters: int):
    """Full (unrestarted, unpreconditioned) GMRES from the zero iterate.

    Arnoldi with two passes of classical Gram-Schmidt per step, each two
    matrix-vector products with the basis block; the second pass removes
    what rounding left of the first, which keeps the basis orthogonal to
    working precision ("twice is enough").  Givens rotations update the
    residual; the iteration stops when the relative residual drops below
    ``tol``.  Memory follows the iterations taken, not ``max_iters``: the
    Krylov basis doubles when full, and the Hessenberg columns are kept as
    lists of Python floats, on which the rotations run.  The basis grows in
    place (``ndarray.resize``, a ``realloc`` that glibc serves with
    ``mremap`` for large blocks), so the old and the new basis are never
    held side by side.  Returns (x, iterations, relative residual,
    converged).

    Raises ``np.linalg.LinAlgError`` when a diagonal entry of the triangular
    factor is at most k * eps times its largest entry (k the iterations,
    the rank tolerance of ``np.linalg.matrix_rank``).  On a singular matrix
    whose range misses ``b`` GMRES breaks down there (Brown & Walker, SIAM
    J. Matrix Anal. Appl. 18, 1997): rounding leaves a pivot of order eps,
    the residual estimate reads converged, and x is of order 1/eps.
    """
    b = np.asarray(b, dtype=float)
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b), 0, 0.0, True
    D = b.size
    max_iters = min(max_iters, D)
    V = np.empty((min(max_iters, 16) + 1, D))
    V[0] = b / beta
    R = []             # rotated Hessenberg columns, the triangular factor
    cs, sn = [], []
    g = [beta]
    relres = 1.0
    for j in range(max_iters):
        basis = V[:j + 1]
        w = matvec(V[j])
        c1 = basis @ w
        w = w - c1 @ basis      # a new array, whatever matvec returned
        c2 = basis @ w
        w -= c2 @ basis
        h = (c1 + c2).tolist()
        h_next = float(np.linalg.norm(w))
        for i in range(j):
            h[i], h[i + 1] = (cs[i] * h[i] + sn[i] * h[i + 1],
                              -sn[i] * h[i] + cs[i] * h[i + 1])
        r = float(np.hypot(h[j], h_next))
        c, s = (1.0, 0.0) if r == 0.0 else (h[j] / r, h_next / r)
        cs.append(c)
        sn.append(s)
        h[j] = r
        R.append(h)
        g.append(-s * g[j])
        g[j] = c * g[j]
        relres = abs(g[j + 1]) / beta
        if relres <= tol or h_next == 0.0:  # happy breakdown: exact in span
            break
        if j + 1 < max_iters:
            if j + 1 == len(V):             # the basis is full: double it
                del basis                   # resize needs V unreferenced
                V.resize((min(2 * len(V), max_iters + 1), D), refcheck=True)
            V[j + 1] = w / h_next
    k = len(R)
    H = np.zeros((k, k))
    for col, h in enumerate(R):
        H[:col + 1, col] = h
    if np.abs(np.diag(H)).min() <= k * np.finfo(float).eps * np.abs(H).max():
        raise np.linalg.LinAlgError("triangular factor is numerically singular")
    x = V[:k].T @ np.linalg.solve(H, g[:k])
    return x, k, relres, relres <= tol


def solve_jacobian_system(linearizations: list, rhs: Array,
                          options: ParaoptOptions, workers: int = 1):
    """Solve J^G dX = rhs by full GMRES or by block elimination.

    Both inner solvers read the windows' derivative blocks, built by one
    parallel map over ``linearizations``.  The direct solve eliminates over
    the windows (see :func:`_block_solve`): O(L n^2) memory and O(L n^3)
    time, never the (2L+1)n square matrix.  Raises
    :class:`SingularMatrixError` when J^G is singular: a pivot block of the
    elimination is singular, or GMRES's triangular factor is numerically
    singular (see :func:`gmres`).
    """
    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise InvalidParameterError("right-hand side must be finite")
    blocks = _window_blocks(linearizations, options.variant, workers)
    try:
        if options.inner_solver == INNER_DIRECT:
            return _block_solve(blocks, rhs), InnerStats(0, True)
        dX, iters, relres, ok = gmres(_jacobian_matvec(blocks), rhs,
                                      options.inner_tol, rhs.size)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"coarse interface Jacobian is singular ({options.inner_solver} "
            f"inner solve): {exc}") from exc
    return dX, InnerStats(iters, ok, relres)


def verify_residual(problem: ControlProblem, grid: TimeGrid,
                    X: InterfaceVector, options: ParaoptOptions) -> float:
    """Independent re-check of ||F(X)||_inf with fresh, tighter window solves.

    A failing window's error is raised with "verification" in its message,
    so it is not taken for a failure of the solve.
    """
    try:
        F, trajs = residual(problem, grid, X, tol=options.local_tol / 10.0,
                            workers=1)
    except (NewtonDivergenceError, SingularStepError) as exc:
        # the window already named itself; add the phase
        exc.args = (f"verification: {exc}",)
        exc.phase = "verification"
        raise
    worst = max(window_recurrence_residual(problem, t) for t in trajs)
    if worst > options.local_tol:
        raise NewtonDivergenceError(
            f"verification windows missed their tolerance ({worst:.3e})",
            residual=worst, phase="verification")
    return float(np.abs(F).max())


def paraopt_solve(problem: ControlProblem, grid: TimeGrid,
                  options: Optional[ParaoptOptions] = None,
                  reference: Optional[InterfaceVector] = None,
                  x0: Optional[InterfaceVector] = None) -> ConvergenceReport:
    """Run the outer iteration until ||F||_inf <= outer_tol.

    The iteration starts from ``x0``, or from the paper's
    :func:`default_initial_guess` when ``x0`` is None.  When ``reference``
    is given, the max-norm interface error against it is recorded per
    iteration (the convergence-history metric of the experiments).  Each
    history row linearizes the coarse windows at the iterate, runs the fine
    pass of its residual and replaces each window's state (see
    :class:`_WindowState`) with the row's coarse and fine trajectories; the
    linearizations serve both the fine windows' starts and the outer step
    taken from the iterate.
    Returns a report; ``converged`` is False when the iteration limit or the
    divergence guard hits.  Raises :class:`NoConvergenceError`, with the
    report so far attached, when a GMRES inner solve ends above
    ``inner_tol``; its step is not taken.  To re-check the final residual
    with fresh windows, call :func:`verify_residual`.  Raises
    :class:`InvalidParameterError` when ``x0`` or ``reference`` does not fit
    the grid.
    """
    options = options or ParaoptOptions()
    for name, V in (("x0", x0), ("reference", reference)):
        if V is not None:
            _check_fits(problem, grid, V, name)
    L = grid.num_subintervals
    workers = resolve_workers(options.workers, L)
    if problem.is_linear:
        workers = 1
    X = default_initial_guess(problem, grid) if x0 is None else x0.copy()

    residuals = []
    errors = [] if reference is not None else None
    inner_iterations = []
    wall_times = []
    newton_iterations = []
    message = ""

    def report(converged):
        return ConvergenceReport(
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

    windows = [_WindowState() for _ in range(L)]
    t0 = time.perf_counter()
    while True:
        lins = parallel_map(
            _window_task(coarse_linearize, "coarse", problem, grid, X,
                         options.local_tol),
            range(1, L + 1), workers)
        F, trajs = residual(
            problem, grid, X, options.local_tol, workers,
            [w.start(lin.trajectory, grid) for w, lin in zip(windows, lins)])
        wall_times.append(time.perf_counter() - t0)
        for w, traj in zip(windows, trajs):
            w.fine = traj
        residuals.append(float(np.abs(F).max()))
        if errors is not None:
            errors.append(X.diff_inf(reference))
        newton_iterations.append(tuple(t.newton_iterations for t in trajs))
        converged = residuals[-1] <= options.outer_tol
        if converged:
            break
        if residuals[-1] > DIVERGENCE_FACTOR * max(residuals[0], 1e-300):
            message = "divergence guard triggered"
            break
        if len(residuals) > options.max_outer:
            message = "iteration limit reached"
            break
        t0 = time.perf_counter()
        dX, stats = solve_jacobian_system(lins, -F, options, workers)
        if not stats.converged:
            message = (
                f"inner {options.inner_solver} solve of outer step "
                f"{len(residuals)} did not converge: {stats.iterations} "
                f"iterations, relative residual "
                f"{stats.relative_residual:.3e} > inner_tol "
                f"{options.inner_tol:.3e}")
            raise NoConvergenceError(message, report=report(False))
        inner_iterations.append(stats.iterations)
        X = InterfaceVector.from_stacked(X.to_stacked() + dX, L, problem.dim)
    return report(converged)


def reference_solve(problem: ControlProblem, grid: TimeGrid,
                    options: Optional[ParaoptOptions] = None
                    ) -> InterfaceVector:
    """Converged fine-grid interface values on ``grid``.

    Solves the discrete optimality system of the whole horizon sequentially
    on the fine step and samples it at the interface times of ``grid``.
    Nonlinear problems take one damped banded Newton solve of all fine steps
    with the terminal condition built in (tolerance ``local_tol``, at most
    ``DEFAULT_MAX_NEWTON`` steps); they raise :class:`NoConvergenceError`
    when it fails.  Linear problems read no ``options``: the one-window
    matching condition Y_T = P_y y_init + P_lam (Y_T - y_target) is affine,
    so one solve with I - P_lam (symmetric positive definite, I + G/alpha)
    on the blocks of :func:`coarse_linearize` on the one-window grid gives
    Lam_L, and :func:`fine_propagate` restricts it to ``grid``: Q backward
    for the adjoints, then P forward for the states.  A window or step
    failure (the cause of the :class:`NoConvergenceError`, or a
    :class:`SingularStepError` raised as it is) carries the phase
    "reference".
    """
    options = options or ParaoptOptions()
    single = grid.with_single_subinterval()
    L, N = grid.num_subintervals, grid.fine_steps
    try:
        if not problem.is_linear:
            y, lam, _ = _solve_window_nonlinear(
                problem, problem.y_init, None, single.fine_step,
                single.fine_steps, options.local_tol, context="reference")
            idx = np.arange(L + 1) * N
            return InterfaceVector(y[idx], lam[idx[1:]])
        # Lam_L = Y_T - y_target and Y_T = P_y y_init + P_lam Lam_L, so
        # (I - P_lam) Lam_L = P_y y_init - y_target
        P_y, P_lam, _, _ = coarse_linearize(
            problem, single, 1, problem.y_init, problem.y_target).blocks()
        adjoints = [np.linalg.solve(np.eye(problem.dim) - P_lam,
                                    P_y @ problem.y_init - problem.y_target)]
        for ell in range(L, 1, -1):       # a linear Q does not read Y
            adjoints.insert(0, fine_propagate(problem, grid, ell,
                                              problem.y_init, adjoints[0])[1])
        states = [problem.y_init]
        for ell in range(1, L + 1):
            states.append(fine_propagate(problem, grid, ell, states[-1],
                                         adjoints[ell - 1])[0])
    except SingularStepError as exc:
        exc.phase = "reference"
        raise
    except NewtonDivergenceError as exc:
        exc.phase = "reference"
        raise NoConvergenceError(f"reference solve diverged: {exc}") from exc
    return InterfaceVector(np.array(states), np.array(adjoints))
