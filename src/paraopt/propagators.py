"""Sub-interval solvers for the coupled state/adjoint boundary value problem.

Each window [T_l, T_{l+1}] carries a two-point problem: the state enters on
the left (y(T_l) = Y), the adjoint on the right (lam(T_{l+1}) = Lam_plus).
``fine_propagate`` solves it on the fine step and returns

    P = y at the right end,   Q = lam at the left end,

``coarse_linearize`` does the same on the coarse step and keeps the local
solution; ``CoarseLinearization.blocks`` assembles from it the four
derivative blocks dP/dY, dP/dLam, dQ/dY, dQ/dLam of the coarse propagator
pair (by solving the linearized problem about the stored trajectory), and
``derivative_action`` applies them.

Discretization (implicit Euler both directions, one function of this module
per branch; the linear branch follows the discretely-optimal form whose
control picks up an extra solve with the step matrix):

* linear problems (``ydot = A y + B c``), step tau, S = (I - tau*A)^{-1}:
      y_{j+1} = S y_j - (tau/alpha) S B B^T S^T lam_{j+1},
      lam_j   = S^T lam_{j+1},
  so the window maps are Q = (S^T)^m Lam_plus and
  P = S^m Y - (1/alpha) G Lam_plus with G = tau * sum_p S^p B B^T (S^T)^p.
* nonlinear problems:
      y_{j+1} = y_j + tau * (f(y_{j+1}) - B B^T lam_{j+1} / alpha),
      (I - tau * f'(y_j)^T) lam_j = lam_{j+1},
  solved by a damped Newton iteration on the stacked unknowns with an
  analytic block-banded Jacobian, written into LAPACK band storage through
  one strided view per block type.  A cold solve starts from constant
  states Y and adjoints Lam_plus.  ``fine_propagate(..., start=traj)``
  instead starts from an earlier trajectory of the same window (the outer
  iteration passes the previous iterate's) with the new boundary values
  written in, and always takes at least one Newton step: a start that
  already meets the tolerance would otherwise keep its old P and Q,
  ignoring the new Y and Lam_plus, which stalls the outer iteration near
  the tolerance.  Linear windows are closed-form and ignore ``start``.

All entry points are pure functions of their arguments and can run
concurrently on distinct sub-intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.linalg import lapack as _lapack

from .errors import (InvalidParameterError, NewtonDivergenceError,
                     SingularStepError)
from .model import ControlProblem, TimeGrid

Array = np.ndarray

DEFAULT_LOCAL_TOL = 1e-12
DEFAULT_MAX_NEWTON = 50
_MAX_DAMPINGS = 10


class LocalTrajectory:
    """Discrete states and adjoints of one window solve.

    ``states``/``adjoints`` have shape (steps+1, n) and satisfy the window's
    discrete recurrences to the solver tolerance.  For linear problems the
    arrays are built on first access by running the recurrences; endpoint
    values are available without materializing.
    """

    def __init__(self, tau: float, steps: int, *, states: Optional[Array] = None,
                 adjoints: Optional[Array] = None, builder=None,
                 right_state: Optional[Array] = None,
                 left_adjoint: Optional[Array] = None,
                 newton_iterations: int = 0):
        self.tau = float(tau)
        self.steps = int(steps)
        self._states = states
        self._adjoints = adjoints
        self._builder = builder
        self._right_state = right_state if right_state is not None else (
            None if states is None else states[-1])
        self._left_adjoint = left_adjoint if left_adjoint is not None else (
            None if adjoints is None else adjoints[0])
        self.newton_iterations = newton_iterations

    def _materialize(self):
        if self._states is None:
            self._states, self._adjoints = self._builder()
            self._builder = None

    @property
    def states(self) -> Array:
        self._materialize()
        return self._states

    @property
    def adjoints(self) -> Array:
        self._materialize()
        return self._adjoints

    @property
    def right_state(self) -> Array:
        return self._right_state

    @property
    def left_adjoint(self) -> Array:
        return self._left_adjoint


# ---------------------------------------------------------------------------
# linear window operators
# ---------------------------------------------------------------------------

class _LinearOps:
    """Window maps of the linear scheme for one (problem, tau, steps)."""

    def __init__(self, problem: ControlProblem, tau: float, steps: int):
        n = problem.dim
        A = problem.linear_matrix
        step_matrix = np.eye(n) - tau * A
        try:
            S = np.linalg.solve(step_matrix, np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise SingularStepError(
                f"step matrix I - tau*A singular for tau={tau}") from exc
        self.tau = tau
        self.steps = steps
        self.S = S
        self.ST = S.T.copy()
        base = tau * (S @ problem.bbt() @ self.ST)
        self.coupling = base / problem.alpha   # per-step adjoint->state term
        # double-and-add over the binary expansion of the step count:
        #   SN_{a+b} = SN_a SN_b,  G_{a+b} = G_b + S^b G_a (S^T)^b
        SN = np.eye(n)
        G = np.zeros((n, n))
        Spow, STpow, Gpow = S.copy(), self.ST.copy(), base.copy()
        m = steps
        while True:
            if m & 1:
                G = Gpow + Spow @ G @ STpow
                SN = Spow @ SN
            m >>= 1
            if m == 0:
                break
            Gpow = Gpow + Spow @ Gpow @ STpow
            Spow = Spow @ Spow
            STpow = STpow @ STpow
        self.SN = SN
        self.SNT = SN.T.copy()
        self.G = G

    def propagate(self, Y: Array, Lam_plus: Array, alpha: float):
        P = self.SN @ Y - (self.G @ Lam_plus) / alpha
        Q = self.SNT @ Lam_plus
        return P, Q

    def sweep(self, Y: Array, Lam_plus: Array):
        """Materialize the full trajectory by running the recurrences."""
        m, n = self.steps, len(Y)
        lam = np.empty((m + 1, n))
        lam[m] = Lam_plus
        for j in range(m - 1, -1, -1):
            lam[j] = self.ST @ lam[j + 1]
        y = np.empty((m + 1, n))
        y[0] = Y
        for j in range(m):
            y[j + 1] = self.S @ y[j] - self.coupling @ lam[j + 1]
        return y, lam


@lru_cache(maxsize=64)
def _linear_ops(problem: ControlProblem, tau: float, steps: int) -> _LinearOps:
    return _LinearOps(problem, tau, steps)


def discrete_control(problem: ControlProblem, tau: float, lam_next: Array) -> Array:
    """Control value c_{j+1} induced by the adjoint at the step's right end.

    This is the one place the two discretization branches differ: the linear
    scheme's control carries an extra application of (I - tau*A)^{-T}
    (discretely optimal form), the nonlinear scheme couples the adjoint
    directly.
    """
    B = problem.control_operator
    if problem.is_linear:
        ops = _linear_ops(problem, tau, 1)
        w = ops.ST @ lam_next
    else:
        w = lam_next
    return -(w if B is None else B.T @ w) / problem.alpha


def _linear_trajectory(ops: _LinearOps, Y, Lam_plus, P, Q):
    return LocalTrajectory(
        ops.tau, ops.steps,
        builder=lambda: ops.sweep(Y, Lam_plus),
        right_state=P, left_adjoint=Q)


# ---------------------------------------------------------------------------
# nonlinear window solves: stacked banded Newton
# ---------------------------------------------------------------------------
#
# Unknown layout groups time slot t = 0..m-1 as (lam_t, y_{t+1}); equation
# rows pair the adjoint residual R2_t with the state residual R1_t.  The
# Jacobian is block banded with scalar bandwidths (3n-1, 3n-1); it is
# assembled directly in LAPACK gbsv storage, ab[l+u+i-j, j] = A[i, j].

def _bandwidth(n: int) -> int:
    return 3 * n - 1


def _block_view(ab: Array, n: int, row0: int, col0: int, t0: int,
                count: int) -> Array:
    """Strided view of ``ab`` on one block type of the banded Jacobian.

    Element [t, a, b] is the storage of A[i, j] with i = 2n(t0+t) + row0 + a
    and j = 2n(t0+t) + col0 + b: slot t0+t's block at row offset ``row0`` and
    column offset ``col0`` (-n and 2n reach into the previous and the next
    slot).  In column-major ``ab`` that entry sits at flat index
    (l+u+i-j) + rows*j, so a, b and t step by 1, rows-1 and 2n*rows.
    """
    rows = ab.shape[0]
    lu = 2 * _bandwidth(n)
    j0 = 2 * n * t0 + col0
    start = (lu + row0 - col0) + rows * j0
    item = ab.itemsize
    return np.lib.stride_tricks.as_strided(
        ab.reshape(-1, order="F")[start:], shape=(count, n, n),
        strides=(2 * n * rows * item, item, (rows - 1) * item))


def _nonlinear_residual(problem, y, lam, tau, bbt_over_alpha):
    R1 = y[1:] - y[:-1] - tau * problem.eval_rhs_many(y[1:]) \
        + tau * (lam[1:] @ bbt_over_alpha.T)
    jac = problem.eval_jacobian_many(y[:-1])
    # difference neighbours first: lam_j - lam_{j+1} is exact, whereas
    # (lam_j - tau*...) would round at the scale of lam_j on every step,
    # noise that each Newton step carries into Q = lam_0 summed over the
    # window
    R2 = (lam[:-1] - lam[1:]) - tau * np.einsum("tji,tj->ti", jac, lam[:-1])
    return R1, R2


def _assemble_banded(problem, y, lam, tau, bbt_over_alpha,
                     gauss_newton: bool, terminal: bool = False) -> Array:
    n = problem.dim
    m = len(y) - 1
    l = _bandwidth(n)
    ab = np.zeros((3 * l + 1, 2 * n * m), order="F")
    eye = np.eye(n)
    jac = problem.eval_jacobian_many(y)
    # R2_t = lam_t - tau f'(y_t)^T lam_t - lam_{t+1}; y_t is slot t-1's
    # state column, n columns left of slot t
    _block_view(ab, n, 0, 0, 0, m)[:] = eye - tau * np.transpose(jac[:-1], (0, 2, 1))
    _block_view(ab, n, 0, 2 * n, 0, m - 1)[:] = -eye
    if not gauss_newton:
        K = problem.eval_hess_coupling_many(y[:-1], lam[:-1])
        _block_view(ab, n, 0, -n, 1, m - 1)[:] = -tau * K[1:]
    # R1_t = y_{t+1} - y_t - tau f(y_{t+1}) + tau BB^T lam_{t+1} / alpha
    _block_view(ab, n, n, n, 0, m)[:] = eye - tau * jac[1:]
    _block_view(ab, n, n, -n, 1, m - 1)[:] = -eye
    _block_view(ab, n, n, 2 * n, 0, m - 1)[:] = tau * bbt_over_alpha
    if terminal:
        # lam_m = y_m - y_target puts y_m (the last slot's state column) into
        # R2_{m-1} with -I and into R1_{m-1} with tau*BB^T/alpha; both
        # blocks lie inside the band.
        _block_view(ab, n, 0, n, m - 1, 1)[:] = -eye
        _block_view(ab, n, n, n, m - 1, 1)[:] += tau * bbt_over_alpha
    return ab


def _banded_solve(n: int, ab: Array, rhs: Array, context: str) -> Array:
    l = _bandwidth(n)
    _, _, x, info = _lapack.dgbsv(l, l, ab, rhs,
                                  overwrite_ab=1, overwrite_b=0)
    if info != 0:
        raise SingularStepError(
            f"banded window system singular (lapack info={info}) in {context}")
    return x


def _solve_window_nonlinear(problem, Y, Lam_plus, tau, m, tol, max_newton,
                            context: str, start=None):
    """Damped Newton for one window: y_0 = Y and lam_m = Lam_plus.

    With ``Lam_plus=None`` the right end carries the terminal condition
    lam_m = y_m - y_target instead, so the window is the whole optimality
    system on its grid; the adjoints then start at ones (the paper's default
    guess).  ``start`` is a (states, adjoints) pair of an earlier solve on
    the same grid to start from instead of constants; the boundary values
    are written into it and at least one step is taken (see the module
    docstring).  Returns (states, adjoints, Newton iterations).
    """
    n = problem.dim
    bbt_over_alpha = problem.bbt() / problem.alpha
    terminal = Lam_plus is None
    if start is None:
        y = np.tile(np.asarray(Y, dtype=float), (m + 1, 1))
        lam = np.tile(np.ones(n) if terminal
                      else np.asarray(Lam_plus, dtype=float), (m + 1, 1))
    else:
        y, lam = np.array(start[0], dtype=float), np.array(start[1], dtype=float)
        y[0] = Y
        if not terminal:
            lam[-1] = Lam_plus
    if terminal:
        lam[-1] = y[-1] - problem.y_target
    min_steps = 0 if start is None else 1
    R1, R2 = _nonlinear_residual(problem, y, lam, tau, bbt_over_alpha)
    res = max(np.abs(R1).max(), np.abs(R2).max()) if m else 0.0
    res0 = max(res, 1.0)
    iters = 0
    while res > tol or iters < min_steps:
        if iters >= max_newton:
            raise NewtonDivergenceError(
                f"window Newton needed more than {max_newton} iterations "
                f"({context}); residual {res:.3e}", residual=res)
        ab = _assemble_banded(problem, y, lam, tau, bbt_over_alpha,
                              gauss_newton=False, terminal=terminal)
        rhs = np.empty((m, 2 * n))
        rhs[:, :n] = -R2
        rhs[:, n:] = -R1
        du = _banded_solve(n, ab, rhs.ravel(), context).reshape(m, 2 * n)
        dlam, dy = du[:, :n], du[:, n:]
        # damped update: halve until the residual decreases
        step = 1.0
        best = None
        for _ in range(_MAX_DAMPINGS + 1):
            y_new = y.copy()
            lam_new = lam.copy()
            y_new[1:] += step * dy
            lam_new[:-1] += step * dlam
            if terminal:
                lam_new[-1] = y_new[-1] - problem.y_target
            R1n, R2n = _nonlinear_residual(problem, y_new, lam_new, tau,
                                           bbt_over_alpha)
            res_new = max(np.abs(R1n).max(), np.abs(R2n).max())
            if best is None or res_new < best[0]:
                best = (res_new, y_new, lam_new, R1n, R2n)
            if res_new < res:
                break
            step *= 0.5
        res, y, lam, R1, R2 = best[0], best[1], best[2], best[3], best[4]
        iters += 1
        if not np.isfinite(res) or res > 1e8 * res0:
            raise NewtonDivergenceError(
                f"window Newton diverged ({context}); residual {res:.3e}",
                residual=res)
    return y, lam, iters


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _window_steps(grid: TimeGrid, coarse: bool) -> tuple[float, int]:
    if coarse:
        return grid.coarse_step, grid.coarse_steps
    return grid.fine_step, grid.fine_steps


def _propagate(problem, grid, ell, Y, Lam_plus, tol, max_newton, coarse,
               start=None):
    L = grid.num_subintervals
    if not (1 <= ell <= L):
        raise InvalidParameterError(f"sub-interval index {ell} not in 1..{L}")
    Y = np.asarray(Y, dtype=float).reshape(problem.dim)
    Lam_plus = np.asarray(Lam_plus, dtype=float).reshape(problem.dim)
    tau, m = _window_steps(grid, coarse)
    if problem.is_linear:
        ops = _linear_ops(problem, tau, m)
        P, Q = ops.propagate(Y, Lam_plus, problem.alpha)
        traj = _linear_trajectory(ops, Y, Lam_plus, P, Q)
        return P, Q, traj
    if start is not None and start.steps != m:
        raise InvalidParameterError(
            f"start trajectory has {start.steps} steps, window {ell} has {m}")
    kind = "coarse" if coarse else "fine"
    y, lam, iters = _solve_window_nonlinear(
        problem, Y, Lam_plus, tau, m, tol, max_newton,
        context=f"{kind} window {ell}",
        start=None if start is None else (start.states, start.adjoints))
    traj = LocalTrajectory(tau, m, states=y, adjoints=lam,
                           newton_iterations=iters)
    return y[-1].copy(), lam[0].copy(), traj


def fine_propagate(problem: ControlProblem, grid: TimeGrid, ell: int,
                   Y: Array, Lam_plus: Array,
                   tol: float = DEFAULT_LOCAL_TOL,
                   max_newton: int = DEFAULT_MAX_NEWTON,
                   start: Optional[LocalTrajectory] = None):
    """Solve window ``ell`` on the fine step; returns (P, Q, trajectory).

    ``start`` is an earlier fine trajectory of the same window (the previous
    outer iterate's); a nonlinear window's Newton iteration starts from it
    and takes at least one step.  Linear windows are closed-form and ignore
    it.
    """
    return _propagate(problem, grid, ell, Y, Lam_plus, tol, max_newton,
                      coarse=False, start=start)


@dataclass
class CoarseLinearization:
    """Coarse window solution plus the linearization data built on it."""

    problem: ControlProblem
    grid: TimeGrid
    subinterval_index: int
    trajectory: LocalTrajectory
    _blocks: dict = field(default_factory=dict, repr=False)

    @property
    def coarse_P(self) -> Array:
        return self.trajectory.right_state

    @property
    def coarse_Q(self) -> Array:
        return self.trajectory.left_adjoint

    def blocks(self, gauss_newton: bool = False):
        """The four derivative matrices (P_y, P_lam, Q_y, Q_lam).

        Built once per variant: in closed form for linear problems, otherwise
        by one banded factorization of the window's linearized system about
        ``trajectory``, solved for the 2n unit boundary data (dY, then dLam).
        With ``gauss_newton`` the second-derivative coupling of the adjoint
        equation is dropped.
        """
        key = bool(gauss_newton)
        if key not in self._blocks:
            n = self.problem.dim
            if self.problem.is_linear:
                ops = _linear_ops(self.problem, self.trajectory.tau,
                                  self.trajectory.steps)
                blocks = (ops.SN.copy(), -ops.G / self.problem.alpha,
                          np.zeros((n, n)), ops.SNT.copy())
            else:
                # one factorization, 2n right-hand sides (unit dY then dLam)
                traj = self.trajectory
                m = traj.steps
                bbt_over_alpha = self.problem.bbt() / self.problem.alpha
                ab = _assemble_banded(self.problem, traj.states, traj.adjoints,
                                      traj.tau, bbt_over_alpha, key)
                eye = np.eye(n)
                rhs = np.zeros((2 * n * m, 2 * n))
                for i in range(n):
                    rhs[:, i] = _derivative_rhs(
                        self.problem, traj, eye[i], np.zeros(n), key,
                        bbt_over_alpha)
                    rhs[:, n + i] = _derivative_rhs(
                        self.problem, traj, np.zeros(n), eye[i], key,
                        bbt_over_alpha)
                try:
                    du = _banded_solve(
                        n, ab, rhs,
                        context=f"window {self.subinterval_index} blocks")
                except SingularStepError as exc:
                    exc.subinterval = self.subinterval_index
                    raise
                top = du[0:n]
                bottom = du[(m - 1) * 2 * n + n: m * 2 * n]
                blocks = (bottom[:, :n].copy(), bottom[:, n:].copy(),
                          top[:, :n].copy(), top[:, n:].copy())
            self._blocks[key] = blocks
        return self._blocks[key]


def coarse_linearize(problem: ControlProblem, grid: TimeGrid, ell: int,
                     Y: Array, Lam_plus: Array,
                     tol: float = DEFAULT_LOCAL_TOL,
                     max_newton: int = DEFAULT_MAX_NEWTON
                     ) -> CoarseLinearization:
    """Solve window ``ell`` on the coarse step and keep the trajectory."""
    _, _, traj = _propagate(problem, grid, ell, Y, Lam_plus, tol, max_newton,
                            coarse=True)
    return CoarseLinearization(problem=problem, grid=grid,
                               subinterval_index=ell, trajectory=traj)


def _derivative_rhs(problem, traj: LocalTrajectory, dY, dLam, gauss_newton,
                    bbt_over_alpha) -> Array:
    """Boundary-data injection for the linearized window system."""
    n = problem.dim
    m = traj.steps
    tau = traj.tau
    rhs = np.zeros(2 * n * m)
    if not gauss_newton:
        K0 = problem.eval_hess_coupling_many(traj.states[:1],
                                             traj.adjoints[:1])[0]
        rhs[0:n] += tau * (K0 @ dY)
    rhs[n:2 * n] += dY
    rhs[(m - 1) * 2 * n: (m - 1) * 2 * n + n] += dLam
    rhs[(m - 1) * 2 * n + n: m * 2 * n] += -tau * (bbt_over_alpha @ dLam)
    return rhs


def derivative_action(problem: ControlProblem, lin: CoarseLinearization,
                      dY: Array, dLam: Array, gauss_newton: bool = False):
    """Apply the coarse propagator derivatives: (dP, dQ) for (dY, dLam).

    Multiplies by the cached blocks of :meth:`CoarseLinearization.blocks`.
    """
    n = problem.dim
    dY = np.asarray(dY, dtype=float).reshape(n)
    dLam = np.asarray(dLam, dtype=float).reshape(n)
    Py, Pl, Qy, Ql = lin.blocks(gauss_newton)
    return Py @ dY + Pl @ dLam, Qy @ dY + Ql @ dLam


def window_recurrence_residual(problem: ControlProblem,
                               traj: LocalTrajectory) -> float:
    """Max-norm residual of the window's discrete equations (oracle check)."""
    y, lam = traj.states, traj.adjoints
    tau = traj.tau
    if problem.is_linear:
        ops = _linear_ops(problem, tau, traj.steps)
        Rl = lam[:-1] - lam[1:] @ ops.S  # lam_j = S^T lam_{j+1}
        Ry = y[1:] - y[:-1] @ ops.S.T + lam[1:] @ ops.coupling.T
        return max(np.abs(Rl).max(), np.abs(Ry).max())
    R1, R2 = _nonlinear_residual(problem, y, lam, tau,
                                 problem.bbt() / problem.alpha)
    return max(np.abs(R1).max(), np.abs(R2).max())
