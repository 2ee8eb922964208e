"""Control problems and time grids.

A :class:`ControlProblem` bundles the dynamics ``ydot = f(y) + B c`` with the
data of the tracking objective

    J(c) = 1/2 |y(T) - y_target|^2 + alpha/2 * int_0^T |c(t)|^2 dt,

through its first-order optimality system: the state equation driven by the
adjoint, ``ydot = f(y) - B B^T lam / alpha``, and the backward adjoint
equation ``lamdot = -f'(y)^T lam`` with terminal condition
``lam(T) = y(T) - y_target``.

A problem states its dynamics once.  A linear problem (``f(y) = A y``) carries
only the matrix A as ``linear_matrix``; its windows are solved in closed
form.  A nonlinear problem carries three batch callables over the rows of a
state array: ``rhs_many`` for f, ``jacobian_many`` for f' and
``hess_coupling_many`` for the y-derivative of f'(y)^T lam.  The window
Newton solves call exactly these; solvers never fall back to finite
differences.  Instances are immutable and safe to share between worker
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """Dynamics, derivatives and endpoint data of one control problem.

    Parameters
    ----------
    dim : int
        State dimension n.
    alpha : float
        Regularization weight of the control energy term, > 0.
    y_init, y_target : array
        Initial and target states, length n.
    control_operator : array, optional
        Matrix B applied to the control; identity when None.
    linear_matrix : array, optional
        The (n, n) matrix A of a linear problem ``f(y) = A y``.  When given,
        the batch callables are not used.
    rhs_many : callable
        ``Y -> f(Y)``, (m, n) -> (m, n), one state per row.
    jacobian_many : callable
        ``Y -> f'(Y)``, (m, n) -> (m, n, n).
    hess_coupling_many : callable
        ``(Y, Lam) -> K``, (m, n), (m, n) -> (m, n, n), the matrices
        K(y, lam) with ``K(y, lam) z = H(y, z)^T lam``, where H(y, z) is the
        directional derivative of f' at y in direction z; i.e. K is the
        y-derivative of f'(y)^T lam.

    A problem without ``linear_matrix`` needs all three batch callables.
    """

    dim: int
    alpha: float
    y_init: Array
    y_target: Array
    control_operator: Optional[Array] = None
    linear_matrix: Optional[Array] = None
    rhs_many: Optional[Callable[[Array], Array]] = None
    jacobian_many: Optional[Callable[[Array], Array]] = None
    hess_coupling_many: Optional[Callable[[Array, Array], Array]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidParameterError("state dimension must be positive")
        if not (self.alpha > 0):
            raise InvalidParameterError("alpha must be positive")
        for attr in ("y_init", "y_target"):
            v = np.asarray(getattr(self, attr), dtype=float).reshape(-1)
            if v.shape != (self.dim,):
                raise InvalidParameterError(f"{attr} must have length {self.dim}")
            object.__setattr__(self, attr, v)
            v.setflags(write=False)
        for attr in ("control_operator", "linear_matrix"):
            if getattr(self, attr) is None:
                continue
            M = np.asarray(getattr(self, attr), dtype=float)
            if M.shape != (self.dim, self.dim):
                raise InvalidParameterError(f"{attr} must be (n, n)")
            object.__setattr__(self, attr, M)
            M.setflags(write=False)
        if not self.is_linear and None in (self.rhs_many, self.jacobian_many,
                                           self.hess_coupling_many):
            raise InvalidParameterError(
                "a nonlinear problem needs rhs_many, jacobian_many and "
                "hess_coupling_many")

    @property
    def is_linear(self) -> bool:
        """True when the dynamics are ``f(y) = linear_matrix @ y``."""
        return self.linear_matrix is not None

    def bbt(self) -> Array:
        """The matrix B B^T coupling the adjoint into the state equation."""
        if self.control_operator is None:
            return np.eye(self.dim)
        return self.control_operator @ self.control_operator.T


@dataclass(frozen=True)
class TimeGrid:
    """Uniform two-level partition of the horizon [0, T].

    The horizon splits into ``num_subintervals`` windows of length
    ``sub_length``; each window carries ``fine_steps`` steps of size
    ``fine_step`` and ``coarse_steps`` steps of size ``coarse_step``.  Step
    counts are stored as integers and the real step sizes are derived, so
    ``T = L * N * fine_step`` holds exactly in the stored counts.
    """

    horizon: float
    num_subintervals: int
    fine_steps: int
    coarse_steps: int

    def __post_init__(self):
        if not (self.horizon > 0):
            raise InvalidParameterError("horizon must be positive")
        if self.num_subintervals < 1:
            raise InvalidParameterError("need at least one sub-interval")
        if self.coarse_steps < 1 or self.fine_steps < self.coarse_steps:
            raise InvalidParameterError(
                "need fine_steps >= coarse_steps >= 1 per sub-interval")

    @property
    def sub_length(self) -> float:
        return self.horizon / self.num_subintervals

    @property
    def fine_step(self) -> float:
        return self.sub_length / self.fine_steps

    @property
    def coarse_step(self) -> float:
        return self.sub_length / self.coarse_steps

    @property
    def total_fine_steps(self) -> int:
        return self.num_subintervals * self.fine_steps

    def interface_times(self) -> Array:
        return np.linspace(0.0, self.horizon, self.num_subintervals + 1)

    def with_single_subinterval(self) -> "TimeGrid":
        """The matching one-window grid whose coarse grid equals the fine one."""
        total = self.total_fine_steps
        return TimeGrid(self.horizon, 1, total, total)


@dataclass
class InterfaceVector:
    """Interface unknowns: states Y_0..Y_L and adjoints Lam_1..Lam_L."""

    states: Array   # (L+1, n)
    adjoints: Array  # (L, n)

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.adjoints = np.asarray(self.adjoints, dtype=float).reshape(
            -1, self.states.shape[1])
        if self.adjoints.shape[0] != self.states.shape[0] - 1:
            raise InvalidParameterError(
                "need one adjoint per sub-interval (L = #states - 1)")

    @property
    def num_subintervals(self) -> int:
        return self.states.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def to_stacked(self) -> Array:
        """Flatten to (Y_0..Y_L, Lam_1..Lam_L), length n*(2L+1)."""
        return np.concatenate([self.states.ravel(), self.adjoints.ravel()])

    @classmethod
    def from_stacked(cls, x: Array, num_subintervals: int, dim: int):
        L, n = num_subintervals, dim
        x = np.asarray(x, dtype=float)
        if x.size != n * (2 * L + 1):
            raise InvalidParameterError("stacked vector has wrong length")
        return cls(x[: (L + 1) * n].reshape(L + 1, n),
                   x[(L + 1) * n:].reshape(L, n))

    def copy(self) -> "InterfaceVector":
        return InterfaceVector(self.states.copy(), self.adjoints.copy())

    def diff_inf(self, other: "InterfaceVector") -> float:
        """Max-norm difference over all interface components."""
        return max(np.abs(self.states - other.states).max(),
                   np.abs(self.adjoints - other.adjoints).max()
                   if self.adjoints.size else 0.0)


def make_dahlquist(sigma: float, alpha: float, y_init: float = 1.0,
                   y_target: float = 0.0) -> ControlProblem:
    """Scalar test problem ydot = sigma*y + c."""
    return ControlProblem(
        dim=1,
        alpha=float(alpha),
        y_init=np.array([float(y_init)]),
        y_target=np.array([float(y_target)]),
        linear_matrix=np.array([[float(sigma)]]),
    )


def make_lotka_volterra(a1: float = 10.0, b1: float = 0.2, a2: float = 0.2,
                        b2: float = 10.0, alpha: float = 5e-2,
                        y_init=(20.0, 10.0),
                        y_target=(100.0, 20.0)) -> ControlProblem:
    """Predator-prey dynamics with controls added to both equations.

    f(y) = (a1*y1 - b1*y1*y2, a2*y1*y2 - b2*y2).
    """
    for nm, v in (("a1", a1), ("b1", b1), ("a2", a2), ("b2", b2)):
        if not (v > 0):
            raise InvalidParameterError(f"{nm} must be positive")

    def rhs_many(Y):
        return np.stack([a1 * Y[:, 0] - b1 * Y[:, 0] * Y[:, 1],
                         a2 * Y[:, 0] * Y[:, 1] - b2 * Y[:, 1]], axis=1)

    def jacobian_many(Y):
        J = np.empty((len(Y), 2, 2))
        J[:, 0, 0] = a1 - b1 * Y[:, 1]
        J[:, 0, 1] = -b1 * Y[:, 0]
        J[:, 1, 0] = a2 * Y[:, 1]
        J[:, 1, 1] = a2 * Y[:, 0] - b2
        return J

    def hess_coupling_many(Y, Lam):
        # K z = H(y, z)^T lam; for these dynamics K = c(lam) * [[0,1],[1,0]].
        c = -b1 * Lam[:, 0] + a2 * Lam[:, 1]
        K = np.zeros((len(Y), 2, 2))
        K[:, 0, 1] = c
        K[:, 1, 0] = c
        return K

    return ControlProblem(
        dim=2, alpha=float(alpha), y_init=np.asarray(y_init, dtype=float),
        y_target=np.asarray(y_target, dtype=float),
        rhs_many=rhs_many, jacobian_many=jacobian_many,
        hess_coupling_many=hess_coupling_many,
    )


def periodic_laplacian(n: int) -> Array:
    """Second-difference matrix on n periodic cells of [0, 1]."""
    h = 1.0 / n
    A = np.zeros((n, n))
    idx = np.arange(n)
    A[idx, idx] = -2.0
    A[idx, (idx + 1) % n] = 1.0
    A[idx, (idx - 1) % n] = 1.0
    return A / h ** 2


def make_heat_1d(n: int = 50, control_support=(1.0 / 3.0, 2.0 / 3.0),
                 alpha: float = 1e-4, y_init_fn=None,
                 y_target_fn=None) -> ControlProblem:
    """Periodic 1-D heat equation, controlled on a sub-interval of [0, 1].

    The control operator B is the 0/1 indicator of the grid nodes
    x_i = i/n lying in ``control_support``; initial and target profiles are
    sampled at the same nodes.
    """
    if n < 3:
        raise InvalidParameterError("need at least 3 grid points")
    lo, hi = control_support
    if not (0.0 <= lo <= hi <= 1.0):
        raise InvalidParameterError("control support must lie inside [0, 1]")
    if y_init_fn is None:
        y_init_fn = lambda x: np.exp(-100.0 * (x - 0.5) ** 2)
    if y_target_fn is None:
        y_target_fn = lambda x: 0.5 * (np.exp(-100.0 * (x - 0.25) ** 2)
                                       + np.exp(-100.0 * (x - 0.75) ** 2))
    A = periodic_laplacian(n)
    x = np.arange(n) / n
    B = np.diag(((x >= lo) & (x <= hi)).astype(float))

    return ControlProblem(
        dim=n,
        alpha=float(alpha),
        y_init=y_init_fn(x),
        y_target=y_target_fn(x),
        control_operator=B,
        linear_matrix=A,
    )


def make_grid(T: float, L: int, fine_steps_per_subinterval: int,
              coarse_steps_per_subinterval: int) -> TimeGrid:
    """Build a :class:`TimeGrid` from integer per-window step counts.

    The counts are checked by :class:`TimeGrid`.
    """
    return TimeGrid(float(T), int(L), int(fine_steps_per_subinterval),
                    int(coarse_steps_per_subinterval))


def step_count(value: float, what: str) -> int:
    """``value`` as a step count: a positive integer up to 1e-9 relative slack.

    Raises :class:`InvalidParameterError`, naming ``what``, when ``value``
    rounds below 1 or lies farther than that from an integer.
    """
    count = round(value)
    if count < 1 or abs(value - count) > 1e-9 * max(1.0, value):
        raise InvalidParameterError(f"{what} = {value} is not a positive integer")
    return int(count)
