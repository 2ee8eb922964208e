"""Sub-interval solvers for the coupled state/adjoint boundary value problem.

Each window [T_l, T_{l+1}] carries a two-point problem: the state enters on
the left (y(T_l) = Y), the adjoint on the right (lam(T_{l+1}) = Lam_plus).
``fine_propagate`` solves it on the fine step and returns

    P = y at the right end,   Q = lam at the left end,

``coarse_linearize`` does the same on the coarse step and keeps the local
solution; ``CoarseLinearization.blocks`` assembles from it the four
derivative blocks dP/dY, dP/dLam, dQ/dY, dQ/dLam of the coarse propagator
pair (by solving the linearized problem about the stored trajectory).
A window Newton iteration that has not met its tolerance after
``DEFAULT_MAX_NEWTON`` steps raises :class:`NewtonDivergenceError`.

Discretization (implicit Euler both directions, one function of this module
per branch; the linear branch follows the discretely-optimal form whose
control picks up an extra solve with the step matrix):

* linear problems (``ydot = A y + B c``), step tau, S = (I - tau*A)^{-1}:
      y_{j+1} = S y_j - (tau/alpha) S B B^T S^T lam_{j+1},
      lam_j   = S^T lam_{j+1},
  so the window maps are Q = (S^T)^m Lam_plus and
  P = S^m Y - (1/alpha) G Lam_plus with G = tau * sum_p S^p B B^T (S^T)^p.
  These maps and the derivative blocks made of them are built once per
  dynamics and step: a bounded cache keys them on (a digest of A, B and
  alpha, tau, steps), so every window, and every problem with the same A, B
  and alpha, shares one read-only set.
* nonlinear problems:
      y_{j+1} = y_j + tau * (f(y_{j+1}) - B B^T lam_{j+1} / alpha),
      (I - tau * f'(y_j)^T) lam_j = lam_{j+1},
  solved by a damped Newton iteration on the stacked unknowns with an
  analytic block-banded Jacobian of scalar bandwidths (2n, 2n): only the
  -I couplings of an equation to the previous state and the next adjoint
  reach 2n off the diagonal.  It is written into LAPACK band storage entry
  by entry, in chunks of about 2k slots that stay in cache: one write over
  a chunk's slots per entry.  A cold solve starts from constant states Y
  and adjoints Lam_plus.
  ``fine_propagate(..., start=traj)`` instead starts from a trajectory of
  the same grid with the new boundary values written in, and always takes
  at least one Newton step: a start that already meets the tolerance would
  otherwise keep its old P and Q, ignoring the new Y and Lam_plus, which
  stalls the outer iteration near the tolerance.  The outer iteration
  carries one state per window, its coarse and fine trajectories at the
  last iterate (``solver._WindowState``), and each window's task builds
  its start from that state: the coarse trajectory interpolated onto the
  fine nodes at the first iterate, afterwards the Parareal update of the
  previous fine trajectory by the change of the coarse trajectory over the
  outer step.  Linear windows are closed-form and ignore ``start``.
  A window solve allocates its band matrix once and refills it on every
  Newton step.  LAPACK ``dgbtrf`` factors it and ``dgbtrs`` solves with the
  factors, both called through the function pointers that
  ``scipy.linalg.cython_lapack`` exports, wrapped as ctypes functions that
  release the GIL for the call, so window solves on a thread pool factor in
  parallel.  The first band factorization of a process loads that one
  extension module, without running the ``scipy.linalg`` package, and
  binds both pointers; later calls reuse them, and a process that solves
  only linear problems never loads it.  A
  warm-started solve keeps its factors for chord steps (simplified Newton):
  after a step that leaves at most ``_CHORD_CONTRACTION`` times the
  residual it started from, the next step back-solves against the factors
  it holds, with no assembly or factorization; a chord step that does not
  lower the residual is redone as a Newton step.  No factors outlive a
  window solve.
  Memory per fine step of a window solve, at state dimension n (bytes;
  n = 2 in brackets): the band, 16n(6n + 1) [416]; the iterate y, lam,
  updated in place, 16n [32]; the residual R, 16n [32]; the update du,
  16n [32], which takes -R and which ``dgbtrs`` overwrites in place; and
  the pivots, 8n [16], from a factorization to its back-solve in a cold
  solve and for the whole of a warm one.  That is 56n [112] besides the
  band.  Residuals and damping trials are evaluated into R in chunks of
  ``_RESIDUAL_CHUNK`` slots, so they add only a chunk's temporaries, about
  2.5 MB.  A 1.2e6-step predator-prey reference thus peaks near
  1.2e6 * 528 B = 604 MiB.
  ``CoarseLinearization.blocks`` holds a band, 2n right-hand sides solved
  in place (32n^2 [128]) and the pivots.

All entry points are pure functions of their arguments and can run
concurrently on distinct sub-intervals.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.machinery
import importlib.util
import os
import sys
import threading
import weakref
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

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
    arrays are built on first access by running the recurrences; the window
    solve returns P and Q beside the trajectory, so reading those builds
    nothing.  A window start predicted by the outer iteration is built on
    first access too, and need not satisfy the recurrences.
    """

    def __init__(self, tau: float, steps: int, *, states: Optional[Array] = None,
                 adjoints: Optional[Array] = None, builder=None,
                 newton_iterations: int = 0):
        self.tau = float(tau)
        self.steps = int(steps)
        self._states = states
        self._adjoints = adjoints
        self._builder = builder
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


# ---------------------------------------------------------------------------
# linear window operators
# ---------------------------------------------------------------------------

def _dynamics_digest(problem: ControlProblem) -> bytes:
    """SHA-256 digest of the fields of ``problem`` that _LinearOps reads.

    Linear problems whose A, B and alpha are equal bytewise have equal
    digests, whatever their endpoint data, so they share window operators.
    """
    h = hashlib.sha256(np.float64(problem.alpha).tobytes())
    h.update(problem.linear_matrix.tobytes())
    if problem.control_operator is not None:
        h.update(problem.control_operator.tobytes())
    return h.digest()


class _LinearOps:
    """Window maps of the linear scheme for one (dynamics, tau, steps).

    Reads A, B (through ``bbt``) and alpha of ``problem`` and nothing else:
    :func:`_dynamics_digest` must hash whatever it reads.  ``blocks`` are
    the derivative blocks (P_y, P_lam, Q_y, Q_lam) of every window these
    maps serve, built once: read-only arrays that all the windows share.
    Q_y is identically zero, since Q = (S^T)^m Lam_plus does not depend on
    Y; the interface operator (``solver._jacobian_matvec``) relies on that
    and skips it, so it is a read-only broadcast of one zero.
    """

    def __init__(self, problem: ControlProblem, tau: float, steps: int):
        n = problem.dim
        A = problem.linear_matrix
        step_matrix = np.eye(n) - tau * A
        try:
            S = np.linalg.solve(step_matrix, np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise SingularStepError(
                f"step matrix I - tau*A singular for tau={tau}") from exc
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
        self.blocks = (SN, -G / problem.alpha, np.broadcast_to(0.0, (n, n)),
                       self.SNT)
        for block in self.blocks:
            block.setflags(write=False)

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


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _OperatorCache:
    """Bounded LRU cache of :class:`_LinearOps`, called like its constructor.

    Keyed on the dynamics (:func:`_dynamics_digest`, computed once per
    problem) and (tau, steps), so problems that differ only in their
    endpoint data share one operator set.  A miss is built under the lock:
    concurrent windows wait for one build instead of making their own.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._digests = weakref.WeakKeyDictionary()    # problem -> digest
        self._lock = threading.Lock()
        self._hits = self._misses = 0

    def __call__(self, problem: ControlProblem, tau: float,
                 steps: int) -> _LinearOps:
        with self._lock:
            digest = self._digests.get(problem)
            if digest is None:
                digest = self._digests[problem] = _dynamics_digest(problem)
            key = (digest, tau, steps)
            ops = self._entries.get(key)
            if ops is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return ops
            self._misses += 1
            ops = self._entries[key] = _LinearOps(problem, tau, steps)
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            return ops

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self.maxsize,
                             len(self._entries))


_linear_ops = _OperatorCache(maxsize=64)


def discrete_control(problem: ControlProblem, tau: float, lam_next: Array) -> Array:
    """Controls c_{j+1} induced by the adjoints at the steps' right ends.

    ``lam_next`` holds one adjoint per row; row j of the result is its
    control.  This is the one place the two discretization branches differ:
    the linear scheme's control carries an extra application of
    (I - tau*A)^{-T} (discretely optimal form), the nonlinear scheme couples
    the adjoint directly.
    """
    B = problem.control_operator
    w = lam_next @ _linear_ops(problem, tau, 1).S if problem.is_linear \
        else lam_next
    return -(w if B is None else w @ B) / problem.alpha


# ---------------------------------------------------------------------------
# nonlinear window solves: stacked banded Newton
# ---------------------------------------------------------------------------
#
# Unknown layout groups time slot t = 0..m-1 as (lam_t, y_{t+1}); equation
# rows pair the adjoint residual R2_t with the state residual R1_t.  The
# Jacobian is block banded with scalar bandwidths (2n, 2n): the -I blocks of
# R2_t on lam_{t+1} and of R1_t on y_t lie exactly 2n off the diagonal, every
# dense block within 2n-1.  It is assembled directly in LAPACK gbsv storage,
# ab[l+u+i-j, j] = A[i, j].

def _bandwidth(n: int) -> int:
    return 2 * n


# slots per assembly chunk: at n = 2 a chunk's band columns (0.85 MB) and its
# f' and K stay in L2 while every entry is written; on a Xeon with 4 MiB of
# L2 per core, 2048 beat chunks of 256 to 4096 slots at 100k slots
_ASSEMBLY_CHUNK = 2048
# slots per residual chunk: a chunk's temporaries (about 80 B per slot at
# n = 2) stay near 2.5 MB on long windows, while windows of up to 32k slots
# take one pass.  Every pass is some thirty numpy calls, and two window
# solves on threads hand the GIL over at each: in 2048-slot chunks the
# 20k-slot windows of a 2-worker predator-prey solve took it 25% longer
_RESIDUAL_CHUNK = 32768


def _chunks(m: int, size: int):
    """(s0, s1) slot ranges of at most ``size`` slots covering m slots."""
    return ((s0, min(s0 + size, m)) for s0 in range(0, m, size))


def _residual_rows(out, problem, y, lam, tau, bbt_over_alpha):
    """Rows (R2_t, R1_t) of the slots between nodes ``y``, ``lam`` into out."""
    n = problem.dim
    out[:, n:] = y[1:] - y[:-1] - tau * problem.rhs_many(y[1:]) \
        + tau * (lam[1:] @ bbt_over_alpha.T)
    jac = problem.jacobian_many(y[:-1])
    # difference neighbours first: lam_j - lam_{j+1} is exact, whereas
    # (lam_j - tau*...) would round at the scale of lam_j on every step,
    # noise that each Newton step carries into Q = lam_0 summed over the
    # window
    out[:, :n] = (lam[:-1] - lam[1:]) \
        - tau * np.einsum("tji,tj->ti", jac, lam[:-1])


def _nonlinear_residual(out, problem, y, lam, tau, bbt_over_alpha, du=None,
                        step=1.0, terminal=False) -> float:
    """Window residual of ``(y, lam) + step * du`` into ``out``; its max norm.

    Row t of the (m, 2n) ``out`` is (R2_t, R1_t), the layout of slot t, and
    so is ``du`` (slot t holds (dlam_t, dy_{t+1})).  Without ``du`` the
    residual is that of (y, lam).  With it, the update is applied to copies
    of one chunk of nodes at a time, with lam_m = y_m - y_target when
    ``terminal``: a damping trial needs no states or adjoints of its own.
    Each node and row is computed as by one evaluation over the whole
    window, since the problem's callables act row by row.
    """
    n = problem.dim
    m = len(y) - 1
    if du is not None:
        du = du.reshape(m, 2 * n)
    res = 0.0
    for s0, s1 in _chunks(m, _RESIDUAL_CHUNK):
        yc, lc = y[s0:s1 + 1], lam[s0:s1 + 1]
        if du is not None:
            yc, lc = yc.copy(), lc.copy()
            yc[1:] += step * du[s0:s1, n:]
            lc[:-1] += step * du[s0:s1, :n]
            if s0 > 0:
                yc[0] += step * du[s0 - 1, n:]
            if s1 < m:
                lc[-1] += step * du[s1, :n]
            elif terminal:
                lc[-1] = yc[-1] - problem.y_target
        _residual_rows(out[s0:s1], problem, yc, lc, tau, bbt_over_alpha)
        # np.maximum keeps a NaN
        res = np.maximum(res, np.abs(out[s0:s1]).max())
    return float(res)


def _band_workspace(n: int, m: int) -> Array:
    """Uninitialized LAPACK gbsv storage for an m-slot window's Jacobian."""
    return np.empty((3 * _bandwidth(n) + 1, 2 * n * m), order="F")


def _assemble_banded(ab, problem, y, lam, tau, bbt_over_alpha,
                     gauss_newton: bool, terminal: bool = False) -> Array:
    """Write the window Jacobian into ``ab`` (from :func:`_band_workspace`).

    Every entry is overwritten, so a workspace that an earlier factorization
    left holding LU factors can be refilled.  The slots are filled in chunks
    of ``_ASSEMBLY_CHUNK``: each chunk's columns are zeroed, its f' and K
    evaluated and all its entries written while they are in cache.  Returns
    ``ab``.
    """
    n = problem.dim
    m = len(y) - 1
    w = 2 * n                  # columns per slot, and the bandwidth
    # V[r, c, s] = ab[r, w*s + c]: slot s's column c; A[i, j] sits in row
    # r = 2w + i - j, so each Jacobian entry is one write over a chunk's slots
    V = ab.reshape((ab.shape[0], w, m), order="F")
    for s0, s1 in _chunks(m, _ASSEMBLY_CHUNK):
        ab[:, w * s0:w * s1] = 0.0
        Vc = V[:, :, s0:s1]
        first = 1 if s0 == 0 else 0       # slot 0 has no y_t and lam_t terms
        last = min(s1, m - 1) - s0        # slot m-1 has no lam_{t+1} terms
        jac = problem.jacobian_many(y[s0:s1 + 1])
        # slot t reads K_{t+1}
        K = None if gauss_newton or last <= 0 else problem.hess_coupling_many(
            y[s0 + 1:s0 + 1 + last], lam[s0 + 1:s0 + 1 + last])
        for a in range(n):
            # -I of R2_t on lam_{t+1} and of R1_t on y_t (slot t-1's state)
            Vc[w, a, first:] = -1.0
            Vc[3 * w, n + a, :last] = -1.0
            for b in range(n):
                delta = 1.0 if a == b else 0.0
                r = 2 * w + a - b
                # R2_t = lam_t - tau f'(y_t)^T lam_t - lam_{t+1}; its Newton
                # term -tau K_t acts on y_t
                Vc[r, b, :] = delta - tau * jac[:-1, b, a]
                if K is not None:
                    Vc[r + n, n + b, :last] = -tau * K[:, a, b]
                # R1_t = y_{t+1} - y_t - tau f(y_{t+1})
                #        + tau BB^T lam_{t+1} / alpha
                Vc[r, n + b, :] = delta - tau * jac[1:, a, b]
                Vc[r - n, b, first:] = tau * bbt_over_alpha[a, b]
    if terminal:
        # lam_m = y_m - y_target puts y_m (the last slot's state column) into
        # R2_{m-1} with -I and into R1_{m-1} with tau*BB^T/alpha
        for a in range(n):
            V[w + n, n + a, -1] = -1.0
            for b in range(n):
                V[2 * w + a - b, n + b, -1] += tau * bbt_over_alpha[a, b]
    return ab


def _capsule_address(capsule) -> int:
    """The address of the C function behind a Cython ``__pyx_capi__`` capsule."""
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))


def _capsule_function(capsule, *argtypes):
    """The void C function behind a ``__pyx_capi__`` capsule, as ctypes.

    Calls through a ``CFUNCTYPE`` release the GIL for their duration.
    """
    return ctypes.CFUNCTYPE(None, *argtypes)(_capsule_address(capsule))


_int_p = ctypes.POINTER(ctypes.c_int)
_double_p = ctypes.POINTER(ctypes.c_double)
_Lapack = namedtuple("_Lapack", "dgbtrf dgbtrs")
_lapack_routines: Optional[_Lapack] = None
_lapack_lock = threading.Lock()
_CYTHON_LAPACK = "scipy.linalg.cython_lapack"


def _cython_lapack():
    """scipy's ``cython_lapack`` extension module, without ``scipy.linalg``.

    A module already imported is reused.  Otherwise the extension is loaded
    from scipy's ``linalg`` directory by itself, so the package
    ``scipy/linalg/__init__.py`` does not run.  The Cython module enters
    itself in ``sys.modules``; that entry is dropped again, and a later
    ``import scipy.linalg`` binds this same module object as its
    ``cython_lapack``.
    """
    module = sys.modules.get(_CYTHON_LAPACK)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("banded window solves need scipy (its LAPACK "
                          "dgbtrf and dgbtrs); scipy is not installed",
                          name="scipy")
    spec = importlib.machinery.PathFinder.find_spec(
        _CYTHON_LAPACK, [os.path.join(path, "linalg")
                         for path in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"scipy in {scipy.origin} has no {_CYTHON_LAPACK}",
                          name=_CYTHON_LAPACK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if sys.modules.get(_CYTHON_LAPACK) is module:
        del sys.modules[_CYTHON_LAPACK]
    return module


def _bind_lapack() -> _Lapack:
    capi = _cython_lapack().__pyx_capi__
    # Fortran arguments, all passed by reference:
    #   dgbtrf(m, n, kl, ku, ab, ldab, ipiv, info)
    #   dgbtrs(trans, n, kl, ku, nrhs, ab, ldab, ipiv, b, ldb, info)
    return _Lapack(
        _capsule_function(
            capi["dgbtrf"],
            _int_p, _int_p, _int_p, _int_p, _double_p, _int_p, _int_p, _int_p),
        _capsule_function(
            capi["dgbtrs"],
            ctypes.c_char_p, _int_p, _int_p, _int_p, _int_p, _double_p,
            _int_p, _int_p, _double_p, _int_p, _int_p))


def _lapack() -> _Lapack:
    """dgbtrf and dgbtrs, bound by the first band factorization of a process.

    Only scipy's ``cython_lapack`` extension is loaded for them (see
    :func:`_cython_lapack`): the ``scipy.linalg`` package would also load
    scipy's array-API layer and numpy's f2py, testing and ma packages, which
    no window solve uses.  A run that factors no band matrix (a linear
    problem's) loads nothing.  The lock makes threads that reach their first
    factorization together bind once.  Raises ``ImportError`` when scipy is
    missing.
    """
    global _lapack_routines
    if _lapack_routines is None:
        with _lapack_lock:
            if _lapack_routines is None:
                _lapack_routines = _bind_lapack()
    return _lapack_routines


def _int_ref(value: int):
    return ctypes.byref(ctypes.c_int(value))


def _band_factor(n: int, ab: Array, context: str) -> Array:
    """LU-factor the banded window system in ``ab`` with LAPACK dgbtrf.

    ``ab`` is overwritten by its LU factors; returns the pivot indices that
    :func:`_band_solve` needs with them.
    """
    l = _bandwidth(n)
    rows = 3 * l + 1
    if ab.dtype != np.float64 or not ab.flags.f_contiguous \
            or ab.ndim != 2 or ab.shape[0] != rows:
        raise ValueError(
            f"ab must be F-contiguous float64 gbsv storage with {rows} rows")
    size = ab.shape[1]
    ipiv = np.empty(size, dtype=np.intc)
    info = ctypes.c_int(0)
    # ab and ipiv are locals, so they outlive the call
    _lapack().dgbtrf(_int_ref(size), _int_ref(size), _int_ref(l),
                     _int_ref(l), ab.ctypes.data_as(_double_p),
                     _int_ref(rows), ipiv.ctypes.data_as(_int_p),
                     ctypes.byref(info))
    if info.value != 0:
        raise SingularStepError(
            f"banded window system singular (lapack info={info.value}) "
            f"in {context}")
    return ipiv


def _band_solve(n: int, ab: Array, ipiv: Array, b: Array) -> None:
    """Solve with the factors of :func:`_band_factor` (LAPACK dgbtrs).

    ``b`` (a vector or a matrix of columns, F-contiguous float64) is
    overwritten by the solution; no copy is made.  ``ab`` and ``ipiv`` are
    only read, so they serve any number of solves.
    """
    l = _bandwidth(n)
    size = ab.shape[1]
    if b.dtype != np.float64 or not b.flags.f_contiguous \
            or b.ndim not in (1, 2) or b.shape[0] != size:
        raise ValueError(f"b must be F-contiguous float64 with {size} rows, "
                         f"got shape {b.shape}")
    if ipiv.dtype != np.intc or ipiv.shape != (size,):
        raise ValueError(f"ipiv must be {size} C ints from _band_factor")
    nrhs = 1 if b.ndim == 1 else b.shape[1]
    info = ctypes.c_int(0)
    _lapack().dgbtrs(b"N", _int_ref(size), _int_ref(l), _int_ref(l),
                     _int_ref(nrhs), ab.ctypes.data_as(_double_p),
                     _int_ref(ab.shape[0]), ipiv.ctypes.data_as(_int_p),
                     b.ctypes.data_as(_double_p), _int_ref(max(1, size)),
                     ctypes.byref(info))
    if info.value != 0:      # only an illegal argument sets it
        raise ValueError(f"dgbtrs rejected argument {-info.value}")


# In a warm-started window solve, a step that leaves at most this fraction
# of the residual (max norm) it started from is followed by a chord step.
# In the warm fine windows of predator-prey (12 windows of 20k and of 100k
# steps) every Newton step above the round-off floor contracted by 1e-7 to
# 9.3e-3, and the chord step after it by 1e-5 to 0.1; the chord steps of a
# cold whole-horizon solve contract by 0.03 to 0.5.  Cold solves (the coarse
# windows, the reference) take none: their results are final, and a chord
# step that ends a solve leaves a residual that is smooth along the window
# rather than round-off (three Newton re-solves moved P and Q of a
# chord-ended cold 20k-step window by 6 to 25 ulps, of a Newton-ended one
# by none).  A warm window is solved again at the next outer iterate.
_CHORD_CONTRACTION = 1e-2


def _solve_window_nonlinear(problem, Y, Lam_plus, tau, m, tol, context: str,
                            start=None):
    """Damped Newton for one window: y_0 = Y and lam_m = Lam_plus.

    With ``Lam_plus=None`` the right end carries the terminal condition
    lam_m = y_m - y_target instead, so the window is the whole optimality
    system on its grid; the adjoints then start at ones (the paper's default
    guess).  ``start`` is a (states, adjoints) pair of an earlier solve on
    the same grid to start from instead of constants; the boundary values
    are written into it and at least one step is taken (see the module
    docstring).  In a warm solve, a step that leaves at most
    ``_CHORD_CONTRACTION`` times the residual it started from is followed
    by a chord step on the factors of the last Newton step; a chord step
    that does not lower the residual at full length is dropped and redone
    as a Newton step.  Returns (states, adjoints, iterations), chord steps
    included.

    Besides the band, the solve holds the iterate (y, lam), updated in
    place, and two slot-layout buffers: ``R``, the residual of the iterate
    and then of each damping trial, and ``du``, which takes -R and is
    overwritten by the back-solve with the Newton update.  A trial is
    evaluated chunk by chunk into ``R`` and only its step length is kept;
    when the last trial is not the best one (every halving failed to lower
    the residual), the best is evaluated again, as is the iterate's residual
    after a dropped chord step.  Both give the same bits as the first time.
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
    warm = start is not None
    min_steps = 1 if warm else 0
    ab = _band_workspace(n, m)
    ipiv = None             # set while ab holds factors a chord step may use
    R = np.empty((m, 2 * n))
    du = np.empty(2 * n * m)
    res = _nonlinear_residual(R, problem, y, lam, tau, bbt_over_alpha)
    res0 = max(res, 1.0)
    iters = 0

    def trial(step):
        return _nonlinear_residual(R, problem, y, lam, tau, bbt_over_alpha,
                                   du, step, terminal)

    while res > tol or iters < min_steps:
        if iters >= DEFAULT_MAX_NEWTON:
            raise NewtonDivergenceError(
                f"window Newton needed more than {DEFAULT_MAX_NEWTON} "
                f"iterations ({context}); residual {res:.3e}", residual=res)
        np.negative(R.reshape(-1), out=du)
        step = None
        if ipiv is not None:
            # chord step, at full length; dropped unless it lowers the
            # residual
            _band_solve(n, ab, ipiv, du)
            best = trial(1.0)
            if best < res:
                step = 1.0
            else:      # R holds the dropped trial: back to the iterate's
                _nonlinear_residual(R, problem, y, lam, tau, bbt_over_alpha)
                np.negative(R.reshape(-1), out=du)
        if step is None:
            _assemble_banded(ab, problem, y, lam, tau, bbt_over_alpha,
                             gauss_newton=False, terminal=terminal)
            ipiv = _band_factor(n, ab, context)
            _band_solve(n, ab, ipiv, du)
            if not warm:   # no chord steps: free the pivots before the trials
                ipiv = None
            # damped update: halve until the residual decreases
            tried = 2.0
            for _ in range(_MAX_DAMPINGS + 1):
                tried *= 0.5
                r = trial(tried)
                if step is None or r < best:
                    best, step = r, tried
                if r < res:
                    break
            if tried != step:      # R holds the last trial, not the best
                trial(step)
        if not best <= _CHORD_CONTRACTION * res:
            ipiv = None
        # the accepted trial, made in place: y + step*du as trial() made it
        du *= step
        du_slots = du.reshape(m, 2 * n)
        y[1:] += du_slots[:, n:]
        lam[:-1] += du_slots[:, :n]
        if terminal:
            lam[-1] = y[-1] - problem.y_target
        res = best
        iters += 1
        if not np.isfinite(res) or res > 1e8 * res0:
            raise NewtonDivergenceError(
                f"window Newton diverged ({context}); residual {res:.3e}",
                residual=res)
    return y, lam, iters


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _propagate(problem, grid, ell, Y, Lam_plus, tol, coarse, start=None):
    L = grid.num_subintervals
    if not (1 <= ell <= L):
        raise InvalidParameterError(f"sub-interval index {ell} not in 1..{L}")
    Y = np.asarray(Y, dtype=float).reshape(problem.dim)
    Lam_plus = np.asarray(Lam_plus, dtype=float).reshape(problem.dim)
    tau, m = (grid.coarse_step, grid.coarse_steps) if coarse \
        else (grid.fine_step, grid.fine_steps)
    if problem.is_linear:
        ops = _linear_ops(problem, tau, m)
        P, Q = ops.propagate(Y, Lam_plus, problem.alpha)
        return P, Q, LocalTrajectory(tau, m,
                                     builder=lambda: ops.sweep(Y, Lam_plus))
    if start is not None and start.steps != m:
        raise InvalidParameterError(
            f"start trajectory has {start.steps} steps, window {ell} has {m}")
    kind = "coarse" if coarse else "fine"
    y, lam, iters = _solve_window_nonlinear(
        problem, Y, Lam_plus, tau, m, tol, context=f"{kind} window {ell}",
        start=None if start is None else (start.states, start.adjoints))
    traj = LocalTrajectory(tau, m, states=y, adjoints=lam,
                           newton_iterations=iters)
    return y[-1].copy(), lam[0].copy(), traj


def fine_propagate(problem: ControlProblem, grid: TimeGrid, ell: int,
                   Y: Array, Lam_plus: Array,
                   tol: float = DEFAULT_LOCAL_TOL,
                   start: Optional[LocalTrajectory] = None):
    """Solve window ``ell`` on the fine step; returns (P, Q, trajectory).

    ``start`` is a trajectory on the window's fine grid (the outer iteration
    passes a predicted one, see the module docstring); a nonlinear window's
    Newton iteration starts from it and takes at least one step.  Linear
    windows are closed-form and ignore it.
    """
    return _propagate(problem, grid, ell, Y, Lam_plus, tol, coarse=False,
                      start=start)


def _interpolate_nodes(values: Array, steps: int) -> Array:
    """Values on m+1 uniform nodes, linearly interpolated onto steps+1.

    Both node sets span the same window; ``steps`` need not be a multiple of
    m.  Nodes that coincide get the values exactly.
    """
    m = len(values) - 1
    s = np.arange(steps + 1) * m / steps     # positions in coarse steps
    nodes = np.arange(m + 1.0)
    out = np.empty((steps + 1, values.shape[1]))
    for i in range(values.shape[1]):
        out[:, i] = np.interp(s, nodes, values[:, i])
    return out


@dataclass
class CoarseLinearization:
    """Coarse window solution plus the linearization data built on it."""

    problem: ControlProblem
    subinterval_index: int
    trajectory: LocalTrajectory

    def blocks(self, gauss_newton: bool = False):
        """The four derivative matrices (P_y, P_lam, Q_y, Q_lam).

        In closed form for linear problems, otherwise from one banded solve
        of the linearized window system about ``trajectory`` for the 2n unit
        boundary data, built anew on every call.  With ``gauss_newton`` the
        second-derivative coupling of the adjoint equation is dropped.  A
        linear problem's blocks do not depend on the window or the variant:
        every window gets the same read-only arrays of its operator set
        (``_LinearOps.blocks``), not copies.
        """
        traj = self.trajectory
        m, tau = traj.steps, traj.tau
        if self.problem.is_linear:
            return _linear_ops(self.problem, tau, m).blocks
        n = self.problem.dim
        bbt_over_alpha = self.problem.bbt() / self.problem.alpha
        ab = _assemble_banded(_band_workspace(n, m), self.problem,
                              traj.states, traj.adjoints, tau,
                              bbt_over_alpha, gauss_newton)
        # unit boundary data, dY in the first n columns and dLam in the last
        # n, enter the first slot's rows and the last slot's (the same rows
        # when m = 1), added onto zeros so that no -0.0 enters; the
        # back-solve overwrites them with the solution, whose column j holds
        # every slot's (dlam_t, dy_{t+1}) for direction j
        rhs = np.zeros((2 * n * m, 2 * n), order="F")
        last = (m - 1) * 2 * n
        if not gauss_newton:
            rhs[0:n, :n] += tau * self.problem.hess_coupling_many(
                traj.states[:1], traj.adjoints[:1])[0]
        rhs[n:2 * n, :n] += np.eye(n)
        rhs[last:last + n, n:] += np.eye(n)
        rhs[last + n:last + 2 * n, n:] -= tau * bbt_over_alpha
        try:
            ipiv = _band_factor(
                n, ab, context=f"window {self.subinterval_index} blocks")
        except SingularStepError as exc:
            exc.subinterval = self.subinterval_index
            exc.phase = "blocks"
            raise
        _band_solve(n, ab, ipiv, rhs)
        top, bottom = rhs[0:n], rhs[last + n:last + 2 * n]
        return (bottom[:, :n].copy(), bottom[:, n:].copy(),
                top[:, :n].copy(), top[:, n:].copy())


def coarse_linearize(problem: ControlProblem, grid: TimeGrid, ell: int,
                     Y: Array, Lam_plus: Array,
                     tol: float = DEFAULT_LOCAL_TOL) -> CoarseLinearization:
    """Solve window ``ell`` on the coarse step and keep the trajectory."""
    _, _, traj = _propagate(problem, grid, ell, Y, Lam_plus, tol, coarse=True)
    return CoarseLinearization(problem=problem, subinterval_index=ell,
                               trajectory=traj)


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
    return _nonlinear_residual(np.empty((traj.steps, 2 * problem.dim)),
                               problem, y, lam, tau,
                               problem.bbt() / problem.alpha)
