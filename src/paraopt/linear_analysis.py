"""Spectral convergence analysis of the linear two-grid interface iteration.

For the scalar problem ``ydot = sigma*y + c`` (sigma < 0) discretized by
implicit Euler, eliminating interior unknowns reduces the discrete
optimality system to a block system ``A_dt X = b`` in the interface values
(Y_0..Y_L, Lam_1..Lam_L), built from two scalars per step size tau:

    beta_tau  = (1 - sigma*tau)^(-DT/tau)
    gamma_tau = tau * sum_{j=0}^{N-1} (1 - sigma*tau)^(2(j-N))
              = (beta_tau^2 - 1) / (sigma * (2 - sigma*tau))

The two-grid iteration X^{k+1} = (I - A_coarse^{-1} A_fine) X^k +
A_coarse^{-1} b converges at the spectral radius of its iteration matrix,
whose nonzero eigenvalues are the 2L-1 roots of

    P(mu) = alpha*mu^(2L-1)
          + (mu*gamma - dgamma) * sum_l mu^(2(L-l-1)) * (mu*beta - dbeta)^(2l)

with beta, gamma the coarse values and dbeta, dgamma the coarse-minus-fine
differences.  This module evaluates the closed forms, assembles the block
systems, computes the spectrum both ways (dense eigensolve and polynomial
roots), and provides the eigenvalue-location and convergence bounds: the
cluster disc, the constant C < 1, the threshold L_0 for an isolated real
negative eigenvalue, its lower bound, the all-L spectral radius bound, and
the grid-only global bound 0.79*coarse_step/(alpha + sqrt(alpha*coarse_step))
+ 0.3 (convergence guaranteed for alpha > 0.4544*coarse_step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParameterError, SingularMatrixError,
                     UnsupportedRegimeError)
from .model import TimeGrid, step_count

__all__ = [
    "DahlquistSetup", "SpectralSummary", "scalar_coefficients",
    "spectral_summary", "summary_from_parameters", "assemble_system",
    "iteration_spectrum", "charpoly_roots", "spectral_radius",
    "analysis_point", "global_rho_bound", "check_appendix_inequalities",
]


@dataclass(frozen=True)
class DahlquistSetup:
    """A scalar analysis configuration: sigma, alpha and the time grid."""

    sigma: float
    alpha: float
    grid: TimeGrid
    y_init: float = 1.0
    y_target: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0):
            raise InvalidParameterError("alpha must be positive")


def scalar_coefficients(sigma: float, tau: float, DT: float,
                        *, strict: bool = True) -> tuple[float, float]:
    """The pair (beta_tau, gamma_tau) for one step size.

    ``strict`` enforces that DT/tau is a positive integer (the discrete
    derivation counts steps); the relaxed form evaluates the same closed
    formulas with a real exponent, which sweep-style parameter studies use
    for step sizes that do not tile the sub-interval exactly.
    """
    if not (tau > 0) or not (DT > 0):
        raise InvalidParameterError("step and sub-interval length must be positive")
    m = DT / tau
    if strict:
        m = step_count(m, "DT/tau")
    if 1.0 - sigma * tau <= 0.0:
        raise InvalidParameterError("need 1 - sigma*tau > 0")
    if sigma == 0.0:
        raise InvalidParameterError("gamma is undefined for sigma = 0")
    # log-space evaluation: stable for huge exponents and for beta near 1
    log_step = math.log1p(-sigma * tau)
    b = math.exp(-m * log_step)
    g = math.expm1(-2.0 * m * log_step) / (sigma * (2.0 - sigma * tau))
    return b, g


@dataclass(frozen=True)
class SpectralSummary:
    """All convergence-analysis quantities for one (sigma, alpha, grid)."""

    sigma: float
    alpha: float
    num_subintervals: int
    coarse_step: float
    beta_fine: float
    beta_coarse: float
    gamma_fine: float
    gamma_coarse: float
    delta_beta: float
    delta_gamma: float
    C: float
    L0: float
    disc_center: float
    disc_radius: float
    exists_isolated: bool
    mu_star_bound: float
    rho_bound: float
    global_bound: float

    @property
    def disc_reach(self) -> float:
        """Largest modulus inside the cluster disc: |center| + radius."""
        return abs(self.disc_center) + self.disc_radius


def global_rho_bound(alpha: float, coarse_step: float) -> float:
    """Grid-only bound on the spectral radius, uniform over sigma < 0."""
    return 0.79 * coarse_step / (alpha + math.sqrt(alpha * coarse_step)) + 0.3


def summary_from_parameters(sigma: float, alpha: float, L: int,
                            coarse_step: float,
                            beta_coarse: float, gamma_coarse: float,
                            beta_fine: float, gamma_fine: float
                            ) -> SpectralSummary:
    """Assemble a :class:`SpectralSummary` from precomputed coefficients."""
    b, g = beta_coarse, gamma_coarse
    db = b - beta_fine
    dg = g - gamma_fine
    one_minus_b2 = 1.0 - b * b
    if db == 0.0 and dg == 0.0:
        # identical grids: the iteration matrix is nilpotent
        C = math.nan
        L0 = math.inf
    else:
        C = b + g * db / abs(dg) if dg != 0.0 else math.inf
        L0 = (C - b) / (g * (1.0 - C)) if C != 1.0 else math.inf
    disc_center = -b * db / one_minus_b2
    disc_radius = db / one_minus_b2
    mu_star_bound = -(abs(dg) + alpha * db * (1.0 + b)) / (g + alpha * one_minus_b2)
    return SpectralSummary(
        sigma=sigma, alpha=alpha, num_subintervals=L, coarse_step=coarse_step,
        beta_fine=beta_fine, beta_coarse=b, gamma_fine=gamma_fine,
        gamma_coarse=g, delta_beta=db, delta_gamma=dg, C=C, L0=L0,
        disc_center=disc_center, disc_radius=disc_radius,
        exists_isolated=bool(L > alpha * L0),
        mu_star_bound=mu_star_bound,
        rho_bound=abs(mu_star_bound),
        global_bound=global_rho_bound(alpha, coarse_step),
    )


def spectral_summary(setup: DahlquistSetup) -> SpectralSummary:
    """Analysis quantities for an admissible setup (requires sigma < 0)."""
    if setup.sigma >= 0:
        raise UnsupportedRegimeError(
            "the convergence analysis requires sigma < 0")
    grid = setup.grid
    DT = grid.sub_length
    bc, gc = scalar_coefficients(setup.sigma, grid.coarse_step, DT)
    bf, gf = scalar_coefficients(setup.sigma, grid.fine_step, DT)
    return summary_from_parameters(setup.sigma, setup.alpha,
                                   grid.num_subintervals, grid.coarse_step,
                                   bc, gc, bf, gf)


def assemble_system(setup: DahlquistSetup, which: str = "fine"):
    """The (2L+1) x (2L+1) interface system matrix and right-hand side.

    Row blocks: Y_0 = y_init; state rows -beta*Y_{l-1} + Y_l +
    (gamma/alpha)*Lam_l = 0; adjoint rows Lam_l - beta*Lam_{l+1} = 0; and the
    terminal coupling -Y_L + Lam_L = -y_target.
    """
    if which not in ("fine", "coarse"):
        raise InvalidParameterError("which must be 'fine' or 'coarse'")
    grid = setup.grid
    tau = grid.fine_step if which == "fine" else grid.coarse_step
    b, g = scalar_coefficients(setup.sigma, tau, grid.sub_length)
    L = grid.num_subintervals
    n = 2 * L + 1
    A = np.zeros((n, n))
    rhs = np.zeros(n)
    A[0, 0] = 1.0
    rhs[0] = setup.y_init
    for l in range(1, L + 1):
        A[l, l - 1] = -b
        A[l, l] = 1.0
        A[l, L + l] = g / setup.alpha
    for l in range(1, L):
        A[L + l, L + l] = 1.0
        A[L + l, L + l + 1] = -b
    A[2 * L, L] = -1.0
    A[2 * L, 2 * L] = 1.0
    rhs[2 * L] = -setup.y_target
    return A, rhs


def _iteration_matrix(setup: DahlquistSetup) -> np.ndarray:
    A_fine, _ = assemble_system(setup, "fine")
    A_coarse, _ = assemble_system(setup, "coarse")
    try:
        M = np.linalg.solve(A_coarse, A_fine)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("coarse interface matrix is singular") from exc
    return np.eye(len(M)) - M


def iteration_spectrum(setup: DahlquistSetup) -> np.ndarray:
    """Eigenvalues of I - A_coarse^{-1} A_fine (dense eigensolve)."""
    return np.linalg.eigvals(_iteration_matrix(setup))


def _polish_interior_roots(q_ascending: np.ndarray, roots: np.ndarray,
                           radius: float = 0.9) -> np.ndarray:
    """Newton-refine roots well inside the unit circle.

    At most one root of the transformed polynomial lies inside the unit
    disc; when its magnitude is many orders below 1 the companion
    eigensolve returns it only to absolute eigenvalue accuracy, which the
    back-transform then amplifies.  A few Newton steps on the (exactly
    known) coefficients restore full relative accuracy; the near-unit-circle
    cluster is left untouched.
    """
    q = q_ascending
    dq = q[1:] * np.arange(1, len(q))
    out = roots.astype(complex)
    for i, a in enumerate(roots):
        if abs(a) >= radius:
            continue
        z = complex(a)
        for _ in range(8):
            p = complex(np.polyval(q[::-1], z))
            dp = complex(np.polyval(dq[::-1], z))
            if dp == 0.0:
                break
            step = p / dp
            z -= step
            if abs(step) <= 1e-15 * max(abs(z), 1e-300):
                break
        out[i] = z
    return out


def _charpoly_roots_from(alpha: float, b: float, g: float, db: float,
                         dg: float, L: int) -> np.ndarray:
    if L < 1:
        raise InvalidParameterError("need at least one sub-interval")
    if not (alpha > 0):
        raise InvalidParameterError("alpha must be positive")
    if db == 0.0 and dg == 0.0:
        return np.zeros(2 * L - 1, dtype=complex)
    # Change of variables a = beta - dbeta/mu maps P to
    #   R(a) = alpha*dbeta + |dgamma| (C - a) sum_{l=0}^{L-1} a^{2l},
    # whose roots sit near the unit circle: the companion eigensolve is
    # well conditioned there, while the expanded P(mu) is not (its roots
    # cluster at scale dbeta).  Map the roots back through mu = dbeta/(b-a).
    if db != 0.0 and dg != 0.0:
        adg = abs(dg)
        C = b + g * db / adg
        q = np.zeros(2 * L)           # ascending coefficients of R(a)
        q[0] = alpha * db + adg * C
        q[2:2 * L - 1:2] = adg * C
        q[1:2 * L:2] = -adg
        a = np.roots(q[::-1])
        a = _polish_interior_roots(q, a)
        return db / (b - a)
    # Degenerate mixed cases (one difference rounds to zero): fall back to
    # the scaled direct expansion; roots are tiny and only needed coarsely.
    coeffs = np.zeros(2 * L)
    coeffs[2 * L - 1] = alpha
    for l in range(L):
        base = 2 * (L - l - 1)
        for j in range(2 * l + 1):
            w = math.comb(2 * l, j) * b ** j * (-db) ** (2 * l - j)
            coeffs[base + j + 1] += g * w
            coeffs[base + j] += -dg * w
    nz = np.nonzero(coeffs)[0]
    k0, k1 = nz[0], nz[-1]
    r0 = (abs(coeffs[k0]) / abs(coeffs[k1])) ** (1.0 / (k1 - k0)) if k1 > k0 else 1.0
    scaled = coeffs * r0 ** np.arange(2 * L)
    scaled /= np.abs(scaled).max()
    return np.roots(scaled[::-1]) * r0


def charpoly_roots(setup: DahlquistSetup) -> np.ndarray:
    """The 2L-1 roots of P(mu): the nonzero eigenvalues of the iteration."""
    if setup.sigma >= 0:
        raise UnsupportedRegimeError("charpoly analysis requires sigma < 0")
    grid = setup.grid
    DT = grid.sub_length
    b, g = scalar_coefficients(setup.sigma, grid.coarse_step, DT)
    bf, gf = scalar_coefficients(setup.sigma, grid.fine_step, DT)
    return _charpoly_roots_from(setup.alpha, b, g, b - bf, g - gf,
                                grid.num_subintervals)


def spectral_radius(setup: DahlquistSetup) -> float:
    """max |mu| over the nonzero eigenvalues, via the characteristic roots."""
    roots = charpoly_roots(setup)
    return float(np.abs(roots).max()) if roots.size else 0.0


def analysis_point(sigma: float, alpha: float, L: int, DT: float,
                   coarse_dt: float, fine_dt: float, *, strict: bool = True
                   ) -> tuple[float, SpectralSummary]:
    """Spectral radius and summary for explicit step sizes.

    With ``strict=False`` the closed-form coefficients are evaluated with
    real exponents, so parameter sweeps can probe step sizes that do not
    tile the sub-interval by an integer count (the block structure itself
    only depends on L and the four coefficients).
    """
    if sigma >= 0:
        raise UnsupportedRegimeError("analysis requires sigma < 0")
    if not (fine_dt <= coarse_dt):
        raise InvalidParameterError("fine step must not exceed coarse step")
    bc, gc = scalar_coefficients(sigma, coarse_dt, DT, strict=strict)
    bf, gf = scalar_coefficients(sigma, fine_dt, DT, strict=strict)
    roots = _charpoly_roots_from(alpha, bc, gc, bc - bf, gc - gf, L)
    rho = float(np.abs(roots).max()) if roots.size else 0.0
    summary = summary_from_parameters(sigma, alpha, L, coarse_dt, bc, gc, bf, gf)
    return rho, summary


def check_appendix_inequalities(k: float, x: float) -> tuple[bool, bool]:
    """Evaluate the two scalar inequalities behind the C < 1 estimate.

    First: (1+x)^(k/x) > k*(2+x)/(1+x) - 1 for 0 < x <= k.
    Second: log(1+x) >= x/(x+1) + (x/(x+1))^2 / 2 for x > 0.

    The second inequality's margin shrinks like x^3 as x -> 0, below what
    double evaluation of the two sides can resolve; the comparison therefore
    carries a few-ulp rounding allowance.
    """
    if not (k > 0) or not (0 < x <= k):
        raise InvalidParameterError("need k > 0 and 0 < x <= k")
    lhs1 = math.exp((k / x) * math.log1p(x))
    rhs1 = k * (2.0 + x) / (1.0 + x) - 1.0
    u = x / (x + 1.0)
    lhs2 = math.log1p(x)
    rhs2 = u + 0.5 * u * u
    return lhs1 > rhs1, lhs2 >= rhs2 - 4.0 * np.finfo(float).eps * abs(rhs2)
