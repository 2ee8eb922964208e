import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paraopt import (InterfaceVector, InvalidParameterError, ParaoptOptions,
                     UnsupportedRegimeError, make_dahlquist, make_grid,
                     paraopt_solve)
from paraopt import linear_analysis as la

TABLE_GRID = make_grid(100.0, 30, 5000, 50)


def setups(sigma, alpha=1.0, grid=TABLE_GRID):
    return la.DahlquistSetup(sigma, alpha, grid)


# -- closed-form coefficients ------------------------------------------------

def test_beta_golden_values():
    DT, dt = TABLE_GRID.sub_length, TABLE_GRID.coarse_step
    assert np.isclose(la.scalar_coefficients(-0.125, dt, DT)[0], 0.6604,
                      rtol=1e-3)
    assert la.scalar_coefficients(-1.0, 1.0, 1.0)[0] == 0.5
    assert np.isclose(la.scalar_coefficients(-16.0, dt, DT)[0], 1.72e-16,
                      rtol=3e-3)


def test_gamma_golden_values():
    DT, dt = TABLE_GRID.sub_length, TABLE_GRID.coarse_step
    assert np.isclose(la.scalar_coefficients(-0.125, dt, DT)[1], 2.2462,
                      rtol=1e-3)
    assert la.scalar_coefficients(-1.0, 1.0, 1.0)[1] == 0.25


@pytest.mark.parametrize("sigma,tau,DT", [
    (-0.5, 0.1, 1.0), (-3.0, 0.25, 2.0), (-40.0, 0.01, 0.5),
])
def test_gamma_matches_explicit_sum(sigma, tau, DT):
    N = round(DT / tau)
    explicit = tau * math.fsum((1.0 - sigma * tau) ** (2 * (j - N))
                               for j in range(N))
    assert np.isclose(la.scalar_coefficients(sigma, tau, DT)[1], explicit,
                      rtol=1e-12)


def test_beta_rejects_non_integer_ratio():
    with pytest.raises(InvalidParameterError):
        la.scalar_coefficients(-1.0, 0.3, 1.0)


# -- summary -----------------------------------------------------------------

def test_spectral_summary_golden_row():
    s = la.spectral_summary(setups(-0.5))
    assert np.isclose(s.C, 0.4713, rtol=1e-3)
    assert np.isclose(s.L0, 0.5539, rtol=1e-3)
    assert np.isclose(s.disc_radius, 5.35e-3, rtol=1e-3)
    assert np.isclose(s.mu_star_bound, -1.24e-2, rtol=4e-3)


def test_spectral_summary_large_alpha_text_value():
    s = la.spectral_summary(setups(-16.0, alpha=1000.0))
    assert np.isclose(s.mu_star_bound, -1.07e-5, rtol=1e-2)


def test_spectral_summary_identical_grids_degenerate():
    g = make_grid(1.0, 4, 10, 10)
    s = la.spectral_summary(la.DahlquistSetup(-1.0, 1.0, g))
    assert s.delta_beta == 0.0 and s.delta_gamma == 0.0
    assert s.disc_radius == 0.0 and s.rho_bound == 0.0
    assert not s.exists_isolated


def test_spectral_summary_rejects_nonnegative_sigma():
    with pytest.raises(UnsupportedRegimeError):
        la.spectral_summary(setups(0.5))


# -- assembled systems -------------------------------------------------------

def test_assemble_system_smallest_case():
    g = make_grid(1.0, 1, 1, 1)
    A, rhs = la.assemble_system(la.DahlquistSetup(-1.0, 1.0, g, y_init=1.0,
                                                  y_target=0.0), "fine")
    assert np.allclose(A, [[1.0, 0.0, 0.0],
                           [-0.5, 1.0, 0.25],
                           [0.0, -1.0, 1.0]])
    assert np.allclose(rhs, [1.0, 0.0, 0.0])


def test_assemble_system_solution_satisfies_system():
    g = make_grid(2.0, 2, 6, 3)
    setup = la.DahlquistSetup(-1.5, 0.7, g, y_init=2.0, y_target=-1.0)
    A, rhs = la.assemble_system(setup, "fine")
    x = np.linalg.solve(A, rhs)
    assert np.allclose(A @ x, rhs, atol=1e-13)
    # eliminated interface values reproduce a direct time-stepping sweep
    b, gam = la.scalar_coefficients(-1.5, g.fine_step, g.sub_length)
    Y0, Y1, Y2, L1, L2 = x
    assert np.isclose(Y1, b * Y0 - gam / 0.7 * L1, atol=1e-13)
    assert np.isclose(L1, b * L2, atol=1e-14)
    assert np.isclose(L2, Y2 - (-1.0), atol=1e-13)


def test_coarse_assembly_matches_solver_jacobian():
    # entrywise agreement with the interface Jacobian built from windows
    from paraopt import coarse_linearize, make_dahlquist
    from paraopt.solver import _jacobian_matvec, _window_blocks
    from test_solver import apply_columns

    g = make_grid(2.0, 2, 4, 2)
    setup = la.DahlquistSetup(-1.0, 1.3, g)
    A_coarse, _ = la.assemble_system(setup, "coarse")
    p = make_dahlquist(-1.0, 1.3)
    lins = [coarse_linearize(p, g, ell, [0.0], [0.0]) for ell in (1, 2)]
    D = 2 * g.num_subintervals + 1
    J = apply_columns(_jacobian_matvec(_window_blocks(lins, "newton", 1)),
                      np.eye(D))
    assert np.abs(J - A_coarse).max() <= 1e-12


# -- spectra -----------------------------------------------------------------

def test_iteration_spectrum_identical_grids_all_zero():
    g = make_grid(1.0, 3, 7, 7)
    ev = la.iteration_spectrum(la.DahlquistSetup(-2.0, 1.0, g))
    assert np.abs(ev).max() <= 1e-12


def test_iteration_spectrum_has_double_zero():
    ev = np.sort(np.abs(la.iteration_spectrum(setups(-0.5))))
    assert ev[1] <= 1e-12


def test_isolated_eigenvalue_location_table_case():
    setup = setups(-16.0)
    s = la.spectral_summary(setup)
    ev = la.iteration_spectrum(setup)
    outside = ev[np.abs(ev - s.disc_center) - s.disc_radius > 1e-10]
    assert len(outside) == 1
    mu = outside[0]
    assert abs(mu.imag) <= 1e-12 and mu.real < 0
    assert s.mu_star_bound <= mu.real  # lower bound on the isolated eigenvalue
    assert np.isclose(mu.real, -1.05e-2, rtol=5e-3)


@pytest.mark.parametrize("L", [1, 2, 3, 5])
@pytest.mark.parametrize("sigma", [-0.125, -1.0, -16.0])
def test_charpoly_roots_match_spectrum(L, sigma):
    from scipy.optimize import linear_sum_assignment

    g = make_grid(10.0 / 3.0 * L, L, 5000, 50)
    setup = la.DahlquistSetup(sigma, 1.0, g)
    ev = la.iteration_spectrum(setup)
    roots = np.concatenate([la.charpoly_roots(setup), [0.0, 0.0]])
    D = np.abs(ev[:, None] - roots[None, :])
    ri, ci = linear_sum_assignment(D)
    assert D[ri, ci].max() <= 1e-8


def test_charpoly_single_subinterval_closed_form():
    g = make_grid(10.0 / 3.0, 1, 5000, 50)
    setup = la.DahlquistSetup(-1.0, 2.0, g)
    s = la.spectral_summary(setup)
    roots = la.charpoly_roots(setup)
    assert roots.shape == (1,)
    expected = s.delta_gamma / (2.0 + s.gamma_coarse)
    assert np.isclose(roots[0].real, expected, rtol=1e-12)
    assert roots[0].real < 0


def test_charpoly_identical_grids_all_zero():
    g = make_grid(1.0, 4, 6, 6)
    roots = la.charpoly_roots(la.DahlquistSetup(-1.0, 1.0, g))
    assert roots.shape == (7,)
    assert np.abs(roots).max() == 0.0


def test_charpoly_degenerate_differences_match_spectrum():
    # both beta underflow to 0, so dbeta == 0 while dgamma != 0: the roots
    # come from the direct expansion, not the a = beta - dbeta/mu transform
    from scipy.optimize import linear_sum_assignment

    setup = la.DahlquistSetup(-1e8, 1.0, make_grid(300.0, 3, 400, 100))
    s = la.spectral_summary(setup)
    assert s.delta_beta == 0.0 and s.delta_gamma != 0.0
    ev = la.iteration_spectrum(setup)
    roots = la.charpoly_roots(setup)
    D = np.abs(ev[:, None] - np.concatenate([roots, [0.0, 0.0]])[None, :])
    ri, ci = linear_sum_assignment(D)
    assert D[ri, ci].max() <= 1e-8
    rho = abs(s.delta_gamma) / (1.0 + s.gamma_coarse)
    assert np.isclose(np.abs(roots).max(), rho, rtol=1e-12, atol=0.0)


# -- stationary iteration ----------------------------------------------------

def _dominant_direction(setup, iters=40):
    A_f, rhs = la.assemble_system(setup, "fine")
    A_c, _ = la.assemble_system(setup, "coarse")
    M = np.eye(len(rhs)) - np.linalg.solve(A_c, A_f)
    v = np.cos(np.arange(len(rhs)) + 0.5)
    for _ in range(iters):
        v = M @ v
        v /= np.linalg.norm(v)
    return v


def test_solver_contraction_matches_rho_table_case():
    # paraopt_solve started on the slowest mode contracts at rho per step
    setup = setups(-0.25)
    rho = la.spectral_radius(setup)
    A_f, rhs = la.assemble_system(setup, "fine")
    x_star = np.linalg.solve(A_f, rhs)
    L = TABLE_GRID.num_subintervals
    report = paraopt_solve(
        make_dahlquist(-0.25, 1.0), TABLE_GRID,
        ParaoptOptions(outer_tol=1e-13, max_outer=400,
                       inner_solver="assembled_direct", workers=1),
        reference=InterfaceVector.from_stacked(x_star, L, 1),
        x0=InterfaceVector.from_stacked(x_star + _dominant_direction(setup),
                                        L, 1))
    # below 1e-12 the error is round-off, not the slowest mode
    errors = report.errors[report.errors > 1e-12]
    contraction = (errors[-1] / errors[0]) ** (1.0 / (len(errors) - 1))
    assert abs(contraction - rho) <= 0.1 * rho


# -- sigma sweeps and global bound -------------------------------------------

def test_rho_max_over_sigma_bounds():
    g = make_grid(1.0, 5, 500, 5)
    rhos = []
    for sigma in -np.logspace(-2, 4, 25):
        setup = la.DahlquistSetup(float(sigma), 1.0, g)
        rho = la.spectral_radius(setup)
        bound = la.spectral_summary(setup).rho_bound
        assert rho <= bound * (1 + 1e-9) + 1e-14
        rhos.append(rho)
    assert max(rhos) <= la.global_rho_bound(1.0, g.coarse_step)


def test_global_bound_boundary_alpha():
    # 0.79 dt/(a + sqrt(a dt)) + 0.3 = 1 exactly at a = 0.4544... * dt
    dt = 0.37
    r = np.roots([0.7, 0.7 * np.sqrt(dt), -0.79 * dt])  # quadratic in sqrt(a)
    a_crit = max(r) ** 2
    assert np.isclose(a_crit / dt, 0.4544, atol=2e-4)
    assert np.isclose(la.global_rho_bound(a_crit, dt), 1.0, atol=1e-12)
    assert la.global_rho_bound(1.001 * a_crit, dt) < 1.0


def test_remark_asymptotics_of_the_bound():
    # low frequency: bound ~ |sigma| (coarse - fine) when ratio >= 2
    DT, Dt = 0.1, 0.02
    for ratio in (2, 10):
        _, s = la.analysis_point(-1e-6, 1.0, 5, DT, Dt, Dt / ratio)
        assert np.isclose(s.rho_bound / (1e-6 * (Dt - Dt / ratio)), 1.0,
                          rtol=5e-2)
    # high frequency with a single coarse step per window: bound ~ 1/(|s| dt)
    for ratio in (2, 10):
        _, s = la.analysis_point(-1e8, 1.0, 5, 1.0, 1.0, 1.0 / ratio)
        assert np.isclose(s.rho_bound * 1e8 * 1.0, 1.0, rtol=5e-2)


# -- appendix inequalities ---------------------------------------------------

def test_appendix_inequalities_examples():
    ok1, ok2 = la.check_appendix_inequalities(1.0, 1.0)
    assert ok1 and ok2
    assert math.isclose(2.0, (1 + 1.0) ** (1.0 / 1.0))
    ok1, ok2 = la.check_appendix_inequalities(50.0, 50.0)
    assert ok1 and ok2
    assert np.isclose(50 * (52 / 51) - 1, 49.98, atol=1e-2)


def test_appendix_inequalities_domain():
    with pytest.raises(InvalidParameterError):
        la.check_appendix_inequalities(1.0, 2.0)
    with pytest.raises(InvalidParameterError):
        la.check_appendix_inequalities(-1.0, 0.5)


# -- randomized property tests -----------------------------------------------

admissible = st.tuples(
    st.floats(min_value=-3.0, max_value=3.0),   # log10 |sigma|
    st.floats(min_value=-4.0, max_value=3.0),   # log10 alpha
    st.floats(min_value=-2.0, max_value=2.0),   # log10 T
    st.integers(min_value=1, max_value=10),     # L
    st.integers(min_value=1, max_value=30),     # coarse steps per window
    st.integers(min_value=2, max_value=60),     # fine steps per coarse step
)


@settings(max_examples=60, deadline=None)
@given(admissible)
def test_sign_conditions_and_bounds_property(params):
    u, v, w, L, cps, fpc = params
    sigma = -(10.0 ** u)
    alpha = 10.0 ** v
    grid = make_grid(10.0 ** w, L, cps * fpc, cps)
    s = la.spectral_summary(la.DahlquistSetup(sigma, alpha, grid))
    assert 0.0 < s.beta_coarse < 1.0
    assert 0.0 < s.delta_beta <= s.beta_coarse
    # strictness is unobservable once the fine value underflows to beta*eps
    assert (s.delta_beta < s.beta_coarse
            or s.beta_fine <= 1e-15 * s.beta_coarse)
    assert s.gamma_coarse > 0.0
    assert s.delta_gamma < 0.0
    assert 0.0 < s.C < 1.0
    assert (abs(s.delta_gamma) / s.gamma_coarse
            <= 1.58 * abs(sigma) * (grid.coarse_step - grid.fine_step)
            * (1 + 1e-9))
    assert s.delta_beta / (1.0 - s.beta_coarse) <= 0.3 * (1 + 1e-9)
    rho = la.spectral_radius(la.DahlquistSetup(sigma, alpha, grid))
    assert rho <= s.rho_bound * (1 + 1e-9) + 1e-14
    assert rho <= s.global_bound * (1 + 1e-9)
    if alpha > 0.4544 * grid.coarse_step:
        assert rho < 1.0
