"""Time-parallel solver for coupled forward-backward optimal control.

The horizon is split into windows; the unknowns are the window-interface
states and adjoints.  An inexact Newton iteration enforces the matching
conditions, with the Jacobian blocks approximated by derivatives of coarse
window propagators, so the expensive fine solves parallelize across
windows.  ``linear_analysis`` carries the complete spectral convergence
theory of the linear diffusive case; ``experiments`` and the CLI reproduce
the study configurations built on it.
"""

from .errors import (InvalidParameterError, NewtonDivergenceError,
                     NoConvergenceError, ParaoptError, SingularMatrixError,
                     SingularStepError, UnsupportedRegimeError)
from .model import (ControlProblem, InterfaceVector, TimeGrid, make_dahlquist,
                    make_grid, make_heat_1d, make_lotka_volterra)
from .propagators import (CoarseLinearization, LocalTrajectory,
                          coarse_linearize, fine_propagate)
from .solver import (ConvergenceReport, ParaoptOptions, default_initial_guess,
                     paraopt_solve, reference_solve, residual,
                     solve_jacobian_system)

__all__ = [
    "ControlProblem", "TimeGrid", "InterfaceVector",
    "make_dahlquist", "make_lotka_volterra", "make_heat_1d", "make_grid",
    "LocalTrajectory", "CoarseLinearization",
    "fine_propagate", "coarse_linearize",
    "ParaoptOptions", "ConvergenceReport",
    "residual", "solve_jacobian_system",
    "paraopt_solve", "default_initial_guess", "reference_solve",
    "ParaoptError", "InvalidParameterError", "NewtonDivergenceError",
    "NoConvergenceError", "SingularStepError", "SingularMatrixError",
    "UnsupportedRegimeError",
]

__version__ = "0.1.0"
