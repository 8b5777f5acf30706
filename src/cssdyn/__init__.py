"""Coherent squeezed states of time-dependent quadratic Hamiltonians.

The construction rests on a linear integral of motion A = f a + g a† + phi
whose coefficient frame (f, g, phi) obeys a closed ODE system; everything
observable (moments, photon statistics, wavefunctions, overlaps) is a
function of that frame.  See the module docstrings for the contracts.
"""

from .errors import (ConfigError, ConvergenceError, CssdynError, DomainError,
                     NumericalError)
from .hamiltonian import (AlgebraicCoefficients, CoefficientSchedule,
                          ComplexParts, Constant, Harmonic,
                          PhysicalCoefficients, Polynomial, Table, UnitContext,
                          as_profile, to_algebraic, to_physical, validate)
from .mathieu import (DrivenOscillatorConfig, FundamentalBasis,
                      MathieuParameters, frames, fundamental_solutions,
                      mathieu_parameters, transition_snapshot)
from .motion import (InitialConditions, IntegratorSettings, MotionFrame,
                     closed_form, evolve, from_initial_width, u_of)
from .observables import (ObservableRecord, deviations, fock_wavefunction,
                          hamilton_residual, mean_energy, means, observe,
                          uncertainty, wavefunction)
from .states import (FockDistribution, SqueezeDisplace, branch_windings,
                     fock_coefficients, normalization, overlap, parameters,
                     transition_probabilities)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicCoefficients", "CoefficientSchedule", "ComplexParts",
    "ConfigError", "Constant", "ConvergenceError", "CssdynError",
    "DomainError", "DrivenOscillatorConfig", "FockDistribution",
    "FundamentalBasis", "Harmonic", "InitialConditions", "IntegratorSettings",
    "MathieuParameters", "MotionFrame", "NumericalError", "ObservableRecord",
    "PhysicalCoefficients", "Polynomial", "SqueezeDisplace", "Table",
    "UnitContext", "as_profile", "branch_windings", "closed_form",
    "deviations", "evolve", "fock_coefficients", "fock_wavefunction",
    "frames", "from_initial_width", "fundamental_solutions",
    "hamilton_residual", "mathieu_parameters", "mean_energy", "means",
    "normalization", "observe", "overlap", "parameters", "to_algebraic",
    "to_physical", "transition_probabilities", "transition_snapshot", "u_of",
    "uncertainty", "validate", "wavefunction", "__version__",
]
