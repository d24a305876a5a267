"""Entanglement dynamics of a uniformly accelerated pair of two-level atoms.

The pair couples to the electromagnetic vacuum along its common worldline;
the package assembles the resulting Kossakowski dissipator coefficients,
propagates the two-atom X state exactly, computes the concurrence, and runs
the parameter sweeps (curves, maxima, region maps) that compare the
accelerated pair against a static pair in a thermal bath at the Unruh
temperature.
"""

from .coefficients import (BathKind, CoefficientSet, DipoleOrientation,
                           SystemParams, assemble)
from .dynamics import (XState, asymptotic_state, build_generator,
                       catalogue_state, evolve)
from .entanglement import (EntanglementEvents, Trajectory, compute_trajectory,
                           concurrence_wootters, concurrence_x, detect_events)
from .errors import (AtompairError, ComputationError, ConfigError,
                     DegenerateGeneratorError, DomainError, InvalidStateError)

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the numerical path: always the numpy one."""
    return "numpy"


__all__ = [
    "AtompairError", "BathKind", "CoefficientSet", "ComputationError",
    "ConfigError", "DegenerateGeneratorError", "DipoleOrientation",
    "DomainError", "EntanglementEvents", "InvalidStateError", "SystemParams",
    "Trajectory", "XState",
    "assemble", "asymptotic_state", "backend_name", "build_generator",
    "catalogue_state", "compute_trajectory", "concurrence_wootters",
    "concurrence_x", "detect_events", "evolve", "__version__",
]
