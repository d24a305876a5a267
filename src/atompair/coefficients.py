"""Dissipator coefficients of the two-atom master equation.

``assemble`` contracts the spectral shape factors with the two dipole
orientations and the Planck factor at the Unruh temperature T = a / 2 pi,
yielding the four Kossakowski coefficients (A1, B1) for each atom alone and
(A2, B2) for the cross-atom channel. Everything is expressed in units of
the single-atom spontaneous emission rate, with the transition frequency
fixed at 1, so inputs are the dimensionless ratios a/omega and omega*L.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError

_UNIT_NORM_TOL = 1e-12

_AXIS_VECTORS = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
}


class BathKind(enum.Enum):
    """Environment seen by the pair: its own accelerated vacuum, or a static
    thermal bath at the matching Unruh temperature."""

    ACCELERATED_VACUUM = "accelerated"
    THERMAL_AT_UNRUH = "thermal"


@dataclass(frozen=True)
class DipoleOrientation:
    """Unit vector of direction cosines for one atomic dipole."""

    components: tuple

    def __post_init__(self):
        if len(self.components) != 3:
            raise DomainError("dipole orientation needs exactly 3 components")
        comps = tuple(float(c) for c in self.components)
        object.__setattr__(self, "components", comps)
        norm2 = sum(c * c for c in comps)
        if abs(norm2 - 1.0) > _UNIT_NORM_TOL:
            raise DomainError(f"dipole orientation must have unit norm, |d|^2 = {norm2}")

    @classmethod
    def from_axis(cls, label: str) -> "DipoleOrientation":
        try:
            return cls(_AXIS_VECTORS[label])
        except KeyError:
            raise DomainError(f"unknown axis label {label!r}, expected x/y/z") from None

    @classmethod
    def normalized(cls, vec) -> "DipoleOrientation":
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (3,):
            raise DomainError("dipole orientation needs exactly 3 components")
        # divide by the largest component first, so that |d|^2 neither
        # overflows nor underflows
        scale = float(np.abs(arr).max())
        if scale == 0.0:
            raise DomainError("cannot normalise a zero dipole vector")
        arr = arr / scale
        return cls(tuple(arr / float(np.linalg.norm(arr))))

    def as_array(self) -> np.ndarray:
        return np.array(self.components)


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless physical configuration of one run cell."""

    a_over_omega: float
    omega_L: float
    dipole1: DipoleOrientation
    dipole2: DipoleOrientation
    bath: BathKind

    def __post_init__(self):
        if self.a_over_omega < 0.0:
            raise DomainError(f"a_over_omega must be >= 0, got {self.a_over_omega}")
        if self.omega_L <= 0.0:
            raise DomainError(f"omega_L must be > 0, got {self.omega_L}")
        if not isinstance(self.bath, BathKind):
            raise DomainError(f"bath must be a BathKind, got {self.bath!r}")


@dataclass(frozen=True)
class CoefficientSet:
    """Kossakowski coefficients in units of the spontaneous emission rate.

    All four are finite and A1 >= B1 > 0 always (Planck factor >= 1);
    |A2| <= A1 and |B2| <= B1 hold empirically over the swept parameter
    space and are checked in tests, not here.
    """

    A1: float
    B1: float
    A2: float
    B2: float

    def __post_init__(self):
        values = (self.A1, self.B1, self.A2, self.B2)
        if not np.all(np.isfinite(values)):
            raise DomainError(f"coefficients must be finite, got {[float(v) for v in values]}")
        if not (self.A1 >= self.B1 > 0.0):
            raise DomainError(
                f"coefficient ordering A1 >= B1 > 0 violated: A1={self.A1}, B1={self.B1}")


def assemble(params: SystemParams, atom_order: int = 12) -> CoefficientSet:
    """Build the CoefficientSet for one bath mode.

    ``atom_order=21`` contracts the cross spectral tensor with the atoms
    swapped, which flips the sign of its antisymmetric (1,3)/(3,1) part;
    with different polarisations on the two atoms this changes the physics,
    so the order is an explicit argument rather than inferred.
    """
    if atom_order not in (12, 21):
        raise DomainError(f"atom_order must be 12 or 21, got {atom_order}")
    thermal = params.bath is BathKind.THERMAL_AT_UNRUH
    # parameters near the float limits overflow the spectral shapes to
    # inf/nan; CoefficientSet rejects those values, so no warning is shown
    with np.errstate(over="ignore", invalid="ignore"):
        A1, B1, A2, B2 = kernels.assemble_kernel(
            params.a_over_omega, params.omega_L,
            params.dipole1.as_array(), params.dipole2.as_array(),
            thermal, atom_order == 21)
    return CoefficientSet(A1=A1, B1=B1, A2=A2, B2=B2)
