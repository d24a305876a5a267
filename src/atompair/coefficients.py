"""Dissipator coefficients of the two-atom master equation.

``assemble`` contracts the spectral shape factors with the two dipole
orientations and the Planck factor at the Unruh temperature T = a / 2 pi,
yielding the four Kossakowski coefficients (A1, B1) for each atom alone and
(A2, B2) for the cross-atom channel. Everything is expressed in units of
the single-atom spontaneous emission rate, with the transition frequency
fixed at 1, so inputs are the dimensionless ratios a/omega and omega*L.
The atoms in the order 21 are the swapped pair in the order 12. The sweeps
and the ``coeffs`` table compute whole grids through ``coefficient_rows``,
``assemble`` one cell; ``check_coefficients`` also checks a CoefficientSet.
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
        if not abs(norm2 - 1.0) <= _UNIT_NORM_TOL:   # NaN fails too
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
        if not 0.0 < scale < np.inf:
            raise DomainError(f"dipole vector must be finite and nonzero, got {vec!r}")
        arr = arr / scale
        return cls(tuple(arr / float(np.linalg.norm(arr))))

    def as_array(self) -> np.ndarray:
        return np.array(self.components)


def check_axis(axis: str, value: float):
    """Raise DomainError unless ``value`` is a finite a_over_omega >= 0 or
    omega_L > 0, as ``axis`` names: the bounds of SystemParams and the config."""
    if axis == "a_over_omega" and not 0.0 <= value < np.inf:
        raise DomainError(f"a_over_omega must be finite and >= 0, got {value}")
    if axis == "omega_L" and not 0.0 < value < np.inf:
        raise DomainError(f"omega_L must be finite and > 0, got {value}")


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless physical configuration of one run cell."""

    a_over_omega: float
    omega_L: float
    dipole1: DipoleOrientation
    dipole2: DipoleOrientation
    bath: BathKind

    def __post_init__(self):
        check_axis("a_over_omega", self.a_over_omega)
        check_axis("omega_L", self.omega_L)
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
        check_coefficients(np.array([[self.A1, self.B1, self.A2, self.B2]]))


def check_coefficients(rows):
    """Raise DomainError unless every row (A1, B1, A2, B2) of the (n, 4)
    array ``rows`` is finite with A1 >= B1 > 0; the message names the first
    offending row. The one check of CoefficientSet and of a sweep group."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        values = rows[np.argmin(finite)]
        raise DomainError(f"coefficients must be finite, got {[float(v) for v in values]}")
    A1, B1 = rows[:, 0], rows[:, 1]
    ordered = (A1 >= B1) & (B1 > 0.0)
    if not ordered.all():
        k = np.argmin(ordered)
        raise DomainError(f"coefficient ordering A1 >= B1 > 0 violated: A1={A1[k]}, B1={B1[k]}")


def coefficient_rows(a, L, d1, d2, modes):
    """Checked rows (A1, B1, A2, B2), shape (len(a) * len(modes), 4) with the
    bath modes innermost, of the cells (a[k], L[k]) or scalar (a, L), for d1, d2."""
    d1, d2 = d1.as_array(), d2.as_array()
    rows = np.stack([np.stack(kernels.assemble_kernel(
        a, L, d1, d2, mode is BathKind.THERMAL_AT_UNRUH), axis=-1)
        for mode in modes], axis=-2).reshape(-1, 4)
    check_coefficients(rows)
    return rows


def assemble(params: SystemParams, atom_order: int = 12) -> CoefficientSet:
    """Build the CoefficientSet for one bath mode.

    ``atom_order=21`` takes the atoms swapped, as the order 12 of the swapped
    polarization pair: that flips the sign of the antisymmetric (1,3)/(3,1)
    part of the cross spectral tensor; with different polarisations on the two
    atoms this changes the physics, so the order is an explicit argument.
    """
    if atom_order not in (12, 21):
        raise DomainError(f"atom_order must be 12 or 21, got {atom_order}")
    d1, d2 = params.dipole1, params.dipole2
    if atom_order == 21:
        d1, d2 = d2, d1
    (A1, B1, A2, B2), = coefficient_rows(params.a_over_omega, params.omega_L, d1, d2,
                                         (params.bath,))
    return CoefficientSet(A1=float(A1), B1=float(B1), A2=float(A2), B2=float(B2))
