import numpy as np
import pytest

from atompair import (BathKind, CoefficientSet, DipoleOrientation, SystemParams,
                      XState, assemble, build_generator)

AXES = {name: DipoleOrientation.from_axis(name) for name in ("x", "y", "z")}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unit_vector(rng):
    v = rng.normal(size=3)
    return DipoleOrientation.normalized(v)


def random_params(rng, bath=None):
    if bath is None:
        bath = BathKind.ACCELERATED_VACUUM if rng.random() < 0.5 else BathKind.THERMAL_AT_UNRUH
    return SystemParams(
        a_over_omega=float(rng.uniform(0.0, 2.5)),
        omega_L=float(rng.uniform(0.2, 5.0)),
        dipole1=random_unit_vector(rng),
        dipole2=random_unit_vector(rng),
        bath=bath)


def random_coeffs(rng, bath=None):
    return assemble(random_params(rng, bath))


def random_xstate(rng):
    """Valid X state: Dirichlet populations, coherences inside their discs."""
    p = rng.dirichlet(np.ones(4))
    rAS = np.sqrt(p[1] * p[2]) * rng.uniform(0.0, 0.999)
    rGE = np.sqrt(p[0] * p[3]) * rng.uniform(0.0, 0.999)
    phiAS = rng.uniform(0.0, 2.0 * np.pi)
    phiGE = rng.uniform(0.0, 2.0 * np.pi)
    return XState(p[0], p[1], p[2], p[3],
                  cAS=rAS * np.exp(1j * phiAS), cGE=rGE * np.exp(1j * phiGE))


def coherence_block(coeffs: CoefficientSet):
    """8x8 real linear generator for (populations, coherence quadratures)."""
    M = build_generator(coeffs)
    A = np.zeros((8, 8))
    A[:4, :4] = M
    A[4:, 4:] = -4.0 * coeffs.A1 * np.eye(4)
    return A


def rk4_evolve(initial: XState, coeffs: CoefficientSet, tau: float, steps: int):
    """Fixed-step RK4 oracle for the full linear system."""
    A = coherence_block(coeffs)
    y = np.array([initial.pGG, initial.pAA, initial.pSS, initial.pEE,
                  initial.cAS.real, initial.cAS.imag,
                  initial.cGE.real, initial.cGE.imag])
    h = tau / steps
    for _ in range(steps):
        k1 = A @ y
        k2 = A @ (y + 0.5 * h * k1)
        k3 = A @ (y + 0.5 * h * k2)
        k4 = A @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return XState(y[0], y[1], y[2], y[3],
                  cAS=complex(y[4], y[5]), cGE=complex(y[6], y[7]))
