"""Modulating functions of the field-correlation spectra.

The two-point correlations of the vacuum electric field along the pair of
uniformly accelerated worldlines have Fourier transforms of the form
(lam^3 / 3 pi) * Planck-factor * f(lam, a, L); this module evaluates the
dimensionless shape factors f. The same-trajectory factor ``f11`` is
isotropic; the cross-trajectory factor ``f12_component`` carries the
tensor structure over the Cartesian axes (1 = direction of motion,
3 = separation axis). ``f12_thermal_component`` gives the a -> 0 shapes,
which coincide with those of a static pair in a thermal bath.

``fourier_oracle`` recomputes any component by direct numerical Fourier
transform of the proper-time correlation functions and is used by the test
suite to cross-check every closed form; it is not on the production path.

All arguments are dimensionless: lam and a in units of the transition
frequency, L in its inverse.
"""

import numpy as np
from scipy.integrate import quad

from . import kernels
from .errors import DomainError, NonConvergenceError

_AXES = (1, 2, 3)

# regulator schedule for the oracle: shifts of the proper-time argument
ORACLE_EPSILONS = (1e-2, 1e-3, 1e-4)


def _check_axes(i, j):
    if i not in _AXES or j not in _AXES:
        raise DomainError(f"axis indices must be in {{1,2,3}}, got ({i}, {j})")


def _check_positive(name, value, allow_zero=False):
    if allow_zero:
        if value < 0.0:
            raise DomainError(f"{name} must be >= 0, got {value}")
    elif value <= 0.0:
        raise DomainError(f"{name} must be > 0, got {value}")


def f11(lam: float, a: float) -> float:
    """Same-trajectory shape factor 1 + a^2/lam^2."""
    _check_positive("lam", lam)
    _check_positive("a", a, allow_zero=True)
    return kernels.f11_kernel(lam, a)


def f12_component(i: int, j: int, lam: float, a: float, L: float,
                  atom_order: int = 12) -> float:
    """Cross-trajectory shape factor, component (i, j).

    Only (1,1), (2,2), (3,3), (1,3), (3,1) are nonzero; (3,1) is minus
    (1,3). ``atom_order=21`` selects the swapped pair, which flips the sign
    of the (1,3)/(3,1) components once more. Below a < 1e-4 the static
    shapes are used (the diagonals agree to O(a^2), the skew component is
    itself O(a)); below lam*L < 3e-3 a series expansion replaces the
    cancellation-prone closed form.
    """
    _check_axes(i, j)
    _check_positive("lam", lam)
    _check_positive("a", a, allow_zero=True)
    _check_positive("L", L)
    if atom_order not in (12, 21):
        raise DomainError(f"atom_order must be 12 or 21, got {atom_order}")
    return kernels.f12_kernel(i, j, lam, a, L, atom_order == 21)


def f12_thermal_component(i: int, j: int, lam: float, L: float) -> float:
    """Static-bath cross shape factor (the a -> 0 limit of f12_component)."""
    _check_axes(i, j)
    _check_positive("lam", lam)
    _check_positive("L", L)
    return kernels.f12_thermal_kernel(i, j, lam, L)


# ---------------------------------------------------------------------------
# numeric Fourier-transform oracle

def _correlation(i, j, w, a, L, same_atom, order21):
    """Proper-time correlation function at complex time difference w.

    Closed forms of the Wightman functions along the accelerated pair of
    worldlines; axis 1 is the direction of motion, axis 3 the separation.
    """
    pref = a ** 4 / (16.0 * np.pi ** 2)
    sh = np.sinh(0.5 * a * w)
    ch = np.cosh(0.5 * a * w)
    sh2 = sh * sh
    ch2 = ch * ch
    if same_atom:
        if i != j:
            return 0.0j
        return pref / (sh2 * sh2)
    q = a * L
    D = (sh2 - 0.25 * q * q) ** 3
    if i == j == 1:
        N = sh2 + 0.25 * q * q
    elif i == j == 2:
        N = sh2 + 0.25 * q * q * (ch2 + sh2)
    elif i == j == 3:
        N = sh2 - 0.25 * q * q * (ch2 + sh2)
    elif (i, j) == (1, 3):
        N = -q * sh2
    elif (i, j) == (3, 1):
        N = q * sh2
    else:
        return 0.0j
    if order21:
        if (i, j) in ((1, 3), (3, 1)):
            N = -N
    return pref * N / D


def fourier_oracle(i: int, j: int, lam: float, a: float, L: float = 1.0,
                   same_atom: bool = False, atom_order: int = 12,
                   tol: float = 1e-6) -> float:
    """Modulating function recomputed by numeric Fourier transform.

    Integrates exp(i lam u) times the correlation function regularised by a
    small real shift u -> u - i*eps of the proper-time difference, for
    eps in ORACLE_EPSILONS, and Richardson-extrapolates eps -> 0. Each
    fixed-eps integral is evaluated contour-safely: the integrand is
    analytic below the real axis down to the next pole row, so the path is
    dropped to a depth c where the kernels are smooth (the vertical legs
    are purely imaginary by symmetry and cancel from the real part). The
    Planck-factor normalisation is divided out, so the result compares
    directly with f11 / f12_component.

    Raises NonConvergenceError when the last two extrapolants differ by
    more than ``tol`` (relative, with an absolute floor of the same size).
    """
    _check_axes(i, j)
    _check_positive("lam", lam)
    _check_positive("a", a)
    if not same_atom:
        _check_positive("L", L)
    if atom_order not in (12, 21):
        raise DomainError(f"atom_order must be 12 or 21, got {atom_order}")
    order21 = atom_order == 21

    # depth: away from the pole rows at Im w = 0 and Im w = -2 pi / a,
    # shallow enough that exp(lam c) stays harmless
    c = min(3.0 / lam, np.pi / a)
    cutoff = 35.0 / a + 10.0  # integrand decays like exp(-2 a u)

    def integral(eps):
        amp = 2.0 * np.exp(lam * (c - eps))

        def g(v):
            return (np.exp(1j * lam * v)
                    * _correlation(i, j, v - 1j * c, a, L, same_atom, order21)).real

        val, _ = quad(g, 0.0, cutoff, limit=400, epsabs=1e-13, epsrel=1e-12)
        return amp * val

    eps = np.asarray(ORACLE_EPSILONS)
    rows = [np.array([integral(e) for e in eps])]
    # Neville tableau towards eps = 0; rows[k][m] interpolates eps[m..m+k]
    for order in range(1, eps.size):
        prev = rows[-1]
        curr = np.empty(eps.size - order)
        for m in range(curr.size):
            curr[m] = prev[m + 1] + (prev[m + 1] - prev[m]) * eps[m + order] / (
                eps[m] - eps[m + order])
        rows.append(curr)
    norm = lam ** 3 / (3.0 * np.pi) / (1.0 - np.exp(-2.0 * np.pi * lam / a))
    result = rows[-1][0] / norm
    reference = rows[-2][-1] / norm  # extrapolant through the smallest epsilons
    if abs(result - reference) > tol * max(1.0, abs(result)):
        raise NonConvergenceError(
            f"oracle extrapolation did not stabilise: {reference} vs {result}")
    return result
