"""Independent oracles and helpers that only the test suite uses.

None of this is on the production path, and the package does not import
it:

- ``fourier_oracle`` recomputes any field-correlation shape factor by
  direct numerical Fourier transform of the proper-time Wightman functions
  (``_correlation``), so every closed form in ``atompair.kernels`` is
  checked against an independent derivation;
- ``basis_transform`` expands an X state into the full 4x4 density matrix
  in the product basis, the input of the spin-flip concurrence oracle
  ``atompair.concurrence_wootters`` and of the positivity checks;
- ``refinement_boundary_cells`` compares a coarse region map with its
  grid-doubled refinement;
- ``read_table`` reparses the CSV tables the CLI writes.

Arguments are dimensionless: lam and a in units of the transition
frequency, L in its inverse.
"""

import numpy as np
from scipy.integrate import quad

from atompair.dynamics import XState
from atompair.errors import AtompairError, DomainError


class NonConvergenceError(AtompairError, RuntimeError):
    """An iterative numerical scheme failed to stabilise to tolerance."""


_AXES = (1, 2, 3)

# regulator schedule for the oracle: shifts of the proper-time argument
ORACLE_EPSILONS = (1e-2, 1e-3, 1e-4)


def _check_axes(i, j):
    if i not in _AXES or j not in _AXES:
        raise DomainError(f"axis indices must be in {{1,2,3}}, got ({i}, {j})")


def _check_positive(name, value):
    if value <= 0.0:
        raise DomainError(f"{name} must be > 0, got {value}")


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
    directly with f11_kernel / f12_kernel.

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


# ---------------------------------------------------------------------------
# states, region maps, tables

def basis_transform(state: XState) -> np.ndarray:
    """Density matrix in the product basis {|00>, |01>, |10>, |11>}.

    The result is an X-form matrix by construction: the coupled basis mixes
    only the middle block. Used for positivity checks and as input to the
    spin-flip concurrence oracle.
    """
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = state.pGG
    rho[3, 3] = state.pEE
    rho[0, 3] = state.cGE
    rho[3, 0] = np.conj(state.cGE)
    half = 0.5 * (state.pAA + state.pSS)
    rho[1, 1] = half - state.cAS.real
    rho[2, 2] = half + state.cAS.real
    rho[1, 2] = 0.5 * (state.pSS - state.pAA) - 1j * state.cAS.imag
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


def refinement_boundary_cells(coarse, fine) -> list:
    """Coarse cells flipped under grid doubling despite a uniform
    neighbourhood; these localise the region boundary, they are not
    errors. ``fine`` must hold 2n-1 points per axis on the same range."""
    na, nL = coarse.labels.shape
    if fine.labels.shape != (2 * na - 1, 2 * nL - 1):
        raise DomainError("fine map must have 2n-1 points per axis")
    flipped = []
    for i in range(1, na - 1):
        for j in range(1, nL - 1):
            lab = coarse.labels[i, j]
            if (coarse.labels[i - 1, j] == lab and coarse.labels[i + 1, j] == lab
                    and coarse.labels[i, j - 1] == lab and coarse.labels[i, j + 1] == lab):
                if fine.labels[2 * i, 2 * j] != lab:
                    flipped.append((i, j))
    return flipped


def read_table(path):
    """Reparse an emitted CSV into (columns, list of row-lists of strings)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.rstrip("\n").split("\n")
    columns = lines[0].split(",")
    return columns, [line.split(",") for line in lines[1:]]
