"""Independent oracles and helpers that only the test suite uses.

None of this is on the production path, and the package does not import
it:

- ``fourier_oracle`` recomputes any field-correlation shape factor by
  direct numerical Fourier transform of the proper-time Wightman functions
  (``_correlation``), so every closed form in ``atompair.kernels`` is
  checked against an independent derivation, and ``shape_tensor`` lays
  the four nonzero shape components out as the 3x3 tensor it indexes;
- ``assemble_kernel`` and the spectral shapes it calls are the scalar
  kernels, one (a, L) at a time with Python ``if`` branches (cubes as
  r * r * r), that the array ``atompair.kernels.assemble_kernel`` must
  match bit for bit on every element;
- ``basis_transform`` expands an X state into the full 4x4 density matrix
  in the product basis, the input of the spin-flip concurrence oracle
  ``atompair.concurrence_wootters`` and of the positivity checks;
- ``refinement_boundary_cells`` compares a coarse region map with its
  grid-doubled refinement;
- ``prepare`` builds the ``TrajectoryStack`` of a list of (XState,
  CoefficientSet) pairs, one row each: the mixed-state stacks that the
  sweeps, which start every row in one state, never build, and
  ``eig_decompose`` is the one-generator decomposition (``eig`` of the
  complex cast, ``inv``, product of Frobenius norms) that the stack's
  set-up must match row by row;
- ``pops_at`` is the state of one row of a ``TrajectoryStack`` at one
  time, by the scalar eig formula V @ (c exp(w tau)), the expm fallback
  or p0 at tau = 0, and ``_conc_at`` adds ``concurrence_kernel`` on one
  sample, taken again on the fallback, clamped or not, when a radicand
  falls below the slack and the sample holds a negative population: the
  reference that ``atompair.kernels._evaluate`` must match bit for bit at
  every sample of a refinement call;
- ``events_kernel`` is the one-trajectory scalar event refinement of one
  row of a ``TrajectoryStack``, one bisection or golden-section evaluation
  at a time, that the grouped ``atompair.kernels.events_kernel`` must
  match bit for bit on every row;
- ``mp_generator`` holds the float rates of a generator exactly in mpmath,
  its diagonal built in mpmath, and ``mp_concurrence`` evolves an X state
  by ``mpmath.expm`` of it at the working precision: the high-precision
  reference of refined event times;
- ``read_table`` reparses the CSV tables the CLI writes, and
  ``format_rows`` is the row-at-a-time formatting that the array formatter
  ``atompair.cli.format_rows`` must match byte for byte.

Arguments are dimensionless: lam and a in units of the transition
frequency, L in its inverse.
"""

import functools

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from atompair import kernels
from atompair.dynamics import XState
from atompair.errors import AtompairError, DomainError, InvalidStateError


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


def shape_tensor(f11, f22, f33, f13):
    """The 3x3 cross-correlation shape tensor, indexed [i - 1, j - 1], of
    its four nonzero components; f31 = -f13."""
    return np.array([[f11, 0.0, f13], [0.0, f22, 0.0], [-f13, 0.0, f33]])


# ---------------------------------------------------------------------------
# scalar spectral shapes and coefficients: one (a, L) at a time

SMALL_R = kernels.SMALL_R
SERIES_Q_MAX = kernels.SERIES_Q_MAX


def coth_kernel(x):
    # caller guarantees x > 0; above x = 20 the result rounds to exactly 1.0
    return 1.0 / np.tanh(x)


def f11_kernel(lam, a):
    return 1.0 + (a * a) / (lam * lam)


def f12_thermal_kernel(i, j, lam, L):
    """Static-bath cross-correlation shape, component (i, j), 1-based axes."""
    r = lam * L
    if i == j and i < 3:
        if r < SMALL_R:
            r2 = r * r
            return 1.0 - r2 / 5.0 + 3.0 * r2 * r2 / 280.0 - r2 * r2 * r2 / 3780.0
        return (3.0 * r * np.cos(r) - 3.0 * np.sin(r) + 3.0 * r * r * np.sin(r)) / (2.0 * (r * r * r))
    if i == 3 and j == 3:
        if r < SMALL_R:
            r2 = r * r
            return 1.0 - r2 / 10.0 + r2 * r2 / 280.0 - r2 * r2 * r2 / 15120.0
        return 3.0 * (np.sin(r) - r * np.cos(r)) / (r * r * r)
    return 0.0


def _f12_closed(i, j, lam, a, L):
    # canonical nonzero components (1,1), (2,2), (3,3), (1,3); no switching
    q = a * L
    r = lam * L
    q2 = q * q
    r2 = r * r
    R2 = 4.0 + q2
    R = np.sqrt(R2)
    R5 = R2 * R2 * R
    r3 = r * r2
    s = (2.0 * lam / a) * np.arcsinh(0.5 * q)
    cs = np.cos(s)
    sn = np.sin(s)
    if i == 1 and j == 1:
        return 12.0 / (r3 * R5) * (
            2.0 * r * (1.0 + q2) * R * cs
            - (4.0 - 4.0 * r2 + q2 * (2.0 - r2 + q2)) * sn)
    if i == 2 and j == 2:
        return 3.0 / (r3 * R2 * R) * (
            r * (2.0 + q2) * R * cs
            + (-4.0 + 4.0 * r2 + q2 * r2) * sn)
    if i == 3 and j == 3:
        return -3.0 / (r3 * R5) * (
            r * (16.0 + 2.0 * q2 + q2 * q2) * R * cs
            + (-32.0 + q2 * q2 * r2 + 4.0 * q2 * (r2 - 5.0)) * sn)
    # (1, 3)
    return -6.0 * q / (r3 * R5) * (
        r * (q2 - 2.0) * R * cs
        + (4.0 + 4.0 * r2 + q2 * (4.0 + r2)) * sn)


def _f12_series(i, j, lam, a, L):
    # 6th-order expansion about L = 0 of the canonical components
    l2 = lam * lam
    l4 = l2 * l2
    l6 = l4 * l2
    a2 = a * a
    a4 = a2 * a2
    a6 = a4 * a2
    a8 = a4 * a4
    L2 = L * L
    if i == 1 and j == 1:
        c0 = 1.0 + a2 / l2
        c2 = -(4.0 * a4 / (5.0 * l2) + a2 + l2 / 5.0)
        c4 = 27.0 * a6 / (70.0 * l2) + 21.0 * a4 / 40.0 + 3.0 * a2 * l2 / 20.0 + 3.0 * l4 / 280.0
        c6 = -(16.0 * a8 / (105.0 * l2) + 41.0 * a6 / 189.0 + 13.0 * a4 * l2 / 180.0
               + a2 * l4 / 126.0 + l6 / 3780.0)
        return c0 + L2 * (c2 + L2 * (c4 + L2 * c6))
    if i == 2 and j == 2:
        c0 = 1.0 + a2 / l2
        c2 = -(3.0 * a4 / (10.0 * l2) + 0.5 * a2 + l2 / 5.0)
        c4 = 3.0 * a6 / (35.0 * l2) + 3.0 * a4 / 20.0 + 3.0 * a2 * l2 / 40.0 + 3.0 * l4 / 280.0
        c6 = -(a8 / (42.0 * l2) + 317.0 * a6 / 7560.0 + a4 * l2 / 45.0
               + 11.0 * a2 * l4 / 2520.0 + l6 / 3780.0)
        return c0 + L2 * (c2 + L2 * (c4 + L2 * c6))
    if i == 3 and j == 3:
        c0 = 1.0 + a2 / l2
        c2 = -(9.0 * a4 / (10.0 * l2) + a2 + l2 / 10.0)
        c4 = 3.0 * a6 / (7.0 * l2) + 11.0 * a4 / 20.0 + a2 * l2 / 8.0 + l4 / 280.0
        c6 = -(a8 / (6.0 * l2) + 1733.0 * a6 / 7560.0 + 49.0 * a4 * l2 / 720.0
               + a2 * l4 / 180.0 + l6 / 15120.0)
        return c0 + L2 * (c2 + L2 * (c4 + L2 * c6))
    # (1, 3): odd in L
    a3 = a2 * a
    a5 = a4 * a
    a7 = a6 * a
    c1 = -(a3 / l2 + a)
    c3 = 3.0 * a5 / (5.0 * l2) + 0.75 * a3 + 3.0 * a * l2 / 20.0
    c5 = -(9.0 * a7 / (35.0 * l2) + 7.0 * a5 / 20.0 + a3 * l2 / 10.0 + a * l4 / 140.0)
    return L * (c1 + L2 * (c3 + L2 * c5))


def f12_kernel(i, j, lam, a, L):
    """Accelerated cross-correlation shape f_ij.

    Components outside (1,1), (2,2), (3,3), (1,3), (3,1) are zero. The
    (3,1) value is minus the (1,3) one.
    """
    if a < np.finfo(float).tiny:
        # 2 lam / a in (2 lam / a) asinh(aL/2) overflows: the a -> 0 limit
        return f12_thermal_kernel(i, j, lam, L)
    diag = i == j and 1 <= i <= 3
    skew = (i == 1 and j == 3) or (i == 3 and j == 1)
    if not (diag or skew):
        return 0.0
    ci = i
    cj = j
    sign = 1.0
    if skew:
        ci = 1
        cj = 3
        if i == 3:
            sign = -sign
    if lam * L < SMALL_R and a * L < SERIES_Q_MAX:
        return sign * _f12_series(ci, cj, lam, a, L)
    return sign * _f12_closed(ci, cj, lam, a, L)


# ---------------------------------------------------------------------------
# dissipator coefficients (units of the spontaneous emission rate)

def assemble_kernel(a, L, d1, d2, thermal):
    """Kossakowski coefficients (A1, B1, A2, B2) for one bath mode.

    ``d1``/``d2`` are unit 3-vectors; ``thermal`` selects the static bath at
    the matching Unruh temperature (shape functions frozen at their a -> 0
    limits, Planck factor kept).
    """
    lam = 1.0
    if thermal:
        g11 = 1.0
        c11 = f12_thermal_kernel(1, 1, lam, L)
        c22 = c11
        c33 = f12_thermal_kernel(3, 3, lam, L)
        c13 = 0.0
    else:
        g11 = f11_kernel(lam, a)
        c11 = f12_kernel(1, 1, lam, a, L)
        c22 = f12_kernel(2, 2, lam, a, L)
        c33 = f12_kernel(3, 3, lam, a, L)
        c13 = f12_kernel(1, 3, lam, a, L)
    # contraction over the five nonzero components; f_31 = -f_13
    F = (c11 * d1[0] * d2[0] + c22 * d1[1] * d2[1] + c33 * d1[2] * d2[2]
         + c13 * (d1[0] * d2[2] - d1[2] * d2[0]))
    if a > 0.0:
        cth = coth_kernel(np.pi / a)
    else:
        cth = 1.0
    A1 = 0.25 * g11 * cth
    B1 = 0.25 * g11
    A2 = 0.25 * F * cth
    B2 = 0.25 * F
    return A1, B1, A2, B2


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
    errors. ``coarse`` and ``fine`` are label grids of ``run_region_map``;
    ``fine`` must hold 2n-1 points per axis on the same range."""
    na, nL = coarse.shape
    if fine.shape != (2 * na - 1, 2 * nL - 1):
        raise DomainError("fine map must have 2n-1 points per axis")
    flipped = []
    for i in range(1, na - 1):
        for j in range(1, nL - 1):
            lab = coarse[i, j]
            if (coarse[i - 1, j] == lab and coarse[i + 1, j] == lab
                    and coarse[i, j - 1] == lab and coarse[i, j + 1] == lab):
                if fine[2 * i, 2 * j] != lab:
                    flipped.append((i, j))
    return flipped


def read_table(path):
    """Reparse an emitted CSV into (columns, list of row-lists of strings)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.rstrip("\n").split("\n")
    columns = lines[0].split(",")
    return columns, [line.split(",") for line in lines[1:]]


def format_rows(values) -> bytes:
    """CSV body of an (m, k) float table, one Python format per row."""
    row_fmt = ",".join(["%.17g"] * values.shape[1])
    return "".join(row_fmt % tuple(row) + "\n" for row in values.tolist()).encode()


# ---------------------------------------------------------------------------
# high precision: mpmath.expm of a double generator

def mp_generator(M):
    """The float rates of the generator M, exact in mpmath, with the
    diagonal built in mpmath as minus each column's off-diagonal sum."""
    G = mp.matrix(4, 4)
    for i in range(4):
        for j in range(4):
            if i != j:
                G[i, j] = mp.mpf(float(M[i, j]))
    for j in range(4):
        G[j, j] = -mp.fsum(G[i, j] for i in range(4) if i != j)
    return G


def mp_concurrence(G, state: XState, A1, tau):
    """max(K1, K2) of the X state ``state`` at time tau, not clamped at zero:
    populations mpmath.expm(G tau) p0 of an ``mp_generator`` G, coherences
    decaying as exp(-4 A1 tau), all at the working precision. A radicand
    below zero (roundoff of a vanishing one) counts as zero."""
    p0 = mp.matrix([mp.mpf(float(v)) for v in state.populations()])
    pGG, pAA, pSS, pEE = mp.expm(G * tau) * p0
    decay = mp.exp(-4 * mp.mpf(A1) * tau)
    reAS, imAS, reGE, imGE = (mp.mpf(float(v)) * decay for v in state.coherences())
    K1 = mp.sqrt((pAA - pSS) ** 2 + 4 * imAS ** 2) - 2 * mp.sqrt(max(pGG * pEE, 0))
    K2 = 2 * mp.hypot(reGE, imGE) - mp.sqrt(max((pAA + pSS) ** 2 - 4 * reAS ** 2, 0))
    return max(K1, K2)


# ---------------------------------------------------------------------------
# scalar event refinement: one trajectory, one evaluation at a time

EPS_DEAD = kernels.EPS_DEAD
EPS_ENH = kernels.EPS_ENH
REFINE_TOL = kernels.REFINE_TOL
_INVGOLD = kernels._INVGOLD


def prepare(pairs):
    """The TrajectoryStack of (XState, CoefficientSet) pairs, one row per
    pair in order; no validation and no fallback warning."""
    coeffs = [(cs.A1, cs.B1, cs.A2, cs.B2) for _, cs in pairs]
    return kernels.TrajectoryStack(np.array(coeffs),
                                   np.array([state.populations() for state, _ in pairs]),
                                   np.array([state.coherences() for state, _ in pairs]))


def eig_decompose(M):
    """(w, V, Vinv, cond) of one 4x4 generator, one matrix at a time."""
    w, V = np.linalg.eig(M.astype(np.complex128))
    Vinv = np.linalg.inv(V)
    return w, V, Vinv, np.linalg.norm(V) * np.linalg.norm(Vinv)


def pops_at(stack, i, tau, fallback=False):
    """Populations of row i of a TrajectoryStack at one time; the row's
    fallback is taken when ``fallback`` is set."""
    if tau == 0.0:
        return stack.p0[i].copy()
    if stack.use_expm[i] or fallback:
        return kernels.pops_at(stack.M[i, None], stack.p0[i, None], np.array([[tau]]))[0, 0]
    return (stack.V[i] @ (stack.c[i] * np.exp(stack.w[i] * tau))).real


def _conc_at(stack, i, tau, clamp=True, fallback=False):
    # pops_at and concurrence_kernel at one time of row i of a TrajectoryStack;
    # a sample below the radicand slack (the clamped call raises) with a
    # negative population is taken again on the fallback, clamped or not
    p = pops_at(stack, i, tau, fallback)
    reAS, imAS, reGE, imGE = stack.coherences[i] * np.exp(-4.0 * stack.A1[i] * tau)
    args = (p[0], p[1], p[2], p[3], reAS, imAS, reGE, imGE)
    try:
        kernels.concurrence_kernel(*args)
    except InvalidStateError:
        if not fallback and (p < 0.0).any():
            return _conc_at(stack, i, tau, clamp, True)
        if clamp:
            raise
    return float(kernels.concurrence_kernel(*args, clamp))


def _conc_raw_at(stack, i, tau):
    # max(K1, K2) without the clamp at zero; negative values certify a dip
    return _conc_at(stack, i, tau, False)


def _bisect_crossing(f, lo, hi, want_up):
    # bracket carries a sign change of f - EPS_DEAD by construction
    while hi - lo > REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if want_up == (f(mid) > EPS_DEAD):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _golden_extremum(f, lo, hi, sign, tol):
    # golden-section on sign*f; sign=+1 finds a maximum, -1 a minimum
    x1 = hi - _INVGOLD * (hi - lo)
    x2 = lo + _INVGOLD * (hi - lo)
    f1 = sign * f(x1)
    f2 = sign * f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo = x1
            x1 = x2
            f1 = f2
            x2 = lo + _INVGOLD * (hi - lo)
            f2 = sign * f(x2)
        else:
            hi = x2
            x2 = x1
            f2 = f1
            x1 = hi - _INVGOLD * (hi - lo)
            f1 = sign * f(x1)
    t = 0.5 * (lo + hi)
    return t, f(t)


def events_kernel(stack, i, taus, C):
    """Entanglement events along row i of a trajectory stack, from its
    concurrence C on the grid taus (a row of ``trajectory_kernel``).

    Returns (death_time, birth_time, revival, enhancement, max_C, max_time,
    revival_amplitude), the field order of ``EntanglementEvents``; missing
    times are NaN, flags are 0/1. The candidates are found on the row:
    threshold crossings between neighbouring samples, and sampled local
    minima above threshold. Crossings are refined by bisection on the exact
    propagator and maxima by golden section, both to REFINE_TOL in scaled
    time. Local minima are drilled into at machine depth on the unclamped
    concurrence, so a dip through zero far narrower than the sample
    spacing (including exact touches at zero temperature) still registers
    as a death/birth pair; bumps narrower than the spacing remain
    invisible. revival_amplitude is the largest concurrence after the
    first death, 0 when there is no death.
    """
    conc = functools.partial(_conc_at, stack, i)
    n = taus.size
    above = C > EPS_DEAD
    candidate = np.zeros(n, dtype=bool)
    candidate[1:] = above[1:] != above[:-1]
    candidate[1:-1] |= (above[:-2] & above[1:-1] & above[2:]
                        & (C[1:-1] <= C[:-2]) & (C[1:-1] <= C[2:]))

    crossings = []   # (time, upward)
    for k in np.flatnonzero(candidate):
        now = bool(above[k])
        if now != above[k - 1]:
            crossings.append((_bisect_crossing(conc, taus[k - 1], taus[k], now), now))
            continue
        # local minimum above threshold: the true dip may cross between
        # samples; certify at machine depth (a zero-temperature dip is a
        # V touching zero over a vanishing time window)
        dip_tol = 1e-12 * max(1.0, taus[k + 1])
        tmin, fmin = _golden_extremum(functools.partial(_conc_raw_at, stack, i),
                                      taus[k - 1], taus[k + 1], -1.0, dip_tol)
        if fmin <= EPS_DEAD:
            td = _bisect_crossing(conc, taus[k - 1], tmin, False)
            tb = _bisect_crossing(conc, tmin, taus[k + 1], True)
            crossings += [(td, False), (tb, True)]

    death = min((t for t, up in crossings if not up), default=np.nan)
    birth = min((t for t, up in crossings if up), default=np.nan)

    # golden-section refinement of the sampled maximum (first best sample)
    kbest = int(np.argmax(C))
    cbest = C[kbest]
    tmax, fmax = _golden_extremum(conc, taus[max(kbest - 1, 0)],
                                  taus[min(kbest + 1, n - 1)], 1.0, REFINE_TOL)
    max_c = cbest
    max_t = taus[kbest]
    if fmax > max_c:
        max_c = fmax
        max_t = tmax

    # largest concurrence after the first death
    rev_amp = 0.0
    post = np.flatnonzero(taus > death)   # empty when there is no death
    if post.size and C[post].max() > 0.0:
        kpost = post[np.argmax(C[post])]
        cpost = C[kpost]
        tpost, fpost = _golden_extremum(conc, max(taus[max(kpost - 1, 0)], death),
                                        taus[min(kpost + 1, n - 1)], 1.0, REFINE_TOL)
        rev_amp = cpost if cpost > fpost else fpost

    revival = 1 if (not np.isnan(death)) and (not np.isnan(birth)) and birth > death else 0
    enhancement = 1 if max_c > C[0] + EPS_ENH else 0
    return death, birth, revival, enhancement, max_c, max_t, rev_amp
