"""Hot numerical kernels.

Populations and concurrence are sampled for a block of rows of a
``TrajectoryStack`` at once, on arrays (``trajectory_kernel``), and event
refinement (bisection, golden section) steps every flagged bracket of a
group at once, one pass per search (``events_kernel``). The kernels do not
validate their arguments: each input is checked before it reaches them by
the owner of its rule (``catalogue_state``, ``DipoleOrientation``,
``check_axis``, ``time_grid``, ``check_coefficients``, ``XState.validate``).

Units: the atomic transition frequency is fixed at 1, so ``a`` means a/omega
and ``L`` means omega*L. Rates are expressed in units of the spontaneous
emission rate, times in its inverse.
"""

import functools

import numpy as np

from .errors import ComputationError, InvalidStateError

# switch points of the series fallbacks
SMALL_R = 3e-3      # L below this: closed forms cancel catastrophically, use series
SERIES_Q_MAX = 1.0  # the small-L series assumes a*L is moderate as well

COND_LIMIT = 1e12   # eigenvector condition number beyond which expm fallback is used
EPS_DEAD = 1e-12    # concurrence threshold for death/birth events
EPS_ENH = 1e-9      # enhancement margin over the initial concurrence
REFINE_TOL = 1e-6   # scaled-time width of refined crossings and maxima
RADICAND_SLACK = -1e-12
# bound on |sum(p) - 1| of sampled populations: eig returns the zero
# eigenvalue as roundoff (about eps * |M|), and exp(w0 tau) drifts the
# stationary populations at a huge tau; allow as much as the eig path's
# population error (about eps * cond) at COND_LIMIT
DRIFT_TOL = np.finfo(float).eps * COND_LIMIT

_INVGOLD = (np.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# elementary pieces
#
# The Fourier transforms of the vacuum field correlations along the pair of
# uniformly accelerated worldlines, at the transition frequency, have the form
# (1 / 3 pi) * Planck-factor * f(a, L); the kernels below evaluate the shape
# factors f. The same-trajectory factor f11 is isotropic; the cross-trajectory
# factor f12 is a tensor over the Cartesian axes (1 = direction of motion,
# 3 = separation axis) with the nonzero components f11, f22, f33, f13 = -f31.
# The static-bath shapes are the a -> 0 limits of the accelerated ones.

def coth_kernel(x):
    # caller guarantees x > 0; above x = 20 the result rounds to exactly 1.0
    return 1.0 / np.tanh(x)


def f11_kernel(a):
    return 1.0 + a * a


def f12_thermal_kernel(L):
    """Static-bath cross-correlation shapes (f11, f22, f33, f13)."""
    L2 = L * L
    L3 = L * L * L   # the cube is L * L * L: array L ** 3 rounds differently from Python's
    f11 = np.where(L < SMALL_R, 1.0 - L2 / 5.0 + 3.0 * L2 * L2 / 280.0 - L2 * L2 * L2 / 3780.0,
                   (3.0 * L * np.cos(L) - 3.0 * np.sin(L) + 3.0 * L * L * np.sin(L)) / (2.0 * L3))
    f33 = np.where(L < SMALL_R, 1.0 - L2 / 10.0 + L2 * L2 / 280.0 - L2 * L2 * L2 / 15120.0,
                   3.0 * (np.sin(L) - L * np.cos(L)) / L3)
    return f11, f11, f33, 0.0


def _f12_closed(a, L):
    # the nonzero components (f11, f22, f33, f13); no switching
    q = a * L
    q2 = q * q
    L2 = L * L
    R2 = 4.0 + q2
    R = np.sqrt(R2)
    R5 = R2 * R2 * R
    L3 = L * L2
    s = (2.0 / a) * np.arcsinh(0.5 * q)
    cs = np.cos(s)
    sn = np.sin(s)
    f11 = 12.0 / (L3 * R5) * (
        2.0 * L * (1.0 + q2) * R * cs
        - (4.0 - 4.0 * L2 + q2 * (2.0 - L2 + q2)) * sn)
    f22 = 3.0 / (L3 * R2 * R) * (
        L * (2.0 + q2) * R * cs
        + (-4.0 + 4.0 * L2 + q2 * L2) * sn)
    f33 = -3.0 / (L3 * R5) * (
        L * (16.0 + 2.0 * q2 + q2 * q2) * R * cs
        + (-32.0 + q2 * q2 * L2 + 4.0 * q2 * (L2 - 5.0)) * sn)
    f13 = -6.0 * q / (L3 * R5) * (
        L * (q2 - 2.0) * R * cs
        + (4.0 + 4.0 * L2 + q2 * (4.0 + L2)) * sn)
    return f11, f22, f33, f13


def _f12_series(a, L):
    # 6th-order expansion about L = 0 of (f11, f22, f33, f13)
    a2 = a * a
    a3 = a2 * a
    a4 = a2 * a2
    a5 = a4 * a
    a6 = a4 * a2
    a7 = a6 * a
    a8 = a4 * a4
    L2 = L * L
    c0 = 1.0 + a2
    c2 = -(4.0 * a4 / 5.0 + a2 + 1.0 / 5.0)
    c4 = 27.0 * a6 / 70.0 + 21.0 * a4 / 40.0 + 3.0 * a2 / 20.0 + 3.0 / 280.0
    c6 = -(16.0 * a8 / 105.0 + 41.0 * a6 / 189.0 + 13.0 * a4 / 180.0
           + a2 / 126.0 + 1.0 / 3780.0)
    f11 = c0 + L2 * (c2 + L2 * (c4 + L2 * c6))
    c2 = -(3.0 * a4 / 10.0 + 0.5 * a2 + 1.0 / 5.0)
    c4 = 3.0 * a6 / 35.0 + 3.0 * a4 / 20.0 + 3.0 * a2 / 40.0 + 3.0 / 280.0
    c6 = -(a8 / 42.0 + 317.0 * a6 / 7560.0 + a4 / 45.0
           + 11.0 * a2 / 2520.0 + 1.0 / 3780.0)
    f22 = c0 + L2 * (c2 + L2 * (c4 + L2 * c6))
    c2 = -(9.0 * a4 / 10.0 + a2 + 1.0 / 10.0)
    c4 = 3.0 * a6 / 7.0 + 11.0 * a4 / 20.0 + a2 / 8.0 + 1.0 / 280.0
    c6 = -(a8 / 6.0 + 1733.0 * a6 / 7560.0 + 49.0 * a4 / 720.0
           + a2 / 180.0 + 1.0 / 15120.0)
    f33 = c0 + L2 * (c2 + L2 * (c4 + L2 * c6))
    # f13 is odd in L
    c1 = -(a3 + a)
    c3 = 3.0 * a5 / 5.0 + 0.75 * a3 + 3.0 * a / 20.0
    c5 = -(9.0 * a7 / 35.0 + 7.0 * a5 / 20.0 + a3 / 10.0 + a / 140.0)
    f13 = L * (c1 + L2 * (c3 + L2 * c5))
    return f11, f22, f33, f13


def f12_kernel(a, L):
    """Accelerated cross-correlation shapes (f11, f22, f33, f13), each the
    series, the closed form or (at a = 0) the static shape per element;
    f31 = -f13, and the other components are zero."""
    series = (L < SMALL_R) & (a * L < SERIES_Q_MAX)
    # the static shapes are the a -> 0 limits; take them only where 2 / a in
    # (2 / a) asinh(aL/2) overflows: at a = 0 and at subnormal a
    return tuple(np.where(a < np.finfo(float).tiny, static, np.where(series, low, closed))
                 for static, low, closed in zip(f12_thermal_kernel(L), _f12_series(a, L),
                                                _f12_closed(a, L)))


# ---------------------------------------------------------------------------
# dissipator coefficients (units of the spontaneous emission rate)

def assemble_kernel(a, L, d1, d2, thermal):
    """Kossakowski coefficients (A1, B1, A2, B2) for one bath mode, four
    arrays of the broadcast shape of ``a`` and ``L`` (arrays or scalars).

    ``d1``/``d2`` are unit 3-vectors; ``thermal`` selects the static bath at
    the matching Unruh temperature (shape functions taken at a = 0, the
    Planck factor at a). Every branch is evaluated on the whole array and
    ``np.where`` picks one per element, in the scalar operation order (cubes
    as L * L * L: array ``L ** 3`` rounds unlike Python's), so each element
    is bitwise the scalar reference in ``tests/oracles.py``.
    Branches not taken and parameters near the float limits overflow to
    inf/nan without a warning; the coefficient check rejects non-finite rows.
    """
    a = np.asarray(a, dtype=float)
    shape_a = np.zeros_like(a) if thermal else a
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g11 = f11_kernel(shape_a)
        c11, c22, c33, c13 = f12_kernel(shape_a, L)
        # contraction over the five nonzero components; f_31 = -f_13
        F = (c11 * d1[0] * d2[0] + c22 * d1[1] * d2[1] + c33 * d1[2] * d2[2]
             + c13 * (d1[0] * d2[2] - d1[2] * d2[0]))
        cth = np.where(a > 0.0, coth_kernel(np.pi / a), 1.0)
        A1 = 0.25 * g11 * cth
        B1 = 0.25 * g11
        A2 = 0.25 * F * cth
        B2 = 0.25 * F
    return np.broadcast_arrays(A1, B1, A2, B2)


def generator_kernel(A1, B1, A2, B2):
    """Population rate matrix M, d/dtau (pGG,pAA,pSS,pEE) = M p; for
    arrays of coefficients, one matrix per element, shape (..., 4, 4).

    Diagonals are assembled as minus their column's off-diagonal sum, which
    the rate equations satisfy identically; this makes the column sums (and
    hence trace preservation) exact in floating point, with the diagonals
    matching the -4(...) closed forms to roundoff.
    """
    M = np.zeros(np.shape(A1) + (4, 4))
    M[..., 0, 1] = M[..., 1, 3] = 2.0 * (A1 + B1 - A2 - B2)   # G-A-E down: A->G, E->A
    M[..., 0, 2] = M[..., 2, 3] = 2.0 * (A1 + B1 + A2 + B2)   # G-S-E down: S->G, E->S
    M[..., 1, 0] = M[..., 3, 1] = 2.0 * (A1 - B1 - A2 + B2)   # G-A-E up: G->A, A->E
    M[..., 2, 0] = M[..., 3, 2] = 2.0 * (A1 - B1 + A2 - B2)   # G-S-E up: G->S, S->E
    for k in range(4):
        M[..., k, k] = -sum(M[..., r, k] for r in range(4) if r != k)
    return M


# ---------------------------------------------------------------------------
# exact propagation of the closed linear system

def eig_decompose(M):
    """Eigendecomposition of the generator plus a condition estimate."""
    Mc = M.astype(np.complex128)
    w, V = np.linalg.eig(Mc)
    Vinv = np.linalg.inv(V)
    cond = np.linalg.norm(V) * np.linalg.norm(Vinv)   # Frobenius norms
    return w, V, Vinv, cond


def pops_at(M, p0, tau):
    """Populations exp(M tau) p0, (k, s, 4), of generators M (k, 4, 4) from
    p0 (k, 4) at times tau (k, s): the fallback for ill-conditioned rows.
    With q the row's largest |M_jj|, M + qI is nonnegative (its off-diagonals
    are rates): exp(M h) is 18 nonnegative Taylor terms of exp((M + qI) h),
    h = tau / 2^j with |(M + qI) h|_1 <= 1/4, with its columns scaled to sum
    to 1; j squarings follow. Nothing cancels (Xue & Ye, Numer. Math. 110,
    393 (2008)). Each sample takes its own j, so a block is bitwise its
    one-sample calls. An overflowing tau gives non-finite populations."""
    q = np.abs(np.diagonal(M, axis1=1, axis2=2)).max(axis=1)
    A = M + q[:, None, None] * np.eye(4)
    mant, expo = np.frexp(np.abs(A).sum(axis=1).max(axis=1)[:, None] * tau)
    # the norm is mant * 2^expo, 1/2 <= mant < 1: the least j that takes it to 1/4
    j = np.maximum(expo + 2 - (mant == 0.5), 0)
    h = np.ldexp(tau, -j)   # exact, and no overflow of 2**j beyond j = 1023
    B = A[:, None] * h[..., None, None]
    E = T = np.broadcast_to(np.eye(4), B.shape)
    for n in range(1, 18):
        T = (T @ B) / n
        E = E + T
    E = E / E.sum(axis=-2, keepdims=True)   # e^(-q h), with no column-sum bias to square
    for i in range(j.max(initial=0)):
        E = np.where((j > i)[..., None, None], E @ E, E)
    return (E @ p0[:, None, :, None])[..., 0]


def _concurrence(pGG, pAA, pSS, pEE, reAS, imAS, reGE, imGE, clamp):
    # concurrence_kernel without its raise: C and the mask of the radicands
    # below RADICAND_SLACK (rad1 is a sum of squares), from one pass
    rad1 = (pAA - pSS) * (pAA - pSS) + 4.0 * imAS * imAS
    prod = pGG * pEE
    rad2 = (pAA + pSS) * (pAA + pSS) - 4.0 * reAS * reAS
    low = (prod < RADICAND_SLACK) | (rad2 < RADICAND_SLACK)
    K1 = np.sqrt(rad1) - 2.0 * np.sqrt(np.where(prod < 0.0, 0.0, prod))
    K2 = 2.0 * np.hypot(reGE, imGE) - np.sqrt(np.where(rad2 < 0.0, 0.0, rad2))
    C = np.where(K1 > K2, K1, K2)
    return (np.where(C > 0.0, C, 0.0) if clamp else C), low


def concurrence_kernel(pGG, pAA, pSS, pEE, reAS, imAS, reGE, imGE, clamp=True):
    """X-state concurrence max{0, K1, K2} from the eight real components,
    elementwise on scalars or broadcastable arrays.

    With the clamp a radicand below RADICAND_SLACK anywhere raises
    InvalidStateError; with ``clamp=False`` it returns max(K1, K2) without
    the clamp at zero (negative values certify a dip) and zeroes negative
    radicands silently. ``_evaluate`` alone decides retries on the fallback.
    """
    C, low = _concurrence(pGG, pAA, pSS, pEE, reAS, imAS, reGE, imGE, clamp)
    if clamp and np.any(low):
        raise InvalidStateError("concurrence radicand below tolerance: state not positive")
    return C


class TrajectoryStack:
    """Exact evolution of n initial X states, one row per trajectory.

    ``coeffs`` (n, 4) holds the rows (A1, B1, A2, B2), ``p0`` (n, 4) the
    initial populations and ``coherences`` (n, 4) the initial (reAS, imAS,
    reGE, imGE), or one (4,) row each that every trajectory starts from.
    Setup is done once per row: generator M, eigendecomposition
    (w, V and the condition estimate cond), the flag of the ``pops_at``
    fallback (cond not finite or above COND_LIMIT) and c = Vinv p0. The
    coherences decay as exp(-4 A1 tau).
    """

    __slots__ = ("M", "w", "V", "c", "cond", "use_expm", "A1", "coherences", "p0")

    def __init__(self, coeffs, p0, coherences):
        n = len(coeffs)
        self.M = generator_kernel(*coeffs.T)
        self.w = np.empty((n, 4), dtype=np.complex128)
        self.V = np.empty((n, 4, 4), dtype=np.complex128)
        Vinv = np.empty((n, 4, 4), dtype=np.complex128)
        self.cond = np.empty(n)
        for i in range(n):
            self.w[i], self.V[i], Vinv[i], self.cond[i] = eig_decompose(self.M[i])
        self.use_expm = ~np.isfinite(self.cond) | (self.cond > COND_LIMIT)
        # one matrix-vector product per row, bitwise Vinv @ p0 of that row
        self.p0 = np.broadcast_to(p0, (n, 4))
        self.c = (Vinv @ self.p0.astype(np.complex128)[..., None])[..., 0]
        self.A1 = coeffs[:, 0]
        self.coherences = np.broadcast_to(coherences, (n, 4))


def _populations(stack, rows, tau, expm):
    # populations (k, s, 4) of the rows (k,) at tau (k, s); pops_at where expm is set
    pops = np.empty(tau.shape + (4,))
    eig = ~expm
    r = rows[eig]
    with np.errstate(over="ignore", invalid="ignore"):
        # one matrix-vector product per sample, as the scalar V @ (c exp(w tau)):
        # a stacked matrix-matrix product sums in another order
        y = stack.c[r, None] * np.exp(stack.w[r, None] * tau[eig][..., None])
        pops[eig] = (stack.V[r, None] @ y[..., None])[..., 0].real
        if expm.any():
            pops[expm] = pops_at(stack.M[rows[expm]], stack.p0[rows[expm]], tau[expm])
    zi, zj = np.nonzero(tau == 0.0)
    pops[zi, zj] = stack.p0[rows[zi]]
    if not np.isfinite(pops).all():
        raise ComputationError("populations overflow: tau is beyond the propagator's range")
    if np.any(np.abs(pops @ np.ones(4) - 1.0) > DRIFT_TOL):   # a matvec sums faster
        raise ComputationError("stationary populations drift: tau is beyond the propagator's range")
    return pops


def _evaluate(stack, rows, tau, clamp):
    """Populations and concurrence of the stack rows ``rows`` (k,) at the
    times ``tau`` (k, s). Returns (pops (k, s, 4), C (k, s)).

    The one implementation of the state at a time: eig rows stack
    c*exp(w tau) and apply V by one batched matrix-vector product, the rows
    on the expm fallback take one ``pops_at`` call, tau = 0 gives p0, and the
    concurrence is ``concurrence_kernel``'s formula on the arrays. The one
    retry rule, clamped or not: a row with a radicand below RADICAND_SLACK
    and a negative population (eig roundoff, about eps * cond) is taken
    again, whole, on the nonnegative fallback; only then does the clamp
    raise InvalidStateError on a radicand still below the slack. A row is
    decided on its own samples, so it is bitwise its one-row call (for one
    sample, the reference in ``tests/oracles.py``).
    Populations that overflow at a huge tau, or whose trace is off 1 by more
    than DRIFT_TOL (zero-eigenvalue roundoff), raise ComputationError.
    """
    expm = stack.use_expm[rows]
    pops = _populations(stack, rows, tau, expm)
    coherences = stack.coherences[rows].T[..., None] * np.exp(-4.0 * stack.A1[rows, None] * tau)
    C, low = _concurrence(*pops.transpose(2, 0, 1), *coherences, clamp)
    if low.any():
        retry = low.any(axis=1) & (pops < 0.0).any(axis=(1, 2))
        pops = _populations(stack, rows, tau, expm | retry)
        C = concurrence_kernel(*pops.transpose(2, 0, 1), *coherences, clamp)
    return pops, C


def _conc_at(stack, rows, tau):
    # concurrence of trajectory rows[i] at tau[i]
    return _evaluate(stack, rows, tau[:, None], True)[1][:, 0]


def _conc_raw_at(stack, rows, tau):
    # max(K1, K2) without the clamp at zero; negative values certify a dip
    return _evaluate(stack, rows, tau[:, None], False)[1][:, 0]


def trajectory_kernel(stack, rows, taus):
    """Populations and concurrence of the stack rows ``rows`` (k,) on one
    time grid. Returns (pops (k, t, 4), C (k, t)), every row bitwise its
    one-row call, whose retry on the fallback takes the whole row."""
    return _evaluate(stack, rows, np.broadcast_to(taus, (rows.size, taus.size)), True)


def _bisect_crossing(f, rows, lo, hi, want_up):
    # bracket i of trajectory rows[i] carries a sign change of f - EPS_DEAD
    # by construction; every bracket halves until it is REFINE_TOL wide
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    active = np.flatnonzero(hi - lo > REFINE_TOL)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        to_hi = want_up[active] == (f(rows[active], mid) > EPS_DEAD)
        hi[active] = np.where(to_hi, mid, hi[active])
        lo[active] = np.where(to_hi, lo[active], mid)
        active = active[hi[active] - lo[active] > REFINE_TOL]
    return 0.5 * (lo + hi)


def _golden_extremum(f, rows, lo, hi, sign, tol):
    # golden-section on sign*f; sign=+1 finds maxima, -1 minima. Bracket i
    # of trajectory rows[i] shrinks until it is tol[i] wide
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    if not lo.size:   # no bracket: no evaluation on empty arrays
        return lo, hi
    tol = np.broadcast_to(tol, lo.shape)
    x1 = hi - _INVGOLD * (hi - lo)
    x2 = lo + _INVGOLD * (hi - lo)
    f1 = sign * f(rows, x1)
    f2 = sign * f(rows, x2)
    a = np.flatnonzero(hi - lo > tol)    # the brackets still shrinking
    while a.size:
        up = f1[a] < f2[a]
        lo[a] = np.where(up, x1[a], lo[a])
        hi[a] = np.where(up, hi[a], x2[a])
        # the new point: x2 when the bracket moved up, x1 when it moved down
        x = np.where(up, lo[a] + _INVGOLD * (hi[a] - lo[a]),
                     hi[a] - _INVGOLD * (hi[a] - lo[a]))
        fx = sign * f(rows[a], x)
        x1[a], x2[a] = np.where(up, x2[a], x), np.where(up, x, x1[a])
        f1[a], f2[a] = np.where(up, f2[a], fx), np.where(up, fx, f1[a])
        a = a[hi[a] - lo[a] > tol[a]]
    t = 0.5 * (lo + hi)
    return t, f(rows, t)


def events_kernel(stack, taus, C):
    """Entanglement events of every row of a trajectory stack, from their
    concurrence C (n, t) on the grid taus (rows of ``trajectory_kernel``).

    Returns an (n, 7) array, one row per trajectory in the field order of
    ``EntanglementEvents``: (death_time, birth_time, revival, enhancement,
    max_C, max_time, revival_amplitude); missing times are NaN, flags are
    0/1. The candidates are found on the rows: threshold crossings between
    neighbouring samples, and sampled local minima above threshold.
    Crossings are refined by bisection on the exact propagator and maxima
    by golden section, both to REFINE_TOL in scaled time. Local minima are
    drilled into at machine depth on the unclamped concurrence, so a dip
    through zero far narrower than the sample spacing (including exact
    touches at zero temperature) still registers as a death/birth pair;
    bumps narrower than the spacing remain invisible. death_time and
    birth_time are the earliest refined downward and upward crossings of
    the row (the minimum over its candidates), a dip counting as a
    downward then an upward one. revival_amplitude is the
    largest concurrence after the first death, 0 when there is no death.

    Three array passes refine the group: a golden section into every
    sampled minimum, one bisection of every crossing (between samples, and
    either side of each certified dip), then one golden section around
    every maximum (the best sample, and the best after the first death).
    Each step is one evaluation call for the group, and each bracket takes
    the steps the one-trajectory scalar search takes, so rows are bitwise
    equal to it.
    """
    conc = functools.partial(_conc_at, stack)
    n = taus.size
    m = len(C)
    above = C > EPS_DEAD
    crossing = np.zeros(C.shape, dtype=bool)
    crossing[:, 1:] = above[:, 1:] != above[:, :-1]
    dip = np.zeros(C.shape, dtype=bool)
    dip[:, 1:-1] = (above[:, :-2] & above[:, 1:-1] & above[:, 2:]
                    & (C[:, 1:-1] <= C[:, :-2]) & (C[:, 1:-1] <= C[:, 2:]))

    # local minima above threshold: the true dip may cross between samples;
    # certify at machine depth (a zero-temperature dip is a V touching zero
    # over a vanishing time window)
    rd, kd = np.nonzero(dip)
    tmin, fmin = _golden_extremum(functools.partial(_conc_raw_at, stack), rd,
                                  taus[kd - 1], taus[kd + 1], -1.0,
                                  1e-12 * np.maximum(1.0, taus[kd + 1]))
    certified = fmin <= EPS_DEAD
    rd, kd, tmin = rd[certified], kd[certified], tmin[certified]

    # threshold crossings between samples, then each certified dip as a
    # death and a birth, bisected on either side
    rc, kc = np.nonzero(crossing)
    rx = np.concatenate([rc, rd, rd])
    upward = np.concatenate([above[rc, kc], np.repeat([False, True], rd.size)])
    tx = _bisect_crossing(conc, rx, np.concatenate([taus[kc - 1], taus[kd - 1], tmin]),
                          np.concatenate([taus[kc], tmin, taus[kd + 1]]), upward)

    # first death and first birth in time: the earliest downward and upward
    # candidate of each row, NaN where there is none
    first = np.full((2, m), np.nan)
    np.fmin.at(first, (upward.astype(int), rx), tx)
    death, birth = first

    # golden section around each row's first best sample, and around its
    # best sample after the first death (no samples without one), a bracket
    # that starts no earlier than the death
    after = np.where(taus > death[:, None], C, -np.inf)
    revived = np.flatnonzero(after.max(axis=1) > 0.0)
    rm = np.concatenate([np.arange(m), revived])
    km = np.concatenate([np.argmax(C, axis=1), np.argmax(after[revived], axis=1)])
    lo = taus[np.maximum(km - 1, 0)]
    lo[m:] = np.maximum(lo[m:], death[revived])
    tm, fm = _golden_extremum(conc, rm, lo, taus[np.minimum(km + 1, n - 1)], 1.0, REFINE_TOL)
    # the sampled or the refined value, whichever is larger (fm is never
    # NaN: non-finite populations raise first)
    cm = C[rm, km]
    better = fm > cm
    best = np.where(better, fm, cm)
    max_c = best[:m]
    max_t = np.where(better, tm, taus[km])[:m]
    rev_amp = np.zeros(m)
    rev_amp[revived] = best[m:]

    revival = ~np.isnan(death) & ~np.isnan(birth) & (birth > death)
    enhancement = max_c > C[:, 0] + EPS_ENH
    return np.column_stack([death, birth, revival, enhancement, max_c, max_t, rev_amp])
