"""Hot numerical kernels.

Populations and concurrence are sampled for a block of rows of a
``TrajectoryStack`` at once, on arrays (``trajectory_kernel``), and event
refinement (bisection, golden section) steps every flagged bracket of a
group of trajectories at once (``events_kernel``). The kernels do not
validate their arguments: the config parser and the public dataclasses
(:mod:`atompair.config`, :mod:`atompair.coefficients`,
:mod:`atompair.sweeps`) check every input before it reaches them.

Units: the atomic transition frequency is fixed at 1, so ``a`` means a/omega
and ``L`` means omega*L. Rates are expressed in units of the spontaneous
emission rate, times in its inverse.
"""

import functools

import numpy as np

from .errors import ComputationError, InvalidStateError

# switch points of the series fallbacks
SMALL_A = 1e-4      # below this the accelerated spectral shapes equal the static ones to O(a^2)
SMALL_R = 3e-3      # lambda*L below this: closed forms cancel catastrophically, use series
SERIES_Q_MAX = 1.0  # the small-L series assumes a*L is moderate as well

COND_LIMIT = 1e12   # eigenvector condition number beyond which expm fallback is used
EPS_DEAD = 1e-12    # concurrence threshold for death/birth events
EPS_ENH = 1e-9      # enhancement margin over the initial concurrence
REFINE_TOL = 1e-6   # scaled-time width of refined crossings and maxima
RADICAND_SLACK = -1e-12

_INVGOLD = (np.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# elementary pieces
#
# The Fourier transforms of the vacuum field correlations along the pair of
# uniformly accelerated worldlines have the form
# (lam^3 / 3 pi) * Planck-factor * f(lam, a, L); the kernels below evaluate
# the dimensionless shape factors f. The same-trajectory factor f11 is
# isotropic; the cross-trajectory factor f12 carries the tensor structure
# over the Cartesian axes (1 = direction of motion, 3 = separation axis).
# The static-bath shapes are the a -> 0 limits of the accelerated ones.

def coth_kernel(x):
    # caller guarantees x > 0; above x = 20 the result rounds to exactly 1.0
    return 1.0 / np.tanh(x)


def f11_kernel(lam, a):
    return 1.0 + (a * a) / (lam * lam)


def f12_thermal_kernel(i, j, lam, L):
    """Static-bath cross-correlation shape, component (i, j), 1-based axes."""
    r = lam * L
    r2 = r * r
    # the cube is r * r * r: array r ** 3 rounds differently from Python's
    if i == j and i < 3:
        series = 1.0 - r2 / 5.0 + 3.0 * r2 * r2 / 280.0 - r2 * r2 * r2 / 3780.0
        closed = (3.0 * r * np.cos(r) - 3.0 * np.sin(r) + 3.0 * r * r * np.sin(r)) / (2.0 * (r * r * r))
    elif i == 3 and j == 3:
        series = 1.0 - r2 / 10.0 + r2 * r2 / 280.0 - r2 * r2 * r2 / 15120.0
        closed = 3.0 * (np.sin(r) - r * np.cos(r)) / (r * r * r)
    else:
        return 0.0
    return np.where(r < SMALL_R, series, closed)


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


def f12_kernel(i, j, lam, a, L, order21):
    """Accelerated cross-correlation shape f_ij; order21 selects the swapped pair.

    Components outside (1,1), (2,2), (3,3), (1,3), (3,1) are zero. The
    (3,1) value is minus the (1,3) one, and the swapped atom order flips
    both of those signs once more.
    """
    diag = i == j and 1 <= i <= 3
    skew = (i == 1 and j == 3) or (i == 3 and j == 1)
    if not (diag or skew):
        return 0.0
    ci, cj, sign = i, j, 1.0
    if skew:
        ci, cj = 1, 3
        if i == 3:
            sign = -sign
        if order21:
            sign = -sign
    series = (lam * L < SMALL_R) & (a * L < SERIES_Q_MAX)
    f = sign * np.where(series, _f12_series(ci, cj, lam, a, L), _f12_closed(ci, cj, lam, a, L))
    # below SMALL_A: 0/0 loss in (2 lam / a) asinh(aL/2); the static shapes agree to O(a^2)
    return np.where(a < SMALL_A, f12_thermal_kernel(i, j, lam, L), f)


# ---------------------------------------------------------------------------
# dissipator coefficients (units of the spontaneous emission rate)

def assemble_kernel(a, L, d1, d2, thermal, order21):
    """Kossakowski coefficients (A1, B1, A2, B2) for one bath mode, four
    arrays of the broadcast shape of ``a`` and ``L`` (arrays or scalars).

    ``d1``/``d2`` are unit 3-vectors; ``thermal`` selects the static bath at
    the matching Unruh temperature (shape functions taken at a = 0, the
    Planck factor at a). Every branch is evaluated on the whole
    array and ``np.where`` picks one per element, in the scalar operation
    order (cubes as r * r * r: array ``r ** 3`` rounds unlike Python's), so
    each element is bitwise the scalar reference in ``tests/oracles.py``.
    Branches not taken and parameters near the float limits overflow to
    inf/nan without a warning; the coefficient check rejects non-finite rows.
    """
    a = np.asarray(a, dtype=float)
    shape_a = np.zeros_like(a) if thermal else a
    lam = 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g11 = f11_kernel(lam, shape_a)
        c11 = f12_kernel(1, 1, lam, shape_a, L, order21)
        c22 = f12_kernel(2, 2, lam, shape_a, L, order21)
        c33 = f12_kernel(3, 3, lam, shape_a, L, order21)
        c13 = f12_kernel(1, 3, lam, shape_a, L, order21)
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
    M[..., 0, 1] = 2.0 * (A1 + B1 - A2 - B2)
    M[..., 0, 2] = 2.0 * (A1 + B1 + A2 + B2)
    M[..., 1, 0] = 2.0 * (A1 - B1 - A2 + B2)
    M[..., 1, 3] = 2.0 * (A1 + B1 - A2 - B2)
    M[..., 2, 0] = 2.0 * (A1 - B1 + A2 - B2)
    M[..., 2, 3] = 2.0 * (A1 + B1 + A2 + B2)
    M[..., 3, 1] = 2.0 * (A1 - B1 - A2 + B2)
    M[..., 3, 2] = 2.0 * (A1 - B1 + A2 - B2)
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


def expm_kernel(A):
    """Scaling-and-squaring Taylor matrix exponential for the 4x4 generator."""
    nrm = max(0.0, *(sum(abs(A[r, c]) for c in range(4)) for r in range(4)))
    if not np.isfinite(nrm):
        raise ComputationError(f"matrix exponential of a matrix with norm {nrm}")
    k = 0
    while nrm > 0.25:
        nrm *= 0.5
        k += 1
    B = np.ldexp(A, -k)   # exact, and no overflow of 2**k beyond k = 1023
    E = np.eye(4)
    T = np.eye(4)
    for n in range(1, 21):
        T = (T @ B) / n
        E = E + T
    for _ in range(k):
        E = E @ E
    return E


def pops_at(M, p0, tau):
    """Populations at one time tau > 0 by the matrix exponential of the
    generator M: the fallback of rows whose eigenvectors are ill-conditioned."""
    E = expm_kernel(M * tau)
    return np.array([sum(E[m, n] * p0[n] for n in range(4)) for m in range(4)])


def concurrence_kernel(pGG, pAA, pSS, pEE, reAS, imAS, reGE, imGE, clamp=True):
    """X-state concurrence max{0, K1, K2} from the eight real components,
    elementwise on scalars or broadcastable arrays.

    With ``clamp=False`` it returns max(K1, K2) without the clamp at zero
    (negative values certify a dip) and zeroes negative radicands silently;
    with the clamp a radicand below RADICAND_SLACK anywhere raises
    InvalidStateError. ``tests/oracles.py`` holds the one-sample reference calls.
    """
    rad1 = (pAA - pSS) * (pAA - pSS) + 4.0 * imAS * imAS
    prod = pGG * pEE
    rad2 = (pAA + pSS) * (pAA + pSS) - 4.0 * reAS * reAS
    if clamp and np.any((rad1 < RADICAND_SLACK) | (prod < RADICAND_SLACK)
                        | (rad2 < RADICAND_SLACK)):
        raise InvalidStateError("concurrence radicand below tolerance: state not positive")
    K1 = np.sqrt(np.where(rad1 < 0.0, 0.0, rad1)) - 2.0 * np.sqrt(np.where(prod < 0.0, 0.0, prod))
    K2 = 2.0 * np.hypot(reGE, imGE) - np.sqrt(np.where(rad2 < 0.0, 0.0, rad2))
    C = np.where(K1 > K2, K1, K2)
    if clamp:
        C = np.where(C > 0.0, C, 0.0)
    return C


class TrajectoryStack:
    """Exact evolution of n initial X states, one row per trajectory.

    ``coeffs`` (n, 4) holds the rows (A1, B1, A2, B2), ``p0`` (n, 4) the
    initial populations and ``coherences`` (n, 4) the initial (reAS, imAS,
    reGE, imGE). Setup is done once per row: generator M, eigendecomposition
    (w, V and the condition estimate cond), the expm-fallback flag (cond not
    finite or above COND_LIMIT) and c = Vinv p0. The coherences decay as
    exp(-4 A1 tau).
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
        self.c = (Vinv @ p0.astype(np.complex128)[..., None])[..., 0]
        self.A1 = coeffs[:, 0]
        self.coherences = coherences
        self.p0 = p0


def _evaluate(stack, rows, tau, clamp):
    """Populations and concurrence of the stack rows ``rows`` (k,) at the
    times ``tau`` (k, s). Returns (pops (k, s, 4), C (k, s)).

    The one implementation of the state at a time: eig rows stack
    c*exp(w tau) and apply V by one batched matrix-vector product, rows on
    the expm fallback go through ``pops_at``, tau = 0 gives p0, and the
    concurrence is ``concurrence_kernel`` on the arrays (with the clamp a
    radicand below RADICAND_SLACK raises InvalidStateError). Every value is
    bitwise the one-sample scalar reference in ``tests/oracles.py``.
    Populations that overflow at a huge tau raise ComputationError.
    """
    pops = np.empty(tau.shape + (4,))
    expm = stack.use_expm[rows]
    eig = ~expm
    r = rows[eig]
    with np.errstate(over="ignore", invalid="ignore"):
        # one matrix-vector product per sample, as the scalar V @ (c exp(w tau)):
        # a stacked matrix-matrix product sums in another order
        y = stack.c[r, None] * np.exp(stack.w[r, None] * tau[eig][..., None])
        pops[eig] = (stack.V[r, None] @ y[..., None])[..., 0].real
        for i, r in zip(np.flatnonzero(expm), rows[expm]):
            pops[i] = [pops_at(stack.M[r], stack.p0[r], t) for t in tau[i]]
    zi, zj = np.nonzero(tau == 0.0)
    pops[zi, zj] = stack.p0[rows[zi]]
    if not np.isfinite(pops).all():
        raise ComputationError("populations overflow: tau is beyond the propagator's range")

    amp = np.exp(-4.0 * stack.A1[rows, None] * tau)
    reAS, imAS, reGE, imGE = stack.coherences[rows].T[..., None] * amp
    return pops, concurrence_kernel(*pops.transpose(2, 0, 1), reAS, imAS, reGE, imGE, clamp)


def _conc_at(stack, rows, tau):
    # concurrence of trajectory rows[i] at tau[i]
    return _evaluate(stack, rows, tau[:, None], True)[1][:, 0]


def _conc_raw_at(stack, rows, tau):
    # max(K1, K2) without the clamp at zero; negative values certify a dip
    return _evaluate(stack, rows, tau[:, None], False)[1][:, 0]


def trajectory_kernel(stack, rows, taus):
    """Populations and concurrence of the stack rows ``rows`` (k,) on one
    time grid. Returns (pops (k, t, 4), C (k, t)), every value bitwise
    equal to the one-sample reference in ``tests/oracles.py``."""
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

    Every bracket of the group is refined in the same array pass, so each
    bisection or golden-section step is one evaluation call for the whole
    group; the steps that need earlier results (bisecting certified dips,
    the maximum after the death) run after them. Each bracket takes the
    steps the one-trajectory scalar search takes, so rows are bitwise
    equal to it.
    """
    conc = functools.partial(_conc_at, stack)
    n = taus.size
    rows = np.arange(len(C))
    above = C > EPS_DEAD
    crossing = np.zeros(C.shape, dtype=bool)
    crossing[:, 1:] = above[:, 1:] != above[:, :-1]
    dip = np.zeros(C.shape, dtype=bool)
    dip[:, 1:-1] = (above[:, :-2] & above[:, 1:-1] & above[:, 2:]
                    & (C[:, 1:-1] <= C[:, :-2]) & (C[:, 1:-1] <= C[:, 2:]))

    # threshold crossings between samples
    rc, kc = np.nonzero(crossing)
    upward = above[rc, kc]
    tc = _bisect_crossing(conc, rc, taus[kc - 1], taus[kc], upward)
    # local minima above threshold: the true dip may cross between samples;
    # certify at machine depth (a zero-temperature dip is a V touching zero
    # over a vanishing time window)
    rd, kd = np.nonzero(dip)
    tmin, fmin = _golden_extremum(functools.partial(_conc_raw_at, stack), rd,
                                  taus[kd - 1], taus[kd + 1], -1.0,
                                  1e-12 * np.maximum(1.0, taus[kd + 1]))
    # golden-section refinement of the sampled maximum (first best sample)
    kbest = np.argmax(C, axis=1)
    tmax, fmax = _golden_extremum(conc, rows, taus[np.maximum(kbest - 1, 0)],
                                  taus[np.minimum(kbest + 1, n - 1)], 1.0, REFINE_TOL)

    # a certified dip is a death and a birth, bisected on either side
    certified = fmin <= EPS_DEAD
    rd, kd, tmin = rd[certified], kd[certified], tmin[certified]
    ndip = rd.size
    tdip = _bisect_crossing(conc, np.concatenate([rd, rd]),
                            np.concatenate([taus[kd - 1], tmin]),
                            np.concatenate([tmin, taus[kd + 1]]),
                            np.repeat([False, True], ndip))

    # first death and first birth in time: the earliest candidate of each
    # row, NaN where there is none (fmin skips the NaN of the other direction)
    cand_rows = np.concatenate([rc, rd])
    death = np.full(rows.size, np.nan)
    birth = np.full(rows.size, np.nan)
    np.fmin.at(death, cand_rows, np.concatenate([np.where(upward, np.nan, tc), tdip[:ndip]]))
    np.fmin.at(birth, cand_rows, np.concatenate([np.where(upward, tc, np.nan), tdip[ndip:]]))

    cbest = C[rows, kbest]
    better = fmax > cbest
    max_c = np.where(better, fmax, cbest)
    max_t = np.where(better, tmax, taus[kbest])

    # largest concurrence after the first death (no samples without one)
    after = np.where(taus > death[:, None], C, -np.inf)
    revived = np.flatnonzero(after.max(axis=1) > 0.0)
    kpost = np.argmax(after[revived], axis=1)
    cpost = C[revived, kpost]
    _, fpost = _golden_extremum(conc, revived,
                                np.maximum(taus[np.maximum(kpost - 1, 0)], death[revived]),
                                taus[np.minimum(kpost + 1, n - 1)], 1.0, REFINE_TOL)
    rev_amp = np.zeros(rows.size)
    rev_amp[revived] = np.where(cpost > fpost, cpost, fpost)

    revival = ~np.isnan(death) & ~np.isnan(birth) & (birth > death)
    enhancement = max_c > C[:, 0] + EPS_ENH
    return np.column_stack([death, birth, revival, enhancement, max_c, max_t, rev_amp])
