"""Hot numerical kernels.

Scalar numpy/Python code for one cell or one trajectory at a time. The
kernels do not validate their arguments: the config parser and the public
dataclasses (:mod:`atompair.config`, :mod:`atompair.coefficients`,
:mod:`atompair.sweeps`) check every input before it reaches them.

Units: the atomic transition frequency is fixed at 1, so ``a`` means a/omega
and ``L`` means omega*L. Rates are expressed in units of the spontaneous
emission rate, times in its inverse.
"""

import functools

import numpy as np

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
    # caller guarantees x > 0
    if x > 20.0:
        return 1.0 + 2.0 * np.exp(-2.0 * x)
    if x < 1e-6:
        return 1.0 / x + x / 3.0
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
        return (3.0 * r * np.cos(r) - 3.0 * np.sin(r) + 3.0 * r * r * np.sin(r)) / (2.0 * r ** 3)
    if i == 3 and j == 3:
        if r < SMALL_R:
            r2 = r * r
            return 1.0 - r2 / 10.0 + r2 * r2 / 280.0 - r2 * r2 * r2 / 15120.0
        return 3.0 * (np.sin(r) - r * np.cos(r)) / r ** 3
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


def f12_kernel(i, j, lam, a, L, order21):
    """Accelerated cross-correlation shape f_ij; order21 selects the swapped pair.

    Components outside (1,1), (2,2), (3,3), (1,3), (3,1) are zero. The
    (3,1) value is minus the (1,3) one, and the swapped atom order flips
    both of those signs once more.
    """
    if a < SMALL_A:
        # 0/0 loss in (2 lam / a) asinh(aL/2); the static shapes agree to O(a^2)
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
        if order21:
            sign = -sign
    if lam * L < SMALL_R and a * L < SERIES_Q_MAX:
        return sign * _f12_series(ci, cj, lam, a, L)
    return sign * _f12_closed(ci, cj, lam, a, L)


# ---------------------------------------------------------------------------
# dissipator coefficients (units of the spontaneous emission rate)

def assemble_kernel(a, L, d1, d2, thermal, order21):
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
        c11 = f12_kernel(1, 1, lam, a, L, order21)
        c22 = f12_kernel(2, 2, lam, a, L, order21)
        c33 = f12_kernel(3, 3, lam, a, L, order21)
        c13 = f12_kernel(1, 3, lam, a, L, order21)
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


def generator_kernel(A1, B1, A2, B2):
    """Population rate matrix M, d/dtau (pGG,pAA,pSS,pEE) = M p.

    Diagonals are assembled as minus their column's off-diagonal sum, which
    the rate equations satisfy identically; this makes the column sums (and
    hence trace preservation) exact in floating point, with the diagonals
    matching the -4(...) closed forms to roundoff.
    """
    M = np.zeros((4, 4))
    M[0, 1] = 2.0 * (A1 + B1 - A2 - B2)
    M[0, 2] = 2.0 * (A1 + B1 + A2 + B2)
    M[1, 0] = 2.0 * (A1 - B1 - A2 + B2)
    M[1, 3] = 2.0 * (A1 + B1 - A2 - B2)
    M[2, 0] = 2.0 * (A1 - B1 + A2 - B2)
    M[2, 3] = 2.0 * (A1 + B1 + A2 + B2)
    M[3, 1] = 2.0 * (A1 - B1 - A2 + B2)
    M[3, 2] = 2.0 * (A1 - B1 + A2 - B2)
    for k in range(4):
        M[k, k] = -sum(M[r, k] for r in range(4) if r != k)
    return M


# ---------------------------------------------------------------------------
# exact propagation of the closed linear system

def eig_decompose(M):
    """Eigendecomposition of the generator plus a condition estimate."""
    Mc = M.astype(np.complex128)
    w, V = np.linalg.eig(Mc)
    Vinv = np.linalg.inv(V)
    # Frobenius norms, summed in row-major order
    nv = sum(abs(x) ** 2 for x in V.flat)
    ni = sum(abs(x) ** 2 for x in Vinv.flat)
    cond = np.sqrt(nv) * np.sqrt(ni)
    return w, V, Vinv, cond


def expm_kernel(A):
    """Scaling-and-squaring Taylor matrix exponential for the 4x4 generator."""
    nrm = max(0.0, *(sum(abs(A[r, c]) for c in range(4)) for r in range(4)))
    k = 0
    while nrm > 0.25:
        nrm *= 0.5
        k += 1
    B = A / (2.0 ** k)
    E = np.eye(4)
    T = np.eye(4)
    for n in range(1, 21):
        T = (T @ B) / n
        E = E + T
    for _ in range(k):
        E = E @ E
    return E


def pops_at(w, V, c, M, use_expm, p0, tau):
    """Populations at one time from the prepared decomposition (c = Vinv p0)."""
    if tau == 0.0:
        return p0.copy()
    if not use_expm:
        return (V @ (c * np.exp(w * tau))).real
    E = expm_kernel(M * tau)
    return np.array([sum(E[m, n] * p0[n] for n in range(4)) for m in range(4)])




def concurrence_kernel(pGG, pAA, pSS, pEE, reAS, imAS, reGE, imGE, clamp=True):
    """X-state concurrence max{0, K1, K2} from the eight real components.

    With ``clamp=False`` it returns max(K1, K2) without the clamp at zero
    (negative values certify a dip) and zeroes negative radicands silently;
    with the clamp a radicand below RADICAND_SLACK raises ValueError.
    """
    rad1 = (pAA - pSS) * (pAA - pSS) + 4.0 * imAS * imAS
    prod = pGG * pEE
    rad2 = (pAA + pSS) * (pAA + pSS) - 4.0 * reAS * reAS
    if clamp and (rad1 < RADICAND_SLACK or prod < RADICAND_SLACK or rad2 < RADICAND_SLACK):
        raise ValueError("concurrence radicand below tolerance: state not positive")
    if rad1 < 0.0:
        rad1 = 0.0
    if prod < 0.0:
        prod = 0.0
    if rad2 < 0.0:
        rad2 = 0.0
    K1 = np.sqrt(rad1) - 2.0 * np.sqrt(prod)
    K2 = 2.0 * np.hypot(reGE, imGE) - np.sqrt(rad2)
    C = K1 if K1 > K2 else K2
    if clamp:
        return C if C > 0.0 else 0.0
    return C


def needs_expm(cond):
    """Whether the eigenvector condition number calls for the expm fallback."""
    return (not np.isfinite(cond)) or cond > COND_LIMIT


class PreparedTrajectory:
    """Exact evolution of one initial X state under one coefficient set.

    Setup is done once: generator, eigendecomposition, expm-fallback flag
    and c = Vinv p0. The coherences decay as exp(-4 A1 tau).
    """

    __slots__ = ("A1", "M", "w", "V", "c", "cond", "use_expm", "p0",
                 "reAS0", "imAS0", "reGE0", "imGE0")

    def __init__(self, A1, B1, A2, B2, p0, reAS0, imAS0, reGE0, imGE0):
        self.A1 = A1
        self.M = generator_kernel(A1, B1, A2, B2)
        self.w, self.V, Vinv, self.cond = eig_decompose(self.M)
        self.use_expm = needs_expm(self.cond)
        self.c = Vinv @ p0.astype(np.complex128)
        self.p0 = p0
        self.reAS0, self.imAS0, self.reGE0, self.imGE0 = reAS0, imAS0, reGE0, imGE0

    def populations(self, tau):
        return pops_at(self.w, self.V, self.c, self.M, self.use_expm, self.p0, tau)

    def concurrence(self, p, tau, clamp=True):
        """Concurrence at tau from the populations p there."""
        amp = np.exp(-4.0 * self.A1 * tau)
        return concurrence_kernel(p[0], p[1], p[2], p[3],
                                  self.reAS0 * amp, self.imAS0 * amp,
                                  self.reGE0 * amp, self.imGE0 * amp, clamp)


def _conc_at(traj, tau):
    return traj.concurrence(traj.populations(tau), tau)


def _conc_raw_at(traj, tau):
    # max(K1, K2) without the clamp at zero; negative values certify a dip
    return traj.concurrence(traj.populations(tau), tau, False)


def trajectory_kernel(traj, taus):
    """Populations and concurrence of a prepared trajectory along a time
    grid. Returns (pops, C)."""
    n = taus.size
    pops = np.empty((n, 4))
    C = np.empty(n)
    for k in range(n):
        p = traj.populations(taus[k])
        pops[k] = p
        C[k] = traj.concurrence(p, taus[k])
    return pops, C


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


def events_kernel(traj, taus):
    """Entanglement events along one prepared trajectory.

    Returns (death_time, birth_time, revival, enhancement, max_C, max_time,
    revival_amplitude), the field order of ``EntanglementEvents``; missing
    times are NaN, flags are 0/1. Threshold crossings are refined by
    bisection on the exact propagator and maxima by golden section, both
    to REFINE_TOL in scaled time. Sampled local minima are drilled into at
    machine depth on the unclamped concurrence, so a dip through zero far
    narrower than the sample spacing (including exact touches at zero
    temperature) still registers as a death/birth pair; bumps narrower than
    the spacing remain invisible. revival_amplitude is the largest
    concurrence after the first death, 0 when there is no death.
    """
    conc = functools.partial(_conc_at, traj)
    n = taus.size
    C = np.empty(n)
    for k in range(n):
        C[k] = _conc_at(traj, taus[k])

    crossings = []   # (time, upward), in chronological order
    above = C[0] > EPS_DEAD
    for k in range(1, n):
        now = C[k] > EPS_DEAD
        if now != above:
            t = _bisect_crossing(conc, taus[k - 1], taus[k], now)
            crossings.append((t, now))
            above = now
        elif (now and k < n - 1 and C[k] <= C[k - 1] and C[k] <= C[k + 1]
              and C[k - 1] > EPS_DEAD and C[k + 1] > EPS_DEAD):
            # local minimum above threshold: the true dip may cross between
            # samples; certify at machine depth (a zero-temperature dip is a
            # V touching zero over a vanishing time window)
            dip_tol = 1e-12 * max(1.0, taus[k + 1])
            tmin, fmin = _golden_extremum(functools.partial(_conc_raw_at, traj),
                                          taus[k - 1], taus[k + 1], -1.0, dip_tol)
            if fmin <= EPS_DEAD:
                td = _bisect_crossing(conc, taus[k - 1], tmin, False)
                tb = _bisect_crossing(conc, tmin, taus[k + 1], True)
                crossings += [(td, False), (tb, True)]

    death = next((t for t, up in crossings if not up), np.nan)
    birth = next((t for t, up in crossings if up), np.nan)

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
