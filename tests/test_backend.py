"""The numpy path must give the right numbers.

A psi1 trajectory is checked against a reference built here from the same
coefficients: populations from ``scipy.linalg.expm``, coherences decaying
as exp(-4 A1 tau), the X-state concurrence, bisection for death and birth,
and golden section for the largest concurrence after death.
"""

import numpy as np
from scipy.linalg import expm

import atompair as ap
from atompair.sweeps import time_grid

P = 0.25  # psi1 weight of the initial state

EPS_DEAD = 1e-12        # death/birth threshold of the detector
INVGOLD = (np.sqrt(5.0) - 1.0) / 2.0


class Reference:
    """Exact evolution of psi1(P) under coefficients (A1, B1, A2, B2)."""

    def __init__(self, A1, B1, A2, B2):
        # rate equations in the coupled basis G, A, S, E
        down_s = 2.0 * (A1 + B1 + A2 + B2)
        down_a = 2.0 * (A1 + B1 - A2 - B2)
        up_s = 2.0 * (A1 - B1 + A2 - B2)
        up_a = 2.0 * (A1 - B1 - A2 + B2)
        G, A, S, E = range(4)
        M = np.zeros((4, 4))
        M[G, A] = M[A, E] = down_a
        M[G, S] = M[S, E] = down_s
        M[A, G] = M[E, A] = up_a
        M[S, G] = M[E, S] = up_s
        self.M = M - np.diag(M.sum(axis=0))
        self.decay = 4.0 * A1
        self.p0 = np.array([0.0, P, 1.0 - P, 0.0])
        self.cAS0 = complex(np.sqrt(P * (1.0 - P)))
        self.cGE0 = 0j

    def populations(self, taus):
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        return expm(self.M[None, :, :] * taus[:, None, None]) @ self.p0

    def concurrence(self, taus):
        """max{0, K1, K2} of the X state; radicands clamped at zero."""
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        pGG, pAA, pSS, pEE = self.populations(taus).T
        damp = np.exp(-self.decay * taus)
        cAS = self.cAS0 * damp
        cGE = self.cGE0 * damp
        K1 = (np.sqrt((pAA - pSS) ** 2 + 4.0 * cAS.imag ** 2)
              - 2.0 * np.sqrt(np.clip(pGG * pEE, 0.0, None)))
        K2 = 2.0 * np.abs(cGE) - np.sqrt(
            np.clip((pAA + pSS) ** 2 - 4.0 * cAS.real ** 2, 0.0, None))
        return np.maximum(0.0, np.maximum(K1, K2))

    def conc(self, tau):
        return float(self.concurrence(tau)[0])

    def crossing(self, lo, hi, up, tol=1e-12):
        """Bisect a bracketed crossing of EPS_DEAD (upward if ``up``)."""
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if (self.conc(mid) > EPS_DEAD) == up:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def maximum(self, lo, hi, tol=1e-10):
        """Golden-section maximum of the concurrence on [lo, hi]."""
        x1 = hi - INVGOLD * (hi - lo)
        x2 = lo + INVGOLD * (hi - lo)
        f1, f2 = self.conc(x1), self.conc(x2)
        while hi - lo > tol:
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + INVGOLD * (hi - lo)
                f2 = self.conc(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - INVGOLD * (hi - lo)
                f1 = self.conc(x1)
        return self.conc(0.5 * (lo + hi))

    def events(self, stop, num=2001):
        """(death, birth, revival, revival amplitude) found on a dense grid."""
        t = np.linspace(0.0, stop, num)
        C = self.concurrence(t)
        above = C > EPS_DEAD
        death = birth = None
        for k in np.flatnonzero(above[1:] != above[:-1]):
            up = bool(above[k + 1])
            if up and birth is None:
                birth = self.crossing(t[k], t[k + 1], up)
            if not up and death is None:
                death = self.crossing(t[k], t[k + 1], up)
        amp = 0.0
        if death is not None:
            post = np.flatnonzero(t > death)
            k = post[np.argmax(C[post])]
            lo = max(t[k - 1], death)
            hi = t[min(k + 1, num - 1)]
            amp = max(C[k], self.maximum(lo, hi))
        revival = death is not None and birth is not None and birth > death
        return death, birth, revival, amp


def test_numpy_path_matches_expm_reference():
    assert ap.backend_name() == "numpy"
    z = ap.DipoleOrientation.from_axis("z")
    params = ap.SystemParams(a_over_omega=0.7, omega_L=1.1, dipole1=z, dipole2=z,
                             bath=ap.BathKind.ACCELERATED_VACUUM)
    cs = ap.assemble(params)
    taus = time_grid(10.0, 40)
    traj = ap.compute_trajectory(ap.catalogue_state("psi1", P), cs, taus)
    ev = ap.detect_events(traj)

    ref = Reference(cs.A1, cs.B1, cs.A2, cs.B2)
    assert np.allclose(traj.populations, ref.populations(taus), rtol=1e-10, atol=1e-12)
    assert np.allclose(traj.concurrence, ref.concurrence(taus), rtol=1e-10, atol=1e-12)
    death, birth, revival, amp = ref.events(taus[-1])
    assert death is not None and birth is not None
    assert ev.revival == revival
    assert abs(ev.death_time - death) < 1e-5
    assert abs(ev.birth_time - birth) < 1e-5
    assert abs(ev.revival_amplitude - amp) < 1e-9
