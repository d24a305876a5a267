import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import atompair
from atompair import (BathKind, CoefficientSet, ComputationError,
                      DegenerateGeneratorError, DomainError, InvalidStateError,
                      SystemParams, XState, assemble, asymptotic_state,
                      build_generator, catalogue_state, compute_trajectory,
                      concurrence_x, detect_events, evolve)
from atompair import kernels
from atompair.dynamics import _one_row_stack
from atompair.sweeps import HORIZON, HORIZON_TAU
from conftest import AXES, random_coeffs, random_xstate, rk4_evolve
from oracles import basis_transform, mp_generator
from scipy.linalg import expm as scipy_expm

VACUUM = CoefficientSet(A1=0.25, B1=0.25, A2=0.0, B2=0.0)


def thermal_xy(a):
    # orthogonal dipoles: A2 = B2 = 0 with thermal occupation
    from atompair import SystemParams, assemble
    params = SystemParams(a_over_omega=a, omega_L=1.0, dipole1=AXES["x"],
                          dipole2=AXES["y"], bath=BathKind.THERMAL_AT_UNRUH)
    return assemble(params)


def test_xstate_catalogue():
    assert catalogue_state("G") == XState(1.0, 0.0, 0.0, 0.0)
    assert catalogue_state("A").pAA == 1.0
    assert catalogue_state("S").pSS == 1.0
    assert catalogue_state("E").pEE == 1.0
    psi1 = catalogue_state("psi1", 0.25)
    assert psi1.pAA == 0.25 and psi1.pSS == 0.75
    assert psi1.cAS == pytest.approx(np.sqrt(0.25 * 0.75))
    psi2 = catalogue_state("psi2", 0.8)
    assert psi2.pGG == 0.8 and psi2.pEE == pytest.approx(0.2)
    assert psi2.cGE == pytest.approx(np.sqrt(0.8 * 0.2))
    with pytest.raises(DomainError):
        catalogue_state("psi1")
    with pytest.raises(DomainError):
        catalogue_state("psi2", 1.0)
    for family in ("psi1", "psi2"):
        for p in (0.0, -0.1, float("nan")):
            with pytest.raises(DomainError, match=f"{family} needs 0 < p < 1"):
                catalogue_state(family, p)
    # at p = 1/2 every entry of the closed form is exact: sqrt(p(1-p)) = 1/2
    assert catalogue_state("psi1", 0.5) == XState(0.0, 0.5, 0.5, 0.0, cAS=0.5 + 0.0j)
    assert catalogue_state("psi2", 0.5) == XState(0.5, 0.0, 0.0, 0.5, cGE=0.5 + 0.0j)
    with pytest.raises(DomainError):
        catalogue_state("A", 0.3)
    with pytest.raises(DomainError):
        catalogue_state("nope")


def test_xstate_validation():
    XState(0.25, 0.25, 0.25, 0.25).validate()
    with pytest.raises(InvalidStateError):
        XState(0.5, 0.5, 0.5, -0.5).validate()  # trace 1 but negative population
    with pytest.raises(InvalidStateError):
        XState(0.3, 0.3, 0.3, 0.3).validate()   # trace off
    with pytest.raises(InvalidStateError):
        XState(0.5, 0.0, 0.0, 0.5, cAS=0.3).validate()  # coherence outside block
    with pytest.raises(InvalidStateError):
        XState(0.5, 0.0, 0.0, 0.5, cGE=0.6).validate()
    nan = float("nan")
    for state in (XState(nan, 0.5, 0.5, 0.0), XState(0.0, 0.5, 0.5, 0.0, cAS=nan),
                  XState(0.5, 0.0, 0.0, 0.5, cGE=complex(0.0, float("inf")))):
        with pytest.raises(InvalidStateError):   # NaN fails every comparison
            state.validate()


def test_generator_vacuum_structure():
    gen = build_generator(VACUUM)
    # downward cascade at rate 2(A1+B1) = 1 per channel, no upward rates
    assert gen[1, 3] == pytest.approx(1.0)
    assert gen[2, 3] == pytest.approx(1.0)
    assert gen[0, 1] == pytest.approx(1.0)
    assert gen[0, 2] == pytest.approx(1.0)
    assert gen[1, 0] == gen[2, 0] == gen[3, 1] == gen[3, 2] == 0.0
    assert gen[3, 3] == pytest.approx(-2.0)


def test_generator_columns_sum_to_zero(rng):
    for _ in range(25):
        cs = random_coeffs(rng)
        M = build_generator(cs)
        # accumulate in construction order (off-diagonals first) so the
        # structural cancellation against the diagonal is reproduced exactly
        sums = [sum(M[r, k] for r in range(4) if r != k) + M[k, k] for k in range(4)]
        assert np.abs(sums).max() == 0.0


def test_generator_off_diagonal_rates_nonnegative(rng):
    for _ in range(40):
        gen = build_generator(random_coeffs(rng))
        off = gen[~np.eye(4, dtype=bool)]
        assert off.min() >= -1e-15


def test_evolve_identity_at_zero():
    state = catalogue_state("psi1", 0.3)
    out = evolve(state, VACUUM, 0.0)
    assert out == state


def test_evolve_vacuum_closed_form():
    state = catalogue_state("A")
    for tau in (0.1, 0.7, 2.5):
        out = evolve(state, VACUUM, tau)
        assert out.pAA == pytest.approx(np.exp(-tau), abs=1e-12)
        assert out.pGG == pytest.approx(1.0 - np.exp(-tau), abs=1e-12)
        assert out.pSS == 0.0 and abs(out.pEE) < 1e-15


def test_evolve_rejects_negative_time():
    with pytest.raises(DomainError):
        evolve(catalogue_state("A"), VACUUM, -0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [np.nan, np.inf])
def test_evolve_rejects_non_finite_time(tau):
    # rejected before any arithmetic, so no RuntimeWarning either
    with pytest.raises(DomainError):
        evolve(catalogue_state("psi1", 0.25), VACUUM, tau)


def test_coherence_decay_rate(rng):
    cs = random_coeffs(rng)
    state = catalogue_state("psi2", 0.4)
    out = evolve(state, cs, 0.8)
    assert out.cGE == pytest.approx(state.cGE * np.exp(-4.0 * cs.A1 * 0.8), rel=1e-12)


def test_trace_preservation_and_positivity(rng):
    taus = np.linspace(0.0, 50.0, 21)
    for _ in range(30):
        cs = random_coeffs(rng)
        state = random_xstate(rng)
        for tau in taus:
            out = evolve(state, cs, float(tau))
            assert abs(out.trace - 1.0) < 1e-10
            eigs = np.linalg.eigvalsh(basis_transform(out))
            assert eigs.min() >= -1e-9


def test_semigroup_property(rng):
    for _ in range(15):
        cs = random_coeffs(rng)
        state = random_xstate(rng)
        t1, t2 = rng.uniform(0.05, 3.0, size=2)
        one = evolve(evolve(state, cs, t1), cs, t2)
        two = evolve(state, cs, t1 + t2)
        for attr in ("pGG", "pAA", "pSS", "pEE", "cAS", "cGE"):
            assert abs(getattr(one, attr) - getattr(two, attr)) < 1e-10


def test_exact_propagator_matches_rk4(rng):
    for _ in range(3):
        cs = random_coeffs(rng)
        state = random_xstate(rng)
        exact = evolve(state, cs, 5.0)
        oracle = rk4_evolve(state, cs, 5.0, steps=50_000)
        for attr in ("pGG", "pAA", "pSS", "pEE", "cAS", "cGE"):
            assert abs(getattr(exact, attr) - getattr(oracle, attr)) < 1e-6


def test_long_time_matches_asymptotic(rng):
    cs = random_coeffs(rng, bath=BathKind.ACCELERATED_VACUUM)
    state = random_xstate(rng)
    late = evolve(state, cs, 1e3)
    asym = asymptotic_state(cs)
    for attr in ("pGG", "pAA", "pSS", "pEE"):
        assert abs(getattr(late, attr) - getattr(asym, attr)) < 1e-8
    assert abs(late.cAS) < 1e-8 and abs(late.cGE) < 1e-8


def test_evolve_raises_where_the_stationary_mode_drifts():
    # eig returns the zero eigenvalue as roundoff (w0 = -5.4e-18 here), so
    # exp(w0 tau) drifts at a huge tau: the trace would read 0.583 at
    # tau = 1e17. At tau = 1e7 the drift is 5.4e-11, far below DRIFT_TOL
    def coeffs(a):
        return assemble(SystemParams(a_over_omega=a, omega_L=1.0, dipole1=AXES["z"],
                                     dipole2=AXES["z"], bath=BathKind.ACCELERATED_VACUUM))
    late = evolve(catalogue_state("E"), coeffs(1.0), 1e7)
    assert abs(late.trace - 1.0) < 1e-10
    with pytest.raises(ComputationError, match="drift"):
        evolve(catalogue_state("E"), coeffs(1.0), 1e17)
    # the roundoff grows with the rates (|M| like a^3 here). At the event horizon
    # a/omega = 30 drifts by about 2e-10 and still evolves; at a/omega = 1e5
    # the drift is about 0.7 and raises
    strong = evolve(catalogue_state("E"), coeffs(30.0), HORIZON_TAU)
    assert abs(strong.trace - 1.0) < 1e-8
    with pytest.raises(ComputationError, match="drift"):
        evolve(catalogue_state("E"), coeffs(1e5), HORIZON_TAU)


def test_evolve_raises_where_a_dead_channel_hides_the_drift():
    # z-z at omega_L = 1e-9: F rounds to g11, so the A ladder's rates are
    # exactly 0 and the generator has an exact zero eigenvalue besides the
    # live channel's roundoff one (+2.2e-18). The trace, not the least |w|,
    # shows the drift: 1.000218 at tau = 1e14 (within DRIFT_TOL), 1.244 at 1e17
    cs = assemble(SystemParams(a_over_omega=1.0, omega_L=1e-9, dipole1=AXES["z"],
                               dipole2=AXES["z"], bath=BathKind.THERMAL_AT_UNRUH))
    assert cs.A2 == cs.A1 and cs.B2 == cs.B1
    late = evolve(catalogue_state("E"), cs, 1e14)
    assert 1e-5 < abs(late.trace - 1.0) <= kernels.DRIFT_TOL
    with pytest.raises(ComputationError, match="drift"):
        evolve(catalogue_state("E"), cs, 1e17)


def test_asymptotic_equals_printed_closed_form(rng):
    for _ in range(25):
        cs = random_coeffs(rng)
        asym = asymptotic_state(cs)
        num = -(-cs.A1 ** 3 + cs.A1 * cs.A2 ** 2 + cs.A1 * cs.B1 ** 2 - cs.A1 * cs.B2 ** 2)
        den = 4.0 * (cs.A1 ** 3 - cs.A1 * cs.A2 ** 2 - cs.A2 * cs.B1 * cs.B2
                     + cs.A1 * cs.B2 ** 2)
        assert asym.pAA == pytest.approx(num / den, abs=1e-10)
        assert asym.pSS == pytest.approx(num / den, abs=1e-10)
        assert asym.cAS == 0.0 and asym.cGE == 0.0


def test_asymptotic_gibbs_product_state():
    for a in (0.5, 1.0, 2.0):
        asym = asymptotic_state(thermal_xy(a))
        x = np.pi / a
        gibbs_paa = 1.0 / (4.0 * np.cosh(x) ** 2)
        assert asym.pAA == pytest.approx(gibbs_paa, abs=1e-12)
        assert asym.pSS == pytest.approx(gibbs_paa, abs=1e-12)
        pe = np.exp(-x) / (2.0 * np.cosh(x))
        assert asym.pEE == pytest.approx(pe * pe, abs=1e-12)


def test_asymptotic_zero_acceleration_is_ground():
    asym = asymptotic_state(thermal_xy(1e-6))
    assert asym.pGG == pytest.approx(1.0, abs=1e-12)


def test_asymptotic_degenerate_generator():
    # A2 = A1 and B2 = B1 exactly: the A channel is dead, and every state
    # with pAA as a free weight is stationary
    cs = CoefficientSet(A1=0.5, B1=0.25, A2=0.5, B2=0.25)
    with pytest.raises(DegenerateGeneratorError):
        asymptotic_state(cs)


def _near_dead(eps):
    # the A channel's rates are of order eps; the stationary state tends to
    # (9, 3, 3, 1) / 16 as eps -> 0 and is unique for every eps > 0
    return CoefficientSet(A1=0.5, B1=0.25, A2=0.5 * (1.0 - eps), B2=0.25 * (1.0 - eps))


def test_asymptotic_state_matches_mpmath_solve():
    # every population, the smallest about 5e-28 at a/omega = 0.2, to 1e-12
    # relative against a 60-digit solve of the same generator; an SVD null
    # vector is off by up to 0.8% there
    cells = [assemble(SystemParams(a, 1.0, AXES[d1], AXES[d2], bath))
             for a in (0.2, 0.3) for d1, d2 in (("z", "z"), ("x", "y")) for bath in BathKind]
    with mp.workdps(60):
        for cs in cells + [_near_dead(1e-9), _near_dead(1e-12)]:
            G = mp_generator(build_generator(cs))
            for j in range(4):
                G[3, j] = 1
            want = mp.lu_solve(G, mp.matrix([0, 0, 0, 1]))
            got = asymptotic_state(cs).populations()
            for m in range(4):
                assert abs(got[m] - want[m]) <= 1e-12 * abs(want[m]), (cs, m)


@pytest.mark.filterwarnings("error")
def test_asymptotic_state_at_huge_rates():
    # rates of order 1e119 at a/omega = 1e40: their cubes would overflow,
    # the weights are formed in units of the largest rate. The Unruh
    # temperature is then effectively infinite: every level at 1/4
    cs = assemble(SystemParams(1e40, 1.0, AXES["z"], AXES["z"], BathKind.ACCELERATED_VACUUM))
    assert build_generator(cs).max() > 1e118
    np.testing.assert_allclose(asymptotic_state(cs).populations(), 0.25, rtol=1e-12)


def test_asymptotic_near_dead_channel_is_unique():
    for eps in (1e-9, 1e-12):
        got = asymptotic_state(_near_dead(eps)).populations()
        np.testing.assert_allclose(got, [0.5625, 0.1875, 0.1875, 0.0625], rtol=1e-8)
    with pytest.raises(DegenerateGeneratorError):
        asymptotic_state(_near_dead(0.0))


def test_basis_transform_catalogue():
    rho_a = basis_transform(catalogue_state("A"))
    assert rho_a[1, 1] == pytest.approx(0.5)
    assert rho_a[2, 2] == pytest.approx(0.5)
    assert rho_a[1, 2] == pytest.approx(-0.5)
    assert rho_a[2, 1] == pytest.approx(-0.5)
    rho_g = basis_transform(catalogue_state("G"))
    assert np.allclose(rho_g, np.diag([1.0, 0.0, 0.0, 0.0]))
    corner = basis_transform(XState(0.5, 0.0, 0.0, 0.5, cGE=0.5))
    assert corner[0, 3] == 0.5 and corner[3, 0] == 0.5


def test_basis_transform_preserves_x_structure(rng):
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 1] = mask[0, 2] = mask[1, 0] = mask[2, 0] = True
    mask[1, 3] = mask[2, 3] = mask[3, 1] = mask[3, 2] = True
    for _ in range(20):
        state = evolve(random_xstate(rng), random_coeffs(rng), rng.uniform(0.0, 5.0))
        rho = basis_transform(state)
        assert np.abs(rho[mask]).max() < 1e-14
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.abs(rho - rho.conj().T).max() == 0.0


def test_expm_fallback_matches_scipy(rng):
    # the columns of exp(M tau) are the populations from the four levels
    for _ in range(10):
        M = build_generator(random_coeffs(rng))
        tau = rng.uniform(0.0, 5.0)
        E = kernels.pops_at(np.broadcast_to(M, (4, 4, 4)), np.eye(4), np.full((4, 1), tau))
        assert np.allclose(E[:, 0].T, scipy_expm(M * tau), atol=1e-13)


def test_expm_path_matches_eigendecomposition(rng):
    cs = random_coeffs(rng)
    M = build_generator(cs)
    w, V, Vinv, _ = kernels.eig_decompose(M)
    p0 = random_xstate(rng).populations()
    c = Vinv @ p0.astype(np.complex128)
    taus = (0.3, 2.0, 11.0)
    via_expm = kernels.pops_at(M[None], p0[None], np.array([taus]))[0]
    for tau, pops in zip(taus, via_expm):
        via_eig = (V @ (c * np.exp(w * tau))).real
        assert np.abs(via_eig - pops).max() < 1e-12


def test_expm_fallback_matches_mpmath():
    # every population to 1e-12 relative against a 50-digit expm, on the two
    # rows the eig path refuses, the defective A1 = B1 = A2 = B2 and
    # a/omega = 0.05 at omega L = 1e-6 (z-z, cond 7.8e13; its upward rates
    # are exactly 0, so pEE from psi1 stays exactly 0), and on a nearly dead
    # channel
    rows = [CoefficientSet(0.25, 0.25, 0.25, 0.25),
            assemble(SystemParams(0.05, 1e-6, AXES["z"], AXES["z"], BathKind.ACCELERATED_VACUUM)),
            _near_dead(1e-9)]
    M = np.array([build_generator(cs) for cs in rows])
    assert all(kernels.eig_decompose(m)[-1] > kernels.COND_LIMIT for m in M[:2])
    taus = np.array([1e-7, 1e-3, 1.0, 50.0])
    for state in (catalogue_state("E"), catalogue_state("psi1", 0.25)):
        p0 = np.broadcast_to(state.populations(), (len(rows), 4))
        got = kernels.pops_at(M, p0, np.broadcast_to(taus, (len(rows), taus.size)))
        with mp.workdps(50):
            for k in range(len(rows)):
                G = mp_generator(M[k])
                for s, tau in enumerate(taus):
                    # a block is bitwise its one-sample calls
                    one = kernels.pops_at(M[k:k + 1], p0[k:k + 1], np.array([[tau]]))
                    assert np.array_equal(one[0, 0], got[k, s])
                    want = mp.expm(G * mp.mpf(float(tau))) * mp.matrix(p0[k].tolist())
                    for m in range(4):
                        assert abs(got[k, s, m] - want[m]) <= 1e-12 * abs(want[m]), (k, tau, m)



def test_evolve_is_one_row_of_the_stack(rng):
    # evolve takes its populations from the kernel that samples trajectories,
    # on the eig path and on the expm fallback alike
    taus = np.linspace(0.0, 6.0, 13)
    state = random_xstate(rng)
    for cs in (random_coeffs(rng), CoefficientSet(0.25, 0.25, 0.25, 0.25)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # the fallback warns
            traj = compute_trajectory(state, cs, taus)
            evolved = [evolve(state, cs, float(tau)).populations() for tau in taus]
        np.testing.assert_array_equal(evolved, traj.populations)
        np.testing.assert_array_equal(evolved[0], state.populations())


def test_fallback_warns_and_stays_exact():
    # A1 = B1 = A2 = B2: the generator is defective (cond ~ 1e16), so the
    # expm fallback runs; a fresh coefficient set per call, no caching
    def cs():
        return CoefficientSet(A1=0.25, B1=0.25, A2=0.25, B2=0.25)

    state = catalogue_state("psi1", 0.3)
    taus = np.linspace(0.0, 4.0, 9)
    M = build_generator(cs())
    _, _, _, cond = kernels.eig_decompose(M)
    assert cond > kernels.COND_LIMIT
    for tau in taus[1:]:
        with pytest.warns(RuntimeWarning, match="matrix-exponential fallback"):
            out = evolve(state, cs(), float(tau))
        want = scipy_expm(M * tau) @ state.populations()
        assert np.abs(out.populations() - want).max() < 1e-12
    with pytest.warns(RuntimeWarning, match="matrix-exponential fallback"):
        traj = compute_trajectory(state, cs(), taus)
    want = np.array([scipy_expm(M * tau) @ state.populations() for tau in taus])
    assert np.abs(traj.populations - want).max() < 1e-12


def test_fallback_keeps_an_absorbing_level_at_huge_tau():
    # with no upward rates the ground level absorbs everything. The shifted
    # series rounds each column sum of exp(M h) away from 1, and 2^j
    # squarings would raise that to a trace of 1.28 at tau = 1e14
    z = AXES["z"]
    for cs in (CoefficientSet(0.25, 0.25, 0.25, 0.25),
               assemble(SystemParams(0.05, 1e-6, z, z, BathKind.ACCELERATED_VACUUM))):
        with pytest.warns(RuntimeWarning, match="matrix-exponential fallback"):
            for tau in (1e8, 1e14, 1e17):
                out = evolve(catalogue_state("E"), cs, tau)
                assert abs(out.pGG - 1.0) < 1e-12 and abs(out.trace - 1.0) < 1e-12


def test_negative_eig_populations_are_evaluated_again_on_the_fallback():
    # |E> at a/omega = 0.3, omega_L = 1e-4, z-z: the eig path (cond 7.1e4)
    # gives pGG down to -7e-12 for tau below 1e-6, where the clamped
    # concurrence finds the state not positive; the row is evaluated again
    # by pops_at, whose populations are nonnegative
    z = AXES["z"]
    taus = np.concatenate([np.linspace(0.0, 2e-6, 201), HORIZON[1:]])
    for bath in BathKind:
        cs = assemble(SystemParams(0.3, 1e-4, z, z, bath))
        traj = compute_trajectory(catalogue_state("E"), cs, taus)
        assert not traj.stack.use_expm[0] and traj.stack.cond[0] < 1e5
        assert traj.populations.min() >= 0.0
        M = build_generator(cs)
        want = np.array([scipy_expm(M * tau)[:, 3] for tau in taus])
        np.testing.assert_allclose(traj.populations, want, rtol=0.0, atol=1e-9)
        events = detect_events(compute_trajectory(catalogue_state("E"), cs, HORIZON))
        assert events.death_time is None and events.max_concurrence == 0.0


def test_evolve_takes_the_retry_of_a_one_sample_call():
    # the thin cell of the test above, sample by sample: evolve is unclamped,
    # yet it takes the row again on the fallback exactly where the clamped
    # one-sample trajectory call does, so the state it returns is positive
    z = AXES["z"]
    for bath in BathKind:
        cs = assemble(SystemParams(0.3, 1e-4, z, z, bath))
        stack = _one_row_stack(catalogue_state("E"), cs)
        for tau in np.linspace(0.0, 2e-6, 201)[1:]:
            state = evolve(catalogue_state("E"), cs, float(tau))
            pops, C = kernels.trajectory_kernel(stack, np.arange(1), np.array([tau]))
            assert state.populations().min() >= 0.0
            np.testing.assert_array_equal(state.populations(), pops[0, 0])
            assert concurrence_x(state) == C[0, 0]


def test_fallback_beyond_float_range_raises():
    # at tau = 1e308 the norm of M tau is inf, which no scaling by halves
    # brings down; the call runs in a child process, so that a loop that
    # never ends fails on the timeout instead of hanging the suite
    src = Path(atompair.__file__).resolve().parents[1]
    probe = ("import warnings\n"
             "from atompair import CoefficientSet, ComputationError, catalogue_state, evolve\n"
             "warnings.simplefilter('ignore', RuntimeWarning)   # the fallback warns\n"
             "try:\n"
             "    evolve(catalogue_state('E'), CoefficientSet(0.25, 0.25, 0.25, 0.25), 1e308)\n"
             "except ComputationError as exc:\n"
             "    print('ComputationError:', exc)\n")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=30)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("ComputationError:")
