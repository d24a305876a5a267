import numpy as np
import pytest

from atompair import (BathKind, DomainError, InvalidStateError, SystemParams,
                      XState, assemble, catalogue_state, compute_trajectory,
                      concurrence_wootters, concurrence_x, detect_events, kernels)
from atompair.sweeps import time_grid
from conftest import AXES, random_coeffs, random_xstate
from oracles import basis_transform

VACUUM_PARAMS = dict(dipole1=AXES["z"], dipole2=AXES["z"])


def coeffs_at(a, L, bath=BathKind.ACCELERATED_VACUUM, d1="z", d2="z"):
    return assemble(SystemParams(a_over_omega=a, omega_L=L, dipole1=AXES[d1],
                                 dipole2=AXES[d2], bath=bath))


def test_concurrence_bell_states():
    assert concurrence_x(catalogue_state("A")) == 1.0
    assert concurrence_x(catalogue_state("S")) == 1.0
    assert concurrence_x(catalogue_state("G")) == 0.0
    assert concurrence_x(catalogue_state("E")) == 0.0


def test_concurrence_maximally_mixed():
    mixed = XState(0.25, 0.25, 0.25, 0.25)
    assert concurrence_x(mixed) == 0.0


def test_concurrence_psi2_value():
    state = catalogue_state("psi2", 0.8)  # pGG=4/5, pEE=1/5, cGE=2/5
    assert concurrence_x(state) == pytest.approx(0.8, abs=1e-12)


def test_concurrence_psi1_value():
    assert concurrence_x(catalogue_state("psi1", 0.25)) == pytest.approx(0.5, abs=1e-12)


def test_concurrence_invalid_state_raises():
    bad = XState(-1e-4, 0.5, 0.49, 0.0101)  # pGG*pEE well below the -1e-12 slack
    with pytest.raises(InvalidStateError):
        concurrence_x(bad)
    # within slack: clamped instead of raised
    assert concurrence_x(XState(-1e-13, 0.5, 0.5, 1e-13)) >= 0.0


def test_concurrence_kernel_is_elementwise(rng):
    # one formula for a single state and for arrays of samples: each element
    # of an array call is the call on that element alone
    def components(state):
        return [state.pGG, state.pAA, state.pSS, state.pEE,
                state.cAS.real, state.cAS.imag, state.cGE.real, state.cGE.imag]

    valid = [components(random_xstate(rng)) for _ in range(40)]
    valid.append(components(XState(-1e-13, 0.5, 0.5, 1e-13)))   # within the slack
    valid.append([np.nan] * 8)
    anything = rng.uniform(-0.5, 1.0, size=(40, 8))   # negative radicands too
    for comps, clamp in ((valid, True), (valid, False), (anything, False)):
        comps = np.array(comps).T
        single = [kernels.concurrence_kernel(*column, clamp=clamp) for column in comps.T]
        np.testing.assert_array_equal(kernels.concurrence_kernel(*comps, clamp=clamp), single)
    bad = np.array(valid[:-1]).T
    bad[[0, 3], 17] = [-1e-4, 0.5]   # pGG*pEE below the slack at one sample
    with pytest.raises(ValueError, match="radicand"):
        kernels.concurrence_kernel(*bad)


def test_concurrence_in_unit_interval(rng):
    for _ in range(200):
        c = concurrence_x(random_xstate(rng))
        assert 0.0 <= c <= 1.0


def test_wootters_examples():
    assert concurrence_wootters(basis_transform(catalogue_state("A"))) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_wootters(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)) == 0.0


def test_wootters_rejects_bad_matrices():
    with pytest.raises(InvalidStateError):
        concurrence_wootters(np.eye(3))
    with pytest.raises(InvalidStateError):
        concurrence_wootters(np.diag([0.7, 0.1, 0.1, 0.2]))  # trace 1.1
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    rho[0, 1] = 0.2
    with pytest.raises(InvalidStateError):
        concurrence_wootters(rho)  # not hermitian
    with pytest.raises(InvalidStateError):
        concurrence_wootters(np.full((4, 4), np.nan))   # NaN fails every check


def test_wootters_converges_on_tiny_coherence():
    # a valid X state on which the general eigensolver of rho * rho_tilde
    # did not converge (LinAlgError); the GE coherence is 1.1e-50
    rho = np.diag([0.93331946048232806, 0.032765142687769838,
                   0.032765142687769838, 0.0011502541421295526])
    rho[0, 3] = rho[3, 0] = 1.1080457301151020e-50
    rho[1, 2] = rho[2, 1] = -3.4694469519536142e-18
    assert concurrence_wootters(rho) == 0.0


def test_wootters_matches_x_form(rng):
    for _ in range(1000):
        state = random_xstate(rng)
        direct = concurrence_x(state)
        oracle = concurrence_wootters(basis_transform(state))
        assert abs(direct - oracle) < 1e-10


def test_trajectory_requires_sane_grid():
    cs = coeffs_at(1.0, 1.0)
    state = catalogue_state("A")
    with pytest.raises(DomainError):
        compute_trajectory(state, cs, np.array([]))
    with pytest.raises(DomainError):
        compute_trajectory(state, cs, np.array([0.5, 1.0]))
    with pytest.raises(DomainError):
        compute_trajectory(state, cs, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(DomainError):
        compute_trajectory(state, cs, np.array([0.0, np.nan, 2.0]))
    with pytest.raises(DomainError):
        compute_trajectory(state, cs, np.array([0.0, 1.0, np.inf]))
    with pytest.raises(DomainError):
        compute_trajectory(state, cs, 1.0)   # a scalar, not a grid


def test_detect_events_decaying_bell_state():
    cs = coeffs_at(1.0, 1.0)
    taus = time_grid(50.0, 400)
    traj = compute_trajectory(catalogue_state("A"), cs, taus)
    events = detect_events(traj)
    assert events.death_time is not None
    assert not events.revival
    assert events.max_concurrence == pytest.approx(1.0, abs=1e-12)
    assert events.max_time == 0.0


def test_detect_events_reuses_the_trajectory_decomposition(monkeypatch):
    # the samples and the refinement of a trajectory share one preparation
    original = kernels.eig_decompose
    seen = []

    def counting(M):
        seen.append(1)
        return original(M)

    monkeypatch.setattr(kernels, "eig_decompose", counting)
    traj = compute_trajectory(catalogue_state("psi1", 0.25), coeffs_at(0.5, 1.0),
                              time_grid(50.0, 400))
    events = detect_events(traj)
    assert sum(seen) == 1
    assert events.revival


def test_detect_events_revival_and_enhancement():
    # the two regimes of the superposed Bell-type initial states
    taus = time_grid(50.0, 400)
    for bath in BathKind:
        cs = coeffs_at(0.5, 1.0, bath)
        revive = detect_events(compute_trajectory(catalogue_state("psi1", 0.25), cs, taus))
        assert revive.revival
        assert revive.death_time is not None
        assert revive.birth_time is not None
        assert revive.birth_time > revive.death_time
        assert revive.revival_amplitude > 0.1
        enhance = detect_events(compute_trajectory(catalogue_state("psi1", 0.75), cs, taus))
        assert enhance.enhancement
        assert enhance.max_concurrence > 0.5 + 1e-3
        assert enhance.max_time > 0.0


def test_detect_events_delayed_birth():
    cs = coeffs_at(1.0, 2.0 / 3.0, d1="y", d2="y")
    taus = time_grid(50.0, 400)
    events = detect_events(compute_trajectory(catalogue_state("E"), cs, taus))
    assert events.birth_time is not None
    assert events.death_time is not None
    assert events.death_time > events.birth_time  # generated then lost
    assert not events.revival
    assert events.max_concurrence > 0.01


def test_asymptotic_state_is_separable(rng):
    from atompair import asymptotic_state
    for _ in range(40):
        cs = random_coeffs(rng)
        assert concurrence_x(asymptotic_state(cs)) == 0.0


def test_initial_decay_slope_large_separation():
    # large-separation decay rate of the Bell-type states at tau = 0
    h = 1e-6
    for a in (0.25, 1.0, 2.0):
        for bath, shape in ((BathKind.ACCELERATED_VACUUM, 1.0 + a * a),
                            (BathKind.THERMAL_AT_UNRUH, 1.0)):
            cs = coeffs_at(a, 1e4, bath)
            for name in ("S", "A"):
                traj = compute_trajectory(catalogue_state(name), cs,
                                          np.array([0.0, h]))
                slope = (traj.concurrence[0] - traj.concurrence[1]) / h
                expected = shape / np.tanh(np.pi / (2.0 * a))
                assert slope == pytest.approx(expected, rel=1e-3)


def test_accelerated_and_static_pairs_agree_only_at_small_a():
    # the abstract's claim, quantified: the largest concurrence gap over
    # tau <= 20 of psi1(1/4) falls like a^2 for parallel dipoles and only
    # like a for crossed ones, whose skew shape f13 ~ -a L the static bath
    # lacks. The per-decade log-log slopes over a/omega = 1e-3..1e-1
    taus = np.linspace(0.0, 20.0, 2001)
    state = catalogue_state("psi1", 0.25)

    def gap(a, L, d1, d2):
        C = [compute_trajectory(state, coeffs_at(a, L, bath, d1, d2), taus).concurrence
             for bath in BathKind]
        return np.abs(C[0] - C[1]).max()

    for L in (0.5, 2.0):
        for d1, d2, order in (("z", "z", 2.0), ("y", "y", 2.0), ("x", "z", 1.0)):
            gaps = [gap(a, L, d1, d2) for a in (1e-3, 1e-2, 1e-1)]
            slopes = np.log10(np.divide(gaps[1:], gaps[:-1]))
            assert np.all(np.abs(slopes - order) < 0.05), (L, d1, d2, slopes)
    # still linear in a at a/omega = 5e-5: the crossed gap is 8.9e-6 there
    assert gap(5e-5, 0.5, "x", "z") == pytest.approx(8.86e-6, rel=1e-2)
