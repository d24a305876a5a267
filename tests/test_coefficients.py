import warnings

import numpy as np
import pytest

from atompair import (BathKind, CoefficientSet, DipoleOrientation, DomainError,
                      SystemParams, assemble)
from atompair import kernels
from atompair.kernels import coth_kernel, f11_kernel
from conftest import AXES, random_params
import oracles


def make_params(a, L, d1="z", d2="z", bath=BathKind.ACCELERATED_VACUUM):
    return SystemParams(a_over_omega=a, omega_L=L,
                        dipole1=AXES[d1], dipole2=AXES[d2], bath=bath)


def test_coth_stable_values():
    assert coth_kernel(20.0) == pytest.approx(1.0 + 2.0 * np.exp(-40.0), rel=1e-15)
    assert coth_kernel(1.0) == pytest.approx(1.3130352854993313, abs=1e-12)
    assert coth_kernel(1e-8) == pytest.approx(1e8, rel=1e-9)


def _branch_edges():
    """(a, L) values straddling a = 0, the least normal a (below it the
    static shapes), SMALL_R and SERIES_Q_MAX, and the former small-a switch
    at a = 1e-4."""
    tiny, small_r = np.finfo(float).tiny, kernels.SMALL_R
    q_edge = kernels.SERIES_Q_MAX / 2.5e-3
    a_values = [0.0, np.finfo(float).smallest_subnormal, np.nextafter(tiny, 0.0), tiny,
                np.nextafter(tiny, 1.0), 1e-300, 1e-9, 0.5e-4, np.nextafter(1e-4, 0.0), 1e-4,
                np.nextafter(1e-4, 1.0), 1e-3, 0.3, 1.0, 2.7, 40.0,
                np.nextafter(q_edge, 0.0), q_edge, np.nextafter(q_edge, np.inf), 1e3]
    L_values = [1e-5, 1e-3, 2.5e-3, np.nextafter(small_r, 0.0), small_r,
                np.nextafter(small_r, 1.0), 0.05, 1.0, 3.3, 25.0]
    return a_values, L_values


def test_array_kernel_matches_scalar_reference():
    """Array assemble_kernel is bitwise the scalar reference on every
    element, on a grid straddling a = 0, the least normal a, SMALL_R and
    SERIES_Q_MAX.
    The atom order 21 is the swapped pair in the order 12, so the axis pairs
    in both orders cover it."""
    a_values, L_values = _branch_edges()
    rng = np.random.default_rng(5)
    a_values += list(10.0 ** rng.uniform(-4.0, 3.0, 16))
    L_values += list(10.0 ** rng.uniform(-5.0, 1.5, 16))
    a, L = (g.ravel() for g in np.meshgrid(a_values, L_values))
    dipoles = [(AXES[d1], AXES[d2]) for d1 in "xyz" for d2 in "xyz"]
    dipoles += [(DipoleOrientation.normalized(rng.normal(size=3)),
                 DipoleOrientation.normalized(rng.normal(size=3))) for _ in range(3)]
    for d1, d2 in dipoles:
        for thermal in (False, True):
            args = (d1.as_array(), d2.as_array(), thermal)
            got = np.array(kernels.assemble_kernel(a, L, *args)).T
            want = np.array([oracles.assemble_kernel(ak, Lk, *args)
                             for ak, Lk in zip(a.tolist(), L.tolist())])
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_dipole_validation():
    with pytest.raises(DomainError):
        DipoleOrientation((1.0, 1.0, 0.0))
    d = DipoleOrientation.normalized([1.0, 1.0, 0.0])
    assert np.isclose(np.dot(d.as_array(), d.as_array()), 1.0, atol=1e-15)
    # |d|^2 of these overflows or underflows unless the vector is scaled first
    half = np.sqrt(0.5)
    for vec, want in (([1e200, 1e200, 0.0], [half, half, 0.0]),
                      ([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0]),
                      ([1e-160, 0.0, 0.0], [1.0, 0.0, 0.0]),
                      ([0.0, -3e-170, 4e-170], [0.0, -0.6, 0.8])):
        d = DipoleOrientation.normalized(vec)
        assert np.allclose(d.as_array(), want, rtol=0.0, atol=1e-15), vec
    with pytest.raises(DomainError):
        DipoleOrientation.normalized([0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        DipoleOrientation((float("nan"), 0.0, 0.0))
    for vec in ([float("inf"), 0.0, 0.0], [float("nan"), 1.0, 0.0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # rejected before any division
            with pytest.raises(DomainError, match="finite"):
                DipoleOrientation.normalized(vec)
    with pytest.raises(DomainError):
        DipoleOrientation.from_axis("w")


def test_system_params_validation():
    with pytest.raises(DomainError):
        make_params(-0.1, 1.0)
    with pytest.raises(DomainError):
        make_params(1.0, 0.0)
    for a, L in ((float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0)):
        with pytest.raises(DomainError, match="finite"):
            make_params(a, L)


def test_coefficient_set_ordering():
    with pytest.raises(DomainError):
        CoefficientSet(A1=0.2, B1=0.25, A2=0.0, B2=0.0)
    with pytest.raises(DomainError):
        CoefficientSet(A1=0.25, B1=0.0, A2=0.0, B2=0.0)
    # what assemble returns at a/omega = 1e300 and at omega*L = 1e300
    inf, nan = float("inf"), float("nan")
    for values in ((inf, inf, nan, nan), (0.25, 0.25, nan, nan)):
        with pytest.raises(DomainError, match="finite"):
            CoefficientSet(*values)


def test_limit_small_acceleration_large_separation():
    cs = assemble(make_params(1e-8, 1e4))
    assert cs.A1 == pytest.approx(0.25, abs=1e-3)
    assert cs.B1 == pytest.approx(0.25, abs=1e-3)
    assert abs(cs.A2) < 1e-4
    assert abs(cs.B2) < 1e-4


def test_orthogonal_dipoles_kill_cross_terms():
    for bath in BathKind:
        cs = assemble(make_params(1.3, 0.8, "x", "y", bath))
        assert cs.A2 == 0.0
        assert cs.B2 == 0.0


def test_crossed_dipole_order_flips_sign():
    zx = assemble(make_params(1.0, 1.0, "z", "x"))
    xz = assemble(make_params(1.0, 1.0, "x", "z"))
    assert zx.A2 == pytest.approx(-xz.A2, rel=1e-14)
    assert zx.B2 == pytest.approx(-xz.B2, rel=1e-14)
    assert zx.A2 != 0.0


def test_order21_is_the_swapped_pair():
    """Atoms in the order 21 are the swapped polarization pair in the order
    12: equal for axis dipoles (a zero cross term may flip its sign), to
    roundoff for unit vectors, whose contraction multiplies the components
    in another order."""
    def coeffs(d1, d2, bath, a, L, order):
        cs = assemble(SystemParams(a_over_omega=a, omega_L=L, dipole1=d1, dipole2=d2,
                                   bath=bath), order)
        return np.array([cs.A1, cs.B1, cs.A2, cs.B2])

    rng = np.random.default_rng(11)
    pairs = [(AXES[d1], AXES[d2], 0.0) for d1 in "xyz" for d2 in "xyz"]
    pairs += [(DipoleOrientation.normalized(rng.normal(size=3)),
               DipoleOrientation.normalized(rng.normal(size=3)), 1e-15) for _ in range(3)]
    a_values, L_values = _branch_edges()
    for d1, d2, tol in pairs:
        for bath in BathKind:
            for a in a_values:
                for L in L_values:
                    got = coeffs(d1, d2, bath, a, L, 21)
                    want = coeffs(d2, d1, bath, a, L, 12)
                    if tol == 0.0:
                        assert np.array_equal(got, want)
                    else:
                        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def test_thermal_ratio_is_f11():
    for a in (0.3, 1.0, 2.5):
        acc = assemble(make_params(a, 1.2))
        th = assemble(make_params(a, 1.2, bath=BathKind.THERMAL_AT_UNRUH))
        assert th.A1 == pytest.approx(acc.A1 / f11_kernel(a), rel=1e-13)
        assert th.B1 == pytest.approx(acc.B1 / f11_kernel(a), rel=1e-13)


def test_modes_converge_at_small_acceleration():
    # dipole pairs touching only the diagonal shapes converge at O(a^2);
    # the crossed pair picks up the O(a) skew component, so its gap closes
    # linearly (~ a L / 4) instead
    for L in (0.4, 1.0, 3.0):
        for d1, d2 in (("z", "z"), ("y", "y"), ("x", "x")):
            acc = assemble(make_params(1e-4, L, d1, d2))
            th = assemble(make_params(1e-4, L, d1, d2, BathKind.THERMAL_AT_UNRUH))
            diff = max(abs(acc.A1 - th.A1), abs(acc.B1 - th.B1),
                       abs(acc.A2 - th.A2), abs(acc.B2 - th.B2))
            assert diff < 1e-6
        acc = assemble(make_params(1e-4, L, "z", "x"))
        th = assemble(make_params(1e-4, L, "z", "x", BathKind.THERMAL_AT_UNRUH))
        assert abs(acc.A2 - th.A2) < 1e-4 * L
        assert abs(acc.A1 - th.A1) < 1e-6


def test_zero_acceleration():
    cs = assemble(make_params(0.0, 1.0))
    assert cs.A1 == cs.B1 == 0.25
    th = assemble(make_params(0.0, 1.0, bath=BathKind.THERMAL_AT_UNRUH))
    assert th.A1 == th.B1 == 0.25
    assert cs.A2 == pytest.approx(th.A2, abs=1e-15)


def test_relabeling_symmetry(rng):
    # dipole1 <-> dipole2 together with atom order 12 <-> 21 changes nothing
    # (up to the reordered multiplication chain's roundoff)
    for _ in range(20):
        params = random_params(rng)
        swapped = SystemParams(
            a_over_omega=params.a_over_omega, omega_L=params.omega_L,
            dipole1=params.dipole2, dipole2=params.dipole1, bath=params.bath)
        cs = assemble(params, 12)
        sw = assemble(swapped, 21)
        assert cs.A1 == sw.A1 and cs.B1 == sw.B1
        assert cs.A2 == pytest.approx(sw.A2, rel=1e-13, abs=1e-15)
        assert cs.B2 == pytest.approx(sw.B2, rel=1e-13, abs=1e-15)


def test_positivity_bound_over_sweep():
    # |A2| <= A1 and |B2| <= B1 over the swept box (empirical invariant)
    for bath in BathKind:
        for a in np.linspace(0.0, 3.0, 13):
            for L in np.linspace(0.05, 5.0, 21):
                for d1, d2 in (("z", "z"), ("y", "y"), ("x", "x"), ("z", "x")):
                    cs = assemble(make_params(float(a), float(L), d1, d2, bath))
                    assert abs(cs.A2) <= cs.A1 + 1e-15
                    assert abs(cs.B2) <= cs.B1 + 1e-15


def test_invalid_atom_order():
    with pytest.raises(DomainError):
        assemble(make_params(1.0, 1.0), atom_order=21.5)
