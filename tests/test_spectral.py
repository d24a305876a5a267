import numpy as np
import pytest

import oracles
from atompair import BathKind, DomainError, SystemParams, assemble
from atompair.kernels import (SMALL_R, _f12_closed, _f12_series, assemble_kernel,
                              f11_kernel, f12_kernel, f12_thermal_kernel)
from conftest import AXES
from oracles import fourier_oracle, shape_tensor

NONZERO = [(1, 1), (2, 2), (3, 3), (1, 3), (3, 1)]
ALL_IJ = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]

# pinned by the Fourier oracle before the closed forms were trusted
F12_11_AT_111 = 0.7450479143237266
F12_13_AT_111 = -1.0077914973905044

# The kernels work in units of the transition frequency. At another
# frequency lam the shapes follow from the scaling law
# f(lam, a, L) = f(1, a / lam, lam L), exact in the closed forms and the
# series alike; the tests below reach their lam != 1 points through it.


def test_f11_values():
    assert f11_kernel(0.0) == 1.0
    assert f11_kernel(1.0) == 2.0
    assert f11_kernel(1.0 / 2.0) == 1.25      # lam = 2, a = 1


def test_f12_zero_components():
    # the components outside f11, f22, f33, f13 = -f31 are zero: a dipole
    # pair that meets only them has no cross-atom coefficients, in either bath
    for (i, j) in ALL_IJ:
        if (i, j) in NONZERO:
            continue
        d1, d2 = np.eye(3)[i - 1], np.eye(3)[j - 1]
        for thermal in (False, True):
            A1, B1, A2, B2 = assemble_kernel(0.7 / 1.3, 1.3 * 0.9, d1, d2, thermal)
            assert A2 == 0.0 and B2 == 0.0


def test_f12_small_a_matches_thermal_closed_form():
    # (1,1) example: at a -> 0 the closed form approaches (3/2) cos(1)
    expected = 1.5 * np.cos(1.0)
    assert abs(f12_kernel(1e-6, 1.0)[0] - expected) < 1e-6


def test_f12_pinned_values():
    f11, _, _, f13 = f12_kernel(1.0, 1.0)
    assert f11 == pytest.approx(F12_11_AT_111, abs=1e-12)
    assert f13 == pytest.approx(F12_13_AT_111, abs=1e-12)


def test_f12_antisymmetry_exact():
    # f31 = -f13 exactly: the contraction of the crossed pairs x-z and z-x
    # gives cross-atom coefficients of opposite sign
    x, z = np.eye(3)[0], np.eye(3)[2]
    for (lam, a, L) in [(1.0, 1.0, 1.0), (0.7, 2.2, 0.4), (2.5, 0.3, 3.0)]:
        xz = assemble_kernel(a / lam, lam * L, x, z, False)
        zx = assemble_kernel(a / lam, lam * L, z, x, False)
        assert zx[2] == -xz[2] and zx[3] == -xz[3]
        assert xz[2] != 0.0


def test_f12_atom_order_flips_skew_only():
    # the order 21 is the swapped dipole pair: it flips the skew term of a
    # crossed pair and leaves the diagonal terms as they are
    for d1, d2 in (("x", "x"), ("y", "y"), ("z", "z"), ("x", "z"), ("z", "x")):
        params = SystemParams(0.8, 1.3, AXES[d1], AXES[d2], BathKind.ACCELERATED_VACUUM)
        cs12, cs21 = assemble(params, 12), assemble(params, 21)
        sign = 1.0 if d1 == d2 else -1.0
        assert cs21.A1 == cs12.A1 and cs21.B1 == cs12.B1
        assert cs21.A2 == sign * cs12.A2 and cs21.B2 == sign * cs12.B2
        assert cs12.A2 != 0.0


def test_thermal_small_separation_limits():
    # Taylor limits at L -> 0: every diagonal tends to the coincidence value 1
    f11, f22, f33, f13 = f12_thermal_kernel(1e-9)
    assert f11 == pytest.approx(1.0, abs=1e-12)
    assert f22 == pytest.approx(1.0, abs=1e-12)
    assert f33 == pytest.approx(1.0, abs=1e-12)
    assert f13 == 0.0


def test_small_a_agreement_with_thermal_grid():
    # the diagonal shapes converge at O(a^2): < 1e-6 at a = 1e-4 over the box;
    # the skew f13 component vanishes only at O(a) and is tested below.
    # f12_kernel takes the closed form at every point (lam L >= 0.05 > SMALL_R)
    for lam in (0.5, 1.0, 2.0, 4.0):
        for L in (0.1, 0.5, 1.0, 2.0, 5.0):
            acc = f12_kernel(1e-4 / lam, lam * L)
            static = f12_thermal_kernel(lam * L)
            for k in range(3):
                diff = abs(acc[k] - static[k])
                assert diff < 1e-6, (k, lam, L, diff)


def test_skew_component_vanishes_linearly_in_a():
    # f_13 = -a L (1 + a^2/lam^2) + O(a L^3): linear in a, zero in the static
    # shape; at a = 1e-4, 2e-4 and lam L >= 0.05 > SMALL_R, f12_kernel takes
    # the closed form
    for lam in (0.5, 1.0, 4.0):
        for L in (0.1, 1.0, 5.0):
            assert f12_thermal_kernel(lam * L)[3] == 0.0
            v1 = f12_kernel(2e-4 / lam, lam * L)[3]
            v2 = f12_kernel(1e-4 / lam, lam * L)[3]
            assert abs(v2) < 3.0 * 1e-4 * L
            assert v1 / v2 == pytest.approx(2.0, rel=1e-3)
    assert f12_kernel(1e-4, 1.0)[3] == _f12_closed(1e-4, 1.0)[3]
    # down to the least normal a, where 2 / a is still finite; below it the
    # closed form is NaN (f12_kernel evaluates every branch) and f12_kernel
    # returns the static shapes
    assert f12_kernel(1e-300, 1.0)[3] == pytest.approx(-1e-300, rel=1e-12)
    with np.errstate(invalid="ignore"):
        assert np.isnan(_f12_closed(1e-310, 1.0)[3])
        assert f12_kernel(1e-310, 1.0) == tuple(f12_thermal_kernel(1.0))


def test_large_separation_decay():
    for a in (0.25, 1.0, 2.0):
        for L in (1.001e3, 2.5e3):
            for f in f12_kernel(a, L):
                assert abs(f) < 1e-3


def test_series_switch_continuity():
    # left/right evaluations at the small-L switch radius agree to 1e-9;
    # away from the production point the shapes grow like 1 + a^2/lam^2, so
    # the tolerance is read relative to that scale
    for lam in (0.5, 1.0, 2.5):
        for a in (0.3, 1.0, 2.5):
            scale = max(1.0, 1.0 + a * a / (lam * lam))
            L_switch = SMALL_R / lam
            series = _f12_series(a / lam, lam * L_switch)
            closed = _f12_closed(a / lam, lam * L_switch)
            for k in range(4):
                assert abs(series[k] - closed[k]) < 1e-9 * scale, (k, lam, a)
            below = f12_kernel(a / lam, lam * ((SMALL_R - 1e-9) / lam))[0]
            above = f12_kernel(a / lam, lam * ((SMALL_R + 1e-9) / lam))[0]
            assert abs(below - above) < 1e-9 * scale


def test_thermal_series_switch_continuity():
    for lam in (0.5, 1.0, 2.5):
        for k in (0, 2):
            below = f12_thermal_kernel(lam * ((SMALL_R - 1e-9) / lam))[k]
            above = f12_thermal_kernel(lam * ((SMALL_R + 1e-9) / lam))[k]
            assert abs(below - above) < 1e-9


def test_scaling_law_matches_scalar_reference():
    """The shapes at (a / lam, lam L) are the scalar reference's shapes at
    the frequency lam, to roundoff, in the series, the closed forms and the
    static shapes."""
    for lam in (0.5, 2.5, 4.0):
        for a in (0.3, 1.0, 2.5):
            for L in (1e-4 / lam, 1e-3 / lam, 0.4, 3.0):
                for f, ref in ((_f12_series, oracles._f12_series),
                               (_f12_closed, oracles._f12_closed)):
                    got = shape_tensor(*f(a / lam, lam * L))
                    for (i, j) in ((1, 1), (2, 2), (3, 3), (1, 3)):
                        want = ref(i, j, lam, a, L)
                        assert got[i - 1, j - 1] == pytest.approx(want, rel=1e-12, abs=1e-15)
                static = shape_tensor(*f12_thermal_kernel(lam * L))
                for (i, j) in ALL_IJ:
                    want = oracles.f12_thermal_kernel(i, j, lam, L)
                    assert static[i - 1, j - 1] == pytest.approx(want, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# numeric Fourier-transform oracle

def test_oracle_same_atom_diagonal():
    assert fourier_oracle(1, 1, 1.0, 1.0, same_atom=True) == pytest.approx(2.0, abs=1e-4)
    assert fourier_oracle(2, 2, 2.0, 1.0, same_atom=True) == pytest.approx(1.25, abs=1e-4)


def test_oracle_same_atom_off_diagonal_zero():
    assert fourier_oracle(1, 2, 1.0, 1.0, same_atom=True) == 0.0


def test_oracle_cross_zero_component():
    assert abs(fourier_oracle(1, 2, 1.0, 1.0, 1.0)) < 1e-6


def test_oracle_cross_skew():
    got = fourier_oracle(1, 3, 1.0, 1.0, 1.0)
    want = f12_kernel(1.0, 1.0)[3]
    assert abs(got - want) < 1e-4
    swapped = fourier_oracle(1, 3, 1.0, 1.0, 1.0, atom_order=21)
    assert abs(swapped + want) < 1e-4


def test_oracle_small_a_skew():
    # the skew component at small a, where the static bath has none: the
    # numeric Fourier transform down to a = 1e-3, and linear in a below
    for L in (0.5, 2.0):
        for a in (1e-3, 1e-2):
            got = f12_kernel(a, L)[3]
            assert got == pytest.approx(fourier_oracle(1, 3, 1.0, a, L), rel=1e-6), (a, L)
        assert f12_kernel(5e-5, L)[3] / f12_kernel(1e-3, L)[3] == pytest.approx(0.05, rel=1e-5)


def test_oracle_random_points(rng):
    components = NONZERO + [(1, 2)]
    for _ in range(8):
        lam = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.2, 2.0)
        L = rng.uniform(0.2, 2.0)
        i, j = components[rng.integers(0, len(components))]
        got = fourier_oracle(i, j, lam, a, L)
        want = shape_tensor(*f12_kernel(a / lam, lam * L))[i - 1, j - 1]
        if abs(want) > 1e-8:
            assert abs(got - want) / abs(want) < 1e-4, (i, j, lam, a, L)
        else:
            assert abs(got - want) < 1e-8


def test_oracle_domain_errors():
    with pytest.raises(DomainError):
        fourier_oracle(1, 1, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        fourier_oracle(1, 1, -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        fourier_oracle(1, 1, 1.0, 1.0, 0.0)
