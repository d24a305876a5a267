import numpy as np
import pytest

from atompair import DomainError
from atompair.kernels import (SMALL_R, _f12_closed, _f12_series, f11_kernel,
                              f12_kernel, f12_thermal_kernel)
from oracles import fourier_oracle

NONZERO = [(1, 1), (2, 2), (3, 3), (1, 3), (3, 1)]
ALL_IJ = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]

# pinned by the Fourier oracle before the closed forms were trusted
F12_11_AT_111 = 0.7450479143237266
F12_13_AT_111 = -1.0077914973905044


def test_f11_values():
    assert f11_kernel(1.0, 0.0) == 1.0
    assert f11_kernel(1.0, 1.0) == 2.0
    assert f11_kernel(2.0, 1.0) == 1.25


def test_f12_zero_components():
    for (i, j) in ALL_IJ:
        if (i, j) in NONZERO:
            continue
        assert f12_kernel(i, j, 1.3, 0.7, 0.9, False) == 0.0
        assert f12_thermal_kernel(i, j, 1.3, 0.9) == 0.0


def test_f12_small_a_matches_thermal_closed_form():
    # (1,1) example: at a -> 0 the closed form approaches (3/2) cos(1)
    expected = 1.5 * np.cos(1.0)
    assert abs(f12_kernel(1, 1, 1.0, 1e-6, 1.0, False) - expected) < 1e-6


def test_f12_pinned_values():
    assert f12_kernel(1, 1, 1.0, 1.0, 1.0, False) == pytest.approx(F12_11_AT_111, abs=1e-12)
    assert f12_kernel(1, 3, 1.0, 1.0, 1.0, False) == pytest.approx(F12_13_AT_111, abs=1e-12)


def test_f12_antisymmetry_exact():
    for (lam, a, L) in [(1.0, 1.0, 1.0), (0.7, 2.2, 0.4), (2.5, 0.3, 3.0)]:
        assert f12_kernel(3, 1, lam, a, L, False) == -f12_kernel(1, 3, lam, a, L, False)


def test_f12_atom_order_flips_skew_only():
    args = (1.0, 0.8, 1.3)
    assert f12_kernel(1, 3, *args, True) == -f12_kernel(1, 3, *args, False)
    assert f12_kernel(3, 1, *args, True) == -f12_kernel(3, 1, *args, False)
    assert f12_kernel(1, 1, *args, True) == f12_kernel(1, 1, *args, False)
    assert f12_kernel(3, 3, *args, True) == f12_kernel(3, 3, *args, False)


def test_thermal_small_separation_limits():
    # Taylor limits at L -> 0: every diagonal tends to the coincidence value 1
    assert f12_thermal_kernel(1, 1, 1.0, 1e-9) == pytest.approx(1.0, abs=1e-12)
    assert f12_thermal_kernel(2, 2, 1.0, 1e-9) == pytest.approx(1.0, abs=1e-12)
    assert f12_thermal_kernel(3, 3, 1.0, 1e-9) == pytest.approx(1.0, abs=1e-12)
    assert f12_thermal_kernel(1, 3, 1.0, 1e-9) == 0.0


def test_small_a_agreement_with_thermal_grid():
    # the diagonal shapes converge at O(a^2): < 1e-6 at a = 1e-4 over the box;
    # the skew (1,3)/(3,1) component vanishes only at O(a) and is tested below
    for lam in (0.5, 1.0, 2.0, 4.0):
        for L in (0.1, 0.5, 1.0, 2.0, 5.0):
            for (i, j) in ALL_IJ:
                if (i, j) in ((1, 3), (3, 1)):
                    continue
                diff = abs(f12_kernel(i, j, lam, 1e-4, L, False)
                           - f12_thermal_kernel(i, j, lam, L))
                assert diff < 1e-6, (i, j, lam, L, diff)


def test_skew_component_vanishes_linearly_in_a():
    # f_13 = -a L (1 + a^2/lam^2) + O(a L^3): linear in a, zero in the static
    # shape; stay at or above the delegation threshold a = 1e-4
    for lam in (0.5, 1.0, 4.0):
        for L in (0.1, 1.0, 5.0):
            assert f12_thermal_kernel(1, 3, lam, L) == 0.0
            v1 = f12_kernel(1, 3, lam, 2e-4, L, False)
            v2 = f12_kernel(1, 3, lam, 1e-4, L, False)
            assert abs(v2) < 3.0 * 1e-4 * L
            assert v1 / v2 == pytest.approx(2.0, rel=1e-3)


def test_large_separation_decay():
    for a in (0.25, 1.0, 2.0):
        for L in (1.001e3, 2.5e3):
            for (i, j) in NONZERO:
                assert abs(f12_kernel(i, j, 1.0, a, L, False)) < 1e-3


def test_series_switch_continuity():
    # left/right evaluations at the small-L switch radius agree to 1e-9;
    # away from the production point the shapes grow like 1 + a^2/lam^2, so
    # the tolerance is read relative to that scale
    for lam in (0.5, 1.0, 2.5):
        for a in (0.3, 1.0, 2.5):
            scale = max(1.0, 1.0 + a * a / (lam * lam))
            L_switch = SMALL_R / lam
            for (i, j) in [(1, 1), (2, 2), (3, 3), (1, 3)]:
                series = _f12_series(i, j, lam, a, L_switch)
                closed = _f12_closed(i, j, lam, a, L_switch)
                assert abs(series - closed) < 1e-9 * scale, (i, j, lam, a)
            below = f12_kernel(1, 1, lam, a, (SMALL_R - 1e-9) / lam, False)
            above = f12_kernel(1, 1, lam, a, (SMALL_R + 1e-9) / lam, False)
            assert abs(below - above) < 1e-9 * scale


def test_thermal_series_switch_continuity():
    for lam in (0.5, 1.0, 2.5):
        for (i, j) in [(1, 1), (3, 3)]:
            below = f12_thermal_kernel(i, j, lam, (SMALL_R - 1e-9) / lam)
            above = f12_thermal_kernel(i, j, lam, (SMALL_R + 1e-9) / lam)
            assert abs(below - above) < 1e-9


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
    want = f12_kernel(1, 3, 1.0, 1.0, 1.0, False)
    assert abs(got - want) < 1e-4
    swapped = fourier_oracle(1, 3, 1.0, 1.0, 1.0, atom_order=21)
    assert abs(swapped + want) < 1e-4


def test_oracle_random_points(rng):
    components = NONZERO + [(1, 2)]
    for _ in range(8):
        lam = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.2, 2.0)
        L = rng.uniform(0.2, 2.0)
        i, j = components[rng.integers(0, len(components))]
        got = fourier_oracle(i, j, lam, a, L)
        want = f12_kernel(i, j, lam, a, L, False)
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
