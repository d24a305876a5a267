import numpy as np
import pytest

from atompair import BathKind, DomainError, XState, catalogue_state, detect_events, compute_trajectory
from atompair.sweeps import (LABEL_NAMES, SweepSpec, run_curve, run_events,
                             run_region_map, time_grid)
from conftest import AXES
from oracles import refinement_boundary_cells

AV, TH = BathKind.ACCELERATED_VACUUM, BathKind.THERMAL_AT_UNRUH


def make_spec(**overrides):
    base = dict(
        label="test", initial_label="psi1",
        initial=catalogue_state("psi1", 0.25),
        dipole1=AXES["z"], dipole2=AXES["z"],
        bath_modes=(AV, TH),
        axes=(("a_over_omega", (0.5,)), ("omega_L", (1.0,)),
              ("tau", tuple(time_grid(10.0, 60)))))
    base.update(overrides)
    return SweepSpec(**base)


def region_spec(n=20, initial=("psi2", 0.2), kind="revival", amax=3.0, Lmax=5.0,
                astart=None, Lstart=None):
    fam, p = initial
    astart = amax / n if astart is None else astart
    Lstart = Lmax / n if Lstart is None else Lstart
    return make_spec(
        initial_label=fam, initial=catalogue_state(fam, p),
        axes=(("a_over_omega", tuple(np.linspace(astart, amax, n))),
              ("omega_L", tuple(np.linspace(Lstart, Lmax, n)))),
        event_kind=kind)


def test_time_grid_shapes():
    g = time_grid(10.0, 50)
    assert g[0] == 0.0 and g[-1] == 10.0
    assert np.all(np.diff(g) > 0)
    assert g[1] < 10.0 / 49  # log spacing packs points near zero
    lin = time_grid(10.0, 50, "linear")
    assert lin[1] == pytest.approx(10.0 / 49)
    with pytest.raises(DomainError):
        time_grid(0.0, 50)
    with pytest.raises(DomainError):
        time_grid(10.0, 1)
    with pytest.raises(DomainError):
        time_grid(10.0, 50, "geometric")
    # samples that round together near the float limits are rejected
    for spacing in ("log", "linear"):
        with pytest.raises(DomainError, match="increase strictly"):
            time_grid(5e-324, 40, spacing)
    with pytest.raises(DomainError, match="increase strictly"):
        time_grid(1e308, 40)


def test_spec_validation():
    with pytest.raises(DomainError):
        make_spec(bath_modes=())
    with pytest.raises(DomainError):
        make_spec(axes=(("omega_L", (0.0, 1.0)),))
    with pytest.raises(DomainError):
        make_spec(axes=(("p", (0.0, 0.5)),))
    with pytest.raises(DomainError):
        make_spec(axes=(("nope", (1.0,)),))
    with pytest.raises(DomainError):
        make_spec(axes=(("omega_L", (1.0,)), ("omega_L", (2.0,))))
    with pytest.raises(DomainError):
        make_spec(event_kind="both")
    with pytest.raises(DomainError):
        make_spec(initial=None)  # no p axis to supply the weight
    cell = (("a_over_omega", (0.5,)), ("omega_L", (1.0,)))
    with pytest.raises(DomainError, match="not both"):
        make_spec(axes=cell + (("p", (0.2, 0.8)),))  # p per state and as an axis
    with pytest.raises(DomainError, match="psi1/psi2"):
        make_spec(initial_label="A", initial=catalogue_state("A"),
                  axes=cell + (("p", (0.2, 0.8)),))


def test_run_curve_shapes_and_modes():
    spec = make_spec(axes=(("a_over_omega", (0.25, 1.0)), ("omega_L", (1.0,)),
                           ("tau", tuple(time_grid(8.0, 40)))))
    result = run_curve(spec)
    assert result.concurrence.shape == (2, 2, 40)
    assert result.populations.shape == (2, 2, 40, 4)
    assert [c["a_over_omega"] for c in result.cells] == [0.25, 1.0]
    # initial sample reproduces the initial state
    assert result.concurrence[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(result.populations[:, :, 0, 1], 0.25, atol=1e-15)


def test_run_curve_requires_tau_axis():
    spec = make_spec(axes=(("a_over_omega", (0.5,)), ("omega_L", (1.0,))))
    with pytest.raises(DomainError):
        run_curve(spec)


def test_repeated_runs_identical():
    spec = make_spec(axes=(("a_over_omega", (0.6,)), ("omega_L", (0.9,)),
                           ("tau", tuple(time_grid(10.0, 50)))))
    a = run_curve(spec)
    b = run_curve(spec)
    assert np.array_equal(a.concurrence, b.concurrence)
    assert np.array_equal(a.populations, b.populations)


def test_p_axis_resolves_family():
    spec = make_spec(
        initial=None, initial_label="psi2",
        axes=(("a_over_omega", (0.6666666666666666,)), ("omega_L", (1.0,)),
              ("p", (0.2, 0.8))))
    result = run_events(spec)
    assert len(result.cells) == 2
    assert result.cells[0]["p"] == 0.2
    # both weights start at concurrence 0.8 and can only lose entanglement
    assert result.table[0, 0, 4] == pytest.approx(0.8, abs=1e-9)


def test_run_events_matches_detect_events():
    spec = make_spec(axes=(("a_over_omega", (0.5,)), ("omega_L", (1.0,))))
    result = run_events(spec)
    direct = detect_events(compute_trajectory(
        spec.initial, _coeffs_for(spec, AV, 0.5, 1.0), spec.horizon_grid()))
    via_table = result.events(0, 0)
    assert via_table == direct


def _coeffs_for(spec, mode, a, L):
    from atompair import SystemParams, assemble
    return assemble(SystemParams(a_over_omega=a, omega_L=L, dipole1=spec.dipole1,
                                 dipole2=spec.dipole2, bath=mode),
                    spec.atom_order)


def test_region_map_labels_and_counts():
    m = run_region_map(region_spec(n=16))
    counts = m.counts()
    assert sum(counts.values()) == 16 * 16
    assert set(counts) == set(LABEL_NAMES)


def test_region_map_requires_both_modes():
    spec = make_spec(
        axes=(("a_over_omega", (0.5, 1.0)), ("omega_L", (0.5, 1.0))),
        bath_modes=(AV,))
    with pytest.raises(DomainError):
        run_region_map(spec)


def test_region_cells_agree_with_single_mode_runs():
    # a cell labelled "both" must be flagged by each mode run individually
    spec = region_spec(n=12, initial=("psi1", 0.25))
    m = run_region_map(spec)
    taus = spec.horizon_grid()
    checked = 0
    for i in np.argsort(m.labels.ravel())[::-1][:3]:
        ai, lj = divmod(int(i), m.L_values.size)
        if m.labels[ai, lj] != 3:
            continue
        for mode in (AV, TH):
            cs = _coeffs_for(spec, mode, float(m.a_values[ai]), float(m.L_values[lj]))
            ev = detect_events(compute_trajectory(spec.initial, cs, taus))
            assert ev.revival and ev.revival_amplitude > spec.region_min_amplitude
        checked += 1
    assert checked > 0


def test_refinement_reports_boundary_cells_only():
    # fine grid holds 2n-1 points on the same ranges, so fine[2i] == coarse[i]
    coarse = run_region_map(region_spec(n=15, astart=0.2, Lstart=0.33))
    fine = run_region_map(region_spec(n=29, astart=0.2, Lstart=0.33))
    assert np.allclose(fine.a_values[::2], coarse.a_values)
    flipped = refinement_boundary_cells(coarse, fine)
    interior = (15 - 2) * (15 - 2)
    assert len(flipped) <= 0.05 * interior
    for (i, j) in flipped:
        assert 0 < i < 14 and 0 < j < 14
    with pytest.raises(DomainError):
        refinement_boundary_cells(coarse, coarse)
