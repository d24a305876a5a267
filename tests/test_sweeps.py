import numpy as np
import pytest

import oracles
from atompair import (BathKind, CoefficientSet, DomainError, EntanglementEvents, SystemParams,
                      XState, assemble, catalogue_state, compute_trajectory, detect_events,
                      kernels, sweeps)
from atompair.dynamics import prepare
from atompair.sweeps import (LABEL_NAMES, SweepSpec, run_curve, run_events,
                             run_region_map, time_grid)
from conftest import AXES, random_coeffs, random_xstate
from oracles import refinement_boundary_cells

AV, TH = BathKind.ACCELERATED_VACUUM, BathKind.THERMAL_AT_UNRUH


def make_spec(**overrides):
    base = dict(
        label="test", initial_label="psi1",
        p=0.25,
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
        initial_label=fam, p=p,
        axes=(("a_over_omega", tuple(np.linspace(astart, amax, n))),
              ("omega_L", tuple(np.linspace(Lstart, Lmax, n)))),
        event_kind=kind)


@pytest.mark.filterwarnings("error::RuntimeWarning")
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
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="finite"):
            make_spec(axes=(("a_over_omega", (0.5, bad)), ("omega_L", (1.0,))))
    with pytest.raises(DomainError):
        make_spec(axes=(("nope", (1.0,)),))
    with pytest.raises(DomainError):
        make_spec(axes=(("omega_L", (1.0,)), ("omega_L", (2.0,))))
    with pytest.raises(DomainError):
        make_spec(event_kind="both")
    with pytest.raises(DomainError):
        make_spec(p=None)  # no p axis to supply the weight
    cell = (("a_over_omega", (0.5,)), ("omega_L", (1.0,)))
    with pytest.raises(DomainError, match="not both"):
        make_spec(axes=cell + (("p", (0.2, 0.8)),))  # p per state and as an axis
    with pytest.raises(DomainError, match="psi1/psi2"):
        make_spec(initial_label="A", p=None,
                  axes=cell + (("p", (0.2, 0.8)),))
    with pytest.raises(DomainError, match="unknown initial state"):
        make_spec(initial_label="W", p=None)   # resolved at construction


def test_run_curve_shapes_and_modes():
    spec = make_spec(axes=(("a_over_omega", (0.25, 1.0)), ("omega_L", (1.0,)),
                           ("tau", tuple(time_grid(8.0, 40)))))
    result = run_curve(spec)
    assert result.concurrence.shape == (2, 2, 40)
    assert result.populations.shape == (2, 2, 40, 4)
    assert [c["a_over_omega"] for c in spec.cells()] == [0.25, 1.0]
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
        p=None, initial_label="psi2",
        axes=(("a_over_omega", (0.6666666666666666,)), ("omega_L", (1.0,)),
              ("p", (0.2, 0.8))))
    result = run_events(spec)
    assert len(spec.cells()) == len(result.table) == 2
    assert spec.cells()[0]["p"] == 0.2
    # both weights start at concurrence 0.8 and can only lose entanglement
    assert result.table[0, 0, 4] == pytest.approx(0.8, abs=1e-9)


def test_run_events_matches_detect_events():
    spec = make_spec(axes=(("a_over_omega", (0.5,)), ("omega_L", (1.0,))))
    result = run_events(spec)
    direct = detect_events(compute_trajectory(
        spec.resolve_initial({}), _coeffs_for(spec, AV, 0.5, 1.0), sweeps.HORIZON))
    via_table = EntanglementEvents.from_row(result.table[0, 0])
    assert via_table == direct


def _coeffs_for(spec, mode, a, L):
    from atompair import SystemParams, assemble
    return assemble(SystemParams(a_over_omega=a, omega_L=L, dipole1=spec.dipole1,
                                 dipole2=spec.dipole2, bath=mode), 12)


def _scalar_scan(stack, i, taus):
    """Reference for the block scan: pops_at and concurrence_kernel at each
    tau, for row i of the stack."""
    pops = np.array([oracles.pops_at(stack, i, tau) for tau in taus])
    C = []
    for p, tau in zip(pops, taus):
        amp = np.exp(-4.0 * stack.A1[i] * tau)
        reAS, imAS, reGE, imGE = stack.coherences[i]
        C.append(kernels.concurrence_kernel(
            p[0], p[1], p[2], p[3], reAS * amp, imAS * amp, reGE * amp, imGE * amp))
    return pops, np.array(C)


def _raw_stack(*rows):
    # a stack from (coeffs, p0, coherences) rows, bypassing every check
    coeffs, p0, coherences = (np.array(column, dtype=float) for column in zip(*rows))
    return kernels.TrajectoryStack(coeffs, p0, coherences)


# A1 < B1 makes the rates into |E> negative: pEE goes below zero while pGG
# grows, so pGG*pEE falls below the slack
NEGATIVE_RADICAND_ROW = ((0.1, 0.5, 0.0, 0.0), (0.0, 0.5, 0.5, 0.0), (0.5, 0.0, 0.0, 0.0))

# A1 = B1 = A2 = B2 makes the generator defective: the expm fallback
FALLBACK_PAIR = (catalogue_state("psi1", 0.3),
                 CoefficientSet(A1=0.25, B1=0.25, A2=0.25, B2=0.25))


def test_stack_setup_is_bitwise_per_row(rng):
    pairs = [(random_xstate(rng), random_coeffs(rng)) for _ in range(20)]
    pairs.insert(7, FALLBACK_PAIR)
    stack = prepare(pairs)
    assert stack.use_expm.tolist() == [i == 7 for i in range(len(pairs))]
    for i, (state, cs) in enumerate(pairs):
        M = kernels.generator_kernel(cs.A1, cs.B1, cs.A2, cs.B2)
        w, V, Vinv, cond = kernels.eig_decompose(M)
        assert np.array_equal(stack.M[i], M)
        assert np.array_equal(stack.w[i], w) and np.array_equal(stack.V[i], V)
        assert np.array_equal(stack.c[i], Vinv @ state.populations().astype(np.complex128))
        assert np.array_equal(stack.cond[i], cond, equal_nan=True)
        assert stack.use_expm[i] == ((not np.isfinite(cond)) or cond > kernels.COND_LIMIT)


def test_block_scan_is_bitwise_scalar(rng):
    # eig-path trajectories around one on the expm fallback
    states = [catalogue_state("psi1", 0.25), catalogue_state("psi2", 0.8),
              catalogue_state("E"), random_xstate(rng), random_xstate(rng)]
    pairs = [(state, random_coeffs(rng)) for state in states]
    pairs.insert(2, FALLBACK_PAIR)
    block = prepare(pairs)
    assert block.use_expm.tolist().count(True) == 1
    taus = time_grid(20.0, 150)
    pops, C = kernels.trajectory_kernel(block, np.arange(len(pairs)), taus)
    assert pops.shape == (len(pairs), taus.size, 4) and C.shape == (len(pairs), taus.size)
    for k in range(len(pairs)):
        want_pops, want_C = _scalar_scan(block, k, taus)
        assert np.array_equal(pops[k], want_pops)
        assert np.array_equal(C[k], want_C)


def test_sweeps_in_blocks_match_single_trajectories(monkeypatch):
    # 3 x 3 cells x 2 modes = 18 trajectories on 400 samples: a block of 16
    # and a block of 2
    taus = time_grid(50.0, 400)
    cells = (("a_over_omega", (0.05, 1.23, 2.41)), ("omega_L", (0.05, 1.04, 3.02)))
    assert (9 * 2) % (sweeps.BLOCK_SAMPLES // taus.size) != 0
    spec = make_spec(axes=cells + (("tau", tuple(taus)),))
    curve = run_curve(spec)
    for ci, cell in enumerate(spec.cells()):
        for mi, mode in enumerate(spec.bath_modes):
            cs = _coeffs_for(spec, mode, cell["a_over_omega"], cell["omega_L"])
            traj = prepare([(spec.resolve_initial({}), cs)])
            want_pops, want_C = _scalar_scan(traj, 0, taus)
            assert np.array_equal(curve.populations[ci, mi], want_pops)
            assert np.array_equal(curve.concurrence[ci, mi], want_C)
    # event rows: the same as detect_events cell by cell, dip branch included
    dips = []
    golden = kernels._golden_extremum

    def counting(f, rows, lo, hi, sign, tol):
        dips.append(sign < 0 and len(rows) > 0)
        return golden(f, rows, lo, hi, sign, tol)

    monkeypatch.setattr(kernels, "_golden_extremum", counting)
    spec = make_spec(axes=cells)
    result = run_events(spec)
    assert any(dips)
    for ci, cell in enumerate(spec.cells()):
        for mi, mode in enumerate(spec.bath_modes):
            cs = _coeffs_for(spec, mode, cell["a_over_omega"], cell["omega_L"])
            direct = detect_events(compute_trajectory(spec.resolve_initial({}), cs,
                                                      sweeps.HORIZON))
            assert EntanglementEvents.from_row(result.table[ci, mi]) == direct


def test_block_scan_rejects_negative_radicand():
    traj = _raw_stack(NEGATIVE_RADICAND_ROW)
    taus = time_grid(1.0, 20)
    with pytest.raises(ValueError) as scalar:
        _scalar_scan(traj, 0, taus)
    with pytest.raises(ValueError) as block:
        kernels.trajectory_kernel(traj, np.arange(1), taus)
    assert str(block.value) == str(scalar.value)
    assert "radicand below tolerance" in str(block.value)


def test_grouped_refinement_is_bitwise_scalar(rng, monkeypatch):
    # one group through every branch of the scalar oracle: random X states
    # (dips that stay above threshold, rows with no death), the expm
    # fallback, psi1(1/4) dips certified at machine depth and far below
    # zero, and best samples at index 0
    pairs = [(random_xstate(rng), random_coeffs(rng)) for _ in range(200)]
    pairs.append(FALLBACK_PAIR)
    for a, L in ((0.05, 0.05), (0.5, 0.05), (2.41, 1.04)):
        for mode in (AV, TH):
            pairs.append((catalogue_state("psi1", 0.25), assemble(
                SystemParams(a, L, AXES["z"], AXES["z"], mode))))
    trajs = prepare(pairs)
    rows = np.arange(len(pairs))
    taus = time_grid(50.0, 400)
    _, C = kernels.trajectory_kernel(trajs, rows, taus)

    dips = []
    golden = oracles._golden_extremum

    def recording(f, lo, hi, sign, tol):
        t, value = golden(f, lo, hi, sign, tol)
        if sign < 0:
            dips.append(value)
        return t, value

    monkeypatch.setattr(oracles, "_golden_extremum", recording)
    want = np.array([oracles.events_kernel(trajs, i, taus, C[i]) for i in rows], dtype=float)
    assert np.array_equal(kernels.events_kernel(trajs, taus, C), want, equal_nan=True)
    assert trajs.use_expm.tolist().count(True) == 1
    assert min(dips) <= kernels.EPS_DEAD < max(dips)
    assert np.isnan(want[:, 0]).any() and (want[:, 2] == 1).any()
    assert (np.argmax(C, axis=1) == 0).any()

    # a one-sample grid: every evaluation is at tau = 0, where pops are p0
    one = np.zeros(1)
    group = prepare(pairs[-8:])
    _, C = kernels.trajectory_kernel(group, np.arange(8), one)
    want = np.array([oracles.events_kernel(group, i, one, C[i]) for i in range(8)],
                    dtype=float)
    assert np.array_equal(kernels.events_kernel(group, one, C), want, equal_nan=True)


def test_grouped_refinement_rejects_negative_radicand():
    # the trajectory of test_block_scan_rejects_negative_radicand, behind
    # psi1(1/4) under a valid coefficient set, with a made-up row whose best
    # sample is the last: the golden section around it evaluates where
    # pGG*pEE is below the slack
    psi1 = ((0.5, 0.4, 0.1, 0.08), (0.0, 0.25, 0.75, 0.0), (np.sqrt(0.1875), 0.0, 0.0, 0.0))
    group = _raw_stack(psi1, NEGATIVE_RADICAND_ROW)
    taus = time_grid(1.0, 20)
    row = np.linspace(0.1, 1.0, taus.size)
    with pytest.raises(ValueError) as scalar:
        oracles.events_kernel(group, 1, taus, row)
    with pytest.raises(ValueError) as grouped:
        kernels.events_kernel(group, taus, np.array([row, row]))
    assert str(grouped.value) == str(scalar.value)
    assert "radicand below tolerance" in str(grouped.value)


def test_events_same_for_any_refinement_group(monkeypatch):
    # 9 cells of 2 modes: one group by default, groups of 16 and 2
    # trajectories, or 9 groups of one cell; evolve's events come from the
    # curve's trajectories
    taus = time_grid(10.0, 60)
    spec = make_spec(axes=(("a_over_omega", (0.05, 1.23, 2.41)),
                           ("omega_L", (0.05, 1.04, 3.02)), ("tau", tuple(taus))))
    assert run_curve(spec).events is None
    want = run_events(spec).table
    assert sweeps.REFINE_TRAJECTORIES > want.shape[0] * want.shape[1]
    for size in (1, 16, None):
        if size is not None:
            monkeypatch.setattr(sweeps, "REFINE_TRAJECTORIES", size)
        assert np.array_equal(run_events(spec).table, want, equal_nan=True)
        curve = run_curve(spec, events=True)
        assert np.array_equal(curve.events.table, want, equal_nan=True)
        assert np.array_equal(curve.concurrence, run_curve(spec).concurrence)


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


def test_region_map_requires_a_by_L_cells():
    # the labels are an (na, nL) grid: a p axis, or omega_L before
    # a_over_omega, would lay the cells out otherwise
    plane = (("a_over_omega", (0.5, 1.0)), ("omega_L", (0.5, 1.0)))
    for spec in (make_spec(initial_label="psi1", p=None,
                           axes=plane + (("p", (0.2, 0.8)),)),
                 make_spec(axes=plane[::-1])):
        with pytest.raises(DomainError, match="a_over_omega x omega_L"):
            run_region_map(spec)


def test_region_cells_agree_with_single_mode_runs():
    # a cell labelled "both" must be flagged by each mode run individually
    spec = region_spec(n=12, initial=("psi1", 0.25))
    m = run_region_map(spec)
    taus = sweeps.HORIZON
    checked = 0
    a_values, L_values = spec.axis("a_over_omega"), spec.axis("omega_L")
    for i in np.argsort(m.labels.ravel())[::-1][:3]:
        ai, lj = divmod(int(i), L_values.size)
        if m.labels[ai, lj] != 3:
            continue
        for mode in (AV, TH):
            cs = _coeffs_for(spec, mode, float(a_values[ai]), float(L_values[lj]))
            ev = detect_events(compute_trajectory(spec.resolve_initial({}), cs, taus))
            assert ev.revival and ev.revival_amplitude > sweeps.REGION_MIN_AMPLITUDE
        checked += 1
    assert checked > 0


def test_refinement_reports_boundary_cells_only():
    # fine grid holds 2n-1 points on the same ranges, so fine[2i] == coarse[i]
    coarse_spec = region_spec(n=15, astart=0.2, Lstart=0.33)
    fine_spec = region_spec(n=29, astart=0.2, Lstart=0.33)
    coarse = run_region_map(coarse_spec)
    fine = run_region_map(fine_spec)
    assert np.allclose(fine_spec.axis("a_over_omega")[::2], coarse_spec.axis("a_over_omega"))
    flipped = refinement_boundary_cells(coarse, fine)
    interior = (15 - 2) * (15 - 2)
    assert len(flipped) <= 0.05 * interior
    for (i, j) in flipped:
        assert 0 < i < 14 and 0 < j < 14
    with pytest.raises(DomainError):
        refinement_boundary_cells(coarse, coarse)
