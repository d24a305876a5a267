import numpy as np
import pytest

import oracles
from atompair import (BathKind, CoefficientSet, DomainError, EntanglementEvents,
                      InvalidStateError, SystemParams, assemble, catalogue_state,
                      compute_trajectory, detect_events, kernels, sweeps)
from atompair.entanglement import EVENT_FIELDS
from atompair.sweeps import (LABEL_NAMES, SweepSpec, run_curve, run_events,
                             run_region_map, time_grid)
from conftest import AXES, random_coeffs, random_xstate
from oracles import prepare, refinement_boundary_cells

AV, TH = BathKind.ACCELERATED_VACUUM, BathKind.THERMAL_AT_UNRUH


def make_spec(**overrides):
    base = dict(
        label="test", initial=catalogue_state("psi1", 0.25),
        dipole1=AXES["z"], dipole2=AXES["z"],
        bath_modes=(AV, TH),
        a_over_omega=(0.5,), omega_L=(1.0,), tau=tuple(time_grid(10.0, 60)))
    base.update(overrides)
    return SweepSpec(**base)


def region_spec(n=20, initial=("psi2", 0.2), kind="revival", amax=3.0, Lmax=5.0,
                astart=None, Lstart=None):
    fam, p = initial
    astart = amax / n if astart is None else astart
    Lstart = Lmax / n if Lstart is None else Lstart
    return make_spec(
        initial=catalogue_state(fam, p),
        a_over_omega=tuple(np.linspace(astart, amax, n)),
        omega_L=tuple(np.linspace(Lstart, Lmax, n)), tau=None,
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


def test_run_curve_shapes_and_modes():
    spec = make_spec(a_over_omega=(0.25, 1.0), tau=tuple(time_grid(8.0, 40)))
    concurrence, populations, events = run_curve(spec)
    assert concurrence.shape == (2, 2, 40)
    assert populations.shape == (2, 2, 40, 4)
    assert events is None
    assert spec.cells()[0].tolist() == [0.25, 1.0]
    # initial sample reproduces the initial state
    assert concurrence[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(populations[:, :, 0, 1], 0.25, atol=1e-15)


def test_repeated_runs_identical():
    spec = make_spec(a_over_omega=(0.6,), omega_L=(0.9,), tau=tuple(time_grid(10.0, 50)))
    a_conc, a_pops, _ = run_curve(spec)
    b_conc, b_pops, _ = run_curve(spec)
    assert np.array_equal(a_conc, b_conc)
    assert np.array_equal(a_pops, b_pops)


def test_cells_are_the_a_by_L_grid():
    # omega_L fastest, every cell starting in the panel's one state
    spec = make_spec(initial=catalogue_state("psi2", 0.2), a_over_omega=(0.6666666666666666, 1.5),
                     omega_L=(1.0, 2.0, 3.0), tau=None)
    a, L = spec.cells()
    assert a.tolist() == [0.6666666666666666] * 3 + [1.5] * 3
    assert L.tolist() == [1.0, 2.0, 3.0] * 2
    table = run_events(spec)
    assert table.shape == (6, 2, len(EVENT_FIELDS))
    for ci, (a_k, L_k) in enumerate(zip(a, L)):
        for mi, mode in enumerate(spec.bath_modes):
            direct = detect_events(compute_trajectory(
                spec.initial, _coeffs_for(spec, mode, a_k, L_k), sweeps.HORIZON))
            assert EntanglementEvents.from_row(table[ci, mi]) == direct
    # psi2(0.2) and psi2(0.8) start at concurrence 0.8 and can only lose it
    for p in (0.2, 0.8):
        spec = make_spec(initial=catalogue_state("psi2", p), a_over_omega=(0.6666666666666666,),
                         tau=None)
        max_c = run_events(spec)[0, 0, EVENT_FIELDS.index("max_concurrence")]
        assert max_c == pytest.approx(0.8, abs=1e-9)


def test_run_events_matches_detect_events():
    spec = make_spec(tau=None)
    table = run_events(spec)
    direct = detect_events(compute_trajectory(
        spec.initial, _coeffs_for(spec, AV, 0.5, 1.0), sweeps.HORIZON))
    via_table = EntanglementEvents.from_row(table[0, 0])
    assert via_table == direct


def _coeffs_for(spec, mode, a, L):
    from atompair import SystemParams, assemble
    return assemble(SystemParams(a_over_omega=a, omega_L=L, dipole1=spec.dipole1,
                                 dipole2=spec.dipole2, bath=mode), 12)


def _scalar_scan(stack, i, taus, fallback=False):
    """Reference for the block scan: pops_at and concurrence_kernel at each
    tau, for row i of the stack. A row with a sample found not positive and
    a negative population is scanned again, whole, on the fallback."""
    pops = np.array([oracles.pops_at(stack, i, tau, fallback) for tau in taus])
    C = []
    try:
        for p, tau in zip(pops, taus):
            amp = np.exp(-4.0 * stack.A1[i] * tau)
            reAS, imAS, reGE, imGE = stack.coherences[i]
            C.append(kernels.concurrence_kernel(
                p[0], p[1], p[2], p[3], reAS * amp, imAS * amp, reGE * amp, imGE * amp))
    except InvalidStateError:
        if fallback or not (pops < 0.0).any():
            raise
        return _scalar_scan(stack, i, taus, True)
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

# the thin cell, |E> at a/omega = 0.3, omega_L = 1e-4, z-z, in each bath: on
# the eig path (cond 7e4) pGG dips below zero at small tau, where the clamped
# concurrence finds the state not positive, so its rows are taken again on
# the fallback
THIN_PAIRS = {mode: (catalogue_state("E"),
                     assemble(SystemParams(0.3, 1e-4, AXES["z"], AXES["z"], mode)))
              for mode in (AV, TH)}
# early samples, where the thin cell trips; the tests append a log grid
EARLY_TAUS = np.linspace(0.0, 2e-6, 201)


def _record_retries(monkeypatch):
    # the eig-path rows that the oracle takes again on the fallback
    retried = set()
    pops_at = oracles.pops_at

    def recording(stack, i, tau, fallback=False):
        if fallback and not stack.use_expm[i]:
            retried.add(i)
        return pops_at(stack, i, tau, fallback)

    monkeypatch.setattr(oracles, "pops_at", recording)
    return retried


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


def test_stack_setup_matches_the_per_matrix_oracle(rng):
    # the set-up against a decomposition outside the package: w, V, c and
    # use_expm bitwise, cond to roundoff of its norms
    pairs = [(random_xstate(rng), random_coeffs(rng)) for _ in range(20)]
    pairs += [FALLBACK_PAIR, *THIN_PAIRS.values()]
    stack = prepare(pairs)
    for i, (state, cs) in enumerate(pairs):
        w, V, Vinv, cond = oracles.eig_decompose(
            kernels.generator_kernel(cs.A1, cs.B1, cs.A2, cs.B2))
        assert np.array_equal(stack.w[i], w) and np.array_equal(stack.V[i], V)
        assert np.array_equal(stack.c[i], Vinv @ state.populations().astype(np.complex128))
        assert stack.cond[i] == pytest.approx(cond, rel=1e-15, abs=0)
        assert stack.use_expm[i] == ((not np.isfinite(cond)) or cond > kernels.COND_LIMIT)
    assert stack.use_expm.any() and not stack.use_expm.all()


def test_block_scan_is_bitwise_scalar(rng, monkeypatch):
    # eig-path trajectories around one on the expm fallback, and the thin
    # cell in both baths, whose rows are scanned again on the fallback
    states = [catalogue_state("psi1", 0.25), catalogue_state("psi2", 0.8),
              catalogue_state("E"), random_xstate(rng), random_xstate(rng)]
    pairs = [(state, random_coeffs(rng)) for state in states]
    pairs.insert(2, FALLBACK_PAIR)
    pairs += THIN_PAIRS.values()
    block = prepare(pairs)
    assert block.use_expm.tolist().count(True) == 1
    taus = np.concatenate([EARLY_TAUS, time_grid(20.0, 150)[1:]])
    pops, C = kernels.trajectory_kernel(block, np.arange(len(pairs)), taus)
    assert pops.shape == (len(pairs), taus.size, 4) and C.shape == (len(pairs), taus.size)
    retried = _record_retries(monkeypatch)
    for k in range(len(pairs)):
        want_pops, want_C = _scalar_scan(block, k, taus)
        assert np.array_equal(pops[k], want_pops)
        assert np.array_equal(C[k], want_C)
    assert retried == {len(pairs) - 2, len(pairs) - 1}


def test_sweeps_in_blocks_match_single_trajectories(monkeypatch):
    # 3 x 3 cells x 2 modes = 18 trajectories on 400 samples: a block of 16
    # and a block of 2
    taus = time_grid(50.0, 400)
    cells = dict(a_over_omega=(0.05, 1.23, 2.41), omega_L=(0.05, 1.04, 3.02))
    assert (9 * 2) % (sweeps.BLOCK_SAMPLES // taus.size) != 0
    spec = make_spec(**cells, tau=tuple(taus))
    concurrence, populations, _ = run_curve(spec)
    for ci, (a, L) in enumerate(zip(*spec.cells())):
        for mi, mode in enumerate(spec.bath_modes):
            cs = _coeffs_for(spec, mode, a, L)
            traj = prepare([(spec.initial, cs)])
            want_pops, want_C = _scalar_scan(traj, 0, taus)
            assert np.array_equal(populations[ci, mi], want_pops)
            assert np.array_equal(concurrence[ci, mi], want_C)
    # event rows: the same as detect_events cell by cell, dip branch included
    dips = []
    golden = kernels._golden_extremum

    def counting(f, rows, lo, hi, sign, tol):
        dips.append(sign < 0 and len(rows) > 0)
        return golden(f, rows, lo, hi, sign, tol)

    monkeypatch.setattr(kernels, "_golden_extremum", counting)
    spec = make_spec(**cells, tau=None)
    table = run_events(spec)
    assert any(dips)
    for ci, (a, L) in enumerate(zip(*spec.cells())):
        for mi, mode in enumerate(spec.bath_modes):
            cs = _coeffs_for(spec, mode, a, L)
            direct = detect_events(compute_trajectory(spec.initial, cs,
                                                      sweeps.HORIZON))
            assert EntanglementEvents.from_row(table[ci, mi]) == direct


def test_a_row_is_its_own_beside_a_row_taken_again():
    # |E> at a/omega = 0.3, omega_L = 0.1 holds roundoff-negative populations
    # but never trips the radicand check: sharing its scan and refinement
    # calls with the thin cell, whose row is taken again on the fallback,
    # leaves every value bitwise its own
    taus = np.concatenate([EARLY_TAUS, sweeps.HORIZON[1:]])
    for mode in (AV, TH):
        bystander = (catalogue_state("E"),
                     assemble(SystemParams(0.3, 0.1, AXES["z"], AXES["z"], mode)))
        shared = prepare([bystander, THIN_PAIRS[mode]])
        alone = prepare([bystander])
        pops, C = kernels.trajectory_kernel(shared, np.arange(2), taus)
        own_pops, own_C = kernels.trajectory_kernel(alone, np.arange(1), taus)
        assert own_pops.min() < 0.0 <= pops[1].min()
        assert np.array_equal(pops[0], own_pops[0])
        assert np.array_equal(C[0], own_C[0])
        assert np.array_equal(kernels.events_kernel(shared, taus, C)[0],
                              kernels.events_kernel(alone, taus, own_C)[0], equal_nan=True)


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
    # the thin cell in both baths first: its thermal row's refinement
    # evaluates again on the fallback in calls shared with every other row
    pairs = [*THIN_PAIRS.values()]
    pairs += [(random_xstate(rng), random_coeffs(rng)) for _ in range(200)]
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
    retried = _record_retries(monkeypatch)
    want = np.array([oracles.events_kernel(trajs, i, taus, C[i]) for i in rows], dtype=float)
    assert np.array_equal(kernels.events_kernel(trajs, taus, C), want, equal_nan=True)
    assert retried == {1}
    assert trajs.use_expm.tolist().count(True) == 1
    assert min(dips) <= kernels.EPS_DEAD < max(dips)
    assert np.isnan(want[:, 0]).any() and (want[:, 2] == 1).any()
    assert (np.argmax(C, axis=1) == 0).any()
    # a best sample after the death whose lower neighbour lies before it:
    # that bracket starts at the death the crossing pass refined
    after = np.where(taus > want[:, None, 0], C, -np.inf)
    kpost = np.argmax(after, axis=1)
    assert ((after.max(axis=1) > 0.0) & (taus[kpost - 1] < want[:, 0])).any()
    # the unclamped evaluation of the dip search takes a thin-row sample
    # below tau = 1e-6 again on the fallback by the same rule
    early = EARLY_TAUS[1:101]
    for i in (0, 1):
        retried.clear()
        raw = [oracles._conc_raw_at(trajs, i, tau) for tau in early]
        assert np.array_equal(kernels._conc_raw_at(trajs, np.full(early.size, i), early), raw)
        assert retried == {i}

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


def test_refinement_skips_searches_with_no_bracket(monkeypatch):
    # |A> decays without a sampled dip or a revival: the dip search and the
    # search after the death have no bracket and evaluate nothing
    group = prepare([(catalogue_state("A"), assemble(SystemParams(0.5, 1.0, AXES["z"],
                                                                  AXES["z"], mode)))
                     for mode in (AV, TH)])
    taus = time_grid(50.0, 400)
    _, C = kernels.trajectory_kernel(group, np.arange(2), taus)
    sizes = {"_conc_at": [], "_conc_raw_at": []}
    for name, calls in sizes.items():
        def recording(stack, rows, tau, original=getattr(kernels, name), calls=calls):
            calls.append(rows.size)
            return original(stack, rows, tau)

        monkeypatch.setattr(kernels, name, recording)
    events = kernels.events_kernel(group, taus, C)
    assert not events[:, 2].any()
    assert sizes["_conc_raw_at"] == []
    assert sizes["_conc_at"] and min(sizes["_conc_at"]) > 0


def test_refinement_makes_one_pass_per_search(monkeypatch):
    # psi1(1/4) z-z cells with certified dips and revivals: the crossings
    # (between samples and around the dips) take one bisection call, the
    # dips and the maxima (best samples and best after the death) one
    # golden-section call each
    group = prepare([(catalogue_state("psi1", 0.25), assemble(
        SystemParams(a, L, AXES["z"], AXES["z"], mode)))
        for a, L in ((0.05, 0.05), (0.5, 0.05), (2.41, 1.04)) for mode in (AV, TH)])
    taus = time_grid(50.0, 400)
    _, C = kernels.trajectory_kernel(group, np.arange(6), taus)
    calls = {"_bisect_crossing": [], "_golden_extremum": []}
    for name, made in calls.items():
        def recording(*args, original=getattr(kernels, name), made=made):
            result = original(*args)
            made.append((args, result))
            return result

        monkeypatch.setattr(kernels, name, recording)
    events = kernels.events_kernel(group, taus, C)
    assert events[:, 2].any()
    assert len(calls["_bisect_crossing"]) == 1 and len(calls["_golden_extremum"]) == 2
    (dip_args, (_, dip_values)), (max_args, _) = calls["_golden_extremum"]
    assert dip_args[4] < 0 < max_args[4]
    assert (dip_values <= kernels.EPS_DEAD).any()


def test_events_same_for_any_refinement_group(monkeypatch):
    # 9 cells of 2 modes: one group by default, groups of 16 and 2
    # trajectories, or 9 groups of one cell; evolve's events come from the
    # curve's trajectories
    taus = time_grid(10.0, 60)
    spec = make_spec(a_over_omega=(0.05, 1.23, 2.41), omega_L=(0.05, 1.04, 3.02),
                     tau=tuple(taus))
    assert run_curve(spec)[2] is None
    want = run_events(spec)
    assert sweeps.REFINE_TRAJECTORIES > want.shape[0] * want.shape[1]
    for size in (1, 16, None):
        if size is not None:
            monkeypatch.setattr(sweeps, "REFINE_TRAJECTORIES", size)
        assert np.array_equal(run_events(spec), want, equal_nan=True)
        concurrence, _, events = run_curve(spec, events=True)
        assert np.array_equal(events, want, equal_nan=True)
        assert np.array_equal(concurrence, run_curve(spec)[0])


def test_region_map_labels_and_counts():
    labels = run_region_map(region_spec(n=16))
    assert labels.shape == (16, 16) and labels.dtype == np.int8
    counts = np.bincount(labels.ravel(), minlength=len(LABEL_NAMES))
    assert counts.sum() == 16 * 16
    assert counts.size == len(LABEL_NAMES)


def test_region_map_requires_a_by_L_cells():
    # the labels are an (na, nL) grid
    labels = run_region_map(make_spec(a_over_omega=(0.5, 1.0), omega_L=(0.5, 1.0, 2.0),
                                      tau=None))
    assert labels.shape == (2, 3)


def test_region_rule_truth_table(monkeypatch):
    # crafted event rows at and beside the floor and 0.9 of it: a mode shows
    # the event above the floor, or above 0.9 of it when the other mode is
    # above the floor. Each entry is (flag, amplitude, level): level 0 at or
    # below 0.9 floor or unflagged, 1 up to the floor, 2 above it
    floor = sweeps.REGION_MIN_AMPLITUDE
    band = 0.9 * floor
    entries = [(1.0, 0.0, 0), (1.0, np.nextafter(band, 0.0), 0), (1.0, band, 0),
               (0.0, 0.5, 0), (1.0, np.nextafter(band, 1.0), 1),
               (1.0, np.nextafter(floor, 0.0), 1), (1.0, floor, 1),
               (1.0, np.nextafter(floor, 1.0), 2), (1.0, 0.5, 2)]
    # LABEL_NAMES codes by the (accelerated, thermal) levels
    table = {(0, 0): 0, (0, 1): 0, (0, 2): 2, (1, 0): 0, (1, 1): 0, (1, 2): 3,
             (2, 0): 1, (2, 1): 3, (2, 2): 3}
    pairs = [(acc, th) for acc in entries for th in entries]
    want = [table[acc[2], th[2]] for acc, th in pairs]
    for kind, initial, flag_field, amp_field in (
            ("revival", ("psi1", 0.25), "revival", "revival_amplitude"),
            # |E> starts at C = 0, so the amplitude is the maximum itself
            ("enhancement", ("E", None), "enhancement", "max_concurrence")):
        for modes in ((AV, TH), (TH, AV)):
            spec = make_spec(initial=catalogue_state(*initial), bath_modes=modes,
                             a_over_omega=tuple(range(1, len(pairs) + 1)), tau=None,
                             event_kind=kind)
            rows = np.zeros((len(pairs), 2, len(EVENT_FIELDS)))
            for mode, side in ((AV, 0), (TH, 1)):
                entry = np.array([pair[side] for pair in pairs])
                rows[:, modes.index(mode), EVENT_FIELDS.index(flag_field)] = entry[:, 0]
                rows[:, modes.index(mode), EVENT_FIELDS.index(amp_field)] = entry[:, 1]
            monkeypatch.setattr(sweeps, "run_events", lambda _spec, rows=rows: rows)
            assert run_region_map(spec).ravel().tolist() == want, (kind, modes)


def test_region_cells_agree_with_single_mode_runs():
    # a cell labelled "both" must be flagged by each mode run individually
    spec = region_spec(n=12, initial=("psi1", 0.25))
    labels = run_region_map(spec)
    taus = sweeps.HORIZON
    checked = 0
    a_values, L_values = spec.a_over_omega, spec.omega_L
    for i in np.argsort(labels.ravel())[::-1][:3]:
        ai, lj = divmod(int(i), len(L_values))
        if labels[ai, lj] != 3:
            continue
        for mode in (AV, TH):
            cs = _coeffs_for(spec, mode, float(a_values[ai]), float(L_values[lj]))
            ev = detect_events(compute_trajectory(spec.initial, cs, taus))
            assert ev.revival and ev.revival_amplitude > sweeps.REGION_MIN_AMPLITUDE
        checked += 1
    assert checked > 0


def test_refinement_reports_boundary_cells_only():
    # fine grid holds 2n-1 points on the same ranges, so fine[2i] == coarse[i]
    coarse_spec = region_spec(n=15, astart=0.2, Lstart=0.33)
    fine_spec = region_spec(n=29, astart=0.2, Lstart=0.33)
    coarse = run_region_map(coarse_spec)
    fine = run_region_map(fine_spec)
    assert np.allclose(fine_spec.a_over_omega[::2], coarse_spec.a_over_omega)
    flipped = refinement_boundary_cells(coarse, fine)
    interior = (15 - 2) * (15 - 2)
    assert len(flipped) <= 0.05 * interior
    for (i, j) in flipped:
        assert 0 < i < 14 and 0 < j < 14
    with pytest.raises(DomainError):
        refinement_boundary_cells(coarse, coarse)
