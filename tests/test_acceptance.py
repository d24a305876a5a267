"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line once its
assertions at the stated tolerances have run. Figure-level checks run the
shipped presets (region maps at reduced grid resolution for runtime; the
ranges and physics are the presets').
"""

import numpy as np
import pytest

import atompair as ap
from atompair import BathKind, EntanglementEvents, XState, catalogue_state
from atompair.cli import main as cli_main
from atompair.config import load_preset, parse_config
from atompair.kernels import f11_kernel, f12_kernel, f12_thermal_kernel
from atompair.sweeps import run_curve, run_events, run_region_map
from conftest import AXES, random_coeffs, random_xstate, rk4_evolve
from oracles import basis_transform, fourier_oracle

AV, TH = BathKind.ACCELERATED_VACUUM, BathKind.THERMAL_AT_UNRUH
EPS_DEAD = 1e-12


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def coeffs_at(a, L, bath=AV, d1="z", d2="z"):
    return ap.assemble(ap.SystemParams(a_over_omega=a, omega_L=L,
                                       dipole1=AXES[d1], dipole2=AXES[d2],
                                       bath=bath))


def downsampled(preset_name, num):
    cfg = load_preset(preset_name)
    raw = dict(cfg.raw)
    raw["grid"] = {axis: dict(body, num=num)
                   for axis, body in raw["grid"].items()}
    return parse_config(raw, source=f"preset:{preset_name}@{num}")


def test_criterion_1_spectral_expansions():
    a = 1e-4
    for L in (0.3, 1.0, 3.0):
        for (i, j) in ((1, 1), (2, 2), (3, 3)):
            diff = abs(f12_kernel(i, j, 1.0, a, L, False)
                       - f12_thermal_kernel(i, j, 1.0, L))
            assert diff < 1e-6, (i, j, L, diff)
        # the skew pair vanishes at first order in the acceleration
        for (i, j) in ((1, 3), (3, 1)):
            assert f12_thermal_kernel(i, j, 1.0, L) == 0.0
            v_a = f12_kernel(i, j, 1.0, a, L, False)
            v_2a = f12_kernel(i, j, 1.0, 2.0 * a, L, False)
            assert abs(v_a) < 3.0 * a * L
            assert v_2a / v_a == pytest.approx(2.0, rel=1e-3)
    _ok(1, "small-acceleration expansions match the static shapes "
           "(diagonals to 1e-6, skew pair linear in a)")


def test_criterion_2_oracle_equivalence(rng):
    components = [(1, 1), (2, 2), (3, 3), (1, 3), (3, 1)]
    for k in range(20):
        lam = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.2, 2.0)
        L = rng.uniform(0.2, 2.0)
        if k % 5 == 0:
            got = fourier_oracle(1, 1, lam, a, same_atom=True)
            want = f11_kernel(lam, a)
        else:
            i, j = components[rng.integers(0, len(components))]
            got = fourier_oracle(i, j, lam, a, L)
            want = f12_kernel(i, j, lam, a, L, False)
        assert abs(got - want) <= 1e-4 * max(abs(want), 1e-8), (lam, a, L)
    _ok(2, "20 random spectral points agree with the numeric Fourier "
           "transform oracle to 1e-4 relative")


def test_criterion_3_initial_decay_rate():
    h = 1e-6
    for a in (0.25, 1.0, 2.0):
        for bath, shape in ((AV, 1.0 + a * a), (TH, 1.0)):
            cs = coeffs_at(a, 1e4, bath)
            traj = ap.compute_trajectory(catalogue_state("S"), cs,
                                         np.array([0.0, h]))
            slope = (traj.concurrence[0] - traj.concurrence[1]) / h
            expected = shape / np.tanh(np.pi / (2.0 * a))
            assert slope == pytest.approx(expected, rel=1e-3), (a, bath)
    _ok(3, "initial concurrence decay rates at large separation match "
           "(1+a^2) coth(pi/2a) accelerated and coth(pi/2a) static")


def test_criterion_4_asymptotic_state():
    for a in np.linspace(0.05, 3.0, 10):
        for L in np.linspace(0.1, 5.0, 10):
            for bath in (AV, TH):
                cs = coeffs_at(float(a), float(L), bath)
                asym = ap.asymptotic_state(cs)
                num = cs.A1 ** 3 - cs.A1 * cs.A2 ** 2 - cs.A1 * cs.B1 ** 2 + cs.A1 * cs.B2 ** 2
                den = 4.0 * (cs.A1 ** 3 - cs.A1 * cs.A2 ** 2
                             - cs.A2 * cs.B1 * cs.B2 + cs.A1 * cs.B2 ** 2)
                closed = num / den
                assert abs(asym.pAA - closed) < 1e-10
                assert abs(asym.pSS - closed) < 1e-10
                assert ap.concurrence_x(asym) == 0.0
    _ok(4, "asymptotic populations match the closed form to 1e-10 and the "
           "asymptotic state is exactly separable on the 10x10 grid")


def test_criterion_5_dynamics_invariants(rng):
    taus = np.linspace(0.0, 50.0, 11)
    for _ in range(100):
        cs = random_coeffs(rng)
        state = random_xstate(rng)
        for tau in taus:
            out = ap.evolve(state, cs, float(tau))
            assert abs(out.trace - 1.0) < 1e-10
            assert np.linalg.eigvalsh(basis_transform(out)).min() >= -1e-9
    for _ in range(10):
        cs = random_coeffs(rng)
        state = random_xstate(rng)
        t1, t2 = rng.uniform(0.05, 5.0, size=2)
        via = ap.evolve(ap.evolve(state, cs, t1), cs, t2)
        direct = ap.evolve(state, cs, t1 + t2)
        for attr in ("pGG", "pAA", "pSS", "pEE", "cAS", "cGE"):
            assert abs(getattr(via, attr) - getattr(direct, attr)) < 1e-10
    for _ in range(3):
        cs = random_coeffs(rng)
        state = random_xstate(rng)
        exact = ap.evolve(state, cs, 5.0)
        oracle = rk4_evolve(state, cs, 5.0, steps=50_000)
        for attr in ("pGG", "pAA", "pSS", "pEE", "cAS", "cGE"):
            assert abs(getattr(exact, attr) - getattr(oracle, attr)) < 1e-6
    _ok(5, "trace/positivity on 100 random trajectories, semigroup to 1e-10, "
           "RK4 oracle agreement to 1e-6 at tau=5")


def test_criterion_6_concurrence_oracle(rng):
    for _ in range(1000):
        state = random_xstate(rng)
        assert abs(ap.concurrence_x(state)
                   - ap.concurrence_wootters(basis_transform(state))) < 1e-10
    _ok(6, "closed-form X-state concurrence equals the spin-flip construction "
           "to 1e-10 on 1000 random states")


# ---------------------------------------------------------------------------
# criterion 7: qualitative figure reproduction


def _curves(preset_name):
    cfg = load_preset(preset_name)
    return {label: (spec, run_curve(spec))
            for label, spec in cfg.sweep_specs("evolve")}


def _events_by_mode(spec, result, cell_index):
    return {mode: EntanglementEvents.from_row(result.table[cell_index, mi])
            for mi, mode in enumerate(spec.bath_modes)}


def _alive_mask(curve, ci):
    acc = curve.concurrence[ci, 0]
    th = curve.concurrence[ci, 1]
    return (acc > EPS_DEAD) | (th > EPS_DEAD)


def test_criterion_7_fig1():
    for label, (spec, curve) in _curves("fig1").items():
        ai = spec.bath_modes.index(AV)
        ti = spec.bath_modes.index(TH)
        for ci in range(len(spec.cells())):
            acc = curve.concurrence[ci, ai]
            th = curve.concurrence[ci, ti]
            live = ((acc > EPS_DEAD) | (th > EPS_DEAD))[1:]
            assert np.all(acc[1:][live] < th[1:][live]), (label, ci)
    _ok("7/fig1", "parallel dipoles: accelerated concurrence decays below the "
                  "static-bath curve for |S> and |A> at every live sample")


def test_criterion_7_fig2():
    curves = _curves("fig2")
    for label, (spec, curve) in curves.items():
        ai = spec.bath_modes.index(AV)
        ti = spec.bath_modes.index(TH)
        for ci, cell in enumerate(spec.cells()):
            acc = curve.concurrence[ci, ai]
            th = curve.concurrence[ci, ti]
            live = ((acc > EPS_DEAD) | (th > EPS_DEAD))[1:]
            if label.startswith("S"):
                assert np.all(acc[1:][live] < th[1:][live]), (label, cell)
            elif cell["a_over_omega"] in (0.25, 1.0):
                # the subradiant protection wins at moderate acceleration
                assert np.all(acc[1:][live] > th[1:][live]), (label, cell)
    _ok("7/fig2", "crossed dipoles: |S> decays faster than static, |A> slower "
                  "at a/omega in {1/4, 1}")


def test_criterion_7_fig3():
    cfg = load_preset("fig3")
    for label, spec in cfg.sweep_specs("evolve"):
        result = run_events(spec)
        cell = next(ci for ci, c in enumerate(spec.cells())
                    if c["a_over_omega"] == pytest.approx(1.4))
        ev = _events_by_mode(spec, result, cell)
        if label.endswith("yy"):
            assert ev[AV].birth_time is not None
            assert ev[AV].max_concurrence > EPS_DEAD
        else:
            assert ev[AV].max_concurrence <= EPS_DEAD
        assert ev[TH].max_concurrence <= EPS_DEAD
    _ok("7/fig3", "at a/omega=7/5, omega L=2/3 entanglement is generated only "
                  "for the y-polarized accelerated pair")


def _entangled_intervals(values):
    mask = values > EPS_DEAD
    return (1 if mask[0] else 0) + int((np.diff(mask.astype(int)) == 1).sum())


def test_criterion_7_fig4():
    cfg = load_preset("fig4")
    for label, spec in cfg.sweep_specs("sweep"):
        if not label.endswith("yy"):
            continue
        result = run_events(spec)
        ai = spec.bath_modes.index(AV)
        ti = spec.bath_modes.index(TH)
        acc_intervals = _entangled_intervals(result.table[:, ai, 4])
        th_intervals = _entangled_intervals(result.table[:, ti, 4])
        assert th_intervals >= 2, "static bath should show a dark interval"
        assert acc_intervals == 1, "accelerated pair should not"
    _ok("7/fig4", "y-polarized static bath at a/omega=2/3 shows a dark "
                  "separation interval; the accelerated pair does not")


def test_criterion_7_fig6():
    cfg = load_preset("fig6")
    nonmonotone = []
    for label, spec in cfg.sweep_specs("sweep"):
        result = run_events(spec)
        ai = spec.bath_modes.index(AV)
        ti = spec.bath_modes.index(TH)
        th = result.table[:, ti, 4]
        assert np.all(np.diff(th) <= 1e-12), f"static max-C must be monotone ({label})"
        acc = result.table[:, ai, 4]
        nonmonotone.append(bool(np.any(np.diff(acc) > 1e-6)))
    assert any(nonmonotone)
    _ok("7/fig6", "at omega L=1/2 the static maximum falls monotonically with "
                  "acceleration; the accelerated one does not for at least one "
                  "polarization")


def test_criterion_7_fig7_fig8():
    for preset, expect in (("fig7", {"psi1-0.25": ("revival", "revival"),
                                     "psi1-0.75": ("enhancement", "enhancement")}),
                           ("fig8", {"psi1-0.25": ("revival", "none"),
                                     "psi1-0.75": ("none", "none")})):
        cfg = load_preset(preset)
        for label, spec in cfg.sweep_specs("evolve"):
            result = run_events(spec)
            ev = _events_by_mode(spec, result, 0)
            key = label.rsplit("_", 1)[0]
            want_acc, want_th = expect[key]
            for mode, want in ((AV, want_acc), (TH, want_th)):
                assert ev[mode].revival == (want == "revival"), (preset, label, mode)
                assert ev[mode].enhancement == (want == "enhancement"), (preset, label, mode)
    _ok("7/fig7-8", "parallel dipoles revive at p=1/4 and enhance at p=3/4 in "
                    "both modes; crossed dipoles revive only when accelerated "
                    "and never enhance")


def test_criterion_7_fig9():
    cfg = load_preset("fig9")
    for label, spec in cfg.sweep_specs("evolve"):
        result = run_events(spec)
        ev = _events_by_mode(spec, result, 0)
        if label.endswith("zx"):
            assert ev[AV].revival, label
            assert not ev[TH].revival, label
        else:
            assert ev[AV].revival and ev[TH].revival, label
    _ok("7/fig9", "ground/doubly-excited superpositions revive only in the "
                  "accelerated mode once the dipoles are crossed")


def test_criterion_7_region_maps():
    maps = {}
    for preset in ("fig10", "fig11", "fig12"):
        cfg = downsampled(preset, 80)
        (label, spec), = cfg.sweep_specs("region")
        maps[preset] = run_region_map(spec).counts()
    for preset in ("fig10", "fig11"):
        counts = maps[preset]
        assert counts["accelerated-only"] == 0, (preset, counts)
        assert counts["both"] > 0 and counts["thermal-only"] > 0
        assert counts["neither"] > 0
    counts = maps["fig12"]
    assert counts["accelerated-only"] > 0, counts
    assert counts["both"] > 0 and counts["thermal-only"] > 0 and counts["neither"] > 0
    _ok("7/fig10-12", "region maps reproduce the caption region types, with an "
                      "accelerated-only revival region only in the last map")


def test_criterion_8_determinism(tmp_path):
    for preset, command in (("fig7", "evolve"),):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert cli_main([command, "--preset", preset, "--out", str(out1),
                         "--threads", "1"]) == 0
        assert cli_main([command, "--preset", preset, "--out", str(out2),
                         "--threads", "3"]) == 0
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2
        for name in names1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    # a region run, downsampled for runtime, through the config path
    import yaml
    cfg = downsampled("fig12", 24)
    cfg_path = tmp_path / "fig12_small.yaml"
    raw = dict(cfg.raw)
    raw["name"] = "fig12small"
    cfg_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    outs = []
    for threads, sub in (("1", "m1"), ("4", "m4")):
        out = tmp_path / sub
        assert cli_main(["region", "--config", str(cfg_path), "--out", str(out),
                         "--threads", threads]) == 0
        outs.append(out)
    for p in sorted(outs[0].iterdir()):
        assert p.read_bytes() == (outs[1] / p.name).read_bytes(), p.name
    _ok(8, "preset outputs are byte-identical across reruns and thread counts")
