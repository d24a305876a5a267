import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import atompair
from atompair import ConfigError
from atompair.cli import main
from atompair.config import load_config, load_preset, preset_names
from oracles import read_table

MINIMAL = {
    "name": "mini",
    "initial_states": ["A"],
    "polarizations": [["z", "z"]],
    "fixed": {"a_over_omega": 1.0, "omega_L": 1.0},
    "grid": {"tau": {"stop": 5.0, "num": 40}},
    "outputs": ["curve", "events"],
}


def write_config(tmp_path, data, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def test_all_presets_parse():
    names = preset_names()
    assert {f"fig{k}" for k in range(1, 13)} <= set(names)
    for name in names:
        cfg = load_preset(name)
        assert cfg.name == name
        if name in ("fig10", "fig11", "fig12"):
            cfg.check_command("region")
        elif name in ("fig4", "fig5", "fig6"):
            cfg.check_command("sweep")
        else:
            cfg.check_command("evolve")


def test_unknown_preset():
    with pytest.raises(ConfigError):
        load_preset("fig99")


def test_minimal_config_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    specs = cfg.sweep_specs("evolve")
    assert len(specs) == 1
    label, spec = specs[0]
    assert label == "A_zz"
    assert len(spec.tau) == 40
    assert spec.label == "mini_A_zz"


def test_unknown_keys_rejected(tmp_path, capsys):
    bad = dict(MINIMAL, pizza=1)
    with pytest.raises(ConfigError, match="pizza"):
        load_config(write_config(tmp_path, bad))
    bad = dict(MINIMAL, grid={"tau": {"stop": 5.0, "num": 40, "shape": "log"}})
    with pytest.raises(ConfigError, match="grid.tau"):
        load_config(write_config(tmp_path, bad))
    bad = dict(MINIMAL, events={"kinds": "revival"})
    with pytest.raises(ConfigError, match="events"):
        load_config(write_config(tmp_path, bad))
    bad = dict(MINIMAL, gamma0_over_omega=1.0)  # removed knob: no output used it
    with pytest.raises(ConfigError, match="gamma0_over_omega"):
        load_config(write_config(tmp_path, bad))
    # removed knobs: the event horizon, the region floor and the atom order
    # are fixed; a config that still sets one exits 2 and names it
    for key, bad in (("horizon", dict(MINIMAL, horizon={"tau_max": 50.0})),
                     ("min_amplitude", dict(MINIMAL, events={"min_amplitude": 1.0e-3})),
                     ("atom_order", dict(MINIMAL, atom_order=21))):
        cfg = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match=rf"unknown keys \['{key}'\]"):
            load_config(cfg)
        assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert f"unknown keys ['{key}']" in capsys.readouterr().err
    # a file that is not YAML, or is empty, exits 2 naming the file
    for text, message in (("name: [unclosed\n", "YAML parse error"), ("", "empty config")):
        cfg = tmp_path / "raw.yaml"
        cfg.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"raw.yaml: {message}"):
            load_config(cfg)
        assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert f"raw.yaml: {message}" in err and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()


def test_physical_validation(tmp_path):
    bad = dict(MINIMAL, fixed={"a_over_omega": 1.0, "omega_L": 0.0})
    with pytest.raises(ConfigError, match=r"fixed\.omega_L: omega_L must be finite "
                                          r"and > 0, got 0\.0"):
        load_config(write_config(tmp_path, bad))
    bad = dict(MINIMAL, fixed={"a_over_omega": -0.5, "omega_L": 1.0})
    with pytest.raises(ConfigError, match=r"fixed\.a_over_omega: a_over_omega must be "
                                          r"finite and >= 0, got -0\.5"):
        load_config(write_config(tmp_path, bad))
    # a grid start takes the same bound, in the same words
    for axis, other, start, text in (("a_over_omega", "omega_L", -0.5, ">= 0, got -0.5"),
                                     ("omega_L", "a_over_omega", 0.0, "> 0, got 0.0")):
        bad = dict(MINIMAL, fixed={other: 1.0},
                   grid={"tau": MINIMAL["grid"]["tau"],
                         axis: {"start": start, "stop": 2.0, "num": 2}})
        with pytest.raises(ConfigError, match=re.escape(
                f"grid.{axis}.start: {axis} must be finite and {text}")):
            load_config(write_config(tmp_path, bad))
    bad = dict(MINIMAL, initial_states=[{"family": "psi1", "p": 1.5}])
    with pytest.raises(ConfigError, match="p"):
        load_config(write_config(tmp_path, bad))
    bad = dict(MINIMAL, polarizations=[["z"]])
    with pytest.raises(ConfigError, match="polarizations"):
        load_config(write_config(tmp_path, bad))
    bad = dict(MINIMAL, bath_modes=["accelerated", "accelerated"])
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(write_config(tmp_path, bad))
    # non-finite numbers are rejected where they are read, naming the key
    nan, inf = float("nan"), float("inf")
    for key, bad in (
            ("fixed.a_over_omega", dict(MINIMAL, fixed={"a_over_omega": nan, "omega_L": 1.0})),
            ("fixed.omega_L", dict(MINIMAL, fixed={"a_over_omega": 1.0, "omega_L": inf}))):
        with pytest.raises(ConfigError, match=re.escape(key) + ": must be finite"):
            load_config(write_config(tmp_path, bad))
    # initial_states must be a list, as polarizations must
    for entry in (5, "SA"):
        with pytest.raises(ConfigError, match="initial_states: expected a list"):
            load_config(write_config(tmp_path, dict(MINIMAL, initial_states=entry)))
    # an integer beyond the float range is not finite either
    bad = dict(MINIMAL, fixed={"a_over_omega": 10 ** 400, "omega_L": 1.0})
    with pytest.raises(ConfigError, match=r"fixed\.a_over_omega: must be finite"):
        load_config(write_config(tmp_path, bad))
    # unknown keys of mixed type are listed, not sorted into a TypeError
    bad = dict(MINIMAL)
    bad[7] = 1
    bad["pizza"] = 2
    with pytest.raises(ConfigError, match=r"top level: unknown keys \[7, 'pizza'\]"):
        load_config(write_config(tmp_path, bad))
    # a bath mode or an output that is not a known name names its entry
    for key, bad in (("bath_modes[0]", dict(MINIMAL, bath_modes=[["accelerated"]])),
                     ("outputs[0]", dict(MINIMAL, outputs=["picture"]))):
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(write_config(tmp_path, bad))
    # an integer literal too long for int() is a config error, not a crash
    text = yaml.safe_dump(dict(MINIMAL, fixed={"a_over_omega": 7, "omega_L": 1.0}))
    big = tmp_path / "big.yaml"
    big.write_text(text.replace("a_over_omega: 7", "a_over_omega: " + "1" * 5000),
                   encoding="utf-8")
    with pytest.raises(ConfigError, match="big.yaml"):
        load_config(big)
    # a time axis whose samples round together names its key
    for key, bad in (
            ("grid.tau", dict(MINIMAL, grid={"tau": {"stop": 5e-324, "num": 40}})),
            ("grid.tau", dict(MINIMAL, grid={"tau": {"stop": 5e-324, "num": 40,
                                                     "spacing": "linear"}}))):
        with pytest.raises(ConfigError, match=re.escape(key) + ": .*increase strictly"):
            load_config(write_config(tmp_path, bad))


def test_axis_must_be_fixed_or_grid(tmp_path):
    bad = dict(MINIMAL, fixed={"a_over_omega": 1.0})
    with pytest.raises(ConfigError, match="omega_L"):
        load_config(write_config(tmp_path, bad))
    bad = dict(MINIMAL,
               fixed={"a_over_omega": 1.0, "omega_L": 1.0},
               grid={"tau": {"stop": 5.0, "num": 40},
                     "omega_L": {"start": 0.1, "stop": 1.0, "num": 5}})
    with pytest.raises(ConfigError, match="omega_L"):
        load_config(write_config(tmp_path, bad))


def test_command_requirements(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    with pytest.raises(ConfigError, match="outputs: `sweep` needs the max_concurrence output"):
        cfg.check_command("sweep")
    with pytest.raises(ConfigError, match="outputs: `region` needs the region output"):
        cfg.check_command("region")
    events_only = load_config(write_config(tmp_path, dict(MINIMAL, outputs=["events"]), "c1.yaml"))
    with pytest.raises(ConfigError, match="outputs: `evolve` needs the curve output"):
        events_only.check_command("evolve")
    no_states = dict(MINIMAL)
    del no_states["initial_states"]
    path2 = write_config(tmp_path, no_states, "c2.yaml")
    # coeffs needs no initial state
    assert run_cli(["coeffs", "--config", path2, "--out", tmp_path / "c2"]) == 0
    with pytest.raises(ConfigError, match="initial_states"):
        load_config(path2).check_command("evolve")


def test_run_input_rules_are_config_errors(tmp_path, capsys):
    # the rules the sweep layer relies on without checking them: each is a
    # config error naming its key, and the CLI exits 2 before --out exists
    small = {"start": 0.5, "stop": 2.0, "num": 2}
    region = dict(MINIMAL, fixed={}, grid={"a_over_omega": small, "omega_L": small},
                  outputs=["region"])
    sweep = dict(MINIMAL, fixed={"a_over_omega": 1.0}, grid={"omega_L": small},
                 outputs=["max_concurrence"])
    for command, data, key in (
            ("evolve", dict(MINIMAL, bath_modes=[]), "bath_modes"),
            ("region", dict(region, events={"kind": "both"}), "events.kind"),
            ("region", dict(region, bath_modes=["thermal"]), "bath_modes"),
            ("region", dict(region, fixed={"omega_L": 1.0}, grid={"a_over_omega": small}),
             "grid.omega_L"),
            ("sweep", dict(sweep, fixed={"a_over_omega": 1.0, "omega_L": [0.5, 2.0]}, grid={}),
             "grid"),
            ("sweep", dict(sweep, fixed={}, grid={"a_over_omega": small, "omega_L": small}),
             "grid"),
            ("evolve", dict(MINIMAL, outputs=["events"]), "outputs"),
            # the parser's own rules on the shape and range of each entry
            ("evolve", dict(MINIMAL, name="a/b"), "name"),
            ("evolve", dict(MINIMAL, title=5), "title"),
            ("evolve", dict(MINIMAL, fixed=[1.0, 1.0]), "fixed"),
            ("evolve", dict(MINIMAL, fixed={"a_over_omega": "fast", "omega_L": 1.0}),
             "fixed.a_over_omega"),
            ("evolve", dict(MINIMAL, initial_states=[{"family": "psi3", "p": 0.2}]),
             "initial_states[0].family"),
            ("evolve", dict(MINIMAL, initial_states=[5]), "initial_states[0]"),
            # the rules of the owners, each reported at its key
            ("evolve", dict(MINIMAL, initial_states=["psi1"]), "initial_states[0]"),
            ("evolve", dict(MINIMAL, initial_states=["Q"]), "initial_states[0]"),
            ("evolve", dict(MINIMAL, initial_states=[{"family": "psi2", "p": 1.5}]),
             "initial_states[0].p"),
            ("evolve", dict(MINIMAL, polarizations=[[[0, 0, 0], "z"]]), "polarizations[0][0]"),
            ("evolve", dict(MINIMAL, fixed={"a_over_omega": 1.0, "omega_L": 0.0}),
             "fixed.omega_L"),
            ("evolve", dict(MINIMAL, fixed={"a_over_omega": -0.5, "omega_L": 1.0}),
             "fixed.a_over_omega"),
            ("evolve", dict(MINIMAL, fixed={"a_over_omega": [1.0, -0.5], "omega_L": 1.0}),
             "fixed.a_over_omega[1]"),
            ("evolve", dict(MINIMAL, polarizations=[]), "polarizations"),
            ("evolve", dict(MINIMAL, polarizations=[["w", "z"]]), "polarizations[0][0]"),
            ("evolve", dict(MINIMAL, polarizations=[[[1.0, 0.0], "z"]]), "polarizations[0][0]"),
            ("evolve", dict(MINIMAL, outputs=[]), "outputs"),
            ("evolve", dict(MINIMAL, outputs=["curve", "curve"]), "outputs[1]"),
            ("evolve", dict(MINIMAL, outputs="curve"), "outputs"),
            ("evolve", dict(MINIMAL, bath_modes=["thermal", 1]), "bath_modes[1]"),
            ("evolve", dict(MINIMAL, outputs=["curve", 1]), "outputs[1]"),
            ("evolve", dict(MINIMAL, grid={"tau": {"num": 40}}), "grid.tau.stop"),
            ("evolve", dict(MINIMAL, grid={"tau": {"stop": 5.0, "num": 4.5}}), "grid.tau.num"),
            ("evolve", dict(MINIMAL, grid={"tau": {"stop": 5.0, "num": 1}}), "grid.tau.num"),
            ("region", dict(region, grid={"a_over_omega": dict(small, start=-1.0),
                                          "omega_L": small}), "grid.a_over_omega.start"),
            ("region", dict(region, grid={"a_over_omega": small,
                                          "omega_L": dict(small, start=0.0)}),
             "grid.omega_L.start"),
            ("region", dict(region, grid={"a_over_omega": dict(small, stop=0.5),
                                          "omega_L": small}), "grid.a_over_omega.stop")):
        cfg = write_config(tmp_path, data, "rule.yaml")
        with pytest.raises(ConfigError, match=f": {re.escape(key)}: "):
            load_config(cfg).sweep_specs(command)
        out = tmp_path / "never"
        assert run_cli([command, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f": {key}: " in err and "Traceback" not in err, err
        assert not out.exists()


def test_vector_polarizations(tmp_path):
    data = dict(MINIMAL, polarizations=[[[0.0, 0.0, 2.0], "x"]])
    cfg = load_config(write_config(tmp_path, data))
    (label, spec), = cfg.sweep_specs("evolve")
    assert label == "A_pol0"
    assert np.allclose(spec.dipole1.as_array(), [0.0, 0.0, 1.0])
    # components whose squares overflow or underflow still normalise
    half = np.sqrt(0.5)
    for vec, want in (([1e200, 1e200, 0.0], [half, half, 0.0]),
                      ([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0])):
        cfg = write_config(tmp_path, dict(MINIMAL, name="vec",
                                          polarizations=[[vec, "z"]]))
        (_, spec), = load_config(cfg).sweep_specs("evolve")
        assert np.allclose(spec.dipole1.as_array(), want, rtol=0.0, atol=1e-15)
        assert run_cli(["coeffs", "--config", cfg, "--out", tmp_path / "o"]) == 0
    with pytest.raises(ConfigError, match=r"polarizations\[0\]\[0\]: dipole vector "
                                          r"must be finite and nonzero"):
        load_config(write_config(tmp_path, dict(MINIMAL, polarizations=[[[0, 0, 0], "z"]])))


# ---------------------------------------------------------------------------
# CLI end to end

def run_cli(args):
    return main([str(a) for a in args])


def test_cli_coeffs_stdout_and_file(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(MINIMAL, name="ctest"))
    assert run_cli(["coeffs", "--config", cfg, "--out", tmp_path / "o"]) == 0
    out = capsys.readouterr().out
    assert "A1" in out and "thermal" in out
    columns, rows = read_table(tmp_path / "o" / "ctest_coeffs.csv")
    assert columns[:3] == ["polarization", "a_over_omega", "omega_L"]
    # both bath modes x both atom orders for the single cell
    assert len(rows) == 4
    meta = json.loads((tmp_path / "o" / "ctest_coeffs.meta.json").read_text())
    assert meta["version"]
    assert meta["parameters"]["name"] == "ctest"


def test_cli_coeffs_orthogonal_dipoles(tmp_path):
    data = dict(MINIMAL, name="orth", polarizations=[["x", "y"]])
    cfg = write_config(tmp_path, data)
    assert run_cli(["coeffs", "--config", cfg, "--out", tmp_path / "o"]) == 0
    columns, rows = read_table(tmp_path / "o" / "orth_coeffs.csv")
    a2 = columns.index("A2")
    b2 = columns.index("B2")
    for row in rows:
        assert float(row[a2]) == 0.0
        assert float(row[b2]) == 0.0


def test_cli_coeffs_small_acceleration_rows_agree(tmp_path):
    data = dict(MINIMAL, name="tiny", fixed={"a_over_omega": 1e-4, "omega_L": 1.0})
    cfg = write_config(tmp_path, data)
    assert run_cli(["coeffs", "--config", cfg, "--out", tmp_path / "o"]) == 0
    columns, rows = read_table(tmp_path / "o" / "tiny_coeffs.csv")
    acc = [r for r in rows if r[columns.index("bath")] == "accelerated"][0]
    th = [r for r in rows if r[columns.index("bath")] == "thermal"][0]
    for col in ("A1", "B1", "A2", "B2"):
        k = columns.index(col)
        assert float(acc[k]) == pytest.approx(float(th[k]), abs=1e-6)


@pytest.mark.filterwarnings("error")
def test_cli_subnormal_acceleration_runs(tmp_path):
    # at a subnormal a/omega, 2 / a overflows and the static shapes stand in
    data = dict(MINIMAL, name="sub", polarizations=[["x", "z"], ["z", "z"]],
                fixed={"a_over_omega": 1.0e-310, "omega_L": 1.0})
    cfg = write_config(tmp_path, data)
    for command in ("evolve", "coeffs"):
        assert run_cli([command, "--config", cfg, "--out", tmp_path / command]) == 0
    columns, rows = read_table(tmp_path / "coeffs" / "sub_coeffs.csv")
    assert all(float(row[columns.index("A2")]) == 0.0 for row in rows if row[0] == "xz")


def test_cli_coeffs_order21_is_the_swapped_pair(tmp_path):
    """Each coeffs row in the order 21 is, field for field, the row of the
    swapped polarization pair in the order 12: crossed, orthogonal and
    vector pairs, with a/omega = 0 on the grid."""
    vec1, vec2 = [0.3, -0.5, 0.8], [-0.7, 0.2, 0.4]
    data = dict(MINIMAL, name="swap",
                polarizations=[["z", "x"], ["x", "z"], ["x", "y"], ["y", "x"],
                               [vec1, vec2], [vec2, vec1]],
                fixed={}, grid={"a_over_omega": {"start": 0.0, "stop": 2.0, "num": 3},
                                "omega_L": {"start": 0.002, "stop": 3.0, "num": 3}})
    cfg = write_config(tmp_path, data)
    assert run_cli(["coeffs", "--config", cfg, "--out", tmp_path / "o"]) == 0
    columns, rows = read_table(tmp_path / "o" / "swap_coeffs.csv")
    pol, order = columns.index("polarization"), columns.index("atom_order")
    values = columns.index("A1")
    swapped = {"zx": "xz", "xz": "zx", "xy": "yx", "yx": "xy", "pol4": "pol5", "pol5": "pol4"}
    table = {(row[pol], row[order], tuple(row[1:order])): row[values:] for row in rows}
    assert len(table) == len(rows) == 6 * 9 * 2 * 2
    for (label, atom_order, cell), fields in table.items():
        if atom_order == "21":
            assert fields == table[(swapped[label], "12", cell)], (label, cell)


def test_cli_evolve_roundtrip(tmp_path):
    cfg = write_config(tmp_path, dict(MINIMAL, name="ev"))
    out = tmp_path / "o"
    assert run_cli(["evolve", "--config", cfg, "--out", out]) == 0
    columns, rows = read_table(out / "ev_A_zz.csv")
    assert columns[:3] == ["a_over_omega", "omega_L", "tau"]
    assert len(rows) == 40
    data = np.array([[float(v) for v in row] for row in rows])
    assert data[0, columns.index("C_accelerated")] == pytest.approx(1.0)
    # events sidecar carries both modes
    events = json.loads((out / "ev_A_zz.events.json").read_text())
    assert set(events["cells"][0]["modes"]) == {"accelerated", "thermal"}
    # checksum in the meta sidecar matches the emitted bytes
    import hashlib
    meta = json.loads((out / "ev_A_zz.meta.json").read_text())
    digest = hashlib.sha256((out / "ev_A_zz.csv").read_bytes()).hexdigest()
    assert meta["files"]["ev_A_zz.csv"] == digest


def test_cli_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, dict(MINIMAL, name="det"))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(["evolve", "--config", cfg, "--out", out1, "--threads", 1]) == 0
    assert run_cli(["evolve", "--config", cfg, "--out", out2, "--threads", 3]) == 0
    for name in ("det_A_zz.csv", "det_A_zz.events.json", "det_A_zz.meta.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_sweep_output(tmp_path):
    data = dict(MINIMAL, name="sw", initial_states=["E"],
                fixed={"a_over_omega": 0.6666666666666666},
                grid={"omega_L": {"start": 0.3, "stop": 3.0, "num": 12}},
                outputs=["max_concurrence"])
    cfg = write_config(tmp_path, data)
    assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "o"]) == 0
    columns, rows = read_table(tmp_path / "o" / "sw_E_zz.csv")
    assert "max_C_accelerated" in columns and "tau_max_thermal" in columns
    assert len(rows) == 12


def test_cli_sweep_runs_events_once(tmp_path, monkeypatch):
    from atompair import kernels
    original = kernels.events_kernel
    seen = []

    def counting(stack, taus, C):
        seen.append(len(C))
        return original(stack, taus, C)

    monkeypatch.setattr(kernels, "events_kernel", counting)
    data = dict(MINIMAL, name="once", initial_states=["E"],
                fixed={"a_over_omega": 0.6666666666666666},
                grid={"omega_L": {"start": 0.5, "stop": 2.0, "num": 2}},
                outputs=["max_concurrence", "events"])
    cfg = write_config(tmp_path, data)
    assert run_cli(["sweep", "--config", cfg, "--out", tmp_path / "o",
                    "--threads", 1]) == 0
    assert sum(seen) == 2 * 2  # cells x bath modes: one event pass
    columns, rows = read_table(tmp_path / "o" / "once_E_zz.csv")
    events = json.loads((tmp_path / "o" / "once_E_zz.events.json").read_text())
    for row, cell in zip(rows, events["cells"]):
        acc = cell["modes"]["accelerated"]
        assert float(row[columns.index("max_C_accelerated")]) == acc["max_concurrence"]
        assert float(row[columns.index("tau_max_accelerated")]) == acc["max_time"]


def test_cli_evolve_decomposes_each_generator_once(tmp_path, monkeypatch):
    # the curve and the events of a trajectory share one preparation
    from atompair import kernels
    original = kernels.eig_decompose
    seen = []

    def counting(M):
        seen.append(int(np.prod(np.shape(M)[:-2])))   # generators handed over
        return original(M)

    monkeypatch.setattr(kernels, "eig_decompose", counting)
    assert run_cli(["evolve", "--preset", "fig7", "--out", tmp_path / "o"]) == 0
    assert sum(seen) == 2 * 2  # initial states x bath modes
    assert len(list((tmp_path / "o").glob("*.events.json"))) == 2


def test_cli_region_output(tmp_path):
    data = dict(MINIMAL, name="rg",
                initial_states=[{"family": "psi2", "p": 0.2}],
                fixed={},
                grid={"a_over_omega": {"start": 0.2, "stop": 3.0, "num": 10},
                      "omega_L": {"start": 0.2, "stop": 5.0, "num": 10}},
                outputs=["region"])
    cfg = write_config(tmp_path, data)
    assert run_cli(["region", "--config", cfg, "--out", tmp_path / "o"]) == 0
    columns, rows = read_table(tmp_path / "o" / "rg_psi2-0.2_zz_region.csv")
    assert columns == ["a_over_omega", "omega_L", "label"]
    assert len(rows) == 100
    labels = {row[2] for row in rows}
    assert labels <= {"neither", "accelerated-only", "thermal-only", "both"}
    meta = json.loads((tmp_path / "o" / "rg_psi2-0.2_zz_region.meta.json").read_text())
    assert sum(meta["label_counts"].values()) == 100


# a rejected input must not print numpy warnings before its message
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_exit_codes(tmp_path, capsys):
    # configuration errors -> 2
    assert run_cli(["evolve", "--preset", "nosuch", "--out", tmp_path]) == 2
    bad = write_config(tmp_path, dict(MINIMAL, fixed={"a_over_omega": 1.0,
                                                      "omega_L": -1.0}))
    assert run_cli(["coeffs", "--config", bad, "--out", tmp_path / "o"]) == 2
    assert run_cli(["evolve", "--config", tmp_path / "missing.yaml"]) == 4
    # i/o errors -> 4 (output path collides with an existing file)
    cfg = write_config(tmp_path, dict(MINIMAL, name="io"), "io.yaml")
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    assert run_cli(["evolve", "--config", cfg, "--out", blocker / "sub"]) == 4
    # a config that is not UTF-8 text is a configuration error
    latin1 = tmp_path / "latin1.yaml"
    latin1.write_bytes(yaml.safe_dump(dict(MINIMAL, title="café"),
                                      allow_unicode=True).encode("latin-1"))
    assert run_cli(["evolve", "--config", latin1, "--out", tmp_path / "o"]) == 2
    # a config error leaves no output directory behind, for every command
    for command, data in (("evolve", dict(MINIMAL, grid={})),
                          ("sweep", MINIMAL), ("region", MINIMAL)):
        cfg = write_config(tmp_path, data, f"{command}.yaml")
        out = tmp_path / f"never_{command}"
        assert run_cli([command, "--config", cfg, "--out", out]) == 2
        assert not out.exists()
    capsys.readouterr()
    # the psi1/psi2 weight is given per state: a grid.p axis, a bare family
    # and a family without p are config errors naming the key or the entry
    p_grid = dict(MINIMAL["grid"], p={"start": 0.2, "stop": 0.8, "num": 3})
    for states, grid, message in (
            (["A"], p_grid, "grid: unknown keys ['p']"),
            (["A", "psi1"], MINIMAL["grid"], "initial_states[1]: state 'psi1' needs the weight p"),
            (["E", {"family": "psi2"}], MINIMAL["grid"], "initial_states[1].p: required")):
        cfg = write_config(tmp_path, dict(MINIMAL, initial_states=states, grid=grid),
                           "paxis.yaml")
        for command in ("evolve", "sweep", "region"):
            assert run_cli([command, "--config", cfg, "--out", tmp_path / "p"]) == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err, err
    assert not (tmp_path / "p").exists()
    # a grid too large to allocate (10**15 samples, 7 PiB, beyond any
    # address space) is a computation error, with no output directory
    vast = dict(MINIMAL, grid=dict(MINIMAL["grid"], omega_L={"start": 0.1, "stop": 1.0,
                                                             "num": 10 ** 15}),
                fixed={"a_over_omega": 1.0})
    cfg = write_config(tmp_path, vast, "vast.yaml")
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "vast"]) == 3
    err = capsys.readouterr().err
    assert "computation error: " in err and "Traceback" not in err, err
    assert not (tmp_path / "vast").exists()
    # two entries that would share a panel's file stem are config errors
    # naming both entries, with no output directory
    swept = dict(MINIMAL, fixed={"a_over_omega": 0.6666666666666666},
                 grid={"omega_L": {"start": 0.5, "stop": 2.0, "num": 2}},
                 outputs=["max_concurrence", "events"])
    for command, data, paths in (
            ("sweep", dict(swept, initial_states=[{"family": "psi1", "p": 0.25},
                                                  {"family": "psi1", "p": 0.250000001}]),
             ("initial_states[1] x polarizations[0]", "initial_states[0] x polarizations[0]")),
            ("sweep", dict(swept, initial_states=["E", "E"],
                           polarizations=[["z", "z"], ["z", "z"]]),
             ("initial_states[0] x polarizations[1]", "initial_states[0] x polarizations[0]"))):
        cfg = write_config(tmp_path, data, "clash.yaml")
        out = tmp_path / "clash"
        assert run_cli([command, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "Traceback" not in err
        assert all(path in err for path in paths), err
        assert not out.exists()
    # parameters whose coefficients overflow are a computation error
    for fixed in ({"a_over_omega": 1e300, "omega_L": 1.0},
                  {"a_over_omega": 1.0, "omega_L": 1e300}):
        cfg = write_config(tmp_path, dict(MINIMAL, fixed=fixed), "huge.yaml")
        assert run_cli(["coeffs", "--config", cfg, "--out", tmp_path / "c"]) == 3
        assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "c"]) == 3
        assert "coefficients must be finite" in capsys.readouterr().err
    # the same through the group set-up of sweep and region, with no warning
    huge = {"start": 1e299, "stop": 1e300, "num": 2}
    small = {"start": 0.5, "stop": 2.0, "num": 2}
    for command, fixed, grid in (
            ("sweep", {"a_over_omega": 1e300}, {"omega_L": small}),
            ("sweep", {"a_over_omega": 1.0}, {"omega_L": huge}),
            ("region", {}, {"a_over_omega": huge, "omega_L": small}),
            ("region", {}, {"a_over_omega": small, "omega_L": huge})):
        outputs = ["region"] if command == "region" else ["max_concurrence", "events"]
        cfg = write_config(tmp_path, dict(MINIMAL, initial_states=["E"], fixed=fixed,
                                          grid=grid, outputs=outputs), "huge.yaml")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli([command, "--config", cfg, "--out", tmp_path / "h"]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "coefficients must be finite" in capsys.readouterr().err
    # at this ill-conditioned small omega_L the eig path takes pGG below 0
    # and the clamped concurrence finds the state not positive; those rows
    # are evaluated again on the fallback, so both commands run, with
    # nonnegative populations
    thin = dict(MINIMAL, initial_states=["E"], bath_modes=["thermal"],
                fixed={"a_over_omega": 0.3, "omega_L": 1.0e-4},
                grid={"tau": {"stop": 50.0, "num": 400}})
    swept = dict(thin, fixed={"a_over_omega": 0.3},
                 grid={"omega_L": {"start": 1.0e-4, "stop": 2.0e-4, "num": 2}},
                 outputs=["max_concurrence", "events"])
    for command, data in (("evolve", thin), ("sweep", swept)):
        cfg = write_config(tmp_path, data, "thin.yaml")
        assert run_cli([command, "--config", cfg, "--out", tmp_path / command]) == 0
        assert "Traceback" not in capsys.readouterr().err
    columns, rows = read_table(tmp_path / "evolve" / "mini_E_zz.csv")
    pops = np.array([[float(v) for v in row] for row in rows])[:, columns.index("pGG_thermal"):]
    assert pops.shape == (400, 4) and pops.min() >= 0.0
    # a time beyond the propagator's range is a computation error, with no
    # warning: on the expm fallback (cond 7.8e13) the scaling by 2**-k works
    # for k > 1023 and an infinite norm is rejected; on the eig path,
    # populations that overflow are rejected, and so is a tau at which the
    # roundoff of the zero eigenvalue would drift the stationary populations
    # (at a = omega_L = 1 the trace read 0.583 at tau = 1e17, with exit 0)
    for fixed, stop in (({"a_over_omega": 0.05, "omega_L": 1.0e-6}, 1.0e308),
                        ({"a_over_omega": 0.3, "omega_L": 1.0e-7}, 1.0e300),
                        ({"a_over_omega": 1.0, "omega_L": 1.0}, 1.0e17)):
        far = dict(MINIMAL, initial_states=["E"], bath_modes=["accelerated"], fixed=fixed,
                   grid={"tau": {"stop": stop, "num": 40, "spacing": "linear"}},
                   outputs=["curve"])
        cfg = write_config(tmp_path, far, "far.yaml")
        assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "f"]) == 3
        err = capsys.readouterr().err
        assert "computation error" in err and "Traceback" not in err
    # a time grid that overflows, or that time_grid rejects, is a
    # configuration error naming its key
    for key, bad in (("grid.tau", dict(MINIMAL, grid={"tau": {"stop": 1e308, "num": 40}})),
                     ("grid.tau", dict(MINIMAL, grid={"tau": {"stop": -1, "num": 40}})),
                     ("grid.tau", dict(MINIMAL, grid={"tau": {"stop": 5.0,
                                                          "spacing": "cubic"}}))):
        cfg = write_config(tmp_path, bad, "grid.yaml")
        assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "g"]) == 2
        assert key in capsys.readouterr().err


def test_cli_sidecars_name_every_file(tmp_path):
    """Each meta.json lists exactly the other files of its panel, with
    their sha256, for every command."""
    import hashlib
    region_grid = {"a_over_omega": {"start": 0.5, "stop": 2.0, "num": 3},
                   "omega_L": {"start": 0.5, "stop": 2.0, "num": 3}}
    runs = (
        ("coeffs", MINIMAL, (".csv",)),
        ("evolve", MINIMAL, (".csv", ".events.json")),
        ("sweep", dict(MINIMAL, initial_states=["E"],
                       fixed={"a_over_omega": 0.6666666666666666},
                       grid={"omega_L": {"start": 0.5, "stop": 2.0, "num": 2}},
                       outputs=["max_concurrence", "events"]),
         (".csv", ".events.json")),
        ("region", dict(MINIMAL, initial_states=[{"family": "psi2", "p": 0.2}],
                        fixed={}, grid=region_grid, outputs=["region"]),
         (".csv",)),
    )
    for command, data, suffixes in runs:
        cfg = write_config(tmp_path, dict(data, name=f"m{command}"), f"{command}.yaml")
        out = tmp_path / command
        assert run_cli([command, "--config", cfg, "--out", out]) == 0
        files = {p.name for p in out.iterdir()}
        metas = sorted(name for name in files if name.endswith(".meta.json"))
        assert metas
        listed = set()
        for meta_name in metas:
            stem = meta_name[:-len(".meta.json")]
            meta = json.loads((out / meta_name).read_text(encoding="utf-8"))
            assert meta["command"] == command
            assert set(meta["files"]) == {stem + suffix for suffix in suffixes}
            for name, digest in meta["files"].items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
            listed |= set(meta["files"])
        assert listed | set(metas) == files


def test_cli_computation_exit_code(tmp_path, monkeypatch):
    import atompair.cli as cli_mod
    from atompair.errors import ComputationError

    def boom(config, out_dir):
        raise ComputationError("synthetic failure")

    monkeypatch.setitem(cli_mod._HANDLERS, "evolve", boom)
    cfg = write_config(tmp_path, dict(MINIMAL, name="cc"))
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "o"]) == 3


def test_cli_import_loads_no_scipy():
    # the numeric Fourier oracle and its scipy quadrature live in tests/
    src = Path(atompair.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys, atompair.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_threads_validation(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "o",
                    "--threads", 0]) == 2
