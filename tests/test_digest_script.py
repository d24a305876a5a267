"""The byte-identity tool keeps running and keeps covering the retry, the
CSV formatter's fallback, the refinement of certified dips and the bath
modes listed in either order or alone.

``scripts/preset_digests.py`` is how two checkouts are compared output by
output. A generated config that the schema stops accepting would make it
exit early, and a run that no longer reaches the retry on the fallback,
or no longer certifies dips, would let a change of that rule pass unseen.
These tests fail instead.
"""

import importlib.util
from pathlib import Path

import yaml

from atompair import BathKind, cli, kernels, sweeps
from atompair.config import parse_config

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "preset_digests.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("preset_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generated_configs_parse(tmp_path):
    digests = _load_script()
    names = set()
    orders = set()
    for _, argv in digests._runs(tmp_path):
        if "--config" in argv:
            path = Path(argv[argv.index("--config") + 1])
            config = parse_config(yaml.safe_load(path.read_text(encoding="utf-8")), str(path))
            if argv[0] != "coeffs":   # the one command with no initial state
                config.check_command(argv[0])
            names.add(config.name)
            orders.add((argv[0], config.bath_modes))
    assert {data["name"] for _, data in digests.GENERATED} <= names
    # region, evolve and sweep also run with the modes in the other order or alone
    TH, AV = BathKind.THERMAL_AT_UNRUH, BathKind.ACCELERATED_VACUUM
    assert {("region", (TH, AV)), ("evolve", (TH, AV)), ("sweep", (TH,))} <= orders
    # coeffs and region run on a grid with a nonzero a/omega that
    # format_rows leaves to Python's %
    assert {("coeffs", "tiny-a"), ("region", "tiny-a")} <= {
        (command, data["name"]) for command, data in digests.GENERATED}
    a = parse_config(digests.TINY_A).axis_values("a_over_omega")
    assert any(0.0 < value < cli._CERTAIN[0] for value in a)
    assert ("evolve", "dips") in {(command, data["name"]) for command, data in digests.GENERATED}


def test_dips_run_certifies_dips(monkeypatch):
    # the dip search of the dips run's events goes below the death
    # threshold at least ten times, each a death and a birth in its output
    certified = []
    golden = kernels._golden_extremum

    def recording(f, rows, lo, hi, sign, tol):
        t, value = golden(f, rows, lo, hi, sign, tol)
        if sign < 0:
            certified.extend(value <= kernels.EPS_DEAD)
        return t, value

    monkeypatch.setattr(kernels, "_golden_extremum", recording)
    for _, spec in parse_config(_load_script().DIPS_EVOLVE).sweep_specs("evolve"):
        sweeps.run_curve(spec, events=True)
    assert sum(certified) >= 10


def test_thin_early_scan_takes_the_retry(monkeypatch):
    # the thin cell's rows are on the eig path, so every pops_at call is a
    # row taken again on the fallback, here by the scan of run_curve
    (_, spec), = parse_config(_load_script().THIN_EARLY_EVOLVE).sweep_specs("evolve")
    calls = []
    pops_at = kernels.pops_at

    def recording(M, p0, tau):
        calls.append(tau.shape)
        return pops_at(M, p0, tau)

    monkeypatch.setattr(kernels, "pops_at", recording)
    _, populations, _ = sweeps.run_curve(spec)
    assert populations.shape == (1, 2, 201, 4) and populations.min() >= 0.0
    assert calls and all(shape[1] == 201 for shape in calls)
    assert not any(stack.use_expm.any() for stack in sweeps._trajectories(spec))
