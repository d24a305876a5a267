"""The array CSV formatter against Python's own "%.17g", byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import atompair
from atompair import SystemParams, assemble
from atompair.cli import format_rows, main
from atompair.config import load_config
from atompair.sweeps import LABEL_NAMES, run_region_map
import oracles

# a/omega = 1e-300 lies below the range format_rows certifies: its rows
# are printed by the % fallback
TINY_A = {"a_over_omega": {"start": 0.0, "stop": 2.0e-300, "num": 3},
          "omega_L": {"start": 0.5, "stop": 2.0, "num": 2}}


def _powers_of_ten():
    p = 10.0 ** np.arange(-300, 301)
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


def _ties():
    # k / 2**n with exactly 18 significant decimal digits, the last a 5: the
    # 17-digit rounding is an exact tie, resolved to even
    ties = [1 + 2.0 ** -17]
    for n in range(11, 26):
        lo = -(-10 ** 17 // 5 ** n) | 1
        ties += [k / 2.0 ** n for k in range(lo, min(lo + 200, 10 ** 18 // 5 ** n), 2)]
    return np.array(ties)


def _format_switches():
    # the fixed/exponent switch of %g at 1e-5/1e-4 and 1e16/1e17, a few ulps apart
    steps = np.arange(-40, 41) * np.finfo(float).eps
    return np.concatenate([b * (1 + steps) for b in (1e-5, 1e-4, 1e16, 1e17)])


def _special():
    tiny = np.finfo(float).smallest_subnormal
    return np.array([0.0, -0.0, np.nan, np.inf, -np.inf, tiny, 3 * tiny, 2.0 ** -1030,
                     np.finfo(float).max, np.finfo(float).tiny, 1e-250, 1e250, 0.5, 1.0])


def _inputs(seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64, 10 ** 6 // 3, dtype=np.uint64).view(np.float64)
    typical = np.concatenate([rng.random(2 * 10 ** 4),
                              np.exp(rng.uniform(-70, 70, 2 * 10 ** 4))])
    fixed = np.concatenate([_special(), _ties(), _powers_of_ten(), _format_switches(),
                            typical])
    return np.concatenate([bits, fixed, -fixed])


@pytest.mark.parametrize("k", [1, 3, 13])
def test_format_rows_matches_python_format(k):
    # a third of the 10**6 random bit patterns for each row width
    values = _inputs(seed=k)
    pad = (-values.size) % k
    values = np.concatenate([values, values[:pad]]).reshape(-1, k)
    assert format_rows(values) == oracles.format_rows(values)


def test_format_rows_splices_fallback_rows():
    # a tie and a nan in the middle of a table of certified values, which
    # include both zeros
    values = np.linspace(0.01, 3.0, 50 * 13).reshape(50, 13)
    values[20, 5] = 1 + 2.0 ** -17
    values[35, 12] = np.nan
    values[40, :2] = [0.0, -0.0]
    body = format_rows(values)
    assert body == oracles.format_rows(values)
    lines = body.split(b"\n")
    assert lines[20].split(b",")[5] == b"1.0000076293945312"
    assert lines[35].endswith(b",nan")
    assert lines[40].startswith(b"0,-0,")


def test_format_tables_built_on_first_call():
    # importing the CLI builds none of the formatter's lookup tables
    src = Path(atompair.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import atompair.cli as cli; print(cli._tables.cache_info().currsize); "
             "cli.format_rows([[1.0]]); print(cli._tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["0", "1"]


def _body(path):
    return path.read_bytes().split(b"\n", 1)[1].decode()


def _fields(*values):
    return oracles.format_rows(np.array([values])).decode().rstrip("\n").split(",")


def test_coeffs_and_region_tables_print_each_field_as_python(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump({
        "name": "tiny", "initial_states": [{"family": "psi2", "p": 0.2}],
        "polarizations": [["z", "z"], ["x", "z"]], "grid": TINY_A,
        "outputs": ["region"]}), encoding="utf-8")
    config = load_config(path)
    for command in ("coeffs", "region"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0

    want = []
    for d1, d2, label in config.polarizations:
        for a in config.axis_values("a_over_omega"):
            for L in config.axis_values("omega_L"):
                for mode in config.bath_modes:
                    for order in (12, 21):
                        cs = assemble(SystemParams(a, L, d1, d2, mode), order)
                        a_text, L_text, *cs_text = _fields(a, L, cs.A1, cs.B1, cs.A2, cs.B2)
                        want.append(",".join([label, a_text, L_text, mode.value, str(order),
                                              *cs_text]))
    body = _body(tmp_path / "coeffs" / "tiny_coeffs.csv")
    assert body == "".join(line + "\n" for line in want)
    assert ",1e-300," in body

    for _, spec in config.sweep_specs("region"):
        labels = run_region_map(spec).ravel().tolist()
        want = [",".join([*_fields(a, L), LABEL_NAMES[code]])
                for a, L, code in zip(*spec.cells(), labels)]
        body = _body(tmp_path / "region" / f"{spec.label}_region.csv")
        assert body == "".join(line + "\n" for line in want)
        assert "\n1e-300," in body
