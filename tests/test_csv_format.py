"""The array CSV formatter against Python's own "%.17g", byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import atompair
from atompair.cli import format_rows
import oracles


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
