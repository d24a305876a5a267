"""Print a sha256 digest of every output of the shipped presets.

Runs each preset through ``atompair.cli.main`` into a temporary directory:
``evolve`` for the presets with curves, ``sweep`` for those with a
max-concurrence output, ``region`` for the region maps (on a 24x24 grid,
through a generated config) and ``coeffs`` for fig4, plus ``coeffs`` on
generated crossed, orthogonal and vector dipole pairs, which no preset has,
``evolve`` on generated cells whose eigenvectors are ill-conditioned,
which no preset reaches, and ``evolve`` on a cell whose eig-path
populations dip below zero, so that their rows are evaluated again on the
matrix-exponential fallback: once on the horizon grid, where only event
refinement reaches the dip, and once on a linear grid through the dip,
where the scan itself takes the retry, plus ``coeffs`` and ``region`` on a
grid through a/omega = 1e-300, below the magnitudes ``format_rows``
certifies, so that their rows are printed by its ``%`` fallback, plus
``evolve`` on psi1(1/4) cells whose concurrence dips through zero between
samples, so that the events output prints the refined times of 18 such
dips, plus ``region``, ``evolve`` and ``sweep`` with the bath modes in the
other order or one mode alone, which no preset lists. Prints one
``sha256  name`` line per output file and per captured stdout, sorted.
The package is imported from the ``src`` next to this script, so

    python scripts/preset_digests.py > a.txt   # in one checkout
    python scripts/preset_digests.py > b.txt   # in another
    diff a.txt b.txt

checks that two checkouts write byte-identical outputs. Takes no options.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from importlib import resources
from pathlib import Path

import yaml

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from atompair import cli  # noqa: E402
from atompair.config import COMMAND_OUTPUTS, load_preset, preset_names  # noqa: E402

REGION_NUM = 24
# non-parallel dipole pairs, each with its swap, on a grid through a/omega = 0
# and an omega_L below the series switch (fig4 has only z-z and y-y)
PAIRS_COEFFS = {
    "name": "pairs",
    "polarizations": [["z", "x"], ["x", "z"], ["x", "y"], ["y", "x"],
                      [[0.3, -0.5, 0.8], [-0.7, 0.2, 0.4]],
                      [[-0.7, 0.2, 0.4], [0.3, -0.5, 0.8]]],
    "grid": {"a_over_omega": {"start": 0.0, "stop": 3.0, "num": 7},
             "omega_L": {"start": 0.002, "stop": 5.0, "num": 7}},
    "outputs": ["max_concurrence"],
}

# z-z cells at omega_L far below every preset's, where cond exceeds
# COND_LIMIT and the populations take the matrix-exponential fallback; the
# z-x cells stay on the eig path
FALLBACK_EVOLVE = {
    "name": "fallback",
    "initial_states": ["E", {"family": "psi1", "p": 0.25}],
    "polarizations": [["z", "z"], ["z", "x"]],
    "fixed": {"a_over_omega": [0.03, 0.05], "omega_L": [1.0e-7, 1.0e-6]},
    "grid": {"tau": {"stop": 50.0, "num": 400}},
    "outputs": ["curve", "events"],
}

# |E> at a/omega = 0.3, omega_L = 1e-4, z-z: cond is only 7.1e4, but the
# eig path gives pGG down to -7e-12 below tau = 1e-6, past the concurrence's
# radicand slack, so the evaluations that find it retry on the fallback
THIN_EVOLVE = {
    "name": "thin",
    "initial_states": ["E"],
    "polarizations": [["z", "z"]],
    "fixed": {"a_over_omega": 0.3, "omega_L": 1.0e-4},
    "grid": {"tau": {"stop": 50.0, "num": 400}},
    "outputs": ["curve", "events"],
}

# the thin cell on a linear grid up to tau = 2e-6: the thin run's grid
# starts at tau = 1.9e-3, above the window where pGG dips below zero
THIN_EARLY_EVOLVE = {
    "name": "thin-early",
    "initial_states": ["E"],
    "polarizations": [["z", "z"]],
    "fixed": {"a_over_omega": 0.3, "omega_L": 1.0e-4},
    "grid": {"tau": {"stop": 2.0e-6, "num": 201, "spacing": "linear"}},
    "outputs": ["curve"],
}

# a/omega = 1e-300 on the grid: the coeffs and region rows that hold it are
# printed by format_rows' % fallback, beside rows it prints itself
TINY_A = {
    "name": "tiny-a",
    "initial_states": [{"family": "psi2", "p": 0.2}],
    "polarizations": [["z", "z"], ["x", "z"]],
    "grid": {"a_over_omega": {"start": 0.0, "stop": 2.0e-300, "num": 3},
             "omega_L": {"start": 0.002, "stop": 5.0, "num": 3}},
    "outputs": ["region"],
}

# psi1(1/4) at small a/omega: 18 sampled minima above threshold whose
# unclamped concurrence goes below it, each refined as a death and a birth
# that the events output prints (fig7 prints one, the fallback run eight)
DIPS_EVOLVE = {
    "name": "dips",
    "initial_states": [{"family": "psi1", "p": 0.25}],
    "polarizations": [["z", "x"], ["z", "z"]],
    "fixed": {"a_over_omega": [0.05, 0.2], "omega_L": [0.8, 1.2, 2.0]},
    "grid": {"tau": {"stop": 12.0, "num": 400}},
    "outputs": ["curve", "events"],
}

# every preset lists [accelerated, thermal]; these list the modes the other
# way round or one alone, since the region map picks its columns by mode and
# the curve, maxima and events outputs name theirs per mode
THERMAL_FIRST_REGION = {
    "name": "thermal-first-region",
    "initial_states": [{"family": "psi2", "p": 0.2}],
    "polarizations": [["z", "z"]],
    "bath_modes": ["thermal", "accelerated"],
    "grid": {"a_over_omega": {"start": 0.015, "stop": 3.0, "num": 6},
             "omega_L": {"start": 0.025, "stop": 5.0, "num": 6}},
    "outputs": ["region"],
}

THERMAL_FIRST_EVOLVE = {
    "name": "thermal-first-evolve",
    "initial_states": [{"family": "psi1", "p": 0.25}],
    "polarizations": [["z", "x"]],
    "bath_modes": ["thermal", "accelerated"],
    "fixed": {"a_over_omega": [0.2, 1.0], "omega_L": [0.5, 1.5]},
    "grid": {"tau": {"stop": 12.0, "num": 200}},
    "outputs": ["curve", "events"],
}

THERMAL_ONLY_SWEEP = {
    "name": "thermal-only-sweep",
    "initial_states": ["E"],
    "polarizations": [["y", "y"]],
    "bath_modes": ["thermal"],
    "fixed": {"a_over_omega": 0.6666666666666666},
    "grid": {"omega_L": {"start": 0.05, "stop": 8.0, "num": 24}},
    "outputs": ["max_concurrence", "events"],
}

# (command, config) of every generated config
GENERATED = (("coeffs", PAIRS_COEFFS), ("evolve", FALLBACK_EVOLVE), ("evolve", THIN_EVOLVE),
             ("evolve", THIN_EARLY_EVOLVE), ("coeffs", TINY_A), ("region", TINY_A),
             ("evolve", DIPS_EVOLVE), ("region", THERMAL_FIRST_REGION),
             ("evolve", THERMAL_FIRST_EVOLVE), ("sweep", THERMAL_ONLY_SWEEP))


def _runs(tmp):
    # (run name, argv without --out) for every preset, plus coeffs on fig4
    # and the generated configs
    for name in preset_names():
        outputs = load_preset(name).outputs
        command = next(c for c, output in COMMAND_OUTPUTS.items() if output in outputs)
        if command != "region":
            yield f"{command}-{name}", [command, "--preset", name]
            continue
        path = resources.files("atompair").joinpath("presets", f"{name}.yaml")
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
        for axis in data["grid"].values():
            axis["num"] = REGION_NUM
        config = tmp / f"{name}.yaml"
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        yield f"{command}-{name}", [command, "--config", str(config)]
    yield "coeffs-fig4", ["coeffs", "--preset", "fig4"]
    for command, data in GENERATED:
        config = tmp / f"{data['name']}.yaml"
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        yield f"{command}-{data['name']}", [command, "--config", str(config)]


def main():
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for run, argv in _runs(tmp):
            out = tmp / run
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv + ["--out", str(out)])
            if code != 0:
                sys.exit(f"{run} exited with {code}")
            digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            lines.append(f"{digest}  {run}/stdout")
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {run}/{path.name}")
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))


if __name__ == "__main__":
    main()
