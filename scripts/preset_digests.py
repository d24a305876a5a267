"""Print a sha256 digest of every output of the shipped presets.

Runs each preset through ``atompair.cli.main`` into a temporary directory:
``evolve`` for the presets with curves, ``sweep`` for those with a
max-concurrence output, ``region`` for the region maps (on a 24x24 grid,
through a generated config) and ``coeffs`` for fig4, plus ``sweep`` over a
generated p axis, ``coeffs`` on generated crossed, orthogonal and vector
dipole pairs, which no preset has, and ``evolve`` on generated cells whose
eigenvectors are ill-conditioned, which no preset reaches. Prints one
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
from atompair.config import load_preset, preset_names  # noqa: E402

REGION_NUM = 24
COMMANDS = {"curve": "evolve", "max_concurrence": "sweep", "region": "region"}
# the psi1/psi2 weight as a grid axis, resolved per cell
P_AXIS_SWEEP = {
    "name": "paxis",
    "initial_states": ["psi1", "psi2"],
    "polarizations": [["z", "z"], ["z", "x"]],
    "fixed": {"a_over_omega": 0.6666666666666666, "omega_L": 1.0},
    "grid": {"p": {"start": 0.05, "stop": 0.95, "num": 19}},
    "outputs": ["max_concurrence", "events"],
}
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


def _runs(tmp):
    # (run name, argv without --out) for every preset, plus coeffs on fig4
    # and the three generated configs
    for name in preset_names():
        command = COMMANDS[next(o for o in load_preset(name).outputs if o in COMMANDS)]
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
    for command, data in (("sweep", P_AXIS_SWEEP), ("coeffs", PAIRS_COEFFS),
                          ("evolve", FALLBACK_EVOLVE)):
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
