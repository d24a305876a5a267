"""The output comparison tool names each difference between two directories.

``scripts/compare_outputs.py`` is how moved bytes between two checkouts are
disclosed: the rows of a CSV table that differ and by how much, the nulls
and flags of a JSON file that flip, and the files found on one side only.
These tests pin each of those reports and the exit code.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


CSV = "a_over_omega,omega_L,C\n0.5,1,0.25\n0.5,2,0.125\n"
EVENTS = {"cells": [{"death_time": None, "revival": False, "max_concurrence": 0.5}]}


def _pair(tmp_path, files_a, files_b):
    return (str(_write(tmp_path / "A", files_a)), str(_write(tmp_path / "B", files_b)))


def test_identical_directories(tmp_path, capsys):
    files = {"run.csv": CSV, "sub/run.events.json": json.dumps(EVENTS)}
    assert _load_script().main(_pair(tmp_path, files, files)) == 0
    assert capsys.readouterr().out == ""


def test_moved_csv_field(tmp_path, capsys):
    moved = CSV.replace("0.125", "0.625")
    assert _load_script().main(_pair(tmp_path, {"run.csv": CSV}, {"run.csv": moved})) == 1
    out = capsys.readouterr().out
    assert out.startswith("run.csv: differs\n  1 rows differ, max |delta| 0.5\n"), out
    assert "  row 2:\n    < 0.5,2,0.125\n    > 0.5,2,0.625\n" in out


def test_events_null_and_flag_flips(tmp_path, capsys):
    flipped = {"cells": [{"death_time": 3.5, "revival": True, "max_concurrence": 0.5}]}
    name = "run.events.json"
    assert _load_script().main(_pair(tmp_path, {name: json.dumps(EVENTS)},
                                     {name: json.dumps(flipped)})) == 1
    out = capsys.readouterr().out
    assert f"{name}: differs\n" in out
    assert "  .cells[0].death_time: null flip None -> 3.5\n" in out
    assert "  .cells[0].revival: flag False -> True\n" in out


def test_file_on_one_side_only(tmp_path, capsys):
    dirs = _pair(tmp_path, {"run.csv": CSV, "extra.csv": CSV}, {"run.csv": CSV})
    assert _load_script().main(dirs) == 1
    assert capsys.readouterr().out == "extra.csv: only in A\n"
