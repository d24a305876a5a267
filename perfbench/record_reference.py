"""Record the reference outputs the benchmark compares each run with.

    python3 perfbench/record_reference.py

Run from the repository root. It runs the CLI in this process on each
workload's reference inputs (a superset of what any seed can generate)
and writes perfbench/reference/<workload>.json. Rerun it only when a
change is meant to alter the outputs, and say so in the change.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracle import read_csv  # noqa: E402
from workloads import MODES, REFERENCE_DIR, WORKLOADS  # noqa: E402


def _none_if_nan(x):
    return None if x != x else x


def _run(cli, args, out):
    code = cli.main(args + ["--out", str(out), "--threads", "1"])
    if code != 0:
        raise SystemExit(f"reference run {args} failed with exit code {code}")


def region(cli, w, tmp):
    body = w.reference_config()
    path = tmp / "ref.yaml"
    path.write_text(json.dumps(body), encoding="utf-8")
    _run(cli, ["region", "--config", str(path)], tmp / "out")
    _, rows = read_csv(tmp / "out" / "fig12ref_psi2-0.2_zz_region.csv")
    names = ["neither", "accelerated-only", "thermal-only", "both"]
    g = body["grid"]
    na, nL = g["a_over_omega"]["num"], g["omega_L"]["num"]
    codes = [str(names.index(r[2])) for r in rows]
    return {
        "label_names": names,
        "a_start": g["a_over_omega"]["start"],
        "a_step": (g["a_over_omega"]["stop"] - g["a_over_omega"]["start"]) / (na - 1),
        "L_start": g["omega_L"]["start"],
        "L_step": (g["omega_L"]["stop"] - g["omega_L"]["start"]) / (nL - 1),
        "labels": ["".join(codes[i * nL:(i + 1) * nL]) for i in range(na)],
    }


def sweep(cli, w, tmp):
    _run(cli, ["sweep", "--preset", "fig4"], tmp / "out")
    panels = {}
    for panel in w.PANELS:
        cols, rows = read_csv(tmp / "out" / f"fig4_{panel}.csv")
        entry = {"omega_L": [float(r[cols.index("omega_L")]) for r in rows]}
        for mode in MODES:
            for col in (f"max_C_{mode}", f"tau_max_{mode}"):
                entry[col] = [float(r[cols.index(col)]) for r in rows]
        events = json.loads((tmp / "out" / f"fig4_{panel}.events.json").read_text())
        for mode in MODES:
            entry[f"birth_{mode}"] = [c["modes"][mode]["birth_time"] for c in events["cells"]]
        panels[panel] = entry
    return {"panels": panels}


def evolve(cli, w, tmp):
    path = tmp / "ref.yaml"
    path.write_text(json.dumps(w.reference_config()), encoding="utf-8")
    _run(cli, ["evolve", "--config", str(path)], tmp / "out")
    panels = {}
    for panel, *_ in w.panels():
        cols, rows = read_csv(tmp / "out" / f"evolveref_{panel}.csv")
        events = json.loads((tmp / "out" / f"evolveref_{panel}.events.json").read_text())
        ncell = len(w.A_POOL) * len(w.L_POOL)
        panels[panel] = {
            mode: [[_none_if_nan(v) for v in w.extract(cols, rows, events, ci, mode)]
                   for ci in range(ncell)]
            for mode in MODES}
    return {"a_pool": list(w.A_POOL), "L_pool": list(w.L_POOL),
            "c_idx": list(w.C_IDX), "p_idx": w.P_IDX, "panels": panels}


RECORDERS = {"region-fig12": region, "sweep-fig4": sweep, "evolve-grid": evolve}


def main():
    sys.path.insert(0, str(Path.cwd() / "src"))
    import atompair.cli as cli
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, record in RECORDERS.items():
        tmp = Path(tempfile.mkdtemp(prefix="perfbench-ref-"))
        try:
            data = record(cli, WORKLOADS[name], tmp)
        finally:
            shutil.rmtree(tmp)
        text = json.dumps(data, separators=(",", ":")) + "\n"
        (REFERENCE_DIR / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {name}: {len(text)} bytes")


if __name__ == "__main__":
    main()
