"""The three benchmark workloads: inputs from a seed, and output checks.

Each workload is one CLI subcommand run in a fresh process. ``prepare``
turns the seed into the CLI arguments (writing a generated YAML config
where the workload has one); ``check`` returns (name, ok, detail) tuples
for one run's output directory. Why each workload was chosen, and which
per-layer metric should move which end-to-end metric on it, is written
down in README.md next to this file. The references the outputs are
compared with are recorded by record_reference.py; the tolerances of the
comparisons are the constants below.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracle import EPS_DEAD, Oracle, log_grid, read_csv

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CURVE_TOL = 1e-9        # |delta| of sampled concurrence and populations
MAXC_TOL = 1e-8         # |delta| of refined maxima
TIME_TOL = 1e-5         # |delta| of refined event and maximum times (refined to 1e-6)
ORACLE_POP_TOL = 1e-9   # production populations vs scipy expm
ORACLE_C_TOL = 1e-6     # production concurrence vs Wootters (sqrt of eigenvalues near 0)
REGION_HARD_TOL = 0.01  # share of cells whose label no enclosing reference node has
REGION_FLIP_TOL = 0.10  # share of cells whose label differs from the nearest reference node
ORACLE_SAMPLES = 8      # sampled (cell, bath mode) pairs per run for the oracles

MODES = ("accelerated", "thermal")
POPS = ("pGG", "pAA", "pSS", "pEE")
HORIZON = 50.0          # default event-detection window of the package


@dataclass
class Prepared:
    cli_args: list           # subcommand and input arguments (no --out/--threads)
    cells: int               # grid cells per run, over all panels
    panels: int
    context: dict = field(default_factory=dict)

    @property
    def trajectories(self):
        """Cell x bath-mode trajectories per run (every workload runs both modes)."""
        return len(MODES) * self.cells


def _write_config(work_dir, name, body):
    # JSON is a subset of YAML, so the package's YAML loader reads it as is
    path = Path(work_dir) / f"{name}.yaml"
    path.write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _load_reference(name):
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))


def _check(name, bad, total, worst=None):
    detail = f"{bad}/{total} outside tolerance"
    if worst is not None:
        detail += f", worst {worst:.3g}"
    return (name, bad == 0, detail)


def _intervals(values):
    mask = np.asarray(values) > EPS_DEAD
    return (1 if mask[0] else 0) + int((np.diff(mask.astype(int)) == 1).sum())


def _float_or_nan(x):
    return np.nan if x is None else float(x)


def _time_mismatch(got, want):
    if np.isnan(got) or np.isnan(want):
        return not (np.isnan(got) and np.isnan(want)), 0.0
    return abs(got - want) > TIME_TOL, abs(got - want)


# ---------------------------------------------------------------------------
# region-fig12

class RegionFig12:
    """`region` on the fig12 physics over a reduced, seed-shifted grid."""

    name = "region-fig12"
    N = 20
    A_RANGE = (0.015, 3.0)
    L_RANGE = (0.025, 5.0)
    PHYSICS = {
        "initial_states": [{"family": "psi2", "p": 0.2}],
        "polarizations": [["z", "z"]],
        "bath_modes": ["accelerated", "thermal"],
        "outputs": ["region"],
        "events": {"kind": "revival"},
    }
    FLOOR = 1e-3            # the package's default region_min_amplitude

    def steps(self):
        return tuple((hi - lo) / (self.N - 1) for lo, hi in (self.A_RANGE, self.L_RANGE))

    def config(self, name, a_start, a_stop, a_num, L_start, L_stop, L_num):
        body = {"name": name, **self.PHYSICS}
        body["grid"] = {
            "a_over_omega": {"start": a_start, "stop": a_stop, "num": a_num},
            "omega_L": {"start": L_start, "stop": L_stop, "num": L_num}}
        return body

    def prepare(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        ua, uL = rng.random(2)      # shift by less than one grid spacing
        ha, hL = self.steps()
        (a0, a1), (L0, L1) = self.A_RANGE, self.L_RANGE
        grid = (a0 + ua * ha, a1 + ua * ha, self.N, L0 + uL * hL, L1 + uL * hL, self.N)
        path = _write_config(work_dir, "fig12bench", self.config("fig12bench", *grid))
        return Prepared(["region", "--config", path], cells=self.N * self.N, panels=1,
                        context={"grid": grid})

    def reference_config(self):
        # nodes every quarter spacing over the range plus one spacing, so
        # every shifted grid lies inside the reference lattice
        ha, hL = self.steps()
        (a0, a1), (L0, L1) = self.A_RANGE, self.L_RANGE
        n = 4 * self.N + 1
        return self.config("fig12ref", a0, a1 + ha, n, L0, L1 + hL, n)

    def check(self, out_dir, prep, rng, ap):
        checks = []
        a0, a1, na, L0, L1, nL = prep.context["grid"]
        _, rows = read_csv(Path(out_dir) / "fig12bench_psi2-0.2_zz_region.csv")
        a = np.array([float(r[0]) for r in rows])
        L = np.array([float(r[1]) for r in rows])
        labels = [r[2] for r in rows]
        want_a = np.repeat(np.linspace(a0, a1, na), nL)
        want_L = np.tile(np.linspace(L0, L1, nL), na)
        checks.append(("region grid", a.size == want_a.size
                       and np.allclose(a, want_a, rtol=0, atol=1e-12)
                       and np.allclose(L, want_L, rtol=0, atol=1e-12),
                       f"{a.size} cells"))
        counts = {name: labels.count(name) for name in
                  ("neither", "accelerated-only", "thermal-only", "both")}
        checks.append(("fig12 caption regions", all(counts.values()), str(counts)))

        ref = _load_reference(self.name)
        names = ref["label_names"]
        grid = np.array([[names[int(c)] for c in row] for row in ref["labels"]])
        xa = (a - ref["a_start"]) / ref["a_step"]
        xL = (L - ref["L_start"]) / ref["L_step"]
        hard = flips = 0
        for k, lab in enumerate(labels):
            ia = int(np.clip(np.floor(xa[k]), 0, grid.shape[0] - 2))
            iL = int(np.clip(np.floor(xL[k]), 0, grid.shape[1] - 2))
            corners = grid[ia:ia + 2, iL:iL + 2]
            nearest = grid[int(np.clip(round(xa[k]), 0, grid.shape[0] - 1)),
                           int(np.clip(round(xL[k]), 0, grid.shape[1] - 1))]
            hard += lab not in corners
            flips += lab != nearest
        n = len(labels)
        checks.append(("region vs reference, off-boundary", hard <= REGION_HARD_TOL * n,
                       f"{hard}/{n} labels match no enclosing reference node"))
        checks.append(("region vs reference, boundary flips", flips <= REGION_FLIP_TOL * n,
                       f"{flips}/{n} labels differ from the nearest reference node"))

        # oracle: the exact evolution's largest concurrence after its first
        # sudden death decides whether the mode revives; cells within a
        # factor 2 of the visibility floor are left out as undecided
        state = ap.catalogue_state("psi2", 0.2)
        taus = log_grid(HORIZON, 1200)
        bad = tested = 0
        for k in rng.choice(n, size=ORACLE_SAMPLES, replace=False):
            for mode, marks in (("accelerated", ("accelerated-only", "both")),
                                ("thermal", ("thermal-only", "both"))):
                C = Oracle(ap, state, a[k], L[k], "z", "z", mode == "thermal").concurrence(taus)
                dead = np.flatnonzero(C == 0.0)
                amp = C[dead[0]:].max() if dead.size else 0.0
                if 0.5 * self.FLOOR <= amp <= 2 * self.FLOOR:
                    continue
                tested += 1
                bad += (amp > self.FLOOR) != (labels[k] in marks)
        checks.append(_check("oracle revivals (expm + Wootters)", bad, tested))
        return checks


# ---------------------------------------------------------------------------
# sweep-fig4

class SweepFig4:
    """`sweep --preset fig4` as shipped; the seed only picks oracle samples."""

    name = "sweep-fig4"
    PANELS = ("E_zz", "E_yy")
    A = 0.6666666666666666

    def prepare(self, seed, work_dir):
        return Prepared(["sweep", "--preset", "fig4"], cells=2 * 240, panels=2)

    def check(self, out_dir, prep, rng, ap):
        checks = []
        ref = _load_reference(self.name)
        state = ap.catalogue_state("E")
        samples = []
        for panel in self.PANELS:
            cols, rows = read_csv(Path(out_dir) / f"fig4_{panel}.csv")
            table = {c: np.array([float(r[i]) for r in rows]) for i, c in enumerate(cols)}
            L = table["omega_L"]
            want = ref["panels"][panel]
            checks.append(("fig4 grid " + panel, L.size == len(want["omega_L"])
                           and np.allclose(L, want["omega_L"], rtol=0, atol=1e-12),
                           f"{L.size} cells"))
            if L.size != len(want["omega_L"]):
                continue
            events = json.loads((Path(out_dir) / f"fig4_{panel}.events.json")
                                .read_text(encoding="utf-8"))
            for mode in MODES:
                got_c = table[f"max_C_{mode}"]
                ref_c = np.array(want[f"max_C_{mode}"])
                dev = np.abs(got_c - ref_c)
                checks.append(_check(f"max_C {panel} {mode} vs reference",
                                     int((dev > MAXC_TOL).sum()), dev.size, dev.max()))
                got_t = table[f"tau_max_{mode}"]
                ref_t = np.array(want[f"tau_max_{mode}"])
                live = ref_c > 1e-6
                dev = np.abs(got_t - ref_t)[live]
                checks.append(_check(f"tau_max {panel} {mode} vs reference",
                                     int((dev > TIME_TOL).sum()), dev.size,
                                     dev.max() if dev.size else 0.0))
                births = [_float_or_nan(c["modes"][mode]["birth_time"]) for c in events["cells"]]
                res = [_time_mismatch(g, w) for g, w in
                       zip(births, map(_float_or_nan, want[f"birth_{mode}"]))]
                checks.append(_check(f"birth times {panel} {mode} vs reference",
                                     sum(r[0] for r in res), len(res),
                                     max(r[1] for r in res)))
                for ci in rng.choice(L.size, size=ORACLE_SAMPLES // 4, replace=False):
                    samples.append((panel, mode, L[ci], got_c[ci], got_t[ci]))
            if panel == "E_yy":
                acc = _intervals(table["max_C_accelerated"])
                th = _intervals(table["max_C_thermal"])
                checks.append(("fig4 dark interval (yy)", th >= 2 and acc == 1,
                               f"entangled intervals: thermal {th}, accelerated {acc}"))

        # oracle: the reported maximum is the exact concurrence at the
        # reported time, and no exact sample on the horizon exceeds it
        taus = log_grid(HORIZON, 1200)
        bad = 0
        worst = 0.0
        for panel, mode, L, max_c, tau_max in samples:
            pol = panel[-1]
            orc = Oracle(ap, state, self.A, L, pol, pol, mode == "thermal")
            at = abs(orc.concurrence([tau_max])[0] - max_c)
            over = orc.concurrence(taus).max() - max_c
            worst = max(worst, at, over)
            bad += at > ORACLE_C_TOL or over > ORACLE_C_TOL
        checks.append(_check("oracle maxima (expm + Wootters)", bad, len(samples), worst))
        return checks


# ---------------------------------------------------------------------------
# evolve-grid

class EvolveGrid:
    """`evolve` of a seed-generated config: an 8x8 (a, omega L) grid drawn
    from fixed 10-value pools, psi1/psi2 families, z-z and z-x dipoles."""

    name = "evolve-grid"
    A_POOL = (0.05, 0.2, 0.4, 0.6, 0.8, 1.0, 1.4, 1.8, 2.4, 3.0)
    L_POOL = (0.05, 0.1, 0.2, 0.35, 0.5, 0.8, 1.2, 2.0, 3.0, 5.0)
    PICK = 8
    STATES = (("psi1", 0.25), ("psi2", 0.2))
    POLS = (("z", "z"), ("z", "x"))
    TAU = {"stop": 12.0, "num": 400, "spacing": "log"}
    C_IDX = (49, 99, 149, 199, 249, 299, 349, 399)   # sampled tau indices kept in the reference
    P_IDX = 399

    def panels(self):
        return [(f"{fam}-{p:g}_{d1}{d2}", fam, p, d1, d2)
                for fam, p in self.STATES for d1, d2 in self.POLS]

    def config(self, name, a_values, L_values):
        return {
            "name": name,
            "initial_states": [{"family": fam, "p": p} for fam, p in self.STATES],
            "polarizations": [list(pol) for pol in self.POLS],
            "bath_modes": list(MODES),
            "fixed": {"a_over_omega": list(a_values), "omega_L": list(L_values)},
            "grid": {"tau": dict(self.TAU)},
            "outputs": ["curve", "events"],
        }

    def prepare(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        ia = np.sort(rng.choice(len(self.A_POOL), self.PICK, replace=False))
        iL = np.sort(rng.choice(len(self.L_POOL), self.PICK, replace=False))
        body = self.config("evolvebench", [self.A_POOL[i] for i in ia],
                           [self.L_POOL[i] for i in iL])
        path = _write_config(work_dir, "evolvebench", body)
        return Prepared(["evolve", "--config", path], cells=len(self.panels()) * self.PICK ** 2,
                        panels=len(self.panels()),
                        context={"ia": ia.tolist(), "iL": iL.tolist()})

    def reference_config(self):
        return self.config("evolveref", self.A_POOL, self.L_POOL)

    def extract(self, cols, rows, events, ci, mode):
        """Reference values of one cell and mode: sampled C, final
        populations, max C, death and birth times."""
        cc = cols.index(f"C_{mode}")
        base = ci * self.TAU["num"]
        out = [float(rows[base + k][cc]) for k in self.C_IDX]
        out += [float(rows[base + self.P_IDX][cols.index(f"{pop}_{mode}")]) for pop in POPS]
        ev = events["cells"][ci]["modes"][mode]
        out += [ev["max_concurrence"], _float_or_nan(ev["death_time"]),
                _float_or_nan(ev["birth_time"])]
        return out

    def check(self, out_dir, prep, rng, ap):
        checks = []
        ref = _load_reference(self.name)
        ia, iL = prep.context["ia"], prep.context["iL"]
        ntau = self.TAU["num"]
        taus = log_grid(self.TAU["stop"], ntau)
        nC = len(self.C_IDX)
        samples = []
        for panel, fam, p, d1, d2 in self.panels():
            cols, rows = read_csv(Path(out_dir) / f"evolvebench_{panel}.csv")
            events = json.loads((Path(out_dir) / f"evolvebench_{panel}.events.json")
                                .read_text(encoding="utf-8"))
            ncell = len(ia) * len(iL)
            checks.append((f"curve rows {panel}", len(rows) == ncell * ntau,
                           f"{len(rows)} rows"))
            if len(rows) != ncell * ntau:
                continue
            tau_col = np.array([float(rows[k][cols.index("tau")]) for k in range(ntau)])
            checks.append((f"tau grid {panel}", np.allclose(tau_col, taus, rtol=1e-14, atol=0),
                           "log grid"))
            curve_bad = maxc_bad = time_bad = 0
            worst = 0.0
            for ci in range(ncell):
                ref_cell = ia[ci // len(iL)] * len(self.L_POOL) + iL[ci % len(iL)]
                for mode in MODES:
                    got = np.array(self.extract(cols, rows, events, ci, mode))
                    want = np.array(ref["panels"][panel][mode][ref_cell], dtype=float)
                    dev = np.abs(got[:nC + 4] - want[:nC + 4])
                    worst = max(worst, dev.max())
                    curve_bad += int((dev > CURVE_TOL).sum())
                    maxc_bad += abs(got[nC + 4] - want[nC + 4]) > MAXC_TOL
                    time_bad += sum(_time_mismatch(g, w)[0]
                                    for g, w in zip(got[nC + 5:], want[nC + 5:]))
            n = ncell * len(MODES)
            checks.append(_check(f"curve values {panel} vs reference", curve_bad,
                                 n * (nC + 4), worst))
            checks.append(_check(f"max C {panel} vs reference", maxc_bad, n))
            checks.append(_check(f"death/birth times {panel} vs reference", time_bad, 2 * n))
            a_vals = [self.A_POOL[i] for i in ia]
            L_vals = [self.L_POOL[i] for i in iL]
            for ci in rng.choice(ncell, size=ORACLE_SAMPLES // 4, replace=False):
                mode = MODES[int(rng.integers(2))]
                a, L = a_vals[ci // len(iL)], L_vals[ci % len(iL)]
                ks = np.sort(rng.choice(ntau, size=5, replace=False))
                got = [[float(rows[ci * ntau + k][cols.index(f"{name}_{mode}")])
                        for name in ("C",) + POPS] for k in ks]
                samples.append((fam, p, d1, d2, mode, a, L, taus[ks], np.array(got)))

        # oracle: populations from expm, concurrence from Wootters
        pop_bad = c_bad = 0
        for fam, p, d1, d2, mode, a, L, ts, got in samples:
            orc = Oracle(ap, ap.catalogue_state(fam, p), a, L, d1, d2, mode == "thermal")
            pop_bad += int((np.abs(orc.populations(ts) - got[:, 1:]) > ORACLE_POP_TOL).sum())
            c_bad += int((np.abs(orc.concurrence(ts) - got[:, 0]) > ORACLE_C_TOL).sum())
        checks.append(_check("oracle populations (expm)", pop_bad, 4 * 5 * len(samples)))
        checks.append(_check("oracle concurrence (Wootters)", c_bad, 5 * len(samples)))
        return checks


WORKLOADS = {w.name: w for w in (RegionFig12(), SweepFig4(), EvolveGrid())}
