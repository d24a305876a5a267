"""Benchmark of the atompair CLI: end-to-end metrics, or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src. Workloads: region-fig12, sweep-fig4, evolve-grid (see README.md).
Every run of the CLI is a fresh process calling ``atompair.cli.main`` with
``--threads 1``, one after another (closed loop, one client).

--trace 0: one warm-up probe, then CLI runs repeated for S seconds (at
least two); prints setup_s, wall_s, traj_per_s and peak_rss_mb.
--trace 1: one untraced run, one traced run, one untraced run with
``--threads 2`` and a second traced run; prints the per-layer metrics.

Both modes check the outputs (byte identity across repeats, meta.json
checksums, references, independent oracles) and print, as the last line,
one JSON object with the keys correct, attempted, failed and metrics.
``attempted`` counts trajectories run plus checks made; ``failed`` counts
trajectories of failed CLI runs plus failed checks. A CLI run that exits
non-zero, raises or times out is a failed run: the benchmark stops
measuring, and prints the JSON line with ``correct`` false and only the
metrics it could compute.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracle import digests, meta_checks, output_size  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_RUNS = 2            # CLI runs per timed run, so byte identity is checked
DEADLINE_S = 170.0      # every child is killed before the benchmark's 180 s limit
WORK_DIR = ".perfbench-work"

# per-layer counters that must repeat exactly between the two traced runs
DETERMINISTIC = ("coefficients.calls", "dynamics.decompositions", "dynamics.prop_evals",
                 "dynamics.expm_fallbacks", "dynamics.cond_max", "entanglement.scan_evals",
                 "entanglement.refine_evals", "sweeps.event_passes")


class Bench:
    def __init__(self, root, work, seed):
        self.root = root
        self.work = work
        self.seed = seed
        self.started = time.monotonic()
        self.children = 0
        self.checks = []        # (name, ok, detail)
        self.failed_traj = 0
        self.attempted_traj = 0

    def spawn(self, args):
        """Run one worker process; returns (start clock, wall seconds, result)."""
        self.children += 1
        result = self.work / f"result{self.children}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(self.root),
               "--result", str(result), *args]
        budget = DEADLINE_S - (time.monotonic() - self.started)
        if budget <= 0:
            raise TimeoutError("benchmark deadline reached")
        t0 = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=budget)
        wall = time.monotonic() - t0
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not result.is_file():
            raise RuntimeError(f"worker failed with exit code {proc.returncode}")
        return t0, wall, json.loads(result.read_text(encoding="utf-8"))

    def attempt(self, label, args):
        """Run one worker and check that it succeeded; returns (start clock,
        wall seconds, result), or None when the worker failed or timed out."""
        try:
            t0, wall, res = self.spawn(args)
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
            self.check(label, False, f"{type(exc).__name__}: {exc}")
            return None
        self.check(label, res["exit"] == 0, f"exit {res['exit']}")
        return (t0, wall, res) if res["exit"] == 0 else None

    def cli_run(self, prep, out, threads=1, trace=None):
        """One CLI run; returns (wall, set-up time, peak RSS in MB, digests of
        its outputs), or None when the run failed."""
        args = ["--trace", str(trace)] if trace else []
        args += ["run", "--", *prep.cli_args, "--out", str(out), "--threads", str(threads)]
        self.attempted_traj += prep.trajectories
        run = self.attempt(f"CLI run with --threads {threads}", args)
        if run is None:
            self.failed_traj += prep.trajectories
            return None
        t0, wall, res = run
        return (wall, res["ready"] - t0, res["peak_rss_kb"] / 1024.0,
                digests(out) if out.is_dir() else {})

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def same_outputs(self, label, first, other):
        self.check(f"byte-identical outputs ({label})", first == other,
                   f"{len(other)} files")

    def output_checks(self, workload, prep, out, first_digests):
        import atompair as ap
        rng = np.random.default_rng(self.seed)
        for name, ok, detail in meta_checks(out, first_digests):
            self.check(name, ok, detail)
        try:
            for name, ok, detail in workload.check(out, prep, rng, ap):
                self.check(name, ok, detail)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.check("outputs readable", False, f"{type(exc).__name__}: {exc}")


def timed(bench, workload, prep, seconds):
    if bench.attempt("set-up probe", ["probe", "--", *prep.cli_args]) is None:
        return {}, {}    # the probe is a warm-up: bytecode and file caches
    walls, setup, rss = [], [], []
    first_out = bench.work / "out0"
    first = None
    loop_start = time.monotonic()
    while True:
        out = bench.work / f"out{len(walls)}"
        run = bench.cli_run(prep, out)
        if run is None:
            break
        wall, ready, peak, dig = run
        walls.append(wall)
        setup.append(ready)
        rss.append(peak)
        if first is None:
            first = dig
        else:
            bench.same_outputs(f"run {len(walls)} vs run 1", first, dig)
            shutil.rmtree(out, ignore_errors=True)
        elapsed = time.monotonic() - loop_start
        med = statistics.median(walls)
        if len(walls) >= MIN_RUNS and elapsed + 0.5 * med > seconds:
            break
    if not walls:
        return {}, {}
    bench.output_checks(workload, prep, first_out, first)
    n = len(walls)
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "traj_per_s": (prep.trajectories / wall, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    notes = {"setup_s": f"median of {n} runs, after one warm-up probe",
             "wall_s": f"median of {n} runs, min {min(walls):.3f} max {max(walls):.3f}",
             "traj_per_s": f"{prep.trajectories} trajectories per run over the median wall",
             "peak_rss_mb": f"median of {n} runs"}
    return metrics, notes


def traced(bench, workload, prep):
    from tracer import summarize
    outs = {k: bench.work / k for k in ("u1", "t1", "u2", "t1b")}
    spans = {k: bench.work.parent / f"spans-{workload.name}-{k}.npz" for k in ("t1", "t1b")}
    runs = {}
    for key, threads in (("u1", 1), ("t1", 1), ("u2", 2), ("t1b", 1)):
        runs[key] = bench.cli_run(prep, outs[key], threads, spans.get(key))
        if runs[key] is None:
            return {}, {}
    wall_u1, _, _, dig_u1 = runs["u1"]
    wall_t1, _, _, dig_t1 = runs["t1"]
    wall_u2, _, _, dig_u2 = runs["u2"]
    dig_t1b = runs["t1b"][3]
    bench.same_outputs("traced vs untraced", dig_u1, dig_t1)
    bench.same_outputs("--threads 2 vs --threads 1", dig_u1, dig_u2)
    bench.same_outputs("second traced run", dig_u1, dig_t1b)
    bench.output_checks(workload, prep, outs["u1"], dig_u1)

    metrics, unmeasured = summarize(spans["t1"], prep.panels)
    again, _ = summarize(spans["t1b"], prep.panels)
    spans["t1b"].unlink()
    for name in DETERMINISTIC:
        if name not in unmeasured:
            bench.check(f"counter {name} repeats", metrics[name][0] == again[name][0],
                        f"{metrics[name][0]} vs {again[name][0]}")
    rows, size = output_size(outs["u1"])
    metrics.update({
        "sweeps.cells": (prep.cells, "count"),
        "sweeps.trajectories": (prep.trajectories, "count"),
        "sweeps.threads2_speedup": (wall_u1 / wall_u2, "x"),
        "cli.rows_written": (rows, "count"),
        "cli.bytes_written": (size, "bytes"),
        "trace.overhead_frac": (wall_t1 / wall_u1 - 1.0, "frac"),
    })
    notes = {name: "unmeasured: a function it needs is missing; left out of the JSON"
             for name in unmeasured}
    notes["sweeps.threads2_speedup"] = f"{wall_u1:.3f} s / {wall_u2:.3f} s"
    notes["trace.overhead_frac"] = (f"{wall_t1:.3f} s traced / {wall_u1:.3f} s untraced; "
                                    f"spans kept in {WORK_DIR}/{spans['t1'].name}")
    return metrics, notes


def git_sha(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def environment(root, seed):
    import numpy
    import scipy
    import atompair
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "backend": atompair.backend_name(), "git": git_sha(root), "seed": seed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "atompair" / "cli.py").is_file():
        print(f"perfbench: no atompair sources under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[ns.workload]
    work = root / WORK_DIR / f"{ns.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(root, work, ns.seed)
    try:
        prep = workload.prepare(ns.seed, work)
        if ns.trace:
            metrics, notes = traced(bench, workload, prep)
        else:
            metrics, notes = timed(bench, workload, prep, ns.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(root, ns.seed)
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload: {ns.workload} ({prep.cells} cells, {prep.trajectories} "
          f"trajectories per run, closed loop, --threads 1)")
    for name, (value, unit) in metrics.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    for name in sorted(notes.keys() - metrics.keys()):
        print(f"{name}: {notes[name]}")
    failed_checks = [c for c in bench.checks if not c[1]]
    for name, _, detail in failed_checks:
        print(f"FAILED check: {name}: {detail}")
    attempted = bench.attempted_traj + len(bench.checks)
    failed = bench.failed_traj + len(failed_checks)
    print(f"checks: {len(bench.checks) - len(failed_checks)}/{len(bench.checks)} passed; "
          f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
