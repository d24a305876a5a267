"""Compare two checkouts on the benchmark in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --seed N
        [--pairs 10] [--seconds 30] [--json PATH]

Each run is ``perfbench/run.py --workload W --seed N --seconds S --trace 0``
started in the root of one checkout, so each side measures its own ``src``
with its own ``perfbench``; the environment is passed through unchanged. In
pair k (counting from 1) the parent runs first when k is odd and second
when k is even. Every workload, and every end-to-end metric with the
direction that is better and the bound by which it may worsen, is read from
PARENT_DIR's ``BENCHMARK.json``.

For each workload and metric it prints the median and quartiles of each
side (``numpy.percentile``, linear interpolation, over the runs that gave a
value), the pairs the change wins out of all pairs run (ties count for
neither, and a pair missing either value is not a win), the difference of
the medians, the parent's interquartile range and one verdict:

- gain met: the change wins at least 9 in 10 pairs, its median is better
  than the parent's by more than the parent's IQR, every run reported its
  failed operations and the change failed no more of them than the parent;
- worse: the change's median is worse than the parent's by more than the
  bound, relative to the parent's median;
- unresolved: the wider of the two sides' IQRs, relative to the parent's
  median, exceeds the bound, and not every run of the change is better
  than every run of the parent; or a side has no value at all;
- within bound: otherwise.

A run that prints no result counts as not ``correct``, with its failed
operations unknown (null). ``--json PATH`` writes the summary in the layout
of ``BENCH_12.json`` (``workloads.<name>.trace0``), with each side's
environment as its runs printed it (python, numpy, scipy, nproc, backend,
git sha, seed). Exits 1 when any run is not ``correct``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

RUN_TIMEOUT_S = 600.0   # run.py stops its own children after 170 s


def _side(runs):
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6), "runs": [round(float(v), 6) for v in runs]}


def summarize(parent, change, better, bound, failed):
    """Compare paired runs of one metric: ``parent[i]`` and ``change[i]``
    come from pair i, None where a run gave no value. ``better`` is "lower"
    or "higher"; ``bound`` is the relative worsening allowed; ``failed`` is
    the (parent, change) failed operations summed over the runs, None for a
    side with a run that reported none."""
    sign = 1.0 if better == "lower" else -1.0     # sign * (c - p) < 0 is a gain
    wins = sum(p is not None and c is not None and sign * (c - p) < 0.0
               for p, c in zip(parent, change))
    p = np.array([v for v in parent if v is not None], dtype=float)
    c = np.array([v for v in change if v is not None], dtype=float)
    if not (p.size and c.size):
        return {"change_wins": f"{wins}/{len(parent)}", "verdict": "unresolved"}
    ps, cs = _side(p), _side(c)
    diff = cs["median"] - ps["median"]
    iqr = ps["q3"] - ps["q1"]
    scale = abs(ps["median"]) or 1.0
    spread = max(iqr, cs["q3"] - cs["q1"]) / scale
    no_more_failed = None not in failed and failed[1] <= failed[0]
    if no_more_failed and wins >= 0.9 * len(parent) and -sign * diff > iqr:
        verdict = "gain met"
    elif sign * diff / scale > bound:
        verdict = "worse"
    elif spread > bound and not np.all(sign * (c[:, None] - p[None, :]) < 0.0):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": ps, "change": cs, "change_wins": f"{wins}/{len(parent)}",
            "median_diff": round(diff, 6), "parent_iqr": round(iqr, 6),
            "change_vs_parent": round(diff / scale, 4), "verdict": verdict}


def run_once(root, workload, seed, seconds):
    """One benchmark run in checkout ``root``: the JSON of its last line
    with the ``environment:`` line it printed, or a result that is not
    correct, with unknown failed operations, when it printed no JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
        return {"correct": False, "failed": None, "metrics": {}, "error": repr(exc)}
    result["environment"] = next(
        (dict(item.split("=", 1) for item in line.split()[1:])
         for line in lines if line.startswith("environment: ")), None)
    return result


def report(workload, metrics, results, seed):
    """Summarize one workload's paired results and print them."""
    sides = {side: [r[side] for r in results] for side in ("parent", "change")}
    failed = {s: None if any(r["failed"] is None for r in runs) else sum(r["failed"] for r in runs)
              for s, runs in sides.items()}
    out = {"correct": {s: all(r["correct"] for r in runs) for s, runs in sides.items()},
           "failed": failed}
    print(f"{workload}: {len(results)} pairs at seed {seed}; correct runs "
          + ", ".join(f"{s} {sum(r['correct'] for r in runs)}/{len(runs)}"
                      for s, runs in sides.items())
          + "; failed operations "
          + ", ".join(f"{s} {'unknown' if n is None else n}" for s, n in failed.items()))
    for metric in metrics:
        name = metric["name"]
        values = {s: [r["metrics"].get(name, {}).get("value") for r in runs]
                  for s, runs in sides.items()}
        summary = summarize(values["parent"], values["change"], metric["better"],
                            metric["bound"], (failed["parent"], failed["change"]))
        out[name] = {"unit": metric["unit"], **summary}
        if "parent" not in summary:
            print(f"  {name}: a side has no value; {summary['verdict']}")
            continue
        ps, cs = summary["parent"], summary["change"]
        print(f"  {name} ({metric['unit']}, {metric['better']} is better, bound "
              f"{metric['bound']:g}): parent {ps['median']:.6g} [{ps['q1']:.6g}, "
              f"{ps['q3']:.6g}], change {cs['median']:.6g} [{cs['q1']:.6g}, "
              f"{cs['q3']:.6g}]; change wins {summary['change_wins']}; median diff "
              f"{summary['median_diff']:+.6g} against parent IQR {summary['parent_iqr']:.6g}: "
              f"{summary['verdict']}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--json", type=Path, help="write the summary here")
    ns = parser.parse_args(argv)
    if ns.pairs < 1:
        parser.error("--pairs must be >= 1")

    bench = json.loads((ns.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = {}
    environments = {"parent": [], "change": []}
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for k in range(1, ns.pairs + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            pair = {side: run_once(getattr(ns, side), workload, ns.seed, ns.seconds)
                    for side in order}
            results.append(pair)
            for side, result in pair.items():
                env = result.get("environment")
                if env and env not in environments[side]:
                    environments[side].append(env)
            print(f"{workload} pair {k}/{ns.pairs} ({order[0]} first): "
                  + ", ".join(f"{s} correct={pair[s]['correct']}" for s in order),
                  file=sys.stderr, flush=True)
        summary[workload] = {"trace0": report(workload, bench["end_to_end"], results, ns.seed)}

    if ns.json:
        document = {
            "what": (f"Parent vs change: perfbench/run.py --seed {ns.seed} --seconds "
                     f"{ns.seconds:g} --trace 0, {ns.pairs} alternating pairs per workload "
                     "(parent first in odd pairs), one run at a time."),
            "environment": environments,
            "quartiles": "numpy.percentile, linear interpolation",
            "workloads": summary,
        }
        ns.json.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    correct = all(w["trace0"]["correct"][s] for w in summary.values()
                  for s in ("parent", "change"))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
