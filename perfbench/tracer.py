"""Span tracer for the traced benchmark run, and the per-layer summary.

The tracer wraps the functions listed in ``LAYER_TABLE`` as attributes of
their modules (and of every ``atompair`` module that imported the same
function object by name), so nothing under ``src/`` changes. Each call
records one span: name, start, end and parent span. Spans are kept in
memory in flat arrays and written to an ``.npz`` file when the run ends;
``summarize`` turns that file into the per-layer metrics.

A function missing from the package (renamed or deleted by a later change)
is skipped, and every metric that needs it is reported as unmeasured
instead of failing the run. The tracer only works on plain Python
functions: with the numba backend the kernels call each other inside
compiled code, where no wrapper is seen.
"""

import array
import importlib
import json
import sys
import time

import numpy as np

# (layer, module, function): the one place that maps layers to functions.
# "events" and "curve" are the two halves of the entanglement layer: event
# detection on the horizon grid, and sampled curves for the evolve output.
LAYER_TABLE = (
    ("cli", "atompair.cli", "main"),
    ("config", "atompair.config", "load_config"),
    ("config", "atompair.config", "load_preset"),
    ("config", "atompair.config", "parse_config"),
    ("sweeps", "atompair.sweeps", "run_curve"),
    ("sweeps", "atompair.sweeps", "run_events"),
    ("sweeps", "atompair.sweeps", "run_max_concurrence"),
    ("sweeps", "atompair.sweeps", "run_region_map"),
    ("sweeps", "atompair.kernels", "events_cells_kernel"),
    ("coefficients", "atompair.kernels", "assemble_kernel"),
    ("dynamics", "atompair.kernels", "generator_kernel"),
    ("dynamics", "atompair.kernels", "eig_decompose"),
    ("dynamics", "atompair.kernels", "pops_at"),
    ("events", "atompair.kernels", "events_kernel"),
    ("events", "atompair.kernels", "_bisect_crossing"),
    ("events", "atompair.kernels", "_golden_extremum"),
    ("events", "atompair.kernels", "_conc_at"),
    ("events", "atompair.kernels", "_conc_raw_at"),
    ("curve", "atompair.kernels", "trajectory_kernel"),
)

# concurrence evaluations, and the callers that make them refinement work
EVAL_FUNCS = ("_conc_at", "_conc_raw_at")
SCAN_PARENTS = ("events_kernel",)
REFINE_PARENTS = ("_bisect_crossing", "_golden_extremum")

# the functions each per-layer metric is computed from; the metric is
# unmeasured when any of them could not be wrapped
NEEDS = {
    "config.parse_ms": ("load_config", "load_preset", "parse_config"),
    "coefficients.calls": ("assemble_kernel",),
    "coefficients.us_per_call": ("assemble_kernel",),
    "dynamics.decompositions": ("eig_decompose",),
    "dynamics.decompose_us": ("eig_decompose",),
    "dynamics.prop_evals": ("pops_at",),
    "dynamics.prop_eval_us": ("pops_at",),
    "dynamics.cond_max": ("eig_decompose",),
    "dynamics.expm_fallbacks": ("eig_decompose",),
    "entanglement.scan_evals": EVAL_FUNCS + SCAN_PARENTS,
    "entanglement.refine_evals": EVAL_FUNCS + REFINE_PARENTS,
    "entanglement.refine_share": EVAL_FUNCS + SCAN_PARENTS + REFINE_PARENTS,
    "entanglement.events_self_s": ("events_kernel",),
    "entanglement.curve_self_s": ("trajectory_kernel",),
    "sweeps.event_passes": ("run_events",),
    "sweeps.self_s": ("run_events",),
    "cli.format_write_s": ("main",),
}


class Tracer:
    """Span recorder for one single-threaded traced run."""

    def __init__(self):
        self.names = []                  # name table, index = name id
        self.layers = []
        self.missing = []
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = []
        self.cond_max = 0.0
        self.cond_over = 0
        self.cond_limit = None

    def install(self):
        """Wrap every function of LAYER_TABLE that exists in the package."""
        modules = {}
        for layer, module_name, func_name in LAYER_TABLE:
            try:
                module = modules.setdefault(
                    module_name, importlib.import_module(module_name))
                original = getattr(module, func_name)
                if func_name == "eig_decompose":   # the cond metrics need the expm threshold
                    self.cond_limit = float(module.COND_LIMIT)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{func_name}")
                continue
            observe = self._observe_cond if func_name == "eig_decompose" else None
            wrapped = self._wrap(original, len(self.names), observe)
            self.names.append(func_name)
            self.layers.append(layer)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("atompair"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def _observe_cond(self, result):
        cond = float(result[-1])
        if not np.isfinite(cond) or cond > self.cond_limit:
            self.cond_over += 1
        if np.isfinite(cond) and cond > self.cond_max:
            self.cond_max = cond

    def _wrap(self, func, nid, observe):
        names, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = func
        return traced

    def save(self, path):
        meta = {"names": self.names, "layers": self.layers,
                "missing": self.missing, "cond_max": self.cond_max,
                "expm_fallbacks": self.cond_over}
        np.savez(path, name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 meta=np.array(json.dumps(meta)))


def summarize(path, panels):
    """Per-layer metrics from a saved span file.

    Returns (metrics, unmeasured): metrics maps name to (value, unit);
    unmeasured lists the metric names whose functions were missing, and
    those are left out of metrics, since no value was measured. ``panels``
    is the number of panels the run computed (for event passes per panel).
    """
    with np.load(path) as data:
        nid = data["name_id"]
        parent = data["parent"]
        dur = data["end"] - data["start"]
        meta = json.loads(str(data["meta"]))
    names = meta["names"]
    layers = meta["layers"]
    nn = len(names)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_t = dur - child
    calls = np.bincount(nid, minlength=nn)
    total_by_name = np.bincount(nid, weights=dur, minlength=nn)
    self_by_name = np.bincount(nid, weights=self_t, minlength=nn)

    def ids(*funcs):
        return [names.index(f) for f in funcs if f in names]

    def count(*funcs):
        return int(sum(calls[i] for i in ids(*funcs)))

    def mean_us(func):
        n = count(func)
        return float(total_by_name[ids(func)].sum()) / n * 1e6 if n else 0.0

    def layer_self(layer):
        return float(sum(self_by_name[i] for i in range(nn) if layers[i] == layer))

    eval_ids = ids(*EVAL_FUNCS)
    is_eval = np.isin(nid, eval_ids)
    parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)], -1)
    scan = int((is_eval & np.isin(parent_nid, ids(*SCAN_PARENTS))).sum())
    refine = int((is_eval & np.isin(parent_nid, ids(*REFINE_PARENTS))).sum())

    metrics = {
        "config.parse_ms": (layer_self("config") * 1e3, "ms"),
        "coefficients.calls": (count("assemble_kernel"), "count"),
        "coefficients.us_per_call": (mean_us("assemble_kernel"), "us"),
        "dynamics.decompositions": (count("eig_decompose"), "count"),
        "dynamics.decompose_us": (mean_us("eig_decompose"), "us"),
        "dynamics.prop_evals": (count("pops_at"), "count"),
        "dynamics.prop_eval_us": (mean_us("pops_at"), "us"),
        "dynamics.cond_max": (meta["cond_max"], "1"),
        "dynamics.expm_fallbacks": (meta["expm_fallbacks"], "count"),
        "entanglement.scan_evals": (scan, "count"),
        "entanglement.refine_evals": (refine, "count"),
        "entanglement.refine_share": (refine / (scan + refine) if scan + refine else 0.0,
                                      "frac"),
        "entanglement.events_self_s": (layer_self("events"), "s"),
        "entanglement.curve_self_s": (layer_self("curve"), "s"),
        "sweeps.event_passes": (count("run_events") / panels, "count"),
        "sweeps.self_s": (layer_self("sweeps"), "s"),
        "cli.format_write_s": (layer_self("cli"), "s"),
    }
    missing = {m.rsplit(".", 1)[1] for m in meta["missing"]}
    unmeasured = sorted(name for name, funcs in NEEDS.items()
                        if missing.intersection(funcs))
    for name in unmeasured:
        del metrics[name]
    return metrics, unmeasured
