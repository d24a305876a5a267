"""The benchmark finds its layers by function name and runs its configs.

``perfbench/tracer.py`` wraps package functions by module and name; a
function it needs that is renamed or deleted turns the per-layer metrics
built on it "unmeasured" without failing anything. A config key that the
workloads write and the schema no longer accepts makes every benchmark run
exit 2. These tests fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

from atompair.cli import build_parser
from atompair.config import load_config, load_preset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layer_functions_resolve():
    tracer = _load("tracer")
    modules = {}
    for _layer, module_name, func_name in tracer.LAYER_TABLE:
        modules.setdefault(func_name, []).append(module_name)
    needed = sorted({func for funcs in tracer.NEEDS.values() for func in funcs})
    missing = [func for func in needed
               if not any(hasattr(importlib.import_module(name), func)
                          for name in modules.get(func, []))]
    assert not missing, f"functions the traced benchmark needs are gone: {missing}"
    # the cond metrics compare against the expm threshold
    kernels = importlib.import_module("atompair.kernels")
    assert isinstance(kernels.COND_LIMIT, float)
    # and read the cond of one generator as float(result[-1]): a stacked
    # eig_decompose returning a cond array would break every traced run
    M = kernels.generator_kernel(0.3, 0.25, 0.1, 0.08)
    assert M.shape == (4, 4)
    assert float(kernels.eig_decompose(M)[-1]) > 1.0


def test_workload_configs_load(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))   # workloads imports oracle
    workloads = _load("workloads")
    for name, workload in workloads.WORKLOADS.items():
        ns = build_parser().parse_args(workload.prepare(0, tmp_path).cli_args)
        config = load_preset(ns.preset) if ns.preset else load_config(ns.config)
        assert config.sweep_specs(ns.command), name
