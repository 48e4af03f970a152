import importlib
from pathlib import Path

import mersenne_doubling

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_bindings_exist(monkeypatch):
    # The benchmark's tracer wraps these (module, attribute) bindings by name;
    # a binding that a refactor drops would break `perfbench/run.py --trace 1`.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for module_name, attr, _, _ in tracing.PATCHES:
        module = importlib.import_module(f"{mersenne_doubling.__name__}.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_bench_setup_runs(monkeypatch):
    # The set-up every benchmark workload pays first: an API change that it
    # depends on fails here rather than only in a benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    prepare = importlib.import_module("prepare")
    prepare.warm_up(mersenne_doubling, prepare.build_table(mersenne_doubling))
