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
