import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

MODULES = ("fock", "spin", "pv_measure", "inference", "linops", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # a stale __all__ entry breaks `from cohstat.<module> import *`
    module = importlib.import_module(f"cohstat.{name}")
    namespace = {}
    exec(f"from cohstat.{name} import *", namespace)
    assert sorted(module.__all__) == sorted(key for key in namespace if key != "__builtins__")


def test_benchmark_bindings_resolve(monkeypatch):
    # the benchmark traces functions by name from outside the package: each (owner, attribute) of its
    # TRACED table must still name a function, and the exponential's module aliases must stay one object
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look their module up there
    spec.loader.exec_module(spans)
    for _, owner_path, attribute in spans.TRACED:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = vars(owner)[class_name]
        assert callable(vars(owner)[attribute]), (owner_path, attribute)
    from cohstat import fock, linops, spin

    assert fock.matrix_exponential is spin.matrix_exponential is linops.matrix_exponential
