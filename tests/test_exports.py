import ast
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

MODULES = ("fock", "spin", "pv_measure", "inference", "linops", "cli")
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # a stale __all__ entry breaks `from cohstat.<module> import *`
    module = importlib.import_module(f"cohstat.{name}")
    namespace = {}
    exec(f"from cohstat.{name} import *", namespace)
    assert sorted(module.__all__) == sorted(key for key in namespace if key != "__builtins__")


def test_package_binds_only_its_version():
    # one import path per name, `from cohstat.<module> import name`: the package re-exports nothing,
    # so besides __version__ it binds only the submodules imported so far
    package = importlib.import_module("cohstat")
    for name in MODULES:
        importlib.import_module(f"cohstat.{name}")
    public = {name: value for name, value in vars(package).items() if not name.startswith("_")}
    assert isinstance(package.__version__, str)
    assert {name for name, value in public.items() if not isinstance(value, types.ModuleType)} == set()
    assert all(value.__name__ == f"cohstat.{name}" for name, value in public.items())


def test_benchmark_bindings_resolve(monkeypatch):
    # the benchmark traces functions by name from outside the package: each (owner, attribute) of its
    # TRACED table must still name a function, and the exponential's module aliases must stay one object
    path = ROOT / "bench" / "spans.py"
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


def _read_names(path) -> set[str]:
    """Every name a file reads: its loaded identifiers and the attributes it looks up."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_reader():
    # an exported name must be read by the package itself, an acceptance test, a script or the
    # benchmark's TRACED table; a definition and an __all__ entry are not reads
    readers = list((ROOT / "src" / "cohstat").glob("*.py"))
    readers += [ROOT / "tests" / "test_acceptance.py", *(ROOT / "scripts").glob("*.py")]
    read = set().union(*map(_read_names, readers))
    spans = ast.parse((ROOT / "bench" / "spans.py").read_text()).body
    (traced,) = [node.value for node in spans if isinstance(node, ast.Assign) and ast.unparse(node.targets) == "TRACED"]
    for _, owner_path, attribute in ast.literal_eval(traced):
        read.update((owner_path.partition(":")[2], attribute))
    unread = [
        f"{name}.{export}"
        for name in MODULES
        for export in importlib.import_module(f"cohstat.{name}").__all__
        if export not in read
    ]
    assert unread == []
