import importlib

import pytest

MODULES = ("fock", "spin", "pv_measure", "inference", "linops", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # a stale __all__ entry breaks `from cohstat.<module> import *`
    module = importlib.import_module(f"cohstat.{name}")
    namespace = {}
    exec(f"from cohstat.{name} import *", namespace)
    assert sorted(module.__all__) == sorted(key for key in namespace if key != "__builtins__")
