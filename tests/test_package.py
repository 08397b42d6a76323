"""The package namespace that ``from triarm import *`` binds."""

import types

import triarm


def test_star_import_binds_no_modules():
    namespace = {}
    exec("from triarm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == triarm.__all__
    modules = [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert modules == []
    assert {"exact_distribution", "monte_carlo", "theory_report", "order_checks"} <= set(namespace)
