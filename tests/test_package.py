"""The package namespace that ``from triarm import *`` binds, and what it loads."""

import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import triarm

#: Modules only a draw or a thread pool needs, which serial CLI runs of
#: ``enumerate`` and ``analyze`` must not import.
DEFERRED_MODULES = ("numpy.random", "concurrent.futures")

_LOADED_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import numpy
    names = json.loads(sys.argv[2])
    before = [name in sys.modules for name in names]
    from triarm.cli import main
    flags = [sys.argv[1], "--sizes", "2,2,2", "--format", "json"]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(["enumerate", *flags]), main(["analyze", *flags, "--threads", "2"])]
    after = [name in sys.modules for name in names]
    print(json.dumps({"codes": codes, "before": before, "after": after}))
    """
)


def test_star_import_binds_no_modules():
    namespace = {}
    exec("from triarm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == triarm.__all__
    modules = [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert modules == []
    assert {"exact_distribution", "monte_carlo", "theory_report", "order_checks"} <= set(namespace)


@pytest.fixture(scope="module")
def cli_loaded(tmp_path_factory):
    """Which deferred modules a fresh interpreter held after numpy, and after two CLI runs."""
    path = tmp_path_factory.mktemp("loaded") / "pop.csv"
    path.write_text("a,b,c,z\n0,1,2,0\n0,1,2,0\n0,1,2,0\n2,3,4,-2\n2,3,4,-2\n4,5,6,4\n")
    env = dict(os.environ)
    src = str(Path(triarm.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_SCRIPT, str(path), json.dumps(DEFERRED_MODULES)],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        check=True,
    )
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0]
    return {
        name: (before, after)
        for name, before, after in zip(DEFERRED_MODULES, out["before"], out["after"])
    }


@pytest.mark.parametrize("name", DEFERRED_MODULES)
def test_serial_cli_runs_do_not_import(cli_loaded, name):
    before, after = cli_loaded[name]
    if before:
        pytest.skip(f"import numpy already loads {name} in this numpy build")
    assert not after, f"enumerate or analyze imported {name}"
