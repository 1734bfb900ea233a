"""The demos that finish in about a second run end to end, so removing an
API one of them uses fails here rather than only when someone runs it.  The
slow ones are only parsed: every name they import from sodfeeder must
resolve."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_corridor_and_demand.py",
                                  "02_single_run.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("name", ["03_train_policy.py",
                                  "04_compare_policies.py"])
def test_slow_demo_imports_resolve(name):
    tree = ast.parse((DEMOS / name).read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "sodfeeder"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), \
                "%s imports %s.%s" % (name, node.module, alias.name)
