"""The demos that finish in about a second run end to end, so removing an
API one of them uses fails here rather than only when someone runs it."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_corridor_and_demand.py",
                                  "02_single_run.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
