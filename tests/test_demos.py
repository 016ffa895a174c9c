"""The narrative demos still run against the library.

``fault_injection.py`` is left out: it runs two million trials per point.
"""
import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["finite_size_comparison", "schedule_design"])
def test_demo_runs(capsys, name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()
