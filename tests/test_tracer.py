"""perfbench's tracer still finds every function it wraps.

The tracer patches msdistill functions by name, so a renamed function would
otherwise surface only in a traced benchmark run.
"""
import importlib.util
import sys
from pathlib import Path

import msdistill.cli  # noqa: F401  (imports every layer the tracer patches)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def msdistill_bindings():
    """Every name bound in an msdistill module or in one of its classes, with its value."""
    bindings = {}
    for name, module in sys.modules.items():
        if name == "msdistill" or name.startswith("msdistill."):
            for key, value in vars(module).items():
                bindings[name, key] = value
                if isinstance(value, type):
                    bindings.update({(name, key, a): v for a, v in vars(value).items()})
    return bindings


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    gf2 = sys.modules["msdistill.gf2"]
    before, row_space = msdistill_bindings(), gf2.row_space
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert gf2.row_space is not row_space
    finally:
        tracer.uninstall()
    after = msdistill_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
