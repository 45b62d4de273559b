import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import pytest

import steincv

MODULES = sorted(info.name for info in pkgutil.iter_modules(steincv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"steincv.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"steincv.{name}.__all__ lists missing {attr!r}"


def test_package_has_the_expected_modules():
    expected = {"bench", "core", "ensemble", "kernels", "mlp", "poly", "problems", "targets", "training"}
    assert expected <= set(MODULES)


def _layertrace():
    """perfbench/layertrace.py, executed from its source without writing anything."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
    module = types.ModuleType("layertrace")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_layer_trace_spans_name_traced_functions():
    # a span name the tracer cannot bind silently reads as a zero layer metric
    trace = _layertrace()
    names = {name for spans in trace.LAYERS.values() for name in spans} | set(trace.COUNTERS)
    for name in sorted(names):
        mod_name, *rest = name.split(".")
        assert mod_name in trace.TRACED_MODULES, name
        module = importlib.import_module(f"steincv.{mod_name}")
        if len(rest) == 1:
            traced = tuple(module.__all__) + trace.EXTRA_FUNCTIONS.get(mod_name, ())
            assert rest[0] in traced, f"{name} is neither exported nor an extra function"
            assert inspect.isfunction(getattr(module, rest[0])), name
        else:
            assert tuple(rest) in trace.EXTRA_METHODS.get(mod_name, ()), f"{name} is not an extra method"
            assert inspect.isfunction(getattr(module, rest[0]).__dict__[rest[1]]), name
