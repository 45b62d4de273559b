import ast
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


# Exported for a file format that no code path of the package writes or reads
# itself, so no src/ code uses them
FORMAT_EXPORTS = {
    "save_scored_samples": "writes the scored-sample CSV that `steincv ingest` reads",
    "mixture_to_json": "writes the fixed mixture that a gp problem spec reads",
    "report_from_dict": "reads the JSON report that emit_report writes",
}


def test_every_exported_name_is_used_or_traced():
    # a public name that only tests reach belongs in the tests; a name counts
    # as used when src/ code outside __init__.py loads, imports or reads it as
    # an attribute (so neither a comment nor an __all__ string counts), or when
    # perfbench/layertrace.py names it as a span
    used = set()
    for path in Path(steincv.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    trace = _layertrace()
    spans = {name for names in trace.LAYERS.values() for name in names} | set(trace.COUNTERS)
    traced = {name.split(".")[-1] for name in spans}
    unreached = sorted(
        f"{name}.{attr}"
        for name in MODULES
        for attr in getattr(importlib.import_module(f"steincv.{name}"), "__all__", ())
        if attr not in used | traced | set(FORMAT_EXPORTS)
    )
    assert not unreached, f"exported but used by no code path: {unreached}"
