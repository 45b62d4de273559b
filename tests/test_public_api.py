import ast
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import numpy as np
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


def _src_names():
    """Every name that src/ code outside __init__.py loads, imports or reads
    as an attribute (so neither a comment nor an __all__ string counts)."""
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
    return used


# Public names that builtin containers and ndarrays also carry (``values``,
# ``keys``, ``items``, ``copy``, ...): src/ code that reads such a name may be
# reading a dict's or an array's, so that read shows nothing
CONTAINER_NAMES = {
    name
    for cls in (dict, list, tuple, set, frozenset, str, np.ndarray)
    for name in dir(cls)
    if not name.startswith("_")
}

# Public methods with such a name, each with the src/ functions that call it
# (module.function or module.Class.method); every one of them must still call
# an attribute of that name
CALL_SITES = {
    "poly.PolynomialFamily.values": ("core.LinearCV.__call__", "ensemble.EnsembleFamily.values"),
    "kernels.KernelFamily.values": ("core.LinearCV.__call__", "ensemble.EnsembleFamily.values"),
    "ensemble.EnsembleFamily.values": ("core.LinearCV.__call__", "training.LinearFeatureModel.values"),
}


def _src_functions():
    """Every function and method of src/, by qualified name (module.function or
    module.Class.method), with its AST node."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if isinstance(child, ast.FunctionDef):
                    found[name] = child
                visit(child, name)

    for path in Path(steincv.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def _calls_attribute(node, attr):
    """Whether the code under ``node`` calls an attribute named ``attr``."""
    return any(
        isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == attr
        for call in ast.walk(node)
    )


def _reached(qualified, used, spans):
    """Whether the public name ``qualified`` (module.name or module.Class.method)
    is reached: the layer trace names it, or its name is in ``used``, unless
    containers carry that name too; then it needs a CALL_SITES entry, and each
    call site named there must still call it."""
    name = qualified.rsplit(".", 1)[1]
    if qualified in spans:
        return True
    if name not in CONTAINER_NAMES:
        return name in used
    sites = CALL_SITES.get(qualified, ())
    functions = _src_functions()
    return bool(sites) and all(
        site in functions and _calls_attribute(functions[site], name) for site in sites
    )


def _span_names():
    """The qualified names that perfbench/layertrace.py traces as spans."""
    trace = _layertrace()
    return {name for names in trace.LAYERS.values() for name in names} | set(trace.COUNTERS)


def test_every_exported_name_is_used_or_traced():
    # a public name that only tests reach belongs in the tests; a name counts
    # as used when src/ code uses it (``_src_names``), or when
    # perfbench/layertrace.py names it as a span
    spans = {f"{name.split('.')[0]}.{name.split('.')[-1]}" for name in _span_names()}
    used = _src_names()
    unreached = sorted(
        f"{name}.{attr}"
        for name in MODULES
        for attr in getattr(importlib.import_module(f"steincv.{name}"), "__all__", ())
        if attr not in FORMAT_EXPORTS and not _reached(f"{name}.{attr}", used, spans)
    )
    assert not unreached, f"exported but used by no code path: {unreached}"


def _public_methods(cls):
    """Names of the methods, class and static methods and properties that
    ``cls`` defines itself and does not mark private."""
    kinds = (classmethod, staticmethod, property)
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))
    ]


def test_every_public_method_of_an_exported_class_is_used_or_traced():
    # as for exported names: a method counts as reached when src/ code uses
    # its name, or when the layer trace names it as a span (module.Class.method);
    # a method named like a container's is reached only through its call sites
    used, spans = _src_names(), _span_names()
    methods = []
    for name in MODULES:
        module = importlib.import_module(f"steincv.{name}")
        for attr in getattr(module, "__all__", ()):
            cls = getattr(module, attr)
            if inspect.isclass(cls):
                methods += [f"{name}.{attr}.{method}" for method in _public_methods(cls)]
    unreached = [q for q in methods if not _reached(q, used, spans)]
    assert not unreached, f"public methods used by no code path: {unreached}"
    # an entry for a method that is gone, or not named like a container's, is stale
    assert set(CALL_SITES) <= {q for q in methods if q.rsplit(".", 1)[1] in CONTAINER_NAMES}


# The functions of src/ that may handle np.linalg.LinAlgError: the one helper
# that adds a nugget, escalates it and reports a failed factorization, and the
# mixture's check of the covariances it is given, which adds no nugget
LINALG_ERROR_HANDLERS = {"kernels._factor_spd", "targets.MixtureTarget.__post_init__"}


def _linalg_error_handlers(node, name, found):
    """Add to ``found`` the qualified name of every function under ``node``
    with an ``except`` clause that names LinAlgError."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _linalg_error_handlers(child, f"{name}.{child.name}", found)
            continue
        if isinstance(child, ast.ExceptHandler) and child.type is not None:
            caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
            if any(getattr(c, "attr", getattr(c, "id", None)) == "LinAlgError" for c in caught):
                found.add(name)
        _linalg_error_handlers(child, name, found)


def test_only_the_factor_guard_handles_linalg_error():
    # a second place that catches a failed factorization grows a second
    # nugget policy and a second message
    found = set()
    for path in Path(steincv.__file__).parent.glob("*.py"):
        _linalg_error_handlers(ast.parse(path.read_text(encoding="utf-8")), path.stem, found)
    assert not found - LINALG_ERROR_HANDLERS, sorted(found - LINALG_ERROR_HANDLERS)
    assert "kernels._factor_spd" in found
