import importlib
import pkgutil

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
