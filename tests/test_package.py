"""Every module's public surface imports cleanly."""

import importlib
import pkgutil

import pytest

import polyapprox

MODULES = ["polyapprox"] + [
    f"polyapprox.{info.name}" for info in pkgutil.iter_modules(polyapprox.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
