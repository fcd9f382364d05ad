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



def test_package_names_are_in_their_module_all():
    missing = []
    for attr in polyapprox.__all__:
        module = importlib.import_module(getattr(polyapprox, attr).__module__)
        if attr not in getattr(module, "__all__", (attr,)):
            missing.append(f"{module.__name__}.{attr}")
    assert not missing, f"re-exported but missing from their module's __all__: {missing}"
