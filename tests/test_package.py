"""Every module's public surface imports cleanly, the package exports
exactly its modules' `__all__`, and pyproject.toml names the package's
version and its console script."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import polyapprox
import polyapprox.cli

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

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


# the modules whose __all__ the package re-exports, in the package's order
REEXPORTED = ["approx_error", "curve", "exceptions", "measures", "optimal", "schemes", "study"]


def test_package_all_is_its_modules_all():
    expected = [
        attr
        for name in REEXPORTED
        for attr in importlib.import_module(f"polyapprox.{name}").__all__
    ]
    assert polyapprox.__all__ == expected
    # a name in two modules' lists would let one module shadow the other
    twice = sorted({attr for attr in expected if expected.count(attr) > 1})
    assert not twice, f"declared in more than one module's __all__: {twice}"
    namespace: dict = {}
    exec("from polyapprox import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(expected)


def _pyproject_strings(table: str) -> dict[str, str]:
    """The `key = "value"` lines of one pyproject.toml table.  Read line
    by line: tomllib is new in Python 3.11, and the project allows 3.10."""
    current, out = None, {}
    for line in PYPROJECT.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            current = line.strip("[]")
        elif current == table and "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            if len(value) > 1 and value[0] == value[-1] == '"':
                out[key] = value[1:-1]
    return out


def test_version_matches_pyproject():
    assert polyapprox.__version__ == _pyproject_strings("project")["version"]


def test_console_script_resolves_to_cli_main():
    module, _, attr = _pyproject_strings("project.scripts")["polyapprox"].partition(":")
    assert getattr(importlib.import_module(module), attr) is polyapprox.cli.main
