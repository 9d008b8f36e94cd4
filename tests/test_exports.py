import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fockprop

MODULES = sorted(m.name for m in pkgutil.iter_modules(fockprop.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"fockprop.{name}")
    missing = [sym for sym in getattr(module, "__all__", ()) if not hasattr(module, sym)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(fockprop.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"fockprop.{module}"), name)
        assert hasattr(fockprop, name)
