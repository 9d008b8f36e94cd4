import ast
import importlib
import pkgutil
import sys
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


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_runtime_imports_are_stdlib_numpy_or_fockprop(name):
    # pyproject's runtime dependencies are numpy alone; scipy and the test
    # tools may appear only under tests/
    source = Path(fockprop.__file__).with_name(f"{name}.py").read_text(encoding="utf-8")
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    allowed = set(sys.stdlib_module_names) | {"numpy", "fockprop"}
    assert roots - allowed == set()
