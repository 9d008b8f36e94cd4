import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import fockprop
from fockprop.oracle import recommended_steps
from fockprop.superop import build_liouvillian, kerr_zero_t_generator

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


def _package_imports(name):
    """The fockprop modules that module `name` imports, directly or through others."""
    found, todo = set(), [name]
    while todo:
        source = Path(fockprop.__file__).with_name(f"{todo.pop()}.py").read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                mods = [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fockprop."):
                mods = [node.module.split(".")[1]]
            elif isinstance(node, ast.Import):
                mods = [a.name.split(".")[1] for a in node.names if a.name.startswith("fockprop.")]
            else:
                continue
            new = {m for m in mods if m in MODULES} - found
            found |= new
            todo += sorted(new)
    return found


# the oracle checks the closed forms, so neither side may reuse the other's code
INDEPENDENT = {
    "superop": {"kerr_zero_t", "kerr_finite_t", "pdc"},
    "oracle": {"kerr_zero_t", "kerr_finite_t", "pdc"},
    "kerr_zero_t": {"superop", "oracle"},
    "kerr_finite_t": {"superop", "oracle"},
}


@pytest.mark.parametrize("name", sorted(INDEPENDENT))
def test_oracle_and_closed_forms_import_nothing_of_each_other(name):
    assert _package_imports(name) & INDEPENDENT[name] == set()


def test_package_imports_follow_the_chain():
    # imports are followed: oracle reaches fock only through superop
    assert _package_imports("kerr_zero_t") == {"kerr_finite_t"}
    assert _package_imports("oracle") == {"superop", "fock"}


def _workloads():
    """perfbench/workloads.py, loaded by path: perfbench is not a package here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_verify_layers_resolve():
    # the benchmark's tracer wraps these names and fails a run that never
    # calls one, so a rename here must reach the layer map
    expected = _workloads().WORKLOADS["oracle_verify"].expected
    missing = [name for name in expected
               if not hasattr(importlib.import_module(f"fockprop.{name.split('.')[0]}"),
                              name.split(".")[1])]
    assert expected and missing == []
    # the tracer counts RK4 steps as recommended_steps(L, t), positionally
    assert recommended_steps(build_liouvillian(kerr_zero_t_generator(4, 1.0, 0.1)), 0.5) >= 2


def test_cli_imports_no_closed_form_or_generator_builder():
    # the model table lives in verify, which the CLI reads; a closed form or
    # a generator builder imported here would start a second table
    tree = ast.parse(Path(fockprop.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert imported and {m for m, _ in imported} & {"kerr_zero_t", "kerr_finite_t", "pdc"} == set()
    assert [name for m, name in imported if m == "superop" and name.endswith("_generator")] == []
    cli, verify = (importlib.import_module(f"fockprop.{name}") for name in ("cli", "verify"))
    assert cli.MODELS is verify.MODELS
