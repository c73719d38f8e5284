"""The package's import graph, read from the source: modules share only public
names, import each other at module level, and the library modules below the
drivers import none of them. The tests' oracles import nothing from it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mealypred

SOURCES = {p.stem: ast.parse(p.read_text(), str(p)) for p in Path(mealypred.__file__).parent.glob("*.py")}
LIBRARY = ("automaton", "predictors", "enumeration", "spectral")
DRIVERS = {"evaluation", "search", "cli"}


def _package_imports(tree):
    """(package module, imported name or None) for every import of a package
    module in ``tree``; ``from . import x`` imports module x if the package
    has one, else the name x of the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mealypred."):
                    yield alias.name.split(".")[1], None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module != "mealypred" and not module.startswith("mealypred."):
                    continue
                module = module.partition(".")[2]
            for alias in node.names:
                if module:
                    yield module.split(".")[0], alias.name
                elif alias.name in SOURCES:
                    yield alias.name, None
                else:
                    yield "__init__", alias.name


@pytest.fixture(scope="module")
def imports():
    return {name: list(_package_imports(tree)) for name, tree in SOURCES.items()}


def test_no_private_name_crosses_modules(imports):
    crossing = [f"{name}: {module}.{imported}" for name, found in imports.items()
                for module, imported in found
                if imported and imported.startswith("_") and not imported.endswith("__")]
    assert crossing == []


def test_package_modules_are_imported_at_module_level():
    inside = []
    for name, tree in SOURCES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside += [f"{name}.{fn.name}: {module}" for module, _ in _package_imports(fn)]
    assert inside == []


def test_library_modules_import_no_driver(imports):
    upward = [f"{name}: {module}" for name in LIBRARY for module, _ in imports[name]
              if module in DRIVERS]
    assert upward == []


def test_oracles_import_nothing_from_the_package():
    # the reference definitions the tests check the library against share no
    # code with it
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert [name for name in imported if name.split(".")[0] in ("mealypred", "")] == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _defined(tree):
    """Every name ``tree`` binds: defs, classes, arguments, imports, assigned
    names and assigned attributes (``self._x = ...``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def _private_reads(tree):
    """(line, name) of every ``obj._name`` and ``getattr(obj, "_name", ...)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            yield node.lineno, node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)
              and _private(node.args[1].value)):
            yield node.lineno, node.args[1].value


def test_no_module_reads_another_modules_private_attributes():
    # a private attribute is read only where it is defined, so one module
    # never depends on another's internals
    foreign = [f"{name}.py:{line}: {attr}" for name, tree in SOURCES.items()
               for line, attr in _private_reads(tree) if attr not in _defined(tree)]
    assert foreign == []


def test_cli_import_leaves_argparse_out():
    # command lines are parsed from the CLI's field table alone
    src = str(Path(mealypred.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, mealypred.cli; assert 'argparse' not in sys.modules, 'argparse imported'"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
