"""Every name a module of the package imports is used in that module, and
the package root imports only its submodules: names are imported from the
module that defines them, never re-exported."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "lockstep")
ROOT = os.path.join(SRC, "__init__.py")
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py")) if p != ROOT)


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a quoted annotation such as "Clause" uses the names inside the quotes
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


def test_the_package_has_modules_to_scan():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    unused = sorted(set(_imported(tree)) - _used(tree))
    assert not unused, f"{os.path.basename(path)} imports {unused} without using them"


def test_the_package_root_imports_only_submodules():
    submodules = {os.path.basename(p)[:-3] for p in MODULES}
    with open(ROOT, encoding="utf-8") as fh:
        body = ast.parse(fh.read(), filename=ROOT).body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]                                 # the docstring
    for node in body:
        assert isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None, (
            f"__init__.py line {node.lineno} is not 'from . import <submodules>'")
        names = {alias.name for alias in node.names}
        assert names <= submodules, f"__init__.py imports non-modules {sorted(names - submodules)}"


def test_the_driver_reads_the_valuation_only_through_scl():
    # the valuation's format (two literal sets, and the trail entry of each
    # atom) stays inside scl: the driver and verifier ask is_true,
    # is_false, is_defined and conflict_candidates instead
    path = os.path.join(SRC, "simulation.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    reads = sorted((node.lineno, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr in ("valuation", "_valuation", "_last_entry", "_false_clauses"))
    assert not reads, f"simulation.py reads the valuation's format at {reads}"


@pytest.mark.parametrize("path", MODULES + [ROOT], ids=os.path.basename)
def test_no_module_uses_the_locking_cached_property(path):
    # before Python 3.12, functools.cached_property takes a class-wide lock
    # on every first read; the package keeps its parts with core.memo
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    uses = sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "functools"
                  and any(alias.name == "cached_property" for alias in node.names)
                  or isinstance(node, ast.Attribute) and node.attr == "cached_property")
    assert not uses, f"{os.path.basename(path)} uses functools.cached_property at lines {uses}"
