"""Static checks over the package sources: no dead private name, no unused import,
an ``__all__`` that lists exactly what ``__init__`` imports, and an argv
property test with a strategy for every CLI command.

The scans read the modules with ``ast`` only, so they need no linter.
"""

import ast
from pathlib import Path

import pytest

import coxcut
from coxcut.cli import _COMMANDS
from test_cli_argv import ARGV

SRC = Path(__file__).resolve().parents[1] / "src" / "coxcut"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree):
    # every name read as a variable or attribute, or imported from another module
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_module_name_is_referenced(path):
    used = set().union(*(_used_names(_tree(m)) for m in MODULES))
    names = _module_level_names(_tree(path))
    dead = [n for n in names if n.startswith("_") and not n.startswith("__") and n not in used]
    assert dead == []


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa" in lines[node.lineno - 1] or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{bound} (line {node.lineno})")
    assert unused == []


def test_all_lists_exactly_the_names_init_imports():
    tree = _tree(SRC / "__init__.py")
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert sorted(set(imported)) == sorted(imported)
    assert sorted(set(coxcut.__all__)) == sorted(coxcut.__all__)
    assert set(imported) == set(coxcut.__all__)
    assert [name for name in coxcut.__all__ if not hasattr(coxcut, name)] == []


def test_argv_property_covers_every_command():
    # a new subcommand fails here until test_cli_argv draws its argv
    assert sorted(ARGV) == sorted(_COMMANDS)
