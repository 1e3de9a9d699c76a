"""Every name a qctl module imports is used in that module, and every
private function, class and method qctl defines is used somewhere in
qctl."""

import ast
from pathlib import Path

import pytest

import qctl

MODULES = sorted(p for p in Path(qctl.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


SOURCES = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
           for p in sorted(Path(qctl.__file__).parent.glob("*.py"))}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _outside(tree, skip):
    """The nodes of tree, leaving out skip and everything in it."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _imports(tree, name: str, module: str = None) -> bool:
    """Whether tree binds name by a relative import (from module, when
    given)."""
    return any(isinstance(node, ast.ImportFrom) and node.level == 1
               and module in (None, node.module)
               and any(alias.name == name for alias in node.names)
               for node in ast.walk(tree))


def _used(module: str, definition) -> bool:
    """Whether a top-level definition is imported by another module or
    named in its own outside itself, where no import shadows it."""
    name, tree = definition.name, SOURCES[module]
    if any(_imports(other, name, module) for key, other in SOURCES.items()
           if key != module):
        return True
    return not _imports(tree, name) and any(
        isinstance(node, ast.Name) and node.id == name
        for node in _outside(tree, definition))


def _method_used(method) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == method.name
               for tree in SOURCES.values()
               for node in _outside(tree, method))


def _dead_private_definitions():
    dead = []
    for module, tree in SOURCES.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if _private(top.name) and not _used(module, top):
                dead.append(f"{module}.{top.name}")
            methods = top.body if isinstance(top, ast.ClassDef) else []
            for method in methods:
                if (isinstance(method, ast.FunctionDef)
                        and _private(method.name)
                        and not _method_used(method)):
                    dead.append(f"{module}.{top.name}.{method.name}")
    return dead


def test_every_private_definition_is_used():
    assert _dead_private_definitions() == []
