"""``src/fusionpose`` holds only what a ``fusionpose`` command reaches.

Every top-level function and class, and every method that is not a
dunder, must be named somewhere in ``src/`` outside its own definition:
called, referenced, imported or re-exported. Every module must be
imported by another. Code that only tests use lives in ``tests/support.py``.
"""

import ast
import collections
from pathlib import Path

import fusionpose

SRC = Path(fusionpose.__file__).resolve().parent

# Definitions reached from outside ``src/``, each with the reason.
ENTRY_POINTS = {
    "cli.py:main": "the `fusionpose` console script in pyproject.toml",
}


def identifiers(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def definitions(tree):
    """(qualified name, node) of each top-level def and class, and each
    non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def parsed():
    return {path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
            for path in sorted(SRC.rglob("*.py"))}


def unreached(trees):
    everywhere = collections.Counter(n for tree in trees.values() for n in identifiers(tree))
    found = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            own = collections.Counter(identifiers(node))[name]
            if everywhere[name] == own and f"{module}:{qualname}" not in ENTRY_POINTS:
                found.append(f"{module}:{qualname}")
    return found


def test_every_definition_is_named_outside_itself():
    assert unreached(parsed()) == []


def test_every_entry_point_exists():
    trees = parsed()
    defined = {f"{module}:{qualname}" for module, tree in trees.items()
               for qualname, _ in definitions(tree)}
    assert set(ENTRY_POINTS) <= defined


def test_every_module_is_imported_by_another():
    trees = parsed()
    imported = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").rsplit(".", 1)[-1])
                imported.update(alias.name for alias in node.names)
    modules = {Path(module).stem for module in trees} - {"__init__", "cli"}
    assert sorted(modules - imported) == []


def test_a_test_only_function_put_back_is_found():
    trees = parsed()
    geometry = trees["geometry.py"]
    geometry.body.append(ast.parse(
        "def unproject(pixels, depths, calib):\n    return pixels\n").body[0])
    assert unreached(trees) == ["geometry.py:unproject"]
