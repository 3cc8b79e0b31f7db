"""Every public name in `src/grundylab` has a caller outside the tests.

A top-level function or class counts as reached when some `ast.Name` or
`ast.Attribute` node in `src/`, `demos/` or `benchmarks/` spells it, outside
the name's own definition.  A bare `ast.Name` counts only in the module that
defines the name, or in a file that imports the name from that module
(`from grundylab.games import ...`, or `from .games import ...` inside the
package), so a local of the same name elsewhere does not reach it.  A
method or property counts only through an `ast.Attribute` node, so a
parameter or local of the same name does not reach it; any attribute of
that name still does.  Docstrings and other strings, `getattr`'s included,
never count.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "grundylab").glob("*.py"))
CALLERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))

# One property read by string; the oracles the tests compare the library
# against live in tests/helpers.py.
UNREACHED_ON_PURPOSE = {
    # benchmarks/tracer.py reads it as getattr(f, "masks", ()) for
    # games.set_members; it goes when that count is taken without it
    "games.TurningFamily.masks",
}


def public_definitions(trees):
    """(module, qualified name, name, definition node, is a method) for
    each public top-level function and class, and each public method of a
    top-level class."""
    for path in SOURCES:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path.stem, f"{path.stem}.{node.name}", node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, f"{path.stem}.{node.name}.{item.name}", item.name, item, True


def imported_module(node):
    """The grundylab module an `ast.ImportFrom` reads, as its file's stem,
    or None when it reads no module of the package by name."""
    if node.level:
        return node.module
    head, _, rest = (node.module or "").partition(".")
    return (rest or None) if head == "grundylab" else None


def spellings(trees):
    """The (module, name) each Name node spells and each name spelled by an
    Attribute node, with the set of function and class definitions around
    every place it is spelled.  A Name spells a name imported from a
    grundylab module as that module's, and any other name as its own
    file's, which is a module only in src/grundylab."""
    names, attributes = defaultdict(list), defaultdict(list)
    for path, tree in trees.items():
        own = path.stem if path in SOURCES else None
        imported = {
            alias.asname or alias.name: (imported_module(node), alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        stack = [(tree, frozenset())]
        while stack:
            node, inside = stack.pop()
            if isinstance(node, ast.Name):
                names[imported.get(node.id, (own, node.id))].append(inside)
            elif isinstance(node, ast.Attribute):
                attributes[node.attr].append(inside)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                inside = inside | {node}
            stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return names, attributes


def test_every_public_src_name_is_reached_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES + CALLERS}
    names, attributes = spellings(trees)
    unreached = sorted(
        qualname
        for module, qualname, name, node, is_method in public_definitions(trees)
        if all(node in inside for inside in attributes[name] + ([] if is_method else names[module, name]))
    )
    assert unreached == sorted(UNREACHED_ON_PURPOSE)
