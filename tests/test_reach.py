"""Every public name in `src/grundylab` has a caller outside the tests.

A name counts as reached when some `ast.Name` or `ast.Attribute` node in
`src/`, `demos/` or `benchmarks/` spells it, outside the name's own
definition.  Names are matched by spelling alone, so a method is reached by
any attribute of that name.  Docstrings and other strings never count.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "grundylab").glob("*.py"))
CALLERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))

# Oracles the tests compare the library against, and the one checked entry
# for turning sets made outside the library.
UNREACHED_ON_PURPOSE = {
    "gf.subspace_leq",  # containment of span masks
    "families.restricted_growth_strings",  # the set partitions, as tuples
    "families.rgs_to_blocks",
    "families.asm_leq",  # the coordinate rule the ASM covers must close to
    "games.TurningFamily.from_masks",
}


def public_definitions(trees):
    """(qualified name, name, definition node) for each public top-level
    function and class, and each public method of a top-level class."""
    for path in SOURCES:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, item


def spellings(trees):
    """Each name spelled by a Name or Attribute node, with the set of
    function and class definitions around every place it is spelled."""
    out = defaultdict(list)
    for tree in trees.values():
        stack = [(tree, frozenset())]
        while stack:
            node, inside = stack.pop()
            if isinstance(node, ast.Name):
                out[node.id].append(inside)
            elif isinstance(node, ast.Attribute):
                out[node.attr].append(inside)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                inside = inside | {node}
            stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return out


def test_every_public_src_name_is_reached_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES + CALLERS}
    spelled = spellings(trees)
    unreached = sorted(
        qualname
        for qualname, name, node in public_definitions(trees)
        if all(node in inside for inside in spelled[name])
    )
    assert unreached == sorted(UNREACHED_ON_PURPOSE)
