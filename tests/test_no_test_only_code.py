"""Every public module-level function and class in src/viwo, and every public
method of those classes, is used by the package itself.  A name that only
tests reach is a second copy of something the filter already computes, or
dead code."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "viwo"


def _names(node: ast.AST) -> Counter:
    """How often each name and attribute name is mentioned under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function and class
    and of each public method of those classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_definition_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = [f"{name}:{qualified}"
              for name, tree in trees.items()
              for qualified, node in _public_definitions(tree)
              if used[node.name] <= _names(node)[node.name]]
    assert not unused, f"defined in src/viwo but used only outside it: {unused}"
