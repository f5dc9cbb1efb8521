"""Every public module-level function and class in src/viwo, and every public
method of those classes, is used by the package itself.  A name that only
tests reach is a second copy of something the filter already computes, or
dead code.  Likewise every parameter with a default is passed by some
caller: a setting that only its default value ever reaches is a constant."""

import ast
import tomllib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "viwo"
# the acceptance contract is a fixed caller of the package, like the CLI
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


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


def _defaulted_parameters(tree: ast.Module):
    """(qualified name, call name, position, parameter) of each parameter
    with a default, of every function and method under tree.  Position is
    the index a positional argument would fill at a call, or None for a
    keyword-only parameter; the call name of ``__init__`` is its class."""
    def walk(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = int(cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list))
                call_name = cls if child.name == "__init__" else child.name
                qualified = f"{prefix}{child.name}"
                for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                        len(positional) - len(args.defaults)):
                    yield qualified, call_name, i - bound, arg.arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield qualified, call_name, None, arg.arg
                yield from walk(child, f"{qualified}.", None)
            else:
                yield from walk(child, prefix, cls)
    yield from walk(tree, "", None)


def _passed(trees):
    """Per called name: the most positional arguments and the keywords its
    calls pass, and the names whose every parameter some call or mention
    passes (a ``*args`` or ``**kwargs`` call, or the function used as a
    value)."""
    positions: Counter = Counter()
    keywords: dict[str, set] = {}
    everything: set = set()
    called = set()
    for tree in trees:
        # breadth first: a call is seen before its callee expression
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                called.add(id(func))
                if (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords)):
                    everything.add(name)
                positions[name] = max(positions[name], len(node.args))
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
            elif (isinstance(node, (ast.Name, ast.Attribute))
                  and isinstance(node.ctx, ast.Load) and id(node) not in called):
                everything.add(node.id if isinstance(node, ast.Name) else node.attr)
    return positions, keywords, everything


def _entry_points() -> set[str]:
    """'module:function' of each console script; the entry point calls it
    with no arguments, so its defaulted parameters are exempt."""
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    return {target.removeprefix("viwo.") for target in scripts.values()}


def test_every_defaulted_parameter_is_passed():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    positions, keywords, everything = _passed([*trees.values(), ast.parse(ACCEPTANCE.read_text())])
    exempt = _entry_points()
    never_passed = [f"{name}:{qualified}({param})"
                    for name, tree in trees.items()
                    for qualified, call, pos, param in _defaulted_parameters(tree)
                    if f"{name.removesuffix('.py')}:{qualified}" not in exempt
                    and call not in everything
                    and param not in keywords.get(call, ())
                    and (pos is None or positions[call] <= pos)]
    assert not never_passed, f"defaulted parameters that no caller passes: {never_passed}"


def test_every_public_class_is_constructed_in_src():
    """Every public module-level class is called or raised somewhere in
    src/viwo: a class that only tests construct is a second form of an input
    that the package takes in another one."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    made = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            target = (node.func if isinstance(node, ast.Call)
                      else node.exc if isinstance(node, ast.Raise) else None)
            if isinstance(target, ast.Name):
                made.add(target.id)
            elif isinstance(target, ast.Attribute):
                made.add(target.attr)
    never = [f"{name.removesuffix('.py')}:{node.name}"
             for name, tree in trees.items() for node in tree.body
             if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
             and node.name not in made]
    assert not never, f"public classes that src/viwo never constructs: {never}"
