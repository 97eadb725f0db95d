"""Every public name of the library has a caller.

Each public module-level function or class of `src/ihull`, and each public
method or property of a module-level class, must be referenced in `src/`
outside its own definition, or in `perfbench/`.  A reference is a name, an
attribute or a string constant: the benchmark's tracer wraps functions by
their names as strings.  References from tests do not count, so a helper
that only tests call fails here until it is deleted or given a caller.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: public names kept without a caller, each with its reason
ALLOWED = {"cover.origin_path_bound": "ROADMAP item 1"}


def _trees(directory: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}


def _references(tree: ast.AST) -> Counter:
    """The names, attributes and string constants under `tree`, counted."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def _is_property(node: ast.stmt) -> bool:
    """``name = property(...)`` in a class body."""
    return (
        isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "property"
    )


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, name, node) of each public module-level function or
    class, and each public method or property of a module-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):  # a @property is one too
                    names = [item.name]
                elif _is_property(item):
                    names = [target.id for target in item.targets]
                else:
                    continue
                for name in names:
                    if not name.startswith("_"):
                        yield f"{module}.{node.name}.{name}", name, item


def _unreferenced() -> list[str]:
    src = _trees(ROOT / "src" / "ihull")
    outside = sum((_references(tree) for tree in _trees(ROOT / "perfbench").values()), Counter())
    everywhere = sum((_references(tree) for tree in src.values()), outside)
    return [
        qualified
        for module, tree in src.items()
        for qualified, name, node in _public_definitions(module, tree)
        if everywhere[name] - _references(node)[name] <= 0
    ]


def test_every_public_name_has_a_caller_in_the_library_or_the_benchmark():
    unreferenced = _unreferenced()
    assert [name for name in unreferenced if name not in ALLOWED] == []
    # an allowed name that gained a caller, or was deleted, leaves the list
    assert sorted(ALLOWED) == sorted(name for name in unreferenced if name in ALLOWED)
