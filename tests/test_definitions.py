"""No definition under ``src/`` is left without a caller in the library or the demos.

Each module-level function and class, and each method of a module-level
class other than a dunder, must be read by name somewhere in ``src/`` or
``demos/`` (as a name or an attribute), or be listed in an ``__all__``.  A
helper whose only caller is its own test fails here: the tests are not
scanned for references.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# definitions that perfbench/workloads.py reads, as the comments beside them say
ALLOWED = ["src/dunkl_harmonics/intertwine.py:UniPoly.t_power"]


def parse(folder: str) -> list[tuple[str, ast.Module]]:
    return [
        (path.relative_to(ROOT).as_posix(), ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]


def definitions(tree: ast.Module) -> list[str]:
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, defs):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, defs) and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return names


def references(tree: ast.Module) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            found.update(element.value for element in node.value.elts)
    return found


def test_every_definition_has_a_caller():
    sources = parse("src")
    read = set().union(*(references(tree) for _, tree in sources + parse("demos")))
    unread = [
        f"{path}:{name}"
        for path, tree in sources
        for name in definitions(tree)
        if name.rpartition(".")[2] not in read
    ]
    assert unread == ALLOWED


def test_the_scan_sees_an_unread_helper():
    tree = ast.parse("class A:\n    def m(self):\n        return f()\n\ndef f():\n    pass\n\ndef g():\n    pass\n")
    assert definitions(tree) == ["A", "A.m", "f", "g"]
    assert {"f"} <= references(tree) and not {"g", "m", "A"} & references(tree)
