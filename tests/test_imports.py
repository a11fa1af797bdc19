"""No file imports a name that it never uses.

Each Python file under ``src/``, ``tests/`` and ``demos/`` is parsed with
``ast``; a name bound by an import must be read somewhere in the same file
or listed in its ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# module attributes that perfbench/test_smoke.py reads, as the comments beside them say
ALLOWED = {
    ("src/dunkl_harmonics/intertwine.py", "dunkl_axis"),
    ("src/dunkl_harmonics/spherical.py", "laplacian"),
}


def unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(element.value for element in node.value.elts)
    return imported - used


def test_no_unused_imports():
    found = {
        (path.relative_to(ROOT).as_posix(), name)
        for folder in ("src", "tests", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for name in unused_imports(path)
    }
    assert found == ALLOWED
