"""Every imported name is used.

An AST scan of the sources under src/, scripts/ and tests/: a name bound by
an import statement must be referenced somewhere else in the same file.  It
needs nothing beyond the standard library.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    found = []
    for top in ("src", "scripts", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.relative_to(ROOT)} {u}" for u in _unused_imports(tree)]
    assert not found, "unused imports:\n" + "\n".join(found)
