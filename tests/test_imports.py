"""Every imported name is used, and every private helper is referenced.

AST scans of the sources: a name bound by an import statement under src/,
scripts/ or tests/ must be referenced somewhere else in the same file, and a
private, undecorated function or class under src/ or scripts/ must be
referenced somewhere in those two trees (a decorator such as @check registers
what it decorates, so decorated definitions are exempt).  They need nothing
beyond the standard library.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(*tops: str):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path.relative_to(ROOT), ast.parse(path.read_text(), filename=str(path))


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


def _unreferenced_private(trees) -> list[str]:
    defined, referenced = [], set()
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and not node.name.endswith("__")
                  and not node.decorator_list):
                defined.append((path, node.lineno, node.name))
    return [f"{path} line {line}: {name}" for path, line, name in defined
            if name not in referenced]


def test_no_unused_imports():
    found = []
    for path, tree in _trees("src", "scripts", "tests"):
        found += [f"{path} {u}" for u in _unused_imports(tree)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_no_unreferenced_private_definitions():
    found = _unreferenced_private(_trees("src", "scripts"))
    assert not found, "unreferenced private definitions:\n" + "\n".join(found)


def test_unreferenced_private_scan_flags_a_leftover_helper():
    source = """
def _left_behind(rows):
    return rows

def _used():
    pass

class _Kept:
    def _method(self):
        return _used()

@register
def _registered():
    pass

def __getattr__(name):
    return _Kept
"""
    found = _unreferenced_private([("m.py", ast.parse(source))])
    assert found == ["m.py line 2: _left_behind", "m.py line 9: _method"]
