"""Every imported name is used, and every helper is referenced.

AST scans of the sources: a name bound by an import statement under src/ or
tests/ must be referenced somewhere else in the same file; a private,
undecorated function or class under src/ must be referenced somewhere in
src/ (a decorator such as @check registers what it decorates, so decorated
definitions are exempt); and a public function or method under src/ must be
referenced from src/ or perfbench/, not only from tests.  No module of the engine but poly.py itself
imports confsys.poly: it is the tests' reference ring.  The operator, module
and enveloping-algebra modules read the algebra through its bracket table
alone: they import nothing from confsys.roots and read no root coordinates.
Only verify.py imports random, for the one check that samples
(verma_representation).  Only system.py imports confsys.diffops when it is
loaded, so a control run never compiles the operators.  The scans need
nothing beyond the standard library.
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


def _unreferenced_public(defining, referencing) -> list[str]:
    """Public functions and methods of the defining trees whose names no
    Name or Attribute node of the referencing trees holds.

    Referencing paths under perfbench/ also reference every dotted part of
    their string constants: the tracer patches its targets by name, as in
    "VermaModule.act_basis".
    """
    defined, referenced = [], set()
    for path, tree in defining:
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")):
                defined.append((path, node.lineno, node.name))
    for path, tree in referencing:
        by_string = Path(path).parts[0] == "perfbench"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif (by_string and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                referenced.update(node.value.split("."))
    return [f"{path} line {line}: {name}" for path, line, name in defined
            if name not in referenced]


def test_no_unused_imports():
    found = []
    for path, tree in _trees("src", "tests"):
        found += [f"{path} {u}" for u in _unused_imports(tree)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_no_unreferenced_private_definitions():
    found = _unreferenced_private(_trees("src"))
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


def test_no_unreferenced_public_definitions():
    found = _unreferenced_public(_trees("src"), _trees("src", "perfbench"))
    assert not found, "public definitions only tests use:\n" + "\n".join(found)


def _imports(tree: ast.Module, name: str) -> bool:
    """Whether a module of the confsys package imports confsys.<name>, as
    `from .<name> import ...`, `from . import <name>`, `from confsys.<name>
    import ...`, `from confsys import <name>` or `import confsys.<name>`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == f"confsys.{name}" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (f".{name}", f"confsys.{name}"):
                return True
            if (module in (".", "confsys")
                    and any(a.name == name for a in node.names)):
                return True
    return False


def test_only_poly_uses_the_polynomial_ring():
    found = [str(path) for path, tree in _trees("src/confsys")
             if path.name != "poly.py" and _imports(tree, "poly")]
    assert not found, "modules importing confsys.poly:\n" + "\n".join(found)


def test_only_the_system_scope_loads_the_operators_at_import():
    # imports at the top level of a module run when it loads; those inside a
    # function body or an `if TYPE_CHECKING:` block do not
    found = [str(path) for path, tree in _trees("src/confsys")
             if path.name != "system.py" and _imports(
                 ast.Module([n for n in tree.body
                             if isinstance(n, (ast.Import, ast.ImportFrom))], []),
                 "diffops")]
    assert not found, "modules importing confsys.diffops:\n" + "\n".join(found)


def test_poly_import_scan_flags_each_form():
    for source in ("from .poly import Poly\n", "from . import poly\n",
                   "from confsys.poly import rational_roots\n",
                   "from confsys import linalg, poly\n", "import confsys.poly\n",
                   "def f():\n    from .poly import Poly\n"):
        assert _imports(ast.parse(source), "poly"), source
    for source in ("from .linalg import rref\n", "from . import linalg\n",
                   "import poly\n", "from .polynomials import P\n"):
        assert not _imports(ast.parse(source), "poly"), source


def _imports_random(tree: ast.Module) -> bool:
    """Whether a module imports the standard library's random, in any form."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "random" for a in node.names):
                return True
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "random"):
            return True
    return False


def test_only_verify_imports_random():
    found = [str(path) for path, tree in _trees("src/confsys")
             if path.name != "verify.py" and _imports_random(tree)]
    assert not found, "modules importing random:\n" + "\n".join(found)


def test_random_import_scan_flags_each_form():
    for source in ("import random\n", "import random as rnd\n",
                   "from random import Random\n", "import os, random\n",
                   "def f():\n    from random import randint\n"):
        assert _imports_random(ast.parse(source)), source
    for source in ("from . import random\n", "from .random import draw\n",
                   "import randomize\n", "random = 3\n"):
        assert not _imports_random(ast.parse(source)), source


TABLE_READERS = ("omega.py", "diffops.py", "verma.py", "pbw.py")
ROOT_DATA = {"root_of", "index_of_root", "rs"}


def _root_reads(tree: ast.Module) -> list[str]:
    """Where a module imports confsys.roots or reads root data: a name or an
    attribute called root_of, index_of_root or rs."""
    found = ["imports confsys.roots"] if _imports(tree, "roots") else []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in ROOT_DATA:
            found.append(f"line {node.lineno}: {name}")
    return found


def test_engine_reads_no_root_coordinates():
    found = [f"{path} {r}" for path, tree in _trees("src/confsys")
             if path.name in TABLE_READERS for r in _root_reads(tree)]
    assert not found, "root data read by the engine:\n" + "\n".join(found)


def test_root_read_scan_flags_each_form():
    for source in ("from .roots import Root\n", "from . import roots\n",
                   "x = alg.root_of[i]\n", "j = alg.index_of_root[a]\n",
                   "g = alg.rs.highest\n", "rs = alg.rs\n",
                   "def f(rs):\n    return rs\n"):
        assert _root_reads(ast.parse(source)), source
    for source in ("from .liealg import LieAlgebra\n", "x = alg.opposite[i]\n",
                   "j, n = alg.partner[g]\n", "roots = 3\n"):
        assert not _root_reads(ast.parse(source)), source


def test_unreferenced_public_scan_flags_a_test_only_helper():
    source = """
def test_only(rows):
    return rows

def used():
    pass

class Engine:
    def run(self):
        return used()

    def patched(self):
        pass

    def _private(self):
        pass
"""
    caller = "Engine().run()\n"
    tracer = 'TARGETS = [("engine", "Engine.patched")]\n'
    found = _unreferenced_public(
        [("src/m.py", ast.parse(source))],
        [("src/m.py", ast.parse(source)), ("src/c.py", ast.parse(caller)),
         ("perfbench/t.py", ast.parse(tracer))])
    assert found == ["src/m.py line 2: test_only"]
    # a string outside perfbench/ is no reference
    found = _unreferenced_public([("src/m.py", ast.parse(source))],
                                 [("src/m.py", ast.parse(source)),
                                  ("src/t.py", ast.parse(caller + tracer))])
    assert found == ["src/m.py line 2: test_only", "src/m.py line 12: patched"]
