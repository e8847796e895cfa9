"""Every name a qform module imports is used in that module, and every private name is used somewhere.

The modules are read with ``ast``, not imported.  A name counts as used
when it appears as an identifier anywhere in the module, including inside
a string annotation such as ``-> "FormIso"``; no other string counts.
``__init__.py`` is exempt from the import check: its imports are the
package's re-exports.  A private name (``_x``) bound at module level counts
as used when another top-level statement of any module names it, reads it
as an attribute or imports it, so helpers left without callers show up.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qform"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(name bound by the import, line) for every import except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every identifier in the module, and those inside string annotations."""
    used, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    for node in (c for note in filter(None, annotations) for c in ast.walk(note)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return ["%s (line %d)" % (name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_an_unused_import_is_found():
    source = "from .abelian import AbGroup, GroupHom\nimport os\n\ndef f(x: 'AbGroup'):\n    return 'GroupHom'\n"
    assert unused_imports(source) == ["GroupHom (line 1)", "os (line 2)"]


def private_definitions(statement):
    """The private names a top-level statement binds: a function, a class or an assignment target."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unreferenced_private_names(sources):
    """'module: name (line n)' for each module-level private name no other top-level statement uses."""
    statements = [(module, node) for module, source in sources.items() for node in ast.parse(source).body]
    uses = []
    for _, node in statements:
        names = used_names(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        uses.append((node, names | {name for name, _ in imported_names(node)}))
    return [
        "%s: %s (line %d)" % (module, name, node.lineno)
        for module, node in statements
        for name in private_definitions(node)
        if not any(name in names for other, names in uses if other is not node)
    ]


def test_every_private_name_is_used_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_an_unreferenced_private_name_is_found():
    sources = {
        "a.py": "_LIMIT = 3\n\ndef _used():\n    return _LIMIT\n\ndef _orphan():\n    return _orphan() + _used()\n",
        "b.py": "from .a import _used\n_TABLE: dict = {}\n\nclass _Gone:\n    size = _used\n\nclass Kept:\n    _hidden = 1\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _orphan (line 6)", "b.py: _TABLE (line 2)", "b.py: _Gone (line 4)"]
