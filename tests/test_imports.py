"""Every name a qform module imports is used in that module, and every module-level name is read somewhere.

The modules are read with ``ast``, not imported.  A name counts as used
when it appears as an identifier anywhere in the module, including inside
a string annotation such as ``-> "FormIso"``; no other string counts.
``__init__.py`` is exempt from the import check: its imports are the
package's re-exports.  A private name (``_x``) bound at module level counts
as used when another top-level statement of any module names it, reads it
as an attribute or imports it, so helpers left without callers show up.
A public name counts the same way, except that ``__init__.py`` does not
read it; one that no module reads needs a row, with its reason, in the
README's table of public names kept without a library reader.  A row whose
name is gone or has gained a reader fails too, so the table only shrinks.
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


def definitions(statement):
    """The names a top-level statement binds: a function, a class or an assignment target."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not n.startswith("__")]


def orphans(sources, public=False):
    """(module, name, line) for each module-level private (or public) name no other top-level statement uses.

    ``__init__.py`` only re-exports, so for public names its statements are
    not readers.
    """
    statements = [(module, node) for module, source in sources.items() for node in ast.parse(source).body]
    uses = []
    for module, node in statements:
        if public and module == "__init__.py":
            continue
        names = used_names(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        uses.append((node, names | {name for name, _ in imported_names(node)}))
    return [
        (module, name, node.lineno)
        for module, node in statements
        for name in definitions(node)
        if name.startswith("_") != public
        and not any(name in names for other, names in uses if other is not node)
    ]


def unreferenced_names(sources, public=False):
    """'module: name (line n)' for each of ``orphans``."""
    return ["%s: %s (line %d)" % orphan for orphan in orphans(sources, public)]


def test_every_private_name_is_used_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_names(sources) == []


def test_an_unreferenced_private_name_is_found():
    sources = {
        "a.py": "_LIMIT = 3\n\ndef _used():\n    return _LIMIT\n\ndef _orphan():\n    return _orphan() + _used()\n",
        "b.py": "from .a import _used\n_TABLE: dict = {}\n\nclass _Gone:\n    size = _used\n\nclass Kept:\n    _hidden = 1\n",
    }
    assert unreferenced_names(sources) == ["a.py: _orphan (line 6)", "b.py: _TABLE (line 2)", "b.py: _Gone (line 4)"]


README = PACKAGE.parents[1] / "README.md"
KEPT_HEADING = "## Public names kept without a library reader"


def kept_names(readme):
    """'module.name' for each row of the README table that keeps a public name without a library reader."""
    section = readme.partition(KEPT_HEADING)[2].split("\n## ")[0]
    return [row.split("`")[1] for row in section.splitlines() if row.startswith("| `")]


def public_surface_findings(sources, readme):
    """Public names with no reader and no README row, and README rows naming no such orphan.

    A row whose name is missing or has gained a reader is reported too, so
    the README's list only shrinks.
    """
    defined = {
        "%s.%s" % (module[:-3], name)
        for module, source in sources.items()
        if module != "__init__.py"
        for node in ast.parse(source).body
        for name in definitions(node)
    }
    unread = {"%s.%s" % (module[:-3], name): (module, name, line) for module, name, line in orphans(sources, public=True)}
    kept = kept_names(readme)
    return (
        ["%s: %s (line %d): no reader and no README row" % unread[name] for name in unread if name not in kept]
        + ["README: %s does not exist" % name for name in kept if name not in defined]
        + ["README: %s has a reader in the package" % name for name in kept if name in defined and name not in unread]
    )


def test_every_public_name_is_read_in_the_package_or_kept_by_the_readme():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert public_surface_findings(sources, README.read_text()) == []


def test_an_unreferenced_public_name_is_found():
    sources = {
        "a.py": "LIMIT = 3\n\ndef used():\n    return LIMIT\n\ndef orphan():\n    return orphan() + used()\n",
        "b.py": "from .a import used\nTABLE: dict = {}\n\nclass Gone:\n    size = used\n\nclass _Kept:\n    hidden = 1\n",
        "__init__.py": "from .b import Gone, TABLE\n__all__ = ['Gone', 'TABLE']\n",
    }
    assert unreferenced_names(sources, public=True) == ["a.py: orphan (line 6)", "b.py: TABLE (line 2)", "b.py: Gone (line 4)"]


def test_a_readme_row_must_keep_an_existing_orphan():
    sources = {"a.py": "def orphan():\n    return 1\n\ndef read():\n    return 2\n", "b.py": "from .a import read\nX = read()\n"}
    readme = "# t\n\n%s\n\n| Name | Why |\n| --- | --- |\n| `a.read` | r |\n| `a.gone` | r |\n\n## Next\n\n| `b.X` | r |\n" % KEPT_HEADING
    assert public_surface_findings(sources, readme) == [
        "a.py: orphan (line 1): no reader and no README row",
        "b.py: X (line 2): no reader and no README row",
        "README: a.gone does not exist",
        "README: a.read has a reader in the package",
    ]
