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
README's table of public names kept without a library reader.  A public
method of a module-level class counts as read when any module reads
``.name`` outside the method itself, and is kept by a row for
``module.Class.name``.  Reads are matched by name alone, with no type
behind them: ``s.add(x)`` on a set reads every public method called
``add``, so a method that shares its name with one the package does call
is never reported.  A row whose name is gone or has gained a reader
fails too, so the table only shrinks.  Outside ``intmat``, ``.det(`` is
called in exactly the places of ``DECIDING_PLACES``: bijectivity has one
owner, and a determinant decides nothing else.  ``smith_normal_form(`` is
called in exactly the places of ``SMITH_PLACES``, and ``split_pair(`` in
exactly those of ``SPLIT_PLACES``.  JSON text is decoded in one place: the
names of ``JSON_DECODING`` appear only inside the definitions of
``JSON_PLACES``.  ``IntMatrix.permutation(`` is called only in
``PERMUTATION_PLACES``, and the ``path`` of an error is set only in
``PATH_PLACES``.  ``hermite_row_basis`` is given a head only in
``HEAD_PLACES``.
"""

import ast
from collections import Counter
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


def public_methods(sources):
    """(module, 'Class.name', line, function node) for each public method of a public module-level class."""
    for module, source in sources.items():
        for cls in ast.parse(source).body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in cls.body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                        yield module, "%s.%s" % (cls.name, node.name), node.lineno, node


def attribute_reads(tree):
    """How many times each name is read as ``.name`` in the tree."""
    return Counter(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))


def unread_methods(sources):
    """(module, 'Class.name', line) for each public method whose ``.name`` no module reads outside the method itself."""
    reads = sum((attribute_reads(ast.parse(source)) for source in sources.values()), Counter())
    return [
        (module, name, line)
        for module, name, line, node in public_methods(sources)
        if reads[node.name] == attribute_reads(node)[node.name]
    ]


def public_surface_findings(sources, readme):
    """Public names and methods with no reader and no README row, and README rows naming no such orphan.

    A row whose name is missing or has gained a reader is reported too, so
    the README's list only shrinks.
    """
    defined = {
        "%s.%s" % (module[:-3], name)
        for module, source in sources.items()
        if module != "__init__.py"
        for node in ast.parse(source).body
        for name in definitions(node)
    } | {"%s.%s" % (module[:-3], name) for module, name, _, _ in public_methods(sources)}
    unread = {
        "%s.%s" % (module[:-3], name): (module, name, line)
        for module, name, line in orphans(sources, public=True) + unread_methods(sources)
    }
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


def test_an_unread_public_method_is_found():
    sources = {
        "a.py": "class Group:\n    def order(self):\n        return self.order()\n\n    def size(self):\n        return 1\n\n"
        "    @property\n    def rank(self):\n        return 0\n\n    def _hidden(self):\n        return 2\n",
        "b.py": "from .a import Group\n\nclass Form:\n    def lam(self):\n        return Group().size()\n\n"
        "    def pairing(self):\n        return self.lam()\n\n\nclass _Parser:\n    def error(self):\n        return 3\n",
        "c.py": "from .b import Form\n",
    }
    assert unread_methods(sources) == [("a.py", "Group.order", 2), ("a.py", "Group.rank", 9), ("b.py", "Form.pairing", 7)]
    readme = "%s\n\n| `a.Group.order` | r |\n| `a.Group.size` | r |\n| `b.Form.gone` | r |\n" % KEPT_HEADING
    assert public_surface_findings(sources, readme) == [
        "a.py: Group.rank (line 9): no reader and no README row",
        "b.py: Form.pairing (line 7): no reader and no README row",
        "README: b.Form.gone does not exist",
        "README: a.Group.size has a reader in the package",
    ]


def test_a_readme_row_must_keep_an_existing_orphan():
    sources = {"a.py": "def orphan():\n    return 1\n\ndef read():\n    return 2\n", "b.py": "from .a import read\nX = read()\n"}
    readme = "# t\n\n%s\n\n| Name | Why |\n| --- | --- |\n| `a.read` | r |\n| `a.gone` | r |\n\n## Next\n\n| `b.X` | r |\n" % KEPT_HEADING
    assert public_surface_findings(sources, readme) == [
        "a.py: orphan (line 1): no reader and no README row",
        "b.py: X (line 2): no reader and no README row",
        "README: a.gone does not exist",
        "README: a.read has a reader in the package",
    ]


# Bijectivity is decided by ``abelian.invert_iso`` (through ``IntMatrix.inverse_unimodular``) or
# read off a checked pullback.  A determinant is computed for one fact: the nonsingularity that
# every free pullback reads.
DECIDERS = {"det"}
DECIDING_PLACES = {"forms.EQForm.is_nonsingular"}


# The Smith form is computed only where its transforms or invariant factors are read: solving, and
# a quotient in invariant-factor form (the merged torsion of a direct sum is one such quotient).
# A Hermite-based solve would rework the first.
SMITH_PLACES = {"intmat.int_solve", "abelian.quotient_with_projection"}


# The split-pair layout is checked where a witness onto a split form enters: a FlipL move and a
# Flip letter.  Every other swap of a split pair is of a split form its caller built.
SPLIT_PLACES = {"lmonoid._flip", "construct._realize_letter"}


# JSON text is decoded by ``loads_document``, through ``json.loads`` or the sharing scan its helper builds
# from the json module's decoder and its object and array parsers.
JSON_DECODING = {"loads", "JSONDecoder", "JSONObject", "JSONArray"}
JSON_PLACES = {"serialize.loads_document", "serialize._sharing_decoder"}


# A permutation isomorphism is built, with the inverse permutation as its inverse, by ``forms._permuted_onto``;
# ``lmonoid._owed_iso`` inverts the permutation of a Flip letter's witness.
PERMUTATION_PLACES = {"forms._permuted_onto", "lmonoid._owed_iso"}


# A library error gets the JSON path of the object being read from ``serialize._at``; a SchemaError is
# raised with the path of its field.
PATH_PLACES = {"serialize._at", "errors.SchemaError.__init__"}


def called_name(node):
    """The name f of a call ``f(`` or ``x.f(``, or None."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return None


def any_name(node):
    """The identifier, attribute or imported name of a node, or None."""
    if isinstance(node, ast.alias):
        return node.asname or node.name
    return getattr(node, "id", None) or getattr(node, "attr", None)


def calls_to(names, module, source, name_of=called_name):
    """'module.Class.function' and line of each call ``f(`` or ``x.f(`` with f in ``names``.

    A call is placed by its enclosing definition.  With ``name_of=any_name``
    every node that names one of ``names`` counts, not only calls.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if name_of(child) in names:
                found.append((".".join([module] + scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def stray_deciders(sources):
    """'place (line n)' for each determinant call outside ``intmat`` and ``DECIDING_PLACES``.

    Each listed place that makes no call is reported too, so the list only shrinks.
    """
    calls = [
        call
        for module, source in sources.items()
        if module != "intmat.py"
        for call in calls_to(DECIDERS, module[:-3], source)
    ]
    return ["%s (line %d)" % call for call in calls if call[0] not in DECIDING_PLACES] + [
        "%s calls no det" % place for place in sorted(DECIDING_PLACES - {place for place, _ in calls})
    ]


def test_bijectivity_is_decided_in_one_place():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert stray_deciders(sources) == []


def test_a_stray_determinant_is_found():
    sources = {
        "forms.py": "class EQForm:\n    def is_nonsingular(self):\n        return self.nonsingular\n",
        "stableclass.py": "def _hyperbolic_basis(m):\n    f = lambda b: b.det()\n    return f(m) == -1\n",
        "intmat.py": "def is_singular(m):\n    return m.det() == 0\n",
    }
    assert stray_deciders(sources) == [
        "stableclass._hyperbolic_basis (line 2)",
        "forms.EQForm.is_nonsingular calls no det",
    ]


def placed_findings(name, places, sources):
    """'place (line n)' for each call of ``name`` outside ``places``, and each place that makes none."""
    calls = [call for module, source in sources.items() for call in calls_to({name}, module[:-3], source)]
    return ["%s (line %d)" % call for call in calls if call[0] not in places] + [
        "%s calls no %s" % (place, name) for place in sorted(places - {place for place, _ in calls})
    ]


def smith_findings(sources):
    return placed_findings("smith_normal_form", SMITH_PLACES, sources)


def test_smith_forms_are_computed_in_the_listed_places():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert smith_findings(sources) == []


def test_a_stray_smith_form_is_found():
    sources = {
        "intmat.py": "def smith_normal_form(a):\n    return a\n\n\ndef int_solve(a, b):\n    return smith_normal_form(a)\n",
        "abelian.py": "from . import intmat\n\n\ndef quotient_with_projection(b):\n    return b\n\n\n"
        "def direct_sum_with_maps(a, b):\n    return intmat.smith_normal_form(a.diagonal(b))\n",
    }
    assert smith_findings(sources) == [
        "abelian.direct_sum_with_maps (line 9)",
        "abelian.quotient_with_projection calls no smith_normal_form",
    ]


def split_findings(sources):
    return placed_findings("split_pair", SPLIT_PLACES, sources)


def test_the_split_pair_layout_is_checked_in_the_listed_places():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert split_findings(sources) == []


def test_a_stray_split_pair_check_is_found():
    sources = {
        "lmonoid.py": "def _flip(form, l, w):\n    split_pair(w.target)\n",
        "serialize.py": "def _read_letter(d):\n    return forms.split_pair(d.witness.target)\n",
    }
    assert split_findings(sources) == [
        "serialize._read_letter (line 2)",
        "construct._realize_letter calls no split_pair",
    ]


def json_findings(sources):
    """'place (line n)' for each use of a JSON decoding name outside ``JSON_PLACES`` and the definitions
    nested in them, and each place that uses none."""
    uses = [use for module, source in sources.items() for use in calls_to(JSON_DECODING, module[:-3], source, any_name)]

    def owner(place):
        return next((p for p in JSON_PLACES if place == p or place.startswith(p + ".")), None)

    return ["%s (line %d)" % use for use in uses if owner(use[0]) is None] + [
        "%s decodes no JSON" % place for place in sorted(JSON_PLACES - {owner(place) for place, _ in uses})
    ]


def test_json_text_is_decoded_in_the_listed_places():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert json_findings(sources) == []


def test_a_stray_json_decoder_is_found():
    sources = {
        "serialize.py": "import json\n\n\ndef loads_document(text):\n    return json.loads(text)\n\n\n"
        "def _sharing_decoder(p):\n    def scan(s, i):\n        return json.decoder.JSONObject((s, i))\n    return scan\n",
        "cli.py": "from json.decoder import JSONArray\nimport json\n\n\ndef _read(text):\n"
        "    return json.JSONDecoder().decode(text)\n",
    }
    assert json_findings(sources) == ["cli (line 1)", "cli._read (line 6)"]
    del sources["cli.py"]
    sources["serialize.py"] = sources["serialize.py"].replace("JSONObject", "scanner")
    assert json_findings(sources) == ["serialize._sharing_decoder decodes no JSON"]


def permutation_findings(sources):
    return placed_findings("permutation", PERMUTATION_PLACES, sources)


def test_permutation_matrices_are_built_in_the_listed_places():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert permutation_findings(sources) == []


def test_a_stray_permutation_matrix_is_found():
    sources = {
        "forms.py": "def _permuted_onto(e, perm, t):\n    return IntMatrix.permutation(perm)\n",
        "lmonoid.py": "def _permutation_between(s, a, b):\n    return IntMatrix.permutation(a.perm).transpose()\n",
    }
    assert permutation_findings(sources) == [
        "lmonoid._permutation_between (line 2)",
        "lmonoid._owed_iso calls no permutation",
    ]


def path_assignment(node):
    """``"path"`` for ``x.path = ...`` (alone, augmented or in a tuple) and ``setattr(x, "path", ...)``, else None."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if any(isinstance(t, ast.Attribute) and t.attr == "path" for target in targets for t in ast.walk(target)):
            return "path"
    if called_name(node) in ("setattr", "__setattr__") and any(
        isinstance(a, ast.Constant) and a.value == "path" for a in node.args
    ):
        return "path"
    return None


def path_findings(sources):
    """'place (line n)' for each assignment to a ``path`` outside ``PATH_PLACES`` and the definitions nested in
    them, and each place that makes none."""
    sets = [s for module, source in sources.items() for s in calls_to({"path"}, module[:-3], source, path_assignment)]

    def owner(place):
        return next((p for p in PATH_PLACES if place == p or place.startswith(p + ".")), None)

    return ["%s (line %d)" % s for s in sets if owner(s[0]) is None] + [
        "%s sets no path" % place for place in sorted(PATH_PLACES - {owner(place) for place, _ in sets})
    ]


def test_error_paths_are_set_in_the_listed_places():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert path_findings(sources) == []


def test_a_stray_error_path_is_found():
    sources = {
        "errors.py": "class SchemaError(QformError):\n    def __init__(self, path, detail):\n        self.path = path\n",
        "serialize.py": "class _at:\n    def __exit__(self, kind, exc, tb):\n        exc.path = self.where\n",
        "cli.py": "def _zero_form_result(doc):\n    try:\n        read(doc)\n    except QformError as exc:\n"
        "        exc.path, kind = 'input.v', 2\n        raise\n\n\ndef _locate(exc, path):\n"
        "    object.__setattr__(exc, 'path', path)\n",
    }
    assert path_findings(sources) == ["cli._zero_form_result (line 5)", "cli._locate (line 10)"]
    sources["serialize.py"] = sources["serialize.py"].replace("exc.path = self.where", "pass")
    del sources["cli.py"]
    assert path_findings(sources) == ["serialize._at sets no path"]


# A Hermite basis leaves out the rows leading in its first ``head`` columns itself: the two callers that keep
# only the rows past a head pass it, and no other place does.
HEAD_PLACES = {"intmat.int_nullspace", "abelian._zero_head_tails"}


def headed_basis(node):
    """``"head"`` for a call of ``hermite_row_basis`` given a third argument, else None."""
    if called_name(node) == "hermite_row_basis" and (len(node.args) > 2 or node.keywords):
        return "head"
    return None


def head_findings(sources):
    """'place (line n)' for each basis given a head outside ``HEAD_PLACES``, and each place that passes none."""
    calls = [found for module, source in sources.items() for found in calls_to({"head"}, module[:-3], source, headed_basis)]
    return ["%s (line %d)" % call for call in calls if call[0] not in HEAD_PLACES] + [
        "%s passes no head" % place for place in sorted(HEAD_PLACES - {place for place, _ in calls})
    ]


def test_hermite_heads_are_passed_in_the_listed_places():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert head_findings(sources) == []


def test_a_stray_head_is_found():
    sources = {
        "intmat.py": "def int_nullspace(a):\n    return hermite_row_basis(rows, m + a.cols, m)\n",
        "abelian.py": "def _zero_head_tails(g, head, rows):\n"
        "    return [r for r in hermite_row_basis(rows, head + g.n) if r[0][0] >= head]\n\n\n"
        "def kernel(h):\n    return intmat.hermite_row_basis(rows, 4, head=1)\n",
    }
    assert head_findings(sources) == ["abelian.kernel (line 6)", "abelian._zero_head_tails passes no head"]
