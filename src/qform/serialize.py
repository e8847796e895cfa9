"""JSON documents for forms, subgroups, quasi-formations and witnesses.

The wire format is plain JSON with a fixed canonical layout: object keys
sorted, two-space indent, a trailing newline, and no floating point
anywhere.  A nonempty list of integers (a matrix row, a vector, a list of
invariant factors) is a row, written on one line as ``[a, b, c]``; every
other nonempty list or object puts each item on a line of its own,
indented two spaces deeper than the container.  Integers that do not fit
into 53 bits are written as decimal strings, inside a row as anywhere
else, so that readers which parse numbers as doubles cannot corrupt
them; on input both plain integers and decimal strings are accepted, in
any layout.

``canonical_dumps`` writes that layout in one recursive pass.  Rows are
the bulk of every matrix, and a certificate repeats most of its rows
(each move's target form is the next move's source), so each distinct
row is formatted once per document, and its later copies reuse that
text.  A dict the document holds in several places (a sequence or word
document holds one dict per form object) is likewise written once per
depth.  Object keys must be strings, and a document nested more than
``MAX_DEPTH`` containers deep is refused with a SchemaError, as is one
too deep to parse.  ``first_difference`` names the first JSON path, in
that layout's order, where two documents differ; it compares lists of
ints with ``==`` and encodes only the values it cannot compare so.

Integers have no size limit in either direction.  Python refuses int/str
conversions past ``sys.get_int_max_str_digits()`` digits (4300 by
default); past that limit, and only there, ``int_to_decimal`` and
``decimal_to_int`` convert in chunks by divide and conquer.

Loading re-runs every constructor, so a document that parses but encodes
an inconsistent object (a pairing that is not symmetric, a map that does
not pull the pairing back, and so on) still fails — with the library's
own error, carrying in ``path`` the JSON path of the form, subgroup,
formation or isomorphism that failed — while purely structural problems
raise SchemaError with the path of the offending field.  Matrix rows are
read straight into sparse rows.  A matrix whose rows are all lists of
exact ints of the expected length is type-checked by one scan over all
its entries; any other is read row by row, so every error names its row
or entry, and decimal strings are accepted there.

A sequence or word document repeats a few form values many times (each
move's target is the next move's source), so ``sequence_from_doc`` and
``word_from_doc`` decode each form value once per call, by value.  One
memo per call holds the last ``_SEEN_FORMS`` distinct form dicts decoded,
with their forms; the first is the start's (or the word's) form.  A form
dict that equals one of them with ``==``, and holds nothing but lists,
dicts, ints and strings (``True == 1``, but ``true`` is no integer),
reuses that ``EQForm``; any other is decoded by ``form_from_doc`` at its
own path.  The first occurrence of each value is thus still decoded and
checked where it stands, and every error keeps its JSON path.  Each
isomorphism is still built by ``FormIso``'s public constructor, and one
out of a nonsingular form reads its bijectivity off that form's cached
nonsingularity, so a certificate's isomorphisms cost one determinant per
form value, not one each.

A document written here may hold one dict in several places: every
occurrence of one form object in a sequence, word or isomorphism refers
to the same dict.  Copy such a document (say by a JSON round trip) before
editing any part of it in place.
"""

from __future__ import annotations

import json
from itertools import chain, compress
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, List

from .abelian import AbGroup, GroupHom, SubgroupRep, Z2
from .construct import Flip, Keep, RUWord
from .errors import HypothesisError, QformError, SchemaError
from .forms import EQForm, FormIso, split_pair
from .intmat import IntMatrix, Row
from .lmonoid import ApplyIso, Destab, FlipL, MoveSequence, QuasiFormation, Stab

_SAFE = 1 << 53
_SAFE_DIGITS = (len(str(_SAFE)), str(_SAFE))  # compared with (len(s), s) for a digit string s
_INT_ONLY = {int}
_LIST_ONLY = {list}
_PLAIN_LEAVES = {int, str}
# the form values a reader keeps: a certificate's moves go back and forth
# between a few forms (a jacobi certificate's leave the outer form for the
# split form of its flips, and return at the end)
_SEEN_FORMS = 4
# The deepest documents any command writes (jacobi, ru-wall and ltriv
# results) are 8 containers deep; the limit leaves ample room above that
# and keeps the encoder's one stack frame per level far below Python's
# recursion limit.
MAX_DEPTH = 256
NESTED_TOO_DEEPLY = "document nested too deeply"

# Chunks stay below 640 digits, the smallest int/str limit Python accepts.
_CHUNK_DIGITS = 600
_CHUNK_BITS = 1993  # 2**1993 < 10**600


# -- integers of any size ------------------------------------------------


def int_to_decimal(n: int) -> str:
    """Decimal string of an integer of any size."""
    try:
        return str(n)
    except ValueError:  # past the interpreter's int/str digit limit
        return "-" + _digits(-n) if n < 0 else _digits(n)


def _digits(n: int) -> str:
    if n.bit_length() <= _CHUNK_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of the decimal digits
    hi, lo = divmod(n, 10**k)
    return _digits(hi) + _digits(lo).zfill(k)


def decimal_to_int(text: str) -> int:
    """``int(text)``, also past the digit limit for a signed string of ASCII digits."""
    try:
        return int(text)
    except ValueError:
        body = text[1:] if text[:1] in "+-" else text
        if not (body.isascii() and body.isdigit()):
            raise
        value = _parse_digits(body)
        return -value if text[0] == "-" else value


def _parse_digits(body: str) -> int:
    if len(body) <= _CHUNK_DIGITS:
        return int(body)
    mid = len(body) // 2
    return _parse_digits(body[:mid]) * 10 ** (len(body) - mid) + _parse_digits(body[mid:])


# -- canonical bytes -----------------------------------------------------


def canonical_dumps(doc: Any) -> str:
    """Serialize to the canonical byte layout (see the module docstring).

    Booleans are not integers here: ``[true, 1]`` is no row, and puts
    each item on a line of its own.  One memo serves the whole call (see
    ``_write``): a row's text depends only on its entries, a dict's only
    on its value and its depth, and ``doc`` keeps every container alive
    until the call returns, so a container's id names it throughout.  The
    bytes are those of the document written out as a tree, however much
    of it is shared.
    """
    out: List[str] = []
    _write(doc, "\n", 0, out, {})
    out.append("\n")
    return "".join(out)


def first_difference(a: Any, b: Any, path: str) -> str | None:
    """The first JSON path where the encodings of a and b differ, or None.

    Keys are taken sorted and list items in order.  A key only one side
    has, or the first item past the shorter list, is itself the
    difference; other values differ when their encodings do.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            at = path + "." + key
            if key not in a or key not in b:
                return at
            found = first_difference(a[key], b[key], at)
            if found is not None:
                return found
        return None
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        # lists of exact ints encode alike exactly when they are equal
        if set(map(type, a)) == _INT_ONLY == set(map(type, b)) and a == b:
            return None
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, "%s[%d]" % (path, i))
            if found is not None:
                return found
        return None if len(a) == len(b) else "%s[%d]" % (path, min(len(a), len(b)))
    return None if canonical_dumps(a) == canonical_dumps(b) else path


def _write(value: Any, newline: str, depth: int, out: List[str], memo: Dict[tuple, Any]) -> None:
    """Append ``value``; ``newline`` breaks a line and indents to ``value``'s level.

    ``memo`` holds what was written before.  The tuple of a row's
    entries maps to the row's one-line text, so a repeated row is
    formatted once.  (None, depth, id(d)) maps to the (start, end) span
    of a dict d's text in ``out``, joined into one string when d is met
    again at that depth, so a dict the document holds in several places
    is written once per depth.  Within one ``canonical_dumps`` call the
    document keeps every dict alive, so no id is reused.
    """
    if isinstance(value, (dict, list, tuple)):
        if depth >= MAX_DEPTH:
            raise SchemaError("", NESTED_TOO_DEEPLY)
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = newline + "  "
        sep = "," + inner
        if isinstance(value, dict):
            key = (None, depth, id(value))  # None keeps it apart from every row's key
            seen = memo.get(key)
            if seen is not None:
                if type(seen) is tuple:
                    seen = memo[key] = "".join(out[seen[0] : seen[1]])
                out.append(seen)
                return
            for name in value:
                if not isinstance(name, str):
                    raise SchemaError("", "cannot serialize a %r key" % type(name).__name__)
            start = len(out)
            out.append("{")
            for i, name in enumerate(sorted(value)):
                out.append((sep if i else inner) + _quote(name) + ": ")
                _write(value[name], inner, depth + 1, out, memo)
            out.append(newline + "}")
            memo[key] = (start, len(out))
            return
        # the type test comes first: [True, False] must never find the text of [1, 0]
        kinds = set(map(type, value))
        if kinds == _INT_ONLY or (kinds <= _PLAIN_LEAVES and all(map(_row_entry, value))):
            key = tuple(value)
            text = memo.get(key)
            if text is None:
                safe = kinds == _INT_ONLY and -_SAFE < min(value) and max(value) < _SAFE
                text = memo[key] = "[" + ", ".join(map(str if safe else _int_text, value)) + "]"
            out.append(text)
            return
        out.append("[")
        for i, item in enumerate(value):
            out.append(sep if i else inner)
            _write(item, inner, depth + 1, out, memo)
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(_int_text(value))
    elif value is None:
        out.append("null")
    else:
        raise SchemaError("", "cannot serialize %r" % type(value).__name__)


def _int_text(n: Any) -> str:
    """An int's text, or a big integer's decimal string written as it was read."""
    if type(n) is str:
        return '"%s"' % n
    return str(n) if -_SAFE < n < _SAFE else '"%s"' % int_to_decimal(n)


def _row_entry(x: Any) -> bool:
    """Whether x is an int or a decimal string this module writes for one.

    A row read back holds such a string where the written row held a big
    integer; it must stay a row, so that canonical text reads back to
    itself.
    """
    if type(x) is int:
        return True
    digits = x[1:] if x[:1] == "-" else x
    return (len(digits), digits) >= _SAFE_DIGITS and digits.isascii() and digits.isdigit() and digits[0] != "0"


def _reject_float(text: str) -> None:
    raise SchemaError("", "floating point numbers are not allowed: %s" % text)


def loads_document(text: str) -> Any:
    """Parse JSON, rejecting floats and non-finite constants."""
    parse_int = None
    while True:
        try:
            return json.loads(
                text, parse_float=_reject_float, parse_constant=_reject_float, parse_int=parse_int
            )
        except json.JSONDecodeError as err:
            raise SchemaError("", "not valid JSON: %s" % err) from None
        except RecursionError:
            raise SchemaError("", NESTED_TOO_DEEPLY) from None
        except ValueError:
            if parse_int is not None:
                raise
            parse_int = decimal_to_int  # an integer literal past the digit limit


# -- field access with paths ---------------------------------------------


def _as_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, "expected an object")
    return value


def _get(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise SchemaError(path + "." + key if path else key, "missing field")
    return doc[key]


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool):
        raise SchemaError(path, "expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        body = value[1:] if value.startswith("-") else value
        # str.isdigit alone also accepts non-ASCII digits such as "²"
        if body.isascii() and body.isdigit():
            return decimal_to_int(value)
    raise SchemaError(path, "expected an integer or a decimal string")


def _as_int_list(value: Any, path: str) -> List[int]:
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list")
    # a list of plain ints, the bulk of every matrix, passes one C-level test
    if set(map(type, value)) == _INT_ONLY:
        return value
    return [v if type(v) is int else _as_int(v, "%s[%d]" % (path, i)) for i, v in enumerate(value)]


def _as_int_rows(value: Any, path: str, cols: int) -> List[Row]:
    """The rows of a matrix, each read into its sparse (column, value) pairs.

    A nonempty matrix of ``cols``-long lists of exact ints (no ``bool``),
    the bulk of every document, passes three C-level scans; any other goes
    row by row, so each error names its row or entry.
    """
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of rows")
    if (
        set(map(type, value)) == _LIST_ONLY
        and set(map(len, value)) == {cols}
        and set(map(type, chain.from_iterable(value))) <= _INT_ONLY
    ):
        return [tuple(compress(enumerate(row), row)) for row in value]
    rows = []
    for i, row in enumerate(value):
        parsed = _as_int_list(row, "%s[%d]" % (path, i))
        if len(parsed) != cols:
            raise SchemaError("%s[%d]" % (path, i), "expected %d entries" % cols)
        rows.append(tuple(compress(enumerate(parsed), parsed)))
    return rows


def _locate(exc: QformError, path: str) -> None:
    """Give a library error raised while building the object at ``path`` that path.

    The innermost object keeps its path: an error that already has one
    is left as it is.
    """
    if exc.path is None:
        exc.path = path


# -- groups --------------------------------------------------------------


def group_to_doc(g: AbGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def group_from_doc(doc: Any, path: str = "group") -> AbGroup:
    d = _as_dict(doc, path)
    rank = _as_int(_get(d, "free_rank", path), path + ".free_rank")
    torsion = _as_int_list(_get(d, "torsion", path), path + ".torsion")
    if rank < 0:
        raise SchemaError(path + ".free_rank", "must be non-negative")
    for i, t in enumerate(torsion):
        if t < 2:
            raise SchemaError("%s.torsion[%d]" % (path, i), "orders must be at least 2")
    return AbGroup(rank, tuple(torsion))


# -- forms ---------------------------------------------------------------


def form_to_doc(e: EQForm) -> dict:
    doc = {
        "group": group_to_doc(e.group),
        "lambda": e.matrix.tolist(),
        "target": group_to_doc(e.target),
        "mu": e.mu.matrix.tolist(),
    }
    if e.v is not None:
        doc["v"] = e.v.matrix.tolist()[0]
    return doc


def _form_doc(e: EQForm, forms: Dict[int, dict]) -> dict:
    """``form_to_doc(e)``, made once per form object: ``forms`` maps id(e) to its dict.

    The caller keeps every form it passes alive, so an id is not reused.
    """
    doc = forms.get(id(e))
    if doc is None:
        doc = forms[id(e)] = form_to_doc(e)
    return doc


def form_from_doc(doc: Any, path: str = "form") -> EQForm:
    d = _as_dict(doc, path)
    group = group_from_doc(_get(d, "group", path), path + ".group")
    target = group_from_doc(_get(d, "target", path), path + ".target")
    n = group.num_gens
    lam_rows = _as_int_rows(_get(d, "lambda", path), path + ".lambda", n)
    if len(lam_rows) != n:
        raise SchemaError(path + ".lambda", "expected %d rows" % n)
    mu_rows = _as_int_rows(_get(d, "mu", path), path + ".mu", n)
    if len(mu_rows) != target.num_gens:
        raise SchemaError(path + ".mu", "expected %d rows" % target.num_gens)
    try:
        lam = IntMatrix(n, n, tuple(lam_rows))
        mu = GroupHom(group, target, IntMatrix(target.num_gens, n, tuple(mu_rows)))
        v = None
        if "v" in d:
            row = _as_int_list(d["v"], path + ".v")
            if len(row) != target.num_gens:
                raise SchemaError(path + ".v", "expected %d entries" % target.num_gens)
            v = GroupHom(target, Z2, IntMatrix.from_rows([row], target.num_gens))
        return EQForm(group, lam, mu, v)
    except QformError as exc:
        _locate(exc, path)
        raise


def _plain(value: Any) -> bool:
    """Whether ``value`` is built from dicts and lists alone, with only exact ints and strings as leaves."""
    kind = type(value)
    if kind is list:
        kinds = set(map(type, value))
        if kinds == _LIST_ONLY:  # a matrix: one scan over all its entries
            kinds = set(map(type, chain.from_iterable(value)))
        return kinds <= _PLAIN_LEAVES or all(map(_plain, value))
    if kind is dict:
        return all(map(_plain, value.values()))
    return kind in _PLAIN_LEAVES


def _read_form(doc: Any, path: str, seen: List[tuple]) -> EQForm:
    """``form_from_doc(doc, path)``, or the form of an equal dict in ``seen``.

    ``seen`` holds (dict, form) pairs, most recently used first, at most
    ``_SEEN_FORMS`` of them; a decoded dict joins it.  ``form_from_doc``
    is a function of the value it reads, and a dict of ints, strings,
    lists and dicts that equals one it read without error reads the same.
    """
    for i, (known, form) in enumerate(seen):
        if doc is known or (doc == known and _plain(doc)):
            if i:
                seen.insert(0, seen.pop(i))
            return form
    form = form_from_doc(doc, path)
    seen.insert(0, (doc, form))
    del seen[_SEEN_FORMS:]
    return form


# -- subgroups -----------------------------------------------------------


def subgroup_to_doc(s: SubgroupRep) -> dict:
    return {"generators": [list(g) for g in s.generators()]}


def subgroup_from_doc(doc: Any, ambient: AbGroup, path: str = "subgroup") -> SubgroupRep:
    d = _as_dict(doc, path)
    rows = _as_int_rows(_get(d, "generators", path), path + ".generators", ambient.num_gens)
    return SubgroupRep.from_sparse(ambient, rows)


# -- quasi-formations ----------------------------------------------------


def formation_to_doc(q: QuasiFormation) -> dict:
    return _formation_doc(q, {})


def _formation_doc(q: QuasiFormation, forms: Dict[int, dict]) -> dict:
    return {
        "form": _form_doc(q.form, forms),
        "L": subgroup_to_doc(q.lagrangian),
        "V": subgroup_to_doc(q.summand),
    }


def formation_from_doc(doc: Any, path: str = "formation") -> QuasiFormation:
    return _read_formation(doc, path, [])


def _read_formation(doc: Any, path: str, seen: List[tuple]) -> QuasiFormation:
    d = _as_dict(doc, path)
    form = _read_form(_get(d, "form", path), path + ".form", seen)
    lagr = subgroup_from_doc(_get(d, "L", path), form.group, path + ".L")
    summ = subgroup_from_doc(_get(d, "V", path), form.group, path + ".V")
    try:
        return QuasiFormation(form, lagr, summ)
    except QformError as exc:
        _locate(exc, path)
        raise


# -- isomorphisms and move sequences -------------------------------------


def iso_to_doc(iso: FormIso) -> dict:
    return _iso_doc(iso, {})


def _iso_doc(iso: FormIso, forms: Dict[int, dict]) -> dict:
    return {
        "source": _form_doc(iso.source, forms),
        "target": _form_doc(iso.target, forms),
        "matrix": iso.hom.matrix.tolist(),
    }


def iso_from_doc(doc: Any, path: str = "iso") -> FormIso:
    return _read_iso(doc, path, [])


def _read_iso(doc: Any, path: str, seen: List[tuple]) -> FormIso:
    d = _as_dict(doc, path)
    source = _read_form(_get(d, "source", path), path + ".source", seen)
    target = _read_form(_get(d, "target", path), path + ".target", seen)
    m, n = target.group.num_gens, source.group.num_gens
    rows = _as_int_rows(_get(d, "matrix", path), path + ".matrix", n)
    if len(rows) != m:
        raise SchemaError(path + ".matrix", "expected %d rows" % m)
    try:
        return FormIso(source, target, GroupHom(source.group, target.group, IntMatrix(m, n, tuple(rows))))
    except QformError as exc:
        _locate(exc, path)
        raise


def _move_doc(move: Any, forms: Dict[int, dict]) -> dict:
    if isinstance(move, Stab):
        return {"move": "stab", "pairs": move.pairs}
    if isinstance(move, Destab):
        return {
            "move": "destab",
            "pairs": move.pairs,
            "rest": _formation_doc(move.rest, forms),
            "witness": _iso_doc(move.witness, forms),
        }
    if isinstance(move, FlipL):
        return {"move": "flip", "witness": _iso_doc(move.witness, forms)}
    if isinstance(move, ApplyIso):
        return {"move": "iso", "iso": _iso_doc(move.iso, forms)}
    raise SchemaError("", "unknown move %r" % type(move).__name__)


def _read_move(doc: Any, path: str, seen: List[tuple]) -> Any:
    d = _as_dict(doc, path)
    kind = _get(d, "move", path)
    if kind == "stab":
        return Stab(_as_int(_get(d, "pairs", path), path + ".pairs"))
    if kind == "destab":
        return Destab(
            _read_formation(_get(d, "rest", path), path + ".rest", seen),
            _as_int(_get(d, "pairs", path), path + ".pairs"),
            _read_iso(_get(d, "witness", path), path + ".witness", seen),
        )
    if kind == "flip":
        return FlipL(_read_iso(_get(d, "witness", path), path + ".witness", seen))
    if kind == "iso":
        return ApplyIso(_read_iso(_get(d, "iso", path), path + ".iso", seen))
    raise SchemaError(path + ".move", "unknown move kind %r" % kind)


def _letter_doc(letter: Any, forms: Dict[int, dict]) -> dict:
    if isinstance(letter, Keep):
        return {"letter": "keep", "iso": _iso_doc(letter.iso, forms)}
    if isinstance(letter, Flip):
        return {
            "letter": "flip",
            "witness": _iso_doc(letter.witness, forms),
            "rest_lagrangian": subgroup_to_doc(letter.rest_lagrangian),
        }
    raise SchemaError("", "unknown word letter %r" % type(letter).__name__)


def _read_letter(doc: Any, path: str, seen: List[tuple]) -> Any:
    d = _as_dict(doc, path)
    kind = _get(d, "letter", path)
    if kind == "keep":
        return Keep(_read_iso(_get(d, "iso", path), path + ".iso", seen))
    if kind == "flip":
        witness = _read_iso(_get(d, "witness", path), path + ".witness", seen)
        try:
            rest = split_pair(witness.target).source
        except HypothesisError as exc:
            located = HypothesisError(f"{path}.witness: {exc}")
            located.path = path + ".witness"
            raise located from None
        return Flip(
            witness,
            subgroup_from_doc(_get(d, "rest_lagrangian", path), rest, path + ".rest_lagrangian"),
        )
    raise SchemaError(path + ".letter", "unknown letter kind %r" % kind)


def word_to_doc(word: RUWord) -> dict:
    """The word's document, each form object in it written by ``form_to_doc`` once.

    Every occurrence of one ``EQForm`` object refers to the same dict, as
    in ``sequence_to_doc``: copy the document (say by a JSON round trip)
    before editing any part of it in place.
    """
    forms: Dict[int, dict] = {}
    return {
        "form": _form_doc(word.form, forms),
        "lagrangian": subgroup_to_doc(word.lagrangian),
        "letters": [_letter_doc(g, forms) for g in word.letters],
    }


def word_from_doc(doc: Any, path: str = "word") -> RUWord:
    """The word of a document, each form value in it decoded once (see the module docstring)."""
    seen: List[tuple] = []
    d = _as_dict(doc, path)
    form = _read_form(_get(d, "form", path), path + ".form", seen)
    lagr = subgroup_from_doc(_get(d, "lagrangian", path), form.group, path + ".lagrangian")
    letters_doc = _get(d, "letters", path)
    if not isinstance(letters_doc, list):
        raise SchemaError(path + ".letters", "expected a list")
    letters = tuple(
        _read_letter(l, "%s.letters[%d]" % (path, i), seen) for i, l in enumerate(letters_doc)
    )
    return RUWord(form, lagr, letters)


def sequence_to_doc(seq: MoveSequence) -> dict:
    """The sequence's document, each form object in it written by ``form_to_doc`` once.

    Every move acts on the same few forms (each move's target is the
    next one's source), so every occurrence of one ``EQForm`` object
    refers to the same dict, which ``canonical_dumps`` then encodes once.
    The document is thus not a tree: copy it (say by a JSON round trip)
    before editing any part of it in place.
    """
    forms: Dict[int, dict] = {}
    return {
        "start": _formation_doc(seq.start, forms),
        "end": _formation_doc(seq.end, forms),
        "moves": [_move_doc(m, forms) for m in seq.moves],
    }


def sequence_from_doc(doc: Any, path: str = "sequence") -> MoveSequence:
    """The sequence of a document, each form value in it decoded once (see the module docstring)."""
    seen: List[tuple] = []
    d = _as_dict(doc, path)
    moves_doc = _get(d, "moves", path)
    if not isinstance(moves_doc, list):
        raise SchemaError(path + ".moves", "expected a list")
    return MoveSequence(
        _read_formation(_get(d, "start", path), path + ".start", seen),
        _read_formation(_get(d, "end", path), path + ".end", seen),
        tuple(_read_move(m, "%s.moves[%d]" % (path, i), seen) for i, m in enumerate(moves_doc)),
    )
