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
document holds one dict per form value and one per isomorphism value)
is likewise written once per depth.  Object keys must be strings, and a
document nested more than ``MAX_DEPTH`` containers deep is refused with
a SchemaError, as is one too deep to parse.  ``first_difference`` names
the first JSON path, in that layout's order, where two documents differ;
it compares lists of ints with ``==`` and encodes only the values it
cannot compare so.

Integers have no size limit in either direction.  Python refuses int/str
conversions past ``sys.get_int_max_str_digits()`` digits (4300 by
default); past that limit, and only there, ``int_to_decimal`` and
``decimal_to_int`` convert in chunks by divide and conquer.

``loads_document`` reads a text of 64 KiB or more by a scan that walks
its top few container levels in Python and hands everything else to the
json module's C scanner.  At each object long enough to repeat, the scan
checks whether the text there is a verbatim copy of an object text it has
read, and if so returns that object's dict and skips the copy.  A
certificate's text repeats a few form and isomorphism texts once per move,
so each is decoded once.  The value, and every error, is that of
``json.loads``, which reads every smaller text in one call: there the
walk costs more than sharing saves.

Loading re-runs every constructor, so a document that parses but encodes
an inconsistent object (a pairing that is not symmetric, a map that does
not pull the pairing back, and so on) still fails with the library's own
error, to which ``_at`` gives the JSON path of the group, form, parity map,
formation or isomorphism that failed; purely structural problems raise
SchemaError with the path of the offending field.  ``_read_matrix`` reads
every matrix straight into sparse rows: one whose rows are all lists of
exact ints of the expected length is type-checked by one scan over all
its entries; any other is read row by row, so every error names its row
or entry, and decimal strings are accepted there.

A sequence or word document repeats a few form values many times (each
move's target is the next move's source) and a few isomorphism values (a
certificate's flips between the same two forms, a word's letters that
share a witness), so ``sequence_from_doc`` and ``word_from_doc`` decode
each form and isomorphism value once per call, by value.  One memo per
call holds the last ``_SEEN_FORMS`` distinct form dicts decoded, with
their forms; the first is the start's (or the word's) form.  A form dict
that is one of them, or equals one of them with ``==`` and holds nothing
but lists, dicts, ints and strings (``True == 1``, but ``true`` is no
integer), reuses that ``EQForm``.  A second memo per call, one dict
lookup per isomorphism, maps each isomorphism dict read, and the source
and target forms so read with the rows of the matrix, to the
``FormIso`` decoded from them; a hit by value counts under the same
guard, a matrix of lists of ints and strings alone.  So the copies that a
document read by ``loads_document`` shares cost one lookup each, and no
scan of their entries.  Any other form or matrix
is decoded at its own path, so the first occurrence of each value is
still decoded and checked where it stands, and every error keeps its
JSON path.  Each distinct isomorphism is built once by ``FormIso``'s
public constructor, and its later copies share that object and its
cached inverse.  One out of a nonsingular form reads its bijectivity off
that form's cached nonsingularity, so a certificate's isomorphisms cost
one determinant per form value, not one each.

A document written here may hold one dict in several places: every
occurrence of one form or isomorphism value in a sequence, word or
isomorphism refers to the same dict.  So may a document read from a
large text: every verbatim copy of one long object text is the same
dict.  Copy such a document (say by a JSON round trip) before editing
any part of it in place.
"""

from __future__ import annotations

import json
from itertools import chain, compress
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, List

from .abelian import AbGroup, GroupHom, SubgroupRep, Z2
from .construct import Flip, Keep, RUWord
from .errors import QformError, SchemaError
from .forms import EQForm, FormIso
from .intmat import IntMatrix
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

# The sharing scan of ``loads_document`` (see ``_sharing_decoder``), set by
# timing it against json.loads (best of 5 to 15) with CPython 3.11 on a
# 2-core x86-64 machine.  The scan gains only where long object texts repeat
# and pays for its Python walk elsewhere, so json.loads stays the reader of
# small texts.  The scan took 2.4 times as long on the 662 texts one
# form-batch pass reads (0.3-10.8 KB: 38.7 ms against 16.4 ms), 5.5 times
# on si-ladder's 156 (0.3-5.6 KB: 9.0 against 1.6 ms), and 1.3-2.1 times on
# command outputs of 13-36 KB that repeat no long object (13.5 KB ru-wall
# words, kappa and si results).  On certificates it took 0.69-0.87 of the
# time from 32 KB on (rank-2 jacobi results and sequences, 36 KB ru-wall
# words) and 0.07-0.18 at 0.37-3.9 MB (jacobi results and sequences of rank
# 4 to 8).  Every losing text measured is at most 36.2 KB; at 64 KiB the rank-2
# jacobi result (52 KB, 0.7 ms) forgoes 0.2 ms.  A list of short objects
# loses at any size: an oracle-lagrangians result grown to 640 lagrangians
# (82 KB) took 1.95 times as long (3.2 against 1.6 ms).
# For the rest of the constants, the texts were the 3.9 MB rank-8 jacobi
# result (json.loads: 91 ms), triple A's 447 KB result (10 ms) and 10,000
# small dicts in one list (769 KB, 8.1 ms).  A window of 256 characters read
# the small dicts in 20 ms, against 55 ms when every container was walked,
# and 1024 read triple A in 2.0 ms, against 1.5 ms.  A prefix of 16, 64 or 256
# characters made no difference (7.2-8.1 ms on the rank-8 result).  With 16
# texts to a prefix each distinct object text of that result is walked once
# (54 objects, 7.6 ms); 4 and 8 walked 108 and 97 (16.8 and 14.5 ms), since
# its isomorphism texts share their first rows.  Forms sit 5 containers deep
# in a result (result, sequence, moves, move, isomorphism): walking 4 or 5
# levels took 16 ms, 6 levels 7.2 ms, and 7 or 8 no less.
_SHARE_TEXT = 64 * 1024
_SHARE_OBJECT = 256
_SHARE_PREFIX = 64
_SHARE_CANDIDATES = 16
_SHARE_DEPTH = 6

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
    """Parse JSON, rejecting floats and non-finite constants.

    A text of ``_SHARE_TEXT`` characters or more is read by the sharing
    scan of ``_sharing_decoder``: each verbatim copy of an object text
    longer than ``_SHARE_OBJECT`` characters, in its top ``_SHARE_DEPTH``
    container levels, decodes to the one dict its first copy was read
    to.  The value equals that of ``json.loads``, and so does every error,
    but a dict may stand in several places: copy the document (say by a
    JSON round trip) before editing any part of it in place.
    """
    parse_int = None
    while True:
        try:
            if len(text) >= _SHARE_TEXT and not text.startswith("\ufeff"):  # json.loads refuses a BOM
                return _sharing_decoder(parse_int).decode(text)
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


def _sharing_decoder(parse_int: Any) -> json.JSONDecoder:
    """``loads_document``'s decoder, whose scan decodes each repeated object text once.

    The scan walks the top ``_SHARE_DEPTH`` container levels by the json
    module's own ``JSONObject`` and ``JSONArray``: every object, and every
    array whose first item is an object, that is longer than
    ``_SHARE_OBJECT`` characters.  Any other value, every shorter container
    (parsed from its next ``_SHARE_OBJECT`` characters alone, as there is
    nothing in it to share), and every value below those levels goes to
    the decoder's C scanner.  Each object walked is remembered by its span,
    under its first ``_SHARE_PREFIX`` characters, at most
    ``_SHARE_CANDIDATES`` spans to a prefix, most recently used first.  At
    each such ``{`` the scan looks for a remembered text that starts
    there; one that does is a verbatim copy, which parses to an equal
    value, so its dict is returned and the scan goes on past the copy.  A
    span is cut out of the text the first time it is compared, so that a
    comparison stops at the first character that differs, and an object
    whose prefix never recurs (the whole document, say) is never copied.
    A container the C scanner cannot read from its short window, because
    it is longer or holds an error, is walked, so every error is raised
    where ``json.loads`` raises it.
    """
    decoder = json.JSONDecoder(parse_float=_reject_float, parse_constant=_reject_float, parse_int=parse_int)
    c_scan, strict, memo = decoder.scan_once, decoder.strict, decoder.memo
    parse_object, parse_array = json.decoder.JSONObject, json.decoder.JSONArray
    skip_space = json.decoder.WHITESPACE.match
    known: Dict[str, List[list]] = {}  # prefix -> [[(start, end) or its text, dict], ...]

    def scanner(depth: int) -> Any:
        inner = scanner(depth + 1) if depth + 1 < _SHARE_DEPTH else c_scan

        def scan(s: str, idx: int) -> tuple:
            is_object = s.startswith("{", idx)
            if not (is_object or (s.startswith("[", idx) and s.startswith("{", skip_space(s, idx + 1).end()))):
                return c_scan(s, idx)
            if s.find("}" if is_object else "]", idx, idx + _SHARE_OBJECT) >= 0:
                try:
                    obj, end = c_scan(s[idx : idx + _SHARE_OBJECT], 0)
                    return obj, idx + end
                except (StopIteration, ValueError, SchemaError):
                    pass  # a longer container, or an error, which the walk finds at its place in s
            if not is_object:
                return parse_array((s, idx + 1), inner)
            prefix = s[idx : idx + _SHARE_PREFIX]
            spans = known.setdefault(prefix, [])
            for i, entry in enumerate(spans):
                text = entry[0]
                if type(text) is not str:
                    text = entry[0] = s[text[0] : text[1]]
                if s.startswith(text, idx):
                    if i:
                        spans.insert(0, spans.pop(i))
                    return entry[1], idx + len(text)
            obj, end = parse_object((s, idx + 1), strict, inner, None, None, memo)
            spans.insert(0, [(idx, end), obj])
            del spans[_SHARE_CANDIDATES:]
            return obj, end

        return scan

    decoder.scan_once = scanner(0)
    return decoder


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


def _read_matrix(value: Any, path: str, cols: int, rows: int | None = None) -> IntMatrix:
    """The matrix of a list of rows of ``cols`` entries, ``rows`` of them unless None; each row is read canonical.

    A nonempty matrix of ``cols``-long lists of exact ints (no ``bool``), the bulk of every document, passes
    three C-level scans; any other goes row by row, so each error names its row or entry.
    """
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of rows")
    if (
        set(map(type, value)) == _LIST_ONLY
        and set(map(len, value)) == {cols}
        and set(map(type, chain.from_iterable(value))) <= _INT_ONLY
    ):
        read = [tuple(compress(enumerate(row), row)) for row in value]
    else:
        read = []
        for i, row in enumerate(value):
            parsed = _as_int_list(row, "%s[%d]" % (path, i))
            if len(parsed) != cols:
                raise SchemaError("%s[%d]" % (path, i), "expected %d entries" % cols)
            read.append(tuple(compress(enumerate(parsed), parsed)))
    if rows is not None and len(read) != rows:
        raise SchemaError(path, "expected %d rows" % rows)
    return IntMatrix._of(len(read), cols, tuple(read))


class _at:
    """Gives a library error raised while building the object at ``where`` that JSON path, unless it has one:
    the innermost object keeps its path.  (A class: entering it costs a third of a ``contextmanager``'s.)"""

    def __init__(self, where: str):
        self.where = where

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: Any, exc: Any, tb: Any) -> None:
        if isinstance(exc, QformError) and exc.path is None:
            exc.path = self.where


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
    with _at(path):
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


def _form_doc(e: EQForm, docs: Dict[Any, dict]) -> dict:
    """``form_to_doc(e)``, made once per form value: ``docs`` maps each form and isomorphism to its dict."""
    doc = docs.get(e)
    if doc is None:
        doc = docs[e] = form_to_doc(e)
    return doc


def form_from_doc(doc: Any, path: str = "form") -> EQForm:
    d = _as_dict(doc, path)
    group = group_from_doc(_get(d, "group", path), path + ".group")
    target = group_from_doc(_get(d, "target", path), path + ".target")
    n = group.num_gens
    lam = _read_matrix(_get(d, "lambda", path), path + ".lambda", n, n)
    with _at(path):
        mu = GroupHom(group, target, _read_matrix(_get(d, "mu", path), path + ".mu", n, target.num_gens))
        v = _read_parity(d["v"], target, path + ".v") if "v" in d else None
        return EQForm(group, lam, mu, v)


def _read_parity(value: Any, q: AbGroup, path: str) -> GroupHom:
    """The parity map Q → Z/2 of a row of one entry per generator of Q."""
    row = _as_int_list(value, path)
    if len(row) != q.num_gens:
        raise SchemaError(path, "expected %d entries" % q.num_gens)
    with _at(path):
        return GroupHom(q, Z2, IntMatrix.from_rows([row], q.num_gens))


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
    Such a dict takes the place of the one it equals, so that the places
    a document shares it in (see ``loads_document``) hit by identity.
    """
    for i, (known, form) in enumerate(seen):
        if doc is known or (doc == known and _plain(doc)):
            if i or doc is not known:
                del seen[i]
                seen.insert(0, (doc, form))
            return form
    form = form_from_doc(doc, path)
    seen.insert(0, (doc, form))
    del seen[_SEEN_FORMS:]
    return form


# -- subgroups -----------------------------------------------------------


def subgroup_to_doc(s: SubgroupRep) -> dict:
    return {"generators": [list(g) for g in s.generators()]}


def subgroup_from_doc(doc: Any, ambient: AbGroup, path: str = "subgroup") -> SubgroupRep:
    generators = _get(_as_dict(doc, path), "generators", path)
    return SubgroupRep.from_sparse(ambient, _read_matrix(generators, path + ".generators", ambient.num_gens).sparse)


# -- quasi-formations ----------------------------------------------------


def formation_to_doc(q: QuasiFormation) -> dict:
    return _formation_doc(q, {})


def _formation_doc(q: QuasiFormation, docs: Dict[Any, dict]) -> dict:
    return {
        "form": _form_doc(q.form, docs),
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
    with _at(path):
        return QuasiFormation(form, lagr, summ)


# -- isomorphisms and move sequences -------------------------------------


def iso_to_doc(iso: FormIso) -> dict:
    return _iso_doc(iso, {})


def _iso_doc(iso: FormIso, docs: Dict[Any, dict]) -> dict:
    """``iso_to_doc(iso)``, made once per isomorphism value, its forms through ``_form_doc``."""
    doc = docs.get(iso)
    if doc is None:
        doc = docs[iso] = {
            "source": _form_doc(iso.source, docs),
            "target": _form_doc(iso.target, docs),
            "matrix": iso.hom.matrix.tolist(),
        }
    return doc


def iso_from_doc(doc: Any, path: str = "iso") -> FormIso:
    return _read_iso(doc, path, [], {})


def _read_iso(doc: Any, path: str, seen: List[tuple], isos: Dict[Any, FormIso]) -> FormIso:
    """The isomorphism of ``doc``, or the one an equal document was read to before.

    ``isos`` maps (the ids of the source and target forms ``_read_form``
    returned, the matrix's rows as tuples) to the isomorphism decoded from
    them.  Each isomorphism there holds its two forms, so no other object
    takes their ids while ``isos`` lives.  Only a list of lists whose
    entries are exact ints and strings can hit: ``True == 1``,
    ``1.0 == 1``, and the string "10" iterates like ``["1", "0"]``, but
    none of them is an integer row.  Any other matrix, like every miss,
    is decoded and checked at its own path.  ``isos`` also maps the id of
    each dict read to its isomorphism, so a dict the document holds in
    several places is read once; the document the call reads keeps that
    dict alive, so no other object takes its id.
    """
    iso = isos.get(id(doc))
    if iso is not None:
        return iso
    d = _as_dict(doc, path)
    source = _read_form(_get(d, "source", path), path + ".source", seen)
    target = _read_form(_get(d, "target", path), path + ".target", seen)
    matrix = _get(d, "matrix", path)
    key = None
    if type(matrix) is list and set(map(type, matrix)) <= _LIST_ONLY:
        try:
            key = (id(source), id(target), tuple(map(tuple, matrix)))
            iso = isos.get(key)
        except TypeError:  # an unhashable entry, which the decoder below reports
            key = iso = None
        if iso is not None and _plain(matrix):
            isos[id(d)] = iso
            return iso
    h = _read_matrix(matrix, path + ".matrix", source.group.num_gens, target.group.num_gens)
    with _at(path):
        iso = FormIso(source, target, GroupHom(source.group, target.group, h))
    if key is not None:
        isos[key] = iso
    isos[id(d)] = iso
    return iso


def _move_doc(move: Any, docs: Dict[Any, dict]) -> dict:
    if isinstance(move, Stab):
        return {"move": "stab", "pairs": move.pairs}
    if isinstance(move, Destab):
        return {
            "move": "destab",
            "pairs": move.pairs,
            "rest": _formation_doc(move.rest, docs),
            "witness": _iso_doc(move.witness, docs),
        }
    if isinstance(move, FlipL):
        return {"move": "flip", "witness": _iso_doc(move.witness, docs)}
    if isinstance(move, ApplyIso):
        return {"move": "iso", "iso": _iso_doc(move.iso, docs)}
    raise SchemaError("", "unknown move %r" % type(move).__name__)


def _read_move(doc: Any, path: str, seen: List[tuple], isos: Dict[Any, FormIso]) -> Any:
    d = _as_dict(doc, path)
    kind = _get(d, "move", path)
    if kind == "stab":
        return Stab(_as_int(_get(d, "pairs", path), path + ".pairs"))
    if kind == "destab":
        return Destab(
            _read_formation(_get(d, "rest", path), path + ".rest", seen),
            _as_int(_get(d, "pairs", path), path + ".pairs"),
            _read_iso(_get(d, "witness", path), path + ".witness", seen, isos),
        )
    if kind == "flip":
        return FlipL(_read_iso(_get(d, "witness", path), path + ".witness", seen, isos))
    if kind == "iso":
        return ApplyIso(_read_iso(_get(d, "iso", path), path + ".iso", seen, isos))
    raise SchemaError(path + ".move", "unknown move kind %r" % kind)


def _letter_doc(letter: Any, docs: Dict[Any, dict]) -> dict:
    if isinstance(letter, Keep):
        return {"letter": "keep", "iso": _iso_doc(letter.iso, docs)}
    if isinstance(letter, Flip):
        return {"letter": "flip", "witness": _iso_doc(letter.witness, docs)}
    raise SchemaError("", "unknown word letter %r" % type(letter).__name__)


def _read_letter(doc: Any, path: str, seen: List[tuple], isos: Dict[Any, FormIso]) -> Any:
    d = _as_dict(doc, path)
    kind = _get(d, "letter", path)
    if kind == "keep":
        return Keep(_read_iso(_get(d, "iso", path), path + ".iso", seen, isos))
    if kind == "flip":  # a key an older layout wrote beside the witness is left unread
        return Flip(_read_iso(_get(d, "witness", path), path + ".witness", seen, isos))
    raise SchemaError(path + ".letter", "unknown letter kind %r" % kind)


def word_to_doc(word: RUWord) -> dict:
    """The word's document, each form and isomorphism value in it made into a dict once.

    Every occurrence of one ``EQForm`` or ``FormIso`` value refers to the
    same dict, as in ``sequence_to_doc``: copy the document (say by a JSON
    round trip) before editing any part of it in place.
    """
    docs: Dict[Any, dict] = {}
    return {
        "form": _form_doc(word.form, docs),
        "lagrangian": subgroup_to_doc(word.lagrangian),
        "letters": [_letter_doc(g, docs) for g in word.letters],
    }


def word_from_doc(doc: Any, path: str = "word") -> RUWord:
    """The word of a document, each form and isomorphism value in it decoded once (see the module docstring)."""
    seen: List[tuple] = []
    isos: Dict[Any, FormIso] = {}
    d = _as_dict(doc, path)
    form = _read_form(_get(d, "form", path), path + ".form", seen)
    lagr = subgroup_from_doc(_get(d, "lagrangian", path), form.group, path + ".lagrangian")
    letters_doc = _get(d, "letters", path)
    if not isinstance(letters_doc, list):
        raise SchemaError(path + ".letters", "expected a list")
    letters = tuple(
        _read_letter(l, "%s.letters[%d]" % (path, i), seen, isos) for i, l in enumerate(letters_doc)
    )
    return RUWord(form, lagr, letters)


def sequence_to_doc(seq: MoveSequence) -> dict:
    """The sequence's document, each form and isomorphism value in it made into a dict once.

    Every move acts on the same few forms (each move's target is the
    next one's source), and a certificate repeats its isomorphisms, so
    every occurrence of one ``EQForm`` or ``FormIso`` value refers to the
    same dict, which ``canonical_dumps`` then encodes once per depth.  The
    document is thus not a tree: copy it (say by a JSON round trip) before
    editing any part of it in place.
    """
    docs: Dict[Any, dict] = {}
    return {
        "start": _formation_doc(seq.start, docs),
        "end": _formation_doc(seq.end, docs),
        "moves": [_move_doc(m, docs) for m in seq.moves],
    }


def sequence_from_doc(doc: Any, path: str = "sequence") -> MoveSequence:
    """The sequence of a document, each form and isomorphism value in it decoded once (see the module docstring)."""
    seen: List[tuple] = []
    isos: Dict[Any, FormIso] = {}
    d = _as_dict(doc, path)
    moves_doc = _get(d, "moves", path)
    if not isinstance(moves_doc, list):
        raise SchemaError(path + ".moves", "expected a list")
    return MoveSequence(
        _read_formation(_get(d, "start", path), path + ".start", seen),
        _read_formation(_get(d, "end", path), path + ".end", seen),
        tuple(_read_move(m, "%s.moves[%d]" % (path, i), seen, isos) for i, m in enumerate(moves_doc)),
    )
