"""JSON documents for forms, subgroups, quasi-formations and witnesses.

The wire format is plain JSON with a fixed canonical layout: object keys
sorted, two-space indent, a trailing newline, and no floating point
anywhere.  Integers that do not fit into 53 bits are written as decimal
strings so that readers which parse numbers as doubles cannot corrupt
them; on input both plain integers and decimal strings are accepted.

Loading re-runs every constructor, so a document that parses but encodes
an inconsistent object (a pairing that is not symmetric, a subgroup
outside its group, and so on) still fails — with the library's own error,
while purely structural problems raise SchemaError with the path of the
offending field.
"""

from __future__ import annotations

import json
from typing import Any, List, Sequence

from .abelian import AbGroup, GroupHom, SubgroupRep, Z2, free_group
from .construct import Flip, Keep, RUWord
from .errors import SchemaError
from .forms import EQForm, FormIso
from .intmat import IntMatrix
from .lmonoid import ApplyIso, Destab, FlipL, MoveSequence, QuasiFormation, Stab

_SAFE = 1 << 53


# -- canonical bytes -----------------------------------------------------


def _encode(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) >= _SAFE else value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if value is None:
        return None
    raise SchemaError("", "cannot serialize %r" % type(value).__name__)


def canonical_dumps(doc: Any) -> str:
    """Serialize to the canonical byte layout."""
    return json.dumps(_encode(doc), sort_keys=True, indent=2) + "\n"


def _reject_float(text: str) -> None:
    raise SchemaError("", "floating point numbers are not allowed: %s" % text)


def loads_document(text: str) -> Any:
    """Parse JSON, rejecting floats and non-finite constants."""
    try:
        return json.loads(
            text,
            parse_float=_reject_float,
            parse_constant=_reject_float,
        )
    except json.JSONDecodeError as err:
        raise SchemaError("", "not valid JSON: %s" % err) from None


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
            return int(value)
    raise SchemaError(path, "expected an integer or a decimal string")


def _as_int_list(value: Any, path: str) -> List[int]:
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list")
    return [_as_int(v, "%s[%d]" % (path, i)) for i, v in enumerate(value)]


def _as_int_rows(value: Any, path: str, cols: int) -> List[List[int]]:
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of rows")
    rows = []
    for i, row in enumerate(value):
        parsed = _as_int_list(row, "%s[%d]" % (path, i))
        if len(parsed) != cols:
            raise SchemaError("%s[%d]" % (path, i), "expected %d entries" % cols)
        rows.append(parsed)
    return rows


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


def form_from_doc(doc: Any, path: str = "form") -> EQForm:
    d = _as_dict(doc, path)
    group = group_from_doc(_get(d, "group", path), path + ".group")
    target = group_from_doc(_get(d, "target", path), path + ".target")
    lam_rows = _as_int_rows(_get(d, "lambda", path), path + ".lambda", group.num_gens)
    if len(lam_rows) != group.num_gens:
        raise SchemaError(path + ".lambda", "expected %d rows" % group.num_gens)
    mu_rows = _as_int_rows(_get(d, "mu", path), path + ".mu", group.num_gens)
    if len(mu_rows) != target.num_gens:
        raise SchemaError(path + ".mu", "expected %d rows" % target.num_gens)
    lam = IntMatrix.from_rows(lam_rows, group.num_gens)
    mu = GroupHom(group, target, IntMatrix.from_rows(mu_rows, group.num_gens))
    v = None
    if "v" in d:
        row = _as_int_list(d["v"], path + ".v")
        if len(row) != target.num_gens:
            raise SchemaError(path + ".v", "expected %d entries" % target.num_gens)
        v = GroupHom(target, Z2, IntMatrix.from_rows([row], target.num_gens))
    return EQForm(group, lam, mu, v)


# -- subgroups -----------------------------------------------------------


def subgroup_to_doc(s: SubgroupRep) -> dict:
    return {"generators": [list(g) for g in s.generators()]}


def subgroup_from_doc(doc: Any, ambient: AbGroup, path: str = "subgroup") -> SubgroupRep:
    d = _as_dict(doc, path)
    rows = _as_int_rows(_get(d, "generators", path), path + ".generators", ambient.num_gens)
    return SubgroupRep.from_elements(ambient, rows)


# -- quasi-formations ----------------------------------------------------


def formation_to_doc(q: QuasiFormation) -> dict:
    return {
        "form": form_to_doc(q.form),
        "L": subgroup_to_doc(q.lagrangian),
        "V": subgroup_to_doc(q.summand),
    }


def formation_from_doc(doc: Any, path: str = "formation") -> QuasiFormation:
    d = _as_dict(doc, path)
    form = form_from_doc(_get(d, "form", path), path + ".form")
    lagr = subgroup_from_doc(_get(d, "L", path), form.group, path + ".L")
    summ = subgroup_from_doc(_get(d, "V", path), form.group, path + ".V")
    return QuasiFormation(form, lagr, summ)


# -- isomorphisms and move sequences -------------------------------------


def iso_to_doc(iso: FormIso) -> dict:
    return {
        "source": form_to_doc(iso.source),
        "target": form_to_doc(iso.target),
        "matrix": iso.hom.matrix.tolist(),
    }


def iso_from_doc(doc: Any, path: str = "iso") -> FormIso:
    d = _as_dict(doc, path)
    source = form_from_doc(_get(d, "source", path), path + ".source")
    target = form_from_doc(_get(d, "target", path), path + ".target")
    rows = _as_int_rows(_get(d, "matrix", path), path + ".matrix", source.group.num_gens)
    if len(rows) != target.group.num_gens:
        raise SchemaError(path + ".matrix", "expected %d rows" % target.group.num_gens)
    hom = GroupHom(source.group, target.group, IntMatrix.from_rows(rows, source.group.num_gens))
    return FormIso(source, target, hom)


def move_to_doc(move: Any) -> dict:
    if isinstance(move, Stab):
        return {"move": "stab", "pairs": move.pairs}
    if isinstance(move, Destab):
        return {
            "move": "destab",
            "pairs": move.pairs,
            "rest": formation_to_doc(move.rest),
            "witness": iso_to_doc(move.witness),
        }
    if isinstance(move, FlipL):
        return {"move": "flip", "witness": iso_to_doc(move.witness)}
    if isinstance(move, ApplyIso):
        return {"move": "iso", "iso": iso_to_doc(move.iso)}
    raise SchemaError("", "unknown move %r" % type(move).__name__)


def move_from_doc(doc: Any, path: str = "move") -> Any:
    d = _as_dict(doc, path)
    kind = _get(d, "move", path)
    if kind == "stab":
        return Stab(_as_int(_get(d, "pairs", path), path + ".pairs"))
    if kind == "destab":
        return Destab(
            formation_from_doc(_get(d, "rest", path), path + ".rest"),
            _as_int(_get(d, "pairs", path), path + ".pairs"),
            iso_from_doc(_get(d, "witness", path), path + ".witness"),
        )
    if kind == "flip":
        return FlipL(iso_from_doc(_get(d, "witness", path), path + ".witness"))
    if kind == "iso":
        return ApplyIso(iso_from_doc(_get(d, "iso", path), path + ".iso"))
    raise SchemaError(path + ".move", "unknown move kind %r" % kind)


def letter_to_doc(letter: Any) -> dict:
    if isinstance(letter, Keep):
        return {"letter": "keep", "iso": iso_to_doc(letter.iso)}
    if isinstance(letter, Flip):
        return {
            "letter": "flip",
            "witness": iso_to_doc(letter.witness),
            "rest_lagrangian": subgroup_to_doc(letter.rest_lagrangian),
        }
    raise SchemaError("", "unknown word letter %r" % type(letter).__name__)


def letter_from_doc(doc: Any, path: str = "letter") -> Any:
    d = _as_dict(doc, path)
    kind = _get(d, "letter", path)
    if kind == "keep":
        return Keep(iso_from_doc(_get(d, "iso", path), path + ".iso"))
    if kind == "flip":
        witness = iso_from_doc(_get(d, "witness", path), path + ".witness")
        rest = free_group(witness.target.group.num_gens - 2)
        return Flip(
            witness,
            subgroup_from_doc(_get(d, "rest_lagrangian", path), rest, path + ".rest_lagrangian"),
        )
    raise SchemaError(path + ".letter", "unknown letter kind %r" % kind)


def word_to_doc(word: RUWord) -> dict:
    return {
        "form": form_to_doc(word.form),
        "lagrangian": subgroup_to_doc(word.lagrangian),
        "letters": [letter_to_doc(g) for g in word.letters],
    }


def word_from_doc(doc: Any, path: str = "word") -> RUWord:
    d = _as_dict(doc, path)
    form = form_from_doc(_get(d, "form", path), path + ".form")
    lagr = subgroup_from_doc(_get(d, "lagrangian", path), form.group, path + ".lagrangian")
    letters_doc = _get(d, "letters", path)
    if not isinstance(letters_doc, list):
        raise SchemaError(path + ".letters", "expected a list")
    letters = tuple(
        letter_from_doc(l, "%s.letters[%d]" % (path, i)) for i, l in enumerate(letters_doc)
    )
    return RUWord(form, lagr, letters)


def sequence_to_doc(seq: MoveSequence) -> dict:
    return {
        "start": formation_to_doc(seq.start),
        "end": formation_to_doc(seq.end),
        "moves": [move_to_doc(m) for m in seq.moves],
    }


def sequence_from_doc(doc: Any, path: str = "sequence") -> MoveSequence:
    d = _as_dict(doc, path)
    moves_doc = _get(d, "moves", path)
    if not isinstance(moves_doc, list):
        raise SchemaError(path + ".moves", "expected a list")
    return MoveSequence(
        formation_from_doc(_get(d, "start", path), path + ".start"),
        formation_from_doc(_get(d, "end", path), path + ".end"),
        tuple(move_from_doc(m, "%s.moves[%d]" % (path, i)) for i, m in enumerate(moves_doc)),
    )
