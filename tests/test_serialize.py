"""Round-trip and schema tests for the JSON document layer."""

import json
import math
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qform import abelian, cli, construct, forms, serialize
from qform.abelian import AbGroup, GroupHom, SubgroupRep, Z2, ZERO_GROUP, free_group
from qform.construct import Flip, Keep, RUWord, ru_wall_witness, ru_word_eval
from qform.errors import HypothesisError, NotWellDefined, SchemaError
from qform.forms import EQForm, FormIso, hyperbolic
from qform.intmat import IntMatrix
from qform.lmonoid import ApplyIso, MoveSequence, QuasiFormation, Stab, apply_move, replay, standard_elementary
from qform.serialize import (
    MAX_DEPTH,
    canonical_dumps,
    decimal_to_int,
    first_difference,
    form_from_doc,
    form_to_doc,
    formation_from_doc,
    formation_to_doc,
    group_from_doc,
    group_to_doc,
    int_to_decimal,
    iso_from_doc,
    iso_to_doc,
    loads_document,
    sequence_from_doc,
    sequence_to_doc,
    subgroup_from_doc,
    subgroup_to_doc,
    word_from_doc,
    word_to_doc,
)

Z = free_group(1)
VZ = GroupHom.zero(Z, Z2)
V0 = GroupHom.zero(ZERO_GROUP, Z2)


def reload(text):
    return loads_document(text)


# -- object round trips ------------------------------------------------


def test_group_round_trip():
    for g in (ZERO_GROUP, Z, AbGroup(2, (2, 12)), AbGroup(0, (3,))):
        doc = group_to_doc(g)
        assert group_from_doc(reload(canonical_dumps(doc))) == g


def test_form_round_trip_with_parity():
    e = hyperbolic(1, Z, VZ)
    text = canonical_dumps(form_to_doc(e))
    back = form_from_doc(reload(text))
    assert back == e
    assert canonical_dumps(form_to_doc(back)) == text


def test_form_round_trip_without_parity_has_no_v_key():
    g = free_group(2)
    e = EQForm(g, IntMatrix.from_rows([[0, 1], [1, 0]]), GroupHom.zero(g, ZERO_GROUP), None)
    doc = form_to_doc(e)
    assert "v" not in doc
    assert form_from_doc(reload(canonical_dumps(doc))) == e


def test_subgroup_round_trip_canonicalizes_generators():
    g = free_group(2)
    s = SubgroupRep.from_elements(g, [[2, 4], [1, 1]])
    doc = subgroup_to_doc(s)
    assert subgroup_from_doc(reload(canonical_dumps(doc)), g) == s
    # non-canonical generating sets land on the same subgroup
    assert subgroup_from_doc({"generators": [[1, 1], [2, 4]]}, g) == s


def test_formation_round_trip():
    q = standard_elementary(2, Z, VZ)
    text = canonical_dumps(formation_to_doc(q))
    assert formation_from_doc(reload(text)) == q
    assert canonical_dumps(formation_to_doc(formation_from_doc(reload(text)))) == text


def test_iso_round_trip():
    e = hyperbolic(1, ZERO_GROUP, V0)
    iso = FormIso(e, e, GroupHom(e.group, e.group, IntMatrix.from_rows([[0, 1], [1, 0]])))
    assert iso_from_doc(reload(canonical_dumps(iso_to_doc(iso)))) == iso


def test_sequence_round_trip_still_replays():
    q = standard_elementary(1, Z, VZ)
    seq = MoveSequence(q, apply_move(q, Stab(1)), (Stab(1),))
    back = sequence_from_doc(reload(canonical_dumps(sequence_to_doc(seq))))
    assert back == seq
    assert replay(back).ok


def test_word_round_trip_evaluates_identically():
    e = hyperbolic(1, ZERO_GROUP, V0)
    l = SubgroupRep.from_elements(e.group, [[0, 1]])
    phi = FormIso(e, e, GroupHom(e.group, e.group, IntMatrix.from_rows([[-1, 0], [0, -1]])))
    w = ru_wall_witness(e, l, phi)
    text = canonical_dumps(word_to_doc(w.word))
    back = word_from_doc(reload(text))
    assert back == w.word
    assert canonical_dumps(word_to_doc(back)) == text
    assert ru_word_eval(back) == w.expected


def twice_the_identity_document(reader):
    """The JSON copy of a sequence or word document whose two moves or letters are the identity of
    λ = diag(1, -1), with where its second iso matrix lies: the writer shares one dict, the copy does not."""
    g = free_group(2)
    e = EQForm(g, IntMatrix.diagonal([1, -1]), GroupHom.zero(g, ZERO_GROUP))
    one = FormIso(e, e, GroupHom.identity(g))
    if reader is sequence_from_doc:
        q = QuasiFormation(e, SubgroupRep.from_elements(g, [[1, 1]]), SubgroupRep.from_elements(g, [[1, -1]]))
        doc = sequence_to_doc(MoveSequence(q, q, (ApplyIso(one), ApplyIso(one))))
        return json.loads(json.dumps(doc)), lambda d: d["moves"][1]["iso"], "sequence.moves[1].iso"
    doc = word_to_doc(RUWord(e, SubgroupRep.zero(g), (Keep(one), Keep(one))))
    return json.loads(json.dumps(doc)), lambda d: d["letters"][1]["iso"], "word.letters[1].iso"


def isos_of(got):
    return [m.iso for m in got.moves] if isinstance(got, MoveSequence) else [k.iso for k in got.letters]


@pytest.mark.parametrize("reader", [sequence_from_doc, word_from_doc], ids=["sequence", "word"])
@pytest.mark.parametrize(
    "entry, message",
    [(True, "expected an integer"), (1.0, "expected an integer or a decimal string"),
     ([1], "expected an integer or a decimal string")],
    ids=["true", "float", "unhashable"],
)
def test_a_later_iso_copy_that_is_no_integer_matrix_fails_at_its_own_path(reader, entry, message):
    """A copy that equals an isomorphism read before (``True == 1.0 == 1``) is still decoded, and fails."""
    doc, second, path = twice_the_identity_document(reader)
    second(doc)["matrix"][0][0] = entry
    where = path + ".matrix[0][0]"
    with pytest.raises(SchemaError) as err:
        reader(doc)
    assert (err.value.path, str(err.value)) == (where, "%s: %s" % (where, message))


@pytest.mark.parametrize("reader", [sequence_from_doc, word_from_doc], ids=["sequence", "word"])
def test_a_later_iso_copy_with_a_string_row_fails_at_its_own_path(reader):
    """The row "10" iterates like the row ["1", "0"] of decimal strings read before, but is no list."""
    doc, second, path = twice_the_identity_document(reader)
    first = doc["moves"][0]["iso"] if reader is sequence_from_doc else doc["letters"][0]["iso"]
    first["matrix"][0] = ["1", "0"]
    second(doc)["matrix"][0] = "10"
    with pytest.raises(SchemaError) as err:
        reader(doc)
    assert (err.value.path, str(err.value)) == (path + ".matrix[0]", path + ".matrix[0]: expected a list")


@pytest.mark.parametrize("reader", [sequence_from_doc, word_from_doc], ids=["sequence", "word"])
def test_later_iso_copies_decode_to_their_own_value(reader):
    """An unchanged copy reuses the isomorphism read before; one that differs in one entry, or spells an
    entry as a decimal string, decodes at its own path."""
    doc, second, _ = twice_the_identity_document(reader)
    first, again = isos_of(reader(doc))
    assert again is first and first.hom.matrix == IntMatrix.identity(2)
    second(doc)["matrix"][1][1] = -1
    first, other = isos_of(reader(doc))
    assert other.hom.matrix == IntMatrix.diagonal([1, -1]) != first.hom.matrix == IntMatrix.identity(2)
    second(doc)["matrix"][1][1] = "1"
    first, spelled = isos_of(reader(doc))
    assert spelled == first and spelled is not first


def seed_one_rank_four_word(tmp_path, capsys, monkeypatch):
    """The rank-4 ru-wall word of the benchmark's form-batch generator (seed 1), read back from its document."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import gen

    path = tmp_path / "in.json"
    path.write_text(json.dumps(gen.ru_wall_request(random.Random(1), rank4=True).doc))
    assert cli.run(["ru-wall", "--input", str(path)]) == 0
    return word_from_doc(json.loads(capsys.readouterr().out)["word"])


def test_a_word_read_back_inverts_each_distinct_witness_once(tmp_path, capsys, monkeypatch):
    """The word holds 8 Flip letters with 2 distinct witnesses; read back from its document, the letters
    share 2 isomorphisms, and evaluating the word inverts each once (8 times when every letter held its
    own copy)."""
    word = seed_one_rank_four_word(tmp_path, capsys, monkeypatch)
    flips = [g.witness for g in word.letters if isinstance(g, Flip)]
    assert (len(word.letters), len(flips), len(set(map(id, flips)))) == (12, 8, 2)
    calls = []
    monkeypatch.setattr(forms, "invert_iso", lambda h: calls.append(h) or abelian.invert_iso(h))
    ru_word_eval(word)
    assert len(calls) == 2


def test_a_word_read_back_checks_each_distinct_witness_once(tmp_path, capsys, monkeypatch):
    """Evaluating the word classifies its lagrangian once, checks the split layout once per distinct
    witness (8 times when every letter was checked) and restricts no form to a rest group."""
    word = seed_one_rank_four_word(tmp_path, capsys, monkeypatch)
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.update([name]) or original(*a))

    for module in (construct, forms):
        for name in ("split_pair", "subgroup_classify", "pullback"):
            counted(module, name)
    ru_word_eval(word)
    assert calls == Counter(split_pair=2, subgroup_classify=1)


def flip_word_with_torsion():
    """H ⊕ 0 on Z² ⊕ Z/2, L = ⟨e₁⟩, one flip, which leaves 0 ⊂ Z/2 as the rest's lagrangian."""
    g = AbGroup(2, (2,))
    e = EQForm(g, IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]]), GroupHom.zero(g, ZERO_GROUP))
    return RUWord(e, SubgroupRep.from_elements(g, [g.gen(1)]), (Flip(FormIso.identity(e)),))


def validate_word(tmp_path, capsys, doc):
    """The exit code and report of ``validate`` on a word document."""
    path = tmp_path / "word.json"
    path.write_text(canonical_dumps(doc))
    code = cli.run(["validate", "--input", str(path)])
    return code, json.loads(capsys.readouterr().out)


def test_flip_word_with_torsion_round_trips_and_validates(tmp_path, capsys):
    word = flip_word_with_torsion()
    doc = word_to_doc(word)
    back = word_from_doc(reload(canonical_dumps(doc)))
    assert back == word
    assert ru_word_eval(back) == ru_word_eval(word)
    assert validate_word(tmp_path, capsys, doc) == (0, {"command": "validate", "kind": "word", "letters": 1, "ok": True})


@pytest.mark.parametrize(
    "group, rows, lagrangian, reason",
    [
        (AbGroup(0, (2,)), [[0]], [], "split target has free rank < 2"),
        (AbGroup(2, (2,)), [[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[1, 1, 0]],
         "split target does not start with a hyperbolic pair"),
    ],
    ids=["rank-below-two", "no-hyperbolic-pair"],
)
def test_flip_letter_with_a_non_split_target_names_the_letter(tmp_path, capsys, group, rows, lagrangian, reason):
    """``validate`` refuses the word with exit 4, naming the letter; the word's lagrangian is a lagrangian."""
    e = EQForm(group, IntMatrix.from_rows(rows), GroupHom.zero(group, ZERO_GROUP))
    word = RUWord(e, SubgroupRep.from_elements(group, lagrangian), (Flip(FormIso.identity(e)),))
    message = "generator 0: " + reason
    assert validate_word(tmp_path, capsys, word_to_doc(word)) == (4, {"error": message, "detail": message})


def test_a_word_in_the_layout_with_rest_lagrangians_still_validates(tmp_path, capsys):
    """A Flip letter that carries the lagrangian of its rest group, as words were once written, reads and
    validates: the reader leaves that key unread."""
    h2 = form_to_doc(hyperbolic(1))
    letters = [
        {"letter": "keep", "iso": {"source": h2, "target": h2, "matrix": [[-1, 0], [0, -1]]}},
        {"letter": "flip", "witness": {"source": h2, "target": h2, "matrix": [[1, 0], [0, 1]]},
         "rest_lagrangian": {"generators": []}},
    ]
    doc = {"form": h2, "lagrangian": {"generators": [[0, 1]]}, "letters": letters}
    assert validate_word(tmp_path, capsys, doc) == (0, {"command": "validate", "kind": "word", "letters": 2, "ok": True})


def test_a_keep_only_word_over_a_subgroup_that_is_not_a_lagrangian_is_refused(tmp_path, capsys):
    """The word's lagrangian is checked once, whatever its letters: ⟨a + b⟩ in H₂ is not isotropic."""
    h = hyperbolic(1)
    minus = FormIso(h, h, GroupHom(h.group, h.group, IntMatrix.diagonal([-1, -1])))
    doc = word_to_doc(RUWord(h, SubgroupRep.from_elements(h.group, [[1, 1]]), (Keep(minus),)))
    code, report = validate_word(tmp_path, capsys, doc)
    assert (code, report["error"]) == (4, "not a lagrangian")


# -- canonical layout --------------------------------------------------

H2_OVER_Z = (
    '{\n  "group": {\n    "free_rank": 2,\n    "torsion": []\n  },\n'
    '  "lambda": [\n    [0, 1],\n    [1, 0]\n  ],\n'
    '  "mu": [\n    [0, 0]\n  ],\n'
    '  "target": {\n    "free_rank": 1,\n    "torsion": []\n  },\n'
    '  "v": [0]\n}\n'
)


def test_hyperbolic_document_golden_bytes():
    assert canonical_dumps(form_to_doc(hyperbolic(1, Z, VZ))) == H2_OVER_Z
    # parse -> serialize is the identity on canonical text
    assert canonical_dumps(reload(H2_OVER_Z)) == H2_OVER_Z


def test_unsorted_keys_are_canonicalized():
    scrambled = '{"torsion": [], "free_rank": 2}'
    assert canonical_dumps(reload(scrambled)) == '{\n  "free_rank": 2,\n  "torsion": []\n}\n'


def test_torsion_document_with_witness_subgroups_round_trips():
    g = AbGroup(2, (3,))
    lam = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    mu = GroupHom(g, Z, IntMatrix.from_rows([[1, 0, 0]], 3))
    e = EQForm(g, lam, mu, VZ)
    doc = {
        "form": form_to_doc(e),
        "lagrangian": subgroup_to_doc(SubgroupRep.from_elements(g, [[0, 1, 0]])),
        "perp": subgroup_to_doc(SubgroupRep.from_elements(g, [[0, 1, 0], [0, 0, 1]])),
    }
    text = canonical_dumps(doc)
    assert canonical_dumps(reload(text)) == text
    inner = reload(text)
    assert form_from_doc(inner["form"]) == e


# -- integer width policy ----------------------------------------------


def test_large_integers_become_decimal_strings():
    big = 1 << 60
    text = canonical_dumps({"x": big, "y": -big, "z": 7})
    assert '"1152921504606846976"' in text
    assert '"-1152921504606846976"' in text
    assert '"z": 7' in text


def test_boundary_integer_stays_numeric():
    text = canonical_dumps({"x": (1 << 53) - 1})
    assert '"x": 9007199254740991' in text
    assert '"x": "' not in text


def test_huge_matrix_entry_survives_a_round_trip():
    g = free_group(2)
    n = 3 ** 64
    e = EQForm(g, IntMatrix.from_rows([[0, n], [n, 0]]), GroupHom.zero(g, ZERO_GROUP), None)
    back = form_from_doc(reload(canonical_dumps(form_to_doc(e))))
    assert back == e
    assert back.matrix.entries[0][1] == n


# -- rejection paths ---------------------------------------------------


def test_floats_are_rejected_on_load():
    with pytest.raises(SchemaError, match="floating point"):
        loads_document('{"x": 1.5}')
    with pytest.raises(SchemaError, match="floating point"):
        loads_document('{"x": NaN}')


def test_floats_are_rejected_on_dump():
    with pytest.raises(SchemaError):
        canonical_dumps({"x": 1.5})


def test_invalid_json_names_the_problem():
    with pytest.raises(SchemaError, match="not valid JSON"):
        loads_document("{")


def test_missing_field_paths():
    with pytest.raises(SchemaError, match="form.mu"):
        form_from_doc({"group": group_to_doc(Z), "lambda": [[0]], "target": group_to_doc(Z)})
    with pytest.raises(SchemaError, match=r"form.lambda\[0\]"):
        form_from_doc(
            {
                "group": group_to_doc(free_group(2)),
                "lambda": [[0], [0]],
                "target": group_to_doc(ZERO_GROUP),
                "mu": [],
            }
        )


def test_wrong_shapes_are_schema_errors():
    with pytest.raises(SchemaError, match="expected an object"):
        form_from_doc([1, 2, 3])
    with pytest.raises(SchemaError, match="expected an integer"):
        group_from_doc({"free_rank": True, "torsion": []})
    with pytest.raises(SchemaError, match="torsion"):
        group_from_doc({"free_rank": 1, "torsion": [1]})


def test_inconsistent_objects_fail_with_library_errors():
    # parses fine, but the pairing is not symmetric
    doc = {
        "group": group_to_doc(free_group(2)),
        "lambda": [[0, 1], [2, 0]],
        "target": group_to_doc(ZERO_GROUP),
        "mu": [],
    }
    with pytest.raises(NotWellDefined):
        form_from_doc(doc)


def test_decimal_string_integers_are_accepted_on_load():
    doc = {"free_rank": "2", "torsion": []}
    assert group_from_doc(doc) == free_group(2)


def plane_doc(rows):
    """A document of a form on Z^2 over the zero group with pairing ``rows``."""
    return {"group": group_to_doc(free_group(2)), "lambda": rows, "target": group_to_doc(ZERO_GROUP), "mu": []}


def test_decimal_string_matrix_entries_are_accepted_at_any_size():
    huge = "1" + "0" * 5000
    form = form_from_doc(plane_doc([["0", -3], ["-3", "0"]]))
    assert form.matrix.entries == ((0, -3), (-3, 0))
    form = form_from_doc(plane_doc([[0, huge], [huge, 0]]))
    assert form.matrix.entries == ((0, 10**5000), (10**5000, 0))


@pytest.mark.parametrize(
    "row,message",
    [
        ([0, True], "form.lambda[1][1]: expected an integer"),
        ([1, "2", "x", False], "form.lambda[1][2]: expected an integer or a decimal string"),
        ([False, "x"], "form.lambda[1][0]: expected an integer"),
        (["-4", 5, None, 6], "form.lambda[1][2]: expected an integer or a decimal string"),
    ],
    ids=["true", "bad-string-after-ints", "false-first", "null-in-mixed-row"],
)
def test_bad_matrix_entries_report_the_first_bad_index(row, message):
    with pytest.raises(SchemaError) as err:
        form_from_doc(plane_doc([[0, 1], row]))
    assert str(err.value) == message


def h2_doc(one=1):
    """The document of H_2 over the zero group, with ``one`` in place of its upper off-diagonal 1."""
    return plane_doc([[0, one], [1, 0]])


def rank_zero_doc(mu):
    """A form on the zero group over Z, with μ's rows ``mu``."""
    return {"group": group_to_doc(ZERO_GROUP), "lambda": [], "target": group_to_doc(Z), "mu": mu}


def read_or_error(read):
    """What a reader gives: the matrices of the form, iso or subgroup it read, or its error's text and path."""
    try:
        got = read()
    except SchemaError as exc:
        return str(exc), exc.path
    if isinstance(got, EQForm):
        return [list(r) for r in got.matrix.entries], [list(r) for r in got.mu.matrix.entries]
    if isinstance(got, SubgroupRep):
        return [list(g) for g in got.generators()]
    return [list(r) for r in got.hom.matrix.entries]


def error_at(path, message):
    return "%s: %s" % (path, message), path


@pytest.mark.parametrize(
    "read, expected",
    [
        (lambda: form_from_doc(plane_doc([[True, 1], [1, 0]])), error_at("form.lambda[0][0]", "expected an integer")),
        (lambda: form_from_doc(plane_doc([[0, "1"], ["1", "-0"]])), ([[0, 1], [1, 0]], [])),
        (lambda: form_from_doc(plane_doc([[0, 1], [1]])), error_at("form.lambda[1]", "expected 2 entries")),
        (lambda: form_from_doc(plane_doc([[0, 1, 0], [1, 0]])), error_at("form.lambda[0]", "expected 2 entries")),
        (lambda: form_from_doc(plane_doc([[0, 1], 5])), error_at("form.lambda[1]", "expected a list")),
        (lambda: form_from_doc(plane_doc([{"0": 0}, [1, 0]])), error_at("form.lambda[0]", "expected a list")),
        (lambda: form_from_doc(plane_doc({"rows": []})), error_at("form.lambda", "expected a list of rows")),
        (lambda: form_from_doc(plane_doc([])), error_at("form.lambda", "expected 2 rows")),
        (lambda: form_from_doc(rank_zero_doc([[]])), ([], [[]])),
        (lambda: iso_from_doc({"source": rank_zero_doc([[]]), "target": rank_zero_doc([[]]), "matrix": []}), []),
        (lambda: form_from_doc(plane_doc([[], []])), error_at("form.lambda[0]", "expected 2 entries")),
        (lambda: form_from_doc(rank_zero_doc([[], []])), error_at("form.mu", "expected 1 rows")),
        (lambda: form_from_doc(rank_zero_doc([[0]])), error_at("form.mu[0]", "expected 0 entries")),
        (lambda: subgroup_from_doc({"generators": [[1, 0], [0, 2]]}, free_group(2)), [[1, 0], [0, 2]]),
        (lambda: subgroup_from_doc({"generators": [[1, 0], [0, False]]}, free_group(2)),
         error_at("subgroup.generators[1][1]", "expected an integer")),
        # equal to the source dict, which the reader has just decoded, but true is no integer
        (lambda: iso_from_doc({"source": h2_doc(), "target": h2_doc(True), "matrix": [[1, 0], [0, 1]]}),
         error_at("iso.target.lambda[0][1]", "expected an integer")),
        (lambda: iso_from_doc({"source": h2_doc(), "target": h2_doc("1"), "matrix": [[0, 1], [1, 0]]}),
         [[0, 1], [1, 0]]),
        (lambda: iso_from_doc({"source": h2_doc(), "target": h2_doc(), "matrix": [[1, 0], [0, True]]}),
         error_at("iso.matrix[1][1]", "expected an integer")),
    ],
    ids=[
        "true", "decimal-strings", "short-row", "long-row", "row-not-a-list", "row-a-dict", "rows-not-a-list",
        "empty", "width-zero", "empty-iso", "empty-rows", "width-zero-extra-row", "width-zero-long-row",
        "subgroup", "subgroup-false", "true-copy-of-a-read-form", "string-copy-of-a-read-form", "iso-true",
    ],
)
def test_matrix_readers_give_each_result_and_error_of_the_row_by_row_reader(read, expected):
    """Matrices read by one flat scan or row by row give the same rows, and the same error at the same path."""
    assert read_or_error(read) == expected


@pytest.mark.parametrize(
    "text", ["²", "-²", "١٢", "１"], ids=["superscript", "negative-superscript", "arabic-indic", "fullwidth"]
)
def test_non_ascii_digit_strings_are_schema_errors(text):
    with pytest.raises(SchemaError, match=r"^input\.free_rank: "):
        group_from_doc({"free_rank": text, "torsion": []}, "input")


def test_validate_rejects_a_superscript_rank_with_exit_2(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text('{"free_rank": "\\u00b2", "torsion": []}\n')
    code = cli.run(["validate", "--input", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["path"] == "input.free_rank"


def test_loads_document_rejects_deep_nesting():
    with pytest.raises(SchemaError, match="nested too deeply"):
        loads_document("[" * 100000 + "]" * 100000)


@pytest.mark.parametrize(
    "text, strict",
    [
        ("[" * 100000 + "]" * 100000, False),
        ("[" * 900 + "]" * 900, True),
        ('{"a": 1, "b": 2, "command": "si", "x": ' + "[" * 950 + "]" * 950 + "}", False),
    ],
    ids=["past-the-parser", "strict-re-serialization", "stored-result-comparison"],
)
def test_validate_rejects_deep_nesting_with_exit_2(tmp_path, capsys, text, strict):
    path = tmp_path / "deep.json"
    path.write_text(text + "\n")
    code = cli.run(["validate", "--input", str(path)] + (["--strict"] if strict else []))
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc == {"error": ": document nested too deeply", "path": ""}


def test_validate_rejects_a_non_string_command_with_exit_2(tmp_path, capsys):
    path = tmp_path / "command.json"
    path.write_text('{"command": []}\n')
    code = cli.run(["validate", "--input", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["path"] == "input.command"


# -- the one-pass encoder against the json module ------------------------

SAFE = 2**53


def is_row_entry(value):
    """A JSON integer, or the decimal string that stands for one of 2**53 or more."""
    if isinstance(value, str):
        return re.fullmatch("-?[1-9][0-9]*", value, re.ASCII) is not None and abs(int(value)) >= SAFE
    return isinstance(value, int) and not isinstance(value, bool)


def reference_dumps(doc):
    """The canonical bytes by the json module's own encoder.

    Every row (a nonempty list of integers) is swapped for a placeholder
    string, the document is written by ``json.dumps(indent=2)``, and each
    quoted placeholder is then replaced by its row on one line.
    """
    rows = []
    plain = json.dumps(doc)
    tag = "@"
    while tag in plain:  # no string of the document holds the tag
        tag += "@"

    def encode(value):
        if isinstance(value, bool) or value is None or isinstance(value, str):
            return value
        if isinstance(value, int):
            return str(value) if abs(value) >= SAFE else value
        if isinstance(value, dict):
            return {k: encode(v) for k, v in value.items()}
        items = [encode(v) for v in value]
        if items and all(map(is_row_entry, items)):
            rows.append("[" + ", ".join(json.dumps(v) for v in items) + "]")
            return "%s%d" % (tag, len(rows) - 1)
        return items

    text = json.dumps(encode(doc), sort_keys=True, indent=2) + "\n"
    return re.sub('"%s([0-9]+)"' % tag, lambda m: rows[int(m.group(1))], text)


boundary = st.sampled_from([SAFE - 1, SAFE, SAFE + 1, -(SAFE - 1), -SAFE, -(SAFE + 1), 0, 2**64])
integers = st.one_of(st.integers(-9, 9), st.integers(), boundary)
strings = st.one_of(st.text(), st.text(alphabet="\x00\x1f\x7f\"\\/é\u2028☃\U0001f600 a"))
# strings that spell integers: those of 2**53 or more read back into a row, the others do not
decimals = st.one_of(boundary.map(str), st.sampled_from(["0" + str(SAFE), "+" + str(SAFE), "-0", "１" * 17]))
scalars = st.one_of(st.none(), st.booleans(), integers, strings, decimals)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.lists(integers, max_size=6),
        st.dictionaries(strings, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(documents)
# repeated rows: one row at two depths, ints beside bools in both orders (no row),
# a row past 53 bits written twice and read back, and a tuple beside an equal list
@example({"a": [1, 2], "b": [[1, 2], {"c": [1, 2]}]})
@example([[1, 0], [True, False], [1, 0]])
@example([[True, False], [1, 0], [True, False]])
@example([1, True, 0])
@example([[1, SAFE], [1, SAFE], {"x": [1, SAFE]}])
@example([[1, SAFE], [1, str(SAFE)], [str(-SAFE)], [1, str(SAFE - 1)], [1, "0" + str(SAFE)], ["+" + str(SAFE)]])
@example([(1, 2), [1, 2], (1, 2)])
@example({"row": (3, -4), "empty": [], "list": [[]]})
def test_encoder_matches_the_json_module(doc):
    text = canonical_dumps(doc)
    assert text == reference_dumps(doc)
    # canonical text reads back to a document that encodes to itself
    assert canonical_dumps(loads_document(text)) == text


@pytest.mark.parametrize(
    "doc",
    [1.5, {"x": [1, 2.0]}, [{1, 2}], {"x": b"bytes"}, [object()], {1: 2}, {"a": 1, 2: 3}],
    ids=["float", "nested-float", "set", "bytes", "object", "integer-key", "mixed-keys"],
)
def test_encoder_refuses_unsupported_values(doc):
    with pytest.raises(SchemaError, match="cannot serialize"):
        canonical_dumps(doc)


@pytest.mark.parametrize(
    "a, b, found",
    [
        ([1, 0], [True, False], "d[0]"),
        ([[1, 2], [3, 4]], [[1, 2], [3, 5]], "d[1][1]"),
        ([str(2**60), 1], [2**60, 1], None),
        ([1, 2], (1, 2), None),
        ([1, 2], [1, 2, 3], "d[2]"),
    ],
    ids=["ints-beside-bools", "one-entry", "decimal-string", "tuple", "longer"],
)
def test_first_difference_of_integer_lists(a, b, found):
    assert first_difference(a, b, "d") == found
    assert first_difference(b, a, "d") == found


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(strings, documents, max_size=3))
@example({"x": [1, 2], "big": [1, SAFE], "inner": {"y": []}})
def test_a_dict_held_in_several_places_encodes_like_its_copies(part):
    # part twice at depth 1, once at depth 2 and once at depth 3; its own dicts are shared with it
    doc = {"a": part, "b": [part, {"c": part}], "d": part}
    assert canonical_dumps(doc) == canonical_dumps(json.loads(json.dumps(doc))) == reference_dumps(doc)


def nested(depth, inner=None):
    """A document ``depth`` containers deep, alternating lists and objects."""
    doc = [] if inner is None else inner
    for level in range(depth - 1):
        doc = {"k": doc} if level % 2 else [doc, 1]
    return doc


@pytest.mark.parametrize("inner", [None, [1, 2]], ids=["empty", "integer-list"])
def test_encoder_depth_limit_boundary(inner):
    assert canonical_dumps(nested(MAX_DEPTH, inner)) == reference_dumps(nested(MAX_DEPTH, inner))
    with pytest.raises(SchemaError, match="nested too deeply"):
        canonical_dumps(nested(MAX_DEPTH + 1, inner))


def test_validate_strict_depth_limit_boundary(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(reference_dumps(nested(MAX_DEPTH)))
    assert cli.run(["validate", "--strict", "--input", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "input: expected an object"
    path.write_text(reference_dumps(nested(MAX_DEPTH + 1)))
    assert cli.run(["validate", "--strict", "--input", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == ": document nested too deeply"


# -- integers past the interpreter's 4300-digit int/str limit ------------

HUGE_TEXT = "-" + "9" * 5000
HUGE = -(10**5000 - 1)


def test_huge_integers_convert_both_ways():
    assert decimal_to_int(HUGE_TEXT) == HUGE
    assert int_to_decimal(HUGE) == HUGE_TEXT
    assert int_to_decimal(10**5000) == "1" + "0" * 5000
    assert decimal_to_int("+" + "0" * 4999 + "7") == 7
    with pytest.raises(ValueError):
        decimal_to_int("9" * 4999 + "x")


def test_huge_integers_are_written_and_loaded():
    text = canonical_dumps({"x": HUGE, "y": [1, 10**5000]})
    assert '"x": "%s"' % HUGE_TEXT in text
    assert loads_document(text) == {"x": HUGE_TEXT, "y": [1, "1" + "0" * 5000]}
    assert loads_document("[%s, 1]" % HUGE_TEXT) == [HUGE, 1]
    group = group_from_doc({"free_rank": 0, "torsion": ["1" + "0" * 5000]})
    assert group.torsion == (10**5000,)


# -- the sharing scan of large texts -------------------------------------
#
# loads_document reads a text of 64 KiB or more by a scan that decodes each
# verbatim copy of an object text once.  Its value and every error must be
# those of json.loads; these tests drive it also on small texts and objects
# by lowering its private thresholds.

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def triple_a():
    """The canonical text of the certificate jacobi writes for the benchmark's triple A (41 moves at rank 30)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import gen

        return canonical_dumps(cli.COMMANDS["jacobi"].build(gen.geometric_double_request("A").doc)["sequence"])


def typed(value):
    """The value with each leaf paired with its type (so that true and 1 differ) and each object's keys in order."""
    if type(value) is dict:
        return [(key, typed(item)) for key, item in value.items()]
    if type(value) is list:
        return value if set(map(type, value)) <= {int} else [typed(item) for item in value]
    return type(value), value


def load_outcome(text):
    try:
        return typed(loads_document(text))
    except SchemaError as exc:
        return "SchemaError", str(exc), exc.path


def both_outcomes(text, share_object=None):
    """What loads_document makes of text by the sharing scan, and by json.loads.

    The scan reads every text here, and walks every container longer than
    ``share_object`` characters when that is given.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "_SHARE_TEXT", 0)
        if share_object is not None:
            mp.setattr(serialize, "_SHARE_OBJECT", share_object)
        shared = load_outcome(text)
        mp.setattr(serialize, "_SHARE_TEXT", math.inf)
        return shared, load_outcome(text)


EDIT_CHARS = '{}[],:"\\ \n0123456789-.eEtrufalsnNIy\x00\x1f\ufeff'


def edited(text, edit, at, char):
    """text with one character replaced, deleted or inserted at ``at`` (taken modulo its length)."""
    i = at % (len(text) + 1)
    return {
        "keep": text,
        "replace": text[:i] + char + text[i + 1 :],
        "delete": text[:i] + text[i + 1 :],
        "insert": text[:i] + char + text[i:],
    }[edit]


@settings(max_examples=200, deadline=None)
@given(
    documents,
    st.sampled_from([None, 0, 2]),
    st.booleans(),
    st.sampled_from(["keep", "replace", "delete", "insert"]),
    st.integers(min_value=0),
    st.sampled_from(EDIT_CHARS),
    st.sampled_from([1, 16, 256]),
)
@example({"k": [1, {"x": "y"}]}, None, True, "keep", 0, "{", 1)
@example({"k": [1, {"x": "y"}]}, 2, True, "delete", 40, "{", 1)
@example({"k": [1, {"x": "y"}]}, None, True, "replace", 7, "\x00", 16)
def test_the_sharing_scan_reads_every_text_as_json_loads_does(doc, indent, only_ascii, edit, at, char, share_object):
    # the part three times at three depths, and twice at one depth, so that the text holds verbatim
    # copies of each of its objects, then one edit, which may break the JSON or change one copy; the
    # scan walks every container, those past 16 characters, or those past 256
    copies = {"a": doc, "b": [doc, {"c": doc}], "d": [{"e": doc}, doc]}
    text = json.dumps(copies, indent=indent, ensure_ascii=only_ascii)
    shared, plain = both_outcomes(edited(text, edit, at, char), share_object)
    assert shared == plain


def test_single_character_edits_of_a_certificate_read_as_json_loads_does(triple_a):
    # the start, end and first three moves of the certificate, which copy its forms and an isomorphism
    doc = json.loads(triple_a)
    text = canonical_dumps({"start": doc["start"], "end": doc["end"], "moves": doc["moves"][:3]})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "_SHARE_TEXT", 0)
        moves = loads_document(text)["moves"]
    assert moves[1]["witness"]["source"] is moves[2]["iso"]["source"]
    rng = random.Random(32)
    kinds = Counter()
    for _ in range(400):
        shared, plain = both_outcomes(
            edited(text, rng.choice(["replace", "delete", "insert"]), rng.randrange(len(text)), rng.choice(EDIT_CHARS))
        )
        assert shared == plain
        kinds[shared[0] == "SchemaError"] += 1
    assert kinds[True] > 100 and kinds[False] > 50, kinds


def large_text():
    """A canonical text of 64 KiB or more, 200 copies of one object of over 256 characters at one depth."""
    part = {"name": "part", "rows": [list(range(i, i + 30)) for i in range(5)]}
    text = canonical_dumps({"head": part, "items": [part] * 200, "tail": {"x": [part, part]}})
    assert len(text) >= serialize._SHARE_TEXT and len(canonical_dumps(part)) > serialize._SHARE_OBJECT
    return text


def one_copy(text, old, new):
    """text with ``old`` replaced by ``new`` in its 100th occurrence alone."""
    at = -1
    for _ in range(100):
        at = text.index(old, at + 1)
    return text[:at] + new + text[at + len(old) :]


LARGE = large_text()
DEEP_LISTS = "[" * 100000 + "]" * 100000
DEEP_OBJECTS = '{"kkkkkkkkkk": ' * 5000 + "1" + "}" * 5000


@pytest.mark.parametrize(
    "text, error",
    [
        (LARGE, None),
        ("\ufeff" + LARGE, ": not valid JSON: Unexpected UTF-8 BOM"),
        (LARGE + "x", ": not valid JSON: Extra data"),
        (LARGE.replace('"part"', "NaN"), ": floating point numbers are not allowed: NaN"),
        (one_copy(LARGE, '"part"', "Infinity"), ": floating point numbers are not allowed: Infinity"),
        (one_copy(LARGE, '"part"', "-Infinity"), ": floating point numbers are not allowed: -Infinity"),
        (one_copy(LARGE, '"part"', "1.5"), ": floating point numbers are not allowed: 1.5"),
        (one_copy(LARGE, '"part"', HUGE_TEXT), None),
        (LARGE.replace('"part"', HUGE_TEXT), None),
        (LARGE.replace('"name": "part"', '"name": "part", "name": 7'), None),
        (one_copy(LARGE, '"part"', '"pa\x01rt"'), ": not valid JSON: Invalid control character"),
        (one_copy(LARGE, '"part"', DEEP_LISTS), ": document nested too deeply"),
        (DEEP_LISTS, ": document nested too deeply"),
        (DEEP_OBJECTS, ": document nested too deeply"),
    ],
    ids=[
        "plain", "bom", "trailing-data", "nan", "infinity", "minus-infinity", "float", "huge-integer-in-one-copy",
        "huge-integer-in-every-copy", "duplicate-keys", "control-character", "deep-list-in-one-copy", "deep-lists",
        "deep-objects",
    ],
)
def test_large_texts_read_as_json_loads_reads_them(text, error):
    assert len(text) >= serialize._SHARE_TEXT
    shared, plain = both_outcomes(text)
    assert shared == plain
    if error is None:
        assert shared[0] != "SchemaError"
    else:
        assert shared[0] == "SchemaError" and shared[1].startswith(error) and shared[2] == ""


def test_copies_of_a_large_object_text_are_one_dict():
    # the copies at each depth are one dict; a copy at another depth is indented otherwise
    doc = loads_document(LARGE)
    first, tail = doc["items"][0], doc["tail"]["x"]
    assert all(item is first for item in doc["items"]) and tail[1] is tail[0]
    assert doc["head"] == first == tail[0] and doc["head"] is not first and tail[0] is not first
    # a copy that differs in one character is its own dict
    items = loads_document(one_copy(LARGE, "[4, 5, 6", "[4, 5, 7"))["items"]
    assert items[98]["rows"][4][2] == 7 and sum(item is items[0] for item in items) == 199


def test_a_certificate_read_from_its_text_checks_each_distinct_text_once(triple_a, monkeypatch):
    """Read from its text, each copy of one of the certificate's 10 isomorphism texts is one dict, read once.

    FormIso's constructor runs once per isomorphism value, and the leaf-type scan ``_plain`` runs once:
    on the form text at the isomorphisms' depth that equals the start's form text at its own.  The same
    document read by json.loads, a tree, runs it on every later copy of a value: 82 forms and 31
    isomorphisms.
    """
    counts = Counter()
    plain, check = serialize._plain, FormIso.__post_init__
    inside = []

    def counted(value):
        counts["plain"] += not inside
        inside.append(value)
        try:
            return plain(value)
        finally:
            inside.pop()

    monkeypatch.setattr(serialize, "_plain", counted)
    monkeypatch.setattr(FormIso, "__post_init__", lambda iso: counts.update(["isos"]) or check(iso))
    seq = sequence_from_doc(loads_document(triple_a))
    assert (len(seq.moves), counts) == (41, Counter(isos=10, plain=1))
    counts.clear()
    assert sequence_from_doc(json.loads(triple_a)) == seq
    assert counts == Counter(isos=10, plain=113)
