"""Round-trip and schema tests for the JSON document layer."""

import json

import pytest

from qform import cli
from qform.abelian import AbGroup, GroupHom, SubgroupRep, Z2, ZERO_GROUP, free_group
from qform.construct import ru_wall_witness, ru_word_eval
from qform.errors import NotWellDefined, SchemaError
from qform.forms import EQForm, FormIso, hyperbolic
from qform.intmat import IntMatrix
from qform.lmonoid import MoveSequence, Stab, apply_move, replay, standard_elementary
from qform.serialize import (
    canonical_dumps,
    form_from_doc,
    form_to_doc,
    formation_from_doc,
    formation_to_doc,
    group_from_doc,
    group_to_doc,
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


# -- canonical layout --------------------------------------------------

H2_OVER_Z = (
    '{\n  "group": {\n    "free_rank": 2,\n    "torsion": []\n  },\n'
    '  "lambda": [\n    [\n      0,\n      1\n    ],\n    [\n      1,\n      0\n    ]\n  ],\n'
    '  "mu": [\n    [\n      0,\n      0\n    ]\n  ],\n'
    '  "target": {\n    "free_rank": 1,\n    "torsion": []\n  },\n'
    '  "v": [\n    0\n  ]\n}\n'
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
