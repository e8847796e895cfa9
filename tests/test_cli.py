"""End-to-end tests for the command line interface.

Commands run in-process through ``cli.run`` so the tests can capture the
JSON payload and the exit code without spawning interpreters.
"""

import copy
import dataclasses
import itertools
import json
import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from qform import cli, serialize
from qform.abelian import GroupHom, SubgroupRep, Z2, ZERO_GROUP, free_group
from qform.errors import QformError
from qform.forms import EQForm, FormIso, hyperbolic
from qform.intmat import IntMatrix
from qform.lmonoid import standard_elementary
from qform.serialize import (
    canonical_dumps,
    form_to_doc,
    formation_to_doc,
    group_to_doc,
    iso_to_doc,
    sequence_from_doc,
    subgroup_to_doc,
)

Z = free_group(1)
VZ = GroupHom.zero(Z, Z2)
V0 = GroupHom.zero(ZERO_GROUP, Z2)


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out), out


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(canonical_dumps(doc))
    return str(path)


# -- arithmetic subcommands --------------------------------------------


def test_si_example(capsys):
    code, doc, _ = invoke(capsys, "si", "--a", "1", "--b", "6")
    assert code == 0
    assert doc["size"] == 2
    assert doc["reps"] == [[1, 6], [2, 3]]


def test_stable_class_rank_zero(capsys):
    code, doc, _ = invoke(capsys, "stable-class", "--rkq", "0")
    assert code == 0
    assert doc["Sst"] == 1


def test_stable_class_rank_one_counts(capsys):
    code, doc, _ = invoke(capsys, "stable-class", "--rkq", "1", "--a", "1", "--b", "30")
    assert code == 0
    assert doc["Sst"] == 4


def test_kappa_flags_agree(capsys):
    code, doc, _ = invoke(capsys, "kappa", "--a", "3", "--b", "-1")
    assert code == 0
    assert doc["agree"] is True
    assert doc["kappa"]["mu"] == [[6]]


def test_oracle_si_matches_si(capsys):
    code, brute, _ = invoke(capsys, "oracle-si", "--a", "1", "--b", "30")
    code2, fast, _ = invoke(capsys, "si", "--a", "1", "--b", "30")
    assert code == 0 and code2 == 0
    assert brute["reps"] == fast["reps"] == [[1, 30], [2, 15], [3, 10], [5, 6]]



# a smooth 5000-digit value, past the interpreter's 4300-digit int/str limit
A_TEXT = "1" + "0" * 4999


@pytest.mark.parametrize("command", ["si", "kappa"])
def test_a_5000_digit_flag_computes_and_validates(tmp_path, capsys, command):
    code, doc, text = invoke(capsys, command, "--a", A_TEXT, "--b", "3")
    assert code == 0
    assert doc["a"] == A_TEXT and doc["b"] == 3
    _, small, _ = invoke(capsys, command, "--a", "10", "--b", "3")
    if command == "si":
        assert doc["size"] == small["size"] == 4  # the primes of ab are 2, 3 and 5 either way
        assert [3, A_TEXT] in doc["reps"]
    else:
        assert doc["agree"] is True
    path = tmp_path / "result.json"
    path.write_text(text)
    code, report, _ = invoke(capsys, "validate", "--strict", "--input", str(path))
    assert (code, report["ok"], report["kind"]) == (0, True, command + " result")


# -- validate ----------------------------------------------------------


def test_validate_hyperbolic_document(tmp_path, capsys):
    path = write_doc(tmp_path, "h2.json", form_to_doc(hyperbolic(1, Z, VZ)))
    code, doc, _ = invoke(capsys, "validate", "--input", path, "--strict")
    assert code == 0
    assert doc["kind"] == "form"
    assert doc["free"] and doc["nonsingular"] and doc["even"] and doc["geometric"]
    assert doc["full"] is False


def test_validate_formation_document(tmp_path, capsys):
    path = write_doc(tmp_path, "q.json", formation_to_doc(standard_elementary(1, Z, VZ)))
    code, doc, _ = invoke(capsys, "validate", "--input", path)
    assert code == 0
    assert (doc["kind"], doc["ok"]) == ("formation", True)
    assert doc["elementary"] is True


def test_validate_strict_rejects_noncanonical_bytes(tmp_path, capsys):
    path = tmp_path / "loose.json"
    path.write_text('{"free_rank": 1, "torsion": []}')  # no indent, no newline
    code, doc, _ = invoke(capsys, "validate", "--input", str(path), "--strict")
    assert code == 2
    assert "canonical" in doc["error"]
    code, doc, _ = invoke(capsys, "validate", "--input", str(path))
    assert code == 0  # fine without --strict


def test_validate_replays_sequences_and_reports_failures(tmp_path, capsys):
    from qform.lmonoid import MoveSequence, Stab, apply_move
    from qform.serialize import sequence_to_doc

    q = standard_elementary(1, Z, VZ)
    good = MoveSequence(q, apply_move(q, Stab(1)), (Stab(1),))
    path = write_doc(tmp_path, "seq.json", sequence_to_doc(good))
    code, doc, _ = invoke(capsys, "validate", "--input", path)
    assert code == 0 and doc["kind"] == "sequence" and doc["steps"] == 1

    bad = MoveSequence(q, q, (Stab(1),))  # wrong declared end
    path = write_doc(tmp_path, "bad.json", sequence_to_doc(bad))
    code, doc, _ = invoke(capsys, "validate", "--input", path)
    assert code == 2
    assert doc["ok"] is False
    assert "differs" in doc["reason"]


def test_validate_recomputes_command_results(tmp_path, capsys):
    h2 = hyperbolic(1, ZERO_GROUP, V0)
    l = SubgroupRep.from_elements(h2.group, [[0, 1]])
    pair = write_doc(tmp_path, "in.json", {"form": form_to_doc(h2), "subgroup": subgroup_to_doc(l)})
    out = str(tmp_path / "perp.json")
    code, doc, _ = invoke(capsys, "perp", "--input", pair, "--output", out)
    assert code == 0
    assert doc["perp"]["generators"] == [[0, 1]]
    code, doc, _ = invoke(capsys, "validate", "--input", out, "--strict")
    assert code == 0 and doc["ok"] is True

    tampered = json.loads(open(out).read())
    tampered["perp"]["generators"] = [[1, 0]]
    bad = write_doc(tmp_path, "tampered.json", tampered)
    code, doc, _ = invoke(capsys, "validate", "--input", bad)
    assert code == 2 and doc["ok"] is False
    assert doc["reason"] == "stored results differ from recomputation"
    assert doc["path"] == "input.perp.generators[0][0]"

    # a key the recomputation lacks, a list item past the shorter list, a key it has that the document lacks
    for edit, path in [
        (lambda d: d.update(extra=1), "input.extra"),
        (lambda d: d["perp"]["generators"].append([0, 2]), "input.perp.generators[1]"),
        (lambda d: d.pop("perp"), "input.perp"),
    ]:
        tampered = json.loads(open(out).read())
        edit(tampered)
        code, doc, _ = invoke(capsys, "validate", "--input", write_doc(tmp_path, "tampered.json", tampered))
        assert (code, doc["ok"], doc["path"]) == (2, False, path)


# -- witness pipelines -------------------------------------------------


def test_ru_wall_pipeline(tmp_path, capsys):
    h2 = hyperbolic(1, ZERO_GROUP, V0)
    phi = FormIso(h2, h2, GroupHom(h2.group, h2.group, IntMatrix.from_rows([[0, 1], [1, 0]])))
    path = write_doc(
        tmp_path,
        "rw.json",
        {
            "form": form_to_doc(h2),
            "lagrangian": subgroup_to_doc(SubgroupRep.from_elements(h2.group, [[0, 1]])),
            "iso": iso_to_doc(phi),
        },
    )
    out = str(tmp_path / "rw_out.json")
    code, doc, text = invoke(capsys, "ru-wall", "--input", path, "--output", out)
    assert code == 0
    assert open(out).read() == text
    assert doc["ambient"]["group"]["free_rank"] == 6
    code, doc, _ = invoke(capsys, "validate", "--input", out)
    assert code == 0 and doc["ok"] is True


def test_stable_iso_between_different_metabolic_forms(tmp_path, capsys):
    h2 = hyperbolic(1, ZERO_GROUP, V0)
    g = free_group(2)
    other = EQForm(g, IntMatrix.from_rows([[2, 1], [1, 0]]), GroupHom.zero(g, ZERO_GROUP), V0)
    path = write_doc(
        tmp_path,
        "si.json",
        {
            "source": {
                "form": form_to_doc(h2),
                "lagrangian": subgroup_to_doc(SubgroupRep.from_elements(h2.group, [[0, 1]])),
            },
            "target": {
                "form": form_to_doc(other),
                "lagrangian": subgroup_to_doc(SubgroupRep.from_elements(g, [[0, 1]])),
            },
        },
    )
    out = str(tmp_path / "si_out.json")
    code, doc, _ = invoke(capsys, "stable-iso", "--input", path, "--output", out)
    assert code == 0
    assert doc["iso"]["matrix"]  # a concrete witness is embedded
    code, doc, _ = invoke(capsys, "validate", "--input", out)
    assert code == 0 and doc["ok"] is True


def test_bar_and_ltriv_results_revalidate(tmp_path, capsys):
    q = standard_elementary(1, Z, VZ)
    path = write_doc(tmp_path, "q.json", formation_to_doc(q))
    for cmd in ("bar", "elementary", "ltriv"):
        out = str(tmp_path / (cmd + ".json"))
        code, _, _ = invoke(capsys, cmd, "--input", path, "--output", out)
        assert code == 0
        code, doc, _ = invoke(capsys, "validate", "--input", out)
        assert code == 0 and doc["ok"] is True, cmd


def test_zero_form_command(tmp_path, capsys):
    path = write_doc(tmp_path, "zf.json", {"group": group_to_doc(Z), "v": [0]})
    code, doc, _ = invoke(capsys, "zero-form", "--input", path)
    assert code == 0
    assert doc["formation"]["form"]["group"]["free_rank"] == 2


def test_oracle_lagrangians_and_iso(tmp_path, capsys):
    h2 = hyperbolic(1, ZERO_GROUP, V0)
    path = write_doc(tmp_path, "h2.json", form_to_doc(h2))
    code, doc, _ = invoke(capsys, "oracle-lagrangians", "--input", path, "--entry-bound", "2")
    assert code == 0
    assert doc["count"] == 2
    assert doc["lagrangians"] == [{"generators": [[0, 1]]}, {"generators": [[1, 0]]}]

    pair = write_doc(tmp_path, "pair.json", {"source": form_to_doc(h2), "target": form_to_doc(h2)})
    out = str(tmp_path / "iso.json")
    code, doc, _ = invoke(capsys, "oracle-iso", "--input", pair, "--output", out)
    assert code == 0
    assert doc["found"] and doc["exhaustive"]
    # with mu = 0 nothing pins the columns, and the swap precedes the
    # identity in candidate order
    assert doc["iso"]["matrix"] == [[0, 1], [1, 0]]
    code, doc, _ = invoke(capsys, "validate", "--input", out)
    assert code == 0 and doc["ok"] is True


# -- validate refuses tampered move sequences ---------------------------
#
# Two sequences: the benchmark's coverage sequence (stab, destab, flip and
# iso on H_2) and the certificate jacobi writes for the benchmark's triple
# A (41 iso and flip moves at ambient rank 30).  A dropped or swapped move
# must fail at the first move whose check sees the change, and a changed
# matrix entry must be refused with the move it sits in.

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def sequences():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import gen

        triple_a = cli.COMMANDS["jacobi"].build(gen.geometric_double_request("A").doc)
        return {"coverage": gen.moves_request().doc, "triple-A": json.loads(canonical_dumps(triple_a["sequence"]))}


def validate_sequence(tmp_path, capsys, doc):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(doc))
    code = cli.run(["validate", "--input", str(path)])
    return code, json.loads(capsys.readouterr().out)


def changes_form(move):
    """Whether the move ends at another form than it starts from."""
    if move["move"] == "iso":
        return move["iso"]["source"] != move["iso"]["target"]
    return move["move"] != "flip" and move["pairs"] > 0


def fails_at_once(moves, i):
    """Whether moving move i+1 into slot i must fail there.

    Move i+1 starts at the form move i ends at; every kind but stab checks
    that it starts at the current form.
    """
    return changes_form(moves[i]) and i + 1 < len(moves) and moves[i + 1]["move"] != "stab"


def assert_refused_from(report, moves, i):
    assert report["ok"] is False, report
    if fails_at_once(moves, i):
        assert report["failed_index"] == i, report
    else:
        # a move that keeps the form is missed only by a later check
        assert report["failed_index"] is None or report["failed_index"] >= i, report


@pytest.mark.parametrize(
    "name,i", [("coverage", i) for i in range(4)] + [("triple-A", i) for i in (0, 1, 2, 20, 40)]
)
def test_validate_refuses_a_dropped_move(tmp_path, capsys, sequences, name, i):
    doc = copy.deepcopy(sequences[name])
    del doc["moves"][i]
    code, report = validate_sequence(tmp_path, capsys, doc)
    assert code == 2
    assert_refused_from(report, sequences[name]["moves"], i)


@pytest.mark.parametrize("name,i", [("coverage", i) for i in range(3)] + [("triple-A", i) for i in (2, 10, 20, 38)])
def test_validate_refuses_two_swapped_moves(tmp_path, capsys, sequences, name, i):
    moves = sequences[name]["moves"]
    # two moves that both keep the form may commute; each triple-A swap here brings a flip forward to
    # right after the flip before it, where the lagrangian does not split, so it fails there
    assert name == "coverage" or (moves[i]["move"], moves[i - 1]["move"], moves[i + 1]["move"]) == ("iso", "flip", "flip")
    doc = copy.deepcopy(sequences[name])
    doc["moves"][i : i + 2] = doc["moves"][i + 1], doc["moves"][i]
    code, report = validate_sequence(tmp_path, capsys, doc)
    assert code == 2
    assert_refused_from(report, moves, i)
    assert name == "coverage" or report["failed_index"] == i, report


@pytest.mark.parametrize(
    "name,i,field",
    [("coverage", 1, "witness"), ("coverage", 2, "witness"), ("coverage", 3, "iso"), ("triple-A", 2, "iso"),
     ("triple-A", 1, "witness")],
)
def test_validate_refuses_a_changed_matrix_entry(tmp_path, capsys, sequences, name, i, field):
    # stab moves carry no matrix
    doc = copy.deepcopy(sequences[name])
    doc["moves"][i][field]["matrix"][0][1] += 1
    code, report = validate_sequence(tmp_path, capsys, doc)
    assert code == 2
    if "failed_index" in report:
        assert report["failed_index"] == i, report
        return
    # refused while reading: the moves up to this one raise the reported error
    with pytest.raises(QformError) as err:
        sequence_from_doc(dict(doc, moves=doc["moves"][: i + 1]), "input")
    assert report["error"] in (str(err.value), getattr(err.value, "condition", None)), report
    assert report.get("path", "input.moves[%d]" % i).startswith("input.moves[%d]" % i), report


@pytest.mark.parametrize(
    "name,keys,value,code,path",
    [
        ("triple-A", ("moves", 2, "iso", "matrix", 0, 1), 7, 2, "input.moves[2].iso"),
        ("coverage", ("moves", 1, "rest", "L", "generators"), [[1, 1]], 4, "input.moves[1].rest"),
        ("coverage", ("start", "L", "generators"), [[1, 1]], 4, "input.start"),
        # one copy of a form value the reader has seen before, and the first copy, which it reads first;
        # true == 1 in Python, so a copy holding true where the others hold 1 still equals them
        ("triple-A", ("moves", 2, "iso", "source", "lambda", 0, 0), 2, 2, "input.moves[2].iso"),
        ("triple-A", ("start", "form", "lambda", 0, 0), 2, 4, "input.start"),
        ("triple-A", ("moves", 2, "iso", "source", "lambda", 0, 1), True, 2, "input.moves[2].iso.source.lambda[0][1]"),
        ("triple-A", ("start", "form", "lambda", 0, 1), True, 2, "input.start.form.lambda[0][1]"),
    ],
    ids=["iso-entry", "destab-rest", "start", "later-form-copy", "first-form-copy", "later-form-bool", "first-form-bool"],
)
def test_a_semantic_read_error_names_the_object_that_failed(tmp_path, capsys, sequences, name, keys, value, code, path):
    doc = json.loads(json.dumps(sequences[name]))  # a deep copy would keep the generator's shared objects
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    got, report = validate_sequence(tmp_path, capsys, doc)
    assert (got, report["path"]) == (code, path), report
    assert "failed_index" not in report


# -- exit codes and diagnostics ----------------------------------------


def test_exit_2_on_schema_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"lambda": [[0, 1], [1, 0]]}\n')
    code, doc, _ = invoke(capsys, "invariants", "--input", str(path))
    assert code == 2
    assert doc["path"] == "input.group"


def test_exit_3_when_budget_runs_out(tmp_path, capsys):
    path = write_doc(tmp_path, "h2.json", form_to_doc(hyperbolic(1, ZERO_GROUP, V0)))
    code, doc, _ = invoke(capsys, "oracle-lagrangians", "--input", path, "--node-limit", "1")
    assert code == 3
    assert "node" in doc["error"]


# two 20-digit primes: rho needs about 10^10 steps to split their product
HARD_PRODUCT = str(10000000000000000051 * 30000000000000000041)


@pytest.mark.parametrize("argv", [["si", "--a", "1"], ["stable-class", "--rkq", "1", "--a", "1"]])
def test_factoring_exits_3_past_the_node_limit(capsys, monkeypatch, argv):
    t0 = time.monotonic()
    code, doc, _ = invoke(capsys, *argv, "--b", HARD_PRODUCT, "--node-limit", "10")
    assert time.monotonic() - t0 < 0.5
    assert code == 3 and "node" in doc["error"]
    # without the flag the environment gives the limit; the flag beats it
    monkeypatch.setenv("QFORM_NODE_LIMIT", "1")
    code, _, _ = invoke(capsys, *argv, "--b", str(10000019 * 10000079))
    assert code == 3
    code, doc, _ = invoke(capsys, *argv, "--b", str(10000019 * 10000079), "--node-limit", "1000")
    assert code == 0
    assert "budget" not in doc


def test_si_on_a_high_power_of_a_prime_above_the_table(capsys):
    # 4,200 digits, under the parser's limit; trial division below 1000 misses 1009
    t0 = time.monotonic()
    code, doc, _ = invoke(capsys, "si", "--a", "1", "--b", str(1009**1400))
    assert time.monotonic() - t0 < 2.0
    assert code == 0 and doc["size"] == 1


def test_validate_recomputes_si_with_the_default_node_limit(tmp_path, capsys, monkeypatch):
    code, _, text = invoke(capsys, "si", "--a", "1", "--b", str(10000019 * 10000079))
    assert code == 0
    path = tmp_path / "si.json"
    path.write_text(text)
    monkeypatch.setenv("QFORM_NODE_LIMIT", "1")
    code, report, _ = invoke(capsys, "validate", "--input", str(path))
    assert (code, report["ok"]) == (0, True)


def test_exit_4_names_the_failing_hypothesis(capsys):
    code, doc, _ = invoke(capsys, "stable-class", "--rkq", "1", "--a", "2", "--b", "4")
    assert code == 4
    assert doc["error"] == "pair is not coprime"


@pytest.mark.parametrize(
    "target,matrix,detail",
    [
        ({"free_rank": 0, "torsion": [2]}, [[1]], "not bijective: hom is onto but not injective"),
        ({"free_rank": 1, "torsion": []}, [[2]], "not bijective: free-group hom with non-unimodular matrix"),
    ],
    ids=["onto-torsion", "free-det-2"],
)
def test_exit_4_for_an_iso_document_whose_map_is_not_bijective(tmp_path, capsys, target, matrix, detail):
    """A well-defined hom that is not bijective is a failed hypothesis, also when it is onto: Z → Z/2."""
    zero = {"free_rank": 0, "torsion": []}
    doc = {
        "source": {"group": {"free_rank": 1, "torsion": []}, "lambda": [[0]], "target": zero, "mu": []},
        "target": {"group": target, "lambda": [[0]], "target": zero, "mu": []},
        "matrix": matrix,
    }
    code, report, _ = invoke(capsys, "validate", "--input", write_doc(tmp_path, "iso.json", doc))
    assert (code, report["error"], report["detail"]) == (4, "not bijective", detail)


# -- exit codes of iso documents against a brute-force reference -----------

# (free rank, torsion) of small groups Z^r ⊕ Z/d_1 ⊕ ...; free rank at most 1
SMALL_GROUPS = [(0, (2,)), (0, (4,)), (0, (2, 2)), (0, (2, 4)), (0, (6,)), (1, ()), (1, (2,)), (1, (4,))]
COEFFICIENT_GROUPS = [(0, ()), (0, (2,)), (0, (4,)), (1, ())]


def orders(group):
    """The order of each generator, 0 for a free one."""
    r, torsion = group
    return [0] * r + list(torsion)


def brute_iso_exit(source, target, matrix):
    """The exit code an iso document along ``matrix`` must give, decided on plain lists.

    The matrix defines a hom when d times the image of each generator of
    order d is zero in the target; otherwise the document is invalid (2).
    A hom is bijective exactly when it is on the free quotients (a 1 × 1
    block ±1, or both free ranks 0) and on the finite torsion parts, which
    are scanned element by element: bijective is 0, any other hom is 4.
    """
    (r, ts), (s, tt) = source, target
    for j, d in enumerate(orders(source)):
        if d and any(d * matrix[i][j] % e if e else matrix[i][j] for i, e in enumerate(orders(target))):
            return 2
    free_bijective = r == s and (r == 0 or abs(matrix[0][0]) == 1)
    elements = list(itertools.product(*[range(d) for d in ts]))
    images = {
        tuple(sum(matrix[s + k][r + j] * x[j] for j in range(len(ts))) % e for k, e in enumerate(tt)) for x in elements
    }
    torsion_bijective = len(images) == len(elements) == math.prod(tt)
    return 0 if free_bijective and torsion_bijective else 4


def random_image(rng, d, e):
    """A coordinate of order e (0: free) of the image of a generator of order d (0: free) under a hom."""
    if not e:
        return 0 if d else rng.randint(-1, 1)
    return rng.randint(-2, 2) * (e // math.gcd(d, e))


def group_doc(group):
    return {"free_rank": group[0], "torsion": list(group[1])}


def random_iso_document(rng, source, target, matrix=None):
    """An iso document along ``matrix`` whose source form is the pullback of a random target form.

    Without a matrix, a random one: three in five are homs by
    construction, and the rest have free entries, so most of them define
    no hom.
    """
    src, tgt = orders(source), orders(target)
    if matrix is None:
        hom = rng.random() < 0.6
        matrix = [[random_image(rng, d, e) if hom else rng.randint(-2, 2) for d in src] for e in tgt]
    coefficients = rng.choice(COEFFICIENT_GROUPS)
    mu_t = [[random_image(rng, e, q) for e in tgt] for q in orders(coefficients)]
    s = target[0]
    lam_t = [[0] * len(tgt) for _ in tgt]
    for i in range(s):
        for j in range(i, s):
            lam_t[i][j] = lam_t[j][i] = rng.randint(-2, 2)
    # the source form is the pullback: λ = Mᵀ λ′ M and μ = μ′ M
    n = len(src)
    lam_s = [
        [sum(matrix[a][i] * lam_t[a][b] * matrix[b][j] for a in range(s) for b in range(s)) for j in range(n)]
        for i in range(n)
    ]
    mu_s = [[sum(row[k] * matrix[k][j] for k in range(len(tgt))) for j in range(n)] for row in mu_t]

    def form(group, lam, mu):
        return {"group": group_doc(group), "lambda": lam, "target": group_doc(coefficients), "mu": mu}

    return {"source": form(source, lam_s, mu_s), "target": form(target, lam_t, mu_t), "matrix": matrix}


def test_iso_document_exit_codes_match_a_brute_force_scan(tmp_path, capsys):
    """Every document's map pulls the form back: exit 0 exactly for a bijection, 4 for any other hom, 2 for no hom."""
    rng = random.Random(61)
    # the onto map Z → Z/2 that is not injective, pinned among them
    cases = [((1, ()), (0, (2,)), [[1]])]
    for _ in range(300):
        source = rng.choice(SMALL_GROUPS)
        cases.append((source, source if rng.random() < 0.6 else rng.choice(SMALL_GROUPS), None))
    path = tmp_path / "iso.json"
    codes = Counter()
    for source, target, matrix in cases:
        doc = random_iso_document(rng, source, target, matrix)
        path.write_text(canonical_dumps(doc))
        code, report, _ = invoke(capsys, "validate", "--input", str(path))
        assert code == brute_iso_exit(source, target, doc["matrix"]), doc
        assert (code == 0) == report.get("ok", False)
        codes[code] += 1
    assert all(codes[c] >= 30 for c in (0, 2, 4)), codes


def test_node_limit_env_default(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, "h2.json", form_to_doc(hyperbolic(1, ZERO_GROUP, V0)))
    monkeypatch.setenv("QFORM_NODE_LIMIT", "1")
    code, _, _ = invoke(capsys, "oracle-lagrangians", "--input", path)
    assert code == 3
    # explicit flag beats the environment
    code, _, _ = invoke(capsys, "oracle-lagrangians", "--input", path, "--node-limit", "100000")
    assert code == 0


def test_malformed_node_limit_env(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, "h2.json", form_to_doc(hyperbolic(1, ZERO_GROUP, V0)))
    monkeypatch.setenv("QFORM_NODE_LIMIT", "abc")
    code, doc, _ = invoke(capsys, "oracle-lagrangians", "--input", path)
    assert code == 2
    assert doc["path"] == "QFORM_NODE_LIMIT"
    assert "expected an integer" in doc["error"]
    # the variable is not read when the flag gives the limit
    code, doc, _ = invoke(capsys, "oracle-lagrangians", "--input", path, "--node-limit", "100000")
    assert code == 0
    assert doc["budget"] == {"entry_bound": 3, "max_stab": 2, "node_limit": 100000}


# a budget past the interpreter's 4300-digit int/str limit
HUGE_LIMIT = "1" * 5000


def test_a_5000_digit_node_limit_is_a_budget(tmp_path, capsys, monkeypatch):
    code, doc, _ = invoke(capsys, "si", "--a", "6", "--b", "35", "--node-limit", HUGE_LIMIT)
    assert (code, doc["reps"]) == (0, [[1, 210], [2, 105], [3, 70], [5, 42], [6, 35], [7, 30], [10, 21], [14, 15]])
    # the environment's default, which oracle searches read without the flag
    path = write_doc(tmp_path, "h2.json", form_to_doc(hyperbolic(1, ZERO_GROUP, V0)))
    monkeypatch.setenv("QFORM_NODE_LIMIT", HUGE_LIMIT)
    assert cli.run(["oracle-lagrangians", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["budget"]["node_limit"] == HUGE_LIMIT  # past the limit, as a string


def test_missing_input_flag(capsys):
    code, doc, _ = invoke(capsys, "perp")
    assert code == 2
    assert "--input" in doc["error"]


def test_output_is_deterministic(capsys):
    _, _, first = invoke(capsys, "si", "--a", "2", "--b", "15")
    _, _, second = invoke(capsys, "si", "--a", "2", "--b", "15")
    assert first == second
    assert first.endswith("\n")


def test_argparse_help_and_errors_repeat_exactly(capsys):
    """The parser is built once per process, so later runs must read the same."""
    seen = []
    for _ in range(2):
        for argv in (["si", "--help"], ["si", "--a", "x", "--b", "1"], ["nope"], ["stable-class", "--rkq", "5"]):
            with pytest.raises(SystemExit) as exc:
                cli.run(argv)
            out = capsys.readouterr()
            seen.append((exc.value.code, out.out, out.err))
        assert invoke(capsys, "si", "--a", "2", "--b", "3")[0] == 0
    assert seen[:4] == seen[4:]
    assert [code for code, _, _ in seen[:4]] == [0, 2, 2, 2]
    assert "invalid int value: 'x'" in seen[1][2]
    assert seen[0][1].startswith("usage: qform si") and seen[0][2] == ""
    for _, out, err in seen[1:4]:
        doc = json.loads(out)
        assert doc["path"] == "argv"
        assert err.startswith("usage: ") and err.endswith("error: %s\n" % doc["error"])


@pytest.mark.parametrize("field", ["entry_bound", "max_stab", "node_limit"])
def test_negative_budget_in_a_stored_result_is_a_schema_error(tmp_path, capsys, field):
    path = write_doc(tmp_path, "h2.json", form_to_doc(hyperbolic(1, ZERO_GROUP, V0)))
    code, doc, _ = invoke(capsys, "oracle-lagrangians", "--input", path)
    assert code == 0
    doc["budget"][field] = -1
    code, err, _ = invoke(capsys, "validate", "--input", write_doc(tmp_path, "stored.json", doc))
    assert code == 2
    assert err["path"] == "input.budget." + field
    assert "must be non-negative" in err["error"]


def test_negative_node_limit_env(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, "h2.json", form_to_doc(hyperbolic(1, ZERO_GROUP, V0)))
    monkeypatch.setenv("QFORM_NODE_LIMIT", "-1")
    code, doc, _ = invoke(capsys, "oracle-lagrangians", "--input", path)
    assert code == 2
    assert doc["path"] == "QFORM_NODE_LIMIT"
    assert "must be non-negative" in doc["error"]


@pytest.mark.parametrize("flag", ["--entry-bound", "--max-stab", "--node-limit"])
def test_negative_budget_flags_are_usage_errors(tmp_path, capsys, flag):
    path = write_doc(tmp_path, "h2.json", form_to_doc(hyperbolic(1, ZERO_GROUP, V0)))
    with pytest.raises(SystemExit) as exc:
        cli.run(["oracle-lagrangians", "--input", path, flag, "-1"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert json.loads(out.out) == {
        "error": "argument %s: expected a non-negative integer, got '-1'" % flag,
        "path": "argv",
    }
    assert "expected a non-negative integer, got '-1'" in out.err


# -- validate encodes the stored result only when the input text is not canonical


@pytest.fixture(scope="module")
def jacobi_text():
    """The canonical text of a jacobi result on a triple in H_2."""
    h2 = hyperbolic(1, ZERO_GROUP, V0)
    doc = {"form": form_to_doc(h2)}
    for key, gen in (("K", [0, 1]), ("L", [1, 0]), ("V", [1, 1])):
        doc[key] = subgroup_to_doc(SubgroupRep.from_elements(h2.group, [gen]))
    return canonical_dumps(cli.COMMANDS["jacobi"].build(doc))


def reorder_keys(value):
    if isinstance(value, dict):
        return {k: reorder_keys(value[k]) for k in sorted(value, reverse=True)}
    if isinstance(value, list):
        return [reorder_keys(v) for v in value]
    return value


def int_as_string(doc):
    # an input field: recomputation parses the same int, the stored bytes differ
    doc["form"]["group"]["free_rank"] = str(doc["form"]["group"]["free_rank"])
    return doc


def tamper(doc):
    doc["sequence"]["moves"][0]["kind"] = "stab"
    return doc


def deepen(doc):
    doc["pairs"] = json.loads("[" * 300 + "]" * 300)
    return doc


STORED_VARIANTS = {
    "canonical": lambda text: text,
    "compact": lambda text: json.dumps(json.loads(text)),
    "re-indented": lambda text: json.dumps(json.loads(text), indent=4, sort_keys=True) + "\n",
    "keys-reordered": lambda text: json.dumps(reorder_keys(json.loads(text)), indent=2) + "\n",
    "int-as-string": lambda text: canonical_dumps(int_as_string(json.loads(text))),
    "tampered": lambda text: canonical_dumps(tamper(json.loads(text))),
    "tampered-compact": lambda text: json.dumps(tamper(json.loads(text))),
    "too-deep": lambda text: json.dumps(deepen(json.loads(text))),
}


# the first JSON path where each tampered variant differs from the recomputed result
TAMPERED_PATHS = {
    "int-as-string": "input.form.group.free_rank",
    "tampered": "input.sequence.moves[0].kind",
    "tampered-compact": "input.sequence.moves[0].kind",
}


def validate_both_ways(monkeypatch, capsys, argv):
    """Stdout, exit code and encoder calls of validate, then the same with the stored document always encoded."""
    calls = []

    def counting(doc):
        calls.append(None)
        return canonical_dumps(doc)

    monkeypatch.setattr(cli, "canonical_dumps", counting)
    code = cli.run(argv)
    out = capsys.readouterr().out
    fast_calls = len(calls)
    slow = dataclasses.replace(cli.COMMANDS["validate"], read=lambda args: (cli._read_doc(args), None))
    monkeypatch.setitem(cli.COMMANDS, "validate", slow)
    slow_code = cli.run(argv)
    return (out, code), (capsys.readouterr().out, slow_code), fast_calls, len(calls) - fast_calls


@pytest.mark.parametrize("variant", list(STORED_VARIANTS))
def test_validate_fast_path_reports_as_before(tmp_path, capsys, monkeypatch, jacobi_text, variant):
    path = tmp_path / "stored.json"
    path.write_text(STORED_VARIANTS[variant](jacobi_text))
    fast, slow, fast_calls, slow_calls = validate_both_ways(
        monkeypatch, capsys, ["validate", "--input", str(path)]
    )
    assert fast == slow
    out, code = fast
    report = json.loads(out)
    if variant in ("canonical", "compact", "re-indented", "keys-reordered"):
        assert (code, report) == (0, {"command": "validate", "kind": "jacobi result", "ok": True})
    elif variant == "too-deep":
        assert (code, report) == (2, {"error": ": document nested too deeply", "path": ""})
    else:
        assert code == 2
        assert report == {
            "command": "validate",
            "kind": "jacobi result",
            "ok": False,
            "reason": "stored results differ from recomputation",
            "path": TAMPERED_PATHS[variant],
        }
    # the fresh result and the report are encoded; the stored document only when its text is not canonical
    assert fast_calls == (2 if variant == "canonical" else slow_calls)


def test_a_result_in_the_one_integer_per_line_layout_validates_but_is_not_strict(tmp_path, capsys, jacobi_text):
    # the canonical layout before integer rows went on one line: json.dumps(indent=2) throughout
    old = json.dumps(json.loads(jacobi_text), sort_keys=True, indent=2) + "\n"
    assert "[0, 1]" in jacobi_text and "[0, 1]" not in old and "[\n" in old
    path = tmp_path / "stored.json"
    path.write_text(old)
    code, report, _ = invoke(capsys, "validate", "--input", str(path))
    assert (code, report) == (0, {"command": "validate", "kind": "jacobi result", "ok": True})
    code, report, _ = invoke(capsys, "validate", "--strict", "--input", str(path))
    assert (code, report) == (2, {"error": ": input is not in canonical form", "path": ""})


def test_validate_finds_a_tampered_last_entry_without_encoding_equal_rows(tmp_path, capsys, monkeypatch, jacobi_text):
    doc = json.loads(jacobi_text)
    moves = doc["sequence"]["moves"]
    matrix = moves[-1]["iso"]["matrix"]
    matrix[-1][-1] += 1
    path = tmp_path / "stored.json"
    path.write_text(canonical_dumps(doc))
    calls = []

    def counting(value):
        calls.append(None)
        return canonical_dumps(value)

    monkeypatch.setattr(serialize, "canonical_dumps", counting)
    code, report, _ = invoke(capsys, "validate", "--input", str(path))
    assert code == 2
    assert report["path"] == "input.sequence.moves[%d].iso.matrix[%d][%d]" % (
        len(moves) - 1, len(matrix) - 1, len(matrix) - 1
    )
    # equal integer rows are compared, not encoded: what is encoded is about five scalar leaves
    # per move, once on each side, and some fifty of the result's other fields, against some
    # 26,000 integers
    assert len(calls) <= 10 * len(moves) + 60


def reach(doc, at):
    for key in at:
        doc = doc[key]
    return doc


@pytest.mark.parametrize(
    "at, also, path",
    [
        (("end", "form"), ("moves", 0, "iso", "source"), "input.sequence.end.form"),
        (("moves", 2, "iso", "source"), ("moves", 1, "witness", "target"), "input.sequence.moves[2].iso.source"),
    ],
    ids=["first-occurrence", "later-occurrence"],
)
def test_validate_names_a_tampered_copy_of_a_shared_form(tmp_path, capsys, jacobi_text, at, also, path):
    """The recomputed result holds one form dict in several places; a tampered copy is named where it is."""
    fresh = cli.COMMANDS["jacobi"].build(json.loads(jacobi_text))["sequence"]
    assert reach(fresh, at) is reach(fresh, also)
    doc = json.loads(jacobi_text)
    reach(doc["sequence"], at)["lambda"][0][0] += 1
    stored = tmp_path / "stored.json"
    stored.write_text(canonical_dumps(doc))
    code, report, _ = invoke(capsys, "validate", "--input", str(stored))
    assert (code, report["ok"], report["path"]) == (2, False, path + ".lambda[0][0]")


@pytest.mark.parametrize("variant", ["canonical", "re-indented", "tampered"])
def test_validate_strict_behaves_as_before(tmp_path, capsys, monkeypatch, jacobi_text, variant):
    path = tmp_path / "stored.json"
    path.write_text(STORED_VARIANTS[variant](jacobi_text))
    fast, slow, _, _ = validate_both_ways(monkeypatch, capsys, ["validate", "--strict", "--input", str(path)])
    assert fast == slow
    out, code = fast
    expected = {
        "canonical": 0,  # strict reading encodes the document once; it equals the text
        "re-indented": 2,  # "input is not in canonical form"
        "tampered": 2,  # canonical bytes, wrong results
    }[variant]
    assert code == expected
    if variant == "re-indented":
        assert json.loads(out) == {"error": ": input is not in canonical form", "path": ""}
