"""Tests for quasi-formations, moves, torsion reduction and witnesses."""

import json
import random
import sys
import time
from collections import Counter
from functools import reduce
from itertools import accumulate
from math import gcd

import pytest

from qform import abelian, cli, construct, forms, intmat, lmonoid, serialize
from qform.abelian import AbGroup, GroupHom, SubgroupRep, Z2, ZERO_GROUP, free_group
from qform.construct import Flip, RUWord, ru_wall_witness, ru_word_eval
from qform.errors import DEFAULT_NODE_LIMIT, HypothesisError, NodeLimitExceeded, QformError, VMissing
from qform.forms import EQForm, FormIso, hyperbolic, hyperbolic_halves, subgroup_classify
from qform.intmat import IntMatrix
from qform.lmonoid import (
    ApplyIso,
    Destab,
    FlipL,
    MoveSequence,
    QuasiFormation,
    ReplayResult,
    Stab,
    apply_move,
    bar_reduce,
    bar_round_trip,
    is_elementary,
    jacobi_witness,
    l_group_trivialize,
    qf_direct_sum,
    replay,
    standard_elementary,
    unbar,
    zero_formation,
)
from qform.serialize import sequence_from_doc, sequence_to_doc

Z = free_group(1)
VZ = GroupHom.zero(Z, Z2)
V0 = GroupHom.zero(ZERO_GROUP, Z2)


def pairing(e, x, y):
    """λ(x, y) on the form e."""
    return sum(a * b for a, b in zip(e.group.reduce(x), e.matrix.apply(e.group.reduce(y))))


def sub(q, *gens):
    group = q.group if isinstance(q, EQForm) else q.form.group
    return SubgroupRep.from_elements(group, gens)


def plain_h2(target=ZERO_GROUP, mu_images=None):
    """H_2 with an optional mu, no parity map."""
    g = free_group(2)
    if mu_images is None:
        mu = GroupHom.zero(g, target)
    else:
        mu = GroupHom.from_gen_images(g, target, mu_images)
    return EQForm(g, IntMatrix.from_rows([[0, 1], [1, 0]]), mu, None)


def double_h2():
    """H_2 ⊕ H_2 in interleaved coordinates (a1, b1, a2, b2), Q = 0."""
    g = free_group(4)
    rows = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    return EQForm(g, IntMatrix.from_rows(rows), GroupHom.zero(g, ZERO_GROUP), None)


# -- zero formations ---------------------------------------------------


def test_zero_formation_over_z():
    q = zero_formation(Z, VZ)
    assert q.form.matrix.tolist() == [[0, 1], [1, 0]]
    assert q.form.mu.matrix.tolist() == [[0, 1]]
    assert q.lagrangian == sub(q, (1, 0))
    assert q.summand == sub(q, (1, 0))


def test_zero_formation_parity_twists_the_diagonal():
    half = AbGroup(0, (2,))
    v = GroupHom.from_gen_images(half, Z2, [(1,)])
    q = zero_formation(half, v)
    assert q.form.matrix.tolist() == [[0, 1], [1, 1]]
    assert q.form.is_geometric()


@pytest.mark.parametrize("torsion", [(), (2,), (3,), (2, 2), (2, 4)])
@pytest.mark.parametrize("free_rank", [0, 1, 2])
def test_zero_formation_pairing_matches_its_block_matrix(free_rank, torsion):
    q_group = AbGroup(free_rank, torsion)
    images = [(i % 2,) for i in range(free_rank)] + [(1,) if d % 2 == 0 else (0,) for d in torsion]
    v = GroupHom.from_gen_images(q_group, Z2, images)
    k = q_group.num_gens
    diag = [v.apply(g)[0] for g in q_group.gens()]
    top = IntMatrix.zeros(k, k).hstack(IntMatrix.identity(k))
    bottom = IntMatrix.identity(k).hstack(IntMatrix.diagonal(diag, rows=k, cols=k))
    assert zero_formation(q_group, v).form.matrix == top.vstack(bottom)


def test_zero_formation_trivial_group_is_elementary():
    q = zero_formation(ZERO_GROUP, V0)
    assert q.form.rank == 0
    assert is_elementary(q)


@pytest.mark.parametrize(
    "group,images",
    [
        (ZERO_GROUP, []),
        (Z, [(0,)]),
        (free_group(2), [(0,), (0,)]),
        (AbGroup(1, (2,)), [(0,), (1,)]),
        (AbGroup(0, (2,)), [(1,)]),
    ],
)
def test_zero_formation_membership(group, images):
    v = GroupHom.from_gen_images(group, Z2, images)
    q = zero_formation(group, v)
    e = q.form
    assert e.is_free() and e.is_full() and e.is_geometric()
    assert subgroup_classify(e, q.lagrangian).t_lagrangian
    assert subgroup_classify(e, q.summand).free_lagrangian
    assert not is_elementary(q) or group.num_gens == 0


# -- elementarity ------------------------------------------------------


def test_standard_elementary_is_elementary():
    h = standard_elementary(1)
    assert h.lagrangian == sub(h, (0, 1))
    assert h.summand == sub(h, (1, 0))
    assert is_elementary(h)
    assert is_elementary(standard_elementary(3))


def test_repeated_lagrangian_is_not_elementary():
    e = plain_h2()
    q = QuasiFormation(e, sub(e, (0, 1)), sub(e, (0, 1)))
    assert not is_elementary(q)


def test_elementarity_survives_stabilization():
    rng = random.Random(5)
    e = plain_h2()
    samples = [
        standard_elementary(2),
        QuasiFormation(e, sub(e, (0, 1)), sub(e, (0, 1))),
        zero_formation(Z, VZ),
        QuasiFormation(e, sub(e, (0, 1)), sub(e, (1, 3))),
    ]
    for q in samples:
        for _ in range(3):
            stabbed = apply_move(q, Stab(rng.randrange(1, 3)))
            assert is_elementary(stabbed) == is_elementary(q)


# -- direct sums -------------------------------------------------------


def test_sum_of_standards_is_standard_up_to_reindexing():
    double = qf_direct_sum(standard_elementary(1), standard_elementary(1))
    target = standard_elementary(2)
    # (a1, b1, a2, b2) -> (a1, a2, b1, b2)
    hom = GroupHom.from_gen_images(
        double.form.group, target.form.group,
        [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)],
    )
    iso = FormIso(double.form, target.form, hom)
    assert double.lagrangian.transport(iso.hom) == target.lagrangian
    assert double.summand.transport(iso.hom) == target.summand


def test_sum_of_elementary_is_elementary():
    a = standard_elementary(1)
    b = standard_elementary(2)
    assert is_elementary(qf_direct_sum(a, b))
    assert is_elementary(qf_direct_sum(qf_direct_sum(a, a), b))


def test_sum_refuses_mismatched_targets():
    with pytest.raises(QformError):
        qf_direct_sum(zero_formation(Z, VZ), standard_elementary(1))


def mu_image_on_summand(q):
    """μ(V) ≤ Q; additive under direct sum and zero on invertible classes."""
    return q.summand.transport(q.form.mu)


def pairing_gcd_on_summand(q):
    """Non-negative generator of the image of λ restricted to the summand."""
    g = 0
    gens = q.summand.generators()
    for i, x in enumerate(gens):
        for y in gens[i:]:
            g = gcd(g, pairing(q.form, x, y))
    return g


def test_invariants_add_over_sums():
    g = free_group(2)
    mu = GroupHom.from_gen_images(g, Z, [(0,), (1,)])
    e = EQForm(g, IntMatrix.from_rows([[0, 1], [1, 0]]), mu, VZ)
    q = QuasiFormation(e, sub(e, (1, 0)), sub(e, (0, 1)))
    z = zero_formation(Z, VZ)
    assert mu_image_on_summand(q) == SubgroupRep.full(Z)
    assert mu_image_on_summand(z).is_zero()
    both = qf_direct_sum(q, z)
    assert mu_image_on_summand(both) == SubgroupRep.full(Z)
    assert pairing_gcd_on_summand(q) == 0
    twisted = QuasiFormation(e, sub(e, (1, 0)), sub(e, (1, 1)))
    assert pairing_gcd_on_summand(twisted) == 2
    assert pairing_gcd_on_summand(qf_direct_sum(twisted, twisted)) == 2


# -- moves and replay --------------------------------------------------


def replay_by_folding(seq):
    """replay's reference: fold ``apply_move`` over the moves, then compare with the declared end."""
    current = seq.start
    for i, move in enumerate(seq.moves):
        try:
            current = apply_move(current, move)
        except QformError as err:
            return ReplayResult(False, i, failed_index=i, reason=str(err))
    if current != seq.end:
        return ReplayResult(False, len(seq.moves), reason="result differs from the declared end")
    return ReplayResult(True, len(seq.moves))


def replays_alike(seq, node_limit=DEFAULT_NODE_LIMIT):
    """``replay(seq, node_limit)``, checked to agree with ``replay_by_folding``: ok, failed index and reason."""
    res = replay(seq, node_limit)
    assert res == replay_by_folding(seq)
    return res


def test_replay_empty_sequence():
    q = standard_elementary(1)
    assert replays_alike(MoveSequence(q, q, ()))
    other = zero_formation(ZERO_GROUP, V0)
    res = replays_alike(MoveSequence(q, other, ()))
    assert not res
    assert res.reason == "result differs from the declared end"


def test_stab_then_destab_is_the_identity():
    q = standard_elementary(1)
    stabbed = apply_move(q, Stab())
    witness = FormIso.identity(stabbed.form)
    seq = MoveSequence(q, q, (Stab(), Destab(q, 1, witness)))
    res = replays_alike(seq)
    assert res and res.steps == 2


def test_validate_of_a_wide_stabilization_is_fast(tmp_path, capsys):
    # ℋ_8000 is built from sparse unit halves and not re-checked; from dense unit vectors it took seconds
    q = zero_formation(ZERO_GROUP, V0)
    path = tmp_path / "stab.json"
    path.write_text(json.dumps(sequence_to_doc(MoveSequence(q, q, (Stab(4000),)))))
    t0 = time.monotonic()
    code = cli.run(["validate", "--input", str(path)])
    assert time.monotonic() - t0 < 1.0
    doc = json.loads(capsys.readouterr().out)
    assert (code, doc["ok"], doc["steps"]) == (2, False, 1)
    assert doc["reason"] == "result differs from the declared end"


def validate_in_time(tmp_path, capsys, moves, *flags):
    """(exit code, stdout, stderr) of ``validate`` on (0; 0, 0) → (0; 0, 0) by ``moves``, run in under 1 s."""
    q = zero_formation(ZERO_GROUP, V0)
    path = tmp_path / "moves.json"
    path.write_text(json.dumps(sequence_to_doc(MoveSequence(q, q, moves))))
    t0 = time.monotonic()
    code = cli.run(["validate", "--input", str(path), *flags])
    assert time.monotonic() - t0 < 1.0
    return (code, *capsys.readouterr())


def test_validate_of_a_huge_stabilization_runs_out_of_nodes(tmp_path, capsys):
    # 10^12 pairs are charged against the node limit before ℋ is built
    code, out, _ = validate_in_time(tmp_path, capsys, (Stab(10**12),))
    assert (code, json.loads(out)) == (3, {"error": "search passed 200000 nodes"})


def test_validate_of_a_huge_destabilization_fails_on_the_rank(tmp_path, capsys):
    q = zero_formation(ZERO_GROUP, V0)
    code, out, _ = validate_in_time(tmp_path, capsys, (Destab(q, 10**12, FormIso.identity(q.form)),))
    doc = json.loads(out)
    assert (code, doc["ok"], doc["failed_index"]) == (2, False, 0)
    assert doc["reason"] == "split witness does not end at rest ⊕ H"


def test_validate_of_many_stabilizations_runs_out_of_nodes(tmp_path, capsys):
    # each move pays for the whole sum it rebuilds, so neither a wide start nor cheap moves run unbounded
    for moves in ((Stab(2000),) + (Stab(0),) * 1000, (Stab(1),) * 20000, (Stab(0),) * 20000):
        code, out, _ = validate_in_time(tmp_path, capsys, moves, "--node-limit", "20000")
        assert (code, json.loads(out)) == (3, {"error": "search passed 20000 nodes"})


def test_replay_charges_stabilizations_to_the_node_limit():
    q = zero_formation(ZERO_GROUP, V0)
    end = apply_move(apply_move(q, Stab(1)), Stab(1))
    # the second move rebuilds the first pair beside its own
    price = 2 * Stab.NODES_PER_MOVE + 3 * Stab.NODES_PER_PAIR
    assert replays_alike(MoveSequence(q, end, (Stab(1), Stab(1))), node_limit=price)
    with pytest.raises(NodeLimitExceeded):
        replay(MoveSequence(q, q, (Stab(1), Stab(1))), node_limit=price - 1)


def test_destab_with_wrong_witness_reports_the_index():
    q = standard_elementary(1)
    stabbed = apply_move(q, Stab())
    n = stabbed.form.rank
    # swap the two halves of the appended plane: lagrangian no longer matches
    swap = IntMatrix.block_diagonal(
        [IntMatrix.identity(n - 2), IntMatrix.from_rows([[0, 1], [1, 0]])]
    )
    bad = FormIso(stabbed.form, stabbed.form, GroupHom(stabbed.form.group, stabbed.form.group, swap))
    res = replays_alike(MoveSequence(q, q, (Stab(), Destab(q, 1, bad))))
    assert not res
    assert res.failed_index == 1
    assert "lagrangian" in res.reason


def plane_swap(e):
    """The automorphism of double_h2 exchanging its two planes."""
    return FormIso(e, e, GroupHom(e.group, e.group, IntMatrix.permutation([2, 3, 0, 1])))


def test_flip_exchanges_the_split_plane_halves():
    e = double_h2()
    q = QuasiFormation(e, sub(e, (0, 1, 0, 0), (0, 0, 0, 1)), sub(e, (1, 0, 0, 0), (0, 0, 1, 0)))
    flipped = apply_move(q, FlipL(plane_swap(e)))
    assert flipped.form == e
    assert flipped.summand == q.summand
    assert flipped.lagrangian == sub(e, (0, 1, 0, 0), (0, 0, 1, 0))
    expected = QuasiFormation(e, flipped.lagrangian, q.summand)
    assert replays_alike(MoveSequence(q, expected, (FlipL(plane_swap(e)),)))


def test_flip_with_unsplit_lagrangian_fails_with_index():
    e = double_h2()
    q = QuasiFormation(e, sub(e, (0, 1, 0, 0), (0, 0, 1, 0)), sub(e, (1, 0, 0, 0), (0, 0, 0, 1)))
    res = replays_alike(MoveSequence(q, q, (FlipL(plane_swap(e)),)))
    assert not res
    assert res.failed_index == 0
    assert "split" in res.reason


def test_flip_refuses_a_lagrangian_holding_twice_b_but_not_b():
    # no T-lagrangian holds 2·b without b, a summand being pure, so the start is built unchecked:
    # the move's own split test must refuse it, at its index
    e = double_h2()
    q = QuasiFormation._unchecked(e, sub(e, (0, 2, 0, 0), (0, 0, 0, 1)), sub(e, (1, 0, 0, 0), (0, 0, 1, 0)))
    res = replays_alike(MoveSequence(q, q, (ApplyIso(FormIso.identity(e)), FlipL(FormIso.identity(e)))))
    assert not res
    assert res.failed_index == 1
    assert res.reason == "lagrangian does not split as ({0} × Z) ⊕ L'"


def test_flip_refuses_a_lagrangian_with_a_row_leading_at_a():
    # L = ⟨a1 + b2, a2 - b1⟩ holds b1 - a2 but not b1, and meets the rest in 0
    e = double_h2()
    q = QuasiFormation(e, sub(e, (1, 0, 0, 1), (0, -1, 1, 0)), sub(e, (1, 0, 0, 0), (0, 0, 1, 0)))
    assert q.lagrangian.lattice[0][0] == (0, 1)
    res = replays_alike(MoveSequence(q, q, (FlipL(FormIso.identity(e)),)))
    assert not res
    assert res.failed_index == 0
    assert res.reason == "lagrangian does not split as ({0} × Z) ⊕ L'"


def test_flipl_moves_the_lagrangian_as_each_flip_letter_does():
    # Flip letters and FlipL moves share the split-pair layout, so a flip
    # letter's witness is itself a FlipL witness at every rank
    h = hyperbolic(2, ZERO_GROUP, GroupHom.zero(ZERO_GROUP, Z2))
    a = IntMatrix.from_rows([[1, 1], [0, 1]])
    shear = IntMatrix.block_diagonal([a, a.inverse_unimodular().transpose()])
    phi = FormIso(h, h, GroupHom(h.group, h.group, shear))
    wall = ru_wall_witness(h, sub(h, (0, 0, 1, 0), (0, 0, 0, 1)), phi)
    form, lagr = wall.word.form, wall.word.lagrangian
    q = QuasiFormation(form, lagr, lagr)
    flips = [g for g in wall.word.letters if isinstance(g, Flip)]
    assert flips and all(g.witness.target.rank >= 4 for g in flips)
    for letter in flips:
        psi = ru_word_eval(RUWord(form, lagr, (letter,)))
        moved = apply_move(q, FlipL(letter.witness))
        assert moved.lagrangian == lagr.transport(psi.hom)
        assert moved.summand == lagr


def test_apply_iso_from_elsewhere_fails():
    q = standard_elementary(1)
    foreign = FormIso.identity(double_h2())
    res = replays_alike(MoveSequence(q, q, (ApplyIso(foreign),)))
    assert not res and res.failed_index == 0


# -- L-elements --------------------------------------------------------


def test_is_L_element_examples():
    """An L-element's summand is itself a free lagrangian."""
    e = plain_h2()
    examples = [
        (QuasiFormation(e, sub(e, (0, 1)), sub(e, (1, 0))), True),
        (zero_formation(Z, VZ), True),
        (QuasiFormation(e, sub(e, (0, 1)), sub(e, (1, 1))), False),
    ]
    for q, l_element in examples:
        assert subgroup_classify(q.form, q.summand).free_lagrangian == l_element


# -- torsion reduction -------------------------------------------------


def torsion_block(k, torsion, mu_row=None, target=ZERO_GROUP):
    """[[0,I],[I,0]] on 2k free generators with torsion appended."""
    group = AbGroup(2 * k, torsion)
    t = len(torsion)
    lam = IntMatrix.block_diagonal(
        [IntMatrix.zeros(k, k).hstack(IntMatrix.identity(k)).vstack(
            IntMatrix.identity(k).hstack(IntMatrix.zeros(k, k))
        ), IntMatrix.zeros(t, t)]
    )
    if mu_row is None:
        mu = GroupHom.zero(group, target)
    else:
        mu = GroupHom(group, target, IntMatrix.from_rows([list(mu_row) + [0] * t], group.num_gens))
    return EQForm(group, lam, mu, None)


def test_bar_reduce_is_identity_without_torsion():
    q = standard_elementary(2)
    assert bar_reduce(q) is q


def test_bar_reduce_drops_a_torsion_factor():
    e = torsion_block(1, (3,))
    q = QuasiFormation(e, sub(e, (1, 0, 0), (0, 0, 1)), sub(e, (0, 1, 0)))
    reduced = bar_reduce(q)
    assert reduced.form.group == free_group(2)
    assert reduced.form.matrix.tolist() == [[0, 1], [1, 0]]
    assert reduced.lagrangian == SubgroupRep.from_elements(free_group(2), [(1, 0)])
    assert reduced.summand == SubgroupRep.from_elements(free_group(2), [(0, 1)])


def test_unbar_restores_the_aligned_instance():
    e = torsion_block(1, (3,))
    q = QuasiFormation(e, sub(e, (1, 0, 0), (0, 0, 1)), sub(e, (0, 1, 0)))
    assert unbar(bar_reduce(q), AbGroup(0, (3,))) == q


def reference_unbar(qbar, r_group):
    """The former unbar: its block matrices and padded generators written out."""
    r = qbar.form.rank
    t = len(r_group.torsion)
    group = AbGroup(r, r_group.torsion)
    lam = IntMatrix.block_diagonal([qbar.form.matrix, IntMatrix.zeros(t, t)])
    mu = GroupHom(group, qbar.target, qbar.form.mu.matrix.hstack(IntMatrix.zeros(qbar.target.num_gens, t)))
    form = EQForm(group, lam, mu, qbar.form.v)
    pad = (0,) * t
    lagr_gens = [g + pad for g in qbar.lagrangian.generators()]
    lagr_gens += [group.gen(r + j) for j in range(t)]
    summ_gens = [g + pad for g in qbar.summand.generators()]
    return QuasiFormation(form, sub(form, *lagr_gens), sub(form, *summ_gens))


def test_unbar_matches_the_reference():
    half = AbGroup(0, (2,))
    e = torsion_block(1, (3,))
    free = [
        standard_elementary(2),
        zero_formation(Z, VZ),
        zero_formation(half, GroupHom.from_gen_images(half, Z2, [(1,)])),
        zero_formation(ZERO_GROUP, V0),
        bar_reduce(QuasiFormation(e, sub(e, (1, 0, 0), (0, 0, 1)), sub(e, (0, 1, 1)))),
    ]
    for qbar in free:
        for torsion in [(), (2,), (3,), (2, 4), (3, 6), (2, 2, 4)]:
            r_group = AbGroup(0, torsion)
            assert unbar(qbar, r_group) == reference_unbar(qbar, r_group)


def test_unbar_refusals():
    e = torsion_block(1, (3,))
    with pytest.raises(HypothesisError, match="free quasi-formation"):
        unbar(QuasiFormation(e, sub(e, (1, 0, 0), (0, 0, 1)), sub(e, (0, 1, 0))), AbGroup(0, (2,)))
    with pytest.raises(HypothesisError, match="must be torsion"):
        unbar(standard_elementary(1), AbGroup(1, (2,)))


def test_round_trip_handles_a_twisted_summand():
    e = torsion_block(1, (3,))
    q = QuasiFormation(e, sub(e, (1, 0, 0), (0, 0, 1)), sub(e, (0, 1, 1)))
    iso = bar_round_trip(q)
    assert iso.target == q.form
    assert iso.hom.apply((0, 1, 0)) == (0, 1, 1)


def test_round_trip_randomized():
    rng = random.Random(11)
    shapes = [(1, (2,)), (1, (3,)), (2, (2, 2)), (2, (2, 4)), (1, (5,))]
    for trial in range(20):
        k, torsion = shapes[trial % len(shapes)]
        mu_row = [0] * k + [1] + [0] * (k - 1)
        e = torsion_block(k, torsion, mu_row=mu_row, target=Z)
        t = len(torsion)
        lagr = sub(e, *[e.group.gen(i) for i in range(k)],
                   *[e.group.gen(2 * k + j) for j in range(t)])
        v_gens = []
        for i in range(k):
            g = list(e.group.gen(k + i))
            for j in range(k):
                g[j] += rng.randrange(-2, 3)
            if i > 0:  # keep mu zero off the first pair's partner
                pass
            for j in range(t):
                g[2 * k + j] += rng.randrange(torsion[j])
            v_gens.append(tuple(g))
        q = QuasiFormation(e, lagr, sub(e, *v_gens))
        # V is free: the free parts of its generators are V̄'s Hermite basis, which bar_round_trip lifts by them
        assert bar_reduce(q).summand.generators() == [g[: 2 * k] for g in q.summand.generators()]
        iso = bar_round_trip(q)
        assert iso.source == unbar(bar_reduce(q), AbGroup(0, torsion)).form
        assert iso.target == q.form


# -- trivialization over free coefficients -----------------------------


def test_trivialize_splits_the_worked_instance():
    g = free_group(4)
    rows = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    mu = GroupHom.from_gen_images(g, Z, [(0,), (1,), (0,), (0,)])
    e = EQForm(g, IntMatrix.from_rows(rows), mu, None)
    q = QuasiFormation(e, sub(e, (1, 0, 0, 0), (0, 0, 1, 0)), sub(e, (1, 0, 0, 0), (0, 0, 0, 1)))
    dec = l_group_trivialize(q)
    assert dec.common.generators() == [(1, 0, 0, 0)]
    assert dec.zero_part.form.rank == 2
    assert dec.hyperbolic_part.form.rank == 2
    assert replays_alike(dec.sequence)


def test_trivialize_with_equal_subgroups_has_no_hyperbolic_part():
    q = zero_formation(Z, VZ)
    dec = l_group_trivialize(q)
    assert dec.hyperbolic_part.form.rank == 0
    assert dec.common == q.lagrangian
    assert replays_alike(dec.sequence)


def test_trivialize_over_the_trivial_group():
    e = plain_h2()
    q = QuasiFormation(e, sub(e, (1, 0)), sub(e, (0, 1)))
    dec = l_group_trivialize(q)
    assert dec.common.is_zero()
    assert dec.zero_part.form.rank == 0
    assert dec.hyperbolic_part.form.rank == 2
    assert dec.hyperbolic_witness.source == dec.hyperbolic_part.form
    assert replays_alike(dec.sequence)


def test_trivialize_refusals():
    with pytest.raises(HypothesisError, match="free"):
        half = AbGroup(0, (2,))
        v = GroupHom.from_gen_images(half, Z2, [(1,)])
        l_group_trivialize(zero_formation(half, v))
    e = plain_h2()
    with pytest.raises(HypothesisError, match="lagrangian"):
        l_group_trivialize(QuasiFormation(e, sub(e, (0, 1)), sub(e, (1, 1))))


def test_trivialize_randomized_hyperbolic_parts():
    rng = random.Random(23)
    for _ in range(10):
        q = zero_formation(Z, VZ)
        for _ in range(2):
            q = qf_direct_sum(q, zero_formation(Z, VZ)) if rng.random() < 0.5 else q
        dec = l_group_trivialize(q)
        assert replays_alike(dec.sequence)
        assert dec.hyperbolic_part.form.rank % 2 == 0


# -- the three-term relation -------------------------------------------


def geometric_double():
    g = free_group(4)
    rows = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    mu = GroupHom.from_gen_images(g, Z, [(0,), (1,), (0,), (0,)])
    return EQForm(g, IntMatrix.from_rows(rows), mu, VZ)


def test_jacobi_on_the_zero_formation():
    q = zero_formation(Z, VZ)
    e = q.form
    w = jacobi_witness(e, q.lagrangian, q.lagrangian, sub(e, (3, 1)))
    res = replays_alike(w.sequence)
    assert res
    assert w.sequence.start.form == w.sequence.end.form


def test_jacobi_with_distinct_lagrangians():
    e = geometric_double()
    k = sub(e, (1, 0, 0, 0), (0, 0, 1, 0))
    l = sub(e, (1, 0, 0, 0), (0, 0, 0, 1))
    v = sub(e, (0, 1, 0, 0), (0, 0, 1, 0))
    w = jacobi_witness(e, k, l, v)
    assert replays_alike(w.sequence)
    for move in w.sequence.moves:
        assert isinstance(move, (ApplyIso, FlipL))
    # paddings are zero classes: each repeats its lagrangian as the summand
    assert w.start_padding.lagrangian == w.start_padding.summand
    for pad in w.end_paddings:
        assert pad.lagrangian == pad.summand


def test_jacobi_over_the_trivial_group():
    h2 = hyperbolic(1, ZERO_GROUP, V0)
    w = jacobi_witness(
        h2,
        SubgroupRep.from_elements(h2.group, [(0, 1)]),
        SubgroupRep.from_elements(h2.group, [(1, 0)]),
        SubgroupRep.from_elements(h2.group, [(1, 1)]),
    )
    assert replays_alike(w.sequence)


def test_jacobi_refuses_bad_hypotheses():
    e = geometric_double()
    good = sub(e, (1, 0, 0, 0), (0, 0, 1, 0))
    with pytest.raises(HypothesisError):
        jacobi_witness(e, good, good, sub(e, (0, 1, 0, 0)))  # wrong rank
    bare = plain_h2(Z, [(0,), (1,)])  # no parity data
    with pytest.raises(QformError):
        jacobi_witness(bare, sub(bare, (1, 0)), sub(bare, (1, 0)), sub(bare, (0, 1)))
    # free, full and geometric with free lagrangians, but singular
    singular = EQForm(free_group(2), IntMatrix.from_rows([[0, 2], [2, 0]]),
                      GroupHom.from_gen_images(free_group(2), Z, [(0,), (1,)]), VZ)
    with pytest.raises(HypothesisError, match="^not nonsingular: stable isomorphism$"):
        jacobi_witness(singular, sub(singular, (1, 0)), sub(singular, (1, 0)), sub(singular, (0, 1)))


def test_a_form_without_a_parity_map_is_refused_as_v_missing():
    bare = plain_h2()
    lagr, other = sub(bare, (1, 0)), sub(bare, (0, 1))
    with_v = hyperbolic(1, ZERO_GROUP, GroupHom.zero(ZERO_GROUP, Z2))
    refusals = [
        lambda: construct.stable_lagrangian_iso(bare, lagr, bare, lagr),
        lambda: construct.stable_lagrangian_iso(with_v, lagr, bare, lagr),
        lambda: ru_wall_witness(bare, lagr, FormIso.identity(bare)),
        lambda: jacobi_witness(bare, lagr, lagr, other),
    ]
    for refuse in refusals:
        with pytest.raises(VMissing, match="^v missing$"):
            refuse()


def counting(counts, name, f):
    """f, adding one to ``counts[name]`` on each call."""

    def counted(*args):
        counts[name] += 1
        return f(*args)

    return counted


def test_certificates_build_each_sum_once(monkeypatch):
    """Certificates build each sum once.

    jacobi sums (big ⊕ big) ⊕ -big once and checks each of its hypotheses once, ru-wall builds as many sums
    at rank 4 as at rank 16, and ltriv and the bar round trip sum their parts once.
    """
    counts = Counter()
    sums = counting(counts, "sums", forms.form_direct_sum)
    maps = counting(counts, "maps", abelian.direct_sum_with_maps)
    for module in (forms, construct, lmonoid):
        monkeypatch.setattr(module, "form_direct_sum", sums)
    for module in (abelian, forms, lmonoid):
        monkeypatch.setattr(module, "direct_sum_with_maps", maps)
    monkeypatch.setattr(QuasiFormation, "__post_init__", counting(counts, "checks", QuasiFormation.__post_init__))
    classify = counting(counts, "classify", forms.subgroup_classify)
    for module in (forms, construct, lmonoid):
        monkeypatch.setattr(module, "subgroup_classify", classify)
    monkeypatch.setattr(IntMatrix, "det", counting(counts, "det", IntMatrix.det))

    e = geometric_double()
    k, l, v = (sub(e, *gens) for gens in ([(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)],
                                            [(0, 1, 0, 0), (0, 0, 1, 0)]))
    zero = zero_formation(ZERO_GROUP, V0)
    # the Flip letters of the wall word are built on its outer sum, through one more sum for id ⊕ frame
    for (form, *subs), most, dets in (((e, k, l, v), 7, 3), ((zero.form, *[zero.lagrangian] * 3), 6, 2)):
        counts.clear()
        jacobi_witness(form, *subs)
        assert counts["sums"] <= most
        assert counts["checks"] == 0
        # K, L, V once each, then the wall word's metabolic basis of e ⊕ H and K̃.  Determinants: e's
        # nonsingularity (cached on the zero formation's form when it was built), that of the stable
        # iso's source, which the metabolic basis reads again from the cache, and the frame's source.
        # Each iso's bijectivity follows from its source's, and the metabolic basis's from its normal form.
        assert (counts["classify"], counts["det"]) == (4, dets)
    wall_sums = []
    for m in (2, 8):
        h = hyperbolic(m, ZERO_GROUP, V0)
        counts.clear()
        ru_wall_witness(h, hyperbolic_halves(m)[1], FormIso.identity(h))
        wall_sums.append(counts["sums"])
    assert wall_sums[0] == wall_sums[1]
    q = QuasiFormation(e, k, l)
    counts.clear()
    l_group_trivialize(q)
    assert counts["maps"] == 1
    q = unbar(zero_formation(Z, VZ), AbGroup(0, (2, 6)))
    counts.clear()
    bar_round_trip(q)
    assert counts["maps"] == 1


def test_replay_reads_each_flip_off_the_hermite_basis(monkeypatch):
    """replay of a jacobi certificate meets no subgroups, re-checks no formation and pins its Hermite bases.

    An iso move only composes the homs still to be applied to the lagrangian and the summand, so only a
    decision costs a basis.  Each of the certificate's 20 flips reads its split and its result off one basis
    of the transported lagrangian (``forms.flip_split``) and keeps the flipped basis with the witness's
    inverse; the final comparison carries the lagrangian and the summand once more.
    """
    e = geometric_double()
    k, l, v = (sub(e, *gens) for gens in ([(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)],
                                            [(0, 1, 0, 0), (0, 0, 1, 0)]))
    seq = jacobi_witness(e, k, l, v).sequence
    counts = Counter()
    hermite = counting(counts, "hermite", intmat.hermite_row_basis)
    for module in (intmat, abelian):
        monkeypatch.setattr(module, "hermite_row_basis", hermite)
    monkeypatch.setattr(SubgroupRep, "intersection", counting(counts, "meets", SubgroupRep.intersection))
    monkeypatch.setattr(QuasiFormation, "__post_init__", counting(counts, "checks", QuasiFormation.__post_init__))
    assert replay(seq)
    assert {type(m) for m in seq.moves} == {ApplyIso, FlipL}
    assert (counts["meets"], counts["checks"]) == (0, 0)
    flips = sum(isinstance(m, FlipL) for m in seq.moves)
    assert (len(seq.moves), flips) == (41, 20)
    assert counts["hermite"] == flips + 2 == 22


def is_signed_permutation(m):
    return all(len(row) == 1 and abs(row[0][1]) == 1 for row in m.sparse) and sorted(
        row[0][0] for row in m.sparse
    ) == list(range(m.cols))


def test_jacobi_certificates_merge_their_iso_moves():
    """A certificate never holds two adjacent iso moves, and inside a run of flips each is a signed permutation.

    The rank-4 geometric_double certificate's word has four runs of five Flip letters.  Between two flips
    of a run the witnesses' shared conjugation cancels, so the iso move is σ∘P_j∘P_i⁻¹; only the first
    and the last move and the three crossings of Keep letters are products.  On the rank-0 zero
    formation the word has no Flip letter, and the certificate is one iso move.
    """
    e = geometric_double()
    k, l, v = (sub(e, *gens) for gens in ([(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)],
                                            [(0, 1, 0, 0), (0, 0, 1, 0)]))
    seq = jacobi_witness(e, k, l, v).sequence
    assert replay(seq)
    isos = [i for i, m in enumerate(seq.moves) if isinstance(m, ApplyIso)]
    assert (len(seq.moves), len(isos)) == (41, 21)
    assert isos == list(range(0, 41, 2))
    assert [i for i in isos if not is_signed_permutation(seq.moves[i].iso.hom.matrix)] == [0, 10, 20, 30, 40]
    q = zero_formation(ZERO_GROUP, V0)
    seq = jacobi_witness(q.form, q.lagrangian, q.lagrangian, q.lagrangian).sequence
    assert replay(seq)
    assert [type(m) for m in seq.moves] == [ApplyIso]


# the functions that build a permutation isomorphism or the inverse of one
PERMUTATION_SITES = {
    ("qform.forms", "permuted"),
    ("qform.forms", "_permuted_onto"),
    ("qform.forms", "_swap_blocks"),
    ("qform.lmonoid", "_owed_iso"),
    ("qform.lmonoid", "_permutation_between"),
}


def test_jacobi_inverts_each_permutation_as_a_permutation(monkeypatch):
    """The rank-4 geometric_double certificate transposes no matrix where it builds a permutation isomorphism.

    P⁻¹ is the permutation of ``inverse_permutation(perm)``, in ``forms._permuted_onto`` and in
    ``lmonoid._owed_iso``.  The certificate still transposes elsewhere (pullbacks, products of frames), and
    the count sees those calls.
    """
    callers = Counter()
    transpose = IntMatrix.transpose

    def counted(m):
        caller = sys._getframe(1)
        callers[caller.f_globals["__name__"], caller.f_code.co_name] += 1
        return transpose(m)

    monkeypatch.setattr(IntMatrix, "transpose", counted)
    e = geometric_double()
    k, l, v = (sub(e, *gens) for gens in ([(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)],
                                            [(0, 1, 0, 0), (0, 0, 1, 0)]))
    assert len(jacobi_witness(e, k, l, v).sequence.moves) == 41
    assert sum(callers.values()) > 0
    assert {site: n for site, n in callers.items() if site in PERMUTATION_SITES} == {}


def test_a_stabilization_computes_no_hermite_basis(monkeypatch):
    """Stab(1) on the rank-0 formation writes the halves of H_2 down and sums bases it holds: no Hermite basis."""
    q = zero_formation(ZERO_GROUP, V0)
    counts = Counter()
    hermite = counting(counts, "hermite", intmat.hermite_row_basis)
    for module in (intmat, abelian):
        monkeypatch.setattr(module, "hermite_row_basis", hermite)
    stabbed = apply_move(q, Stab(1))
    assert counts["hermite"] == 0
    assert stabbed == standard_elementary(1, ZERO_GROUP, V0)


def test_replay_agrees_with_folding_apply_move_on_single_entry_mutations():
    """replay defers its transports, yet judges every one-move change of a certificate as the fold does.

    The base is the rank-4 geometric_double certificate with ℋ_2 stabilized on and split off again
    after move 30, so that stab and destab moves are among those changed.  At each index tried one move is
    dropped, repeated, replaced by a stabilization, by a trivial destabilization or by an iso move along
    its inverse (a stab or destab by a larger stabilization), turned from a flip into an iso move or back,
    or a stabilization or a trivial destabilization is inserted before it.
    """
    e = geometric_double()
    k, l, v = (sub(e, *gens) for gens in ([(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)],
                                            [(0, 1, 0, 0), (0, 0, 1, 0)]))
    seq = jacobi_witness(e, k, l, v).sequence
    q = reduce(apply_move, seq.moves[:30], seq.start)
    stabbed = apply_move(q, Stab(1))
    moves = seq.moves[:30] + (Stab(1), Destab(q, 1, FormIso.identity(stabbed.form))) + seq.moves[30:]
    states = list(accumulate(moves, apply_move, initial=seq.start))  # states[i] is the start of move i
    assert replays_alike(MoveSequence(seq.start, seq.end, moves))
    assert not replays_alike(MoveSequence(seq.start, seq.start, moves))

    def trivial_destab(q):
        return Destab(q, 0, FormIso.identity(q.form))

    def other_kind(move):
        if isinstance(move, FlipL):
            return ApplyIso(move.witness)
        if isinstance(move, ApplyIso):
            return FlipL(move.iso)
        return trivial_destab(states[0])

    def inverted(move):
        if isinstance(move, (ApplyIso, FlipL)):
            iso = move.iso if isinstance(move, ApplyIso) else move.witness
            return ApplyIso(iso.inverse())
        return Stab(move.pairs + 1)

    outcomes = Counter()
    # every fourth move, and each move from the one before the stabilization to the one after the destabilization
    for i in sorted(set(range(0, len(moves), 4)) | set(range(29, 33))):
        move, head, tail = moves[i], moves[:i], moves[i + 1 :]
        for changed in (
            head + tail,
            head + (move, move) + tail,
            head + (Stab(1),) + tail,
            head + (Stab(1), move) + tail,
            head + (trivial_destab(states[i]), move) + tail,
            head + (trivial_destab(states[i + 1]),) + tail,
            head + (inverted(move),) + tail,
            head + (other_kind(move),) + tail,
        ):
            res = replays_alike(MoveSequence(seq.start, seq.end, changed))
            outcomes[res.ok, res.failed_index is None] += 1
    # accepted changes, refusals at a move and refusals at the end all occur
    assert set(outcomes) == {(True, True), (False, False), (False, True)}, outcomes


def test_sequence_documents_write_each_form_object_once(monkeypatch):
    """sequence_to_doc turns each form value and each isomorphism value of a certificate into a dict once.

    The 41 moves of the rank-4 geometric_double certificate name 82 forms, start and end two more, but
    only 2 form values: the ambient of start and end, and the split form every flip works in.  Their 41
    isomorphisms hold 10 values.  Every later occurrence of a value reuses its dict, and each move's
    target is the next move's source.
    """
    e = geometric_double()
    k, l, v = (sub(e, *gens) for gens in ([(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)],
                                            [(0, 1, 0, 0), (0, 0, 1, 0)]))
    seq = jacobi_witness(e, k, l, v).sequence
    counts = Counter()
    monkeypatch.setattr(serialize, "form_to_doc", counting(counts, "forms", serialize.form_to_doc))
    doc = sequence_to_doc(seq)
    assert len(seq.moves) == 41
    assert counts["forms"] == 2
    isos = [m["iso"] if m["move"] == "iso" else m["witness"] for m in doc["moves"]]
    assert len({id(d) for d in isos}) == 10
    assert sum(a["target"] is b["source"] for a, b in zip(isos, isos[1:])) == 40


def test_sequence_documents_read_each_form_value_once(monkeypatch):
    """sequence_from_doc decodes each distinct form value of a certificate once, however often it repeats.

    After a JSON round trip no dict is shared any more: the 84 form dicts of the rank-4 geometric_double
    certificate are copies of two values, and each later copy reuses the form its first copy was read to.
    """
    e = geometric_double()
    k, l, v = (sub(e, *gens) for gens in ([(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)],
                                            [(0, 1, 0, 0), (0, 0, 1, 0)]))
    seq = jacobi_witness(e, k, l, v).sequence
    doc = json.loads(json.dumps(sequence_to_doc(seq)))
    counts = Counter()
    monkeypatch.setattr(serialize, "form_from_doc", counting(counts, "forms", serialize.form_from_doc))
    forms = [doc["start"]["form"], doc["end"]["form"]]
    forms += [m["iso" if m["move"] == "iso" else "witness"][end] for m in doc["moves"] for end in ("source", "target")]
    distinct = []
    for f in forms:
        if f not in distinct:
            distinct.append(f)
    assert (len(forms), len(distinct)) == (84, 2)
    assert sequence_from_doc(doc) == seq
    assert counts["forms"] == len(distinct)


def test_sequence_documents_read_each_iso_value_once(monkeypatch):
    """sequence_from_doc checks each distinct isomorphism value of a certificate once, however often it repeats.

    The 41 iso dicts of the rank-4 geometric_double certificate, no longer shared after a JSON round trip,
    are copies of 10 values; FormIso's public constructor runs once per value, and each later copy
    reuses the isomorphism its first copy was read to, with its cached inverse.
    """
    e = geometric_double()
    k, l, v = (sub(e, *gens) for gens in ([(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)],
                                            [(0, 1, 0, 0), (0, 0, 1, 0)]))
    seq = jacobi_witness(e, k, l, v).sequence
    doc = json.loads(json.dumps(sequence_to_doc(seq)))
    counts = Counter()
    monkeypatch.setattr(FormIso, "__post_init__", counting(counts, "isos", FormIso.__post_init__))
    back = sequence_from_doc(doc)
    assert back == seq
    isos = [m.iso if isinstance(m, ApplyIso) else m.witness for m in back.moves]
    assert (len(isos), len(set(map(id, isos))), counts["isos"]) == (41, 10, 10)


def test_sequence_documents_compute_one_determinant_per_form_value(monkeypatch):
    """Decoding a certificate computes each form value's determinant once and no iso's.

    Every iso of the rank-4 geometric_double certificate is square out of a nonsingular form, so the
    pullback check makes det h = ±1; each of the two form objects the reader hands out caches whether it
    is nonsingular (12 determinants without the cache: the start's and the end's checks, and one per
    distinct iso value).
    """
    e = geometric_double()
    k, l, v = (sub(e, *gens) for gens in ([(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)],
                                            [(0, 1, 0, 0), (0, 0, 1, 0)]))
    seq = jacobi_witness(e, k, l, v).sequence
    doc = json.loads(json.dumps(sequence_to_doc(seq)))
    counts = Counter()
    monkeypatch.setattr(IntMatrix, "det", counting(counts, "det", IntMatrix.det))
    assert sequence_from_doc(doc) == seq
    assert len(seq.moves) == 41
    assert counts["det"] == 2
