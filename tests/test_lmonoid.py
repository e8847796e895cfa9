"""Tests for quasi-formations, moves, torsion reduction and witnesses."""

import json
import random
import time
from collections import Counter
from math import gcd

import pytest

from qform import abelian, cli, construct, forms, intmat, lmonoid, serialize
from qform.abelian import AbGroup, GroupHom, SubgroupRep, Z2, ZERO_GROUP, free_group
from qform.construct import Flip, RUWord, ru_wall_witness, ru_word_eval
from qform.errors import HypothesisError, NodeLimitExceeded, QformError
from qform.forms import EQForm, FormIso, hyperbolic, hyperbolic_halves, subgroup_classify
from qform.intmat import IntMatrix
from qform.lmonoid import (
    ApplyIso,
    Destab,
    FlipL,
    MoveSequence,
    QuasiFormation,
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
from qform.serialize import sequence_to_doc

Z = free_group(1)
VZ = GroupHom.zero(Z, Z2)
V0 = GroupHom.zero(ZERO_GROUP, Z2)


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
            g = gcd(g, q.form.lam(x, y))
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


def test_replay_empty_sequence():
    q = standard_elementary(1)
    assert replay(MoveSequence(q, q, ()))
    other = zero_formation(ZERO_GROUP, V0)
    res = replay(MoveSequence(q, other, ()))
    assert not res
    assert res.reason == "result differs from the declared end"


def test_stab_then_destab_is_the_identity():
    q = standard_elementary(1)
    stabbed = apply_move(q, Stab())
    witness = FormIso.identity(stabbed.form)
    seq = MoveSequence(q, q, (Stab(), Destab(q, 1, witness)))
    res = replay(seq)
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
    assert replay(MoveSequence(q, end, (Stab(1), Stab(1))), node_limit=price)
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
    res = replay(MoveSequence(q, q, (Stab(), Destab(q, 1, bad))))
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
    assert replay(MoveSequence(q, expected, (FlipL(plane_swap(e)),)))


def test_flip_with_unsplit_lagrangian_fails_with_index():
    e = double_h2()
    q = QuasiFormation(e, sub(e, (0, 1, 0, 0), (0, 0, 1, 0)), sub(e, (1, 0, 0, 0), (0, 0, 0, 1)))
    res = replay(MoveSequence(q, q, (FlipL(plane_swap(e)),)))
    assert not res
    assert res.failed_index == 0
    assert "split" in res.reason


def test_flip_refuses_a_lagrangian_holding_twice_b_but_not_b():
    # no T-lagrangian holds 2·b without b, a summand being pure, so the start is built unchecked:
    # the move's own split test must refuse it, at its index
    e = double_h2()
    q = QuasiFormation._unchecked(e, sub(e, (0, 2, 0, 0), (0, 0, 0, 1)), sub(e, (1, 0, 0, 0), (0, 0, 1, 0)))
    res = replay(MoveSequence(q, q, (ApplyIso(FormIso.identity(e)), FlipL(FormIso.identity(e)))))
    assert not res
    assert res.failed_index == 1
    assert res.reason == "lagrangian does not split as ({0} × Z) ⊕ L'"


def test_flip_refuses_a_lagrangian_with_a_row_leading_at_a():
    # L = ⟨a1 + b2, a2 - b1⟩ holds b1 - a2 but not b1, and meets the rest in 0
    e = double_h2()
    q = QuasiFormation(e, sub(e, (1, 0, 0, 1), (0, -1, 1, 0)), sub(e, (1, 0, 0, 0), (0, 0, 1, 0)))
    assert q.lagrangian.lattice[0][0] == (0, 1)
    res = replay(MoveSequence(q, q, (FlipL(FormIso.identity(e)),)))
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
    res = replay(MoveSequence(q, q, (ApplyIso(foreign),)))
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
    assert replay(dec.sequence)


def test_trivialize_with_equal_subgroups_has_no_hyperbolic_part():
    q = zero_formation(Z, VZ)
    dec = l_group_trivialize(q)
    assert dec.hyperbolic_part.form.rank == 0
    assert dec.common == q.lagrangian
    assert replay(dec.sequence)


def test_trivialize_over_the_trivial_group():
    e = plain_h2()
    q = QuasiFormation(e, sub(e, (1, 0)), sub(e, (0, 1)))
    dec = l_group_trivialize(q)
    assert dec.common.is_zero()
    assert dec.zero_part.form.rank == 0
    assert dec.hyperbolic_part.form.rank == 2
    assert dec.hyperbolic_witness.source == dec.hyperbolic_part.form
    assert replay(dec.sequence)


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
        assert replay(dec.sequence)
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
    res = replay(w.sequence)
    assert res
    assert w.sequence.start.form == w.sequence.end.form


def test_jacobi_with_distinct_lagrangians():
    e = geometric_double()
    k = sub(e, (1, 0, 0, 0), (0, 0, 1, 0))
    l = sub(e, (1, 0, 0, 0), (0, 0, 0, 1))
    v = sub(e, (0, 1, 0, 0), (0, 0, 1, 0))
    w = jacobi_witness(e, k, l, v)
    assert replay(w.sequence)
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
    assert replay(w.sequence)


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
    for module in (abelian, forms, construct, lmonoid):
        monkeypatch.setattr(module, "direct_sum_with_maps", maps)
    monkeypatch.setattr(QuasiFormation, "__post_init__", counting(counts, "checks", QuasiFormation.__post_init__))
    classify = counting(counts, "classify", forms.subgroup_classify)
    for module in (forms, construct, lmonoid):
        monkeypatch.setattr(module, "subgroup_classify", classify)
    monkeypatch.setattr(EQForm, "is_nonsingular", counting(counts, "nonsingular", EQForm.is_nonsingular))

    e = geometric_double()
    k, l, v = (sub(e, *gens) for gens in ([(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)],
                                            [(0, 1, 0, 0), (0, 0, 1, 0)]))
    zero = zero_formation(ZERO_GROUP, V0)
    # the Flip letters of the wall word are built on its outer sum, through one more sum for id ⊕ frame
    for (form, *subs), most in (((e, k, l, v), 7), ((zero.form, *[zero.lagrangian] * 3), 6)):
        counts.clear()
        jacobi_witness(form, *subs)
        assert counts["sums"] <= most
        assert counts["checks"] == 0
        # K, L, V and e's determinant once each, then the wall word's metabolic basis of e ⊕ H and K̃
        assert (counts["classify"], counts["nonsingular"]) == (4, 2)
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

    A flip move reads its split and its result off the transported lagrangian's basis (``forms.flip_split``),
    so every move costs two bases: an iso transports lagrangian and summand, a flip transports the lagrangian
    and pulls the flipped one back.
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
    assert counts["hermite"] == 2 * len(seq.moves) == 132


def test_sequence_documents_write_each_form_object_once(monkeypatch):
    """sequence_to_doc turns each form object of a certificate into a dict once.

    The 66 moves of the rank-4 geometric_double certificate name 132 forms, start and end two more, but
    only 7 form objects: every later occurrence of one reuses its dict, and each move's target is the
    next move's source at all but one boundary.
    """
    e = geometric_double()
    k, l, v = (sub(e, *gens) for gens in ([(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)],
                                            [(0, 1, 0, 0), (0, 0, 1, 0)]))
    seq = jacobi_witness(e, k, l, v).sequence
    counts = Counter()
    monkeypatch.setattr(serialize, "form_to_doc", counting(counts, "forms", serialize.form_to_doc))
    doc = sequence_to_doc(seq)
    assert len(seq.moves) == 66
    assert counts["forms"] <= 7
    isos = [m["iso"] if m["move"] == "iso" else m["witness"] for m in doc["moves"]]
    assert sum(a["target"] is b["source"] for a, b in zip(isos, isos[1:])) == 64
