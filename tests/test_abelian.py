"""Tests for finitely generated abelian groups, subgroups and matching."""

import itertools
import random

import pytest

from qform.abelian import (
    AbGroup,
    DirectSum,
    GroupHom,
    SubgroupRep,
    direct_complement,
    direct_sum_with_maps,
    free_group,
    group_from_presentation,
    group_solver,
    invert_iso,
    is_direct_summand,
    match_surjections,
    quotient_with_projection,
    solve_in_group,
    summand_test,
    torsion_subgroup,
)
from qform.errors import HypothesisError, NotASummand
from qform.intmat import IntMatrix, int_solve


def enumerate_elements(g: AbGroup, free_bound: int = 2):
    """All elements with free coordinates in [-bound, bound]."""
    ranges = [range(-free_bound, free_bound + 1)] * g.free_rank
    ranges += [range(d) for d in g.torsion]
    return [g.reduce(v) for v in itertools.product(*ranges)]


# -- group basics ------------------------------------------------------


def test_group_validation():
    with pytest.raises(Exception):
        AbGroup(0, (1,))
    with pytest.raises(Exception):
        AbGroup(0, (3, 2))
    with pytest.raises(Exception):
        AbGroup(-1, ())
    AbGroup(2, (2, 4))  # fine


def test_reduce_and_arithmetic():
    g = AbGroup(1, (2, 4))
    assert g.reduce((5, 3, 9)) == (5, 1, 1)
    assert g.add((1, 1, 3), (2, 1, 2)) == (3, 0, 1)
    assert g.neg((1, 1, 1)) == (-1, 1, 3)
    assert g.smul(4, (1, 1, 1)) == (4, 0, 0)
    assert g.is_zero_element((0, 2, 4))
    assert not g.is_zero_element((0, 1, 0))


def test_element_order():
    g = AbGroup(1, (2,))
    assert g.element_order_divides((0, 1), 2)
    assert not g.element_order_divides((0, 1), 1)
    assert not g.element_order_divides((1, 0), 5)
    assert g.element_order_divides((0, 0), 1)


# -- subgroup representation ------------------------------------------


def test_subgroup_canonical_under_shuffle():
    g = AbGroup(2, (4,))
    gens = [(1, 2, 3), (0, 4, 1), (2, 0, 2)]
    rng = random.Random(11)
    base = SubgroupRep.from_elements(g, gens)
    for _ in range(10):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scaled = shuffled + [g.add(shuffled[0], shuffled[1])]
        assert SubgroupRep.from_elements(g, scaled) == base


def test_subgroup_membership_small_group():
    g = AbGroup(0, (2, 4))
    s = SubgroupRep.from_elements(g, [(1, 2)])
    inside = {x for x in enumerate_elements(g) if s.contains(x)}
    assert inside == {(0, 0), (1, 2)}
    assert s.rank == 0
    assert not s.is_free()  # contains the order-2 element (1, 2)


def test_subgroup_rank_mixed():
    g = AbGroup(2, (2,))
    s = SubgroupRep.from_elements(g, [(1, 0, 0), (0, 0, 1)])
    assert s.rank == 1
    assert s.contains_subgroup(torsion_subgroup(g))
    t = SubgroupRep.from_elements(g, [(1, 1, 0)])
    assert t.rank == 1
    assert t.is_free()


def test_intersection_and_sum_by_enumeration():
    g = AbGroup(0, (2, 8))
    rng = random.Random(5)
    elems = enumerate_elements(g)
    for _ in range(25):
        s1 = SubgroupRep.from_elements(g, rng.sample(elems, 2))
        s2 = SubgroupRep.from_elements(g, rng.sample(elems, 2))
        meet = s1.intersection(s2)
        for x in elems:
            assert meet.contains(x) == (s1.contains(x) and s2.contains(x))
        join = s1.sum(s2)
        spanned = set()
        for x in elems:
            for y in elems:
                if s1.contains(x) and s2.contains(y):
                    spanned.add(g.add(x, y))
        for x in elems:
            assert join.contains(x) == (x in spanned)


def test_transport_and_preimage():
    src = free_group(2)
    tgt = AbGroup(1, (2,))
    h = GroupHom.from_gen_images(src, tgt, [(1, 0), (1, 1)])
    s = SubgroupRep.from_elements(tgt, [(2, 0)])
    pre = s.preimage(h)
    for x in itertools.product(range(-3, 4), repeat=2):
        assert pre.contains(x) == s.contains(h.apply(x))
    # image of the preimage lands back inside s
    assert s.contains_subgroup(pre.transport(h))


def test_preimage_of_zero_is_kernel():
    src = free_group(1)
    tgt = AbGroup(0, (2,))
    h = GroupHom.from_gen_images(src, tgt, [(1,)])
    pre = SubgroupRep.zero(tgt).preimage(h)
    assert pre == h.kernel()
    assert pre.contains((2,)) and not pre.contains((1,))


# -- quotients ---------------------------------------------------------


def test_quotient_z2_by_2e1():
    g = free_group(2)
    b = SubgroupRep.from_elements(g, [(2, 0)])
    quot, proj = quotient_with_projection(b)
    assert quot == AbGroup(1, (2,))
    assert proj.kernel() == b
    assert proj.is_surjective()
    assert proj.apply((2, 0)) == quot.zero()
    assert not quot.is_zero_element(proj.apply((1, 0)))
    assert quot.is_zero_element(quot.smul(2, proj.apply((1, 0))))


def test_quotient_z_by_2z():
    g = free_group(1)
    b = SubgroupRep.from_elements(g, [(2,)])
    quot, proj = quotient_with_projection(b)
    assert quot == AbGroup(0, (2,))
    assert proj.apply((1,)) == (1,)
    assert proj.apply((2,)) == (0,)


def test_quotient_by_zero_is_iso():
    g = AbGroup(2, (3,))
    quot, proj = quotient_with_projection(SubgroupRep.zero(g))
    assert quot == g
    inv = invert_iso(proj)
    assert proj.compose(inv) == GroupHom.identity(quot)
    assert inv.compose(proj) == GroupHom.identity(g)


def test_presentation_normalizes():
    quot, proj = group_from_presentation(3, [(1, -1, 0), (0, 2, 2)])
    assert quot == AbGroup(1, (2,))
    assert proj.apply((1, -1, 0)) == quot.zero()
    assert proj.apply((0, 2, 2)) == quot.zero()


# -- homs --------------------------------------------------------------


def test_hom_well_definedness_enforced():
    src = AbGroup(0, (2,))
    tgt = free_group(1)
    with pytest.raises(Exception):
        GroupHom.from_gen_images(src, tgt, [(1,)])  # 2*1 != 0 in Z
    GroupHom.from_gen_images(src, AbGroup(0, (4,)), [(2,)])  # 2*2 = 0 mod 4


def test_solve_in_group():
    h = GroupHom.from_gen_images(free_group(1), AbGroup(0, (2,)), [(1,)])
    x = solve_in_group(h, (1,))
    assert x is not None and h.apply(x) == (1,)
    miss = GroupHom.from_gen_images(free_group(1), AbGroup(0, (4,)), [(2,)])
    assert solve_in_group(miss, (1,)) is None
    assert solve_in_group(miss, (2,)) is not None


def test_kernel_and_surjectivity():
    h = GroupHom.from_gen_images(free_group(2), AbGroup(1, (2,)), [(1, 0), (0, 1)])
    assert h.is_surjective()
    ker = h.kernel()
    for x in itertools.product(range(-2, 3), repeat=2):
        assert ker.contains(x) == (h.apply(x) == (0, 0))


def test_invert_iso_roundtrip():
    g = AbGroup(1, (2, 4))
    # an automorphism: swap nothing, shear the free part into torsion
    h = GroupHom.from_gen_images(g, g, [(1, 1, 3), (0, 1, 0), (0, 0, 1)])
    inv = invert_iso(h)
    assert h.compose(inv) == GroupHom.identity(g)
    assert inv.compose(h) == GroupHom.identity(g)


# -- summands ----------------------------------------------------------


def test_summand_basics():
    z = free_group(1)
    two_z = SubgroupRep.from_elements(z, [(2,)])
    assert not is_direct_summand(two_z)
    with pytest.raises(NotASummand):
        direct_complement(two_z)

    z2 = free_group(2)
    diag = SubgroupRep.from_elements(z2, [(1, 1)])
    comp = direct_complement(diag)
    assert diag.intersection(comp).is_zero()
    assert diag.sum(comp).is_full()

    index_two = SubgroupRep.from_elements(z2, [(2, 0), (0, 1)])
    assert not is_direct_summand(index_two)


def test_summand_in_torsion_group():
    g = AbGroup(0, (4,))
    sub = SubgroupRep.from_elements(g, [(2,)])
    assert not is_direct_summand(sub)

    g2 = AbGroup(0, (2, 4))
    diag = SubgroupRep.from_elements(g2, [(1, 1)])
    comp = direct_complement(diag)
    assert diag.intersection(comp).is_zero()
    assert diag.sum(comp).is_full()


def test_summand_vs_free_quotient():
    # a summand whose quotient is not free: the two notions differ
    g = AbGroup(1, (2,))
    b = SubgroupRep.from_elements(g, [(1, 1)])
    assert is_direct_summand(b)
    assert not summand_test(b)
    # and one where the quotient is free
    c = SubgroupRep.from_elements(g, [(1, 0), (0, 1)])
    assert summand_test(c)


def test_direct_complement_randomized():
    rng = random.Random(23)
    g = AbGroup(2, (2,))
    for _ in range(20):
        # a genuine summand: image of some generators under an automorphism
        shear = GroupHom.from_gen_images(
            g,
            g,
            [
                (1, 0, rng.randrange(2)),
                (rng.choice([-1, 0, 1]), 1, rng.randrange(2)),
                (0, 0, 1),
            ],
        )
        b = SubgroupRep.from_elements(g, [shear.apply(g.gen(0))])
        comp = direct_complement(b)
        assert b.intersection(comp).is_zero()
        assert b.sum(comp).is_full()


# -- direct sums -------------------------------------------------------


def test_direct_sum_free():
    ds = direct_sum_with_maps(free_group(2), free_group(1))
    assert ds.group == free_group(3)
    assert ds.incl_a.apply((1, 0)) == (1, 0, 0)
    assert ds.incl_b.apply((1,)) == (0, 0, 1)
    assert ds.proj_a.apply((4, 5, 6)) == (4, 5)
    assert ds.proj_b.apply((4, 5, 6)) == (6,)


def test_direct_sum_renormalizes_torsion():
    ds = direct_sum_with_maps(AbGroup(0, (2,)), AbGroup(0, (3,)))
    assert ds.group == AbGroup(0, (6,))
    x = ds.incl_a.apply((1,))
    y = ds.incl_b.apply((1,))
    assert ds.group.element_order_divides(x, 2)
    assert not ds.group.element_order_divides(x, 1)
    assert ds.group.element_order_divides(y, 3)
    assert ds.proj_a.apply(x) == (1,)
    assert ds.proj_b.apply(y) == (1,)
    assert ds.proj_a.apply(y) == (0,)


def test_direct_sum_mixed():
    a = AbGroup(1, (2,))
    b = AbGroup(0, (2, 4))
    ds = direct_sum_with_maps(a, b)
    assert ds.group == AbGroup(1, (2, 2, 4))
    # biproduct identities are verified inside the constructor; spot-check
    for x in [(0, 1), (1, 0), (1, 1)]:
        assert ds.proj_a.apply(ds.incl_a.apply(x)) == a.reduce(x)


# -- matching surjections ---------------------------------------------


def test_match_strict_free_target():
    f = GroupHom.from_gen_images(free_group(2), free_group(1), [(1,), (0,)])
    g = GroupHom.from_gen_images(free_group(2), free_group(1), [(0,), (1,)])
    m = match_surjections(f, g, mode="strict")
    assert m.f_extra == free_group(0) and m.g_extra == free_group(0)
    assert g.compose(m.iso) == f
    assert m.iso.matrix.is_unimodular()


def test_match_stable_z_onto_z2():
    target = AbGroup(0, (2,))
    f = GroupHom.from_gen_images(free_group(1), target, [(1,)])
    g = GroupHom.from_gen_images(free_group(1), target, [(1,)])
    m = match_surjections(f, g)
    # kernel of g is 2Z, so the free cover has rank 1
    assert m.g_extra == free_group(2)
    assert m.f_extra == free_group(2)
    n = m.iso.source.free_rank
    assert m.iso.matrix.is_unimodular() and m.iso.matrix.rows == n


def test_match_hypotheses():
    f = GroupHom.from_gen_images(free_group(1), free_group(1), [(1,)])
    g2 = GroupHom.from_gen_images(free_group(1), free_group(1), [(2,)])
    with pytest.raises(HypothesisError):
        match_surjections(f, g2)  # g not surjective
    h = GroupHom.from_gen_images(free_group(1), AbGroup(0, (2,)), [(1,)])
    with pytest.raises(HypothesisError):
        match_surjections(f, h)  # different targets
    with pytest.raises(HypothesisError):
        match_surjections(h, h, mode="strict")  # torsion target
    wide = GroupHom.from_gen_images(free_group(2), free_group(1), [(1,), (0,)])
    with pytest.raises(HypothesisError):
        match_surjections(f, wide, mode="strict")  # rank mismatch


def random_surjection(rng, target):
    """Surjection from a free group built as [change of basis | junk]."""
    n = target.num_gens
    extra = rng.randrange(0, 3)
    cols = [list(target.gen(i)) for i in range(n)]
    for _ in range(extra):
        cols.append([rng.randrange(-3, 4) for _ in range(n)])
    rng.shuffle(cols)
    return GroupHom.from_gen_images(free_group(n + extra), target, cols)


@pytest.mark.parametrize(
    "torsion,rank",
    [((), 1), ((), 2), ((2,), 0), ((2,), 1), ((2, 4), 0)],
)
def test_match_stable_randomized(torsion, rank):
    rng = random.Random(hash((torsion, rank)) & 0xFFFF)
    target = AbGroup(rank, torsion)
    for _ in range(8):
        f = random_surjection(rng, target)
        g = random_surjection(rng, target)
        m = match_surjections(f, g)
        # the identity (f+0) = (g+0) ∘ h is checked inside; confirm shape
        assert m.iso.source.free_rank == f.source.free_rank + m.f_extra.free_rank
        assert m.iso.target.free_rank == g.source.free_rank + m.g_extra.free_rank
        assert m.iso.source.free_rank == m.iso.target.free_rank


def test_match_strict_randomized():
    rng = random.Random(77)
    target = free_group(2)
    for _ in range(10):
        # surjections of equal source rank 4
        def surj():
            cols = [list(target.gen(0)), list(target.gen(1))]
            cols.append([rng.randrange(-3, 4) for _ in range(2)])
            cols.append([rng.randrange(-3, 4) for _ in range(2)])
            rng.shuffle(cols)
            return GroupHom.from_gen_images(free_group(4), target, cols)

        f, g = surj(), surj()
        m = match_surjections(f, g, mode="strict")
        assert g.compose(m.iso) == f


# -- factor-once solving against one solve per right-hand side ---------

GROUPS = [free_group(2), AbGroup(0, (2, 4)), AbGroup(1, (2,)), AbGroup(2, (3, 6)), AbGroup(1, (2, 2, 4))]


def random_endomorphism(rng, g):
    """A product of shears, sign changes and the odd doubling of a generator."""
    r, n = g.free_rank, g.num_gens
    h = GroupHom.identity(g)
    for _ in range(rng.randint(1, 6)):
        i, j = rng.randrange(n), rng.randrange(n)
        cols = [list(x) for x in g.gens()]
        kind = rng.randrange(10)
        if kind < 7 and i != j and (j < r or r <= i <= j):
            cols[j][i] += rng.choice([-2, -1, 1, 2])  # gen_j -> gen_j + c gen_i stays well defined
        elif kind < 9:
            cols[i][i] = -1
        else:
            cols[i][i] = 2  # not bijective
        h = GroupHom.from_gen_images(g, g, cols).compose(h)
    return h


def invert_one_solve_at_a_time(h):
    """invert_iso on groups with torsion, with one fresh solve per generator."""
    cols = [solve_in_group(h, g) for g in h.target.gens()]
    if any(x is None for x in cols):
        raise HypothesisError("not surjective", "hom has no preimage for a target generator")
    inv = GroupHom.from_gen_images(h.target, h.source, cols)
    if inv.compose(h) != GroupHom.identity(h.source) or h.compose(inv) != GroupHom.identity(h.target):
        raise HypothesisError("not bijective", "hom has a right inverse but is not invertible")
    return inv


def outcome(fn, *args):
    try:
        return fn(*args)
    except (HypothesisError, NotASummand) as exc:
        return type(exc), str(exc)


def test_group_solver_matches_fresh_solves():
    rng = random.Random(41)
    for g in GROUPS:
        for _ in range(10):
            h = random_endomorphism(rng, g)
            solve = group_solver(h)
            for _ in range(6):
                y = [rng.randint(-4, 4) for _ in range(g.num_gens)]
                x = solve(y)
                assert x == solve_in_group(h, y)
                assert x is None or h.apply(x) == g.reduce(y)


def test_invert_iso_matches_one_solve_per_generator():
    rng = random.Random(43)
    inverted = 0
    for g in GROUPS:
        for _ in range(15):
            h = random_endomorphism(rng, g)
            got = outcome(invert_iso, h)
            if g.is_free:
                if isinstance(got, GroupHom):
                    assert h.compose(got) == GroupHom.identity(g)
                else:
                    assert got == (HypothesisError, "not bijective: free-group hom with non-unimodular matrix")
            else:
                assert got == outcome(invert_one_solve_at_a_time, h)
            inverted += isinstance(got, GroupHom)
    assert 20 < inverted < 75  # both outcomes are exercised


def complement_one_solve_at_a_time(b):
    """direct_complement with one fresh factorization per quotient generator."""
    amb = b.ambient
    quot, proj = quotient_with_projection(b)
    lifts = []
    for i, g in enumerate(quot.gens()):
        order = 0 if i < quot.free_rank else quot.torsion[i - quot.free_rank]
        if order == 0:
            x = solve_in_group(proj, g)
        else:
            stacked = proj.matrix.vstack(IntMatrix.identity(amb.num_gens).scale(order))
            cols = [list(r) + [0] * amb.num_gens for r in quot.relation_rows()]
            cols += [[0] * quot.num_gens + list(r) for r in amb.relation_rows()]
            block = stacked.hstack(IntMatrix.from_columns(cols, rows=stacked.rows)) if cols else stacked
            sol = int_solve(block, list(g) + list(amb.zero()))
            if sol is None:
                raise NotASummand("no section: subgroup is not a direct summand")
            x = amb.reduce(sol[: amb.num_gens])
        lifts.append(x)
    comp = SubgroupRep.from_elements(amb, lifts)
    if not b.intersection(comp).is_zero() or not b.sum(comp).is_full():
        raise NotASummand("computed section does not split the ambient group")
    return comp


def test_direct_complement_matches_one_solve_per_generator():
    rng = random.Random(47)
    summands = 0
    for g in GROUPS:
        for _ in range(15):
            h = random_endomorphism(rng, g)
            gens = [h.apply(x) for x in rng.sample(g.gens(), rng.randint(0, g.num_gens))]
            b = SubgroupRep.from_elements(g, gens)
            got = outcome(direct_complement, b)
            assert got == outcome(complement_one_solve_at_a_time, b)
            summands += isinstance(got, SubgroupRep)
    assert 10 < summands < 75
