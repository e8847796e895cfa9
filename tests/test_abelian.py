"""Tests for finitely generated abelian groups, subgroups and matching."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from qform import abelian, intmat
from qform.abelian import (
    AbGroup,
    GroupHom,
    SubgroupRep,
    direct_complement,
    direct_sum_with_maps,
    free_group,
    group_solver,
    invert_iso,
    is_direct_summand,
    match_surjections,
    quotient_with_projection,
    solve_in_group,
    torsion_subgroup,
)
from qform.errors import HypothesisError, NotASummand
from qform.intmat import (
    IntMatrix,
    dense_row,
    hermite_row_basis,
    int_nullspace,
    int_solve,
    lattice_contains,
    smith_normal_form,
    sparse_row,
)


def enumerate_elements(g: AbGroup, free_bound: int = 2):
    """All elements with free coordinates in [-bound, bound]."""
    ranges = [range(-free_bound, free_bound + 1)] * g.free_rank
    ranges += [range(d) for d in g.torsion]
    return [g.reduce(v) for v in itertools.product(*ranges)]


def smul(g: AbGroup, k: int, x):
    """k·x in g."""
    return g.reduce([k * a for a in x])


def contains_subgroup(s: SubgroupRep, other: SubgroupRep) -> bool:
    """Whether every generator of ``other`` lies in ``s``."""
    return all(lattice_contains(s.lattice, g) for g in other.generator_rows())


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
    assert smul(g, 4, (1, 1, 1)) == (4, 0, 0)
    assert g.is_zero_element((0, 2, 4))
    assert not g.is_zero_element((0, 1, 0))


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
    assert contains_subgroup(s, torsion_subgroup(g))
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
    assert contains_subgroup(s, pre.transport(h))


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
    assert quot.is_zero_element(smul(quot, 2, proj.apply((1, 0))))


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
    quot, proj = quotient_with_projection(SubgroupRep.from_elements(free_group(3), [(1, -1, 0), (0, 2, 2)]))
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
    assert not quotient_with_projection(b)[0].is_free
    # and one where the quotient is free
    c = SubgroupRep.from_elements(g, [(1, 0), (0, 1)])
    assert quotient_with_projection(c)[0].is_free


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


def assert_biproduct(ds, a, b):
    """The five biproduct identities of A ⊕ B with its four maps."""
    assert ds.proj_a.compose(ds.incl_a) == GroupHom.identity(a)
    assert ds.proj_b.compose(ds.incl_b) == GroupHom.identity(b)
    assert ds.proj_a.compose(ds.incl_b).is_zero()
    assert ds.proj_b.compose(ds.incl_a).is_zero()
    assert ds.incl_a.compose(ds.proj_a).add(ds.incl_b.compose(ds.proj_b)) == GroupHom.identity(ds.group)


def test_direct_sum_free():
    ds = direct_sum_with_maps(free_group(2), free_group(1))
    assert_biproduct(ds, free_group(2), free_group(1))
    assert ds.group == free_group(3)
    assert ds.incl_a.apply((1, 0)) == (1, 0, 0)
    assert ds.incl_b.apply((1,)) == (0, 0, 1)
    assert ds.proj_a.apply((4, 5, 6)) == (4, 5)
    assert ds.proj_b.apply((4, 5, 6)) == (6,)


def test_direct_sum_renormalizes_torsion():
    ds = direct_sum_with_maps(AbGroup(0, (2,)), AbGroup(0, (3,)))
    assert_biproduct(ds, AbGroup(0, (2,)), AbGroup(0, (3,)))
    assert ds.group == AbGroup(0, (6,))
    x = ds.incl_a.apply((1,))
    y = ds.incl_b.apply((1,))
    assert ds.group.is_zero_element(smul(ds.group, 2, x))
    assert not ds.group.is_zero_element(smul(ds.group, 1, x))
    assert ds.group.is_zero_element(smul(ds.group, 3, y))
    assert ds.proj_a.apply(x) == (1,)
    assert ds.proj_b.apply(y) == (1,)
    assert ds.proj_a.apply(y) == (0,)


def test_direct_sum_mixed():
    a = AbGroup(1, (2,))
    b = AbGroup(0, (2, 4))
    ds = direct_sum_with_maps(a, b)
    assert ds.group == AbGroup(1, (2, 2, 4))
    for x in [(0, 1), (1, 0), (1, 1)]:
        assert ds.proj_a.apply(ds.incl_a.apply(x)) == a.reduce(x)
    for g1, g2 in itertools.product(GROUPS, repeat=2):
        assert_biproduct(direct_sum_with_maps(g1, g2), g1, g2)


# -- matching surjections ---------------------------------------------


def assert_matched(f, g, m):
    """(f + 0) = (g + 0) ∘ h with h unimodular, for h = m.iso."""
    h = m.iso
    assert h.matrix.is_unimodular()
    f0 = GroupHom(h.source, f.target, f.matrix.hstack(IntMatrix.zeros(f.target.num_gens, m.f_extra.num_gens)))
    g0 = GroupHom(h.target, g.target, g.matrix.hstack(IntMatrix.zeros(g.target.num_gens, m.g_extra.num_gens)))
    assert g0.compose(h) == f0


def test_match_stable_z_onto_z2():
    target = AbGroup(0, (2,))
    f = GroupHom.from_gen_images(free_group(1), target, [(1,)])
    g = GroupHom.from_gen_images(free_group(1), target, [(1,)])
    m = match_surjections(f, g)
    assert_matched(f, g, m)
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
        assert_matched(f, g, m)
        assert m.iso.source.free_rank == f.source.free_rank + m.f_extra.free_rank
        assert m.iso.target.free_rank == g.source.free_rank + m.g_extra.free_rank
        assert m.iso.source.free_rank == m.iso.target.free_rank


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


# -- the summand decision against direct_complement ------------------------


@st.composite
def groups(draw):
    """Z^r ⊕ Z/d_1 ⊕ ... ⊕ Z/d_m with r, m at most 3."""
    torsion = []
    for _ in range(draw(st.integers(0, 3))):
        step = st.sampled_from([1, 2, 3]) if torsion else st.sampled_from([2, 3, 4, 6])
        torsion.append((torsion[-1] if torsion else 1) * draw(step))
    return AbGroup(draw(st.integers(0, 3)), tuple(torsion))


@st.composite
def subgroups(draw, ambient=None):
    """A subgroup of a drawn group (or of ``ambient``) spanned by a few drawn elements."""
    g = draw(groups()) if ambient is None else ambient
    element = st.lists(st.integers(-4, 4), min_size=g.num_gens, max_size=g.num_gens)
    return SubgroupRep.from_elements(g, draw(st.lists(element, max_size=3)))


@settings(max_examples=400, deadline=None)
@given(subgroups())
@example(SubgroupRep.from_elements(AbGroup(1, (2,)), [(1, 1)]))  # a summand with A/B not free
@example(SubgroupRep.from_elements(AbGroup(0, (4,)), [(2,)]))
def test_summand_decision_matches_direct_complement(b):
    assert is_direct_summand(b) == isinstance(outcome(direct_complement, b), SubgroupRep)


def test_summand_decision_on_images_under_endomorphisms():
    rng = random.Random(53)
    summands = 0
    for g in GROUPS:
        for _ in range(15):
            h = random_endomorphism(rng, g)
            gens = [h.apply(x) for x in rng.sample(g.gens(), rng.randint(0, g.num_gens))]
            if gens and rng.random() < 0.5:
                gens[0] = smul(g, rng.choice([2, 3]), gens[0])
            b = SubgroupRep.from_elements(g, gens)
            decided = is_direct_summand(b)
            assert decided == isinstance(outcome(direct_complement, b), SubgroupRep)
            summands += decided
    assert 30 < summands < 70  # both outcomes are exercised


# -- the summand decision against Miyata's invariant-factor test -----------


def invariant_factors(rows, width):
    """The nonzero invariant factors of the matrix with the given dense rows, from sympy."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

    if not rows or not width:
        return ()
    return tuple(int(d) for d in sympy_invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ) if d)


def cokernel(rows, width):
    """Z^width modulo the dense rows, in invariant-factor form."""
    factors = invariant_factors(rows, width)
    return AbGroup(width - len(factors), tuple(d for d in factors if d >= 2))


def echelon_coordinates(basis, v):
    """Coefficients of the lattice vector v in the echelon basis of dense rows."""
    v, coeffs = list(v), []
    for row in basis:
        p = next(j for j, x in enumerate(row) if x)
        c = v[p] // row[p]
        v = [x - c * y for x, y in zip(v, row)]
        coeffs.append(c)
    assert not any(v)
    return coeffs


def miyata_is_summand(b):
    """Miyata's criterion (T. Miyata, Note on direct summands of modules, J. Math. Kyoto Univ. 7, 1967).

    0 → B → A → A/B → 0 splits iff A ≅ B ⊕ A/B, a comparison of invariant
    factors: A/B is Z^n modulo the lattice, B is the lattice modulo the
    relations written in the lattice's echelon basis, and the torsion of
    the sum is renormalized as the cokernel of its diagonal.  This was the
    library's test for lattices with a pivot other than 1.
    """
    amb = b.ambient
    n = amb.num_gens
    basis = [dense_row(r, n) for r in b.lattice]
    quot = cokernel(basis, n)
    sub = cokernel([echelon_coordinates(basis, rel) for rel in amb.relation_rows()], len(basis))
    t = quot.torsion + sub.torsion
    torsion = cokernel([[d if i == j else 0 for j in range(len(t))] for i, d in enumerate(t)], len(t)).torsion
    return AbGroup(quot.free_rank + sub.free_rank, torsion) == amb


NAMED_SUMMAND_CASES = [
    (free_group(2), [(2, 1)], True),
    (AbGroup(0, (2, 4)), [(1, 2)], True),
    (free_group(2), [(2, 0)], False),
    (free_group(2), [(2, 2)], False),
    (AbGroup(0, (4,)), [(2,)], False),
    (AbGroup(1, (2,)), [(2, 1)], False),
]


@pytest.mark.parametrize("ambient,gens,splits", NAMED_SUMMAND_CASES)
def test_summand_decision_on_named_cases(ambient, gens, splits):
    b = SubgroupRep.from_elements(ambient, gens)
    assert any(row[0][1] != 1 for row in b.lattice)  # the unit-pivot rule does not decide
    assert is_direct_summand(b) is splits
    assert miyata_is_summand(b) is splits
    assert isinstance(outcome(direct_complement, b), SubgroupRep) is splits


@settings(max_examples=300, deadline=None)
@given(subgroups())
@example(SubgroupRep.from_elements(free_group(3), [(2, 1, 0), (0, 3, 3)]))
@example(SubgroupRep.from_elements(AbGroup(1, (2, 4)), [(2, 1, 1), (0, 0, 2)]))
def test_summand_decision_matches_miyata(b):
    assert is_direct_summand(b) == miyata_is_summand(b)


def test_free_summand_decision_computes_no_smith_form(monkeypatch):
    calls = []

    def counting(a):
        calls.append(a)
        return smith_normal_form(a)

    monkeypatch.setattr(abelian, "smith_normal_form", counting)
    monkeypatch.setattr(intmat, "smith_normal_form", counting)
    rng = random.Random(59)
    dense = [[rng.randint(-1, 1) for _ in range(12)] for _ in range(6)]
    counts = {}
    for ambient, gens, splits in NAMED_SUMMAND_CASES + [(free_group(12), dense, None)]:
        b = SubgroupRep.from_elements(ambient, gens)
        calls.clear()
        decided = is_direct_summand(b)
        counts[ambient.is_free] = counts.get(ambient.is_free, 0) + len(calls)
        if splits is not None:
            assert decided is splits
    assert counts[True] == 0
    assert counts[False] > 0  # a torsion ambient still reaches direct_complement's Smith forms


# -- lattice operations against the Smith-form reference -------------------


def smith_nullspace(a):
    """Integer kernel basis of A from the columns of V in U*A*V = D."""
    dec = smith_normal_form(a)
    limit = min(a.rows, a.cols)
    return [dec.v.column(i) for i in range(a.cols) if i >= limit or dec.diagonal[i] == 0]


def reference_kernel(h):
    block = h.matrix
    rel = h.target.relation_rows()
    if rel:
        block = block.hstack(IntMatrix.from_columns([list(r) for r in rel], rows=h.target.num_gens))
    n = h.source.num_gens
    vecs = [col[:n] for col in smith_nullspace(block)] + h.source.relation_rows()
    return SubgroupRep.from_elements(h.source, vecs)


def reference_intersection(s, t):
    n = s.ambient.num_gens
    a, b = [dense_row(r, n) for r in s.lattice], [dense_row(r, n) for r in t.lattice]
    if not a or not b:
        return SubgroupRep(s.ambient, ())
    stacked = IntMatrix.from_rows(a + b, n)
    rows = []
    for coeff in smith_nullspace(stacked.transpose()):
        rows.append(sparse_row([sum(c * r[j] for c, r in zip(coeff[: len(a)], a)) for j in range(n)]))
    return SubgroupRep(s.ambient, hermite_row_basis(rows, n))


def reference_preimage(s, h):
    if not s.lattice:
        return reference_kernel(h)
    lat = IntMatrix(len(s.lattice), s.ambient.num_gens, s.lattice)
    n = h.source.num_gens
    vecs = [col[:n] for col in smith_nullspace(h.matrix.hstack(lat.transpose().neg()))]
    return SubgroupRep.from_elements(h.source, vecs + h.source.relation_rows())


@st.composite
def homs(draw):
    """A well-defined hom between drawn groups: a generator of order d maps into the d-torsion."""
    source, target = draw(groups()), draw(groups())
    r = target.free_rank
    images = []
    for i in range(source.num_gens):
        d = 0 if i < source.free_rank else source.torsion[i - source.free_rank]
        free = [0 if d else draw(st.integers(-3, 3)) for _ in range(r)]
        tors = [draw(st.integers(-3, 3)) * (e // math.gcd(d, e)) for e in target.torsion]
        images.append(free + tors)
    return GroupHom.from_gen_images(source, target, images)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lattice_operations_match_the_smith_reference(data):
    h = data.draw(homs())
    s, t = data.draw(subgroups(h.target)), data.draw(subgroups(h.target))
    assert s.intersection(t) == reference_intersection(s, t)
    assert s.preimage(h) == reference_preimage(s, h)
    assert h.kernel() == reference_kernel(h)


@st.composite
def int_matrices(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    entry = st.integers(-6, 6)
    return IntMatrix.from_rows([[draw(entry) for _ in range(cols)] for _ in range(rows)], cols)


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_int_nullspace_is_the_hermite_basis_of_the_smith_reference(a):
    assert int_nullspace(a) == list(hermite_row_basis(map(sparse_row, smith_nullspace(a)), a.cols))


# -- direct sums against the former construction ----------------------


def reference_direct_sum(a, b):
    """A ⊕ B with its four maps, built column by column and row by row.

    The former hand-written construction, kept as the reference for the
    block-diagonal maps; returns (group, incl_a, incl_b, proj_a, proj_b).
    """
    ra, rb = a.free_rank, b.free_rank
    mixed = list(a.torsion) + list(b.torsion)
    t = len(mixed)
    keep, torsion = [], ()
    if t:
        dec = smith_normal_form(IntMatrix.diagonal(mixed, rows=t, cols=t))
        u_inv = dec.u.inverse_unimodular()
        keep = [i for i in range(t) if dec.d.entries[i][i] >= 2]
        torsion = tuple(dec.d.entries[i][i] for i in keep)
    total = AbGroup(ra + rb, torsion)

    def embed_free(offset, src_index):
        col = [0] * total.num_gens
        col[offset + src_index] = 1
        return col

    def embed_tors(j):
        col = [0] * total.num_gens
        for pos, i in enumerate(keep):
            col[ra + rb + pos] = dec.u.entries[i][j]
        return col

    cols_a = [embed_free(0, i) for i in range(ra)] + [embed_tors(j) for j in range(len(a.torsion))]
    cols_b = [embed_free(ra, i) for i in range(rb)] + [
        embed_tors(len(a.torsion) + j) for j in range(len(b.torsion))
    ]
    incl_a = GroupHom.from_gen_images(a, total, cols_a) if cols_a else GroupHom.zero(a, total)
    incl_b = GroupHom.from_gen_images(b, total, cols_b) if cols_b else GroupHom.zero(b, total)

    def proj_matrix(tgt, off, t_off):
        rows_out = [[0] * total.num_gens for _ in range(tgt.num_gens)]
        for i in range(tgt.free_rank):
            rows_out[i][off + i] = 1
        for pos, i in enumerate(keep):
            col = u_inv.column(i)
            for j in range(len(tgt.torsion)):
                rows_out[tgt.free_rank + j][ra + rb + pos] = col[t_off + j]
        return IntMatrix.from_rows(rows_out, total.num_gens) if rows_out else IntMatrix.zeros(0, total.num_gens)

    proj_a = GroupHom(total, a, proj_matrix(a, 0, 0))
    proj_b = GroupHom(total, b, proj_matrix(b, ra, len(a.torsion)))
    return total, incl_a, incl_b, proj_a, proj_b


def test_direct_sum_maps_match_the_reference_on_every_pair_of_groups():
    for g1, g2 in itertools.product(GROUPS, repeat=2):
        ds = direct_sum_with_maps(g1, g2)
        assert (ds.group, ds.incl_a, ds.incl_b, ds.proj_a, ds.proj_b) == reference_direct_sum(g1, g2)


@settings(max_examples=150, deadline=None)
@given(groups(), groups())
@example(AbGroup(0, (2,)), AbGroup(0, (3,)))
@example(AbGroup(1, (2,)), AbGroup(0, (2, 4)))
@example(AbGroup(0, (4,)), AbGroup(0, (6,)))
@example(AbGroup(0, ()), AbGroup(0, ()))
def test_direct_sum_maps_match_the_reference(g1, g2):
    ds = direct_sum_with_maps(g1, g2)
    assert (ds.group, ds.incl_a, ds.incl_b, ds.proj_a, ds.proj_b) == reference_direct_sum(g1, g2)
    assert_biproduct(ds, g1, g2)


# -- torsion questions read off the basis ----------------------------------


@settings(max_examples=400, deadline=None)
@given(subgroups())
@example(SubgroupRep.from_elements(AbGroup(1, (2, 4)), [(1, 0, 0), (0, 0, 2)]))  # torsion, but not all of it
@example(SubgroupRep.from_elements(AbGroup(0, (2, 4)), [(1, 1)]))  # one element of order 4 off both axes
def test_torsion_questions_match_the_meet_reference(s):
    torsion = torsion_subgroup(s.ambient)
    assert s.is_free() == s.intersection(torsion).is_zero()
    assert s.contains_torsion() == contains_subgroup(s, torsion)
