"""Tests for extended quadratic forms: predicates, sums, complements."""

import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qform import intmat
from qform.abelian import AbGroup, GroupHom, SubgroupRep, Z2, direct_sum_with_maps, free_group, invert_iso
from qform.construct import Flip, is_hyperbolic_with_witness, ru_wall_witness
from qform.errors import HypothesisError, NotWellDefined, VMissing
from qform.forms import (
    EQForm,
    FormIso,
    dual,
    flip_split,
    form_direct_sum,
    form_validate,
    hyperbolic,
    iso_direct_sum,
    negate,
    orthogonal_complement,
    permuted,
    pullback,
    subgroup_classify,
    _swap_blocks,
)
from qform.intmat import IntMatrix, lattice_contains, shifted_row, sparse_row
from qform.lmonoid import ApplyIso, FlipL, QuasiFormation, jacobi_witness, standard_elementary


Z = free_group(1)


def pairing(e, x, y):
    """λ(x, y) on the form e."""
    return sum(a * b for a, b in zip(e.group.reduce(x), e.matrix.apply(e.group.reduce(y))))


def e_form(a, b):
    """(Z², [[0,1],[1,0]], μ = (a, b)) over Z — the workhorse example."""
    g = free_group(2)
    return EQForm(
        g,
        IntMatrix.from_rows([[0, 1], [1, 0]]),
        GroupHom.from_gen_images(g, Z, [(a,), (b,)]),
        GroupHom.from_gen_images(Z, Z2, [(0,)]),
    )


# -- construction and validation --------------------------------------


def test_invalid_forms_rejected():
    g = free_group(2)
    mu = GroupHom.zero(g, AbGroup(0, ()))
    with pytest.raises(NotWellDefined):
        EQForm(g, IntMatrix.from_rows([[0, 1], [2, 0]]), mu)  # not symmetric
    tg = AbGroup(1, (2,))
    with pytest.raises(NotWellDefined):
        # pairing touching the torsion generator
        EQForm(tg, IntMatrix.from_rows([[0, 1], [1, 0]]), GroupHom.zero(tg, AbGroup(0, ())))


def test_hyperbolic_report():
    rep = form_validate(hyperbolic(1))
    assert rep.rank == 2 and rep.free and rep.nonsingular and rep.even and rep.full
    assert rep.geometric is None  # no v attached
    zero = AbGroup(0, ())
    withv = hyperbolic(1, zero, GroupHom.zero(zero, Z2))
    assert form_validate(withv).geometric is True


def test_e23_report():
    rep = form_validate(e_form(2, 3))
    assert rep.nonsingular and rep.even and rep.full and rep.geometric
    # fullness comes from gcd(2,3) = 1
    assert not e_form(2, 4).is_full()
    assert e_form(0, 0).is_full() is False


def test_odd_diagonal_not_nonsingular_example():
    g = free_group(1)
    e = EQForm(g, IntMatrix.from_rows([[2]]), GroupHom.zero(g, AbGroup(0, ())))
    rep = form_validate(e)
    assert not rep.nonsingular and rep.even


def test_geometric_needs_v():
    e = EQForm(free_group(1), IntMatrix.from_rows([[0]]), GroupHom.zero(free_group(1), Z))
    with pytest.raises(VMissing):
        e.is_geometric()


def test_geometric_odd_diagonal():
    # λ(x,x) = 1 on the generator forces v∘μ = 1 there
    g = free_group(1)
    mu = GroupHom.from_gen_images(g, Z, [(1,)])
    odd = EQForm(g, IntMatrix.from_rows([[1]]), mu, GroupHom.from_gen_images(Z, Z2, [(1,)]))
    assert odd.is_geometric()
    even_v = EQForm(g, IntMatrix.from_rows([[1]]), mu, GroupHom.from_gen_images(Z, Z2, [(0,)]))
    assert not even_v.is_geometric()


def test_geometric_generator_check_extends():
    # derived invariant: if generators satisfy the parity identity, all
    # elements do, because both sides are additive mod 2
    rng = random.Random(3)
    e = e_form(1, 2)
    vmu = e.v.compose(e.mu)
    assert e.is_geometric()
    for _ in range(50):
        x = tuple(rng.randrange(-5, 6) for _ in range(2))
        assert (pairing(e, x, x) % 2,) == vmu.apply(x)


# -- dual / negate / pullback ------------------------------------------


def test_dual_and_negate():
    e = e_form(2, 3)
    assert dual(e).mu.apply((1, 0)) == (-2,)
    assert dual(e).matrix == e.matrix
    assert negate(e).matrix == e.matrix.neg()
    assert negate(dual(e)) == dual(negate(e))
    zero_mu = hyperbolic(1)
    assert dual(zero_mu) == zero_mu


def test_negate_hyperbolic_isomorphic():
    h = hyperbolic(1)
    iso = FormIso(negate(h), h, GroupHom.from_gen_images(h.group, h.group, [(1, 0), (0, -1)]))
    assert iso.inverse().source == h


def test_property_propagation():
    e = e_form(2, 3)
    for f in (negate(e), dual(e), form_direct_sum(e, e).form):
        rep = form_validate(f)
        assert rep.nonsingular and rep.even and rep.geometric
    assert form_direct_sum(e, e_form(0, 0)).form.is_full()


def test_pullback():
    e = e_form(1, 0)
    h = GroupHom.from_gen_images(free_group(2), e.group, [(1, 1), (0, 1)])
    p = pullback(h, e)
    assert p.matrix == IntMatrix.from_rows([[2, 1], [1, 0]])
    assert p.mu.apply((1, 0)) == (1,)
    # pullback along an automorphism of the pairing yields an isomorphic form
    u = GroupHom.from_gen_images(e.group, e.group, [(1, 0), (1, 1)])
    FormIso(pullback(u, e), e, u)  # validates


# -- direct sums -------------------------------------------------------


def test_direct_sum_maps_respect_pairing():
    a, b = e_form(1, 2), e_form(3, 4)
    s = form_direct_sum(a, b)
    for x in [(1, 0), (0, 1), (2, -1)]:
        for y in [(1, 0), (1, 1)]:
            assert pairing(s.form, s.incl_a.apply(x), s.incl_a.apply(y)) == pairing(a, x, y)
            assert pairing(s.form, s.incl_b.apply(x), s.incl_b.apply(y)) == pairing(b, x, y)
            assert pairing(s.form, s.incl_a.apply(x), s.incl_b.apply(y)) == 0
    assert s.form.mu.apply(s.incl_a.apply((1, 0))) == (1,)
    assert s.form.mu.apply(s.incl_b.apply((1, 0))) == (3,)


def test_direct_sum_target_mismatch():
    a = e_form(1, 2)
    b = hyperbolic(1)
    with pytest.raises(HypothesisError):
        form_direct_sum(a, b)


def test_hyperbolic_sum_is_hyperbolic_shuffle():
    s = form_direct_sum(hyperbolic(1), hyperbolic(1))
    h4 = hyperbolic(2)
    # shuffle columns: (e1,e2,e3,e4) of the sum map to (e1,e3,e2,e4)
    shuffle = GroupHom.from_gen_images(
        s.form.group, h4.group, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]
    )
    FormIso(s.form, h4, shuffle)  # validates


SUM_GROUPS = [
    free_group(0), free_group(2), AbGroup(0, (2,)), AbGroup(0, (3,)), AbGroup(1, (2,)),
    AbGroup(0, (2, 4)), AbGroup(2, (3, 6)), AbGroup(1, (2, 2, 4)),
]
Q_MIXED = AbGroup(1, (2,))
V_MIXED = GroupHom.from_gen_images(Q_MIXED, Z2, [(1,), (1,)])


def random_form(rng, group, v=None):
    """A random symmetric pairing on the free part and a random μ into Z ⊕ Z/2."""
    r, t = group.free_rank, len(group.torsion)
    s = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            s[i][j] = s[j][i] = rng.randint(-3, 3)
    lam = IntMatrix.block_diagonal([IntMatrix.from_rows(s, r), IntMatrix.zeros(t, t)])
    images = [(rng.randint(-3, 3), rng.randrange(2)) for _ in range(r)]
    images += [(0, rng.randrange(2) if d % 2 == 0 else 0) for d in group.torsion]
    return EQForm(group, lam, GroupHom.from_gen_images(group, Q_MIXED, images), v)


def product_direct_sum(a, b):
    """The former λ = pa^T·λ_A·pa + pb^T·λ_B·pb and μ = μ_A∘pa + μ_B∘pb."""
    ds = direct_sum_with_maps(a.group, b.group)
    pa, pb = ds.proj_a.matrix, ds.proj_b.matrix
    lam = pa.transpose().mul(a.matrix).mul(pa).add(pb.transpose().mul(b.matrix).mul(pb))
    mu = a.mu.compose(ds.proj_a).add(b.mu.compose(ds.proj_b))
    return EQForm(ds.group, lam, mu, a.v)


def test_direct_sum_pairing_matches_the_product_formula():
    rng = random.Random(19)
    for g1 in SUM_GROUPS:
        for g2 in SUM_GROUPS:
            for v in (None, V_MIXED):
                a, b = random_form(rng, g1, v), random_form(rng, g2, v)
                s = form_direct_sum(a, b)
                assert s.form == product_direct_sum(a, b)
                ds = direct_sum_with_maps(g1, g2)
                assert (s.incl_a, s.incl_b, s.proj_a, s.proj_b) == (ds.incl_a, ds.incl_b, ds.proj_a, ds.proj_b)


def test_hyperbolic_matches_its_block_matrix():
    for k in range(4):
        top = IntMatrix.zeros(k, k).hstack(IntMatrix.identity(k))
        bottom = IntMatrix.identity(k).hstack(IntMatrix.zeros(k, k))
        assert hyperbolic(k).matrix == top.vstack(bottom)


# -- orthogonal complements -------------------------------------------


def test_perp_of_zero_is_everything():
    h = hyperbolic(1)
    assert orthogonal_complement(h, SubgroupRep.zero(h.group)).is_full()


def test_perp_lagrangian_self():
    h = hyperbolic(1)
    l = SubgroupRep.from_elements(h.group, [(1, 0)])
    assert orthogonal_complement(h, l) == l


def test_perp_in_rank_four():
    # block convention: hyperbolic(2) pairs e1↔e3 and e2↔e4
    h4 = hyperbolic(2)
    x = SubgroupRep.from_elements(h4.group, [(1, 0, 1, 0)])
    perp = orthogonal_complement(h4, x)
    assert perp.rank == 3
    for vec in [(1, 0, -1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]:
        assert lattice_contains(perp.lattice, sparse_row(vec))
    # the interleaved flavour arises as H_2 ⊕ H_2: pairs e1↔e2 and e3↔e4
    inter = form_direct_sum(hyperbolic(1), hyperbolic(1)).form
    perp2 = orthogonal_complement(inter, SubgroupRep.from_elements(inter.group, [(1, 0, 1, 0)]))
    assert perp2.rank == 3
    for vec in [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, -1)]:
        assert lattice_contains(perp2.lattice, sparse_row(vec))


def test_perp_rank_formula_randomized():
    rng = random.Random(19)
    h = hyperbolic(3)
    for _ in range(25):
        gens = [tuple(rng.randrange(-4, 5) for _ in range(6)) for _ in range(rng.randrange(0, 4))]
        x = SubgroupRep.from_elements(h.group, gens)
        perp = orthogonal_complement(h, x)
        assert x.rank + perp.rank == h.rank
        for a in x.generators():
            for b in perp.generators():
                assert pairing(h, a, b) == 0


def test_perp_contains_torsion():
    g = AbGroup(2, (3,))
    lam = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    e = EQForm(g, lam, GroupHom.zero(g, AbGroup(0, ())))
    x = SubgroupRep.from_elements(g, [(1, 0, 0)])
    perp = orthogonal_complement(e, x)
    assert lattice_contains(perp.lattice, sparse_row((0, 0, 1)))


def test_perp_needs_nonsingular():
    g = free_group(1)
    e = EQForm(g, IntMatrix.from_rows([[2]]), GroupHom.zero(g, AbGroup(0, ())))
    with pytest.raises(HypothesisError):
        orthogonal_complement(e, SubgroupRep.zero(g))


# -- subgroup classification ------------------------------------------


def test_classify_lagrangian():
    h = hyperbolic(1)
    flags = subgroup_classify(h, SubgroupRep.from_elements(h.group, [(1, 0)]))
    assert flags.free_lagrangian and flags.t_lagrangian
    flags = subgroup_classify(h, SubgroupRep.from_elements(h.group, [(1, 1)]))
    assert flags.half_rank_summand and not flags.isotropic and not flags.free_lagrangian


def test_classify_t_lagrangian_with_torsion():
    g = AbGroup(2, (3,))
    lam = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    e = EQForm(g, lam, GroupHom.zero(g, AbGroup(0, ())))
    s = SubgroupRep.from_elements(g, [(1, 0, 0), (0, 0, 1)])
    flags = subgroup_classify(e, s)
    assert flags.t_lagrangian and not flags.free_lagrangian
    free_part = SubgroupRep.from_elements(g, [(1, 0, 0)])
    flags2 = subgroup_classify(e, free_part)
    assert flags2.free_lagrangian and not flags2.t_lagrangian


def test_classify_non_summand():
    h = hyperbolic(1)
    s = SubgroupRep.from_elements(h.group, [(2, 0)])
    flags = subgroup_classify(h, s)
    assert flags.isotropic and not flags.half_rank_summand


# -- isomorphisms ------------------------------------------------------


def test_form_iso_validation():
    e = e_form(2, 3)
    with pytest.raises(NotWellDefined):
        # pairing not preserved
        FormIso(e, e, GroupHom.from_gen_images(e.group, e.group, [(1, 0), (1, 1)]))
    with pytest.raises(NotWellDefined):
        # mu not preserved
        FormIso(e, e, GroupHom.from_gen_images(e.group, e.group, [(0, 1), (1, 0)]))
    swap = GroupHom.from_gen_images(e.group, e.group, [(0, 1), (1, 0)])
    FormIso(e_form(3, 2), e, swap)  # validates


def test_form_iso_inverse_composes_to_identity():
    e = e_form(1, 1)
    u = GroupHom.from_gen_images(e.group, e.group, [(1, 0), (-3, 1)])
    iso = FormIso(pullback(u, e), e, u)
    both = iso.compose(iso.inverse())
    assert both.hom == GroupHom.identity(e.group)


def test_non_bijective_free_map_is_rejected_at_construction():
    g = free_group(2)
    flat = EQForm(g, IntMatrix.zeros(2, 2), GroupHom.zero(g, Z))
    double = GroupHom.from_gen_images(g, g, [(2, 0), (0, 1)])
    with pytest.raises(HypothesisError, match="^not bijective: free-group hom with non-unimodular matrix$"):
        FormIso(flat, flat, double)


def test_a_square_map_out_of_a_singular_form_still_needs_a_unit_determinant():
    """The zero form on Z² pulls back to itself along 2·I, which is not bijective."""
    g = free_group(2)
    flat = EQForm(g, IntMatrix.zeros(2, 2), GroupHom.zero(g, Z))
    assert not flat.is_nonsingular()
    with pytest.raises(HypothesisError, match="^not bijective: free-group hom with non-unimodular matrix$"):
        FormIso(flat, flat, GroupHom(g, g, IntMatrix.from_rows([[2, 0], [0, 2]])))


def test_an_iso_out_of_a_singular_form_keeps_the_inverse_its_check_computed(monkeypatch):
    """Out of a singular source bijectivity is decided by inverting h, and inverse_hom reuses that inverse."""
    g = free_group(2)
    flat = EQForm(g, IntMatrix.zeros(2, 2), GroupHom.zero(g, Z))
    shear = GroupHom.from_gen_images(g, g, [(1, 0), (-3, 1)])
    iso = FormIso(flat, flat, shear)
    calls = Counter()
    hermite = intmat.hermite_row_basis
    monkeypatch.setattr(intmat, "hermite_row_basis", lambda *args: calls.update(["hnf"]) or hermite(*args))
    assert iso.inverse_hom == GroupHom.from_gen_images(g, g, [(1, 0), (3, 1)])
    assert calls["hnf"] == 0


def test_a_map_that_is_not_square_is_not_bijective_whatever_its_source():
    """H₂ → H₂ ⊕ H₂ onto the first summand pulls the form back, from a nonsingular source."""
    h2, h4 = hyperbolic(1), form_direct_sum(hyperbolic(1), hyperbolic(1)).form
    assert h2.is_nonsingular()
    into = GroupHom(h2.group, h4.group, IntMatrix.from_rows([[1, 0], [0, 1], [0, 0], [0, 0]]))
    with pytest.raises(HypothesisError, match="^not bijective: free-group hom with non-unimodular matrix$"):
        FormIso(h2, h4, into)


def test_square_isos_out_of_a_nonsingular_form_read_its_cached_determinant(monkeypatch):
    """det h = ±1 follows from hᵀλ′h = λ and det λ = ±1, so only the source's determinant is computed, once."""
    e = e_form(1, 1)
    u = GroupHom.from_gen_images(e.group, e.group, [(1, 0), (-3, 1)])
    target = pullback(u, e)
    calls = Counter()
    det = IntMatrix.det
    monkeypatch.setattr(IntMatrix, "det", lambda m: calls.update([m]) or det(m))
    for _ in range(3):
        FormIso(target, e, u)
    assert calls == Counter({target.matrix: 1})


def test_the_cached_nonsingularity_stays_with_its_form_object(monkeypatch):
    """Neither an equal form nor ``dataclasses.replace`` takes over a form's cached nonsingularity."""
    g = free_group(2)
    e = EQForm(g, IntMatrix.from_rows([[0, 1], [1, 0]]), GroupHom.zero(g, Z))
    same = EQForm(g, IntMatrix.from_rows([[0, 1], [1, 0]]), GroupHom.zero(g, Z))
    assert e.is_nonsingular()
    assert e == same and hash(e) == hash(same) and repr(e) == repr(same)
    calls = Counter()
    det = IntMatrix.det
    monkeypatch.setattr(IntMatrix, "det", lambda m: calls.update(["det"]) or det(m))
    assert same.is_nonsingular() and calls["det"] == 1
    assert replace(e).is_nonsingular() and calls["det"] == 2
    flat = replace(e, matrix=IntMatrix.zeros(2, 2))
    assert not flat.is_nonsingular() and calls["det"] == 3
    assert e.is_nonsingular() and calls["det"] == 3


def automorphism_pairs():
    """Two automorphisms that do not commute, of a free form and of a form with torsion."""
    for g, a, b in (
        (free_group(2), [(1, 1), (0, 1)], [(1, 0), (1, 1)]),
        (AbGroup(1, (2, 4)), [(1, 1, 3), (0, 1, 0), (0, 0, 1)], [(1, 0, 0), (0, 1, 2), (0, 0, 1)]),
    ):
        e = EQForm(g, IntMatrix.zeros(g.num_gens, g.num_gens), GroupHom.zero(g, Z))
        yield FormIso(e, e, GroupHom.from_gen_images(g, g, a)), FormIso(e, e, GroupHom.from_gen_images(g, g, b))


@pytest.mark.parametrize("a, b", list(automorphism_pairs()), ids=["free", "torsion"])
def test_lazy_inverse_round_trips(a, b):
    for iso in (a, b, a.compose(b)):
        inv = iso.inverse()
        assert inv.hom == iso.inverse_hom == reference_inverse(iso)
        assert inv.inverse_hom == iso.hom
        assert inv.inverse().hom == iso.hom
        assert inv.compose(iso).hom == GroupHom.identity(iso.source.group)
        assert iso.compose(inv).hom == GroupHom.identity(iso.target.group)
    # the inverse of a∘b is b⁻¹∘a⁻¹, and a, b do not commute
    assert a.hom.compose(b.hom) != b.hom.compose(a.hom)
    ab = a.compose(b)
    assert ab.inverse_hom == b.inverse_hom.compose(a.inverse_hom) == reference_inverse(ab)


def test_iso_direct_sum():
    e = e_form(1, 2)
    neg = FormIso(negate(hyperbolic(1)), hyperbolic(1),
                  GroupHom.from_gen_images(free_group(2), free_group(2), [(1, 0), (0, -1)]))
    with pytest.raises(HypothesisError):
        # coefficient groups differ (Z vs 0), so the sum is rejected
        iso_direct_sum(FormIso.identity(e), neg)
    total = iso_direct_sum(FormIso.identity(e), FormIso(dual(dual(e)), e, GroupHom.identity(e.group)))
    assert total.source.rank == 4


# -- inverses of isomorphisms built from others -------------------------


def reference_inverse(iso):
    """The inverse computed from scratch: by elimination between free groups."""
    h = iso.hom
    if h.source.is_free and h.target.is_free:
        return GroupHom(h.target, h.source, h.matrix.inverse_unimodular())
    return invert_iso(h)


def torsion_form():
    g = AbGroup(2, (2, 4))
    return EQForm(g, IntMatrix.zeros(4, 4), GroupHom.zero(g, Z))


@pytest.mark.parametrize("e", [e_form(2, 3), hyperbolic(2), torsion_form()], ids=["e23", "h4", "torsion"])
def test_identity_is_handed_its_own_inverse(e):
    iso = FormIso.identity(e)
    assert iso.inverse_hom == iso.hom == reference_inverse(iso)
    assert iso.compose(iso.inverse()).hom == GroupHom.identity(e.group)


@pytest.mark.parametrize("e, size", [(hyperbolic(1), 1), (hyperbolic(2), 2), (torsion_form(), 1)],
                         ids=["h2", "h4", "torsion"])
def test_swap_blocks_is_handed_its_own_inverse(e, size):
    iso = _swap_blocks(e, size)
    assert iso.inverse_hom == iso.hom == reference_inverse(iso)
    assert iso.compose(iso).hom == GroupHom.identity(e.group)


@pytest.mark.parametrize("a, b", list(automorphism_pairs()), ids=["free", "torsion"])
def test_iso_direct_sum_hands_on_the_block_sum_of_known_inverses(a, b):
    ba = b.compose(a)
    total = iso_direct_sum(a, ba)
    block_sum = iso_direct_sum(a.inverse(), ba.inverse())
    assert total.inverse_hom == block_sum.hom == reference_inverse(total)
    assert total.compose(total.inverse()).hom == GroupHom.identity(total.target.group)


def test_iso_direct_sum_leaves_an_unknown_inverse_to_first_use():
    e = e_form(1, 1)
    u = GroupHom.from_gen_images(e.group, e.group, [(1, 0), (-3, 1)])
    unknown = FormIso(pullback(u, e), e, u)
    total = iso_direct_sum(FormIso.identity(e), unknown)
    assert total.inverse_hom == reference_inverse(total)
    assert total.inverse().compose(total).hom == GroupHom.identity(total.source.group)


# -- isomorphisms and forms built from checked ones ----------------------
#
# identity, inverse, compose, iso_direct_sum and permuted build their
# results without re-running the checks; each such result, and every
# witness of a word or a certificate built from them, must be one the
# public constructor accepts.  So must every form that hyperbolic, negate,
# dual, pullback and form_direct_sum build, and every ℋ_2k that
# standard_elementary builds.


def assert_passes_the_constructor(iso):
    assert FormIso(iso.source, iso.target, iso.hom) == iso
    assert iso.inverse_hom.compose(iso.hom) == GroupHom.identity(iso.source.group)
    assert iso.hom.compose(iso.inverse_hom) == GroupHom.identity(iso.target.group)


def random_automorphism(rng, group):
    """[[A, 0], [C, D]]: A unimodular, C torsion images of the free generators, D units on the torsion."""
    r = group.free_rank
    rows = [[int(i == j) for j in range(group.num_gens)] for i in range(group.num_gens)]
    for _ in range(4 if r else 0):
        i, j, c = rng.randrange(r), rng.randrange(r), rng.choice([-1, 1])
        if i == j:
            rows[i][:r] = [-x for x in rows[i][:r]]
        else:
            rows[j][:r] = [x + c * y for x, y in zip(rows[j][:r], rows[i][:r])]
    for k, d in enumerate(group.torsion):
        rows[r + k][:r] = [rng.randrange(d) for _ in range(r)]
        rows[r + k][r + k] = rng.choice([u for u in range(1, d) if math.gcd(u, d) == 1])
    return GroupHom(group, group, IntMatrix.from_rows(rows, group.num_gens))


def random_iso(rng, e):
    """A checked isomorphism from e onto e written in a random basis."""
    h = random_automorphism(rng, e.group)
    return FormIso(e, pullback(invert_iso(h), e), h)


SMALL_GROUPS = [free_group(0), free_group(2), free_group(3), AbGroup(0, (3,)), AbGroup(1, (2,)), AbGroup(2, (2, 4))]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.sampled_from(SMALL_GROUPS), st.randoms(use_true_random=False))
def test_isos_built_from_checked_ones_pass_the_constructor(g1, g2, rng):
    f = random_iso(rng, random_form(rng, g1))
    g = random_iso(rng, f.target)
    k = random_iso(rng, random_form(rng, g2))
    built = [
        FormIso.identity(f.source),
        f.inverse(),
        g.compose(f),
        f.inverse().compose(g.inverse()),
        iso_direct_sum(f, k),
        iso_direct_sum(g.compose(f), k.inverse()),
        # a shuffle of the free coordinates; torsion coordinates stay
        permuted(f.target, rng.sample(range(g1.free_rank), g1.free_rank) + list(range(g1.free_rank, g1.num_gens))),
        _swap_blocks(form_direct_sum(f.target, f.target).form, g1.free_rank),
    ]
    for iso in built:
        assert_passes_the_constructor(iso)
    s = form_direct_sum(f.target, k.source)
    forms = [
        s.form,
        negate(f.target),
        dual(k.source),
        pullback(s.incl_b, s.form),
        pullback(s.proj_a, f.target),
        built[6].target,
    ]
    for target in (Z, g2):
        v = GroupHom.zero(target, Z2)
        for pairs in range(5):
            forms.append(hyperbolic(pairs, target, v))
            q = standard_elementary(pairs, target, v)
            assert QuasiFormation(q.form, q.lagrangian, q.summand) == q
    for e in forms:
        assert EQForm(e.group, e.matrix, e.mu, e.v) == e


def test_flip_witnesses_of_a_word_and_a_certificate_pass_the_constructor():
    e = form_direct_sum(e_form(0, 1), e_form(0, 0)).form
    k, l, v = ([(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)], [(0, 1, 0, 0), (0, 0, 1, 0)])
    cert = jacobi_witness(e, *(SubgroupRep.from_elements(e.group, gens) for gens in (k, l, v)))
    # the word the certificate expands: its ambient lagrangian K̃ is the padding's
    wall = ru_wall_witness(cert.phi.source, cert.start_padding.lagrangian, cert.phi)
    built = [letter.witness for letter in wall.word.letters if isinstance(letter, Flip)]
    built += [move.witness for move in cert.sequence.moves if isinstance(move, FlipL)]
    built += [move.iso for move in cert.sequence.moves if isinstance(move, ApplyIso)]
    assert len(built) > 3
    # an even form whose metabolic basis is not the identity
    g = free_group(2)
    odd_basis = EQForm(g, IntMatrix.from_rows([[2, 1], [1, 0]]), GroupHom.zero(g, Z), GroupHom.zero(Z, Z2))
    built += [wall.expected, is_hyperbolic_with_witness(odd_basis, SubgroupRep.from_elements(g, [(0, 1)]))]
    for iso in built:
        assert_passes_the_constructor(iso)
    seq = cert.sequence
    for q in (seq.start, seq.end, cert.start_padding, *cert.end_paddings):
        assert QuasiFormation(q.form, q.lagrangian, q.summand) == q


# -- block sums against the former formula -------------------------------


def product_iso_direct_sum(a, b):
    """The former map of a ⊕ b at any groups: incl_a·h_a·proj_a + incl_b·h_b·proj_b."""
    src = form_direct_sum(a.source, b.source)
    tgt = form_direct_sum(a.target, b.target)
    return tgt.incl_a.compose(a.hom).compose(src.proj_a).add(tgt.incl_b.compose(b.hom).compose(src.proj_b))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.sampled_from(SMALL_GROUPS), st.randoms(use_true_random=False))
def test_iso_direct_sum_matches_the_product_formula(g1, g2, rng):
    a = random_iso(rng, random_form(rng, g1))
    b = random_iso(rng, random_form(rng, g2))
    assert iso_direct_sum(a, b).hom == product_iso_direct_sum(a, b)


# -- split lagrangians against meets and sums ----------------------------


def split_lagrangian(group, rest_lagrangian):
    """({0} × Z) ⊕ L' in the split group ``group``, for L' in its rest group, from L''s Hermite basis."""
    return SubgroupRep(group, (((1, 1),),) + tuple(shifted_row(row, 2) for row in rest_lagrangian.lattice))


def reference_flip(l):
    """L' = L ∩ rest and (Z × {0}) ⊕ L' when L = ({0} × Z) ⊕ L', by meets and sums; (None, None) otherwise."""
    g = l.ambient
    inner = l.intersection(SubgroupRep.of_units(g, range(2, g.num_gens)))
    if inner.sum(SubgroupRep.of_units(g, [1])) != l:
        return None, None
    return inner, inner.sum(SubgroupRep.of_units(g, [0]))


def test_split_lagrangians_read_off_the_basis_match_meets_and_sums():
    rng = random.Random(20)
    outcomes = Counter()
    for _ in range(2000):
        g = AbGroup(rng.randint(2, 4), rng.choice([(), (2,), (3,), (2, 4)]))
        k = g.num_gens - 2
        embed = GroupHom(AbGroup(g.free_rank - 2, g.torsion), g, IntMatrix.zeros(2, k).vstack(IntMatrix.identity(k)))
        # a few elements, most of them in the rest, and often b, -b or 2·b
        gens = [[rng.randint(-2, 2) if j >= 2 or rng.random() < 0.3 else 0 for j in range(g.num_gens)]
                for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.6:
            gens.append([0, rng.choice([1, -1, 2])] + [0] * k)
        l = SubgroupRep.from_elements(g, gens)
        inner, flipped = reference_flip(l)
        assert flip_split(l) == flipped
        rest = l.intersection(embed.image()).preimage(embed)
        assert (split_lagrangian(g, rest) == l) == (flipped is not None)
        if flipped is not None:
            assert rest.transport(embed) == inner
        outcomes[flipped is not None] += 1
    assert min(outcomes.values()) > 500
