"""Tests for extended quadratic forms: predicates, sums, complements."""

import random

import pytest

from qform.abelian import AbGroup, GroupHom, SubgroupRep, Z2, free_group
from qform.errors import HypothesisError, NotWellDefined, VMissing
from qform.forms import (
    EQForm,
    FormIso,
    dual,
    form_direct_sum,
    form_validate,
    hyperbolic,
    iso_direct_sum,
    negate,
    orthogonal_complement,
    pullback,
    subgroup_classify,
)
from qform.intmat import IntMatrix


Z = free_group(1)


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
        assert (e.lam(x, x) % 2,) == vmu.apply(x)


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
            assert s.form.lam(s.incl_a.apply(x), s.incl_a.apply(y)) == a.lam(x, y)
            assert s.form.lam(s.incl_b.apply(x), s.incl_b.apply(y)) == b.lam(x, y)
            assert s.form.lam(s.incl_a.apply(x), s.incl_b.apply(y)) == 0
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
        assert perp.contains(vec)
    # the interleaved flavour arises as H_2 ⊕ H_2: pairs e1↔e2 and e3↔e4
    inter = form_direct_sum(hyperbolic(1), hyperbolic(1)).form
    perp2 = orthogonal_complement(inter, SubgroupRep.from_elements(inter.group, [(1, 0, 1, 0)]))
    assert perp2.rank == 3
    for vec in [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, -1)]:
        assert perp2.contains(vec)


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
                assert h.lam(a, b) == 0


def test_perp_contains_torsion():
    g = AbGroup(2, (3,))
    lam = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    e = EQForm(g, lam, GroupHom.zero(g, AbGroup(0, ())))
    x = SubgroupRep.from_elements(g, [(1, 0, 0)])
    perp = orthogonal_complement(e, x)
    assert perp.contains((0, 0, 1))


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
        assert inv._inverse is iso.hom  # handed over, not recomputed
        assert inv.inverse().hom == iso.hom
        assert inv.compose(iso).hom == GroupHom.identity(iso.source.group)
        assert iso.compose(inv).hom == GroupHom.identity(iso.target.group)
    # a and b now know their inverses, so a∘b is handed b⁻¹∘a⁻¹
    assert a.hom.compose(b.hom) != b.hom.compose(a.hom)
    ab = a.compose(b)
    assert ab._inverse is not None
    assert ab.inverse().hom == FormIso(ab.source, ab.target, ab.hom).inverse().hom


def test_iso_direct_sum():
    e = e_form(1, 2)
    neg = FormIso(negate(hyperbolic(1)), hyperbolic(1),
                  GroupHom.from_gen_images(free_group(2), free_group(2), [(1, 0), (0, -1)]))
    with pytest.raises(HypothesisError):
        # coefficient groups differ (Z vs 0), so the sum is rejected
        iso_direct_sum(FormIso.identity(e), neg)
    total = iso_direct_sum(FormIso.identity(e), FormIso(dual(dual(e)), e, GroupHom.identity(e.group)))
    assert total.source.rank == 4
