"""Tests for the brute-force search module."""

import pytest

from qform.abelian import AbGroup, GroupHom, SubgroupRep, Z2, ZERO_GROUP, free_group
from qform.construct import stable_lagrangian_iso
from qform.errors import DimensionMismatch, HypothesisError, NodeLimitExceeded, SchemaError
from qform.forms import EQForm, hyperbolic
from qform.intmat import IntMatrix
from qform.lmonoid import qf_direct_sum, standard_elementary
from qform.oracle import (
    SearchBudget,
    brute_si,
    default_budget,
    enumerate_automorphisms,
    enumerate_lagrangians,
    search_isomorphism,
    search_stable_form_isomorphism,
    search_stable_isomorphism,
)
from qform.stableclass import e_ab, si_enumerate

V0 = GroupHom.zero(ZERO_GROUP, Z2)


def plain_form(rows, group=None):
    g = group or free_group(len(rows))
    return EQForm(g, IntMatrix.from_rows([list(r) for r in rows]), GroupHom.zero(g, ZERO_GROUP), None)


def test_budget_rejects_negative_fields():
    with pytest.raises(HypothesisError):
        SearchBudget(-1, 0, 10)


def test_default_budget_reads_environment(monkeypatch):
    monkeypatch.setenv("QFORM_NODE_LIMIT", "123")
    assert default_budget().node_limit == 123
    monkeypatch.delenv("QFORM_NODE_LIMIT")
    assert default_budget().node_limit == 200_000


def test_default_budget_rejects_a_malformed_environment(monkeypatch):
    monkeypatch.setenv("QFORM_NODE_LIMIT", "abc")
    with pytest.raises(SchemaError) as err:
        default_budget()
    assert err.value.path == "QFORM_NODE_LIMIT"


def test_default_budget_rejects_a_negative_environment(monkeypatch):
    monkeypatch.setenv("QFORM_NODE_LIMIT", "-1")
    with pytest.raises(SchemaError) as err:
        default_budget()
    assert err.value.path == "QFORM_NODE_LIMIT"


# -- lagrangian enumeration ----------------------------------------------


def test_plane_has_exactly_two_lagrangians():
    h2 = hyperbolic(1)
    for bound in (1, 2, 3):
        found = enumerate_lagrangians(h2, SearchBudget(bound, 0, 100_000))
        assert [s.generators() for s in found] == [[(0, 1)], [(1, 0)]]


def test_odd_form_lagrangians_within_growing_bounds():
    e = plain_form([[0, 1], [1, 1]])
    small = enumerate_lagrangians(e, SearchBudget(1, 0, 100_000))
    assert [s.generators() for s in small] == [[(1, 0)]]
    wider = enumerate_lagrangians(e, SearchBudget(2, 0, 100_000))
    assert [s.generators() for s in wider] == [[(1, -2)], [(1, 0)]]


def test_rank_four_lagrangian_count_at_bound_one():
    found = enumerate_lagrangians(hyperbolic(2), SearchBudget(1, 0, 200_000))
    assert len(found) == 8


def test_zero_rank_form_has_the_empty_lagrangian():
    g0 = free_group(0)
    e = EQForm(g0, IntMatrix.zeros(0, 0), GroupHom.zero(g0, ZERO_GROUP), None)
    found = enumerate_lagrangians(e, SearchBudget(1, 0, 100))
    assert len(found) == 1 and found[0].generators() == []


def test_lagrangian_scan_budget_is_a_distinct_failure():
    with pytest.raises(NodeLimitExceeded):
        enumerate_lagrangians(hyperbolic(2), SearchBudget(1, 0, 10))


def test_lagrangian_scan_preconditions():
    torsioned = EQForm(
        AbGroup(2, (2,)),
        IntMatrix.zeros(3, 3),
        GroupHom.zero(AbGroup(2, (2,)), ZERO_GROUP),
        None,
    )
    with pytest.raises(HypothesisError):
        enumerate_lagrangians(torsioned)
    with pytest.raises(HypothesisError):
        enumerate_lagrangians(plain_form([[0, 0], [0, 0]]))


# -- isomorphism search --------------------------------------------------


def test_swap_is_found_between_swapped_values():
    r = search_isomorphism(e_ab(2, 3), e_ab(3, 2))
    assert r.iso is not None and r.exhaustive
    assert r.iso.hom.matrix.tolist() == [[0, 1], [1, 0]]


def test_inequivalent_values_are_settled_negatively():
    # over the plane any iso permutes the four isotropic primitives, so a
    # bound of one already exhausts the search space
    r = search_isomorphism(e_ab(1, 6), e_ab(2, 3))
    assert r.iso is None and r.exhaustive


def test_identity_is_found_first_on_equal_forms():
    r = search_isomorphism(e_ab(2, 3), e_ab(2, 3))
    assert r.iso.hom.matrix.tolist() == [[1, 0], [0, 1]]


def test_equivalent_even_form_is_recognized():
    b = plain_form([[2, 1], [1, 0]])
    r = search_isomorphism(hyperbolic(1), b, SearchBudget(1, 0, 10_000))
    assert r.iso is not None
    assert r.iso.hom.matrix.tolist() == [[0, 1], [1, -1]]


def test_miss_outside_the_plane_is_not_exhaustive():
    f1 = plain_form([[0, 2], [2, 0]])
    f2 = plain_form([[2, 0], [0, -2]])
    r = search_isomorphism(f1, f2, SearchBudget(3, 0, 100_000))
    assert r.iso is None and not r.exhaustive


def test_rank_mismatch_is_an_error():
    with pytest.raises(DimensionMismatch):
        search_isomorphism(hyperbolic(1), hyperbolic(2))


def test_different_coefficients_cannot_be_isomorphic():
    over_z = e_ab(0, 0)
    over_zero = plain_form([[0, 1], [1, 0]])
    r = search_isomorphism(over_z, over_zero)
    assert r.iso is None and r.exhaustive and r.nodes == 0


def test_iso_search_node_limit():
    with pytest.raises(NodeLimitExceeded):
        search_isomorphism(e_ab(2, 3), e_ab(3, 2), SearchBudget(3, 0, 5))


def test_automorphisms_of_the_plane():
    auts = enumerate_automorphisms(hyperbolic(1), SearchBudget(1, 0, 10_000))
    assert [a.hom.matrix.tolist() for a in auts] == [
        [[-1, 0], [0, -1]],
        [[0, -1], [-1, 0]],
        [[0, 1], [1, 0]],
        [[1, 0], [0, 1]],
    ]


def test_coefficients_cut_the_automorphisms_down():
    # of the four pairing automorphisms only the identity fixes mu = (2,3)
    auts = enumerate_automorphisms(e_ab(2, 3), SearchBudget(1, 0, 10_000))
    assert len(auts) == 1


def test_automorphisms_with_torsion_coordinates():
    g = AbGroup(1, (3,))
    e = EQForm(g, IntMatrix.from_rows([[2, 0], [0, 0]]), GroupHom.zero(g, ZERO_GROUP), None)
    auts = enumerate_automorphisms(e, SearchBudget(1, 0, 100_000))
    assert len(auts) == 12


# -- stable searches -----------------------------------------------------


def test_stabilized_copy_is_found_at_one_extra_plane():
    q = standard_elementary(1)
    qp = qf_direct_sum(q, standard_elementary(1))
    w = search_stable_isomorphism(q, qp, SearchBudget(1, 2, 100_000))
    assert (w.k, w.l) == (1, 0)
    assert w.iso.hom.matrix.tolist() == [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]


def test_equal_formations_need_no_stabilization():
    q = standard_elementary(1)
    w = search_stable_isomorphism(q, q, SearchBudget(1, 1, 10_000))
    assert (w.k, w.l) == (0, 0)
    assert w.iso.hom.matrix.tolist() == [[1, 0], [0, 1]]


def test_stable_form_scan_agrees_with_the_constructive_route():
    g2 = free_group(2)
    b = EQForm(g2, IntMatrix.from_rows([[2, 1], [1, 0]]), GroupHom.zero(g2, ZERO_GROUP), V0)
    h2 = hyperbolic(1, ZERO_GROUP, V0)
    constructive = stable_lagrangian_iso(
        b,
        SubgroupRep.from_elements(g2, [(0, 1)]),
        h2,
        SubgroupRep.from_elements(h2.group, [(0, 1)]),
    )
    assert constructive.iso.hom.matrix.is_unimodular()
    scanned = search_stable_form_isomorphism(b, h2, SearchBudget(2, 2, 500_000))
    assert scanned is not None
    assert scanned.iso.hom.matrix.tolist() == [[1, 0], [1, 1]]


def test_stable_form_scan_between_equivalent_values():
    w = search_stable_form_isomorphism(
        e_ab(1, 6), e_ab(2, 3), SearchBudget(9, 1, 5_000_000)
    )
    assert w is not None and (w.k, w.l) == (1, 1)


def test_stable_form_scan_gives_up_within_small_bounds():
    assert (
        search_stable_form_isomorphism(e_ab(1, 6), e_ab(2, 3), SearchBudget(3, 1, 5_000_000))
        is None
    )


def test_stable_scan_rejects_mismatched_coefficients():
    q = standard_elementary(1)
    qz = standard_elementary(1, free_group(1), GroupHom.zero(free_group(1), Z2))
    with pytest.raises(DimensionMismatch):
        search_stable_isomorphism(q, qz)


# -- brute-force class counts --------------------------------------------


def test_brute_si_frozen_examples():
    assert brute_si(1, 6).size == 2
    assert brute_si(1, 6).representatives == ((1, 6), (2, 3))
    assert brute_si(2, 2).size == 1
    assert brute_si(1, 30).size == 4
    assert brute_si(0, 5).representatives == ((0, 5),)
    assert brute_si(0, 0).representatives == ((0, 0),)


def test_brute_si_agrees_with_enumeration():
    for a in range(-30, 31):
        for b in range(-30, 31):
            if abs(a * b) > 30:
                continue
            assert brute_si(a, b) == si_enumerate(a, b)
