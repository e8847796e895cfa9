"""Tests for the constructive isomorphism machinery."""

import random

import pytest

from qform.abelian import AbGroup, GroupHom, SubgroupRep, Z2, ZERO_GROUP, direct_complement, free_group
from qform.construct import (
    Flip,
    Keep,
    RUWord,
    _WALL_PATTERN,
    _dual_basis,
    _frame,
    _straighten_f_basis,
    diagonal_lagrangians,
    double_to_hyperbolic,
    is_hyperbolic_with_witness,
    metabolic_basis,
    neg_isomorphism,
    ru_wall_witness,
    ru_word_eval,
    stable_lagrangian_iso,
)
from qform.errors import HypothesisError
from qform.forms import (
    EQForm,
    FormIso,
    form_direct_sum,
    hyperbolic,
    iso_direct_sum,
    negate,
    permuted,
    pullback,
    subgroup_classify,
    swap_blocks,
)
from qform.intmat import IntMatrix

Z = free_group(1)
V0 = GroupHom.from_gen_images(Z, Z2, [(0,)])


def metabolic_form(matrix_rows, mu_images=None, v=None):
    rows = [list(r) for r in matrix_rows]
    g = free_group(len(rows))
    if mu_images is None:
        mu = GroupHom.zero(g, ZERO_GROUP)
    else:
        mu = GroupHom.from_gen_images(g, Z, [(c,) for c in mu_images])
    return EQForm(g, IntMatrix.from_rows(rows), mu, v)


def sub(form, *gens):
    return SubgroupRep.from_elements(form.group, gens)


def random_unimodular(rng, n, spread=2):
    """Product of random elementary shears and a permutation with signs."""
    m = IntMatrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        shear = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        shear[i][j] = rng.randrange(-spread, spread + 1)
        m = m.mul(IntMatrix.from_rows(shear))
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice([-1, 1]) for _ in range(n)]
    perm = [[signs[a] if b == order[a] else 0 for b in range(n)] for a in range(n)]
    return m.mul(IntMatrix.from_rows(perm))


# -- metabolic bases ---------------------------------------------------


def test_metabolic_basis_h2_is_identity():
    h = hyperbolic(1)
    mb = metabolic_basis(h, sub(h, (1, 0)))
    assert mb.diag == (0,)
    assert mb.basis == IntMatrix.identity(2)


@pytest.mark.parametrize("corner,expected_d", [(5, 1), (4, 0), (1, 1), (0, 0), (-3, 1)])
def test_metabolic_basis_rank_two(corner, expected_d):
    e = metabolic_form([[0, 1], [1, corner]])
    mb = metabolic_basis(e, sub(e, (1, 0)))
    assert mb.diag == (expected_d,)


def test_metabolic_basis_rejects_non_lagrangian():
    h = hyperbolic(1)
    with pytest.raises(HypothesisError):
        metabolic_basis(h, sub(h, (1, 1)))
    singular = metabolic_form([[0, 2], [2, 0]])
    with pytest.raises(HypothesisError):
        metabolic_basis(singular, sub(singular, (1, 0)))


def test_metabolic_basis_randomized():
    # pull back normal forms by random unimodular maps; the recursion must
    # recover the exact block shape every time
    rng = random.Random(101)
    for _ in range(50):
        k = rng.randrange(1, 5)
        d = [rng.randrange(2) for _ in range(k)]
        base = metabolic_form(_block(k, d))
        u = random_unimodular(rng, 2 * k)
        twisted = pullback(GroupHom(base.group, base.group, u), base)
        uinv = u.inverse_unimodular()
        lagr = SubgroupRep.from_elements(twisted.group, [uinv.column(i) for i in range(k)])
        mb = metabolic_basis(twisted, lagr)
        assert set(mb.diag) <= {0, 1}
        # the MetabolicBasis constructor re-checks the block identity, the
        # unimodularity and the span; reaching here is the assertion


def _block(k, d):
    top = IntMatrix.zeros(k, k).hstack(IntMatrix.identity(k))
    bottom = IntMatrix.identity(k).hstack(IntMatrix.diagonal(d))
    return top.vstack(bottom).tolist()


# -- hyperbolic recognition -------------------------------------------


def test_hyperbolic_witness_h4():
    h4 = hyperbolic(2)
    iso = is_hyperbolic_with_witness(h4, sub(h4, (1, 0, 0, 0), (0, 1, 0, 0)))
    assert iso.hom.matrix == IntMatrix.identity(4)


def test_hyperbolic_witness_refusals():
    odd = metabolic_form([[0, 1], [1, 1]])
    with pytest.raises(HypothesisError) as err:
        is_hyperbolic_with_witness(odd, sub(odd, (1, 0)))
    assert "even" in str(err.value)
    eab = metabolic_form([[0, 1], [1, 0]], mu_images=[2, 3], v=V0)
    with pytest.raises(HypothesisError) as err2:
        is_hyperbolic_with_witness(eab, sub(eab, (1, 0)))
    assert "mu" in str(err2.value)


def test_e00_shape_is_hyperbolic():
    # μ = (0,0) over the zero group: genuinely hyperbolic
    e = metabolic_form([[0, 1], [1, 0]])
    iso = is_hyperbolic_with_witness(e, sub(e, (1, 0)))
    assert iso.target == hyperbolic(1)


# -- negation isomorphism ---------------------------------------------


def test_neg_isomorphism_h2():
    h = hyperbolic(1)
    j = neg_isomorphism(h, sub(h, (1, 0)))
    assert j.hom.matrix == IntMatrix.from_rows([[1, 0], [0, -1]])


def test_neg_isomorphism_odd_corner():
    e = metabolic_form([[0, 1], [1, 1]])
    j = neg_isomorphism(e, sub(e, (1, 0)))
    # f ↦ e - f
    assert j.hom.apply((0, 1)) == (1, -1)
    assert e.lam((1, -1), (1, -1)) == -e.lam((0, 1), (0, 1))


def test_neg_isomorphism_fixes_lagrangian():
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randrange(1, 4)
        d = [rng.randrange(2) for _ in range(k)]
        base = metabolic_form(_block(k, d))
        u = random_unimodular(rng, 2 * k)
        twisted = pullback(GroupHom(base.group, base.group, u), base)
        uinv = u.inverse_unimodular()
        lagr = SubgroupRep.from_elements(twisted.group, [uinv.column(i) for i in range(k)])
        j = neg_isomorphism(twisted, lagr)
        for g in lagr.generators():
            assert j.apply(g) == g


# -- doubling ----------------------------------------------------------


def test_double_to_hyperbolic_h2():
    h = hyperbolic(1)
    lagr = sub(h, (1, 0))
    iso = double_to_hyperbolic(h, lagr)
    assert iso.source.rank == 4 and iso.target.rank == 4
    ll = SubgroupRep.from_elements(iso.source.group, [(1, 0, 0, 0), (0, 0, 1, 0)])
    image = ll.transport(iso.hom)
    assert image == SubgroupRep.from_elements(iso.target.group, [(1, 0, 0, 0), (0, 0, 0, 1)])


def test_double_to_hyperbolic_odd():
    e = metabolic_form([[0, 1], [1, 1]])
    iso = double_to_hyperbolic(e, sub(e, (1, 0)))
    assert iso.target.rank == 2 * e.rank


# -- bases and frames against their entry-by-entry definitions ----------
#
# The references below build each basis vector and each frame image one
# coordinate at a time, as the recursion and the image formulas state
# them; construct builds the same integers as matrix products.


def scrambled_metabolic(rng, k):
    """[[0, I], [I, S]] for a random symmetric S (odd entries included) in a
    random basis, with the lagrangian spanned by the first k old basis vectors."""
    n = 2 * k
    g = free_group(n)
    s = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            s[i][j] = s[j][i] = rng.randrange(-3, 4)
    top = IntMatrix.zeros(k, k).hstack(IntMatrix.identity(k))
    bottom = IntMatrix.identity(k).hstack(IntMatrix.from_rows(s, k))
    base = EQForm(g, top.vstack(bottom), GroupHom.zero(g, ZERO_GROUP), None)
    u = random_unimodular(rng, n) if k else IntMatrix.identity(0)
    uinv = u.inverse_unimodular()
    lagr = SubgroupRep.from_elements(g, [uinv.column(i) for i in range(k)])
    return pullback(GroupHom(g, g, u), base), lagr


def scrambled_forms(seed, count):
    rng = random.Random(seed)
    return [scrambled_metabolic(rng, k) for k in [0] + [rng.randrange(1, 5) for _ in range(count)]]


def reference_dual_basis(e, l_basis, f_basis):
    r = len(l_basis)
    p = IntMatrix.from_rows([[e.lam(li, fj) for fj in f_basis] for li in l_basis], r)
    pinv = p.inverse_unimodular()
    n = e.group.num_gens
    out = []
    for i in range(r):
        vec = [0] * n
        for s in range(r):
            c = pinv.entries[i][s]
            for t in range(n):
                vec[t] += c * l_basis[s][t]
        out.append(tuple(vec))
    return out


def reference_straighten(e, es, fs):
    """f̄_i = f_i - Σ_{j<i} λ(f̄_j, f_i) e_j - ⌊λ(f_i, f_i)/2⌋ e_i, one vector at a time."""
    n = e.group.num_gens
    fbar, diag = [], []
    for i, f in enumerate(fs):
        cur = list(f)
        for j, prev in enumerate(fbar):
            c = e.lam(prev, f)
            for t in range(n):
                cur[t] -= c * es[j][t]
        half = e.lam(f, f) // 2
        for t in range(n):
            cur[t] -= half * es[i][t]
        fbar.append(tuple(cur))
        diag.append(e.lam(f, f) % 2)
    return fbar, diag


def reference_frame(mb, images):
    """The frame sending the metabolic basis (e, f, ē, f̄) of M ⊕ M' to ``images``.

    ``images(e_cols, f_cols, d)`` lists, per basis vector, its M part (or
    None) and its a and b coordinates as {index: coefficient} maps.
    """
    s = len(mb.diag)
    n = 2 * s
    e_cols = [mb.basis.column(i) for i in range(s)]
    f_cols = [mb.basis.column(s + i) for i in range(s)]
    cols = []
    for m_part, a, b in images(e_cols, f_cols, mb.diag):
        out = [0] * (2 * n)
        if m_part is not None:
            for t in range(n):
                out[t] += m_part[t]
        for idx, c in a.items():
            out[n + idx] = c
        for idx, c in b.items():
            out[n + s + idx] = c
        cols.append(out)
    src_basis = IntMatrix.block_diagonal([mb.basis, mb.basis])
    return IntMatrix.from_columns(cols, rows=2 * n).mul(src_basis.inverse_unimodular())


def double_images(e_cols, f_cols, d):
    """e_i ↦ e_i + b_i, f_i ↦ f_i + d_i b_i, ē_i ↦ -b_i, f̄_i ↦ f_i - a_i."""
    s = len(d)
    return (
        [(e_cols[i], {}, {i: 1}) for i in range(s)]
        + [(f_cols[i], {}, {i: d[i]}) for i in range(s)]
        + [(None, {}, {i: -1}) for i in range(s)]
        + [(f_cols[i], {i: -1}, {}) for i in range(s)]
    )


def wall_images(e_cols, f_cols, d):
    """e_i ↦ -b_i, f_i ↦ f_i - a_i, ē_i ↦ e_i + b_i, f̄_i ↦ d_i e_i - f_i."""
    s = len(d)
    return (
        [(None, {}, {i: -1}) for i in range(s)]
        + [(f_cols[i], {i: -1}, {}) for i in range(s)]
        + [(e_cols[i], {}, {i: 1}) for i in range(s)]
        + [([d[i] * x - y for x, y in zip(e_cols[i], f_cols[i])], {}, {}) for i in range(s)]
    )


def test_normal_basis_matches_the_recursion():
    odd = 0
    for e, lagr in scrambled_forms(808, 40):
        n = e.group.num_gens
        l_gens = list(lagr.generators())
        f_gens = list(direct_complement(lagr).generators())
        es = _dual_basis(e, IntMatrix.from_rows(l_gens, n), IntMatrix.from_rows(f_gens, n))
        ref_es = reference_dual_basis(e, l_gens, f_gens)
        assert list(es.entries) == ref_es
        fbar, diag = _straighten_f_basis(e, es, IntMatrix.from_rows(f_gens, n))
        ref_fbar, ref_diag = reference_straighten(e, ref_es, f_gens)
        assert list(fbar.entries) == ref_fbar
        assert list(diag) == ref_diag
        mb = metabolic_basis(e, lagr)
        assert mb.basis == IntMatrix.from_columns([list(v) for v in ref_es + ref_fbar], rows=n)
        assert mb.diag == tuple(ref_diag)
        odd += 1 in diag
    assert odd > 5  # odd D entries are drawn


def test_frames_match_their_image_formulas():
    for e, lagr in scrambled_forms(909, 25):
        mb = metabolic_basis(e, lagr)
        assert double_to_hyperbolic(e, lagr).hom.matrix == reference_frame(mb, double_images)
        assert _frame(e, mb, form_direct_sum(e, negate(e)), _WALL_PATTERN)[0].hom.matrix == reference_frame(mb, wall_images)


def test_wall_frame_is_doubling_after_negation_and_swap():
    # F = I ∘ σ ∘ (id ⊕ J): J : -M → M fixes L, σ swaps the copies of M
    for e, lagr in scrambled_forms(1010, 25):
        mb = metabolic_basis(e, lagr)
        j = neg_isomorphism(e, lagr).hom.matrix
        j_back = FormIso(negate(e), e, GroupHom(e.group, e.group, j))
        sigma = swap_blocks(form_direct_sum(e, e).form, e.group.num_gens)
        composite = double_to_hyperbolic(e, lagr).compose(sigma).compose(
            iso_direct_sum(FormIso.identity(e), j_back)
        )
        assert composite.hom == _frame(e, mb, form_direct_sum(e, negate(e)), _WALL_PATTERN)[0].hom


# -- diagonal lagrangians ---------------------------------------------


def test_diagonal_lagrangians_identity_h2():
    h = hyperbolic(1)
    d = diagonal_lagrangians(FormIso.identity(h))
    assert d.diagonal.contains((1, 0, 1, 0)) and d.diagonal.contains((0, 1, 0, 1))
    assert subgroup_classify(d.sum_form, d.diagonal).free_lagrangian


def test_diagonal_lagrangians_with_mu():
    e = metabolic_form([[0, 1], [1, 0]], mu_images=[2, 3], v=V0)
    d = diagonal_lagrangians(FormIso.identity(e))
    assert subgroup_classify(d.sum_form, d.diagonal).free_lagrangian
    assert subgroup_classify(d.star_sum_form, d.anti_diagonal).free_lagrangian
    # and the diagonal is not a lagrangian for the starred sum
    flags = subgroup_classify(d.star_sum_form, d.diagonal)
    assert not flags.mu_vanishes


# -- stable isomorphism -----------------------------------------------


def full_geometric(a, b):
    return metabolic_form([[0, 1], [1, 0]], mu_images=[a, b], v=V0)


def test_stable_iso_sign_flip():
    e = full_geometric(0, 1)
    e2 = full_geometric(0, -1)
    lagr = sub(e, (1, 0))
    res = stable_lagrangian_iso(e, lagr, e2, lagr)
    assert res.iso.source.rank == e.rank + 2 * res.k
    assert res.iso.target.rank == e2.rank + 2 * res.l
    assert res.source_lagrangian.transport(res.iso.hom) == res.target_lagrangian


def test_stable_iso_stable_mode_uneven_ranks():
    e = full_geometric(0, 1)
    lagr = sub(e, (1, 0))
    pad = form_direct_sum(e, full_geometric(0, 1))
    big = pad.form
    big_l = SubgroupRep.from_elements(big.group, [(1, 0, 0, 0), (0, 0, 1, 0)])
    res = stable_lagrangian_iso(e, lagr, big, big_l)
    assert res.iso.source.rank == e.rank + 2 * res.k
    assert res.iso.target.rank == big.rank + 2 * res.l
    assert res.source_lagrangian.transport(res.iso.hom) == res.target_lagrangian


def test_stable_iso_identity_case():
    e = full_geometric(0, 1)
    lagr = sub(e, (1, 0))
    res = stable_lagrangian_iso(e, lagr, e, lagr)
    assert res.iso.source.rank == e.rank + 2 * res.k
    assert res.iso.target.rank == e.rank + 2 * res.l
    assert res.source_lagrangian.transport(res.iso.hom) == res.target_lagrangian


def test_stable_iso_randomized_twists():
    rng = random.Random(55)
    base = full_geometric(0, 1)
    base_l = sub(base, (1, 0))
    for _ in range(15):
        u1 = random_unimodular(rng, 2)
        u2 = random_unimodular(rng, 2)
        f1 = pullback(GroupHom(base.group, base.group, u1), base)
        f2 = pullback(GroupHom(base.group, base.group, u2), base)
        l1 = base_l.preimage(GroupHom(base.group, base.group, u1))
        l2 = base_l.preimage(GroupHom(base.group, base.group, u2))
        res = stable_lagrangian_iso(f1, l1, f2, l2)
        assert res.source_lagrangian.transport(res.iso.hom) == res.target_lagrangian


def test_stable_iso_hypothesis_errors():
    e = full_geometric(0, 1)
    lagr = sub(e, (1, 0))
    nov = metabolic_form([[0, 1], [1, 0]], mu_images=[0, 1])
    with pytest.raises(HypothesisError):
        stable_lagrangian_iso(nov, lagr, nov, lagr)
    not_full = full_geometric(0, 2)
    with pytest.raises(HypothesisError) as err:
        stable_lagrangian_iso(not_full, lagr, not_full, lagr)
    assert "full" in str(err.value)


def test_stable_iso_over_torsion_coefficients():
    q = AbGroup(0, (2,))
    g = free_group(2)
    v = GroupHom.from_gen_images(q, Z2, [(0,)])
    e = EQForm(g, IntMatrix.from_rows([[0, 1], [1, 0]]),
               GroupHom.from_gen_images(g, q, [(0,), (1,)]), v)
    lagr = sub(e, (1, 0))
    res = stable_lagrangian_iso(e, lagr, e, lagr)
    assert res.source_lagrangian.transport(res.iso.hom) == res.target_lagrangian


# -- RU words ----------------------------------------------------------


def geo_hyperbolic(k):
    return hyperbolic(k, ZERO_GROUP, GroupHom.zero(ZERO_GROUP, Z2))


def test_empty_word_is_identity():
    h = geo_hyperbolic(1)
    w = RUWord(h, sub(h, (0, 1)), ())
    assert ru_word_eval(w).hom == GroupHom.identity(h.group)


def test_single_flip_is_sigma():
    h = geo_hyperbolic(1)
    flip = Flip(FormIso.identity(h), SubgroupRep.zero(free_group(0)))
    w = RUWord(h, sub(h, (0, 1)), (flip,))
    assert ru_word_eval(w).hom.matrix == IntMatrix.from_rows([[0, 1], [1, 0]])


def test_inverse_keeps_cancel():
    h = geo_hyperbolic(1)
    a = FormIso(h, h, GroupHom.from_gen_images(h.group, h.group, [(-1, 0), (0, -1)]))
    w = RUWord(h, sub(h, (0, 1)), (Keep(a), Keep(a.inverse())))
    assert ru_word_eval(w).hom == GroupHom.identity(h.group)


def test_keep_must_preserve_lagrangian():
    h = geo_hyperbolic(1)
    sigma = FormIso(h, h, GroupHom.from_gen_images(h.group, h.group, [(0, 1), (1, 0)]))
    w = RUWord(h, sub(h, (0, 1)), (Keep(sigma),))
    with pytest.raises(HypothesisError) as err:
        ru_word_eval(w)
    assert "generator 0" in str(err.value)


def test_flip_with_a_wrong_rest_lagrangian_is_refused():
    # H_4 with pair 0 moved to the front: the lagrangian ⟨b1, b2⟩ lands on ({0} × Z) ⊕ ⟨b2⟩
    h = geo_hyperbolic(2)
    lagr = sub(h, (0, 0, 1, 0), (0, 0, 0, 1))
    witness = permuted(h, [0, 2, 1, 3])
    rest = hyperbolic(1, ZERO_GROUP, h.v)
    good, wrong = sub(rest, (0, 1)), sub(rest, (1, 0))  # both lagrangians of the rest
    assert ru_word_eval(RUWord(h, lagr, (Flip(witness, good),))).hom.matrix == IntMatrix.permutation([2, 1, 0, 3])
    with pytest.raises(HypothesisError) as err:
        ru_word_eval(RUWord(h, lagr, (Keep(FormIso.identity(h)), Flip(witness, wrong))))
    assert str(err.value) == "generator 1: witness does not carry the lagrangian onto ({0}×Z) ⊕ L'"


def test_word_inverse_evaluates_to_inverse():
    h = geo_hyperbolic(1)
    lagr = sub(h, (0, 1))
    minus = FormIso(h, h, GroupHom.from_gen_images(h.group, h.group, [(-1, 0), (0, -1)]))
    flip = Flip(FormIso.identity(h), SubgroupRep.zero(free_group(0)))
    w = RUWord(h, lagr, (Keep(minus), flip))
    fwd = ru_word_eval(w)
    back = ru_word_eval(w.inverse())
    assert fwd.hom.compose(back.hom) == GroupHom.identity(h.group)


# -- the Wall-type factorization --------------------------------------


def h2_automorphisms():
    h = geo_hyperbolic(1)
    mats = ([[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1], [-1, 0]])
    return h, [FormIso(h, h, GroupHom(h.group, h.group, IntMatrix.from_rows(m))) for m in mats]


def test_ru_wall_h2_all_automorphisms():
    h, auts = h2_automorphisms()
    lagr = sub(h, (0, 1))
    for phi in auts:
        witness = ru_wall_witness(h, lagr, phi)
        value = ru_word_eval(witness.word)
        assert value.hom == witness.expected.hom


def test_ru_wall_identity_word_evaluates_to_identity():
    h, _ = h2_automorphisms()
    lagr = sub(h, (0, 1))
    witness = ru_wall_witness(h, lagr, FormIso.identity(h))
    assert ru_word_eval(witness.word).hom == GroupHom.identity(witness.ambient.group)


def test_ru_wall_rank_four():
    rng = random.Random(99)
    h = geo_hyperbolic(2)
    lagr = SubgroupRep.from_elements(h.group, [(0, 0, 1, 0), (0, 0, 0, 1)])
    for _ in range(5):
        phi = random_h_automorphism(rng, 2)
        witness = ru_wall_witness(h, lagr, phi)
        assert ru_word_eval(witness.word).hom == witness.expected.hom


def random_h_automorphism(rng, k):
    """Random automorphism of the geometric hyperbolic form of rank 2k.

    Generated by block maps (A, A^{-T}), skew shears, and the total flip.
    """
    h = geo_hyperbolic(k)
    n = 2 * k
    result = GroupHom.identity(h.group)
    for _ in range(4):
        kind = rng.randrange(3)
        if kind == 0:
            a = random_unimodular(rng, k, spread=1)
            at = a.inverse_unimodular().transpose()
            m = IntMatrix.block_diagonal([a, at])
        elif kind == 1:
            b = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i):
                    c = rng.randrange(-2, 3)
                    b[i][j] = c
                    b[j][i] = -c
            top = IntMatrix.identity(k).hstack(IntMatrix.from_rows(b, k))
            bottom = IntMatrix.zeros(k, k).hstack(IntMatrix.identity(k))
            m = top.vstack(bottom)
        else:
            top = IntMatrix.zeros(k, k).hstack(IntMatrix.identity(k))
            bottom = IntMatrix.identity(k).hstack(IntMatrix.zeros(k, k))
            m = top.vstack(bottom)
        result = GroupHom(h.group, h.group, m).compose(result)
    return FormIso(h, h, result)


# -- inverses of the isomorphisms the word construction builds ----------


@pytest.mark.parametrize("perm", [[0, 1, 2, 3], [2, 3, 0, 1], [1, 3, 0, 2], [3, 2, 1, 0]])
def test_permuted_is_handed_the_transpose_as_its_inverse(perm):
    e = metabolic_form([[0, 1, 0, 0], [1, 3, 0, 0], [0, 0, 0, 1], [0, 0, 1, -2]], [0, 1, 2, 5], V0)
    iso = permuted(e, perm)
    assert iso.inverse_hom == GroupHom(e.group, e.group, iso.hom.matrix.inverse_unimodular())
    assert iso.inverse_hom.matrix == iso.hom.matrix.transpose()
    # new slot i holds old slot perm[i]
    for i, p in enumerate(perm):
        assert iso.apply(e.group.gen(p)) == e.group.gen(i)
    assert iso.compose(iso.inverse()).hom == GroupHom.identity(e.group)


def test_flip_witness_inverses_match_elimination():
    rng = random.Random(5)
    h = geo_hyperbolic(2)
    lagr = SubgroupRep.from_elements(h.group, [(0, 0, 1, 0), (0, 0, 0, 1)])
    witness = ru_wall_witness(h, lagr, random_h_automorphism(rng, 2))
    for letter in witness.word.letters:
        if isinstance(letter, Flip):
            w = letter.witness
            assert w.inverse_hom.matrix == w.hom.matrix.inverse_unimodular()
