"""Constructive isomorphisms between metabolic forms.

Everything here returns explicit matrices: metabolic normal bases, the
isomorphism M ≅ -M fixing a lagrangian, the doubling isomorphism
M⊕M ≅ M⊕H, the stable isomorphism between full geometric metabolic
forms, and words in the lagrangian-respecting unitary group (Keep/Flip
generators) including the Wall-type factorization of Φ ⊕ Φ⁻¹.

Bases and frames are matrix products in the metabolic basis: the normal
basis comes from the pairing matrices L·Λ·Fᵀ and F·Λ·Fᵀ, and each frame
is the metabolic basis applied to a constant pattern of blocks 0, ±I, D.

What is checked where: the frames, ``neg_isomorphism`` and
``stable_lagrangian_iso`` pass their ``FormIso`` through the public
constructor (λ and μ pulled back, bijective), and the last checks that it
carries one lagrangian onto the other; a ``MetabolicBasis`` checks its
shape, normal form (which makes it unimodular) and span; ``ru_word_eval``
checks once that the word's lagrangian is a free lagrangian, and every
distinct letter against it, a Flip letter as a ``FlipL`` move is checked
(a split target, and a lagrangian whose Hermite basis ``forms.flip_split``
reads as ({0} × Z) ⊕ L').  What is composed from those, such as B⁻¹ for a
checked basis B, or ``ru_wall_witness``'s Flip letters (permutations after
id ⊕ F for its checked frame F) and their product F⁻¹ ∘ (id ⊕ Σ) ∘ F, is
not checked again, nor are the lattice steps in between (complements,
matched surjections), which hold by construction in ``abelian``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abelian import GroupHom, SubgroupRep, direct_complement, invert_iso, match_surjections
from .errors import HypothesisError, NoSolution, NotWellDefined, VMissing
from .forms import (
    EQForm,
    FormIso,
    FormSum,
    form_direct_sum,
    hyperbolic,
    hyperbolic_halves,
    _iso_on_sums,
    negate,
    dual,
    flip_split,
    permuted,
    _permuted_onto,
    pullback,
    split_pair,
    subgroup_classify,
    _swap_blocks,
)
from .intmat import IntMatrix


# -- shared basis machinery -------------------------------------------


def _require_free_metabolic(e: EQForm, l: SubgroupRep, who: str):
    if not e.is_free():
        raise HypothesisError("not free", who)
    if not e.is_nonsingular():
        raise HypothesisError("not nonsingular", who)
    flags = subgroup_classify(e, l)
    if not flags.free_lagrangian:
        raise HypothesisError("not a lagrangian", who)


def _dual_basis(e: EQForm, l_basis: IntMatrix, f_basis: IntMatrix) -> IntMatrix:
    """Rows e_i spanning the row span of l_basis with λ(e_i, f_j) = δ_ij.

    With P = L·Λ·Fᵀ the pairing of the rows, E = P⁻¹·L.  P is unimodular
    whenever the rows of L span a lagrangian and the rows of F a
    complement.
    """
    p = l_basis.mul(e.matrix).mul(f_basis.transpose())
    try:
        pinv = p.inverse_unimodular()
    except NoSolution as exc:
        raise HypothesisError("dual basis", "pairing of lagrangian against complement is singular") from exc
    return pinv.mul(l_basis)


def _straighten_f_basis(e: EQForm, es: IntMatrix, fs: IntMatrix) -> tuple[IntMatrix, tuple[int, ...]]:
    """Rows f̄_i with λ(f̄_i, f̄_j) = δ_ij · d_i, d_i ∈ {0, 1}, and the d_i.

    With G = F·Λ·Fᵀ: F̄ = F − N·E and d_i = G_ii mod 2, where N holds G
    below the diagonal, ⌊G_ii/2⌋ on it and 0 above it.  This is the
    recursion f̄_i = f_i − Σ_{j<i} λ(f̄_j, f_i) e_j − ⌊λ(f_i, f_i)/2⌋ e_i
    in closed form: the e_k are isotropic and dual to the f_i, so
    λ(e_k, f_i) = δ_ki gives λ(f̄_j, f_i) = λ(f_j, f_i) for j < i.  Each
    correction kills an off-diagonal pairing while preserving μ.
    """
    g = fs.mul(e.matrix).mul(fs.transpose()).entries
    r = fs.rows
    n = IntMatrix.from_rows([g[i][:i] + (g[i][i] // 2,) + (0,) * (r - 1 - i) for i in range(r)], r)
    return fs.sub(n.mul(es)), tuple(g[i][i] % 2 for i in range(r))


def _normal_basis(e: EQForm, l_basis: IntMatrix, f_basis: IntMatrix) -> tuple[IntMatrix, tuple[int, ...]]:
    """Columns e_1..e_r, f̄_1..f̄_r in which the pairing is [[0, I], [I, D]], and D.

    The rows of ``l_basis`` span a lagrangian and those of ``f_basis`` a
    complement of it.
    """
    es = _dual_basis(e, l_basis, f_basis)
    fbar, diag = _straighten_f_basis(e, es, f_basis)
    return es.vstack(fbar).transpose(), diag


@dataclass(frozen=True)
class MetabolicBasis:
    """A basis in which the pairing becomes [[0, I], [I, D]], D diagonal 0/1.

    ``basis`` has the new basis vectors as columns; the first half spans
    the given lagrangian.
    """

    form: EQForm
    lagrangian: SubgroupRep
    basis: IntMatrix
    diag: tuple[int, ...]

    def __post_init__(self):
        k = len(self.diag)
        b = self.basis
        if b.rows != 2 * k or b.cols != 2 * k:
            raise NotWellDefined("metabolic basis has wrong shape")
        # bᵀλb = [[0, I], [I, D]] has determinant ±1, so det(b)²·det λ = ±1 and b is unimodular
        expected = IntMatrix.block_pattern(("0 I", "I D"), self.diag)
        if b.transpose().mul(self.form.matrix).mul(b) != expected:
            try:
                b.inverse_unimodular()
            except NoSolution:
                raise NotWellDefined("metabolic basis is not unimodular") from None
            raise NotWellDefined("metabolic basis does not normalize the pairing")
        span = SubgroupRep.from_sparse(self.form.group, b.transpose().sparse[:k])
        if span != self.lagrangian:
            raise NotWellDefined("first half of metabolic basis does not span the lagrangian")


def metabolic_basis(e: EQForm, l: SubgroupRep) -> MetabolicBasis:
    """Normal basis of a free metabolic form adapted to a lagrangian."""
    _require_free_metabolic(e, l, "metabolic basis")
    basis, diag = _normal_basis(e, l.generator_matrix(), direct_complement(l).generator_matrix())
    return MetabolicBasis(e, l, basis, diag)


def is_hyperbolic_with_witness(e: EQForm, l: SubgroupRep) -> FormIso:
    """Isomorphism onto the standard hyperbolic form of the same rank.

    Requires the conditions that characterize hyperbolic forms: free,
    nonsingular with a lagrangian, even, and μ = 0.  The failing
    condition is named in the raised error.
    """
    if not e.is_free():
        raise HypothesisError("not free")
    if not e.mu.is_zero():
        raise HypothesisError("mu nonzero")
    if not e.is_even():
        raise HypothesisError("not even")
    mb = metabolic_basis(e, l)  # raises "not nonsingular" / "not a lagrangian"
    assert all(d == 0 for d in mb.diag)  # evenness forces D = 0
    target = hyperbolic(len(mb.diag), e.target, e.v)
    basis = GroupHom(target.group, e.group, mb.basis)  # checked: Bᵀ·λ·B = [[0, I], [I, 0]]
    return FormIso._unchecked(e, target, invert_iso(basis), basis)


# -- the explicit isomorphisms ----------------------------------------


def neg_isomorphism(e: EQForm, l: SubgroupRep) -> FormIso:
    """J : M → -M with J fixing the lagrangian pointwise.

    In a metabolic basis: J(e_i) = e_i and J(f_i) = d_i e_i - f_i.
    """
    mb = metabolic_basis(e, l)
    j_new = IntMatrix.block_pattern(("I D", "0 -I"), mb.diag)
    j = mb.basis.mul(j_new).mul(mb.basis.inverse_unimodular())
    return FormIso(e, negate(e), GroupHom(e.group, e.group, j))


# The frames M ⊕ M' → M ⊕ H below are diag(B, I)·P·diag(B, B)⁻¹ for the
# metabolic basis B of M: P is a pattern of k×k blocks whose columns are
# the images of (e, f, ē, f̄) in the coordinates (e, f, a, b), with ē, f̄
# the metabolic basis of the second summand and a, b the hyperbolic basis.
_DOUBLE_PATTERN = ("I 0 0 0", "0 I 0 I", "0 0 0 -I", "I D -I 0")
_WALL_PATTERN = ("0 0 I D", "0 I 0 -I", "0 -I 0 0", "-I 0 I 0")


def _frame(e: EQForm, mb: MetabolicBasis, source_sum: FormSum, pattern: tuple[str, ...]) -> tuple[FormIso, FormSum]:
    """The frame e ⊕ second → e ⊕ H_2k with block pattern ``pattern``, and its target sum e ⊕ H_2k.

    ``source_sum`` is e ⊕ second.
    """
    k = len(mb.diag)
    source = source_sum.form
    target_sum = form_direct_sum(e, hyperbolic(k, e.target, e.v))
    target = target_sum.form
    b, b_inv = mb.basis, mb.basis.inverse_unimodular()
    hom = (
        IntMatrix.block_diagonal([b, IntMatrix.identity(2 * k)])
        .mul(IntMatrix.block_pattern(pattern, mb.diag))
        .mul(IntMatrix.block_diagonal([b_inv, b_inv]))
    )
    return FormIso(source, target, GroupHom(source.group, target.group, hom)), target_sum


def double_to_hyperbolic(e: EQForm, l: SubgroupRep) -> FormIso:
    """I : M ⊕ M → M ⊕ H with I(L ⊕ L) = L ⊕ ({0} × Z^k).

    Images in a metabolic basis (a_i, b_i the hyperbolic basis):
    e_i ↦ e_i + b_i, f_i ↦ f_i + d_i b_i, ē_i ↦ -b_i, f̄_i ↦ f_i - a_i.
    """
    return _frame(e, metabolic_basis(e, l), form_direct_sum(e, e), _DOUBLE_PATTERN)[0]


@dataclass(frozen=True)
class DiagonalLagrangians:
    sum_form: EQForm
    diagonal: SubgroupRep
    star_sum_form: EQForm
    anti_diagonal: SubgroupRep


def diagonal_lagrangians(i: FormIso) -> DiagonalLagrangians:
    """Δ_I in M ⊕ (-N) and Δ*_I in M ⊕ (-N*) for an isomorphism I: M → N."""
    if not i.source.is_free() or not i.target.is_free():
        raise HypothesisError("not free", "diagonal lagrangians need free forms")
    plain = form_direct_sum(i.source, negate(i.target))
    starred = form_direct_sum(i.source, negate(dual(i.target)))
    # the images of g ↦ (g, ±I(g)) through each sum's inclusions
    diag = plain.incl_a.add(plain.incl_b.compose(i.hom)).image()
    anti = starred.incl_a.add(starred.incl_b.compose(i.hom).neg()).image()
    return DiagonalLagrangians(plain.form, diag, starred.form, anti)


# -- stable isomorphism of full geometric metabolic forms -------------


@dataclass(frozen=True)
class StableLagrangianIso:
    """I : M ⊕ H_2k → M' ⊕ H_2l matching the stabilized lagrangians."""

    k: int
    l: int
    iso: FormIso
    source_lagrangian: SubgroupRep
    target_lagrangian: SubgroupRep


def stable_lagrangian_iso(
    e: EQForm,
    l: SubgroupRep,
    e2: EQForm,
    l2: SubgroupRep,
) -> StableLagrangianIso:
    """Stable isomorphism between metabolic forms matching lagrangians.

    Both forms must be free, metabolic (witnessed by the supplied
    lagrangians), full, and geometric with respect to a shared parity
    map.
    """
    if e.target != e2.target:
        raise HypothesisError("different coefficient groups")
    if e.v is None or e2.v is None:
        raise VMissing()
    if e.v != e2.v:
        raise HypothesisError("different parity maps")
    for form, lagr in ((e, l), (e2, l2)):
        _require_free_metabolic(form, lagr, "stable isomorphism")
        if not form.is_full():
            raise HypothesisError("not full")
        if not form.is_geometric():
            raise HypothesisError("not geometric")
    return _stable_lagrangian_iso(e, l, e2, l2)


def _stable_lagrangian_iso(e: EQForm, l: SubgroupRep, e2: EQForm, l2: SubgroupRep) -> StableLagrangianIso:
    """``stable_lagrangian_iso`` on forms and lagrangians that meet its hypotheses."""
    n_sub, n2_sub = direct_complement(l), direct_complement(l2)
    # μ on each complement: the form restricted to it, by pullback
    f = pullback(n_sub.inclusion(), e).mu
    g = pullback(n2_sub.inclusion(), e2).mu
    matched = match_surjections(f, g)
    k = matched.f_extra.free_rank
    kl = matched.g_extra.free_rank

    sum_s = form_direct_sum(e, hyperbolic(k, e.target, e.v))
    sum_t = sum_s if (e2, kl) == (e, k) else form_direct_sum(e2, hyperbolic(kl, e.target, e.v))

    def stabilized(sumform: FormSum, pairs: int, lagr: SubgroupRep, comp: SubgroupRep):
        """L ⊕ ({0} × Z^k), and the generators of it and of its complement N ⊕ (Z^k × {0})."""
        upper, lower = hyperbolic_halves(pairs)
        ls = sumform.subgroup(lagr, lower)
        return ls, ls.generator_matrix(), sumform.subgroup(comp, upper).generator_matrix()

    src_l, ls, fs = stabilized(sum_s, k, l, n_sub)
    tgt_l, ls2, fs2 = stabilized(sum_t, kl, l2, n2_sub)
    if fs2.rows != fs.rows:
        raise NotWellDefined("matched complements have different ranks")

    # transport the source f-basis through the matching isomorphism
    fs_prime = matched.iso.matrix.transpose().mul(fs2)
    bs, _ = _normal_basis(sum_s.form, ls, fs)
    bt, _ = _normal_basis(sum_t.form, ls2, fs_prime)
    hom = bt.mul(bs.inverse_unimodular())
    iso = FormIso(sum_s.form, sum_t.form, GroupHom(sum_s.form.group, sum_t.form.group, hom))
    if src_l.transport(iso.hom) != tgt_l:
        raise NotWellDefined("stable isomorphism does not match the lagrangians")
    return StableLagrangianIso(k, kl, iso, src_l, tgt_l)


# -- RU words ----------------------------------------------------------


@dataclass(frozen=True)
class Keep:
    """Generator: an automorphism preserving the reference lagrangian."""

    iso: FormIso

    def inverse(self) -> "Keep":
        return Keep(self.iso.inverse())


@dataclass(frozen=True)
class Flip:
    """Generator I⁻¹ ∘ (σ ⊕ id) ∘ I for a splitting I : M → H_2 ⊕ M'.

    The letter is its witness I, whose target must be a split form (see
    ``forms.split_pair``: the hyperbolic pair in the first two
    coordinates, the layout FlipL shares) with I(L) = ({0} × Z) ⊕ L'.

    ``pre`` and ``perm``, when given, factor the witness as P ∘ pre, for P
    the permutation ``permuted(pre.target, perm)`` onto the witness's
    target.  Letters that share ``pre`` then differ by a permutation, which
    ``lmonoid.jacobi_witness`` reads off without multiplying.  They take no
    part in ``==``.
    """

    witness: FormIso
    pre: FormIso | None = field(default=None, compare=False, repr=False, kw_only=True)
    perm: tuple[int, ...] | None = field(default=None, compare=False, repr=False, kw_only=True)

    def inverse(self) -> "Flip":
        return self  # a flip is an involution


@dataclass(frozen=True)
class RUWord:
    """A word in Keep/Flip generators over a fixed (form, lagrangian)."""

    form: EQForm
    lagrangian: SubgroupRep
    letters: tuple


def _realize_letter(form: EQForm, lagr: SubgroupRep, letter, index: int) -> FormIso:
    def bad(reason: str):
        raise HypothesisError(f"generator {index}: {reason}")

    if isinstance(letter, Keep):
        iso = letter.iso
        if iso.source != form or iso.target != form:
            bad("keep generator is not an automorphism of the ambient form")
        if lagr.transport(iso.hom) != lagr:
            bad("keep generator does not preserve the lagrangian")
        return iso
    if not isinstance(letter, Flip):
        bad("unknown generator kind")
    w = letter.witness
    if w.source != form:
        bad("flip witness does not start at the ambient form")
    try:
        split_pair(w.target)  # so the swap of the pair is an automorphism of w.target
    except HypothesisError as exc:
        raise HypothesisError(f"generator {index}: {exc}") from None
    if flip_split(lagr.transport(w.hom)) is None:
        bad("witness does not carry the lagrangian onto ({0}×Z) ⊕ L'")
    return w.inverse().compose(_swap_blocks(w.target, 1)).compose(w)


def ru_word_eval(word: RUWord) -> FormIso:
    """Validate the word's lagrangian and every generator, and return the ordered product.

    The first letter is applied last: eval([g1, ..., gn]) = g1 ∘ ... ∘ gn.
    Each (letter kind, isomorphism object) is realized once: ``ru_wall_witness``
    and the document reader give equal letters one object.
    """
    if not subgroup_classify(word.form, word.lagrangian).free_lagrangian:
        raise HypothesisError("not a lagrangian", "the word's lagrangian is not a free lagrangian of its form")
    realized: dict[tuple, FormIso] = {}
    result = FormIso.identity(word.form)
    for idx, letter in enumerate(word.letters):
        key = (type(letter), id(letter.iso if isinstance(letter, Keep) else getattr(letter, "witness", None)))
        if key not in realized:
            realized[key] = _realize_letter(word.form, word.lagrangian, letter, idx)
        result = result.compose(realized[key])
    return result


# -- the Wall-type factorization --------------------------------------


def _flip_letters_for_stabilization(l: SubgroupRep, pairs: int, pre: FormIso) -> list[Flip]:
    """Flip letters realizing id ⊕ Σ on base ⊕ H_{2·pairs}, conjugated by ``pre``; ``l`` is a lagrangian of base.

    ``pre`` maps the ambient of the word onto base ⊕ H, whose pair i,
    (a_i, b_i), sits at coordinates n + i and n + pairs + i for n the rank
    of base: in a free sum the second summand's coordinates follow the
    first's.  Letter i's witness is P_i ∘ ``pre``, for P_i the permutation
    ``perm`` moving pair i to the front, every other coordinate in order,
    which leaves base ⊕ H_{2(pairs-1)} with the lagrangian
    L ⊕ ({0} × Z^{pairs-1}).  Every P_i therefore ends at the same form
    value, and the letters share one object of it; each letter keeps
    ``pre`` and ``perm``, so that w_j ∘ w_i⁻¹ = P_j ∘ P_i⁻¹ is read off as a
    permutation.
    """
    n, target = l.ambient.num_gens, pre.target
    split = None
    letters = []
    for i in range(pairs):
        a, b = n + i, n + pairs + i
        perm = (a, b) + tuple(j for j in range(target.group.num_gens) if j not in (a, b))
        p = permuted(target, perm) if split is None else _permuted_onto(target, perm, split)
        split = p.target
        letters.append(Flip(p.compose(pre), pre=pre, perm=perm))
    return letters


@dataclass(frozen=True)
class RUWallWitness:
    """Ambient (M⊕M⊕(-M), L⊕L⊕L) and a word evaluating to Φ ⊕ Φ⁻¹ ⊕ id."""

    ambient: EQForm
    lagrangian: SubgroupRep
    word: RUWord
    expected: FormIso


def ru_wall_witness(e: EQForm, l: SubgroupRep, phi: FormIso) -> RUWallWitness:
    """A word in RU(M ⊕ M ⊕ (-M), L ⊕ L ⊕ L) evaluating to Φ ⊕ Φ⁻¹ ⊕ id.

    The word is τ·P·τ·P⁻¹ with τ exchanging the first two copies of M and P
    the pair word W·K·W embedded after the first copy, where W = F⁻¹ ∘
    (id ⊕ Σ) ∘ F on M ⊕ (-M) for the frame F onto M ⊕ H_2s and Σ the
    exchange of H_2s's halves, and K = W ∘ (Φ ⊕ Φ) ∘ W.  W is read off
    the frame; its Flip letters are built once, on the outer sum, as the
    stabilization flips of (M ⊕ M) ⊕ H_2s conjugated by id ⊕ F, and serve
    both halves of P.  ``ru_word_eval`` checks every letter.
    """
    if phi.source != e or phi.target != e:
        raise HypothesisError("phi is not an automorphism of the form")
    if e.v is None:
        raise VMissing()
    if not e.is_geometric():
        raise HypothesisError("not geometric")
    mb = metabolic_basis(e, l)  # checks free, nonsingular, lagrangian
    s = len(mb.diag)
    one = FormIso.identity(e)

    # the frame F : M ⊕ (-M) → M ⊕ H with
    # F(e_i) = -b_i, F(f_i) = f_i - a_i, F(ē_i) = e_i + b_i, F(f̄_i) = d_i e_i - f_i
    neg_e = negate(e)
    dbl_sum = form_direct_sum(e, neg_e)
    frame, hyp_sum = _frame(e, mb, dbl_sum, _WALL_PATTERN)
    sigma = _iso_on_sums(hyp_sum, hyp_sum, one, _swap_blocks(hyperbolic(s, e.target, e.v), s))
    w_iso = frame.inverse().compose(sigma).compose(frame)
    phi_neg = FormIso._unchecked(neg_e, neg_e, phi.hom, phi.inverse_hom)  # it pulls back -λ, -μ as well
    phi_phi = _iso_on_sums(dbl_sum, dbl_sum, phi, phi_neg)
    k_iso = w_iso.compose(phi_phi).compose(w_iso)

    outer = form_direct_sum(e, dbl_sum.form)
    ambient = outer.form
    l_l = dbl_sum.subgroup(l, l)
    l3 = outer.subgroup(l, l_l)

    flips = []
    if s:  # id ⊕ F needs one more sum, which a rank-0 form does without
        pre = _iso_on_sums(outer, form_direct_sum(e, frame.target), one, frame)
        flips = _flip_letters_for_stabilization(l_l, s, pre)
    embedded = flips + [Keep(_iso_on_sums(outer, outer, one, k_iso))] + flips
    tau = Keep(_swap_blocks(ambient, 2 * s))
    letters = [tau] + embedded + [tau] + [g.inverse() for g in reversed(embedded)]
    word = RUWord(ambient, l3, tuple(letters))

    expected = _iso_on_sums(outer, outer, phi, _iso_on_sums(dbl_sum, dbl_sum, phi.inverse(), FormIso.identity(neg_e)))
    return RUWallWitness(ambient, l3, word, expected)
