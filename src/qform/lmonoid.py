"""Quasi-formations and their move calculus.

A quasi-formation is a metabolic form together with a distinguished
T-lagrangian and a free half-rank direct summand.  Equivalence of
quasi-formations is generated by stabilization with the standard
elementary hyperbolic formation and by exchanging the two halves of a
split-off hyperbolic plane inside the lagrangian.  Nothing in this
module ever works with equivalence classes directly: every operation
that claims two quasi-formations are related produces an explicit
sequence of moves which `replay` re-checks from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import (
    AbGroup,
    GroupHom,
    SubgroupRep,
    Z2,
    ZERO_GROUP,
    direct_complement,
    direct_sum_with_maps,
    free_group,
    free_section,
    torsion_subgroup,
)
from .construct import (
    Keep,
    is_hyperbolic_with_witness,
    ru_wall_witness,
    _stable_lagrangian_iso,
)
from .errors import DEFAULT_NODE_LIMIT, DimensionMismatch, HypothesisError, NodeCounter, NotWellDefined, QformError
from .forms import (
    EQForm,
    FormIso,
    FormSum,
    flip_split,
    form_direct_sum,
    hyperbolic,
    hyperbolic_halves,
    _iso_on_sums,
    negate,
    orthogonal_complement,
    pullback,
    split_pair,
    subgroup_classify,
    swap_blocks,
)
from .intmat import IntMatrix


@dataclass(frozen=True)
class QuasiFormation:
    """A nonsingular form with a T-lagrangian and a free half-rank summand.

    The public constructor checks all three.  Formations read from a
    document come through it, and so do ``zero_formation`` and
    ``l_group_trivialize``'s parts.  Where the facts hold by construction,
    ``_unchecked`` skips it:
    * ``standard_elementary``: H_2k is nonsingular with free lagrangians as halves;
    * ``qf_direct_sum`` and ``_qf_on_sum``: block sums of nonsingular forms,
      of T-lagrangians and of free half-rank summands are again such;
    * ``ApplyIso``: a checked isomorphism carries each fact to its target;
    * ``FlipL``: the new lagrangian is the old one moved by the witness, by the swap
      of the split pair (a form automorphism, by ``split_pair``'s checks) and back;
    * ``jacobi_witness``'s factors: e is nonsingular, and K̃, L̃, Ṽ are
      the checked K, L, V summed with halves of H_2k.
    """

    form: EQForm
    lagrangian: SubgroupRep
    summand: SubgroupRep

    @classmethod
    def _unchecked(cls, form: EQForm, lagrangian: SubgroupRep, summand: SubgroupRep) -> "QuasiFormation":
        """A quasi-formation that holds by construction from checked ones; nothing is re-checked."""
        q = object.__new__(cls)
        q.__dict__.update(form=form, lagrangian=lagrangian, summand=summand)
        return q

    def __post_init__(self):
        if self.lagrangian.ambient != self.form.group or self.summand.ambient != self.form.group:
            raise DimensionMismatch("subgroups live in a different group than the form")
        if not self.form.is_nonsingular():
            raise HypothesisError("not nonsingular", "quasi-formation")
        if not subgroup_classify(self.form, self.lagrangian).t_lagrangian:
            raise HypothesisError("not a T-lagrangian", "quasi-formation")
        flags = subgroup_classify(self.form, self.summand)
        if not flags.half_rank_summand or not self.summand.is_free():
            raise HypothesisError("not a free half-rank summand", "quasi-formation")

    @property
    def target(self) -> AbGroup:
        return self.form.target


def is_elementary(q: QuasiFormation) -> bool:
    """Whether the underlying group splits as lagrangian ⊕ summand."""
    if not q.lagrangian.intersection(q.summand).is_zero():
        return False
    return q.lagrangian.sum(q.summand).is_full()


def qf_direct_sum(a: QuasiFormation, b: QuasiFormation) -> QuasiFormation:
    return _qf_on_sum(form_direct_sum(a.form, b.form), a, b)


def _qf_on_sum(s: FormSum, a: QuasiFormation, b: QuasiFormation) -> QuasiFormation:
    """a ⊕ b on the sum s = a.form ⊕ b.form that the caller built."""
    lagr, summ = s.subgroup(a.lagrangian, b.lagrangian), s.subgroup(a.summand, b.summand)
    return QuasiFormation._unchecked(s.form, lagr, summ)


def standard_elementary(k: int, target: AbGroup = ZERO_GROUP, v: GroupHom | None = None) -> QuasiFormation:
    """ℋ_2k: the hyperbolic form with lagrangian {0}×Z^k and summand Z^k×{0}."""
    upper, lower = hyperbolic_halves(k)
    return QuasiFormation._unchecked(hyperbolic(k, target, v), lower, upper)


def zero_formation(q_group: AbGroup, v: GroupHom) -> QuasiFormation:
    """The zero-class representative (M; L, L) over (Q, v).

    One hyperbolic-ish pair (e_i, f_i) per chosen generator of Q; μ sends
    f_i to the i-th generator and kills every e_i; the diagonal entry at
    f_i is the parity v(μ(f_i)), which makes the form geometric.
    """
    if v.source != q_group or v.target != Z2:
        raise DimensionMismatch("parity map must go from the coefficient group to Z/2")
    k = q_group.num_gens
    m = free_group(2 * k)
    lam = IntMatrix.block_pattern(("0 I", "I D"), [v.apply(g)[0] for g in q_group.gens()])
    mu = GroupHom.from_gen_images(m, q_group, [q_group.zero()] * k + list(q_group.gens()))
    form = EQForm(m, lam, mu, v)
    lagr = SubgroupRep.of_units(m, range(k))
    return QuasiFormation(form, lagr, lagr)


# -- moves -------------------------------------------------------------


@dataclass(frozen=True)
class Stab:
    """Append ℋ_{2·pairs} to the current quasi-formation."""

    pairs: int = 1
    # ``replay``'s price of a move: a fixed part and one per pair, old and new, of the sum it builds
    NODES_PER_MOVE, NODES_PER_PAIR = 60, 5


@dataclass(frozen=True)
class Destab:
    """Split off ℋ_{2·pairs}, witnessed by an explicit isomorphism.

    ``witness`` maps the current form onto rest ⊕ H_{2·pairs} and must
    carry the lagrangian and the summand onto those of
    ``rest ⊕ ℋ_{2·pairs}``.
    """

    rest: QuasiFormation
    pairs: int
    witness: FormIso


@dataclass(frozen=True)
class FlipL:
    """Exchange the halves of a split-off hyperbolic plane in the lagrangian.

    ``witness`` maps the current form onto a split form (see
    ``forms.split_pair``: the hyperbolic pair in the first two free
    coordinates, the layout Flip letters share), with the lagrangian
    landing on ({0} × Z) ⊕ L'.  The move replaces the lagrangian by the
    pullback of (Z × {0}) ⊕ L', read off a Hermite basis by ``forms.flip_split``; form and summand stay.
    """

    witness: FormIso


@dataclass(frozen=True)
class ApplyIso:
    """Transport the whole quasi-formation along a form isomorphism."""

    iso: FormIso


Move = Stab | Destab | FlipL | ApplyIso


def apply_move(q: QuasiFormation, move: Move) -> QuasiFormation:
    """The result of one move, with all side conditions checked."""
    if isinstance(move, Stab):
        if move.pairs < 0:
            raise HypothesisError("negative stabilization")
        return qf_direct_sum(q, standard_elementary(move.pairs, q.target, q.form.v))
    if isinstance(move, ApplyIso):
        if move.iso.source != q.form:
            raise HypothesisError("isomorphism does not start at the current form")
        h = move.iso.hom
        return QuasiFormation._unchecked(move.iso.target, q.lagrangian.transport(h), q.summand.transport(h))
    if isinstance(move, Destab):
        if move.witness.source != q.form:
            raise HypothesisError("split witness does not start at the current form")
        if move.witness.target.rank != move.rest.form.rank + 2 * move.pairs:  # before ℋ is built
            raise HypothesisError("split witness does not end at rest ⊕ H")
        h_pairs = standard_elementary(move.pairs, move.rest.target, move.rest.form.v)
        expected = qf_direct_sum(move.rest, h_pairs)
        if move.witness.target != expected.form:
            raise HypothesisError("split witness does not end at rest ⊕ H")
        h = move.witness.hom
        if q.lagrangian.transport(h) != expected.lagrangian:
            raise HypothesisError("split witness does not match the lagrangian")
        if q.summand.transport(h) != expected.summand:
            raise HypothesisError("split witness does not match the summand")
        return move.rest
    if isinstance(move, FlipL):
        w = move.witness
        if w.source != q.form:
            raise HypothesisError("flip witness does not start at the current form")
        split_pair(w.target)  # so the swap of the pair is an automorphism of w.target
        if (flipped := flip_split(q.lagrangian.transport(w.hom))) is None:
            raise HypothesisError("lagrangian does not split as ({0} × Z) ⊕ L'")
        return QuasiFormation._unchecked(q.form, flipped.preimage(w.hom), q.summand)
    raise HypothesisError("unknown move kind")


@dataclass(frozen=True)
class MoveSequence:
    start: QuasiFormation
    end: QuasiFormation
    moves: tuple


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    steps: int
    failed_index: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def replay(seq: MoveSequence, node_limit: int = DEFAULT_NODE_LIMIT) -> ReplayResult:
    """Re-run every move, charging each stabilization's sum to ``node_limit`` first; report the first failure."""
    counter = NodeCounter(node_limit)
    current = seq.start
    for i, move in enumerate(seq.moves):
        if isinstance(move, Stab):
            counter.tick(Stab.NODES_PER_MOVE + Stab.NODES_PER_PAIR * (current.form.group.num_gens // 2 + max(move.pairs, 0)))
        try:
            current = apply_move(current, move)
        except QformError as err:
            return ReplayResult(False, i, failed_index=i, reason=str(err))
    if current != seq.end:
        return ReplayResult(False, len(seq.moves), reason="result differs from the declared end")
    return ReplayResult(True, len(seq.moves))


# -- torsion reduction -------------------------------------------------


def bar_reduce(q: QuasiFormation) -> QuasiFormation:
    """Quotient the torsion away: (N; K, W) ↦ (N̄; K̄, image of W)."""
    group = q.form.group
    if group.is_free:
        return q
    if not q.form.mu.compose(torsion_subgroup(group).inclusion()).is_zero():
        raise HypothesisError("mu does not vanish on torsion")
    # the form on the free coordinates; projecting onto them is the quotient map
    section = free_section(group)
    pi = GroupHom(group, section.source, section.matrix.transpose())
    return QuasiFormation(pullback(section, q.form), q.lagrangian.transport(pi), q.summand.transport(pi))


def unbar(qbar: QuasiFormation, r_group: AbGroup) -> QuasiFormation:
    """qbar ⊕ ((R, 0, 0); R, 0): append the torsion group R, enlarging the lagrangian by R."""
    return _unbar_with_sum(qbar, r_group)[1]


def _unbar_with_sum(qbar: QuasiFormation, r_group: AbGroup) -> tuple[FormSum, QuasiFormation]:
    """The sum qbar.form ⊕ (R, 0, 0), and ``unbar(qbar, R)`` on it."""
    if not qbar.form.is_free():
        raise HypothesisError("unbar starts from a free quasi-formation")
    if r_group.free_rank != 0:
        raise HypothesisError("appended group must be torsion")
    appended = pullback(GroupHom.zero(r_group, qbar.form.group), qbar.form)
    s = form_direct_sum(qbar.form, appended)
    return s, _qf_on_sum(s, qbar, QuasiFormation(appended, SubgroupRep.full(r_group), SubgroupRep.zero(r_group)))


def bar_round_trip(q: QuasiFormation) -> FormIso:
    """Isomorphism unbar(bar_reduce(q), Tor) → q fixing both subgroups.

    Unbar's group Z^r ⊕ Tor is q's group (Tor is in invariant-factor form
    already), and the map goes through that sum's maps: on Z^r it is a
    section of the torsion quotient whose image contains the summand, on
    Tor the sum's inclusion.  The summand V is free, so its lattice meets
    the torsion coordinates only in the relations: its canonical
    generators are the Hermite rows that lead in a free column, and their
    free parts are a basis of V̄.  The section sends each free part back to
    its generator and a complement of V̄ to its ``free_section`` lift.
    """
    group = q.form.group
    reduced = bar_reduce(q)
    ds, rebuilt = _unbar_with_sum(reduced, AbGroup(0, group.torsion))
    r = group.free_rank
    lift = free_section(group)
    v_gens = q.summand.generators()
    comp = direct_complement(reduced.summand).generators()
    basis = IntMatrix.from_columns([g[:r] for g in v_gens] + comp, rows=r)
    lifts = IntMatrix.from_columns(v_gens + [lift.apply(c) for c in comp], rows=group.num_gens)
    free_part = GroupHom(lift.source, group, lifts.mul(basis.inverse_unimodular()))
    iso = FormIso(rebuilt.form, q.form, free_part.compose(ds.proj_a).add(ds.incl_b.compose(ds.proj_b)))
    if rebuilt.summand.transport(iso.hom) != q.summand:
        raise NotWellDefined("round trip does not restore the summand")
    if rebuilt.lagrangian.transport(iso.hom) != q.lagrangian:
        raise NotWellDefined("round trip does not restore the lagrangian")
    return iso


# -- trivialization of invertible classes over free coefficients -------


@dataclass(frozen=True)
class LTrivialization:
    """Decomposition of an invertible class into a zero part and a hyperbolic part."""

    common: SubgroupRep
    complement: SubgroupRep
    zero_part: QuasiFormation
    hyperbolic_part: QuasiFormation
    hyperbolic_witness: FormIso
    sequence: MoveSequence


def l_group_trivialize(q: QuasiFormation) -> LTrivialization:
    """Split (M; L, K) with both subgroups free lagrangians over free Q.

    Writes M = M' ⊕ H with J = K ∩ L a lagrangian in M' and L ∩ X, K ∩ X
    lagrangians in the hyperbolic part H, where X is a direct complement
    of J and H = M'^⊥.  Each part's subgroups are preimages along its
    inclusion: the inclusion is injective and the subgroup lies in its
    image, so the preimage is the subgroup in the part's coordinates.
    Both parts are checked by the ``QuasiFormation`` constructor, and the
    split M → M' ⊕ H, the inverse of m_incl∘proj_a + h_incl∘proj_b, by
    ``FormIso``'s; ``replay`` re-checks the returned one-move sequence.
    """
    e = q.form
    if not e.target.is_free:
        raise HypothesisError("coefficient group is not free")
    if not e.is_free():
        raise HypothesisError("form is not free")
    lagr, summ = q.lagrangian, q.summand
    for name, sub in (("first", lagr), ("second", summ)):
        if not subgroup_classify(e, sub).free_lagrangian:
            raise HypothesisError(f"{name} subgroup is not a free lagrangian")

    common = summ.intersection(lagr)
    x = direct_complement(common)
    # J ≤ K, L, so the modular law gives L = J ⊕ (L ∩ X) and K = J ⊕ (K ∩ X)
    l_rest = lagr.intersection(x)
    k_rest = summ.intersection(x)

    # J × X^⊥ pairs perfectly, so λ is nonsingular on M' = J ⊕ X^⊥ and M = M' ⊕ M'^⊥
    m_prime = common.sum(orthogonal_complement(e, x))
    h = orthogonal_complement(e, m_prime)

    m_incl, h_incl = m_prime.inclusion(), h.inclusion()
    m_form, h_form = pullback(m_incl, e), pullback(h_incl, e)
    j_in = common.preimage(m_incl)
    l_in = l_rest.preimage(h_incl)
    k_in = k_rest.preimage(h_incl)
    witness = is_hyperbolic_with_witness(h_form, l_in)

    zero_part = QuasiFormation(m_form, j_in, j_in)
    hyp_part = QuasiFormation(h_form, l_in, k_in)
    parts = form_direct_sum(m_form, h_form)
    target = _qf_on_sum(parts, zero_part, hyp_part)
    split = FormIso(target.form, e, m_incl.compose(parts.proj_a).add(h_incl.compose(parts.proj_b))).inverse()
    seq = MoveSequence(q, target, (ApplyIso(split),))
    return LTrivialization(common, x, zero_part, hyp_part, witness, seq)


# -- the sum identity --------------------------------------------------


def _expand_ru_letter(letter) -> list[Move]:
    """Moves realizing V ↦ Ψ(V) for one word letter, keeping L fixed.

    A Flip letter Ψ = w⁻¹∘σ∘w becomes [ApplyIso(w∘Ψ), FlipL(σ), ApplyIso(w⁻¹)]:
    w∘Ψ = σ∘w carries L onto (Z × {0}) ⊕ L', the flip with witness σ on
    w's target turns that into ({0} × Z) ⊕ L' = w(L), and w⁻¹ brings the
    lagrangian back to L while the summand ends at Ψ(V).  Flip and FlipL
    share the split-pair layout, so no coordinates are moved in between.
    """
    if isinstance(letter, Keep):
        return [ApplyIso(letter.iso)]
    w = letter.witness
    sigma = swap_blocks(w.target, 1)
    return [ApplyIso(sigma.compose(w)), FlipL(sigma), ApplyIso(w.inverse())]


@dataclass(frozen=True)
class JacobiWitness:
    """Move certificate for [M; K, L] ⊕ [M; L, V] = [M; K, V].

    The sequence runs between the stabilized quasi-formations padded by
    explicit zero-class factors: ``start_padding`` on the left of the
    equation and ``end_paddings`` on the right.
    """

    sequence: MoveSequence
    pairs: int
    phi: FormIso
    start_padding: QuasiFormation
    end_paddings: tuple


def jacobi_witness(e: EQForm, k_sub: SubgroupRep, l_sub: SubgroupRep, v_sub: SubgroupRep) -> JacobiWitness:
    if e.v is None:
        raise HypothesisError("v missing")
    if not e.is_free():
        raise HypothesisError("form is not free")
    if not e.is_full():
        raise HypothesisError("form is not full")
    if not e.is_geometric():
        raise HypothesisError("form is not geometric")
    for name, sub in (("first", k_sub), ("second", l_sub)):
        if not subgroup_classify(e, sub).free_lagrangian:
            raise HypothesisError(f"{name} subgroup is not a free lagrangian")
    flags = subgroup_classify(e, v_sub)
    if not flags.half_rank_summand or not v_sub.is_free():
        raise HypothesisError("third subgroup is not a free half-rank summand")
    # the one hypothesis of the stable isomorphism not checked above
    if not e.is_nonsingular():
        raise HypothesisError("not nonsingular", "stable isomorphism")

    stab = _stable_lagrangian_iso(e, l_sub, e, k_sub)
    pairs = stab.k  # = stab.l: both lagrangians live in e, and stab's rank check matched them
    phi = stab.iso
    big = phi.source
    l_tilde, k_tilde = stab.source_lagrangian, stab.target_lagrangian
    upper, _ = hyperbolic_halves(pairs)
    v_tilde = direct_sum_with_maps(e.group, upper.ambient).subgroup(v_sub, upper)

    wall = ru_wall_witness(big, k_tilde, phi)
    neg_big = negate(big)
    # each factor holds by construction: stab found e, hence big = e ⊕ H, nonsingular; K̃, L̃ = K, L ⊕ ({0} × Z^k)
    # are free lagrangians of big and -big, and Ṽ = V ⊕ (Z^k × {0}) is a free half-rank summand of big
    qf = QuasiFormation._unchecked
    start_padding = qf(neg_big, k_tilde, k_tilde)
    end_paddings = (qf(big, k_tilde, k_tilde), start_padding)
    pair = form_direct_sum(big, big)
    whole = form_direct_sum(pair.form, neg_big)
    start = _qf_on_sum(whole, _qf_on_sum(pair, qf(big, k_tilde, l_tilde), qf(big, l_tilde, v_tilde)), start_padding)
    end = _qf_on_sum(whole, _qf_on_sum(pair, qf(big, k_tilde, v_tilde), end_paddings[0]), start_padding)
    # start's form is the word's ambient, and transporting its middle factor
    # along φ (which carries L̃ onto K̃) turns its lagrangian into the word's
    middle = _iso_on_sums(pair, pair, FormIso.identity(big), phi)
    moves: list[Move] = [ApplyIso(_iso_on_sums(whole, whole, middle, FormIso.identity(neg_big)))]
    for letter in reversed(wall.word.letters):
        moves.extend(_expand_ru_letter(letter))
    moves.append(ApplyIso(swap_blocks(wall.ambient, big.group.num_gens)))
    seq = MoveSequence(start, end, tuple(moves))
    return JacobiWitness(seq, pairs, phi, start_padding, end_paddings)
