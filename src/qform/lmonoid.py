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
from math import gcd

from .abelian import (
    AbGroup,
    GroupHom,
    SubgroupRep,
    Z2,
    ZERO_GROUP,
    direct_complement,
    free_group,
    torsion_subgroup,
)
from .construct import (
    Flip,
    Keep,
    _perm_form,
    _realize_letter_unchecked,
    is_hyperbolic_with_witness,
    ru_wall_witness,
    stable_lagrangian_iso,
)
from .errors import DimensionMismatch, HypothesisError, NotWellDefined, QformError
from .forms import (
    EQForm,
    FormIso,
    form_direct_sum,
    hyperbolic,
    iso_direct_sum,
    negate,
    orthogonal_complement,
    subgroup_classify,
)
from .intmat import IntMatrix, int_solver


@dataclass(frozen=True)
class QuasiFormation:
    """A nonsingular form with a T-lagrangian and a free half-rank summand."""

    form: EQForm
    lagrangian: SubgroupRep
    summand: SubgroupRep

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


def mu_image_on_summand(q: QuasiFormation) -> SubgroupRep:
    """μ(V) ≤ Q; additive under direct sum and zero on invertible classes."""
    return q.summand.transport(q.form.mu)


def pairing_gcd_on_summand(q: QuasiFormation) -> int:
    """Non-negative generator of the image of λ restricted to the summand."""
    g = 0
    gens = q.summand.generators()
    for i, x in enumerate(gens):
        for y in gens[i:]:
            g = gcd(g, q.form.lam(x, y))
    return g


def is_L_element(q: QuasiFormation) -> bool:
    """Whether the summand is itself a free lagrangian.

    Such quasi-formations represent invertible classes; an inverse
    representative is obtained by swapping the two subgroups.
    """
    return subgroup_classify(q.form, q.summand).free_lagrangian


def qf_direct_sum(a: QuasiFormation, b: QuasiFormation) -> QuasiFormation:
    s = form_direct_sum(a.form, b.form)
    lagr = a.lagrangian.transport(s.incl_a).sum(b.lagrangian.transport(s.incl_b))
    summ = a.summand.transport(s.incl_a).sum(b.summand.transport(s.incl_b))
    return QuasiFormation(s.form, lagr, summ)


def standard_elementary(k: int, target: AbGroup = ZERO_GROUP, v: GroupHom | None = None) -> QuasiFormation:
    """ℋ_2k: the hyperbolic form with lagrangian {0}×Z^k and summand Z^k×{0}."""
    h = hyperbolic(k, target, v)
    lagr = SubgroupRep.from_elements(h.group, [h.group.gen(k + i) for i in range(k)])
    summ = SubgroupRep.from_elements(h.group, [h.group.gen(i) for i in range(k)])
    return QuasiFormation(h, lagr, summ)


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
    diag = [v.apply(g)[0] for g in q_group.gens()]
    top = IntMatrix.zeros(k, k).hstack(IntMatrix.identity(k))
    bottom = IntMatrix.identity(k).hstack(IntMatrix.diagonal(diag, rows=k, cols=k))
    mu = GroupHom.from_gen_images(m, q_group, [q_group.zero()] * k + list(q_group.gens()))
    form = EQForm(m, top.vstack(bottom), mu, v)
    lagr = SubgroupRep.from_elements(m, [m.gen(i) for i in range(k)])
    return QuasiFormation(form, lagr, lagr)


# -- moves -------------------------------------------------------------


@dataclass(frozen=True)
class Stab:
    """Append ℋ_{2·pairs} to the current quasi-formation."""

    pairs: int = 1


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

    ``witness`` maps the current form onto a form whose last two free
    coordinates are a hyperbolic pair orthogonal to the rest, with the
    lagrangian landing on L' ⊕ ({0} × Z).  The move replaces the
    lagrangian by the pullback of L' ⊕ (Z × {0}); form and summand stay.
    """

    witness: FormIso


@dataclass(frozen=True)
class ApplyIso:
    """Transport the whole quasi-formation along a form isomorphism."""

    iso: FormIso


Move = Stab | Destab | FlipL | ApplyIso


def _split_pair_data(t: EQForm):
    """Check the trailing-pair layout of a FlipL witness target.

    Returns (rest form, pair indices, embedding of the rest group).
    """
    r = t.group.free_rank
    if r < 2:
        raise HypothesisError("split target has free rank < 2")
    p0, p1 = r - 2, r - 1
    m = t.matrix.entries
    n = t.group.num_gens
    if m[p0][p0] != 0 or m[p1][p1] != 0 or m[p0][p1] != 1:
        raise HypothesisError("trailing coordinates are not a hyperbolic pair")
    if any(m[p0][j] != 0 or m[p1][j] != 0 for j in range(n) if j not in (p0, p1)):
        raise HypothesisError("hyperbolic pair is not orthogonal to the rest")
    for i in (p0, p1):
        if not t.target.is_zero_element(t.mu.apply(t.group.gen(i))):
            raise HypothesisError("mu does not vanish on the hyperbolic pair")
    rest_group = AbGroup(r - 2, t.group.torsion)
    keep = [j for j in range(n) if j not in (p0, p1)]
    rest_matrix = IntMatrix.from_rows(
        [[m[i][j] for j in keep] for i in keep], rest_group.num_gens
    )
    rest_mu = GroupHom(
        rest_group,
        t.target,
        IntMatrix.from_rows([[row[j] for j in keep] for row in t.mu.matrix.entries], rest_group.num_gens),
    )
    rest_form = EQForm(rest_group, rest_matrix, rest_mu, t.v)
    embed_cols = [list(t.group.gen(j)) for j in keep]
    embed = GroupHom(rest_group, t.group, IntMatrix.from_columns(embed_cols, rows=n))
    return rest_form, (p0, p1), embed


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
        return QuasiFormation(move.iso.target, q.lagrangian.transport(h), q.summand.transport(h))
    if isinstance(move, Destab):
        if move.witness.source != q.form:
            raise HypothesisError("split witness does not start at the current form")
        expected = qf_direct_sum(
            move.rest, standard_elementary(move.pairs, move.rest.target, move.rest.form.v)
        )
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
        rest_form, (p0, p1), embed = _split_pair_data(w.target)
        t_group = w.target.group
        transported = q.lagrangian.transport(w.hom)
        rest_embedded = SubgroupRep.full(rest_form.group).transport(embed)
        inner = transported.intersection(rest_embedded)
        e_part = SubgroupRep.from_elements(t_group, [t_group.gen(p1)])
        if inner.sum(e_part) != transported:
            raise HypothesisError("lagrangian does not split as L' ⊕ ({0} × Z)")
        flipped = inner.sum(SubgroupRep.from_elements(t_group, [t_group.gen(p0)]))
        new_lagr = flipped.preimage(w.hom)
        return QuasiFormation(q.form, new_lagr, q.summand)
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


def replay(seq: MoveSequence) -> ReplayResult:
    """Re-run every move from the start; report the first failure."""
    current = seq.start
    for i, move in enumerate(seq.moves):
        try:
            current = apply_move(current, move)
        except QformError as err:
            return ReplayResult(False, i, failed_index=i, reason=str(err))
    if current != seq.end:
        return ReplayResult(False, len(seq.moves), reason="result differs from the declared end")
    return ReplayResult(True, len(seq.moves))


# -- torsion reduction -------------------------------------------------


def _free_quotient_projection(g: AbGroup) -> GroupHom:
    r = g.free_rank
    rows = [[1 if j == i else 0 for j in range(g.num_gens)] for i in range(r)]
    mat = IntMatrix.from_rows(rows, g.num_gens) if rows else IntMatrix.zeros(0, g.num_gens)
    return GroupHom(g, free_group(r), mat)


def bar_reduce(q: QuasiFormation) -> QuasiFormation:
    """Quotient the torsion away: (N; K, W) ↦ (N̄; K̄, image of W)."""
    group = q.form.group
    if group.is_free:
        return q
    tors = torsion_subgroup(group)
    for g in tors.generators():
        if not q.target.is_zero_element(q.form.mu.apply(g)):
            raise HypothesisError("mu does not vanish on torsion")
    pi = _free_quotient_projection(group)
    bar_form = EQForm(
        pi.target,
        q.form.reduced_matrix(),
        GroupHom(pi.target, q.target, IntMatrix.from_rows(
            [row[: group.free_rank] for row in q.form.mu.matrix.entries], group.free_rank
        )),
        q.form.v,
    )
    return QuasiFormation(bar_form, q.lagrangian.transport(pi), q.summand.transport(pi))


def unbar(qbar: QuasiFormation, r_group: AbGroup) -> QuasiFormation:
    """Append the torsion group (R, 0, 0), enlarging the lagrangian by R."""
    if not qbar.form.is_free():
        raise HypothesisError("unbar starts from a free quasi-formation")
    if r_group.free_rank != 0:
        raise HypothesisError("appended group must be torsion")
    r = qbar.form.rank
    t = len(r_group.torsion)
    group = AbGroup(r, r_group.torsion)
    lam = IntMatrix.block_diagonal([qbar.form.matrix, IntMatrix.zeros(t, t)])
    mu = GroupHom(group, qbar.target, qbar.form.mu.matrix.hstack(
        IntMatrix.zeros(qbar.target.num_gens, t)
    ))
    form = EQForm(group, lam, mu, qbar.form.v)
    pad = (0,) * t
    lagr_gens = [g + pad for g in qbar.lagrangian.generators()]
    lagr_gens += [group.gen(r + j) for j in range(t)]
    summ_gens = [g + pad for g in qbar.summand.generators()]
    return QuasiFormation(
        form,
        SubgroupRep.from_elements(group, lagr_gens),
        SubgroupRep.from_elements(group, summ_gens),
    )


def bar_round_trip(q: QuasiFormation) -> FormIso:
    """Isomorphism unbar(bar_reduce(q), Tor) → q fixing both subgroups.

    Built from a section of the torsion quotient whose image contains the
    summand; the identification of the appended torsion group with Tor is
    coordinatewise.
    """
    group = q.form.group
    reduced = bar_reduce(q)
    rebuilt = unbar(reduced, AbGroup(0, group.torsion))
    r = group.free_rank
    pi = _free_quotient_projection(group)

    # lift the canonical basis of the reduced summand back into the summand
    v_gens = q.summand.generators()
    vbar_basis = reduced.summand.generators()
    lifted = []
    if v_gens:
        solve = int_solver(IntMatrix.from_columns([list(pi.apply(g)) for g in v_gens], rows=r))
        for b in vbar_basis:
            coeff = solve(b)
            if coeff is None:
                raise NotWellDefined("summand does not project onto its image")
            acc = [0] * group.num_gens
            for c, g in zip(coeff, v_gens):
                for j in range(group.num_gens):
                    acc[j] += c * g[j]
            lifted.append(group.reduce(acc))
    comp = direct_complement(reduced.summand)
    basis_cols = [list(b) for b in vbar_basis] + [list(c) for c in comp.generators()]
    image_cols = [list(x) for x in lifted]
    image_cols += [list(c) + [0] * len(group.torsion) for c in comp.generators()]
    section = IntMatrix.from_columns(image_cols, rows=group.num_gens).mul(
        IntMatrix.from_columns(basis_cols, rows=r).inverse_unimodular()
    )
    torsion_cols = [list(group.gen(r + j)) for j in range(len(group.torsion))]
    full = section if not torsion_cols else section.hstack(
        IntMatrix.from_columns(torsion_cols, rows=group.num_gens)
    )
    iso = FormIso(rebuilt.form, q.form, GroupHom(rebuilt.form.group, group, full))
    if rebuilt.summand.transport(iso.hom) != q.summand:
        raise NotWellDefined("round trip does not restore the summand")
    if rebuilt.lagrangian.transport(iso.hom) != q.lagrangian:
        raise NotWellDefined("round trip does not restore the lagrangian")
    return iso


# -- trivialization of invertible classes over free coefficients -------


def _restrict_form(e: EQForm, s: SubgroupRep) -> tuple[EQForm, GroupHom]:
    """The form induced on a subgroup of a free form, with its inclusion."""
    gens = s.generators()
    sub = free_group(len(gens))
    lam = IntMatrix.from_rows(
        [[e.lam(x, y) for y in gens] for x in gens], len(gens)
    )
    mu = GroupHom.from_gen_images(sub, e.target, [e.mu.apply(g) for g in gens]) \
        if gens else GroupHom.zero(sub, e.target)
    incl = GroupHom(sub, e.group, IntMatrix.from_columns([list(g) for g in gens], rows=e.group.num_gens))
    return EQForm(sub, lam, mu, e.v), incl


def _subgroup_in_basis(s: SubgroupRep, incl: GroupHom) -> SubgroupRep:
    """Rewrite a subgroup of the ambient in the coordinates of a summand."""
    solve = int_solver(incl.matrix)
    coords = []
    for g in s.generators():
        x = solve(list(g))
        if x is None:
            raise NotWellDefined("subgroup is not contained in the summand")
        coords.append(x)
    return SubgroupRep.from_elements(incl.source, coords)


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
    lagrangians in the hyperbolic part H; every claim is re-checked and
    the change of basis is returned as a replayable move.
    """
    e = q.form
    if not e.target.is_free:
        raise HypothesisError("coefficient group is not free")
    if not e.is_free():
        raise HypothesisError("form is not free")
    lagr, summ = q.lagrangian, q.summand
    if not subgroup_classify(e, lagr).free_lagrangian:
        raise HypothesisError("first subgroup is not a free lagrangian")
    if not subgroup_classify(e, summ).free_lagrangian:
        raise HypothesisError("second subgroup is not a free lagrangian")

    common = summ.intersection(lagr)
    x = direct_complement(common)
    l_rest = lagr.intersection(x)
    k_rest = summ.intersection(x)
    if common.sum(l_rest) != lagr or common.sum(k_rest) != summ:
        raise NotWellDefined("complement does not split the lagrangians")

    x_perp = orthogonal_complement(e, x)
    m_prime = common.sum(x_perp)
    h = orthogonal_complement(e, m_prime)
    if not m_prime.intersection(h).is_zero() or not m_prime.sum(h).is_full():
        raise NotWellDefined("perpendicular part does not complement")

    m_form, m_incl = _restrict_form(e, m_prime)
    h_form, h_incl = _restrict_form(e, h)
    j_in = _subgroup_in_basis(common, m_incl)
    l_in = _subgroup_in_basis(l_rest, h_incl)
    k_in = _subgroup_in_basis(k_rest, h_incl)
    if not subgroup_classify(m_form, j_in).free_lagrangian:
        raise NotWellDefined("common part is not a lagrangian in its summand")
    for part in (l_in, k_in):
        if not subgroup_classify(h_form, part).free_lagrangian:
            raise NotWellDefined("restricted lagrangian check failed")
    if not h_form.mu.is_zero():
        raise NotWellDefined("mu does not vanish on the hyperbolic part")
    witness = is_hyperbolic_with_witness(h_form, l_in)

    zero_part = QuasiFormation(m_form, j_in, j_in)
    hyp_part = QuasiFormation(h_form, l_in, k_in)
    target = qf_direct_sum(zero_part, hyp_part)
    basis = m_incl.matrix.hstack(h_incl.matrix)
    split = FormIso(e, target.form, GroupHom(e.group, target.form.group, basis.inverse_unimodular()))
    seq = MoveSequence(q, target, (ApplyIso(split),))
    outcome = replay(seq)
    if not outcome:
        raise NotWellDefined(f"decomposition move failed: {outcome.reason}")
    return LTrivialization(common, x, zero_part, hyp_part, witness, seq)


# -- the sum identity --------------------------------------------------


def _swap_iso(e: EQForm, left: int) -> FormIso:
    """Swap the two leading blocks of rank ``left`` in a 2·left+rest form."""
    n = e.group.num_gens
    perm = list(range(left, 2 * left)) + list(range(left)) + list(range(2 * left, n))
    target, p = _perm_form(e, perm)
    if target != e:
        raise NotWellDefined("block swap does not preserve the form")
    return FormIso(e, e, GroupHom(e.group, e.group, p))


def _expand_ru_letter(letter) -> list[Move]:
    """Moves realizing V ↦ Ψ(V) for one word letter, keeping L fixed."""
    if isinstance(letter, Keep):
        return [ApplyIso(letter.iso)]
    w = letter.witness
    psi = _realize_letter_unchecked(letter)
    n = w.target.group.num_gens
    rotate, p = _perm_form(w.target, list(range(2, n)) + [0, 1])
    to_last = FormIso(w.target, rotate, GroupHom(w.target.group, rotate.group, p))
    entry = to_last.compose(w).compose(psi)
    swap_last, ps = _perm_form(rotate, list(range(n - 2)) + [n - 1, n - 2])
    if swap_last != rotate:
        raise NotWellDefined("trailing pair swap does not preserve the form")
    flip = FlipL(FormIso(rotate, rotate, GroupHom(rotate.group, rotate.group, ps)))
    exit_iso = to_last.compose(w).inverse()
    return [ApplyIso(entry), flip, ApplyIso(exit_iso)]


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

    stab = stable_lagrangian_iso(e, l_sub, e, k_sub, mode="stable")
    if stab.k != stab.l:
        raise NotWellDefined("stabilization ranks disagree")
    pairs = stab.k
    phi = stab.iso
    big = phi.source
    n = e.rank
    l_tilde = stab.source_lagrangian
    k_tilde = stab.target_lagrangian
    v_gens = [g + (0,) * (2 * pairs) for g in v_sub.generators()]
    v_gens += [big.group.gen(n + i) for i in range(pairs)]
    v_tilde = SubgroupRep.from_elements(big.group, v_gens)

    wall = ru_wall_witness(big, k_tilde, phi)
    neg_big = negate(big)
    start_padding = QuasiFormation(neg_big, k_tilde, k_tilde)
    start = qf_direct_sum(
        qf_direct_sum(QuasiFormation(big, k_tilde, l_tilde), QuasiFormation(big, l_tilde, v_tilde)),
        start_padding,
    )
    if start.form != wall.ambient:
        raise NotWellDefined("padded sum does not match the word ambient")

    first = ApplyIso(
        iso_direct_sum(iso_direct_sum(FormIso.identity(big), phi), FormIso.identity(neg_big))
    )
    # after transporting the middle factor, the lagrangian is the word's
    if apply_move(start, first).lagrangian != wall.lagrangian:
        raise NotWellDefined("transported lagrangian does not match the word")
    moves: list[Move] = [first]
    for letter in reversed(wall.word.letters):
        moves.extend(_expand_ru_letter(letter))
    moves.append(ApplyIso(_swap_iso(wall.ambient, big.group.num_gens)))

    end_paddings = (QuasiFormation(big, k_tilde, k_tilde), start_padding)
    end = qf_direct_sum(
        qf_direct_sum(QuasiFormation(big, k_tilde, v_tilde), end_paddings[0]), end_paddings[1]
    )
    seq = MoveSequence(start, end, tuple(moves))
    return JacobiWitness(seq, pairs, phi, start_padding, end_paddings)
