"""Extended quadratic forms over an abelian coefficient group.

A form is a triple (M, λ, μ): a finitely generated abelian group M, an
integer-valued symmetric pairing λ on M, and a homomorphism μ from M to a
coefficient group Q.  Since λ takes integer values it must vanish on
torsion, so the matrix of λ is required to have zero rows and columns at
torsion generators.  An optional homomorphism v : Q → Z/2 records the
parity constraint used by the geometric predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .abelian import (
    AbGroup,
    DirectSum,
    GroupHom,
    SubgroupRep,
    Z2,
    ZERO_GROUP,
    direct_sum_with_maps,
    free_group,
    invert_iso,
    is_direct_summand,
)
from .errors import (
    DimensionMismatch,
    HypothesisError,
    NotWellDefined,
    VMissing,
)
from .intmat import IntMatrix, int_nullspace, inverse_permutation


@dataclass(frozen=True)
class EQForm:
    """An extended quadratic form (M, λ, μ) with optional parity map v.

    The public constructor checks it.  ``hyperbolic``, ``negate``, ``dual``,
    ``pullback`` and ``form_direct_sum`` skip that through ``_unchecked``:
    each result is well formed whenever its inputs are.

    ``is_nonsingular`` is computed on first use and cached on the form
    object, as ``FormIso`` caches its inverse; the cache takes no part in
    ``==``, hashing or ``repr``, and ``dataclasses.replace`` starts a new
    form without it.
    """

    group: AbGroup
    matrix: IntMatrix
    mu: GroupHom
    v: GroupHom | None = None
    _nonsingular: bool | None = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def _unchecked(cls, group: AbGroup, matrix: IntMatrix, mu: GroupHom, v: GroupHom | None) -> "EQForm":
        """A form well formed by construction from checked parts; nothing is re-checked."""
        e = object.__new__(cls)
        e.__dict__.update(group=group, matrix=matrix, mu=mu, v=v, _nonsingular=None)
        return e

    def __post_init__(self):
        n = self.group.num_gens
        if self.matrix.rows != n or self.matrix.cols != n:
            raise DimensionMismatch("pairing matrix does not match the group")
        if not self.matrix.is_symmetric():
            raise NotWellDefined("pairing matrix is not symmetric")
        if any(self.matrix.sparse[self.group.free_rank:]):
            raise NotWellDefined("pairing does not vanish on torsion generators")
        if self.mu.source != self.group:
            raise DimensionMismatch("mu is not defined on the form's group")
        if self.v is not None:
            if self.v.source != self.mu.target or self.v.target != Z2:
                raise DimensionMismatch("parity map must go from the coefficient group to Z/2")

    # -- basic data ----------------------------------------------------

    @property
    def target(self) -> AbGroup:
        """The coefficient group Q."""
        return self.mu.target

    @property
    def rank(self) -> int:
        return self.group.free_rank

    def reduced_matrix(self) -> IntMatrix:
        """The pairing restricted to the free generators."""
        r = self.group.free_rank
        if r == self.group.num_gens:
            return self.matrix
        return IntMatrix(r, r, tuple(tuple([(j, x) for j, x in row if j < r]) for row in self.matrix.sparse[:r]))

    # -- predicates ----------------------------------------------------

    def is_free(self) -> bool:
        return self.group.is_free

    def is_nonsingular(self) -> bool:
        if self._nonsingular is None:
            object.__setattr__(self, "_nonsingular", abs(self.reduced_matrix().det()) == 1)
        return self._nonsingular

    def is_even(self) -> bool:
        return all(self.matrix[i, i] % 2 == 0 for i in range(self.group.num_gens))

    def is_full(self) -> bool:
        return self.mu.is_surjective()

    def is_geometric(self) -> bool:
        """Whether λ(x,x) mod 2 agrees with v(μ(x)) everywhere.

        Both sides are additive in x (the cross terms of λ are even), so
        checking generators is enough.
        """
        if self.v is None:
            raise VMissing("the geometric predicate needs a parity map v")
        parity = dict(self.v.compose(self.mu).matrix.sparse[0])  # v∘μ: one row into Z/2
        return all(self.matrix[i, i] % 2 == parity.get(i, 0) for i in range(self.group.num_gens))


@dataclass(frozen=True)
class FormReport:
    rank: int
    torsion: tuple[int, ...]
    free: bool
    nonsingular: bool
    even: bool
    full: bool
    geometric: bool | None


def form_validate(e: EQForm) -> FormReport:
    """Evaluate all form predicates at once; geometric is None without v."""
    geometric = e.is_geometric() if e.v is not None else None
    return FormReport(
        rank=e.rank,
        torsion=e.group.torsion,
        free=e.is_free(),
        nonsingular=e.is_nonsingular(),
        even=e.is_even(),
        full=e.is_full(),
        geometric=geometric,
    )


# -- constructors ------------------------------------------------------


def hyperbolic(k: int, target: AbGroup = ZERO_GROUP, v: GroupHom | None = None) -> EQForm:
    """The standard hyperbolic form of rank 2k, with μ = 0.

    λ = [[0, I], [I, 0]]: the first k generators pair with the last k.
    """
    if k < 0:
        raise DimensionMismatch("hyperbolic rank parameter must be non-negative")
    if v is not None and (v.source != target or v.target != Z2):
        raise DimensionMismatch("parity map must go from the coefficient group to Z/2")
    lam = IntMatrix.block_pattern(("0 I", "I 0"), (0,) * k)
    return EQForm._unchecked(free_group(2 * k), lam, GroupHom.zero(free_group(2 * k), target), v)


def hyperbolic_halves(k: int) -> tuple[SubgroupRep, SubgroupRep]:
    """The upper and lower halves (Z^k × {0}, {0} × Z^k) of ``hyperbolic(k)``'s group."""
    g = free_group(2 * k)
    return SubgroupRep.of_units(g, range(k)), SubgroupRep.of_units(g, range(k, 2 * k))


def negate(e: EQForm) -> EQForm:
    """-(M, λ, μ) = (M, -λ, -μ); well formed whenever e is."""
    return EQForm._unchecked(e.group, e.matrix.neg(), e.mu.neg(), e.v)


def dual(e: EQForm) -> EQForm:
    """(M, λ, μ)* = (M, λ, -μ); well formed whenever e is."""
    return EQForm._unchecked(e.group, e.matrix, e.mu.neg(), e.v)


def pullback(h: GroupHom, e: EQForm) -> EQForm:
    """The form induced on h's source: (N, h*λ, μ∘h).

    hᵀλh is symmetric, and vanishes on torsion because h maps it into torsion.
    """
    if h.target != e.group:
        raise DimensionMismatch("pullback along a map into a different group")
    lam = h.matrix.transpose().mul(e.matrix).mul(h.matrix)
    return EQForm._unchecked(h.source, lam, e.mu.compose(h), e.v)


@dataclass(frozen=True)
class FormSum(DirectSum):
    """Direct sum of two forms: the sum of their groups with its coordinate maps, and the form on it."""

    form: EQForm


def form_direct_sum(a: EQForm, b: EQForm) -> FormSum:
    """(A, λ_A, μ_A) ⊕ (B, λ_B, μ_B) on ``direct_sum_with_maps(A, B)``.

    Coordinates are free(A), free(B), then the merged torsion, and λ is
    the block diagonal of the two reduced pairings and a zero torsion
    block.  That equals pa^T·λ_A·pa + pb^T·λ_B·pb for the projections pa,
    pb: each projection is the identity on its own free coordinates, and
    λ_A, λ_B vanish on torsion (``EQForm`` requires it), so the torsion
    blocks of the projections meet only zeros.  μ = μ_A∘pa + μ_B∘pb.  The
    sum is well formed because both summands are, and is not re-checked.
    """
    if a.target != b.target:
        raise HypothesisError("target mismatch", "direct sum needs a common coefficient group")
    if a.v != b.v:
        raise HypothesisError("parity mismatch", "direct sum needs a common parity map")
    ds = direct_sum_with_maps(a.group, b.group)
    t = len(ds.group.torsion)
    lam = IntMatrix.block_diagonal([a.reduced_matrix(), b.reduced_matrix(), IntMatrix.zeros(t, t)])
    mu = a.mu.compose(ds.proj_a).add(b.mu.compose(ds.proj_b))
    total = EQForm._unchecked(ds.group, lam, mu, a.v)
    return FormSum(ds.group, ds.incl_a, ds.incl_b, ds.proj_a, ds.proj_b, total)


# -- isomorphisms ------------------------------------------------------


@dataclass(frozen=True)
class FormIso:
    """A validated isomorphism of extended quadratic forms.

    The public constructor is the certificate: it checks, in this order,
    that the map pulls the target's λ back to the source's, that it pulls
    μ back, and that it is bijective, and fails otherwise.  Every FormIso
    read from a document, and every one built from a raw matrix, comes
    through it.  Between free groups a square h out of a nonsingular source
    is bijective by the pullback: det(h)²·det λ′ = det λ = ±1, so
    det h = ±1.  The source's nonsingularity is cached on the form, so a
    document whose isomorphisms share their forms computes one determinant
    per form.  Any other h is bijective exactly when ``invert_iso`` finds
    its two-sided inverse, which is then kept.

    Each fact is checked once.  ``identity``, ``inverse``, ``compose``,
    ``_iso_on_sums``, ``permuted`` and ``_permuted_onto`` build their
    results through ``_unchecked``, because those results are isomorphisms
    whenever their inputs are: the identity pulls everything back to
    itself; the inverse of a bijection that pulls λ and μ back pulls them
    forward, which is the same facts read the other way; a composite pulls
    back along each factor in turn; a block sum pulls back blockwise on the
    direct sums of the forms; and a permutation pulls back the form it
    permuted.  Only the composition's endpoints are compared.

    Every inverse comes from one path, ``invert_iso``, on first use, and is
    cached.  The public constructor's bijectivity check already computes
    it unless the pullback decided, ``identity`` is its own inverse,
    ``_permuted_onto`` hands over the inverse permutation, and
    ``inverse()`` hands ``hom`` to its result as that result's inverse.
    """

    source: EQForm
    target: EQForm
    hom: GroupHom
    _inverse: GroupHom | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.source.target != self.target.target:
            raise NotWellDefined("isomorphism across different coefficient groups")
        if self.source.v != self.target.v:
            raise NotWellDefined("isomorphism across different parity maps")
        if self.hom.source != self.source.group or self.hom.target != self.target.group:
            raise DimensionMismatch("isomorphism map endpoints do not match the forms")
        h = self.hom.matrix
        if h.transpose().mul(self.target.matrix).mul(h) != self.source.matrix:
            raise NotWellDefined("map does not pull the pairing back")
        if self.target.mu.compose(self.hom) != self.source.mu:
            raise NotWellDefined("map does not pull mu back")
        free = self.hom.source.is_free and self.hom.target.is_free
        if not (free and h.is_square and self.source.is_nonsingular()):
            object.__setattr__(self, "_inverse", invert_iso(self.hom))

    @classmethod
    def _unchecked(cls, source: EQForm, target: EQForm, hom: GroupHom, inverse: GroupHom | None = None):
        """An isomorphism that holds by construction from checked ones; nothing is re-checked."""
        iso = object.__new__(cls)
        iso.__dict__.update(source=source, target=target, hom=hom, _inverse=inverse)
        return iso

    @property
    def inverse_hom(self) -> GroupHom:
        if self._inverse is None:
            object.__setattr__(self, "_inverse", invert_iso(self.hom))
        return self._inverse

    @staticmethod
    def identity(e: EQForm) -> "FormIso":
        one = GroupHom.identity(e.group)
        return FormIso._unchecked(e, e, one, one)

    def inverse(self) -> "FormIso":
        return FormIso._unchecked(self.target, self.source, self.inverse_hom, self.hom)

    def compose(self, other: "FormIso") -> "FormIso":
        """self ∘ other (other applied first)."""
        if other.target != self.source:
            raise DimensionMismatch("isomorphisms do not compose")
        return FormIso._unchecked(other.source, self.target, self.hom.compose(other.hom))


def iso_direct_sum(a: FormIso, b: FormIso) -> FormIso:
    """The block sum a ⊕ b between the corresponding direct-sum forms."""
    return _iso_on_sums(form_direct_sum(a.source, b.source), form_direct_sum(a.target, b.target), a, b)


def _iso_on_sums(src: FormSum, tgt: FormSum, a: FormIso, b: FormIso) -> FormIso:
    """a ⊕ b from the caller's sums src = a.source ⊕ b.source to tgt = a.target ⊕ b.target.

    Private: a FormSum does not record its summands, so only the caller
    that built src and tgt from those forms vouches for them.  Between free groups the coordinates of a sum are those of the first
    summand, then those of the second, so the map is the block diagonal
    diag(h_a, h_b).  With torsion the sums renormalize the merged torsion,
    and the map is incl_a·h_a·proj_a + incl_b·h_b·proj_b.
    """
    if src.form.group.is_free and tgt.form.group.is_free:
        matrix = IntMatrix.block_diagonal([a.hom.matrix, b.hom.matrix])
        hom = GroupHom(src.form.group, tgt.form.group, matrix)
    else:
        hom = (
            tgt.incl_a.compose(a.hom).compose(src.proj_a)
            .add(tgt.incl_b.compose(b.hom).compose(src.proj_b))
        )
    return FormIso._unchecked(src.form, tgt.form, hom)


def permuted(e: EQForm, perm: Sequence[int]) -> FormIso:
    """e onto the form whose new slot i holds old slot perm[i], its pullback along P⁻¹ (see ``_permuted_onto``).

    P is an isomorphism onto it by construction: Pᵀ(PλPᵀ)P = λ, μP⁻¹P = μ and det P = ±1.
    """
    return _permuted_onto(e, perm, None)


def _permuted_onto(e: EQForm, perm: Sequence[int], target: EQForm | None) -> FormIso:
    """``permuted(e, perm)`` onto ``target``, which the caller holds as a form equal to that one's target.

    Private, as ``_iso_on_sums`` is: only the caller knows that the permuted
    form is ``target`` again (a form it already built, or e itself), so no
    form is computed and ``target``'s object is kept; None stands for the pullback,
    which is then built.  P⁻¹, from ``inverse_permutation``, is handed over as the inverse.
    """
    p = IntMatrix.permutation(perm)
    back = IntMatrix.permutation(inverse_permutation(perm))
    if target is None:
        target = pullback(GroupHom(e.group, e.group, back), e)
    return FormIso._unchecked(e, target, GroupHom(e.group, target.group, p), GroupHom(target.group, e.group, back))


def _swap_blocks(e: EQForm, size: int) -> FormIso:
    """The automorphism of e exchanging its two leading blocks of ``size`` coordinates.

    Private, as ``_iso_on_sums`` is: nothing is checked, and the caller
    vouches that the permuted form is e itself.  Each caller swaps two
    equal summands of a sum it built, or the pair of a split form.
    """
    n = e.group.num_gens
    return _permuted_onto(e, list(range(size, 2 * size)) + list(range(size)) + list(range(2 * size, n)), e)


# -- the split hyperbolic pair -----------------------------------------
#
# A split form is laid out as H_2 ⊕ rest: its first two free coordinates
# are a hyperbolic pair (a, b) orthogonal to the rest and killed by μ, and
# the rest keeps its order, torsion generators last.  Flip letters and
# FlipL moves both use this layout; σ = _swap_blocks(t, 1) exchanges a and b.
# L = ({0} × Z) ⊕ L' exactly when L's Hermite basis starts with the unit row
# at b: the echelon rows after it lead past b, so they are L''s basis.
_A_ROW, _B_ROW = ((0, 1),), ((1, 1),)


def split_pair(t: EQForm) -> None:
    """Check the split-pair layout of t, which makes σ an automorphism of t."""
    if t.group.free_rank < 2:
        raise HypothesisError("split target has free rank < 2")
    m = t.matrix
    if m[0, 0] != 0 or m[1, 1] != 0 or m[0, 1] != 1:
        raise HypothesisError("split target does not start with a hyperbolic pair")
    if any(j >= 2 for j, _ in m.sparse[0] + m.sparse[1]):
        raise HypothesisError("hyperbolic pair is not orthogonal to the rest")
    if any(t.mu.matrix.column(0) + t.mu.matrix.column(1)):  # μ's matrix is stored reduced
        raise HypothesisError("mu does not vanish on the hyperbolic pair")


def flip_split(l: SubgroupRep) -> SubgroupRep | None:
    """σ(L) = (Z × {0}) ⊕ L', again a canonical basis, when L = ({0} × Z) ⊕ L' in a split group; else None."""
    return SubgroupRep(l.ambient, (_A_ROW,) + l.lattice[1:]) if l.lattice[:1] == (_B_ROW,) else None


# -- orthogonal complements and subgroup classification ---------------


def orthogonal_complement(e: EQForm, x: SubgroupRep) -> SubgroupRep:
    """X^⊥ = {y : λ(x, y) = 0 for all x in X}.  Needs a nonsingular form."""
    if x.ambient != e.group:
        raise DimensionMismatch("subgroup lives in a different group")
    if not e.is_nonsingular():
        raise HypothesisError("not nonsingular", "orthogonal complement needs determinant ±1")
    g = x.generator_matrix()
    if not g.rows:
        return SubgroupRep.full(e.group)
    return SubgroupRep.from_sparse(e.group, int_nullspace(g.mul(e.matrix)))


@dataclass(frozen=True)
class SubgroupFlags:
    isotropic: bool
    mu_vanishes: bool
    half_rank_summand: bool
    free_lagrangian: bool
    t_lagrangian: bool


def subgroup_classify(e: EQForm, s: SubgroupRep) -> SubgroupFlags:
    """Classify a subgroup with respect to the form.

    * isotropic: λ vanishes on S × S
    * mu_vanishes: μ vanishes on S
    * half_rank_summand: S is a direct summand of rank rk(M)/2
    * free_lagrangian: free half-rank summand, isotropic, μ = 0 on S
    * t_lagrangian: half-rank summand containing all torsion, isotropic,
      μ = 0 on S
    """
    if s.ambient != e.group:
        raise DimensionMismatch("subgroup lives in a different group")
    rows = s.generator_matrix()
    isotropic = rows.mul(e.matrix).mul(rows.transpose()).is_zero()
    mu_vanishes = not any(e.target.reduce_row(r) for r in rows.mul(e.mu.matrix.transpose()).sparse)
    half = 2 * s.rank == e.rank and is_direct_summand(s)
    free_lagr = isotropic and mu_vanishes and half and s.is_free()
    t_lagr = isotropic and mu_vanishes and half and s.contains_torsion()
    return SubgroupFlags(isotropic, mu_vanishes, half, free_lagr, t_lagr)
