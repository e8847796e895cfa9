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

from .abelian import (
    AbGroup,
    GroupHom,
    SubgroupRep,
    Z2,
    ZERO_GROUP,
    direct_sum_with_maps,
    free_group,
    invert_iso,
    is_direct_summand,
    require_free_bijective,
)
from .errors import (
    DimensionMismatch,
    HypothesisError,
    NotWellDefined,
    VMissing,
)
from .intmat import IntMatrix, Vec, int_nullspace


@dataclass(frozen=True)
class EQForm:
    """An extended quadratic form (M, λ, μ) with optional parity map v."""

    group: AbGroup
    matrix: IntMatrix
    mu: GroupHom
    v: GroupHom | None = None

    def __post_init__(self):
        n = self.group.num_gens
        if self.matrix.rows != n or self.matrix.cols != n:
            raise DimensionMismatch("pairing matrix does not match the group")
        if not self.matrix.is_symmetric():
            raise NotWellDefined("pairing matrix is not symmetric")
        for i in range(self.group.free_rank, n):
            if any(self.matrix.entries[i][j] != 0 for j in range(n)):
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

    def lam(self, x, y) -> int:
        """Value of the pairing λ(x, y)."""
        xr = self.group.reduce(x)
        yr = self.group.reduce(y)
        return sum(a * b for a, b in zip(xr, self.matrix.apply(yr)))

    def mu_of(self, x) -> Vec:
        return self.mu.apply(x)

    def reduced_matrix(self) -> IntMatrix:
        """The pairing restricted to the free generators."""
        r = self.group.free_rank
        return IntMatrix.from_rows([row[:r] for row in self.matrix.entries[:r]], r)

    # -- predicates ----------------------------------------------------

    def is_free(self) -> bool:
        return self.group.is_free

    def is_nonsingular(self) -> bool:
        return abs(self.reduced_matrix().det()) == 1

    def is_even(self) -> bool:
        return all(self.matrix.entries[i][i] % 2 == 0 for i in range(self.group.num_gens))

    def is_full(self) -> bool:
        return self.mu.is_surjective()

    def is_geometric(self) -> bool:
        """Whether λ(x,x) mod 2 agrees with v(μ(x)) everywhere.

        Both sides are additive in x (the cross terms of λ are even), so
        checking generators is enough.
        """
        if self.v is None:
            raise VMissing("the geometric predicate needs a parity map v")
        vmu = self.v.compose(self.mu)
        for i, g in enumerate(self.group.gens()):
            if (self.matrix.entries[i][i] % 2,) != vmu.apply(g):
                return False
        return True


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
    top = IntMatrix.zeros(k, k).hstack(IntMatrix.identity(k))
    bottom = IntMatrix.identity(k).hstack(IntMatrix.zeros(k, k))
    return EQForm(free_group(2 * k), top.vstack(bottom), GroupHom.zero(free_group(2 * k), target), v)


def negate(e: EQForm) -> EQForm:
    """-(M, λ, μ) = (M, -λ, -μ)."""
    return EQForm(e.group, e.matrix.neg(), e.mu.neg(), e.v)


def dual(e: EQForm) -> EQForm:
    """(M, λ, μ)* = (M, λ, -μ)."""
    return EQForm(e.group, e.matrix, e.mu.neg(), e.v)


def pullback(h: GroupHom, e: EQForm) -> EQForm:
    """The form induced on h's source: (N, h*λ, μ∘h)."""
    if h.target != e.group:
        raise DimensionMismatch("pullback along a map into a different group")
    lam = h.matrix.transpose().mul(e.matrix).mul(h.matrix)
    return EQForm(h.source, lam, e.mu.compose(h), e.v)


@dataclass(frozen=True)
class FormSum:
    """Direct sum of two forms together with its coordinate maps."""

    form: EQForm
    incl_a: GroupHom
    incl_b: GroupHom
    proj_a: GroupHom
    proj_b: GroupHom


def form_direct_sum(a: EQForm, b: EQForm) -> FormSum:
    if a.target != b.target:
        raise HypothesisError("target mismatch", "direct sum needs a common coefficient group")
    if a.v != b.v:
        raise HypothesisError("parity mismatch", "direct sum needs a common parity map")
    ds = direct_sum_with_maps(a.group, b.group)
    pa, pb = ds.proj_a.matrix, ds.proj_b.matrix
    lam = pa.transpose().mul(a.matrix).mul(pa).add(pb.transpose().mul(b.matrix).mul(pb))
    mu = a.mu.compose(ds.proj_a).add(b.mu.compose(ds.proj_b))
    total = EQForm(ds.group, lam, mu, a.v)
    return FormSum(total, ds.incl_a, ds.incl_b, ds.proj_a, ds.proj_b)


# -- isomorphisms ------------------------------------------------------


@dataclass(frozen=True)
class FormIso:
    """A validated isomorphism of extended quadratic forms.

    Construction is the certificate: it checks, in this order, that the
    map pulls the target's λ back to the source's, that it pulls μ back,
    and that it is bijective (determinant ±1 between free groups; between
    groups with torsion, an explicit two-sided inverse), and fails
    otherwise.  There is no unchecked constructor, so every FormIso,
    including every deserialized move, has passed these checks.

    Between free groups the inverse is computed on first use and cached.
    ``inverse`` hands its result ``hom`` as that result's inverse, and
    ``compose`` hands on b⁻¹∘a⁻¹ when both inverses are already known.
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
        if self.hom.source.is_free and self.hom.target.is_free:
            require_free_bijective(self.hom)
        else:
            self._cache_inverse(invert_iso(self.hom))

    def _cache_inverse(self, inv: GroupHom) -> None:
        object.__setattr__(self, "_inverse", inv)

    @property
    def inverse_hom(self) -> GroupHom:
        if self._inverse is None:
            # only a map between free groups reaches here: its det is ±1
            h = self.hom
            self._cache_inverse(GroupHom(h.target, h.source, h.matrix.inverse_unimodular()))
        return self._inverse

    @staticmethod
    def identity(e: EQForm) -> "FormIso":
        return FormIso(e, e, GroupHom.identity(e.group))

    def apply(self, x) -> Vec:
        return self.hom.apply(x)

    def inverse(self) -> "FormIso":
        inv = FormIso(self.target, self.source, self.inverse_hom)
        inv._cache_inverse(self.hom)
        return inv

    def compose(self, other: "FormIso") -> "FormIso":
        """self ∘ other (other applied first)."""
        if other.target != self.source:
            raise DimensionMismatch("isomorphisms do not compose")
        iso = FormIso(other.source, self.target, self.hom.compose(other.hom))
        if self._inverse is not None and other._inverse is not None:
            iso._cache_inverse(other._inverse.compose(self._inverse))
        return iso


def iso_direct_sum(a: FormIso, b: FormIso) -> FormIso:
    """The block sum a ⊕ b between the corresponding direct-sum forms."""
    src = form_direct_sum(a.source, b.source)
    tgt = form_direct_sum(a.target, b.target)
    hom = (
        tgt.incl_a.compose(a.hom).compose(src.proj_a)
        .add(tgt.incl_b.compose(b.hom).compose(src.proj_b))
    )
    return FormIso(src.form, tgt.form, hom)


# -- orthogonal complements and subgroup classification ---------------


def orthogonal_complement(e: EQForm, x: SubgroupRep) -> SubgroupRep:
    """X^⊥ = {y : λ(x, y) = 0 for all x in X}.  Needs a nonsingular form."""
    if x.ambient != e.group:
        raise DimensionMismatch("subgroup lives in a different group")
    if not e.is_nonsingular():
        raise HypothesisError("not nonsingular", "orthogonal complement needs determinant ±1")
    gens = x.generators()
    if not gens:
        return SubgroupRep.full(e.group)
    g = IntMatrix.from_rows([list(v) for v in gens], e.group.num_gens)
    sols = int_nullspace(g.mul(e.matrix))
    return SubgroupRep.from_elements(e.group, sols)


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
    gens = s.generators()
    if gens:
        rows = IntMatrix.from_rows([list(v) for v in gens], e.group.num_gens)
        isotropic = rows.mul(e.matrix).mul(rows.transpose()).is_zero()
    else:
        isotropic = True
    mu_vanishes = all(e.target.is_zero_element(e.mu.apply(g)) for g in gens)
    half = 2 * s.rank == e.rank and is_direct_summand(s)
    free_lagr = isotropic and mu_vanishes and half and s.is_free()
    t_lagr = isotropic and mu_vanishes and half and s.contains_torsion()
    return SubgroupFlags(isotropic, mu_vanishes, half, free_lagr, t_lagr)
