"""Finitely generated abelian groups in invariant-factor normal form.

A group is ``Z^r ⊕ Z/d_1 ⊕ ... ⊕ Z/d_m`` with every ``d_i >= 2`` and
``d_i | d_{i+1}``.  Elements are integer coordinate vectors of length
``r + m`` (free coordinates first); torsion coordinates are kept reduced
into ``[0, d_i)``.

Subgroups are represented canonically by the Hermite row basis of their
full preimage lattice in ``Z^{r+m}`` (the preimage always contains the
relation lattice ``d_i * e_{r+i}``).  Two subgroup values are equal as
Python objects exactly when they are equal as subgroups, which is what
the rest of the package leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Sequence

from .errors import DimensionMismatch, HypothesisError, NotASummand, NotWellDefined
from .intmat import (
    IntMatrix,
    Vec,
    hermite_row_basis,
    int_nullspace,
    int_solve,
    int_solver,
    lattice_contains,
    smith_normal_form,
)


@dataclass(frozen=True)
class AbGroup:
    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise DimensionMismatch("negative free rank")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for d in self.torsion:
            if d < 2:
                raise NotWellDefined(f"invariant factor {d} < 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise NotWellDefined(f"invariant factors {a}, {b} violate divisibility")

    # -- structure ----------------------------------------------------

    @property
    def num_gens(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def is_free(self) -> bool:
        return not self.torsion

    @property
    def is_trivial(self) -> bool:
        return self.num_gens == 0

    def reduce(self, vec: Sequence[int]) -> Vec:
        if len(vec) != self.num_gens:
            raise DimensionMismatch(f"element length {len(vec)} != {self.num_gens} generators")
        r = self.free_rank
        return tuple(vec[:r]) + tuple(x % d for x, d in zip(vec[r:], self.torsion))

    def zero(self) -> Vec:
        return (0,) * self.num_gens

    def gen(self, i: int) -> Vec:
        return tuple(1 if j == i else 0 for j in range(self.num_gens))

    def gens(self) -> list[Vec]:
        return [self.gen(i) for i in range(self.num_gens)]

    def add(self, x: Sequence[int], y: Sequence[int]) -> Vec:
        return self.reduce([a + b for a, b in zip(x, y)])

    def neg(self, x: Sequence[int]) -> Vec:
        return self.reduce([-a for a in x])

    def smul(self, k: int, x: Sequence[int]) -> Vec:
        return self.reduce([k * a for a in x])

    def is_zero_element(self, x: Sequence[int]) -> bool:
        return self.reduce(x) == self.zero()

    def relation_rows(self) -> list[Vec]:
        """Generators of the relation lattice in Z^{r+m}."""
        r = self.free_rank
        n = self.num_gens
        return [tuple(self.torsion[j] if i == r + j else 0 for i in range(n)) for j in range(len(self.torsion))]

    def element_order_divides(self, x: Sequence[int], k: int) -> bool:
        return self.is_zero_element(self.smul(k, x))


ZERO_GROUP = AbGroup(0, ())
Z2 = AbGroup(0, (2,))


def free_group(rank: int) -> AbGroup:
    return AbGroup(rank, ())


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism given by its matrix on generators.

    ``matrix`` has one column per source generator and one row per target
    generator.  Construction verifies well-definedness: a source generator
    of order d must map to an element killed by d.  Rows landing in target
    torsion are stored reduced, so equal homs compare equal.
    """

    source: AbGroup
    target: AbGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.num_gens or self.matrix.cols != self.source.num_gens:
            raise DimensionMismatch(
                f"hom matrix is {self.matrix.rows}x{self.matrix.cols}, expected "
                f"{self.target.num_gens}x{self.source.num_gens}"
            )
        # reduce rows that land in target torsion coordinates
        r = self.target.free_rank
        ds = self.target.torsion
        reduced = tuple(
            row if i < r else tuple(x % ds[i - r] for x in row)
            for i, row in enumerate(self.matrix.entries)
        )
        object.__setattr__(self, "matrix", IntMatrix(self.matrix.rows, self.matrix.cols, reduced))
        # well-definedness on source torsion generators
        sr = self.source.free_rank
        for j, d in enumerate(self.source.torsion):
            col = self.matrix.column(sr + j)
            if not self.target.is_zero_element(self.target.reduce([d * x for x in col])):
                raise NotWellDefined(
                    f"source generator {sr + j} of order {d} maps to an element not killed by {d}"
                )

    # -- evaluation / algebra -----------------------------------------

    def apply(self, x: Sequence[int]) -> Vec:
        return self.target.reduce(self.matrix.apply(self.source.reduce(x)))

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self ∘ other."""
        if other.target != self.source:
            raise DimensionMismatch("composition source/target mismatch")
        return GroupHom(other.source, self.target, self.matrix.mul(other.matrix))

    def add(self, other: "GroupHom") -> "GroupHom":
        if (other.source, other.target) != (self.source, self.target):
            raise DimensionMismatch("sum of homs with different signatures")
        return GroupHom(self.source, self.target, self.matrix.add(other.matrix))

    def neg(self) -> "GroupHom":
        return GroupHom(self.source, self.target, self.matrix.neg())

    @staticmethod
    def identity(g: AbGroup) -> "GroupHom":
        return GroupHom(g, g, IntMatrix.identity(g.num_gens))

    @staticmethod
    def zero(source: AbGroup, target: AbGroup) -> "GroupHom":
        return GroupHom(source, target, IntMatrix.zeros(target.num_gens, source.num_gens))

    @staticmethod
    def from_gen_images(source: AbGroup, target: AbGroup, images: Sequence[Sequence[int]]) -> "GroupHom":
        if len(images) != source.num_gens:
            raise DimensionMismatch("one image per source generator required")
        return GroupHom(source, target, IntMatrix.from_columns([target.reduce(im) for im in images], rows=target.num_gens))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    # -- subgroup-level operations ------------------------------------

    def image(self) -> "SubgroupRep":
        return SubgroupRep.from_elements(self.target, [self.apply(g) for g in self.source.gens()])

    def kernel(self) -> "SubgroupRep":
        """Kernel as a subgroup of the source."""
        rel = self.target.relation_rows()
        block = self.matrix
        if rel:
            block = block.hstack(IntMatrix.from_columns([list(r) for r in rel], rows=self.target.num_gens))
        ns = int_nullspace(block)
        n = self.source.num_gens
        vecs = [col[:n] for col in ns]
        vecs.extend(self.source.relation_rows())
        return SubgroupRep.from_elements(self.source, vecs)

    def is_surjective(self) -> bool:
        return self.image() == SubgroupRep.full(self.target)

    def is_injective(self) -> bool:
        return self.kernel() == SubgroupRep.zero(self.source)


def group_solver(h: GroupHom) -> Callable[[Sequence[int]], Vec | None]:
    """Factor h once; the result maps y to a source element x with h(x) = y, or None.

    The solution is the canonical one produced by the Smith decomposition
    of the matrix [H | relations(target)].
    """
    rel = h.target.relation_rows()
    block = h.matrix
    if rel:
        block = block.hstack(IntMatrix.from_columns([list(r) for r in rel], rows=h.target.num_gens))
    solve = int_solver(block)

    def solve_for(y: Sequence[int]) -> Vec | None:
        sol = solve(h.target.reduce(y))
        if sol is None:
            return None
        return h.source.reduce(sol[: h.source.num_gens])

    return solve_for


def solve_in_group(h: GroupHom, y: Sequence[int]) -> Vec | None:
    """A source element x with h(x) = y, or None (see ``group_solver``)."""
    return group_solver(h)(y)


def require_free_bijective(h: GroupHom) -> None:
    """Raise unless h, a hom between free groups, has a unimodular matrix."""
    if h.source.num_gens != h.target.num_gens or not h.matrix.is_unimodular():
        raise HypothesisError("not bijective", "free-group hom with non-unimodular matrix")


def invert_iso(h: GroupHom) -> GroupHom:
    """Two-sided inverse of a bijective hom (raises if not bijective)."""
    if h.source.is_free and h.target.is_free:
        require_free_bijective(h)
        return GroupHom(h.target, h.source, h.matrix.inverse_unimodular())
    solve = group_solver(h)
    cols = []
    for g in h.target.gens():
        x = solve(g)
        if x is None:
            raise HypothesisError("not surjective", "hom has no preimage for a target generator")
        cols.append(x)
    inv = GroupHom.from_gen_images(h.target, h.source, cols)
    if inv.compose(h) != GroupHom.identity(h.source) or h.compose(inv) != GroupHom.identity(h.target):
        raise HypothesisError("not bijective", "hom has a right inverse but is not invertible")
    return inv


@dataclass(frozen=True)
class SubgroupRep:
    """Subgroup of ``ambient``, canonically represented.

    ``lattice`` is the unique Hermite row basis of the full preimage of
    the subgroup in ``Z^{r+m}``; it always contains the relation lattice.
    """

    ambient: AbGroup
    lattice: tuple[Vec, ...]

    @staticmethod
    def from_elements(ambient: AbGroup, elements: Iterable[Sequence[int]]) -> "SubgroupRep":
        rows = [list(ambient.reduce(e)) for e in elements]
        rows.extend(list(r) for r in ambient.relation_rows())
        return SubgroupRep(ambient, hermite_row_basis(rows, ambient.num_gens))

    @staticmethod
    def zero(ambient: AbGroup) -> "SubgroupRep":
        return SubgroupRep.from_elements(ambient, [])

    @staticmethod
    def full(ambient: AbGroup) -> "SubgroupRep":
        return SubgroupRep.from_elements(ambient, ambient.gens())

    # -- queries ------------------------------------------------------

    def contains(self, x: Sequence[int]) -> bool:
        return lattice_contains(self.lattice, self.ambient.reduce(x))

    def contains_subgroup(self, other: "SubgroupRep") -> bool:
        return all(self.contains(g) for g in other.generators())

    def generators(self) -> list[Vec]:
        """Canonical generating set: nonzero projections of the basis rows."""
        out = []
        for row in self.lattice:
            g = self.ambient.reduce(row)
            if any(g):
                out.append(g)
        return out

    @property
    def rank(self) -> int:
        """Free rank of the subgroup."""
        return len(self.lattice) - len(self.ambient.torsion)

    def is_zero(self) -> bool:
        return self == SubgroupRep.zero(self.ambient)

    def is_full(self) -> bool:
        return self == SubgroupRep.full(self.ambient)

    def is_free(self) -> bool:
        """True iff the subgroup contains no nonzero torsion element."""
        return self.intersection(torsion_subgroup(self.ambient)).is_zero()

    def contains_torsion(self) -> bool:
        return self.contains_subgroup(torsion_subgroup(self.ambient))

    # -- lattice operations -------------------------------------------

    def sum(self, other: "SubgroupRep") -> "SubgroupRep":
        if other.ambient != self.ambient:
            raise DimensionMismatch("subgroup sum across different ambients")
        return SubgroupRep(self.ambient, hermite_row_basis(self.lattice + other.lattice, self.ambient.num_gens))

    def intersection(self, other: "SubgroupRep") -> "SubgroupRep":
        if other.ambient != self.ambient:
            raise DimensionMismatch("subgroup intersection across different ambients")
        a = self.lattice
        b = other.lattice
        if not a or not b:
            # both contain the relation lattice, so emptiness means trivial ambient
            return SubgroupRep(self.ambient, ())
        stacked = IntMatrix.from_rows([list(r) for r in a] + [list(r) for r in b], self.ambient.num_gens)
        ns = int_nullspace(stacked.transpose())
        rows = []
        for coeff in ns:
            xa = coeff[: len(a)]
            rows.append([sum(c * r[j] for c, r in zip(xa, a)) for j in range(self.ambient.num_gens)])
        return SubgroupRep(self.ambient, hermite_row_basis(rows, self.ambient.num_gens))

    def transport(self, h: GroupHom) -> "SubgroupRep":
        """Image of this subgroup under a hom out of the ambient group."""
        if h.source != self.ambient:
            raise DimensionMismatch("transport along hom with wrong source")
        return SubgroupRep.from_elements(h.target, [h.apply(g) for g in self.generators()])

    def preimage(self, h: GroupHom) -> "SubgroupRep":
        """Preimage h^{-1}(self) as a subgroup of h.source."""
        if h.target != self.ambient:
            raise DimensionMismatch("preimage along hom with wrong target")
        if not self.lattice:
            # zero subgroup of a free ambient: the preimage is the kernel
            return h.kernel()
        lat = IntMatrix.from_rows([list(r) for r in self.lattice], self.ambient.num_gens)
        block = h.matrix.hstack(lat.transpose().neg())
        ns = int_nullspace(block)
        n = h.source.num_gens
        vecs = [col[:n] for col in ns]
        vecs.extend(h.source.relation_rows())
        return SubgroupRep.from_elements(h.source, vecs)


def torsion_subgroup(g: AbGroup) -> SubgroupRep:
    r = g.free_rank
    return SubgroupRep.from_elements(g, [g.gen(r + j) for j in range(len(g.torsion))])


# -- quotients ---------------------------------------------------------


def quotient_with_projection(b: SubgroupRep) -> tuple[AbGroup, GroupHom]:
    """Quotient ambient/B in invariant-factor form with its projection.

    The projection's kernel is exactly B.
    """
    amb = b.ambient
    n = amb.num_gens
    cols = [list(r) for r in b.lattice]
    mat = IntMatrix.from_columns(cols, rows=n)
    dec = smith_normal_form(mat)
    limit = min(n, mat.cols)
    free_idx = [i for i in range(n) if i >= limit or dec.d.entries[i][i] == 0]
    tors_idx = [i for i in range(limit) if dec.d.entries[i][i] >= 2]
    torsion = tuple(dec.d.entries[i][i] for i in tors_idx)
    quot = AbGroup(len(free_idx), torsion)
    rows = [dec.u.row(i) for i in free_idx] + [dec.u.row(i) for i in tors_idx]
    proj = GroupHom(amb, quot, IntMatrix.from_rows(rows, n) if rows else IntMatrix.zeros(0, n))
    return quot, proj


def summand_test(b: SubgroupRep) -> bool:
    """True iff ambient/B is free (B is a summand containing all torsion)."""
    quot, _ = quotient_with_projection(b)
    return quot.is_free


def is_direct_summand(b: SubgroupRep) -> bool:
    try:
        direct_complement(b)
        return True
    except NotASummand:
        return False


def direct_complement(b: SubgroupRep) -> SubgroupRep:
    """A complement N with ambient = B ⊕ N, or NotASummand.

    Works for arbitrary subgroups: we look for a section of the quotient
    projection by solving, for each quotient generator of order k, the
    system  proj(x) = generator, k*x = 0.  Sections exist exactly when B
    is a direct summand.
    """
    amb = b.ambient
    quot, proj = quotient_with_projection(b)
    solve_free = group_solver(proj) if quot.free_rank else None
    lifts = []
    for i, g in enumerate(quot.gens()):
        order = 0 if i < quot.free_rank else quot.torsion[i - quot.free_rank]
        if order == 0:
            x = solve_free(g)
            if x is None:
                raise NotASummand("projection is not surjective (internal error)")
        else:
            # combined condition: proj(x) = g and order*x = 0 in the ambient
            rel = amb.relation_rows()
            mult = IntMatrix.identity(amb.num_gens).scale(order)
            stacked = proj.matrix.vstack(mult)
            rhs = list(g) + list(amb.zero())
            cols = []
            for r in quot.relation_rows():
                cols.append(list(r) + [0] * amb.num_gens)
            for r in rel:
                cols.append([0] * quot.num_gens + list(r))
            block = stacked
            if cols:
                block = block.hstack(IntMatrix.from_columns(cols, rows=stacked.rows))
            sol = int_solve(block, rhs)
            if sol is None:
                raise NotASummand("no section: subgroup is not a direct summand")
            x = amb.reduce(sol[: amb.num_gens])
        lifts.append(x)
    comp = SubgroupRep.from_elements(amb, lifts)
    if not b.intersection(comp).is_zero() or not b.sum(comp).is_full():
        raise NotASummand("computed section does not split the ambient group")
    return comp


# -- direct sums with coordinate maps ----------------------------------


@dataclass(frozen=True)
class DirectSum:
    group: AbGroup
    incl_a: GroupHom
    incl_b: GroupHom
    proj_a: GroupHom
    proj_b: GroupHom


def direct_sum_with_maps(a: AbGroup, b: AbGroup) -> DirectSum:
    """A ⊕ B renormalized to invariant-factor form, with its four maps.

    When both torsion lists merge without interaction (the common free
    case) the coordinate maps are plain embeddings; in general the merged
    torsion is renormalized through a Smith decomposition.
    """
    ra, rb = a.free_rank, b.free_rank
    mixed = list(a.torsion) + list(b.torsion)
    # cokernel of diag(mixed) describes the combined torsion part
    t = len(mixed)
    dec = smith_normal_form(IntMatrix.diagonal(mixed, rows=t, cols=t))
    keep = [i for i in range(t) if dec.d.entries[i][i] >= 2]
    torsion = tuple(dec.d.entries[i][i] for i in keep)
    total = AbGroup(ra + rb, torsion)

    def embed_free(offset: int, rank: int, src_index: int) -> list[int]:
        col = [0] * total.num_gens
        col[offset + src_index] = 1
        return col

    # torsion generator j of the mixed list maps to U[:, j] restricted to kept rows
    def embed_tors(j: int) -> list[int]:
        col = [0] * total.num_gens
        for pos, i in enumerate(keep):
            col[ra + rb + pos] = dec.u.entries[i][j]
        return col

    cols_a = [embed_free(0, ra, i) for i in range(ra)] + [embed_tors(j) for j in range(len(a.torsion))]
    cols_b = [embed_free(ra, rb, i) for i in range(rb)] + [
        embed_tors(len(a.torsion) + j) for j in range(len(b.torsion))
    ]
    incl_a = GroupHom.from_gen_images(a, total, cols_a) if cols_a else GroupHom.zero(a, total)
    incl_b = GroupHom.from_gen_images(b, total, cols_b) if cols_b else GroupHom.zero(b, total)

    # projections: invert the torsion change of basis
    def proj_matrix(which: Literal["a", "b"]) -> IntMatrix:
        tgt = a if which == "a" else b
        rows_out = []
        for i in range(tgt.num_gens):
            rows_out.append([0] * total.num_gens)
        # free part
        off = 0 if which == "a" else ra
        for i in range(tgt.free_rank):
            rows_out[i][off + i] = 1
        # torsion part: new torsion generator pos corresponds to old coords via U^{-1}
        t_off = 0 if which == "a" else len(a.torsion)
        for pos, i in enumerate(keep):
            col = dec.u_inv.column(i)  # expression of new generator in mixed coordinates
            for j in range(len(tgt.torsion)):
                rows_out[tgt.free_rank + j][ra + rb + pos] = col[t_off + j]
        return IntMatrix.from_rows(rows_out, total.num_gens) if rows_out else IntMatrix.zeros(0, total.num_gens)

    proj_a = GroupHom(total, a, proj_matrix("a"))
    proj_b = GroupHom(total, b, proj_matrix("b"))
    # sanity: the four maps must satisfy the biproduct identities
    if proj_a.compose(incl_a) != GroupHom.identity(a) or proj_b.compose(incl_b) != GroupHom.identity(b):
        raise NotWellDefined("direct sum projections fail the retraction identity")
    if not proj_a.compose(incl_b).is_zero() or not proj_b.compose(incl_a).is_zero():
        raise NotWellDefined("direct sum projections fail orthogonality")
    recomposed = incl_a.compose(proj_a).add(incl_b.compose(proj_b))
    if recomposed != GroupHom.identity(total):
        raise NotWellDefined("direct sum inclusions do not reassemble the identity")
    return DirectSum(total, incl_a, incl_b, proj_a, proj_b)


# -- presentation -----------------------------------------------------


def group_from_presentation(num_gens: int, relations: Iterable[Sequence[int]]) -> tuple[AbGroup, GroupHom]:
    """Normalize ``Z^n / <relations>``; returns the group and projection."""
    free = AbGroup(num_gens, ())
    sub = SubgroupRep.from_elements(free, relations)
    return quotient_with_projection(sub)


# -- matching of surjections (free sources) ----------------------------


@dataclass(frozen=True)
class MatchedSurjections:
    """Output of ``match_surjections``.

    ``iso`` maps F ⊕ f_extra onto G ⊕ g_extra (block coordinates in that
    order) and satisfies (f + 0) = (g + 0) ∘ iso exactly.
    """

    f_extra: AbGroup
    g_extra: AbGroup
    iso: GroupHom


def _free_cover_of_kernel(g: GroupHom) -> tuple[AbGroup, GroupHom]:
    """Free cover of Ker g using the kernel's canonical generators."""
    ker = g.kernel()
    gens = ker.generators()
    cover = free_group(len(gens))
    if gens:
        hom = GroupHom.from_gen_images(cover, g.source, gens)
    else:
        hom = GroupHom.zero(cover, g.source)
    return cover, hom


def match_surjections(f: GroupHom, g: GroupHom, mode: Literal["stable", "strict"] = "stable") -> MatchedSurjections:
    """Match two surjections from free groups onto a common target.

    stable: always applicable; returns free F', G' and an isomorphism
    h: F ⊕ F' → G ⊕ G' with (f + 0) = (g + 0) ∘ h.

    strict: requires a free target and equal source ranks; returns
    h: F → G with f = g ∘ h (F' = G' = 0).
    """
    if f.target != g.target:
        raise HypothesisError("different targets", "surjections must share a target")
    if not f.source.is_free or not g.source.is_free:
        raise HypothesisError("source not free")
    if not f.is_surjective():
        raise HypothesisError("f not surjective")
    if not g.is_surjective():
        raise HypothesisError("g not surjective")

    if mode == "strict":
        if not f.target.is_free:
            raise HypothesisError("target not free", "strict matching needs a free target")
        if f.source.free_rank != g.source.free_rank:
            raise HypothesisError("rank mismatch", "strict matching needs equal source ranks")
        return _match_strict(f, g)
    if mode != "stable":
        raise HypothesisError("unknown mode", mode)

    # lift f through g, generator by generator
    lift_through_g = group_solver(g)
    lift_cols = []
    for gen in f.source.gens():
        x = lift_through_g(f.apply(gen))
        assert x is not None  # g surjective
        lift_cols.append(x)
    fbar = GroupHom.from_gen_images(f.source, g.source, lift_cols) if lift_cols else GroupHom.zero(f.source, g.source)

    f0_group, f0 = _free_cover_of_kernel(g)
    # F1 = F ⊕ F0 with fbar1 = fbar + f0 surjective onto G
    rk_f = f.source.free_rank
    rk_f0 = f0_group.free_rank
    rk_g = g.source.free_rank
    f1_group = free_group(rk_f + rk_f0)
    fbar1_matrix = fbar.matrix.hstack(f0.matrix)
    fbar1 = GroupHom(f1_group, g.source, fbar1_matrix)
    if not fbar1.is_surjective():
        raise NotWellDefined("augmented lift failed to be surjective")
    # right inverse c: G -> F1
    right_inverse = group_solver(fbar1)
    c_cols = [right_inverse(gen) for gen in g.source.gens()]
    c = GroupHom.from_gen_images(g.source, f1_group, c_cols) if c_cols else GroupHom.zero(g.source, f1_group)

    f_extra = free_group(rk_f0 + rk_g)
    g_extra = f1_group  # = F ⊕ F0
    # h: F1 ⊕ G -> G ⊕ F1,   h(x, y) = (fbar1(x), x + c(y))
    top = fbar1.matrix.hstack(IntMatrix.zeros(rk_g, rk_g))
    bottom = IntMatrix.identity(rk_f + rk_f0).hstack(c.matrix)
    h_matrix = top.vstack(bottom)
    iso = GroupHom(free_group(rk_f + rk_f0 + rk_g), free_group(rk_g + rk_f + rk_f0), h_matrix)
    _verify_match(f, g, f_extra, g_extra, iso)
    return MatchedSurjections(f_extra, g_extra, iso)


def _match_strict(f: GroupHom, g: GroupHom) -> MatchedSurjections:
    a = f.target
    solve_f, solve_g = group_solver(f), group_solver(g)
    c_cols = [solve_f(gen) for gen in a.gens()]
    d_cols = [solve_g(gen) for gen in a.gens()]
    kf = f.kernel().generators()
    kg = g.kernel().generators()
    if len(kf) != len(kg):
        raise NotWellDefined("kernel ranks differ despite equal source ranks")
    n = f.source.free_rank
    p_f = IntMatrix.from_columns([list(v) for v in kf] + [list(v) for v in c_cols], rows=n)
    p_g = IntMatrix.from_columns([list(v) for v in kg] + [list(v) for v in d_cols], rows=n)
    h_matrix = p_g.mul(p_f.inverse_unimodular())
    iso = GroupHom(f.source, g.source, h_matrix)
    trivial = free_group(0)
    _verify_match(f, g, trivial, trivial, iso)
    return MatchedSurjections(trivial, trivial, iso)


def _verify_match(f: GroupHom, g: GroupHom, f_extra: AbGroup, g_extra: AbGroup, iso: GroupHom):
    if not iso.matrix.is_unimodular():
        raise NotWellDefined("matching map is not unimodular")
    f_ext = GroupHom(iso.source, f.target, f.matrix.hstack(IntMatrix.zeros(f.target.num_gens, f_extra.num_gens)))
    g_ext = GroupHom(iso.target, g.target, g.matrix.hstack(IntMatrix.zeros(g.target.num_gens, g_extra.num_gens)))
    if g_ext.compose(iso) != f_ext:
        raise NotWellDefined("matching identity (f+0) = (g+0)∘h fails")
