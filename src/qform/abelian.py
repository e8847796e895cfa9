"""Finitely generated abelian groups in invariant-factor normal form.

A group is ``Z^r ⊕ Z/d_1 ⊕ ... ⊕ Z/d_m`` with every ``d_i >= 2`` and
``d_i | d_{i+1}``.  Elements are integer coordinate vectors of length
``r + m`` (free coordinates first); torsion coordinates are kept reduced
into ``[0, d_i)``.

Subgroups are represented canonically by the Hermite row basis of their
full preimage lattice in ``Z^{r+m}`` (the preimage always contains the
relation lattice ``d_i * e_{r+i}``), held as sparse rows (``intmat.Row``)
like every matrix.  Two subgroup values are equal as Python objects
exactly when they are equal as subgroups, which is what the rest of the
package leans on.

Sums, images, meets, preimages and kernels read that basis straight off
one stacked Hermite basis of sparse rows (Zassenhaus' algorithm for
meets and preimages), with no Smith form, so each costs about the
nonzero entries of the lattices and maps involved.

Whether a subgroup is a direct summand is read off Hermite bases too (see
``is_direct_summand``); only a torsion ambient asks ``direct_complement``
for a section.  A Smith form is computed only where its transforms are
used: quotients and solving.

Every lift is one solve.  ``lift_through`` (x with h ∘ x = f), its
one-column case ``solve_in_group`` and ``direct_complement``'s sections
all go through ``_solve_modulo``, which appends the target's relation
columns and hands every right-hand side to one ``intmat.int_solve``, so
one Smith form serves all the columns of f.  Homs are inverted only by
``invert_iso``.

Every direct sum A ⊕ B in the package comes from ``direct_sum_with_maps``,
whose coordinates are free(A), free(B), then the merged torsion; its
inclusions and projections are block-diagonal matrices.  Every sum of
subgroups A′ ⊕ B′ ≤ A ⊕ B is ``DirectSum.subgroup``, the span of their
images under those inclusions, so no caller lays coordinates out by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatch, HypothesisError, NoSolution, NotASummand, NotWellDefined
from .intmat import (
    IntMatrix,
    Row,
    Vec,
    dense_row,
    hermite_row_basis,
    int_solve,
    shifted_row,
    smith_normal_form,
    sparse_row,
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

    def reduce(self, vec: Sequence[int]) -> Vec:
        if len(vec) != self.num_gens:
            raise DimensionMismatch(f"element length {len(vec)} != {self.num_gens} generators")
        r = self.free_rank
        return tuple(vec[:r]) + tuple(x % d for x, d in zip(vec[r:], self.torsion))

    def reduce_row(self, row: Row) -> Row:
        """A sparse row with its torsion coordinates reduced; zeros drop out."""
        if not self.torsion:
            return row
        r, ds = self.free_rank, self.torsion
        return tuple([(j, x if j < r else x % ds[j - r]) for j, x in row if j < r or x % ds[j - r]])

    def zero(self) -> Vec:
        return (0,) * self.num_gens

    def gen(self, i: int) -> Vec:
        return tuple(1 if j == i else 0 for j in range(self.num_gens))

    def gens(self) -> list[Vec]:
        return [self.gen(i) for i in range(self.num_gens)]

    def is_zero_element(self, x: Sequence[int]) -> bool:
        return self.reduce(x) == self.zero()


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
        if ds:
            reduced = tuple(
                row if i < r else tuple([(j, x % ds[i - r]) for j, x in row if x % ds[i - r]])
                for i, row in enumerate(self.matrix.sparse)
            )
            object.__setattr__(self, "matrix", IntMatrix(self.matrix.rows, self.matrix.cols, reduced))
        # well-definedness on source torsion generators
        sr = self.source.free_rank
        if self.source.torsion:
            cols = self.matrix.transpose().sparse
        for j, d in enumerate(self.source.torsion):
            if self.target.reduce_row(tuple([(i, d * x) for i, x in cols[sr + j]])):
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
        """The subgroup the generators' images span: the columns of the matrix."""
        return SubgroupRep.from_sparse(self.target, self.matrix.transpose().sparse)

    def kernel(self) -> "SubgroupRep":
        """Kernel as a subgroup of the source: the preimage of zero."""
        return SubgroupRep.zero(self.target).preimage(self)

    def is_surjective(self) -> bool:
        return self.image() == SubgroupRep.full(self.target)


def _solve_modulo(a: IntMatrix, groups: Sequence[AbGroup], b: IntMatrix) -> IntMatrix | None:
    """X with A*X = B modulo the relations of ``groups``, or None when some column has no solution.

    The rows of A and B are the coordinates of ``groups``, laid one after
    another.  This is the one solve behind every lift: ``int_solve`` of
    [A | relations], with the column d·e_i for each coordinate i of order
    d, and X the first ``a.cols`` rows of its canonical solution.
    """
    n = a.cols
    moduli = [d for g in groups for d in (0,) * g.free_rank + g.torsion]
    rel = tuple(((i, d),) for i, d in enumerate(moduli) if d)
    x = int_solve(a.hstack(IntMatrix(len(rel), a.rows, rel).transpose()) if rel else a, b)
    return None if x is None else IntMatrix(n, b.cols, x.sparse[:n])


def lift_through(h: GroupHom, f: GroupHom) -> GroupHom | None:
    """A hom x with h ∘ x = f, or None when some f(g) has no preimage under h.

    The images f(g), the columns of f's matrix, are solved for together
    by one ``_solve_modulo`` over h's target; out of a group with torsion
    their lifts may define no hom (NotWellDefined).
    """
    x = _solve_modulo(h.matrix, [h.target], f.matrix)
    return None if x is None else GroupHom(f.source, h.source, x)


def solve_in_group(h: GroupHom, y: Sequence[int]) -> Vec | None:
    """A source element x with h(x) = y, or None: ``lift_through`` of the one column y."""
    x = lift_through(h, GroupHom(free_group(1), h.target, IntMatrix.from_columns([h.target.reduce(y)])))
    return None if x is None else x.matrix.column(0)


def invert_iso(h: GroupHom) -> GroupHom:
    """Two-sided inverse of a bijective hom: between free groups the matrix's.

    Any other hom fails as a ``HypothesisError``: "not surjective" when a
    target generator has no preimage, and otherwise "not bijective".
    """
    if h.source.is_free and h.target.is_free:
        try:
            return GroupHom(h.target, h.source, h.matrix.inverse_unimodular())
        except NoSolution:
            raise HypothesisError("not bijective", "free-group hom with non-unimodular matrix") from None
    try:
        inv = lift_through(h, GroupHom.identity(h.target))
    except NotWellDefined:
        # every generator has a preimage, but the preimages define no hom: h is onto and not injective
        raise HypothesisError("not bijective", "hom is onto but not injective") from None
    if inv is None:
        raise HypothesisError("not surjective", "hom has no preimage for a target generator")
    if inv.compose(h) != GroupHom.identity(h.source) or h.compose(inv) != GroupHom.identity(h.target):
        raise HypothesisError("not bijective", "hom has a right inverse but is not invertible")
    return inv


@dataclass(frozen=True)
class SubgroupRep:
    """Subgroup of ``ambient``, canonically represented.

    ``lattice`` is the unique Hermite row basis of the full preimage of
    the subgroup in ``Z^{r+m}``, as sparse rows: each row is the tuple of
    (column, value) pairs of its nonzero entries, columns increasing.  It
    always contains the relation lattice, so each torsion coordinate
    that no row leads in is led by its relation row ((r + i, d_i),).
    """

    ambient: AbGroup
    lattice: tuple[Row, ...]

    @staticmethod
    def from_elements(ambient: AbGroup, elements: Iterable[Sequence[int]]) -> "SubgroupRep":
        """The subgroup the dense elements span."""
        return SubgroupRep.from_sparse(ambient, [sparse_row(ambient.reduce(e)) for e in elements])

    @staticmethod
    def from_sparse(ambient: AbGroup, rows: Iterable[Row]) -> "SubgroupRep":
        """The subgroup the sparse rows span; torsion coordinates need not be reduced."""
        r = ambient.free_rank
        rows = [ambient.reduce_row(row) for row in rows]
        rows += [((r + i, d),) for i, d in enumerate(ambient.torsion)]
        return SubgroupRep(ambient, hermite_row_basis(rows, ambient.num_gens))

    @staticmethod
    def of_units(ambient: AbGroup, indices: Iterable[int]) -> "SubgroupRep":
        """The subgroup the generators at ``indices`` span.  Its Hermite basis is written down, not
        eliminated: the unit row at each index and the relation row of each other torsion coordinate."""
        orders = (0,) * ambient.free_rank + ambient.torsion
        ones = set(indices)
        if not ones <= set(range(len(orders))):
            raise DimensionMismatch("generator index out of range for %d generators" % len(orders))
        return SubgroupRep(ambient, tuple([((j, 1 if j in ones else d),) for j, d in enumerate(orders) if j in ones or d]))

    @staticmethod
    def zero(ambient: AbGroup) -> "SubgroupRep":
        return SubgroupRep.of_units(ambient, ())

    @staticmethod
    def full(ambient: AbGroup) -> "SubgroupRep":
        return SubgroupRep.of_units(ambient, range(ambient.num_gens))

    # -- queries ------------------------------------------------------

    def generator_rows(self) -> list[Row]:
        """Canonical generating set as sparse rows: the nonzero projections of the basis rows."""
        reduce_row = self.ambient.reduce_row
        return [g for g in map(reduce_row, self.lattice) if g]

    def generators(self) -> list[Vec]:
        """Canonical generating set: ``generator_rows`` as dense elements."""
        n = self.ambient.num_gens
        return [dense_row(g, n) for g in self.generator_rows()]

    def generator_matrix(self) -> IntMatrix:
        """``generator_rows`` as the rows of a matrix."""
        gens = self.generator_rows()
        return IntMatrix(len(gens), self.ambient.num_gens, tuple(gens))

    @property
    def rank(self) -> int:
        """Free rank of the subgroup."""
        return len(self.lattice) - len(self.ambient.torsion)

    def is_zero(self) -> bool:
        return self == SubgroupRep.zero(self.ambient)

    def is_full(self) -> bool:
        return self == SubgroupRep.full(self.ambient)

    def is_free(self) -> bool:
        """True iff the subgroup contains no nonzero torsion element: its torsion part is the relations."""
        return self._torsion_rows_are(self.ambient.torsion)

    def contains_torsion(self) -> bool:
        """True iff the subgroup contains the torsion subgroup: its torsion part is the unit rows."""
        return self._torsion_rows_are([1] * len(self.ambient.torsion))

    def _torsion_rows_are(self, pivots: Sequence[int]) -> bool:
        """Whether the basis ends in the rows ((r + i, pivots[i]),).

        The lattice holds the relations, so its last len(torsion) rows lead the torsion columns:
        they are the Hermite basis of the preimage of the subgroup's torsion part.
        """
        r, tail = self.ambient.free_rank, self.lattice[len(self.lattice) - len(pivots):]
        return all(row == ((r + i, d),) for i, (row, d) in enumerate(zip(tail, pivots)))

    def inclusion(self) -> GroupHom:
        """Z^k → ambient onto the canonical generators; a basis when the subgroup is free."""
        gens = self.generator_matrix()
        return GroupHom(free_group(gens.rows), self.ambient, gens.transpose())

    # -- lattice operations -------------------------------------------

    def sum(self, other: "SubgroupRep") -> "SubgroupRep":
        if other.ambient != self.ambient:
            raise DimensionMismatch("subgroup sum across different ambients")
        return SubgroupRep(self.ambient, hermite_row_basis(self.lattice + other.lattice, self.ambient.num_gens))

    def intersection(self, other: "SubgroupRep") -> "SubgroupRep":
        """The meet, by Zassenhaus: rows (a | a) for a in self, (b | 0) for b in other."""
        if other.ambient != self.ambient:
            raise DimensionMismatch("subgroup intersection across different ambients")
        n = self.ambient.num_gens
        rows = [a + shifted_row(a, n) for a in self.lattice] + list(other.lattice)
        return _zero_head_tails(self.ambient, n, rows)

    def image_rows(self, h: GroupHom) -> tuple[Row, ...]:
        """The images of the generators under a hom out of the ambient group: the rows of generators times hᵀ."""
        if h.source != self.ambient:
            raise DimensionMismatch("transport along hom with wrong source")
        return self.generator_matrix().mul(h.matrix.transpose()).sparse

    def transport(self, h: GroupHom) -> "SubgroupRep":
        """Image of this subgroup under a hom out of the ambient group: the span of ``image_rows``."""
        return SubgroupRep.from_sparse(h.target, self.image_rows(h))

    def preimage(self, h: GroupHom) -> "SubgroupRep":
        """Preimage h^{-1}(self) as a subgroup of h.source: rows (h(e_j) | e_j), (s | 0) for s in self."""
        if h.target != self.ambient:
            raise DimensionMismatch("preimage along hom with wrong target")
        m = self.ambient.num_gens
        rows = [col + ((m + j, 1),) for j, col in enumerate(h.matrix.transpose().sparse)]
        rows += self.lattice
        return _zero_head_tails(h.source, m, rows)


def _zero_head_tails(ambient: AbGroup, head: int, rows: list[Row]) -> SubgroupRep:
    """The subgroup of ``ambient`` whose lattice is {t : (0 | t) in the span of ``rows``}.

    In the Hermite basis of ``rows`` the tails of the rows whose first
    ``head`` entries vanish are echelon and reduced, so they are already
    the canonical lattice.  It contains the relations: both lattices of a
    meet do, and a well-defined hom maps source relations into the target's.
    """
    basis = hermite_row_basis(rows, head + ambient.num_gens)
    return SubgroupRep(ambient, tuple(shifted_row(r, -head) for r in basis if r[0][0] >= head))


def free_section(g: AbGroup) -> GroupHom:
    """Z^r → g onto the free coordinates: a section of the quotient by torsion."""
    r = g.free_rank
    return GroupHom(free_group(r), g, IntMatrix.diagonal([1] * r, rows=g.num_gens, cols=r))


def torsion_subgroup(g: AbGroup) -> SubgroupRep:
    return SubgroupRep.of_units(g, range(g.free_rank, g.num_gens))


# -- quotients ---------------------------------------------------------


def quotient_with_projection(b: SubgroupRep) -> tuple[AbGroup, GroupHom]:
    """Quotient ambient/B in invariant-factor form with its projection.

    The projection's kernel is exactly B.
    """
    amb = b.ambient
    n = amb.num_gens
    dec = smith_normal_form(IntMatrix(len(b.lattice), n, b.lattice).transpose())
    diag = dec.diagonal + (0,) * (n - len(dec.diagonal))
    free_idx = [i for i in range(n) if diag[i] == 0]
    tors_idx = [i for i in range(n) if diag[i] >= 2]
    quot = AbGroup(len(free_idx), tuple(diag[i] for i in tors_idx))
    rows = tuple(dec.u.sparse[i] for i in free_idx + tors_idx)
    return quot, GroupHom(amb, quot, IntMatrix(len(rows), n, rows))


def is_direct_summand(b: SubgroupRep) -> bool:
    """True iff B is a direct summand of its ambient group A.

    * Unit pivots: when every pivot of the Hermite basis ``b.lattice`` is
      1, its rows extend to a basis of Z^{r+m} by unit vectors, and since
      the lattice contains the relations, B splits off.
    * Free ambient: B ≤ Z^n with k×n lattice matrix M splits off iff Z^n/B
      is free, iff the columns of M span Z^k, iff their Hermite basis is
      the k unit rows: one sparse Hermite basis, no Smith form.
    * Torsion in the ambient: B splits off iff ``direct_complement`` finds
      a section of the quotient map; it raises ``NotASummand`` exactly
      when none exists.
    """
    amb = b.ambient
    if all(row[0][1] == 1 for row in b.lattice):
        return True
    if amb.is_free:
        k = len(b.lattice)
        columns = IntMatrix(k, amb.num_gens, b.lattice).transpose().sparse
        return hermite_row_basis(columns, k) == IntMatrix.identity(k).sparse
    try:
        direct_complement(b)
    except NotASummand:
        return False
    return True


def direct_complement(b: SubgroupRep) -> SubgroupRep:
    """A complement N with ambient = B ⊕ N, or NotASummand.

    Works for arbitrary subgroups: we look for a section of the quotient
    projection by solving, for each quotient generator of order k, the
    system  proj(x) = generator, k*x = 0.  Sections exist exactly when B
    is a direct summand.  The lifts define a section, so their span is a
    complement by construction and is not checked again.
    """
    amb = b.ambient
    quot, proj = quotient_with_projection(b)
    lifts = []
    if quot.free_rank:  # the projection is onto, so every free generator lifts
        lifts += _solve_modulo(proj.matrix, [quot], free_section(quot).matrix).transpose().sparse
    for i, d in enumerate(quot.torsion, quot.free_rank):
        # proj(x) = g and d*x = 0 for the generator g of order d, modulo both groups' relations
        stacked = proj.matrix.vstack(IntMatrix.identity(amb.num_gens).scale(d))
        x = _solve_modulo(stacked, [quot, amb], IntMatrix.from_columns([quot.gen(i) + amb.zero()]))
        if x is None:
            raise NotASummand("no section: subgroup is not a direct summand")
        lifts += x.transpose().sparse
    return SubgroupRep.from_sparse(amb, lifts)


# -- direct sums with coordinate maps ----------------------------------


@dataclass(frozen=True)
class DirectSum:
    group: AbGroup
    incl_a: GroupHom
    incl_b: GroupHom
    proj_a: GroupHom
    proj_b: GroupHom

    def subgroup(self, a: SubgroupRep, b: SubgroupRep) -> SubgroupRep:
        """A′ ⊕ B′ for A′ ≤ A and B′ ≤ B: one Hermite basis of their images under the inclusions.

        Between free groups A's coordinates come first and B's follow, so
        A′'s Hermite basis, then B′'s shifted past A, already is that basis:
        its pivots increase, and no row of A′ reaches a column of B.
        """
        if self.group.is_free and a.ambient == self.incl_a.source and b.ambient == self.incl_b.source:
            shift = a.ambient.free_rank
            return SubgroupRep(self.group, a.lattice + tuple(shifted_row(row, shift) for row in b.lattice))
        return SubgroupRep.from_sparse(self.group, a.image_rows(self.incl_a) + b.image_rows(self.incl_b))


def direct_sum_with_maps(a: AbGroup, b: AbGroup) -> DirectSum:
    """A ⊕ B renormalized to invariant-factor form, with its four maps.

    Coordinates are laid out as free(A), free(B), then the merged torsion.
    The merged torsion is the quotient of Z^t, t the number of torsion
    coordinates of A and B, by the lattice of the rows ((i, d_i),) of
    their orders, which already is its Hermite basis.  Its projection P
    and a section S, one ``_solve_modulo`` of P·S = I, make each map one
    block diagonal:

        incl_a = diag(I, 0_{rb×0}, P_a)    proj_a = diag(I, 0_{0×rb}, S_a)
        incl_b = diag(0_{ra×0}, I, P_b)    proj_b = diag(0_{0×ra}, I, S_b)

    with P_a, P_b the columns of P at A's and B's torsion coordinates and
    S_a, S_b the matching rows of S.  The biproduct identities hold by
    construction and are not checked on each call.  When neither group
    has torsion no quotient is taken.
    """
    ra, rb, ta = a.free_rank, b.free_rank, len(a.torsion)
    mixed = a.torsion + b.torsion
    t = len(mixed)
    if t:
        orders = SubgroupRep(free_group(t), tuple(((i, d),) for i, d in enumerate(mixed)))
        merged, proj = quotient_with_projection(orders)
        torsion = merged.torsion
        p = proj.matrix.transpose().sparse
        s = _solve_modulo(proj.matrix, [merged], IntMatrix.identity(len(torsion))).sparse
    else:  # both groups free: no torsion to renormalize
        torsion, p, s = (), (), ()
    total = AbGroup(ra + rb, torsion)
    k = len(torsion)
    p_a = IntMatrix(ta, k, p[:ta]).transpose()
    p_b = IntMatrix(t - ta, k, p[ta:]).transpose()
    s_a = IntMatrix(ta, k, s[:ta])
    s_b = IntMatrix(t - ta, k, s[ta:])
    diag, zeros = IntMatrix.block_diagonal, IntMatrix.zeros
    eye_a, eye_b = IntMatrix.identity(ra), IntMatrix.identity(rb)
    return DirectSum(
        total,
        GroupHom(a, total, diag([eye_a, zeros(rb, 0), p_a])),
        GroupHom(b, total, diag([zeros(ra, 0), eye_b, p_b])),
        GroupHom(total, a, diag([eye_a, zeros(0, rb), s_a])),
        GroupHom(total, b, diag([zeros(0, ra), eye_b, s_b])),
    )


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


def match_surjections(f: GroupHom, g: GroupHom) -> MatchedSurjections:
    """Match two surjections from free groups onto a common target.

    Returns free F', G' and an isomorphism h: F ⊕ F' → G ⊕ G' with
    (f + 0) = (g + 0) ∘ h.
    """
    if f.target != g.target:
        raise HypothesisError("different targets", "surjections must share a target")
    if not f.source.is_free or not g.source.is_free:
        raise HypothesisError("source not free")
    if not f.is_surjective():
        raise HypothesisError("f not surjective")
    if not g.is_surjective():
        raise HypothesisError("g not surjective")

    fbar = lift_through(g, f)  # g is onto, so f lifts

    f0 = g.kernel().inclusion()  # a free cover of Ker g on its canonical generators
    # F1 = F ⊕ F0 with fbar1 = fbar + f0 surjective onto G
    rk_f = f.source.free_rank
    rk_f0 = f0.source.free_rank
    rk_g = g.source.free_rank
    f1_group = free_group(rk_f + rk_f0)
    fbar1_matrix = fbar.matrix.hstack(f0.matrix)
    fbar1 = GroupHom(f1_group, g.source, fbar1_matrix)
    c = lift_through(fbar1, GroupHom.identity(g.source))  # a right inverse G -> F1

    f_extra = free_group(rk_f0 + rk_g)
    g_extra = f1_group  # = F ⊕ F0
    # h: F1 ⊕ G -> G ⊕ F1,   h(x, y) = (fbar1(x), x + c(y))
    top = fbar1.matrix.hstack(IntMatrix.zeros(rk_g, rk_g))
    bottom = IntMatrix.identity(rk_f + rk_f0).hstack(c.matrix)
    h_matrix = top.vstack(bottom)
    iso = GroupHom(free_group(rk_f + rk_f0 + rk_g), free_group(rk_g + rk_f + rk_f0), h_matrix)
    return MatchedSurjections(f_extra, g_extra, iso)
