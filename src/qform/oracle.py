"""Bounded brute-force searches over small integer matrices.

Everything here recomputes answers by exhaustive scanning, independently of
the structured constructions in the rest of the package, so that agreement
between the two is meaningful evidence.  Searches are deterministic: columns
are filled left to right and candidate entries are tried by absolute value,
positive before negative.

A ``None``/empty result only means "nothing within the budget" unless the
result says otherwise; the rank-2 hyperbolic case is the one family where a
finiteness argument makes the scan provably complete.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .abelian import AbGroup, GroupHom, SubgroupRep
from .errors import (
    DEFAULT_NODE_LIMIT,
    DimensionMismatch,
    HypothesisError,
    NodeCounter,
    NoSolution,
    NotWellDefined,
    SchemaError,
)
from .forms import EQForm, FormIso, form_direct_sum, hyperbolic, subgroup_classify
from .intmat import IntMatrix
from .lmonoid import ApplyIso, QuasiFormation, apply_move, qf_direct_sum, standard_elementary
from .serialize import decimal_to_int
from .stableclass import SIReport, gcd_profile, orbit_canonical

Vec = Tuple[int, ...]


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the scans: max |entry|, max stabilizations, node count."""

    entry_bound: int = 3
    max_stab: int = 2
    node_limit: int = DEFAULT_NODE_LIMIT

    def __post_init__(self):
        if self.entry_bound < 0 or self.max_stab < 0 or self.node_limit < 0:
            raise HypothesisError("budget fields must be non-negative")


def default_budget(entry_bound: int = 3, max_stab: int = 2) -> SearchBudget:
    """Budget with the node limit taken from QFORM_NODE_LIMIT if set.

    A value that is not a non-negative integer raises ``SchemaError``.
    """
    try:
        limit = decimal_to_int(os.environ.get("QFORM_NODE_LIMIT", str(DEFAULT_NODE_LIMIT)))
    except ValueError:
        raise SchemaError("QFORM_NODE_LIMIT", "expected an integer") from None
    if limit < 0:
        raise SchemaError("QFORM_NODE_LIMIT", "must be non-negative")
    return SearchBudget(entry_bound, max_stab, limit)


def _entry_order(bound: int) -> List[int]:
    vals = [0]
    for m in range(1, bound + 1):
        vals.append(m)
        vals.append(-m)
    return vals


def _bounded_vectors(group: AbGroup, bound: int) -> List[Vec]:
    """All coordinate vectors with free entries within the bound.

    Torsion coordinates run over their full residue range, so only the free
    directions are truncated.  Order: leftmost coordinate varies slowest,
    each coordinate by absolute value then sign.
    """
    per_coord: List[List[int]] = []
    for i in range(group.num_gens):
        if i < group.free_rank:
            per_coord.append(_entry_order(bound))
        else:
            d = group.torsion[i - group.free_rank]
            per_coord.append(list(range(d)))
    vectors: List[Vec] = [()]
    for vals in per_coord:
        vectors = [v + (x,) for v in vectors for x in vals]
    return vectors


def _pair(matrix: IntMatrix, v: Sequence[int], w: Sequence[int]) -> int:
    total = 0
    for i, row in enumerate(matrix.entries):
        vi = v[i]
        if vi:
            for j, entry in enumerate(row):
                if entry and w[j]:
                    total += vi * entry * w[j]
    return total


def _sign_canonical(v: Sequence[int]) -> bool:
    for x in v:
        if x:
            return x > 0
    return True


# -- lagrangian enumeration ----------------------------------------------


def enumerate_lagrangians(e: EQForm, budget: Optional[SearchBudget] = None) -> List[SubgroupRep]:
    """All free lagrangians whose canonical generators fit the entry bound.

    Complete within the bound: a lagrangian is reported if and only if every
    entry of its canonical generator matrix is within ``entry_bound``.
    Raises NodeLimitExceeded when the cap is hit, which is different from
    returning an empty list.
    """
    budget = budget or default_budget()
    if not e.is_free():
        raise HypothesisError("form is not free", "lagrangian scan needs a free carrier")
    if not e.is_nonsingular():
        raise HypothesisError("form is not nonsingular")
    n = e.rank
    if n % 2:
        return []
    half = n // 2
    ticker = NodeCounter(budget.node_limit)

    cands: List[Vec] = []
    for w in _bounded_vectors(e.group, budget.entry_bound):
        ticker.tick()
        if not any(w):
            continue
        if not _sign_canonical(w):
            continue
        if _pair(e.matrix, w, w) != 0:
            continue
        if not e.target.is_zero_element(e.mu.apply(w)):
            continue
        cands.append(w)

    found = {}

    def extend(start: int, chosen: List[Vec]) -> None:
        if len(chosen) == half:
            s = SubgroupRep.from_elements(e.group, [list(c) for c in chosen])
            if subgroup_classify(e, s).free_lagrangian:
                gens = tuple(s.generators())
                if all(abs(x) <= budget.entry_bound for g in gens for x in g):
                    found[gens] = s
            return
        for i in range(start, len(cands)):
            ticker.tick()
            w = cands[i]
            if all(_pair(e.matrix, c, w) == 0 for c in chosen):
                extend(i + 1, chosen + [w])

    extend(0, [])
    return [found[g] for g in sorted(found)]


# -- isomorphism search --------------------------------------------------


@dataclass(frozen=True)
class IsoSearch:
    """Outcome of a bounded isomorphism scan.

    ``exhaustive`` records whether a missing iso is conclusive: the scan
    covered every possible candidate, not just those within the bound.
    """

    iso: Optional[FormIso]
    exhaustive: bool
    nodes: int

    def __bool__(self) -> bool:
        return self.iso is not None


_H2 = ((0, 1), (1, 0))


def _h2_scan_complete(e: EQForm, f: EQForm, budget: SearchBudget) -> bool:
    # over [[0,1],[1,0]] the isotropic primitives are ±e1, ±e2, so any iso
    # has entries in {-1,0,1} and a bound of 1 already sees everything
    return (
        e.is_free()
        and f.is_free()
        and e.rank == 2
        and f.rank == 2
        and e.matrix.entries == _H2
        and f.matrix.entries == _H2
        and budget.entry_bound >= 1
    )


def _iso_candidates(
    e: EQForm, f: EQForm, budget: SearchBudget, ticker: NodeCounter
) -> Iterator[FormIso]:
    """Yield every validated iso e → f with column entries within bound."""
    src = e.group
    tgt = f.group
    n = src.num_gens
    orders = [0] * src.free_rank + list(src.torsion)
    raw = _bounded_vectors(tgt, budget.entry_bound)
    mu_t = f.mu.matrix
    mu_s_cols = [tuple(e.mu.matrix.column(j)) for j in range(n)]
    g_s = e.matrix.entries

    # candidates for column j, filtered by everything that does not depend
    # on the previously chosen columns; computed once per column on demand
    filtered: dict = {}

    def column_candidates(j: int) -> List[Vec]:
        if j in filtered:
            return filtered[j]
        d = orders[j]
        keep = []
        for w in raw:
            ticker.tick()
            if tuple(e.target.reduce(mu_t.apply(w))) != mu_s_cols[j]:
                continue
            if _pair(f.matrix, w, w) != g_s[j][j]:
                continue
            if d and any(tgt.reduce([x * d for x in w])):
                continue
            keep.append(w)
        filtered[j] = keep
        return keep

    def extend(j: int, chosen: List[Vec]) -> Iterator[FormIso]:
        if j == n:
            h = IntMatrix.from_columns([list(c) for c in chosen], rows=tgt.num_gens)
            try:
                yield FormIso(e, f, GroupHom(src, tgt, h))
            except (NotWellDefined, HypothesisError, NoSolution):
                # pairing and coefficient checks passed, so the candidate
                # can only fail by not being invertible
                pass
            return
        for w in column_candidates(j):
            ticker.tick()
            if all(_pair(f.matrix, c, w) == g_s[i][j] for i, c in enumerate(chosen)):
                yield from extend(j + 1, chosen + [w])

    yield from extend(0, [])


def search_isomorphism(
    e: EQForm, f: EQForm, budget: Optional[SearchBudget] = None
) -> IsoSearch:
    """Scan for an isomorphism between two forms of the same rank.

    A returned iso is validated on construction.  When no iso is found the
    ``exhaustive`` flag tells whether that settles the question.
    """
    budget = budget or default_budget()
    if e.rank != f.rank:
        raise DimensionMismatch("forms have different ranks")
    if e.target != f.target or e.v != f.v:
        # isomorphisms fix the coefficient data, so there is nothing to scan
        return IsoSearch(None, True, 0)
    if e.group != f.group:
        return IsoSearch(None, False, 0)
    ticker = NodeCounter(budget.node_limit)
    exhaustive = _h2_scan_complete(e, f, budget)
    for iso in _iso_candidates(e, f, budget, ticker):
        return IsoSearch(iso, True, ticker.nodes)
    return IsoSearch(None, exhaustive, ticker.nodes)


def enumerate_automorphisms(
    e: EQForm, budget: Optional[SearchBudget] = None
) -> List[FormIso]:
    """All self-isomorphisms with matrix entries within the bound."""
    budget = budget or default_budget()
    ticker = NodeCounter(budget.node_limit)
    found = list(_iso_candidates(e, e, budget, ticker))
    found.sort(key=lambda iso: iso.hom.matrix.entries)
    return found


# -- stable isomorphism search -------------------------------------------


@dataclass(frozen=True)
class StableSearch:
    """Witness (k, l, iso): q ⊕ ℋ_2k ≅ q' ⊕ ℋ_2l carrying L and V across."""

    k: int
    l: int
    iso: FormIso


def _stabilizations(rank: int, other_rank: int, max_stab: int) -> Iterator[tuple[int, int]]:
    """The pairs (k, l), k ascending, with rank + 2k = other_rank + 2l and k, l ≤ max_stab."""
    for k in range(max_stab + 1):
        diff = rank + 2 * k - other_rank
        if diff >= 0 and diff % 2 == 0 and diff // 2 <= max_stab:
            yield k, diff // 2


def search_stable_isomorphism(
    q: QuasiFormation, qp: QuasiFormation, budget: Optional[SearchBudget] = None
) -> Optional[StableSearch]:
    """Scan for a stable isomorphism of quasi-formations.

    Tries every stabilization pair (k, l) within ``max_stab`` that matches
    the ranks, and within each searches for a form isomorphism that carries
    the lagrangian onto the lagrangian and the summand onto the summand.
    Returns None when nothing is found within the budget.
    """
    budget = budget or default_budget()
    if q.form.target != qp.form.target or q.form.v != qp.form.v:
        raise DimensionMismatch("formations live over different coefficients")
    ticker = NodeCounter(budget.node_limit)
    target = q.form.target
    v = q.form.v
    for k, l in _stabilizations(q.form.rank, qp.form.rank, budget.max_stab):
        a = q if k == 0 else qf_direct_sum(q, standard_elementary(k, target, v))
        b = qp if l == 0 else qf_direct_sum(qp, standard_elementary(l, target, v))
        if a.form.group != b.form.group:
            continue
        for iso in _iso_candidates(a.form, b.form, budget, ticker):
            if apply_move(a, ApplyIso(iso)) == b:
                return StableSearch(k, l, iso)
    return None


def search_stable_form_isomorphism(
    e: EQForm, f: EQForm, budget: Optional[SearchBudget] = None
) -> Optional[StableSearch]:
    """Form-level stable scan: find (k, l) and an iso e ⊕ H_2k ≅ f ⊕ H_2l."""
    budget = budget or default_budget()
    if e.target != f.target or e.v != f.v:
        raise DimensionMismatch("forms live over different coefficients")
    ticker = NodeCounter(budget.node_limit)
    for k, l in _stabilizations(e.rank, f.rank, budget.max_stab):
        a = e if k == 0 else form_direct_sum(e, hyperbolic(k, e.target, e.v)).form
        b = f if l == 0 else form_direct_sum(f, hyperbolic(l, e.target, e.v)).form
        if a.group != b.group:
            continue
        for iso in _iso_candidates(a, b, budget, ticker):
            return StableSearch(k, l, iso)
    return None


# -- brute-force stable classes ------------------------------------------


def brute_si(a: int, b: int) -> SIReport:
    """Stable classes of the rank-2 family by complete divisor scan.

    Lists every pair with the same gcd and the same product, then quotients
    by the four-element orbit (c,d) ~ (d,c) ~ (-c,-d).  The scan is finite
    and complete, so it needs no budget.
    """
    p = gcd_profile(a, b)
    prod = a * b
    found = set()
    if prod == 0:
        if p.g == 0:
            found.add(orbit_canonical(0, 0))
        else:
            for c, d in ((p.g, 0), (0, p.g), (-p.g, 0), (0, -p.g)):
                found.add(orbit_canonical(c, d))
    else:
        for c in range(1, abs(prod) + 1):
            if abs(prod) % c:
                continue
            for cc in (c, -c):
                d = prod // cc
                if math.gcd(cc, d) == p.g:
                    found.add(orbit_canonical(cc, d))
    reps = tuple(sorted(found))
    return SIReport(len(reps), reps)
