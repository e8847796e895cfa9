"""Rank-2 hyperbolic forms over Z: the kappa invariant and stable classes.

The central family is E_{a,b} = (Z², [[0,1],[1,0]], [a,b]).  Two such
forms become isomorphic after adding hyperbolic planes exactly when
their gcds and products agree, and the explicit change of basis fits in
a single 4×4 matrix.  Counting the resulting classes, and transporting
the answer to forms with torsion, is what this module does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from math import gcd, isqrt

from .abelian import AbGroup, GroupHom, SubgroupRep, Z2, free_group, free_section
from .errors import DEFAULT_NODE_LIMIT, DimensionMismatch, HypothesisError, NoSolution, NodeCounter, NotWellDefined
from .forms import EQForm, FormIso, form_direct_sum, hyperbolic, orthogonal_complement, pullback
from .intmat import IntMatrix

Z = free_group(1)
_V_ZERO = GroupHom.zero(Z, Z2)

H2_MATRIX = IntMatrix.from_rows([[0, 1], [1, 0]])


# -- gcd bookkeeping ---------------------------------------------------


@dataclass(frozen=True)
class GcdProfile:
    """gcd/lcm data with the sign conventions used throughout.

    g ≥ 0 generates aZ + bZ; l generates aZ ∩ bZ and carries the sign of
    a·b.  The reduced parts satisfy a = ā·g, b = b̄·g (with ā = b̄ = 1
    when a = b = 0) and a·b̄ = ā·b = l.
    """

    a: int
    b: int
    g: int
    a_bar: int
    b_bar: int
    l: int


def gcd_profile(a: int, b: int) -> GcdProfile:
    g = gcd(a, b)
    if g == 0:
        return GcdProfile(0, 0, 0, 1, 1, 0)
    return GcdProfile(a, b, g, a // g, b // g, a * (b // g))


# -- factoring ---------------------------------------------------------
#
# Class counts need the distinct primes of a product, each one proven.
# Trial division by the primes below 1000 comes first; what it leaves is
# split by Pollard–Brent rho (Pollard 1975, Brent 1980), and each part is
# proven prime by Miller–Rabin on the first thirteen primes, exact below
# 3.317·10²⁴ (Sorenson–Webster 2015), or above that by Pocklington's
# n − 1 test with n − 1 factored by this same code.
#
# The node budget prices work by the size of its modulus: 128 rho steps
# modulo n cost 1 + L²/32 nodes for L the 64-bit limbs of n, which tracks
# the time of a multiplication modulo n within a factor of two from one
# limb to hundreds, and a modular power with an exponent of n's size
# costs one such batch per 256 bits of n.

_TRIAL_LIMIT = 1000
_TRIAL_PRIMES = tuple(p for p in range(2, _TRIAL_LIMIT) if all(p % d for d in range(2, isqrt(p) + 1)))
_MR_BASES = _TRIAL_PRIMES[:13]  # 2, 3, 5, ..., 41
_MR_BOUND = 3317044064679887385961981  # least strong pseudoprime to all of _MR_BASES
_RHO_BATCH = 128  # rho steps per gcd


def factorize(n: int, node_limit: int = DEFAULT_NODE_LIMIT) -> tuple[tuple[int, int], ...]:
    """The prime powers of |n| ≠ 0 as (p, e) pairs in increasing order of p.

    Every p is proven prime.  Rho and the primality tests tick a node
    counter by the size of what they work modulo; passing ``node_limit``
    raises ``NodeLimitExceeded``.
    """
    n = abs(n)
    if n == 0:
        raise HypothesisError("zero has no prime factorization")
    out = []
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e, n = _valuation(n, p)
            out.append((p, e))
    else:
        if n > 1:
            for p in sorted(_proven_primes(n, NodeCounter(node_limit))):
                e, n = _valuation(n, p)
                out.append((p, e))
    if n > 1:
        out.append((n, 1))  # no prime below √n divides it
    return tuple(out)


def _valuation(n: int, p: int) -> tuple[int, int]:
    """(e, n / p^e) for the largest e with p^e dividing n, dividing by p, p², p⁴, ..."""
    e = 0
    squarings = []
    q, k = p, 1
    while True:
        quotient, rest = divmod(n, q)
        if rest:
            break
        n, e = quotient, e + k
        squarings.append((q, k))
        q, k = q * q, k + k
    # what is left of the exponent is below 2^len(squarings): take its bits
    for q, k in reversed(squarings):
        quotient, rest = divmod(n, q)
        if not rest:
            n, e = quotient, e + k
    return e, n


def _batch_cost(n: int) -> int:
    """Nodes for one batch of rho steps modulo n."""
    limbs = (n.bit_length() + 63) >> 6
    return 1 + (limbs * limbs >> 5)


def _pow_cost(n: int) -> int:
    """Nodes for one modular power modulo n with an exponent of n's size."""
    return _batch_cost(n) * max(1, n.bit_length() >> 8)


def _proven_primes(n: int, counter: NodeCounter):
    """The distinct primes of n > 1, which has none below _TRIAL_LIMIT.

    Splits the smallest part first.  A prime is yielded once it is proven
    and its powers are divided out of every part left, so a prime power
    costs one split whatever its exponent.  A part is walked by a short
    rho, about as costly as one Miller–Rabin base, before its primality
    test, so a large part sheds its small primes without that test.
    """
    parts = [n]
    while parts:
        parts.sort(reverse=True)
        m = parts.pop()
        d = None
        if m >= _TRIAL_LIMIT * _TRIAL_LIMIT:
            d = _rho(m, counter, m.bit_length() >> 2)
            if d is None and not _is_prime(m, counter):
                d = _rho(m, counter)
        if d is None:
            yield m
            parts = [r for r in (_valuation(x, m)[1] for x in parts) if r > 1]
        else:
            parts += (d, m // d)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > a passes the Miller–Rabin test to base a."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_prime(n: int, counter: NodeCounter) -> bool:
    """Proven primality of n, which has no prime factor below _TRIAL_LIMIT."""
    cost = _pow_cost(n)
    for a in _MR_BASES:
        counter.tick(cost)
        if not _strong_probable_prime(n, a):
            return False
    return n < _MR_BOUND or _n_minus_1_proof(n, counter)


def _n_minus_1_proof(n: int, counter: NodeCounter) -> bool:
    """Primality of a strong probable prime n by the n − 1 test.

    Pocklington: if F divides n − 1 and each prime q of F has a base a
    with a^(n−1) ≡ 1 (mod n) and gcd(a^((n−1)/q) − 1, n) = 1, then every
    prime of n is 1 modulo F; so n is prime when F² > n.  When only
    F³ ≥ n, Brillhart–Lehmer–Selfridge (1975, Theorem 5) decide it from
    n = c₂F² + c₁F + 1: n is prime iff c₁² − 4c₂ is not a square.
    Bases run 2, 3, 4, ... and each is also a Miller–Rabin witness, so a
    composite fails fast.
    """
    f, open_qs = _factored_part(n, counter)
    if f * f <= n:
        c2, c1 = divmod((n - 1) // f, f)
        t = c1 * c1 - 4 * c2
        if t >= 0 and isqrt(t) ** 2 == t:
            return False
    cost = _pow_cost(n)
    a = 1
    while open_qs:
        counter.tick(cost * (1 + len(open_qs)))
        a += 1
        if not _strong_probable_prime(n, a):
            return False
        left = []
        for q in open_qs:
            g = gcd(pow(a, (n - 1) // q, n) - 1, n)
            if g == n:
                left.append(q)
            elif g != 1:
                return False
        open_qs = left
    return True


def _factored_part(n: int, counter: NodeCounter) -> tuple[int, list[int]]:
    """A divisor F of n − 1 with F³ ≥ n, and its primes, each proven.

    F takes the full power of each prime it holds; splitting stops as soon
    as F is large enough.
    """
    rest = n - 1
    f, primes = 1, []
    for p in _TRIAL_PRIMES:
        if rest % p == 0:
            e, rest = _valuation(rest, p)
            f *= p**e
            primes.append(p)
    if rest > 1 and f * f * f < n:
        for q in _proven_primes(rest, counter):
            e, rest = _valuation(rest, q)
            f *= q**e
            primes.append(q)
            if f * f * f >= n:
                break
    return f, primes


def _rho(n: int, counter: NodeCounter, steps: int | None = None) -> int | None:
    """A proper divisor of the composite n, by Brent's variant of Pollard's rho.

    The walk is v → v² + c mod n from 2, for c = 1, 2, ... until one splits
    n.  Given ``steps``, a walk whose cycle search passes that length gives
    None instead, and n may be prime.
    """
    cost = _batch_cost(n)
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps is not None and r > steps:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                counter.tick(cost)
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r += r
        if g == n:
            # the batch overshot: step again from its start one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


# -- the E_{a,b} family ------------------------------------------------


def e_ab(a: int, b: int) -> EQForm:
    """(Z², [[0,1],[1,0]], [a,b]) over Z, with the zero parity map."""
    g = free_group(2)
    mu = GroupHom.from_gen_images(g, Z, [(a,), (b,)])
    return EQForm(g, H2_MATRIX, mu, _V_ZERO)


# -- kappa -------------------------------------------------------------


def _induced_form(e: EQForm, s: SubgroupRep) -> EQForm:
    """The form restricted to a subgroup (which must hold all torsion)."""
    amb = e.group
    if amb.torsion and not s.contains_torsion():
        raise HypothesisError("subgroup misses torsion", "restriction is not representable")
    gens = s.generators()
    free_gens = [g for g in gens if any(g[: amb.free_rank])]
    tors_gens = [g for g in gens if not any(g[: amb.free_rank])]
    group = AbGroup(len(free_gens), amb.torsion)
    return pullback(GroupHom.from_gen_images(group, amb, free_gens + tors_gens), e)


def kappa(e: EQForm) -> EQForm:
    """The form induced on (Ker μ)^⊥.

    Unchanged when μ is injective, and insensitive to adding or removing
    hyperbolic planes, which makes it a stable-isomorphism invariant.
    """
    return _induced_form(e, orthogonal_complement(e, e.mu.kernel()))


def kappa_ab(a: int, b: int) -> EQForm:
    """Closed form of kappa(e_ab(a, b)) in the canonical basis.

    The perp of the kernel is generated by ±(b̄, ā); the canonical choice
    has positive leading entry, which flips the sign of the linear part
    when b̄ < 0.  The quadratic entry 2āb̄ is sign-blind.
    """
    p = gcd_profile(a, b)
    if p.g == 0:
        return EQForm(free_group(0), IntMatrix.zeros(0, 0), GroupHom.zero(free_group(0), Z), _V_ZERO)
    if p.b_bar != 0:
        sign = 1 if p.b_bar > 0 else -1
    else:
        sign = 1 if p.a_bar > 0 else -1
    mu = GroupHom.from_gen_images(Z, Z, [(sign * 2 * p.l,)])
    return EQForm(Z, IntMatrix.from_rows([[2 * p.a_bar * p.b_bar]]), mu, _V_ZERO)


# -- stable isomorphism criterion and witnesses ------------------------


def si1_decide(a: int, b: int, c: int, d: int) -> bool:
    """Stably isomorphic after adding one plane iff gcds and products match."""
    return gcd(a, b) == gcd(c, d) and a * b == c * d


def _bezout_canonical(p: GcdProfile) -> tuple[int, int]:
    """The canonical (α, β) with α·ā + β·b̄ = 1.

    α is the least non-negative inverse of ā modulo |b̄|; for b̄ = 0 the
    reduced ā is ±1 and we take (ā, 0).
    """
    if p.b_bar == 0:
        return p.a_bar, 0
    m = abs(p.b_bar)
    if m == 1:
        return 0, 1 if p.b_bar == 1 else -1
    alpha = pow(p.a_bar % m, -1, m)
    return alpha, (1 - alpha * p.a_bar) // p.b_bar


def si1_witness(a: int, b: int) -> FormIso:
    """Explicit isomorphism E_{lcm,gcd} ⊕ H_2 → E_{a,b} ⊕ H_2."""
    p = gcd_profile(a, b)
    alpha, beta = _bezout_canonical(p)
    ab, bb = p.a_bar, p.b_bar
    rows = [
        [beta * bb * bb, alpha, beta * bb, -alpha * bb],
        [alpha * ab * ab, beta, -beta * ab, alpha * ab],
        [-alpha * beta * ab * bb, alpha * beta, beta * beta * bb, alpha * alpha * ab],
        [ab * bb, -1, ab, bb],
    ]
    plane = hyperbolic(1, Z, _V_ZERO)
    source = form_direct_sum(e_ab(p.l, p.g), plane).form
    target = form_direct_sum(e_ab(a, b), plane).form
    hom = GroupHom(source.group, target.group, IntMatrix.from_rows(rows, 4))
    return FormIso(source, target, hom)


def orbit(a: int, b: int) -> list[tuple[int, int]]:
    """The images of (a, b) under the four automorphisms of the plane."""
    return [(a, b), (b, a), (-a, -b), (-b, -a)]


def orbit_canonical(a: int, b: int) -> tuple[int, int]:
    """Distinguished orbit member: non-negative entries first, then smallest."""
    return min(set(orbit(a, b)), key=lambda p: (p[0] < 0, p[1] < 0, p[0], p[1]))


# -- enumeration of stable classes -------------------------------------


@dataclass(frozen=True)
class SIReport:
    """Count plus distinguished representatives, one per class."""

    size: int
    representatives: tuple
    trace: tuple = ()


def si_enumerate(a: int, b: int, node_limit: int = DEFAULT_NODE_LIMIT) -> SIReport:
    """All classes stably isomorphic to E_{a,b}, as canonical (c, d) pairs.

    Every candidate has the same gcd and product; modulo the plane's
    automorphisms the classes correspond to divisor splittings of the
    reduced product, giving 2^{r-1} classes for r distinct primes.
    ``node_limit`` bounds the factoring of that product.
    """
    p = gcd_profile(a, b)
    if a * b == 0 or abs(a) == abs(b):
        return SIReport(1, (orbit_canonical(a, b),))
    # g times the product of each set of prime powers, indexed by bit mask.
    # A set gives the pair (c, d) with cd = ab; its complement gives (d, c)
    # up to sign, the same class, so the sets without the last power suffice.
    products = [p.g]
    for q, e in factorize(p.a_bar * p.b_bar, node_limit):
        pk = q**e
        products += [x * pk for x in products]
    full = len(products) - 1
    sign = 1 if p.l > 0 else -1
    reps = {orbit_canonical(products[mask], sign * products[full ^ mask]) for mask in range(len(products) // 2)}
    reps_sorted = tuple(sorted(reps))
    return SIReport(len(reps_sorted), reps_sorted)


def _hyperbolic_basis(matrix: IntMatrix) -> tuple[tuple[int, int], tuple[int, int]]:
    """A basis (x, y) of Z² with x·y = 1 and both isotropic, canonically.

    Requires an even 2×2 symmetric matrix of determinant −1; those are
    exactly the matrices equivalent to [[0,1],[1,0]].
    """
    p, q, s = matrix[0, 0], matrix[0, 1], matrix[1, 1]
    if p % 2 != 0 or s % 2 != 0:
        raise HypothesisError("not even", "no hyperbolic basis exists")
    if p * s - q * q != -1:
        raise HypothesisError("wrong determinant", "bilinear function is not the plane")
    if p == 0:
        x = (1, 0)
    else:
        g = gcd(1 - q, p)
        x = ((1 - q) // g, p // g)
        if x[0] < 0 or (x[0] == 0 and x[1] < 0):
            x = (-x[0], -x[1])
    # solve λ(x, y0) = 1, then correct y0 to an isotropic vector
    rx = (x[0] * p + x[1] * q, x[0] * q + x[1] * s)
    g = gcd(rx[0], rx[1])
    if abs(g) != 1:
        raise NotWellDefined("isotropic vector is not unimodular")
    if rx[1] == 0:
        y0 = (1 if rx[0] > 0 else -1, 0)
    else:
        a0 = pow(rx[0] % abs(rx[1]), -1, abs(rx[1])) if abs(rx[1]) > 1 else 0
        y0 = (a0, (1 - a0 * rx[0]) // rx[1])
    self_pair = y0[0] * y0[0] * p + 2 * y0[0] * y0[1] * q + y0[1] * y0[1] * s
    c = self_pair // 2
    y = (y0[0] - c * x[0], y0[1] - c * x[1])
    return x, y


def si_hyp(e: EQForm) -> SIReport:
    """Stable classes of a rank-2 form with hyperbolic reduced pairing.

    The coefficient group must be free and μ surjective.  Torsion is
    split off first; the count is then 1 unless the coefficients have
    rank one, where it is read off the values (a, b) of μ on a
    hyperbolic basis.  Representatives are returned with the torsion
    factor reattached.
    """
    if not e.target.is_free:
        raise HypothesisError("coefficients are not free", "stable class count")
    if not e.is_full():
        raise HypothesisError("mu is not surjective", "stable class count")
    if e.rank != 2:
        raise HypothesisError("rank is not 2", "stable class count")
    trace = []
    if e.group.torsion:
        trace.append("stripped torsion %s" % (e.group.torsion,))
    bar = pullback(free_section(e.group), e)
    x, y = _hyperbolic_basis(bar.matrix)
    rkq = e.target.free_rank
    if rkq == 0:
        trace.append("coefficient rank 0")
        return SIReport(1, (e,), tuple(trace))
    if rkq == 2:
        trace.append("reduced mu is injective")
        return SIReport(1, (e,), tuple(trace))
    if rkq != 1:
        raise NotWellDefined("surjectivity bounds the coefficient rank by 2")
    a = bar.mu.apply(x)[0]
    b = bar.mu.apply(y)[0]
    trace.append("hyperbolic basis values (%d, %d)" % (a, b))
    pairs = si_enumerate(a, b)
    # (T, 0, 0): the torsion of e with the zero pairing and μ = 0
    torsion = pullback(GroupHom.zero(AbGroup(0, e.group.torsion), e.group), e)
    reps = tuple(form_direct_sum(replace(e_ab(c, d), v=e.v), torsion).form for c, d in pairs.representatives)
    return SIReport(pairs.size, reps, tuple(trace))


def aut_action_check(e: EQForm, n: EQForm, h: GroupHom) -> FormIso:
    """Isomorphism (N, λ, h∘μ) → N for a coefficient automorphism h.

    The twisted form is isomorphic to the original whenever both
    represent stable classes of e; the isomorphism is explicit in every
    coefficient rank and validated on construction.
    """
    if h.source != e.target or h.target != e.target:
        raise DimensionMismatch("h is not an endomorphism of the coefficient group")
    if n.target != e.target:
        raise DimensionMismatch("representative lives over different coefficients")
    twisted = EQForm(n.group, n.matrix, h.compose(n.mu), n.v)
    if h == GroupHom.identity(e.target):
        return FormIso(twisted, n, GroupHom.identity(n.group))
    rkq = e.target.free_rank
    r = n.group.free_rank
    t = len(n.group.torsion)
    if rkq == 1:
        # the only other automorphism negates; so does the free part
        flip = IntMatrix.block_diagonal([IntMatrix.identity(r).neg(), IntMatrix.identity(t)])
        return FormIso(twisted, n, GroupHom(n.group, n.group, flip))
    if rkq == 2:
        if r != 2:
            raise HypothesisError("free rank is not 2", "the carrier must reduce to a rank-2 lattice")
        mu_bar = IntMatrix.from_rows([row[:r] for row in n.mu.matrix.entries], r)
        try:
            mu_bar_inv = mu_bar.inverse_unimodular()
        except NoSolution:
            raise HypothesisError("mu is not surjective", "the reduced coefficient map must be invertible") from None
        # an isomorphism must induce exactly this map on the free quotient,
        # so if it breaks the pairing the twisted form is not in the class
        conj = mu_bar_inv.mul(h.matrix).mul(mu_bar)
        hom_mat = IntMatrix.block_diagonal([conj, IntMatrix.identity(t)])
        try:
            return FormIso(twisted, n, GroupHom(n.group, n.group, hom_mat))
        except NotWellDefined:
            raise HypothesisError(
                "twist leaves the stable class",
                "the induced map on the free quotient does not preserve the pairing",
            ) from None
    raise HypothesisError("unsupported coefficient rank", "no nontrivial automorphisms")


# -- the counting theorem ----------------------------------------------


@dataclass(frozen=True)
class StableClassCounts:
    smoothings: int
    classes: int


def stable_class_report(
    rkq: int, a: int = 0, b: int = 0, node_limit: int = DEFAULT_NODE_LIMIT
) -> StableClassCounts:
    """Sizes of the stable smoothing set and the stable class.

    Pure arithmetic: 1 for coefficient rank 0 or 2; for rank 1 the pair
    (a, b) must be coprime and the answer is 1 when |ab| ≤ 1 and
    2^{r−1} otherwise, r the number of primes dividing ab, found within
    ``node_limit``.
    """
    if rkq not in (0, 1, 2):
        raise HypothesisError("coefficient rank out of range", "counting theorem")
    if rkq in (0, 2):
        return StableClassCounts(1, 1)
    if gcd(a, b) != 1:
        raise HypothesisError("pair is not coprime", "mu would not be surjective")
    if abs(a * b) <= 1:
        return StableClassCounts(1, 1)
    n = 2 ** (len(factorize(a * b, node_limit)) - 1)
    return StableClassCounts(n, n)
