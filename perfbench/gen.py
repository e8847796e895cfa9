"""Seeded input documents for every request kind the benchmark sends.

Each generator takes a ``random.Random`` and returns a ``Request``: the
command line, the input document (written to disk during set-up) and the
facts the answer check needs.  Nothing here imports qform; the library
receives only the documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log10

from imath import block_diag, identity, int_to_decimal, mat_mul, mat_vec, random_unimodular, transpose


@dataclass
class Request:
    kind: str  # metric kind: "jacobi", "validate", "stable-iso", ...
    argv: list  # command line without --input
    doc: dict | None = None  # input document, or None for argument-only commands
    expect: dict = field(default_factory=dict)  # what the answer check needs
    source: int | None = None  # validate/replay: index of the request whose output is re-checked
    side: bool = False  # a side request: feeds only the per-kind median of its kind


# -- document shapes ---------------------------------------------------

Q_ZERO = (0, ())
Q_Z = (1, ())
Q_Z2 = (2, ())
Q_Z_Z2 = (1, (2,))


def form_doc(lam, mu_rows, q=Q_ZERO, v=None):
    doc = {
        "group": {"free_rank": len(lam), "torsion": []},
        "lambda": [list(r) for r in lam],
        "target": {"free_rank": q[0], "torsion": list(q[1])},
        "mu": [list(r) for r in mu_rows],
    }
    if v is not None:
        doc["v"] = list(v)
    return doc


def sub_doc(gens):
    return {"generators": [list(g) for g in gens]}


def _unit(n, i):
    return [int(j == i) for j in range(n)]


def _q_gens(q):
    return q[0] + len(q[1])


def _reduce_mu(mu_rows, q):
    """Store coordinates in torsion rows reduced, as the library does."""
    return [row if t < q[0] else [x % q[1][t - q[0]] for x in row] for t, row in enumerate(mu_rows)]


def scramble(lam, mu_rows, subgroups, rng, ops):
    """The same form in a random basis: λ' = U⁻ᵀλU⁻¹, μ' = μU⁻¹, S' = U·S.

    Returns (λ', μ', subgroups', U, U⁻¹).
    """
    n = len(lam)
    u, ui = random_unimodular(rng, n, ops)
    lam2 = mat_mul(mat_mul(transpose(ui), lam), ui)
    mu2 = mat_mul(mu_rows, ui) if mu_rows else []
    subs2 = [[mat_vec(u, g) for g in gens] for gens in subgroups]
    return lam2, mu2, subs2, u, ui


H2 = [[0, 1], [1, 0]]


def hyperbolic_lambda(k):
    """[[0, I], [I, 0]] of rank 2k."""
    return [[int(j == (i + k) % (2 * k)) for j in range(2 * k)] for i in range(2 * k)]


# -- jacobi triples ----------------------------------------------------

GD_LAMBDA = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
GD_MU = [[0, 1, 0, 0]]
GD_TRIPLES = {
    "A": ([(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)], [(0, 1, 0, 0), (0, 0, 1, 0)]),
    "B": ([(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 1, 0)], [(0, 1, 0, 0), (0, 0, 0, 1)]),
}


def jacobi_request(lam, mu_rows, q, v, triple, rng=None, ops=5, side=False):
    """A jacobi request, in the plain basis when ``rng`` is None."""
    subs = [list(map(list, s)) for s in triple]
    if rng is not None:
        lam, mu_rows, subs, _, _ = scramble(lam, mu_rows, subs, rng, ops)
    doc = {
        "form": form_doc(lam, mu_rows, q, v),
        "K": sub_doc(subs[0]),
        "L": sub_doc(subs[1]),
        "V": sub_doc(subs[2]),
    }
    return Request("jacobi", ["jacobi"], doc, side=side)


def geometric_double_request(name, rng=None):
    return jacobi_request(GD_LAMBDA, GD_MU, Q_Z, [0], GD_TRIPLES[name], rng)


# -- stable-iso pairs --------------------------------------------------

STABLE_ISO_COEFFS = [Q_ZERO, Q_Z, Q_Z2, Q_Z_Z2]


def full_metabolic(rng, q, m=None):
    """A scrambled even metabolic form of rank 2m, full over q, v = 0.

    m is drawn from 1..3 unless given.  Returns (λ, μ, lagrangian generators).
    """
    need = _q_gens(q)
    if m is None:
        m = rng.choice([k for k in (1, 2, 3) if k >= need])
    n = 2 * m
    lam = [[0] * n for _ in range(n)]
    for i in range(m):
        lam[i][m + i] = lam[m + i][i] = 1
    for i in range(m):
        for j in range(i, m):
            val = 2 * rng.randrange(-2, 3)
            lam[m + i][m + j] += val
            if i != j:
                lam[m + j][m + i] += val
    mu = [[0] * n for _ in range(need)]
    for t in range(need):
        mu[t][m + t] = 1
    for col in range(m + need, n):
        for t in range(need):
            mu[t][col] = rng.randrange(-3, 4)
    mu = _reduce_mu(mu, q)
    lam2, mu2, (lagr,), _, _ = scramble(lam, mu, [[_unit(n, i) for i in range(m)]], rng, 5)
    return lam2, _reduce_mu(mu2, q), lagr


def stable_iso_request(rng, q=None, m=None, side=False):
    """stable-iso on two forms over q (drawn unless given) of rank 2m (drawn per form unless given)."""
    if q is None:
        q = rng.choice(STABLE_ISO_COEFFS)
    v = [0] * _q_gens(q)
    halves = []
    for _ in range(2):
        lam, mu, lagr = full_metabolic(rng, q, m)
        halves.append({"form": form_doc(lam, mu, q, v), "lagrangian": sub_doc(lagr)})
    doc = {"source": halves[0], "target": halves[1]}
    return Request("stable-iso", ["stable-iso"], doc, side=side)


# -- ru-wall automorphisms ---------------------------------------------

H2_AUTOMORPHISMS = ([[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1], [-1, 0]])
H4_LAMBDA = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]


def _iso_doc(fdoc, matrix):
    return {"source": fdoc, "target": fdoc, "matrix": [list(r) for r in matrix]}


def ru_wall_request(rng, rank4, side=False):
    """ru-wall on an automorphism of H₂, or of a scrambled rank-4 hyperbolic form."""
    if not rank4:
        fdoc = form_doc(H2, [], Q_ZERO, [])
        phi = rng.choice(H2_AUTOMORPHISMS)
        doc = {"form": fdoc, "lagrangian": sub_doc([(0, 1)]), "iso": _iso_doc(fdoc, phi)}
        return Request("ru-wall", ["ru-wall"], doc, expect={"phi": phi}, side=side)
    a, a_inv = random_unimodular(rng, 2, 4)
    a_inv_t = transpose(a_inv)
    c = rng.randrange(-2, 3)
    shear = [[1, 0, 0, c], [0, 1, -c, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    phi0 = mat_mul(block_diag(a, a_inv_t), shear)
    lam, _, (lagr,), u, ui = scramble(H4_LAMBDA, [], [[_unit(4, 0), _unit(4, 1)]], rng, 5)
    phi = mat_mul(mat_mul(u, phi0), ui)
    fdoc = form_doc(lam, [], Q_ZERO, [])
    doc = {"form": fdoc, "lagrangian": sub_doc(lagr), "iso": _iso_doc(fdoc, phi)}
    return Request("ru-wall", ["ru-wall"], doc, expect={"phi": phi}, side=side)


# -- ltriv on invertible classes ---------------------------------------


def _zero_formation(q):
    k = _q_gens(q)
    lam = hyperbolic_lambda(k)
    mu = [[0] * k + _unit(k, t) for t in range(k)]
    lagr = [_unit(2 * k, i) for i in range(k)]
    return lam, mu, lagr, lagr


def _formation_sum(a, b):
    (la, ma, pa, va), (lb, mb, pb, vb) = a, b
    na, nb = len(la), len(lb)
    mu = [ra + rb for ra, rb in zip(ma, mb)]
    pad = lambda gens, before, after: [[0] * before + list(g) + [0] * after for g in gens]
    return (
        block_diag(la, lb),
        mu,
        pad(pa, 0, nb) + pad(pb, na, 0),
        pad(va, 0, nb) + pad(vb, na, 0),
    )


def ltriv_request(rng, pick=None, q=None, side=False):
    """ltriv on a scrambled invertible class.

    ``pick`` 0..3 chooses the base class and ``q`` the coefficients of the
    zero formations in it; both are drawn unless given.
    """
    if pick is None:
        pick = rng.randrange(4)
    if pick == 0:
        q = q or rng.choice([Q_Z, Q_Z2])
        base = _zero_formation(q)
    elif pick == 1:
        q = rng.choice([Q_Z, Q_Z2])
        base = _formation_sum(_zero_formation(q), _zero_formation(q))
    elif pick == 2:
        q = Q_ZERO
        base = (H2, [], [(0, 1)], [(1, 0)])
    else:
        q = Q_Z
        base = (GD_LAMBDA, GD_MU, [(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (0, 0, 0, 1)])
    lam, mu, lagr, summ = base
    lam, mu, (lagr, summ), _, _ = scramble(lam, mu, [lagr, summ], rng, 6)
    doc = {"form": form_doc(lam, mu, q, [0] * _q_gens(q)), "L": sub_doc(lagr), "V": sub_doc(summ)}
    return Request("ltriv", ["ltriv"], doc, side=side)


# -- classify / perp / metabolic-basis ---------------------------------


def metabolic_request(rng, kind, k, side=False):
    """``kind`` on a scrambled metabolic form of rank 2k and its lagrangian."""
    n = 2 * k
    lam = [[0] * n for _ in range(n)]
    for i in range(k):
        lam[i][k + i] = lam[k + i][i] = 1
    for i in range(k):
        for j in range(i, k):
            val = rng.randrange(-2, 3)
            lam[k + i][k + j] += val
            if i != j:
                lam[k + j][k + i] += val
    mu = [[0] * k + [rng.randrange(-3, 4) for _ in range(k)]]
    lam, mu, (lagr,), _, _ = scramble(lam, mu, [[_unit(n, i) for i in range(k)]], rng, n)
    fdoc = form_doc(lam, mu, Q_Z)
    key = "lagrangian" if kind == "metabolic-basis" else "subgroup"
    doc = {"form": fdoc, key: sub_doc(lagr)}
    return Request(kind, [kind], doc, expect={"lambda": lam, "lagrangian": lagr}, side=side)


# -- integer pairs for si / stable-class / kappa / oracle-si -----------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3.3·10²⁴."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


SMALL_PRIMES = [p for p in range(2, 100) if is_prime(p)]


def _split(rng, factors):
    """Distribute prime powers over a coprime pair (a, b) with random signs."""
    a = b = 1
    for f in factors:
        if rng.random() < 0.5:
            a *= f
        else:
            b *= f
    return rng.choice((1, -1)) * a, rng.choice((1, -1)) * b


def ladder_pair(rng, rung):
    """A coprime pair whose second-largest prime is about 10**rung.

    Returns (a, b, r) with r the number of distinct primes dividing ab.
    Trial division up to the second-largest prime then dominates the cost
    of factoring ab, because the largest prime stays below its square.
    """
    p = next_prime(10 ** rung + rng.randrange(10 ** rung // 10))
    if rung == 2:
        # two primes and |ab| < 10^5, so the divisor scan of oracle-si applies
        r = 2
        top = next_prime(p + 1 + rng.randrange(700))
    else:
        r = rng.randint(2, 6)
        top = next_prime(10 * p + rng.randrange(10 * p))
    small = rng.sample([q for q in SMALL_PRIMES if q < p], r - 2)
    a, b = _split(rng, small + [p, top])
    return a, b, r


def smooth_pair(rng, digits, r=4):
    """A coprime pair of r prime powers over primes below 100, with
    |ab| of about ``digits`` decimal digits."""
    primes = rng.sample(SMALL_PRIMES, r)
    weights = [rng.random() + 0.5 for _ in primes]
    total = sum(weights)
    powers = []
    for p, w in zip(primes, weights):
        e = max(1, round(digits * w / total / log10(p)))
        powers.append(p ** e)
    a, b = _split(rng, powers)
    return a, b, r


def pair_requests(a, b, r, kinds, side=False):
    """Argument-only requests on the pair (a, b); expected class count 2^(r-1)."""
    sa, sb = int_to_decimal(a), int_to_decimal(b)
    expect = {"a": a, "b": b, "size": 2 ** (r - 1)}
    argv = {
        "si": ["si", "--a=" + sa, "--b=" + sb],
        "stable-class": ["stable-class", "--rkq=1", "--a=" + sa, "--b=" + sb],
        "kappa": ["kappa", "--a=" + sa, "--b=" + sb],
        "oracle-si": ["oracle-si", "--a=" + sa, "--b=" + sb],
    }
    return [Request(k, argv[k], None, expect=dict(expect), side=side) for k in kinds]


# -- coverage requests: tiny documents that reach the remaining entry points


def moves_request():
    """validate on a move sequence with one move of each kind, on H₂."""
    h2 = form_doc(H2, [], Q_ZERO, [])
    h4 = form_doc(block_diag(H2, H2), [], Q_ZERO, [])
    start = {"form": h2, "L": sub_doc([(0, 1)]), "V": sub_doc([(1, 0)])}
    moves = [
        {"move": "stab", "pairs": 1},
        {"move": "destab", "pairs": 1, "rest": start, "witness": _iso_doc(h4, identity(4))},
        {"move": "flip", "witness": _iso_doc(h2, identity(2))},  # L = <(0,1)> becomes <(1,0)>
        {"move": "iso", "iso": _iso_doc(h2, H2)},  # swaps the coordinates of L and V
    ]
    end = {"form": h2, "L": sub_doc([(0, 1)]), "V": sub_doc([(0, 1)])}
    doc = {"start": start, "end": end, "moves": moves}
    return Request("moves", ["validate"], doc, expect={"kind": "sequence"}, side=True)


def word_request():
    """validate on an RU word of one Keep and one Flip letter over H₂."""
    h2 = form_doc(H2, [], Q_ZERO, [])
    letters = [
        {"letter": "keep", "iso": _iso_doc(h2, [[-1, 0], [0, -1]])},
        {"letter": "flip", "witness": _iso_doc(h2, identity(2)), "rest_lagrangian": sub_doc([])},
    ]
    doc = {"form": h2, "lagrangian": sub_doc([(0, 1)]), "letters": letters}
    return Request("word", ["validate"], doc, expect={"kind": "word"}, side=True)


def bar_request():
    """bar on H₂ with the lagrangian and summand swapped."""
    doc = {"form": form_doc(H2, [], Q_ZERO, []), "L": sub_doc([(0, 1)]), "V": sub_doc([(1, 0)])}
    return Request("bar", ["bar"], doc, side=True)


def torsion_classify_request():
    """classify on H₂ ⊕ Z/2 of the subgroup <(0,1,0), (0,0,1)>, which holds the torsion."""
    form = form_doc([[0, 1, 0], [1, 0, 0], [0, 0, 0]], [], Q_ZERO, [])
    form["group"]["free_rank"], form["group"]["torsion"] = 2, [2]
    doc = {"form": form, "subgroup": sub_doc([(0, 1, 0), (0, 0, 1)])}
    flags = {"isotropic": True, "mu_vanishes": True, "half_rank_summand": True,
             "free_lagrangian": False, "t_lagrangian": True}
    return Request("torsion-classify", ["classify"], doc, expect={"flags": flags}, side=True)
