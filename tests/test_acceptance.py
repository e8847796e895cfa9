"""End-to-end acceptance checks for the whole toolkit.

Every count is reproduced exactly (no tolerances anywhere), and every
witness object is re-verified through an independent route: validating
constructors, explicit matrix identities, sequence replay, or the
brute-force oracles.  Randomized suites run on fixed seeds.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from functools import reduce
from pathlib import Path

from qform import cli, intmat
from qform.abelian import AbGroup, GroupHom, SubgroupRep, Z2, ZERO_GROUP, free_group
from qform.construct import (
    is_hyperbolic_with_witness,
    ru_wall_witness,
    ru_word_eval,
    stable_lagrangian_iso,
)
from qform.forms import (
    EQForm,
    FormIso,
    form_direct_sum,
    hyperbolic,
    hyperbolic_halves,
    pullback,
    subgroup_classify,
    _swap_blocks,
)
from qform.intmat import IntMatrix
from qform.lmonoid import (
    ApplyIso,
    QuasiFormation,
    Stab,
    apply_move,
    bar_reduce,
    bar_round_trip,
    is_elementary,
    jacobi_witness,
    l_group_trivialize,
    qf_direct_sum,
    replay,
    standard_elementary,
    unbar,
    zero_formation,
)
from qform.oracle import brute_si, enumerate_automorphisms, enumerate_lagrangians
from qform.serialize import (
    canonical_dumps,
    form_to_doc,
    loads_document,
    sequence_to_doc,
    subgroup_to_doc,
    word_to_doc,
)
from qform.stableclass import (
    StableClassCounts,
    e_ab,
    kappa,
    kappa_ab,
    si1_witness,
    si_enumerate,
    stable_class_report,
)

Z = free_group(1)
VZ = GroupHom.zero(Z, Z2)
V0 = GroupHom.zero(ZERO_GROUP, Z2)


# -- shared helpers ----------------------------------------------------


def distinct_primes(n):
    n = abs(n)
    count = 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        count += 1
    return count


def expected_si_size(a, b):
    """1 for degenerate or prime-power reduced products, else 2^(r-1)."""
    g = math.gcd(a, b)
    if g == 0:
        return 1
    m = abs(a * b) // (g * g)
    if m <= 1:
        return 1
    return 2 ** (distinct_primes(m) - 1)


def random_unimodular(rng, n, ops=5):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops if n else 0):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                rows[j][k] += c * rows[i][k]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix.from_rows(rows, n)


def scramble_iso(e, u):
    """An isomorphism from e onto the same form written in a new basis."""
    g = e.group
    uinv = GroupHom(g, g, u.inverse_unimodular())
    return FormIso(e, pullback(uinv, e), GroupHom(g, g, u))


# -- 1: class counts agree with the closed formula and the divisor scan


def test_si_counts_match_formula_and_scan():
    t0 = time.monotonic()
    checked = 0
    for a in range(-60, 61):
        for b in range(-60, 61):
            if abs(a * b) > 60:
                continue
            fast = si_enumerate(a, b)
            assert fast.size == expected_si_size(a, b), (a, b)
            assert fast == brute_si(a, b), (a, b)
            checked += 1
    assert checked > 1000
    for pair, size in (((1, 6), 2), ((2, 3), 2), ((1, 30), 4), ((0, 5), 1), ((2, 2), 1)):
        assert si_enumerate(*pair).size == size
    assert time.monotonic() - t0 < 10.0


# -- 2: smoothing counts by coefficient rank on a 50-point grid


def test_stable_class_counts_on_grid():
    points = [(0, 0, 0), (2, 0, 0)]
    a = 1
    while len(points) < 50:
        for b in range(-8, 9):
            if math.gcd(a, abs(b)) == 1:
                points.append((1, a, b))
                if len(points) == 50:
                    break
        a += 1
    for rkq, x, y in points:
        expected = 1 if rkq in (0, 2) else expected_si_size(x, y)
        assert stable_class_report(rkq, x, y) == StableClassCounts(expected, expected), (rkq, x, y)


def is_prime_by_trial(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def next_prime_by_trial(n):
    while not is_prime_by_trial(n):
        n += 1
    return n


def rung_8_pair(seed):
    """A coprime pair whose second-largest prime is about 10^8, and its prime count."""
    rng = random.Random(seed)
    p = next_prime_by_trial(10**8 + rng.randrange(10**7))
    top = next_prime_by_trial(10 * p + rng.randrange(10 * p))
    small = rng.sample([2, 3, 5, 7, 11, 13, 17, 19], rng.randint(0, 4))
    a = rng.choice((1, -1)) * math.prod(small) * p
    return a, rng.choice((1, -1)) * top, len(small) + 2


def test_si_and_stable_class_factor_past_trial_division_in_time(capsys):
    pairs = [(1, 10000019 * 10000079, 2), rung_8_pair(8)]
    for a, b, r in pairs:
        for argv, key in ((["si"], "size"), (["stable-class", "--rkq", "1"], "classes")):
            t0 = time.monotonic()
            code = cli.run(argv + ["--a", str(a), "--b", str(b)])
            elapsed = time.monotonic() - t0
            doc = json.loads(capsys.readouterr().out)
            assert code == 0 and doc[key] == 2 ** (r - 1), (a, b)
            # trial division took 1.4 s on the first pair on a 2-core x86-64
            # machine with CPython 3.11, and about ten times that on the second
            assert elapsed < 0.5, (argv, a, b)


def smooth_pair(seed, digits=4000):
    """A coprime pair of four prime powers over primes below 50, with |ab| of about ``digits`` decimal digits."""
    rng = random.Random(seed)
    primes = rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47], 4)
    weights = [rng.random() + 0.5 for _ in primes]
    p = [q ** max(1, round(digits * w / sum(weights) / math.log10(q))) for q, w in zip(primes, weights)]
    return rng.choice((1, -1)) * p[0] * p[1], rng.choice((1, -1)) * p[2] * p[3]


def test_kappa_of_a_smooth_pair_takes_no_modular_inverse(monkeypatch):
    """Ker μ and its perp keep only the Hermite rows past their head column, whose Bézout row is never built."""
    a, b = smooth_pair(1)
    assert len(str(abs(a * b))) == 4000 and math.gcd(a, b) == 1
    inverses = []
    monkeypatch.setattr(intmat, "pow", lambda *args: inverses.append(args) or pow(*args), raising=False)
    assert kappa(e_ab(a, b)) == kappa_ab(a, b)
    assert inverses == []


def test_kappa_of_a_four_thousand_digit_smooth_pair_runs_in_time(capsys):
    a, b = smooth_pair(1)
    argv = ["kappa", "--a", str(a), "--b", str(b)]
    assert cli.run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agree"] is True and doc["kappa"] == doc["direct"]
    elapsed = best_of_three(lambda: cli.run(argv))
    # measured at 1.2-1.7 ms (best of 3) on a 2-core x86-64 machine with CPython 3.11, and at
    # 7.3-14 ms when the kernel and its perp each took a Bézout inverse of the 6,700-bit leads
    assert elapsed < 0.004


# -- 3: the explicit plane-stabilized isomorphism on a 625-pair grid


def test_plane_stabilized_witness_grid():
    t0 = time.monotonic()
    plane = hyperbolic(1, Z, GroupHom.zero(Z, Z2))
    for a in range(-12, 13):
        for b in range(-12, 13):
            w = si1_witness(a, b)
            g = math.gcd(a, b)
            l = (a * b) // g if g else 0
            assert w.source == form_direct_sum(e_ab(l, g), plane).form, (a, b)
            assert w.target == form_direct_sum(e_ab(a, b), plane).form, (a, b)
            h = w.hom.matrix
            # the two identities a witness must satisfy, checked directly
            assert h.transpose().mul(w.target.matrix).mul(h) == w.source.matrix, (a, b)
            assert w.target.mu.compose(w.hom) == w.source.mu, (a, b)
    assert time.monotonic() - t0 < 5.0


# -- 4: closed form of the kernel-perp invariant


def test_kernel_perp_closed_form_agrees():
    for a in range(-20, 21):
        for b in range(-20, 21):
            assert kappa_ab(a, b) == kappa(e_ab(a, b)), (a, b)


# -- 5: stable matching of randomized metabolic pairs


COEFF_CHOICES = [ZERO_GROUP, free_group(1), free_group(2), AbGroup(1, (2,))]


def random_full_metabolic(rng):
    """A scrambled even metabolic form, full over its coefficients, v = 0."""
    q = rng.choice(COEFF_CHOICES)
    need = q.free_rank + len(q.torsion)
    m = rng.choice([k for k in (1, 2, 3) if k >= need])
    n = 2 * m
    rows = [[0] * n for _ in range(n)]
    for i in range(m):
        rows[i][m + i] = rows[m + i][i] = 1
    for i in range(m):
        for j in range(i, m):
            val = 2 * rng.randrange(-2, 3)
            rows[m + i][m + j] += val
            if i != j:
                rows[m + j][m + i] += val
    g = free_group(n)
    mu_rows = [[0] * n for _ in range(q.num_gens)]
    for t in range(q.num_gens):
        mu_rows[t][m + t] = 1
    for col in range(m + q.num_gens, n):
        for t in range(q.num_gens):
            mu_rows[t][col] = rng.randrange(-3, 4)
    e0 = EQForm(
        g,
        IntMatrix.from_rows(rows, n),
        GroupHom(g, q, IntMatrix.from_rows(mu_rows, n)),
        GroupHom.zero(q, Z2),
    )
    assert e0.is_full() and e0.is_geometric()
    l0 = SubgroupRep.from_elements(g, [g.gen(i) for i in range(m)])
    iso = scramble_iso(e0, random_unimodular(rng, n))
    return q, iso.target, l0.transport(iso.hom)


def test_stable_matching_of_random_metabolic_pairs():
    t0 = time.monotonic()
    rng = random.Random(7)
    for trial in range(200):
        coeff, e1, l1 = random_full_metabolic(rng)
        while True:
            coeff2, e2, l2 = random_full_metabolic(rng)
            if coeff2 == coeff:
                break
        w = stable_lagrangian_iso(e1, l1, e2, l2)
        amb = w.iso.source.group
        n1 = e1.rank
        stabilized = SubgroupRep.from_elements(
            amb,
            [list(v) + [0] * (2 * w.k) for v in l1.generators()]
            + [amb.gen(n1 + w.k + i) for i in range(w.k)],
        )
        assert w.source_lagrangian == stabilized, trial
        assert w.source_lagrangian.transport(w.iso.hom) == w.target_lagrangian, trial
    assert time.monotonic() - t0 < 60.0


# -- 6: flip words hit exactly the doubled automorphism


def rank4_metabolic_with_automorphism(rng):
    g = free_group(4)
    h4 = EQForm(
        g,
        IntMatrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]),
        GroupHom.zero(g, ZERO_GROUP),
        V0,
    )
    a = random_unimodular(rng, 2, ops=4)
    phi_m = IntMatrix.block_diagonal([a, a.transpose().inverse_unimodular()])
    c = rng.randrange(-2, 3)
    shear = IntMatrix.from_rows([[1, 0, 0, c], [0, 1, -c, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    phi_m = phi_m.mul(shear)
    l0 = SubgroupRep.from_elements(g, [[1, 0, 0, 0], [0, 1, 0, 0]])
    u = random_unimodular(rng, 4)
    s = scramble_iso(h4, u)
    e = s.target
    hom = GroupHom(g, g, u.mul(phi_m).mul(u.inverse_unimodular()))
    return e, l0.transport(s.hom), FormIso(e, e, hom)


def encodes_like_its_unshared_copy(doc):
    """Whether ``doc`` encodes as its copy in which no container appears twice.

    Sequence and word documents, the parts of jacobi, ltriv and ru-wall results
    that hold one dict per form object in several places, are checked with it.
    """
    return canonical_dumps(doc) == canonical_dumps(json.loads(json.dumps(doc)))


def check_wall_word(e, l, phi):
    w = ru_wall_witness(e, l, phi)
    assert ru_word_eval(w.word) == w.expected
    assert encodes_like_its_unshared_copy(word_to_doc(w.word))
    expected_matrix = IntMatrix.block_diagonal(
        [phi.hom.matrix, phi.inverse().hom.matrix, IntMatrix.identity(e.rank)]
    )
    assert w.expected.hom.matrix == expected_matrix
    assert w.expected.source == w.ambient == w.expected.target


def test_flip_words_realize_doubled_automorphisms():
    h2 = hyperbolic(1, ZERO_GROUP, V0)
    l = SubgroupRep.from_elements(h2.group, [[0, 1]])
    for rows in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, -1)), ((0, -1), (-1, 0))):
        phi = FormIso(h2, h2, GroupHom(h2.group, h2.group, IntMatrix.from_rows([list(r) for r in rows])))
        check_wall_word(h2, l, phi)
    rng = random.Random(5)
    for _ in range(50):
        check_wall_word(*rank4_metabolic_with_automorphism(rng))


def test_rank_sixty_four_wall_word_is_built_in_time():
    def with_halves_swapped(m):
        h = hyperbolic(m, ZERO_GROUP, V0)
        return h, hyperbolic_halves(m)[1], _swap_blocks(h, m)

    # the word is checked at rank 8 only: ru_word_eval alone takes about 0.4 s at rank 64
    check_wall_word(*with_halves_swapped(4))
    e, lower, phi = with_halves_swapped(32)
    times = []
    for _ in range(3):
        t0 = time.monotonic()
        w = ru_wall_witness(e, lower, phi)
        times.append(time.monotonic() - t0)
    assert len(w.word.letters) == 4 * 32 + 4
    # measured at 0.18-0.23 s with a sum per Flip letter and 0.03-0.05 s with
    # the letters built on one outer sum, on a 2-core x86-64 machine with CPython 3.11
    assert min(times) < 0.12


# -- 7: invertible classes split into a zero part and a hyperbolic part


def test_invertible_classes_trivialize():
    def h2_swapped():
        e = hyperbolic(1, ZERO_GROUP, V0)
        return QuasiFormation(
            e,
            SubgroupRep.from_elements(e.group, [[0, 1]]),
            SubgroupRep.from_elements(e.group, [[1, 0]]),
        )

    def worked_double():
        g = free_group(4)
        rows = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        mu = GroupHom.from_gen_images(g, Z, [(0,), (1,), (0,), (0,)])
        e = EQForm(g, IntMatrix.from_rows(rows), mu, VZ)
        return QuasiFormation(
            e,
            SubgroupRep.from_elements(g, [(1, 0, 0, 0), (0, 0, 1, 0)]),
            SubgroupRep.from_elements(g, [(1, 0, 0, 0), (0, 0, 0, 1)]),
        )

    rng = random.Random(19)
    nontrivial = 0
    for trial in range(50):
        pick = trial % 4
        if pick == 0:
            qg = rng.choice([ZERO_GROUP, Z, free_group(2)])
            base = zero_formation(qg, GroupHom.zero(qg, Z2))
        elif pick == 1:
            qg = rng.choice([Z, free_group(2)])
            v = GroupHom.zero(qg, Z2)
            base = qf_direct_sum(zero_formation(qg, v), zero_formation(qg, v))
        elif pick == 2:
            base = h2_swapped()
        else:
            base = worked_double()
        u = random_unimodular(rng, base.form.group.num_gens, ops=6)
        q = apply_move(base, ApplyIso(scramble_iso(base.form, u)))
        assert subgroup_classify(q.form, q.summand).free_lagrangian, trial
        dec = l_group_trivialize(q)
        assert replay(dec.sequence).ok, trial
        assert reduce(apply_move, dec.sequence.moves, dec.sequence.start) == dec.sequence.end, trial
        assert encodes_like_its_unshared_copy(sequence_to_doc(dec.sequence)), trial
        # the complement splits both subgroups off the common part
        for sub in (q.lagrangian, q.summand):
            assert dec.common.sum(sub.intersection(dec.complement)) == sub, trial
        for part in (dec.zero_part, dec.hyperbolic_part):
            assert subgroup_classify(part.form, part.summand).free_lagrangian, trial
        witness = is_hyperbolic_with_witness(dec.hyperbolic_part.form, dec.hyperbolic_part.lagrangian)
        assert isinstance(witness, FormIso), trial
        if dec.hyperbolic_part.form.rank:
            nontrivial += 1
    assert nontrivial >= 20  # the suite genuinely exercises hyperbolic parts


# -- 8: the three-term composition identity replays


def geometric_double():
    g = free_group(4)
    rows = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    mu = GroupHom.from_gen_images(g, Z, [(0,), (1,), (0,), (0,)])
    return EQForm(g, IntMatrix.from_rows(rows), mu, VZ)


def triple_composition_suite():
    """Jacobi triples (e, K, L, V) in small forms, plain and in scrambled bases."""
    h2 = hyperbolic(1, ZERO_GROUP, V0)
    gd = geometric_double()
    zf = zero_formation(Z, VZ)
    suite = [
        (zf.form, zf.lagrangian, zf.lagrangian, SubgroupRep.from_elements(zf.form.group, [(3, 1)])),
        (
            h2,
            SubgroupRep.from_elements(h2.group, [(0, 1)]),
            SubgroupRep.from_elements(h2.group, [(1, 0)]),
            SubgroupRep.from_elements(h2.group, [(1, 1)]),
        ),
        (
            h2,
            SubgroupRep.from_elements(h2.group, [(0, 1)]),
            SubgroupRep.from_elements(h2.group, [(0, 1)]),
            SubgroupRep.from_elements(h2.group, [(1, 0)]),
        ),
        (
            gd,
            SubgroupRep.from_elements(gd.group, [(1, 0, 0, 0), (0, 0, 1, 0)]),
            SubgroupRep.from_elements(gd.group, [(1, 0, 0, 0), (0, 0, 0, 1)]),
            SubgroupRep.from_elements(gd.group, [(0, 1, 0, 0), (0, 0, 1, 0)]),
        ),
        (
            gd,
            SubgroupRep.from_elements(gd.group, [(1, 0, 0, 0), (0, 0, 1, 0)]),
            SubgroupRep.from_elements(gd.group, [(1, 0, 0, 0), (0, 0, 1, 0)]),
            SubgroupRep.from_elements(gd.group, [(0, 1, 0, 0), (0, 0, 0, 1)]),
        ),
    ]
    # the same instances in scrambled bases
    rng = random.Random(3)
    for e, ks, ls, vs in list(suite):
        u = random_unimodular(rng, e.group.num_gens)
        s = scramble_iso(e, u)
        suite.append((s.target, ks.transport(s.hom), ls.transport(s.hom), vs.transport(s.hom)))
    return suite


def test_triple_composition_witnesses_replay():
    for i, (e, ks, ls, vs) in enumerate(triple_composition_suite()):
        w = jacobi_witness(e, ks, ls, vs)
        res = replay(w.sequence)
        assert res.ok, (i, res.reason)
        assert encodes_like_its_unshared_copy(sequence_to_doc(w.sequence)), i


def test_every_formation_and_iso_of_a_replay_passes_the_constructors():
    # direct sums and ApplyIso results are built without re-running the
    # checks, and so are the composed and inverted isos of the moves
    for e, ks, ls, vs in triple_composition_suite():
        seq = jacobi_witness(e, ks, ls, vs).sequence
        current = seq.start
        for move in seq.moves:
            assert QuasiFormation(current.form, current.lagrangian, current.summand) == current
            iso = move.iso if isinstance(move, ApplyIso) else move.witness
            assert FormIso(iso.source, iso.target, iso.hom) == iso
            current = apply_move(current, move)
        assert QuasiFormation(current.form, current.lagrangian, current.summand) == current == seq.end


def hyperbolic_triple(k):
    """The rank-2k Jacobi triple: H ⊕ … ⊕ H on pairs (2i, 2i+1), μ(e_1) = 1 over Z.

    K = <e_0, e_2, e_4, …>, L = <e_0, e_3, e_5, …>, V = <e_1, e_2, e_4, …>;
    at k = 2 this is the geometric double's first triple above.
    """
    n = 2 * k
    g = free_group(n)
    rows = [[int(j == i ^ 1) for j in range(n)] for i in range(n)]
    mu = GroupHom.from_gen_images(g, Z, [(int(i == 1),) for i in range(n)])
    e = EQForm(g, IntMatrix.from_rows(rows), mu, VZ)

    def span(*idx):
        return SubgroupRep.from_elements(g, [g.gen(i) for i in idx])

    evens = [2 * i for i in range(1, k)]
    return e, span(0, *evens), span(0, *(i + 1 for i in evens)), span(1, *evens)


def test_rank_eight_jacobi_certificate_replays_in_time():
    e, ks, ls, vs = hyperbolic_triple(4)
    t0 = time.monotonic()
    w = jacobi_witness(e, ks, ls, vs)
    res = replay(w.sequence)
    elapsed = time.monotonic() - t0
    assert res.ok, res.reason
    assert res.steps == 89
    assert w.sequence.start.form.group.num_gens == 66
    # measured at 0.03 s on a 2-core x86-64 machine with CPython 3.11, 0.06 s with
    # three moves per Flip letter and 1.8 s with dense rows
    assert elapsed < 6.0


def test_rank_twelve_jacobi_certificate_replays_in_time():
    e, ks, ls, vs = hyperbolic_triple(6)
    t0 = time.monotonic()
    w = jacobi_witness(e, ks, ls, vs)
    res = replay(w.sequence)
    elapsed = time.monotonic() - t0
    assert res.ok, res.reason
    assert res.steps == 137
    assert w.sequence.start.form.group.num_gens == 102
    # measured at 0.06 s on a 2-core x86-64 machine with CPython 3.11, 0.12 s with
    # three moves per Flip letter and 2.0 s with dense rows
    assert elapsed < 7.0


def test_rank_sixteen_jacobi_certificate_replays_in_time():
    e, ks, ls, vs = hyperbolic_triple(8)
    t0 = time.monotonic()
    w = jacobi_witness(e, ks, ls, vs)
    res = replay(w.sequence)
    elapsed = time.monotonic() - t0
    assert res.ok, res.reason
    assert res.steps == 185
    assert w.sequence.start.form.group.num_gens == 138
    # measured at 0.11 s on a 2-core x86-64 machine with CPython 3.11, 0.21 s with
    # three moves per Flip letter and 6.6 s with dense rows
    assert elapsed < 4.0


def test_rank_forty_eight_jacobi_certificate_replays_in_time():
    e, ks, ls, vs = hyperbolic_triple(24)
    w = jacobi_witness(e, ks, ls, vs)
    t0 = time.monotonic()
    res = replay(w.sequence)
    elapsed = time.monotonic() - t0
    assert res.ok, res.reason
    assert res.steps == 569
    assert w.sequence.start.form.group.num_gens == 426
    # measured at 0.39-0.45 s on a 2-core x86-64 machine with CPython 3.11, 0.68-0.96 s
    # with three moves per Flip letter, and 1.15 s when every move carried both
    # subgroups to their Hermite bases
    assert elapsed < 0.7


def test_rank_sixty_four_jacobi_certificate_is_built_in_time():
    args = hyperbolic_triple(32)
    elapsed = best_of_three(lambda: jacobi_witness(*args))
    assert len(jacobi_witness(*args).sequence.moves) == 761
    # measured at 0.21 s (best of 3) on a 2-core x86-64 machine with CPython 3.11; 0.34 s when
    # each permutation matrix made its own unit rows, 0.39-0.42 s when each inverse was a transpose
    assert elapsed < 0.45


def test_rank_sixty_four_jacobi_certificate_replays_in_time():
    seq = jacobi_witness(*hyperbolic_triple(32)).sequence
    res = replay(seq)
    assert res.ok and res.steps == 761, res.reason
    elapsed = best_of_three(lambda: replay(seq))
    # measured at 0.36-0.44 s (best of 3) on a 2-core x86-64 machine with CPython 3.11, and up to 0.52 s
    # in a slow spell of that machine; a monomial lattice read off without elimination took 0.24-0.28 s
    assert elapsed < 1.0


def jacobi_request(k):
    e, ks, ls, vs = hyperbolic_triple(k)
    return {"form": form_to_doc(e), "K": subgroup_to_doc(ks), "L": subgroup_to_doc(ls), "V": subgroup_to_doc(vs)}


def best_of_three(f):
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return best


def test_rank_eight_jacobi_result_is_encoded_at_the_json_module_speed():
    result = cli.COMMANDS["jacobi"].build(jacobi_request(4))
    assert encodes_like_its_unshared_copy(result)
    # the C encoder is the machine-speed reference; repeated rows are formatted once per document,
    # and a form dict the sequence holds in several places is written once.  Measured on a 2-core
    # x86-64 machine with CPython 3.11: 0.46 times its time, 0.71 with rows alone, 2.2 times when
    # every row was formatted anew
    ratio = best_of_three(lambda: canonical_dumps(result)) / best_of_three(
        lambda: json.dumps(result, sort_keys=True)
    )
    assert ratio <= 1.0


def test_rank_eight_jacobi_result_is_parsed_in_half_the_json_module_time():
    text = canonical_dumps(cli.COMMANDS["jacobi"].build(jacobi_request(4)))
    assert loads_document(text) == json.loads(text)
    # the C decoder is the machine-speed reference; each verbatim copy of a form or isomorphism text is
    # decoded once.  Measured on a 2-core x86-64 machine with CPython 3.11: 0.08-0.14 times its time,
    # 0.07-0.09 on the certificate alone, and 0.19-0.27 when 4 texts were kept per prefix
    ratio = best_of_three(lambda: loads_document(text)) / best_of_three(lambda: json.loads(text))
    assert ratio <= 0.5


def test_rank_eight_jacobi_result_text_is_under_four_megabytes():
    text = canonical_dumps(cli.COMMANDS["jacobi"].build(jacobi_request(4)))
    # 3.94 MB with each integer row on one line, 22.5 MB with one integer per line
    assert len(text.encode()) <= 4_000_000


# runs one CLI command and prints its peak resident set size in KiB on stderr (Linux units)
PEAK_RSS_SCRIPT = """
import resource, sys
from qform import cli
code = cli.run(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def test_rank_sixteen_jacobi_and_validate_fit_in_memory(tmp_path):
    request = tmp_path / "request.json"
    request.write_text(canonical_dumps(jacobi_request(8)))
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for argv in (["jacobi", "--input", str(request), "--output", str(result)], ["validate", "--input", str(result)]):
        done = subprocess.run([sys.executable, "-c", PEAK_RSS_SCRIPT, *argv], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        peak_mb = int(done.stderr.split()[-1]) / 1024
        # measured on x86-64 Linux with CPython 3.11: jacobi 88 MB and validate 106 MB for a
        # 33.5 MB result, validate 188 MB when each copy of a form or isomorphism text was
        # decoded apart; 429 and 586 MB with one integer per line
        assert peak_mb <= 300, argv[0]
    assert json.loads(done.stdout)["ok"] is True


# -- 9: structural anchors of the hyperbolic plane


def test_hyperbolic_plane_anchors():
    h2 = hyperbolic(1)
    lagrangians = enumerate_lagrangians(h2)
    assert len(lagrangians) == 2
    assert [s.generators() for s in lagrangians] == [[(0, 1)], [(1, 0)]]

    auts = enumerate_automorphisms(h2)
    assert len(auts) == 4
    matrices = {a.hom.matrix.entries for a in auts}
    assert matrices == {
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
        ((-1, 0), (0, -1)),
        ((0, -1), (-1, 0)),
    }
    # every element squares to the identity: the Klein four group
    identity = IntMatrix.identity(2)
    for a in auts:
        assert a.hom.matrix.mul(a.hom.matrix) == identity


def test_elementarity_is_stable():
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    for trial in range(100):
        qg = rng.choice([ZERO_GROUP, Z])
        v = GroupHom.zero(qg, Z2)
        base = standard_elementary(rng.choice([1, 2]), qg, v)
        if trial % 2:
            base = QuasiFormation(base.form, base.lagrangian, base.lagrangian)
        u = random_unimodular(rng, base.form.group.num_gens, ops=6)
        q = apply_move(base, ApplyIso(scramble_iso(base.form, u)))
        before = is_elementary(q)
        assert is_elementary(apply_move(q, Stab(1))) == before, trial
        seen[before] += 1
    assert seen[True] and seen[False]


# -- 10: torsion reduction round-trips


def torsion_block(k, torsion, mu_row, target):
    group = AbGroup(2 * k, torsion)
    t = len(torsion)
    lam = IntMatrix.block_diagonal(
        [
            IntMatrix.zeros(k, k).hstack(IntMatrix.identity(k)).vstack(
                IntMatrix.identity(k).hstack(IntMatrix.zeros(k, k))
            ),
            IntMatrix.zeros(t, t),
        ]
    )
    mu = GroupHom(group, target, IntMatrix.from_rows([list(mu_row) + [0] * t], group.num_gens))
    return EQForm(group, lam, mu, None)


def test_torsion_round_trip_randomized():
    rng = random.Random(11)
    shapes = [
        (1, (2,)),
        (1, (3,)),
        (2, (2, 2)),
        (2, (2, 4)),
        (1, (5,)),
        (2, (3, 9)),
        (3, (2,)),
        (1, (7,)),
    ]
    for trial in range(100):
        k, torsion = shapes[trial % len(shapes)]
        mu_row = [0] * k + [1] + [0] * (k - 1)
        e = torsion_block(k, torsion, mu_row, Z)
        t = len(torsion)
        lagr = SubgroupRep.from_elements(
            e.group,
            [e.group.gen(i) for i in range(k)] + [e.group.gen(2 * k + j) for j in range(t)],
        )
        v_gens = []
        for i in range(k):
            g = list(e.group.gen(k + i))
            for j in range(k):
                g[j] += rng.randrange(-2, 3)
            for j in range(t):
                g[2 * k + j] += rng.randrange(torsion[j])
            v_gens.append(tuple(g))
        q = QuasiFormation(e, lagr, SubgroupRep.from_elements(e.group, v_gens))
        iso = bar_round_trip(q)
        assert iso.source == unbar(bar_reduce(q), AbGroup(0, torsion)).form
        assert iso.target == q.form
