"""Tests for the rank-2 family E_{a,b}, its kappa invariant and class counts."""

import random
import time
from math import gcd

import pytest

from qform import stableclass
from qform.abelian import AbGroup, GroupHom, Z2, ZERO_GROUP, free_group
from qform.errors import HypothesisError, NodeLimitExceeded
from qform.forms import EQForm, FormIso, form_direct_sum, hyperbolic
from qform.intmat import IntMatrix
from qform.oracle import enumerate_automorphisms
from qform.stableclass import (
    aut_action_check,
    e_ab,
    factorize,
    gcd_profile,
    kappa,
    kappa_ab,
    orbit,
    orbit_canonical,
    si1_decide,
    si1_witness,
    si_enumerate,
    si_hyp,
    stable_class_report,
)

Z = free_group(1)
V0 = GroupHom.zero(Z, Z2)


def hyp_form(matrix_rows, mu_row, group=None):
    g = group or free_group(2)
    mu = GroupHom(g, Z, IntMatrix.from_rows([list(mu_row)], g.num_gens))
    return EQForm(g, IntMatrix.from_rows([list(r) for r in matrix_rows]), mu, None)


# -- gcd bookkeeping -----------------------------------------------------


def test_gcd_profile_zero_pair():
    p = gcd_profile(0, 0)
    assert (p.g, p.a_bar, p.b_bar, p.l) == (0, 1, 1, 0)


def test_gcd_profile_plain():
    p = gcd_profile(2, 3)
    assert (p.g, p.a_bar, p.b_bar, p.l) == (1, 2, 3, 6)


def test_gcd_profile_sign_convention():
    # the lcm carries the sign of the product
    p = gcd_profile(-4, 6)
    assert (p.g, p.a_bar, p.b_bar, p.l) == (2, -2, 3, -12)
    assert p.a * p.b_bar == p.l == p.a_bar * p.b


def test_gcd_profile_identities_on_a_grid():
    for a in range(-9, 10):
        for b in range(-9, 10):
            p = gcd_profile(a, b)
            assert p.g >= 0
            assert a * b == p.l * p.g
            assert gcd(p.a_bar, p.b_bar) == 1
            if p.g:
                assert (p.a_bar * p.g, p.b_bar * p.g) == (a, b)


# -- the family and kappa ------------------------------------------------


def test_e_ab_zero_pair_is_the_plane():
    assert e_ab(0, 0) == hyperbolic(1, Z, GroupHom.zero(Z, Z2))


def test_e_ab_flags():
    e = e_ab(2, 3)
    assert e.is_even() and e.is_nonsingular() and e.is_geometric()
    assert e.is_full()
    assert not e_ab(2, 4).is_full()


def test_kappa_of_zero_pair_is_trivial():
    assert kappa(e_ab(0, 0)).rank == 0


def test_kappa_frozen_values():
    k = kappa(e_ab(2, 3))
    assert k.matrix.tolist() == [[12]]
    assert k.mu.matrix.tolist() == [[12]]
    k = kappa(e_ab(3, 0))
    assert k.matrix.tolist() == [[0]]
    assert k.mu.matrix.tolist() == [[0]]


def test_kappa_closed_form_on_a_grid():
    for a in range(-8, 9):
        for b in range(-8, 9):
            assert kappa(e_ab(a, b)) == kappa_ab(a, b)


def test_kappa_sign_sensitive_cases():
    # the canonical generator of the perp flips sign with b/gcd
    assert kappa(e_ab(3, -1)).mu.matrix.tolist() == [[6]]
    assert kappa(e_ab(-4, 6)).mu.matrix.tolist() == [[-24]]
    assert kappa(e_ab(-4, 6)).matrix.tolist() == [[-12]]


def test_kappa_ignores_hyperbolic_summands():
    for a, b in [(2, 3), (0, 5), (-4, 6), (1, 1)]:
        e = e_ab(a, b)
        for k in (1, 2):
            s = form_direct_sum(e, hyperbolic(k, Z, e.v)).form
            assert kappa(s) == kappa(e)


def test_kappa_unchanged_under_relabeling():
    rng = random.Random(11)
    for a, b in [(2, 3), (1, 6), (-4, 6)]:
        e = e_ab(a, b)
        for _ in range(5):
            s = rng.choice([1, -1])
            u = IntMatrix.from_rows([[1, rng.randrange(-2, 3)], [0, s]])
            hom = GroupHom(e.group, e.group, u)
            pulled = EQForm(
                e.group,
                u.transpose().mul(e.matrix).mul(u),
                e.mu.compose(hom),
                e.v,
            )
            iso = FormIso(pulled, e, hom)
            got, want = kappa(pulled), kappa(e)
            # same invariant up to the orbit of the rank-1 sign flip
            assert got.matrix == want.matrix
            assert got.mu.matrix.tolist()[0][0] in (
                want.mu.matrix.tolist()[0][0],
                -want.mu.matrix.tolist()[0][0],
            )
            assert iso.source == pulled


# -- the stable criterion and its witness --------------------------------


def test_si1_decide_examples():
    assert si1_decide(1, 6, 2, 3)
    assert not si1_decide(1, 6, 1, -6)
    assert not si1_decide(2, 2, 1, 4)


def test_si1_witness_endpoints():
    w = si1_witness(2, 3)
    assert w.source == form_direct_sum(e_ab(6, 1), hyperbolic(1, Z, V0)).form
    assert w.target == form_direct_sum(e_ab(2, 3), hyperbolic(1, Z, V0)).form
    assert w.hom.matrix.tolist() == [
        [-9, 2, -3, -6],
        [8, -1, 2, 4],
        [12, -2, 3, 8],
        [6, -1, 2, 3],
    ]


def test_si1_witness_other_bezout_pair_also_works():
    # alpha*2 + beta*3 = 1 has many solutions; (-1, 1) gives another witness
    rows = [[9, -1, 3, 3], [-4, 1, -2, -2], [6, -1, 3, 2], [6, -1, 2, 3]]
    src = form_direct_sum(e_ab(6, 1), hyperbolic(1, Z, V0)).form
    tgt = form_direct_sum(e_ab(2, 3), hyperbolic(1, Z, V0)).form
    FormIso(src, tgt, GroupHom(src.group, tgt.group, IntMatrix.from_rows(rows)))


def test_si1_witness_edge_pairs():
    for pair in [(0, 0), (5, 0), (0, 5), (1, 1), (-1, 1)]:
        w = si1_witness(*pair)
        p = gcd_profile(*pair)
        assert w.source.mu.matrix.tolist() == [[p.l, p.g, 0, 0]]


def test_si1_witness_small_grid():
    for a in range(-6, 7):
        for b in range(-6, 7):
            si1_witness(a, b)


def test_si1_stable_iso_between_equivalent_pairs():
    assert si1_decide(1, 6, 2, 3)
    iso = si1_witness(2, 3).compose(si1_witness(1, 6).inverse())
    assert iso.source == form_direct_sum(e_ab(1, 6), hyperbolic(1, Z, V0)).form
    assert iso.target == form_direct_sum(e_ab(2, 3), hyperbolic(1, Z, V0)).form
    assert iso.hom.matrix.tolist() == [
        [-1, 9, -3, -3],
        [1, -4, 2, 2],
        [1, -6, 2, 3],
        [1, -6, 3, 2],
    ]


def test_si1_stable_iso_refuses_inequivalent_pairs():
    assert not si1_decide(1, 6, 2, 5)


# -- the four-element orbit ----------------------------------------------


def test_orbit_members():
    assert orbit(2, 3) == [(2, 3), (3, 2), (-2, -3), (-3, -2)]
    assert orbit_canonical(-2, -3) == (2, 3)
    assert orbit_canonical(0, -5) == (0, 5)
    assert orbit_canonical(3, -1) == (1, -3)


def test_h2_automorphism_group():
    """The plane's automorphisms, found by search, move (a, b) through its orbit."""
    auts = enumerate_automorphisms(hyperbolic(1))
    assert sorted(aut.hom.matrix.apply((2, 3)) for aut in auts) == sorted(orbit(2, 3))


def si2_isomorphic(a, b, c, d):
    """An isomorphism E_{a,b} → E_{c,d} by one of the plane's four automorphisms, or None."""
    for aut in enumerate_automorphisms(hyperbolic(1)):
        m = aut.hom.matrix
        if m.apply((a, b)) == (c, d):
            return FormIso(e_ab(a, b), e_ab(c, d), GroupHom(free_group(2), free_group(2), m))
    return None


def test_si2_swap():
    iso = si2_isomorphic(2, 3, 3, 2)
    assert iso is not None
    assert iso.hom.matrix.tolist() == [[0, 1], [1, 0]]
    assert iso.source == e_ab(2, 3) and iso.target == e_ab(3, 2)


def test_si2_negate():
    iso = si2_isomorphic(2, 3, -2, -3)
    assert iso is not None
    assert iso.hom.matrix.tolist() == [[-1, 0], [0, -1]]


def test_si2_outside_orbit():
    assert si2_isomorphic(2, 3, 2, -3) is None


# -- enumeration ---------------------------------------------------------


def test_si_enumerate_frozen_examples():
    r = si_enumerate(1, 6)
    assert r.size == 2 and r.representatives == ((1, 6), (2, 3))
    assert si_enumerate(0, 5).size == 1
    assert si_enumerate(1, 30).size == 4
    assert si_enumerate(1, 30).representatives == ((1, 30), (2, 15), (3, 10), (5, 6))
    assert si_enumerate(2, 2).size == 1
    assert si_enumerate(0, 0).representatives == ((0, 0),)


def test_si_enumerate_representatives_are_consistent():
    for a, b in [(1, 6), (1, 30), (2, 30), (-4, 6), (2, 2)]:
        r = si_enumerate(a, b)
        for c, d in r.representatives:
            assert si1_decide(a, b, c, d)
        for i, p in enumerate(r.representatives):
            for q in r.representatives[i + 1 :]:
                assert si2_isomorphic(p[0], p[1], q[0], q[1]) is None


def test_si_enumerate_is_orbit_invariant():
    for a, b in [(1, 6), (-4, 6), (0, 3)]:
        base = si_enumerate(a, b)
        for c, d in orbit(a, b):
            assert si_enumerate(c, d) == base


def trial_division_si_pairs(a, b):
    """The representatives as first written: trial division by every integer,
    then (c·g, l / c) for each signed product c of prime powers."""
    p = gcd_profile(a, b)
    n = abs(p.a_bar * p.b_bar)
    powers, d, m = [], 2, n
    while d * d <= m:
        if m % d == 0:
            pk = 1
            while m % d == 0:
                pk *= d
                m //= d
            powers.append(pk)
        d += 1
    if m > 1:
        powers.append(m)
    reps = set()
    for mask in range(1 << len(powers)):
        c_bar = 1
        for i, pk in enumerate(powers):
            if mask >> i & 1:
                c_bar *= pk
        for c in (c_bar, -c_bar):
            reps.add(orbit_canonical(c * p.g, p.l // c))
    return tuple(sorted(reps))


def test_si_enumerate_matches_the_trial_division_reference():
    rng = random.Random(14)
    for _ in range(300):
        g = rng.choice([1, 1, 2, 6, 35])
        a = g * rng.choice([1, -1]) * rng.randrange(1, 10 ** rng.randint(1, 6))
        b = g * rng.choice([1, -1]) * rng.randrange(1, 10 ** rng.randint(1, 6))
        if abs(a) == abs(b):
            continue
        assert si_enumerate(a, b).representatives == trial_division_si_pairs(a, b), (a, b)


# -- factoring -------------------------------------------------------------

PSI_13 = 3317044064679887385961981  # least strong pseudoprime to the bases 2, 3, ..., 41


def drawn_factoring_inputs(sympy, count, seed):
    """Prime powers, and products of up to 40 digits whose second-largest prime is below 10^8."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 4 == 0:
            q = sympy.prevprime(rng.randrange(3, 10 ** rng.randint(1, 13)))
            out.append(q ** rng.randint(1, max(1, 39 // len(str(q)))))
            continue
        n = 1
        for _ in range(rng.randint(1, 4)):
            n *= sympy.prevprime(rng.randrange(3, 10 ** rng.randint(1, 8))) ** rng.randint(1, 3)
        if 10**40 // n > 3:
            n *= sympy.prevprime(rng.randrange(3, 10**40 // n))
        out.append(n)
    return out


def test_factorize_matches_sympy_on_drawn_inputs():
    sympy = pytest.importorskip("sympy")
    exits = 0
    for n in drawn_factoring_inputs(sympy, 40, 14):
        expected = tuple(sorted(sympy.factorint(n).items()))
        try:
            found = factorize(n, node_limit=5000)
        except NodeLimitExceeded:
            # only a proof above the Miller–Rabin bound can run out of nodes
            assert expected[-1][0] >= PSI_13, n
            exits += 1
            continue
        assert found == expected, n
        assert (found == ((n, 1),)) == sympy.isprime(n)
    assert exits <= 4


def test_factorize_takes_exponents_by_squaring():
    n = 2**3000 * 3**500 * 97**20 * 1009**7
    assert factorize(n) == ((2, 3000), (3, 500), (97, 20), (1009, 7))
    assert factorize(1) == ()
    assert factorize(997**2) == ((997, 2),)  # trial division ends with nothing left
    assert factorize(1009**2 * 1013) == ((1009, 2), (1013, 1))
    assert factorize(-12) == ((2, 2), (3, 1))
    with pytest.raises(HypothesisError):
        factorize(0)


def test_factorize_splits_high_powers_of_primes_above_the_table_once():
    # a proven prime leaves every part at once, and a short rho walk sheds it
    # from a large part before any primality test of that part
    for n, expected in (
        (1009**1400, ((1009, 1400),)),
        (10007**500, ((10007, 500),)),
        (1009**1400 * 1013**1400, ((1009, 1400), (1013, 1400))),
    ):
        start = time.perf_counter()
        assert factorize(n) == expected
        assert time.perf_counter() - start < 1.5, expected
    assert si_enumerate(1, 1009**1400).size == 1
    assert stable_class_report(1, 1009**700, 1013**700) == stableclass.StableClassCounts(2, 2)


@pytest.fixture
def n_minus_1_proofs(monkeypatch):
    """Records (n, verdict) for each n − 1 proof that factoring runs."""
    calls = []
    prove = stableclass._n_minus_1_proof

    def spy(n, counter):
        verdict = prove(n, counter)
        calls.append((n, verdict))
        return verdict

    monkeypatch.setattr(stableclass, "_n_minus_1_proof", spy)
    return calls


def test_named_strong_pseudoprimes_are_composite(n_minus_1_proofs):
    # strong pseudoprimes to the bases up to 23, up to 37, and up to 41
    assert factorize(3825123056546413051) == ((149491, 1), (747451, 1), (34233211, 1))
    assert factorize(318665857834031151167461) == ((399165290221, 1), (798330580441, 1))
    assert n_minus_1_proofs == []  # Miller–Rabin decides both below the bound
    assert factorize(PSI_13) == ((1287836182261, 1), (2575672364521, 1))
    assert n_minus_1_proofs == [(PSI_13, False)]  # at the bound: the n − 1 path calls it composite


def test_si_proves_mersenne_primes_by_n_minus_1(capsys, n_minus_1_proofs):
    m89, m127 = 2**89 - 1, 2**127 - 1
    assert si_enumerate(1, m89).size == 1
    assert si_enumerate(1, 3 * m127).size == 2
    assert (m89, True) in n_minus_1_proofs and (m127, True) in n_minus_1_proofs
    assert all(verdict for _, verdict in n_minus_1_proofs)


def test_factorize_runs_out_of_nodes_on_two_20_digit_primes():
    with pytest.raises(NodeLimitExceeded):
        factorize(10000000000000000051 * 30000000000000000041, node_limit=10)
    with pytest.raises(NodeLimitExceeded):
        si_enumerate(1, 10000000000000000051 * 30000000000000000041, node_limit=10)
    with pytest.raises(NodeLimitExceeded):
        stable_class_report(1, 1, 10000000000000000051 * 30000000000000000041, node_limit=10)


def test_node_budget_bounds_time_whatever_the_size_of_n():
    # a node costs more on a larger modulus, so a limit bounds the time
    p, q = 10000000000000000051, 30000000000000000041
    for k in (1, 50, 200):
        start = time.perf_counter()
        with pytest.raises(NodeLimitExceeded):
            factorize(p**k * q, node_limit=1000)
        assert time.perf_counter() - start < 1.0, k


# -- the rank-2 hyperbolic classification --------------------------------


def test_si_hyp_injective_mu():
    g2 = free_group(2)
    e = EQForm(g2, IntMatrix.from_rows([[0, 1], [1, 0]]), GroupHom.identity(g2), None)
    r = si_hyp(e)
    assert r.size == 1 and r.representatives == (e,)
    assert "reduced mu is injective" in r.trace


def test_si_hyp_zero_coefficients():
    g2 = free_group(2)
    e = EQForm(g2, IntMatrix.from_rows([[0, 1], [1, 0]]), GroupHom.zero(g2, ZERO_GROUP), None)
    assert si_hyp(e).size == 1


def test_si_hyp_strips_torsion():
    g = AbGroup(2, (5,))
    lam = IntMatrix.block_diagonal([IntMatrix.from_rows([[0, 1], [1, 0]]), IntMatrix.zeros(1, 1)])
    mu = GroupHom(g, Z, IntMatrix.from_rows([[1, 6, 0]], 3))
    r = si_hyp(EQForm(g, lam, mu, None))
    assert r.size == 2
    assert r.trace[0] == "stripped torsion (5,)"
    assert [rep.mu.matrix.tolist() for rep in r.representatives] == [[[1, 6, 0]], [[2, 3, 0]]]
    assert all(rep.group == g for rep in r.representatives)


def reference_si_representatives(e, pairs):
    """The former representatives: block matrices and a padded μ row written out."""
    torsion = e.group.torsion
    group = AbGroup(2, torsion)
    t = len(torsion)
    lam = IntMatrix.block_diagonal([IntMatrix.from_rows([[0, 1], [1, 0]]), IntMatrix.zeros(t, t)])
    return tuple(
        EQForm(group, lam, GroupHom(group, e.target, IntMatrix.from_rows([[c, d] + [0] * t], group.num_gens)), e.v)
        for c, d in pairs
    )


@pytest.mark.parametrize("torsion", [(), (5,), (2, 4), (3, 6)])
def test_si_hyp_representatives_match_the_reference(torsion):
    g = AbGroup(2, torsion)
    t = len(torsion)
    lam = IntMatrix.block_diagonal([IntMatrix.from_rows([[0, 1], [1, 0]]), IntMatrix.zeros(t, t)])
    for v in (None, GroupHom.zero(Z, Z2), GroupHom.from_gen_images(Z, Z2, [(1,)])):
        for a, b in [(1, 6), (1, 30), (2, 15), (1, 4), (5, 6), (1, 0)]:
            e = EQForm(g, lam, GroupHom(g, Z, IntMatrix.from_rows([[a, b] + [0] * t])), v)
            r = si_hyp(e)
            assert r.representatives == reference_si_representatives(e, si_enumerate(a, b).representatives)


def test_si_hyp_reads_values_off_the_found_basis():
    # pairing [[2,1],[1,0]] has hyperbolic basis (0,1), (1,-1)
    e = hyp_form([[2, 1], [1, 0]], [2, 3])
    r = si_hyp(e)
    assert "hyperbolic basis values (3, -1)" in r.trace
    assert r.size == 1


def test_si_hyp_size_two_needs_two_primes():
    assert si_hyp(hyp_form([[0, 1], [1, 0]], [1, 6])).size == 2
    assert si_hyp(hyp_form([[0, 1], [1, 0]], [1, 4])).size == 1
    assert si_hyp(hyp_form([[0, 1], [1, 0]], [1, 30])).size == 4


def test_si_hyp_refusals():
    g2 = free_group(2)
    torsion_q = EQForm(
        g2,
        IntMatrix.from_rows([[0, 1], [1, 0]]),
        GroupHom(g2, AbGroup(0, (2,)), IntMatrix.from_rows([[1, 0]], 2)),
        None,
    )
    with pytest.raises(HypothesisError):
        si_hyp(torsion_q)
    with pytest.raises(HypothesisError):
        si_hyp(hyp_form([[0, 1], [1, 0]], [2, 4]))
    with pytest.raises(HypothesisError):
        si_hyp(hyp_form([[0, 1], [1, 1]], [1, 0]))
    with pytest.raises(HypothesisError):
        # even but not unimodular
        si_hyp(hyp_form([[2, 0], [0, -2]], [1, 0]))


# -- coefficient automorphisms -------------------------------------------


def test_aut_action_identity():
    n = e_ab(1, 6)
    iso = aut_action_check(n, n, GroupHom.identity(Z))
    assert iso.hom.matrix.tolist() == [[1, 0], [0, 1]]


def test_aut_action_rank_one_flip():
    n = e_ab(1, 6)
    h = GroupHom(Z, Z, IntMatrix.from_rows([[-1]]))
    iso = aut_action_check(n, n, h)
    assert iso.hom.matrix.tolist() == [[-1, 0], [0, -1]]
    assert iso.source.mu.matrix.tolist() == [[-1, -6]]
    assert iso.target == n


def test_aut_action_fixes_torsion():
    g = AbGroup(2, (5,))
    lam = IntMatrix.block_diagonal([IntMatrix.from_rows([[0, 1], [1, 0]]), IntMatrix.zeros(1, 1)])
    mu = GroupHom(g, Z, IntMatrix.from_rows([[1, 6, 0]], 3))
    n = EQForm(g, lam, mu, None)
    h = GroupHom(Z, Z, IntMatrix.from_rows([[-1]]))
    iso = aut_action_check(n, n, h)
    assert iso.hom.matrix.tolist() == [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]


def test_aut_action_rank_two():
    g2 = free_group(2)
    swap = GroupHom(g2, g2, IntMatrix.from_rows([[0, 1], [1, 0]]))
    e = EQForm(g2, IntMatrix.from_rows([[0, 1], [1, 0]]), GroupHom.identity(g2), None)
    assert aut_action_check(e, e, swap).hom.matrix.tolist() == [[0, 1], [1, 0]]

    shear_mu = GroupHom(g2, g2, IntMatrix.from_rows([[1, 0], [1, 1]]))
    e2 = EQForm(g2, IntMatrix.from_rows([[0, 1], [1, 0]]), shear_mu, None)
    neg = GroupHom(g2, g2, IntMatrix.from_rows([[-1, 0], [0, -1]]))
    assert aut_action_check(e2, e2, neg).hom.matrix.tolist() == [[-1, 0], [0, -1]]


def test_aut_action_rejects_twists_that_leave_the_class():
    g2 = free_group(2)
    shear_mu = GroupHom(g2, g2, IntMatrix.from_rows([[1, 0], [1, 1]]))
    e = EQForm(g2, IntMatrix.from_rows([[0, 1], [1, 0]]), shear_mu, None)
    swap = GroupHom(g2, g2, IntMatrix.from_rows([[0, 1], [1, 0]]))
    with pytest.raises(HypothesisError):
        aut_action_check(e, e, swap)


# -- the count table -----------------------------------------------------


def test_stable_class_report_table():
    assert stable_class_report(0) == stable_class_report(2)
    assert stable_class_report(0).smoothings == 1
    assert stable_class_report(1, 1, 1).smoothings == 1
    r = stable_class_report(1, 1, 6)
    assert (r.smoothings, r.classes) == (2, 2)
    assert stable_class_report(1, 1, 30).smoothings == 4


def test_stable_class_report_matches_enumeration():
    for a in range(-7, 8):
        for b in range(-7, 8):
            if gcd(a, b) != 1:
                continue
            assert stable_class_report(1, a, b).classes == si_enumerate(a, b).size


def test_stable_class_report_refusals():
    with pytest.raises(HypothesisError):
        stable_class_report(3)
    with pytest.raises(HypothesisError):
        stable_class_report(1, 2, 4)
