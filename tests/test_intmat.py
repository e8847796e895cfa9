"""Exact matrix layer: Smith/Hermite normal forms and integer solving."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qform.errors import DimensionMismatch
from qform.intmat import (
    IntMatrix,
    hermite_row_basis,
    int_nullspace,
    int_solve,
    int_solver,
    lattice_contains,
    smith_normal_form,
)


def random_matrix(rng, rows, cols, bound=50):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols
    )


def check_snf(a):
    dec = smith_normal_form(a)
    assert dec.u.mul(a).mul(dec.v) == dec.d
    assert abs(dec.u.det()) == 1
    assert abs(dec.v.det()) == 1
    assert dec.u.mul(dec.u_inv) == IntMatrix.identity(a.rows)
    assert dec.v.mul(dec.v_inv) == IntMatrix.identity(a.cols)
    diag = dec.diagonal
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    # off-diagonal entries vanish
    for i in range(dec.d.rows):
        for j in range(dec.d.cols):
            if i != j:
                assert dec.d.entries[i][j] == 0
    return dec


def test_snf_merges_coprime_invariants():
    dec = check_snf(IntMatrix.diagonal([2, 3]))
    assert dec.diagonal == (1, 6)


def test_snf_random_shapes():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(0, 8)
        cols = rng.randint(0, 8)
        check_snf(random_matrix(rng, rows, cols))


def test_snf_deterministic():
    rng = random.Random(3)
    a = random_matrix(rng, 5, 4)
    d1 = smith_normal_form(a)
    d2 = smith_normal_form(a)
    assert d1 == d2


def test_det_matches_snf_magnitude():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, n, bound=9)
        dec = smith_normal_form(a)
        prod = 1
        for x in dec.diagonal:
            prod *= x
        assert abs(a.det()) == prod


def test_inverse_unimodular():
    a = IntMatrix.from_rows([[1, 2, 0], [0, 1, 5], [0, 0, 1]])
    inv = a.inverse_unimodular()
    assert a.mul(inv) == IntMatrix.identity(3)
    assert inv.mul(a) == IntMatrix.identity(3)


def test_hermite_is_canonical_under_row_shuffle():
    rng = random.Random(23)
    for _ in range(50):
        cols = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rng.randint(0, 6))]
        h1 = hermite_row_basis(rows, cols)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        # also mix in sums of rows: the lattice is unchanged
        if len(rows) >= 2:
            shuffled.append([a + b for a, b in zip(rows[0], rows[1])])
        h2 = hermite_row_basis(shuffled, cols)
        assert h1 == h2
        # echelon shape with positive pivots, reduced above
        pivots = []
        for r in h1:
            p = next(j for j, x in enumerate(r) if x)
            assert r[p] > 0
            pivots.append(p)
            for up in h1[: len(pivots) - 1]:
                assert 0 <= up[p] < r[p]
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)


def test_lattice_membership():
    basis = hermite_row_basis([[2, 0], [0, 3]], 2)
    assert lattice_contains(basis, (2, 3))
    assert lattice_contains(basis, (-4, 9))
    assert not lattice_contains(basis, (1, 0))
    assert not lattice_contains(basis, (2, 2))


def test_nullspace_and_solve():
    rng = random.Random(5)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rows, cols, bound=6)
        basis = int_nullspace(a)
        for col in basis:
            assert a.apply(col) == (0,) * rows
        # the basis spans the whole kernel: full rank, and Z^cols / span is
        # torsion-free (saturated), so every Smith invariant of the basis is 1
        assert len(basis) == cols - smith_normal_form(a).rank
        if basis:
            assert set(smith_normal_form(IntMatrix.from_rows(basis, cols)).diagonal) == {1}
        # solvable instance: pick x, solve for A x
        x = tuple(rng.randint(-5, 5) for _ in range(cols))
        y = a.apply(x)
        sol = int_solve(a, y)
        assert sol is not None
        assert a.apply(sol) == y


def test_solve_detects_unsolvable():
    a = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert int_solve(a, (1, 0)) is None
    assert int_solve(a, (2, -4)) == (1, -2)


# -- the product kernel against the textbook triple loop ---------------

BIG = 2**64


def naive_product(a, b):
    """Entries of A*B by the triple loop, sharing no code with IntMatrix.mul."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            total = 0
            for k in range(a.cols):
                total += a.entries[i][k] * b.entries[k][j]
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


# small entries keep zeros common; the wide range reaches past 2**64 both ways
entries = st.one_of(st.integers(-3, 3), st.integers(-(BIG**2), BIG**2))


@st.composite
def dense(draw, rows, cols):
    return IntMatrix(rows, cols, tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(rows)))


@st.composite
def permutation(draw, n):
    """A permutation matrix whose ones may be replaced by other entries."""
    perm = draw(st.permutations(range(n)))
    scale = draw(st.sampled_from([1, -1, BIG + 1, -(BIG**2)]))
    return IntMatrix(n, n, tuple(tuple(scale if j == perm[i] else 0 for j in range(n)) for i in range(n)))


@st.composite
def block_diagonal(draw, n):
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, n - sum(sizes))))
    blocks = [draw(st.one_of(dense(k, k), permutation(k))) for k in sizes]
    return IntMatrix.block_diagonal(blocks) if blocks else IntMatrix.zeros(0, 0)


def operand(rows, cols):
    if rows != cols:
        return dense(rows, cols)
    return st.one_of(dense(rows, cols), permutation(rows), block_diagonal(rows))


@st.composite
def product_pairs(draw):
    rows, inner, cols = (draw(st.integers(0, 6)) for _ in range(3))
    return draw(operand(rows, inner)), draw(operand(inner, cols))


@settings(max_examples=300, deadline=None)
@given(product_pairs())
def test_mul_and_apply_match_the_triple_loop(pair):
    a, b = pair
    product = a.mul(b)
    expected = naive_product(a, b)
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert product.entries == expected
    # column j of A*B is A applied to column j of B
    for j in range(b.cols):
        assert a.apply(b.column(j)) == tuple(row[j] for row in expected)


@pytest.mark.parametrize("k, m", [(0, 0), (3, 0), (0, 4), (3, 4)])
def test_products_through_an_empty_inner_dimension_are_zero(k, m):
    assert IntMatrix.zeros(k, 0).mul(IntMatrix.zeros(0, m)) == IntMatrix.zeros(k, m)
    assert IntMatrix.zeros(k, 0).apply(()) == (0,) * k


def test_products_with_no_rows_or_columns():
    assert IntMatrix.zeros(0, 5).mul(IntMatrix.identity(5)) == IntMatrix.zeros(0, 5)
    assert IntMatrix.zeros(0, 5).apply((1, 2, 3, 4, 5)) == ()
    assert IntMatrix.identity(3).mul(IntMatrix.zeros(3, 0)) == IntMatrix.zeros(3, 0)


def test_mul_and_apply_check_dimensions():
    with pytest.raises(DimensionMismatch):
        IntMatrix.zeros(2, 3).mul(IntMatrix.zeros(2, 3))
    with pytest.raises(DimensionMismatch):
        IntMatrix.zeros(2, 3).apply((1, 2))


# -- factor once, solve many -------------------------------------------


def test_solver_matches_fresh_solves_and_detects_unsolvable():
    rng = random.Random(17)
    for _ in range(60):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        a = random_matrix(rng, rows, cols, bound=6)
        column_lattice = hermite_row_basis([a.column(j) for j in range(cols)], rows)
        solve = int_solver(a)
        for _ in range(8):
            if rng.random() < 0.5:
                y = a.apply([rng.randint(-5, 5) for _ in range(cols)])
            else:
                y = tuple(rng.randint(-9, 9) for _ in range(rows))
            x = solve(y)
            assert x == int_solve(a, y)
            # solvability decided independently by lattice membership
            assert (x is not None) == lattice_contains(column_lattice, y)
            if x is not None:
                assert a.apply(x) == y


def test_solver_checks_the_right_hand_side_length():
    with pytest.raises(DimensionMismatch):
        int_solver(IntMatrix.identity(2))((1, 2, 3))


# -- det against references that share no code with it ------------------


def leibniz_det(a):
    """The determinant by its definition: signed products over all permutations."""
    n = a.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= a.entries[i][j]
        total += term
    return total


def plain_bareiss(a):
    """Fraction-free elimination on the first nonzero pivot of each column."""
    n = a.rows
    m = [list(r) for r in a.entries]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev


@st.composite
def small_square(draw):
    n = draw(st.integers(0, 6))
    return draw(st.one_of(dense(n, n), permutation(n), block_diagonal(n)))


@settings(max_examples=200, deadline=None)
@given(small_square())
def test_det_matches_the_leibniz_expansion(a):
    assert a.det() == leibniz_det(a)


@st.composite
def permutation_like(draw, n=30):
    """A signed rank-30 permutation matrix with a few extra entries, some past 2**64.

    "singular" repeats a row; "scaled" multiplies a row by a non-unit, so
    its column may have no ±1 entry and elimination falls back to Bareiss.
    """
    perm = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = draw(st.sampled_from([1, -1]))
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 40))):
        rows[draw(index)][draw(index)] = draw(entries)
    kind = draw(st.sampled_from(["plain", "singular", "scaled"]))
    if kind == "singular":
        i = draw(index)
        rows[(i + 1) % n] = list(rows[i])
    elif kind == "scaled":
        i, k = draw(index), draw(st.sampled_from([2, -3, BIG + 1]))
        rows[i] = [k * x for x in rows[i]]
    return IntMatrix.from_rows(rows, n)


@settings(max_examples=60, deadline=None)
@given(permutation_like())
def test_det_matches_plain_bareiss_at_rank_30(a):
    assert a.det() == plain_bareiss(a)


def test_det_of_an_all_non_unit_matrix_is_bareiss():
    a = IntMatrix.from_rows([[2, 3, 5], [7, 11, 13], [17, 19, 23]])
    assert a.det() == plain_bareiss(a) == leibniz_det(a) == -78
