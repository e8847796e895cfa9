"""Exact matrix layer: Smith/Hermite normal forms and integer solving."""

import itertools
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from qform.errors import DimensionMismatch, NoSolution
from qform.intmat import (
    IntMatrix,
    dense_row,
    hermite_row_basis,
    int_nullspace,
    int_solve,
    inverse_permutation,
    lattice_contains,
    smith_normal_form,
    sparse_row,
)


def dense_hermite(rows, width):
    """``hermite_row_basis`` on dense rows, its basis returned as dense rows."""
    return tuple(dense_row(r, width) for r in hermite_row_basis([sparse_row(r) for r in rows], width))


def solve_one(a, y):
    """``int_solve`` of the one right-hand side y, its solution as a vector."""
    x = int_solve(a, IntMatrix.from_columns([y]))
    return None if x is None else x.column(0)


def random_matrix(rng, rows, cols, bound=50):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols
    )


def check_snf(a):
    dec = smith_normal_form(a)
    assert dec.u.mul(a).mul(dec.v) == dec.d
    assert abs(dec.u.det()) == 1
    assert abs(dec.v.det()) == 1
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
        h1 = dense_hermite(rows, cols)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        # also mix in sums of rows: the lattice is unchanged
        if len(rows) >= 2:
            shuffled.append([a + b for a, b in zip(rows[0], rows[1])])
        h2 = dense_hermite(shuffled, cols)
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
    basis = hermite_row_basis([((0, 2),), ((1, 3),)], 2)
    assert lattice_contains(basis, sparse_row((2, 3)))
    assert lattice_contains(basis, sparse_row((-4, 9)))
    assert not lattice_contains(basis, sparse_row((1, 0)))
    assert not lattice_contains(basis, sparse_row((2, 2)))


def test_nullspace_and_solve():
    rng = random.Random(5)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rows, cols, bound=6)
        basis = [dense_row(r, cols) for r in int_nullspace(a)]
        for col in basis:
            assert a.apply(col) == (0,) * rows
        # the basis spans the whole kernel: full rank, and Z^cols / span is
        # torsion-free (saturated), so every Smith invariant of the basis is 1
        assert len(basis) == cols - sum(1 for x in smith_normal_form(a).diagonal if x)
        if basis:
            assert set(smith_normal_form(IntMatrix.from_rows(basis, cols)).diagonal) == {1}
        # solvable instance: pick x, solve for A x
        x = tuple(rng.randint(-5, 5) for _ in range(cols))
        y = a.apply(x)
        sol = solve_one(a, y)
        assert sol is not None
        assert a.apply(sol) == y


def test_solve_detects_unsolvable():
    a = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert solve_one(a, (1, 0)) is None
    assert solve_one(a, (2, -4)) == (1, -2)
    # one column without a solution leaves the whole system without one
    assert int_solve(a, IntMatrix.from_rows([[2, 1], [-4, 0]])) is None
    assert int_solve(a, IntMatrix.from_rows([[2, 4], [-4, 0]])) == IntMatrix.from_rows([[1, 2], [-2, 0]])


# -- permutations --------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 64).flatmap(lambda n: st.permutations(range(n))))
def test_the_inverse_permutation_gives_the_transpose(perm):
    p = IntMatrix.permutation(perm)
    assert IntMatrix.permutation(inverse_permutation(perm)) == p.transpose()
    assert p.mul(p.transpose()) == IntMatrix.identity(len(perm))


@pytest.mark.parametrize("perm", [[0, 0], [1], [0, 2], [-1, 0], [1, 1, 0]])
def test_a_permutation_matrix_refuses_what_is_no_permutation(perm):
    with pytest.raises(DimensionMismatch):
        IntMatrix.permutation(perm)


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
    return IntMatrix.from_rows([[draw(entries) for _ in range(cols)] for _ in range(rows)], cols)


@st.composite
def permutation(draw, n):
    """A permutation matrix whose ones may be replaced by other entries."""
    perm = draw(st.permutations(range(n)))
    scale = draw(st.sampled_from([1, -1, BIG + 1, -(BIG**2)]))
    return IntMatrix.from_rows([[scale if j == perm[i] else 0 for j in range(n)] for i in range(n)], n)


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
@example((IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0)))
@example((IntMatrix.from_rows([[7]]), IntMatrix.identity(1)))
@example((IntMatrix.zeros(2, 3), IntMatrix.zeros(3, 1)))
@example((IntMatrix.from_rows([[1, 2, 0], [2, 5, 4], [0, 3, 1]]), IntMatrix.identity(3)))
def test_mul_and_apply_match_the_triple_loop(pair):
    a, b = pair
    product = a.mul(b)
    expected = naive_product(a, b)
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert product.entries == expected
    # column j of A*B is A applied to column j of B
    for j in range(b.cols):
        assert a.apply(b.column(j)) == tuple(row[j] for row in expected)
    # symmetry against the pairwise definition; A*A^T is always symmetric
    pairwise = a.rows == a.cols and all(a[i, j] == a[j, i] for i in range(a.rows) for j in range(i))
    assert a.is_symmetric() == pairwise
    assert a.mul(a.transpose()).is_symmetric()


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


# -- one Smith form, every right-hand side --------------------------------


def test_solver_matches_fresh_solves_and_detects_unsolvable():
    """A k-column ``int_solve`` is its k one-column solves side by side, or None when one of them is."""
    rng = random.Random(17)
    outcomes = Counter()
    for _ in range(60):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        a = random_matrix(rng, rows, cols, bound=6)
        column_lattice = hermite_row_basis(a.transpose().sparse, rows)
        for _ in range(4):
            ys = []
            for _ in range(rng.randint(0, 4)):
                if rng.random() < 0.7:
                    ys.append(a.apply([rng.randint(-5, 5) for _ in range(cols)]))
                else:
                    ys.append(tuple(rng.randint(-9, 9) for _ in range(rows)))
            ones = [solve_one(a, y) for y in ys]
            for x, y in zip(ones, ys):
                # solvability decided independently by lattice membership
                assert (x is not None) == lattice_contains(column_lattice, sparse_row(y))
                assert x is None or a.apply(x) == y
            got = int_solve(a, IntMatrix.from_columns(ys, rows=rows))
            if None in ones:
                assert got is None
                outcomes["one fails" if ones.count(None) == 1 else "several fail"] += 1
            else:
                assert (got.rows, got.cols) == (cols, len(ys))
                assert [got.column(j) for j in range(len(ys))] == ones
                outcomes["solved, %s" % ("no columns" if not ys else "columns")] += 1
    assert set(outcomes) == {"one fails", "several fail", "solved, no columns", "solved, columns"}


def test_solver_checks_the_right_hand_side_length():
    for rows in (1, 3):
        with pytest.raises(DimensionMismatch):
            int_solve(IntMatrix.identity(2), IntMatrix.zeros(rows, 1))


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


# -- inverse from the Hermite basis against the Smith-form reference ----


def smith_inverse(a):
    """The inverse from U*A*V = D, raising unless D = I: V*U."""
    dec = smith_normal_form(a)
    if dec.d != IntMatrix.identity(a.rows):
        raise NoSolution("matrix is not unimodular")
    return dec.v.mul(dec.u)


NO_UNIT_BLOCK = IntMatrix.from_rows([[2, 3], [3, 5]])  # det 1, no ±1 entry


@st.composite
def inverse_inputs(draw):
    """Square matrices that are unimodular or nearly so, with entries past 2**64.

    A signed permutation is sheared by row operations.  "no_unit" puts a
    unimodular block without ±1 entries at a drawn position, so the
    Hermite reduction meets columns without a unit; "scaled" and
    "singular" make the matrix non-unimodular.
    """
    n = draw(st.integers(0, 8))
    perm = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["plain", "no_unit", "scaled", "singular"]))
    if kind == "no_unit" and n >= 2:
        k = draw(st.integers(0, n - 2))
        lead = IntMatrix.identity(k)
        tail = IntMatrix.identity(n - k - 2)
        rows = [list(r) for r in IntMatrix.block_diagonal([lead, NO_UNIT_BLOCK, tail]).entries]
    index = st.integers(0, max(n - 1, 0))
    for _ in range(draw(st.integers(0, 12)) if n >= 2 else 0):
        i, j = draw(index), draw(index)
        if i != j:
            c = draw(entries)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    if n and kind == "scaled":
        i, k = draw(index), draw(st.sampled_from([2, -3, BIG + 1, 0]))
        rows[i] = [k * x for x in rows[i]]
    elif n >= 2 and kind == "singular":
        i = draw(index)
        rows[(i + 1) % n] = list(rows[i])
    return IntMatrix.from_rows(rows, n)


def outcome(f, a):
    try:
        return f(a)
    except NoSolution as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(inverse_inputs())
def test_inverse_matches_the_smith_reference(a):
    inv = outcome(IntMatrix.inverse_unimodular, a)
    assert inv == outcome(smith_inverse, a)
    if isinstance(inv, IntMatrix):
        assert a.mul(inv) == inv.mul(a) == IntMatrix.identity(a.rows)


@pytest.mark.parametrize("lead", [0, 1, 3])
def test_inverse_of_a_block_without_a_unit_matches_the_smith_reference(lead):
    a = IntMatrix.block_diagonal([IntMatrix.identity(lead), NO_UNIT_BLOCK]).mul(
        IntMatrix.block_diagonal([IntMatrix.identity(lead), IntMatrix.from_rows([[1, BIG], [0, 1]])])
    )
    assert a.inverse_unimodular() == smith_inverse(a)


def test_inverse_with_unit_pivots_matches_the_smith_reference():
    a = IntMatrix.from_rows([[0, 1, BIG**2], [-1, 0, 3], [0, 0, -1]])
    assert a.inverse_unimodular() == smith_inverse(a)


@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 2), (0, 2), (2, 0)])
def test_inverse_of_a_non_square_matrix_is_refused(rows, cols):
    a = IntMatrix.diagonal([1] * min(rows, cols), rows, cols)
    with pytest.raises(NoSolution, match="^matrix is not unimodular$"):
        a.inverse_unimodular()
    with pytest.raises(NoSolution, match="^matrix is not unimodular$"):
        smith_inverse(a)


@pytest.mark.parametrize("rows", [[[1, 1], [1, 1]], [[1, 0], [0, 2]], [[2]], [[0]]])
def test_inverse_of_a_non_unimodular_matrix_is_refused(rows):
    with pytest.raises(NoSolution, match="^matrix is not unimodular$"):
        IntMatrix.from_rows(rows).inverse_unimodular()


def test_inverse_of_the_empty_matrix():
    assert IntMatrix.zeros(0, 0).inverse_unimodular() == IntMatrix.zeros(0, 0) == smith_inverse(IntMatrix.zeros(0, 0))


# -- Hermite basis against the rescanning reference ---------------------


def rescanning_hermite_row_basis(rows, width):
    """The Hermite basis by rescanning every remaining row for every column."""
    work = [list(r) for r in rows if any(r)]
    for r in work:
        if len(r) != width:
            raise DimensionMismatch("row width mismatch in lattice basis")
    fixed = 0
    for col in range(width):
        while True:
            live = [i for i in range(fixed, len(work)) if work[i][col] != 0]
            if not live:
                break
            piv = min(live, key=lambda i: (abs(work[i][col]), i))
            others = [i for i in live if i != piv]
            if not others:
                work[fixed], work[piv] = work[piv], work[fixed]
                break
            for i in others:
                q = work[i][col] // work[piv][col]
                work[i] = [x - q * y for x, y in zip(work[i], work[piv])]
        live = [i for i in range(fixed, len(work)) if work[i][col] != 0]
        if not live:
            continue
        if work[fixed][col] < 0:
            work[fixed] = [-x for x in work[fixed]]
        p = work[fixed][col]
        for i in range(fixed):
            q = work[i][col] // p
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[fixed])]
        fixed += 1
    return tuple(tuple(r) for r in work[:fixed] if any(r))


@st.composite
def row_lists(draw):
    """Row lists with zero rows, repeated rows, empty columns and entries past 2**64."""
    width = draw(st.integers(0, 9))
    entry = st.one_of(st.just(0), st.integers(-4, 4), entries)
    rows = [[draw(entry) for _ in range(width)] for _ in range(draw(st.integers(0, 8)))]
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.append([0] * width)
    return rows, width


@settings(max_examples=200, deadline=None)
@given(row_lists())
def test_hermite_matches_the_rescanning_reference(case):
    rows, width = case
    assert dense_hermite(rows, width) == rescanning_hermite_row_basis(rows, width)


def test_hermite_of_stacked_rows_matches_the_reference():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        rows = [r + r for r in a] + [r + [0] * n for r in b]
        assert dense_hermite(rows, 2 * n) == rescanning_hermite_row_basis(rows, 2 * n)


def test_hermite_checks_the_width_of_nonzero_rows_only():
    assert dense_hermite([[0, 0, 0], [1, 2]], 2) == rescanning_hermite_row_basis([[0, 0, 0], [1, 2]], 2)
    for basis in (dense_hermite, rescanning_hermite_row_basis):
        with pytest.raises(DimensionMismatch):
            basis([[1, 2], [0, 0, 1]], 2)


# -- block matrices against the former index loop ------------------------


def looped_block_diagonal(blocks):
    """diag(blocks) filled entry by entry into a zero matrix."""
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    data = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                data[r0 + i][c0 + j] = b.entries[i][j]
        r0 += b.rows
        c0 += b.cols
    return IntMatrix.from_rows(data, cols)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(lambda s: dense(*s)), max_size=4))
@example([IntMatrix.zeros(2, 0), IntMatrix.zeros(0, 3), IntMatrix.identity(1)])
def test_block_diagonal_matches_the_index_loop(blocks):
    assert IntMatrix.block_diagonal(blocks) == looped_block_diagonal(blocks)


def test_block_pattern_names_its_blocks():
    assert IntMatrix.block_pattern(("0 I", "I D"), (0, 1)).tolist() == [
        [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 1],
    ]
    assert IntMatrix.block_pattern(("I D", "0 -I"), (1,)).tolist() == [[1, 1], [0, -1]]
    assert IntMatrix.block_pattern(("0 I", "I 0"), ()) == IntMatrix.zeros(0, 0)


# -- normal forms against oracles that share no code with intmat ----------


def determinantal_divisors(rows, m, n):
    """d_k = gcd of the k×k minors (Leibniz), k = 0..min(m, n); d_0 = 1."""
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                g = math.gcd(g, leibniz_det(IntMatrix.from_rows([[rows[i][j] for j in ci] for i in ri], k)))
        divisors.append(g)
    return divisors


@st.composite
def structured_small(draw):
    """Up to 5×5 with scaled rows and columns and repeated rows, so the divisors are not all 1."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = [[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    row_scale = [draw(st.sampled_from([1, 2, 3, 6])) for _ in range(m)]
    col_scale = [draw(st.sampled_from([1, 2, 5])) for _ in range(n)]
    return [[x * row_scale[i] * col_scale[j] for j, x in enumerate(r)] for i, r in enumerate(rows)], m, n


@settings(max_examples=150, deadline=None)
@given(structured_small())
@example(([[2, 0], [0, 3]], 2, 2))
@example(([[0, 0, 0]], 1, 3))
def test_smith_diagonal_is_the_ratio_of_determinantal_divisors(case):
    rows, m, n = case
    d = determinantal_divisors(rows, m, n)
    expected = tuple(d[k] // d[k - 1] if d[k - 1] else 0 for k in range(1, min(m, n) + 1))
    assert smith_normal_form(IntMatrix.from_rows(rows, n)).diagonal == expected


def scrambled(rng, rows):
    """``rows`` after random swaps, negations and additions of multiples of one row to another."""
    work = [list(r) for r in rows]
    for _ in range(rng.randint(0, 12)):
        i, j = rng.randrange(len(work)), rng.randrange(len(work))
        kind = rng.randrange(3)
        if kind == 0:
            work[i], work[j] = work[j], work[i]
        elif kind == 1:
            work[i] = [-x for x in work[i]]
        elif i != j:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            work[i] = [x + c * y for x, y in zip(work[i], work[j])]
    return work


def test_hermite_basis_is_unchanged_by_unimodular_row_operations():
    rng = random.Random(37)
    for _ in range(150):
        width = rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(width)] for _ in range(rng.randint(1, 6))]
        basis = dense_hermite(rows, width)
        assert dense_hermite(scrambled(rng, rows), width) == basis
        assert dense_hermite(scrambled(rng, rows) + [[0] * width], width) == basis


def test_invariant_factors_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(43)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        scale = [rng.choice([1, 2, 3, 4]) for _ in range(m)]
        rows = [[scale[i] * rng.randint(-9, 9) for _ in range(n)] for i in range(m)]
        theirs = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
        assert smith_normal_form(IntMatrix.from_rows(rows, n)).diagonal == tuple(int(x) for x in theirs)


def test_hermite_basis_agrees_with_sympy():
    """sympy's Hermite form is column-style and pivots from the bottom right.

    With every row reversed, `hermite_row_basis` is its column basis read backwards:
    reverse each basis row and the order of the rows.
    """
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(47)
    cases = [[[0, 0], [0, 0]], [[2, 4], [1, 2]]]
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice([1, 2, 3]) * rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            rows[-1] = [rng.choice([-2, 1, 3]) * x for x in rows[0]]  # rank-deficient
        cases.append(rows)
    for rows in cases:
        n = len(rows[0])
        ours = [r[::-1] for r in dense_hermite([r[::-1] for r in rows], n)][::-1]
        theirs = hermite_normal_form(sympy.Matrix(rows).T)
        assert ours == [tuple(int(x) for x in theirs.col(j)) for j in range(theirs.cols)]


# -- sparse kernels against the dense kernels they replaced -----------------
#
# The former dense implementations, kept as references: each works on dense
# rows of width entries and shares no code with the sparse kernel it checks.


def dense_combine(coeffs, rows, width):
    acc = None
    for c, row in zip(coeffs, rows):
        if c:
            if acc is None:
                acc = row if c == 1 else tuple(c * x for x in row)
            else:
                acc = tuple(x + c * y for x, y in zip(acc, row))
    return (0,) * width if acc is None else acc


def dense_mul(a, b):
    return tuple(dense_combine(row, b.entries, b.cols) for row in a.entries)


def dense_transpose(a):
    return tuple(zip(*a.entries)) if a.entries else tuple(() for _ in range(a.cols))


def dense_bareiss(m):
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def dense_det(a):
    """±1 pivots in row order while a column offers one, then Bareiss."""
    n = a.rows
    m = [list(r) for r in a.entries]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] in (1, -1)), None)
        if piv is None:
            return det * dense_bareiss([r[k:] for r in m[k:]])
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        p = m[k][k]
        det *= p
        pivot_row = [(j, p * m[k][j]) for j in range(k + 1, n) if m[k][j]]
        for i in range(k + 1, n):
            f = m[i][k]
            if f:
                for j, x in pivot_row:
                    m[i][j] -= f * x
    return det


def dense_hermite_reference(rows, width):
    """The bucketed Hermite basis on dense rows, reducing every basis row across the full width."""
    buckets = {}
    for r in rows:
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is not None:
            buckets.setdefault(lead, []).append(list(r))
    basis = []
    for col in range(width):
        live = buckets.pop(col, None)
        if live is None:
            continue
        while len(live) > 1:
            piv = min(live, key=lambda r: abs(r[col]))
            survivors = [piv]
            for r in live:
                if r is piv:
                    continue
                q = r[col] // piv[col]
                r = [x - q * y for x, y in zip(r, piv)]
                if r[col]:
                    survivors.append(r)
                else:
                    lead = next((j for j in range(col + 1, width) if r[j]), None)
                    if lead is not None:
                        buckets.setdefault(lead, []).append(r)
            live = survivors
        top = live[0]
        if top[col] < 0:
            top = [-x for x in top]
        for i, b in enumerate(basis):
            q = b[col] // top[col]
            if q:
                basis[i] = [x - q * y for x, y in zip(b, top)]
        basis.append(top)
    return tuple(map(tuple, basis))


def dense_lattice_contains(basis, vec):
    v = list(vec)
    for row in basis:
        piv = next((j for j, x in enumerate(row) if x != 0), None)
        if piv is not None and v[piv] % row[piv] == 0:
            q = v[piv] // row[piv]
            v = [x - q * y for x, y in zip(v, row)]
    return all(x == 0 for x in v)


def dense_nullspace(a):
    m, n = a.rows, a.cols
    rows = [a.column(j) + tuple(int(i == j) for i in range(n)) for j in range(n)]
    return [r[m:] for r in dense_hermite_reference(rows, m + n) if not any(r[:m])]


def dense_inverse(a):
    n = a.rows
    if not a.is_square:
        raise NoSolution("matrix is not unimodular")
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    basis = dense_hermite_reference([r + e for r, e in zip(a.entries, unit)], 2 * n)
    if any(r[:n] != e for r, e in zip(basis, unit)):
        raise NoSolution("matrix is not unimodular")
    return IntMatrix.from_rows([r[n:] for r in basis], n)


@settings(max_examples=300, deadline=None)
@given(product_pairs())
@example((IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0)))
@example((IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 2)))
def test_sparse_mul_and_transpose_match_the_dense_kernels(pair):
    a, b = pair
    assert a.mul(b).entries == dense_mul(a, b)
    assert a.transpose().entries == dense_transpose(a)
    assert b.transpose().transpose() == b


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_square(), permutation_like(), inverse_inputs()))
def test_sparse_det_and_inverse_match_the_dense_kernels(a):
    assert a.det() == dense_det(a)
    assert outcome(IntMatrix.inverse_unimodular, a) == outcome(dense_inverse, a)


@st.composite
def torsion_lattices(draw):
    """Row lists with relation rows d·e_j added, as the lattice of a subgroup of a group with torsion holds."""
    rows, width = draw(row_lists())
    for j in draw(st.lists(st.integers(0, width - 1), max_size=3)) if width else []:
        rows.append([draw(st.sampled_from([2, 3, 4, 6])) if i == j else 0 for i in range(width)])
    return rows, width


@settings(max_examples=300, deadline=None)
@given(st.one_of(row_lists(), torsion_lattices()), st.data())
def test_sparse_hermite_and_membership_match_the_dense_kernels(case, data):
    rows, width = case
    basis = hermite_row_basis([sparse_row(r) for r in rows], width)
    reference = dense_hermite_reference(rows, width)
    assert tuple(dense_row(r, width) for r in basis) == reference
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    member = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(width)]
    other = data.draw(st.lists(st.integers(-6, 6), min_size=width, max_size=width))
    assert lattice_contains(basis, sparse_row(member))
    assert lattice_contains(basis, sparse_row(other)) == dense_lattice_contains(reference, other)


@pytest.mark.parametrize("seed", [4, 7])
def test_dense_rank_forty_rows_build_in_time(seed):
    """Remainder rounds keep dense buckets small; meeting every row by the extended-gcd step took seconds."""
    rng = random.Random(seed)
    rows = [[rng.randint(-1, 1) for _ in range(40)] for _ in range(40)]
    start = time.perf_counter()
    basis = hermite_row_basis([sparse_row(r) for r in rows], 40)
    elapsed = time.perf_counter() - start
    assert tuple(dense_row(r, 40) for r in basis) == dense_hermite_reference(rows, 40)
    assert elapsed < 0.5


@st.composite
def kernel_inputs(draw):
    """Up to 5×6 with small entries; "repeat" makes the rows rank-deficient."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    m = [[draw(st.integers(-4, 4)) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        m[-1] = [draw(st.sampled_from([-2, 1, 3])) * x for x in m[0]]
    return IntMatrix.from_rows(m, cols)


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
@example(IntMatrix.zeros(0, 3))
@example(IntMatrix.zeros(3, 0))
def test_sparse_nullspace_matches_the_dense_kernel(a):
    assert [dense_row(r, a.cols) for r in int_nullspace(a)] == dense_nullspace(a)


@pytest.mark.parametrize(
    "row",
    [((2, 1), (0, 3)), ((0, 2), (0, 3)), ((1, 0),), ((3, 1),), ((-1, 1),)],
    ids=["unsorted", "repeated", "explicit-zero", "past-the-last-column", "negative-column"],
)
def test_the_constructor_rejects_rows_that_are_not_canonical(row):
    assert IntMatrix(2, 3, (((0, 1), (2, -4)), ())).entries == ((1, 0, -4), (0, 0, 0))
    with pytest.raises(DimensionMismatch):
        IntMatrix(2, 3, (((0, 1),), row))
