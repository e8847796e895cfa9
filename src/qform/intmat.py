"""Exact integer matrices on sparse rows, and the normal forms built on them.

All arithmetic is over arbitrary-precision Python ints, so the classic
fixed-width overflow failure mode cannot occur.

Every row, of a matrix and of a lattice basis alike, is a ``Row``: the
tuple of (column, value) pairs of its nonzero entries, columns strictly
increasing.  That form is unique, so equal matrices and equal lattices
compare and hash equal as plain tuples.  The matrices of the move
calculus are nearly permutations or block diagonals, 1–4 % nonzero, and
every kernel here costs about the nonzero entries it reads and writes,
not the width squared:

* ``_combine`` is the one row kernel: a linear combination of sparse rows.
  Row i of A*B combines the rows of B that row i of A picks out; a sum,
  and two rows meeting in a Hermite column, are combinations of two
  rows.  A single coefficient 1 reuses its row, so a permutation costs
  its rows.
* ``hermite_row_basis`` returns the unique row-style Hermite basis of the
  lattice spanned by the given rows (echelon shape, positive pivots,
  entries above each pivot reduced into ``[0, pivot)``).  Rows wait in
  buckets keyed by their leading column, and a new pivot reduces only
  the basis rows that are nonzero in its column.  Rows leading in one
  column meet by remainder rounds while more than two are left, which
  keeps dense rows small, and the last pair by one extended-gcd step.
  Columns below its ``head`` argument make no basis row, so a caller
  that keeps only the rows leading past them pays for no Bézout inverse
  of a discarded head.
* ``det`` eliminates on ±1 pivots while a column offers one, updating
  only the rows nonzero in the pivot column along the pivot row's
  entries; at the first column without a ±1 entry it hands the remaining
  block to fraction-free (Bareiss) elimination.

Kernels, inverses and lattice membership come from Hermite bases:
``int_nullspace``, ``inverse_unimodular`` and ``lattice_contains``
compute no Smith form.  ``int_nullspace`` and ``abelian``'s kernels,
preimages and meets pass ``head``.

The dense rows (``IntMatrix.entries``) are built on each access, never
stored: the format-1 serializer writes them, ``smith_normal_form`` works
on a dense copy, and a few small readers index them.
``smith_normal_form`` returns a full decomposition U*A*V = D with pivots
chosen as the minimal absolute nonzero entry of the working block, ties
broken lexicographically, which makes U and V reproducible.  Solving
is ``int_solve`` alone: it takes every right-hand side at once, as the
columns of one matrix, and solves them all from one Smith decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress
from math import gcd
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NoSolution

Vec = tuple[int, ...]
Row = tuple[tuple[int, int], ...]


def sparse_row(vec: Sequence[int]) -> Row:
    """The (column, value) pairs of the nonzero entries of a dense vector."""
    return tuple(compress(enumerate(vec), vec))


def dense_row(row: Row, width: int) -> Vec:
    """The dense vector of ``width`` entries with the given nonzero entries."""
    return tuple(_dense_list(row, width))


def _dense_list(row: Row, width: int) -> list[int]:
    out = [0] * width
    for j, x in row:
        out[j] = x
    return out


def shifted_row(row: Row, by: int) -> Row:
    """``row`` with every column moved by ``by``."""
    return tuple([(j + by, x) for j, x in row]) if by else row


@lru_cache(maxsize=8)
def _unit_rows(n: int) -> tuple[Row, ...]:
    """The rows of the n × n identity, made once per size and shared by its identity and permutation matrices."""
    return tuple([((i, 1),) for i in range(n)])


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored by sparse rows.

    ``sparse[i]`` is row i as a ``Row``.  The constructor refuses a row
    that is not in that canonical form (unsorted or repeated columns, an
    explicit zero, a column out of range), so equality stays exact.
    """

    rows: int
    cols: int
    sparse: tuple[Row, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        if len(self.sparse) != self.rows:
            raise DimensionMismatch("row count does not match entries")
        for row in self.sparse:
            last = -1
            for j, x in row:
                if not 0 <= j < self.cols:
                    raise DimensionMismatch("column out of range in a sparse row")
                if j <= last:
                    raise DimensionMismatch("sparse row columns are not strictly increasing")
                if not x:
                    raise DimensionMismatch("explicit zero in a sparse row")
                last = j

    @classmethod
    def _of(cls, rows: int, cols: int, sparse: tuple[Row, ...]) -> "IntMatrix":
        """A matrix whose rows a kernel here built canonical; nothing is re-checked."""
        m = object.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, sparse=sparse)
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        """The matrix with the given dense rows."""
        data = list(map(tuple, rows))
        if cols is None:
            if not data:
                raise DimensionMismatch("cannot infer column count of empty matrix")
            cols = len(data[0])
        if cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        if any(len(r) != cols for r in data):
            raise DimensionMismatch("ragged rows in matrix")
        return IntMatrix._of(len(data), cols, tuple(map(sparse_row, data)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        if n < 0:
            raise DimensionMismatch("negative matrix dimensions")
        return IntMatrix._of(n, n, _unit_rows(n))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, ((),) * rows)

    @staticmethod
    def diagonal(diag: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        n = len(diag)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        return IntMatrix(
            rows, cols, tuple(((i, diag[i]),) if i < min(n, cols) and diag[i] else () for i in range(rows))
        )

    @staticmethod
    def permutation(perm: Sequence[int]) -> "IntMatrix":
        """The permutation matrix under which new slot i holds old perm[i]; see ``inverse_permutation``."""
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise DimensionMismatch("not a permutation of range(%d)" % n)
        units = _unit_rows(n)
        return IntMatrix._of(n, n, tuple([units[p] for p in perm]))

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        if not cols:
            if rows is None:
                raise DimensionMismatch("cannot infer row count of empty column list")
            return IntMatrix.zeros(rows, 0)
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise DimensionMismatch("ragged columns")
        return IntMatrix.from_rows(cols, height).transpose()

    # -- basic access -------------------------------------------------

    @property
    def entries(self) -> tuple[Vec, ...]:
        """The dense rows, built on each access."""
        return tuple(dense_row(r, self.cols) for r in self.sparse)

    def __getitem__(self, idx: tuple[int, int]) -> int:
        i, j = idx
        return dict(self.sparse[i]).get(j, 0)

    def column(self, j: int) -> Vec:
        return tuple(dict(r).get(j, 0) for r in self.sparse)

    def tolist(self) -> list[list[int]]:
        return [_dense_list(r, self.cols) for r in self.sparse]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        """Whether each entry (i, j, x) has its mirror (j, i, x); no transpose is built."""
        if self.rows != self.cols:
            return False
        rows = self.sparse
        at = list(map(dict, rows))
        for i, row in enumerate(rows):
            for j, x in row:
                if at[j].get(i) != x:
                    return False
        return True

    def is_zero(self) -> bool:
        return not any(self.sparse)

    # -- arithmetic ---------------------------------------------------

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        rows = other.sparse
        return IntMatrix._of(self.rows, other.cols, tuple([_combine(row, rows) for row in self.sparse]))

    def add(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        sums = tuple([_combine(_SUM, pair) for pair in zip(self.sparse, other.sparse)])
        return IntMatrix._of(self.rows, self.cols, sums)

    def sub(self, other: "IntMatrix") -> "IntMatrix":
        return self.add(other.neg())

    def neg(self) -> "IntMatrix":
        return self.scale(-1)

    def scale(self, k: int) -> "IntMatrix":
        if not k:
            return IntMatrix.zeros(self.rows, self.cols)
        return IntMatrix._of(self.rows, self.cols, tuple(tuple([(j, k * x) for j, x in r]) for r in self.sparse))

    def transpose(self) -> "IntMatrix":
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.sparse):
            for j, x in row:
                cols[j].append((i, x))
        return IntMatrix._of(self.cols, self.rows, tuple(map(tuple, cols)))

    def apply(self, vec: Sequence[int]) -> Vec:
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return tuple([sum([vec[j] * x for j, x in row]) for row in self.sparse])

    # -- composition helpers ------------------------------------------

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        by = self.cols
        return IntMatrix._of(
            self.rows, by + other.cols, tuple([a + shifted_row(b, by) for a, b in zip(self.sparse, other.sparse)])
        )

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return IntMatrix._of(self.rows + other.rows, self.cols, self.sparse + other.sparse)

    @staticmethod
    def block_diagonal(blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        """diag(blocks): each block's rows moved right past the blocks before it.

        A block may have no rows or no columns; it then only shifts the
        blocks after it right or down.
        """
        data: list[Row] = []
        left = 0
        for b in blocks:
            data += [shifted_row(row, left) for row in b.sparse]
            left += b.cols
        return IntMatrix._of(len(data), left, tuple(data))

    @staticmethod
    def block_pattern(pattern: Sequence[str], diag: Sequence[int]) -> "IntMatrix":
        """The matrix of k×k blocks named by ``pattern``, k = len(diag).

        Each string is one block row; its words name the blocks: 0, I, -I or
        D = diag(diag).
        """
        k = len(diag)
        blocks = {
            "0": IntMatrix.zeros(k, k),
            "I": IntMatrix.identity(k),
            "-I": IntMatrix.identity(k).neg(),
            "D": IntMatrix.diagonal(diag),
        }
        rows = [reduce(IntMatrix.hstack, [blocks[w] for w in row.split()]) for row in pattern]
        return reduce(IntMatrix.vstack, rows)

    # -- exact linear algebra -----------------------------------------

    def det(self) -> int:
        """Determinant by exact elimination on unit pivots, then Bareiss.

        Column by column, a live row whose entry in the column is ±1 (the
        shortest such) becomes the pivot row and leaves the live set, and
        only the live rows nonzero in the column are updated, along the
        pivot row's entries.  With pivots ±1 every entry stays an integer
        minor, so no division is needed.  The pivot rows in column order,
        then the live rows, are the rows of a block upper triangular
        matrix, so the determinant is the sign of that row order times the
        pivots times the determinant of the live block, which the first
        column without a ±1 entry hands to fraction-free (Bareiss)
        elimination.
        """
        if not self.is_square:
            raise DimensionMismatch("determinant of non-square matrix")
        n = self.rows
        rows = [dict(r) for r in self.sparse]
        where: list[set[int]] = [set() for _ in range(n)]  # column -> live rows nonzero there
        for i, row in enumerate(rows):
            for j in row:
                where[j].add(i)
        order: list[int] = []
        det = 1
        for k in range(n):
            live = where[k]
            piv = min((i for i in live if rows[i][k] in (1, -1)), key=lambda i: len(rows[i]), default=None)
            if piv is None:
                rest = sorted(set(range(n)).difference(order))
                block = [[rows[i].get(j, 0) for j in range(k, n)] for i in rest]
                return _permutation_sign(order + rest) * det * _bareiss_det(block)
            order.append(piv)
            pivot_row = rows[piv]
            p = pivot_row[k]
            det *= p
            for j in pivot_row:
                where[j].discard(piv)
            update = [(j, p * x) for j, x in pivot_row.items() if j != k]
            for i in live:
                row = rows[i]
                f = row.pop(k)
                for j, x in update:
                    v = row.get(j, 0) - f * x
                    if not v:
                        del row[j]
                        where[j].discard(i)
                    else:
                        if j not in row:
                            where[j].add(i)
                        row[j] = v
            live.clear()
        return _permutation_sign(order) * det

    def inverse_unimodular(self) -> "IntMatrix":
        """Inverse of a unimodular matrix; NoSolution for any other matrix.

        The Hermite basis of the rows (A | I) is (I | A⁻¹) exactly when A is
        unimodular: A⁻¹·(A | I) = (I | A⁻¹) lies in the row span and is a
        basis of it, it is already in Hermite form (unit pivots, zeros
        above them), and the Hermite form of a lattice is unique.  A left
        half other than I means no integer inverse exists.
        """
        if not self.is_square:
            raise NoSolution("matrix is not unimodular")
        n = self.rows
        basis = hermite_row_basis([r + ((n + i, 1),) for i, r in enumerate(self.sparse)], 2 * n)
        # pivots 1 in columns 0..n-1 leave zeros above them: the left half is then I
        if any(r[0] != (i, 1) for i, r in enumerate(basis)):
            raise NoSolution("matrix is not unimodular")
        return IntMatrix._of(n, n, tuple([shifted_row(r[1:], -n) for r in basis]))


_SUM = ((0, 1), (1, 1))


def _combine(coeffs: Row, rows: Sequence[Row]) -> Row:
    """The sparse row Σ c·rows[k] over the pairs (k, c) of ``coeffs``.

    This is the row kernel: row i of A*B is A's row i combining B's rows.
    A single coefficient 1 reuses its row.
    """
    if len(coeffs) == 1:
        k, c = coeffs[0]
        row = rows[k]
        return row if c == 1 else tuple([(j, c * x) for j, x in row])
    acc: dict[int, int] = {}
    get = acc.get
    for k, c in coeffs:
        for j, x in rows[k]:
            acc[j] = get(j, 0) + c * x
    return tuple(sorted([p for p in acc.items() if p[1]]))


def inverse_permutation(perm: Sequence[int]) -> list[int]:
    """The permutation q with q[perm[i]] = i, for perm a permutation of range(len(perm))."""
    return sorted(range(len(perm)), key=perm.__getitem__)


def _permutation_sign(perm: Sequence[int]) -> int:
    """The sign of the permutation i ↦ perm[i]: a cycle of length L is L − 1 transpositions."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            if i != start:
                sign = -sign
    return sign


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of a square list matrix by fraction-free (Bareiss) elimination; ``m`` is consumed."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
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


@dataclass(frozen=True)
class SmithDecomposition:
    """U*A*V = D with U, V unimodular and D in Smith normal form."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.d.rows, self.d.cols)
        return tuple(r[0][1] if r else 0 for r in self.d.sparse[:n])


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with its unimodular transforms.

    Pivot rule: minimal absolute nonzero entry of the working block, ties
    broken lexicographically by (row, column).  Diagonal entries come out
    non-negative and each divides the next.  The elimination works on a
    dense copy of A.
    """
    rows, cols = a.rows, a.cols
    m = [list(r) for r in a.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        if i == j:
            return
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        if c == 0:
            return
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        # col_i += c * col_j
        if c == 0:
            return
        for r in m:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = m[i][j]
                if x != 0 and (best is None or abs(x) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        return best

    def nearest_quotient(a, b):
        # Quotient with remainder of magnitude at most |b|/2; keeps the
        # Euclidean chase logarithmic instead of linear.
        q, r = divmod(a, b)
        if 2 * abs(r) > abs(b):
            q += 1
        return q

    def reduce_column(t):
        # Row operations until column t is zero below the pivot.
        while True:
            live = [i for i in range(t, rows) if m[i][t] != 0]
            if not live:
                return
            piv = min(live, key=lambda i: (abs(m[i][t]), i))
            swap_rows(t, piv)
            done = True
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    add_row(i, t, -nearest_quotient(m[i][t], m[t][t]))
                    if m[i][t] != 0:
                        done = False
            if done:
                return

    def reduce_row(t):
        # Column operations until row t is zero right of the pivot.
        while True:
            live = [j for j in range(t, cols) if m[t][j] != 0]
            if not live:
                return
            piv = min(live, key=lambda j: (abs(m[t][j]), j))
            swap_cols(t, piv)
            done = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    add_col(j, t, -nearest_quotient(m[t][j], m[t][t]))
                    if m[t][j] != 0:
                        done = False
            if done:
                return

    t = 0
    limit = min(rows, cols)
    while t < limit:
        piv = find_pivot(t)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        # Alternate row/column clearing.  A column swap inside reduce_row can
        # reintroduce entries below the pivot, but only while shrinking the
        # pivot, so the loop terminates.
        while True:
            reduce_column(t)
            reduce_row(t)
            if all(m[i][t] == 0 for i in range(t + 1, rows)):
                break
        # enforce divisibility of the remaining block by the pivot
        d = m[t][t]
        culprit = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % d != 0:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            add_row(t, culprit, 1)
            continue
        t += 1

    for i in range(limit):
        if m[i][i] < 0:
            negate_row(i)

    return SmithDecomposition(IntMatrix.from_rows(u, rows), IntMatrix.from_rows(m, cols), IntMatrix.from_rows(v, cols))


def hermite_row_basis(rows: Iterable[Row], width: int, head: int = 0) -> tuple[Row, ...]:
    """Canonical row Hermite basis of the lattice spanned by the sparse ``rows``.

    The result is the unique echelon basis: pivot columns strictly
    increase, pivots are positive, and every entry above a pivot lies in
    ``[0, pivot)``.  Zero input rows are discarded.

    Rows wait in buckets keyed by their leading column, and columns are
    taken in order.  While a column's bucket holds more than two rows,
    remainder rounds run: each row r loses ⌊b/a⌋ times the row t of least
    leading magnitude (leads a of t, b of r), so r's lead drops below |a|.
    The last pair, t of lesser lead and r, meets at once: with a | b by
    r − (b/a)·t; otherwise, with g = gcd(a, b) and u·(a/g) + v·(b/g) = 1,
    by the unimodular step (t, r) ↦ (u·t + v·r, (b/g)·t − (a/g)·r), which
    leaves lead g on t and cancels r's.  Both steps are needed: the
    extended-gcd step multiplies both rows by their leads' cofactors, so a
    top row met that way with every row of a large bucket blows up on
    dense rows, while remainder rounds keep entries near the inputs' size;
    but on two rows alone remainder rounds are Euclid's chain, thousands
    of rounds for leads of thousands of digits, which the one step
    replaces.  A row whose lead is cancelled moves to the bucket of its
    new leading column (or vanishes).  The top row becomes the next basis
    row and reduces the entries above it, in the basis rows ``holders``
    lists as nonzero in its column.  A column no row leads in costs one
    lookup.

    Only the rows leading in a column ``head`` or later are returned.  A
    head column runs its remainder rounds and, for its last pair, builds
    the cancelled row alone: no inverse, no top row, no sign fix and no
    reduction of the rows above.  The rows reaching later buckets are the
    same as with ``head = 0``, and a basis row is reduced only by pivots
    right of it, so the rows returned are exactly the full basis's rows
    leading at or past ``head``.
    """
    buckets: dict[int, list[Row]] = {}
    for r in rows:
        if not r:
            continue
        if r[-1][0] >= width:
            raise DimensionMismatch("row width mismatch in lattice basis")
        buckets.setdefault(r[0][0], []).append(r)
    basis: list[dict[int, int]] = []
    holders: dict[int, set[int]] = {}  # column -> basis rows nonzero there
    for col in range(width):
        live = buckets.pop(col, None)
        if live is None:
            continue
        while len(live) > 2:
            top = min(live, key=lambda r: abs(r[0][1]))
            a = top[0][1]
            survivors = [top]
            for r in live:
                if r is not top:
                    r = _combine(((0, 1), (1, -(r[0][1] // a))), (r, top))
                    if r:
                        (survivors if r[0][0] == col else buckets.setdefault(r[0][0], [])).append(r)
            live = survivors
        top, *last = sorted(live, key=lambda r: abs(r[0][1]))
        for r in last:  # at most one row: the last pair meets by one extended-gcd step
            a, b = top[0][1], r[0][1]
            if b % a:
                g = gcd(a, b)
                a, b = a // g, b // g
                pair = (top, r)
                if col >= head:
                    u = pow(a, -1, abs(b))
                    top = _combine(((0, u), (1, (1 - u * a) // b)), pair)
                r = _combine(((0, b), (1, -a)), pair)
            else:
                r = _combine(((0, 1), (1, -(b // a))), (r, top))
            if r:
                buckets.setdefault(r[0][0], []).append(r)
        if col < head:
            continue
        if top[0][1] < 0:
            top = tuple([(j, -x) for j, x in top])
        p = top[0][1]
        for i in list(holders.get(col, ())):
            b = basis[i]
            q = b[col] // p
            if q:
                for j, x in top:
                    v = b.get(j, 0) - q * x
                    if not v:
                        del b[j]
                        holders[j].discard(i)
                    else:
                        if j not in b:
                            holders.setdefault(j, set()).add(i)
                        b[j] = v
        t = len(basis)
        for j, _ in top:
            holders.setdefault(j, set()).add(t)
        basis.append(dict(top))
    return tuple([tuple(sorted(b.items())) for b in basis])


def lattice_contains(basis: Sequence[Row], row: Row) -> bool:
    """Membership of the sparse ``row`` in the lattice with Hermite row basis ``basis``."""
    v = dict(row)
    for b in basis:
        c, p = b[0]
        x = v.get(c)
        if x:
            q, rem = divmod(x, p)
            if rem:
                return False
            for j, y in b:
                w = v.get(j, 0) - q * y
                if w:
                    v[j] = w
                else:
                    del v[j]
    return not v


def int_nullspace(a: IntMatrix) -> list[Row]:
    """Hermite row basis of the integer solutions of A*x = 0, as sparse rows.

    The rows (column j of A | e_j) span {(A*x, x)}; in their Hermite basis
    the tails of the rows whose head (first ``a.rows`` entries) is zero
    are echelon and reduced, so they are the kernel's Hermite basis.  The
    basis is built with ``head = a.rows``, so the head rows are never made.
    """
    m = a.rows
    rows = [c + ((m + j, 1),) for j, c in enumerate(a.transpose().sparse)]
    return [shifted_row(r, -m) for r in hermite_row_basis(rows, m + a.cols, m)]


def int_solve(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """X with A*X = B, or None when some column of B has no integer solution.

    One Smith decomposition U*A*V = D serves every column y of B: y is
    solvable exactly when each entry of U*y is a multiple of its diagonal
    entry of D (zero past the rank), and its solution is the canonical
    V*D⁻¹*U*y, the same whether y comes alone or beside other columns.
    """
    if b.rows != a.rows:
        raise DimensionMismatch("right-hand side row count mismatch")
    dec = smith_normal_form(a)
    diag = dec.diagonal + (0,) * (a.rows - a.cols)
    w: list[Row] = []  # the rows of D⁻¹*U*B
    for d, row in zip(diag, dec.u.mul(b).sparse):
        if row and (not d or any(x % d for _, x in row)):
            return None
        w.append(tuple([(j, x // d) for j, x in row]))
    w = w[: a.cols] + [()] * (a.cols - a.rows)
    return dec.v.mul(IntMatrix._of(a.cols, b.cols, tuple(w)))
