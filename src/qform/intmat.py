"""Exact integer matrices and the normal forms built on them.

All arithmetic is over arbitrary-precision Python ints, so the classic
fixed-width overflow failure mode cannot occur.  The two normal forms here
are the workhorses of everything else in the package:

* ``smith_normal_form`` returns a full decomposition U*A*V = D.  Pivots
  are chosen as the minimal absolute nonzero entry of the working block,
  ties broken lexicographically, which makes U and V reproducible across
  platforms.
* ``hermite_row_basis`` returns the unique row-style Hermite basis of the
  lattice spanned by the given rows (echelon shape, positive pivots,
  entries above each pivot reduced into ``[0, pivot)``).  Uniqueness of
  this form is what makes subgroup equality a plain tuple comparison.
  Rows are kept by their leading column, so a column that leads no row
  costs nothing.

Kernels and inverses come from Hermite bases too: ``int_nullspace`` and
``inverse_unimodular`` compute no Smith form.

Matrix products go through one kernel, ``_combine``: each row of A*B is
accumulated from the rows of B that the nonzero entries of A's row pick
out.  Zero entries are skipped, so the mostly permutation and
block-diagonal operands of the move calculus cost little more than their
nonzero entries.  A*v is one dot product per row of A, with no transpose.

Solving factors once: ``int_solver`` computes one Smith decomposition and
returns a function that solves A*x = y for any number of right-hand sides;
``int_solve`` is that solver used once.

``det`` eliminates on ±1 pivots while a column offers one, touching only
the rows that are nonzero in the pivot column, so a mostly permutation
matrix costs about its nonzero entries.  At the first column without a ±1
entry it hands the remaining block to fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add, mul
from typing import Callable, Iterable, Sequence

from .errors import DimensionMismatch, NoSolution

Vec = tuple[int, ...]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix."""

    rows: int
    cols: int
    entries: tuple[Vec, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        if len(self.entries) != self.rows:
            raise DimensionMismatch("row count does not match entries")
        if any(len(r) != self.cols for r in self.entries):
            raise DimensionMismatch("ragged rows in matrix")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(map(tuple, rows))
        if cols is None:
            if not data:
                raise DimensionMismatch("cannot infer column count of empty matrix")
            cols = len(data[0])
        return IntMatrix(len(data), cols, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, ((0,) * cols,) * rows)

    @staticmethod
    def diagonal(diag: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        n = len(diag)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        return IntMatrix(
            rows,
            cols,
            tuple(
                tuple(diag[i] if i == j and i < n else 0 for j in range(cols))
                for i in range(rows)
            ),
        )

    @staticmethod
    def permutation(perm: Sequence[int]) -> "IntMatrix":
        """The permutation matrix under which new slot i holds old perm[i]."""
        n = len(perm)
        return IntMatrix(n, n, tuple(tuple(1 if j == p else 0 for j in range(n)) for p in perm))

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        if not cols:
            if rows is None:
                raise DimensionMismatch("cannot infer row count of empty column list")
            return IntMatrix.zeros(rows, 0)
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise DimensionMismatch("ragged columns")
        return IntMatrix(height, len(cols), tuple(tuple(c[i] for c in cols) for i in range(height)))

    # -- basic access -------------------------------------------------

    def __getitem__(self, idx: tuple[int, int]) -> int:
        i, j = idx
        return self.entries[i][j]

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def tolist(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square and self.entries == tuple(zip(*self.entries))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    # -- arithmetic ---------------------------------------------------

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return IntMatrix(
            self.rows, other.cols, tuple(_combine(row, other.entries, other.cols) for row in self.entries)
        )

    def add(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
        )

    def sub(self, other: "IntMatrix") -> "IntMatrix":
        return self.add(other.neg())

    def neg(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(-x for x in r) for r in self.entries))

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(k * x for x in r) for r in self.entries))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.entries else tuple(() for _ in range(self.cols)))

    def apply(self, vec: Sequence[int]) -> Vec:
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return tuple(sum(map(mul, row, vec)) for row in self.entries)

    # -- composition helpers ------------------------------------------

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return IntMatrix(self.rows, self.cols + other.cols, tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)))

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return IntMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    @staticmethod
    def block_diagonal(blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        """diag(blocks): each block's rows padded with zeros to either side.

        A block may have no rows or no columns; it then only shifts the
        blocks after it right or down.
        """
        cols = sum([b.cols for b in blocks])
        data = []
        left = 0
        for b in blocks:
            before, after = (0,) * left, (0,) * (cols - left - b.cols)
            data += [before + row + after for row in b.entries]
            left += b.cols
        return IntMatrix(len(data), cols, tuple(data))

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

        Column by column, a row whose entry in the column is ±1 becomes the
        pivot row, and only the rows that are nonzero in the column are
        updated, along the pivot row's nonzero entries.  With pivots ±1 every
        entry stays an integer minor, so no division is needed.  The first
        column without a ±1 entry hands the remaining block to fraction-free
        (Bareiss) elimination; a zero column gives 0.
        """
        if not self.is_square:
            raise DimensionMismatch("determinant of non-square matrix")
        n = self.rows
        m = [list(r) for r in self.entries]
        det = 1
        for k in range(n):
            piv = next((i for i in range(k, n) if m[i][k] in (1, -1)), None)
            if piv is None:
                return det * _bareiss_det([r[k:] for r in m[k:]])
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                det = -det
            p = m[k][k]
            det *= p
            pivot_row = [(j, p * m[k][j]) for j in range(k + 1, n) if m[k][j]]
            for i in range(k + 1, n):
                row = m[i]
                f = row[k]
                if f:
                    for j, x in pivot_row:
                        row[j] -= f * x
        return det

    def is_unimodular(self) -> bool:
        return self.is_square and abs(self.det()) == 1

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
        unit = IntMatrix.identity(n).entries
        basis = hermite_row_basis([r + e for r, e in zip(self.entries, unit)], 2 * n)
        if any(r[:n] != e for r, e in zip(basis, unit)):
            raise NoSolution("matrix is not unimodular")
        return IntMatrix(n, n, tuple(r[n:] for r in basis))


def _combine(coeffs: Sequence[int], rows: Sequence[Vec], width: int) -> Vec:
    """The sum of c_k * rows[k] over the nonzero c_k; rows have ``width`` entries.

    This is the product kernel: row i of A*B is A's row i combining B's
    rows.  A zero coefficient costs one test and a coefficient 1 reuses its
    row.
    """
    acc = None
    for c, row in zip(coeffs, rows):
        if c:
            if acc is None:
                acc = row if c == 1 else tuple(map(mul, repeat(c), row))
            else:
                acc = tuple(map(add, acc, map(mul, repeat(c), row)))
    return (0,) * width if acc is None else acc


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
        return tuple(self.d.entries[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with its unimodular transforms.

    Pivot rule: minimal absolute nonzero entry of the working block, ties
    broken lexicographically by (row, column).  Diagonal entries come out
    non-negative and each divides the next.
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

    def freeze(data, width):
        return IntMatrix(len(data), width, tuple(map(tuple, data)))

    return SmithDecomposition(freeze(u, rows), freeze(m, cols), freeze(v, cols))


def hermite_row_basis(rows: Iterable[Sequence[int]], width: int) -> tuple[Vec, ...]:
    """Canonical row Hermite basis of the lattice spanned by ``rows``.

    The result is the unique echelon basis: pivot columns strictly
    increase, pivots are positive, and every entry above a pivot lies in
    ``[0, pivot)``.  Zero input rows are discarded.

    Rows wait in buckets keyed by their leading column.  Columns are taken
    in order: the rows of a column's bucket are reduced by Euclid against
    the one of least magnitude until a single row leads there; every
    remainder moves to the bucket of its new leading column (or vanishes).
    The survivor becomes the next basis row and reduces the entries above
    it.  A column no row leads in costs one lookup.
    """
    buckets: dict[int, list[list[int]]] = {}
    for r in rows:
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is None:
            continue
        if len(r) != width:
            raise DimensionMismatch("row width mismatch in lattice basis")
        buckets.setdefault(lead, []).append(list(r))
    basis: list[list[int]] = []
    for col in range(width):
        live = buckets.pop(col, None)
        if live is None:
            continue
        while len(live) > 1:
            piv = min(live, key=lambda r: abs(r[col]))
            p = piv[col]
            survivors = [piv]
            for r in live:
                if r is piv:
                    continue
                q = r[col] // p
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
        p = top[col]
        for i, b in enumerate(basis):
            q = b[col] // p
            if q:
                basis[i] = [x - q * y for x, y in zip(b, top)]
        basis.append(top)
    return tuple(map(tuple, basis))


def lattice_contains(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Membership of ``vec`` in the lattice with Hermite row basis ``basis``."""
    v = list(vec)
    for row in basis:
        piv = next((j for j, x in enumerate(row) if x != 0), None)
        if piv is None:
            continue
        if v[piv] % row[piv] == 0:
            q = v[piv] // row[piv]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
    return all(x == 0 for x in v)


def int_nullspace(a: IntMatrix) -> list[Vec]:
    """Hermite row basis of the integer solutions of A*x = 0.

    The rows (column j of A | e_j) span {(A*x, x)}; in their Hermite basis
    the tails of the rows whose head (first ``a.rows`` entries) is zero
    are echelon and reduced, so they are the kernel's Hermite basis.
    """
    m, n = a.rows, a.cols
    rows = [a.column(j) + tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    return [r[m:] for r in hermite_row_basis(rows, m + n) if not any(r[:m])]


def int_solver(a: IntMatrix) -> Callable[[Sequence[int]], Vec | None]:
    """Factor A once; the result maps y to one integer solution of A*x = y, or None.

    The particular solution is the canonical one coming from the Smith
    decomposition, so it is the same for every right-hand side as a fresh
    ``int_solve`` would give.
    """
    dec = smith_normal_form(a)
    limit = min(a.rows, a.cols)
    diag = [dec.d.entries[i][i] if i < limit else 0 for i in range(a.rows)]

    def solve(y: Sequence[int]) -> Vec | None:
        if len(y) != a.rows:
            raise DimensionMismatch("right-hand side length mismatch")
        uy = dec.u.apply(y)
        w = [0] * a.cols
        for i, d in enumerate(diag):
            if d == 0:
                if uy[i] != 0:
                    return None
            else:
                if uy[i] % d != 0:
                    return None
                w[i] = uy[i] // d
        return dec.v.apply(w)

    return solve


def int_solve(a: IntMatrix, y: Sequence[int]) -> Vec | None:
    """One integer solution of A*x = y, or None (see ``int_solver``)."""
    return int_solver(a)(y)
