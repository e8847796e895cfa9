"""Exact integer matrices and the normal forms built on them.

All arithmetic is over arbitrary-precision Python ints, so the classic
fixed-width overflow failure mode cannot occur.  The two normal forms here
are the workhorses of everything else in the package:

* ``smith_normal_form`` returns a full decomposition U*A*V = D together
  with the inverses of U and V.  Pivots are chosen as the minimal absolute
  nonzero entry of the working block, ties broken lexicographically, which
  makes U and V reproducible across platforms.
* ``hermite_row_basis`` returns the unique row-style Hermite basis of the
  lattice spanned by the given rows (echelon shape, positive pivots,
  entries above each pivot reduced into ``[0, pivot)``).  Uniqueness of
  this form is what makes subgroup equality a plain tuple comparison.

Products go through one kernel, ``_combine``: each row of A*B is
accumulated from the rows of B that the nonzero entries of A's row pick
out, and A*v from the columns of A that the nonzero entries of v pick
out.  Zero entries are skipped, so the mostly permutation and
block-diagonal operands of the move calculus cost little more than their
nonzero entries.

Solving factors once: ``int_solver`` computes one Smith decomposition and
returns a function that solves A*x = y for any number of right-hand sides;
``int_solve`` is that solver used once.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            if not data:
                raise DimensionMismatch("cannot infer column count of empty matrix")
            cols = len(data[0])
        return IntMatrix(len(data), cols, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

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
        return self.is_square and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    # -- arithmetic ---------------------------------------------------

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return IntMatrix(
            self.rows, other.cols, tuple(_combine(row, other.entries, other.cols) for row in self.entries)
        )

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        return self.mul(other)

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
        return _combine(vec, tuple(zip(*self.entries)), self.rows)

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

    # -- exact linear algebra -----------------------------------------

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square:
            raise DimensionMismatch("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
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

    def is_unimodular(self) -> bool:
        return self.is_square and abs(self.det()) == 1

    def inverse_unimodular(self) -> "IntMatrix":
        """Inverse of a unimodular matrix (raises if D != I in the SNF)."""
        dec = smith_normal_form(self)
        if dec.d != IntMatrix.identity(self.rows):
            raise NoSolution("matrix is not unimodular")
        return dec.v.mul(dec.u)


def _combine(coeffs: Sequence[int], rows: Sequence[Vec], width: int) -> Vec:
    """The sum of c_k * rows[k] over the nonzero c_k; rows have ``width`` entries.

    This is the product kernel: row i of A*B is A's row i combining B's
    rows, and A*v is v combining A's columns.  A zero coefficient costs one
    test and a coefficient 1 reuses its row.
    """
    acc = None
    for c, row in zip(coeffs, rows):
        if c:
            if acc is None:
                acc = row if c == 1 else tuple(map(mul, repeat(c), row))
            else:
                acc = tuple(map(add, acc, map(mul, repeat(c), row)))
    return (0,) * width if acc is None else acc


@dataclass(frozen=True)
class SmithDecomposition:
    """U*A*V = D with U, V unimodular and D in Smith normal form."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.d.rows, self.d.cols)
        return tuple(self.d.entries[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms and their inverses.

    Pivot rule: minimal absolute nonzero entry of the working block, ties
    broken lexicographically by (row, column).  Diagonal entries come out
    non-negative and each divides the next.
    """
    rows, cols = a.rows, a.cols
    m = [list(r) for r in a.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    ui = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    vi = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        if i == j:
            return
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        for r in ui:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vi[i], vi[j] = vi[j], vi[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        if c == 0:
            return
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for r in ui:
            r[j] -= c * r[i]

    def add_col(i, j, c):
        # col_i += c * col_j
        if c == 0:
            return
        for r in m:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]
        vi[j] = [x - c * y for x, y in zip(vi[j], vi[i])]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]
        for r in ui:
            r[i] = -r[i]

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

    return SmithDecomposition(freeze(u, rows), freeze(m, cols), freeze(v, cols), freeze(ui, rows), freeze(vi, cols))


def hermite_row_basis(rows: Iterable[Sequence[int]], width: int) -> tuple[Vec, ...]:
    """Canonical row Hermite basis of the lattice spanned by ``rows``.

    The result is the unique echelon basis: pivot columns strictly
    increase, pivots are positive, and every entry above a pivot lies in
    ``[0, pivot)``.  Zero input rows are discarded.
    """
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
    """Basis (as columns) of the integer solutions of A*x = 0."""
    dec = smith_normal_form(a)
    free = []
    limit = min(a.rows, a.cols)
    for i in range(a.cols):
        if i >= limit or dec.d.entries[i][i] == 0:
            free.append(dec.v.column(i))
    return free


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
