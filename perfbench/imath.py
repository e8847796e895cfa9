"""Integer matrix helpers for generating inputs and checking answers.

Nothing here imports qform: the checks must not trust the code they
check.  Matrices are lists of rows; vectors are lists.  All arithmetic
is exact.
"""

from __future__ import annotations

from fractions import Fraction

# converted at once, below the interpreter's 4300-digit int/str limit
_CHUNK = 4000  # decimal digits
_CHUNK_BITS = 13000  # bits: 2**13000 has 3914 digits


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a):
    return [list(c) for c in zip(*a)]


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def det(a):
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(r) for r in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def hnf(rows, width):
    """Row Hermite form of the lattice spanned by ``rows``: the canonical
    basis with positive pivots and entries above each pivot in [0, pivot)."""
    work = [list(r) for r in rows if any(r)]
    out = []
    for col in range(width):
        live = [r for r in work if r[col]]
        work = [r for r in work if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            nxt = [piv]
            for r in live[1:]:
                q = r[col] // piv[col]
                r = [x - q * y for x, y in zip(r, piv)]
                (nxt if r[col] else work).append(r)
            live = nxt
        if live:
            piv = live[0] if live[0][col] > 0 else [-x for x in live[0]]
            for i, r in enumerate(out):
                q = r[col] // piv[col]
                if q:
                    out[i] = [x - q * y for x, y in zip(r, piv)]
            out.append(piv)
        work = [r for r in work if any(r)]
    return [tuple(r) for r in out]


def same_lattice(a, b, width):
    return hnf(a, width) == hnf(b, width)


def unimodular_inverse(a):
    """Inverse of a unimodular matrix by exact Gauss-Jordan elimination.

    Raises ValueError when the matrix is not unimodular.
    """
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            raise ValueError("singular matrix")
        m[c], m[p] = m[p], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    inv = [row[n:] for row in m]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def random_unimodular(rng, n, ops):
    """A random unimodular U built from ``ops`` elementary row operations,
    returned together with its inverse."""
    u = identity(n)
    ui = identity(n)
    for _ in range(ops if n else 0):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            u[j] = [x + c * y for x, y in zip(u[j], u[i])]  # row_j += c row_i
            for row in ui:  # col_i -= c col_j
                row[i] -= c * row[j]
        elif kind == 1:
            u[i], u[j] = u[j], u[i]
            for row in ui:
                row[i], row[j] = row[j], row[i]
        else:
            u[i] = [-x for x in u[i]]
            for row in ui:
                row[i] = -row[i]
    return u, ui


# -- decimal conversion without the interpreter's digit limit ----------


def decimal_to_int(s):
    """Parse a decimal string of any length."""
    neg = s.startswith("-")
    body = s[1:] if neg else s
    if not body.isascii() or not body.isdigit():
        raise ValueError("not a decimal integer: %.40r" % s)
    value = _parse_digits(body)
    return -value if neg else value


def _parse_digits(body):
    if len(body) <= _CHUNK:
        return int(body)
    mid = len(body) // 2
    return _parse_digits(body[:mid]) * 10 ** (len(body) - mid) + _parse_digits(body[mid:])


def int_to_decimal(n):
    """Decimal string of an integer of any size."""
    if n < 0:
        return "-" + int_to_decimal(-n)
    if n.bit_length() <= _CHUNK_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of the decimal digits
    hi, lo = divmod(n, 10**k)
    return int_to_decimal(hi) + int_to_decimal(lo).zfill(k)
