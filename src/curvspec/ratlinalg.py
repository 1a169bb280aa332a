"""Small exact linear-algebra toolkit over the rationals.

Matrices are tuples of tuples of Fraction (or int), vectors are tuples.
Everything here is exact; sizes in this package never exceed 8x8.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def _rational_pair(x) -> tuple[int, int]:
    """An int or a string such as "1/2", " 2/4", "0.25" as a pair (a, b) of
    ints with b > 0; digit strings "a/b" and "a" are split as written, not
    reduced and with no Fraction.  Any other entry, a bool or a float among
    them, is refused with a ValueError that names it."""
    if type(x) is str:
        num, slash, den = x.partition("/")
        if num.isdecimal() and (den.isdecimal() or not slash) and (d := int(den or 1)):
            return int(num), d
    try:
        if isinstance(x, bool):
            raise ValueError
        if isinstance(x, (int, str)):
            q = Fraction(x)
            return q.numerator, q.denominator
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {x!r}") from exc
    raise ValueError(f"bad rational {x!r} (use integers or strings like '1/2')")


def as_vec(entries: Sequence) -> Vec:
    return tuple(Fraction(x) for x in entries)


def as_mat(rows: Sequence[Sequence]) -> Mat:
    m = tuple(as_vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def mat_vec(a: Mat, v: Sequence) -> Vec:
    return tuple(sum(map(mul, row, v)) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def char_poly(a: Mat) -> list[Fraction]:
    """Coefficients [c_0, ..., c_n] of det(xI - A) = sum c_j x^j, c_n = 1.

    Faddeev-LeVerrier recursion: exact, no eigendecomposition.
    """
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    c = Fraction(1)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c = -Fraction(sum(am[i][i] for i in range(n)), k)
        coeffs[n - k] = c
        m = tuple(
            tuple(am[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n)
        )
    return coeffs


def _hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix (row span preserved)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        # euclidean elimination below row r in this column
        while True:
            nz = [i for i in range(r, nrows) if rows[i][col] != 0]
            if not nz:
                break
            i_min = min(nz, key=lambda i: abs(rows[i][col]))
            rows[r], rows[i_min] = rows[i_min], rows[r]
            done = True
            for i in range(r + 1, nrows):
                if rows[i][col] != 0:
                    q = rows[i][col] // rows[r][col]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][col] != 0:
                        done = False
            if done:
                break
        if rows[r][col] != 0:
            if rows[r][col] < 0:
                rows[r] = [-x for x in rows[r]]
            r += 1
    return [row for row in rows if any(row)]
