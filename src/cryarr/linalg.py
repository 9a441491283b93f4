"""Exact linear algebra over the integers.

Every kernel takes ``int`` vectors and returns ints; ``invert`` is the one
routine with rational output.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul

from .errors import SingularMatrixError


def dot(u, v):
    """Exact scalar product of two vectors of one length."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(map(mul, u, v))


def vec_neg(u):
    return tuple([-a for a in u])


def sign_normalize(vec):
    """Flip the vector if its first nonzero entry is negative."""
    for x in vec:
        if x != 0:
            return tuple(-y for y in vec) if x < 0 else tuple(vec)
    return tuple(vec)


def direction(vec):
    """Canonical key for the line spanned by the integer vector ``vec``:
    primitive, first nonzero entry positive."""
    g = gcd(*vec)
    return sign_normalize(tuple(x // g for x in vec) if g > 1 else vec)


def matrix_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination: a row below
    the pivot row p becomes p[c] * row - row[c] * p, divided by its gcd."""
    m = [list(row) for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                row = [p[c] * a - m[i][c] * b for a, b in zip(m[i], p)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


def invert(matrix):
    """Exact inverse of a square rational matrix (Gauss-Jordan)."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def kernel_vector(rows, dim):
    """Primitive integer generator of the kernel of ``dim - 1`` integer
    covectors: their signed maximal minors (a generalised cross product,
    in dim 3 the cross product itself) divided by their gcd.  None if there
    are fewer rows or they are dependent."""
    if len(rows) > dim - 1:
        raise ValueError("kernel_vector takes at most dim - 1 rows")
    if len(rows) < dim - 1:
        return None
    if dim == 1:
        return (1,)
    cols = list(zip(*rows))
    vec = [(-1) ** j * _det(cols[:j] + cols[j + 1:]) for j in range(dim)]
    g = gcd(*vec)
    if g == 0:
        return None
    return tuple(x // g for x in vec)


def smith_normal_form(matrix):
    """Elementary divisors d1 | d2 | ... of an integer matrix.

    Returns min(rows, cols) non-negative integers forming a divisibility
    chain (zeros at the end).  Uses elementary row/column reduction with
    the minimal nonzero absolute value as pivot.  An entry that is not an
    ``int`` raises ValueError.
    """
    a = [list(row) for row in matrix]
    _require_ints(a)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    n = min(rows, cols)
    if n == 0:
        return ()
    divisors = []
    t = 0
    while t < n:
        pos = _min_nonzero(a, t, rows, cols)
        if pos is None:
            break
        while True:
            i0, j0 = pos
            if i0 != t:
                a[t], a[i0] = a[i0], a[t]
            if j0 != t:
                for row in a:
                    row[t], row[j0] = row[j0], row[t]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // p
                    for j in range(t, cols):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // p
                    for i in range(t, rows):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        dirty = True
            if not dirty:
                offender = None
                for i in range(t + 1, rows):
                    if any(a[i][j] % p for j in range(t + 1, cols)):
                        offender = i
                        break
                if offender is None:
                    break
                for j in range(t, cols):
                    a[t][j] += a[offender][j]
            pos = _min_nonzero(a, t, rows, cols)
        divisors.append(abs(a[t][t]))
        t += 1
    divisors += [0] * (n - len(divisors))
    return tuple(divisors)


def _require_ints(rows):
    if not all(isinstance(x, int) for row in rows for x in row):
        raise ValueError("entries must be integers")


def _min_nonzero(a, t, rows, cols):
    best = None
    pos = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = abs(a[i][j])
            if v and (best is None or v < best):
                best = v
                pos = (i, j)
    return pos


def _det(rows):
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    a = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def vol2(a, b):
    """Vol_2 of two integer vectors, ``vol(2, [a, b])``: the gcd of the
    2 x 2 minors (in rank 3 the entries of a x b, in rank 2 the one minor's
    absolute value); in rank 1 the gcd of a and b, the one elementary
    divisor."""
    if len(a) == 3:
        return gcd(a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                   a[0] * b[1] - a[1] * b[0])
    if len(a) == 2:
        return abs(a[0] * b[1] - a[1] * b[0])
    if len(a) == 1:
        return gcd(a[0], b[0])
    return gcd(*(a[i] * b[j] - a[j] * b[i] for i, j in combinations(range(len(a)), 2)))


def vol(m, vectors):
    """Product of the elementary divisors of the r x m integer matrix whose
    columns are the first ``m`` vectors: the gcd of its k x k minors, with
    k = min(m, r).

    For m = 1 this is the gcd of the coordinates, for m = r the absolute
    value of the determinant.  For m <= r a zero column makes the result 0;
    for m > r only the minors that hold it vanish, so
    vol(3, [(1, 0), (0, 1), (0, 0)]) = 1.  An entry that is not an ``int``
    raises ValueError.
    """
    if m < 1 or m > len(vectors):
        raise ValueError("need 1 <= m <= number of vectors")
    vs = vectors[:m]
    r = len(vs[0])
    if any(len(v) != r for v in vs):
        raise ValueError("dimension mismatch")
    _require_ints(vs)
    g = 0
    for minor in combinations(zip(*vs) if m <= r else vs, min(m, r)):
        g = gcd(g, _det(minor))
        if g == 1:
            break
    return g
