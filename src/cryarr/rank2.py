"""Rank-2 combinatorics: insertion sequences, quiddity cycles, triangulations.

A rank-2 positive system is crystallographic exactly when its slope-sorted
roots form an insertion sequence: a list of vectors in N_0^2 from (0,1) to
(1,0) built by repeatedly inserting the sum of two consecutive entries.
These sequences are in bijection with polygon triangulations, and their
quiddity cycles satisfy the frieze relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

from .errors import ExtremeRootsNotUnimodularError, NotESequenceError
from .linalg import direction

BASE = ((0, 1), (1, 0))


def esequence_children(s):
    """All sequences obtained from s by one insertion of a consecutive sum."""
    out = []
    for i in range(len(s) - 1):
        v = (s[i][0] + s[i + 1][0], s[i][1] + s[i + 1][1])
        out.append(s[: i + 1] + (v,) + s[i + 1 :])
    return out


def enumerate_esequences(n):
    """All distinct insertion sequences of length n, deduplicated by value."""
    if n < 2:
        raise ValueError("length must be at least 2")
    level = {BASE}
    for _ in range(n - 2):
        level = {c for s in level for c in esequence_children(s)}
    return level


def _find_ear(s):
    # interior index whose entry is the sum of its neighbours, or None
    for i in range(1, len(s) - 1):
        if s[i] == (s[i - 1][0] + s[i + 1][0], s[i - 1][1] + s[i + 1][1]):
            return i
    return None


def is_esequence(s) -> bool:
    """Check the insertion-sequence property by repeated ear contraction."""
    s = tuple(tuple(v) for v in s)
    if len(s) < 2 or s[0] != (0, 1) or s[-1] != (1, 0):
        return False
    while len(s) > 2:
        i = _find_ear(s)
        if i is None:
            return False
        s = s[:i] + s[i + 1 :]
    return s == BASE


def quiddity_of(s):
    """The quiddity cycle (c_1,...,c_n): v_{i-1} + v_{i+1} = c_i v_i.

    The cyclic closure takes v_0 = -v_n and v_{n+1} = -v_1, i.e. the
    positive system is continued around the origin by negation.
    """
    s = tuple(tuple(v) for v in s)
    n = len(s)
    if n < 3:
        raise ValueError("need length at least 3")
    ext = ((-s[-1][0], -s[-1][1]),) + s + ((-s[0][0], -s[0][1]),)
    out = []
    for i in range(1, n + 1):
        w = (ext[i - 1][0] + ext[i + 1][0], ext[i - 1][1] + ext[i + 1][1])
        v = ext[i]
        # solve w = c*v with c a non-negative integer
        c = None
        for k in (0, 1):
            if v[k] != 0:
                if w[k] % v[k] != 0:
                    raise NotESequenceError(f"{w} not a multiple of {v}")
                c = w[k] // v[k]
                break
        if c is None or c < 0 or (v[0] * c, v[1] * c) != w:
            raise NotESequenceError(f"{w} is not a non-negative multiple of {v}")
        out.append(c)
    return tuple(out)


def enumerate_quiddity_cycles(n):
    """Quiddity cycles of length n by the insertion recursion, starting from
    the length-2 cycle (0,0); deduplicated up to rotation."""
    if n < 2:
        raise ValueError("length must be at least 2")

    def normalize(c):
        return min(c[i:] + c[:i] for i in range(len(c)))

    level = {(0, 0)}
    for _ in range(n - 2):
        nxt = set()
        for c in level:
            m = len(c)
            for i in range(m):
                j = (i + 1) % m
                child = list(c)
                child[i] += 1
                child[j] += 1
                child.insert(i + 1, 1)
                nxt.add(normalize(tuple(child)))
        level = nxt
    return level


def frieze_product(cycle):
    """The 2x2 product of [[c,-1],[1,0]] over the cycle; -Identity for
    every quiddity cycle."""
    m = ((1, 0), (0, 1))
    for c in cycle:
        m = (
            (m[0][0] * c + m[0][1], -m[0][0]),
            (m[1][0] * c + m[1][1], -m[1][0]),
        )
    return m


def slope_sorted(vectors):
    """Sort plane vectors by slope, from the (0,1) side to the (1,0) side.

    Each vector is first normalized into the upper half plane (negating if
    necessary); comparisons use exact cross products, never division.
    """
    vs = []
    for v in vectors:
        v = tuple(v)
        if v == (0, 0):
            raise ValueError("zero vector")
        if v[1] < 0 or (v[1] == 0 and v[0] < 0):
            v = (-v[0], -v[1])
        vs.append(v)

    def cmp(a, b):
        cr = a[0] * b[1] - a[1] * b[0]
        return -1 if cr < 0 else (1 if cr > 0 else 0)

    return sorted(vs, key=cmp_to_key(cmp))


def is_crystallographic_rank2(r_pos):
    """Decide whether a rank-2 positive system is crystallographic.

    Sorts the roots by slope, applies the unique unimodular change of basis
    taking the extreme roots to (0,1) and (1,0), and tests the insertion
    property.  Returns (True, sequence) or (False, witness)."""
    vs = slope_sorted(r_pos)
    if len({direction(v) for v in vs}) != len(vs):
        raise ValueError("parallel roots in input")
    if len(vs) < 2:
        raise ValueError("need at least two roots")
    a, b = vs[0], vs[-1]
    det = a[0] * b[1] - a[1] * b[0]
    if det not in (1, -1):
        raise ExtremeRootsNotUnimodularError(
            f"extreme roots {a}, {b} span a sublattice of index {abs(det)}"
        )
    # M a = (0,1), M b = (1,0)  =>  M = [[0,1],[1,0]] * [a b]^(-1)
    m = ((-a[1] * det, a[0] * det), (b[1] * det, -b[0] * det))
    seq = tuple(
        (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1]) for v in vs
    )
    for v in seq:
        if v[0] < 0 or v[1] < 0:
            return False, v
    if not is_esequence(seq):
        # not an insertion sequence (ear contraction stops before
        # ((0,1), (1,0))): the witness is the whole transformed sequence
        return False, seq
    return True, seq


@dataclass(frozen=True)
class Triangulation:
    n: int
    diagonals: frozenset


def triangulation_of(s) -> Triangulation:
    """Triangulation of the n-gon encoded by a length-n insertion sequence.

    Each ear contraction removes one polygon vertex and records the chord
    closing the triangle; the result is independent of contraction order."""
    s = tuple(tuple(v) for v in s)
    n = len(s)
    if not is_esequence(s):
        raise NotESequenceError("not an insertion sequence")
    active = list(range(n))
    seq = list(s)
    diagonals = set()
    while len(seq) > 3:
        i = _find_ear(seq)
        chord = (active[i - 1], active[i + 1])
        diagonals.add((min(chord), max(chord)))
        del seq[i]
        del active[i]
    return Triangulation(n=n, diagonals=frozenset(diagonals))


def catalan(k):
    """C_k by the convolution recurrence (independent of the enumerations)."""
    cs = [1]
    for m in range(1, k + 1):
        cs.append(sum(cs[i] * cs[m - 1 - i] for i in range(m)))
    return cs[k]
