"""Chambers, walls and Cartan matrices of a central hyperplane arrangement.

An arrangement is given by a finite set of covectors (one per hyperplane,
up to sign).  Chambers are identified by their sign vector over the
positive covector representatives; every computation is exact, on integer
covectors, and only Cartan entries are rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from .errors import NonSimplicialError
from .linalg import (
    direction,
    dot,
    kernel_vector,
    matrix_rank,
    sign_normalize,
    vec_neg,
)


@dataclass(frozen=True)
class RootSet:
    """A finite set of pairwise non-parallel covectors spanning the dual space.

    ``positives`` holds one representative per +/- pair, sign-normalized so
    the first nonzero coordinate is positive, sorted canonically, as integer
    tuples: the given covectors times ``denominator``, the lcm of their
    denominators.  The full root set is ``positives`` together with its
    negatives.  One positive scale for all covectors changes no chamber,
    wall, root coordinate or Cartan entry.
    """

    rank: int
    positives: tuple
    denominator: int

    @cached_property
    def ray_table(self):
        """Candidate extreme rays: the primitive, sign-normalized generators
        of 1-dim intersections of (rank-1)-subsets of hyperplanes.  Each ray
        v maps to (values, plus, minus): the integer value of every positive
        covector on v, and the bitmasks of the covectors positive and
        negative on v (bit k for the k-th positive covector)."""
        out = {}
        for subset in combinations(self.positives, self.rank - 1):
            v = kernel_vector(subset, self.rank)
            if v is None:
                continue
            v = sign_normalize(v)
            if v not in out:
                values = tuple(dot(cov, v) for cov in self.positives)
                plus = minus = 0
                for k, x in enumerate(values):
                    if x > 0:
                        plus |= 1 << k
                    elif x < 0:
                        minus |= 1 << k
                out[v] = (values, plus, minus)
        return out


def _show(v, d):
    """v/d as a tuple of written coordinates: (2,), (1/2, 1)."""
    shown = ", ".join(str(Fraction(x, d)) for x in v)
    return "(" + shown + ("," if len(v) == 1 else "") + ")"


def make_root_set(covectors, rank=None) -> RootSet:
    """Build a RootSet from covectors (a positive half suffices).

    Every covector is scaled to integers by d, the lcm of all denominators,
    before any check.  Exact duplicates and negatives collapse; distinct
    parallel covectors are rejected because a root set contains each line
    only as +/- one pair.
    """
    covectors = [tuple(Fraction(x) for x in cov) for cov in covectors]
    if not covectors:
        raise ValueError("empty root set")
    r = rank if rank is not None else len(covectors[0])
    d = lcm(*(x.denominator for cov in covectors for x in cov))
    seen = {}
    for cov in covectors:
        if len(cov) != r:
            raise ValueError("covector length does not match rank")
        pos = sign_normalize(tuple(x.numerator * (d // x.denominator) for x in cov))
        if not any(pos):
            raise ValueError("zero covector")
        key = direction(pos)
        if key in seen and seen[key] != pos:
            raise ValueError(f"parallel roots {_show(seen[key], d)} and {_show(pos, d)}")
        seen[key] = pos
    positives = tuple(sorted(seen.values()))
    if matrix_rank(positives) != r:
        raise ValueError("roots do not span the dual space")
    return RootSet(rank=r, positives=positives, denominator=d)


@dataclass(frozen=True)
class Chamber:
    """An open simplicial chamber.

    ``signs[k]`` is the sign of the k-th positive covector on the chamber,
    ``rays[i]`` the primitive integer extreme ray at frame position i, and
    ``walls[i]`` the index of the positive covector whose kernel carries
    the wall opposite to all rays except ``rays[i]``.
    """

    signs: tuple
    rays: tuple
    walls: tuple


def _rays_for_signs(R: RootSet, signs):
    """The extreme rays of the chamber with these signs, by one scan of the
    ray table; NonSimplicialError unless there are exactly rank of them.
    With P the covectors positive on the chamber and N the negative ones,
    v is a ray when no covector of N is positive on it and none of P is
    negative, and -v when the same holds with P and N swapped."""
    P = 0
    for k, s in enumerate(signs):
        if s > 0:
            P |= 1 << k
    N = ((1 << len(signs)) - 1) ^ P
    rays = []
    for v, (_, plus, minus) in R.ray_table.items():
        if not (plus & N or minus & P):
            rays.append(v)
        elif not (plus & P or minus & N):
            rays.append(vec_neg(v))
    if len(rays) != R.rank:
        raise NonSimplicialError(signs, len(rays))
    return rays


def _walls_for_rays(R: RootSet, rays):
    # the wall opposite ray i is the one hyperplane containing all other
    # rays: the single bit common to their zero masks
    full = (1 << len(R.positives)) - 1
    zeros = []
    for v in rays:
        _, plus, minus = R.ray_table.get(v) or R.ray_table[vec_neg(v)]
        zeros.append(full & ~(plus | minus))
    walls = []
    for i in range(R.rank):
        common = full
        for j, z in enumerate(zeros):
            if j != i:
                common &= z
        if not common or common & (common - 1):
            raise ValueError(f"no arrangement hyperplane is opposite ray {rays[i]}")
        walls.append(common.bit_length() - 1)
    return tuple(walls)


def ray_values(R: RootSet, v):
    """The values of the positive covectors on v, a ray of the table or the
    negative of one."""
    entry = R.ray_table.get(v)
    if entry is not None:
        return entry[0]
    return tuple(-x for x in R.ray_table[vec_neg(v)][0])


def generic_point(R: RootSet):
    """Deterministic point off all hyperplanes: (1, t, t^2, ...) for the
    smallest positive integer t that works."""
    t = 1
    while True:
        p = tuple(t ** k for k in range(R.rank))
        if all(dot(cov, p) != 0 for cov in R.positives):
            return p
        t += 1


def initial_chamber(R: RootSet) -> Chamber:
    """The chamber of ``generic_point`` in the canonical frame order: signed
    wall covectors, lexicographically descending, so standard-basis
    covectors come out as e1, e2, ..."""
    p = generic_point(R)
    signs = tuple(1 if dot(cov, p) > 0 else -1 for cov in R.positives)
    rays = _rays_for_signs(R, signs)
    walls = _walls_for_rays(R, rays)

    def signed(i):
        cov = R.positives[walls[i]]
        return cov if signs[walls[i]] > 0 else vec_neg(cov)

    order = sorted(range(R.rank), key=signed, reverse=True)
    return Chamber(signs=signs, rays=tuple(rays[i] for i in order),
                   walls=tuple(walls[i] for i in order))


def _crossed_signs(K: Chamber, i: int):
    """The signs of the chamber across wall i of K."""
    signs = list(K.signs)
    signs[K.walls[i]] *= -1
    return tuple(signs)


def adjacent_chamber(R: RootSet, K: Chamber, i: int) -> Chamber:
    """The chamber across wall i of K, with frame labels propagated: K's
    rays with ray i replaced by the one new ray.  Once the new chamber has
    rank rays that ray is unique, since each kept ray lies on the crossed
    wall and so is in the new chamber's closure."""
    if not 0 <= i < R.rank:
        raise IndexError("wall index out of range")
    signs = _crossed_signs(K, i)
    rays = list(K.rays)
    rays[i] = next(v for v in _rays_for_signs(R, signs) if v not in K.rays)
    return Chamber(signs=signs, rays=tuple(rays), walls=_walls_for_rays(R, rays))


def chamber_graph(R: RootSet):
    """All chambers with consistently labelled walls, plus the crossing map.

    Returns (chambers, edges) where edges[(a, i)] = b means crossing wall i
    of chambers[a] lands in chambers[b].  Raises NonSimplicialError as soon
    as a chamber with other than ``rank`` extreme rays is met.

    Each chamber is built once, by the first crossing that reaches it; a
    later crossing only looks its signs up.  A chamber that is not
    simplicial is never indexed, so the first crossing into it raises, as
    it would if every crossing built its chamber.
    """
    k0 = initial_chamber(R)
    chambers = [k0]
    index = {k0.signs: 0}
    edges = {}
    head = 0
    while head < len(chambers):
        ci = head
        head += 1
        K = chambers[ci]
        for i in range(R.rank):
            j = index.get(_crossed_signs(K, i))
            if j is None:
                Kn = adjacent_chamber(R, K, i)
                j = len(chambers)
                index[Kn.signs] = j
                chambers.append(Kn)
            edges[(ci, i)] = j
    return chambers, edges


def chamber_root_basis(R: RootSet, K: Chamber):
    """The wall roots of K, signed to be non-negative on K (the basis B^K)."""
    out = []
    for i in range(R.rank):
        idx = K.walls[i]
        cov = R.positives[idx]
        if K.signs[idx] < 0:
            cov = vec_neg(cov)
        out.append(cov)
    return tuple(out)


def cartan_of_chamber(R: RootSet, K: Chamber, neighbours):
    """Cartan matrix of (K, B^K): 2 on the diagonal and, in row i,
    c_ij = <alpha_j, w> / <alpha_i, w> for the new ray w across wall i,
    the one ray of ``neighbours[i]``, the chamber across wall i as
    ``chamber_graph``'s edges name it, that is not a ray of K."""
    basis = chamber_root_basis(R, K)
    rows = []
    for i in range(R.rank):
        w = next(v for v in neighbours[i].rays if v not in K.rays)
        coeff = [dot(b, w) for b in basis]
        rows.append(tuple(Fraction(2) if j == i else Fraction(coeff[j]) / coeff[i]
                          for j in range(R.rank)))
    return tuple(rows)


def supports_connected(vectors, rank) -> bool:
    """Whether the coordinate supports of ``vectors`` link all ``rank``
    coordinates (union-find over the coordinates of each support)."""
    parent = list(range(rank))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in vectors:
        support = [k for k, c in enumerate(v) if c != 0]
        for a in support[1:]:
            ra, rb = find(a), find(support[0])
            if ra != rb:
                parent[ra] = rb
    return len({find(k) for k in range(rank)}) == 1


def is_irreducible(R: RootSet) -> bool:
    """Connectivity of coordinate supports in the base-chamber frame; the
    i-th coordinate of a root is nonzero exactly when its value on ray i is."""
    K = initial_chamber(R)
    return supports_connected(
        (tuple(dot(cov, v) for v in K.rays) for cov in R.positives), R.rank)
