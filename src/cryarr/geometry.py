"""Chambers, walls and Cartan matrices of a central hyperplane arrangement.

An arrangement is given by a finite set of covectors (one per hyperplane,
up to sign).  Chambers are identified by their sign vector over the
positive covector representatives; every computation is exact, on integer
covectors, and only Cartan entries are rational.

Rays of a sign vector.  ``_chamber_rays`` finds the extreme rays of the
closed cone C(s) = {x : s_k * c_k(x) >= 0 for every k} by double
description (Motzkin et al. 1953; Fukuda-Prodon 1996).  It starts from
the simplicial cone of r independent signed covectors, whose rays are the
kernel lines of r - 1 of them, and clips it by each other signed covector
g in turn: the rays with g >= 0 stay, and each pair p, n of adjacent rays
with g(p) > 0 > g(n) adds the ray g(p)*n - g(n)*p, on g = 0.  The zero
mask of a ray is the set of covectors clipped so far that vanish on it.
Two rays are adjacent when no third ray's zero mask contains their common
zero mask: the smallest face of the cone that holds both is cut out by
that common mask, its extreme rays are the rays whose masks contain it,
and it is 2-dimensional exactly when it has no third one.  (It also needs
r - 2 independent covectors, so a common mask of fewer bits is never
adjacent.)  Every cone of the sequence lies in the pointed starting cone,
so it is pointed and the step applies.  Because the covectors span the
dual space, C(s) is pointed as well; its extreme rays are the primitive
generators of the intersections of r - 1 hyperplanes that lie in C(s), so
the clipping finds the ray set that a scan of all those intersections
finds, for every sign vector, feasible or not.

Local wall crossing.  Let K be a simplicial chamber with rays u_1..u_r
and walls w_1..w_r (w_j vanishes on every u_k but u_j), H = w_i, and K'
the chamber across H: K's signs with the sign of H flipped.

  - K' is not empty and meets K's facet F = cone{u_k : k != i}: every
    covector other than H has K's sign on the relative interior of F (it
    is >= 0 there and is not 0 on all of F, which spans H), so points
    just across H from it lie in K'.  The closed facet of K' on H is
    {x in H : every other covector has its sign or 0 on x}, the same set
    as K's, which is F.  So if K' is simplicial its rays are the u_k
    (k != i) and one new ray u'.
  - The walls.  Fix j != i and let L_j be the span of {u_k : k != i, j}.
    Modulo L_j, the hyperplanes through L_j are lines through the origin
    of a plane, one line each (two hyperplanes through L_j and one more
    common vector are equal).  K maps onto the sector between u_i and
    u_j, and H onto the line of u_j.  If K' is simplicial its wall W'_j
    opposite u_j holds L_j and u', and K' maps onto the sector between
    u_j and u' on the side of H away from u_i, which no line cuts.  The
    path u_j - t*u_i, t > 0, sweeps that side from u_j to -u_i, and the
    old wall w_j, which holds L_j and u_i, is met only as t grows without
    bound.  So W'_j is the hyperplane W through L_j, other than H, with
    the least t = W(u_j)/W(u_i) > 0, or w_j if there is none: this W_j
    is found from the kept rays alone.  W_j(u_j) != 0, since a
    hyperplane through L_j and u_j is H.
  - The new ray.  w = sum_{j != i} (W_j(u_i)/W_j(u_j))*u_j - u_i vanishes
    on every W_k (k != i), since W_k vanishes on u_j for j != i, k, which
    leaves W_k(u_i) - W_k(u_i); and H(w) = -H(u_i) has K''s sign.  If K'
    is simplicial, u' spans the line where its r - 1 walls W_j meet and
    has K''s sign on H, so u' is a positive multiple of w, and every
    covector has K''s sign or 0 on w.  Conversely, if every covector
    does, the simplicial cone C = cone{u_k (k != i), w} (w has the
    coefficient -1 on u_i) lies in the closure of K', so its interior
    lies in K'; C's facets lie on H and on the W_j, which do not cut K',
    so K' lies in C, and K' is the simplicial chamber C with rays u_k
    (k != i) and w, wall W_j opposite u_j and H opposite w.

So a crossing reads the rows of K's rays and computes at most one new row,
that of w, and the new chamber is simplicial exactly when every covector has
the new chamber's sign or 0 on w.  Every crossing out of K reads the same
rows, zero masks and positive mask, so the walk builds them once per chamber.

The rank-3 new ray.  At rank 3, with {i, j, k} = {1, 2, 3}, let c be the
cross product of the covectors of W_j and W_k, divided by the gcd of its
coordinates and signed so that H(c) has the sign opposite to H(u_i).  The
general formula gives the same vector: it scales w by a positive integer
and divides by the positive gcd, so its result is the primitive multiple
of w on which H has the sign of H(w) = -H(u_i).  W_j and W_k are different
hyperplanes, since W_j(u_j) != 0 = W_k(u_j), so their covectors are
independent and c spans the line where both vanish.  w vanishes on both
too (above) and H(w) != 0, so w spans that line and H does not vanish on
it.  The line has two primitive vectors, one the negative of the other, and
only one of them has H of the sign of -H(u_i): c, and the general formula's
result.  Nothing here assumes that the new chamber is simplicial, so its
test reads the same vector either way.

Antipodal chambers.  The arrangement is central, so -A is a chamber for
every chamber A: its signs are A's negated, its rays the negatives of A's
(primitive again), and its wall opposite -a is A's wall opposite a.  Let
K' across wall i of K be -A for a chamber A already built.  K' is simplicial,
and by the first point above its rays are the u_t (t != i) and one new ray.
So each u_t (t != i) is -a for one ray a of A, and the wall of K' opposite
u_t is A's wall opposite -u_t; the new ray, at label i, is the negative of
A's remaining ray, and the wall opposite it is H, since it holds the facet F.
These are the signs, rays and walls that the crossing computes, so -A in
K's frame is that crossing's result, with no row scanned and no covector
tested.  The row of a ray -v is the row of v with its values negated and
its plus and minus masks swapped.

Integrality along a crossing.  Let B^K = (alpha_1..alpha_r) be K's wall
roots, signed non-negative on K, so alpha_j(u_k) = 0 for k != j, and call K
integral when every covector lies in the lattice ZB^K, that is, when every
root coordinate at K is an integer.  Across wall i, alpha'_i = -alpha_i, and
for j != i the new wall root alpha'_j vanishes on u_k for every k != i, j,
so alpha'_j = x_j*alpha_j + y_j*alpha_i with
|x_j| = |W_j(u_j)| / |w_j(u_j)| (x_j = 1 and y_j = 0 where W_j is w_j).
The change of basis from B^K to B^K' has determinant -prod x_j.  Let K be
integral.  Then alpha'_j, a covector, lies in ZB^K, so x_j and y_j are
integers, and
  - if |W_j(u_j)| = |w_j(u_j)| for every changed wall, the change of basis
    is unimodular, ZB^K' = ZB^K contains every covector, and K' is integral;
  - otherwise ZB^K' is a sublattice of ZB^K of index prod |x_j| > 1; the
    covectors of B^K span ZB^K, so one of them lies outside ZB^K', and K'
    is not integral.
B^-A = -B^A, so -A is integral exactly when A is.  In the walk every
chamber but the first is built from an earlier one, by a crossing or by
negation; so, by induction in walk order, when the first chamber is
integral, the first chamber that is not is the first one built by a
crossing that fails the test above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

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
    def rows(self):
        """Memo of the rays that a walk has reached: each ray v maps to
        (values, plus, minus), the integer value of every positive covector
        on v and the bitmasks of the covectors positive and negative on v
        (bit k for the k-th positive covector)."""
        return {}

    @cached_property
    def lattice_changes(self):
        """Memo that ``chamber_graph`` fills: the indices, in its chamber
        order, of the chambers built by a crossing that changes the lattice
        ZB^K, one with |W_j(u_j)| != |w_j(u_j)| for some wall j (see the
        module docstring).  The walk is deterministic, so every walk of the
        root set adds the same indices."""
        return set()


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
    covectors = [tuple(x if isinstance(x, int) else Fraction(x) for x in cov)
                 for cov in covectors]
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


def _negated_row(row):
    """The row of -v, given the row of v."""
    values, plus, minus = row
    return tuple([-x for x in values]), minus, plus


def _row_of(R: RootSet, v):
    """(values, plus, minus) of the ray v: see ``RootSet.rows``; read from
    the row of -v when the memo holds it."""
    opposite = R.rows.get(vec_neg(v))
    if opposite is not None:
        return _negated_row(opposite)
    if R.rank == 3:
        x, y, z = v
        values = tuple([a * x + b * y + c * z for a, b, c in R.positives])
    else:
        values = tuple([sum(map(mul, cov, v)) for cov in R.positives])
    plus = minus = 0
    bit = 1
    for x in values:
        if x > 0:
            plus |= bit
        elif x < 0:
            minus |= bit
        bit <<= 1
    return values, plus, minus


def _row(R: RootSet, v):
    """The memoized row of the ray v, filled on first use."""
    row = R.rows.get(v)
    if row is None:
        row = R.rows[v] = _row_of(R, v)
    return row


def ray_values(R: RootSet, v):
    """The values of the positive covectors on the ray v."""
    return _row(R, v)[0]


def _chamber_rays(R: RootSet, signs):
    """The extreme rays of the closed cone on which every positive covector
    has its sign or 0, as primitive integer vectors, each mapped to its
    zero mask (bit k when the k-th positive covector vanishes on it); by
    double description, as the module docstring describes."""
    r = R.rank
    halves = [cov if s > 0 else vec_neg(cov) for cov, s in zip(R.positives, signs)]
    basis = []
    for k, g in enumerate(halves):
        if matrix_rank([halves[b] for b in basis] + [g]) > len(basis):
            basis.append(k)
            if len(basis) == r:
                break
    rays = {}
    for m in basis:
        v = kernel_vector([halves[b] for b in basis if b != m], r)
        rays[v if dot(halves[m], v) > 0 else vec_neg(v)] = sum(
            1 << b for b in basis if b != m)
    for k, g in enumerate(halves):
        if k in basis:
            continue
        bit = 1 << k
        kept, pos, neg = {}, [], []
        for v, zeros in rays.items():
            x = dot(g, v)
            if x > 0:
                pos.append((v, zeros, x))
                kept[v] = zeros
            elif x < 0:
                neg.append((v, zeros, x))
            else:
                kept[v] = zeros | bit
        for p, zp, xp in pos:
            for n, zn, xn in neg:
                common = zp & zn
                if common.bit_count() < r - 2 or any(
                        (zeros & common) == common and q != p and q != n
                        for q, zeros in rays.items()):
                    continue
                w = [xp * b - xn * a for a, b in zip(p, n)]
                d = gcd(*w)
                kept[tuple(x // d for x in w)] = common | bit
        rays = kept
    return rays


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
    covectors come out as e1, e2, ...  The wall opposite a ray is the one
    hyperplane in the zero masks of all the other rays."""
    p = generic_point(R)
    signs = tuple(1 if dot(cov, p) > 0 else -1 for cov in R.positives)
    rays = _chamber_rays(R, signs)
    if len(rays) != R.rank:
        raise NonSimplicialError(signs, len(rays))
    frame = []
    for v in rays:
        common = (1 << len(R.positives)) - 1
        for u, zeros in rays.items():
            if u != v:
                common &= zeros
        wall = common.bit_length() - 1
        cov = R.positives[wall]
        frame.append((cov if signs[wall] > 0 else vec_neg(cov), v, wall))
    frame.sort(reverse=True)
    return Chamber(signs=signs, rays=tuple(v for _, v, _ in frame),
                   walls=tuple(wall for _, _, wall in frame))


def _crossed_signs(K: Chamber, i: int):
    """The signs of the chamber across wall i of K."""
    signs = list(K.signs)
    signs[K.walls[i]] *= -1
    return tuple(signs)


def _crossing_state(R: RootSet, K: Chamber):
    """What every crossing out of K reads: the values of the positive
    covectors on each of K's rays, the zero mask of each ray, and the mask
    of the covectors positive on K.  A covector is positive on K exactly
    when it is positive on one of K's rays, since the rays span and none
    has the opposite sign."""
    values, zeros = [], []
    full = (1 << len(R.positives)) - 1
    positive = 0
    for v in K.rays:
        row, plus, minus = _row(R, v)
        values.append(row)
        zeros.append(full ^ (plus | minus))
        positive |= plus
    return values, zeros, positive


def adjacent_chamber(R: RootSet, K: Chamber, i: int, state=None) -> Chamber:
    """The chamber across wall i of K, with frame labels propagated: K's
    rays with ray i replaced by the new ray w, and the new walls W_j, both
    found from the rows of K's rays as the module docstring proves;
    ``state`` is K's ``_crossing_state``, built here when not given.
    Raises NonSimplicialError, with the ray count of ``_chamber_rays``,
    when some covector has the sign opposite to the new chamber's on w."""
    if not 0 <= i < R.rank:
        raise IndexError("wall index out of range")
    values, zeros, positive = state or _crossing_state(R, K)
    signs = _crossed_signs(K, i)
    h = K.walls[i]
    others = ((1 << len(R.positives)) - 1) ^ (1 << h)
    ui = values[i]
    walls = list(K.walls)
    # (j, W_j(u_i), W_j(u_j)) for each j != i whose W_j is not K's wall w_j
    picks = []
    for j, uj in enumerate(values):
        if j == i:
            continue
        through = others
        for k, z in enumerate(zeros):
            if k != i and k != j:
                through &= z
        a0 = b0 = 0
        while through:
            low = through & -through
            through ^= low
            wall = low.bit_length() - 1
            a, b = ui[wall], uj[wall]
            # t = b / a > 0, the least one wins
            if a and (a > 0) == (b > 0) and (not a0 or abs(b * a0) < abs(b0 * a)):
                a0, b0 = a, b
                walls[j] = wall
        if a0:
            picks.append((j, a0, b0))
    if R.rank == 3:
        (p0, p1, p2), (q0, q1, q2) = (R.positives[walls[j]] for j in range(3) if j != i)
        w = (p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0)
        d = gcd(*w)
        h0, h1, h2 = R.positives[h]
        if (h0 * w[0] + h1 * w[1] + h2 * w[2] > 0) == (ui[h] > 0):
            d = -d
    else:
        scale = lcm(*(abs(b) for _, _, b in picks))
        coeffs = [0] * R.rank
        coeffs[i] = -scale
        for j, a, b in picks:
            coeffs[j] = a * scale // b
        w = [sum(map(mul, coeffs, column)) for column in zip(*K.rays)]
        d = gcd(*w)
    w = tuple(x // d for x in w)
    row = R.rows.get(w) or _row_of(R, w)
    positive ^= 1 << h
    if row[1] & ~positive or row[2] & positive:
        raise NonSimplicialError(signs, len(_chamber_rays(R, signs)))
    R.rows[w] = row
    rays = list(K.rays)
    rays[i] = w
    return Chamber(signs=signs, rays=tuple(rays), walls=tuple(walls))


def _negated_chamber(R: RootSet, K: Chamber, i: int, A: Chamber) -> Chamber:
    """-A in K's frame, where -A is the chamber across wall i of K: K's
    rays but ray i, each with the wall of A opposite its negative, and at
    label i the negative of A's remaining ray, with K's wall i (see the
    module docstring).  The new ray's row is the negated row of A's ray."""
    walls = list(K.walls)
    rest = (1 << R.rank) - 1
    for t, u in enumerate(K.rays):
        if t != i:
            p = A.rays.index(vec_neg(u))
            walls[t] = A.walls[p]
            rest ^= 1 << p
    w = vec_neg(A.rays[rest.bit_length() - 1])
    _row(R, w)
    rays = list(K.rays)
    rays[i] = w
    return Chamber(signs=tuple([-s for s in A.signs]), rays=tuple(rays),
                   walls=tuple(walls))


def chamber_graph(R: RootSet):
    """All chambers with consistently labelled walls, plus the crossing map.

    Returns (chambers, edges) where edges[(a, i)] = b means crossing wall i
    of chambers[a] lands in chambers[b].  Raises NonSimplicialError as soon
    as a chamber with other than ``rank`` extreme rays is met.

    Each chamber is built once, by the first crossing that reaches it; a
    later crossing only looks it up.  A chamber is keyed by the int mask of
    the covectors positive on it (bit k for the k-th), which its signs
    determine, since no sign is 0; crossing wall i flips only the sign of
    covector ``walls[i]``, so the key across it is the mask with that bit
    flipped, and its antipode's key is the complement of that mask.  When
    the antipode is already built, the new chamber is built from it by
    negation (``_negated_chamber``); otherwise by ``adjacent_chamber``
    from K's ``_crossing_state``, built at K's first such crossing and read
    by the others, and the walk tests that crossing from the same rows,
    O(r), adding the new chamber's index to ``R.lattice_changes`` when
    some wall j has |W_j(u_j)| != |w_j(u_j)| (module docstring).  A
    chamber that is not simplicial is never indexed, nor is its antipode,
    so the first crossing into it raises, as it would if every crossing
    built its chamber.
    """
    k0 = initial_chamber(R)
    chambers = [k0]
    masks = [sum(1 << k for k, s in enumerate(k0.signs) if s > 0)]
    index = {masks[0]: 0}
    full = (1 << len(R.positives)) - 1
    changes = R.lattice_changes
    edges = {}
    head = 0
    while head < len(chambers):
        ci = head
        head += 1
        K, mask = chambers[ci], masks[ci]
        state = None
        for i in range(R.rank):
            key = mask ^ (1 << K.walls[i])
            j = index.get(key)
            if j is None:
                j = len(chambers)
                a = index.get(full ^ key)
                if a is not None:
                    Kn = _negated_chamber(R, K, i, chambers[a])
                else:
                    if state is None:
                        state = _crossing_state(R, K)
                    Kn = adjacent_chamber(R, K, i, state)
                    for t, values in enumerate(state[0]):
                        if abs(values[Kn.walls[t]]) != abs(values[K.walls[t]]):
                            changes.add(j)
                            break
                index[key] = j
                chambers.append(Kn)
                masks.append(key)
            edges[(ci, i)] = j
    return chambers, edges


def cartan_of_chamber(R: RootSet, K: Chamber, neighbours):
    """Cartan matrix of (K, B^K): 2 on the diagonal and, in row i,
    c_ij = <alpha_j, w> / <alpha_i, w> for the new ray w across wall i,
    the one ray of ``neighbours[i]``, the chamber across wall i as
    ``chamber_graph``'s edges name it, that is not a ray of K.  The wall
    root alpha_j is K's wall covector signed by K's sign on it, so
    <alpha_j, w> is that sign times the value on w in w's row."""
    rows = []
    for i in range(R.rank):
        w = next(v for v in neighbours[i].rays if v not in K.rays)
        values = ray_values(R, w)
        coeff = [K.signs[k] * values[k] for k in K.walls]
        rows.append(tuple(Fraction(2) if j == i else Fraction(coeff[j]) / coeff[i]
                          for j in range(R.rank)))
    return tuple(rows)


def supports_connected(vectors, rank) -> bool:
    """Whether the coordinate supports of ``vectors`` link all ``rank``
    coordinates: starting from coordinate 0, every support that meets the
    linked coordinates joins them, until none adds one."""
    rest = set()
    for v in vectors:
        m = 0
        for k, c in enumerate(v):
            if c:
                m |= 1 << k
        rest.add(m)
    linked = 1
    while joined := {m for m in rest if m & linked}:
        rest -= joined
        for m in joined:
            linked |= m
    return linked == (1 << rank) - 1


def is_irreducible(R: RootSet) -> bool:
    """Connectivity of coordinate supports in the base-chamber frame; the
    i-th coordinate of a root is nonzero exactly when its value on ray i is."""
    K = initial_chamber(R)
    return supports_connected(
        (tuple(dot(cov, v) for v in K.rays) for cov in R.positives), R.rank)
