"""Coordinate-plane localizations of a root object and the rank-2 cycles.

In root coordinates the localization at a set of simple roots keeps the
roots supported on their coordinates; it is itself a root system of
smaller rank.  For a rank-3 object and a pair of simple roots, walking
the 2n chambers around the common line produces the quiddity cycle and
the auxiliary cycle, from which the third-direction plane roots are
reconstructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import CycleBrokenError, MissingRootError
from .rank2 import slope_sorted

if TYPE_CHECKING:
    from .groupoid import GroupoidGraph


def localize(roots, support) -> tuple:
    """The roots vanishing off the coordinate indices ``support``, sorted.
    Only the coordinates off ``support`` are read, by one index when
    exactly one is off, as at every coordinate plane of a rank-3 object."""
    out = list(roots)
    if out:
        off = [t for t in range(len(out[0])) if t not in support]
        if len(off) == 1:
            t, = off
            out = [v for v in out if not v[t]]
        elif off:
            out = [v for v in out if not any([v[t] for t in off])]
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class LocalizationCycles:
    n: int
    quiddity: tuple     # (c_1, ..., c_2n), period n
    auxiliary: tuple    # (d_1, ..., d_2n)
    objects: tuple      # the 2n objects K_1, ..., K_2n along the walk


def _plane_object(G: GroupoidGraph, oi, i, j):
    """Object ``oi`` of a rank-3 closure for labels i != j in range(3)."""
    if G.rank != 3:
        raise ValueError("plane walks require a rank-3 object")
    if i not in range(3) or j not in range(3):
        raise ValueError(f"labels ({i!r}, {j!r}) are not both in range(3)")
    if i == j:
        raise ValueError("indices must differ")
    return G.object_at(oi)


def rank2_cycles(G: GroupoidGraph, oi, i, j) -> LocalizationCycles:
    """Walk the 2n chambers adjacent to <alpha_i, alpha_j> around object
    ``oi`` of a rank-3 closure.

    G must be a closure as ``traverse`` builds it: the walk follows
    ``G.edges``, and a missing edge is a CycleBrokenError.  Labels
    alternate: the step into K_{l+1} uses i when l+1 is even, j when it is
    odd.  c_l = -c_{i,j} (l odd) or -c_{j,i} (l even) read at K_l, and d_l
    likewise with the third index in place of the second.  A label outside
    range(3), i == j, or an object index outside range(len(G.objects))
    raises ValueError."""
    n = len(_plane_object(G, oi, i, j).planes[i, j])
    cs, ds, path = walk_cycle(G, oi, i, j, n)
    return LocalizationCycles(n=n, quiddity=cs, auxiliary=ds,
                              objects=tuple(G.objects[o] for o in path))


def walk_cycle(G: GroupoidGraph, oi, i, j, n):
    """The walk of ``rank2_cycles`` with n given: (quiddity, auxiliary,
    the indices of K_1, ..., K_2n), or CycleBrokenError."""
    k = 3 - i - j
    objects, edges = G.objects, G.edges
    cs, ds, path = [], [], []
    cur = oi
    # K_l for odd l reads row i and leaves by label i, for even l row j
    for row, other in ((i, j), (j, i)) * n:
        path.append(cur)
        c = objects[cur].cartan[row]
        cs.append(-c[other])
        ds.append(-c[k])
        cur = edges.get((cur, row))
        if cur is None:
            raise CycleBrokenError(f"the closure has no edge with label {row}")
    if cur != oi:
        raise CycleBrokenError("walk of length 2n does not return to the start")
    if cs[:n] != cs[n:]:
        raise CycleBrokenError("quiddity cycle is not n-periodic")
    return tuple(cs), tuple(ds), path


@dataclass(frozen=True)
class PlaneRoots:
    n: int
    betas: tuple        # slope-sorted localization roots (permuted coordinates)
    gammas: tuple       # gamma_0, ..., gamma_n
    deltas: tuple       # delta_0, ..., delta_n
    auxiliary: tuple
    quiddity: tuple
    perm: tuple         # coordinate permutation applied: (i, j, third)


def plane_roots(G: GroupoidGraph, oi, i, j) -> PlaneRoots:
    """The third-direction roots gamma_l, delta_l over the plane <a_i, a_j>
    at object ``oi`` of a rank-3 closure built by ``traverse``.

    Coordinates are permuted so the pair becomes (0,1); the betas are the
    slope-sorted localization roots from (0,1,0) to (1,0,0), and
    gamma_l = e_3 + sum_{m<=l} d_m beta_m and
    delta_l = e_3 + sum_{m<=l} d_{2n+1-m} beta_{n+1-m} with the auxiliary
    cycle of ``rank2_cycles(G, oi, j, i)``, which starts with the j-side.
    Every gamma_l and delta_l must be a positive root; its third
    coordinate is 1 because the betas' is 0.  A label outside range(3),
    i == j, or an object index outside range(len(G.objects)) raises
    ValueError."""
    _plane_object(G, oi, i, j)
    pairs, cs, ds, gammas, deltas = plane_walk(G, oi, i, j)
    return PlaneRoots(n=len(pairs), betas=tuple((x, y, 0) for x, y in pairs),
                      gammas=gammas, deltas=deltas, auxiliary=ds,
                      quiddity=cs, perm=(i, j, 3 - i - j))


def plane_walk(G: GroupoidGraph, oi, i, j):
    """The steps of ``plane_roots`` at one object and pair i != j of a
    rank-3 closure: (the slope-sorted localization roots as (x, y) pairs,
    quiddity, auxiliary, gammas, deltas), each gamma and delta (x, y, 1) in
    permuted coordinates.

    Raises MissingRootError for an absent end simple root, (0,1,0) before
    (1,0,0), an empty localization included; then CycleBrokenError from
    the walk; then MissingRootError for the first gamma or delta, gammas
    before deltas, that is not a positive root.  A present end is where
    the slope order puts it, because no other root of the plane is
    parallel to it."""
    O = G.objects[oi]
    pairs = slope_sorted([(v[i], v[j]) for v in O.planes[i, j]])
    if not pairs or pairs[0] != (0, 1):
        raise MissingRootError((0, 1, 0))
    if pairs[-1] != (1, 0):
        raise MissingRootError((1, 0, 0))
    cs, ds, _ = walk_cycle(G, oi, j, i, len(pairs))
    # running sums, forwards for the gammas and backwards for the deltas,
    # each new one placed at coordinates i, j and the third and tested: a
    # zero d_l repeats the last sum, and delta_0 is gamma_0
    place = itemgetter(*map((i, j, 3 - i - j).index, range(3)))
    roots = O.positive_roots
    if place((0, 0, 1)) not in roots:
        raise MissingRootError((0, 0, 1))
    sums = []
    for steps in (zip(ds, pairs), zip(reversed(ds), reversed(pairs))):
        x = y = 0
        v = (0, 0, 1)
        out = [v]
        for dl, (bx, by) in steps:
            if dl:
                x += dl * bx
                y += dl * by
                v = (x, y, 1)
                if place(v) not in roots:
                    raise MissingRootError(v)
            out.append(v)
        sums.append(tuple(out))
    gammas, deltas = sums
    return pairs, cs, ds, gammas, deltas
