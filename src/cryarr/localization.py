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

from .errors import CycleBrokenError, MissingRootError
from .groupoid import RootObject, cartan_from_roots, reflect_object
from .rank2 import slope_sorted


def localize(roots, support) -> tuple:
    """The roots vanishing off the coordinate indices ``support``, sorted."""
    return tuple(sorted(
        v for v in roots
        if all(x == 0 for t, x in enumerate(v) if t not in support)
    ))


@dataclass(frozen=True)
class LocalizationCycles:
    n: int
    quiddity: tuple     # (c_1, ..., c_2n), period n
    auxiliary: tuple    # (d_1, ..., d_2n)
    objects: tuple      # the 2n objects K_1, ..., K_2n along the walk


def rank2_cycles(O: RootObject, i, j) -> LocalizationCycles:
    """Walk the 2n chambers adjacent to <alpha_i, alpha_j> in a rank-3 object.

    Labels alternate: the step into K_{l+1} uses i when l+1 is even, j when
    it is odd.  c_l = -c_{i,j} (l odd) or -c_{j,i} (l even) read at K_l, and
    d_l likewise with the third index in place of the second."""
    if O.rank != 3:
        raise ValueError("rank-2 cycles require a rank-3 object")
    if i == j:
        raise ValueError("indices must differ")
    k = 3 - i - j
    n = len(localize(O.positive_roots, (i, j)))
    cs, ds, objs = [], [], []
    cur = O
    for ell in range(1, 2 * n + 1):
        c = cartan_from_roots(cur)
        objs.append(cur)
        if ell % 2 == 1:
            cs.append(-c[i][j])
            ds.append(-c[i][k])
        else:
            cs.append(-c[j][i])
            ds.append(-c[j][k])
        label = i if (ell + 1) % 2 == 0 else j
        cur, _ = reflect_object(cur, label)
    if cur.positive_roots != O.positive_roots:
        raise CycleBrokenError("walk of length 2n does not return to the start")
    for ell in range(n):
        if cs[ell] != cs[ell + n]:
            raise CycleBrokenError("quiddity cycle is not n-periodic")
    return LocalizationCycles(n=n, quiddity=tuple(cs), auxiliary=tuple(ds),
                              objects=tuple(objs))


def _permute_object(O: RootObject, perm):
    roots = frozenset(tuple(v[p] for p in perm) for v in O.positive_roots)
    return RootObject(rank=O.rank, positive_roots=roots)


@dataclass(frozen=True)
class PlaneRoots:
    n: int
    betas: tuple        # slope-sorted localization roots (permuted coordinates)
    gammas: tuple       # gamma_0, ..., gamma_n
    deltas: tuple       # delta_0, ..., delta_n
    auxiliary: tuple
    quiddity: tuple
    perm: tuple         # coordinate permutation applied: (i, j, third)


def plane_roots(O: RootObject, i, j) -> PlaneRoots:
    """The third-direction roots gamma_l, delta_l over the plane <a_i, a_j>.

    Coordinates are permuted so the pair becomes (0,1); the betas are the
    slope-sorted localization roots from (0,1,0) to (1,0,0), and
    gamma_l = e_3 + sum_{k<=l} d_k beta_k with the auxiliary cycle read
    along the walk that starts with the j-side.  Every gamma_l and delta_l
    must be a positive root with third coordinate 1."""
    if O.rank != 3:
        raise ValueError("plane roots require a rank-3 object")
    k = 3 - i - j
    perm = (i, j, k)
    P = _permute_object(O, perm)
    pairs = slope_sorted([(v[0], v[1]) for v in localize(P.positive_roots, (0, 1))])
    betas = tuple((v[0], v[1], 0) for v in pairs)
    n = len(betas)
    if betas[0] != (0, 1, 0) or betas[-1] != (1, 0, 0):
        raise MissingRootError(betas[0])
    cyc = rank2_cycles(P, 1, 0)
    d = cyc.auxiliary
    e3 = (0, 0, 1)

    def accumulate(indices):
        out = [e3]
        cur = e3
        for d_idx, b_idx in indices:
            cur = tuple(c + d[d_idx - 1] * b for c, b in zip(cur, betas[b_idx - 1]))
            out.append(cur)
        return tuple(out)

    gammas = accumulate([(ell, ell) for ell in range(1, n + 1)])
    deltas = accumulate([(2 * n + 1 - ell, n + 1 - ell) for ell in range(1, n + 1)])
    for v in gammas + deltas:
        if v[2] != 1 or v not in P.positive_roots:
            raise MissingRootError(v)
    return PlaneRoots(n=n, betas=betas, gammas=gammas, deltas=deltas,
                      auxiliary=d, quiddity=cyc.quiddity, perm=perm)
