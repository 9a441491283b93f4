"""Seeded inputs of the benchmark, built from Cartan matrices.

Nothing here imports the program: every document and root object is
computed by this file, and the program only receives the results.

Two input sets exist:

* ``documents()`` -- JSON arrangement documents for the ``verify`` workload:
  the eight catalog arrangements, rank-3 restrictions of the F4, E6, E7
  and E8 arrangements, and the 49-line ``[-2,2]^3`` box;
* ``objects()`` -- integer root objects for the ``closure`` workload: the
  base objects of the crystallographic catalog entries and of the
  restrictions.

A *presentation* is a seeded change of coordinates that keeps the
arrangement up to linear isomorphism: a coordinate permutation and a
shuffled root order and, for documents, a sign change per coordinate and a
sign flip per root.  Verdicts, chamber counts and canonical forms do not
depend on it, so one pinned expectation covers every seed.
"""

from __future__ import annotations

import math
import random
from itertools import product


def _cartan(rank, bonds, doubles=()):
    """Cartan matrix with -1 on each bond (i, j) and -2 at each (i, j) in doubles."""
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in bonds:
        c[i][j] = c[j][i] = -1
    for i, j in doubles:
        c[i][j] = -2
    return c


def _chain(rank):
    return [(i, i + 1) for i in range(rank - 1)]


def _e_series(rank):
    # Bourbaki numbering, 0-based: 0-2-3-4-...-(rank-1) with 1 attached to 3
    return _cartan(rank, [(0, 2), (1, 3), (2, 3)] + [(k, k + 1) for k in range(3, rank - 1)])


CARTAN = {
    "A2": _cartan(2, _chain(2)),
    "A3": _cartan(3, _chain(3)),
    "A4": _cartan(4, _chain(4)),
    "B3": _cartan(3, _chain(3), doubles=[(2, 1)]),
    "C3": _cartan(3, _chain(3), doubles=[(1, 2)]),
    "D4": _cartan(4, [(0, 1), (1, 2), (1, 3)]),
    "F4": _cartan(4, _chain(4), doubles=[(1, 2)]),
    "E6": _e_series(6),
    "E7": _e_series(7),
    "E8": _e_series(8),
}

# The two catalog fixtures that are not Weyl arrangements.
RANK2_7 = ((1, 0), (3, 1), (2, 1), (5, 3), (3, 2), (1, 1), (0, 1))
NONCRYSTALLOGRAPHIC = ((1, 0), (0, 1), (1, 2))

# Rank-3 restrictions: (Weyl type, kept simple-root coordinates).
RESTRICTIONS = (("F4", (0, 1, 2)), ("E6", (0, 1, 3)), ("E7", (0, 1, 3)),
                ("E8", (0, 1, 3)), ("E8", (0, 1, 4)))


def positive_roots(cartan):
    """Positive roots in simple-root coordinates: the reflection closure of
    the simple roots."""
    r = len(cartan)
    roots = {tuple(int(j == i) for j in range(r)) for i in range(r)}
    frontier = set(roots)
    while frontier:
        new = set()
        for v in frontier:
            for i in range(r):
                w = list(v)
                w[i] -= sum(cartan[i][j] * v[j] for j in range(r))
                w = tuple(w)
                if all(x <= 0 for x in w):
                    w = tuple(-x for x in w)
                if w not in roots:
                    roots.add(w)
                    new.add(w)
        frontier = new
    return sorted(roots)


def _primitive(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def restriction(cartan, keep):
    """Lines of the Weyl arrangement restricted to the intersection of the
    simple-root hyperplanes outside ``keep``: the kept coordinates of each
    positive root, as primitive vectors, parallel ones merged."""
    lines = set()
    for v in positive_roots(cartan):
        w = tuple(v[k] for k in keep)
        if any(w):
            lines.add(_primitive(w))
    return sorted(lines)


def box_lines(bound=2):
    """One primitive vector per line through the nonzero points of [-b, b]^3."""
    lines = set()
    for v in product(range(-bound, bound + 1), repeat=3):
        if any(v):
            w = _primitive(v)
            lines.add(max(w, tuple(-x for x in w)))
    return sorted(lines)


def _entry(name, rank, roots, why):
    return {"name": name, "rank": rank, "roots": [list(v) for v in roots], "why": why}


def documents():
    """The document set of the ``verify`` workload, in a fixed order."""
    weyl = "Weyl arrangement, one object; the accept path on a catalog entry"
    docs = [
        _entry("A2", 2, positive_roots(CARTAN["A2"]), weyl),
        _entry("rank2-7", 2, RANK2_7, "rank-2 crystallographic, not Weyl"),
        _entry("noncrystallographic-2.6", 2, NONCRYSTALLOGRAPHIC,
               "non-integral root coordinates: the reject path, exit 1"),
    ]
    for name in ("A3", "A4", "B3", "C3"):
        docs.append(_entry(name, len(CARTAN[name]), positive_roots(CARTAN[name]), weyl))
    docs.append(_entry("D4", 4, positive_roots(CARTAN["D4"]),
                       "largest catalog entry: 192 chambers"))
    for weyl_type, keep in RESTRICTIONS:
        lines = restriction(CARTAN[weyl_type], keep)
        docs.append(_entry(
            f"{weyl_type}-restriction-{''.join(map(str, keep))}", 3, lines,
            f"{len(lines)}-line rank-3 restriction, several objects: the accept "
            "path on a large arrangement"))
    docs.append(_entry("box-49", 3, box_lines(),
                       "49 lines, non-simplicial: a large early reject"))
    return docs


def objects():
    """The object set of the ``closure`` workload, in a fixed order."""
    out = []
    for doc in documents():
        if doc["name"] in ("noncrystallographic-2.6", "box-49"):
            continue
        # Every restricted root is a non-negative integer combination of the
        # kept simple roots, so in these coordinates the restricted lines
        # already form the base object, as the catalog roots do.
        why = ("base object of a restriction: a closure of several objects"
               if "-restriction-" in doc["name"] else "base object of a catalog entry")
        out.append(_entry(doc["name"], doc["rank"], doc["roots"], why))
    return out


def _rng(seed, pass_index, name):
    # str seeds are hashed with SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{seed}/{pass_index}/{name}")


def present_document(doc, seed, pass_index):
    """A seeded presentation of a document: permuted coordinates, a sign per
    coordinate, a sign per root and a shuffled root order."""
    rng = _rng(seed, pass_index, doc["name"])
    r = doc["rank"]
    perm = rng.sample(range(r), r)
    signs = [rng.choice((1, -1)) for _ in range(r)]
    roots = []
    for v in doc["roots"]:
        flip = rng.choice((1, -1))
        roots.append([flip * signs[t] * v[perm[t]] for t in range(r)])
    rng.shuffle(roots)
    return {"rank": r, "name": doc["name"], "roots": roots}


def present_object(obj, seed, pass_index):
    """A seeded presentation of a root object: relabelled simple roots and a
    shuffled root order."""
    rng = _rng(seed, pass_index, obj["name"])
    r = obj["rank"]
    perm = rng.sample(range(r), r)
    roots = [[v[perm[t]] for t in range(r)] for v in obj["roots"]]
    rng.shuffle(roots)
    return {"rank": r, "name": obj["name"], "roots": roots}
