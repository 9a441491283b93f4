"""Built-in arrangements: classical series and small fixtures.

All root data is given in simple-root coordinates, so entries double as
root objects of the groupoid module and as covector sets for geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import make_root_set
from .groupoid import make_root_object, reflect_roots, simple_roots


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    rank: int
    positive_roots: tuple
    crystallographic: bool
    expected_chambers: int


def _series_cartan(kind, r):
    if r < 2 or (kind == "D" and r < 4):
        raise ValueError(f"invalid rank {r} for type {kind}")
    c = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def bond(i, j):
        c[i][j] = -1
        c[j][i] = -1

    if kind in ("A", "B", "C"):
        for i in range(r - 1):
            bond(i, i + 1)
        if kind == "B":
            c[r - 1][r - 2] = -2
        elif kind == "C":
            c[r - 2][r - 1] = -2
    elif kind == "D":
        for i in range(r - 2):
            bond(i, i + 1)
        bond(r - 1, r - 3)
    else:
        raise ValueError(f"unknown series {kind}")
    return c


def _roots_from_cartan(c):
    """Positive roots as the reflection closure of the simple roots.  The
    Cartan matrix of a finite Weyl group is that of every chamber, so each
    reflection maps the positive roots other than e_i into themselves."""
    r = len(c)
    roots = set(simple_roots(r))
    frontier = set(roots)
    while frontier:
        nxt = set()
        for i in range(r):
            nxt |= reflect_roots(frontier, i, c[i])
        frontier = nxt - roots
        roots |= frontier
    return tuple(sorted(roots))


def make_series(kind, r) -> CatalogEntry:
    kind = kind.upper()
    c = _series_cartan(kind, r)
    roots = _roots_from_cartan(c)
    weyl = {
        "A": math.factorial(r + 1),
        "B": 2 ** r * math.factorial(r),
        "C": 2 ** r * math.factorial(r),
        "D": 2 ** (r - 1) * math.factorial(r),
    }[kind]
    return CatalogEntry(
        name=f"{kind}{r}",
        rank=r,
        positive_roots=roots,
        crystallographic=True,
        expected_chambers=weyl,
    )


SEVEN_ROOTS = ((1, 0), (3, 1), (2, 1), (5, 3), (3, 2), (1, 1), (0, 1))


def fixtures():
    return [
        make_series("A", 2),
        CatalogEntry(
            name="rank2-7",
            rank=2,
            positive_roots=SEVEN_ROOTS,
            crystallographic=True,
            expected_chambers=14,
        ),
        CatalogEntry(
            name="noncrystallographic-2.6",
            rank=2,
            positive_roots=((1, 0), (0, 1), (1, 2)),
            crystallographic=False,
            expected_chambers=6,
        ),
    ]


def entries():
    out = list(fixtures())
    for kind, r in (("A", 3), ("A", 4), ("B", 3), ("C", 3), ("D", 4)):
        out.append(make_series(kind, r))
    return out


def get(name) -> CatalogEntry:
    for e in entries():
        if e.name.lower() == name.lower():
            return e
    raise KeyError(f"no catalog entry named {name!r}")


def root_set_of(entry: CatalogEntry):
    return make_root_set(entry.positive_roots, rank=entry.rank)


def root_object_of(entry: CatalogEntry):
    if not entry.crystallographic:
        raise ValueError(f"{entry.name} is not crystallographic")
    return make_root_object(entry.rank, entry.positive_roots)
