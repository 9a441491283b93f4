"""Root-coordinate model of the reflection groupoid.

An object is the set of positive roots of an arrangement written in the
simple-root coordinates of one chamber.  Reflections move between objects;
the closure of an object under all reflections is a finite graph exactly
in the crystallographic case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .errors import ClosureOverflowError, NonSimplicialError, NotClosedError
from .geometry import (
    RootSet,
    chamber_coordinates,
    chamber_graph,
    chamber_root_basis,
    initial_chamber,
    scaled_rays,
)
from .linalg import direction


@dataclass(frozen=True)
class RootObject:
    rank: int
    positive_roots: frozenset  # of int tuples in N_0^r


def simple_roots(rank):
    """The simple roots e_0, ..., e_{rank-1} in root coordinates."""
    return tuple(tuple(int(t == i) for t in range(rank)) for i in range(rank))


def make_root_object(rank, positive_roots) -> RootObject:
    roots = frozenset(tuple(int(x) for x in v) for v in positive_roots)
    dirs = set()
    for v in roots:
        if len(v) != rank:
            raise ValueError("root length does not match rank")
        if any(x < 0 for x in v) or all(x == 0 for x in v):
            raise ValueError(f"root {v} is not a nonzero vector in N_0^r")
        d = direction(v)
        if d in dirs:
            raise ValueError(f"parallel roots in direction {d}")
        dirs.add(d)
    for e in simple_roots(rank):
        if e not in roots:
            raise ValueError(f"missing simple root {e}")
    return RootObject(rank=rank, positive_roots=roots)


def cartan_from_roots(O: RootObject):
    """c_ij = -max{k >= 0 : k*alpha_i + alpha_j in R}, c_ii = 2."""
    r = O.rank
    c = [[2] * r for _ in range(r)]
    for v in O.positive_roots:
        support = [t for t, x in enumerate(v) if x != 0]
        if len(support) != 2:
            continue
        s, t = support
        if v[s] == 1 and c[t][s] > -v[t]:
            c[t][s] = -v[t]
        if v[t] == 1 and c[s][t] > -v[s]:
            c[s][t] = -v[s]
    for i in range(r):
        for j in range(r):
            if i != j and c[i][j] == 2:
                c[i][j] = 0
    return tuple(tuple(row) for row in c)


def reflect_vector(v, i, cartan_row):
    w = list(v)
    w[i] = v[i] - sum(cartan_row[j] * v[j] for j in range(len(v)))
    return tuple(w)


def reflect_object(O: RootObject, i):
    """Apply sigma_i and re-positivize.  Returns (object, cartan_row_i)."""
    c = cartan_from_roots(O)
    out = set()
    for v in O.positive_roots:
        w = reflect_vector(v, i, c[i])
        if all(x >= 0 for x in w):
            out.add(w)
        elif all(x <= 0 for x in w):
            out.add(tuple(-x for x in w))
        else:
            raise NotClosedError(v, w)
    return RootObject(rank=O.rank, positive_roots=frozenset(out)), c[i]


@dataclass(frozen=True)
class GroupoidGraph:
    rank: int
    objects: tuple          # RootObject, index 0 is the base
    edges: dict             # (object index, label) -> object index


def traverse(base: RootObject, max_objects) -> GroupoidGraph:
    """BFS closure of an object under all reflections, deduplicated by value."""
    objects = [base]
    index = {base.positive_roots: 0}
    edges = {}
    head = 0
    while head < len(objects):
        oi = head
        head += 1
        for i in range(base.rank):
            img, _ = reflect_object(objects[oi], i)
            j = index.get(img.positive_roots)
            if j is None:
                if len(objects) >= max_objects:
                    raise ClosureOverflowError(
                        f"more than {max_objects} objects in the closure"
                    )
                j = len(objects)
                index[img.positive_roots] = j
                objects.append(img)
            edges[(oi, i)] = j
    return GroupoidGraph(rank=base.rank, objects=tuple(objects), edges=edges)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str                # "" on pass
    witness: object            # failing (chamber signs, root, coordinates) or exception info
    chamber_count: int         # 0 if simpliciality already failed
    base_cartan: tuple         # Cartan matrix at the base chamber (may be non-integral)
    base_object: object        # RootObject on success, else None
    graph: object              # GroupoidGraph on success, else None


def base_cartan_of(R: RootSet):
    from .geometry import cartan_of_chamber

    return cartan_of_chamber(R, initial_chamber(R))


def root_object_of_chamber(R: RootSet, K):
    """Root coordinates of all covectors in the chamber's wall-root basis."""
    rays = scaled_rays(R, K)
    roots = set()
    for cov in R.positives:
        coords = chamber_coordinates(R, K, cov, rays)
        if any(x != int(x) for x in coords):
            return None, (K.signs, cov, coords)
        w = tuple(int(x) for x in coords)
        if all(x <= 0 for x in w):
            w = tuple(-x for x in w)
        elif not all(x >= 0 for x in w):
            return None, (K.signs, cov, coords)
        roots.add(w)
    return make_root_object(R.rank, roots), None


def verify_crystallographic(R: RootSet) -> VerifyResult:
    """Simpliciality, integrality of root coordinates at every chamber, and
    termination of the groupoid closure."""
    try:
        chambers, _ = chamber_graph(R)
    except NonSimplicialError as e:
        return VerifyResult(False, "non-simplicial", (e.signs, e.ray_count),
                            0, (), None, None)
    base_cartan = base_cartan_of(R)
    base_object = None
    for K in chambers:
        obj, witness = root_object_of_chamber(R, K)
        if obj is None:
            return VerifyResult(False, "non-integral root coordinates", witness,
                                len(chambers), base_cartan, None, None)
        if base_object is None:
            base_object = obj
    try:
        graph = traverse(base_object, max_objects=len(chambers))
    except NotClosedError as e:
        return VerifyResult(False, "reflection image not sign-coherent",
                            (e.root, e.image), len(chambers), base_cartan,
                            base_object, None)
    except ClosureOverflowError as e:
        return VerifyResult(False, "closure exceeds chamber count", str(e),
                            len(chambers), base_cartan, base_object, None)
    return VerifyResult(True, "", None, len(chambers), base_cartan,
                        base_object, graph)


def canonical_form(G: GroupoidGraph) -> bytes:
    """Canonical byte string of a groupoid closure.

    Minimum over all simple-root relabellings of the serialization
    "r;obj;obj;...", objects sorted, roots within an object joined by "|",
    coordinates by ",".  Equal forms characterize equivalent arrangements."""
    r = G.rank
    best = None
    object_sets = [O.positive_roots for O in G.objects]
    for perm in permutations(range(r)):
        rendered = []
        for roots in object_sets:
            items = sorted(tuple(v[p] for p in perm) for v in roots)
            rendered.append("|".join(",".join(str(x) for x in v) for v in items))
        s = str(r) + ";" + ";".join(sorted(set(rendered)))
        if best is None or s < best:
            best = s
    return best.encode("utf-8")


def canonical_form_of_rootset(R: RootSet) -> bytes:
    res = verify_crystallographic(R)
    if not res.ok:
        raise ValueError(f"not crystallographic: {res.reason}")
    return canonical_form(res.graph)


def rootset_of_object(O: RootObject) -> RootSet:
    from .geometry import make_root_set

    return make_root_set([tuple(Fraction(x) for x in v) for v in O.positive_roots],
                         rank=O.rank)


def is_object_irreducible(O: RootObject) -> bool:
    """Connectivity of the Cartan graph (i ~ j when c_ij != 0)."""
    c = cartan_from_roots(O)
    r = O.rank
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(r):
            if j not in seen and c[i][j] != 0:
                seen.add(j)
                stack.append(j)
    return len(seen) == r
