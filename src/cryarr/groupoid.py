"""Root-coordinate model of the reflection groupoid.

An object is the set of positive roots of an arrangement written in the
simple-root coordinates of one chamber.  Reflections move between objects;
the closure of an object under all reflections is a finite graph exactly
in the crystallographic case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from math import gcd
from operator import itemgetter, mul, neg, sub

from .errors import ClosureOverflowError, NonSimplicialError, NotClosedError
from .geometry import (
    RootSet,
    cartan_of_chamber,
    chamber_graph,
    chamber_roots,
    supports_connected,
)
from .linalg import vol2
from .localization import localize

# the bound on Vol_2 of two positive roots; the search prunes by it too
VOL2_MAX = 6


def signed_roots(roots):
    """+-R: the roots and their negatives."""
    return roots | {tuple(map(neg, v)) for v in roots}


@dataclass(frozen=True)
class PairTable:
    """What the statement checks read off the unordered pairs a < b of an
    object's sorted positive roots ``ordered``, with d = b - a.

    ``free[t]`` has bit u set for each u > t with d not in +-R, and
    ``unimodular[t]`` the bits of ``free[t]`` whose pair has Vol_2 = 1.
    ``sums`` holds the roots that are a sum of two positive roots: a root b
    is one exactly when some a < b has d in +-R, because a sum b = a + d
    exceeds both summands lexicographically, and d > 0 lexicographically
    is in +-R only as a positive root.  ``above`` lists (a, b, Vol_2) for
    the pairs with Vol_2 above ``VOL2_MAX``, in pair order, and
    ``max_vol2`` is the largest Vol_2 (0 with no pair).  ``strings`` maps
    a root to its sorted root-string candidates (beta, k) of
    ``verifier.lemcon_sweep``: each pair with k = gcd(d) = Vol_2(a, b)
    >= 2, which is Vol_2(a, beta) = 1 for beta = d/k, a root or not,
    gives a the candidate (beta, k) and b the candidate (-beta, k)."""
    signed: frozenset
    ordered: tuple
    free: tuple
    unimodular: tuple
    sums: frozenset
    max_vol2: int
    above: tuple
    strings: dict


@dataclass(frozen=True)
class RootObject:
    rank: int
    positive_roots: frozenset  # of int tuples in N_0^r

    @cached_property
    def cartan(self):
        """c_ij = -max{k >= 0 : k*alpha_i + alpha_j in R}, c_ii = 2, in one
        pass over the roots: k*e_i + e_j with k >= 1 is a root v with
        exactly two nonzero coordinates s < t, so v raises -c_st to v_s
        when v_t = 1 and -c_ts to v_t when v_s = 1.  An entry that no root
        raises is 0.  No plane table is built."""
        r = self.rank
        c = [[0] * r for _ in range(r)]
        for v in self.positive_roots:
            if v.count(0) == r - 2:
                s, t = [u for u, x in enumerate(v) if x]
                vs, vt = v[s], v[t]
                if vt == 1 and -vs < c[s][t]:
                    c[s][t] = -vs
                if vs == 1 and -vt < c[t][s]:
                    c[t][s] = -vt
        for i in range(r):
            c[i][i] = 2
        return tuple(map(tuple, c))

    @cached_property
    def planes(self):
        """The coordinate-plane localizations: (i, j) -> ``localize`` at
        (i, j), for each ordered pair i != j.  (i, j) and (j, i) share one
        tuple."""
        shared = {pair: localize(self.positive_roots, pair)
                  for pair in combinations(range(self.rank), 2)}
        return {(i, j): shared[min(i, j), max(i, j)]
                for i, j in permutations(range(self.rank), 2)}

    @cached_property
    def pair_table(self):
        """The ``PairTable``, built in one pass over the pairs a < b of the
        sorted positive roots: one difference, one lookup in +-R and one
        Vol_2 per pair, with the gcd of the difference taken only when
        Vol_2 >= 2.  In rank 3 the difference and Vol_2, the gcd of the
        entries of a x b as in ``linalg.vol2``, are taken from unpacked
        coordinates."""
        ordered = tuple(sorted(self.positive_roots))
        signed = signed_roots(self.positive_roots)
        rank3 = self.rank == 3
        free = []
        unimodular = []
        sums = set()
        strings = {}
        hi = 0
        above = []
        for t, a in enumerate(ordered):
            if rank3:
                a0, a1, a2 = a
            f = m = 0
            bit = 1 << t
            for b in ordered[t + 1:]:
                bit <<= 1
                if rank3:
                    b0, b1, b2 = b
                    d = (b0 - a0, b1 - a1, b2 - a2)
                    v = gcd(a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
                else:
                    d = tuple(map(sub, b, a))
                    v = vol2(a, b)
                if d in signed:
                    sums.add(b)
                elif v == 1:
                    # the common pair: free, unimodular, no string candidate
                    f |= bit
                    m |= bit
                    hi = hi or 1
                    continue
                else:
                    f |= bit
                if v > hi:
                    hi = v
                if v >= 2:
                    if v > VOL2_MAX:
                        above.append((a, b, v))
                    if gcd(*d) == v:
                        beta = tuple(x // v for x in d)
                        strings.setdefault(a, []).append((beta, v))
                        strings.setdefault(b, []).append((tuple(map(neg, beta)), v))
            free.append(f)
            unimodular.append(m)
        return PairTable(signed, ordered, tuple(free), tuple(unimodular), frozenset(sums),
                         hi, tuple(above), {a: tuple(sorted(c)) for a, c in strings.items()})


def simple_roots(rank):
    """The simple roots e_0, ..., e_{rank-1} in root coordinates."""
    return tuple(tuple(int(t == i) for t in range(rank)) for i in range(rank))


def _check_roots(rank, roots):
    """Raise ValueError unless every one of ``roots`` is a nonzero vector in
    N_0^rank of ``int`` coordinates (not ``bool``) and no two are
    parallel."""
    directions = set()
    for v in roots:
        if len(v) != rank:
            raise ValueError("root length does not match rank")
        if any(type(x) is not int for x in v):
            raise ValueError(f"root {v} has a coordinate that is not an int")
        g = gcd(*v)
        if not g or min(v) < 0:
            raise ValueError(f"root {v} is not a nonzero vector in N_0^r")
        d = v if g == 1 else tuple(x // g for x in v)
        if d in directions:
            raise ValueError(f"parallel roots in direction {d}")
        directions.add(d)


def make_root_object(rank, positive_roots) -> RootObject:
    roots = frozenset(tuple(v) for v in positive_roots)
    _check_roots(rank, roots)
    for e in simple_roots(rank):
        if e not in roots:
            raise ValueError(f"missing simple root {e}")
    return RootObject(rank=rank, positive_roots=roots)


def reflect_roots(roots, i, row):
    """sigma_i(v) = v - <row, v> e_i on each of ``roots``, re-positivized.
    sigma_i changes only coordinate i, so an image is positive when that
    coordinate is nonnegative, and negative only when every other
    coordinate is 0; any other image raises ``NotClosedError(v, image)``.
    In rank 3 the image is built from unpacked coordinates, with one loop
    per label.  A label i outside range(len(row)) raises ValueError."""
    if i not in range(len(row)):
        raise ValueError(f"label {i!r} is not in range({len(row)})")
    out = set()
    if len(row) == 3:
        c0, c1, c2 = row
        if i == 0:
            for v in roots:
                v0, v1, v2 = v
                x = v0 - c0 * v0 - c1 * v1 - c2 * v2
                if x >= 0:
                    out.add((x, v1, v2))
                elif v1 or v2:
                    raise NotClosedError(v, (x, v1, v2))
                else:
                    out.add((-x, v1, v2))
        elif i == 1:
            for v in roots:
                v0, v1, v2 = v
                x = v1 - c0 * v0 - c1 * v1 - c2 * v2
                if x >= 0:
                    out.add((v0, x, v2))
                elif v0 or v2:
                    raise NotClosedError(v, (v0, x, v2))
                else:
                    out.add((v0, -x, v2))
        else:
            for v in roots:
                v0, v1, v2 = v
                x = v2 - c0 * v0 - c1 * v1 - c2 * v2
                if x >= 0:
                    out.add((v0, v1, x))
                elif v0 or v1:
                    raise NotClosedError(v, (v0, v1, x))
                else:
                    out.add((v0, v1, -x))
        return frozenset(out)
    for v in roots:
        x = v[i] - sum(map(mul, row, v))
        if x >= 0:
            out.add(v[:i] + (x,) + v[i + 1:])
        elif any(v[:i]) or any(v[i + 1:]):
            raise NotClosedError(v, v[:i] + (x,) + v[i + 1:])
        else:
            out.add(v[:i] + (-x,) + v[i + 1:])
    return frozenset(out)


def reflect_object(O: RootObject, i):
    """Apply sigma_i, with row i of O's Cartan matrix, and re-positivize.
    A label i outside range(O.rank) raises ValueError."""
    if i not in range(O.rank):
        raise ValueError(f"label {i!r} is not in range({O.rank})")
    return RootObject(rank=O.rank, positive_roots=reflect_roots(O.positive_roots, i, O.cartan[i]))


@dataclass(frozen=True)
class GroupoidGraph:
    """A closure: its objects and the edges (object index, label) -> object
    index between them.

    A relabelling pi of the simple roots acts on a root by
    (pi.v)[t] = v[pi[t]] and on an object root by root.  It commutes with
    reflection, sigma_t(pi.v) = pi.sigma_{pi[t]}(v): pi.O's Cartan matrix is
    O's permuted, c'_tu = c_{pi[t], pi[u]}, because k*e_t + e_u is a root
    of pi.O exactly when k*e_{pi[t]} + e_{pi[u]} is one of O; so
    <c'_t, pi.v> = <c_{pi[t]}, v>, and pi.e_{pi[t]} = e_t.  Re-positivizing
    commutes with pi as well.  So reflection of O at label s maps to
    reflection of pi.O at label pi^-1(s)."""
    rank: int
    objects: tuple          # RootObject, index 0 is the base
    edges: dict             # (object index, label) -> object index

    def object_at(self, oi):
        """Object ``oi``; an index outside range(len(objects)) raises
        ValueError."""
        if oi not in range(len(self.objects)):
            raise ValueError(f"object index {oi!r} is not in range({len(self.objects)})")
        return self.objects[oi]

    @cached_property
    def _automorphisms(self):
        """(pi, the object map o -> index of pi.O_o) for each of the
        ``symmetries``, the identity first."""
        r = self.rank
        identity = tuple(range(r))
        n = len(self.objects)
        found = [(identity, tuple(range(n)))]
        index = {O.positive_roots: oi for oi, O in enumerate(self.objects)}
        if len(index) < n:
            return tuple(found)
        edges = self.edges
        for perm in permutations(range(r)):
            if perm == identity:
                continue
            # r >= 2 here, so the getter returns tuples
            permuted = itemgetter(*perm)
            images = []
            for O in self.objects:
                j = index.get(frozenset(map(permuted, O.positive_roots)))
                if j is None:
                    break
                images.append(j)
            else:
                inverse = [perm.index(s) for s in range(r)]
                # the edge keys map one-to-one, so edges that all map to
                # edges are mapped onto the edges
                if all(edges.get((images[o], inverse[s])) == images[e]
                       for (o, s), e in edges.items()):
                    found.append((perm, tuple(images)))
        return tuple(found)

    @cached_property
    def symmetries(self):
        """The relabellings pi for which O -> pi.O sends the objects one to
        one onto the objects and each edge (o, s) -> e onto the edge
        (pi.o, pi^-1(s)) -> pi.e, the identity first.  Both are tested
        directly, so a graph with a repeated object has the identity only.
        They form a group: the automorphisms of the graph."""
        return tuple(perm for perm, _ in self._automorphisms)

    @cached_property
    def orbits(self):
        """(representative, size) for each orbit of the objects under the
        ``symmetries``, the representative its least index, in index order
        (object 0 first)."""
        maps = [images for _, images in self._automorphisms]
        seen = set()
        out = []
        for oi in range(len(self.objects)):
            if oi not in seen:
                orbit = {images[oi] for images in maps}
                seen |= orbit
                out.append((oi, len(orbit)))
        return tuple(out)


def traverse(base: RootObject, max_objects) -> GroupoidGraph:
    """BFS closure of an object under all reflections, deduplicated by value.

    Each edge between two objects is reflected once.  Let the edge
    (a, i) -> b be found with b not yet expanded, and row i of b's Cartan
    matrix equal to row i of a's.  Then ``reflect_object(b, i)`` is a and
    cannot raise, so the walk records (b, i) -> a and skips that
    reflection when it expands b.  Proof: the rows define the same
    sigma_i(v) = v - <row, v> e_i, an involution because the row's entry i
    is 2.  Every root v of a lies in N_0^r (a ``RootObject``'s roots do,
    and ``reflect_object`` keeps them there) and went to w = sigma_i(v)
    when w_i >= 0, else to -w, a positive multiple of e_i with v one too.
    In the first case sigma_i(w) = v with v_i >= 0; in the second,
    sigma_i(-w) = -v, a negative multiple of e_i, which re-positivizes to
    v.  So reflecting b sends each of its roots back to the root of a it
    came from and raises on none: the result is a.

    The row test is needed: b is reflected by its own row, which need not
    be a's when a is not a root system.  a = {(1,0,0), (0,0,1), (2,1,0)}
    lacks e_1 and has row 0 = (2, -2, 0); its image at label 0 is the
    simple system, whose row 0 is (2, 0, 0) and whose image is itself,
    not a.

    Skipped reflections never find a new object and never raise, so the
    objects, their order, the edge order and the first exception are
    those of reflecting every edge.

    The base is checked by ``_check_roots``, as ``make_root_object``
    checks it, except for the simple roots, which it may lack: a root of
    the wrong length and a zero, negative or parallel root raise
    ValueError.  ``reflect_roots`` keeps every image a nonzero vector in
    N_0^r, and sigma_i is linear and invertible, so no two images are
    parallel.  A ``max_objects`` below 1 raises ValueError."""
    if max_objects < 1:
        raise ValueError("max_objects must be at least 1")
    _check_roots(base.rank, base.positive_roots)
    objects = [base]
    index = {base.positive_roots: 0}
    edges = {}
    back = {}
    # the loop reaches the objects appended while it runs
    for oi, O in enumerate(objects):
        for i in range(base.rank):
            j = back.pop((oi, i), None)
            if j is None:
                img = reflect_object(O, i)
                j = index.get(img.positive_roots)
                if j is None:
                    if len(objects) >= max_objects:
                        raise ClosureOverflowError(
                            f"more than {max_objects} objects in the closure"
                        )
                    j = len(objects)
                    index[img.positive_roots] = j
                    objects.append(img)
                if j > oi and objects[j].cartan[i] == O.cartan[i]:
                    back[j, i] = oi
            edges[oi, i] = j
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


def verify_crystallographic(R: RootSet) -> VerifyResult:
    """Simpliciality, integrality of root coordinates at every chamber, and
    termination of the groupoid closure.

    The first chamber that is not integral is the least index of
    ``R.lattice_changes`` (the lattice lemma of the ``geometry`` module
    docstring), and its ``chamber_roots`` give the witness; when there is
    none, the base chamber's give the base object."""
    try:
        chambers, edges = chamber_graph(R)
    except NonSimplicialError as e:
        return VerifyResult(False, "non-simplicial", (e.signs, e.ray_count),
                            0, (), None, None)
    base = chambers[0]
    base_cartan = cartan_of_chamber(
        R, base, [chambers[edges[0, i]] for i in range(R.rank)])
    if R.lattice_changes:
        return VerifyResult(False, "non-integral root coordinates",
                            chamber_roots(R, chambers[min(R.lattice_changes)])[1],
                            len(chambers), base_cartan, None, None)
    base_object = RootObject(R.rank, chamber_roots(R, base)[0])
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
    coordinates by ",".  Equal forms characterize equivalent arrangements.
    The objects of a closure share most of their roots, so each distinct
    root is permuted and rendered once per relabelling.

    One relabelling is rendered per coset {gamma o pi : gamma in Gamma},
    (gamma o pi)[t] = gamma[pi[t]], of the group Gamma of ``G.symmetries``:
    pi.(gamma.v) = (gamma o pi).v, and gamma maps the object set onto
    itself, so gamma o pi renders the same set of objects as pi."""
    r = G.rank
    best = None
    object_sets = [O.positive_roots for O in G.objects]
    all_roots = frozenset().union(*object_sets)
    coordinates = ",".join(["%d"] * r)
    rendered_cosets = set()
    for perm in permutations(range(r)):
        if perm in rendered_cosets:
            continue
        rendered_cosets.update(tuple([g[p] for p in perm]) for g in G.symmetries)
        # in rank 1 the getter returns an int, which renders and sorts as (int,)
        image = dict(zip(all_roots, map(itemgetter(*perm), all_roots)))
        text = dict(zip(image, map(coordinates.__mod__, image.values())))
        rendered = {"|".join(map(text.__getitem__, sorted(roots, key=image.__getitem__)))
                    for roots in object_sets}
        s = str(r) + ";" + ";".join(sorted(rendered))
        if best is None or s < best:
            best = s
    return best.encode("utf-8")


def canonical_form_of_rootset(R: RootSet) -> bytes:
    res = verify_crystallographic(R)
    if not res.ok:
        raise ValueError(f"not crystallographic: {res.reason}")
    return canonical_form(res.graph)


def is_object_irreducible(O: RootObject) -> bool:
    """Connectivity of the Cartan graph (i ~ j when c_ij != 0): row i of
    the Cartan matrix is nonzero at i and at each such j."""
    return supports_connected(O.cartan, O.rank)
