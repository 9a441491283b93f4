"""Independent oracles for the test suite.

Everything here is deliberately written from first principles, without
using the package's own algorithms: chamber counts come from sign-vector
enumeration with Fourier-Motzkin feasibility, determinants from cofactor
expansion, elementary divisors from gcds of minors, Catalan numbers
from the binomial closed form, the simpliciality and chamber count of
a rank-3 arrangement from its intersection points (Melchior, Zaslavsky),
the plane roots of a localization walk from their definition
(``plane_roots_from_definition``, with no routine of ``localization`` or
``rank2``), and the symmetries of a closure and the orbits of its objects
from theirs (``symmetries_from_definition``: each relabelled object found
by a scan and the whole edge dict relabelled; ``orbits_from_definition``),
and the Cartan matrix from its definition (``cartan_from_definition``:
each k*e_i + e_j looked up for every k up to the largest coordinate).
Thirty-six references are the exception, each kept as the slow path that
a faster one replaced: ``clear_denominators`` (lines of Fraction vectors,
for the integer-only ``direction``), ``make_root_set_fractions`` (every
input check on Fractions, for the checks on covectors scaled to integers
first), ``verify_candidate_geometric`` (the geometric
pipeline alone, for the search's integer-first filter),
``verify_candidate_traverse`` (the integer-first filter with
``traverse`` as its first closure test, for the one that runs the
search's closed walk first),
``kernel_vector_gauss_jordan`` (the Fraction elimination, for the integer
maximal-minor kernel), ``verify_fraction_coordinates`` (Fraction root
coordinates against rescaled rays, for the integer covectors),
``dfs_states`` (the graph search with a visited set and forced root
strings, for the states of the search's walk), ``tree_walk`` (the walk
that adds one root at a time, with no permutation or reflection test,
for the canonical forms of the level walk), ``no_negative_ray_box`` (every
point of the coordinate box, for the per-coordinate intervals),
``lemcon_sweep_triple_loop`` (every alpha + k*beta, for the sweep over
root differences), ``lemcon_conclusion_every_term`` (every term
alpha + l*beta of the string, 0 <= l <= k, for the conclusion that tests
the inner terms), ``traverse_every_edge`` (every edge of the closure
reflected, for the walk that reflects each edge between two objects
once), ``reflect_object_every_coordinate`` (the sign of every coordinate
of each image, for the reflection that reads coordinate i alone),
``convexity_statements_vol3`` (``vol(3, .)`` on
every triple, for the inline determinants and the pair prefilter),
``compute_k0_lookup`` (a membership test for each candidate k, for the
scan over the roots), ``sum_of_roots_every_pair`` and
``vol2_bound_every_pair`` (every pair
of positive roots walked by the check itself, for the checks that read
the object's pair table),
``chamber_from_signs_rescan`` and ``adjacent_chamber_rescan`` (a scan
of every candidate ray per wall crossing, for the local crossing),
``chamber_graph_every_crossing`` (a chamber built for every crossing and
looked up by its sign vector, for the walk that builds each chamber once
and keys it by a mask), and ``rank2_cycles_reflecting``,
``plane_roots_reflecting`` and ``check_plane_roots_reflecting`` (every
chamber of a localization walk built again by ``reflect_object`` on a
coordinate-permuted copy, for the walk along the closure's edges),
``verify_every_chamber`` (a root object built at every chamber, for the
test of each distinct column once), ``verify_column_scan`` (each distinct
column of every chamber tested for divisibility, for the lattice test of
one crossing per chamber), ``kernel_vector_minors`` (the signed
maximal minors by cofactor expansion, for the Bareiss minors),
``canonical_form_every_object`` (every object rendered in full under each
relabelling, for the rendering of each distinct root once) and
``matrix_rank_fractions`` (Gauss-Jordan over the rationals, for the
fraction-free elimination), ``partial_closure_ok`` (every path of the
reflection walk in matrix form, members found through integer inverses
and every row tested, and in closed mode a stack of matrices that
follows every row, for the search's level walk over reflected members
that visits each object once), ``key_sorted_image`` (a generator and a
key call per root, for the image sorted by (height, image) pairs),
``representative_every_object`` (every object permuted and sorted again,
for the representative read from the images the search keeps) and
``supports_connected_union_find`` (a union-find over the coordinates of
each support, for the bit-mask closure of the linked coordinates),
``planes_support_dispatch`` (one pass over the roots dispatched on each
support, for the plane table built by ``localize``),
``localize_every_coordinate`` (every coordinate of each root read, for
the test of the coordinates off the support alone) and
``run_all_every_object`` (each check called with no ``orbits``, on every
object, for the suite over one object of each symmetry orbit).
``rays_for_signs_scan`` (every candidate ray, for the clipping of
``_chamber_rays``), which the two rescans use with ``walls_exact``,
reads the signs of the rays from exact products of its own, not from the
package's row memo.  The rescans and the Fraction verify work on sign
vectors of +-1, and convert with ``mask_of`` and ``signs_of`` where they
meet a chamber's ``positive`` mask.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, compress, permutations, product
from math import comb, gcd, inf, lcm

from cryarr import search, verifier
from cryarr.errors import (
    ClosureOverflowError,
    CycleBrokenError,
    MissingRootError,
    NonSimplicialError,
    NotClosedError,
    PreconditionFailedError,
)
from cryarr.geometry import (
    Chamber,
    RootSet,
    adjacent_chamber,
    cartan_of_chamber,
    chamber_graph,
    chamber_roots,
    initial_chamber,
    is_irreducible,
    make_root_set,
    ray_values,
    supports_connected,
)
from cryarr.groupoid import (
    GroupoidGraph,
    RootObject,
    VerifyResult,
    canonical_form,
    is_object_irreducible,
    make_root_object,
    reflect_object,
    simple_roots,
    traverse,
    verify_crystallographic,
)
from cryarr.linalg import direction, sign_normalize, vec_neg, vol
from cryarr.localization import LocalizationCycles, PlaneRoots, localize, plane_roots
from cryarr.rank2 import slope_sorted
from cryarr.verifier import (
    FAIL,
    PASS,
    SKIP,
    VOL2_MAX,
    CheckReport,
    _min_cartan_entry,
    _signed,
    all_ok,
    run_all,
)


def clear_denominators(vec):
    """Primitive integer vector spanning the same ray; orientation preserved."""
    d = lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(Fraction(x) * d) for x in vec]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def make_root_set_fractions(covectors, rank=None) -> RootSet:
    """``geometry.make_root_set`` with every check on Fractions: the
    duplicate, zero and parallel tests and the sort run on the given
    covectors, keyed by ``clear_denominators``, and the accepted ones are
    scaled to integers only at the end."""
    covectors = [tuple(Fraction(x) for x in cov) for cov in covectors]
    if not covectors:
        raise ValueError("empty root set")
    r = rank if rank is not None else len(covectors[0])

    def show(v):
        return "(" + ", ".join(map(str, v)) + ("," if len(v) == 1 else "") + ")"

    seen = {}
    for cov in covectors:
        if len(cov) != r:
            raise ValueError("covector length does not match rank")
        if all(x == 0 for x in cov):
            raise ValueError("zero covector")
        pos = sign_normalize(cov)
        key = sign_normalize(clear_denominators(pos))
        if key in seen and seen[key] != pos:
            raise ValueError(f"parallel roots {show(seen[key])} and {show(pos)}")
        seen[key] = pos
    positives = sorted(seen.values())
    d = lcm(*(x.denominator for cov in positives for x in cov))
    positives = tuple(tuple(int(x * d) for x in cov) for cov in positives)
    if matrix_rank_fractions(positives) != r:
        raise ValueError("roots do not span the dual space")
    return RootSet(rank=r, positives=positives, denominator=d)


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x.numerator if isinstance(x, Fraction) else x)
    if g == 0:
        return tuple(v)
    return tuple(Fraction(x, g) if isinstance(x, Fraction) else x // g for x in v)


def fm_feasible(constraints, dim):
    """Is there x with c.x > 0 for every c?  (Homogeneous, strict.)"""
    cons = {(_primitive(c)) for c in constraints}
    if any(all(x == 0 for x in c) for c in cons):
        return False
    for var in range(dim - 1):
        pos, neg, rest = [], [], set()
        for c in cons:
            if c[var] > 0:
                pos.append(c)
            elif c[var] < 0:
                neg.append(c)
            else:
                rest.add(c)
        for p in pos:
            for q in neg:
                y = tuple(p[var] * qb - q[var] * pb for pb, qb in zip(p, q))
                if all(x == 0 for x in y):
                    return False
                rest.add(_primitive(y))
        cons = rest
    vals = [c[dim - 1] for c in cons]
    if not vals:
        return True
    return all(v > 0 for v in vals) or all(v < 0 for v in vals)


def count_chambers(covectors, dim):
    """Number of chambers of a central arrangement, by recursive sign
    assignment with Fourier-Motzkin pruning."""
    covectors = [tuple(c) for c in covectors]

    def rec(i, chosen):
        if not fm_feasible(chosen, dim):
            return 0
        if i == len(covectors):
            return 1
        c = covectors[i]
        return rec(i + 1, chosen + [c]) + rec(i + 1, chosen + [tuple(-x for x in c)])

    return rec(0, [])


def det_cofactor(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def snf_divisors_minors(m):
    """Elementary divisors via gcds of k x k minors (d_k / d_{k-1})."""
    rows, cols = len(m), len(m[0])
    n = min(rows, cols)
    dets = [1]
    for k in range(1, n + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[m[a][b] for b in ci] for a in ri]
                g = gcd(g, abs(det_cofactor(sub)))
        dets.append(g)
    out = []
    for k in range(1, n + 1):
        if dets[k] == 0:
            out.append(0)
        else:
            out.append(dets[k] // dets[k - 1])
    return tuple(out)


def catalan_binomial(k):
    return comb(2 * k, k) // (k + 1)


def supports_connected_union_find(vectors, rank) -> bool:
    """Whether the coordinate supports of ``vectors`` link all ``rank``
    coordinates, by union-find over the coordinates of each support."""
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


def verify_candidate_geometric(roots):
    """A search state decided by the geometry alone: the groupoid closure
    of an irreducible crystallographic arrangement whose base-chamber
    positive system is ``roots`` and whose statement checks pass, or None."""
    try:
        R = make_root_set(roots, rank=3)
    except ValueError:
        return None
    if not is_irreducible(R):
        return None
    res = verify_crystallographic(R)
    if not res.ok:
        return None
    if res.base_object.positive_roots != frozenset(roots):
        return None
    if not all_ok(run_all(res.graph)):
        return None
    return res.graph


def verify_candidate_traverse(roots):
    """A search state decided as the search decided it before its closed
    walk: connected supports, the closure built by ``traverse`` within
    n(n-1)+2 objects, then the geometry, which must reproduce the state as
    its base object and the same closure; the closure, or None."""
    n = len(roots)
    if not supports_connected(roots, 3):
        return None
    try:
        G = traverse(RootObject(3, frozenset(roots)), max_objects=n * (n - 1) + 2)
    except (NotClosedError, ClosureOverflowError):
        return None
    try:
        R = make_root_set(roots, rank=3)
    except ValueError:
        return None
    res = verify_crystallographic(R)
    if (not res.ok or res.base_object.positive_roots != frozenset(roots)
            or res.graph != G):
        return None
    return res.graph


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def kernel_vector_gauss_jordan(rows, dim):
    """Primitive integer generator of the kernel of the rows by Gauss-Jordan
    elimination over the rationals, or None unless the kernel is a line."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(dim):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(dim) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [Fraction(0)] * dim
    vec[free[0]] = Fraction(1)
    for row_idx, c in enumerate(pivots):
        vec[c] = -m[row_idx][free[0]]
    return clear_denominators(vec)


def kernel_vector_minors(rows, dim):
    """``linalg.kernel_vector`` by its signed maximal minors in every
    dimension: entry j is (-1)^j times the determinant of the rows with
    column j left out, divided by the gcd of the entries."""
    if len(rows) != dim - 1:
        return None
    if dim == 1:
        return (1,)
    vec = [(-1) ** j * det_cofactor([row[:j] + row[j + 1:] for row in map(list, rows)])
           for j in range(dim)]
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g else None


def matrix_rank_fractions(rows):
    """Rank over the rationals by Gauss-Jordan elimination in Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][c] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def verify_every_chamber(R: RootSet) -> VerifyResult:
    """``verify_crystallographic`` building the root object of every
    chamber, in ``chamber_graph`` order, until one is not integral."""
    try:
        chambers, edges = chamber_graph(R)
    except NonSimplicialError as e:
        return VerifyResult(False, "non-simplicial", (e.signs, e.ray_count),
                            0, (), None, None)
    base_cartan = cartan_of_chamber(
        R, chambers[0], [chambers[edges[0, i]] for i in range(R.rank)])
    base_object = None
    for K in chambers:
        roots, witness = chamber_roots(R, K)
        if roots is None:
            return VerifyResult(False, "non-integral root coordinates", witness,
                                len(chambers), base_cartan, None, None)
        if base_object is None:
            base_object = RootObject(R.rank, roots)
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


def verify_column_scan(R: RootSet) -> VerifyResult:
    """``verify_crystallographic`` testing the divisibility of every
    distinct (ray, scale) column of every chamber, in walk order, on the
    chambers of ``chamber_graph_every_crossing``: coordinate i of every
    root at chamber K is <cov, ray_i> / s_i, the column depends on the pair
    (ray_i, s_i) alone, and the first chamber with a failing pair is the
    first chamber with a non-integral coordinate."""
    try:
        chambers, edges = chamber_graph_every_crossing(R)
    except NonSimplicialError as e:
        return VerifyResult(False, "non-simplicial", (e.signs, e.ray_count),
                            0, (), None, None)
    base_cartan = cartan_of_chamber(
        R, chambers[0], [chambers[edges[0, i]] for i in range(R.rank)])
    passed = set()
    for K in chambers:
        signs = signs_of(K.positive, len(R.positives))
        for v, w in zip(K.rays, K.walls):
            values = ray_values(R, v)
            column = (v, signs[w] * values[w])
            if column not in passed:
                if any(x % column[1] for x in values):
                    return VerifyResult(False, "non-integral root coordinates",
                                        chamber_roots(R, K)[1], len(chambers),
                                        base_cartan, None, None)
                passed.add(column)
    base_object = RootObject(R.rank, chamber_roots(R, chambers[0])[0])
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


def canonical_form_every_object(G: GroupoidGraph) -> bytes:
    """``canonical_form`` rendering every object in full under each
    relabelling, shared roots again for each object."""
    r = G.rank
    best = None
    for perm in permutations(range(r)):
        rendered = []
        for O in G.objects:
            items = sorted(tuple(v[p] for p in perm) for v in O.positive_roots)
            rendered.append("|".join(",".join(str(x) for x in v) for v in items))
        s = str(r) + ";" + ";".join(sorted(set(rendered)))
        if best is None or s < best:
            best = s
    return best.encode("utf-8")


def symmetries_from_definition(G: GroupoidGraph):
    """The relabellings pi, in ``permutations`` order (the identity first),
    whose permuted copy of G is G: the object pi.O_o found by a scan of the
    objects for each o, and the edge dict rebuilt from
    (o, s) -> e as (pi.o, pi^-1(s)) -> pi.e equal to G's.  A graph with a
    repeated object has the identity only."""
    objects = [O.positive_roots for O in G.objects]
    identity = tuple(range(G.rank))
    if len(set(objects)) < len(objects):
        return (identity,)
    found = []
    for perm in permutations(range(G.rank)):
        images = []
        for O in G.objects:
            image = permute_object(O, perm).positive_roots
            images.append(next((j for j, roots in enumerate(objects) if roots == image), None))
        if None in images:
            continue
        moved = {(images[o], perm.index(s)): images[e] for (o, s), e in G.edges.items()}
        if moved == G.edges:
            found.append(perm)
    return tuple(found)


def orbits_from_definition(G: GroupoidGraph):
    """(least index, size) of each orbit of the objects under
    ``symmetries_from_definition``, each orbit the set of objects equal to
    an image of one object, in the order of their least indices."""
    objects = [O.positive_roots for O in G.objects]
    symmetries = symmetries_from_definition(G)[1:]
    orbits = {}
    for oi, O in enumerate(G.objects):
        orbit = {oi} | {objects.index(permute_object(O, perm).positive_roots)
                        for perm in symmetries}
        orbits[min(orbit)] = len(orbit)
    return tuple(sorted(orbits.items()))


def scaled_ray_coordinates(basis, rays, covector):
    """Coordinates of ``covector`` in the wall-root basis of a chamber: its
    products with the rays rescaled so that ``basis`` is their dual basis."""
    scaled = [tuple(Fraction(c, 1) / _dot(b, v) for c in v) for b, v in zip(basis, rays)]
    return tuple(_dot(covector, v) for v in scaled)


def verify_fraction_coordinates(covectors, rank):
    """``verify_crystallographic`` on the given covectors kept as Fractions:
    (reason, chamber count, base Cartan matrix, base object, witness).  The
    chamber walk and the closure are the package's; the covectors, Cartan
    entries and root coordinates are computed here in Fractions."""
    R = make_root_set(covectors, rank)
    positives = sorted({sign_normalize(tuple(Fraction(x) for x in c)) for c in covectors})
    assert len(positives) == len(R.positives)
    try:
        chambers, _ = chamber_graph(R)
    except NonSimplicialError as e:
        return "non-simplicial", 0, (), None, (e.signs, e.ray_count)

    def basis(K):
        signs = signs_of(K.positive, len(positives))
        return [positives[k] if signs[k] > 0 else tuple(-x for x in positives[k])
                for k in K.walls]

    b0 = basis(chambers[0])
    cartan = []
    for i in range(rank):
        coeff = [_dot(b, adjacent_chamber(R, chambers[0], i).rays[i]) for b in b0]
        cartan.append(tuple(Fraction(2) if j == i else coeff[j] / coeff[i]
                            for j in range(rank)))
    cartan = tuple(cartan)
    base = None
    for K in chambers:
        roots = set()
        for cov in positives:
            coords = scaled_ray_coordinates(basis(K), K.rays, cov)
            if any(x.denominator != 1 for x in coords) or not (
                    all(x >= 0 for x in coords) or all(x <= 0 for x in coords)):
                return ("non-integral root coordinates", len(chambers), cartan, None,
                        (signs_of(K.positive, len(positives)), cov, coords))
            roots.add(tuple(abs(int(x)) for x in coords))
        if base is None:
            base = make_root_object(rank, roots)
    try:
        traverse(base, max_objects=len(chambers))
    except NotClosedError as e:
        return ("reflection image not sign-coherent", len(chambers), cartan, base,
                (e.root, e.image))
    except ClosureOverflowError as e:
        return "closure exceeds chamber count", len(chambers), cartan, base, str(e)
    return "", len(chambers), cartan, base, None


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def rank3_rays_scan(covectors, signs):
    """The rays of the closed cone on which every rank-3 integer covector
    has its sign in ``signs`` or 0: each primitive cross product of two
    covectors, or its negative, on which no covector has the opposite
    sign."""
    rays = set()
    for a, b in combinations(covectors, 2):
        v = _primitive(_cross(a, b))
        for u in (v, vec_neg(v)):
            if all(s * _dot(cov, u) >= 0 for cov, s in zip(covectors, signs)):
                rays.add(u)
    return rays


def melchior_zaslavsky(covectors):
    """(simplicial, chamber count) of a central rank-3 arrangement of
    pairwise non-parallel integer covectors, from the intersection points p
    of its projective lines and the number m_p of lines through each:
    simplicial iff sum_p (3 - m_p) = 3 (Melchior), and 2(1 - f0 + f1)
    chambers with f0 points and f1 = sum_p m_p edges (Zaslavsky)."""
    points = {}
    for a, b in combinations(range(len(covectors)), 2):
        p = sign_normalize(_primitive(_cross(covectors[a], covectors[b])))
        points.setdefault(p, set()).update((a, b))
    multiplicities = [len(through) for through in points.values()]
    f0, f1 = len(multiplicities), sum(multiplicities)
    return sum(3 - m for m in multiplicities) == 3, 2 * (1 - f0 + f1)


def primitive_hyperplanes(R):
    """The arrangement as a set of primitive normal directions (forgets scaling)."""
    return frozenset(direction(cov) for cov in R.positives)


def close_forcing(roots, cap, known=frozenset()):
    """The search's old state closure: insert the lower members of every
    root string l*e_i + e_j, then return None if the state breaks the cap,
    k <= 7, non-parallelism or Vol_2 <= 6.  Pairs inside ``known`` are
    not tested again."""
    roots = set(roots)
    changed = True
    while changed:
        changed = False
        for v in list(roots):
            support = [t for t, x in enumerate(v) if x != 0]
            if len(support) != 2:
                continue
            s, t = support
            for (a, b) in ((s, t), (t, s)):
                if v[b] == 1:
                    if v[a] > 7:
                        return None
                    for ell in range(1, v[a]):
                        w = [0, 0, 0]
                        w[a], w[b] = ell, 1
                        w = tuple(w)
                        if w not in roots:
                            roots.add(w)
                            changed = True
    if len(roots) > cap:
        return None
    fresh = roots - known
    dirs = {direction(v) for v in known}
    for v in fresh:
        d = direction(v)
        if d in dirs:
            return None
        dirs.add(d)
    for a, b in chain(product(fresh, known), combinations(fresh, 2)):
        if vol(2, [a, b]) > 6:
            return None
    return frozenset(roots)


def dfs_states(cap):
    """Every state the rank-3 search walks, found as the old graph search
    found them: any non-parallel sum of two members is added, its root
    string is filled in by ``close_forcing``, and a visited set stops the
    states reached along more than one path."""
    visited = set()
    stack = [close_forcing(simple_roots(3), cap)]
    while stack:
        S = stack.pop()
        if S is None or S in visited:
            continue
        visited.add(S)
        if len(S) >= cap:
            continue
        dirs = {direction(u) for u in S}
        sums = {tuple(x + y for x, y in zip(a, b)) for a, b in combinations(S, 2)}
        for v in sorted(sums):
            if direction(v) not in dirs:
                stack.append(close_forcing(S | {v}, cap, S))
    return visited


def tree_walk(cap):
    """The canonical forms the rank-3 search found when it walked one root
    at a time: a state's children were the state plus each sum of two
    members above its last root in the order (sum, coordinates) that is
    parallel to no member and that ``_close`` accepts.  Every valid state
    is decided, with no permutation or reflection test."""
    key = search._key
    forms = set()
    stack = [tuple(sorted(simple_roots(3), key=key))]
    while stack:
        S = stack.pop()
        G = search._verify_candidate(S)
        if G is not None:
            forms.add(canonical_form(G))
        if len(S) >= cap:
            continue
        dirs = {direction(u) for u in S}
        sums = {tuple(x + y for x, y in zip(a, b)) for a, b in combinations(S, 2)}
        for v in sorted(sums):
            if key(v) > key(S[-1]) and direction(v) not in dirs:
                T = search._close(S, v)
                if T is not None:
                    stack.append(T)
    return forms


def key_sorted_image(roots, perm):
    """The image of ``roots`` under the coordinate permutation ``perm``,
    sorted by key(v) = (sum(v), v), with a generator and a key call per
    root."""
    return tuple(sorted((tuple(v[p] for p in perm) for v in roots), key=search._key))


def representative_every_object(G):
    """The least plainly sorted root tuple over the closure's objects under
    every coordinate permutation, each image built from the object's roots."""
    return min(tuple(sorted(tuple(v[p] for p in perm) for v in O.positive_roots))
               for O in G.objects for perm in permutations(range(3)))


def least_permutation_image(roots):
    """The key-sorted tuple of ``roots`` is at most that of each image under
    a permutation of the coordinates, key(v) = (sum(v), v)."""
    def key(v):
        return sum(v), v
    own = tuple(sorted(roots, key=key))
    return all(own <= tuple(sorted((tuple(v[p] for p in perm) for v in roots), key=key))
               for perm in permutations(range(3)))


def reflection_rule_ok(roots):
    """No simple reflection sigma_i of the Cartan matrix of ``roots`` maps a
    member beta != e_i to a vector with a negative i-th coordinate, where
    every c_ij with beta_j != 0 is already final: (1 - c_ij)*e_i + e_j is
    not a member and its height 2 - c_ij is at most the largest height."""
    height = max(sum(v) for v in roots)
    cartan = RootObject(3, frozenset(roots)).cartan
    for i in range(3):
        final = set()
        for j in set(range(3)) - {i}:
            nxt = [0, 0, 0]
            nxt[i], nxt[j] = 1 - cartan[i][j], 1
            if tuple(nxt) not in roots and sum(nxt) <= height:
                final.add(j)
        for beta in roots:
            if beta == simple_roots(3)[i]:
                continue
            if all(j in final for j in range(3) if j != i and beta[j]):
                if reflect_vector(beta, i, cartan[i])[i] < 0:
                    return False
    return True


def _matrix_times(A, B):
    return [[sum(A[r][t] * B[t][c] for t in range(3)) for c in range(3)] for r in range(3)]


def _apply(A, w):
    return tuple(sum(A[r][t] * w[t] for t in range(3)) for r in range(3))


def _integer_inverse(A):
    """The inverse of an integer 3x3 matrix of determinant +-1, by cofactors."""
    def cofactor(r, c):
        rows = [i for i in range(3) if i != r]
        cols = [j for j in range(3) if j != c]
        minor = (A[rows[0]][cols[0]] * A[rows[1]][cols[1]]
                 - A[rows[0]][cols[1]] * A[rows[1]][cols[0]])
        return (-1) ** (r + c) * minor
    det = sum(A[0][c] * cofactor(0, c) for c in range(3))
    assert det in (1, -1), A
    return [[cofactor(c, r) * det for c in range(3)] for r in range(3)]


def partial_closure_ok(roots, depth, r111=True):
    """The search's reflection and (1,1,1) tests from scratch, in matrix form.

    With H the largest height of ``roots`` (infinite when ``depth`` is
    None), a vector u of Z^3 is decided present when u or -u is a member,
    decided absent when it has mixed signs or when u or -u is non-negative
    of height at most H and not a member, and undecided otherwise.  Every
    path of at most ``depth`` reflections from the base object that never
    takes the label it just took ends at an object with a matrix M, w being
    a root there exactly when M w is one at the base.  Its Cartan entry
    c_jl (l != j) is 1 - m for the least m >= 1 with M(m*e_j + e_l) not
    decided present, and is decided when that vector is decided absent; its
    members are the non-negative M^{-1} t for t in +-roots.  Each member
    beta != e_j whose entries c_jl with beta_l != 0 are all decided must
    have sigma_j(beta)_j >= 0, at every object and for every j; the path
    goes on through sigma_j, with the matrix M*sigma_j, when row j is
    decided.  With ``r111``, M(1,1,1) must also not be decided absent at
    every object (alpha_1 + alpha_2 + alpha_3 is a root at every object of
    an irreducible rank-3 root system); without it, the reflection test
    alone.  With ``depth`` None (closed mode) the tests run at every matrix
    reached through decided rows, each matrix once, from a stack of
    matrices with every row followed, and fail once more than n(n-1)+2
    distinct matrices are found (n = len(roots))."""
    height = inf if depth is None else max(sum(v) for v in roots)
    signed = set(roots) | {tuple(-x for x in v) for v in roots}

    def status(u):
        if u in signed:
            return "present"
        if any(x < 0 for x in u) and any(x > 0 for x in u):
            return "absent"
        return "absent" if abs(sum(u)) <= height else "undecided"

    def entry(M, j, l):
        m = 1
        while True:
            w = [0, 0, 0]
            w[j], w[l] = m, 1
            found = status(_apply(M, w))
            if found != "present":
                return 1 - m if found == "absent" else None
            m += 1

    def tested(M):
        """The Cartan matrix at M, None for an undecided entry; None in its
        place when a test fails at M."""
        if r111 and status(_apply(M, (1, 1, 1))) == "absent":
            return None
        inverse = _integer_inverse(M)
        members = [b for b in (_apply(inverse, t) for t in signed) if min(b) >= 0]
        cartan = [[2 if j == l else entry(M, j, l) for l in range(3)] for j in range(3)]
        for j in range(3):
            for beta in members:
                if beta == simple_roots(3)[j]:
                    continue
                if any(beta[l] and cartan[j][l] is None for l in range(3)):
                    continue
                if beta[j] - sum(cartan[j][l] * beta[l] for l in range(3) if beta[l]) < 0:
                    return None
        return cartan

    def reflected(M, j, cartan):
        sigma = [[int(r == c) - (r == j) * cartan[j][c] for c in range(3)] for r in range(3)]
        return _matrix_times(M, sigma)

    def walk(M, last, d):
        cartan = tested(M)
        if cartan is None:
            return False
        if d == depth:
            return True
        for j in range(3):
            if j == last or None in cartan[j]:
                continue
            if not walk(reflected(M, j, cartan), j, d + 1):
                return False
        return True

    base = [[int(r == c) for c in range(3)] for r in range(3)]
    if depth is not None:
        return walk(base, None, 0)
    most = len(roots) * (len(roots) - 1) + 2
    found, todo = {tuple(map(tuple, base))}, [base]
    while todo:
        M = todo.pop()
        cartan = tested(M)
        if cartan is None:
            return False
        for j in range(3):
            if None in cartan[j]:
                continue
            N = reflected(M, j, cartan)
            if tuple(map(tuple, N)) not in found:
                found.add(tuple(map(tuple, N)))
                if len(found) > most:
                    return False
                todo.append(N)
    return True


def level_walk_states(cap, r111=True):
    """The states the level walk must decide: those of ``dfs_states`` that
    are the least image under coordinate permutations and pass the
    reflection test and, with ``r111``, the (1,1,1) test at every object up
    to ``search.DEPTH`` reflections from the base, all computed from
    scratch."""
    return {S for S in dfs_states(cap)
            if least_permutation_image(S) and partial_closure_ok(S, search.DEPTH, r111)}


def search_state_ok(roots, cap):
    """The search's pruning rules checked from scratch on every root and
    every pair: at most ``cap`` roots, pairwise non-parallel with Vol_2 at
    most 6 (the gcd of the cross product's entries), and for every
    k*e_i + e_j both k <= 7 and every l*e_i + e_j with l < k present."""
    roots = set(roots)
    if len(roots) > cap:
        return False
    for a, b in combinations(roots, 2):
        c = _cross(a, b)
        if not any(c) or gcd(*c) > 6:
            return False
    for v in roots:
        support = [t for t, x in enumerate(v) if x != 0]
        if len(support) != 2:
            continue
        for i, j in (support, support[::-1]):
            if v[j] == 1 and v[i] > 1:
                lower = [tuple(ell if t == i else x for t, x in enumerate(v))
                         for ell in range(1, v[i])]
                if v[i] > 7 or any(w not in roots for w in lower):
                    return False
    return True


def no_negative_ray_box(alpha, beta, bound):
    """(-N*alpha + Z*beta) fails to meet N_0^r within the coordinate box."""
    for a in range(1, bound + 1):
        for b in range(-bound, bound + 1):
            v = tuple(-a * x + b * y for x, y in zip(alpha, beta))
            if all(t >= 0 for t in v):
                return False
    return True


def lemcon_conclusion_every_term(full, alpha, beta, k, min_entry):
    """check_lemcon's conclusion with every term alpha + l*beta of the
    string tested, 0 <= l <= k, each built from alpha and beta afresh."""
    witnesses = []
    if beta not in full:
        witnesses.append(("beta not a root", beta))
    for ell in range(k + 1):
        v = tuple(a + ell * b for a, b in zip(alpha, beta))
        if v not in full:
            witnesses.append(("missing intermediate", v))
    if min_entry > -k:
        witnesses.append(("no Cartan entry <= -k", min_entry))
    return witnesses


def lemcon_sweep_triple_loop(G: GroupoidGraph) -> CheckReport:
    """check_lemcon over every hypothesis-satisfying (object, alpha, beta, k).

    For every alpha in R+ and gamma != alpha in +-R, and every k >= 2 that
    divides gamma - alpha, beta = (gamma - alpha)/k, a root or not, so that
    alpha + k*beta = gamma.  The loop tests the other hypotheses itself
    (Vol_2(alpha, beta) = 1 and the negative ray, the last by
    ``no_negative_ray_box``) and tests the conclusion on the triples that
    meet them, in the order of (beta, k) for each alpha, with
    ``lemcon_conclusion_every_term``."""
    min_entry = _min_cartan_entry(G)
    witnesses = []
    triples = 0
    for oi, O in enumerate(G.objects):
        roots = O.positive_roots
        full = _signed(roots)
        top = max(max(v) for v in roots)
        for alpha in roots:
            candidates = []
            for gamma in full - {alpha}:
                d = [g - a for g, a in zip(gamma, alpha)]
                for k in range(2, 2 * top + 1):
                    if all(x % k == 0 for x in d):
                        candidates.append((tuple(x // k for x in d), k))
            for beta, k in sorted(candidates):
                if (vol(2, [alpha, beta]) != 1
                        or not no_negative_ray_box(alpha, beta, top + 1)):
                    continue
                found = lemcon_conclusion_every_term(full, alpha, beta, k, min_entry)
                triples += 1
                if found:
                    witnesses.append((oi, alpha, beta, k, found))
    return CheckReport("lemcon_sweep", FAIL if witnesses else PASS, witnesses,
                       {"triples_checked": triples})


def compute_k0_lookup(G: GroupoidGraph, object_index, ordering):
    """``verifier.compute_k0`` looking up k*a_i + 2*a_j + a_k for each
    k = 0, 1, ... up to the largest coordinate i of a root, for the scan
    over the roots with coordinates j, k equal to 2, 1."""
    O = G.objects[object_index]
    i, j, k = ordering
    roots = O.positive_roots
    if len(O.planes[i, j]) < 5:
        raise PreconditionFailedError("localization has fewer than 5 positive roots")
    for k0 in range(max(v[i] for v in roots) + 1):
        v = [0, 0, 0]
        v[i], v[j], v[k] = k0, 2, 1
        if tuple(v) in roots:
            return k0
    return None


def sum_of_roots_every_pair(G: GroupoidGraph) -> CheckReport:
    """Every non-simple positive root is a sum of two positive roots."""
    simples = set(simple_roots(G.rank))
    witnesses = []
    for oi, O in enumerate(G.objects):
        roots = O.positive_roots
        for v in roots:
            if v in simples:
                continue
            if not any(tuple(a - b for a, b in zip(v, u)) in roots for u in roots):
                witnesses.append((oi, v))
    return CheckReport("sum_of_roots", FAIL if witnesses else PASS, witnesses,
                       {"objects": len(G.objects)})


def vol2_bound_every_pair(G: GroupoidGraph) -> CheckReport:
    """Vol_2 over all pairs of positive roots is at most ``VOL2_MAX``."""
    hi = 0
    witnesses = []
    for oi, O in enumerate(G.objects):
        for a, b in combinations(sorted(O.positive_roots), 2):
            v = vol(2, [a, b])
            hi = max(hi, v)
            if v > VOL2_MAX:
                witnesses.append((oi, a, b, v))
    return CheckReport("vol2_bound", FAIL if witnesses else PASS, witnesses,
                       {"max_vol2": hi, "m": VOL2_MAX})


def run_all_every_object(G: GroupoidGraph):
    """``verifier.run_all`` with every check called with no ``orbits``, so
    each visits every object with weight 1."""
    vol2 = verifier.check_vol2_bound(G)
    return [
        verifier.check_sum_of_roots(G),
        verifier.check_r111(G),
        verifier.check_bound7(G),
        verifier.check_b128(G),
        verifier.check_k0(G),
        vol2,
        verifier.check_convexity_statements(G),
        verifier.check_plane_roots(G),
        verifier.check_pigeonhole(G, vol2.stats["max_vol2"]),
        verifier.lemcon_sweep(G),
    ]


def convexity_statements_vol3(G: GroupoidGraph) -> CheckReport:
    """(a) the only unimodular difference-free positive triple is the simple
    one; (b) a positive root completing two simples to a unimodular triple
    is simple or exceeds one of them by a root; (c) no irreducible object
    has two 2-root localizations through the same simple root."""
    if G.rank != 3:
        return CheckReport("convexity", SKIP, [], {"reason": "rank 3 only"})
    simples = set(simple_roots(3))
    witnesses = []
    for oi, O in enumerate(G.objects):
        roots = O.positive_roots
        full = _signed(roots)
        for a, b, c in combinations(sorted(roots), 3):
            if vol(3, [a, b, c]) != 1:
                continue
            diffs = (
                tuple(x - y for x, y in zip(a, b)),
                tuple(x - y for x, y in zip(b, c)),
                tuple(x - y for x, y in zip(a, c)),
            )
            if any(d in full for d in diffs):
                continue
            if {a, b, c} != simples:
                witnesses.append((oi, "a", (a, b, c)))
        for g1, g2 in combinations(sorted(simples), 2):
            for a in roots:
                if a in simples or vol(3, [g1, g2, a]) != 1:
                    continue
                d1 = tuple(x - y for x, y in zip(a, g1))
                d2 = tuple(x - y for x, y in zip(a, g2))
                if d1 not in full and d2 not in full:
                    witnesses.append((oi, "b", (g1, g2, a)))
        if is_object_irreducible(O):
            for i in range(3):
                small = 0
                for j in range(3):
                    if j == i:
                        continue
                    if len(localize(O.positive_roots, (i, j))) == 2:
                        small += 1
                if small == 2:
                    witnesses.append((oi, "c", i))
    return CheckReport("convexity", FAIL if witnesses else PASS, witnesses, {})


def planes_support_dispatch(O: RootObject):
    """``RootObject.planes`` built in one pass over the roots, dispatched on
    each root's support: a support {s, t} picks the one plane (s, t), a
    support {s} every plane through s, the empty support of a zero vector
    every plane, and a larger support none."""
    coordinates = range(O.rank)
    table = {pair: [] for pair in combinations(coordinates, 2)}
    through = {(s,): [pair for pair in table if s in pair] for s in coordinates}
    through[()] = list(table)
    for v in sorted(O.positive_roots):
        support = tuple(compress(coordinates, v))
        if len(support) == 2:
            table[support].append(v)
        else:
            for pair in through.get(support, ()):
                table[pair].append(v)
    shared = {pair: tuple(roots) for pair, roots in table.items()}
    return {(i, j): shared[min(i, j), max(i, j)]
            for i, j in permutations(range(O.rank), 2)}


def cartan_from_definition(O: RootObject):
    """c_ij = -max{k >= 0 : k*e_i + e_j in R+}, c_ii = 2, with k scanned
    from 1 up to the largest coordinate of any root; 0 when no k >= 1
    gives a root."""
    r = O.rank
    top = max((max(v) for v in O.positive_roots), default=0)
    c = [[2] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            if i != j:
                ks = [k for k in range(1, top + 1)
                      if tuple(k * (t == i) + (t == j) for t in range(r)) in O.positive_roots]
                c[i][j] = -max(ks, default=0)
    return tuple(tuple(row) for row in c)


def localize_every_coordinate(roots, support) -> tuple:
    """``localize`` reading every coordinate of each root: a root is
    dropped at its first nonzero coordinate off ``support``."""
    out = []
    for v in roots:
        for t, x in enumerate(v):
            if x and t not in support:
                break
        else:
            out.append(v)
    out.sort()
    return tuple(out)


def rank2_cycles_reflecting(O: RootObject, i, j) -> LocalizationCycles:
    """The quiddity and auxiliary cycles around <alpha_i, alpha_j> of a
    rank-3 object, with every chamber of the walk built by
    ``reflect_object``: the step into K_{l+1} uses i when l+1 is even, j
    when it is odd; c_l = -c_{i,j} (l odd) or -c_{j,i} (l even) read at
    K_l, and d_l likewise with the third index in place of the second."""
    if O.rank != 3:
        raise ValueError("rank-2 cycles require a rank-3 object")
    if i == j:
        raise ValueError("indices must differ")
    k = 3 - i - j
    n = len(localize(O.positive_roots, (i, j)))
    cs, ds, objs = [], [], []
    cur = O
    for ell in range(1, 2 * n + 1):
        c = cur.cartan
        objs.append(cur)
        if ell % 2 == 1:
            cs.append(-c[i][j])
            ds.append(-c[i][k])
        else:
            cs.append(-c[j][i])
            ds.append(-c[j][k])
        label = i if (ell + 1) % 2 == 0 else j
        cur = reflect_object(cur, label)
    if cur.positive_roots != O.positive_roots:
        raise CycleBrokenError("walk of length 2n does not return to the start")
    for ell in range(n):
        if cs[ell] != cs[ell + n]:
            raise CycleBrokenError("quiddity cycle is not n-periodic")
    return LocalizationCycles(n=n, quiddity=tuple(cs), auxiliary=tuple(ds),
                              objects=tuple(objs))


def reflect_vector(v, i, cartan_row):
    """sigma_i(v) = v - <cartan_row, v> e_i, every coordinate of it built."""
    w = list(v)
    w[i] = v[i] - sum(cartan_row[j] * v[j] for j in range(len(v)))
    return tuple(w)


def reflect_object_every_coordinate(O: RootObject, i):
    """``reflect_object`` testing the sign of every coordinate of each image:
    a non-negative image is kept, a non-positive one negated, and a mixed
    one raises ``NotClosedError(root, image)``."""
    row = O.cartan[i]
    out = set()
    for v in O.positive_roots:
        w = reflect_vector(v, i, row)
        if all(x >= 0 for x in w):
            out.add(w)
        elif all(x <= 0 for x in w):
            out.add(tuple(-x for x in w))
        else:
            raise NotClosedError(v, w)
    return RootObject(rank=O.rank, positive_roots=frozenset(out))


def traverse_every_edge(base: RootObject, max_objects) -> GroupoidGraph:
    """BFS closure of an object under all reflections, deduplicated by
    value, with every edge reflected, its reverse included."""
    objects = [base]
    index = {base.positive_roots: 0}
    edges = {}
    head = 0
    while head < len(objects):
        oi = head
        head += 1
        for i in range(base.rank):
            img = reflect_object(objects[oi], i)
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


def permute_object(O: RootObject, perm):
    """O with its coordinates permuted: coordinate t of the image is
    coordinate perm[t] of O."""
    roots = frozenset(tuple(v[p] for p in perm) for v in O.positive_roots)
    return RootObject(rank=O.rank, positive_roots=roots)


def plane_roots_reflecting(O: RootObject, i, j) -> PlaneRoots:
    """The plane roots gamma_l, delta_l over <a_i, a_j>, computed on a
    copy of O whose coordinates are permuted to (i, j, third), with the
    auxiliary cycle of ``rank2_cycles_reflecting`` on that copy at (1, 0)."""
    if O.rank != 3:
        raise ValueError("plane roots require a rank-3 object")
    k = 3 - i - j
    perm = (i, j, k)
    P = permute_object(O, perm)
    pairs = slope_sorted([(v[0], v[1]) for v in localize(P.positive_roots, (0, 1))])
    betas = tuple((v[0], v[1], 0) for v in pairs)
    n = len(betas)
    if not betas or betas[0] != (0, 1, 0):
        raise MissingRootError((0, 1, 0))
    if betas[-1] != (1, 0, 0):
        raise MissingRootError((1, 0, 0))
    cyc = rank2_cycles_reflecting(P, 1, 0)
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


def check_plane_roots_reflecting(G: GroupoidGraph) -> CheckReport:
    """``check_plane_roots`` on ``plane_roots_reflecting``: the cycles are
    walked by reflecting each object again, not along ``G.edges``."""
    return plane_roots_report(G, lambda oi, i, j: plane_roots_reflecting(G.objects[oi], i, j))


def check_plane_roots_per_pair(G: GroupoidGraph) -> CheckReport:
    """``check_plane_roots`` on ``localization.plane_roots``: every object
    and ordered pair sorts its plane and walks its cycle along ``G.edges``
    itself, whatever the graph."""
    return plane_roots_report(G, lambda oi, i, j: plane_roots(G, oi, i, j))


def plane_roots_from_definition(G: GroupoidGraph, oi, i, j) -> PlaneRoots:
    """``plane_roots`` from its definition, with no routine of
    ``localization`` or ``rank2``: the roots of O = G.objects[oi] with no
    third coordinate k, in permuted coordinates (x, y) = (v_i, v_j), in the
    order of x / (x + y) from (0, 1) to (1, 0); the end roots (0, 1, 0) then
    (1, 0, 0) required; 2n steps along ``G.edges`` from oi, leaving by label
    j, i, j, ..., that read c_l = -c_{j,i} or -c_{i,j} and d_l = -c_{.,k}
    at each object, with c_ab = -max{m >= 0 : m*e_a + e_b in R+} (0 when
    there is none), back at oi and
    with an n-periodic quiddity; then each gamma, and after them each delta,
    required to be a positive root."""
    k = 3 - i - j
    O = G.objects[oi]
    plane = [(v[i], v[j]) for v in O.positive_roots if v[k] == 0]
    assert all(x >= 0 and y >= 0 for x, y in plane)
    betas = sorted(plane, key=lambda v: Fraction(v[0], v[0] + v[1]))
    n = len(betas)
    if not betas or betas[0] != (0, 1):
        raise MissingRootError((0, 1, 0))
    if betas[-1] != (1, 0):
        raise MissingRootError((1, 0, 0))

    def string_top(P, a, b):
        # -c_ab: the largest m with m*e_a + e_b a positive root of P, or 0
        return max([v[a] for v in P.positive_roots if v[b] == 1 and v[3 - a - b] == 0],
                   default=0)

    cs, ds = [], []
    cur = oi
    for step in range(2 * n):
        leave, other = (j, i) if step % 2 == 0 else (i, j)
        P = G.objects[cur]
        cs.append(string_top(P, leave, other))
        ds.append(string_top(P, leave, k))
        if (cur, leave) not in G.edges:
            raise CycleBrokenError(f"the closure has no edge with label {leave}")
        cur = G.edges[cur, leave]
    if cur != oi:
        raise CycleBrokenError("walk of length 2n does not return to the start")
    if cs[:n] != cs[n:]:
        raise CycleBrokenError("quiddity cycle is not n-periodic")
    gammas = [(0, 0, 1)]
    for l in range(1, n + 1):
        x, y, _ = gammas[-1]
        bx, by = betas[l - 1]
        gammas.append((x + ds[l - 1] * bx, y + ds[l - 1] * by, 1))
    deltas = [(0, 0, 1)]
    for l in range(1, n + 1):
        x, y, _ = deltas[-1]
        bx, by = betas[n - l]
        deltas.append((x + ds[2 * n - l] * bx, y + ds[2 * n - l] * by, 1))
    for v in gammas + deltas:
        root = [0, 0, 0]
        root[i], root[j], root[k] = v
        if tuple(root) not in O.positive_roots:
            raise MissingRootError(v)
    return PlaneRoots(n=n, betas=tuple((x, y, 0) for x, y in betas),
                      gammas=tuple(gammas), deltas=tuple(deltas),
                      auxiliary=tuple(ds), quiddity=tuple(cs), perm=(i, j, k))


def check_plane_roots_from_definition(G: GroupoidGraph) -> CheckReport:
    """``check_plane_roots`` on ``plane_roots_from_definition``."""
    return plane_roots_report(G, lambda oi, i, j: plane_roots_from_definition(G, oi, i, j))


def plane_roots_report(G: GroupoidGraph, plane_roots_at) -> CheckReport:
    """The ``check_plane_roots`` report read off ``plane_roots_at(oi, i, j)``
    at each object and ordered pair."""
    if G.rank != 3:
        return CheckReport("plane_roots", SKIP, [], {"reason": "rank 3 only"})
    witnesses = []
    pairs = 0
    for oi, O in enumerate(G.objects):
        irreducible = is_object_irreducible(O)
        for i, j in permutations(range(3), 2):
            pairs += 1
            try:
                pr = plane_roots_at(oi, i, j)
            except (MissingRootError, CycleBrokenError) as e:
                witnesses.append((oi, (i, j), f"{type(e).__name__}: {e}"))
                continue
            d = pr.auxiliary
            if irreducible:
                m = len(d)
                for t in range(m):
                    if d[t] == 0 and d[(t + 1) % m] == 0:
                        witnesses.append((oi, (i, j), "consecutive zero d", d))
                        break
            if pr.n >= 2:
                c1, d1, d2 = pr.quiddity[0], d[0], d[1]
                if pr.gammas[2] != (d2, c1 * d2 + d1, 1):
                    witnesses.append((oi, (i, j), "gamma_2 closed form",
                                      pr.gammas[2], (d2, c1 * d2 + d1, 1)))
            if 2 * len(set(pr.gammas)) < pr.n:
                witnesses.append((oi, (i, j), "too few distinct gammas"))
    return CheckReport("plane_roots", FAIL if witnesses else PASS, witnesses,
                       {"pairs": pairs})


@lru_cache(maxsize=None)
def _ray_signs_exact(R: RootSet):
    """The candidate rays of R in the package's table order (first kernel
    line of each (rank-1)-subset of hyperplanes, sign-normalized, by
    Gauss-Jordan), each with the signs of exact products with the
    positive covectors."""
    out = {}
    for subset in combinations(R.positives, R.rank - 1):
        v = kernel_vector_gauss_jordan(subset, R.rank)
        if v is not None:
            v = sign_normalize(v)
            out.setdefault(v, tuple((d > 0) - (d < 0)
                                    for d in (_dot(cov, v) for cov in R.positives)))
    return out


def rays_for_signs_scan(R: RootSet, signs):
    """The rays v or -v on which no covector has the sign opposite to the
    chamber's, from exact products; all of them, whatever their number."""
    rays = []
    for v, evs in _ray_signs_exact(R).items():
        vals = {s * e for s, e in zip(signs, evs)}
        if -1 not in vals:
            rays.append(v)
        elif 1 not in vals:
            rays.append(vec_neg(v))
    return rays


def walls_exact(R: RootSet, rays):
    """For each ray, the index of the one positive covector whose exact
    products vanish on all the other rays."""
    walls = []
    for i in range(len(rays)):
        others = [v for j, v in enumerate(rays) if j != i]
        zero = [k for k, cov in enumerate(R.positives)
                if all(_dot(cov, v) == 0 for v in others)]
        if len(zero) != 1:
            raise ValueError(f"no arrangement hyperplane is opposite ray {rays[i]}")
        walls.append(zero[0])
    return tuple(walls)


def mask_of(signs):
    """The ``positive`` mask of a sign vector: bit k where signs[k] > 0."""
    return sum(1 << k for k, s in enumerate(signs) if s > 0)


def signs_of(positive, count):
    """The sign vector of ``count`` covectors with mask ``positive``."""
    return tuple(1 if positive & (1 << k) else -1 for k in range(count))


def chamber_from_signs_rescan(R: RootSet, signs, frame=None) -> Chamber:
    rays = rays_for_signs_scan(R, signs)
    if len(rays) != R.rank:
        raise NonSimplicialError(signs, len(rays))
    if frame is None:
        # canonical frame order: signed wall covectors, lexicographically
        # descending, so standard-basis covectors come out as e1, e2, ...
        walls = walls_exact(R, rays)

        def signed(i):
            cov = R.positives[walls[i]]
            return cov if signs[walls[i]] > 0 else vec_neg(cov)

        order = sorted(range(R.rank), key=signed, reverse=True)
        rays = [rays[i] for i in order]
        walls = tuple(walls[i] for i in order)
    else:
        have = set(rays)
        if set(frame) - have:
            raise ValueError("frame hint does not match chamber rays")
        rays = list(frame)
        walls = walls_exact(R, rays)
    return Chamber(positive=mask_of(signs), rays=tuple(rays), walls=walls)


def adjacent_chamber_rescan(R: RootSet, K: Chamber, i: int) -> Chamber:
    """The chamber across wall i of K, with frame labels propagated."""
    if not 0 <= i < R.rank:
        raise IndexError("wall index out of range")
    signs = list(signs_of(K.positive, len(R.positives)))
    signs[K.walls[i]] *= -1
    rays = rays_for_signs_scan(R, signs)
    if len(rays) != R.rank:
        raise NonSimplicialError(tuple(signs), len(rays))
    kept = set(K.rays) - {K.rays[i]}
    new = [v for v in rays if v not in kept]
    if len(new) != 1:
        raise ValueError("wall crossing did not produce a unique new ray")
    frame = list(K.rays)
    frame[i] = new[0]
    return chamber_from_signs_rescan(R, tuple(signs), frame=frame)


def chamber_graph_every_crossing(R: RootSet):
    """``chamber_graph`` building the chamber of every crossing, also of
    those that land in a chamber already reached."""
    k0 = initial_chamber(R)
    chambers = [k0]
    index = {signs_of(k0.positive, len(R.positives)): 0}
    edges = {}
    head = 0
    while head < len(chambers):
        ci = head
        head += 1
        K = chambers[ci]
        for i in range(R.rank):
            Kn = adjacent_chamber(R, K, i)
            signs = signs_of(Kn.positive, len(R.positives))
            j = index.get(signs)
            if j is None:
                j = len(chambers)
                index[signs] = j
                chambers.append(Kn)
            edges[(ci, i)] = j
    return chambers, edges
