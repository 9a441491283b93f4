"""Statement checks for the structural bounds of crystallographic arrangements.

Every check is a pure function of a groupoid closure and returns a
CheckReport with a verdict, failure witnesses, and the extremal statistics
observed (so regression tests can pin exact values).

The eight checks that test each object on its own take ``orbits``, the
(object index, weight) pairs to visit; the default, None, visits every
object with weight 1, and ``run_all`` passes ``G.orbits``.  An index
outside range(len(G.objects)) raises ValueError.

Let pi be an automorphism of the graph (``GroupoidGraph.symmetries``) and
O' = pi.O an image of an object O.  The roots of O' are those of O with
coordinates permuted by pi, and so are its sums, differences, root
strings and localizations (that of O' at (i, j) is that of O at
(pi[i], pi[j])); Vol_2, determinants up to sign, ``_no_negative_ray`` and
the set of simple roots are unchanged, and c'_tu = c_{pi[t], pi[u]} (the
``GroupoidGraph`` docstring).  The walk of ``plane_walk`` at (O', i, j)
follows the edges of labels i and j, the images of the edges of labels
pi[i] and pi[j] at the objects of the walk at (O, pi[i], pi[j]), so it
returns or raises what that walk does.  Each check tests every pair or
ordering of labels and every root, pair or triple of roots of an object,
so its outcomes at O' are those at O renamed: the same verdicts, counts
and stats, and witnesses exactly when O has them.  The one counter stat
summed over the visited objects, ``triples_checked``, is weighted by the
orbit sizes; ``check_plane_roots`` reports ``pairs`` as 6 per object of
the graph, as ``check_sum_of_roots`` reports ``objects``; the other stats
are maxima, minima and sets, which an orbit representative fills as its
whole orbit does.  So a check run on the orbit representatives has the
verdict and stats of its run over every object, and no witness exactly
when that run has none: a report without a witness is the report of the
run over every object.  The witnesses themselves name objects and roots,
so ``run_all`` takes a report with witnesses from a run over every
object."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from operator import add

from .errors import (
    CycleBrokenError,
    HypothesisFailedError,
    MissingRootError,
    PreconditionFailedError,
)
from .groupoid import (
    VOL2_MAX,
    GroupoidGraph,
    is_object_irreducible,
    simple_roots,
)
from .groupoid import signed_roots as _signed
from .linalg import vol2
from .localization import plane_walk

PASS, FAIL, SKIP = "pass", "fail", "skipped"


@dataclass
class CheckReport:
    check: str
    verdict: str
    witnesses: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "check": self.check,
            "verdict": self.verdict,
            "witnesses": [repr(w) for w in self.witnesses],
            "stats": self.stats,
        }

    @property
    def ok(self):
        return self.verdict != FAIL


def _visits(G: GroupoidGraph, orbits):
    """(index, object, weight) for each of ``orbits``, each object read by
    ``G.object_at``, or for every object with weight 1 when it is None."""
    if orbits is None:
        return [(oi, O, 1) for oi, O in enumerate(G.objects)]
    return [(oi, G.object_at(oi), weight) for oi, weight in orbits]


def check_sum_of_roots(G: GroupoidGraph, orbits=None) -> CheckReport:
    """Every non-simple positive root is a sum of two positive roots."""
    simples = set(simple_roots(G.rank))
    witnesses = []
    for oi, O, _ in _visits(G, orbits):
        sums = O.pair_table.sums
        witnesses += [(oi, v) for v in O.positive_roots if v not in simples and v not in sums]
    return CheckReport("sum_of_roots", FAIL if witnesses else PASS, witnesses,
                       {"objects": len(G.objects)})


def check_r111(G: GroupoidGraph) -> CheckReport:
    """(1,1,1) belongs to every object (irreducible rank 3 only)."""
    if G.rank != 3 or not is_object_irreducible(G.objects[0]):
        return CheckReport("r111", SKIP, [], {"reason": "needs irreducible rank 3"})
    witnesses = [oi for oi, O in enumerate(G.objects)
                 if (1, 1, 1) not in O.positive_roots]
    return CheckReport("r111", FAIL if witnesses else PASS, witnesses, {})


def check_bound7(G: GroupoidGraph, orbits=None) -> CheckReport:
    """All Cartan entries are >= -7; reports the minimum entry."""
    witnesses = [(oi, O.cartan) for oi, O, _ in _visits(G, orbits)
                 if min(min(row) for row in O.cartan) < -7]
    return CheckReport("bound7", FAIL if witnesses else PASS, witnesses,
                       {"min_cartan_entry": _min_cartan_entry(G)})


def check_b128(G: GroupoidGraph, orbits=None) -> CheckReport:
    """Every rank-2 localization at a pair of simple roots has <= 128
    positive roots; reports the maximum size."""
    if G.rank != 3:
        return CheckReport("b128", SKIP, [], {"reason": "rank 3 only"})
    hi = 0
    witnesses = []
    for oi, O, _ in _visits(G, orbits):
        planes = O.planes
        for i, j in combinations(range(3), 2):
            n = len(planes[i, j])
            hi = max(hi, n)
            if n > 128:
                witnesses.append((oi, (i, j), n))
    return CheckReport("b128", FAIL if witnesses else PASS, witnesses,
                       {"max_localization_size": hi})


def compute_k0(G: GroupoidGraph, object_index, ordering):
    """min{k : k*a_i + 2*a_j + a_k in R} for the ordering (i, j, k) at an
    object of a rank-3 closure, or None when there is no such root.

    Requires the localization <a_i, a_j> to have at least 5 positive roots.
    A graph that is not of rank 3, an ordering that is not a permutation of
    (0, 1, 2), or an object index outside range(len(G.objects)) raises
    ValueError."""
    if G.rank != 3:
        raise ValueError("k0 needs a rank-3 closure")
    if sorted(ordering) != [0, 1, 2]:
        raise ValueError(f"ordering {ordering!r} is not a permutation of (0, 1, 2)")
    O = G.object_at(object_index)
    i, j, k = ordering
    if len(O.planes[i, j]) < 5:
        raise PreconditionFailedError("localization has fewer than 5 positive roots")
    return min((v[i] for v in O.positive_roots if v[j] == 2 and v[k] == 1), default=None)


def check_k0(G: GroupoidGraph, orbits=None) -> CheckReport:
    """Over all objects and orderings with big localizations, k0 exists and
    lies in {0,...,4}, and k0 <= 2 when the Cartan entry c_{i,k} vanishes."""
    if G.rank != 3:
        return CheckReport("k0", SKIP, [], {"reason": "rank 3 only"})
    values = []
    witnesses = []
    for oi, O, _ in _visits(G, orbits):
        c = O.cartan
        for ordering in permutations(range(3)):
            try:
                k0 = compute_k0(G, oi, ordering)
            except PreconditionFailedError:
                continue
            i, _, k = ordering
            if k0 is None or k0 > 4:
                witnesses.append((oi, ordering, f"k0 bound violated: {k0}"))
            elif c[i][k] == 0 and k0 > 2:
                witnesses.append((oi, ordering,
                                  f"k0 <= 2 violated with c_ik = 0: {k0}"))
            else:
                values.append(k0)
    if not values and not witnesses:
        return CheckReport("k0", SKIP, [], {"reason": "no localization with >= 5 roots"})
    return CheckReport("k0", FAIL if witnesses else PASS, witnesses,
                       {"values": sorted(set(values))})


def _no_negative_ray(alpha, beta):
    """(-N*alpha + Z*beta) misses N_0^r: no a >= 1 and integer b give
    -a*alpha + b*beta >= 0.  Coordinate by coordinate that asks b*y >= a*x:
    x <= 0 where y = 0, b/a >= x/y where y > 0 and b/a <= x/y where y < 0.
    So the ray misses exactly when some y = 0 < x, or when L = max x/y over
    y > 0 exceeds U = min x/y over y < 0.  Otherwise it meets: b/a = L
    (a = y > 0 of the maximizing coordinate, b = x) or b/a = U (a = -y,
    b = -x) is a point, and with no y != 0 every x <= 0, so a = 1, b = 0
    is one.  Each such point has a and |b| at most the largest |entry|, so
    the coordinate box 1 <= a, |b| <= that entry holds a point whenever the
    ray meets N_0^r.  Each fraction is kept with a positive denominator and
    compared by integer cross-multiplication."""
    lo = hi = None   # L and U as (numerator, positive denominator)
    for x, y in zip(alpha, beta):
        if y > 0:
            if lo is None or x * lo[1] > lo[0] * y:
                lo = x, y
        elif y < 0:
            if hi is None or x * hi[1] > hi[0] * y:   # x/y < hi: y < 0 flips the sign
                hi = -x, -y
        elif x > 0:
            return True
    return lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]


def _min_cartan_entry(G: GroupoidGraph):
    return min(min(min(row) for row in O.cartan) for O in G.objects)


def check_lemcon(G: GroupoidGraph, object_index, alpha, beta, k) -> CheckReport:
    """Root-string convexity: under the stated hypotheses, beta and all of
    alpha + l*beta (0 <= l <= k) are roots, and some object in the closure
    has a Cartan entry <= -k.  An object index outside
    range(len(G.objects)) raises ValueError."""
    roots = G.object_at(object_index).positive_roots
    full = _signed(roots)
    alpha, beta = tuple(alpha), tuple(beta)
    if k < 2:
        raise HypothesisFailedError("k >= 2")
    if alpha not in roots:
        raise HypothesisFailedError("alpha is a positive root")
    if tuple(a + k * b for a, b in zip(alpha, beta)) not in full:
        raise HypothesisFailedError("alpha + k*beta is a root")
    if vol2(alpha, beta) != 1:
        raise HypothesisFailedError("Vol_2(alpha, beta) = 1")
    if not _no_negative_ray(alpha, beta):
        raise HypothesisFailedError("(-N*alpha + Z*beta) misses N_0^r")
    min_entry = _min_cartan_entry(G)
    witnesses = _lemcon_conclusion(full, alpha, beta, k, min_entry)
    return CheckReport("lemcon", FAIL if witnesses else PASS, witnesses,
                       {"k": k, "min_cartan_entry": min_entry})


def _lemcon_conclusion(full, alpha, beta, k, min_entry):
    """check_lemcon's conclusion once all five hypotheses hold: the list of
    its failure witnesses, empty when it holds.

    The hypotheses put alpha in R and alpha + k*beta in +-R, so of the
    string alpha + l*beta (0 <= l <= k) only the inner terms 1 <= l <= k-1
    are tested.  Both callers have established them: ``check_lemcon``
    tests them first, and ``lemcon_sweep`` takes alpha and alpha + k*beta
    from a pair of positive roots."""
    witnesses = []
    if beta not in full:
        witnesses.append(("beta not a root", beta))
    v = alpha
    for _ in range(k - 1):
        v = tuple(map(add, v, beta))
        if v not in full:
            witnesses.append(("missing intermediate", v))
    if min_entry > -k:
        witnesses.append(("no Cartan entry <= -k", min_entry))
    return witnesses


def lemcon_sweep(G: GroupoidGraph, orbits=None) -> CheckReport:
    """check_lemcon over every hypothesis-satisfying (object, alpha, beta, k).

    The candidates come from the roots gamma = alpha + k*beta themselves:
    Vol_2(alpha, beta) = 1 makes beta primitive, so k is the gcd of
    d = gamma - alpha and beta = d/k.  Vol_2 is the gcd of the 2 x 2
    minors, and a minor is linear in each column and vanishes on
    (alpha, alpha), so each minor of (alpha, gamma) is k times the minor of
    (alpha, beta) and Vol_2(alpha, gamma) = k*Vol_2(alpha, beta): the
    hypothesis Vol_2(alpha, beta) = 1 reads Vol_2(alpha, gamma) = k, a test
    on the pair alone.  Only positive gamma can pass: for gamma in -R+,
    -beta >= alpha/k is >= 1 where alpha > 0 and beta <= 0, so a = 1,
    b = -max ceil(alpha_i / -beta_i) gives a point of -N*alpha + Z*beta in
    N_0^r, and ``_no_negative_ray`` fails.  Each unordered pair
    {alpha, gamma} of positive roots gives alpha (beta, k) and gamma
    (-beta, k); the object's ``pair_table`` holds these candidates in its
    ``strings``.  Each alpha's candidates are checked in the order
    (beta, k), and only those meeting the negative ray reach the conclusion,
    which tests "beta is a root" too."""
    min_entry = _min_cartan_entry(G)
    witnesses = []
    triples = 0
    for oi, O, weight in _visits(G, orbits):
        table = O.pair_table
        for alpha in O.positive_roots:
            for beta, k in table.strings.get(alpha, ()):
                if not _no_negative_ray(alpha, beta):
                    continue
                found = _lemcon_conclusion(table.signed, alpha, beta, k, min_entry)
                triples += weight
                if found:
                    witnesses.append((oi, alpha, beta, k, found))
    return CheckReport("lemcon_sweep", FAIL if witnesses else PASS, witnesses,
                       {"triples_checked": triples})


def check_convexity_statements(G: GroupoidGraph, orbits=None) -> CheckReport:
    """(a) the only unimodular difference-free positive triple is the simple
    one; (b) a positive root completing two simples to a unimodular triple
    is simple or exceeds one of them by a root; (c) no irreducible object
    has two 2-root localizations through the same simple root."""
    if G.rank != 3:
        return CheckReport("convexity", SKIP, [], {"reason": "rank 3 only"})
    simples = set(simple_roots(3))
    witnesses = []
    for oi, O, _ in _visits(G, orbits):
        roots = O.positive_roots
        table = O.pair_table
        full, ordered, free = table.signed, table.ordered, table.free
        for t, a in enumerate(ordered):
            # Vol_2(a, b) divides every det(a, b, c), so only a unimodular
            # pair (a, b) can start a unimodular triple; the set bits of
            # each mask are taken lowest first
            pairs = table.unimodular[t]
            a0, a1, a2 = a
            while pairs:
                low = pairs & -pairs
                pairs ^= low
                u = low.bit_length() - 1
                b = ordered[u]
                b0, b1, b2 = b
                # det(a, b, c) by cofactors along c: c . (a x b)
                x = a1 * b2 - a2 * b1
                y = a2 * b0 - a0 * b2
                z = a0 * b1 - a1 * b0
                thirds = free[t] & free[u]
                while thirds:
                    low = thirds & -thirds
                    thirds ^= low
                    c = ordered[low.bit_length() - 1]
                    if x * c[0] + y * c[1] + z * c[2] in (1, -1) and {a, b, c} != simples:
                        witnesses.append((oi, "a", (a, b, c)))
        # (b) at (e_2, e_1), (e_2, e_0), (e_1, e_0) in one pass over the
        # roots: Vol_3(e_p, e_q, a) = |a_k| for the third coordinate k
        found = [], [], []
        for a in roots:
            if a in simples:
                continue
            a0, a1, a2 = a
            if abs(a0) == 1 and (a0, a1 - 1, a2) not in full and (a0, a1, a2 - 1) not in full:
                found[0].append(a)
            if abs(a1) == 1 and (a0 - 1, a1, a2) not in full and (a0, a1, a2 - 1) not in full:
                found[1].append(a)
            if abs(a2) == 1 and (a0 - 1, a1, a2) not in full and (a0, a1 - 1, a2) not in full:
                found[2].append(a)
        for (g1, g2), hits in zip(combinations(sorted(simples), 2), found):
            witnesses += [(oi, "b", (g1, g2, a)) for a in hits]
        if is_object_irreducible(O):
            for i in range(3):
                if sum(len(O.planes[i, j]) == 2 for j in range(3) if j != i) == 2:
                    witnesses.append((oi, "c", i))
    return CheckReport("convexity", FAIL if witnesses else PASS, witnesses, {})


def check_vol2_bound(G: GroupoidGraph, orbits=None) -> CheckReport:
    """Vol_2 over all pairs of positive roots is at most ``VOL2_MAX``."""
    hi = 0
    witnesses = []
    for oi, O, _ in _visits(G, orbits):
        table = O.pair_table
        hi = max(hi, table.max_vol2)
        witnesses += [(oi, *w) for w in table.above]
    return CheckReport("vol2_bound", FAIL if witnesses else PASS, witnesses,
                       {"max_vol2": hi, "m": VOL2_MAX})


def check_plane_roots(G: GroupoidGraph, orbits=None) -> CheckReport:
    """Localization-cycle facts: cycles close with period n; in an
    irreducible object no two cyclically consecutive auxiliary entries
    vanish; the plane roots exist with gamma_2 = (d_2, c_1*d_2 + d_1, 1)
    in permuted coordinates; at least n/2 of the gammas are distinct.

    The report is that of ``plane_roots`` at every object and ordered pair:
    each runs ``plane_walk``, which sorts its plane and walks its cycle
    along ``G.edges`` itself."""
    if G.rank != 3:
        return CheckReport("plane_roots", SKIP, [], {"reason": "rank 3 only"})
    witnesses = []
    for oi, O, _ in _visits(G, orbits):
        irreducible = is_object_irreducible(O)
        for i, j in permutations(range(3), 2):
            try:
                pairs, cs, d, gammas, _ = plane_walk(G, oi, i, j)
            except (MissingRootError, CycleBrokenError) as e:
                witnesses.append((oi, (i, j), f"{type(e).__name__}: {e}"))
                continue
            if irreducible and (0, 0) in zip(d, d[1:] + d[:1]):
                witnesses.append((oi, (i, j), "consecutive zero d", d))
            # both ends are present, so n >= 2
            c1, d1, d2 = cs[0], d[0], d[1]
            if gammas[2] != (d2, c1 * d2 + d1, 1):
                witnesses.append((oi, (i, j), "gamma_2 closed form",
                                  gammas[2], (d2, c1 * d2 + d1, 1)))
            if 2 * len(set(gammas)) < len(pairs):
                witnesses.append((oi, (i, j), "too few distinct gammas"))
    return CheckReport("plane_roots", FAIL if witnesses else PASS, witnesses,
                       {"pairs": 6 * len(G.objects)})


def check_pigeonhole(G: GroupoidGraph, max_vol2) -> CheckReport:
    """|R_+| <= (m+1)^r where m = ``max_vol2`` is the observed Vol_2
    maximum, the ``max_vol2`` stat of ``check_vol2_bound``."""
    n = len(G.objects[0].positive_roots)
    ok = n <= (max_vol2 + 1) ** G.rank
    return CheckReport("pigeonhole", PASS if ok else FAIL,
                       [] if ok else [(n, max_vol2)],
                       {"positive_roots": n, "max_vol2": max_vol2})


def run_all(G: GroupoidGraph):
    """The full suite on a closure built by ``traverse`` (``check_plane_roots``
    walks its edges); returns the list of reports.

    Each check that tests objects on their own runs on ``G.orbits``.  When
    its report has a witness and some orbit has more than one object, that
    check runs again on every object, so its witnesses and their order are
    those of a run over every object; every other report already is that
    run's (see the module docstring)."""
    orbits = G.orbits
    symmetric = len(orbits) < len(G.objects)

    def run(check):
        report = check(G, orbits)
        return check(G) if symmetric and report.witnesses else report

    vol2 = run(check_vol2_bound)
    return [
        run(check_sum_of_roots),
        check_r111(G),
        run(check_bound7),
        run(check_b128),
        run(check_k0),
        vol2,
        run(check_convexity_statements),
        run(check_plane_roots),
        check_pigeonhole(G, vol2.stats["max_vol2"]),
        run(lemcon_sweep),
    ]


def all_ok(reports):
    return all(r.ok for r in reports)
