"""Statement checks for the structural bounds of crystallographic arrangements.

Every check is a pure function of a groupoid closure and returns a
CheckReport with a verdict, failure witnesses, and the extremal statistics
observed (so regression tests can pin exact values)."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

from .errors import (
    CycleBrokenError,
    HypothesisFailedError,
    MissingRootError,
    PreconditionFailedError,
)
from .groupoid import (
    GroupoidGraph,
    cartan_from_roots,
    is_object_irreducible,
    simple_roots,
)
from .linalg import vol
from .localization import localize, plane_roots, rank2_cycles

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


def check_sum_of_roots(G: GroupoidGraph) -> CheckReport:
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


def check_r111(G: GroupoidGraph) -> CheckReport:
    """(1,1,1) belongs to every object (irreducible rank 3 only)."""
    if G.rank != 3 or not is_object_irreducible(G.objects[0]):
        return CheckReport("r111", SKIP, [], {"reason": "needs irreducible rank 3"})
    witnesses = [oi for oi, O in enumerate(G.objects)
                 if (1, 1, 1) not in O.positive_roots]
    return CheckReport("r111", FAIL if witnesses else PASS, witnesses, {})


def check_bound7(G: GroupoidGraph) -> CheckReport:
    """All Cartan entries are >= -7; reports the minimum entry."""
    lo = 2
    witnesses = []
    for oi, O in enumerate(G.objects):
        c = cartan_from_roots(O)
        m = min(min(row) for row in c)
        lo = min(lo, m)
        if m < -7:
            witnesses.append((oi, c))
    return CheckReport("bound7", FAIL if witnesses else PASS, witnesses,
                       {"min_cartan_entry": lo})


def check_b128(G: GroupoidGraph) -> CheckReport:
    """Every rank-2 localization at a pair of simple roots has <= 128
    positive roots; reports the maximum size."""
    if G.rank != 3:
        return CheckReport("b128", SKIP, [], {"reason": "rank 3 only"})
    hi = 0
    witnesses = []
    for oi, O in enumerate(G.objects):
        for i, j in combinations(range(3), 2):
            n = len(localize(O.positive_roots, (i, j)))
            hi = max(hi, n)
            if n > 128:
                witnesses.append((oi, (i, j), n))
    return CheckReport("b128", FAIL if witnesses else PASS, witnesses,
                       {"max_localization_size": hi})


def compute_k0(G: GroupoidGraph, object_index, ordering):
    """min{k : k*a_i + 2*a_j + a_k in R} for the ordering (i, j, k), or
    None when there is no such root.

    Requires the localization <a_i, a_j> to have at least 5 positive roots."""
    O = G.objects[object_index]
    i, j, k = ordering
    roots = O.positive_roots
    if len(localize(roots, (i, j))) < 5:
        raise PreconditionFailedError("localization has fewer than 5 positive roots")
    for k0 in range(max(v[i] for v in roots) + 1):
        v = [0, 0, 0]
        v[i], v[j], v[k] = k0, 2, 1
        if tuple(v) in roots:
            return k0
    return None


def check_k0(G: GroupoidGraph) -> CheckReport:
    """Over all objects and orderings with big localizations, k0 exists and
    lies in {0,...,4}, and k0 <= 2 when the Cartan entry c_{i,k} vanishes."""
    if G.rank != 3:
        return CheckReport("k0", SKIP, [], {"reason": "rank 3 only"})
    values = []
    witnesses = []
    for oi, O in enumerate(G.objects):
        c = cartan_from_roots(O)
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


def _no_negative_ray(alpha, beta, bound):
    """(-N*alpha + Z*beta) fails to meet N_0^r within the coordinate box."""
    r = len(alpha)
    for a in range(1, bound + 1):
        for b in range(-bound, bound + 1):
            v = tuple(-a * x + b * y for x, y in zip(alpha, beta))
            if all(t >= 0 for t in v):
                return False
    return True


def _min_cartan_entry(G: GroupoidGraph):
    return min(min(min(row) for row in cartan_from_roots(O)) for O in G.objects)


def check_lemcon(G: GroupoidGraph, object_index, alpha, beta, k) -> CheckReport:
    """Root-string convexity: under the stated hypotheses, beta and all of
    alpha + l*beta (0 <= l <= k) are roots, and some object in the closure
    has a Cartan entry <= -k."""
    return _lemcon(G, object_index, alpha, beta, k, _min_cartan_entry(G))


def _lemcon(G: GroupoidGraph, object_index, alpha, beta, k, min_entry):
    """check_lemcon with the closure's minimum Cartan entry given."""
    O = G.objects[object_index]
    roots = O.positive_roots
    full = roots | {tuple(-x for x in v) for v in roots}
    alpha, beta = tuple(alpha), tuple(beta)
    if k < 2:
        raise HypothesisFailedError("k >= 2")
    if alpha not in roots:
        raise HypothesisFailedError("alpha is a positive root")
    if tuple(a + k * b for a, b in zip(alpha, beta)) not in full:
        raise HypothesisFailedError("alpha + k*beta is a root")
    if vol(2, [alpha, beta]) != 1:
        raise HypothesisFailedError("Vol_2(alpha, beta) = 1")
    bound = max(max(v) for v in roots) + 1
    if not _no_negative_ray(alpha, beta, bound):
        raise HypothesisFailedError("(-N*alpha + Z*beta) misses N_0^r")
    witnesses = []
    if beta not in full:
        witnesses.append(("beta not a root", beta))
    for ell in range(k + 1):
        v = tuple(a + ell * b for a, b in zip(alpha, beta))
        if v not in full:
            witnesses.append(("missing intermediate", v))
    if min_entry > -k:
        witnesses.append(("no Cartan entry <= -k", min_entry))
    return CheckReport("lemcon", FAIL if witnesses else PASS, witnesses,
                       {"k": k, "min_cartan_entry": min_entry})


def lemcon_sweep(G: GroupoidGraph) -> CheckReport:
    """check_lemcon over every hypothesis-satisfying (object, alpha, beta, k)."""
    min_entry = _min_cartan_entry(G)
    witnesses = []
    triples = 0
    for oi, O in enumerate(G.objects):
        roots = O.positive_roots
        full = sorted(roots | {tuple(-x for x in v) for v in roots})
        for alpha in roots:
            for beta in full:
                for k in range(2, 2 * max(max(v) for v in roots) + 2):
                    if tuple(a + k * b for a, b in zip(alpha, beta)) not in full:
                        continue
                    try:
                        rep = _lemcon(G, oi, alpha, beta, k, min_entry)
                    except HypothesisFailedError:
                        continue
                    triples += 1
                    if not rep.ok:
                        witnesses.append((oi, alpha, beta, k, rep.witnesses))
    return CheckReport("lemcon_sweep", FAIL if witnesses else PASS, witnesses,
                       {"triples_checked": triples})


def check_convexity_statements(G: GroupoidGraph) -> CheckReport:
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
        full = roots | {tuple(-x for x in v) for v in roots}
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


def check_vol2_bound(G: GroupoidGraph, m=6) -> CheckReport:
    """Vol_2 over all pairs of positive roots is at most m (default 6)."""
    hi = 0
    witnesses = []
    for oi, O in enumerate(G.objects):
        for a, b in combinations(sorted(O.positive_roots), 2):
            v = vol(2, [a, b])
            hi = max(hi, v)
            if v > m:
                witnesses.append((oi, a, b, v))
    return CheckReport("vol2_bound", FAIL if witnesses else PASS, witnesses,
                       {"max_vol2": hi, "m": m})


def check_plane_roots(G: GroupoidGraph) -> CheckReport:
    """Localization-cycle facts: cycles close with period n; in an
    irreducible object no two cyclically consecutive auxiliary entries
    vanish; the plane roots exist with gamma_2 = (d_2, c_1*d_2 + d_1, 1)
    in permuted coordinates; at least n/2 of the gammas are distinct."""
    if G.rank != 3:
        return CheckReport("plane_roots", SKIP, [], {"reason": "rank 3 only"})
    witnesses = []
    pairs = 0
    for oi, O in enumerate(G.objects):
        irreducible = is_object_irreducible(O)
        for i, j in permutations(range(3), 2):
            pairs += 1
            try:
                pr = plane_roots(O, i, j)
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


def check_pigeonhole(G: GroupoidGraph) -> CheckReport:
    """|R_+| <= (m+1)^r where m is the observed Vol_2 maximum."""
    m = check_vol2_bound(G, m=10 ** 9).stats["max_vol2"]
    n = len(G.objects[0].positive_roots)
    ok = n <= (m + 1) ** G.rank
    return CheckReport("pigeonhole", PASS if ok else FAIL,
                       [] if ok else [(n, m)],
                       {"positive_roots": n, "max_vol2": m})


def run_all(G: GroupoidGraph, vol2_m=6):
    """The full suite; returns the list of reports."""
    reports = [
        check_sum_of_roots(G),
        check_r111(G),
        check_bound7(G),
        check_b128(G),
        check_k0(G),
        check_vol2_bound(G, vol2_m),
        check_convexity_statements(G),
        check_plane_roots(G),
        check_pigeonhole(G),
        lemcon_sweep(G),
    ]
    return reports


def all_ok(reports):
    return all(r.ok for r in reports)
