"""Bounded exhaustive enumeration of irreducible rank-3 crystallographic
arrangements up to a positive-root cap.

States are sets of positive roots containing the simple roots.  Every
non-simple positive root of a crystallographic arrangement is a sum of two
positive roots, so induction on height shows that growing a state by sums
of its members reaches every target system: the minimal-height missing
root always splits into two roots of smaller height that are already
present.  Pruning uses only facts valid for every crystallographic
superset of the state:

  * roots are pairwise non-parallel;
  * Vol_2 of any two positive roots is at most 6;
  * Cartan entries are bounded below by -7, so k*e_i + e_j needs k <= 7;
  * with k*e_i + e_j present, every l*e_i + e_j (l <= k) is a root
    (root-string convexity), so those are added for free.

Every emitted arrangement is re-verified from scratch by the geometric
pipeline and the full statement-check suite; the pruning is never trusted
for soundness."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import NotESequenceError, ExtremeRootsNotUnimodularError
from .geometry import is_irreducible, make_root_set
from .groupoid import canonical_form, simple_roots, verify_crystallographic
from .linalg import direction, vol
from .localization import localize
from .rank2 import is_crystallographic_rank2
from .verifier import all_ok, run_all

SIMPLES = simple_roots(3)

COMPLETE, INCOMPLETE = "Complete", "Incomplete"


@dataclass(frozen=True)
class SearchResult:
    verdict: str
    canonical_forms: tuple     # sorted canonical byte strings
    arrangements: tuple        # matching tuple of sorted positive-root tuples
    states_visited: int
    emitted: int


def _close(roots, cap):
    """Add forced roots; return None if the state cannot extend to a
    crystallographic arrangement within the cap."""
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
    dirs = set()
    for v in roots:
        d = direction(v)
        if d in dirs:
            return None
        dirs.add(d)
    for a, b in combinations(roots, 2):
        if vol(2, [a, b]) > 6:
            return None
    return frozenset(roots)


def _plane_systems_ok(roots):
    """Each coordinate-plane localization must be a crystallographic rank-2
    system (a necessary condition for the full arrangement)."""
    for i, j in combinations(range(3), 2):
        pairs = [(v[i], v[j]) for v in localize(roots, (i, j))]
        try:
            ok, _ = is_crystallographic_rank2(pairs)
        except (NotESequenceError, ExtremeRootsNotUnimodularError):
            return False
        if not ok:
            return False
    return True


def _verify_candidate(roots):
    """Full from-scratch verification; returns the groupoid closure or None."""
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
        # the state must be the honest positive system of its own base chamber
        return None
    if not all_ok(run_all(res.graph)):
        return None
    return res.graph


def enumerate_rank3(cap, budget=10 ** 7) -> SearchResult:
    """All irreducible rank-3 crystallographic arrangements with at most
    ``cap`` positive roots, reachable within ``budget`` visited states."""
    if cap < 6:
        raise ValueError("cap must be at least 6")
    start = _close(SIMPLES, cap)
    visited = set()
    found = {}
    stack = [start]
    states = 0
    exhausted = False
    while stack:
        S = stack.pop()
        if S is None or S in visited:
            continue
        if states >= budget:
            exhausted = True
            break
        states += 1
        visited.add(S)
        if _plane_systems_ok(S):
            G = _verify_candidate(S)
            if G is not None:
                found.setdefault(canonical_form(G), tuple(sorted(S)))
        if len(S) >= cap:
            continue
        sums = set()
        for a, b in combinations(S, 2):
            v = tuple(x + y for x, y in zip(a, b))
            if v in S:
                continue
            if any(direction(v) == direction(u) for u in S):
                continue
            sums.add(v)
        for v in sorted(sums):
            stack.append(_close(S | {v}, cap))
    forms = tuple(sorted(found))
    return SearchResult(
        verdict=INCOMPLETE if exhausted else COMPLETE,
        canonical_forms=forms,
        arrangements=tuple(found[f] for f in forms),
        states_visited=states,
        emitted=len(found),
    )
