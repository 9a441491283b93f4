"""Bounded exhaustive enumeration of irreducible rank-3 crystallographic
arrangements up to a positive-root cap.

A state is a set of positive roots containing the simple roots.  It is
valid when

  (a) every non-simple member is the sum of two members;
  (b) its roots are pairwise non-parallel;
  (c) Vol_2 of any two members is at most 6;
  (d) for every member k*e_i + e_j, k <= 7 (Cartan entries are at least
      -7) and every l*e_i + e_j with 1 <= l < k is a member (root-string
      convexity);
  (e) it has at most ``cap`` members.

The positive roots of every crystallographic arrangement within the cap
form a valid state: every non-simple positive root is a sum of two
positive roots, and (b)-(d) hold for all of them.  The search walks every
valid state once, as a tree.  Roots are ordered by key(v) = (sum(v), v);
a state is the tuple of its roots in key order, and its last root is its
top.  A state with ``cap`` members has no children.  The children of any
other state S are the tuples S + (v,) for each sum v of two members with
key(v) > key(top) that is parallel to no member and that ``_close``
accepts: it tests (c) for the pairs that contain v.  Every child is
valid and its top is v: (a) and (b) hold by the choice of v, (c) by
``_close``, and (d) and (e) with no test, so ``_close`` makes none:

  - a sum v = k*e_i + e_j (k >= 2) of two members a + b is
    e_i + ((k-1)*e_i + e_j): a and b are non-negative and their j-th
    coordinates add up to 1, so one of them is a multiple of e_i, which
    is e_i by (b), and the other one is (k-1)*e_i + e_j; by (d) for S,
    every l*e_i + e_j with l < k - 1 is in S as well;
  - then k <= 7 holds too: k = 8 would need 7*e_i + e_j and so, by (d)
    for S, e_i + e_j in S, and Vol_2(8*e_i + e_j, e_i + e_j) = 7 breaks
    (c); k > 8 would need (k-1)*e_i + e_j in S, against (d) for S;
  - S has fewer than ``cap`` members, so S + (v,) has at most ``cap``.

The walk is a tree: every valid state T other than the simple roots has
exactly one parent, P = T without its top t.  P is valid, because (b),
(c) and (e) hold for subsets, and t is neither a summand of a member nor
a lower member of a root string: either would be a member w = t + u or
w = t + m*e_i with sum(w) > sum(t), against t being the top.  T is a
child of P: t has a sum >= 2, so it is not simple; by (a) it is the sum
of two roots of smaller sum, which are in P; key(t) exceeds the key of
P's top; P has fewer than ``cap`` members; and by (c) for T, ``_close``
accepts t.  No other state has T as a child, since a child's last root
is its top.  So the walk reaches every valid state exactly once, by
induction on its size, with no visited set: memory is the stack of at
most cap * C(cap, 2) pending states.

Each state S that passes the rank-2 plane tests is decided integer-first,
in root coordinates: the supports of S must be connected, the reflection
closure of the root object S must finish with at most n(n-1)+2 objects
(n = |S|), and the statement checks must pass on that closure.  This
pre-filter drops no arrangement the geometry would accept: a simplicial
rank-3 arrangement of n planes has at most n(n-1)+2 chambers, so the
geometric closure of the same base object finishes within that bound too,
and irreducibility in the base chamber is exactly support connectivity of
S.  The geometry still decides: each survivor is re-verified from scratch
by the chamber walk, which must reproduce S as its base object and the
same closure; neither the pruning nor the pre-filter is trusted for
soundness.  The root object S is built as it stands, without
validation: its members are the simple roots and sums of non-negative
vectors, pairwise non-parallel by (b)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import (
    ClosureOverflowError,
    ExtremeRootsNotUnimodularError,
    NotClosedError,
    NotESequenceError,
)
from .geometry import make_root_set, supports_connected
from .groupoid import (
    RootObject,
    canonical_form,
    simple_roots,
    traverse,
    verify_crystallographic,
)
from .linalg import direction, vol
from .localization import localize
from .rank2 import is_crystallographic_rank2
from .verifier import VOL2_MAX, all_ok, run_all

SIMPLES = simple_roots(3)

COMPLETE, INCOMPLETE = "Complete", "Incomplete"


@dataclass(frozen=True)
class SearchResult:
    verdict: str
    canonical_forms: tuple     # sorted canonical byte strings
    arrangements: tuple        # matching tuple of representative root tuples
    states_visited: int
    emitted: int


def _key(v):
    return sum(v), v


def _close(S, v):
    """The state S + (v,) if the new root v, a sum of two members of the
    valid state S, keeps the Vol_2 rule; None if it prunes.  The cap,
    k <= 7 and root-string rules hold already (see the module docstring)."""
    if any(vol(2, [u, v]) > VOL2_MAX for u in S):
        return None
    return S + (v,)


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
    """Decide a state; returns its groupoid closure or None.

    The integer tests in root coordinates run first and reject almost every
    state; the geometric re-verification from scratch then decides the
    survivors."""
    n = len(roots)
    if not supports_connected(roots, 3):
        return None
    try:
        G = traverse(RootObject(3, frozenset(roots)), max_objects=n * (n - 1) + 2)
    except (NotClosedError, ClosureOverflowError):
        return None
    if not all_ok(run_all(G)):
        return None
    try:
        R = make_root_set(roots, rank=3)
    except ValueError:
        return None
    res = verify_crystallographic(R)
    # the state must be the honest positive system of its own base chamber,
    # and the geometry must reproduce the integer closure
    if (not res.ok or res.base_object.positive_roots != frozenset(roots)
            or res.graph != G):
        return None
    return res.graph


def _representative(G):
    """The least sorted root tuple over the closure's objects and their
    coordinate permutations.  States of one canonical form have the same
    closure up to a permutation, so this does not depend on which state
    the search meets first."""
    return min(tuple(sorted(tuple(v[p] for p in perm) for v in O.positive_roots))
               for O in G.objects for perm in permutations(range(3)))


def enumerate_rank3(cap, budget=10 ** 7) -> SearchResult:
    """All irreducible rank-3 crystallographic arrangements with at most
    ``cap`` positive roots, reachable within ``budget`` visited states."""
    if cap < 6:
        raise ValueError("cap must be at least 6")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    found = {}
    stack = [tuple(sorted(SIMPLES, key=_key))]
    states = 0
    exhausted = False
    while stack:
        S = stack.pop()
        if states >= budget:
            exhausted = True
            break
        states += 1
        if _plane_systems_ok(S):
            G = _verify_candidate(S)
            if G is not None:
                form = canonical_form(G)
                if form not in found:
                    found[form] = _representative(G)
        if len(S) >= cap:   # a full state has no children
            continue
        top = _key(S[-1])
        dirs = {direction(u) for u in S}
        sums = {tuple(x + y for x, y in zip(a, b)) for a, b in combinations(S, 2)}
        for v in sorted(sums):
            if _key(v) > top and direction(v) not in dirs:
                T = _close(S, v)
                if T is not None:
                    stack.append(T)
    forms = tuple(sorted(found))
    return SearchResult(
        verdict=INCOMPLETE if exhausted else COMPLETE,
        canonical_forms=forms,
        arrangements=tuple(found[f] for f in forms),
        states_visited=states,
        emitted=len(found),
    )
