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
positive roots, and (b)-(d) hold for all of them.  The height of a root
is sum(v); roots are ordered by key(v) = (sum(v), v), a state is the
tuple of its roots in key order, and its top height is the height of its
last root.  A level is the set of members of one height.

The search walks the valid states as a tree, one level at a time.  A
state with ``cap`` members has no children.  For any other state S and
each height H above its top height, let C_H be the set of sums v of two
members of S with sum(v) = H that are parallel to no member and that
``_close`` accepts: it tests (c) for the pairs of v with S.  The
children of S are the states S + L for each nonempty L within C_H with
|S| + |L| <= cap whose pairs keep (c), which pass the permutation and
reflection tests below.  Every such S + L is valid: (a) and (b) hold by
the choice of L (two distinct roots of one height are not parallel), (c)
by ``_close`` and the pairs within L, and (d) and (e) with no test, so
``_close`` makes none:

  - a sum v = k*e_i + e_j (k >= 2) of two members a + b is
    e_i + ((k-1)*e_i + e_j): a and b are non-negative and their j-th
    coordinates add up to 1, so one of them is a multiple of e_i, which
    is e_i by (b), and the other one is (k-1)*e_i + e_j; by (d) for S,
    every l*e_i + e_j with l < k - 1 is in S as well;
  - then k <= 7 holds too: k = 8 would need 7*e_i + e_j and so, by (d)
    for S, e_i + e_j in S, and Vol_2(8*e_i + e_j, e_i + e_j) = 7 breaks
    (c); k > 8 would need (k-1)*e_i + e_j in S, against (d) for S;
  - |S| + |L| <= cap.

Every valid state T other than the simple roots has exactly one parent:
P = T without its top level L, of height H.  P is valid, because (b),
(c) and (e) hold for subsets, and (a) and (d) ask for roots of smaller
height than the member they are asked for.  T is a child of P: each
member of L has height H >= 2, so it is not simple, and by (a) it is a
sum of two members of smaller height, which are in P; it is parallel to
no member of P by (b), ``_close`` accepts it and the pairs within L keep
Vol_2 <= 6 by (c); and |T| <= cap.  No other state has T as a child,
since a child's top level is the L it was made with.  Both tests are
hereditary (below): a state whose parent fails one fails it too.  So by
induction on the number of levels the walk reaches every valid state
that passes the two tests, each exactly once, with no visited set: it
holds one generator of children per level of the current state.

Permutations.  A state is kept only if it is at most, as a tuple, the
key-sorted image of itself under each of the six coordinate
permutations.  Rules (a)-(e), the plane tests, the decision of a state,
``canonical_form`` and ``_representative`` are all invariant under
permuting coordinates, so deciding the least state of each permutation
class loses no form.  The test is hereditary: a permutation keeps
heights, so the key-sorted image of P = T without its top level is a
prefix of the key-sorted image of T, of the same length as the prefix P
of T; if P were greater than its image, T would be greater than its own.
So the least state of every class has a least parent, the walk reaches
it, and each class is decided exactly once.  The same prefix argument
limits the test of a child T of S to the permutations that fix S: under
any other one the key-sorted image of S is not S, so, S being least, it
is greater than S; it is the prefix of T's image of the length of S, so
T is less than its image.

Reflections.  Let c_ij = -max{k : k*e_i + e_j in T} for i != j, and
let H be T's top height.  Once (k+1)*e_i + e_j is absent from T and its
height k + 2 is at most H, c_ij is final: every descendant adds only
roots of height above H, and by (d) none of them is l*e_i + e_j with
l > k.  The positive roots R+ of an arrangement have the Cartan entries
c_ij, and the simple reflection sigma_i maps R+ without e_i into R+, so
the i-th coordinate -beta_i - sum_{j != i} c_ij*beta_j of sigma_i(beta)
is non-negative for every beta in R+ other than e_i.  So if this fails
for a member beta != e_i of T whose entries c_ij with beta_j != 0 are all
final, no descendant of T is the positive roots of an arrangement: each
has the same members and the same final entries.  Finality needs no test
of its own: an entry c_ij with beta_j >= 1 that is not final has
-c_ij = k = H - 1, since k*e_i + e_j has height at most H, and the test
fails for beta only if beta_i > k*beta_j >= H - 1, so that beta has
height at least beta_i + beta_j >= H + 1.  So T is kept only if -beta_i - sum_{j != i} c_ij*beta_j
>= 0 for each i and each member beta != e_i, with T's own entries.  The
test is hereditary as well: a member that fails in P fails with final
entries of P, which are final in T with the same values, so it fails in
T.

Each state S that passes the rank-2 plane tests is decided integer-first,
in root coordinates: the supports of S must be connected and the
reflection closure of the root object S must finish with at most
n(n-1)+2 objects (n = |S|).  This pre-filter drops no arrangement the
geometry would accept: a simplicial rank-3 arrangement of n planes has at
most n(n-1)+2 chambers, so the geometric closure of the same base object
finishes within that bound too, and irreducibility in the base chamber is
exactly support connectivity of S.  The geometry then decides: each
survivor is re-verified from scratch by the chamber walk, which must
reproduce S as its base object and the same closure; neither the pruning
nor the pre-filter is trusted for soundness.  The statement checks do not
filter: the geometry decides without them, and as a filter they could
only hide a counterexample to the theorems they check.  The root object S
is built as it stands, without validation: its members are the simple
roots and sums of non-negative vectors, pairwise non-parallel by (b).

Each closure is verified once.  All objects of one closure belong to one
arrangement, and the closure of any of its objects has the same objects, so
a state that is an object of a verified closure, or a coordinate
permutation of one, has the closure already found up to that permutation
and adds no form.  The search keeps the key-sorted root tuples of every
object of every verified closure under the six permutations and does not
decide a state among them.  A state it does decide that verifies is no
such object, so its closure is not a permutation of one found before: it
has a new canonical form, and every form is verified exactly once."""

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
from .linalg import direction, vol2
from .localization import localize
from .rank2 import is_crystallographic_rank2
from .verifier import VOL2_MAX

SIMPLES = simple_roots(3)
MOVES = tuple(permutations(range(3)))[1:]   # the permutations other than the identity

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
    if any(vol2(u, v) > VOL2_MAX for u in S):
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


def _image(T, perm):
    """The key-sorted image of T under the coordinate permutation ``perm``."""
    return tuple(sorted((tuple(v[p] for p in perm) for v in T), key=_key))


def _least(T, moves):
    """T is at most its key-sorted image under each permutation in ``moves``:
    for a child of a kept state, those that fix the parent suffice."""
    return all(T <= _image(T, perm) for perm in moves)


def _reflections_ok(T):
    """Each simple reflection, with the Cartan entries of T, maps every
    member other than e_i to a vector with a non-negative i-th coordinate
    (see the module docstring)."""
    top = [[0] * 3 for _ in range(3)]   # top[i][j] = max{k : k*e_i + e_j in T}
    for v in T:
        for i, j in permutations(range(3), 2):
            if v[j] == 1 and v[3 - i - j] == 0 and v[i] > top[i][j]:
                top[i][j] = v[i]
    return all(sum(top[i][j] * beta[j] for j in range(3) if j != i) >= beta[i]
               for beta in T for i in range(3) if beta[i] != sum(beta))


def _levels(level, room):
    """Each nonempty subset of ``level`` (a key-sorted tuple of roots of
    one height), in key order, with at most ``room`` members and Vol_2 at
    most ``VOL2_MAX`` on its pairs."""
    fits = {(a, b): vol2(a, b) <= VOL2_MAX for a, b in combinations(level, 2)}

    def extend(L, start):
        for n in range(start, len(level)):
            v = level[n]
            if all(fits[u, v] for u in L):
                yield L + (v,)
                if len(L) + 1 < room:
                    yield from extend(L + (v,), n + 1)
    return extend((), 0)


def _children(S, cap):
    """The children of the state S (see the module docstring)."""
    top = sum(S[-1])
    fixing = [perm for perm in MOVES if _image(S, perm) == S]
    dirs = {direction(u) for u in S}
    sums = {tuple(x + y for x, y in zip(a, b)) for a, b in combinations(S, 2)}
    levels = {}
    for v in sorted(sums, key=_key):
        if sum(v) > top and direction(v) not in dirs and _close(S, v) is not None:
            levels.setdefault(sum(v), []).append(v)
    for height in sorted(levels):
        for L in _levels(tuple(levels[height]), cap - len(S)):
            T = S + L
            if _least(T, fixing) and _reflections_ok(T):
                yield T


def enumerate_rank3(cap, budget=10 ** 7) -> SearchResult:
    """All irreducible rank-3 crystallographic arrangements with at most
    ``cap`` positive roots, reachable within ``budget`` decided states."""
    if cap < 6:
        raise ValueError("cap must be at least 6")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    found = {}
    known = set()   # every object of every verified closure, under every permutation
    stack = [iter([tuple(sorted(SIMPLES, key=_key))])]
    states = 0
    exhausted = False
    while stack:
        S = next(stack[-1], None)
        if S is None:
            stack.pop()
            continue
        if states >= budget:
            exhausted = True
            break
        states += 1
        if _plane_systems_ok(S) and S not in known:
            G = _verify_candidate(S)
            if G is not None:
                found[canonical_form(G)] = _representative(G)
                known.update(_image(O.positive_roots, perm)
                             for O in G.objects for perm in permutations(range(3)))
        if len(S) < cap:   # a full state has no children
            stack.append(_children(S, cap))
    forms = tuple(sorted(found))
    return SearchResult(
        verdict=INCOMPLETE if exhausted else COMPLETE,
        canonical_forms=forms,
        arrangements=tuple(found[f] for f in forms),
        states_visited=states,
        emitted=len(found),
    )
