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
|S| + |L| <= cap whose pairs keep (c), which pass the permutation,
reflection and (1,1,1) tests below.  Every such S + L is valid: (a) and (b) hold by
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
since a child's top level is the L it was made with.  The tests are
hereditary (below): a state whose parent fails one fails it too.  So by
induction on the number of levels the walk reaches every valid state
that passes the tests, each exactly once, with no visited set: it
holds one generator of children per level of the current state.

Permutations.  A state is kept only if it is at most, as a tuple, the
key-sorted image of itself under each of the six coordinate
permutations.  Rules (a)-(e), the decision of a state (each of its four
tests below, the plane tests among them), ``canonical_form`` and
``_representative`` are all invariant under permuting coordinates, so
deciding the least state of each permutation class loses no form.
A permutation keeps heights, so ``_image`` sorts the (height, image)
pairs of the roots, which is key order.  The test is hereditary: the
key-sorted image of P = T without its top level is a prefix of the
key-sorted image of T, of the same length as the prefix P of T; if P
were greater than its image, T would be greater than its own.
So the least state of every class has a least parent, the walk reaches
it, and each class is decided exactly once.  The same prefix argument
limits the test of a child T of S to the permutations that fix S: under
any other one the key-sorted image of S is not S, so, S being least, it
is greater than S; it is the prefix of T's image of the length of S, so
T is less than its image.

Reflections.  Let T have top height H, and let R^a be the positive roots,
in the coordinates of the base object a, of an arrangement that is T or
a descendant of T.  Every descendant adds only roots of height above H,
so T decides, for some vectors u of Z^3, whether u is in +-R^a: u with
mixed signs is absent; u >= 0 (or -u >= 0) of height at most H is present
exactly when it (or -u) is a member of T; any other u is undecided.  A
decided fact is the same in every descendant of T.

The prune walks the reflection groupoid from a, breadth first, to at most
``DEPTH`` reflections.  For the object b it reaches it carries the matrix
M_b whose columns are the images of b's simple roots in a's coordinates,
so that w is in R^b exactly when M_b w is in +-R^a, and the members of T
seen from b: the vectors M_b^{-1} t >= 0 with t in +-T.  At b, for each
label j:

  - Cartan entries.  Root strings are unbroken: m*e_j + e_l is in R^b
    exactly for 0 <= m <= -c^b_jl (Cuntz-Heckenberger).  So c^b_jl is
    1 - m for the least m >= 1 whose M_b(m*e_j + e_l) is not present;
    the entry is decided when that vector is absent, and undecided when
    it is undecided.
  - Test.  sigma_j maps R^b without e_j into N_0^3, so the j-th
    coordinate -beta_j - sum_{l != j} c^b_jl*beta_l of sigma_j(beta) is
    non-negative for every member beta != e_j of R^b.  T is pruned when
    this fails for a member beta of T seen from b whose entries c^b_jl
    with beta_l != 0 are all decided.
  - Descent.  The walk goes on through sigma_j only when both entries of
    row j are decided.  Then M is M_b*sigma_j at r_j(b), and the members
    seen from r_j(b) are the images sigma_j(beta) (e_j for beta = e_j):
    the test at b has shown each of them to be in N_0^3, so by induction
    no vector M^{-1} t has mixed signs at an object the walk reaches.

At r_j(b) the row j needs neither test nor descent.  Its string vectors
are M_b((t - m)*e_j + e_l) with t = -c^b_jl: present for m <= t, and for
m = t + 1 the image of e_l - e_j, which is not present because e_l - e_j
has mixed signs and no M_b^{-1} t has.  So each entry of the row is
c^b_jl again or undecided, the test applies sigma_j with the entries of
b to sigma_j(beta) and gives beta >= 0 back, and the descent leads back
to b.  Everything else the walk does at b depends on M_b alone, so each
object, told by its matrix, is walked once, at the least number of
reflections that reaches it.  This tests the same objects as walking
every path of at most ``DEPTH`` reflections through decided rows that
never takes the label it just took.

The prune is sound: each matrix, Cartan entry and member it uses is a
decided fact of T, so it is true of R^a and of the objects of R^a's
groupoid; there every reflection keeps the positive roots other than e_j
positive, so no test fails.  It is hereditary: in a child of T every
fact decided in T is decided with the same value, so the child walks
every object T walks, with the same matrix, at least the same members
and at least the same decided entries, and a test that fails in T fails
in the child.  ``DEPTH`` = 0 tests the base object alone.

The sum of the simple roots.  At every object b it walks, the prune also
tests the vector M_b (1,1,1), the sum of M_b's columns, and prunes T when
it is decided absent: it has mixed signs, or it or its negative has height
at most H and is not a member.  This rests on a theorem: in an irreducible
rank-3 Weyl groupoid with a finite root system, alpha_1 + alpha_2 +
alpha_3 is a root at every object (M. Cuntz and I. Heckenberger, Finite
Weyl groupoids of rank three, Trans. Amer. Math. Soc. 364 (2012)).  The
test is sound: the search emits only arrangements with connected
supports, that is irreducible ones, so let R^a be one that is T or a
descendant of T.  M_b is a decided fact of T, so b is an object of R^a's
Weyl groupoid, (1,1,1) is in R^b by the theorem, and M_b (1,1,1) is in
+-R^a, which a decided absence denies.  A reducible descendant is lost, but the
search would not emit it.  The test is hereditary by the argument above:
a child of T walks b with the same matrix, and a vector decided absent in
T is decided absent in the child.

Closed mode.  ``_partial_closure_ok(S, None)`` runs the same walk on a
state S that is decided as a whole, as if S were all of R^a: every vector
is decided, present exactly when it is in +-S (H is infinite), there is no
depth limit, and the walk fails once it has found more than n(n-1)+2
distinct matrices (n = |S|).  ``_verify_candidate`` runs it after the
support test and before the geometry, and every state it rejects is one
the geometry rejects too.  For suppose the geometry accepts S, with
connected supports.  Then S is the set of positive roots, at its base
chamber, of an irreducible crystallographic arrangement of n planes, so
every fact the walk uses is true of R^a = S: each matrix, Cartan entry and
member, by the soundness argument, and each absence of M_b (1,1,1), by the
theorem.  So neither test fails.  The columns of each matrix M_b are the
roots of +-R^a on the walls of one chamber K that are positive on K, in
the order of their labels.  The labels do not depend on the path that
reached K.  Crossing wall j keeps label j on that wall and gives label i
(i != j) to the root sigma_j(alpha_i) = alpha_i - c_ji alpha_j, whose
plane contains the line X = H_i meet H_j; so walking once around X,
through the 2m chambers that contain X, alternates the labels j and i on
the walls through X and returns with the labels it started with.  The
chamber graph is the 1-skeleton of the arrangement's zonotope, a
3-polytope whose 2-faces are these walks around the lines X, and the
boundary of a 3-polytope is a sphere, so these walks and the steps across
a wall and straight back, which undo each other, generate every closed
walk of the graph, and no closed walk changes the labels.  So distinct
matrices are distinct chambers, and a simplicial rank-3 arrangement of n
planes has at most n(n-1)+2 chambers.  The closed walk builds no
``RootObject``, so the closures that fail are rejected without one.

Each state S is decided by four tests in turn: connected supports, the
closed walk, the rank-2 plane tests, and the geometry, the only judge,
which re-verifies S from scratch.  The first three reject no state the
geometry accepts: irreducibility in the base chamber is support
connectivity, the closed walk is covered above, and the localization of a
crystallographic arrangement at each coordinate plane is a
crystallographic rank-2 arrangement.  The plane tests come after the
closed walk, which rejects almost every state that fails, so they run on
few states; they are a necessary condition, so their place changes no
decision.  ``make_root_set`` accepts every S: the simple roots span, and
the members are non-zero, non-negative and pairwise non-parallel by (b).
It keeps every member as it is, with denominator 1, since sign
normalization changes no non-negative integer vector.

The geometry's base object is S itself.  ``generic_point`` tries t = 1
first, and (1,1,1) lies on no plane, since every member has a positive
coordinate sum; so every member is positive on the base chamber.  That
chamber lies in the open positive orthant, because S holds e_1, e_2 and
e_3, and it is the whole orthant, because no non-negative member vanishes
inside it.  Its rays are e_1, e_2, e_3 and its walls the members e_1, e_2,
e_3, which ``initial_chamber`` orders by descending wall covector, so ray i
is e_i with scale <e_i, e_i> = 1, and the root coordinates of a member at
the base chamber are the member itself.  So an integer ``traverse`` of S
within n(n-1)+2 objects would add nothing: the geometry runs ``traverse``
on a ``RootObject`` equal to S, capped at its chamber count, at most
n(n-1)+2; up to the first exception both calls take the same steps, so the
integer one raises only if the geometric one raises no later, and when both
finish their closures are equal.  The statement checks do not filter: as a
filter they could only hide a counterexample to the theorems they check.

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
from math import inf

from .errors import ExtremeRootsNotUnimodularError
from .geometry import make_root_set, supports_connected
from .groupoid import (
    VOL2_MAX,
    canonical_form,
    simple_roots,
    verify_crystallographic,
)
from .linalg import direction, vol2
from .localization import localize
from .rank2 import is_crystallographic_rank2

SIMPLES = simple_roots(3)
PERMS = tuple(permutations(range(3)))
MOVES = PERMS[1:]   # the permutations other than the identity

COMPLETE, INCOMPLETE = "Complete", "Incomplete"
DEPTH = 3   # reflections from the base object that the reflection test walks
ROWS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))   # a label j and the two others k, l


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
        except ExtremeRootsNotUnimodularError:
            return False
        if not ok:
            return False
    return True


def _verify_candidate(roots):
    """Decide a state; returns its groupoid closure or None.

    The support test, the closed walk in root coordinates and the rank-2
    plane tests run first and reject almost every state, most of them in the
    closed walk; the geometric re-verification from scratch then decides the
    survivors.  Its base object is the state itself (see the module
    docstring), and its closure is None unless it accepts."""
    if not supports_connected(roots, 3) or not _partial_closure_ok(roots, None) \
            or not _plane_systems_ok(roots):
        return None
    return verify_crystallographic(make_root_set(roots, rank=3)).graph


def _closure_images(G):
    """The key-sorted image of every object of the closure G under each
    coordinate permutation, the identity included."""
    return [_image(O.positive_roots, perm) for O in G.objects for perm in PERMS]


def _representative(images):
    """The least sorted root tuple among the ``_closure_images`` of a
    closure.  States of one canonical form have the same closure up to a
    permutation, so this does not depend on which state the search meets
    first."""
    return min(tuple(sorted(T)) for T in images)


def _image(T, perm):
    """The key-sorted image of T under the coordinate permutation ``perm``.
    A permutation keeps heights, so sorting the (height, image) pairs of the
    roots puts the images in key order."""
    i, j, k = perm
    return tuple([u for _, u in sorted([(v[0] + v[1] + v[2], (v[i], v[j], v[k])) for v in T])])


def _least(T, moves):
    """T is at most its key-sorted image under each permutation in ``moves``:
    for a child of a kept state, those that fix the parent suffice."""
    return all(T <= _image(T, perm) for perm in moves)


def _partial_closure_ok(T, depth):
    """T passes the reflection and (1,1,1) tests at every object at most
    ``depth`` reflections from its base object; with ``depth`` None, in
    closed mode, at every object of its closure (see the module
    docstring).  A vector u not in +-T is decided absent when it has mixed
    signs or when u or -u has height at most ``top``."""
    if depth is None:
        top, most = inf, len(T) * (len(T) - 1) + 2
    else:
        top, most = sum(T[-1]), inf
    signed = set(T)
    signed.update((-x, -y, -z) for x, y, z in T)
    # M (1,1,1) is tested when the walk first reaches M, before the members
    # are reflected there; at the base it is (1,1,1), of height 3
    if (1, 1, 1) not in signed and top >= 3:
        return False
    walked = {SIMPLES}
    level = [(SIMPLES, T, None)]   # (M, the members of T seen from M, last label)
    d = 0
    while level:
        below = []
        for M, seen, last in level:
            for j, k, l in ROWS:
                if j == last:
                    continue   # the row of the reflection that led here
                a0, a1, a2 = M[j]
                mk, ml = M[k], M[l]
                # -c_jk and -c_jl: for b = M e_k and b = M e_l, the least
                # m >= 1 with m*M e_j + b not in +-T, less one; None when
                # that vector is undecided
                entries = []
                for u0, u1, u2 in (mk, ml):
                    t = 0
                    u0, u1, u2 = u0 + a0, u1 + a1, u2 + a2
                    while (u0, u1, u2) in signed:
                        t += 1
                        u0, u1, u2 = u0 + a0, u1 + a1, u2 + a2
                    entries.append(t if -top <= u0 + u1 + u2 <= top
                                   or min(u0, u1, u2) < 0 < max(u0, u1, u2) else None)
                tk, tl = entries
                xk, xl = tk or 0, tl or 0
                for b in seen:   # members other than e_j with decided entries
                    if b[j] > xk * b[k] + xl * b[l] and (b[k] or b[l]) \
                            and (tk is not None or not b[k]) and (tl is not None or not b[l]):
                        return False
                if tk is None or tl is None or d == depth:
                    continue
                nk = (mk[0] + tk * a0, mk[1] + tk * a1, mk[2] + tk * a2)
                nl = (ml[0] + tl * a0, ml[1] + tl * a1, ml[2] + tl * a2)
                N = [None] * 3
                N[j], N[k], N[l] = (-a0, -a1, -a2), nk, nl
                N = tuple(N)
                if N not in walked:
                    u0, u1, u2 = nk[0] + nl[0] - a0, nk[1] + nl[1] - a1, nk[2] + nl[2] - a2
                    if (u0, u1, u2) not in signed and (-top <= u0 + u1 + u2 <= top
                                                       or min(u0, u1, u2) < 0 < max(u0, u1, u2)):
                        return False   # N (1,1,1) is decided absent
                    walked.add(N)
                    if len(walked) > most:
                        return False
                    below.append((N, _reflect_members(seen, j, tk, tl), j))
        level = below
        d += 1
    return True


def _reflect_members(seen, j, tk, tl):
    """sigma_j of each member, with -c_jk = tk and -c_jl = tl for the labels
    k = j + 1 and l = j + 2 (mod 3); e_j stays e_j.  One comprehension per
    label: this runs for every edge the reflection test walks."""
    if j == 0:
        return [(tk * y + tl * z - x, y, z) if y or z else (x, y, z) for x, y, z in seen]
    if j == 1:
        return [(x, tk * z + tl * x - y, z) if x or z else (x, y, z) for x, y, z in seen]
    return [(x, y, tk * x + tl * y - z) if x or y else (x, y, z) for x, y, z in seen]


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
    sums = {(a0 + b0, a1 + b1, a2 + b2) for (a0, a1, a2), (b0, b1, b2) in combinations(S, 2)}
    levels = {}
    for height, v in sorted([(x + y + z, (x, y, z)) for x, y, z in sums]):
        if height > top and direction(v) not in dirs and _close(S, v) is not None:
            levels.setdefault(height, []).append(v)
    for level in levels.values():   # in increasing height, as inserted
        for L in _levels(tuple(level), cap - len(S)):
            T = S + L
            if _least(T, fixing) and _partial_closure_ok(T, DEPTH):
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
        if S not in known:
            G = _verify_candidate(S)
            if G is not None:
                images = _closure_images(G)
                found[canonical_form(G)] = _representative(images)
                known.update(images)
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
