import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cryarr import catalog as cat
from cryarr import geometry, groupoid
from cryarr.errors import ClosureOverflowError, NonSimplicialError, NotClosedError
from cryarr.geometry import (
    adjacent_chamber,
    cartan_of_chamber,
    chamber_graph,
    make_root_set,
    ray_values,
)
from cryarr.groupoid import (
    VOL2_MAX,
    GroupoidGraph,
    RootObject,
    canonical_form,
    canonical_form_of_rootset,
    is_object_irreducible,
    make_root_object,
    reflect_object,
    reflect_roots,
    root_object_of_chamber,
    simple_roots,
    traverse,
    verify_crystallographic,
)
from cryarr.linalg import vol
from cryarr.rank2 import enumerate_esequences
from oracles import (
    canonical_form_every_object,
    orbits_from_definition,
    permute_object,
    reflect_object_every_coordinate,
    reflect_vector,
    symmetries_from_definition,
    traverse_every_edge,
    verify_column_scan,
    verify_every_chamber,
    verify_fraction_coordinates,
)
from strategies import arrangements, rescaled_roots, small_objects
from test_search import _inputs
from test_verifier import closure, closure_corpus, single_object_graphs


def test_make_root_object_validation():
    make_root_object(2, [(1, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        make_root_object(2, [(1, 0), (1, 1)])  # missing e2
    with pytest.raises(ValueError):
        make_root_object(2, [(1, 0), (0, 1), (2, 2), (1, 1)])  # parallel


@pytest.mark.parametrize("roots, message", [
    ({(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 2, 0)},
     "parallel roots in direction (1, 1, 0)"),
    ({(1, 0, 0), (0, 1, 0), (0, 0, 0)}, "root (0, 0, 0) is not a nonzero vector in N_0^r"),
    ({(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1)},
     "root (1, -1, 1) is not a nonzero vector in N_0^r"),
    ({(1, 0), (0, 1), (1, 1)}, "root length does not match rank")])
def test_traverse_rejects_a_base_that_make_root_object_rejects(roots, message):
    # the base is validated as make_root_object validates it; a base that
    # lacks a simple root is still walked
    for build in (lambda: traverse(RootObject(3, frozenset(roots)), 30),
                  lambda: make_root_object(3, roots)):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
    G = traverse(RootObject(2, frozenset({(0, 1), (1, 1)})), 10)
    assert G.objects[1].positive_roots == frozenset(simple_roots(2))


@pytest.mark.parametrize("x", [1.5, Fraction(3, 2), "1", True])
def test_a_coordinate_that_is_not_an_int_is_rejected(x):
    # int(x) would make each of them the root (1, 1)
    roots = [(1, 0), (0, 1), (x, 1)]
    for build in (lambda: make_root_object(2, roots),
                  lambda: traverse(RootObject(2, frozenset(roots)), 10)):
        with pytest.raises(ValueError, match=re.escape(f"root {(x, 1)} has a coordinate")):
            build()


def test_cartan_from_roots_examples():
    assert make_root_object(2, [(1, 0), (0, 1), (1, 1)]).cartan == ((2, -1), (-1, 2))
    assert make_root_object(2, [(1, 0), (0, 1)]).cartan == ((2, 0), (0, 2))
    seven = make_root_object(2, cat.SEVEN_ROOTS)
    assert seven.cartan == ((2, -3), (-1, 2))


def test_reflect_object_b2():
    b2 = make_root_object(2, [(1, 0), (0, 1), (1, 1), (1, 2)])
    img = reflect_object(b2, 0)
    assert img.positive_roots == b2.positive_roots
    img = reflect_object(b2, 1)
    assert img.positive_roots == b2.positive_roots


def test_reflect_is_involution():
    for name in ("A3", "B3", "rank2-7"):
        O = cat.root_object_of(cat.get(name))
        for i in range(O.rank):
            once = reflect_object(O, i)
            twice = reflect_object(once, i)
            assert twice.positive_roots == O.positive_roots


def test_broken_object_fails_closure():
    broken = make_root_object(2, [(1, 0), (0, 1), (1, 3)])
    with pytest.raises((NotClosedError, ClosureOverflowError)):
        traverse(broken, max_objects=100)


def test_traverse_constant_root_count():
    seven = make_root_object(2, cat.SEVEN_ROOTS)
    G = traverse(seven, max_objects=100)
    assert all(len(O.positive_roots) == 7 for O in G.objects)


def test_a2_closure_is_single_object():
    O = cat.root_object_of(cat.get("A2"))
    G = traverse(O, max_objects=10)
    assert len(G.objects) == 1


def traverse_outcome(walk, base, max_objects):
    """The objects and the edge list, in order, of a closure walk, or the
    type and message of the exception it raised."""
    try:
        G = walk(base, max_objects)
    except (NotClosedError, ClosureOverflowError) as e:
        return type(e).__name__, str(e)
    return G.objects, list(G.edges.items())


def test_traverse_matches_the_every_edge_walk_on_the_corpus():
    # every object cap up to the closure's size, so each overflow point too
    for name, G in closure_corpus():
        for max_objects in range(1, len(G.objects) + 1):
            assert (traverse_outcome(traverse, G.objects[0], max_objects)
                    == traverse_outcome(traverse_every_edge, G.objects[0], max_objects)), name


@settings(max_examples=400, deadline=None)
@given(base=small_objects(), max_objects=st.integers(1, 40))
def test_traverse_matches_the_every_edge_walk_on_random_objects(base, max_objects):
    assert (traverse_outcome(traverse, base, max_objects)
            == traverse_outcome(traverse_every_edge, base, max_objects))


@pytest.mark.parametrize("max_objects", [0, -1])
def test_traverse_rejects_a_cap_below_one_object(max_objects):
    with pytest.raises(ValueError, match="max_objects must be at least 1"):
        traverse(cat.root_object_of(cat.get("A2")), max_objects=max_objects)


SYMMETRIES = {"A2": 2, "rank2-7": 2, "A3": 2, "A4": 2, "B3": 1, "C3": 1, "D4": 6,
              "F4-restriction-012": 1, "E6-restriction-013": 2, "E7-restriction-013": 1,
              "E8-restriction-013": 2, "E8-restriction-014": 1}


def test_symmetries_of_the_benchmark_closures():
    found = {}
    for obj in _inputs().objects():
        G = traverse(make_root_object(obj["rank"], obj["roots"]), max_objects=1000)
        assert G.symmetries[0] == tuple(range(G.rank))
        found[obj["name"]] = len(G.symmetries)
    assert found == SYMMETRIES


def test_symmetries_and_orbits_match_their_definitions_on_the_corpus():
    objects = orbits = 0
    for name, G in closure_corpus():
        assert G.symmetries == symmetries_from_definition(G), name
        assert G.orbits == orbits_from_definition(G), name
        assert G.orbits[0][0] == 0 and sum(size for _, size in G.orbits) == len(G.objects)
        objects += len(G.objects)
        orbits += len(G.orbits)
    assert (objects, orbits) == (370, 255)


@st.composite
def symmetric_graphs(draw):
    """A graph of ``small_objects`` of one rank together with their images
    under a relabelling, a repeated object included, with no edges or with
    edges to arbitrary objects."""
    rank = draw(st.sampled_from((2, 3, 4)))
    roots = draw(st.lists(small_objects(ranks=(rank,)), min_size=1, max_size=3))
    perm = draw(st.permutations(range(rank)))
    objects = roots + [permute_object(O, perm) for O in roots]
    objects = draw(st.lists(st.sampled_from(objects), min_size=1, max_size=6))
    edges = {}
    if draw(st.booleans()):
        target = st.none() | st.integers(0, len(objects) - 1)
        for oi in range(len(objects)):
            for label in range(rank):
                oj = draw(target)
                if oj is not None:
                    edges[oi, label] = oj
    return GroupoidGraph(rank=rank, objects=tuple(objects), edges=edges)


@settings(max_examples=500, deadline=None)
@given(G=symmetric_graphs())
def test_symmetries_and_orbits_match_their_definitions_on_random_graphs(G):
    assert G.symmetries == symmetries_from_definition(G)
    assert G.orbits == orbits_from_definition(G)


def test_symmetries_test_the_objects_and_the_edges():
    G = closure("rank2-7")
    assert G.symmetries == ((0, 1), (1, 0)) and G.orbits[0] == (0, 2)
    # an edge at object 0 sent elsewhere: swapping the labels maps the
    # objects onto the objects but no longer the edges
    edges = dict(G.edges)
    edges[0, 0] = 0 if edges[0, 0] else 1
    H = GroupoidGraph(rank=2, objects=G.objects, edges=edges)
    assert H.symmetries == ((0, 1),)
    assert H.orbits == tuple((oi, 1) for oi in range(14))
    # a repeated object
    O = cat.root_object_of(cat.get("A2"))
    assert GroupoidGraph(rank=2, objects=(O,), edges={}).symmetries == ((0, 1), (1, 0))
    H = GroupoidGraph(rank=2, objects=(O, O), edges={})
    assert (H.symmetries, H.orbits) == (((0, 1),), ((0, 1), (1, 1)))


def _reflection_outcome(reflect, O, i):
    try:
        return reflect(O, i)
    except NotClosedError as e:
        return "not closed", e.root, e.image


@settings(max_examples=400, deadline=None)
@given(O=small_objects(ranks=(1, 2, 3, 4)))
def test_reflect_object_matches_the_every_coordinate_oracle(O):
    # equal images, or NotClosedError on the same root with the same image
    for i in range(O.rank):
        assert (_reflection_outcome(reflect_object, O, i)
                == _reflection_outcome(reflect_object_every_coordinate, O, i))


def reflect_roots_by_vector(roots, i, row):
    """``reflect_roots`` from ``reflect_vector``: each image kept when it is
    >= 0, negated when it is <= 0, and NotClosedError(root, image) at the
    first other root in the iteration order of ``roots``."""
    out = set()
    for v in roots:
        w = reflect_vector(v, i, row)
        if min(w) >= 0:
            out.add(w)
        elif max(w) <= 0:
            out.add(tuple(-x for x in w))
        else:
            raise NotClosedError(v, w)
    return frozenset(out)


def _roots_outcome(reflect, roots, i, row):
    try:
        return reflect(roots, i, row)
    except NotClosedError as e:
        return "not closed", e.root, e.image, e.args


def test_rank3_reflect_roots_matches_reflect_vector_on_the_corpus():
    # every label with every row of the object's Cartan matrix, so the rows
    # of the other labels give an entry i that is not 2
    raised = 0
    for _, G in closure_corpus():
        for O in G.objects:
            if O.rank != 3:
                continue
            for i in range(3):
                for row in O.cartan:
                    outcome = _roots_outcome(reflect_roots, O.positive_roots, i, row)
                    assert outcome == _roots_outcome(reflect_roots_by_vector,
                                                     O.positive_roots, i, row)
                    raised += isinstance(outcome, tuple)
    assert raised > 0


@settings(max_examples=500, deadline=None)
@given(roots=st.frozensets(st.tuples(*[st.integers(0, 4)] * 3), max_size=10),
       i=st.integers(0, 2), row=st.tuples(*[st.integers(-4, 4)] * 3))
@example(roots=frozenset({(2, 0, 0), (0, 1, 0)}), i=0, row=(3, 0, 0))
@example(roots=frozenset({(1, 0, 0), (1, 1, 0), (0, 1, 0)}), i=0, row=(2, 3, 0))
def test_rank3_reflect_roots_matches_reflect_vector(roots, i, row):
    # any integer row, entry i = 2 or not: the same images, or
    # NotClosedError with the same arguments at the same first root
    assert (_roots_outcome(reflect_roots, roots, i, row)
            == _roots_outcome(reflect_roots_by_vector, roots, i, row))


@settings(max_examples=400, deadline=None)
@given(O=small_objects())
def test_reflecting_back_by_an_equal_row_gives_the_object(O):
    # the lemma that lets traverse record the reverse of an edge
    for i in range(O.rank):
        try:
            image = reflect_object(O, i)
        except NotClosedError:
            continue
        if image.cartan[i] == O.cartan[i]:
            assert reflect_object(image, i) == O


def test_reflecting_back_by_a_different_row_need_not_give_the_object():
    a = RootObject(3, frozenset({(1, 0, 0), (0, 0, 1), (2, 1, 0)}))
    b = reflect_object(a, 0)
    assert b.positive_roots == frozenset(simple_roots(3))
    assert (a.cartan[0], b.cartan[0]) == ((2, -2, 0), (2, 0, 0))
    assert reflect_object(b, 0) == b != a
    # a closure that meets such an edge: {(0,1), (1,1)} lacks e_0, and its
    # image at label 1 is the simple system, with a different row 1
    a = RootObject(2, frozenset({(0, 1), (1, 1)}))
    G = traverse(a, max_objects=10)
    assert G.objects == (a, RootObject(2, frozenset(simple_roots(2))))
    assert list(G.edges.items()) == [((0, 0), 0), ((0, 1), 1), ((1, 0), 1), ((1, 1), 1)]


# reflect_object calls of one closure of the benchmark's objects: the 7
# crystallographic catalog entries and 5 restrictions of Weyl arrangements
REFLECTIONS = {"A2": 2, "rank2-7": 14, "A3": 3, "A4": 4, "B3": 3, "C3": 3, "D4": 4,
               "F4-restriction-012": 5, "E6-restriction-013": 20,
               "E7-restriction-013": 17, "E8-restriction-013": 44,
               "E8-restriction-014": 19}


def test_traverse_reflects_each_edge_between_two_objects_once(monkeypatch):
    calls = []
    reflect = groupoid.reflect_object

    def counting(O, i):
        calls.append(i)
        return reflect(O, i)

    monkeypatch.setattr(groupoid, "reflect_object", counting)
    names = []
    for obj in _inputs().objects():
        calls.clear()
        G = traverse(make_root_object(obj["rank"], obj["roots"]), max_objects=1000)
        loops = sum(oi == j for (oi, _), j in G.edges.items())
        assert len(calls) == REFLECTIONS[obj["name"]] == loops + (len(G.edges) - loops) // 2
        names.append(obj["name"])
    assert names == list(REFLECTIONS) and sum(REFLECTIONS.values()) == 138


def test_verify_examples():
    assert verify_crystallographic(cat.root_set_of(cat.get("A3"))).ok
    assert verify_crystallographic(cat.root_set_of(cat.get("rank2-7"))).ok
    res = verify_crystallographic(make_root_set([(1, 0), (0, 1), (1, 2)]))
    assert not res.ok
    assert res.reason == "non-integral root coordinates"


ROWS = {"A2": 6, "rank2-7": 14, "noncrystallographic-2.6": 6, "A3": 14,
        "A4": 30, "B3": 26, "C3": 26, "D4": 48}


@pytest.mark.parametrize("name, scans", [
    ("A2", 3), ("rank2-7", 7), ("noncrystallographic-2.6", 3), ("A3", 12),
    ("A4", 60), ("B3", 24), ("C3", 24), ("D4", 96)])
def test_verify_builds_half_the_chambers_by_scanning(name, scans, monkeypatch):
    """Each chamber is built once, and half of them by a scan: the base
    chamber by one clipping, chamber_count/2 - 1 chambers by one local
    crossing each, and the other half, each reached after its antipode,
    by negating that antipode; the row memo holds one row per distinct ray
    of the walk."""
    calls = []

    def counting(f):
        def wrapped(R, *args):
            calls.append(f.__name__)
            return f(R, *args)
        return wrapped

    for f in (geometry._chamber_rays, geometry.adjacent_chamber):
        monkeypatch.setattr(geometry, f.__name__, counting(f))
    R = cat.root_set_of(cat.get(name))
    res = verify_crystallographic(R)
    assert calls.count("_chamber_rays") == 1
    assert len(calls) == scans == res.chamber_count // 2
    assert len(R.rows) == ROWS[name]
    walked, _ = chamber_graph(R)
    assert len(R.rows) == len({v for K in walked for v in K.rays})


def test_verify_builds_one_crossing_state_per_chamber_that_crosses(monkeypatch):
    """Every chamber of the walk that a crossing leaves builds its crossing
    state once, and every crossing out of it reads that state; a chamber
    whose neighbours are all built already, or built by negation, builds
    none."""
    crossed, built = Counter(), Counter()
    state_of = geometry._crossing_state
    cross = geometry.adjacent_chamber

    def counting_state(R, K):
        built[K] += 1
        return state_of(R, K)

    def counting_cross(R, K, i, *state):
        crossed[K] += 1
        return cross(R, K, i, *state)

    monkeypatch.setattr(geometry, "_crossing_state", counting_state)
    monkeypatch.setattr(geometry, "adjacent_chamber", counting_cross)
    chambers = 0
    for entry in cat.entries():
        crossed.clear()
        built.clear()
        res = verify_crystallographic(cat.root_set_of(entry))
        assert set(built) == set(crossed), entry.name
        assert set(built.values()) == {1}, entry.name
        assert sum(crossed.values()) == res.chamber_count // 2 - 1, entry.name
        chambers += len(built)
    assert chambers == 141


def test_geometric_cartan_cross_check():
    # chamber route and root-coordinate route agree at every chamber
    for name in ("A2", "A3", "A4", "B3", "C3", "D4", "rank2-7"):
        R = cat.root_set_of(cat.get(name))
        chambers, edges = chamber_graph(R)
        for ci, K in enumerate(chambers):
            obj, _ = root_object_of_chamber(R, K)
            neighbours = [chambers[edges[ci, i]] for i in range(R.rank)]
            assert cartan_of_chamber(R, K, neighbours) == obj.cartan


def test_canonical_form_permutation_invariance():
    rng = random.Random(17)
    base = canonical_form_of_rootset(cat.root_set_of(cat.get("A3")))
    roots = list(cat.get("A3").positive_roots)
    for _ in range(5):
        perm = rng.sample(range(3), 3)
        permuted = [tuple(v[p] for p in perm) for v in roots]
        assert canonical_form_of_rootset(make_root_set(permuted, rank=3)) == base


def test_every_object_and_permutation_closes_to_the_same_form():
    # the search verifies one state per closure and skips the objects of a
    # closure it has found, under every coordinate permutation
    objects = 0
    for name, G in closure_corpus():
        form = canonical_form(G)
        n = len(G.objects)
        for O in G.objects[1:]:
            assert canonical_form(traverse(O, max_objects=n)) == form, name
        for perm in permutations(range(G.rank)):
            base = permute_object(G.objects[0], perm)
            assert canonical_form(traverse(base, max_objects=n)) == form, name
        objects += n
    assert (len(closure_corpus()), objects) == (66, 370)


def test_canonical_form_discriminates():
    a2 = canonical_form_of_rootset(cat.root_set_of(cat.get("A2")))
    b2 = canonical_form_of_rootset(make_root_set([(1, 0), (0, 1), (1, 1), (1, 2)]))
    assert a2 != b2
    b3 = canonical_form_of_rootset(cat.root_set_of(cat.get("B3")))
    c3 = canonical_form_of_rootset(cat.root_set_of(cat.get("C3")))
    assert b3 != c3


def test_canonical_form_shape():
    G = traverse(cat.root_object_of(cat.get("A2")), max_objects=10)
    assert canonical_form(G) == b"2;0,1|1,0|1,1"


def test_weyl_cartans_classical_up_to_permutation():
    for name in ("A2", "A3", "B3"):
        e = cat.get(name)
        base = cat.root_object_of(e)
        classical = base.cartan
        res = verify_crystallographic(cat.root_set_of(e))
        from itertools import permutations

        for O in res.graph.objects:
            c = O.cartan
            r = e.rank
            assert any(
                all(c[p[i]][p[j]] == classical[i][j]
                    for i in range(r) for j in range(r))
                for p in permutations(range(r))
            )


def test_is_object_irreducible():
    assert is_object_irreducible(cat.root_object_of(cat.get("A3")))
    assert not is_object_irreducible(make_root_object(2, [(1, 0), (0, 1)]))
    # c_10 and c_20 are nonzero while row 0 is zero off the diagonal, so
    # the Cartan graph is connected although coordinate 0 reaches no other
    # one along its own row
    O = RootObject(3, frozenset({(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 0), (1, 0, 2)}))
    assert O.cartan == ((2, 0, 0), (-2, 2, 0), (-2, 0, 2))
    assert is_object_irreducible(O)


def _reached_along_rows(O):
    """Whether every coordinate is reached from coordinate 0 by steps
    i -> j with c_ij != 0: the depth-first search that tested
    irreducibility before the undirected Cartan graph did."""
    c = O.cartan
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(O.rank):
            if j not in seen and c[i][j] != 0:
                seen.add(j)
                stack.append(j)
    return len(seen) == O.rank


def test_is_object_irreducible_matches_row_reach_on_the_corpus():
    # every corpus object has c_ij = 0 exactly when c_ji = 0, so following
    # rows and the undirected graph agree there
    objects = [O for _, G in closure_corpus() for O in G.objects]
    assert len(objects) == 370
    for O in objects:
        assert is_object_irreducible(O) == _reached_along_rows(O)


def test_sum_of_two_positive_roots_over_closures():
    for name in ("A3", "B3", "rank2-7"):
        e = cat.get(name)
        res = verify_crystallographic(cat.root_set_of(e))
        simples = {tuple(int(j == i) for j in range(e.rank)) for i in range(e.rank)}
        for O in res.graph.objects:
            roots = O.positive_roots
            for v in roots - simples:
                assert any(
                    tuple(a - b for a, b in zip(v, u)) in roots for u in roots
                )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(lambda r: st.tuples(st.just(r), arrangements(r))))
def test_verify_matches_fraction_coordinate_oracle(case):
    rank, covectors = case
    try:
        R = make_root_set(covectors, rank=rank)
    except ValueError:
        assume(False)
    res = verify_crystallographic(R)
    reason, chambers, cartan, base, witness = verify_fraction_coordinates(covectors, rank)
    assert (res.reason, res.chamber_count, res.base_object) == (reason, chambers, base)
    assert repr(res.base_cartan) == repr(cartan)
    assert repr(res.witness) == repr(witness)


def assert_same_verify_result(R):
    res = verify_crystallographic(R)
    expected = verify_every_chamber(R)
    assert res == expected
    assert repr(res.witness) == repr(expected.witness)
    return res


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((2, 3, 4)).flatmap(lambda r: st.tuples(st.just(r), rescaled_roots(r))))
def test_verify_matches_every_chamber_oracle(case):
    rank, roots = case
    try:
        R = make_root_set(roots, rank=rank)
    except ValueError:
        assume(False)
    assert_same_verify_result(R)


def assert_same_as_column_scan(R):
    res = verify_crystallographic(R)
    expected = verify_column_scan(R)
    assert res == expected
    assert repr(res.witness) == repr(expected.witness)
    return res


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((2, 3, 4)).flatmap(arrangements))
def test_verify_matches_column_scan(covectors):
    try:
        R = make_root_set(covectors)
    except ValueError:
        assume(False)
    assert_same_as_column_scan(R)


def integer_images(count, seed):
    """(rank, roots): the positive roots of a rank-3 or rank-4 catalog
    arrangement under a seeded random integer matrix with entries in
    [-2, 2], each image replaced by its primitive vector with probability
    0.7.  The images of one arrangement keep its root coordinates, so the
    primitive ones make some columns non-integral, at the base or later."""
    rng = random.Random(seed)
    entries = [e for e in cat.entries() if e.rank in (3, 4)]
    for _ in range(count):
        e = rng.choice(entries)
        M = [[rng.randint(-2, 2) for _ in range(e.rank)] for _ in range(e.rank)]
        roots = []
        for v in e.positive_roots:
            w = tuple(sum(a * b for a, b in zip(row, v)) for row in M)
            g = gcd(*w)
            roots.append(tuple(x // g for x in w) if g and rng.random() < 0.7 else w)
        yield e.rank, roots


def test_verify_matches_column_scan_on_integer_images():
    # the corpus holds root sets whose first non-integral chamber is the
    # base, and some whose first one lies past it
    outcomes = Counter()
    for rank, roots in integer_images(60, seed=25):
        try:
            R = make_root_set(roots, rank=rank)
        except ValueError:
            outcomes["rejected"] += 1
            continue
        res = assert_same_as_column_scan(R)
        outcome = res.reason or "ok"
        if res.reason == "non-integral root coordinates":
            chambers, _ = chamber_graph(R)
            first = [K.signs for K in chambers].index(res.witness[0])
            outcome += " at the base" if first == 0 else " past the base"
        outcomes[outcome] += 1
    assert outcomes == {"ok": 21, "rejected": 7,
                        "non-integral root coordinates at the base": 23,
                        "non-integral root coordinates past the base": 9}


def _built_by_negation(R):
    """The chambers of the walk that are reached after their antipode, each
    with the crossing that first reaches it: (chamber index, parent index,
    wall label)."""
    chambers, edges = chamber_graph(R)
    index = {K.signs: c for c, K in enumerate(chambers)}
    first = {}
    for (p, i), c in edges.items():
        first.setdefault(c, (p, i))
    return chambers, [(c, p, i) for c, (p, i) in first.items()
                      if index[tuple(-s for s in chambers[c].signs)] < c]


def _check_negated_chambers(R):
    chambers, negated = _built_by_negation(R)
    for c, p, i in negated:
        assert chambers[c] == adjacent_chamber(R, chambers[p], i)
    assert len(negated) == len(chambers) // 2


@pytest.mark.parametrize("name", [e.name for e in cat.entries()])
def test_chambers_built_by_negation_match_the_crossing(name):
    _check_negated_chambers(cat.root_set_of(cat.get(name)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 4)).flatmap(arrangements))
def test_chambers_built_by_negation_match_the_crossing_on_arrangements(covectors):
    try:
        R = make_root_set(covectors)
        chamber_graph(R)
    except (ValueError, NonSimplicialError):
        assume(False)
    _check_negated_chambers(R)


@pytest.mark.parametrize("name, old, new, first", [
    ("A3", (1, 1, 1), (2, 2, 2), 4), ("A2", (1, 1), (2, 2), 1)])
def test_first_non_integral_chamber_after_the_base(name, old, new, first):
    # a column that passes at the base chamber fails at a later one, and the
    # witness is that chamber's, as when every chamber's object was built
    roots = [new if v == old else v for v in cat.get(name).positive_roots]
    R = make_root_set(roots)
    res = assert_same_verify_result(R)
    chambers, _ = chamber_graph(R)
    assert res.reason == "non-integral root coordinates"
    assert [K.signs for K in chambers].index(res.witness[0]) == first


@pytest.mark.parametrize("roots, reason", [
    (cat.get("A3").positive_roots, ""),
    (cat.get("D4").positive_roots, ""),
    ([(2, 2, 2) if v == (1, 1, 1) else v for v in cat.get("A3").positive_roots],
     "non-integral root coordinates"),
    (cat.get("noncrystallographic-2.6").positive_roots, "non-integral root coordinates")])
def test_verify_builds_one_root_object(roots, reason, monkeypatch):
    # the column test needs no root object; one is built for the base
    # object on success or for the witness on a non-integral reject
    calls = []
    build = groupoid.root_object_of_chamber

    def counting(R, K):
        calls.append(K)
        return build(R, K)

    monkeypatch.setattr(groupoid, "root_object_of_chamber", counting)
    assert verify_crystallographic(make_root_set(roots)).reason == reason
    assert len(calls) == 1


@pytest.mark.parametrize("name, columns", [("A4", 30), ("D4", 48)])
def test_distinct_columns(name, columns):
    # the (ray, scale) pairs that verify tests: one per signed ray here,
    # against rank columns at each of 120 / 192 chambers
    R = cat.root_set_of(cat.get(name))
    chambers, _ = chamber_graph(R)
    pairs = {(v, K.signs[w] * ray_values(R, v)[w])
             for K in chambers for v, w in zip(K.rays, K.walls)}
    assert len(pairs) == columns


def test_canonical_form_matches_every_object_renderer():
    for name, G in closure_corpus():
        assert canonical_form(G) == canonical_form_every_object(G), name


def test_canonical_form_matches_every_object_renderer_on_two_digit_coordinates():
    # string order and integer order differ once a coordinate has two digits
    closures = 0
    for s in sorted(enumerate_esequences(9)):
        if max(map(max, s)) >= 10:
            G = traverse(make_root_object(2, s), max_objects=2 * len(s))
            assert canonical_form(G) == canonical_form_every_object(G), s
            closures += 1
    assert closures == 152


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((1, 2, 3, 4)).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(st.frozensets(st.tuples(*[st.integers(0, 40)] * r),
                                       min_size=1, max_size=6),
                         min_size=1, max_size=4))))
def test_canonical_form_matches_every_object_renderer_on_random_objects(case):
    rank, object_sets = case
    G = GroupoidGraph(rank=rank, objects=tuple(RootObject(rank, roots)
                                               for roots in object_sets), edges={})
    assert canonical_form(G) == canonical_form_every_object(G)


@settings(max_examples=300, deadline=None)
@given(G=single_object_graphs(ranks=(1, 2, 3, 4)))
def test_pair_table_matches_its_definitions(G):
    _assert_pair_table_matches_its_definitions(G.objects[0])


def test_pair_table_matches_its_definitions_on_the_closure_corpus():
    # real objects, with root strings and Vol_2 above 1
    objects = [O for _, G in closure_corpus() for O in G.objects]
    for O in objects:
        _assert_pair_table_matches_its_definitions(O)
    assert len(objects) == 370
    assert sum(bool(O.pair_table.strings) for O in objects) == 350
    assert sum(O.pair_table.max_vol2 > 1 for O in objects) == 350
    assert max(O.pair_table.max_vol2 for O in objects) == VOL2_MAX


@pytest.mark.parametrize("rank, roots", [
    (2, [(1, 0), (2, 0)]),
    (2, [(1, 0), (3, 0), (0, 1), (2, 2), (1, 1), (2, 1)]),
    (3, [(1, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 2, 2),
         (1, 2, 0), (2, 4, 0), (3, 6, 0), (1, 3, 2)]),
    (4, [(1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 3, 3),
         (1, 1, 1, 1)]),
])
def test_pair_table_matches_its_definitions_with_parallel_roots(rank, roots):
    # an unvalidated object: a parallel pair has Vol_2 = 0, a difference
    # such as (2,2,2) - (1,1,1) lies in +-R, and max_vol2 stays exact
    O = RootObject(rank, frozenset(roots))
    _assert_pair_table_matches_its_definitions(O)
    if len(roots) == 2:
        assert O.pair_table.max_vol2 == 0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 4)).flatmap(lambda r: st.tuples(st.just(r), st.frozensets(
    st.tuples(*[st.integers(0, 3)] * r).filter(any), min_size=1, max_size=10))))
def test_pair_table_matches_its_definitions_on_unvalidated_objects(case):
    # nonzero vectors, parallel ones and missing simple roots included;
    # no zero vector, which the definition of sums would read as v - v
    rank, roots = case
    _assert_pair_table_matches_its_definitions(RootObject(rank, roots))


def _assert_pair_table_matches_its_definitions(O):
    # every field of the table, each from its definition on every pair
    roots = O.positive_roots
    table = O.pair_table
    signed = roots | {tuple(-x for x in v) for v in roots}
    ordered = tuple(sorted(roots))
    assert table.signed == signed
    assert table.ordered == ordered
    n = len(ordered)
    for t, a in enumerate(ordered):
        for u, b in enumerate(ordered):
            free = u > t and tuple(y - x for x, y in zip(a, b)) not in signed
            assert bool(table.free[t] >> u & 1) == free, (a, b)
            assert bool(table.unimodular[t] >> u & 1) == (free and vol(2, [a, b]) == 1), (a, b)
        assert table.free[t] >> n == table.unimodular[t] >> n == 0
    assert table.sums == {v for v in roots for u in roots
                          if tuple(x - y for x, y in zip(v, u)) in roots}
    vols = [(a, b, vol(2, [a, b])) for a, b in combinations(ordered, 2)]
    assert table.max_vol2 == max((v for _, _, v in vols), default=0)
    assert table.above == tuple(w for w in vols if w[2] > VOL2_MAX)
    # (beta, k): k >= 2, beta = (gamma - alpha)/k for gamma != alpha in R+,
    # a root or not, Vol_2(alpha, beta) = 1
    top = max(max(v) for v in roots)
    strings = {}
    for alpha in ordered:
        for gamma in roots - {alpha}:
            d = [g - a for g, a in zip(gamma, alpha)]
            for k in range(2, 2 * top + 1):
                if all(x % k == 0 for x in d):
                    beta = tuple(x // k for x in d)
                    if vol(2, [alpha, beta]) == 1:
                        strings.setdefault(alpha, []).append((beta, k))
    assert table.strings == {alpha: tuple(sorted(c)) for alpha, c in strings.items()}
