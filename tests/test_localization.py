from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryarr import catalog as cat
from cryarr.errors import MissingRootError
from cryarr.groupoid import GroupoidGraph, RootObject, make_root_object, simple_roots, traverse
from cryarr.linalg import direction, matrix_rank
from cryarr.localization import localize, plane_roots, rank2_cycles
from cryarr.rank2 import is_crystallographic_rank2, quiddity_of
from oracles import (
    cartan_from_definition,
    localize_every_coordinate,
    plane_roots_reflecting,
    planes_support_dispatch,
    plane_roots_from_definition,
    rank2_cycles_reflecting,
)
from test_verifier import closure_corpus


def test_localize_a3_plane():
    O = cat.root_object_of(cat.get("A3"))
    assert localize(O.positive_roots, (0, 1)) == ((0, 1, 0), (1, 0, 0), (1, 1, 0))


def test_localize_b3_plane_is_b2():
    O = cat.root_object_of(cat.get("B3"))
    assert len(localize(O.positive_roots, (1, 2))) == 4


def test_localize_members_match_bruteforce_span():
    # the support filter equals membership in the span of the two simple
    # roots, decided by rank, for every pair of every rank-3 catalog object
    for entry in cat.entries():
        if entry.rank != 3:
            continue
        O = cat.root_object_of(entry)
        for i, j in combinations(range(3), 2):
            gens = [simple_roots(3)[i], simple_roots(3)[j]]
            span = [v for v in O.positive_roots
                    if matrix_rank(gens + [v]) == matrix_rank(gens)]
            assert localize(O.positive_roots, (i, j)) == tuple(sorted(span))


@st.composite
def roots_and_supports(draw):
    """Up to 12 vectors of one rank 1..4 with coordinates in -2..2, zero
    vectors included, and a support of any size, from empty to full."""
    rank = draw(st.integers(1, 4))
    roots = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank), max_size=12))
    support = draw(st.sets(st.integers(0, rank - 1)))
    return roots, tuple(sorted(support))


@settings(max_examples=300, deadline=None)
@given(roots_and_supports())
@example(([], (0, 1)))
@example(([], ()))
@example(([(1,), (0,), (-2,)], ()))
@example(([(1,), (0,), (-2,)], (0,)))
@example(([(1, 0, 2), (0, 1, 0), (0, 0, 1)], (0, 1, 2)))
def test_localize_matches_the_every_coordinate_loop(case):
    roots, support = case
    assert localize(roots, support) == localize_every_coordinate(roots, support)
    roots = frozenset(roots)
    assert localize(roots, support) == localize_every_coordinate(roots, support)


def test_plane_table_matches_localize_on_the_corpus():
    # the table of localize calls equals the support dispatch it replaced,
    # and the one-pass Cartan matrix its definition, on all 370 objects of
    # the corpus
    objects = [(name, oi, O) for name, G in closure_corpus() for oi, O in enumerate(G.objects)]
    assert len(objects) == 370
    for name, oi, O in objects:
        assert O.planes == planes_support_dispatch(O), (name, oi)
        assert O.cartan == cartan_from_definition(O), (name, oi)


@st.composite
def root_objects(draw, raw=False):
    """An object of rank 1..4: the simple roots plus up to 12 vectors in
    {0..3}^r, many of them on a coordinate plane, one per direction.  A
    ``raw`` object is a ``RootObject`` of the vectors alone, so zero
    vectors, multiples of simple roots, parallel roots and missing simple
    roots all occur."""
    rank = draw(st.integers(1, 4))
    entries = st.tuples(*[st.integers(0, 3)] * rank)
    plane = st.tuples(entries, st.integers(0, rank - 1), st.integers(0, rank - 1)).map(
        lambda t: tuple(x if k in t[1:] else 0 for k, x in enumerate(t[0])))
    vectors = draw(st.lists(st.one_of(plane, entries, st.sampled_from(simple_roots(rank))),
                            max_size=12))
    if raw:
        return RootObject(rank, frozenset(vectors))
    roots = {}
    for v in simple_roots(rank) + tuple(vectors):
        if any(v):
            roots.setdefault(direction(v), v)
    return make_root_object(rank, roots.values())


@settings(max_examples=300, deadline=None)
@given(O=st.one_of(root_objects(), root_objects(raw=True)))
def test_plane_table_matches_localize(O):
    # the table of localize calls against the support dispatch it replaced
    assert O.planes == planes_support_dispatch(O)
    for i, j in O.planes:
        assert O.planes[i, j] is O.planes[j, i]


@settings(max_examples=300, deadline=None)
@given(O=st.one_of(root_objects(), root_objects(raw=True)))
def test_cartan_matches_its_definition(O):
    # raw objects too: zero vectors, multiples of simple roots, parallel
    # roots and missing simple roots
    assert O.cartan == cartan_from_definition(O)


def test_rank2_cycles_a3():
    O = cat.root_object_of(cat.get("A3"))
    cyc = rank2_cycles(traverse(O, max_objects=100), 0, 0, 1)
    assert cyc.n == 3
    assert cyc.quiddity == (1, 1, 1, 1, 1, 1)
    assert set(cyc.auxiliary) <= {0, 1}
    m = len(cyc.auxiliary)
    assert not any(
        cyc.auxiliary[t] == 0 and cyc.auxiliary[(t + 1) % m] == 0 for t in range(m)
    )


def test_cycles_period_and_closure_on_catalog():
    for name in ("A3", "B3", "C3"):
        G = traverse(cat.root_object_of(cat.get(name)), max_objects=100)
        for i, j in permutations(range(3), 2):
            cyc = rank2_cycles(G, 0, i, j)
            assert cyc.quiddity[: cyc.n] == cyc.quiddity[cyc.n :]
            assert all(x >= 0 for x in cyc.quiddity + cyc.auxiliary)


def test_cycle_quiddity_matches_slope_sorted_sequence():
    # interior quiddity of the localization's sequence appears in the cycle
    O = cat.root_object_of(cat.get("B3"))
    for i, j in combinations(range(3), 2):
        members = localize(O.positive_roots, (i, j))
        ok, seq = is_crystallographic_rank2([(v[i], v[j]) for v in members])
        assert ok
        if len(seq) < 3:
            continue
        q = quiddity_of(seq)
        cyc = rank2_cycles(traverse(O, max_objects=100), 0, i, j)
        doubled = cyc.quiddity + cyc.quiddity
        assert any(
            doubled[t : t + len(q)] == q for t in range(len(cyc.quiddity))
        )


def test_plane_roots_a3():
    O = cat.root_object_of(cat.get("A3"))
    pr = plane_roots(traverse(O, max_objects=100), 0, 0, 1)
    assert pr.gammas[0] == (0, 0, 1)
    allowed = {(0, 0, 1), (0, 1, 1), (1, 1, 1)}
    assert set(pr.gammas) <= allowed and set(pr.deltas) <= allowed


def test_plane_roots_gamma2_closed_form():
    for name in ("A3", "B3", "C3"):
        G = traverse(cat.root_object_of(cat.get(name)), max_objects=100)
        for i, j in permutations(range(3), 2):
            pr = plane_roots(G, 0, i, j)
            c1, d1, d2 = pr.quiddity[0], pr.auxiliary[0], pr.auxiliary[1]
            assert pr.gammas[2] == (d2, c1 * d2 + d1, 1)
            assert 2 * len(set(pr.gammas)) >= pr.n
            for a, b in zip(pr.gammas, pr.gammas[1:]):
                assert all(y - x >= 0 for x, y in zip(a, b))


def test_rank2_cycles_requires_rank3():
    G = traverse(make_root_object(2, [(1, 0), (0, 1)]), max_objects=10)
    with pytest.raises(ValueError):
        rank2_cycles(G, 0, 0, 1)


def test_rank2_cycles_rejects_a_label_out_of_range():
    # a ValueError, not a KeyError from the plane table
    G = traverse(cat.root_object_of(cat.get("B3")), max_objects=100)
    for i, j in ((3, 0), (0, 3), (-1, 2)):
        with pytest.raises(ValueError, match="not both in range"):
            rank2_cycles(G, 0, i, j)


def test_plane_roots_rejects_a_label_out_of_range():
    # -1 would index the permuted coordinates from the end
    G = traverse(cat.root_object_of(cat.get("B3")), max_objects=100)
    for i, j in ((0, -1), (-1, 0), (3, 1)):
        with pytest.raises(ValueError, match="not both in range"):
            plane_roots(G, 0, i, j)


def test_plane_roots_tests_delta_n_when_the_auxiliary_cycle_is_not_periodic():
    # one object whose edges loop back to it: at the pair (0, 1), n = 5, the
    # quiddity is 2 throughout and the auxiliary cycle alternates 0, 1, so
    # it is not 5-periodic and delta_5 = (2,2,1) differs from
    # gamma_5 = (3,3,1); every other gamma and delta is a root
    roots = simple_roots(3) + ((1, 2, 0), (1, 1, 0), (2, 1, 0), (1, 0, 1), (1, 2, 1),
                               (3, 3, 1), (2, 1, 1))
    outcomes = []
    for extra in ((), ((2, 2, 1),)):
        G = GroupoidGraph(rank=3, objects=(make_root_object(3, roots + extra),),
                          edges={(0, s): 0 for s in range(3)})
        for walk in (plane_roots, plane_roots_from_definition):
            try:
                outcomes.append(walk(G, 0, 0, 1))
            except MissingRootError as e:
                outcomes.append(e.vector)
    assert outcomes[:2] == [(2, 2, 1)] * 2
    assert outcomes[2] == outcomes[3]
    assert (outcomes[2].auxiliary[:2], outcomes[2].gammas[5], outcomes[2].deltas[5]) == (
        (0, 1), (3, 3, 1), (2, 2, 1))


@pytest.mark.parametrize("walk", [rank2_cycles, plane_roots])
def test_walks_reject_equal_indices(walk):
    # an equal pair is no plane: a ValueError, not a KeyError from the table
    G = traverse(cat.root_object_of(cat.get("B3")), max_objects=100)
    for i in range(3):
        with pytest.raises(ValueError, match="indices must differ"):
            walk(G, 0, i, i)


def test_edge_walk_matches_the_reflecting_walk():
    # at every object and ordered pair of every closure in the corpus, the
    # walk along G.edges gives the cycles, the objects and the plane roots
    # of the walk that reflects every object again
    for name, G in closure_corpus():
        if G.rank != 3:
            continue
        for oi, O in enumerate(G.objects):
            for i, j in permutations(range(3), 2):
                where = (name, oi, i, j)
                assert rank2_cycles(G, oi, i, j) == rank2_cycles_reflecting(O, i, j), where
                assert plane_roots(G, oi, i, j) == plane_roots_reflecting(O, i, j), where
