import random
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cryarr import catalog as cat
from cryarr import geometry
from cryarr.errors import ClosureOverflowError, NotClosedError
from cryarr.geometry import cartan_of_chamber, chamber_graph, make_root_set
from cryarr.groupoid import (
    canonical_form,
    canonical_form_of_rootset,
    is_object_irreducible,
    make_root_object,
    reflect_object,
    root_object_of_chamber,
    traverse,
    verify_crystallographic,
)
from oracles import permute_object, verify_fraction_coordinates
from strategies import arrangements
from test_verifier import closure_corpus


def test_make_root_object_validation():
    make_root_object(2, [(1, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        make_root_object(2, [(1, 0), (1, 1)])  # missing e2
    with pytest.raises(ValueError):
        make_root_object(2, [(1, 0), (0, 1), (2, 2), (1, 1)])  # parallel


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


def test_verify_examples():
    assert verify_crystallographic(cat.root_set_of(cat.get("A3"))).ok
    assert verify_crystallographic(cat.root_set_of(cat.get("rank2-7"))).ok
    res = verify_crystallographic(make_root_set([(1, 0), (0, 1), (1, 2)]))
    assert not res.ok
    assert res.reason == "non-integral root coordinates"


@pytest.mark.parametrize("name, scans", [
    ("A2", 6), ("rank2-7", 14), ("noncrystallographic-2.6", 6), ("A3", 24),
    ("A4", 120), ("B3", 48), ("C3", 48), ("D4", 192)])
def test_verify_scans_the_ray_table_once_per_chamber(name, scans, monkeypatch):
    # one scan per chamber built; the base Cartan matrix reads the chambers
    # across its walls from the chamber graph's edges
    calls = []
    scan = geometry._rays_for_signs

    def counting(R, signs):
        calls.append(signs)
        return scan(R, signs)

    monkeypatch.setattr(geometry, "_rays_for_signs", counting)
    R = cat.root_set_of(cat.get(name))
    res = verify_crystallographic(R)
    assert len(calls) == scans == res.chamber_count


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
