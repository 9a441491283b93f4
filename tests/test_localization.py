from itertools import combinations, permutations

import pytest

from cryarr import catalog as cat
from cryarr.groupoid import make_root_object, simple_roots
from cryarr.linalg import matrix_rank
from cryarr.localization import localize, plane_roots, rank2_cycles
from cryarr.rank2 import is_crystallographic_rank2, quiddity_of


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


def test_rank2_cycles_a3():
    O = cat.root_object_of(cat.get("A3"))
    cyc = rank2_cycles(O, 0, 1)
    assert cyc.n == 3
    assert cyc.quiddity == (1, 1, 1, 1, 1, 1)
    assert set(cyc.auxiliary) <= {0, 1}
    m = len(cyc.auxiliary)
    assert not any(
        cyc.auxiliary[t] == 0 and cyc.auxiliary[(t + 1) % m] == 0 for t in range(m)
    )


def test_cycles_period_and_closure_on_catalog():
    for name in ("A3", "B3", "C3"):
        O = cat.root_object_of(cat.get(name))
        for i, j in permutations(range(3), 2):
            cyc = rank2_cycles(O, i, j)
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
        cyc = rank2_cycles(O, i, j)
        doubled = cyc.quiddity + cyc.quiddity
        assert any(
            doubled[t : t + len(q)] == q for t in range(len(cyc.quiddity))
        )


def test_plane_roots_a3():
    O = cat.root_object_of(cat.get("A3"))
    pr = plane_roots(O, 0, 1)
    assert pr.gammas[0] == (0, 0, 1)
    allowed = {(0, 0, 1), (0, 1, 1), (1, 1, 1)}
    assert set(pr.gammas) <= allowed and set(pr.deltas) <= allowed


def test_plane_roots_gamma2_closed_form():
    for name in ("A3", "B3", "C3"):
        O = cat.root_object_of(cat.get(name))
        for i, j in permutations(range(3), 2):
            pr = plane_roots(O, i, j)
            c1, d1, d2 = pr.quiddity[0], pr.auxiliary[0], pr.auxiliary[1]
            assert pr.gammas[2] == (d2, c1 * d2 + d1, 1)
            assert 2 * len(set(pr.gammas)) >= pr.n
            for a, b in zip(pr.gammas, pr.gammas[1:]):
                assert all(y - x >= 0 for x, y in zip(a, b))


def test_rank2_cycles_requires_rank3():
    with pytest.raises(ValueError):
        rank2_cycles(make_root_object(2, [(1, 0), (0, 1)]), 0, 1)
