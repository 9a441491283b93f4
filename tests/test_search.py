from functools import lru_cache

import pytest

from cryarr import catalog as cat
from cryarr import search
from cryarr.geometry import enumerate_chambers, make_root_set
from cryarr.groupoid import canonical_form_of_rootset, verify_crystallographic
from cryarr.search import _close, _plane_systems_ok, enumerate_rank3
from cryarr.verifier import all_ok, run_all
from oracles import verify_candidate_geometric

search_at = lru_cache(maxsize=None)(enumerate_rank3)


def test_cap_too_small():
    with pytest.raises(ValueError):
        enumerate_rank3(5)


def test_close_rules():
    # root strings are filled in, and Cartan entries below -7 prune
    S = _close({(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 1, 0)}, cap=10)
    assert S is not None and (1, 1, 0) in S and (2, 1, 0) in S
    assert _close({(1, 0, 0), (0, 1, 0), (0, 0, 1), (8, 1, 0)}, cap=40) is None
    assert _close({(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)}, cap=3) is None


def test_plane_systems_filter():
    a3 = set(cat.get("A3").positive_roots)
    assert _plane_systems_ok(a3)
    assert not _plane_systems_ok({(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 1, 0)})


def test_cap6_finds_exactly_a3():
    result = enumerate_rank3(6)
    assert result.verdict == "Complete"
    assert result.emitted == 1
    a3 = canonical_form_of_rootset(cat.root_set_of(cat.get("A3")))
    assert result.canonical_forms == (a3,)


def test_cap6_output_is_sound():
    result = enumerate_rank3(6)
    for roots in result.arrangements:
        res = verify_crystallographic(make_root_set(roots, rank=3))
        assert res.ok and all_ok(run_all(res.graph))


def test_budget_exhaustion_reports_incomplete():
    result = enumerate_rank3(9, budget=10)
    assert result.verdict == "Incomplete"


@pytest.mark.parametrize("cap, states, emitted",
                         [(6, 74, 1), (7, 411, 2), (8, 2715, 3)])
def test_work_counters_are_pinned(cap, states, emitted):
    result = search_at(cap)
    assert result.verdict == "Complete"
    assert (result.states_visited, result.emitted) == (states, emitted)


@pytest.mark.parametrize("cap", [6, 7, 8])
def test_found_forms_grow_with_the_cap(cap):
    smaller, larger = search_at(cap), search_at(cap + 1)
    assert set(smaller.canonical_forms) <= set(larger.canonical_forms)


def test_close_checks_new_roots_against_known_ones():
    S = frozenset(search.SIMPLES)
    # Vol_2((1,0,0), (1,7,7)) = 7 pairs a known root with a new one
    assert _close(S | {(1, 7, 7)}, 20, S) is None
    # (2,2,0) is new and parallel to the known (1,1,0)
    T = _close(S | {(1, 1, 0)}, 20, S)
    assert T is not None
    assert _close(T | {(2, 2, 0)}, 20, T) is None


def test_close_with_known_matches_full_check(monkeypatch):
    calls = []
    fast = search._close

    def recording(roots, cap, known=frozenset()):
        out = fast(roots, cap, known)
        calls.append((frozenset(roots), cap, out))
        return out

    monkeypatch.setattr(search, "_close", recording)
    enumerate_rank3(7)
    assert len(calls) > 400
    for roots, cap, out in calls:
        assert out == fast(roots, cap)


def test_closure_bound_covers_every_chamber_count():
    # the closure bound n(n-1)+2 of the search's pre-filter is at least
    # the chamber count on the catalog and on the cap-9 search output
    systems = [cat.root_set_of(e) for e in cat.entries() if e.rank == 3]
    systems += [make_root_set(roots, rank=3) for roots in search_at(9).arrangements]
    for R in systems:
        n = len(R.positives)
        assert len(enumerate_chambers(R)) <= n * (n - 1) + 2


def test_verify_candidate_agrees_with_geometric_oracle(monkeypatch):
    seen = []
    fast = search._verify_candidate

    def recording(roots):
        G = fast(roots)
        seen.append((roots, G))
        return G

    monkeypatch.setattr(search, "_verify_candidate", recording)
    result = enumerate_rank3(7)
    assert len(seen) == 411
    hits = 0
    for roots, G in seen:
        expected = verify_candidate_geometric(roots)
        assert (G is None) == (expected is None), sorted(roots)
        if G is not None:
            assert G == expected
            hits += 1
    assert result.emitted == 2 and hits >= 2
