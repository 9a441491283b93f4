import importlib.util
import sys
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryarr import catalog as cat
from cryarr import groupoid, search
from cryarr.geometry import chamber_graph, make_root_set, supports_connected
from cryarr.groupoid import (
    RootObject,
    canonical_form,
    canonical_form_of_rootset,
    make_root_object,
    traverse,
    verify_crystallographic,
)
from cryarr.linalg import direction
from cryarr.search import _close, _plane_systems_ok, enumerate_rank3
from cryarr.verifier import all_ok, run_all
from oracles import (
    key_sorted_image,
    least_permutation_image,
    level_walk_states,
    partial_closure_ok,
    reflection_rule_ok,
    representative_every_object,
    search_state_ok,
    tree_walk,
    verify_candidate_geometric,
    verify_candidate_traverse,
)

search_at = lru_cache(maxsize=None)(enumerate_rank3)
SIMPLES = tuple(sorted(search.SIMPLES))
INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


def _decided(cap):
    """The search at ``cap`` and the states it decides, in order: the simple
    roots, then each state that ``_children`` yields."""
    decided = [SIMPLES]
    fast = search._children

    def recording(S, cap):
        for T in fast(S, cap):
            decided.append(T)
            yield T

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_children", recording)
        result = enumerate_rank3(cap)
    return result, decided


def test_cap_too_small():
    with pytest.raises(ValueError):
        enumerate_rank3(5)


def test_close_rules():
    # a root string already present below the new root is accepted; Cartan
    # entries below -7 are pruned by Vol_2 with (1,1,0)
    S = _close(_close(SIMPLES, (1, 1, 0)), (2, 1, 0))
    assert _close(S, (3, 1, 0)) == S + ((3, 1, 0),)
    string = SIMPLES + tuple((k, 1, 0) for k in range(1, 8))
    assert _close(string, (8, 1, 0)) is None


@pytest.mark.parametrize("cap", [6, 7, 8])
def test_walked_states_meet_the_string_and_cap_rules(cap):
    # _close tests only Vol_2: the walk keeps k <= 7, root-string
    # convexity and the cap without testing them
    _, walked = _decided(cap)
    assert len(walked) == {6: 4, 7: 8, 8: 18}[cap]
    for S in walked:
        assert len(S) <= cap
        for v in S:
            support = [t for t, x in enumerate(v) if x != 0]
            if len(support) != 2:
                continue
            for i, j in (support, support[::-1]):
                if v[j] == 1:
                    assert v[i] <= 7, S
                    assert all(tuple(ell if t == i else x for t, x in enumerate(v)) in S
                               for ell in range(1, v[i])), S


def test_plane_systems_filter():
    a3 = set(cat.get("A3").positive_roots)
    assert _plane_systems_ok(a3)
    assert not _plane_systems_ok({(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 1, 0)})


def test_plane_tests_pass_every_state_decided_at_caps_6_to_10():
    # the states decided at cap 10 hold those of caps 6-9; the plane tests
    # reject none of them, so running them last in _verify_candidate, on the
    # few states that pass the supports and the closed walk, loses nothing
    result, decided = _decided(10)
    assert len(decided) == result.states_visited == 87
    assert all(_plane_systems_ok(S) for S in decided)


def test_plane_tests_run_only_after_the_supports_and_the_closed_walk(monkeypatch):
    planes, verified = [], []
    plane, fast = search._plane_systems_ok, search._verify_candidate

    def recording_planes(roots):
        planes.append(roots)
        return plane(roots)

    def recording_states(roots):
        verified.append(roots)
        return fast(roots)

    monkeypatch.setattr(search, "_plane_systems_ok", recording_planes)
    monkeypatch.setattr(search, "_verify_candidate", recording_states)
    result = enumerate_rank3(9)
    survivors = [S for S in verified
                 if supports_connected(S, 3) and search._partial_closure_ok(S, None)]
    assert planes == survivors
    assert (result.states_visited, len(verified), len(planes), result.emitted) == (39, 36, 5, 5)


def test_cap6_finds_exactly_a3():
    result = enumerate_rank3(6)
    assert result.verdict == "Complete"
    assert result.emitted == 1
    a3 = canonical_form_of_rootset(cat.root_set_of(cat.get("A3")))
    assert result.canonical_forms == (a3,)


@pytest.mark.parametrize("cap", [6, 7, 8, 9, 10, 11, 12])
def test_search_output_is_sound(cap):
    # the statement checks filter no search state: they must pass on every
    # emitted closure, or a theorem they check has a counterexample
    result = search_at(cap)
    for roots in result.arrangements:
        res = verify_crystallographic(make_root_set(roots, rank=3))
        assert res.ok and all_ok(run_all(res.graph))


def test_budget_exhaustion_reports_incomplete():
    result = enumerate_rank3(9, budget=10)
    assert result.verdict == "Incomplete"
    assert result.states_visited == 10


# (states decided, forms emitted) per cap; the test ids name the cap alone,
# so that a prune that changes the counts changes no test name
WORK = {6: (4, 1), 7: (8, 2), 8: (18, 3), 9: (39, 5), 10: (87, 7), 11: (221, 8)}


@pytest.mark.parametrize("cap", sorted(WORK))
def test_work_counters_are_pinned(cap):
    result = search_at(cap)
    assert result.verdict == "Complete"
    assert (result.states_visited, result.emitted) == WORK[cap]


@pytest.mark.parametrize("cap", [6, 7, 8, 9, 10])
def test_found_forms_grow_with_the_cap(cap):
    smaller, larger = search_at(cap), search_at(cap + 1)
    assert set(smaller.canonical_forms) <= set(larger.canonical_forms)


def test_close_checks_new_roots_against_known_ones():
    # Vol_2((1,0,0), (1,7,7)) = 7 pairs a simple root with the new one
    assert _close(SIMPLES, (1, 7, 7)) is None
    # Vol_2((1,1,0), (1,1,7)) = 7, while (1,1,7) passes against the simples
    assert _close(SIMPLES, (1, 1, 7)) is not None
    assert _close(_close(SIMPLES, (1, 1, 0)), (1, 1, 7)) is None


def test_close_matches_all_pairs_check(monkeypatch):
    # cap 11, because no _close call of the search at a smaller cap prunes
    calls = []
    fast = search._close

    def recording(S, v):
        out = fast(S, v)
        calls.append((S, v, out))
        return out

    monkeypatch.setattr(search, "_close", recording)
    enumerate_rank3(11)
    assert len(calls) == 1054
    for S, v, out in calls:
        assert (out is not None) == search_state_ok(S + (v,), 11), (S, v)
        assert out is None or out == S + (v,)
    assert 0 < sum(out is None for *_, out in calls) < len(calls)


@pytest.mark.parametrize("cap", [6, 7, 8])
def test_tree_walk_decides_the_states_of_the_graph_search(cap):
    decided = [frozenset(S) for S in _decided(cap)[1]]
    assert len(set(decided)) == len(decided)
    assert set(decided) == level_walk_states(cap)
    # every decided state is a valid root object and root set:
    # _verify_candidate hands it to make_root_set with no ValueError handler
    for S in decided:
        assert make_root_object(3, S).positive_roots == S
        assert set(make_root_set(S, rank=3).positives) == S


def test_cap9_walk_decides_one_state_per_permutation_class():
    _, decided = _decided(9)
    assert len(decided) == 39
    assert all(least_permutation_image(S) for S in decided)


@pytest.mark.parametrize("cap", [6, 7, 8])
def test_level_walk_finds_the_forms_of_the_root_walk(cap):
    assert set(search_at(cap).canonical_forms) == tree_walk(cap)


@st.composite
def root_states(draw):
    """The simple roots plus up to 10 vectors in {0..4}^3, many of them on
    a coordinate plane, one per direction, as a tuple in key order.  Few
    are valid states, so the rules meet their edge cases often."""
    entries = st.tuples(*[st.integers(0, 4)] * 3)
    plane = st.tuples(entries, st.integers(0, 2)).map(
        lambda t: tuple(0 if i == t[1] else x for i, x in enumerate(t[0])))
    extra = draw(st.lists(st.one_of(plane, entries), max_size=10))
    roots = {}
    for v in SIMPLES + tuple(extra):
        if any(v):
            roots.setdefault(direction(v), v)
    return tuple(sorted(roots.values(), key=search._key))


@st.composite
def near_states(draw):
    """A height prefix, from height 2 on, of an object of a Weyl restriction
    under a coordinate permutation, with up to two of its non-simple members
    dropped and up to two vectors of {0..3}^3 added, one per direction, in
    key order: about half pass the reflection test at depth 0 and some of
    those fail it deeper."""
    objects = [O for _, G in weyl_restriction_closures() for O in G.objects]
    T = search._image(draw(st.sampled_from(objects)).positive_roots,
                      draw(st.permutations(range(3))))
    top = draw(st.integers(2, sum(T[-1])))
    kept = [v for v in T[3:] if sum(v) <= top]
    drop = draw(st.sets(st.sampled_from(kept), max_size=2)) if kept else set()
    extra = draw(st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=2))
    roots = {}
    for v in SIMPLES + tuple(v for v in kept if v not in drop) + tuple(extra):
        if any(v):
            roots.setdefault(direction(v), v)
    return tuple(sorted(roots.values(), key=search._key))


@settings(max_examples=500, deadline=None)
@given(T=near_states())
def test_reflection_test_matches_its_slow_path_near_real_objects(T):
    for depth in range(4):
        assert search._partial_closure_ok(T, depth) == partial_closure_ok(T, depth), depth


@settings(max_examples=500, deadline=None)
@given(T=root_states())
def test_permutation_and_reflection_tests_match_their_slow_paths(T):
    assert search._least(T, search.MOVES) == least_permutation_image(T)
    for depth in range(4):
        assert search._partial_closure_ok(T, depth) == partial_closure_ok(T, depth), depth
    # at depth 0 the test is the reflection rule with final Cartan entries on
    # states that meet the search's rules, whose root strings are unbroken
    if search_state_ok(T, len(T)):
        assert partial_closure_ok(T, 0, r111=False) == reflection_rule_ok(T)
    # T as the child of S, T without its top level: when S is least, the
    # permutations that fix S decide whether T is
    top = sum(T[-1])
    S = tuple(v for v in T if sum(v) < top)
    if S and least_permutation_image(S):
        fixing = [perm for perm in list(permutations(range(3)))[1:]
                  if {tuple(v[p] for p in perm) for v in S} == set(S)]
        assert search._least(T, fixing) == least_permutation_image(T)


TRIPLES = st.tuples(*[st.integers(0, 6)] * 3)


@settings(max_examples=300, deadline=None)
@given(T=st.one_of(st.sets(TRIPLES, max_size=14), st.frozensets(TRIPLES, max_size=14),
                   root_states()))
def test_image_matches_its_slow_path(T):
    for perm in permutations(range(3)):
        assert search._image(T, perm) == key_sorted_image(T, perm), perm


@pytest.mark.parametrize("cap", [6, 7, 8, 9, 10, 11, 12])
def test_closure_images_give_the_old_representative_and_known_set(cap, monkeypatch):
    result, _, verified = _decisions(cap, monkeypatch)
    closures = [G for _, G in verified if G is not None]
    assert len(closures) == result.emitted
    for G in closures:
        images = search._closure_images(G)
        assert search._representative(images) == representative_every_object(G)
        assert set(images) == {key_sorted_image(O.positive_roots, perm)
                               for O in G.objects for perm in permutations(range(3))}


def test_reflection_walk_matches_its_slow_path_on_every_candidate(monkeypatch):
    # every child that _children hands to the reflection test at cap 10,
    # which holds those of caps 6-9, decided at DEPTH and in closed mode
    candidates = []
    fast = search._partial_closure_ok

    def recording(T, depth):
        if depth is not None:
            candidates.append(T)
        return fast(T, depth)

    monkeypatch.setattr(search, "_partial_closure_ok", recording)
    enumerate_rank3(10)
    kept = closed = 0
    for T in candidates:
        at_depth, whole = fast(T, search.DEPTH), fast(T, None)
        assert at_depth == partial_closure_ok(T, search.DEPTH), T
        assert whole == partial_closure_ok(T, None), T
        kept += at_depth
        closed += whole
    assert (len(candidates), kept, closed) == (539, 86, 17)


def _inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def weyl_restriction_closures():
    """(name, closure) for each canonical form among the irreducible
    coordinate-triple restrictions of A_n, B_n, C_n, D_n (n = 4..7), F4 and
    E6-E8, named by the first restriction that gives it.  Restrictions of
    crystallographic arrangements are crystallographic (Cuntz 2011)."""
    inputs = _inputs()
    chain, cartan = inputs._chain, inputs._cartan
    cartans = []
    for n in (4, 5, 6, 7):
        cartans += [(f"A{n}", cartan(n, chain(n))),
                    (f"B{n}", cartan(n, chain(n), doubles=[(n - 1, n - 2)])),
                    (f"C{n}", cartan(n, chain(n), doubles=[(n - 2, n - 1)])),
                    (f"D{n}", cartan(n, chain(n - 1) + [(n - 3, n - 1)]))]
    cartans += [(name, inputs.CARTAN[name]) for name in ("F4", "E6", "E7", "E8")]
    out = {}
    for name, c in cartans:
        for keep in combinations(range(len(c)), 3):
            lines = inputs.restriction(c, keep)
            if not supports_connected(lines, 3):
                continue
            n = len(lines)
            G = traverse(make_root_object(3, lines), max_objects=n * (n - 1) + 2)
            out.setdefault(canonical_form(G),
                           (f"{name}-restriction-{''.join(map(str, keep))}", G))
    return tuple(out.values())


@pytest.mark.parametrize("cap", [6, 7, 8, 9, 10, 11, 12])
def test_search_finds_every_weyl_restriction(cap):
    lines = {canonical_form(G): len(G.objects[0].positive_roots)
             for _, G in weyl_restriction_closures()}
    assert sorted(n for n in lines.values() if n <= 12) == [6, 7, 8, 9, 9, 10, 10, 11]
    expected = {form for form, n in lines.items() if n <= cap}
    result = search_at(cap)
    assert expected <= set(result.canonical_forms)
    # up to cap 11 the search finds the restrictions alone; cap 12 adds two
    # 12-line forms that are no restriction
    others = sorted(len(roots) for form, roots in zip(result.canonical_forms,
                                                      result.arrangements)
                    if form not in expected)
    assert others == ([12, 12] if cap == 12 else [])


def test_weyl_restriction_prefixes_pass_the_reflection_test():
    # every height prefix of an object of a crystallographic arrangement,
    # from height 2 on, is a child in the walk with that object among its
    # descendants, so no prune may reject it (the permutation test aside)
    prefixes = []
    for _, G in weyl_restriction_closures():
        for O in G.objects:
            for perm in permutations(range(3)):
                T = search._image(O.positive_roots, perm)
                prefixes += [T[:n] for n in range(4, len(T) + 1)
                             if n == len(T) or sum(T[n]) > sum(T[n - 1])]
    assert (sum(len(G.objects) for _, G in weyl_restriction_closures()),
            len(prefixes)) == (116, 5208)
    for T in prefixes:
        for depth in (0, search.DEPTH, 5):
            assert search._partial_closure_ok(T, depth), (T, depth)


def test_closed_walk_passes_every_weyl_restriction_object():
    # each object of a crystallographic arrangement, under each coordinate
    # permutation, is a state that the geometry accepts
    objects = [O for _, G in weyl_restriction_closures() for O in G.objects]
    for O in objects:
        for perm in permutations(range(3)):
            assert search._partial_closure_ok(search._image(O.positive_roots, perm), None), O


def test_closed_walk_rejects_only_what_traverse_or_the_geometry_rejects():
    # on the states decided at cap 10, which hold those of caps 6-9, the
    # closed walk rejects no state that the decision with traverse first
    # accepts, so the two decisions agree
    _, decided = _decided(10)
    rejected = 0
    for S in decided:
        expected = verify_candidate_traverse(S)
        if not search._partial_closure_ok(S, None):
            assert expected is None, S
            rejected += 1
        assert search._verify_candidate(S) == expected, S
    assert (len(decided), rejected) == (87, 70)


@settings(max_examples=500, deadline=None)
@given(T=st.one_of(root_states(), near_states()))
def test_closed_walk_rejects_only_what_traverse_or_the_geometry_rejects_at_random(T):
    expected = verify_candidate_traverse(T)
    if not search._partial_closure_ok(T, None):
        assert expected is None, T
    assert search._verify_candidate(T) == expected, T


@pytest.mark.parametrize("cap, closures", [(9, 5), (10, 7)])
def test_search_builds_one_closure_per_emitted_form(cap, closures, monkeypatch):
    # traverse runs once per state the geometry decides, and the closed walk
    # leaves it only the states that verify; deciding as
    # verify_candidate_traverse does, with an integer traverse first, would
    # call it 10 and 14 times.  Every cryarr module that holds the function
    # is patched, so a call by any name is counted.
    calls = []
    fast = groupoid.traverse

    def counting(*args, **kwargs):
        calls.append(args[0])
        return fast(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("cryarr") and getattr(module, "traverse", None) is fast:
            monkeypatch.setattr(module, "traverse", counting)
    result = enumerate_rank3(cap)
    assert len(calls) == result.emitted == closures


def test_closure_bound_covers_every_chamber_count():
    # the bound n(n-1)+2 on the distinct matrices of the closed walk is at
    # least the chamber count on the catalog and on the cap-9 search output
    systems = [cat.root_set_of(e) for e in cat.entries() if e.rank == 3]
    systems += [make_root_set(roots, rank=3) for roots in search_at(9).arrangements]
    for R in systems:
        n = len(R.positives)
        assert len(chamber_graph(R)[0]) <= n * (n - 1) + 2


def test_geometry_reproduces_every_accepted_state_as_its_base_object():
    # _verify_candidate returns the geometry's closure without comparing its
    # base object with the state: the module docstring proves the two equal,
    # since generic_point's (1,1,1) lies in the positive orthant
    decided = set()
    for cap in range(6, 11):
        decided.update(_decided(cap)[1])
    accepted = 0
    for S in decided:
        res = verify_crystallographic(make_root_set(S, rank=3))
        if res.ok:
            assert res.base_object.positive_roots == frozenset(S), S
            accepted += 1
    assert (len(decided), accepted) == (87, 18)


def _decisions(cap, monkeypatch):
    """The search at ``cap``, the states it decides and the (state, closure
    or None) of each ``_verify_candidate`` call."""
    verified = []
    fast = search._verify_candidate

    def verifying(roots):
        G = fast(roots)
        verified.append((roots, G))
        return G

    monkeypatch.setattr(search, "_verify_candidate", verifying)
    return *_decided(cap), verified


def test_verify_candidate_agrees_with_geometric_oracle(monkeypatch):
    result, decided, verified = _decisions(7, monkeypatch)
    # one state of the cap-7 walk is an object of a closure found before
    assert (result.states_visited, len(decided), len(verified)) == (8, 8, 7)
    closures = dict(verified)
    hits = 0
    for roots in decided:
        expected = verify_candidate_geometric(roots)
        if roots in closures:
            G = closures[roots]
            assert (G is None) == (expected is None), sorted(roots)
            assert G is None or G == expected
            hits += G is not None
        else:   # skipped: an object of a closure already found
            assert expected is not None, sorted(roots)
            assert canonical_form(expected) in result.canonical_forms
    assert hits == result.emitted == 2


@pytest.mark.parametrize("cap, skipped", [(8, 3), (9, 3), (10, 10)])
def test_each_closure_is_verified_once(cap, skipped, monkeypatch):
    # cap 7 (one state skipped) is checked state by state above
    result, decided, verified = _decisions(cap, monkeypatch)
    assert sum(G is not None for _, G in verified) == result.emitted
    checked = {roots for roots, _ in verified}
    rest = [roots for roots in decided if roots not in checked]
    assert len(rest) == skipped
    for roots in rest:
        G = verify_candidate_geometric(roots)
        assert G is not None and canonical_form(G) in result.canonical_forms, roots


def test_contiguity_counterexample():
    # a crystallographic object with a root of height 7 that exceeds no
    # positive root by a simple root, and no root of height 6: the search
    # may not branch only at height top + 1
    roots = SIMPLES + ((1, 1, 0), (0, 1, 1), (1, 1, 1), (1, 2, 1), (1, 2, 2),
                       (2, 2, 1), (2, 3, 2))
    G = traverse(RootObject(3, frozenset(roots)), max_objects=10 * 9 + 2)
    assert len(G.objects) == 5 and all_ok(run_all(G))
    res = verify_crystallographic(make_root_set(roots, rank=3))
    assert res.ok and res.graph == G
    for e in SIMPLES:
        assert tuple(x - y for x, y in zip((2, 3, 2), e)) not in roots
