import ast
import json
import os
import subprocess
import sys
from collections import Counter
from functools import cached_property, lru_cache
from itertools import permutations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryarr import catalog as cat
from cryarr import linalg, localization, search, verifier
from cryarr.errors import (
    ClosureOverflowError,
    CycleBrokenError,
    HypothesisFailedError,
    MissingRootError,
    NotClosedError,
    PreconditionFailedError,
)
from cryarr.cli import document_of
from cryarr.geometry import make_root_set
from cryarr.groupoid import (
    GroupoidGraph,
    RootObject,
    canonical_form,
    make_root_object,
    simple_roots,
    traverse,
    verify_crystallographic,
)
from cryarr.linalg import direction, vol
from cryarr.localization import plane_roots, rank2_cycles
from cryarr.verifier import (
    _no_negative_ray,
    all_ok,
    check_b128,
    check_bound7,
    check_convexity_statements,
    check_lemcon,
    check_plane_roots,
    check_r111,
    check_sum_of_roots,
    check_vol2_bound,
    compute_k0,
    lemcon_sweep,
    run_all,
)
from oracles import (
    canonical_form_every_object,
    check_plane_roots_from_definition,
    check_plane_roots_per_pair,
    check_plane_roots_reflecting,
    compute_k0_lookup,
    convexity_statements_vol3,
    lemcon_conclusion_every_term,
    lemcon_sweep_triple_loop,
    level_walk_states,
    no_negative_ray_box,
    orbits_from_definition,
    permute_object,
    run_all_every_object,
    sum_of_roots_every_pair,
    symmetries_from_definition,
    vol2_bound_every_pair,
)
from strategies import small_objects
from test_golden import GOLDEN, arrangement_documents
from test_search import weyl_restriction_closures


def closure(name):
    return verify_crystallographic(cat.root_set_of(cat.get(name))).graph


@lru_cache(maxsize=None)
def closure_corpus():
    """(name, closure) for every catalog closure, the closures of
    ``weyl_restriction_closures`` and every closure that ``traverse``
    finishes among the states the cap-9 search walk decides without the
    (1,1,1) test (named by the state, in key order).  That test would
    leave out every closure that fails a statement check."""
    out = [(e.name, closure(e.name)) for e in cat.entries() if e.crystallographic]
    out += weyl_restriction_closures()
    for S in sorted(tuple(sorted(S, key=search._key))
                    for S in level_walk_states(9, r111=False)):
        n = len(S)
        try:
            G = traverse(RootObject(3, frozenset(S)), max_objects=n * (n - 1) + 2)
        except (NotClosedError, ClosureOverflowError):
            continue
        out.append((S, G))
    return tuple(out)


def single_object_graph(rank, roots):
    return GroupoidGraph(rank=rank,
                         objects=(make_root_object(rank, roots),),
                         edges={})


def test_sum_of_roots():
    assert check_sum_of_roots(closure("A3")).verdict == "pass"
    rep = check_sum_of_roots(single_object_graph(2, [(1, 0), (0, 1), (2, 1)]))
    assert rep.verdict == "fail"
    assert (0, (2, 1)) in rep.witnesses


def test_r111():
    assert check_r111(closure("A3")).verdict == "pass"
    assert check_r111(closure("B3")).verdict == "pass"
    reducible = single_object_graph(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert check_r111(reducible).verdict == "skipped"


def test_bound7_pinned_minima():
    assert check_bound7(closure("A3")).stats["min_cartan_entry"] == -1
    assert check_bound7(closure("B3")).stats["min_cartan_entry"] == -2
    assert check_bound7(closure("C3")).stats["min_cartan_entry"] == -2


def test_b128_pinned_maxima():
    assert check_b128(closure("A3")).stats["max_localization_size"] == 3
    assert check_b128(closure("B3")).stats["max_localization_size"] == 4
    assert check_b128(closure("C3")).stats["max_localization_size"] == 4


def test_vol2_pinned():
    assert check_vol2_bound(closure("A3")).stats["max_vol2"] == 1
    assert check_vol2_bound(closure("B3")).stats["max_vol2"] == 2


def test_compute_k0_preconditions():
    G = closure("A3")  # all localizations have at most 3 positive roots
    with pytest.raises(PreconditionFailedError):
        compute_k0(G, 0, (0, 1, 2))


@pytest.mark.parametrize("ordering", [(0, 0, 1), (5, 1, 2), (0, 1), (0, 1, 2, 3)])
def test_compute_k0_rejects_an_ordering_that_is_no_permutation(ordering):
    with pytest.raises(ValueError, match="is not a permutation of"):
        compute_k0(closure("B3"), 0, ordering)


@pytest.mark.parametrize("name", ["A2", "A4"])
def test_compute_k0_rejects_a_closure_of_another_rank(name):
    with pytest.raises(ValueError, match="k0 needs a rank-3 closure"):
        compute_k0(closure(name), 0, (0, 1, 2))


def k0_matches_the_lookup(G):
    for oi in range(len(G.objects)):
        for ordering in permutations(range(3)):
            try:
                expected = compute_k0_lookup(G, oi, ordering)
            except PreconditionFailedError:
                with pytest.raises(PreconditionFailedError):
                    compute_k0(G, oi, ordering)
                continue
            assert compute_k0(G, oi, ordering) == expected, (oi, ordering)


def test_compute_k0_matches_the_lookup_on_closures():
    for name, G in closure_corpus():
        if G.rank == 3:
            k0_matches_the_lookup(G)


def test_compute_k0_trivial_case():
    # an object containing (0,2,1) with a 5-root plane gives k0 = 0
    G = single_object_graph(3, [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (1, 2, 0), (2, 3, 0), (0, 2, 1),
    ])
    assert compute_k0(G, 0, (0, 1, 2)) == 0


K0_FAILURE = """
from cryarr.groupoid import GroupoidGraph, make_root_object
from cryarr.verifier import check_k0

O = make_root_object(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                         (1, 1, 0), (1, 2, 0), (2, 3, 0)])
rep = check_k0(GroupoidGraph(rank=3, objects=(O,), edges={}))
print(rep.verdict, len(rep.witnesses))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_check_k0_fails_without_k0_root(flags):
    # the <a0, a1> plane has 5 roots but no k*a_i + 2*a_j + a_2 root exists
    # for either ordering of the pair; python -O must not hide the failure
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, *flags, "-c", K0_FAILURE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["fail", "2"]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("name", ["noncrystallographic-2.6", "A3-222"])
def test_verify_rejects_non_integral_documents(name, flags, tmp_path):
    # both first fail past the base chamber, noncrystallographic-2.6 at
    # chamber 1 and A3-222 at chamber 4, where only the lattice test of the
    # crossing that builds the chamber finds them; python -O must print the
    # pinned report and exit 1 all the same
    doc = arrangement_documents().get(name) or document_of(cat.get(name))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, *flags, "-m", "cryarr.cli", "verify", str(path)],
                         env=env, capture_output=True, text=True)
    expected = (GOLDEN / f"verify_{name}.json").read_text(encoding="utf-8")
    assert (out.returncode, out.stdout) == (1, expected)
    assert json.loads(out.stdout)["reason"] == "non-integral root coordinates"


def test_no_assert_statement_in_src():
    # an assert vanishes under python -O, so no check may rest on one
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "cryarr").glob("*.py"))
    assert len(paths) > 1
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_lemcon_hypothesis_failure():
    G = closure("A3")
    with pytest.raises(HypothesisFailedError):
        check_lemcon(G, 0, (0, 0, 1), (1, 1, 0), 2)  # (2,2,1) is not a root
    with pytest.raises(HypothesisFailedError):
        check_lemcon(G, 0, (0, 0, 1), (0, 1, 0), 1)  # k >= 2 violated


def test_lemcon_sweep_catalog():
    for name in ("A3", "B3", "C3"):
        rep = lemcon_sweep(closure(name))
        assert rep.verdict == "pass"


def test_lemcon_sweep_hands_lemcon_only_its_hypotheses(monkeypatch):
    # the sweep tests the five hypotheses itself and hands the conclusion
    # step only the triples that meet them, as many as the triple loop finds
    closures = [closure(e.name) for e in cat.entries() if e.crystallographic]
    expected = sum(lemcon_sweep_triple_loop(G).stats["triples_checked"] for G in closures)
    seen = []
    conclusion = verifier._lemcon_conclusion

    def recording(full, alpha, beta, k, min_entry):
        seen.append((full, alpha, beta, k))
        return conclusion(full, alpha, beta, k, min_entry)

    monkeypatch.setattr(verifier, "_lemcon_conclusion", recording)
    for G in closures:
        lemcon_sweep(G)
    assert len(seen) == expected > 0
    for signed, alpha, beta, k in seen:
        roots = {v for v in signed if min(v) >= 0}
        top = max(max(v) for v in roots)
        assert k >= 2, (alpha, beta, k)
        assert alpha in roots, (alpha, beta, k)
        assert tuple(a + k * b for a, b in zip(alpha, beta)) in signed, (alpha, beta, k)
        assert vol(2, [alpha, beta]) == 1, (alpha, beta, k)
        assert no_negative_ray_box(alpha, beta, top + 1), (alpha, beta, k)


def test_convexity_statements():
    for name in ("A3", "B3"):
        assert check_convexity_statements(closure(name)).verdict == "pass"


def test_plane_roots_check():
    for name in ("A3", "B3", "C3"):
        assert check_plane_roots(closure(name)).verdict == "pass"


def test_closure_checks_match_their_slow_paths():
    # the edge walk against the walk that reflects every object again, and
    # the convexity and sweep kernels against their slow paths, on closures
    verdicts = set()
    for name, G in closure_corpus():
        rep = check_plane_roots(G)
        assert rep.to_dict() == check_plane_roots_reflecting(G).to_dict(), name
        verdicts.add(rep.verdict)
        assert (check_convexity_statements(G).to_dict()
                == convexity_statements_vol3(G).to_dict()), name
        assert lemcon_sweep(G).to_dict() == lemcon_sweep_triple_loop(G).to_dict(), name
    assert {"pass", "fail"} <= verdicts


@settings(max_examples=500, deadline=None)
@given(base=small_objects(ranks=(3,)))
def test_plane_roots_check_matches_the_reflecting_walk_on_random_closures(base):
    # objects that are not root systems: witnesses of every kind but
    # "gamma_2 closed form" and "consecutive zero d" occur
    try:
        G = traverse(base, max_objects=30)
    except (NotClosedError, ClosureOverflowError):
        return
    assert check_plane_roots(G).to_dict() == check_plane_roots_reflecting(G).to_dict()
    # the edge with label i maps the roots of each plane through i one to
    # one onto those of the next object's plane, so n is constant along a walk
    for (oi, i), oj in G.edges.items():
        for j in range(3):
            if j != i:
                assert len(G.objects[oi].planes[i, j]) == len(G.objects[oj].planes[i, j])


def pair_checks_match_their_slow_paths(G):
    assert check_sum_of_roots(G).to_dict() == sum_of_roots_every_pair(G).to_dict()
    assert check_vol2_bound(G).to_dict() == vol2_bound_every_pair(G).to_dict()


def test_pair_checks_match_their_slow_paths_on_closures():
    # the sum-of-roots and Vol_2 checks read the pair table; their old pair
    # loops walk every pair themselves
    for name, G in closure_corpus():
        pair_checks_match_their_slow_paths(G)


def test_walk_without_its_edges_is_a_broken_cycle():
    # a graph that is not a closure lacks the walk's edges: a CycleBrokenError
    # witness, not a KeyError
    G = single_object_graph(3, cat.get("A3").positive_roots)
    with pytest.raises(CycleBrokenError):
        rank2_cycles(G, 0, 0, 1)
    with pytest.raises(CycleBrokenError):
        plane_roots(G, 0, 0, 1)
    rep = check_plane_roots(G)
    assert rep.verdict == "fail" and len(rep.witnesses) == 6
    assert all(w[2].startswith("CycleBrokenError") for w in rep.witnesses)


def test_plane_roots_check_names_the_missing_end():
    # a localization without an end simple root reports that end, in
    # permuted coordinates, and an empty one is a witness, not an IndexError
    G = traverse(RootObject(3, frozenset({(0, 0, 1), (1, 1, 0)})), 30)
    with pytest.raises(MissingRootError) as e:
        plane_roots(G, 0, 0, 1)
    assert e.value.vector == (0, 1, 0)
    with pytest.raises(MissingRootError) as e:
        plane_roots(G, 0, 0, 2)
    assert e.value.vector == (1, 0, 0)
    rep = check_plane_roots(G)
    assert rep.witnesses[:2] == [
        (0, (0, 1), "MissingRootError: expected root (0, 1, 0) is missing"),
        (0, (0, 2), "MissingRootError: expected root (1, 0, 0) is missing")]
    assert rep.to_dict() == check_plane_roots_reflecting(G).to_dict()
    G = traverse(RootObject(3, frozenset({(0, 0, 1)})), 30)
    assert G.objects[0].planes[0, 1] == ()
    rep = next(r for r in run_all(G) if r.check == "plane_roots")
    assert rep.witnesses[0] == (0, (0, 1), "MissingRootError: expected root (0, 1, 0) is missing")
    assert rep.to_dict() == check_plane_roots_reflecting(G).to_dict()


def test_plane_roots_check_walks_each_pair_once(monkeypatch):
    # every end root is present on these closures, so each object and
    # ordered pair (i, j) walks its own cycle, from first label j, once
    walks = []
    walk = localization.walk_cycle

    def counting(*args):
        walks.append(args)
        return walk(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("cryarr.") and getattr(module, "walk_cycle", None) is walk:
            monkeypatch.setattr(module, "walk_cycle", counting)
    closures = [closure(e.name) for e in cat.entries() if e.crystallographic and e.rank == 3]
    closures += [G for _, G in weyl_restriction_closures()]
    total = 0
    for G in closures:
        walks.clear()
        assert check_plane_roots(G).verdict == "pass"
        assert walks == [(G, oi, j, i, len(O.planes[i, j]))
                         for oi, O in enumerate(G.objects)
                         for i, j in permutations(range(3), 2)]
        total += len(walks)
    assert total == 714


def test_plane_roots_report_a_missing_gamma_before_a_missing_delta():
    # every edge of the one object leads back to it, so each walk closes;
    # at the pair (0, 2) gamma (1, 1, 1) and delta (2, 3, 1) are missing,
    # and at (2, 0) gamma (3, 2, 1) and delta (1, 1, 1)
    O = RootObject(3, frozenset(simple_roots(3) + ((0, 1, 1), (2, 0, 3))))
    G = GroupoidGraph(rank=3, objects=(O,), edges={(0, label): 0 for label in range(3)})
    with pytest.raises(MissingRootError) as e:
        plane_roots(G, 0, 0, 2)
    assert e.value.vector == (1, 1, 1)
    witnesses = [w for w in check_plane_roots(G).witnesses if w[2].startswith("Missing")]
    assert witnesses == [
        (0, (0, 2), "MissingRootError: expected root (1, 1, 1) is missing"),
        (0, (2, 0), "MissingRootError: expected root (3, 2, 1) is missing")]


def test_plane_roots_check_walks_a_state_whose_plane_size_differs():
    # on a closure built by ``traverse`` n is constant along a walk; on a
    # graph whose edges are not reflections it need not be.  The walk from
    # object 0 with first label 1 closes with n = 2 and passes object 1,
    # whose plane (0, 1) has 3 roots: the walk from object 1 with first
    # label 0 takes 6 steps and its quiddity is not 3-periodic
    objects = (RootObject(3, frozenset(simple_roots(3))),
               RootObject(3, frozenset(simple_roots(3) + ((1, 1, 0),))))
    G = GroupoidGraph(rank=3, objects=objects, edges={(0, 1): 1, (1, 0): 0})
    assert [len(O.planes[0, 1]) for O in objects] == [2, 3]
    rep = check_plane_roots(G)
    assert (1, (1, 0), "CycleBrokenError: quiddity cycle is not n-periodic") in rep.witnesses
    assert not any(w[:2] == (0, (0, 1)) for w in rep.witnesses)
    assert rep.to_dict() == check_plane_roots_per_pair(G).to_dict()


@st.composite
def random_graphs(draw):
    """A rank-3 ``GroupoidGraph`` of 1 to 4 ``small_objects``, which may lack
    a simple root, whose edges go to arbitrary objects or are missing."""
    objects = tuple(draw(st.lists(small_objects(ranks=(3,)), min_size=1, max_size=4)))
    target = st.none() | st.integers(0, len(objects) - 1)
    edges = {}
    for oi in range(len(objects)):
        for label in range(3):
            oj = draw(target)
            if oj is not None:
                edges[oi, label] = oj
    return GroupoidGraph(rank=3, objects=objects, edges=edges)


@settings(max_examples=500, deadline=None)
@given(G=random_graphs())
def test_plane_roots_check_matches_plane_roots_on_random_graphs(G):
    # no closure: walks break, fail to return, change n on the way or
    # close with a quiddity that is not n-periodic
    assert check_plane_roots(G).to_dict() == check_plane_roots_per_pair(G).to_dict()


@settings(max_examples=500, deadline=None)
@given(G=random_graphs())
def test_plane_roots_check_matches_the_definition_on_random_graphs(G):
    # the oracle sorts, tests the ends, walks the edges and tests gamma
    # before delta itself, with no routine of ``localization``
    assert check_plane_roots(G).to_dict() == check_plane_roots_from_definition(G).to_dict()


def test_plane_roots_check_matches_the_definition_on_the_corpus():
    failing = 0
    for name, G in closure_corpus():
        report = check_plane_roots(G)
        assert report.to_dict() == check_plane_roots_from_definition(G).to_dict(), name
        failing += not report.ok
    assert failing == 33


def test_run_all_passes_on_every_weyl_restriction():
    closures = weyl_restriction_closures()
    sizes = sorted(len(G.objects[0].positive_roots) for _, G in closures)
    assert sizes == [6, 7, 8, 9, 9, 10, 10, 11, 13, 13, 13, 13, 16, 17, 17, 19, 19]
    assert sum(len(G.objects) for _, G in closures) == 116
    for name, G in closures:
        reports = run_all(G)
        assert all_ok(reports), (name, [r.check for r in reports if not r.ok])


def test_every_weyl_restriction_verifies_to_its_closure():
    # the geometric path reproduces each restriction's integer closure
    for name, G in weyl_restriction_closures():
        res = verify_crystallographic(make_root_set(sorted(G.objects[0].positive_roots), rank=3))
        assert res.ok, (name, res.reason)
        assert res.base_object.positive_roots == G.objects[0].positive_roots, name
        assert canonical_form(res.graph) == canonical_form(G), name


def test_run_all_passes_on_catalog():
    for e in cat.entries():
        if not e.crystallographic:
            continue
        reports = run_all(closure(e.name))
        assert all_ok(reports), [r.check for r in reports if not r.ok]


def count_table_builds(monkeypatch, name):
    """Replace the cached table ``RootObject.<name>`` by one that counts its
    builds per object (by id); returns the counter."""
    builds = Counter()
    table = getattr(RootObject, name)

    def counting_table(O):
        builds[id(O)] += 1
        return table.func(O)

    prop = cached_property(counting_table)
    prop.__set_name__(RootObject, name)
    monkeypatch.setattr(RootObject, name, prop)
    return builds


def test_run_all_builds_each_plane_table_once(monkeypatch):
    # over the catalog and Weyl-restriction closures, walked afresh, the
    # Cartan matrices that traverse reads build no plane table; run_all
    # builds one at each rank-3 orbit representative, by one localize call
    # per coordinate pair, the first time b128, k0, convexity (c) or a plane
    # walk reads it, and none elsewhere; Vol_2 comes from vol2, with no vol
    # call.  The search builds no plane table: its localize calls are its
    # own plane test
    graphs = ([closure(e.name) for e in cat.entries() if e.crystallographic]
              + [G for _, G in weyl_restriction_closures()])
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name, fn in (("vol", linalg.vol), ("localize", localization.localize)):
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("cryarr.") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    builds = count_table_builds(monkeypatch, "planes")
    assert search.enumerate_rank3(9).verdict == search.COMPLETE
    assert builds == Counter()
    calls.clear()
    closures = [traverse(RootObject(G.rank, G.objects[0].positive_roots), max_objects=len(G.objects))
                for G in graphs]
    assert builds == calls == Counter()
    for G in closures:
        assert all_ok(run_all(G))
    representatives = [G.objects[oi] for G in closures if G.rank == 3 for oi, _ in G.orbits]
    assert builds == Counter({id(O): 1 for O in representatives})
    assert calls == Counter({"localize": 3 * len(representatives)})
    # 97 orbit representatives among the 119 rank-3 objects
    assert (len(representatives), calls["localize"]) == (97, 97 * 3)


def test_run_all_builds_each_pair_table_once(monkeypatch):
    # run_all reads the pairs of positive roots from one table per orbit
    # representative, built the first time a check reads it; the search
    # never builds one
    closures = [traverse(RootObject(G.rank, G.objects[0].positive_roots),
                         max_objects=len(G.objects))
                for G in [closure(e.name) for e in cat.entries() if e.crystallographic]
                + [G for _, G in weyl_restriction_closures()]]
    builds = count_table_builds(monkeypatch, "pair_table")
    assert search.enumerate_rank3(9).verdict == search.COMPLETE
    assert builds == Counter()
    for G in closures:
        assert all_ok(run_all(G))
    # the suite passes, so it visits one object of each symmetry orbit only
    assert builds == Counter({id(G.objects[oi]): 1 for G in closures for oi, _ in G.orbits})
    assert (len(builds), sum(len(G.objects) for G in closures)) == (107, 20 + 116)


def assert_fast_paths_match(G):
    reports = run_all(G)
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in run_all_every_object(G)]
    assert canonical_form(G) == canonical_form_every_object(G)
    return reports


def test_run_all_matches_the_every_object_suite_on_the_corpus():
    # 17 of the 33 failing closures have an orbit of more than one object,
    # so their witnesses come from the run over every object
    failing = []
    for name, G in closure_corpus():
        if not all_ok(assert_fast_paths_match(G)):
            failing.append(len(G.orbits) < len(G.objects))
    assert (len(failing), sum(failing)) == (33, 17)


PER_OBJECT_CHECKS = ("check_sum_of_roots", "check_bound7", "check_b128", "check_k0",
                     "check_vol2_bound", "check_convexity_statements",
                     "check_plane_roots", "lemcon_sweep")


def test_run_all_runs_again_only_the_checks_with_witnesses(monkeypatch):
    # on a failing closure with an orbit of more than one object, a check
    # whose report has a witness runs on the orbits and then on every
    # object; every other check runs once, on the orbits
    graphs = [G for _, G in closure_corpus()
              if len(G.orbits) < len(G.objects) and not all_ok(run_all_every_object(G))]
    expected = [{name: [G.orbits, None] if getattr(verifier, name)(G).witnesses else [G.orbits]
                 for name in PER_OBJECT_CHECKS} for G in graphs]
    calls = {}
    for name in PER_OBJECT_CHECKS:
        def recording(G, orbits=None, name=name, check=getattr(verifier, name)):
            calls.setdefault(name, []).append(orbits)
            return check(G, orbits)
        monkeypatch.setattr(verifier, name, recording)
    seen = []
    for G in graphs:
        calls.clear()
        run_all(G)
        seen.append(dict(calls))
    assert seen == expected
    # k0 and plane_roots have witnesses on each of the 17 closures
    assert Counter(len(c) for e in expected for c in e.values()) == Counter({1: 6 * 17, 2: 2 * 17})


@st.composite
def symmetric_bases(draw):
    """A ``small_objects`` base, or one made symmetric under a transposition
    of two coordinates: each root and its image, as primitive vectors, so
    that no two are parallel."""
    base = draw(small_objects())
    if draw(st.booleans()):
        s, t = draw(st.lists(st.integers(0, base.rank - 1), min_size=2, max_size=2,
                             unique=True))
        roots = set()
        for v in base.positive_roots:
            w = list(v)
            w[s], w[t] = w[t], w[s]
            roots |= {direction(v), direction(tuple(w))}
        base = RootObject(base.rank, frozenset(roots))
    return base


@settings(max_examples=300, deadline=None)
@given(base=symmetric_bases())
def test_run_all_matches_the_every_object_suite_on_random_closures(base):
    try:
        G = traverse(base, max_objects=30)
    except (NotClosedError, ClosureOverflowError):
        return
    assert_fast_paths_match(G)


def moved_objects(G):
    """The indices of the objects that some symmetry of G moves."""
    index = {O.positive_roots: oi for oi, O in enumerate(G.objects)}
    return sorted({oi for oi, O in enumerate(G.objects) for perm in G.symmetries
                   if index[permute_object(O, perm).positive_roots] != oi})


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_run_all_matches_the_every_object_suite_when_edges_break_the_symmetry(data):
    # a corpus closure with one edge at a moved object sent elsewhere or
    # removed: a symmetry that moves the object no longer maps the edges
    name, G = data.draw(st.sampled_from([(name, G) for name, G in closure_corpus()
                                         if len(G.orbits) < len(G.objects)]))
    oi = data.draw(st.sampled_from(moved_objects(G)))
    key = oi, data.draw(st.integers(0, G.rank - 1))
    edges = dict(G.edges)
    target = data.draw(st.none() | st.integers(0, len(G.objects) - 1).filter(
        lambda j: j != edges[key]))
    if target is None:
        del edges[key]
    else:
        edges[key] = target
    H = GroupoidGraph(rank=G.rank, objects=G.objects, edges=edges)
    assert set(H.symmetries) != set(G.symmetries)
    assert (H.symmetries, H.orbits) == (symmetries_from_definition(H), orbits_from_definition(H))
    assert_fast_paths_match(H)


def test_checks_do_not_depend_on_the_labelling():
    # every check visits every object here; the closure of a relabelled
    # base has the same verdicts and stats
    def summary(G):
        return [(r.check, r.verdict, r.stats) for r in run_all_every_object(G)]

    closures = 0
    for name, G in closure_corpus():
        expected = summary(G)
        base = G.objects[0]
        for perm in permutations(range(G.rank)):
            H = traverse(permute_object(base, perm), max_objects=len(G.objects))
            assert summary(H) == expected, (name, perm)
        closures += 1
    assert closures == 66


def test_reports_are_deterministic_and_serializable():
    G = closure("B3")
    a = [r.to_dict() for r in run_all(G)]
    b = [r.to_dict() for r in run_all(G)]
    assert a == b
    json.dumps(a)


def test_pigeonhole():
    for name in ("A3", "B3", "C3", "D4", "A4"):
        G = closure(name)
        from cryarr.verifier import check_pigeonhole

        max_vol2 = check_vol2_bound(G).stats["max_vol2"]
        assert check_pigeonhole(G, max_vol2).verdict == "pass"


@st.composite
def single_object_graphs(draw, ranks=(2, 3)):
    """An object of one of the ``ranks``: the simple roots plus up to 12
    random vectors in {0..4}^r, one per direction.  Most are not root
    systems, so failing reports with many witnesses are common."""
    rank = draw(st.sampled_from(ranks))
    extra = draw(st.lists(st.tuples(*[st.integers(0, 4)] * rank), max_size=12))
    roots = {}
    for v in simple_roots(rank) + tuple(extra):
        if any(v):
            roots.setdefault(direction(v), v)
    return single_object_graph(rank, roots.values())


@settings(max_examples=500, deadline=None)
@given(G=single_object_graphs(ranks=(3,)),
       plane=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6))
def test_compute_k0_matches_the_lookup(G, plane):
    # extra roots on the plane <a_0, a_1> meet the precondition of the
    # orderings (0, 1, 2) and (1, 0, 2) more often
    roots = {direction(v): v for v in G.objects[0].positive_roots}
    for x, y in plane:
        if x or y:
            roots.setdefault(direction((x, y, 0)), (x, y, 0))
    k0_matches_the_lookup(single_object_graph(3, roots.values()))


@settings(max_examples=400, deadline=None)
@given(G=single_object_graphs())
def test_sweep_and_convexity_match_their_slow_paths(G):
    assert lemcon_sweep(G).to_dict() == lemcon_sweep_triple_loop(G).to_dict()
    assert (check_convexity_statements(G).to_dict()
            == convexity_statements_vol3(G).to_dict())


def test_convexity_b_witnesses_come_in_the_order_of_the_simple_pairs():
    # (1,1,2) fails (b) at (e_2, e_1) and (e_2, e_0), (2,1,0) at (e_2, e_0)
    # and (1,2,1) at (e_2, e_1) and (e_1, e_0): the witnesses come pair by
    # pair, and within a pair in the object's iteration order
    G = single_object_graph(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                (1, 1, 2), (2, 1, 0), (1, 2, 1)])
    report = check_convexity_statements(G)
    assert report.to_dict() == convexity_statements_vol3(G).to_dict()
    b = [w[2] for w in report.witnesses if w[1] == "b"]
    e0, e1, e2 = simple_roots(3)
    roots = list(G.objects[0].positive_roots)
    expected = [(e2, e1, a) for a in roots if a in ((1, 1, 2), (1, 2, 1))]
    expected += [(e2, e0, a) for a in roots if a in ((1, 1, 2), (2, 1, 0))]
    expected += [(e1, e0, a) for a in roots if a == (1, 2, 1)]
    assert b == expected


@settings(max_examples=300, deadline=None)
@given(G=single_object_graphs(ranks=(1, 2, 3, 4)))
def test_sweep_matches_the_triple_loop_in_every_rank(G):
    assert lemcon_sweep(G).to_dict() == lemcon_sweep_triple_loop(G).to_dict()


@settings(max_examples=300, deadline=None)
@given(G=single_object_graphs(ranks=(1, 2, 3, 4)))
def test_pair_checks_match_their_slow_paths_in_every_rank(G):
    pair_checks_match_their_slow_paths(G)


def lemcon_instances(G):
    """(alpha, beta, k) for every alpha in R+ and gamma in +-R of G's first
    object that meet the five hypotheses of ``check_lemcon``, with
    k = gcd(gamma - alpha) and beta = (gamma - alpha)/k, a root or not."""
    roots = G.objects[0].positive_roots
    top = max(max(v) for v in roots)
    for alpha in sorted(roots):
        for gamma in sorted(verifier._signed(roots)):
            d = [g - a for g, a in zip(gamma, alpha)]
            k = gcd(*d)
            if k < 2:
                continue
            beta = tuple(x // k for x in d)
            if vol(2, [alpha, beta]) == 1 and no_negative_ray_box(alpha, beta, top + 1):
                yield alpha, beta, k


@settings(max_examples=400, deadline=None)
@given(G=single_object_graphs(ranks=(2, 3, 4)))
def test_lemcon_matches_the_every_term_conclusion(G):
    # check_lemcon tests only the inner terms of the string
    full = verifier._signed(G.objects[0].positive_roots)
    min_entry = min(min(row) for row in G.objects[0].cartan)
    for alpha, beta, k in lemcon_instances(G):
        assert (check_lemcon(G, 0, alpha, beta, k).witnesses
                == lemcon_conclusion_every_term(full, alpha, beta, k, min_entry))


def test_lemcon_reports_the_missing_inner_terms():
    G = single_object_graph(2, [(1, 0), (0, 1), (1, 3)])
    rep = check_lemcon(G, 0, (1, 0), (0, 1), 3)
    assert rep.witnesses == [("missing intermediate", (1, 1)), ("missing intermediate", (1, 2))]


def test_lemcon_sweep_reports_a_beta_that_is_not_a_root():
    # gamma = (1,2,2) = alpha + 2*beta for alpha = (1,0,0) and
    # beta = (0,1,1), which is no root, with Vol_2(alpha, beta) = 1: the
    # sweep tests the candidate and reports beta, from either end
    G = single_object_graph(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 2)])
    rep = lemcon_sweep(G)
    assert rep.witnesses == [
        (0, alpha, beta, 2, [("beta not a root", beta),
                             ("missing intermediate", (1, 1, 1)),
                             ("no Cartan entry <= -k", 0)])
        for alpha, beta in (((1, 0, 0), (0, 1, 1)), ((1, 2, 2), (0, -1, -1)))]
    assert rep.stats == {"triples_checked": 2}


def negative_gamma_candidates(G):
    """(alpha, beta, top) for every alpha in R+ and gamma in -R+ of an object
    with k = gcd(gamma - alpha) >= 2 and beta = (gamma - alpha)/k, a root
    or not, where top is the object's largest coordinate."""
    for O in G.objects:
        roots = O.positive_roots
        top = max(max(v) for v in roots)
        for alpha in roots:
            for gamma in roots:
                d = [-g - a for g, a in zip(gamma, alpha)]
                k = gcd(*d)
                if k >= 2:
                    yield alpha, tuple(x // k for x in d), top


def test_negative_gamma_candidates_meet_a_negative_ray_on_closures():
    # the sweep walks only positive gamma: every candidate from a negative
    # gamma has a point of -N*alpha + Z*beta in N_0^r inside the box
    count = 0
    for name, G in closure_corpus():
        for alpha, beta, top in negative_gamma_candidates(G):
            assert not _no_negative_ray(alpha, beta), (name, alpha, beta)
            assert not no_negative_ray_box(alpha, beta, top + 1), (name, alpha, beta)
            count += 1
    assert count > 0


@settings(max_examples=400, deadline=None)
@given(G=single_object_graphs())
def test_negative_gamma_candidates_meet_a_negative_ray(G):
    for alpha, beta, top in negative_gamma_candidates(G):
        assert not _no_negative_ray(alpha, beta), (alpha, beta)
        assert not no_negative_ray_box(alpha, beta, top + 1), (alpha, beta)


@settings(max_examples=1000, deadline=None)
@given(data=st.data(), rank=st.integers(1, 4), bound=st.integers(6, 12))
def test_no_negative_ray_matches_the_box_loop(data, rank, bound):
    # a box of bound at least the largest |entry| holds a point of every ray
    # that meets N_0^r, so on entries in [-6, 6] the box test is exact
    vectors = st.tuples(*[st.integers(-6, 6)] * rank)
    alpha, beta = data.draw(vectors), data.draw(vectors)
    assert _no_negative_ray(alpha, beta) == no_negative_ray_box(alpha, beta, bound)


def test_no_negative_ray_meets_outside_a_small_box():
    # -a*(4, -4) + b*(5, -5) >= 0 asks 5b = 4a: the first point is
    # (a, b) = (5, 4), outside the box of bound 4
    alpha, beta = (4, -4), (5, -5)
    assert not _no_negative_ray(alpha, beta)
    assert no_negative_ray_box(alpha, beta, 4)
    assert not no_negative_ray_box(alpha, beta, 5)
