"""Acceptance suite: ten criteria, one test each, one printed line each.

Every comparison is exact (integer / rational arithmetic); the printed
summary lines are repeated at the end of the pytest run."""

import random
from fractions import Fraction
from itertools import permutations

from cryarr import catalog as cat
from cryarr.geometry import chamber_graph, make_root_set
from cryarr.groupoid import (
    canonical_form_of_rootset,
    reflect_object,
    verify_crystallographic,
)
from cryarr.rank2 import (
    catalan,
    enumerate_esequences,
    enumerate_quiddity_cycles,
    frieze_product,
    is_crystallographic_rank2,
    quiddity_of,
)
from cryarr.search import enumerate_rank3
from cryarr.verifier import (
    all_ok,
    check_b128,
    check_bound7,
    check_plane_roots,
    check_r111,
    check_sum_of_roots,
    check_vol2_bound,
    lemcon_sweep,
    run_all,
)
from conftest import record_acceptance
from oracles import catalan_binomial, count_chambers, primitive_hyperplanes


def check(number, label, ok):
    record_acceptance(number, label, ok)
    assert ok, f"criterion {number} ({label}) failed"


def closure(name):
    return verify_crystallographic(cat.root_set_of(cat.get(name))).graph


def test_criterion_1_cartan_fixture():
    res = verify_crystallographic(make_root_set([(1, 0), (0, 1), (1, 2)]))
    ok = (not res.ok) and res.base_cartan == (
        (2, Fraction(-1, 2)), (-2, 2))
    check(1, "Example fixture: Cartan [[2,-1/2],[-2,2]], not crystallographic", ok)


def test_criterion_2_seven_root_example():
    res = verify_crystallographic(cat.root_set_of(cat.get("rank2-7")))
    ok1, seq = is_crystallographic_rank2(cat.SEVEN_ROOTS)
    ok = res.ok and ok1 and quiddity_of(seq)[1:-1] == (3, 2, 1, 4, 1)
    check(2, "7-root rank-2 example: crystallographic, quiddity (3,2,1,4,1)", ok)


def test_criterion_3_catalan_counts():
    expected = (1, 1, 2, 5, 14, 42, 132, 429, 1430)
    ok = all(
        len(enumerate_esequences(n)) == expected[n - 2]
        == catalan(n - 2) == catalan_binomial(n - 2)
        for n in range(2, 11)
    )
    check(3, "sequence counts = Catalan C_{n-2} for n = 2..10", ok)


def test_criterion_4_frieze_property():
    ok = all(
        frieze_product(c) == ((-1, 0), (0, -1))
        for n in range(2, 9)
        for c in enumerate_quiddity_cycles(n)
    )
    check(4, "frieze product is -Identity for all quiddity cycles, n <= 8", ok)


def test_criterion_5_catalog_weyl_suite():
    expected = {"A3": 24, "A4": 120, "B3": 48, "C3": 48, "D4": 192}
    ok = True
    for name, chambers in expected.items():
        e = cat.get(name)
        res = verify_crystallographic(cat.root_set_of(e))
        ok = ok and res.ok and res.chamber_count == chambers
        ok = ok and count_chambers(e.positive_roots, e.rank) == chambers
        classical = res.base_object.cartan
        r = e.rank
        for O in res.graph.objects:
            c = O.cartan
            ok = ok and any(
                all(c[p[i]][p[j]] == classical[i][j]
                    for i in range(r) for j in range(r))
                for p in permutations(range(r))
            )
    check(5, "Weyl catalog: verification, chamber oracle, classical Cartans", ok)


def test_criterion_6_theorem_suite():
    pins_min = {"A3": -1, "B3": -2, "C3": -2}
    pins_loc = {"A3": 3, "B3": 4, "C3": 4}
    ok = True
    for e in cat.entries():
        if not e.crystallographic:
            continue
        G = closure(e.name)
        ok = ok and check_sum_of_roots(G).ok
        ok = ok and check_r111(G).verdict != "fail"
        b7 = check_bound7(G)
        ok = ok and b7.ok and b7.stats["min_cartan_entry"] >= -7
        if e.name in pins_min:
            ok = ok and b7.stats["min_cartan_entry"] == pins_min[e.name]
        b128 = check_b128(G)
        ok = ok and b128.verdict != "fail"
        if e.name in pins_loc:
            ok = ok and b128.stats["max_localization_size"] == pins_loc[e.name]
        ok = ok and check_vol2_bound(G).ok
        ok = ok and check_plane_roots(G).verdict != "fail"
    check(6, "theorem suite with pinned extrema on all catalog entries", ok)


def test_criterion_7_root_string_sweep():
    ok = all(lemcon_sweep(closure(n)).ok for n in ("A3", "B3", "C3"))
    check(7, "root-string convexity sweep over all rank-3 catalog objects", ok)


def test_criterion_8_search():
    a3 = canonical_form_of_rootset(cat.root_set_of(cat.get("A3")))
    b3 = canonical_form_of_rootset(cat.root_set_of(cat.get("B3")))
    c3 = canonical_form_of_rootset(cat.root_set_of(cat.get("C3")))
    r6 = enumerate_rank3(6, budget=10 ** 7)
    ok = r6.verdict == "Complete" and r6.canonical_forms == (a3,)
    r9 = enumerate_rank3(9, budget=10 ** 7)
    ok = ok and r9.verdict == "Complete"
    ok = ok and {a3, b3, c3} <= set(r9.canonical_forms)
    ok = ok and len({a3, b3, c3}) == 3
    for roots in r9.arrangements:
        res = verify_crystallographic(make_root_set(roots, rank=3))
        ok = ok and res.ok and all_ok(run_all(res.graph))
    check(8, "search: cap 6 = {A3}; cap 9 sound, Complete, contains A3/B3/C3", ok)


def test_criterion_9_involution_properties():
    rng = random.Random(20240819)
    pool = []
    for name in ("A3", "B3", "C3", "rank2-7", "D4", "A4"):
        G = closure(name)
        n = len(G.objects[0].positive_roots)
        for O in G.objects:
            pool.append((O, n))
    ok = True
    for _ in range(1000):
        O, n = rng.choice(pool)
        i = rng.randrange(O.rank)
        once = reflect_object(O, i)
        twice = reflect_object(once, i)
        ok = ok and twice.positive_roots == O.positive_roots
        ok = ok and len(once.positive_roots) == n
    check(9, "1000 random reflections: involutive, root count invariant", ok)


def test_criterion_10_equivalence_discrimination():
    rng = random.Random(31337)
    b3 = cat.root_set_of(cat.get("B3"))
    c3 = cat.root_set_of(cat.get("C3"))
    fb3, fc3 = canonical_form_of_rootset(b3), canonical_form_of_rootset(c3)
    ok = fb3 != fc3
    # same hyperplane set after the basis change doubling the last simple root
    c3_mapped = make_root_set(
        [(a, b, 2 * c) for a, b, c in cat.get("C3").positive_roots], rank=3)
    ok = ok and primitive_hyperplanes(b3) == primitive_hyperplanes(c3_mapped)
    ok = ok and len(chamber_graph(b3)[0]) == len(chamber_graph(c3)[0])
    for name, form in (("B3", fb3), ("C3", fc3)):
        roots = list(cat.get(name).positive_roots)
        for _ in range(10):
            perm = rng.sample(range(3), 3)
            permuted = [tuple(v[p] for p in perm) for v in roots]
            R = make_root_set(permuted, rank=3)
            ok = ok and canonical_form_of_rootset(R) == form
    check(10, "canonical forms: B3 != C3, invariant under permutations", ok)
