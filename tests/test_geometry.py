import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cryarr.errors import NonSimplicialError
from cryarr.geometry import (
    Chamber,
    _chamber_rays,
    adjacent_chamber,
    cartan_of_chamber,
    chamber_graph,
    generic_point,
    initial_chamber,
    is_irreducible,
    make_root_set,
    ray_values,
    supports_connected,
)
from cryarr import catalog as cat
from cryarr.groupoid import make_root_object, root_object_of_chamber
from cryarr.linalg import direction, dot, invert, sign_normalize
from oracles import (
    adjacent_chamber_rescan,
    chamber_from_signs_rescan,
    chamber_graph_every_crossing,
    clear_denominators,
    count_chambers,
    make_root_set_fractions,
    melchior_zaslavsky,
    rank3_rays_scan,
    rays_for_signs_scan,
    supports_connected_union_find,
)
from strategies import arrangements, written
from test_search import _inputs

EX26 = [(1, 0), (0, 1), (1, 2)]
SMALL_INTS = st.integers(-2, 2)


def test_make_root_set_rejects_bad_input():
    with pytest.raises(ValueError, match=re.escape("parallel roots (1, 0) and (2, 0)")):
        make_root_set([(1, 0), (2, 0)])  # parallel, different scaling
    with pytest.raises(ValueError, match=re.escape("parallel roots (2,) and (3,)")):
        make_root_set([(2,), (-3,)])
    with pytest.raises(ValueError, match=re.escape("parallel roots (1/2, 1) and (1, 2)")):
        make_root_set([("1/2", 1), (1, 2)])
    with pytest.raises(ValueError):
        make_root_set([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        make_root_set([(1, 0, 0), (0, 1, 0)], rank=3)  # does not span
    # negatives collapse onto their positive representative
    R = make_root_set([(1, 0), (-1, 0), (0, 1)])
    assert len(R.positives) == 2


KINDS = ("none",) * 6 + ("duplicate", "negative", "parallel", "zero")


@st.composite
def root_set_inputs(draw):
    """Covectors of rank 1..4 with int, "p/q" and Fraction coordinates:
    random nonzero rational ones together with exact duplicates, negatives,
    distinct parallel multiples and zero vectors, in a shuffled order."""
    rank = draw(st.integers(1, 4))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    nonzero = st.tuples(*[coord] * rank).filter(any)
    covectors = draw(st.lists(nonzero, min_size=1, max_size=5))
    for cov in list(covectors):
        kind = draw(st.sampled_from(KINDS))
        if kind == "duplicate":
            covectors.append(cov)
        elif kind == "negative":
            covectors.append(tuple(-x for x in cov))
        elif kind == "parallel":
            s = draw(st.sampled_from((2, -2, Fraction(1, 2), Fraction(-3, 2), 3)))
            covectors.append(tuple(s * x for x in cov))
        elif kind == "zero":
            covectors.append((0,) * rank)
    covectors = draw(st.permutations(covectors))
    form = st.sampled_from((written, str, Fraction))
    return [tuple(draw(form)(x) for x in cov) for cov in covectors]


def _root_set_or_message(build, covectors):
    try:
        R = build(covectors)
    except ValueError as e:
        return str(e)
    return R.rank, R.positives, R.denominator


@settings(max_examples=300, deadline=None)
@given(root_set_inputs())
@example([("1/2", 1), (1, 2)])
@example([(0, 0), ("1/3", 0)])
def test_make_root_set_matches_fraction_checks(covectors):
    # scaling to integers before the checks gives the positives, the
    # denominator and every error message of the checks on Fractions
    assert (_root_set_or_message(make_root_set, covectors)
            == _root_set_or_message(make_root_set_fractions, covectors))


def test_make_root_set_scales_to_integers():
    R = make_root_set([(1, 0), (0, 1), ("1", "1/2")])
    assert R.denominator == 2
    assert R.positives == ((0, 2), (2, 0), (2, 1))
    assert all(type(x) is int for cov in R.positives for x in cov)
    R = make_root_set([(Fraction(3), 0), (0, -1)])
    assert (R.denominator, R.positives) == (1, ((0, 1), (3, 0)))


def test_example26_chambers_and_cartan():
    R = make_root_set(EX26)
    chambers, edges = chamber_graph(R)
    assert len(chambers) == 6
    K = initial_chamber(R)
    assert chambers[0] == K
    c = cartan_of_chamber(R, K, [chambers[edges[0, i]] for i in range(2)])
    assert c == ((2, Fraction(-1, 2)), (-2, 2))


def test_wall_crossing_is_involutive():
    R = make_root_set(EX26)
    K = initial_chamber(R)
    for i in range(2):
        Kn = adjacent_chamber(R, K, i)
        assert Kn.signs != K.signs
        back = adjacent_chamber(R, Kn, i)
        assert back == K


def test_chamber_counts_against_sign_oracle():
    for name, dim in (("A2", 2), ("A3", 3)):
        e = cat.get(name)
        R = cat.root_set_of(e)
        assert len(chamber_graph(R)[0]) == count_chambers(e.positive_roots, dim)


def test_a2_chamber_graph_is_hexagon():
    R = cat.root_set_of(cat.get("A2"))
    chambers, edges = chamber_graph(R)
    assert len(chambers) == 6
    # every chamber has two distinct neighbours; the graph is one 6-cycle
    for ci in range(6):
        assert edges[(ci, 0)] != ci and edges[(ci, 1)] != ci
    seen = {0}
    cur, label = 0, 0
    for _ in range(6):
        cur = edges[(cur, label)]
        label = 1 - label
        seen.add(cur)
    assert cur == 0 and len(seen) == 6


def test_non_simplicial_detected():
    R = make_root_set([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], rank=3)
    with pytest.raises(NonSimplicialError):
        chamber_graph(R)


def _outcome(f, *args):
    """A chamber, or the signs and ray count of the NonSimplicialError raised."""
    try:
        return f(*args)
    except NonSimplicialError as e:
        return ("non-simplicial", e.signs, e.ray_count)


def _check_crossings_against_rescan(R):
    """The initial chamber and every wall crossing of every chamber reached,
    against the two-scan oracle; where the new chamber is not simplicial,
    both must raise with the same signs and ray count.  Each chamber's
    root object must equal the validated one.  Returns the outcomes."""
    p = generic_point(R)
    signs = tuple(1 if dot(cov, p) > 0 else -1 for cov in R.positives)
    K0 = _outcome(initial_chamber, R)
    assert K0 == _outcome(chamber_from_signs_rescan, R, signs)
    outcomes = [K0]
    chambers = [K0] if isinstance(K0, Chamber) else []
    seen = {signs}
    for K in chambers:
        obj, _ = root_object_of_chamber(R, K)
        if obj is not None:
            assert obj == make_root_object(R.rank, obj.positive_roots)
        for i in range(R.rank):
            Kn = _outcome(adjacent_chamber, R, K, i)
            assert Kn == _outcome(adjacent_chamber_rescan, R, K, i)
            outcomes.append(Kn)
            if isinstance(Kn, Chamber) and Kn.signs not in seen:
                seen.add(Kn.signs)
                chambers.append(Kn)
    return outcomes


@pytest.mark.parametrize("name", [e.name for e in cat.entries()])
def test_wall_crossing_matches_rescan_on_catalog(name):
    entry = cat.get(name)
    outcomes = _check_crossings_against_rescan(cat.root_set_of(entry))
    assert all(isinstance(K, Chamber) for K in outcomes)
    assert len({K.signs for K in outcomes}) == entry.expected_chambers


def test_wall_crossing_matches_rescan_when_not_simplicial():
    R = make_root_set([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], rank=3)
    outcomes = _check_crossings_against_rescan(R)
    assert isinstance(outcomes[0], Chamber)
    assert ("non-simplicial", (-1, 1, 1, 1), 4) in outcomes


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 4)).flatmap(arrangements))
@example([(0, 1), (1, -1)])  # the sign table lists the rays out of frame order
def test_wall_crossing_matches_rescan(covectors):
    try:
        R = make_root_set(covectors)
    except ValueError:
        assume(False)
    _check_crossings_against_rescan(R)


def _check_walk_against_every_crossing(R):
    """The walk that builds each chamber once against the one that builds a
    chamber for every crossing: the same chambers and edges, or the same
    first NonSimplicialError.  Returns the outcome."""
    walk = _outcome(chamber_graph, R)
    assert walk == _outcome(chamber_graph_every_crossing, R)
    return walk


@pytest.mark.parametrize("name", [e.name for e in cat.entries()])
def test_walk_matches_every_crossing_on_catalog(name):
    entry = cat.get(name)
    chambers, _ = _check_walk_against_every_crossing(cat.root_set_of(entry))
    assert len(chambers) == entry.expected_chambers


def test_walk_matches_every_crossing_on_49_line_box():
    R = make_root_set(_inputs().box_lines(), rank=3)
    assert len(R.positives) == 49
    outcome = _check_walk_against_every_crossing(R)
    assert outcome[0] == "non-simplicial"


def _random_lines(count, seed):
    """``count`` pairwise non-parallel rank-3 covectors with coordinates in
    [-20, 20], drawn with a seeded generator."""
    rng = random.Random(seed)
    lines = {}
    while len(lines) < count:
        v = tuple(rng.randint(-20, 20) for _ in range(3))
        if any(v):
            lines.setdefault(direction(v), v)
    return list(lines.values())


@pytest.mark.parametrize("name, lines, ray_count, rows", [
    ("box-49", _inputs().box_lines(), 4, 9),
    ("random-200", _random_lines(200, seed=19), 5, 0)])
def test_large_non_simplicial_input_fills_rows_only_for_rays_reached(
        name, lines, ray_count, rows):
    """The rejection carries the ray count of the exact scan, and only the
    rays of the simplicial chambers built before it get a row: box-49
    builds 7 chambers (9 distinct rays) first, and the 200 random lines
    fail at the generic point's chamber."""
    R = make_root_set(lines, rank=3)
    assert len(R.positives) == len(lines)
    with pytest.raises(NonSimplicialError) as e:
        chamber_graph(R)
    assert e.value.ray_count == len(rank3_rays_scan(R.positives, e.value.signs))
    assert (e.value.ray_count, len(R.rows)) == (ray_count, rows)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 4)).flatmap(arrangements))
def test_walk_matches_every_crossing(covectors):
    try:
        R = make_root_set(covectors)
    except ValueError:
        assume(False)
    _check_walk_against_every_crossing(R)


@settings(max_examples=60, deadline=None)
@given(st.one_of(arrangements(2), arrangements(3), arrangements(4),
                 st.lists(st.tuples(SMALL_INTS, SMALL_INTS, SMALL_INTS),
                          min_size=3, max_size=6)))
def test_chamber_rays_matches_exact_scan(covectors):
    try:
        R = make_root_set(covectors)
    except ValueError:
        assume(False)
    assume(len(R.positives) <= 6)
    _check_chamber_rays(R)


def _check_chamber_rays(R):
    """Every sign vector, infeasible ones included: the clipping finds the
    rays that exact products find, in any order, each with the mask of
    the covectors that vanish on it."""
    for signs in product((1, -1), repeat=len(R.positives)):
        rays = _chamber_rays(R, signs)
        assert sorted(rays) == sorted(rays_for_signs_scan(R, signs))
        for v, zeros in rays.items():
            assert zeros == sum(1 << k for k, cov in enumerate(R.positives)
                                if dot(cov, v) == 0)


def test_chamber_rays_matches_exact_scan_on_degenerate_rank5_cones():
    # many hyperplanes meet at some rays, so two rays can share r - 2 zero
    # bits without being adjacent: only the test against a third ray's
    # mask keeps their combination out (sign vectors (1, 1, 1, -1, 1, 1,
    # 1, 1, 1) and (-1, 1, -1, 1, -1, -1, -1, -1, 1))
    R = make_root_set([(0, 0, 2, 0, 0), (0, 1, -2, -2, 2), (0, 1, 1, 2, -1),
                       (1, 0, 0, -1, 0), (1, 0, 1, 1, 2), (1, 1, 2, -1, 2),
                       (2, 0, 0, 1, 0), (2, 1, -2, -1, 2), (2, 1, -1, -2, -1)])
    _check_chamber_rays(R)


def test_is_irreducible():
    assert is_irreducible(cat.root_set_of(cat.get("A3")))
    R = make_root_set([(1, 0), (0, 1)])
    assert not is_irreducible(R)


@st.composite
def support_lists(draw):
    """(vectors, rank): rank in 1..5 and up to six vectors of that length
    with entries in -1..1, so empty lists, zero vectors and repeated
    supports all occur."""
    rank = draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(-1, 1)] * rank)
    return draw(st.lists(vector, max_size=6)), rank


@given(support_lists())
@settings(max_examples=300, deadline=None)
@example(([], 1))
@example(([], 2))
@example(([(0, 0, 0)], 3))
@example(([(1, 0, 0), (0, 1, 1), (0, 0, 0)], 3))
def test_supports_connected_matches_union_find(case):
    vectors, rank = case
    assert supports_connected(vectors, rank) == supports_connected_union_find(vectors, rank)


def test_cartan_integral_on_weyl_base():
    R = cat.root_set_of(cat.get("B3"))
    chambers, edges = chamber_graph(R)
    c = cartan_of_chamber(R, chambers[0], [chambers[edges[0, i]] for i in range(3)])
    for row in c:
        for x in row:
            assert x == int(x)


def _check_walls_and_signs(R):
    """The row memo against exact products: each ray's values are the
    products with the Fraction covectors cov/d times d, and its masks mark
    the positive and negative values.  Walls of every chamber against the
    inverse-matrix rule (the rows of the inverse ray matrix are the dual
    wall covectors, found among the hyperplanes by direction), and the
    values read for each chamber ray against exact products.  A walk that
    meets a non-simplicial chamber checks the rows it filled."""
    try:
        chambers, _ = chamber_graph(R)
    except NonSimplicialError:
        chambers = []
    for v, (values, plus, minus) in R.rows.items():
        products = [dot([Fraction(x, R.denominator) for x in cov], v)
                    for cov in R.positives]
        assert values == tuple(R.denominator * d for d in products)
        assert plus == sum(1 << k for k, x in enumerate(values) if x > 0)
        assert minus == sum(1 << k for k, x in enumerate(values) if x < 0)
    index = {direction(cov): k for k, cov in enumerate(R.positives)}
    for K in chambers:
        inverse = invert([[ray[i] for ray in K.rays] for i in range(R.rank)])
        assert K.walls == tuple(index[sign_normalize(clear_denominators(row))]
                                for row in inverse)
        for v in K.rays:
            assert ray_values(R, v) == tuple(dot(cov, v) for cov in R.positives)
    return chambers


@pytest.mark.parametrize("name", [e.name for e in cat.entries()])
def test_walls_and_ray_signs_match_exact_rule_on_catalog(name):
    _check_walls_and_signs(cat.root_set_of(cat.get(name)))


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(RATIONALS, RATIONALS), min_size=2, max_size=7))
def test_walls_and_ray_signs_match_exact_rule_rank2(covectors):
    try:
        R = make_root_set(covectors, rank=2)
    except ValueError:
        assume(False)
    _check_walls_and_signs(R)


@settings(max_examples=60, deadline=None)
@given(arrangements(3))
def test_walls_and_ray_signs_match_exact_rule_rank3(covectors):
    try:
        R = make_root_set(covectors, rank=3)
    except ValueError:
        assume(False)
    _check_walls_and_signs(R)


def _check_melchior_zaslavsky(R):
    simplicial, count = melchior_zaslavsky(R.positives)
    try:
        chambers, _ = chamber_graph(R)
    except NonSimplicialError:
        assert not simplicial
        assert count == count_chambers(R.positives, 3)
        return
    assert simplicial
    assert count == len(chambers)


@pytest.mark.parametrize("name", [e.name for e in cat.entries() if e.rank == 3])
def test_melchior_zaslavsky_on_catalog(name):
    _check_melchior_zaslavsky(cat.root_set_of(cat.get(name)))


def test_melchior_zaslavsky_on_13_line_box():
    box = [v for v in product((-1, 0, 1), repeat=3) if v > (0, 0, 0)]
    R = make_root_set(box, rank=3)
    assert len(R.positives) == 13
    assert melchior_zaslavsky(R.positives) == (True, len(chamber_graph(R)[0]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(arrangements(3),
                 st.lists(st.tuples(SMALL_INTS, SMALL_INTS, SMALL_INTS),
                          min_size=3, max_size=6)))
def test_melchior_zaslavsky_matches_chamber_walk(covectors):
    try:
        R = make_root_set(covectors, rank=3)
    except ValueError:
        assume(False)
    _check_melchior_zaslavsky(R)
