import pytest

from cryarr import catalog as cat
from cryarr.geometry import chamber_graph
from cryarr.groupoid import canonical_form_of_rootset, verify_crystallographic
from oracles import primitive_hyperplanes


def test_series_sizes():
    assert len(cat.make_series("A", 3).positive_roots) == 6
    assert len(cat.make_series("A", 4).positive_roots) == 10
    assert len(cat.make_series("B", 3).positive_roots) == 9
    assert len(cat.make_series("C", 3).positive_roots) == 9
    assert len(cat.make_series("D", 4).positive_roots) == 12


def test_series_validation():
    with pytest.raises(ValueError):
        cat.make_series("D", 3)
    with pytest.raises(ValueError):
        cat.make_series("A", 1)
    with pytest.raises(ValueError):
        cat.make_series("E", 3)


def test_entries_verify():
    for e in cat.entries():
        res = verify_crystallographic(cat.root_set_of(e))
        assert res.ok == e.crystallographic, e.name
        assert res.chamber_count == e.expected_chambers, e.name


def test_fixture_names_present():
    names = {e.name for e in cat.entries()}
    assert {"A2", "rank2-7", "noncrystallographic-2.6",
            "A3", "A4", "B3", "C3", "D4"} <= names


def test_seven_root_fixture():
    e = cat.get("rank2-7")
    assert len(e.positive_roots) == 7
    assert e.crystallographic


def test_get_unknown():
    with pytest.raises(KeyError):
        cat.get("E8")


def test_b3_c3_same_hyperplanes_different_forms():
    b3 = cat.root_set_of(cat.get("B3"))
    c3 = cat.root_set_of(cat.get("C3"))
    # the linear map doubling the last simple root carries the C3 hyperplane
    # set onto the B3 one (both are the same arrangement in disguise)
    from cryarr.geometry import make_root_set

    c3_mapped = make_root_set(
        [(a, b, 2 * c) for a, b, c in cat.get("C3").positive_roots], rank=3)
    assert primitive_hyperplanes(b3) == primitive_hyperplanes(c3_mapped)
    assert len(chamber_graph(b3)[0]) == len(chamber_graph(c3)[0]) == 48
    assert canonical_form_of_rootset(b3) != canonical_form_of_rootset(c3)


def test_min_cartan_pins():
    # the least Cartan entry over each crystallographic entry's closure
    pins = {"A2": -1, "rank2-7": -4, "A3": -1, "A4": -1, "B3": -2, "C3": -2, "D4": -1}
    lows = {}
    for e in cat.entries():
        if not e.crystallographic:
            continue
        res = verify_crystallographic(cat.root_set_of(e))
        lows[e.name] = min(
            min(min(row) for row in O.cartan)
            for O in res.graph.objects
        )
    assert lows == pins
