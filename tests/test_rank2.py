import pytest

from cryarr.catalog import SEVEN_ROOTS
from cryarr.errors import ExtremeRootsNotUnimodularError
from cryarr.rank2 import (
    BASE,
    catalan,
    enumerate_esequences,
    enumerate_quiddity_cycles,
    esequence_children,
    frieze_product,
    is_crystallographic_rank2,
    is_esequence,
    quiddity_of,
    slope_sorted,
    triangulation_of,
)
from oracles import catalan_binomial


def test_children():
    assert esequence_children(BASE) == [((0, 1), (1, 1), (1, 0))]
    kids = esequence_children(((0, 1), (1, 1), (1, 0)))
    assert len(kids) == 2
    assert ((0, 1), (1, 2), (1, 1), (1, 0)) in kids
    assert ((0, 1), (1, 1), (2, 1), (1, 0)) in kids
    for n in range(2, 8):
        for s in enumerate_esequences(n):
            assert len(esequence_children(s)) == n - 1


def test_counts_are_catalan():
    for n in range(2, 11):
        assert len(enumerate_esequences(n)) == catalan(n - 2) == catalan_binomial(n - 2)


def test_entries_and_unimodularity():
    for n in range(2, 9):
        for s in enumerate_esequences(n):
            assert all(x >= 0 and y >= 0 for x, y in s)
            for (a, b), (c, d) in zip(s, s[1:]):
                assert abs(a * d - b * c) == 1


def test_is_esequence():
    assert is_esequence(BASE)
    assert is_esequence(((0, 1), (1, 2), (1, 1), (1, 0)))
    assert not is_esequence(((0, 1), (1, 3), (1, 0)))
    assert not is_esequence(((1, 0), (0, 1)))
    for s in enumerate_esequences(7):
        assert is_esequence(s)


def test_quiddity_examples():
    assert quiddity_of(((0, 1), (1, 1), (1, 0))) == (1, 1, 1)
    q = quiddity_of(((0, 1), (1, 2), (1, 1), (1, 0)))
    rotations = {q[i:] + q[:i] for i in range(4)}
    assert (2, 1, 2, 1) in rotations


def test_seven_root_example():
    ok, seq = is_crystallographic_rank2(SEVEN_ROOTS)
    assert ok
    assert quiddity_of(seq)[1:-1] == (3, 2, 1, 4, 1)


def test_crystallographic_rank2_decisions():
    ok, seq = is_crystallographic_rank2([(1, 0), (0, 1), (1, 1)])
    assert ok and seq == ((0, 1), (1, 1), (1, 0))
    ok, witness = is_crystallographic_rank2([(1, 0), (0, 1), (1, 3)])
    assert not ok
    # cross-check by exhaustive enumeration at n=3
    assert ((0, 1), (1, 3), (1, 0)) not in enumerate_esequences(3)


@pytest.mark.parametrize("roots", [
    [(1, 0), (0, 1), (1, 1), (1, 1)],
    [(1, 0), (0, 1), (1, 1), (2, 2)]], ids=["duplicate", "multiple"])
def test_parallel_roots_are_rejected(roots):
    with pytest.raises(ValueError, match="parallel roots in input"):
        is_crystallographic_rank2(roots)


def test_extreme_roots_not_unimodular():
    with pytest.raises(ExtremeRootsNotUnimodularError):
        is_crystallographic_rank2([(2, 1), (1, 2)])


def test_slope_sorted_exactness():
    vs = slope_sorted([(1, 0), (0, 1), (1, 1), (-1, -2)])
    assert vs == [(0, 1), (1, 2), (1, 1), (1, 0)]


def test_quiddity_cycles_frieze_property():
    for n in range(2, 9):
        cycles = enumerate_quiddity_cycles(n)
        assert cycles
        for c in cycles:
            assert frieze_product(c) == ((-1, 0), (0, -1))


def test_quiddity_cycle_11_factor():
    # the only cycle with two consecutive 1s is (1,1,1)
    for n in range(2, 9):
        for c in enumerate_quiddity_cycles(n):
            m = len(c)
            has11 = any(c[i] == 1 and c[(i + 1) % m] == 1 for i in range(m))
            assert has11 == (c == (1, 1, 1))


def test_esequence_quiddity_matches_cycle_recursion():
    # quiddities of length-n sequences are quiddity cycles of the recursion
    for n in range(3, 8):
        cycles = enumerate_quiddity_cycles(n)
        for s in enumerate_esequences(n):
            q = quiddity_of(s)
            assert min(q[i:] + q[:i] for i in range(n)) in cycles


def test_triangulations():
    t = triangulation_of(((0, 1), (1, 1), (1, 0)))
    assert t.n == 3 and not t.diagonals
    four = {triangulation_of(s).diagonals for s in enumerate_esequences(4)}
    assert four == {frozenset({(0, 2)}), frozenset({(1, 3)})}
    for n in range(3, 9):
        seen = set()
        for s in enumerate_esequences(n):
            t = triangulation_of(s)
            assert len(t.diagonals) == n - 3
            for (a, b), (c, d) in zip(sorted(t.diagonals), sorted(t.diagonals)[1:]):
                pass
            seen.add(t.diagonals)
        # distinct sequences give distinct triangulations and vice versa
        assert len(seen) == len(enumerate_esequences(n))


def test_cor45_sum_decomposition():
    # every enumerated root is an end or the sum of two others
    for n in range(3, 8):
        for s in enumerate_esequences(n):
            roots = set(s)
            for v in s[1:-1]:
                assert any(
                    (v[0] - u[0], v[1] - u[1]) in roots for u in roots
                )


def test_cor45_root_strings():
    # if k*a + b is in the system (a, b the ends) then every l*a + b is
    for n in range(3, 8):
        for s in enumerate_esequences(n):
            roots = set(s)
            for (a, b) in (((0, 1), (1, 0)), ((1, 0), (0, 1))):
                ks = [k for k in range(0, 10)
                      if (k * a[0] + b[0], k * a[1] + b[1]) in roots]
                assert ks == list(range(len(ks)))
