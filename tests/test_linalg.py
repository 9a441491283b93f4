import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryarr.errors import SingularMatrixError
from cryarr.linalg import (
    direction,
    invert,
    kernel_vector,
    matrix_rank,
    sign_normalize,
    smith_normal_form,
    vol,
    vol2,
)
from oracles import (
    clear_denominators,
    det_cofactor,
    kernel_vector_gauss_jordan,
    kernel_vector_minors,
    matrix_rank_fractions,
    snf_divisors_minors,
)


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(20240613)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_matrix(rng, rows, cols)
        assert smith_normal_form(m) == snf_divisors_minors(m)


def test_snf_divisibility_chain():
    rng = random.Random(7)
    for _ in range(100):
        m = random_matrix(rng, 3, 3)
        d = smith_normal_form(m)
        for a, b in zip(d, d[1:]):
            if b != 0:
                assert a != 0 and b % a == 0


def test_vol_full_rank_is_abs_det():
    rng = random.Random(99)
    for _ in range(100):
        m = random_matrix(rng, 3, 3)
        assert vol(3, m) == abs(det_cofactor(m))


def test_vol_m1_is_gcd():
    assert vol(1, [(4, 6, 10)]) == 2
    assert vol(1, [(0, 0, 0)]) == 0
    assert vol(1, [(3, 5, 0)]) == 1


def test_vol_examples():
    assert vol(2, [(1, 0, 0), (0, 1, 0)]) == 1
    assert vol(2, [(2, 0, 0), (0, 3, 0)]) == 6
    assert vol(2, [(1, 2, 0), (2, 4, 0)]) == 0  # parallel columns
    assert vol(2, [(1, 0, 0), (0, 0, 0)]) == 0  # a zero column, m <= r
    assert vol(3, [(1, 0), (0, 1), (0, 0)]) == 1  # a zero column, m > r


def test_vol_rejects_non_integer_entries():
    for m, vectors in ((1, [(Fraction(1, 2), Fraction(1, 3))]),
                       (2, [(1, 0), (0, Fraction(1, 2))]),
                       (2, [(Fraction(1, 2),), (1,)])):
        with pytest.raises(ValueError):
            vol(m, vectors)


def test_smith_normal_form_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        smith_normal_form([[Fraction(1, 2)]])
    with pytest.raises(ValueError):
        smith_normal_form([[2, 0], [0, Fraction(1, 2)]])


@st.composite
def vector_lists(draw):
    """(m, vectors): m in 1..len(vectors), all vectors of one dimension r,
    so that both m <= r and m > r occur."""
    r = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * r),
                            min_size=1, max_size=5))
    return draw(st.integers(1, len(vectors))), vectors


@settings(max_examples=300, deadline=None)
@given(vector_lists())
def test_vol_matches_snf_product_and_minor_oracle(case):
    m, vectors = case
    cols = [[v[i] for v in vectors[:m]] for i in range(len(vectors[0]))]
    got = vol(m, vectors)
    assert got == prod(smith_normal_form(cols))
    assert got == prod(snf_divisors_minors(cols))


@st.composite
def vector_pairs(draw):
    """Two integer vectors of one dimension r in 1..5; the second is often
    zero or a multiple of the first, and the first is sometimes zero."""
    r = draw(st.integers(1, 5))
    vectors = st.tuples(*[st.integers(-9, 9)] * r)
    zero = st.just((0,) * r)
    a = draw(st.one_of(vectors, zero))
    multiple = st.integers(-4, 4).map(lambda t: tuple(t * x for x in a))
    return a, draw(st.one_of(vectors, zero, multiple))


@settings(max_examples=500, deadline=None)
@given(vector_pairs())
def test_vol2_matches_vol(pair):
    a, b = pair
    assert vol2(a, b) == vol(2, [a, b]) == vol2(b, a)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=5))
def test_direction_integer_path_matches_fraction_path(vec):
    expected = sign_normalize(clear_denominators(vec))
    assert direction(vec) == expected
    assert direction(tuple(vec)) == expected
    assert all(type(x) is int for x in direction(vec))


def test_invert_round_trip():
    rng = random.Random(5)
    done = 0
    while done < 50:
        m = random_matrix(rng, 3, 3)
        if det_cofactor(m) == 0:
            continue
        done += 1
        inv = invert(m)
        prod = [
            [sum(Fraction(m[i][k]) * inv[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert prod == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_invert_singular():
    with pytest.raises(SingularMatrixError):
        invert([[1, 2], [2, 4]])


def test_kernel_vector():
    v = kernel_vector([(1, 0, 0), (0, 1, 0)], 3)
    assert v is not None and v[0] == 0 and v[1] == 0 and v[2] != 0
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    assert g == 1
    # nullity 2: no unique kernel line
    assert kernel_vector([(1, 0, 0)], 3) is None
    assert kernel_vector([(1, 2, 3), (2, 4, 6)], 3) is None
    assert kernel_vector([], 1) == (1,)
    with pytest.raises(ValueError):
        kernel_vector([(1, 0), (0, 1)], 2)


@st.composite
def kernel_cases(draw):
    """(rows, dim): dim - 1 integer rows; small entries and repeated or
    zero rows make rank-deficient matrices common."""
    dim = draw(st.integers(1, 5))
    row = st.tuples(*[st.integers(-3, 3)] * dim)
    rows = draw(st.lists(row, min_size=dim - 1, max_size=dim - 1))
    if rows and draw(st.booleans()):
        rows[-1] = draw(st.sampled_from([rows[0], tuple(0 for _ in rows[0])]))
    return rows, dim


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_kernel_vector_matches_gauss_jordan_oracle(case):
    rows, dim = case
    got = kernel_vector(rows, dim)
    expected = kernel_vector_gauss_jordan(rows, dim)
    if expected is None:
        assert got is None
    else:
        assert got in (expected, tuple(-x for x in expected))
        assert all(type(x) is int for x in got)
    assert got == kernel_vector_minors(rows, dim)


def test_matrix_rank():
    assert matrix_rank([(1, 2), (2, 4)]) == 1
    assert matrix_rank([(1, 0), (0, 1)]) == 2


@st.composite
def rank_cases(draw):
    """Integer matrices of up to 6 rows and 5 columns; rows that combine
    earlier rows make rank-deficient matrices common."""
    cols = draw(st.integers(1, 5))
    row = st.tuples(*[st.integers(-4, 4)] * cols)
    rows = draw(st.lists(row, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        if len(rows) >= 2:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append(tuple(a * x + b * y for x, y in zip(rows[0], rows[1])))
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(rank_cases())
def test_matrix_rank_matches_fraction_oracle(rows):
    assert matrix_rank(rows) == matrix_rank_fractions(rows)
