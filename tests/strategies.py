"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from cryarr import catalog as cat
from cryarr.groupoid import RootObject, simple_roots
from cryarr.linalg import direction

SCALES = (1, 2, -1, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3))
SMALL = (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-1, 3))


def written(x):
    """A coordinate as a document writes it: an integer or a "p/q" string."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else str(x)


@st.composite
def arrangements(draw, rank):
    """Covectors of a catalog arrangement of the given rank, or of a subset
    of it, each rescaled by a small rational, plus up to two small random
    covectors.  Coordinates are integers or "p/q" strings, so integral,
    non-integral, simplicial and non-simplicial arrangements all occur."""
    entry = draw(st.sampled_from([e for e in cat.entries() if e.rank == rank]))
    roots = list(entry.positive_roots)
    if draw(st.booleans()):
        roots = draw(st.lists(st.sampled_from(roots), min_size=1, unique=True))
    scales = draw(st.lists(st.sampled_from(SCALES), min_size=len(roots),
                           max_size=len(roots)))
    extra = draw(st.lists(st.tuples(*[st.sampled_from(SMALL)] * rank), max_size=2))
    covectors = [tuple(s * x for x in v) for v, s in zip(roots, scales)] + extra
    return [[written(x) for x in cov] for cov in covectors]


@st.composite
def rescaled_roots(draw, rank):
    """The positive roots of a catalog arrangement of the given rank, or at
    least ``rank`` of them, each multiplied by 1, -1, 2 or 3.  A root scaled
    against the others has non-integral coordinates at some chamber, often
    not at the first."""
    entry = draw(st.sampled_from([e for e in cat.entries() if e.rank == rank]))
    roots = list(entry.positive_roots)
    if draw(st.booleans()):
        roots = draw(st.lists(st.sampled_from(roots), min_size=rank, unique=True))
    scales = draw(st.lists(st.sampled_from((1, 1, -1, 2, 3)), min_size=len(roots),
                           max_size=len(roots)))
    return [tuple(k * x for x in v) for v, k in zip(roots, scales)]


@st.composite
def small_objects(draw, ranks=(2, 3, 4)):
    """A root object of one of the ``ranks``: the simple roots, at most one
    of them left out, plus up to 6 random vectors in {0, 1, 2}^r, one per
    direction.  Most are not root systems: about a tenth of the rank-3 ones
    drawn close within 30 objects, and the plane-root check fails on about
    two thirds of those."""
    rank = draw(st.sampled_from(ranks))
    missing = draw(st.sets(st.integers(0, rank - 1), max_size=1))
    extra = draw(st.lists(st.tuples(*[st.integers(0, 2)] * rank), max_size=6))
    roots = {}
    for v in [e for i, e in enumerate(simple_roots(rank)) if i not in missing] + extra:
        if any(v):
            roots.setdefault(direction(v), v)
    return RootObject(rank, frozenset(roots.values()))
