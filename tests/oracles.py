"""Independent oracles for the test suite.

Everything here is deliberately written from first principles, without
using the package's own algorithms: chamber counts come from sign-vector
enumeration with Fourier-Motzkin feasibility, determinants from cofactor
expansion, elementary divisors from gcds of minors, and Catalan numbers
from the binomial closed form.  ``verify_candidate_geometric`` is the
exception: it is the search's slow path, the geometric pipeline alone,
kept as the reference its integer-first replacement is compared with.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from cryarr.geometry import is_irreducible, make_root_set
from cryarr.groupoid import verify_crystallographic
from cryarr.verifier import all_ok, run_all


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x.numerator if isinstance(x, Fraction) else x)
    if g == 0:
        return tuple(v)
    return tuple(Fraction(x, g) if isinstance(x, Fraction) else x // g for x in v)


def fm_feasible(constraints, dim):
    """Is there x with c.x > 0 for every c?  (Homogeneous, strict.)"""
    cons = {(_primitive(c)) for c in constraints}
    if any(all(x == 0 for x in c) for c in cons):
        return False
    for var in range(dim - 1):
        pos, neg, rest = [], [], set()
        for c in cons:
            if c[var] > 0:
                pos.append(c)
            elif c[var] < 0:
                neg.append(c)
            else:
                rest.add(c)
        for p in pos:
            for q in neg:
                y = tuple(p[var] * qb - q[var] * pb for pb, qb in zip(p, q))
                if all(x == 0 for x in y):
                    return False
                rest.add(_primitive(y))
        cons = rest
    vals = [c[dim - 1] for c in cons]
    if not vals:
        return True
    return all(v > 0 for v in vals) or all(v < 0 for v in vals)


def count_chambers(covectors, dim):
    """Number of chambers of a central arrangement, by recursive sign
    assignment with Fourier-Motzkin pruning."""
    covectors = [tuple(c) for c in covectors]

    def rec(i, chosen):
        if not fm_feasible(chosen, dim):
            return 0
        if i == len(covectors):
            return 1
        c = covectors[i]
        return rec(i + 1, chosen + [c]) + rec(i + 1, chosen + [tuple(-x for x in c)])

    return rec(0, [])


def det_cofactor(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def snf_divisors_minors(m):
    """Elementary divisors via gcds of k x k minors (d_k / d_{k-1})."""
    rows, cols = len(m), len(m[0])
    n = min(rows, cols)
    dets = [1]
    for k in range(1, n + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[m[a][b] for b in ci] for a in ri]
                g = gcd(g, abs(det_cofactor(sub)))
        dets.append(g)
    out = []
    for k in range(1, n + 1):
        if dets[k] == 0:
            out.append(0)
        else:
            out.append(dets[k] // dets[k - 1])
    return tuple(out)


def catalan_binomial(k):
    return comb(2 * k, k) // (k + 1)


def verify_candidate_geometric(roots):
    """A search state decided by the geometry alone: the groupoid closure
    of an irreducible crystallographic arrangement whose base-chamber
    positive system is ``roots`` and whose statement checks pass, or None."""
    try:
        R = make_root_set(roots, rank=3)
    except ValueError:
        return None
    if not is_irreducible(R):
        return None
    res = verify_crystallographic(R)
    if not res.ok:
        return None
    if res.base_object.positive_roots != frozenset(roots):
        return None
    if not all_ok(run_all(res.graph)):
        return None
    return res.graph
