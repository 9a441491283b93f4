import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cryarr import catalog as cat
from cryarr.errors import HypothesisFailedError, PreconditionFailedError
from cryarr.groupoid import GroupoidGraph, make_root_object, verify_crystallographic
from cryarr.verifier import (
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


def closure(name):
    return verify_crystallographic(cat.root_set_of(cat.get(name))).graph


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


def test_convexity_statements():
    for name in ("A3", "B3"):
        assert check_convexity_statements(closure(name)).verdict == "pass"


def test_plane_roots_check():
    for name in ("A3", "B3", "C3"):
        assert check_plane_roots(closure(name)).verdict == "pass"


def test_run_all_passes_on_catalog():
    for e in cat.entries():
        if not e.crystallographic:
            continue
        reports = run_all(closure(e.name))
        assert all_ok(reports), [r.check for r in reports if not r.ok]


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

        assert check_pigeonhole(G).verdict == "pass"
