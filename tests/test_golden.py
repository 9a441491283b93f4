"""Byte-identity of the CLI answers against files pinned in tests/golden/.

The verify report of every catalog entry and of the arrangements of
``arrangement_documents``, the ``run_all`` reports of the
Weyl-restriction closures of the benchmark (several objects each) and the
search output at caps 6, 9, 12 and 13 must not change under refactoring.  The
search's ``states_visited`` is left out: a symmetry reduction or a prune may
legitimately change how many states are walked.

Regenerate the files (only when an answer is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``."""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cryarr import catalog as cat
from cryarr.cli import document_of, main
from cryarr.groupoid import make_root_object, traverse
from cryarr.verifier import run_all
from test_search import _inputs

GOLDEN = Path(__file__).parent / "golden"
NAMES = [e.name for e in cat.entries()]


def verify_stdout(name, workdir):
    return document_stdout(document_of(cat.get(name)), workdir)


def arrangement_documents():
    """Verify documents built from Cartan matrices, as the benchmark builds
    them: A3 with (1,1,1) replaced by (2,2,2), which first fails
    integrality at chamber 4 of 24, the 49-line box, a non-simplicial
    reject, and the five Weyl restrictions of the benchmark."""
    inputs = _inputs()
    a3 = [(2, 2, 2) if v == (1, 1, 1) else v
          for v in inputs.positive_roots(inputs.CARTAN["A3"])]
    docs = {"A3-222": a3, "box-49": inputs.box_lines()}
    for weyl_type, keep in inputs.RESTRICTIONS:
        docs[f"{weyl_type}-restriction-{''.join(map(str, keep))}"] = inputs.restriction(
            inputs.CARTAN[weyl_type], keep)
    return {name: {"rank": 3, "name": name, "roots": [list(v) for v in roots]}
            for name, roots in docs.items()}


def document_stdout(doc, workdir):
    path = Path(workdir) / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(["verify", str(path)])
    return buf.getvalue()


def restriction_reports():
    """The ``run_all`` reports of the closures of F4 (0,1,2), E6/E7/E8 (0,1,3)
    and E8 (0,1,4), as JSON keyed by restriction."""
    inputs = _inputs()
    out = {}
    for weyl_type, keep in inputs.RESTRICTIONS:
        lines = inputs.restriction(inputs.CARTAN[weyl_type], keep)
        n = len(lines)
        G = traverse(make_root_object(3, lines), max_objects=n * (n - 1) + 2)
        out[f"{weyl_type}-restriction-{''.join(map(str, keep))}"] = [
            r.to_dict() for r in run_all(G)]
    return json.dumps(out, indent=2) + "\n"


def search_answer(workdir, cap=6):
    path = Path(workdir) / f"search{cap}.json"
    main(["search", "--cap", str(cap), "--out", str(path)])
    doc = json.loads(path.read_text())
    del doc["states_visited"]
    return json.dumps(doc, indent=2) + "\n"


def test_catalog_has_eight_entries():
    assert len(NAMES) == 8


@pytest.mark.parametrize("name", NAMES)
def test_verify_report_is_pinned(name, tmp_path):
    expected = (GOLDEN / f"verify_{name}.json").read_text(encoding="utf-8")
    assert verify_stdout(name, tmp_path) == expected


@pytest.mark.parametrize("name", list(arrangement_documents()))
def test_arrangement_verify_report_is_pinned(name, tmp_path):
    expected = (GOLDEN / f"verify_{name}.json").read_text(encoding="utf-8")
    assert document_stdout(arrangement_documents()[name], tmp_path) == expected


def test_run_all_restriction_reports_are_pinned():
    expected = (GOLDEN / "run_all_restrictions.json").read_text(encoding="utf-8")
    assert restriction_reports() == expected


def test_search_cap6_is_pinned(tmp_path):
    expected = (GOLDEN / "search_cap6.json").read_text(encoding="utf-8")
    assert search_answer(tmp_path) == expected


def test_search_cap9_is_pinned(tmp_path):
    expected = (GOLDEN / "search_cap9.json").read_text(encoding="utf-8")
    assert search_answer(tmp_path, 9) == expected


def test_search_cap12_is_pinned(tmp_path):
    # ten forms, two of them 12-line forms that are no Weyl restriction
    expected = (GOLDEN / "search_cap12.json").read_text(encoding="utf-8")
    assert search_answer(tmp_path, 12) == expected


def test_search_cap13_is_pinned(tmp_path):
    # fourteen forms, among them the 13-line F4 restriction
    expected = (GOLDEN / "search_cap13.json").read_text(encoding="utf-8")
    assert search_answer(tmp_path, 13) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            (GOLDEN / f"verify_{name}.json").write_text(
                verify_stdout(name, tmp), encoding="utf-8")
        for name, doc in arrangement_documents().items():
            (GOLDEN / f"verify_{name}.json").write_text(
                document_stdout(doc, tmp), encoding="utf-8")
        (GOLDEN / "run_all_restrictions.json").write_text(
            restriction_reports(), encoding="utf-8")
        for cap in (6, 9, 12, 13):
            (GOLDEN / f"search_cap{cap}.json").write_text(
                search_answer(tmp, cap), encoding="utf-8")
    sys.exit(0)
