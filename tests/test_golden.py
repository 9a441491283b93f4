"""Byte-identity of the CLI answers against files pinned in tests/golden/.

The verify report of every catalog entry and the cap-6 search output must
not change under refactoring.  The search's ``states_visited`` is left out:
a symmetry reduction may legitimately change how many states are walked.

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

GOLDEN = Path(__file__).parent / "golden"
NAMES = [e.name for e in cat.entries()]


def verify_stdout(name, workdir):
    path = Path(workdir) / f"{name}.json"
    path.write_text(json.dumps(document_of(cat.get(name))))
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(["verify", str(path)])
    return buf.getvalue()


def search_answer(workdir):
    path = Path(workdir) / "search.json"
    main(["search", "--cap", "6", "--out", str(path)])
    doc = json.loads(path.read_text())
    del doc["states_visited"]
    return json.dumps(doc, indent=2) + "\n"


def test_catalog_has_eight_entries():
    assert len(NAMES) == 8


@pytest.mark.parametrize("name", NAMES)
def test_verify_report_is_pinned(name, tmp_path):
    expected = (GOLDEN / f"verify_{name}.json").read_text(encoding="utf-8")
    assert verify_stdout(name, tmp_path) == expected


def test_search_cap6_is_pinned(tmp_path):
    expected = (GOLDEN / "search_cap6.json").read_text(encoding="utf-8")
    assert search_answer(tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            (GOLDEN / f"verify_{name}.json").write_text(
                verify_stdout(name, tmp), encoding="utf-8")
        (GOLDEN / "search_cap6.json").write_text(search_answer(tmp),
                                                 encoding="utf-8")
    sys.exit(0)
