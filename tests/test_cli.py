import io
import json
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryarr.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_doc(tmp_path, name, rank, roots):
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps({"rank": rank, "roots": [list(v) for v in roots]}))
    return str(p)


A3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]


def test_verify_pass(tmp_path, capsys):
    path = write_doc(tmp_path, "a3", 3, A3)
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    report = json.loads(out)
    assert report["crystallographic"] is True
    assert report["chambers"] == 24
    assert all(c["verdict"] != "fail" for c in report["checks"])


def test_verify_fail_with_cartan_witness(tmp_path, capsys):
    path = write_doc(tmp_path, "ex26", 2, [(1, 0), (0, 1), (1, 2)])
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    report = json.loads(out)
    assert report["crystallographic"] is False
    assert ["2", "-1/2"] in report["base_cartan"]


def test_verify_malformed_input(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"rank": 2, "roots": [[1,')
    code, _, _ = run(capsys, "verify", str(p))
    assert code == 2


def test_verify_deeply_nested_json(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000 + "]" * 100000)
    code, _, _ = run(capsys, "verify", str(p))
    assert code == 2


def test_verify_rational_coordinates(tmp_path, capsys):
    path = write_doc(tmp_path, "rat", 2, [["1", "0"], ["0", "1"], ["1", "1/2"]])
    code, out, _ = run(capsys, "verify", path)
    assert code in (0, 1)
    json.loads(out)


def test_render_svg(tmp_path, capsys):
    path = write_doc(tmp_path, "a3", 3, A3)
    out_path = tmp_path / "a3.svg"
    code, _, _ = run(capsys, "render-svg", path, "--out", str(out_path))
    assert code == 0
    root = ET.fromstring(out_path.read_text())
    assert root.tag.endswith("svg")
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    assert len(lines) == 6


def test_render_svg_wrong_rank(tmp_path, capsys):
    path = write_doc(tmp_path, "a2", 2, [(1, 0), (0, 1), (1, 1)])
    code, _, _ = run(capsys, "render-svg", path)
    assert code == 2


def test_export_dot_a2(tmp_path, capsys):
    path = write_doc(tmp_path, "a2", 2, [(1, 0), (0, 1), (1, 1)])
    code, out, _ = run(capsys, "export-dot", path)
    assert code == 0
    edges = [l for l in out.splitlines() if "--" in l]
    assert len(edges) == 6  # hexagon
    assert all('label="1"' in e or 'label="2"' in e for e in edges)


def test_export_dot_a3_degrees(tmp_path, capsys):
    path = write_doc(tmp_path, "a3", 3, A3)
    code, out, _ = run(capsys, "export-dot", path, "--out",
                       str(tmp_path / "g.dot"))
    assert code == 0
    text = (tmp_path / "g.dot").read_text()
    edges = [l for l in text.splitlines() if "--" in l]
    assert len(edges) == 24 * 3 // 2
    degree = {}
    for e in edges:
        a, b = e.split("[")[0].split("--")
        for node in (a.strip(), b.strip()):
            degree[node] = degree.get(node, 0) + 1
    assert len(degree) == 24 and set(degree.values()) == {3}


def test_export_dot_non_simplicial(tmp_path, capsys):
    path = write_doc(tmp_path, "ns", 3,
                     [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    code, _, _ = run(capsys, "export-dot", path)
    assert code == 1


def test_enumerate_rank2(capsys):
    code, out, _ = run(capsys, "enumerate-rank2", "6")
    assert code == 0
    assert out.strip() == "14"


def test_search_cli(tmp_path, capsys):
    out_path = tmp_path / "results.json"
    code, _, _ = run(capsys, "search", "--cap", "6", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["verdict"] == "Complete"
    assert len(doc["arrangements"]) == 1


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0 and "A3" in out.split()
    code, out, _ = run(capsys, "catalog", "B3")
    assert code == 0
    assert json.loads(out)["positive_roots"] == 9


def test_catalog_export_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog", "export", "B3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["roots"]) == 9
    p = tmp_path / "b3.json"
    p.write_text(out)
    code, out2, _ = run(capsys, "verify", str(p))
    assert code == 0
    from cryarr import catalog as cat
    from cryarr.groupoid import canonical_form_of_rootset

    expected = canonical_form_of_rootset(cat.root_set_of(cat.get("B3")))
    assert json.loads(out2)["canonical_form"] == expected.decode()


def test_catalog_unknown(capsys):
    code, _, _ = run(capsys, "catalog", "export", "E8")
    assert code == 2


def test_threads_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "4", "enumerate-rank2", "4"])
    assert exc.value.code == 2


MALFORMED = {
    "roots not a list": {"rank": 3, "roots": 5},
    "top-level list": [[1, 0], [0, 1]],
    "root not a list": {"rank": 2, "roots": [1, 2]},
    "missing rank": {"roots": [[1, 0], [0, 1]]},
    "missing roots": {"rank": 2},
    "bool rank": {"rank": True, "roots": [[1]]},
    "bool coordinate": {"rank": 2, "roots": [[True, 0], [0, 1], [1, 1]]},
    "float coordinate": {"rank": 2, "roots": [[1.5, 0], [0, 1]]},
    "zero denominator": {"rank": 2, "roots": [["1/0", 0], [0, 1]]},
    "null coordinate": {"rank": 2, "roots": [[None, 0], [0, 1]]},
}


@pytest.mark.parametrize("command", ["verify", "render-svg", "export-dot"])
@pytest.mark.parametrize("doc", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_document_exits_2(tmp_path, capsys, command, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, _ = run(capsys, command, str(p))
    assert code == 2


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["1", "1/2", "x", "1/0"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["rank", "roots", "name"]), inner),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(doc=JSON_VALUES)
def test_verify_never_raises_on_any_document(tmp_path_factory, doc):
    p = tmp_path_factory.mktemp("fuzz") / "doc.json"
    p.write_text(json.dumps(doc))
    with redirect_stdout(io.StringIO()):
        assert main(["verify", str(p)]) in (0, 1, 2)
