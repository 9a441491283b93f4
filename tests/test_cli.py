import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryarr import catalog as cat
from cryarr.cli import _coord, build_parser, load_document, main
from oracles import make_root_set_fractions
from strategies import arrangements, written


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
    path = write_doc(tmp_path, "rat", 2, [[1, 0], [0, 1], ["1", "1/2"]])
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    # the witness is the covector and its coordinates in the document's scale
    assert json.loads(out) == {
        "crystallographic": False,
        "reason": "non-integral root coordinates",
        "chambers": 6,
        "base_cartan": [["2", "-2"], ["-1/2", "2"]],
        "witness": "((1, 1, 1), (Fraction(1, 1), Fraction(1, 2)), "
                   "(Fraction(1, 1), Fraction(1, 2)))",
        "checks": [],
    }


def test_integer_coordinates_stay_integers(tmp_path):
    assert type(_coord(3)) is int and _coord(-3) == -3
    assert (type(_coord("-3")), _coord("1/2")) == (Fraction, Fraction(1, 2))
    R = load_document(write_doc(tmp_path, "a3", 3, A3))
    assert R.denominator == 1
    assert all(type(x) is int for cov in R.positives for x in cov)


def _root_set_or_message(build, *args):
    try:
        R = build(*args)
    except ValueError as e:
        return str(e)
    return R.rank, R.positives, R.denominator


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 4)).flatmap(lambda r: st.tuples(st.just(r), arrangements(r))))
@example((2, [[1, 0], [2, 0]]))
@example((2, [["1/2", 1], [1, 2], [0, 1]]))
@example((2, [[0, 0], [1, 0], [0, 1]]))
def test_load_document_matches_fraction_checks(tmp_path_factory, case):
    # int coordinates are read as ints and "p/q" strings as Fractions: the
    # positives, the denominator and every error message are those of the
    # checks on Fractions
    rank, roots = case
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps({"rank": rank, "roots": roots}))
    fractions = [tuple(Fraction(x) for x in v) for v in roots]
    assert (_root_set_or_message(load_document, str(path))
            == _root_set_or_message(make_root_set_fractions, fractions, rank))


@pytest.mark.parametrize("factor", ["1/2", "3"])
@pytest.mark.parametrize("name", ["A3", "B3"])
def test_verify_is_invariant_under_a_common_scale(tmp_path, capsys, name, factor):
    roots = cat.get(name).positive_roots

    def report(doc_roots):
        code, out, _ = run(capsys, "verify", write_doc(tmp_path, name, 3, doc_roots))
        r = json.loads(out)
        return code, r["crystallographic"], r["chambers"], r["base_cartan"], r["canonical_form"]

    scaled = [[written(Fraction(x) * Fraction(factor)) for x in v] for v in roots]
    assert report(scaled) == report(roots)
    assert report(roots)[:2] == (0, True)


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


@pytest.mark.parametrize("x", [10**400, f"1/{10**400}"], ids=["10^400", "1/10^400"])
def test_render_svg_coordinate_beyond_float(tmp_path, capsys, x):
    # verify is exact and accepts the document; the drawing is in floats,
    # where 10^400 overflows (and 1/10^400 scales the other roots to it)
    path = write_doc(tmp_path, "big", 3, [(x, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert run(capsys, "verify", path)[0] == 0
    code, out, err = run(capsys, "render-svg", path)
    assert (code, out) == (2, "")
    assert err == "input error: a coordinate is too large to draw as a float\n"


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


@pytest.mark.parametrize("argv", [("search", "--cap", "5"),
                                  ("enumerate-rank2", "1"),
                                  ("search", "--cap", "7", "--budget", "0"),
                                  ("search", "--cap", "7", "--budget", "-3")])
def test_out_of_range_argument_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_search_cli(tmp_path, capsys):
    out_path = tmp_path / "results.json"
    code, _, _ = run(capsys, "search", "--cap", "6", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["verdict"] == "Complete"
    assert len(doc["arrangements"]) == 1


@pytest.mark.parametrize("command", [
    ("search", "--cap", "6"),
    ("catalog", "export", "A3"),
    ("render-svg", "{doc}"),
    ("export-dot", "{doc}"),
    ("enumerate-rank2", "4", "--json"),
    ("enumerate-rank2", "4"),
    ("catalog",),
    ("catalog", "A3"),
])
def test_unwritable_out_path_exits_2(tmp_path, capsys, command):
    doc = write_doc(tmp_path, "a3", 3, A3)
    missing = tmp_path / "missing" / "x.json"
    argv = [word.format(doc=doc) for word in command] + ["--out", str(missing)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("output error: ") and len(err.strip().splitlines()) == 1
    assert not missing.parent.exists()


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0 and "A3" in out.split()
    code, out, _ = run(capsys, "catalog", "B3")
    assert code == 0
    assert json.loads(out)["positive_roots"] == 9


@pytest.mark.parametrize("command", [
    ("catalog",),
    ("catalog", "B3"),
    ("enumerate-rank2", "6"),
], ids=["catalog-list", "catalog-show", "enumerate-rank2-count"])
def test_out_writes_what_stdout_would_show(tmp_path, capsys, command):
    code, shown, _ = run(capsys, *command)
    assert code == 0 and shown
    out_path = tmp_path / "out.txt"
    code, out, err = run(capsys, *command, "--out", str(out_path))
    assert (code, out, err) == (0, "", "")
    assert out_path.read_text() == shown


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_1_without_a_traceback(unbuffered):
    # the reader of the pipe has gone before the command writes, as with
    # ``cryarr catalog B3 | head -0``; buffered, the write fails only when
    # stdout is flushed, unbuffered, at the write itself
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "cryarr.cli", "catalog", "B3"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


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
    code, out, err = run(capsys, "catalog", "export", "E8")
    assert code == 2
    # the message itself, not the repr that str() of a KeyError gives
    assert (out, err) == ("", "no catalog entry named 'E8'\n")


@pytest.mark.parametrize("argv", [("A3", "extra"), ("export",), ("export", "A3", "extra")])
def test_catalog_extra_or_missing_word_exits_2(capsys, argv):
    code, out, err = run(capsys, "catalog", *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: catalog ")


def test_threads_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "4", "enumerate-rank2", "4"])
    assert exc.value.code == 2


def test_parser_is_built_once_and_survives_a_usage_error(tmp_path, capsys):
    build_parser.cache_clear()
    path = write_doc(tmp_path, "a3", 3, A3)
    assert run(capsys, "verify", path)[0] == 0
    assert run(capsys, "catalog", "A2")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    code, out, _ = run(capsys, "verify", path)
    assert code == 0 and json.loads(out)["chambers"] == 24
    assert build_parser.cache_info().misses == 1


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
    "decimal string": {"rank": 2, "roots": [["1.5", 0], [0, 1]]},
    "exponent string": {"rank": 2, "roots": [["1e400", 0], [0, 1]]},
    "huge exponent string": {"rank": 2, "roots": [["1e5000", 0], [0, 1]]},
    "underscore string": {"rank": 2, "roots": [["1_0", 0], [0, 1]]},
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
