"""Command-line front end.

Subcommands: verify, render-svg, export-dot, enumerate-rank2, search,
catalog.  Arrangements travel as JSON documents::

    {"rank": 3, "name": "A3", "roots": [[1,0,0], [0,1,0], ...]}

Coordinates are integers or rationals written "p/q".  Only one
representative per +/- pair is needed; negatives are implied.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from functools import cache

from . import catalog as cat
from .errors import CryarrError, NonSimplicialError
from .geometry import RootSet, chamber_graph, make_root_set
from .groupoid import canonical_form, verify_crystallographic
from .rank2 import enumerate_esequences
from .search import enumerate_rank3
from .verifier import all_ok, run_all

EXIT_PASS, EXIT_FAIL, EXIT_INPUT = 0, 1, 2


COORDINATE = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


def _coord(x):
    """A document coordinate: an int as it is, a "p/q" string as a Fraction."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and COORDINATE.fullmatch(x):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            pass
    raise ValueError(f"bad coordinate {x!r} (use integers or 'p/q' strings)")


def load_document(path) -> RootSet:
    """Read a root-set document; any malformed input raises OSError or
    ValueError, which the commands report with exit code 2."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    rank, roots = doc.get("rank"), doc.get("roots")
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ValueError("'rank' must be an integer")
    if not isinstance(roots, list) or not all(isinstance(v, list) for v in roots):
        raise ValueError("'roots' must be a list of coordinate lists")
    return make_root_set([tuple(_coord(x) for x in v) for v in roots], rank=rank)


def document_of(entry: cat.CatalogEntry):
    return {
        "rank": entry.rank,
        "name": entry.name,
        "roots": [list(v) for v in entry.positive_roots],
    }


def _write_out(text, out):
    """Write ``text`` to the file ``out``, or to stdout when there is none.
    Returns the exit code: 2, with a message, when ``out`` cannot be
    written."""
    if not out:
        sys.stdout.write(text)
        return EXIT_PASS
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_PASS


def cmd_verify(args):
    try:
        R = load_document(args.path)
    except (OSError, ValueError) as e:
        print(json.dumps({"error": str(e)}))
        return EXIT_INPUT
    res = verify_crystallographic(R)
    report = {
        "crystallographic": res.ok,
        "reason": res.reason,
        "chambers": res.chamber_count,
        "base_cartan": [[str(x) for x in row] for row in res.base_cartan],
        "witness": repr(res.witness) if res.witness is not None else None,
        "checks": [],
    }
    ok = res.ok
    if res.ok:
        reports = run_all(res.graph)
        report["checks"] = [r.to_dict() for r in reports]
        ok = all_ok(reports)
        report["canonical_form"] = canonical_form(res.graph).decode("utf-8")
    print(json.dumps(report, indent=2))
    return EXIT_PASS if ok else EXIT_FAIL


_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#b7950b",
            "#117a65", "#a04000", "#2c3e50", "#cb4335", "#148f77")


def _section_plane(R: RootSet):
    # affine section p.x = 1 with p = (1, t, t^2) for the smallest t that
    # is parallel to no hyperplane (so every hyperplane meets it in a line)
    t = 2
    while True:
        p = (1, t, t * t)
        if all(any(p[a] * cov[b] != p[b] * cov[a] for a in range(3) for b in range(3))
               for cov in R.positives):
            return p
        t += 1


def _load_or_report(path):
    """``load_document(path)``, or None after an input error on stderr."""
    try:
        return load_document(path)
    except (OSError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return None


def cmd_render_svg(args):
    R = _load_or_report(args.path)
    if R is None:
        return EXIT_INPUT
    if R.rank != 3:
        print("render-svg requires a rank-3 document", file=sys.stderr)
        return EXIT_INPUT
    try:
        covectors = [[float(x) for x in cov] for cov in R.positives]
    except OverflowError:
        print("input error: a coordinate is too large to draw as a float", file=sys.stderr)
        return EXIT_INPUT
    p = tuple(float(x) for x in _section_plane(R))
    # orthonormal frame (u, v) of the plane p.x = const through x0
    n = math.sqrt(sum(x * x for x in p))
    x0 = tuple(x / (n * n) for x in p)
    a = (-p[1], p[0], 0.0)
    la = math.hypot(*a)
    u = tuple(x / la for x in a)
    v = (
        (p[1] * u[2] - p[2] * u[1]) / n,
        (p[2] * u[0] - p[0] * u[2]) / n,
        (p[0] * u[1] - p[1] * u[0]) / n,
    )
    size, radius = 500.0, 220.0
    cx = cy = size / 2
    data = []
    for c in covectors:
        # the hyperplane c.x = 0 meets the section in the plane-coordinate
        # line A*s + B*t + C = 0
        A = sum(ci * ui for ci, ui in zip(c, u))
        B = sum(ci * vi for ci, vi in zip(c, v))
        C = sum(ci * xi for ci, xi in zip(c, x0))
        norm = math.hypot(A, B)
        data.append((A / norm, B / norm, -C / norm))
    # disc large enough that every line crosses it
    world = 1.5 * max(1.0, max(abs(d) for _, _, d in data))
    lines = []
    for idx, (ex, ey, d) in enumerate(data):
        fx, fy = -ey, ex
        h = math.sqrt(world * world - d * d)
        s1 = ((d * ex - h * fx) / world, (d * ey - h * fy) / world)
        s2 = ((d * ex + h * fx) / world, (d * ey + h * fy) / world)
        color = _PALETTE[idx % len(_PALETTE)]
        lines.append(
            f'  <line x1="{cx + radius * s1[0]:.3f}" y1="{cy + radius * s1[1]:.3f}" '
            f'x2="{cx + radius * s2[0]:.3f}" y2="{cy + radius * s2[1]:.3f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
    svg = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">\n'
        f'  <circle cx="{cx}" cy="{cy}" r="{radius}" fill="none" '
        'stroke="#333" stroke-width="1"/>\n'
        + "\n".join(lines)
        + "\n</svg>\n"
    )
    return _write_out(svg, args.out)


def cmd_export_dot(args):
    R = _load_or_report(args.path)
    if R is None:
        return EXIT_INPUT
    try:
        chambers, edges = chamber_graph(R)
    except NonSimplicialError as e:
        print(f"non-simplicial arrangement: {e}", file=sys.stderr)
        return EXIT_FAIL
    out = ["graph chambers {"]
    seen = set()
    for (a, i), b in sorted(edges.items()):
        key = (min(a, b), max(a, b), i)
        if key in seen:
            continue
        seen.add(key)
        out.append(f'  c{a} -- c{b} [label="{i + 1}"];')
    out.append("}")
    return _write_out("\n".join(out) + "\n", args.out)


def cmd_enumerate_rank2(args):
    try:
        seqs = sorted(enumerate_esequences(args.n))
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        return _write_out(json.dumps([[list(v) for v in s] for s in seqs]) + "\n", args.out)
    return _write_out(f"{len(seqs)}\n", args.out)


def cmd_search(args):
    try:
        result = enumerate_rank3(args.cap, budget=args.budget)
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    doc = {
        "verdict": result.verdict,
        "states_visited": result.states_visited,
        "arrangements": [
            {"rank": 3, "roots": [list(v) for v in roots],
             "canonical_form": form.decode("utf-8")}
            for form, roots in zip(result.canonical_forms, result.arrangements)
        ],
    }
    code = _write_out(json.dumps(doc, indent=2) + "\n", args.out)
    if code != EXIT_PASS:
        return code
    return EXIT_PASS if result.verdict == "Complete" else EXIT_FAIL


def cmd_catalog(args):
    words = args.words
    if not words:
        return _write_out("".join(f"{e.name}\n" for e in cat.entries()), args.out)
    export = words[0] == "export"
    if len(words) != 1 + export:
        print("usage: catalog export <name>" if export else "usage: catalog <name>",
              file=sys.stderr)
        return EXIT_INPUT
    try:
        entry = cat.get(words[-1])
    except KeyError as e:
        # str() of a KeyError is the repr of its message
        print(e.args[0], file=sys.stderr)
        return EXIT_INPUT
    doc = document_of(entry) if export else {
        "name": entry.name,
        "rank": entry.rank,
        "positive_roots": len(entry.positive_roots),
        "crystallographic": entry.crystallographic,
        "expected_chambers": entry.expected_chambers,
    }
    return _write_out(json.dumps(doc, indent=2) + "\n", args.out)


@cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later ``main`` call of the process."""
    ap = argparse.ArgumentParser(
        prog="cryarr",
        description="exact tools for crystallographic hyperplane arrangements",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a root-set document")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render-svg", help="draw a rank-3 arrangement")
    p.add_argument("path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_render_svg)

    p = sub.add_parser("export-dot", help="chamber graph in DOT format")
    p.add_argument("path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("enumerate-rank2", help="count/list insertion sequences")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate_rank2)

    p = sub.add_parser("search", help="bounded rank-3 enumeration")
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--budget", type=int, default=10 ** 7)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("catalog", help="list, show, or export built-ins")
    p.add_argument("words", nargs="*")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_catalog)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()   # a closed pipe raises here, not at exit
        return code
    except CryarrError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    except BrokenPipeError:
        # the reader of stdout has gone: point stdout at the null device, so
        # that the flush at exit finds no pipe (the recipe of the Python
        # ``signal`` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
