"""Which modules an import loads, that no module imports a name it never
uses, and that every name the README lists under a module is defined
there."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_tracing_names import _wrapped_names

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"


def loaded_after(statement):
    """The ``cryarr`` modules in ``sys.modules`` after ``statement`` runs in
    a fresh interpreter."""
    code = (f"import sys; {statement}; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'cryarr'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_the_package_loads_no_module():
    assert loaded_after("import cryarr") == {"cryarr"}


def test_benchmark_setup_loads_no_search_verifier_or_cli():
    # the set-up line of perfbench/run.py
    loaded = loaded_after("import cryarr, cryarr.catalog")
    assert "cryarr.catalog" in loaded
    assert not loaded & {"cryarr.search", "cryarr.verifier", "cryarr.cli"}


def test_cli_loads_every_traced_module():
    # the tracer finds the modules it wraps in sys.modules after the
    # benchmark worker imports cryarr.cli
    loaded = loaded_after("import cryarr.cli")
    assert {f"cryarr.{module}" for module, _ in _wrapped_names()} <= loaded


def unused_imports(source):
    """The names that the import statements of ``source`` bind and that
    appear nowhere else in it as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("path", sorted(SRC.glob("cryarr/*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == set()


def test_groupoid_imports_no_fraction():
    # chamber integrality and its Fraction witnesses live in geometry; the
    # root-object core holds ints only
    tree = ast.parse((SRC / "cryarr" / "groupoid.py").read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    assert "fractions" not in modules


def test_unused_imports_are_found():
    source = "from .rank2 import slope_sorted, walk\nimport os.path\nwalk()\n"
    assert unused_imports(source) == {"slope_sorted", "os"}


def readme_import_note():
    """module -> the names of its bullet under "What's inside" in the
    README: each bullet starts with ``- `cryarr.<module>`:`` and goes on
    over the indented lines below it."""
    section = README.read_text(encoding="utf-8").split("## What's inside", 1)[1]
    bullets = re.findall(r"^- `(cryarr\.\w+)`:(.*(?:\n  .*)*)", section, re.MULTILINE)
    return {module: re.findall(r"`(\w+)`", names) for module, names in bullets}


def test_every_name_in_the_readme_import_note_resolves():
    note = readme_import_note()
    assert sum(map(len, note.values())) == 49
    for module, names in note.items():
        loaded = importlib.import_module(module)
        assert [name for name in names if not hasattr(loaded, name)] == [], module
