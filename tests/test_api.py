import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylrep

# cli defines no __all__; every other module does.
SUBMODULES = [f"weylrep.{m}" for m in
              ("rootsys", "weyl", "tits", "affine", "chevalley", "fixer",
               "intmat")]
MODULES = ["weylrep"] + SUBMODULES

# Slow honest routes that the tests check the fast paths against; they
# stay public although nothing in src/ calls them.
REFERENCE_ROUTES = {"invert", "canonical_from_word", "pairing_mod2",
                    "check_two_cocycle_identity", "ad_word_sign",
                    "table_to_json", "obstruction"}


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    mod = importlib.import_module(name)
    exported = mod.__all__
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(mod, x)] == []


def _names_used_in_src():
    used = set()
    for path in Path(weylrep.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


@pytest.mark.parametrize("name", SUBMODULES)
def test_public_names_have_callers(name):
    """Every exported name is used somewhere in src/, bar the reference routes."""
    used = _names_used_in_src() | REFERENCE_ROUTES
    exported = importlib.import_module(name).__all__
    assert [x for x in exported if x not in used] == []


@pytest.mark.parametrize("module", ["chevalley", "affine", "fixer", "rootsys",
                                    "weyl", "tits", "cli"])
def test_module_does_not_import_fractions(module):
    """These layers are integral: the root data, the Chevalley constants,
    ad(e) and its divided powers are ints, and so are the cocharacter
    lattices, in fundamental-coweight coordinates, and their connecting
    characters; ``fractions`` has no place there.  The Gram form that the
    tests check the integer norms against lives in the tests."""
    path = Path(weylrep.__file__).parent / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    assert [m for m in imported if m.split(".")[0] == "fractions"] == []


# The top-level modules that ``from weylrep import cli`` adds to a bare
# ``python -I -S`` interpreter (CPython 3.11).  A new one costs start-up
# time in every sweep, so it fails here first.
START_UP_MODULES = {
    "__future__", "_bisect", "_collections", "_collections_abc", "_functools",
    "_json", "_operator", "_random", "_sha512", "_sre", "_stat",
    "argparse", "bisect", "collections", "copyreg", "enum", "functools",
    "genericpath", "gettext", "itertools", "json", "keyword", "math",
    "operator", "os", "posixpath", "random", "re", "reprlib", "stat",
    "types", "warnings", "weylrep",
}


def test_cli_start_up_loads_no_heavy_modules():
    """Start-up time: importing ``weylrep.cli`` and running the default
    sweep in a fresh interpreter loads neither ``dataclasses`` (which
    pulls in ``inspect``) nor ``typing`` nor ``fractions``.  The records
    are ``collections.namedtuple`` subclasses, and only the test oracles
    in ``intmat`` reach for ``Fraction``.  The import itself adds no
    top-level module outside ``START_UP_MODULES``."""
    src = Path(weylrep.__file__).resolve().parents[1]
    code = ("import sys\n"
            "before = {m.partition('.')[0] for m in sys.modules}\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from weylrep import cli\n"
            "added = {m.partition('.')[0] for m in sys.modules} - before\n"
            "import os\n"
            "assert cli.main(['sweep', '--out', os.devnull]) == 0\n"
            "heavy = ('dataclasses', 'inspect', 'fractions', 'typing')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "print(' '.join(sorted(added)))\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    heavy, added = proc.stdout.splitlines()
    assert heavy == "[]"
    assert "weylrep" in added.split()
    assert sorted(set(added.split()) - START_UP_MODULES) == []


def test_bench_selftest_passes():
    """bench/selftest.py runs the harness, its children and the tracer on
    A3 against this checkout: the one check that the tracer's wrappers and
    observers still fit the functions they wrap."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "bench" / "selftest.py")],
                          cwd=root, capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_names_resolve(bench_module):
    """The bench tracer wraps these by name; a rename or deletion fails here
    rather than crashing the traced benchmark."""
    missing = []
    for qualname in bench_module("tracer").TRACED:
        modname, _, attr = qualname.partition(".")
        owner = importlib.import_module(f"weylrep.{modname}")
        if "." in attr:
            clsname, attr = attr.split(".")
            owner = getattr(owner, clsname, None)
        if attr not in vars(owner or object):
            missing.append(qualname)
    assert missing == []
