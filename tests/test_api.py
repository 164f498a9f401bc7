import ast
import importlib
import importlib.util
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


@pytest.mark.parametrize("module", ["chevalley", "affine", "fixer"])
def test_module_does_not_import_fractions(module):
    """These layers are integral: the Chevalley constants, ad(e) and its
    divided powers are ints, and so are the cocharacter lattices, in
    fundamental-coweight coordinates, and their connecting characters;
    ``fractions`` has no place there."""
    path = Path(weylrep.__file__).parent / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    assert [m for m in imported if m.split(".")[0] == "fractions"] == []


def _bench_tracer(monkeypatch):
    """bench/tracer.py, imported from its file without writing bytecode."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve(monkeypatch):
    """The bench tracer wraps these by name; a rename or deletion fails here
    rather than crashing the traced benchmark."""
    missing = []
    for qualname in _bench_tracer(monkeypatch).TRACED:
        modname, _, attr = qualname.partition(".")
        owner = importlib.import_module(f"weylrep.{modname}")
        if "." in attr:
            clsname, attr = attr.split(".")
            owner = getattr(owner, clsname, None)
        if attr not in vars(owner or object):
            missing.append(qualname)
    assert missing == []
