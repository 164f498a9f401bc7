import ast
import importlib
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
