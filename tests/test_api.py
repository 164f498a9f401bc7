import importlib

import pytest

# cli defines no __all__; every other module does.
MODULES = ["weylrep"] + [f"weylrep.{m}" for m in
                         ("rootsys", "weyl", "tits", "affine", "chevalley",
                          "fixer", "intmat")]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    mod = importlib.import_module(name)
    exported = mod.__all__
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(mod, x)] == []
