"""The records are ``collections.namedtuple`` subclasses: they keep the
value semantics of frozen records, and the two that cache a derived
table still build it once."""

import pytest

from weylrep import affine, intmat
from weylrep.affine import CocharLattice, OmegaElement, SigmaRSDatum
from weylrep.chevalley import DependenceRelation, ScalarTable, StructureConstantTable
from weylrep.fixer import (
    ConnectingCharacter,
    FixerSystem,
    GenericFunctional,
    ObstructionClass,
    UnitGroup,
)
from weylrep.rootsys import CartanDatum, root_system
from weylrep.tits import TitsElement
from weylrep.weyl import simple_reflection

RS = root_system("A", 2)
W = simple_reflection(RS, 1)
LATTICE = affine.adjoint_lattice(RS)
OMEGA = affine.omega_group(RS)[1]  # of order 3, so it has an R/S partition

# one value per field, in field order
RECORDS = [
    (CartanDatum, {"type_label": "A", "rank": 2,
                   "cartan_matrix": ((2, -1), (-1, 2))}),
    (TitsElement, {"bits": 1, "weyl": W}),
    (CocharLattice, dict(zip(CocharLattice._fields, LATTICE))),
    (OmegaElement, dict(zip(OmegaElement._fields, OMEGA))),
    (SigmaRSDatum, {"w": W, "r_root": 3, "s_root": 4,
                    "parts": (frozenset(), frozenset({4}), frozenset({3}),
                              frozenset({5})),
                    "triples": ((4, 3, 5),), "fiber_sizes": (1, 1, 1),
                    "flip_coroot_sum": (0, 1)}),
    (StructureConstantTable, {"rs": RS, "convention_id": "extraspecial",
                              "n": {(3, 4): 1}}),
    (ScalarTable, {"rs": RS, "convention_id": "extraspecial",
                   "signed_perm": (((1, -1), (0, 1)),)}),
    (DependenceRelation, {"terms": ((1, 0), (1, 3), (1, 4))}),
    (UnitGroup, {"order": 12}),
    (GenericFunctional, {"values": (0, 1, 5)}),
    (FixerSystem, {"rs": RS, "lattice": LATTICE, "omega": OMEGA,
                   "units": UnitGroup(12), "targets": (0, 1, 11)}),
    (ConnectingCharacter, {"coeffs": (1, 2), "d": 3}),
    (ObstructionClass, {"value": 1, "modulus": 3, "d": 3}),
]

# record -> (cached table, the module and function that build it)
CACHED = {CocharLattice: ("pairing_snf", intmat, "smith_normal_form"),
          OmegaElement: ("partition", affine, "sigma_rs")}


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_record_value_semantics(cls, fields, monkeypatch):
    assert cls._fields == tuple(fields)
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and a is not b
    assert a != cls(*fields.values())._replace(**{cls._fields[0]: "other"})
    try:
        hash(tuple(fields.values()))
    except TypeError:  # a dict field: unhashable, as in any frozen record
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == cls.__name__ + "(" + ", ".join(
        f"{k}={v!r}" for k, v in fields.items()) + ")"
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        assert getattr(a, name) is fields[name]
    # only the records that cache a derived table keep an instance dict
    assert hasattr(a, "__dict__") == (cls in CACHED)
    if cls in CACHED:
        attr, owner, builder = CACHED[cls]
        calls = _count_calls(monkeypatch, owner, builder)
        first = getattr(a, attr)
        assert getattr(a, attr) is first and len(calls) == 1
        assert a == b and hash(a) == hash(b)  # the cached table is no field
        # a copy starts without the table and builds an equal one
        assert getattr(a._replace(), attr) == first and len(calls) == 2

