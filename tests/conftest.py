import importlib.util
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from weylrep import chevalley, intmat
from weylrep.rootsys import root_system


@pytest.fixture
def bench_module(monkeypatch):
    """Import a module of bench/ by name from its file, writing no bytecode."""
    def load(name):
        path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
        mod = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, mod)  # for its dataclasses
        spec.loader.exec_module(mod)
        return mod

    return load


@pytest.fixture(scope="session")
def get_rs():
    cache = {}

    def get(label, rank):
        key = (label, rank)
        if key not in cache:
            cache[key] = root_system(label, rank)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def get_scalars(get_rs):
    """Cached default-convention constants and scalar tables per type."""
    cache = {}

    def get(label, rank):
        key = (label, rank)
        if key not in cache:
            rs = get_rs(label, rank)
            table = chevalley.build_constants(rs)
            cache[key] = (table, chevalley.scalar_table(table))
        return cache[key]

    return get


# -- the Fraction route to the cocharacter lattices, a test oracle --------
#
# Each lattice the way it was built before lattices were integer: a
# Fraction basis in simple-coroot coordinates, kept with its inverse.
# ``affine`` now holds the Hermite rows in fundamental-coweight
# coordinates, which are this basis times the Cartan matrix up to a
# change of basis.


@dataclass(frozen=True)
class FractionLattice:
    name: str
    basis: tuple[tuple[Fraction, ...], ...]
    basis_inv: tuple[tuple[Fraction, ...], ...]  # rows: simple coroots in this basis
    index_in_coroot: int
    pairing: tuple[tuple[int, ...], ...]  # pairing[i][k] = <alpha_i, basis_k>

    def contains(self, vec) -> bool:
        """Membership of a rational coweight in simple-coroot coordinates."""
        coords = intmat.mat_mul([list(vec)], self.basis_inv)[0]
        return all(Fraction(c).denominator == 1 for c in coords)


def _fraction_lattice(rs, name, rows):
    basis = tuple(tuple(Fraction(x) for x in row) for row in rows)
    det = intmat.mat_det(basis)
    if det == 0:
        raise ValueError("lattice basis is singular")
    index = Fraction(1) / abs(det)
    if index.denominator != 1:
        raise ValueError("basis does not contain the coroot lattice with finite index")
    binv = tuple(map(tuple, intmat.mat_inv(basis)))
    if any(Fraction(x).denominator != 1 for row in binv for x in row):
        raise ValueError(f"{name}: coroot lattice not contained")
    pairing = [list(col) for col in zip(*intmat.mat_mul(basis, rs.datum.cartan_matrix))]
    if any(x.denominator != 1 for row in pairing for x in row):
        raise ValueError(f"{name}: not contained in the coweight lattice")
    pairing = tuple(tuple(int(x) for x in row) for row in pairing)
    return FractionLattice(name, basis, binv, int(index), pairing)


def _hermite_rows(rows):
    """Hermite row basis of the lattice spanned by rational rows."""
    denom = lcm(*(Fraction(x).denominator for r in rows for x in r))
    scaled = [[int(x * denom) for x in r] for r in rows]
    return [[Fraction(x, denom) for x in r] for r in intmat.hermite_row_basis(scaled)]


def _span_with(rs, name, extra_rows):
    """Q^vee together with the given rational rows (simple-coroot coords)."""
    rows = [[Fraction(int(i == j)) for j in range(rs.rank)] for i in range(rs.rank)]
    return _fraction_lattice(rs, name, _hermite_rows(rows + list(extra_rows)))


def _fraction_lattices(rs):
    """Every lattice between Q^vee and P^vee, in ``affine.all_lattices``
    order; the adjoint basis is the fundamental coweights, the rows of
    the inverse Cartan matrix."""
    cw = tuple(map(tuple, intmat.mat_inv(rs.datum.cartan_matrix)))
    lbl, n = rs.datum.type_label, rs.rank
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    out = [_fraction_lattice(rs, "simply-connected", eye)]
    if lbl == "A":
        out += [_span_with(rs, f"SL{n + 1}/mu{m}", [[x * ((n + 1) // m) for x in cw[0]]])
                for m in range(2, n + 1) if (n + 1) % m == 0]
    elif lbl == "D":
        out.append(_span_with(rs, "SO", [cw[0]]))
        if n % 2 == 0:
            out += [_span_with(rs, f"half-spin-{k}", [cw[k - 1]]) for k in (n - 1, n)]
    if lbl in "ABCD" or (lbl == "E" and n in (6, 7)):
        out.append(_fraction_lattice(rs, "adjoint", cw))
    return tuple(out)


@pytest.fixture(scope="session")
def get_fraction_lattices(get_rs):
    """Cached Fraction-route lattices per type, in ``all_lattices`` order."""
    cache = {}

    def get(label, rank):
        key = (label, rank)
        if key not in cache:
            cache[key] = _fraction_lattices(get_rs(label, rank))
        return cache[key]

    return get
