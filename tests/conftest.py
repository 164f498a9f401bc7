import importlib.util
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest

from weylrep import chevalley, intmat
from weylrep.rootsys import (
    _CODE_REACH,
    _CODE_SHIFT,
    CartanError,
    _norms2,
    cartan_datum,
    root_system,
)


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


# -- the tuple route to a root system, a test oracle ----------------------
#
# Each table the way ``RootSystem`` built it before the closure ran over
# root codes: a closure over coordinate tuples, one sort of all roots by
# (height, coefficients), and every table recomputed root by root.


def _close_positive_roots(cartan, rank) -> set[tuple[int, ...]]:
    """Breadth-first closure of the simple roots under root-string addition."""
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    pos = set(simples)
    layer = list(simples)
    while layer:
        nxt = []
        for r in layer:
            for i in range(rank):
                # q = how far the string continues downward from r
                q = 0
                probe = list(r)
                while True:
                    probe[i] -= 1
                    if tuple(probe) in pos:
                        q += 1
                    else:
                        break
                pair = sum(r[j] * cartan[i][j] for j in range(rank))
                if q - pair >= 1:
                    up = list(r)
                    up[i] += 1
                    t = tuple(up)
                    if t not in pos:
                        pos.add(t)
                        nxt.append(t)
        layer = nxt
    return pos


def _root_codes(roots) -> tuple[int, ...]:
    """sum_i c_i * 128^i for each coordinate tuple, one code per root,
    refusing coefficients whose root-string probes leave (-64, 64)."""
    top = max(abs(c) for r in roots for c in r)
    if _CODE_REACH * top >= 1 << (_CODE_SHIFT - 1):
        raise CartanError(f"root coefficient {top} is outside the root-code window")
    return tuple(sum(c << (_CODE_SHIFT * i) for i, c in enumerate(r)) for r in roots)


def _reference_tables(label, rank) -> dict:
    """Every data attribute of ``root_system(label, rank)`` by the tuple
    route, keyed by attribute name; ``simple_getters``, which are
    functions, are left out."""
    datum = cartan_datum(label, rank)
    cartan = datum.cartan_matrix
    simple_norms = _norms2(label, rank)
    pos = _close_positive_roots(cartan, rank)
    roots = tuple(sorted(pos | {tuple(-c for c in r) for r in pos},
                         key=lambda r: (sum(r), r)))
    nroots = len(roots)
    code = _root_codes(roots)
    cindex = {c: k for k, c in enumerate(code)}
    heights = tuple(sum(r) for r in roots)
    psc = tuple(tuple(sum(map(mul, r, row)) for row in cartan) for r in roots)
    norms2 = tuple(sum(x * n * y for x, n, y in zip(r, simple_norms, p)) // 2
                   for r, p in zip(roots, psc))
    coroots = []
    for r, nb in zip(roots, norms2):
        assert all(x % nb == 0 for x in map(mul, r, simple_norms))
        coroots.append(tuple(x // nb for x in map(mul, r, simple_norms)))
    coroots = tuple(coroots)
    as_perm = bytes if nroots <= 256 else tuple
    steps = [1 << (_CODE_SHIFT * i) for i in range(rank)]
    hi = max(range(nroots), key=lambda k: (heights[k], roots[k]))
    return {
        "cartan_det": datum.validate(),
        "datum": datum,
        "rank": rank,
        "roots": roots,
        "nroots": nroots,
        "npos": len(pos),
        "code": code,
        "code_index": cindex,
        "identity_perm": as_perm(range(nroots)),
        "heights": heights,
        "neg": tuple(cindex[-c] for c in code),
        "_psc": psc,
        "norms2": norms2,
        "coroots": coroots,
        "coroot_masks": tuple(sum((c & 1) << i for i, c in enumerate(co))
                              for co in coroots),
        "highest_root": hi,
        "coxeter_number": heights[hi] + 1,
        "rho_check_twice": tuple(map(sum, zip(*coroots[len(pos):]))),
        "simple_index": tuple(cindex[s] for s in steps),
        "simple_perms": tuple(as_perm(cindex[c - p[i] * s] for c, p in zip(code, psc))
                              for i, s in enumerate(steps)),
    }


@pytest.fixture(scope="session")
def reference_tables():
    """``reference_tables(label, rank)``, the tuple-route oracle for every
    data attribute of a ``RootSystem``."""
    return _reference_tables


# -- the Fraction Gram form, a test oracle -----------------------------


def _form(rs, a, b):
    """The symmetrizing inner product (root_a | root_b), as a Fraction,
    from the Gram matrix (alpha_i|alpha_j) = (alpha_i|alpha_i) C[i][j] / 2."""
    norms2 = _norms2(rs.datum.type_label, rs.rank)
    gram = [[Fraction(n * x, 2) for x in row]
            for n, row in zip(norms2, rs.datum.cartan_matrix)]
    return sum(x * gij * y for x, row in zip(rs.roots[a], gram)
               for gij, y in zip(row, rs.roots[b]))


@pytest.fixture(scope="session")
def form():
    """``form(rs, a, b)``, the Fraction oracle for (root_a | root_b)."""
    return _form


# -- the per-row modular solve, a test oracle ----------------------------


def _per_row_solve_mod(m, snf, b, n):
    """A solution x of m x = b (mod n), or None, the way ``intmat`` solved
    before solves were prepared once per modulus: with the Smith form
    (d, u, v), u m v = d, solve d y = u b one row at a time, recomputing
    gcd(d_i, n) and the inverse of d_i/g mod n/g, then x = v y."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d, u, v = snf
    ub = [sum(map(mul, row, b)) % n for row in u]
    y = [0] * cols
    for i in range(rows):
        di = d[i][i] if i < cols else 0
        if di == 0:
            if ub[i] % n != 0:
                return None
            continue
        g = gcd(di, n)
        if ub[i] % g != 0:
            return None
        ni = n // g
        inv = pow((di // g) % ni, -1, ni) if ni > 1 else 0
        y[i] = ((ub[i] // g) * inv) % n
    x = [sum(map(mul, row, y)) % n for row in v]
    for row, bi in zip(m, b):
        if sum(map(mul, row, x)) % n != bi % n:
            raise AssertionError("oracle produced a bad witness")
    return tuple(x)


@pytest.fixture(scope="session")
def per_row_solve_mod():
    """``per_row_solve_mod(m, snf, b, n)``, the oracle for the prepared
    ``intmat.solve_mod``."""
    return _per_row_solve_mod


# -- the Fraction route to the cocharacter lattices, a test oracle --------
#
# Rational matrix helpers, the tests' ``Fraction`` oracle; ``intmat``
# keeps only ``mat_inv``, which the benchmark traces.


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def mat_det(m):
    """Exact determinant, as a Fraction."""
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


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
        coords = mat_mul([list(vec)], self.basis_inv)[0]
        return all(Fraction(c).denominator == 1 for c in coords)


def _fraction_lattice(rs, name, rows):
    basis = tuple(tuple(Fraction(x) for x in row) for row in rows)
    det = mat_det(basis)
    if det == 0:
        raise ValueError("lattice basis is singular")
    index = Fraction(1) / abs(det)
    if index.denominator != 1:
        raise ValueError("basis does not contain the coroot lattice with finite index")
    binv = tuple(map(tuple, intmat.mat_inv(basis)))
    if any(Fraction(x).denominator != 1 for row in binv for x in row):
        raise ValueError(f"{name}: coroot lattice not contained")
    pairing = [list(col) for col in zip(*mat_mul(basis, rs.datum.cartan_matrix))]
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
