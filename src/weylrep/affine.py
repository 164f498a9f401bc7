"""Alcove stabilizers, cocharacter lattices, and the R/S partition.

A cocharacter lattice sits between the coroot lattice and the coweight
lattice; its finite quotient by the coroot lattice indexes the stabilizer
of the fundamental alcove.  The finite projection of the class of a
minuscule node j is the closed form sigma_j = w_0^{S - {j}} w_0
(Bourbaki, Lie Groups and Lie Algebras, VI.2.3), verified to permute the
affine nodes with the right marks and orbit size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from . import intmat
from .rootsys import RootSystem
from .weyl import (
    WeylElement,
    flip_functional,
    identity as weyl_identity,
    inversion_set,
    longest_element,
)

__all__ = [
    "CocharLattice",
    "simply_connected_lattice",
    "adjoint_lattice",
    "vector_lattice",
    "half_spin_lattice",
    "type_a_quotient_lattice",
    "all_lattices",
    "marks",
    "minuscule_nodes",
    "OmegaElement",
    "omega_group",
    "lattice_classes",
    "affine_nodes",
    "diagram_permutation",
    "SigmaRSDatum",
    "sigma_rs",
    "check_second_difference",
    "flip_sum_at_r",
    "check_flip_sum_even",
]


# -- lattices ----------------------------------------------------------


@dataclass(frozen=True)
class CocharLattice:
    """A lattice between Q^vee and P^vee, by a basis in simple-coroot coords.

    ``pairing[i][k]`` is the integer <alpha_i, basis_k>, and
    ``pairing_row0[k]`` is <-theta, basis_k>, the row of the affine node
    alpha_0 = delta - theta.  The lattice is factored once: ``basis_inv``
    and ``pairing_row0`` are kept from construction, and ``pairing_snf``
    is built on first use.
    """

    name: str
    basis: tuple[tuple[Fraction, ...], ...]
    basis_inv: tuple[tuple[Fraction, ...], ...]  # rows: simple coroots in this basis
    index_in_coroot: int  # order of (this lattice) / Q^vee
    pairing: tuple[tuple[int, ...], ...]
    pairing_row0: tuple[int, ...]

    @cached_property
    def pairing_snf(self):
        """``intmat.smith_normal_form(pairing)``, for every solve on this lattice."""
        return intmat.smith_normal_form(self.pairing)


def _make_lattice(rs: RootSystem, name: str, rows) -> CocharLattice:
    basis = tuple(tuple(Fraction(x) for x in row) for row in rows)
    det = intmat.mat_det([list(r) for r in basis])
    if det == 0:
        raise ValueError("lattice basis is singular")
    index = Fraction(1) / abs(det)
    if index.denominator != 1:
        raise ValueError("basis does not contain the coroot lattice with finite index")
    binv = tuple(map(tuple, intmat.mat_inv(basis)))
    for row in binv:  # Q^vee inside: e_i in integer span of basis
        for x in row:
            if Fraction(x).denominator != 1:
                raise ValueError(f"{name}: coroot lattice not contained")
    cartan = rs.datum.cartan_matrix
    rank = rs.rank
    pairing = [[sum(basis[k][j] * cartan[j][i] for j in range(rank))
                for k in range(rank)] for i in range(rank)]
    for row in pairing:  # inside P^vee: pairings with simple roots integral
        for x in row:
            if x.denominator != 1:
                raise ValueError(f"{name}: not contained in the coweight lattice")
    pairing = tuple(tuple(int(x) for x in row) for row in pairing)
    theta = rs.roots[rs.highest_root]
    row0 = tuple(-sum(map(mul, theta, col)) for col in zip(*pairing))
    return CocharLattice(name, basis, binv, int(index), pairing, row0)


def marks(rs: RootSystem) -> tuple[int, ...]:
    """Coefficients of the highest root on the simple roots."""
    return rs.roots[rs.highest_root]


def minuscule_nodes(rs: RootSystem) -> tuple[int, ...]:
    """1-based nodes whose highest-root coefficient is 1."""
    return tuple(i + 1 for i, m in enumerate(marks(rs)) if m == 1)


def simply_connected_lattice(rs: RootSystem) -> CocharLattice:
    eye = [[int(i == j) for j in range(rs.rank)] for i in range(rs.rank)]
    return _make_lattice(rs, "simply-connected", eye)


def adjoint_lattice(rs: RootSystem) -> CocharLattice:
    return _make_lattice(rs, "adjoint", rs.fundamental_coweights)


def _span_with(rs: RootSystem, name: str, extra_rows) -> CocharLattice:
    """Lattice generated by Q^vee together with the given rational rows."""
    rows = [[Fraction(int(i == j)) for j in range(rs.rank)] for i in range(rs.rank)]
    rows += [[Fraction(x) for x in r] for r in extra_rows]
    return _make_lattice(rs, name, _hermite_rows(rows))


def _hermite_rows(rows) -> list[list[Fraction]]:
    """Hermite row basis of the lattice spanned by rational rows."""
    denom = lcm(*(x.denominator for r in rows for x in r))
    scaled = [[int(x * denom) for x in r] for r in rows]
    return [[Fraction(x, denom) for x in r] for r in intmat.hermite_row_basis(scaled)]


def vector_lattice(rs: RootSystem) -> CocharLattice:
    """Type D: coroot lattice extended by the first fundamental coweight."""
    if rs.datum.type_label != "D":
        raise ValueError("vector lattice only defined for type D")
    cw = rs.fundamental_coweights
    return _span_with(rs, "SO", [cw[0]])


def half_spin_lattice(rs: RootSystem, node: int) -> CocharLattice:
    """Type D, even rank: coroot lattice extended by a spin coweight."""
    if rs.datum.type_label != "D" or rs.rank % 2 != 0:
        raise ValueError("half-spin lattices require type D of even rank")
    if node not in (rs.rank - 1, rs.rank):
        raise ValueError("spin node must be rank-1 or rank")
    cw = rs.fundamental_coweights
    return _span_with(rs, f"half-spin-{node}", [cw[node - 1]])


def type_a_quotient_lattice(rs: RootSystem, m: int) -> CocharLattice:
    """Type A_{n-1}: the lattice with quotient Z/m, m dividing n."""
    if rs.datum.type_label != "A":
        raise ValueError("quotient lattices only defined for type A")
    n = rs.rank + 1
    if n % m != 0:
        raise ValueError(f"{m} does not divide {n}")
    cw = rs.fundamental_coweights
    gen = [x * (n // m) for x in cw[0]]
    return _span_with(rs, f"SL{n}/mu{m}", [gen])


def all_lattices(rs: RootSystem) -> tuple[CocharLattice, ...]:
    """Every lattice between Q^vee and P^vee, simply-connected first."""
    out = [simply_connected_lattice(rs)]
    lbl, n = rs.datum.type_label, rs.rank
    if lbl == "A":
        # proper divisors m of n+1 give the strictly intermediate lattices;
        # m = n+1 itself is the adjoint lattice appended below
        for m in range(2, n + 1):
            if (n + 1) % m == 0:
                out.append(type_a_quotient_lattice(rs, m))
        out.append(adjoint_lattice(rs))
    elif lbl in ("B", "C"):
        out.append(adjoint_lattice(rs))
    elif lbl == "D":
        out.append(vector_lattice(rs))
        if n % 2 == 0:
            out.append(half_spin_lattice(rs, n - 1))
            out.append(half_spin_lattice(rs, n))
        out.append(adjoint_lattice(rs))
    elif lbl == "E" and n in (6, 7):
        out.append(adjoint_lattice(rs))
    # E8, F4, G2: coweight lattice equals coroot lattice already
    return tuple(out)


def lattice_contains(lat: CocharLattice, vec) -> bool:
    """Membership of a rational coweight (simple-coroot coords)."""
    binv = lat.basis_inv
    coords = [sum(Fraction(vec[j]) * binv[j][k] for j in range(len(vec)))
              for k in range(len(vec))]
    return all(c.denominator == 1 for c in coords)


# -- alcove stabilizer -------------------------------------------------


@dataclass(frozen=True)
class OmegaElement:
    """One class of (lattice)/Q^vee with its finite-Weyl projection.

    ``class_node`` is the minuscule node representing the class (None for
    the identity class), ``class_rep`` the corresponding coweight, and
    ``diagram_perm`` the induced permutation of the affine nodes 0..rank.
    """

    class_node: int | None
    class_rep: tuple[Fraction, ...]
    sigma: WeylElement
    diagram_perm: tuple[int, ...]

    def order(self) -> int:
        return _perm_order(self.diagram_perm)


def _perm_order(perm) -> int:
    n = 1
    cur = list(perm)
    ident = list(range(len(perm)))
    while cur != ident:
        cur = [perm[k] for k in cur]
        n += 1
    return n


def affine_nodes(rs: RootSystem) -> tuple[tuple[int, int], ...]:
    """(mark, gradient root index) of the affine nodes 0..rank: the terms
    of the relation 1 * (-theta) + sum_i m_i * alpha_i = 0."""
    grads = (rs.neg[rs.highest_root],) + rs.simple_index
    return tuple(zip((1,) + marks(rs), grads))


def diagram_permutation(rs: RootSystem, w: WeylElement) -> tuple[int, ...] | None:
    """Permutation of affine nodes induced by w, or None if w moves them out."""
    grads = [g for _, g in affine_nodes(rs)]
    pos = {g: i for i, g in enumerate(grads)}
    perm = []
    for g in grads:
        img = w.perm[g]
        if img not in pos:
            return None
        perm.append(pos[img])
    return tuple(perm)


def _sigma_for_node(rs: RootSystem, node: int, w0: WeylElement):
    """sigma_j = w_0^{S - {j}} w_0 for a minuscule node j, with the
    affine-node permutation it induces (None if it induces none)."""
    rest = [i for i in range(1, rs.rank + 1) if i != node]
    sigma = longest_element(rs, rest) * w0
    return sigma, diagram_permutation(rs, sigma)


def omega_group(rs: RootSystem, lat: CocharLattice) -> tuple[OmegaElement, ...]:
    """One element per class of lat / Q^vee.

    Nonzero classes are represented by the minuscule fundamental
    coweights lying in the lattice; each projection is post-verified to
    permute the affine simple gradients with the right marks and orbit
    size, and the pairing conditions that make the affine transformation
    an alcove stabilizer are checked exactly.  Since W's image of the
    stabilizer acts simply transitively on the special nodes, these
    checks and the class count pin every projection uniquely.
    """
    zero = tuple(Fraction(0) for _ in range(rs.rank))
    ident = OmegaElement(None, zero, weyl_identity(rs),
                         tuple(range(rs.rank + 1)))
    out = [ident]
    cw = rs.fundamental_coweights
    w0 = longest_element(rs)
    for node in minuscule_nodes(rs):
        rep = cw[node - 1]
        if not lattice_contains(lat, rep):
            continue
        sigma, perm = _sigma_for_node(rs, node, w0)
        _verify_omega(rs, node, sigma, perm)
        out.append(OmegaElement(node, tuple(rep), sigma, perm))
    return _counted(lat, out)


def lattice_classes(lat: CocharLattice,
                    group: tuple[OmegaElement, ...]) -> tuple[OmegaElement, ...]:
    """The classes of ``group``, the adjoint lattice's ``omega_group``,
    that lie in ``lat``: ``omega_group`` of ``lat``, in the same order,
    without building and verifying the projections again."""
    return _counted(lat, [om for om in group
                          if lattice_contains(lat, om.class_rep)])


def _counted(lat: CocharLattice, classes) -> tuple[OmegaElement, ...]:
    if len(classes) != lat.index_in_coroot:
        raise AssertionError(
            f"{lat.name}: found {len(classes)} classes, lattice index is "
            f"{lat.index_in_coroot}")
    return tuple(classes)


def _verify_omega(rs, node, sigma, perm) -> None:
    if perm is None:
        raise AssertionError("projection does not permute the affine gradients")
    affine_marks = [m for m, _ in affine_nodes(rs)]
    for j in range(rs.rank + 1):
        if affine_marks[perm[j]] != affine_marks[j]:
            raise AssertionError("marks not preserved by the diagram permutation")
    # alcove stabilization: translation part pairs to 0 on every simple
    # image, to 1 on the highest root (both reduce to perm[0] == node for
    # a fundamental coweight, and to mark 1 at the node)
    if perm[0] != node or affine_marks[node] != 1:
        raise AssertionError("class representative does not stabilize the alcove")
    orbit = {0}
    j = perm[0]
    while j != 0:
        orbit.add(j)
        j = perm[j]
    if sigma.order() != len(orbit):
        raise AssertionError("order differs from the affine-node orbit size")


# -- the R/S coefficient partition ------------------------------------


@dataclass(frozen=True)
class SigmaRSDatum:
    """Coefficient partition of the positive roots for an order >= 3
    stabilizer projection, with the additive triples between the parts."""

    w: WeylElement
    r_root: int
    s_root: int
    parts: tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]
    triples: tuple[tuple[int, int, int], ...]
    fiber_sizes: tuple[int, int, int]


def sigma_rs(rs: RootSystem, w: WeylElement) -> SigmaRSDatum:
    """Partition positive roots by their R- and S-coefficients.

    Requires w to permute the affine gradients with order at least 3;
    for order <= 2 the flip set is the full inversion set and the
    first-difference identity already covers it.
    """
    perm = diagram_permutation(rs, w)
    if perm is None:
        raise ValueError("w does not permute the affine simple gradients")
    order = _perm_order(perm)
    if order < 3:
        raise ValueError(f"|w| = {order} < 3: no R/S partition exists")
    r_node = next(j for j in range(1, rs.rank + 1) if perm[j] == 0)
    s_node = next(j for j in range(1, rs.rank + 1) if perm[j] == r_node)
    r_root = rs.simple_index[r_node - 1]
    s_root = rs.simple_index[s_node - 1]
    if w.perm[s_root] != r_root or w.perm[r_root] != rs.neg[rs.highest_root]:
        raise AssertionError("R/S location disagrees with the action")

    ri, si = r_node - 1, s_node - 1
    parts = {(0, 0): [], (0, 1): [], (1, 0): [], (1, 1): []}
    for k in rs.positive_indices():
        c = rs.roots[k]
        if c[ri] not in (0, 1) or c[si] not in (0, 1):
            raise AssertionError("R/S coefficients escape {0,1} on a positive root")
        parts[(c[ri], c[si])].append(k)

    p00, p01, p10, p11 = (frozenset(parts[k]) for k in ((0, 0), (0, 1), (1, 0), (1, 1)))
    inv = inversion_set(w)
    if inv != p10 | p11:
        raise AssertionError("inversion set is not the R-coefficient-1 half")
    from .weyl import flip_set
    if flip_set(w, w) != p10:
        raise AssertionError("flip set is not the (1,0) part")
    _check_extremal(rs, p01, s_root, minimal=True)
    _check_extremal(rs, p10, r_root, minimal=True)
    _check_extremal(rs, p11, rs.highest_root, minimal=False)

    index = rs.index
    roots = rs.roots
    triples = []
    for a in sorted(p01):
        ca = roots[a]
        for b in sorted(p10):
            cb = roots[b]
            g = index.get(tuple(x + y for x, y in zip(ca, cb)))
            if g is not None:
                if g not in p11:
                    raise AssertionError("triple sum escaped the (1,1) part")
                triples.append((a, b, g))

    fibers = []
    for pos, part in ((0, p01), (1, p10), (2, p11)):
        counts = {k: 0 for k in part}
        for t in triples:
            counts[t[pos]] += 1
        sizes = set(counts.values())
        if len(sizes) != 1:
            raise AssertionError(f"projection {pos} has non-constant fibers: {counts}")
        fibers.append(sizes.pop())

    return SigmaRSDatum(w, r_root, s_root, (p00, p01, p10, p11),
                        tuple(triples), tuple(fibers))


def _check_extremal(rs, part, ext, minimal: bool) -> None:
    if ext not in part:
        raise AssertionError("extremal element missing from its part")
    for k in part:
        diff = [x - y for x, y in zip(rs.roots[k], rs.roots[ext])]
        if minimal and any(c < 0 for c in diff):
            raise AssertionError("claimed minimal element is not minimal")
        if not minimal and any(c > 0 for c in diff):
            raise AssertionError("claimed maximal element is not maximal")


def check_second_difference(datum: SigmaRSDatum, a: int) -> bool:
    """Cleared-denominator identity for the flip-set functional.

    h * F_w(a) == c * [ht(a) - 2 ht(w(a)) + ht(w^2(a))], with F_w summed
    over the (1,0) part, c the third fiber size; also re-asserts the
    fiber-size relations that come with it.
    """
    rs = datum.w.rs
    fa, fb, fc = datum.fiber_sizes
    if fa != fc or fa + fb + fc != rs.coxeter_number:
        return False
    fw = sum(map(mul, rs._psc[a], rs.coroot_sum(datum.parts[2])))
    w = datum.w
    wa = w.perm[a]
    w2a = w.perm[wa]
    h = rs.coxeter_number
    rhs = fc * (rs.heights[a] - 2 * rs.heights[wa] + rs.heights[w2a])
    return h * fw == rhs


def _r_root_of(rs: RootSystem, w: WeylElement) -> int:
    perm = diagram_permutation(rs, w)
    if perm is None:
        raise ValueError("w does not permute the affine simple gradients")
    if _perm_order(perm) < 2:
        raise ValueError("identity projection has no distinguished simple root")
    r_node = next(j for j in range(1, rs.rank + 1) if perm[j] == 0)
    return rs.simple_index[r_node - 1]


def flip_sum_at_r(rs: RootSystem, w: WeylElement) -> int:
    """F_w at the simple root R sent to the lowest root by w."""
    return flip_functional(w, w, _r_root_of(rs, w))


def check_flip_sum_even(rs: RootSystem, w: WeylElement) -> bool:
    """F_w(R) lands in 2Z; cross-computed per the order of w.

    Involutions flip their whole inversion set, so F_w(R) equals the
    height drop 1 - (1 - h) = h there; higher orders go through the
    R/S partition where the cleared identity forces 2 * (third fiber).
    """
    val = flip_sum_at_r(rs, w)
    perm = diagram_permutation(rs, w)
    order = _perm_order(perm)
    if order == 2:
        if val != rs.coxeter_number:
            raise AssertionError("involution flip sum differs from the Coxeter number")
    else:
        datum = sigma_rs(rs, w)
        if val != 2 * datum.fiber_sizes[2]:
            raise AssertionError("flip sum differs from twice the fiber size")
    return val % 2 == 0
