"""Alcove stabilizers, cocharacter lattices, and the R/S partition.

A cocharacter lattice sits between the coroot lattice and the coweight
lattice; its finite quotient by the coroot lattice indexes the stabilizer
of the fundamental alcove.  ``omega_group`` lists the classes of
P^vee / Q^vee once per system; the finite projection of the class of a
minuscule node j is the closed form sigma_j = w_0^{S - {j}} w_0
(Bourbaki, Lie Groups and Lie Algebras, VI.2.3), verified to permute the
affine nodes with the right marks and orbit size.  ``lattice_classes``
picks a lattice's classes from it, and each class builds its R/S
partition once.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import prod
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


class CocharLattice(namedtuple("CocharLattice",
                               "name basis index_in_coroot pairing pairing_row0")):
    """A lattice Y between Q^vee and P^vee, in fundamental-coweight coords.

    Coordinate i of y is <alpha_i, y>, so P^vee is Z^rank, the fundamental
    coweight varpi_j^vee is the unit vector e_j, and the simple coroot
    alpha_j^vee is row j of the Cartan matrix.  ``name`` is a str;
    ``basis`` is the Hermite row basis of Y, int rows in canonical form;
    ``index_in_coroot`` is the order of Y / Q^vee;
    ``pairing[i][k]`` is <alpha_i, basis_k>, its transpose, and
    ``pairing_row0[k]`` is <-theta, basis_k>, the row of the affine node
    alpha_0 = delta - theta.  The lattice is factored once:
    ``pairing_row0`` is kept from construction, and ``pairing_snf`` and
    one prepared solver per modulus (``mod_solver``) are built on first
    use (so the record keeps an instance dict, which a ``_replace`` copy
    starts without).
    """

    @cached_property
    def pairing_snf(self):
        """``intmat.smith_normal_form(pairing)``, for every solve on this lattice."""
        return intmat.smith_normal_form(self.pairing)

    @cached_property
    def _mod_solvers(self):
        return {}

    def mod_solver(self, n: int):
        """``intmat.prepare_mod`` of the pairing mod n, built once per n."""
        solver = self._mod_solvers.get(n)
        if solver is None:
            solver = self._mod_solvers[n] = intmat.prepare_mod(
                self.pairing, self.pairing_snf, n)
        return solver


def _make_lattice(rs: RootSystem, name: str, extra_rows=()) -> CocharLattice:
    """Q^vee, spanned by the rows of the Cartan matrix, together with
    ``extra_rows``, integer rows in coweight coordinates."""
    for row in extra_rows:
        if any(x.denominator != 1 for x in row):
            raise ValueError(f"{name}: not contained in the coweight lattice")
    rows = intmat.hermite_row_basis([*rs.datum.cartan_matrix, *extra_rows])
    # |P^vee / Q^vee| = det C, and the square Hermite basis has its pivots
    # on the diagonal, so their product is |P^vee / Y|
    index, rem = divmod(rs.cartan_det, prod(row[i] for i, row in enumerate(rows)))
    if rem:
        raise ValueError(f"{name}: coroot lattice not contained")
    basis = tuple(map(tuple, rows))
    theta = rs.roots[rs.highest_root]
    row0 = tuple(-sum(map(mul, theta, row)) for row in basis)
    return CocharLattice(name, basis, index, tuple(zip(*basis)), row0)


def marks(rs: RootSystem) -> tuple[int, ...]:
    """Coefficients of the highest root on the simple roots."""
    return rs.roots[rs.highest_root]


def minuscule_nodes(rs: RootSystem) -> tuple[int, ...]:
    """1-based nodes whose highest-root coefficient is 1."""
    return tuple(i + 1 for i, m in enumerate(marks(rs)) if m == 1)


def _unit(rs: RootSystem, node: int) -> tuple[int, ...]:
    """The fundamental coweight of a 1-based node."""
    return tuple(int(i == node - 1) for i in range(rs.rank))


def simply_connected_lattice(rs: RootSystem) -> CocharLattice:
    return _make_lattice(rs, "simply-connected")


def adjoint_lattice(rs: RootSystem) -> CocharLattice:
    return _make_lattice(rs, "adjoint",
                         [_unit(rs, j) for j in range(1, rs.rank + 1)])


def vector_lattice(rs: RootSystem) -> CocharLattice:
    """Type D: coroot lattice extended by the first fundamental coweight."""
    if rs.datum.type_label != "D":
        raise ValueError("vector lattice only defined for type D")
    return _make_lattice(rs, "SO", [_unit(rs, 1)])


def half_spin_lattice(rs: RootSystem, node: int) -> CocharLattice:
    """Type D, even rank: coroot lattice extended by a spin coweight."""
    if rs.datum.type_label != "D" or rs.rank % 2 != 0:
        raise ValueError("half-spin lattices require type D of even rank")
    if node not in (rs.rank - 1, rs.rank):
        raise ValueError("spin node must be rank-1 or rank")
    return _make_lattice(rs, f"half-spin-{node}", [_unit(rs, node)])


def type_a_quotient_lattice(rs: RootSystem, m: int) -> CocharLattice:
    """Type A_{n-1}: the lattice with quotient Z/m, m dividing n."""
    if rs.datum.type_label != "A":
        raise ValueError("quotient lattices only defined for type A")
    n = rs.rank + 1
    if n % m != 0:
        raise ValueError(f"{m} does not divide {n}")
    gen = [x * (n // m) for x in _unit(rs, 1)]
    return _make_lattice(rs, f"SL{n}/mu{m}", [gen])


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
    """Membership of an integer coweight (fundamental-coweight coords):
    reduce it by the Hermite rows, pivot by pivot, down to zero."""
    vec = list(vec)
    for i, row in enumerate(lat.basis):
        f, rem = divmod(vec[i], row[i])
        if rem:
            return False
        vec = [x - f * y for x, y in zip(vec, row)]
    return True


# -- alcove stabilizer -------------------------------------------------


class OmegaElement(namedtuple("OmegaElement",
                              "class_node class_rep sigma diagram_perm")):
    """One class of (lattice)/Q^vee with its finite-Weyl projection.

    ``class_node`` is the minuscule node representing the class (None for
    the identity class), ``class_rep`` its fundamental coweight, the int
    unit vector e_node in coweight coordinates (zero for the identity),
    ``sigma`` the projection, a WeylElement, and ``diagram_perm`` the
    induced permutation of the affine nodes 0..rank.  ``partition`` is
    built on first use (so the record keeps an instance dict).
    """

    def order(self) -> int:
        return _perm_order(self.diagram_perm)

    @cached_property
    def partition(self) -> SigmaRSDatum:
        """``sigma_rs(self)``, built once; a failure is raised on every read."""
        return sigma_rs(self)


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


def omega_group(rs: RootSystem) -> tuple[OmegaElement, ...]:
    """One element per class of P^vee / Q^vee, the adjoint lattice's.

    Nonzero classes are represented by the minuscule fundamental
    coweights; each projection is post-verified to permute the affine
    simple gradients with the right marks and orbit size, and the
    pairing conditions that make the affine transformation an alcove
    stabilizer are checked exactly.  Since W's image of the stabilizer
    acts simply transitively on the special nodes, these checks and the
    class count, det C, pin every projection uniquely.
    """
    ident = OmegaElement(None, (0,) * rs.rank, weyl_identity(rs),
                         tuple(range(rs.rank + 1)))
    out = [ident]
    w0 = longest_element(rs)
    for node in minuscule_nodes(rs):
        rest = [i for i in range(1, rs.rank + 1) if i != node]
        sigma = longest_element(rs, rest) * w0  # sigma_j = w_0^{S - {j}} w_0
        perm = diagram_permutation(rs, sigma)
        _verify_omega(rs, node, sigma, perm)
        out.append(OmegaElement(node, _unit(rs, node), sigma, perm))
    return _counted("adjoint", out, rs.cartan_det)


def lattice_classes(lat: CocharLattice,
                    group: tuple[OmegaElement, ...]) -> tuple[OmegaElement, ...]:
    """The classes of ``group``, the system's ``omega_group``, that lie
    in ``lat``, in the same order: one per class of lat / Q^vee."""
    return _counted(lat.name, [om for om in group
                               if lattice_contains(lat, om.class_rep)],
                    lat.index_in_coroot)


def _counted(name: str, classes, index: int) -> tuple[OmegaElement, ...]:
    if len(classes) != index:
        raise AssertionError(
            f"{name}: found {len(classes)} classes, lattice index is {index}")
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


class SigmaRSDatum(namedtuple("SigmaRSDatum",
                              "w r_root s_root parts triples fiber_sizes")):
    """Coefficient partition of the positive roots for an order >= 3
    stabilizer projection, with the additive triples between the parts.

    ``w`` is the projection, a WeylElement; ``r_root`` and ``s_root`` are
    root indices; ``parts`` is four frozensets of root indices, the
    (R, S)-coefficient parts (0,0), (0,1), (1,0) and (1,1); ``triples``
    holds every root-index triple (a, b, a + b) with a in the (0,1) part
    and b in the (1,0) part; ``fiber_sizes`` is the three int sizes of
    the constant fibers of its projections.
    """

    __slots__ = ()


def sigma_rs(om: OmegaElement) -> SigmaRSDatum:
    """Partition positive roots by their R- and S-coefficients.

    Requires a class of order at least 3; for order <= 2 the flip set is
    the full inversion set and the first-difference identity already
    covers it.  The class's diagram permutation sends R to node 0 and S
    to R.  Read it through ``om.partition``, which builds it once.
    """
    order = om.order()
    if order < 3:
        raise ValueError(f"|w| = {order} < 3: no R/S partition exists")
    w, perm = om.sigma, om.diagram_perm
    rs = w.rs
    r_node = perm.index(0)
    s_node = perm.index(r_node)
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

    sum_index = rs.sum_index
    p10_sorted = sorted(p10)
    triples = []
    for a in sorted(p01):
        for b in p10_sorted:
            g = sum_index(a, b)
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


def flip_sum_at_r(om: OmegaElement) -> int:
    """F_w at the simple root R sent to the lowest root by w = om.sigma."""
    if om.order() < 2:
        raise ValueError("identity projection has no distinguished simple root")
    w = om.sigma
    return flip_functional(w, w, w.rs.simple_index[om.diagram_perm.index(0) - 1])


def check_flip_sum_even(om: OmegaElement) -> bool:
    """F_w(R) lands in 2Z; cross-computed per the order of w.

    Involutions flip their whole inversion set, so F_w(R) equals the
    height drop 1 - (1 - h) = h there; higher orders go through the
    R/S partition where the cleared identity forces 2 * (third fiber).
    """
    val = flip_sum_at_r(om)
    if om.order() == 2:
        if val != om.sigma.rs.coxeter_number:
            raise AssertionError("involution flip sum differs from the Coxeter number")
    elif val != 2 * om.partition.fiber_sizes[2]:
        raise AssertionError("flip sum differs from twice the fiber size")
    return val % 2 == 0
