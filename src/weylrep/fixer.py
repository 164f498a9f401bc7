"""Residue-field solvability of the character-fixing torus system.

The multiplicative group of the residue field is modeled as Z/N with
N = q - 1 (elements are discrete logarithms, so exponentiation is
multiplication).  Given an alcove-stabilizer projection sigma and a
tuple of units lambda_0..lambda_rank, the system asks for a torus point
t in (lattice) (x) Z/N with alpha_i(t) = lambda_i^-1 lambda_sigma(i)
c(n_sigma, alpha_i) for every affine node; the zeroth row is redundant
exactly because the highest-root-relation character is trivial on
stabilizer projections.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from operator import mul

from . import intmat
from .affine import CocharLattice, OmegaElement, adjoint_lattice, affine_nodes
from .chevalley import ScalarTable, c_word
from .rootsys import RootSystem

__all__ = [
    "UnitGroup",
    "GenericFunctional",
    "random_functional",
    "InconsistentSystemError",
    "FixerSystem",
    "node_signs",
    "build_system",
    "solve",
    "ConnectingCharacter",
    "connecting_character",
    "ObstructionClass",
    "obstruction",
]


class UnitGroup(namedtuple("UnitGroup", "order")):
    """Cyclic unit group of a finite field with q = order + 1 elements."""

    __slots__ = ()

    def sign_log(self, c: int) -> int:
        """Discrete log of +-1; -1 collapses to 0 when the order is odd."""
        if c == 1:
            return 0
        if c == -1:
            return self.order // 2 if self.order % 2 == 0 else 0
        raise ValueError(f"not a sign: {c}")


class GenericFunctional(namedtuple("GenericFunctional", "values")):
    """Units attached to the affine nodes 0..rank, as discrete logs: the
    ints of ``values``.

    Every residue in Z/N names a nonzero field element, so genericity
    (non-vanishing on each line) holds by construction.
    """

    __slots__ = ()


def random_functional(rng, units: UnitGroup, rank: int) -> GenericFunctional:
    return GenericFunctional(tuple(rng.randrange(units.order)
                                   for _ in range(rank + 1)))


class InconsistentSystemError(ValueError):
    """The multiplicity-weighted row product is not 1: the zeroth row
    contradicts the others, which would refute the trivial-character
    property."""


class FixerSystem(namedtuple("FixerSystem", "rs lattice omega units targets")):
    """The system for one RootSystem, CocharLattice, OmegaElement and
    UnitGroup: ``targets`` holds one int in Z/N per affine node."""

    __slots__ = ()


def node_signs(rs: RootSystem, omega: OmegaElement,
               scalars: ScalarTable) -> tuple[int, ...]:
    """c(n_sigma, alpha_i) for every affine node i, in ``affine_nodes`` order."""
    return tuple(c_word(scalars, omega.sigma, grad) for _, grad in affine_nodes(rs))


def build_system(rs: RootSystem, lat: CocharLattice, omega: OmegaElement,
                 lam: GenericFunctional, scalars: ScalarTable,
                 units: UnitGroup, signs=None) -> FixerSystem:
    """Targets lambda_i^-1 * lambda_sigma(i) * c(n_sigma, alpha_i) per node;
    ``signs``, the c values, depend on neither lambda nor q."""
    if len(lam.values) != rs.rank + 1:
        raise ValueError("functional length must be rank + 1")
    if signs is None:
        signs = node_signs(rs, omega, scalars)
    perm = omega.diagram_perm
    lv = lam.values
    n = units.order
    targets = [(-lv[i] + lv[perm[i]] + units.sign_log(c)) % n
               for i, c in enumerate(signs)]
    weighted = sum(m * t for (m, _), t in zip(affine_nodes(rs), targets)) % n
    if weighted != 0:
        raise InconsistentSystemError(
            f"weighted row product is {weighted} (mod {n}), not 0: "
            f"the zeroth row is not implied by the others")
    return FixerSystem(rs, lat, omega, units, tuple(targets))


def solve(system: FixerSystem):
    """A witness t (coordinates in the lattice basis, mod N), or None.

    Solves rows 1..rank as an integer-linear system mod N with the
    lattice's held Smith form; the witness is then checked against every
    row including the redundant zeroth, the lattice's ``pairing_row0``.
    """
    n = system.units.order
    lat = system.lattice
    b = list(system.targets[1:])
    x = intmat.solve_mod(lat.pairing, lat.pairing_snf, b, n)
    if x is None:
        return None
    if sum(map(mul, lat.pairing_row0, x)) % n != system.targets[0]:
        raise AssertionError("witness fails the redundant zeroth row")
    return x


class ConnectingCharacter(namedtuple("ConnectingCharacter", "coeffs d")):
    """Simple-root coefficients (mod d) of a character of the adjoint
    torus killing the small torus's points modulo d-th powers: ``coeffs``
    holds the int coefficients, and ``d`` is the int modulus."""

    __slots__ = ()


def connecting_character(rs: RootSystem,
                         small: CocharLattice) -> ConnectingCharacter:
    """Character presentation of the boundary map for small inside P^vee.

    In coweight coordinates the basis of P^vee is the unit vectors, so
    the inclusion matrix is ``small.basis`` itself.  Its Smith form
    u * basis * v = diag(d_k) gives the adapted basis f_k = rows of v^-1
    of P^vee, with the small lattice spanned by the d_k f_k, and the
    sought character is dual to the last f (the one with d_k = d): its
    simple-root coefficients are the last column of v.  The result is
    normalized to the lexicographically smallest unit multiple mod d,
    since the lattice model determines the boundary map only up to an
    automorphism of Z/d.
    """
    rank = rs.rank
    d_mat, _, v = intmat.smith_normal_form(small.basis)
    diag = [d_mat[i][i] for i in range(rank)]
    nontrivial = [x for x in diag if x != 1]
    if not nontrivial:
        return ConnectingCharacter((0,) * rank, 1)
    if len(nontrivial) > 1:
        raise ValueError(f"quotient is not cyclic: invariant factors {diag}")
    d = nontrivial[0]
    coeffs = [row[rank - 1] % d for row in v]
    best = None
    for u in range(1, d):
        if gcd(u, d) != 1:
            continue
        cand = tuple((u * x) % d for x in coeffs)
        if best is None or cand < best:
            best = cand
    return ConnectingCharacter(best, d)


class ObstructionClass(namedtuple("ObstructionClass", "value modulus d")):
    """Image of the adjoint witness under the connecting character.

    Zero iff the witness lifts to the target lattice's torus; the int
    ``value`` lives in Z/``modulus``, ``modulus`` = gcd(``d``, N), since
    d-th powers absorb the rest.
    """

    __slots__ = ()

    def vanishes(self) -> bool:
        return self.value % self.modulus == 0 if self.modulus > 1 else True


def obstruction(rs: RootSystem, lat: CocharLattice, omega: OmegaElement,
                lam: GenericFunctional, scalars: ScalarTable,
                units: UnitGroup) -> ObstructionClass:
    """Solve over the adjoint lattice, then evaluate the boundary character.

    The adjoint system always has a witness (unique mod N, since the
    fundamental-coweight pairing matrix is the identity).  ``omega`` is
    used as is: its data do not depend on the lattice it was listed for,
    and the adjoint lattice contains every class.
    """
    adj = adjoint_lattice(rs)
    chi = connecting_character(rs, lat)
    n = units.order
    witness = solve(build_system(rs, adj, omega, lam, scalars, units))
    if witness is None:
        raise AssertionError("adjoint system unexpectedly unsolvable")
    # the adjoint basis is the unit vectors, so the witness holds the
    # pairings <alpha_i, t> that the character's coefficients weigh
    val = sum(map(mul, chi.coeffs, witness))
    modulus = gcd(chi.d, n)
    return ObstructionClass(val % modulus if modulus > 1 else 0,
                            max(modulus, 1), chi.d)

