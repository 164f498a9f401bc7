"""Exact integer models of irreducible root systems.

Roots are stored in simple-root coordinates and coroots in simple-coroot
coordinates; pairings, heights and root strings are all derived in exact
integer arithmetic.  Cartan matrices follow the Bourbaki plate numbering,
with entry ``[i][j]`` equal to ``<alpha_j, alpha_i^vee>``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import itemgetter, mul
from struct import calcsize

__all__ = [
    "CartanError",
    "CartanDatum",
    "cartan_datum",
    "RootSystem",
    "root_system",
    "root_string",
    "rootsys_to_json",
]


class CartanError(ValueError):
    """Malformed, reducible, or non-positive-definite Cartan data."""


def _chain_matrix(rank: int) -> list[list[int]]:
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        m[i][i + 1] = -1
        m[i + 1][i] = -1
    return m


def _cartan_matrix(label: str, rank: int) -> list[list[int]]:
    m = _chain_matrix(rank)
    if label == "A":
        pass
    elif label == "B":
        # alpha_rank is the short root; <alpha_{rank-1}, alpha_rank^vee> = -2
        m[rank - 1][rank - 2] = -2
    elif label == "C":
        # alpha_rank is the long root; <alpha_rank, alpha_{rank-1}^vee> = -2
        m[rank - 2][rank - 1] = -2
    elif label == "D":
        for i in (rank - 1, rank - 2):
            m[rank - 1][i] = 0
            m[i][rank - 1] = 0
        m[rank - 1][rank - 1] = 2
        m[rank - 1][rank - 3] = -1
        m[rank - 3][rank - 1] = -1
    elif label == "E":
        # Bourbaki numbering: chain 1-3-4-5-...-rank, node 2 hangs off node 4.
        m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        chain = [1] + list(range(3, rank + 1))
        for a, b in zip(chain, chain[1:]):
            m[a - 1][b - 1] = -1
            m[b - 1][a - 1] = -1
        m[2 - 1][4 - 1] = -1
        m[4 - 1][2 - 1] = -1
    elif label == "F":
        m[2][1] = -2
    elif label == "G":
        m[0][1] = -3
    else:
        raise CartanError(f"unknown type label {label!r}")
    return m


_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _norms2(label: str, rank: int) -> tuple[int, ...]:
    """Squared lengths (alpha_i | alpha_i) in the standard normalization."""
    if label == "B":
        return (2,) * (rank - 1) + (1,)
    if label == "C":
        return (2,) * (rank - 1) + (4,)
    if label == "F":
        return (2, 2, 1, 1)
    if label == "G":
        return (2, 6)
    return (2,) * rank


class CartanDatum(namedtuple("CartanDatum", "type_label rank cartan_matrix")):
    """A type label, its rank, and its Cartan matrix as a tuple of int rows."""

    __slots__ = ()

    def validate(self) -> int:
        """Raise ``CartanError`` unless C is a Cartan matrix; return det C."""
        m = self.cartan_matrix
        n = self.rank
        if n < 1 or len(m) != n or any(len(row) != n for row in m):
            raise CartanError("matrix shape does not match rank")
        for i in range(n):
            if m[i][i] != 2:
                raise CartanError("diagonal entries must be 2")
            for j in range(n):
                if i != j and m[i][j] not in (0, -1, -2, -3):
                    raise CartanError(f"off-diagonal entry {m[i][j]} out of range")
                if i != j and (m[i][j] == 0) != (m[j][i] == 0):
                    raise CartanError("zero pattern must be symmetric")
        if not _connected(m):
            raise CartanError("Cartan matrix is reducible")
        # positive-definiteness via leading principal minors of the
        # symmetrized matrix (equivalently of the matrix itself), all read
        # from one fraction-free (Bareiss) elimination: after step k the
        # pivot is the (k + 1)-th minor, and each update divides exactly
        # by the previous pivot, so the last pivot is det C
        a = [list(row) for row in m]
        prev = 1
        for k, row in enumerate(a):
            if row[k] <= 0:
                raise CartanError("Cartan matrix is not positive definite")
            for i in range(k + 1, n):
                aik = a[i][k]
                a[i] = [(row[k] * x - aik * y) // prev for x, y in zip(a[i], row)]
            prev = row[k]
        return prev


def _connected(m) -> bool:
    n = len(m)
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j not in seen and m[i][j] != 0:
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


def cartan_datum(type_label: str, rank: int) -> CartanDatum:
    lo, hi = _RANK_RANGE.get(type_label, (None, None))
    if lo is None:
        raise CartanError(f"unknown type label {type_label!r}")
    if rank < lo or (hi is not None and rank > hi):
        raise CartanError(f"rank {rank} out of range for type {type_label}")
    m = _cartan_matrix(type_label, rank)
    return CartanDatum(type_label, rank, tuple(tuple(row) for row in m))


class RootSystem:
    """An irreducible root system and the tables derived from it.

    Immutable after construction.  Roots are indexed into a single list
    sorted by (height, lexicographic coefficients), so negative roots
    occupy the first half and positive roots the second half.  Most
    tables are built with the system; ``coset_chain``, ``packed_pairing``
    and the full ``pairing`` table are built on first use.
    """

    def __init__(self, datum: CartanDatum):
        self.cartan_det = datum.validate()  # |P^vee / Q^vee|
        self.datum = datum
        self.rank = datum.rank
        cartan = datum.cartan_matrix
        norms2 = _norms2(datum.type_label, datum.rank)
        # (alpha_i|alpha_i) * m[i][j] = 2 (alpha_i|alpha_j) must be symmetric
        for i in range(self.rank):
            for j in range(self.rank):
                if norms2[i] * cartan[i][j] != norms2[j] * cartan[j][i]:
                    raise CartanError("norms do not symmetrize the Cartan matrix")

        pos = _close_positive_roots(cartan, self.rank)
        allroots = sorted(pos | {tuple(-c for c in r) for r in pos},
                          key=lambda r: (sum(r), r))
        self.roots: tuple[tuple[int, ...], ...] = tuple(allroots)
        self.index: dict[tuple[int, ...], int] = {r: k for k, r in enumerate(allroots)}
        self.nroots = len(allroots)
        self.npos = len(pos)
        if self.nroots != 2 * self.npos:
            raise CartanError("root negation is not an involution")

        self.identity_perm = tuple(range(self.nroots))
        self.heights = tuple(sum(r) for r in self.roots)
        self.neg = tuple(self.index[tuple(-c for c in r)] for r in self.roots)

        # pairing with simple coroots: psc[k][i] = <root_k, alpha_i^vee>
        self._psc = psc = tuple(
            tuple(sum(r[j] * cartan[i][j] for j in range(self.rank))
                  for i in range(self.rank)) for r in self.roots)
        # 2(r|r) = sum_i r_i * (alpha_i|alpha_i) * <r, alpha_i^vee>, an even integer
        self.norms2 = tuple(sum(x * n * y for x, n, y in zip(r, norms2, p)) // 2
                            for r, p in zip(self.roots, psc))

        # coroot coordinates: b^vee = sum_j b_j (alpha_j|alpha_j) / (b|b) alpha_j^vee
        coroots = []
        for r, nb in zip(self.roots, self.norms2):
            co = []
            for x in map(mul, r, norms2):
                c, rem = divmod(x, nb)
                if rem:
                    raise CartanError("non-integral coroot coordinate")
                co.append(c)
            coroots.append(tuple(co))
        self.coroots = tuple(coroots)
        # coroot of root k mod 2 as an int: bit i is its alpha_i^vee coefficient mod 2
        self.coroot_masks = tuple(sum((c & 1) << i for i, c in enumerate(co))
                                  for co in coroots)

        hi = max(range(self.nroots), key=lambda k: (self.heights[k], self.roots[k]))
        self.highest_root = hi
        self.coxeter_number = self.heights[hi] + 1
        if self.nroots != self.rank * self.coxeter_number:
            raise CartanError("root count disagrees with Coxeter number")

        self.rho_check_twice = self.coroot_sum(self.positive_indices())
        for k in range(self.nroots):
            if sum(map(mul, psc[k], self.rho_check_twice)) != 2 * self.heights[k]:
                raise CartanError("height/rho-check identity failed")

        self.simple_index = tuple(
            self.index[tuple(1 if j == i else 0 for j in range(self.rank))]
            for i in range(self.rank))

        # permutation of root indices induced by each simple reflection
        self.simple_perms = tuple(
            tuple(self.index[r[:i] + (r[i] - p[i],) + r[i + 1:]]
                  for r, p in zip(self.roots, psc)) for i in range(self.rank))
        # simple_getters[i](perm) is perm composed with s_i on the right
        self.simple_getters = tuple(itemgetter(*p) for p in self.simple_perms)

    def coroot_sum(self, roots) -> tuple[int, ...]:
        """sum_{b in roots} b^vee in simple-coroot coordinates.

        Every coroot-sum functional sum_{b in B} <root_a, b^vee> is taken
        as <root_a, coroot_sum(B)>, the dot product with ``_psc[a]``.
        """
        co = self.coroots
        rows = [co[b] for b in roots]
        return tuple(map(sum, zip((0,) * self.rank, *rows)))

    @cached_property
    def pairing(self) -> tuple[tuple[int, ...], ...]:
        """``pairing[a][b]`` = <root_a, root_b^vee>, built on first use for
        ``rootsys_to_json``; the checks pair through ``coroot_sum``."""
        co = self.coroots
        return tuple(tuple(sum(map(mul, p, c)) for c in co) for p in self._psc)

    @cached_property
    def coset_chain(self) -> tuple[tuple[tuple[itemgetter, tuple[int, ...]], ...], ...]:
        """Minimal coset representatives along J_1 < J_2 < ... < J_rank = S.

        With J_k = {1..k}, ``coset_chain[k - 1]`` holds the elements of
        W_{J_k} with no right descent in J_{k-1}: the minimal left coset
        representatives of W_{J_{k-1}} in W_{J_k}, identity first.
        Each is a pair ``(getter, walk)``: an ``itemgetter`` that composes
        on the right like ``simple_getters``, and the walk roots of a
        reduced word of the representative, the word its search found.
        Every w in W is c_rank ... c_1 for exactly one c_k per level
        (Björner-Brenti, *Combinatorics of Coxeter Groups*, §2.4).  Each
        level is a breadth-first search from the identity under left
        multiplication by s_1..s_k; dropping the first letter of a reduced
        word keeps an element a representative, so the search reaches them
        all, each at its length, and its search word is reduced.  If
        x = s_i p, the walk of x is alpha_i followed by s_i applied to the
        walk of p, and x itself is p's getter applied to s_i, so the one
        getter built per representative also drives the search.  Built on
        first use, from ``simple_perms`` alone.
        """
        npos = self.npos
        moves = tuple(zip(self.simple_perms, self.simple_index))
        levels = []
        for k in range(1, self.rank + 1):
            smaller = self.simple_index[:k - 1]
            found = [(itemgetter(*self.identity_perm), ())]
            seen = {self.identity_perm}
            for getter, walk in found:
                for s, a in moves[:k]:
                    x = getter(s)
                    if x not in seen and all(x[j] >= npos for j in smaller):
                        seen.add(x)
                        found.append((itemgetter(*x), (a, *[s[b] for b in walk])))
            levels.append(tuple(found))
        return tuple(levels)

    @cached_property
    def packed_pairing(self) -> tuple[str, int, tuple[int, ...], int, tuple[int, ...]]:
        """``(fmt, nbytes, limits, bias, columns)``: field a of ``columns[i]``
        holds <root_a, alpha_i^vee> as a signed ``fmt`` int, so field a of
        sum_i s_i * columns[i] is <root_a, s>.  Adding ``bias`` (the top bit
        of every field) stops borrows between fields; XOR with it gives two's
        complement fields for ``memoryview.cast(fmt)``.  An inversion-set sum
        has 0 <= s_i <= (2 rho^vee)_i, so the field holds 4 times the bound
        max_a sum_i |<root_a, alpha_i^vee>| (2 rho^vee)_i, and every field is
        exact while each |s_i| <= ``limits[i]``.  Built on first use.
        """
        bound = max(sum(abs(c) * r for c, r in zip(row, self.rho_check_twice))
                    for row in self._psc)
        for fmt in "bhiq":
            width = 8 * calcsize(fmt)
            headroom = (2 ** (width - 1) - 1) // bound
            if headroom >= 4:
                break
        bias = sum(1 << (width * a + width - 1) for a in range(self.nroots))
        columns = tuple(sum(row[i] << (width * a) for a, row in enumerate(self._psc))
                        for i in range(self.rank))
        limits = tuple(headroom * r for r in self.rho_check_twice)
        return fmt, self.nroots * width // 8, limits, bias, columns

    # -- basic queries ------------------------------------------------

    def positive_indices(self) -> range:
        return range(self.npos, self.nroots)

    def is_positive(self, k: int) -> bool:
        return k >= self.npos

    def root_name(self, k: int) -> str:
        return "".join(str(c) for c in self.roots[k])

    def __repr__(self) -> str:
        return f"RootSystem({self.datum.type_label}{self.rank})"


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


def root_system(type_label: str, rank: int) -> RootSystem:
    return RootSystem(cartan_datum(type_label, rank))


def root_string(rs: RootSystem, a: int, b: int) -> tuple[int, int]:
    """Maximal (p, q) with b + i*a a root for -q <= i <= p.

    Raises ValueError when b is proportional to a (the string through
    +-a is not of interest and would not terminate in the usual sense).
    """
    if b == a or b == rs.neg[a]:
        raise ValueError("root string undefined for b proportional to a")
    va = rs.roots[a]
    vb = rs.roots[b]

    def reach(step: int) -> int:
        n = 0
        while tuple(x + (n + 1) * step * y for x, y in zip(vb, va)) in rs.index:
            n += 1
        return n

    return reach(1), reach(-1)


def rootsys_to_json(rs: RootSystem) -> dict:
    """Canonical JSON document for golden-file fixtures."""
    return {
        "schema_version": 1,
        "type": rs.datum.type_label,
        "rank": rs.rank,
        "cartan_matrix": [list(row) for row in rs.datum.cartan_matrix],
        "roots": [list(r) for r in rs.roots],
        "coroots": [list(c) for c in rs.coroots],
        "pairing": [list(row) for row in rs.pairing],
        "heights": list(rs.heights),
        "highest_root": rs.highest_root,
        "coxeter_number": rs.coxeter_number,
        "rho_check_twice": list(rs.rho_check_twice),
    }
