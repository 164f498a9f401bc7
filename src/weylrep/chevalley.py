"""Signed Chevalley structure constants and conjugation scalars.

The integral basis is built from the extraspecial-pair sign convention:
for each positive non-simple root the additively-first decomposition
gets a positive constant, and every other constant follows from the
zero-sum-triple proportionality and the Jacobi identity.  Conjugation
scalars of the canonical representatives are then read off from exact
adjoint exponentials, which land in signed permutations of the root
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rootsys import RootSystem, root_string
from .weyl import WeylElement

__all__ = [
    "StructureConstantTable",
    "build_constants",
    "constants_from_special_pairs",
    "validate_jacobi",
    "table_to_json",
    "table_from_json",
    "ScalarTable",
    "scalar_table",
    "c_word",
    "ad_word_sign",
    "DependenceRelation",
    "dependence_relation",
    "highest_root_relation",
    "fixes_relation",
    "evaluate_character",
]


@dataclass(frozen=True)
class StructureConstantTable:
    """N[a, b] for every ordered pair of root indices with a root sum."""

    rs: RootSystem
    convention_id: str
    n: dict  # (int, int) -> int


def _special_pairs(rs: RootSystem, g: int):
    """Ordered positive pairs (a, b), a < b in the root order, summing to g."""
    cg = rs.roots[g]
    out = []
    for a in rs.positive_indices():
        if a >= g:
            break
        ca = rs.roots[a]
        diff = tuple(x - y for x, y in zip(cg, ca))
        b = rs.index.get(diff)
        if b is not None and b > a and rs.is_positive(b):
            out.append((a, b))
    return out


def build_constants(rs: RootSystem) -> StructureConstantTable:
    return constants_from_special_pairs(rs, None, "extraspecial")


def constants_from_special_pairs(rs: RootSystem, assigned,
                                 convention_id: str) -> StructureConstantTable:
    """Complete a table from special-pair signs.

    ``assigned`` maps special pairs (a, b) to +-1 sign choices; missing
    extraspecial pairs default to +1 and every other constant is forced.
    Passing None assigns +1 to all extraspecial pairs (the default
    convention).
    """
    n: dict = {}
    norms = rs.norms2
    neg = rs.neg
    index = rs.index
    roots = rs.roots

    def sum_index(a: int, b: int):
        return index.get(tuple(x + y for x, y in zip(roots[a], roots[b])))

    def lookup(a: int, b: int) -> int:
        """Constant for a mixed/negative pair, reduced to the positive table."""
        if (a, b) in n:
            return n[(a, b)]
        val = _derive(a, b)
        n[(a, b)] = val
        n[(b, a)] = -val
        return val

    def _derive(a: int, b: int) -> int:
        pa, pb = rs.is_positive(a), rs.is_positive(b)
        if pa and pb:
            raise AssertionError("positive pair missing from the table")
        if not pa and not pb:
            return -lookup(neg[a], neg[b])
        if not pa:
            return -lookup(b, a) if (b, a) in n else -_derive_mixed(b, a)
        return _derive_mixed(a, b)

    def _derive_mixed(a: int, b: int) -> int:
        # a > 0 > b with a + b a root; reduce through the zero-sum triple
        z = sum_index(a, b)
        if rs.is_positive(z):
            # x = z + (-b) as positives: N(a,b)/(z|z) = N(b,-z)/(a|a)
            val = Fraction(norms[z], norms[a]) * (-lookup(neg[b], z))
        else:
            # -b = a + (-z) as positives: N(a,b)/(z|z) = N(-z,a)/(b|b)
            val = Fraction(norms[z], norms[b]) * lookup(neg[z], a)
        if val.denominator != 1:
            raise AssertionError("non-integral derived constant")
        return int(val)

    # positive table, by height of the sum; extraspecial pair first
    for g in rs.positive_indices():
        pairs = _special_pairs(rs, g)
        if not pairs:
            continue
        a0, b0 = pairs[0]
        _, q = root_string(rs, a0, b0)
        want = assigned.get((a0, b0), 1) if assigned else 1
        n[(a0, b0)] = want * (q + 1)
        n[(b0, a0)] = -n[(a0, b0)]
        denom = -Fraction(norms[b0], norms[g]) * n[(a0, b0)]  # N(g, -a0)
        for c, d in pairs[1:]:
            # Jacobi on (-a0, c, d): the unknown N(c,d) multiplies N(g,-a0)
            t1 = 0
            cma = sum_index(c, neg[a0])
            if cma is not None:
                t1 = lookup(neg[a0], c) * lookup(cma, d)
            t2 = 0
            dma = sum_index(d, neg[a0])
            if dma is not None:
                t2 = lookup(d, neg[a0]) * lookup(dma, c)
            val = Fraction(-(t1 + t2)) / denom
            if val.denominator != 1:
                raise AssertionError("Jacobi division left a remainder")
            ncd = int(val)
            if assigned and (c, d) in assigned and \
                    (1 if ncd > 0 else -1) != assigned[(c, d)]:
                raise ValueError(f"sign for pair {(c, d)} is not consistently "
                                 f"achievable in a Chevalley basis")
            n[(c, d)] = ncd
            n[(d, c)] = -ncd

    # fill every remaining pair eagerly so the table is total
    for a in range(rs.nroots):
        for b in range(rs.nroots):
            if b == a or b == neg[a]:
                continue
            if sum_index(a, b) is not None:
                lookup(a, b)

    table = StructureConstantTable(rs, convention_id, n)
    _validate_strings(table)
    return table


def _validate_strings(table: StructureConstantTable) -> None:
    rs = table.rs
    for (a, b), val in table.n.items():
        _, q = root_string(rs, a, b)
        if abs(val) != q + 1:
            raise AssertionError(
                f"|N| for pair ({rs.root_name(a)}, {rs.root_name(b)}) is "
                f"{abs(val)}, expected {q + 1}")
        if table.n[(b, a)] != -val:
            raise AssertionError("antisymmetry violated")
        if table.n.get((rs.neg[a], rs.neg[b])) != -val:
            raise AssertionError("negation rule violated")


def validate_jacobi(table: StructureConstantTable):
    """First failing root triple of the Jacobi identity, or None.

    Checks [[x,y],z] + [[y,z],x] + [[z,x],y] = 0 over all triples of
    root vectors, including the Cartan terms from opposite pairs.
    """
    rs = table.rs
    nroots = rs.nroots
    rank = rs.rank
    neg = rs.neg
    index = rs.index
    roots = rs.roots
    nmap = table.n

    def bracket(vec_r: dict, vec_h: list, a: int):
        """[ (vec_r, vec_h), e_a ] -> (root part, cartan part)."""
        out_r: dict = {}
        out_h = [0] * rank
        for b, cb in vec_r.items():
            if b == neg[a]:
                continue  # handled below
            s = index.get(tuple(x + y for x, y in zip(roots[b], roots[a])))
            if s is not None:
                out_r[s] = out_r.get(s, 0) + cb * nmap[(b, a)]
        if neg[a] in vec_r:
            cb = vec_r[neg[a]]
            for j in range(rank):
                out_h[j] += cb * rs.coroots[neg[a]][j]
        pairing = rs._psc[a]
        hc = sum(vec_h[j] * pairing[j] for j in range(rank))
        if hc:
            out_r[a] = out_r.get(a, 0) + hc
        return out_r, out_h

    for x in range(nroots):
        for y in range(x + 1, nroots):
            base_r, base_h = bracket({x: 1}, [0] * rank, y)
            for z in range(nroots):
                t1r, t1h = bracket(base_r, base_h, z)
                m1r, m1h = bracket({y: 1}, [0] * rank, z)
                t2r, t2h = bracket(m1r, m1h, x)
                m2r, m2h = bracket({z: 1}, [0] * rank, x)
                t3r, t3h = bracket(m2r, m2h, y)
                total: dict = {}
                for part in (t1r, t2r, t3r):
                    for k, v in part.items():
                        total[k] = total.get(k, 0) + v
                if any(v != 0 for v in total.values()):
                    return (x, y, z)
                for j in range(rank):
                    if t1h[j] + t2h[j] + t3h[j] != 0:
                        return (x, y, z)
    return None


def table_to_json(table: StructureConstantTable) -> dict:
    rs = table.rs
    return {
        "schema_version": 1,
        "type": rs.datum.type_label,
        "rank": rs.rank,
        "convention_id": table.convention_id,
        "constants": sorted([a, b, v] for (a, b), v in table.n.items()),
    }


def table_from_json(rs: RootSystem, doc) -> StructureConstantTable:
    """Read a ``table_to_json`` document; its shape is checked here, and
    whether its values satisfy Jacobi is left to ``validate_jacobi``."""
    if not isinstance(doc, dict) or doc.get("type") != rs.datum.type_label \
            or type(doc.get("rank")) is not int or doc.get("rank") != rs.rank:
        raise ValueError("fixture does not match the root system")
    rows = doc.get("constants")
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == 3 and row[2] != 0
            and all(type(x) is int for x in row) for row in rows):
        raise ValueError("fixture constants must be [a, b, N] int triples "
                         "with N nonzero")
    n = {(a, b): v for a, b, v in rows}
    roots, index = rs.roots, rs.index
    pairs = {(a, b) for a in range(rs.nroots) for b in range(rs.nroots)
             if tuple(x + y for x, y in zip(roots[a], roots[b])) in index}
    if len(n) != len(rows) or n.keys() != pairs:
        raise ValueError("fixture constants must list each ordered pair of "
                         "roots with a root sum exactly once")
    return StructureConstantTable(rs, doc.get("convention_id", "fixture"), n)


# -- conjugation scalars ------------------------------------------------


@dataclass(frozen=True)
class ScalarTable:
    """Signs of Ad(n_s) on root vectors, one signed permutation per simple."""

    rs: RootSystem
    convention_id: str
    signed_perm: tuple[tuple[tuple[int, int], ...], ...]  # [i-1][root] = (img, sign)

    def c(self, i: int, a: int) -> int:
        """Scalar by which Ad(n_i) carries the a-root vector to the s_i(a) one."""
        return self.signed_perm[i - 1][a][1]


def _ad_matrix(table: StructureConstantTable, a: int):
    """Sparse columns of ad(e_a) on the basis (root vectors, then h_j)."""
    rs = table.rs
    dim = rs.nroots + rs.rank
    cols: list[dict] = [dict() for _ in range(dim)]
    for b in range(rs.nroots):
        if b == rs.neg[a]:
            for j in range(rs.rank):
                v = rs.coroots[a][j]
                if v:
                    cols[b][rs.nroots + j] = Fraction(v)
            continue
        s = rs.index.get(tuple(x + y for x, y in
                               zip(rs.roots[a], rs.roots[b])))
        if s is not None:
            cols[b][s] = Fraction(table.n[(a, b)])
    for j in range(rs.rank):
        v = rs._psc[a][j]
        if v:
            cols[rs.nroots + j][a] = Fraction(-v)
    return cols


def _sparse_exp(cols, scale: Fraction):
    """exp(scale * M) for nilpotent sparse M given by columns."""
    dim = len(cols)
    out: list[dict] = []
    for k in range(dim):
        vec = {k: Fraction(1)}
        term = {k: Fraction(1)}
        power = 0
        while term:
            power += 1
            nxt: dict = {}
            for idx, coef in term.items():
                for tgt, m in cols[idx].items():
                    nxt[tgt] = nxt.get(tgt, Fraction(0)) + coef * m * scale
            term = {i: v / power for i, v in nxt.items() if v}
            for i, v in term.items():
                vec[i] = vec.get(i, Fraction(0)) + v
            if power > dim:
                raise AssertionError("ad matrix is not nilpotent")
        out.append({i: v for i, v in vec.items() if v})
    return out


def _sparse_mul(a_cols, b_cols):
    """Columns of A @ B from columns of A and B."""
    out = []
    for col in b_cols:
        vec: dict = {}
        for idx, coef in col.items():
            for tgt, m in a_cols[idx].items():
                vec[tgt] = vec.get(tgt, Fraction(0)) + coef * m
        out.append({i: v for i, v in vec.items() if v})
    return out


def scalar_table(table: StructureConstantTable) -> ScalarTable:
    """Exponentiate n_i = u_i(1) u_{-i}(-1) u_i(1) in the adjoint action.

    The resulting operator must act on every root vector as +-(another
    root vector); anything else is a corrupted constants table.
    """
    rs = table.rs
    perms = []
    for i in range(rs.rank):
        e = rs.simple_index[i]
        f = rs.neg[e]
        m = _sparse_mul(
            _sparse_exp(_ad_matrix(table, e), Fraction(1)),
            _sparse_mul(_sparse_exp(_ad_matrix(table, f), Fraction(-1)),
                        _sparse_exp(_ad_matrix(table, e), Fraction(1))))
        sp = []
        srefl = rs.simple_perms[i]
        for b in range(rs.nroots):
            col = m[b]
            if len(col) != 1:
                raise AssertionError(f"Ad(n_{i+1}) image of a root vector is "
                                     f"not a single basis vector: {col}")
            (tgt, val), = col.items()
            if tgt != srefl[b] or val not in (1, -1):
                raise AssertionError(f"Ad(n_{i+1}) sends e_{rs.root_name(b)} to "
                                     f"{val} * basis[{tgt}], expected +-e_s(b)")
            sp.append((tgt, int(val)))
        for j in range(rs.rank):  # the Cartan block must stay integral too
            for val in m[rs.nroots + j].values():
                if val.denominator != 1:
                    raise AssertionError("Ad(n) is not integral on the Cartan part")
        perms.append(tuple(sp))
    return ScalarTable(rs, table.convention_id, tuple(perms))


def c_word(scalars: ScalarTable, w: WeylElement, a: int) -> int:
    """Compose generator scalars along the stored reduced word.

    Uses c(n n', a) = c(n, w'(a)) * c(n', a) with the right factor acting
    first; the final image must be w(a), which is asserted.
    """
    rs = scalars.rs
    val = 1
    img = a
    for i in reversed(w.word):
        val *= scalars.c(i, img)
        img = rs.simple_perms[i - 1][img]
    if img != w.perm[a]:
        raise AssertionError("scalar composition walked to the wrong root")
    return val


def ad_word_sign(scalars: ScalarTable, w: WeylElement, a: int) -> int:
    """Independent route: compose the signed permutations Ad(n_i) directly."""
    idx, sign = a, 1
    for i in reversed(w.word):
        idx, s = scalars.signed_perm[i - 1][idx]
        sign *= s
    if idx != w.perm[a]:
        raise AssertionError("operator composition walked to the wrong root")
    return sign


# -- dependence relations and their characters ---------------------------


@dataclass(frozen=True)
class DependenceRelation:
    """A vanishing integer combination of distinct roots."""

    terms: tuple[tuple[int, int], ...]  # (multiplicity, root index)


def dependence_relation(rs: RootSystem, terms) -> DependenceRelation:
    terms = tuple((int(m), int(a)) for m, a in terms)
    seen = [a for _, a in terms]
    if len(set(seen)) != len(seen):
        raise ValueError("roots in a dependence relation must be distinct")
    total = [0] * rs.rank
    for m, a in terms:
        for j, c in enumerate(rs.roots[a]):
            total[j] += m * c
    if any(total):
        raise ValueError("combination does not vanish")
    return DependenceRelation(terms)


def highest_root_relation(rs: RootSystem) -> DependenceRelation:
    """(1, -theta) plus the marks on the simple roots."""
    terms = [(1, rs.neg[rs.highest_root])]
    theta = rs.roots[rs.highest_root]
    for i in range(rs.rank):
        terms.append((theta[i], rs.simple_index[i]))
    return dependence_relation(rs, terms)


def fixes_relation(w: WeylElement, rel: DependenceRelation) -> bool:
    mult = {a: m for m, a in rel.terms}
    for m, a in rel.terms:
        img = w.perm[a]
        if img not in mult or mult[img] != m:
            return False
    return True


def evaluate_character(scalars: ScalarTable, rel: DependenceRelation,
                       w: WeylElement) -> int:
    """Product of c(n_w, a_i)^{m_i} over the relation, for w fixing it."""
    if not fixes_relation(w, rel):
        raise ValueError("element does not fix the dependence relation")
    val = 1
    for m, a in rel.terms:
        if m % 2:
            val *= c_word(scalars, w, a)
    return val
