"""Signed Chevalley structure constants and conjugation scalars.

The integral basis is built from the extraspecial-pair sign convention:
for each positive non-simple root the additively-first decomposition
gets a positive constant, the other special pairs follow from the
Jacobi identity, and each one fixed sets its whole zero-sum triple.
Conjugation scalars of the canonical representatives are then read off
from adjoint exponentials applied one root vector at a time, which land
in signed permutations of the root vectors.  Everything is in integers:
the constants are, and each divided power ad(e)^k / k! is an exact
division, as it must be in a Chevalley basis (Kostant).
"""

from __future__ import annotations

from collections import namedtuple

from .affine import affine_nodes
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


class StructureConstantTable(namedtuple("StructureConstantTable", "rs convention_id n")):
    """N[a, b] for every ordered pair of root indices with a root sum.

    ``rs`` is the RootSystem, ``convention_id`` a str, and ``n`` a dict
    from (int, int) root-index pairs to int constants.
    """

    __slots__ = ()


def _special_pairs(rs: RootSystem, g: int):
    """Ordered positive pairs (a, b), a < b in the root order, summing to g."""
    sum_index, neg = rs.sum_index, rs.neg
    out = []
    for a in range(rs.npos, g):
        b = sum_index(g, neg[a])
        if b is not None and b > a:
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

    Positive roots g go by height; the Jacobi step for g reads only
    triples whose largest root is lower, so they are already set.
    Fixing N(a, b) sets the twelve constants of the triple {a, b, -(a+b)}
    and its negation by N_{r,s}/(t|t) = N_{s,t}/(r|r) = N_{t,r}/(s|s)
    for r + s + t = 0, antisymmetry and N_{-r,-s} = -N_{r,s} (Carter,
    Simple Groups of Lie Type, 4.1-4.2).  Every pair with a root sum
    lies in one such triple, so the table is total.
    """
    n: dict = {}
    norms, neg, sum_index = rs.norms2, rs.neg, rs.sum_index

    def put(a: int, b: int, val: int) -> None:
        c = neg[sum_index(a, b)]
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            v, rem = divmod(norms[z] * val, norms[c])
            if rem:
                raise AssertionError("non-integral derived constant")
            n[(x, y)] = n[(neg[y], neg[x])] = v
            n[(y, x)] = n[(neg[x], neg[y])] = -v

    for g in rs.positive_indices():
        pairs = _special_pairs(rs, g)
        if not pairs:
            continue
        a0, b0 = pairs[0]
        _, q = root_string(rs, a0, b0)
        want = assigned.get((a0, b0), 1) if assigned else 1
        put(a0, b0, want * (q + 1))
        denom = n[(g, neg[a0])]
        for c, d in pairs[1:]:
            # Jacobi on (-a0, c, d): the unknown N(c,d) multiplies N(g,-a0)
            t1 = 0
            cma = sum_index(c, neg[a0])
            if cma is not None:
                t1 = n[(neg[a0], c)] * n[(cma, d)]
            t2 = 0
            dma = sum_index(d, neg[a0])
            if dma is not None:
                t2 = n[(d, neg[a0])] * n[(dma, c)]
            ncd, rem = divmod(-(t1 + t2), denom)
            if rem:
                raise AssertionError("Jacobi division left a remainder")
            if assigned and (c, d) in assigned and \
                    (1 if ncd > 0 else -1) != assigned[(c, d)]:
                raise ValueError(f"sign for pair {(c, d)} is not consistently "
                                 f"achievable in a Chevalley basis")
            put(c, d, ncd)

    table = StructureConstantTable(rs, convention_id, n)
    _validate_strings(table)
    return table


def _validate_strings(table: StructureConstantTable) -> None:
    """|N_{a,b}| = q + 1 for every pair, q from the root string through b.

    Each zero-sum triple {a, b, c} and its negation have one pair of
    positive roots a < b.  Its root string gives the magnitudes of all
    twelve entries by the norm-ratio rule, and their signs must follow
    N_{a,b} by that rule, antisymmetry and negation.
    """
    rs = table.rs
    n, neg, norms = table.n, rs.neg, rs.norms2
    for a, b in n:
        if not rs.npos <= a < b:
            continue
        c = neg[rs.sum_index(a, b)]
        _, q = root_string(rs, a, b)
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            mag, rem = divmod((q + 1) * norms[z], norms[c])
            if rem:
                raise AssertionError("non-integral |N| by the norm-ratio rule")
            val = mag if n[(a, b)] > 0 else -mag
            for pair, want in (((x, y), val), ((y, x), -val),
                               ((neg[x], neg[y]), -val), ((neg[y], neg[x]), val)):
                got = n.get(pair, 0)
                if abs(got) != mag:
                    raise AssertionError(
                        f"|N| for pair ({rs.root_name(pair[0])}, "
                        f"{rs.root_name(pair[1])}) is {abs(got)}, expected {mag}")
                if got != want:
                    raise AssertionError(
                        f"sign of N for pair ({rs.root_name(pair[0])}, "
                        f"{rs.root_name(pair[1])}) breaks the norm-ratio, "
                        f"antisymmetry or negation rule")


def _jacobi_first_failure(table: StructureConstantTable):
    """``first_failure(x, y, zs)``: the first z in ``zs`` for which
    [[x,y],z] + [[y,z],x] + [[z,x],y] is nonzero on the root vectors
    e_x, e_y, e_z, Cartan terms from opposite pairs included, or None."""
    rs = table.rs
    rank = rs.rank
    neg = rs.neg
    sum_index = rs.sum_index
    nmap = table.n

    def bracket(vec_r: dict, vec_h: list, a: int):
        """[ (vec_r, vec_h), e_a ] -> (root part, cartan part)."""
        out_r: dict = {}
        out_h = [0] * rank
        for b, cb in vec_r.items():
            if b == neg[a]:
                continue  # handled below
            s = sum_index(b, a)
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

    def first_failure(x: int, y: int, zs):
        base_r, base_h = bracket({x: 1}, [0] * rank, y)
        for z in zs:
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
                return z
            for j in range(rank):
                if t1h[j] + t2h[j] + t3h[j] != 0:
                    return z
        return None

    return first_failure


def validate_jacobi(table: StructureConstantTable):
    """First failing root triple (x, y, z), x < y, of the Jacobi identity,
    or None.

    Every term of the identity on e_x, e_y, e_z lies in the weight space
    of x + y + z, so a triple whose sum is neither a root nor 0 holds
    whatever the constants are; only the other triples are checked, in the
    order of the full loop over x < y and every z, whose first failure
    they therefore give.  The sum is read from root codes: three
    coefficients of at most 6 stay inside the code window.
    """
    rs = table.rs
    nroots = rs.nroots
    code = rs.code
    closed = {*code, 0}
    first_failure = _jacobi_first_failure(table)
    for x in range(nroots):
        for y in range(x + 1, nroots):
            t = code[x] + code[y]
            z = first_failure(x, y, [z for z in range(nroots) if t + code[z] in closed])
            if z is not None:
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
    convention_id = doc.get("convention_id", "fixture")
    if not isinstance(convention_id, str):
        raise ValueError("fixture convention_id must be a string")
    rows = doc.get("constants")
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == 3 and row[2] != 0
            and all(type(x) is int for x in row) for row in rows):
        raise ValueError("fixture constants must be [a, b, N] int triples "
                         "with N nonzero")
    n = {(a, b): v for a, b, v in rows}
    sum_index = rs.sum_index
    pairs = {(a, b) for a in range(rs.nroots) for b in range(rs.nroots)
             if sum_index(a, b) is not None}
    if len(n) != len(rows) or n.keys() != pairs:
        raise ValueError("fixture constants must list each ordered pair of "
                         "roots with a root sum exactly once")
    return StructureConstantTable(rs, convention_id, n)


# -- conjugation scalars ------------------------------------------------


class ScalarTable(namedtuple("ScalarTable", "rs convention_id signed_perm")):
    """Signs of Ad(n_s) on root vectors, one signed permutation per simple.

    ``rs`` is the RootSystem, ``convention_id`` a str, and
    ``signed_perm[i-1][root] = (img, sign)``, two ints.
    """

    __slots__ = ()

    def c(self, i: int, a: int) -> int:
        """Scalar by which Ad(n_i) carries the a-root vector to the s_i(a) one."""
        return self.signed_perm[i - 1][a][1]


def _ad_matrix(table: StructureConstantTable, a: int):
    """Sparse columns of ad(e_a) on the basis (root vectors, then h_j),
    each a tuple of (target, value) pairs."""
    rs = table.rs
    nroots, n, sum_index = rs.nroots, table.n, rs.sum_index
    na = rs.neg[a]
    cols = []
    for b in range(nroots):
        if b == na:
            cols.append(tuple((nroots + j, v) for j, v in enumerate(rs.coroots[a]) if v))
            continue
        s = sum_index(a, b)
        cols.append(((s, n[(a, b)]),) if s is not None else ())
    cols.extend(((a, -v),) if v else () for v in rs._psc[a])
    return cols


def _exp_apply(cols, scale: int, vec: dict) -> dict:
    """exp(scale * M) vec for nilpotent sparse integer M given by columns.

    Each divided power is an exact division by k; in a Chevalley basis
    it cannot leave a remainder, so one means a corrupted table.
    """
    out = dict(vec)
    term = vec
    power = 0
    while term:
        power += 1
        nxt: dict = {}
        for idx, coef in term.items():
            for tgt, m in cols[idx]:
                nxt[tgt] = nxt.get(tgt, 0) + coef * m
        term = {}
        for i, v in nxt.items():
            if v:
                q, rem = divmod(v, power)
                if rem:
                    raise AssertionError("a divided power of ad(e) is not integral")
                q *= scale
                term[i] = q
                out[i] = out.get(i, 0) + q
        if power > len(cols):
            raise AssertionError("ad matrix is not nilpotent")
    return {i: v for i, v in out.items() if v}


def _ad_n_columns(table: StructureConstantTable, i: int) -> list[dict]:
    """Ad(n_i) = exp(ad e) exp(-ad f) exp(ad e) on the root vectors, i 0-based.

    A root vector that both ad(e) and ad(f) kill (k +- alpha_i is not a
    root and k != +-alpha_i, which the root system alone decides) is
    fixed by all three exponentials, so it is taken as is.
    """
    rs = table.rs
    e = rs.simple_index[i]
    ad_e = _ad_matrix(table, e)
    ad_f = _ad_matrix(table, rs.neg[e])
    return [_exp_apply(ad_e, 1, _exp_apply(ad_f, -1, _exp_apply(ad_e, 1, {k: 1})))
            if ad_e[k] or ad_f[k] else {k: 1}
            for k in range(rs.nroots)]


def scalar_table(table: StructureConstantTable) -> ScalarTable:
    """Exponentiate n_i = u_i(1) u_{-i}(-1) u_i(1) in the adjoint action.

    Each column is the three exponentials applied to one root vector, in
    integers, with every divided power an exact division; a root vector
    that ad(e_i) and ad(f_i) both kill skips them, as they fix it
    (``_ad_n_columns``).  The operator must act on every root
    vector as +-(another root vector), the one ``simple_perms`` names;
    anything else is a corrupted constants table.
    """
    rs = table.rs
    perms = []
    for i in range(rs.rank):
        m = _ad_n_columns(table, i)
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
            sp.append((tgt, val))
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


class DependenceRelation(namedtuple("DependenceRelation", "terms")):
    """A vanishing integer combination of distinct roots: ``terms`` holds
    its (multiplicity, root index) int pairs."""

    __slots__ = ()


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
    """(1, -theta) plus the marks on the simple roots: the affine nodes."""
    return dependence_relation(rs, affine_nodes(rs))


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
