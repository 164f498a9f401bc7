import json
import random

import pytest

from weylrep import affine, weyl
from weylrep.chevalley import (
    ad_word_sign,
    build_constants,
    c_word,
    constants_from_special_pairs,
    dependence_relation,
    evaluate_character,
    fixes_relation,
    highest_root_relation,
    scalar_table,
    table_from_json,
    table_to_json,
    validate_jacobi,
)
from weylrep.rootsys import root_string

EXHAUSTIVE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
                    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6),
                    ("C", 3), ("C", 4), ("C", 5), ("C", 6),
                    ("D", 4), ("D", 5), ("D", 6),
                    ("E", 6), ("F", 4), ("G", 2)]


def b2_fixture_table(rs):
    """Sign convention pinned to reproduce the classical B2 realization:
    c(n_long, short) = 1, c(n_long, short+long) = -1, c(n_long, theta) = 1."""
    g = rs.index[(1, 1)]
    th = rs.index[(1, 2)]
    a2 = rs.simple_index[1]
    return constants_from_special_pairs(
        rs, {(a2, rs.simple_index[0]): -1, (a2, g): 1}, "b2-classical-fixture")


def test_structure_constant_magnitudes(get_rs, get_scalars):
    a2 = get_rs("A", 2)
    table, _ = get_scalars("A", 2)
    for (x, y), val in table.n.items():
        assert abs(val) == 1  # all strings have length 1 in simply-laced A2
    g2 = get_rs("G", 2)
    tg, _ = get_scalars("G", 2)
    mags = {abs(v) for v in tg.n.values()}
    assert mags == {1, 2, 3}
    for (x, y), val in tg.n.items():
        _, q = root_string(g2, x, y)
        assert abs(val) == q + 1


@pytest.mark.parametrize("label,rank", EXHAUSTIVE_TYPES)
def test_jacobi_identity(label, rank, get_scalars):
    table, _ = get_scalars(label, rank)
    assert validate_jacobi(table) is None


def test_corrupted_table_fails_jacobi(get_rs):
    rs = get_rs("A", 2)
    table = build_constants(rs)
    doc = table_to_json(table)
    doc["constants"][0][2] *= 3  # corrupt one constant
    bad = table_from_json(rs, doc)
    assert validate_jacobi(bad) is not None


def test_table_json_round_trip(get_rs, get_scalars):
    rs = get_rs("B", 3)
    table, _ = get_scalars("B", 3)
    doc = json.loads(json.dumps(table_to_json(table)))
    back = table_from_json(rs, doc)
    assert back.n == table.n
    with pytest.raises(ValueError):
        table_from_json(get_rs("A", 3), doc)
    a1 = get_rs("A", 1)
    with pytest.raises(ValueError):
        table_from_json(a1, dict(table_to_json(build_constants(a1)), rank=True))


@pytest.mark.parametrize("value", [0, True, 1.0])
def test_table_from_json_rejects_non_int_or_zero_constants(get_rs, value):
    rs = get_rs("A", 2)
    doc = table_to_json(build_constants(rs))
    doc["constants"][0][2] = value
    with pytest.raises(ValueError, match="nonzero"):
        table_from_json(rs, doc)


@pytest.mark.parametrize("label,rank", EXHAUSTIVE_TYPES)
def test_scalar_table_invariants(label, rank, get_rs, get_scalars):
    """c(s,a) c(s,-a) = 1 everywhere; both-simple pairs give 1."""
    rs = get_rs(label, rank)
    _, scalars = get_scalars(label, rank)
    simples = set(rs.simple_index)
    for i in range(1, rs.rank + 1):
        for a in range(rs.nroots):
            assert scalars.c(i, a) * \
                scalars.c(i, rs.neg[a]) == 1
            if a in simples and rs.simple_perms[i - 1][a] in simples:
                assert scalars.c(i, a) == 1


def test_c_word_identity_and_simple_chains(get_rs, get_scalars):
    rs = get_rs("A", 3)
    _, scalars = get_scalars("A", 3)
    e = weyl.identity(rs)
    for a in range(rs.nroots):
        assert c_word(scalars, e, a) == 1
    # a word whose intermediate images all stay simple multiplies ones:
    # in D4, nodes 1, 3, 4 are mutually orthogonal, so s1 s3 fixes alpha4
    # through simple intermediate images only
    d4 = get_rs("D", 4)
    _, sc4 = get_scalars("D", 4)
    w = weyl.from_word(d4, (1, 3))
    a = d4.simple_index[3]
    assert w.perm[a] == a
    img = a
    for i in reversed(w.word):
        assert img in set(d4.simple_index)
        img = d4.simple_perms[i - 1][img]
    assert c_word(sc4, w, a) == 1


def test_c_word_matches_adjoint_oracle_b3(get_rs, get_scalars):
    rs = get_rs("B", 3)
    _, scalars = get_scalars("B", 3)
    rng = random.Random(31)
    for _ in range(300):
        w = weyl.random_element(rs, rng)
        a = rng.randrange(rs.nroots)
        assert c_word(scalars, w, a) == ad_word_sign(scalars, w, a)


def test_signed_perm_matches_dense_composition(get_rs, get_scalars):
    """Spot-check the sparse oracle against literal matrix products."""
    rs = get_rs("B", 2)
    table, scalars = get_scalars("B", 2)
    from weylrep.chevalley import _ad_matrix, _sparse_exp, _sparse_mul
    from fractions import Fraction

    def dense(cols, dim):
        m = [[0] * dim for _ in range(dim)]
        for j, col in enumerate(cols):
            for i, v in col.items():
                assert v.denominator == 1
                m[i][j] = int(v)
        return m

    dim = rs.nroots + rs.rank
    mats = []
    for i in range(rs.rank):
        e = rs.simple_index[i]
        f = rs.neg[e]
        cols = _sparse_mul(
            _sparse_exp(_ad_matrix(table, e), Fraction(1)),
            _sparse_mul(_sparse_exp(_ad_matrix(table, f), Fraction(-1)),
                        _sparse_exp(_ad_matrix(table, e), Fraction(1))))
        mats.append(dense(cols, dim))
    rng = random.Random(8)
    from weylrep.intmat import mat_mul
    for _ in range(20):
        word = [rng.randrange(1, rs.rank + 1) for _ in range(6)]
        w = weyl.from_word(rs, word)
        prod = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for i in w.word:
            prod = mat_mul(prod, mats[i - 1])
        for a in range(rs.nroots):
            col = [prod[r][a] for r in range(dim)]
            nz = [(r, v) for r, v in enumerate(col) if v]
            assert len(nz) == 1
            assert nz[0][0] == w.perm[a]
            assert nz[0][1] == ad_word_sign(scalars, w, a)


def test_dependence_relation_validation(get_rs):
    rs = get_rs("A", 2)
    t = rs.highest_root
    with pytest.raises(ValueError):
        dependence_relation(rs, [(1, rs.simple_index[0])])
    with pytest.raises(ValueError):
        dependence_relation(rs, [(1, t), (1, t)])
    rel = dependence_relation(
        rs, [(1, rs.simple_index[0]), (1, rs.simple_index[1]), (1, rs.neg[t])])
    assert len(rel.terms) == 3


def test_highest_root_relation(get_rs):
    a2 = get_rs("A", 2)
    rel = highest_root_relation(a2)
    assert sorted(m for m, _ in rel.terms) == [1, 1, 1]
    d5 = get_rs("D", 5)
    rel5 = highest_root_relation(d5)
    mults = {d5.root_name(a): m for m, a in rel5.terms}
    assert sorted(mults.values()) == [1, 1, 1, 1, 2, 2]


def test_fixing_subgroup_of_highest_root_relation(get_rs):
    """Exactly the stabilizer projections fix the relation (rank <= 3)."""
    for label, rank in (("A", 2), ("A", 3), ("B", 3), ("C", 3)):
        rs = get_rs(label, rank)
        rel = highest_root_relation(rs)
        fixing = {w for w in weyl.enumerate_group(rs) if fixes_relation(w, rel)}
        omegas = {om.sigma
                  for om in affine.omega_group(rs, affine.adjoint_lattice(rs))}
        assert fixing == omegas


def test_minus_a_plus_a_relation_trivial(get_rs, get_scalars):
    rs = get_rs("B", 3)
    _, scalars = get_scalars("B", 3)
    for a in list(rs.positive_indices())[:6]:
        rel = dependence_relation(rs, [(1, a), (1, rs.neg[a])])
        for w in (weyl.identity(rs), weyl.longest_element(rs),
                  weyl.from_word(rs, (1, 2))):
            if fixes_relation(w, rel):
                assert evaluate_character(scalars, rel, w) == 1


def test_character_requires_fixing(get_rs, get_scalars):
    rs = get_rs("B", 2)
    _, scalars = get_scalars("B", 2)
    rel = highest_root_relation(rs)
    with pytest.raises(ValueError):
        evaluate_character(scalars, rel, weyl.simple_reflection(rs, 2))


def test_character_is_multiplicative_on_fixing_subgroup(get_rs, get_scalars):
    for label, rank in (("A", 3), ("D", 4)):
        rs = get_rs(label, rank)
        _, scalars = get_scalars(label, rank)
        rel = highest_root_relation(rs)
        fixing = [om.sigma for om in
                  affine.omega_group(rs, affine.adjoint_lattice(rs))]
        for u in fixing:
            for v in fixing:
                uv = u * v
                assert fixes_relation(uv, rel)
                assert evaluate_character(scalars, rel, uv) == \
                    evaluate_character(scalars, rel, u) * \
                    evaluate_character(scalars, rel, v)


@pytest.mark.parametrize("label,rank", EXHAUSTIVE_TYPES)
def test_trivial_character_on_stabilizer_projections(label, rank, get_rs,
                                                     get_scalars):
    rs = get_rs(label, rank)
    _, scalars = get_scalars(label, rank)
    rel = highest_root_relation(rs)
    for om in affine.omega_group(rs, affine.adjoint_lattice(rs)):
        assert evaluate_character(scalars, rel, om.sigma) == 1


def test_b2_fixture_reproduces_cited_values(get_rs):
    rs = get_rs("B", 2)
    table = b2_fixture_table(rs)
    assert validate_jacobi(table) is None
    scalars = scalar_table(table)
    # short simple, short+long, and the highest root, under the long reflection
    short = rs.simple_index[1]
    gamma = rs.index[(1, 1)]
    theta = rs.index[(1, 2)]
    assert scalars.c(1, short) == 1
    assert scalars.c(1, gamma) == -1
    assert scalars.c(1, theta) == 1
    s = weyl.simple_reflection(rs, 1)
    rel = dependence_relation(rs, [(1, short), (1, gamma), (-1, theta)])
    assert fixes_relation(s, rel)
    assert evaluate_character(scalars, rel, s) == -1


def test_b2_relation_value_is_convention_independent(get_rs):
    """All four special-pair sign choices give the same character value."""
    rs = get_rs("B", 2)
    g = rs.index[(1, 1)]
    short = rs.simple_index[1]
    theta = rs.index[(1, 2)]
    s = weyl.simple_reflection(rs, 1)
    rel = dependence_relation(rs, [(1, short), (1, g), (-1, theta)])
    for s1 in (1, -1):
        for s2 in (1, -1):
            table = constants_from_special_pairs(
                rs, {(short, rs.simple_index[0]): s1, (short, g): s2}, "probe")
            assert evaluate_character(scalar_table(table), rel, s) == -1
