import hashlib
import json
import random
from fractions import Fraction

import pytest

from weylrep import affine, chevalley, weyl
from weylrep.chevalley import (
    StructureConstantTable,
    _validate_strings,
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
from weylrep.rootsys import root_string, root_system

EXHAUSTIVE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
                    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6),
                    ("C", 3), ("C", 4), ("C", 5), ("C", 6),
                    ("D", 4), ("D", 5), ("D", 6),
                    ("E", 6), ("F", 4), ("G", 2)]


# sha256 of json.dumps(table_to_json(build_constants(rs))["constants"]) and
# of json.dumps(scalar_table(...).signed_perm) under the default convention.
# Jacobi and |N| = q + 1 hold for every sign choice, so only these pin which
# signs the default extraspecial convention produces.
DEFAULT_TABLE_SHA256 = {
    ("A", 1): ("4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
              "a3b008d53a60fab6e64844abc7b752af2bf7c65470332758b9a4434578b39805"),
    ("A", 2): ("09314e7020114c937319520e82ffc69bf8ff5935417801f362883fff3630d36d",
              "8a0bb9decd26f36f9dcaa5953d26990eb77a2bd2edf91958f0ced0dad14a4e94"),
    ("A", 3): ("8d34d8e9dc522068784d23fe569b7f7dc46472608be271b22d32f3ca02de7015",
              "75ba515b5843d57eda7e522e797a41686ca0e20ea3b8ba45742f8321c698cf52"),
    ("A", 4): ("da67bee71dafc65d85691c73a5f2592c9cf925e4d792146b238ce50ae62429f5",
              "e71e396b24cab63d5ea029a7017ba723d69a761b9241da65b6616f558688cd62"),
    ("A", 5): ("c7630d9ce172d5149307c34260e1b32ff513bf42788e736ac78ab8ed0bad2603",
              "983f71c4fa1f64844085dc87795c5ea2d41f98bc8f581025bee9463dbc49fb71"),
    ("A", 6): ("9b172a898ba4aefa57bf055bfc8233c1a9f571692f5da01c2a9648b4622ecb28",
              "f74a96e32463a6ccb6d7772552cd152e70e5233341aa7168c8057478f61273c8"),
    ("B", 2): ("a5b673c2fb821314165c6375aa780c7fa0171660380c738714aff78b68f7ed95",
              "4363dc39cb6f5e7d6b5c355efad296d138789296c25c9851e706e2333eb14c9a"),
    ("B", 3): ("50f1c07b506f2a1dde8565f458ad0f48296c3cebc87102c3c870517a78828c56",
              "7817eedae28b2bdd69f680deed8c11ab1924d556e0425bb357f90ee787dfc890"),
    ("B", 4): ("a91d2365d7d5b5d9df5cb3f25363e4e1771e68f9ec5180517a4d6193ec778813",
              "a096853404a64d07a96c668182ea462c7d82a1ce1f9ff2a19d40431cbb3237c1"),
    ("B", 5): ("944cab2e13723ebbf142c17814c3a169522e0faf136899fae08ca654c2152f6f",
              "a29aff40b48503b25b89473d26f7d6b9f7b42141be031400a8fa3ee52caf9d03"),
    ("B", 6): ("8c4c2b3fd073cb4989b884c0bb301710883ac359d88925aa08bec7c9b77cc8b5",
              "dc750f1b1cfc2085cb0937dac820bbf8ed0c3229c48dcf8e46aa3e515649baf4"),
    ("C", 3): ("231d3475a12e3215b34d51e3ba7ccb689c396c1656bb03f7d38a0453c3e4144f",
              "7aaed1a09e08d665b61cdc4052aae3b7e4f4dc950d81732268058d0ccc70acc0"),
    ("C", 4): ("65b8db1d12ca90c754a5c624fec7a0cef6c2c5b3088186f0db51b610b795d09c",
              "cd60176e5f61342c6994af143063f2a58fdcdd636fa55ade31b71094113bc5a3"),
    ("C", 5): ("89ce018f65149ccf550034cdea961fa61d5ab3d0a9531037ed9b4dff0c55fa44",
              "f96a6e2cdc550be8ccb62c7b7391a0c07a5ff4dbb0a3d20f06ab2ac696343fbf"),
    ("C", 6): ("a761de3aeac712fd635908cd12af245979aaa8a355386fb45b223e170237e719",
              "4075af5253eb8874283f1c776af1d7f9c9d5db16bca46e9a8ae06530e1b9a4a9"),
    ("D", 4): ("3f17665b673f49861b324b746da4ab859d820dfd3e4fcf4f9aaf5edc9b7e84d0",
              "c617da3c47f1c323a5ffb0c65f9bec1b9e4b70bd2ab348e8b39fefcedfecf3cd"),
    ("D", 5): ("0203ca7040fed9d0d7c8ba4f61f3a769b4839eba1aaf5db415511287d4f596ef",
              "1f9a7af9352afdfad508a69f921a963015ea6f2ed874dccee070808fc2d433b7"),
    ("D", 6): ("160430706c45a8c569a89931ef3d928f31913f59f1037c8ed8a261ee26c6adf9",
              "63e7172c19c64e0eb85460357c59278cb8a20e321ad50eca453989e5560eaaeb"),
    ("E", 6): ("fdfe1bd0d22f63ebf42bcb7e650d3b6af0f4d33b116a994d00e465f2044c9f9f",
              "fe52e5ebd7b926ac544a97780b5289ffe25a726cff62fb4b11b3ed00651848f2"),
    ("F", 4): ("eff34ad6442b63571838df6d9c3ee4ada002ed328b97d30826ad7ce0a89000ba",
              "d3c1b8fad0194d7c5b3e3950d5a2afd7dffa0fa7e4ddd90e69dda5d132403540"),
    ("G", 2): ("4200c083902b56c82aea2fb0060aa26643090dc33232dc27a889eb3760201a06",
              "3c852d33e29a12fe32b3a096ec1aa0f64cfd552c076c5f49be4c48c2511da1a0"),
    ("E", 7): ("55881b28489f770a2ba621bba7936760093ea5762736a95cde2b7b6e4614e95b",
              "e6f3466e0b5f29369bf1e89fd4333b762812a04d6f68b103d526db88e4aaac15"),
    ("E", 8): ("2f8cae890b1cc1727e87710db74c17e462b9856814571ff7ed0cdf309ba282d0",
              "50cc4a1b8fe77122f59f276a3faed978b20e4335ed0d54c5a396ad96dbae3c51"),
}


@pytest.mark.parametrize("label,rank",
                         EXHAUSTIVE_TYPES + [("E", 7), ("E", 8)])
def test_default_tables_are_pinned(label, rank, get_scalars):
    table, scalars = get_scalars(label, rank)
    constants = json.dumps(table_to_json(table)["constants"]).encode()
    perms = json.dumps(scalars.signed_perm).encode()
    assert (hashlib.sha256(constants).hexdigest(),
            hashlib.sha256(perms).hexdigest()) == \
        DEFAULT_TABLE_SHA256[(label, rank)]


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


def _with_entry(table, pair, val):
    return StructureConstantTable(table.rs, table.convention_id,
                                  {**table.n, pair: val})


def _jacobi_full_loop(table):
    """The oracle: every triple x < y, z in order, with no weight filter."""
    first_failure = chevalley._jacobi_first_failure(table)
    n = table.rs.nroots
    for x in range(n):
        for y in range(x + 1, n):
            z = first_failure(x, y, range(n))
            if z is not None:
                return (x, y, z)
    return None


@pytest.mark.parametrize("label,rank", [("B", 3), ("G", 2), ("F", 4), ("D", 5)])
def test_jacobi_closed_triples_give_the_full_loop_witness(label, rank, get_scalars):
    """Planted single-sign faults fail both loops on the same triple."""
    table, _ = get_scalars(label, rank)
    rng = random.Random(f"jacobi/{label}{rank}")
    for pair in rng.sample(sorted(table.n), 10):
        bad = _with_entry(table, pair, -table.n[pair])
        witness = validate_jacobi(bad)
        assert witness is not None
        assert witness == _jacobi_full_loop(bad)


# every entry of G2, B3 and C3; 60 seeded entries of F4 and E6
@pytest.mark.parametrize("label, rank, picks", [
    ("G", 2, None), ("B", 3, None), ("C", 3, None), ("F", 4, 60), ("E", 6, 60)])
def test_one_wrong_constant_fails_its_check(label, rank, picks, get_scalars):
    """One entry with a wrong |N| fails the |N| check, whichever pair of
    its zero-sum triple the root string was taken for; one entry with a
    flipped sign fails the sign rules."""
    table, _ = get_scalars(label, rank)
    _validate_strings(table)
    pairs = sorted(table.n)
    if picks is not None:
        pairs = random.Random(f"{label}{rank}").sample(pairs, picks)
    for pair in pairs:
        val = table.n[pair]
        with pytest.raises(AssertionError, match=r"^\|N\| for pair"):
            _validate_strings(_with_entry(table, pair, val + (1 if val > 0 else -1)))
        with pytest.raises(AssertionError, match="^sign of N for pair"):
            _validate_strings(_with_entry(table, pair, -val))


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


@pytest.mark.parametrize("value", [5, None, ["x"]])
def test_table_from_json_rejects_a_non_string_convention_id(get_rs, value):
    rs = get_rs("A", 2)
    doc = dict(table_to_json(build_constants(rs)), convention_id=value)
    with pytest.raises(ValueError, match="convention_id must be a string"):
        table_from_json(rs, doc)
    del doc["convention_id"]
    assert table_from_json(rs, doc).convention_id == "fixture"


def _signs_only(table, pair):
    """``table`` with the entry at ``pair`` replaced by its sign."""
    return _with_entry(table, pair, 1 if table.n[pair] > 0 else -1)


def test_non_integral_divided_power_fails(get_rs, get_scalars):
    """With N(alpha_2, alpha_1 + alpha_2) = +-1 instead of +-2 in B2,
    ad(e_2)^2 / 2 takes e_1 to half a root vector."""
    rs = get_rs("B", 2)
    table, _ = get_scalars("B", 2)
    pair = (rs.simple_index[1], rs.index[(1, 1)])
    assert abs(table.n[pair]) == 2
    with pytest.raises(AssertionError, match="divided power"):
        scalar_table(_signs_only(table, pair))


def test_sign_only_entries_fail_at_a_divided_power(get_scalars):
    """Each |N| >= 2 entry of B2, B3, C3, G2 and F4 replaced by its sign,
    one table each: the 52 tables that change a constant some Ad(n_i)
    reads fail at a divided power, and the other 172 build."""
    failed = total = 0
    for label, rank in [("B", 2), ("B", 3), ("C", 3), ("G", 2), ("F", 4)]:
        table, _ = get_scalars(label, rank)
        for pair in sorted(p for p, v in table.n.items() if abs(v) >= 2):
            total += 1
            try:
                scalar_table(_signs_only(table, pair))
            except AssertionError as exc:
                assert "divided power" in str(exc), (label, rank, pair, exc)
                failed += 1
    assert (failed, total) == (52, 224)


def test_constants_and_scalar_tables_make_no_fractions(get_rs, monkeypatch):
    """Constants, ad(e) and its divided powers are all integers."""
    types = [("E", 6), ("F", 4), ("G", 2), ("B", 3), ("C", 4)]
    systems = [get_rs(label, rank) for label, rank in types]
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for rs in systems:
        scalar_table(build_constants(rs))
    assert len(made) == 0


# every type up to rank 8, as in test_fixer's HELD_SNF_TYPES
ALL_TYPES_TO_RANK_8 = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
                       + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)]
                       + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def _signed_perm_by_all_exponentials(table):
    """The oracle for ``scalar_table``: all three exponentials applied to
    every root vector, the fixed ones included, with the same checks."""
    rs = table.rs
    perms = []
    for i in range(rs.rank):
        e = rs.simple_index[i]
        ad_e = chevalley._ad_matrix(table, e)
        ad_f = chevalley._ad_matrix(table, rs.neg[e])
        sp = []
        for b in range(rs.nroots):
            col = chevalley._exp_apply(ad_e, 1, chevalley._exp_apply(
                ad_f, -1, chevalley._exp_apply(ad_e, 1, {b: 1})))
            assert len(col) == 1, f"Ad(n_{i + 1}) image is not a basis vector"
            (tgt, val), = col.items()
            assert tgt == rs.simple_perms[i][b] and val in (1, -1), \
                f"Ad(n_{i + 1}) sends e_{rs.root_name(b)} off +-e_s(b)"
            sp.append((tgt, val))
        perms.append(tuple(sp))
    return tuple(perms)


@pytest.mark.parametrize("label,rank", ALL_TYPES_TO_RANK_8)
def test_scalar_table_skip_matches_all_exponentials(label, rank, get_scalars):
    """Taking the root vectors that ad(e_i) and ad(f_i) both kill as fixed
    gives the signed permutations that exponentiating every one gives."""
    table, scalars = get_scalars(label, rank)
    assert scalars.signed_perm == _signed_perm_by_all_exponentials(table)


@pytest.mark.parametrize("label,rank", [("B", 3), ("G", 2), ("F", 4)])
def test_sign_faults_next_to_a_simple_root_fail_the_scalar_table(label, rank,
                                                                 get_rs, get_scalars):
    """One flipped sign in N(alpha_i, b), for each simple i and each b with
    alpha_i + b a root, fails ``scalar_table`` and the oracle alike."""
    rs = get_rs(label, rank)
    table, _ = get_scalars(label, rank)
    pairs = [(e, b) for e in rs.simple_index for b in range(rs.nroots)
             if (e, b) in table.n]
    assert pairs
    for pair in pairs:
        bad = _with_entry(table, pair, -table.n[pair])
        with pytest.raises(AssertionError, match="Ad\\(n_"):
            scalar_table(bad)
        with pytest.raises(AssertionError):
            _signed_perm_by_all_exponentials(bad)


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
    from weylrep.chevalley import _ad_n_columns

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
        mats.append(dense(_ad_n_columns(table, i), dim))
    rng = random.Random(8)
    from conftest import mat_mul
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
                  for om in affine.omega_group(rs)}
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
                  affine.omega_group(rs)]
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
    for om in affine.omega_group(rs):
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


class _CountingDict(dict):
    """A dict that counts its key lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


@pytest.mark.parametrize("label,rank,classes", [("E", 6, 2), ("G", 2, 0)])
def test_lattice_builders_look_up_no_coordinate_tuples(label, rank, classes,
                                                       monkeypatch):
    """Constants, scalar tables, the Jacobi check and the R/S partitions
    add roots by their codes: ``rs.index`` is never read."""
    rs = root_system(label, rank)
    a3 = root_system("A", 3)
    counters = []
    for system in (rs, a3):
        counters.append(_CountingDict(system.index))
        monkeypatch.setattr(system, "index", counters[-1])
    assert counters[0][rs.roots[0]] == 0 and counters[0].lookups == 1
    counters[0].lookups = 0
    scalar_table(build_constants(rs))
    assert validate_jacobi(build_constants(a3)) is None
    big = [om for om in affine.omega_group(rs) if om.order() >= 3]
    assert len(big) == classes
    for om in big:
        affine.sigma_rs(om)
    assert [c.lookups for c in counters] == [0, 0]
