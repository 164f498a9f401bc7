import json
import pathlib
import random
from functools import cached_property
from operator import add, sub

import pytest

from conftest import mat_det
from weylrep import rootsys
from weylrep.rootsys import (
    CartanDatum,
    CartanError,
    RootSystem,
    cartan_datum,
    root_string,
    root_system,
    rootsys_to_json,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# (label, rank) -> number of roots, from the classical count formulas
KNOWN_COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("A", 4): 20, ("A", 5): 30,
    ("A", 6): 42, ("B", 2): 8, ("B", 3): 18, ("B", 4): 32, ("C", 3): 18,
    ("C", 4): 32, ("D", 4): 24, ("D", 5): 40, ("D", 6): 60, ("E", 6): 72,
    ("E", 7): 126, ("E", 8): 240, ("F", 4): 48, ("G", 2): 12,
}


def brute_count(label, rank):
    return KNOWN_COUNTS[(label, rank)]


@pytest.mark.parametrize("label,rank", sorted(KNOWN_COUNTS))
def test_closure_count_matches_classical_formula(label, rank, get_rs):
    rs = get_rs(label, rank)
    assert rs.nroots == brute_count(label, rank)
    assert rs.npos * 2 == rs.nroots
    # #positive roots = rank * h / 2
    assert 2 * rs.npos == rs.rank * rs.coxeter_number


def test_a1_smallest_system(get_rs):
    rs = get_rs("A", 1)
    assert rs.nroots == 2
    assert rs.coxeter_number == 2
    assert set(rs.roots) == {(1,), (-1,)}


def test_d5_and_e6_coxeter_numbers(get_rs):
    assert get_rs("D", 5).coxeter_number == 8
    assert get_rs("E", 6).coxeter_number == 12


def test_rejects_bad_cartan_input():
    with pytest.raises(CartanError):
        cartan_datum("A", 0)
    with pytest.raises(CartanError):
        cartan_datum("E", 9)
    with pytest.raises(CartanError):
        cartan_datum("H", 3)
    # reducible and non-positive-definite matrices are rejected by validate
    from weylrep.rootsys import CartanDatum, RootSystem

    reducible = CartanDatum("A", 2, ((2, 0), (0, 2)))
    with pytest.raises(CartanError):
        RootSystem(reducible)
    affine_a1 = CartanDatum("A", 2, ((2, -2), (-2, 2)))
    with pytest.raises(CartanError):
        RootSystem(affine_a1)


@pytest.mark.parametrize("label,rank", sorted(KNOWN_COUNTS))
def test_each_build_validates_its_datum_once(label, rank, monkeypatch):
    """``validate`` runs once per build, in ``RootSystem``, not again in
    ``cartan_datum``."""
    validated = []
    real = rootsys.CartanDatum.validate

    def counting(datum):
        validated.append(datum.rank)
        return real(datum)

    monkeypatch.setattr(rootsys.CartanDatum, "validate", counting)
    root_system(label, rank)
    assert validated == [rank]


def _minors_verdict(m):
    """The old route: positive definite iff every leading principal minor,
    each an exact ``Fraction`` determinant, is positive."""
    return all(mat_det([row[:k] for row in m[:k]]) > 0
               for k in range(1, len(m) + 1))


def _bareiss_verdict(m):
    try:
        CartanDatum("X", len(m), tuple(map(tuple, m))).validate()
    except CartanError as exc:
        assert str(exc) == "Cartan matrix is not positive definite"
        return False
    return True


TYPES_TO_RANK_8 = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
                   + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)]
                   + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("label,rank", TYPES_TO_RANK_8)
def test_bareiss_minors_give_the_old_verdict_on_every_type(label, rank):
    m = cartan_datum(label, rank).cartan_matrix
    assert _minors_verdict(m) and _bareiss_verdict(m)


@pytest.mark.parametrize("m, minors", [
    # affine A2~: minors 2, 3, 0
    (((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), (2, 3, 0)),
    # an A2~ graph with a double edge: minors 2, 3, -8
    (((2, -1, -1), (-1, 2, -2), (-1, -2, 2)), (2, 3, -8)),
])
def test_bareiss_minors_reject_what_the_old_route_rejects(m, minors):
    assert [mat_det([row[:k] for row in m[:k]])
            for k in (1, 2, 3)] == list(minors)
    assert not _minors_verdict(m) and not _bareiss_verdict(m)
    with pytest.raises(CartanError, match="^Cartan matrix is not positive definite$"):
        RootSystem(CartanDatum("A", 3, m))


def test_bareiss_minors_agree_on_random_cartan_like_matrices():
    """Random connected matrices with a symmetric zero pattern, the ones
    that reach the minors: both routes give the same verdict, and both
    verdicts occur."""
    rng = random.Random(20240901)
    seen = set()
    for _ in range(3000):
        n = rng.randint(1, 6)
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if j == i + 1 or rng.random() < 0.2:
                    m[i][j] = rng.choice((-1, -1, -2, -3))
                    m[j][i] = rng.choice((-1, -1, -1, -2, -3))
        verdict = _minors_verdict(m)
        assert _bareiss_verdict(m) == verdict
        seen.add(verdict)
    assert seen == {True, False}


def test_root_string_a2(get_rs):
    rs = get_rs("A", 2)
    a1 = rs.index[(1, 0)]
    a2 = rs.index[(0, 1)]
    # oracle: enumerate A2's six roots directly
    six = {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
    assert set(rs.roots) == six
    assert root_string(rs, a1, a2) == (1, 0)


def test_root_string_orthogonal_pair(get_rs):
    rs = get_rs("D", 4)
    a = rs.index[(1, 0, 0, 0)]
    b = rs.index[(0, 0, 1, 0)]
    assert rs.pairing[a][b] == 0
    assert root_string(rs, a, b) == (0, 0)


def test_root_string_g2_long_string(get_rs):
    rs = get_rs("G", 2)
    short = rs.index[(1, 0)]
    lng = rs.index[(0, 1)]
    # oracle: the twelve G2 roots
    twelve = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    twelve |= {tuple(-c for c in r) for r in twelve}
    assert set(rs.roots) == twelve
    assert root_string(rs, short, lng) == (3, 0)


def test_root_string_rejects_proportional(get_rs):
    rs = get_rs("A", 2)
    a = rs.index[(1, 0)]
    with pytest.raises(ValueError):
        root_string(rs, a, a)
    with pytest.raises(ValueError):
        root_string(rs, a, rs.neg[a])


@pytest.mark.parametrize("label,rank",
                         [(l, r) for (l, r) in sorted(KNOWN_COUNTS) if r <= 6])
def test_string_length_identity(label, rank, get_rs):
    """q - p recovers the pairing for every non-proportional root pair."""
    rs = get_rs(label, rank)
    for a in range(rs.nroots):
        for b in range(rs.nroots):
            if b == a or b == rs.neg[a]:
                continue
            p, q = root_string(rs, a, b)
            assert q - p == rs.pairing[b][a]


@pytest.mark.parametrize("label,rank", sorted(KNOWN_COUNTS))
def test_negation_and_pairing_symmetry(label, rank, get_rs):
    rs = get_rs(label, rank)
    for a in range(rs.nroots):
        na = rs.neg[a]
        assert rs.coroots[na] == tuple(-c for c in rs.coroots[a])
        for b in range(rs.nroots):
            assert rs.pairing[na][rs.neg[b]] == rs.pairing[a][b]


@pytest.mark.parametrize("label,rank", sorted(KNOWN_COUNTS))
def test_norms_match_the_form(label, rank, get_rs, form):
    """The root norms, built from integer pairings, are ints that agree with
    the Gram form, and the coroot coordinates are ints too."""
    rs = get_rs(label, rank)
    for k in range(rs.nroots):
        assert type(rs.norms2[k]) is int
        assert rs.norms2[k] == form(rs, k, k)
        assert all(type(c) is int for c in rs.coroots[k])


@pytest.mark.parametrize("label,rank", sorted(KNOWN_COUNTS))
def test_pairing_table_against_symmetrized_form(label, rank, get_rs, form):
    """<a, b^vee> must equal 2(a|b)/(b|b) for the invariant form."""
    rs = get_rs(label, rank)
    simples = rs.simple_index
    gram = [[form(rs, i, j) for j in simples] for i in simples]
    # cols[b][i] = (alpha_i | root_b), so each (a|b) is one rank-length sum
    cols = [[sum(g * c for g, c in zip(row, r)) for row in gram] for r in rs.roots]
    for a, ra in enumerate(rs.roots):
        for b, col in enumerate(cols):
            form_ab = sum(x * y for x, y in zip(ra, col))
            assert rs.pairing[a][b] == 2 * form_ab / rs.norms2[b]


def test_heights(get_rs):
    d5 = get_rs("D", 5)
    for i in range(d5.rank):
        assert d5.heights[d5.simple_index[i]] == 1
    theta = d5.highest_root
    assert d5.heights[theta] == d5.coxeter_number - 1 == 7
    assert d5.heights[d5.neg[theta]] == -7
    # height via the half-sum-of-coroots vector
    for b in range(d5.nroots):
        acc = sum(d5.rho_check_twice[i] * d5._psc[b][i] for i in range(d5.rank))
        assert acc == 2 * d5.heights[b]


def _simply_laced_conditions(rs):
    """Four equivalent characterizations, each read from a different table."""
    m = rs.datum.cartan_matrix
    n = rs.rank
    return {
        "no_multiple_bonds": all(m[i][j] * m[j][i] <= 1
                                 for i in range(n) for j in range(n) if i != j),
        "small_pairings": all(rs.pairing[a][b] in (-1, 0, 1)
                              for a in range(rs.nroots) for b in range(rs.nroots)
                              if b != a and b != rs.neg[a]),
        "symmetric_cartan": all(m[i][j] == m[j][i]
                                for i in range(n) for j in range(n)),
        "equal_norms": len(set(rs.norms2)) == 1,
    }


@pytest.mark.parametrize("label,rank",
                         [(l, r) for (l, r) in sorted(KNOWN_COUNTS) if r <= 8])
def test_simply_laced_conditions_agree(label, rank, get_rs):
    rs = get_rs(label, rank)
    conds = _simply_laced_conditions(rs)
    assert len(set(conds.values())) == 1, conds


def test_simply_laced_values(get_rs):
    assert all(_simply_laced_conditions(get_rs("D", 5)).values())
    assert all(_simply_laced_conditions(get_rs("E", 6)).values())
    assert not any(_simply_laced_conditions(get_rs("B", 2)).values())


def test_json_golden_files(get_rs):
    for label, rank in (("A", 2), ("B", 2), ("G", 2)):
        doc = rootsys_to_json(get_rs(label, rank))
        path = FIXTURES / f"rootsys_{label}{rank}.json"
        golden = json.loads(path.read_text())
        assert doc == golden


def test_json_is_serializable(get_rs):
    doc = rootsys_to_json(get_rs("E", 6))
    json.dumps(doc)  # no exotic types
    assert doc["coxeter_number"] == 12
    assert len(doc["roots"]) == 72


LAZY_TABLES = {"index", "pairing", "coset_chain", "packed_pairing",
               "packed_heights", "positive_table"}


@pytest.mark.parametrize("label,rank", [("D", 6), ("E", 7), ("E", 8)])
def test_pairing_table_is_built_on_first_use(label, rank):
    """No ``cached_property`` of ``RootSystem`` is built with the system,
    so none of that work lands in a build's time; the pairing table is
    built when ``rootsys_to_json`` reads it."""
    lazy = {name for name, attr in vars(RootSystem).items()
            if isinstance(attr, cached_property)}
    assert lazy == LAZY_TABLES
    rs = root_system(label, rank)
    assert not lazy & rs.__dict__.keys()
    assert rootsys_to_json(rs)["pairing"][rs.highest_root][rs.highest_root] == 2
    assert "pairing" in rs.__dict__


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("G", 2), ("F", 4)])
def test_coroot_sum_matches_the_table_rows(label, rank, get_rs):
    """<a, coroot_sum(B)> is the sum of the table entries <a, b^vee> over B."""
    rs = get_rs(label, rank)
    sets = [(), tuple(rs.positive_indices()), tuple(range(rs.nroots)),
            (rs.highest_root, rs.neg[rs.highest_root], rs.simple_index[0])]
    for roots in sets:
        s = rs.coroot_sum(roots)
        for a in range(rs.nroots):
            assert sum(x * y for x, y in zip(rs._psc[a], s)) == \
                sum(rs.pairing[a][b] for b in roots)
    assert rs.coroot_sum(rs.positive_indices()) == rs.rho_check_twice


# -- root codes against the coordinate-tuple route --------------------------

CODE_TYPES = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
              + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
              + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def _tuple_root_string(rs, a, b):
    """``root_string`` by coordinate tuples, the route root codes replace."""
    va = rs.roots[a]
    vb = rs.roots[b]

    def reach(step):
        n = 0
        while tuple(x + (n + 1) * step * y for x, y in zip(vb, va)) in rs.index:
            n += 1
        return n

    return reach(1), reach(-1)


@pytest.mark.parametrize("label,rank", CODE_TYPES)
def test_root_codes_match_the_coordinate_tuples(label, rank, get_rs):
    """Sums, differences, root strings and the code-built tables agree
    with their coordinate-tuple formulas on every ordered pair."""
    rs = get_rs(label, rank)
    roots, index = rs.roots, rs.index
    assert len(set(rs.code)) == rs.nroots
    assert all(rs.code_index[c] == k for k, c in enumerate(rs.code))
    for a, ra in enumerate(roots):
        for b, rb in enumerate(roots):
            assert rs.sum_index(a, b) == index.get(tuple(map(add, ra, rb)))
            assert rs.sum_index(a, rs.neg[b]) == index.get(tuple(map(sub, ra, rb)))
            if b != a and b != rs.neg[a]:
                assert root_string(rs, a, b) == _tuple_root_string(rs, a, b)
    cartan = rs.datum.cartan_matrix
    psc = tuple(tuple(sum(r[j] * cartan[i][j] for j in range(rank))
                      for i in range(rank)) for r in roots)
    assert rs._psc == psc
    assert rs.neg == tuple(index[tuple(-c for c in r)] for r in roots)
    assert rs.simple_index == tuple(
        index[tuple(1 if j == i else 0 for j in range(rank))] for i in range(rank))
    # every type here has at most 240 roots, so permutations are bytes
    assert rs.identity_perm == bytes(range(rs.nroots))
    assert rs.simple_perms == tuple(
        bytes(index[r[:i] + (r[i] - p[i],) + r[i + 1:]] for r, p in zip(roots, psc))
        for i in range(rank))


def test_root_codes_refuse_coefficients_past_the_window(monkeypatch):
    """Codes alias outside (-64, 64): (64, 0) and (-64, 1) share 64.  A
    largest coefficient of 12 keeps b + 4a inside; 13 must raise, and so
    must a root system build whose closure reaches such a root.  The
    closure of affine A1~ never ends, and coefficients grow one at a time,
    so the window stops it at 13, after accepting 12."""
    assert 64 + 0 * 128 == -64 + 1 * 128
    affine_a1 = ((2, -2), (-2, 2))
    with pytest.raises(CartanError, match="^root coefficient 13 is outside"):
        rootsys._positive_roots(affine_a1, (2, 2))

    # the datum passes its own checks here, so the build's closure runs on it
    monkeypatch.setattr(rootsys.CartanDatum, "validate", lambda datum: 0)
    with pytest.raises(CartanError, match="coefficient 13 is outside the root-code window"):
        RootSystem(CartanDatum("A", 2, affine_a1))


# -- the height-ordered build against the tuple route ------------------------

# every type up to rank 8, and the tuple layout of permutations (> 256 roots)
REFERENCE_TYPES = TYPES_TO_RANK_8 + [("A", 16), ("A", 20), ("B", 12), ("C", 12),
                                     ("D", 12)]


@pytest.mark.parametrize("label,rank", REFERENCE_TYPES)
def test_every_table_matches_the_tuple_route(label, rank, reference_tables):
    """Each attribute of the one-pass build equals, in value and type, the
    closure over tuples with one sort and per-root formulas; the
    ``simple_getters`` compose the ``simple_perms`` on the right."""
    rs = root_system(label, rank)
    ref = reference_tables(label, rank)
    built = dict(vars(rs))
    getters = built.pop("simple_getters")
    assert built.keys() == ref.keys()
    for name, value in ref.items():
        assert built[name] == value, name
        assert type(built[name]) is type(value), name
    assert [get(rs.identity_perm) for get in getters] == list(rs.simple_perms)
    assert rs.neg == tuple(rs.nroots - 1 - k for k in range(rs.nroots))


# -- a planted input for each message a build raises --------------------------


def _plant(monkeypatch, fault):
    """Hand the build's closure output through ``fault``, a list of
    ``(coefficients, code, height, pairing, norm)`` entries in, a list out."""
    closure = rootsys._positive_roots
    monkeypatch.setattr(rootsys, "_positive_roots",
                        lambda cartan, norms2: fault(list(closure(cartan, norms2))))


def _swap_first_two(entries):
    entries[0], entries[1] = entries[1], entries[0]
    return entries


def _alias_second_code(entries):
    """The second simple root carries the first one's code."""
    r, _, h, p, n = entries[1]
    entries[1] = (r, entries[0][1], h, p, n)
    return entries


def _wrong_last_norm(entries):
    r, c, h, p, _ = entries[-1]
    entries[-1] = (r, c, h, p, 3)
    return entries


def _wrong_last_pairing(entries):
    r, c, h, p, n = entries[-1]
    entries[-1] = (r, c, h, (p[0] + 1, *p[1:]), n)
    return entries


A2 = ((2, -1), (-1, 2))

PLANTED = [
    ("unknown type label 'H'", None, lambda: root_system("H", 3)),
    ("rank 9 out of range for type E", None, lambda: root_system("E", 9)),
    ("matrix shape does not match rank", None,
     lambda: RootSystem(CartanDatum("A", 2, ((2, -1),)))),
    ("diagonal entries must be 2", None,
     lambda: RootSystem(CartanDatum("A", 2, ((2, -1), (-1, 3))))),
    ("off-diagonal entry -4 out of range", None,
     lambda: RootSystem(CartanDatum("A", 2, ((2, -4), (-1, 2))))),
    ("zero pattern must be symmetric", None,
     lambda: RootSystem(CartanDatum("A", 2, ((2, 0), (-1, 2))))),
    ("Cartan matrix is reducible", None,
     lambda: RootSystem(CartanDatum("A", 2, ((2, 0), (0, 2))))),
    ("Cartan matrix is not positive definite", None,
     lambda: RootSystem(CartanDatum("A", 2, ((2, -2), (-2, 2))))),
    # B2 norms (2, 1) on the symmetric A2 matrix
    ("norms do not symmetrize the Cartan matrix", None,
     lambda: RootSystem(CartanDatum("B", 2, A2))),
    ("non-integral coroot coordinate", _wrong_last_norm, lambda: root_system("A", 2)),
    (r"roots are not strictly increasing in \(height, coefficients\)", _swap_first_two,
     lambda: root_system("A", 2)),
    ("root codes do not mirror under negation", _alias_second_code,
     lambda: root_system("A", 2)),
    # A3 without its highest root: 10 roots, Coxeter number 3
    ("root count disagrees with Coxeter number", lambda entries: entries[:-1],
     lambda: root_system("A", 3)),
    ("height/rho-check identity failed", _wrong_last_pairing, lambda: root_system("A", 2)),
]


@pytest.mark.parametrize("message, fault, build", PLANTED,
                         ids=[m.replace("\\", "") for m, _, _ in PLANTED])
def test_each_build_check_refuses_its_planted_input(message, fault, build, monkeypatch):
    if fault is not None:
        _plant(monkeypatch, fault)
    with pytest.raises(CartanError, match=f"^{message}$"):
        build()
