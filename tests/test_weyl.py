import functools
import hashlib
import json
import math
import random
from operator import mul

import pytest

from weylrep import rootsys, weyl
from weylrep.cli import load_config, run_sweep
from weylrep.rootsys import RootSystem, root_system
from weylrep.weyl import (
    check_first_difference,
    check_flip_symmetry,
    enumerate_group,
    flip_functional,
    flip_set,
    from_word,
    group_order,
    identity,
    inversion_set,
    longest_element,
    simple_reflection,
    unrank,
)


def test_identity_and_involution(get_rs):
    rs = get_rs("A", 2)
    assert from_word(rs, ()) == identity(rs)
    assert from_word(rs, ()).length == 0
    s = simple_reflection(rs, 1)
    assert from_word(rs, (1, 1)) == identity(rs)
    assert (s * s).is_identity()


def test_a2_longest_element(get_rs):
    rs = get_rs("A", 2)
    group = enumerate_group(rs)
    assert len(group) == 6
    w = from_word(rs, (1, 2, 1))
    assert w.length == 3
    assert w == max(group, key=lambda x: x.length)
    assert w == longest_element(rs)


def test_word_is_reduced_and_round_trips(get_rs):
    rs = get_rs("B", 3)
    rng = random.Random(11)
    for _ in range(200):
        raw = [rng.randrange(1, 4) for _ in range(rng.randrange(0, 20))]
        w = from_word(rs, raw)
        assert len(w.word) == w.length
        assert from_word(rs, w.word) == w


def test_walk_roots_are_inversion_set_of_inverse(get_rs):
    for label, rank in (("A", 3), ("B", 3), ("G", 2)):
        rs = get_rs(label, rank)
        for w in enumerate_group(rs):
            assert all(b >= rs.npos for b in w.walk)
            assert len(w.walk) == w.length
            assert frozenset(w.walk) == inversion_set(w.inverse())
            assert w.walk == tuple(
                from_word(rs, w.word[:k]).perm[rs.simple_index[i - 1]]
                for k, i in enumerate(w.word))


def test_matrix_reproduces_perm(get_rs):
    """perm is the linear map with columns w(alpha_j), in simple-root coordinates."""
    rs = get_rs("C", 3)
    rng = random.Random(3)
    for _ in range(25):
        w = weyl.random_element(rs, rng)
        cols = [rs.roots[w.perm[a]] for a in rs.simple_index]
        for k in range(rs.nroots):
            img = tuple(sum(c * col[i] for c, col in zip(rs.roots[k], cols))
                        for i in range(rs.rank))
            assert rs.index[img] == w.perm[k]


def test_perm_commutes_with_negation(get_rs):
    rs = get_rs("B", 3)
    rng = random.Random(5)
    for _ in range(25):
        w = weyl.random_element(rs, rng)
        for k in range(rs.nroots):
            assert w.perm[rs.neg[k]] == rs.neg[w.perm[k]]


def test_inversion_sets(get_rs):
    rs = get_rs("A", 3)
    assert inversion_set(identity(rs)) == frozenset()
    w0 = longest_element(rs)
    assert inversion_set(w0) == frozenset(rs.positive_indices())
    for i in range(1, 4):
        s = simple_reflection(rs, i)
        assert inversion_set(s) == frozenset({rs.simple_index[i - 1]})
    for w in enumerate_group(rs):
        assert len(inversion_set(w)) == w.length


def test_flip_set_length_additive_pairs(get_rs):
    rs = get_rs("B", 3)
    group = enumerate_group(rs)
    for u in group:
        for v in group:
            if (u * v).length == u.length + v.length:
                assert flip_set(u, v) == frozenset()
                assert flip_functional(u, v, rs.highest_root) == 0
                break


def test_flip_set_of_involution_is_inversion_set(get_rs):
    rs = get_rs("B", 3)
    for w in enumerate_group(rs):
        if (w * w).is_identity():
            assert flip_set(w, w) == inversion_set(w)


def test_flip_set_inverse_pair(get_rs):
    rs = get_rs("A", 3)
    for v in enumerate_group(rs):
        assert flip_set(v.inverse(), v) == inversion_set(v)


def test_flip_functional_against_form_oracle(get_rs, form):
    """Direct double loop with pairings recomputed from the bilinear form."""
    rs = get_rs("A", 3)
    rng = random.Random(17)
    group = enumerate_group(rs)
    for _ in range(100):
        u = rng.choice(group)
        v = rng.choice(group)
        a = rng.randrange(rs.nroots)
        acc = 0
        for b in rs.positive_indices():
            vb = v.perm[b]
            if vb < rs.npos <= u.perm[vb]:
                acc += int(2 * form(rs, a, b) / rs.norms2[b])
        assert flip_functional(u, v, a) == acc


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_flip_functional_matches_the_table_oracle(label, rank, get_rs):
    """Every (u, v, a): the coroot-sum route equals the table row sum."""
    rs = get_rs(label, rank)
    group = enumerate_group(rs)
    for u in group:
        for v in group:
            flips = flip_set(u, v)
            for a in range(rs.nroots):
                row = rs.pairing[a]
                assert flip_functional(u, v, a) == sum(row[b] for b in flips)


def test_flip_functional_d5_generator_value(get_rs):
    rs = get_rs("D", 5)
    from weylrep import affine

    group = affine.omega_group(rs)
    gen = next(om for om in group if om.order() == 4)
    r_root = next(k for k in rs.positive_indices()
                  if gen.sigma.perm[k] == rs.neg[rs.highest_root])
    assert flip_functional(gen.sigma, gen.sigma, r_root) == 6


@pytest.mark.parametrize("label,rank",
                         [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                          ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
                          ("D", 4), ("F", 4), ("G", 2)])
def test_first_difference_exhaustive_rank_le_4(label, rank, get_rs):
    rs = get_rs(label, rank)
    for w in enumerate_group(rs):
        for a in range(rs.nroots):
            assert check_first_difference(w, a)


def _table_sum(w, a):
    """The per-root table route: sum of <a, b^vee> read from ``pairing``."""
    return sum(w.rs.pairing[a][b] for b in inversion_set(w))


@pytest.mark.parametrize("label,rank",
                         [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_coroot_sum_matches_table_sum_oracle(label, rank, get_rs):
    rs = get_rs(label, rank)
    for w in enumerate_group(rs):
        inv = inversion_set(w)
        assert w.coroot_sum == tuple(
            sum(rs.coroots[b][i] for b in inv) for i in range(rs.rank))
        for a in range(rs.nroots):
            lhs = sum(x * y for x, y in zip(rs._psc[a], w.coroot_sum))
            assert lhs == _table_sum(w, a)


def test_first_difference_independent_of_call_order(get_rs):
    rs = get_rs("B", 3)
    w = from_word(rs, (1, 2, 3, 2))
    forward = [check_first_difference(w, a) for a in range(rs.nroots)]
    fresh = from_word(rs, (1, 2, 3, 2))
    backward = [check_first_difference(fresh, a)
                for a in reversed(range(rs.nroots))]
    assert forward == backward[::-1] == [True] * rs.nroots
    assert fresh.coroot_sum == w.coroot_sum
    e = identity(rs)
    assert e.coroot_sum == (0,) * rs.rank
    assert from_word(rs, ()).coroot_sum == (0,) * rs.rank
    assert all(check_first_difference(e, a) for a in range(rs.nroots))


def test_first_difference_rejects_a_non_group_permutation(get_rs):
    """Swapping two positive roots of different heights is not in W; the
    check must catch it, so it is not true for every permutation."""
    rs = get_rs("A", 3)
    a = rs.simple_index[0]
    b = rs.highest_root
    assert rs.heights[a] != rs.heights[b]
    perm = list(range(rs.nroots))
    perm[a], perm[b] = b, a
    w = weyl.WeylElement(rs, tuple(perm))
    assert w.coroot_sum == (0,) * rs.rank
    assert not (check_first_difference(w, a) and check_first_difference(w, b))


def test_first_difference_longest_recovers_height(get_rs):
    rs = get_rs("B", 3)
    w0 = longest_element(rs)
    for a in range(rs.nroots):
        acc = sum(rs.pairing[a][b] for b in inversion_set(w0))
        assert acc == 2 * rs.heights[a]  # <a, 2 rho-check>


def test_flip_symmetry_exhaustive_a3_b3(get_rs):
    for label, rank in (("A", 3), ("B", 3)):
        rs = get_rs(label, rank)
        for w in enumerate_group(rs):
            assert check_flip_symmetry(w)


def test_flip_symmetry_d5_generator(get_rs):
    rs = get_rs("D", 5)
    from weylrep import affine

    group = affine.omega_group(rs)
    gen = next(om for om in group if om.order() == 4)
    assert check_flip_symmetry(gen.sigma)


def test_invariants_sampled_on_e6(get_rs):
    """Flip sets sit inside inversion sets; the diagonal flip set is the
    recursive intersection.  Sampled at scale on a large group."""
    rs = get_rs("E", 6)
    rng = random.Random(2027)
    pool = [weyl.random_element(rs, rng) for _ in range(400)]
    inv_cache = {w: inversion_set(w) for w in pool}
    pairs = 100_000
    for _ in range(pairs):
        u = pool[rng.randrange(len(pool))]
        v = pool[rng.randrange(len(pool))]
        assert flip_set(u, v) <= inv_cache[v]
    neg = rs.neg
    for w in pool:
        inv = inv_cache[w]
        winv = w.inverse()
        assert flip_set(w, w) == inv & frozenset(
            winv.perm[neg[b]] for b in inv)
        assert check_flip_symmetry(w)
        assert check_first_difference(w, rng.randrange(rs.nroots))


def test_group_order_formulas(get_rs):
    assert group_order(get_rs("A", 3)) == 24
    assert group_order(get_rs("B", 3)) == 48
    assert group_order(get_rs("D", 4)) == 192
    assert group_order(get_rs("F", 4)) == 1152
    assert group_order(get_rs("E", 6)) == 51840
    assert len(enumerate_group(get_rs("B", 3))) == 48



def test_parabolic_longest_element(get_rs):
    rs = get_rs("A", 3)
    assert longest_element(rs, ()) == identity(rs)
    assert longest_element(rs, (1, 2)) == from_word(rs, (1, 2, 1))
    assert longest_element(rs, (1, 3)) == from_word(rs, (1, 3))
    assert longest_element(rs, (1, 2, 3)) == longest_element(rs)
    assert longest_element(rs).length == rs.npos


# Every type with |W| <= 51 840, so each group can be listed in full.
SMALL_TYPES = ([("A", n) for n in range(1, 8)] + [("B", n) for n in range(2, 7)]
               + [("C", n) for n in range(2, 7)] + [("D", n) for n in range(3, 7)]
               + [("E", 6), ("F", 4), ("G", 2)])

# Degrees of the basic invariants (Humphreys, Reflection Groups and
# Coxeter Groups, §3.7); |W| is their product.
DEGREES = {("E", 6): (2, 5, 6, 8, 9, 12), ("E", 7): (2, 6, 8, 10, 12, 14, 18),
           ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30), ("F", 4): (2, 6, 8, 12),
           ("G", 2): (2, 6)}


def _degrees(label, rank):
    if label == "A":
        return tuple(range(2, rank + 2))
    if label in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if label == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    return DEGREES[(label, rank)]


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poincare(label, rank):
    """Coefficients of prod_i (1 + q + ... + q^(d_i - 1))."""
    poly = [1]
    for d in _degrees(label, rank):
        poly = _poly_mul(poly, [1] * d)
    return poly


@pytest.mark.parametrize("label,rank", SMALL_TYPES)
def test_unrank_is_a_bijection_onto_the_group(label, rank, get_rs):
    """unrank hits |W| distinct elements, the set enumerate_group lists, and
    their lengths count as the Poincaré polynomial says."""
    rs = get_rs(label, rank)
    order = group_order(rs)
    assert order == math.prod(_degrees(label, rank))
    perms = set()
    lengths = [0] * (rs.npos + 1)
    for n in range(order):
        w = unrank(rs, n)
        perms.add(w.perm)
        lengths[w.length] += 1
    assert len(perms) == order
    assert perms == {w.perm for w in enumerate_group(rs)}
    assert lengths == _poincare(label, rank)


@pytest.mark.parametrize("label,rank", SMALL_TYPES + [("E", 7), ("E", 8)])
def test_coset_chain_factors_the_poincare_polynomial(label, rank, get_rs):
    """The levels' length polynomials multiply to the Poincaré polynomial,
    since lengths add along W_{J_k} = W^{J_(k-1)} W_{J_(k-1)}, and the
    longest representatives multiply to w_0."""
    rs = get_rs(label, rank)
    start = rs.identity_perm
    poly = [1]
    longest = identity(rs)
    for level in rs.coset_chain:
        reps = [weyl.WeylElement(rs, getter(start)) for getter, _ in level]
        assert reps[0] == identity(rs)
        level_poly = [0] * (max(c.length for c in reps) + 1)
        for c in reps:
            level_poly[c.length] += 1
        poly = _poly_mul(poly, level_poly)
        longest = max(reps, key=lambda c: c.length) * longest
    assert poly == _poincare(label, rank)
    assert longest == longest_element(rs)


def test_coset_chain_level_sizes(get_rs):
    assert [len(level) for level in get_rs("E", 7).coset_chain] == \
        [2, 2, 3, 10, 16, 27, 56]
    assert [len(level) for level in get_rs("E", 8).coset_chain] == \
        [2, 2, 3, 10, 16, 27, 56, 240]
    assert [len(level) for level in get_rs("A", 4).coset_chain] == [2, 3, 4, 5]


def _check_chain_walk(w):
    """The walk ``unrank`` sets is that of a reduced word of w, and that
    word is the canonical greedy word: the chain walk equals the descent
    walk of a fresh element (ROADMAP item 1; no code relies on it yet)."""
    rs = w.rs
    assert w._walk is not None
    assert all(b >= rs.npos for b in w.walk)
    assert len(w.walk) == w.length
    assert frozenset(w.walk) == inversion_set(w.inverse())
    assert w.walk == weyl.WeylElement(rs, w.perm).walk


@pytest.mark.parametrize("label,rank", [
    t for t in SMALL_TYPES if math.prod(_degrees(*t)) <= 23_040])
def test_chain_walk_is_a_reduced_word_at_every_index(label, rank, get_rs):
    rs = get_rs(label, rank)
    for n in range(group_order(rs)):
        _check_chain_walk(unrank(rs, n))


@pytest.mark.parametrize("label,rank", [("E", 6), ("E", 7), ("E", 8)])
def test_chain_walk_is_a_reduced_word_on_draws(label, rank, get_rs):
    rs = get_rs(label, rank)
    rng = random.Random(f"chain-walk/{label}{rank}")
    for _ in range(500):
        _check_chain_walk(weyl.random_element(rs, rng))


def test_reading_the_word_keeps_the_chain_walk(get_rs):
    """``word`` is the canonical greedy word; extracting it leaves the
    walk that ``unrank`` set in place."""
    rs = get_rs("E", 7)
    rng = random.Random("chain-walk/word")
    for _ in range(200):
        w = weyl.random_element(rs, rng)
        walk = w._walk
        assert walk is not None
        assert from_word(rs, w.word) == w
        assert w.walk is walk


def test_unrank_rejects_a_chain_walk_that_is_not_reduced(monkeypatch):
    """A representative whose walk lost its last root makes ``unrank``
    raise on every index that picks it, and a sampled cocycle sweep
    does not pass."""
    real = RootSystem.coset_chain

    def short_walk(rs):
        *lower, top = real.func(rs)
        getter, walk = top[-1]
        return (*lower, top[:-1] + ((getter, walk[:-1]),))

    faulty = functools.cached_property(short_walk)
    faulty.__set_name__(RootSystem, "coset_chain")
    monkeypatch.setattr(RootSystem, "coset_chain", faulty)
    rs = root_system("E", 6)
    top = len(rs.coset_chain[-1])
    assert unrank(rs, top - 2).length == len(unrank(rs, top - 2).walk)
    for n in (top - 1, 2 * top - 1, group_order(rs) - 1):
        with pytest.raises(AssertionError, match="not a reduced word"):
            unrank(rs, n)
    cfg = {**load_config(None), "systems": [{"type": "E", "rank": 6}],
           "checks": {"cocycle": True}}
    with pytest.raises(AssertionError, match="not a reduced word"):
        run_sweep(cfg)


@pytest.mark.parametrize("label,rank", [("A", 1), ("B", 3), ("G", 2), ("D", 4)])
def test_random_element_covers_the_group_once(label, rank, get_rs):
    """With an rng whose randrange yields every index once, |W| draws are W."""
    rs = get_rs(label, rank)
    order = group_order(rs)

    class EveryIndex:
        def __init__(self):
            self.indices = iter(range(order))

        def randrange(self, stop):
            assert stop == order
            return next(self.indices)

    rng = EveryIndex()
    drawn = [weyl.random_element(rs, rng).perm for _ in range(order)]
    assert len(set(drawn)) == order
    assert set(drawn) == {w.perm for w in enumerate_group(rs)}


def test_unrank_rejects_an_index_outside_the_group(get_rs):
    for label, rank in (("A", 2), ("E", 8)):
        rs = get_rs(label, rank)
        order = group_order(rs)
        assert unrank(rs, 0) == identity(rs)
        assert unrank(rs, order - 1).perm != unrank(rs, 0).perm
        for n in (-1, order, order + 5):
            with pytest.raises(ValueError):
                unrank(rs, n)


@pytest.mark.parametrize("label,rank", SMALL_TYPES)
def test_enumerate_group_keeps_the_full_search_order(label, rank, get_rs):
    """``enumerate_group`` lists ``iter_group``'s permutations in the same
    order, so the pair sweeps' witnesses follow the descent tree too."""
    rs = get_rs(label, rank)
    assert [w.perm for w in enumerate_group(rs)] == \
        [w.perm for w in weyl.iter_group(rs)]


def _tree_oracle(rs):
    """The descent tree depth-first, children by increasing i: p s_i,
    composed index by index, is a child of p when p(alpha_i) > 0 and i is
    the smallest right descent of p s_i, read from every simple root."""
    npos, simples = rs.npos, rs.simple_index
    out = []

    def visit(p):
        out.append(p)
        for i, s in enumerate(rs.simple_perms):
            x = type(p)(p[k] for k in s)
            descents = [j for j, a in enumerate(simples) if x[a] < npos]
            if p[simples[i]] >= npos and descents[0] == i:
                visit(x)

    visit(rs.identity_perm)
    return out


@pytest.mark.parametrize("label,rank", [
    t for t in SMALL_TYPES if math.prod(_degrees(*t)) <= 2000])
def test_iter_group_walks_the_descent_tree_in_order(label, rank, get_rs):
    """The exhaustive first-difference witnesses follow this order."""
    rs = get_rs(label, rank)
    assert [w.perm for w in weyl.iter_group(rs)] == _tree_oracle(rs)


def _assert_each_element_once(rs):
    """|W| distinct permutations, each with the inversion-set coroot sum."""
    count, perms = 0, set()
    for w in weyl.iter_group(rs):
        count += 1
        perms.add(w.perm)
        assert w._coroot_sum == rs.coroot_sum(inversion_set(w))
    assert count == len(perms) == group_order(rs)


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 4), ("D", 5), ("G", 2)])
def test_wrong_descent_table_entry_fails_the_exactly_once_test(label, rank,
                                                              monkeypatch):
    """One wrong root in the table of s_i(alpha_j), j < i, makes the walk
    reach some element twice or never."""
    rs = root_system(label, rank)
    real = weyl._earlier_roots

    def planted(rs):
        table = list(real(rs))
        table[1] = (rs.simple_index[1],)  # s_2(alpha_1) read as alpha_2
        return tuple(table)

    _assert_each_element_once(rs)
    monkeypatch.setattr(weyl, "_earlier_roots", planted)
    with pytest.raises(AssertionError):
        _assert_each_element_once(rs)


@pytest.mark.parametrize("label,rank", SMALL_TYPES + [("E", 7), ("E", 8)])
def test_height_steps_climb_every_positive_root(label, rank, get_rs):
    """The root order is by height: negation reverses it, and every positive
    non-simple root is a lower positive root plus one simple root, so the
    positive roots are exactly the indices from ``npos`` on."""
    rs = get_rs(label, rank)
    assert rs.neg == tuple(reversed(range(rs.nroots)))
    assert list(rs.positive_indices()) == [
        k for k in range(rs.nroots) if all(c >= 0 for c in rs.roots[k])]
    assert sorted(rs.simple_index) == list(range(rs.npos, rs.npos + rs.rank))
    for k in rs.positive_indices():
        if k in rs.simple_index:
            continue
        r = rs.roots[k]
        steps = [(rs.index[r[:i] + (r[i] - 1,) + r[i + 1:]], i)
                 for i in range(rs.rank)
                 if r[i] and r[:i] + (r[i] - 1,) + r[i + 1:] in rs.index]
        assert steps
        for parent, i in steps:
            assert rs.npos <= parent < k
            assert rs.heights[parent] == rs.heights[k] - 1
            assert rs.roots[k] == tuple(c + (j == i)
                                        for j, c in enumerate(rs.roots[parent]))


def _dot_product_pairings(rs, s):
    """The oracle: <root_a, s> as one dot product per root."""
    return [sum(map(mul, rs._psc[a], s)) for a in range(rs.nroots)]


def _packed_digits(rs, packed):
    """The balanced base-B digits of a packed pairing, B = 2^width, root 0
    first: field by field from its two's complement bytes, each digit the
    residue in [-B/2, B/2) of the field plus the carry from below."""
    nbytes = rs.packed_pairing[0]
    size = nbytes // rs.nroots
    half = 1 << (8 * size - 1)
    raw = packed.to_bytes(nbytes, "little", signed=True)
    digits, carry = [], 0
    for k in range(0, nbytes, size):
        x = int.from_bytes(raw[k:k + size], "little") + carry
        digit = (x + half) % (2 * half) - half
        digits.append(digit)
        carry = (x - digit) >> (8 * size)
    return digits


# every type whose group the default budget sweeps in full
@pytest.mark.parametrize("label,rank", [
    t for t in SMALL_TYPES if math.prod(_degrees(*t)) <= 10_000])
def test_pairing_vector_matches_the_dot_product(label, rank, get_rs):
    """Every field of the packed product is the pairing of its root."""
    rs = get_rs(label, rank)
    for w in enumerate_group(rs):
        assert _packed_digits(rs, weyl._packed_pairings(w)) == \
            _dot_product_pairings(rs, w.coroot_sum)


@pytest.mark.parametrize("label,rank", [("E", 8), ("B", 8), ("A", 20)])
def test_pairing_vector_matches_the_dot_product_on_draws(label, rank):
    rs = root_system(label, rank)
    rng = random.Random(f"packed-pairing/{label}{rank}")
    for _ in range(200):
        w = weyl.random_element(rs, rng)
        assert _packed_digits(rs, weyl._packed_pairings(w)) == \
            _dot_product_pairings(rs, w.coroot_sum)


def _first_difference_oracle(w):
    """Per-root verdicts: <a, S(w)> as one dot product per root against
    ht(a) - ht(w(a)) read one root at a time."""
    rs, p = w.rs, w.perm
    return [x == rs.heights[a] - rs.heights[p[a]]
            for a, x in enumerate(_dot_product_pairings(rs, w.coroot_sum))]


def _verdicts(w):
    return [check_first_difference(w, a) for a in range(w.rs.nroots)]


def test_packed_field_width_comes_from_the_system(get_rs):
    """The field holds four times the largest pairing of an inversion-set
    sum: 8 bits for A3, 16 for A20, whose 2 rho^vee reaches 110."""
    widths = {}
    for label, rank in [("A", 3), ("A", 20)]:
        rs = root_system(label, rank)
        nbytes, limits, columns = rs.packed_pairing
        widths[label, rank] = nbytes // rs.nroots
        bound = max(sum(abs(c) * r for c, r in zip(row, rs.rho_check_twice))
                    for row in rs._psc)
        bits = 8 * widths[label, rank]
        assert 4 * bound < 2 ** (bits - 1)
        assert bits == 8 or 4 * bound >= 2 ** (bits // 2 - 1)  # half is too narrow
        assert all(lim >= 4 * r for lim, r in zip(limits, rs.rho_check_twice))
        assert len(columns) == rank
    assert widths == {("A", 3): 1, ("A", 20): 2}


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("G", 2), ("A", 20)])
def test_packed_pairing_is_exact_to_its_limits_and_raises_past_them(
        label, rank, monkeypatch):
    """At the limits, with the signs that make each field as large as it
    gets, every field is exact, and the packed first difference against
    the identity's and w_0's height drops gives the per-root oracle's
    verdicts; one past a limit raises instead of aliasing into the next
    field, and keeps no verdict."""
    rs = root_system(label, rank)
    limits = rs.packed_pairing[1]
    held = []
    monkeypatch.setattr(weyl.WeylElement, "coroot_sum", property(lambda w: held[0]))
    w = identity(rs)
    w0 = longest_element(rs).perm
    for row in rs._psc:
        for sign in (1, -1):
            held[:] = [tuple(sign * (1 if c >= 0 else -1) * lim
                             for c, lim in zip(row, limits))]
            assert _packed_digits(rs, weyl._packed_pairings(w)) == \
                _dot_product_pairings(rs, held[0])
            for perm in (rs.identity_perm, w0):
                fresh = weyl.WeylElement(rs, perm)
                assert _verdicts(fresh) == _first_difference_oracle(fresh)
    for i in range(rank):
        for past in (limits[i] + 1, -limits[i] - 1):
            held[:] = [tuple(past if j == i else 0 for j in range(rank))]
            with pytest.raises(AssertionError, match="past the packed range"):
                weyl._packed_pairings(w)
            with pytest.raises(AssertionError, match="past the packed range"):
                check_first_difference(w, 0)
            assert w._verdicts is None


@pytest.mark.parametrize("label,rank", [("A", 4), ("B", 4), ("C", 3), ("D", 5),
                                        ("F", 4), ("G", 2)])
def test_packed_first_difference_matches_the_oracle_on_every_element(
        label, rank, get_rs):
    """Every element passes through the one-comparison path: it keeps the
    system's shared all-True verdicts, which the per-root oracle confirms."""
    rs = get_rs(label, rank)
    passing = rs.packed_heights[2]
    for w in weyl.iter_group(rs):
        assert _verdicts(w) == _first_difference_oracle(w) == [True] * rs.nroots
        assert w._verdicts is passing


@pytest.mark.parametrize("label,rank", [("E", 8), ("A", 20)])
def test_packed_first_difference_matches_the_oracle_on_draws(label, rank):
    """Sampled elements, with S(w) from the inversion set, on E8 and on A20
    (420 roots in 16-bit fields)."""
    rs = root_system(label, rank)
    rng = random.Random(f"packed-first-difference/{label}{rank}")
    for _ in range(500):
        w = weyl.random_element(rs, rng)
        assert _verdicts(w) == _first_difference_oracle(w)
        assert w._verdicts is rs.packed_heights[2]


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_packed_first_difference_finds_every_swapped_root_pair(label, rank, get_rs):
    """Swapping the images of two roots of different image heights gives a
    permutation outside W that fails at exactly those two roots; the
    verdicts equal the per-root oracle, so no wrong field hides in the
    single comparison."""
    rs = get_rs(label, rank)
    for w in enumerate_group(rs):
        s = w.coroot_sum
        for a in range(rs.nroots):
            for b in range(a):
                if rs.heights[w.perm[a]] == rs.heights[w.perm[b]]:
                    continue
                perm = list(w.perm)
                perm[a], perm[b] = perm[b], perm[a]
                bad = weyl.WeylElement(rs, tuple(perm))
                bad._coroot_sum = s
                got = _verdicts(bad)
                assert got == _first_difference_oracle(bad)
                assert [k for k, ok in enumerate(got) if not ok] == [b, a]


def test_first_difference_check_keeps_no_closure_cells():
    """Every call of ``check_first_difference`` runs its body, so a cell
    there costs every call: with the per-root comprehension inlined, S(w)
    became a cell variable, and the 1 382 400 indexed calls of an
    exhaustive D6 sweep took about 1.3 times as long, 0.090 s instead of
    0.065 s in one measurement and 0.16 s instead of 0.12 s in another
    (Python 3.11, 2 cores).  The per-root verdicts are built in
    ``_root_verdicts`` instead."""
    code = check_first_difference.__code__
    assert code.co_cellvars == () and code.co_freevars == ()


# every type up to rank 8, and A20 for 16-bit fields
TYPES_TO_RANK_8 = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
                   + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)]
                   + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("label,rank", TYPES_TO_RANK_8 + [("A", 20)])
def test_height_drops_fit_the_packed_digit_bound(label, rank):
    """A height drop is at most 2 max ht = max_a <a, 2 rho^vee>, within the
    bound that sizes the pairing field, and so under a quarter of half a
    field: every digit of T - R is well inside (-B/2, B/2)."""
    rs = root_system(label, rank)
    fields, target, passing, table = rs.packed_heights
    width = 8 * len(fields[0])
    assert rs.packed_pairing[0] * 8 == width * rs.nroots
    bound = max(sum(abs(c) * r for c, r in zip(row, rs.rho_check_twice))
                for row in rs._psc)
    drop = 2 * max(rs.heights)
    assert drop == max(sum(map(mul, row, rs.rho_check_twice)) for row in rs._psc)
    assert drop <= bound and 4 * bound < 2 ** (width - 1)
    assert drop < 2 ** (width - 1)
    assert [int.from_bytes(f, "little") for f in fields] == \
        [h + drop // 2 for h in rs.heights]
    assert target == int.from_bytes(b"".join(fields), "little")
    assert passing == (True,) * rs.nroots
    if rs.nroots <= 256:  # each field's low byte, read by one translate
        assert table == bytes(f[0] for f in fields) + bytes(256 - rs.nroots)
        assert all(not any(f[1:]) for f in fields)
    else:
        assert table is None


@pytest.mark.parametrize("label,rank", [("E", 7), ("E", 8), ("A", 20)])
def test_narrow_height_field_raises_at_build(label, rank, monkeypatch):
    """An 8-bit field is too narrow for these height drops (E7's reach 34,
    and 4 * 34 >= 2^7): building the height fields raises, so no check
    reads a digit that could carry."""
    rs = root_system(label, rank)
    monkeypatch.setattr(RootSystem, "packed_pairing",
                        property(lambda rs: (rs.nroots, (), ())))
    with pytest.raises(AssertionError, match="digit bound of 8-bit fields"):
        rs.packed_heights
    with pytest.raises(AssertionError, match="digit bound"):
        check_first_difference(identity(rs), 0)


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_composition_is_u_after_v_on_every_pair(label, rank, get_rs):
    rs = get_rs(label, rank)
    group = enumerate_group(rs)
    for u in group:
        for v in group:
            uv = (u * v).perm
            assert type(uv) is bytes
            assert all(uv[k] == u.perm[v.perm[k]] for k in range(rs.nroots))


def test_composition_is_u_after_v_on_sampled_e8_pairs(get_rs):
    rs = get_rs("E", 8)
    rng = random.Random("compose/E8")
    for _ in range(500):
        u, v = weyl.random_element(rs, rng), weyl.random_element(rs, rng)
        uv = (u * v).perm
        assert type(uv) is bytes
        assert all(uv[k] == u.perm[v.perm[k]] for k in range(rs.nroots))


# each side of the 256-root line: A15 and D11 hold a root index in a byte,
# A16 (272 roots) and D12 (264) do not
@pytest.mark.parametrize("label,rank,kind", [("A", 15, bytes), ("A", 16, tuple),
                                             ("D", 11, bytes), ("D", 12, tuple)])
def test_permutation_operations_match_the_tuple_oracle(label, rank, kind):
    """Compose, invert, lookup, the packed heights, length, the inversion
    and flip sets and the composers agree with index-by-index tuple
    formulas, in the system's own type; u * v is u after v."""
    rs = root_system(label, rank)
    n, npos = rs.nroots, rs.npos
    assert (n <= 256) == (kind is bytes)
    assert type(rs.identity_perm) is kind and list(rs.identity_perm) == list(range(n))
    assert all(type(s) is kind for s in rs.simple_perms)
    sign = rs.positive_table
    assert sign == bytes(int(k >= npos) for k in range(n))
    fields = rs.packed_heights[0]
    rng = random.Random(f"permutation-ops/{label}{rank}")
    commuting = 0
    for _ in range(40):
        u, v = weyl.random_element(rs, rng), weyl.random_element(rs, rng)
        pu, pv = u.perm, v.perm
        uv, inv = (u * v).perm, u.inverse().perm
        assert type(pu) is type(uv) is type(inv) is kind
        assert list(uv) == [pu[pv[k]] for k in range(n)]
        assert list(inv) == sorted(range(n), key=pu.__getitem__)
        assert rootsys.compose(pu, pv) == uv and rootsys.invert(pu) == inv
        assert rootsys.lookup(pu, sign) == bytes(sign[x] for x in pu)
        assert rootsys.lookup(pu[npos:], sign) == bytes(int(x >= npos) for x in pu[npos:])
        assert rs.packed_heights_of(pu) == \
            int.from_bytes(b"".join(fields[x] for x in pu), "little")
        assert weyl.WeylElement(rs, pu).length == \
            sum(1 for k in range(npos, n) if pu[k] < npos)
        assert inversion_set(u) == {k for k in range(npos, n) if pu[k] < npos}
        assert flip_set(u, v) == {k for k in range(npos, n)
                                  if pv[k] < npos <= pu[pv[k]]}
        assert check_flip_symmetry(u)
        for s, step in zip(rs.simple_perms, rs.simple_getters):
            x = step(pu)
            assert type(x) is kind and list(x) == [pu[k] for k in s]
        commuting += uv == (v * u).perm
    assert commuting < 40
    for level in rs.coset_chain:
        for getter, _ in level[:3]:
            rep = getter(rs.identity_perm)
            assert type(rep) is kind and getter(pu) == rootsys.compose(pu, rep)


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


# Pinned before the chain search and ``unrank`` composed with itemgetter.
CHAIN_PINS = {
    ("E", 7): ("abcfbacbf003773dc9353f11f66eebeae1f2c7c8bcfae7313d618e1d99a91eef",
               "1dc3abcbefae02fcfa83409e184fe03b4ca7fa9d8d3415d65ee4c23d4f6d0321"),
    ("E", 8): ("ed34453e282e44795d4ee66cb5a969fe018a776777844e3a782fe2aec3709f30",
               "c363cedcc32293cb7a9276b5c30e8d94d2c164eb0aef0299e90e565dceaaf95b"),
}


@pytest.mark.parametrize("label,rank", sorted(CHAIN_PINS))
def test_coset_chain_and_unrank_match_their_pins(label, rank, get_rs):
    """Each chain getter applied to the identity and each chain walk, and
    ``unrank``'s permutation and walk at 32 fixed indices."""
    rs = get_rs(label, rank)
    ident = rs.identity_perm
    chain = [[[list(getter(ident)), list(walk)] for getter, walk in level]
             for level in rs.coset_chain]
    order = group_order(rs)
    indices = [0, 1, 2, 1000, order // 3, order // 2, order - 2, order - 1] + \
        [k * 2654435761 % order for k in range(1, 25)]
    unranked = [[list(w.perm), list(w.walk)]
                for w in (unrank(rs, n) for n in indices)]
    assert (_digest(chain), _digest(unranked)) == CHAIN_PINS[label, rank]


# every type with |W| <= 51 840
@pytest.mark.parametrize("label,rank", SMALL_TYPES)
def test_carried_coroot_sum_is_the_inversion_set_sum(label, rank, get_rs):
    """The descent tree yields each element exactly once, and each carries
    the coroot sum of its inversion set."""
    _assert_each_element_once(get_rs(label, rank))


def test_first_difference_verdicts_follow_the_element_not_its_perm(monkeypatch):
    """Elements built by ``identity`` and ``simple_reflection`` share the
    tuples ``rs.identity_perm`` and ``rs.simple_perms[i]``.  A fresh one,
    checked after a fault is planted in the coroot route, gets no verdict
    of the element checked just before on the same permutation."""
    rs = root_system("A", 3)
    a = rs.simple_index[0]
    real = RootSystem.coroot_sum

    def shifted(rs, roots):
        s = real(rs, roots)
        return (s[0] + 1,) + s[1:]

    for make in (identity, functools.partial(simple_reflection, i=2)):
        assert check_first_difference(make(rs), a)
        with monkeypatch.context() as patch:
            patch.setattr(RootSystem, "coroot_sum", shifted)
            assert not check_first_difference(make(rs), a)


def test_first_difference_memo_follows_the_element(get_rs):
    """Interleaved calls give the answers of calls in sweep order, also on
    a non-group permutation where some answers are False."""
    rs = get_rs("B", 3)
    a, b = rs.simple_index[0], rs.highest_root
    perm = list(range(rs.nroots))
    perm[a], perm[b] = b, a
    bad = weyl.WeylElement(rs, tuple(perm))
    elements = [from_word(rs, (1, 2, 3, 2)), bad, longest_element(rs),
                from_word(rs, (1, 2, 3, 2))]
    in_order = [[check_first_difference(w, k) for k in range(rs.nroots)]
                for w in elements]
    assert not all(in_order[1]) and all(in_order[0] + in_order[2])
    interleaved = [[None] * rs.nroots for _ in elements]
    for k in reversed(range(rs.nroots)):
        for n, w in enumerate(elements):
            interleaved[n][k] = check_first_difference(w, k)
    assert interleaved == in_order
