import itertools
import random

from weylrep import tits, weyl
from weylrep.tits import (
    act_bits,
    canonical,
    canonical_from_word,
    check_cocycle_formula,
    check_two_cocycle_identity,
    cocycle,
    flip_prediction,
    generator,
    identity,
    invert,
    multiply,
    pairing_mod2,
)


def all_reduced_words(w):
    """Backtrack over right descents."""
    rs = w.rs
    if w.is_identity():
        yield ()
        return
    for i in range(1, rs.rank + 1):
        if w.perm[rs.simple_index[i - 1]] < rs.npos:
            for tail in all_reduced_words(w * weyl.simple_reflection(rs, i)):
                yield tail + (i,)


def _mask(bits):
    """Int mask of integer coefficients mod 2: bit i for alpha_i^vee."""
    return sum((t & 1) << i for i, t in enumerate(bits))


def _coroot_bits(rs, k):
    return _mask(rs.coroots[k])


def _ref_multiply(x, y):
    """The product one letter at a time, composing every partial product."""
    rs = x.weyl.rs
    bits = x.bits
    for i in range(rs.rank):
        if y.bits >> i & 1:
            bits ^= _coroot_bits(rs, x.weyl.apply_simple(i + 1))
    cur = x.weyl
    for i in y.weyl.word:
        img = cur.apply_simple(i)
        cur = cur * weyl.simple_reflection(rs, i)
        if img < rs.npos:
            bits ^= _coroot_bits(rs, img)
    assert cur == x.weyl * y.weyl
    return tits.TitsElement(bits, cur)


def _ref_invert(x):
    rs = x.weyl.rs
    out = identity(rs)
    for i in reversed(x.weyl.word):
        square = _coroot_bits(rs, rs.simple_index[i - 1])
        out = _ref_multiply(out, tits.TitsElement(square,
                                                  weyl.simple_reflection(rs, i)))
    return _ref_multiply(out, tits.TitsElement(x.bits, weyl.identity(rs)))


def _ref_cocycle(u, v):
    """canonical(uv)^-1 * canonical(u) * canonical(v), multiplied out."""
    prod = _ref_multiply(canonical(u), canonical(v))
    defect = _ref_multiply(_ref_invert(canonical(u * v)), prod)
    assert defect.weyl.is_identity()
    return defect.bits


def test_multiply_and_cocycle_match_reference_exhaustive(get_rs):
    for label, rank in (("A", 3), ("B", 3), ("C", 3), ("G", 2)):
        rs = get_rs(label, rank)
        group = weyl.enumerate_group(rs)
        for u in group:
            for v in group:
                assert multiply(canonical(u), canonical(v)) == \
                    _ref_multiply(canonical(u), canonical(v))
                assert cocycle(u, v) == _ref_cocycle(u, v)


def test_multiply_matches_reference_with_torus_bits_d4(get_rs):
    rs = get_rs("D", 4)
    rng = random.Random(2024)
    for _ in range(300):
        x, y = (tits.TitsElement(_mask(rng.randrange(2) for _ in range(rs.rank)),
                                 weyl.random_element(rs, rng)) for _ in range(2))
        assert multiply(x, y) == _ref_multiply(x, y)
        assert invert(x) == _ref_invert(x)


def test_identity_element(get_rs):
    rs = get_rs("A", 2)
    e = identity(rs)
    assert e.bits == 0
    assert e.weyl.is_identity()
    x = multiply(canonical(weyl.from_word(rs, (1, 2))), e)
    assert x == canonical(weyl.from_word(rs, (1, 2)))


def test_generator_square_is_coroot_bit(get_rs):
    for label, rank in (("A", 2), ("B", 2), ("G", 2), ("C", 3)):
        rs = get_rs(label, rank)
        for i in range(1, rank + 1):
            g = generator(rs, i)
            sq = multiply(g, g)
            assert sq.weyl.is_identity()
            expected = _mask(rs.coroots[rs.simple_index[i - 1]])
            assert sq.bits == expected


def test_canonical_word_independence_b3(get_rs):
    """Every reduced word multiplies out to the same element, bits zero."""
    rs = get_rs("B", 3)
    for w in weyl.enumerate_group(rs):
        seen = set()
        for word in all_reduced_words(w):
            x = canonical_from_word(rs, word)
            assert x.weyl == w
            assert x.bits == 0
            seen.add(word)
        assert len(seen) >= 1


def test_multiply_associative_d4(get_rs):
    rs = get_rs("D", 4)
    rng = random.Random(99)
    for _ in range(200):
        xs = [tits.TitsElement(_mask(rng.randrange(2) for _ in range(rs.rank)),
                               weyl.random_element(rs, rng)) for _ in range(3)]
        left = multiply(multiply(xs[0], xs[1]), xs[2])
        right = multiply(xs[0], multiply(xs[1], xs[2]))
        assert left == right


def test_invert(get_rs):
    rs = get_rs("B", 3)
    rng = random.Random(5)
    for _ in range(100):
        x = tits.TitsElement(_mask(rng.randrange(2) for _ in range(rs.rank)),
                             weyl.random_element(rs, rng))
        p = multiply(invert(x), x)
        assert p.weyl.is_identity() and p.bits == 0
        p = multiply(x, invert(x))
        assert p.weyl.is_identity() and p.bits == 0


def test_cocycle_trivial_on_length_additive_pairs(get_rs):
    rs = get_rs("B", 3)
    group = weyl.enumerate_group(rs)
    hits = 0
    for u in group:
        for v in group:
            if (u * v).length == u.length + v.length:
                assert cocycle(u, v) == 0
                hits += 1
                if hits > 300:
                    return


def test_cocycle_on_involutions_is_inversion_sum(get_rs):
    rs = get_rs("B", 2)
    for w in weyl.enumerate_group(rs):
        if not (w * w).is_identity() or w.is_identity():
            continue
        bits = [0] * rs.rank
        for b in weyl.inversion_set(w):
            for j, c in enumerate(rs.coroots[b]):
                bits[j] ^= c & 1
        assert cocycle(w, w) == _mask(bits)


def test_cocycle_formula_exhaustive_small(get_rs):
    for label, rank in (("A", 2), ("B", 2), ("G", 2), ("A", 3)):
        rs = get_rs(label, rank)
        group = weyl.enumerate_group(rs)
        for u in group:
            for v in group:
                assert cocycle(u, v) == flip_prediction(u, v)


def test_diagonal_parity_matches_functional(get_rs):
    """<a, cocycle(w,w)> mod 2 agrees with the flip functional mod 2."""
    rs = get_rs("D", 5)
    from weylrep import affine

    group = affine.omega_group(rs)
    gen = next(om for om in group if om.order() == 4)
    w = gen.sigma
    bits = cocycle(w, w)
    for a in range(rs.nroots):
        assert pairing_mod2(rs, a, bits) == \
            weyl.flip_functional(w, w, a) % 2


def test_diagonal_parity_sweep(get_rs):
    """Same parity identity across whole small groups and sampled D4."""
    rs = get_rs("B", 2)
    for w in weyl.enumerate_group(rs):
        bits = cocycle(w, w)
        for a in range(rs.nroots):
            assert pairing_mod2(rs, a, bits) == \
                weyl.flip_functional(w, w, a) % 2
    d4 = get_rs("D", 4)
    rng = random.Random(77)
    for _ in range(40):
        w = weyl.random_element(d4, rng)
        bits = cocycle(w, w)
        for a in range(d4.nroots):
            assert pairing_mod2(d4, a, bits) == \
                weyl.flip_functional(w, w, a) % 2


def test_two_cocycle_identity_exhaustive_a2_b2(get_rs):
    for label in ("A", "B"):
        rs = get_rs(label, 2)
        group = weyl.enumerate_group(rs)
        for u, v, x in itertools.product(group, repeat=3):
            assert check_two_cocycle_identity(u, v, x)


def test_two_cocycle_identity_sampled_b3(get_rs):
    rs = get_rs("B", 3)
    rng = random.Random(314)
    group = weyl.enumerate_group(rs)
    for _ in range(300):
        u, v, x = (rng.choice(group) for _ in range(3))
        assert check_two_cocycle_identity(u, v, x)


def test_act_bits_is_mod2_reduction_of_coroot_action(get_rs):
    rs = get_rs("C", 3)
    rng = random.Random(4)
    for _ in range(50):
        w = weyl.random_element(rs, rng)
        bits = _mask(rng.randrange(2) for _ in range(rs.rank))
        acc = [0] * rs.rank
        for i in range(rs.rank):
            if bits >> i & 1:
                img = w.perm[rs.simple_index[i]]
                for j in range(rs.rank):
                    acc[j] += rs.coroots[img][j]
        assert act_bits(w, bits) == _mask(acc)


def test_check_cocycle_formula_wrapper(get_rs):
    rs = get_rs("G", 2)
    group = weyl.enumerate_group(rs)
    assert all(check_cocycle_formula(u, v) for u in group for v in group)


def _with_descent_walk(w):
    """The same element, walked by the descent that extracts its word."""
    return weyl.WeylElement(w.rs, w.perm)


def test_multiply_is_the_same_with_chain_and_descent_walks(get_rs):
    for label, rank in (("A", 3), ("B", 3), ("G", 2)):
        rs = get_rs(label, rank)
        group = [weyl.unrank(rs, n) for n in range(weyl.group_order(rs))]
        for u in group:
            for v in group:
                assert multiply(canonical(u), canonical(v)) == \
                    multiply(canonical(u), canonical(_with_descent_walk(v)))
    for label, rank in (("E", 7), ("E", 8)):
        rs = get_rs(label, rank)
        rng = random.Random(f"chain-walk/multiply/{label}{rank}")
        for _ in range(500):
            u, v = (weyl.random_element(rs, rng) for _ in range(2))
            x = tits.TitsElement(_mask(rng.randrange(2) for _ in range(rank)), u)
            assert multiply(x, canonical(v)) == \
                multiply(x, canonical(_with_descent_walk(v)))


def test_cocycle_transports_without_the_inverse(get_rs):
    """The index-based transport equals act_bits of the inverse element."""
    for label, rank in (("A", 3), ("B", 3), ("G", 2)):
        rs = get_rs(label, rank)
        for w in weyl.enumerate_group(rs):
            for mask in range(1 << rank):
                assert tits._act_bits_inverse(w, mask) == \
                    act_bits(w.inverse(), mask)
    rs = get_rs("E", 7)
    rng = random.Random("cocycle-transport/E7")
    for _ in range(200):
        u, v = (weyl.random_element(rs, rng) for _ in range(2))
        prod = multiply(canonical(u), canonical(v))
        assert cocycle(u, v) == act_bits(prod.weyl.inverse(), prod.bits)


def _multiply_acting_on_every_mask(x, y):
    """``multiply`` with y's torus part always moved through x.weyl."""
    rs = x.weyl.rs
    mask = x.bits ^ act_bits(x.weyl, y.bits)
    for img in map(x.weyl.perm.__getitem__, y.weyl.walk):
        if img < rs.npos:
            mask ^= rs.coroot_masks[img]
    return tits.TitsElement(mask, x.weyl * y.weyl)


def test_multiply_skips_only_a_zero_mask(get_rs, monkeypatch):
    """Skipping the action on a zero torus part changes no product, and
    the products that ``cocycle`` makes, all with y.bits == 0, skip it."""
    for label, rank in (("A", 3), ("B", 3), ("G", 2)):
        rs = get_rs(label, rank)
        rng = random.Random(f"zero-mask/{label}{rank}")
        group = weyl.enumerate_group(rs)
        ybits = set()
        for u in group:
            for v in group:
                x = tits.TitsElement(rng.randrange(1 << rank), u)
                y = tits.TitsElement(rng.randrange(1 << rank), v)
                ybits.add(y.bits)
                assert multiply(x, y) == _multiply_acting_on_every_mask(x, y)
        assert ybits == set(range(1 << rank))
    calls = []
    real = tits.act_bits
    monkeypatch.setattr(tits, "act_bits",
                        lambda *args: calls.append(args) or real(*args))
    group = weyl.enumerate_group(get_rs("A", 3))
    assert all(check_cocycle_formula(u, v) for u in group for v in group)
    assert calls == []
