"""The extension of W by the mod-2 coroot lattice.

Elements are normal forms (t, w): a torus part t in Q^vee (x) F_2 times
the canonical representative of w.  The torus part is an int mask whose
bit i is the coefficient of alpha_i^vee mod 2, the convention of
``RootSystem.coroot_masks``, so each mod-2 coroot sum is an XOR.  The
group law is driven entirely by the two defining properties of the
canonical representatives — generator squares are simple-coroot bits,
and products along reduced words are honest products — plus the exchange
step for length-decreasing multiplications.  Nothing here consults the
flip-set formula, so comparing the computed 2-cocycle against the
flip-set prediction is a genuine two-sided test.

``multiply(x, y)`` multiplies x by a reduced word of y one generator at
a time, without composing the partial products: the one fact each step
needs, the image of the next simple root, is x applied to a root cached
as y's walk (``WeylElement.walk``).  Any reduced word will do, because
the canonical representative of y does not depend on the reduced word
(Tits, "Normalisateurs de tores I", J. Algebra 4, 1966).  The walk
comes from one of two places, and each proves that its word is a
reduced word of y, so the Weyl part of the product is x.weyl * y.weyl:

- an element built by ``weyl.unrank`` (every sampled element) carries
  the walk of its coset-chain word, whose letters compose to y's
  permutation and number exactly l(y), so the word is reduced;
- any other element (every enumerated element) gets the walk of the
  descent that extracts its canonical word, which takes l(y) steps and
  must end at the identity.

This is still the honest group law: each step applies the defining
relation of one generator, and only the bookkeeping of the partial
product is replaced: a step is one index into x's permutation, and the
product adds one composition of root permutations, ``x.weyl * y.weyl``.
As a set the walk roots are the inversion set of y^-1, but they come
from a walk along a word, never from ``inversion_set`` or ``flip_set``.
"""

from __future__ import annotations

from collections import namedtuple

from .rootsys import RootSystem
from .weyl import WeylElement, flip_set, identity as weyl_identity, simple_reflection

__all__ = [
    "TitsElement",
    "identity",
    "generator",
    "multiply",
    "invert",
    "canonical",
    "canonical_from_word",
    "cocycle",
    "flip_prediction",
    "check_cocycle_formula",
    "check_two_cocycle_identity",
    "act_bits",
    "pairing_mod2",
]


class TitsElement(namedtuple("TitsElement", "bits weyl")):
    """The normal form (t, w): ``bits``, the int mask of t, and ``weyl``,
    the WeylElement w whose canonical representative follows t."""

    __slots__ = ()


def act_bits(w: WeylElement, mask: int) -> int:
    """W-action on Q^vee (x) F_2: the coroot of w(alpha_i) for each set bit i."""
    masks = w.rs.coroot_masks
    p = w.perm
    out = 0
    for i, s in enumerate(w.rs.simple_index):
        if mask >> i & 1:
            out ^= masks[p[s]]
    return out


def identity(rs: RootSystem) -> TitsElement:
    return TitsElement(0, weyl_identity(rs))


def generator(rs: RootSystem, i: int) -> TitsElement:
    return TitsElement(0, simple_reflection(rs, i))


def multiply(x: TitsElement, y: TitsElement) -> TitsElement:
    """Normal-form product, one generator of a reduced word of y at a time.

    Length-increasing steps absorb into the word; length-decreasing
    steps trade the generator for a coroot bit (the exchange step),
    which is immediately pushed left through the remaining factor.
    After k letters the partial product sends the next simple root to
    x.weyl(beta_k), where beta_k is the k-th root of y's walk.  y's torus
    part is moved left through x.weyl only when it is not zero, as in
    every product ``cocycle`` makes.
    """
    rs = x.weyl.rs
    npos = rs.npos
    masks = rs.coroot_masks
    mask = x.bits ^ act_bits(x.weyl, y.bits) if y.bits else x.bits
    p = x.weyl.perm
    for b in y.weyl.walk:
        img = p[b]
        if img < npos:
            # exchange step: the generator square appears and is pushed
            # left, where it becomes the coroot of -img; signs vanish mod 2
            mask ^= masks[img]
    return TitsElement(mask, x.weyl * y.weyl)


def invert(x: TitsElement) -> TitsElement:
    """Inverse via generator inverses g_i^-1 = (coroot bit of alpha_i) * g_i."""
    rs = x.weyl.rs
    out = identity(rs)
    for i in reversed(x.weyl.word):
        square = rs.coroot_masks[rs.simple_index[i - 1]]
        out = multiply(out, TitsElement(square, simple_reflection(rs, i)))
    return multiply(out, TitsElement(x.bits, weyl_identity(rs)))


def canonical(w: WeylElement) -> TitsElement:
    """Canonical representative: the generator product along a reduced word.

    Products along reduced words are length-additive at every step, so
    the torus part is zero; ``canonical_from_word`` recomputes this the
    slow way for arbitrary words.
    """
    return TitsElement(0, w)


def canonical_from_word(rs: RootSystem, word) -> TitsElement:
    out = identity(rs)
    for i in word:
        out = multiply(out, generator(rs, i))
    return out


def cocycle(u: WeylElement, v: WeylElement) -> int:
    """Torus part of canonical(uv)^-1 * canonical(u) * canonical(v).

    canonical(u) * canonical(v) = t * canonical(uv), so the defect is t
    conjugated by canonical(uv), that is (uv)^-1 applied to t.
    """
    prod = multiply(canonical(u), canonical(v))
    return _act_bits_inverse(prod.weyl, prod.bits)


def _act_bits_inverse(w: WeylElement, mask: int) -> int:
    """``act_bits(w.inverse(), mask)`` without building w^-1: for each set
    bit i, w^-1(alpha_i) is the root that w sends to alpha_i."""
    masks = w.rs.coroot_masks
    find = w.perm.index
    out = 0
    for i, s in enumerate(w.rs.simple_index):
        if mask >> i & 1:
            out ^= masks[find(s)]
    return out


def flip_prediction(u: WeylElement, v: WeylElement) -> int:
    """Sum of coroot bits over flip_set(u, v)."""
    masks = u.rs.coroot_masks
    mask = 0
    for b in flip_set(u, v):
        mask ^= masks[b]
    return mask


def check_cocycle_formula(u: WeylElement, v: WeylElement) -> bool:
    return cocycle(u, v) == flip_prediction(u, v)


def pairing_mod2(rs: RootSystem, a: int, mask: int) -> int:
    """<root_a, sum of the coroots whose bits are set> mod 2."""
    return sum(c for i, c in enumerate(rs._psc[a]) if mask >> i & 1) & 1


def check_two_cocycle_identity(u: WeylElement, v: WeylElement,
                               x: WeylElement) -> bool:
    """Associativity constraint on the cocycle, in left-normalized form.

    Our defect z(u, v) sits to the right of canonical(uv); the textbook
    identity f(u,v) + f(uv,x) = u.f(v,x) + f(u,vx) holds for the
    left-normalized transport f(u,v) = (uv)(z(u,v)).
    """
    def f(a: WeylElement, b: WeylElement) -> int:
        return act_bits(a * b, cocycle(a, b))

    return (f(u, v) ^ f(u * v, x)) == (act_bits(u, f(v, x)) ^ f(u, v * x))
