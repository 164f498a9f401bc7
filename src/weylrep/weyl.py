"""Finite Weyl group elements as exact permutations of the root list.

Elements carry a canonical reduced word (greedy smallest-descent
extraction, so equal permutations always yield equal words) and the walk
roots of a reduced word, and act on roots through precomputed
simple-reflection permutation tables.  A permutation is ``bytes``, one
root index per byte, when the system has at most 256 roots, and a tuple
otherwise.  This module does not test which: it indexes permutations,
and it composes, inverts and maps them through per-root tables with the
``rootsys`` helpers ``compose``, ``invert`` and ``lookup``, which run in
C on either type, so ``u * v`` is ``v.perm.translate`` through ``u.perm``
on ``bytes`` and ``itemgetter(*v.perm)(u.perm)`` on tuples.  An
unranked element gets its walk from the coset chain that builds it; any
other element gets the roots that the descent walk extracting its
canonical word visits.  The sign-flip machinery lives here: inversion
sets, the two-step flip set ``flip_set(u, v)`` of positive roots sent
negative by ``v`` and back to positive by ``u``, and the coroot-sum
functionals built on it.

The first difference at a root a pairs a with the inversion-set coroot
sum S(w) = sum_{b in inv(w)} b^vee.  ``iter_group`` carries S along each
edge of its descent tree: if w(alpha_i) > 0 then inv(w s_i) is
s_i(inv(w)) with alpha_i added, so S(w s_i) = S(w) - (<alpha_i, S(w)> - 1)
alpha_i^vee, one Cartan row read and one coordinate changed.  Any other
element builds S from ``inversion_set``.  The pairing is linear in S(w),
so one packed integer product pairs S(w) with every root at once
(``RootSystem.packed_pairing``), and each element decides all its roots
on its first check with one integer comparison: that product plus the
height fields joined in the order of ``perm`` (``RootSystem.packed_heights``)
equals the fields joined in root order exactly when every root holds,
since no field of either side reaches half the field's range.  Only an
element that fails builds its per-root verdict list, one dot product
with S(w) per root.

``iter_group`` walks W depth-first as a tree in which every element but
the identity has one parent, w s_j for the smallest right descent j of w,
so it makes each element once and holds one path of the tree; an
exhaustive sweep reads it element by element, and ``enumerate_group``,
which the exhaustive pair sweeps read, lists it in the same order.

Sampling is uniform by construction.  ``unrank`` is a bijection from
[0, |W|) onto W: it reads an index's mixed-radix digits as one minimal
coset representative per level of the parabolic chain
``RootSystem.coset_chain`` and composes them, so ``random_element``,
which unranks one uniform index, draws every element with probability
1/|W|.  The factorisation is length-additive, so the representatives'
reduced words concatenate to a reduced word of the element, and their
walks, moved through the prefix already composed, give its walk.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import compress
from math import factorial
from operator import itemgetter, le, mul, sub

from .rootsys import RootSystem, compose, invert, lookup

__all__ = [
    "WeylElement",
    "identity",
    "simple_reflection",
    "inversion_set",
    "flip_set",
    "flip_functional",
    "check_first_difference",
    "check_flip_symmetry",
    "longest_element",
    "group_order",
    "iter_group",
    "enumerate_group",
    "unrank",
    "random_element",
]


class WeylElement:
    """A Weyl group element: the permutation it induces on the root list.

    ``perm[k]`` is the index of ``w(root_k)``; ``perm`` has the type of
    ``rs.identity_perm``, ``bytes`` when the system has at most 256 roots
    and a tuple of ints otherwise.  Words use 1-based simple
    indices following the Bourbaki numbering.  An element that
    ``iter_group`` yields carries S(w) in ``_coroot_sum``; every element
    keeps its first-difference verdicts in ``_verdicts`` once checked:
    the system's shared all-True tuple when the packed comparison holds,
    its own per-root list otherwise.
    """

    __slots__ = ("rs", "perm", "_word", "_walk", "_length", "_hash",
                 "_coroot_sum", "_verdicts")

    def __init__(self, rs: RootSystem, perm: bytes | tuple[int, ...]):
        self.rs = rs
        self.perm = perm
        self._word = None
        self._walk = None
        self._length = None
        self._hash = None
        self._coroot_sum = None
        self._verdicts = None

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.perm)
        return self._hash

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.rs, compose(self.perm, other.perm))

    def inverse(self) -> "WeylElement":
        return WeylElement(self.rs, invert(self.perm))

    def is_identity(self) -> bool:
        return self._length == 0 if self._length is not None else \
            self.perm == self.rs.identity_perm

    @property
    def length(self) -> int:
        if self._length is None:
            # the negative images of the positive roots
            rs = self.rs
            self._length = lookup(self.perm[rs.npos:], rs.positive_table).count(0)
        return self._length

    @property
    def word(self) -> tuple[int, ...]:
        """Canonical reduced word: repeatedly strip the smallest right descent.

        Extracted on first read; a walk already set is kept, so the walk
        may follow another reduced word than this one.
        """
        if self._word is None:
            self._descend()
        return self._word

    @property
    def walk(self) -> tuple[int, ...]:
        """Root indices beta_k = s_{i1}...s_{ik}(alpha_{i(k+1)}) along a
        reduced word i1...iL of w.

        The word is the coset-chain word for an unranked element and
        ``word`` for any other.  As a set the roots are the inversion set
        of w^-1, one root per letter, whichever reduced word they follow.
        For any v, v(beta_k) is the image of alpha_{i(k+1)} under the
        partial product v s_{i1}...s_{ik}, so its sign says whether the
        next letter shortens that product without composing it.
        """
        if self._walk is None:
            self._descend()
        return self._walk

    def _descend(self) -> None:
        """Walk down to the identity, caching the letters and their roots.

        Stripping letter i from cur = w s_{iL}...s_{i(k+2)} visits the root
        -cur(alpha_i) = beta_k.  Reaching the identity proves that the
        word multiplies out to w, which every walk root relies on.  The
        roots are kept only when no walk is set yet.
        """
        rs = self.rs
        npos = rs.npos
        neg = rs.neg
        simples = rs.simple_index
        getters = rs.simple_getters
        cur = self.perm
        letters = []
        roots = []
        while True:
            for i, s in enumerate(simples):
                img = cur[s]
                if img < npos:
                    break
            else:
                break
            letters.append(i + 1)
            roots.append(neg[img])
            cur = getters[i](cur)
        if cur != rs.identity_perm:
            raise AssertionError("descent walk did not reach the identity")
        self._word = tuple(reversed(letters))
        if self._walk is None:
            self._walk = tuple(reversed(roots))

    @property
    def coroot_sum(self) -> tuple[int, ...]:
        """sum_{b in inv(w)} b^vee in simple-coroot coordinates.

        Equals rho^vee - w^-1(rho^vee); it is never taken from that closed
        form, so first-difference checks stay two-route.  An element from
        ``iter_group`` returns the S carried along the descent tree; any other
        builds it from the inversion set on each access, without keeping it.
        """
        s = self._coroot_sum
        return self.rs.coroot_sum(inversion_set(self)) if s is None else s

    def order(self) -> int:
        n, x = 1, self
        while not x.is_identity():
            x, n = x * self, n + 1
        return n

    def __repr__(self) -> str:
        return f"WeylElement({self.rs!r}, word={self.word})"


def identity(rs: RootSystem) -> WeylElement:
    w = WeylElement(rs, rs.identity_perm)
    w._word = ()
    w._walk = ()
    w._length = 0
    return w


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple index {i} out of range 1..{rs.rank}")
    w = WeylElement(rs, rs.simple_perms[i - 1])
    w._word = (i,)
    w._walk = (rs.simple_index[i - 1],)
    w._length = 1
    return w


def from_word(rs: RootSystem, word) -> WeylElement:
    """Compose simple reflections; the stored word is re-extracted reduced."""
    perm = rs.identity_perm
    getters = rs.simple_getters
    for i in word:
        if not 1 <= i <= rs.rank:
            raise ValueError(f"simple index {i} out of range 1..{rs.rank}")
        perm = getters[i - 1](perm)
    return WeylElement(rs, perm)


def inversion_set(w: WeylElement) -> frozenset[int]:
    """Positive roots sent negative by w; its size is the length of w."""
    npos = w.rs.npos
    p = w.perm
    return frozenset(k for k in w.rs.positive_indices() if p[k] < npos)


def flip_set(u: WeylElement, v: WeylElement) -> frozenset[int]:
    """{a > 0 : v(a) < 0 and u(v(a)) > 0}, read from ``_flip_mask``."""
    return frozenset(compress(u.rs.positive_indices(),
                              _flip_mask(u.perm, v.perm, u.rs)))


def _flip_mask(pu, pv, rs: RootSystem) -> bytes:
    """Byte k is 1 when pv[npos + k] < npos <= pu[pv[npos + k]], else 0.

    ``lookup(pu[:npos], positive_table)`` holds, for each negative root j,
    whether u(j) is positive; padded with zeros, which a positive j reads,
    it is the table that one ``lookup`` of the positive roots' images
    under v reads.
    """
    npos = rs.npos
    back = lookup(pu[:npos], rs.positive_table).ljust(rs.nroots, b"\0")
    return lookup(pv[npos:], back)


def flip_functional(u: WeylElement, v: WeylElement, a: int) -> int:
    """Sum of <root_a, b^vee> over b in flip_set(u, v)."""
    rs = u.rs
    return sum(map(mul, rs._psc[a], rs.coroot_sum(flip_set(u, v))))


def _packed_pairings(w: WeylElement) -> int:
    """sum_a <root_a, S(w)> B^a, B = 2^width, with S(w) = ``w.coroot_sum``:
    sum_i S_i * columns[i] of ``RootSystem.packed_pairing``, a balanced
    base-B number.  A coordinate of S(w) past the range where every field
    is exact raises ``AssertionError``, so no field aliases into its
    neighbour."""
    s = w.coroot_sum
    _, limits, columns = w.rs.packed_pairing
    if not all(map(le, map(abs, s), limits)):
        raise AssertionError(f"coroot sum {s} is past the packed range")
    return sum(map(mul, s, columns))


def _root_verdicts(w: WeylElement) -> list[bool]:
    """Per-root verdicts: <root_a, S(w)> as one dot product per root against
    the height drop ht(a) - ht(w(a)).  A helper of its own, so that S is
    not a cell variable of ``check_first_difference``."""
    rs = w.rs
    s = w.coroot_sum
    heights = rs.heights
    drops = map(sub, heights, itemgetter(*w.perm)(heights))
    return [sum(map(mul, row, s)) == d for row, d in zip(rs._psc, drops)]


def check_first_difference(w: WeylElement, a: int) -> bool:
    """Inversion-set coroot sum against the height drop along w.

    Verifies sum_{b in inv(w)} <a, b^vee> == ht(a) - ht(w(a)).  The left
    side is <a, S(w)> with S(w) = ``w.coroot_sum``: carried along the
    descent tree for an ``iter_group`` element, built from inv(w) otherwise.
    The right side reads only heights and ``w.perm``, so the two sides
    come from independent routes.  The first call on an element decides
    every root at once with one integer comparison: P + R == T, where
    P = ``_packed_pairings(w)``, R = ``RootSystem.packed_heights_of(w.perm)``
    joins the height fields of ``RootSystem.packed_heights`` in the order
    of ``w.perm`` and T joins them in root order.  Every field of P and
    of T - R is under B/2 in size (the range check and the build's digit
    bound), so the sum is T exactly when every root's two sides agree.  A
    passing element keeps the system's shared all-True verdicts; any
    other takes them from ``_root_verdicts``, one dot product per root.
    Later calls index the verdicts kept on the element.
    """
    verdicts = w._verdicts
    if verdicts is None:
        rs = w.rs
        _, target, passing, _ = rs.packed_heights
        if _packed_pairings(w) + rs.packed_heights_of(w.perm) == target:
            verdicts = passing
        else:
            verdicts = _root_verdicts(w)
        w._verdicts = verdicts
    return verdicts[a]


def check_flip_symmetry(w: WeylElement) -> bool:
    """w^2 carries flip_set(w, w) onto flip_set(w^-1, w^-1).

    Both sides are {b > 0 : w^-1(b) < 0, w^-2(b) > 0} for any bijection
    w of the roots, so the identity says nothing about the root system:
    it tests ``__mul__`` and ``inverse``, the operations it relies on.
    The two flip sets are read from ``_flip_mask``, as in ``flip_set``.
    """
    rs = w.rs
    p, p2, pi = w.perm, (w * w).perm, w.inverse().perm
    return set(compress(p2[rs.npos:], _flip_mask(p, p, rs))) == \
        set(compress(rs.positive_indices(), _flip_mask(pi, pi, rs)))


def longest_element(rs: RootSystem, nodes=None) -> WeylElement:
    """Longest element of the parabolic subgroup on ``nodes`` (1-based;
    all simple nodes by default): right-multiply by s_i, i in ``nodes``,
    while some x(alpha_i) is still positive."""
    npos = rs.npos
    if nodes is None:
        nodes = range(1, rs.rank + 1)
    x = identity(rs)
    while True:
        i = next((i for i in nodes
                  if x.perm[rs.simple_index[i - 1]] >= npos), None)
        if i is None:
            return x
        x = x * simple_reflection(rs, i)


_ORDERS = {"E": {6: 51840, 7: 2903040, 8: 696729600}, "F": {4: 1152},
           "G": {2: 12}}


def group_order(rs: RootSystem) -> int:
    lbl, n = rs.datum.type_label, rs.rank
    if lbl == "A":
        return factorial(n + 1)
    if lbl in ("B", "C", "D"):
        return 2 ** (n - (lbl == "D")) * factorial(n)
    return _ORDERS[lbl][n]


def iter_group(rs: RootSystem) -> Iterator[WeylElement]:
    """Yield every element once, depth-first down the descent tree.

    Every w other than the identity has one parent, w s_j for the smallest
    right descent j of w (Björner-Brenti, *Combinatorics of Coxeter
    Groups*, ch. 3).  So p s_i is a child of p exactly when p(alpha_i) > 0
    and (p s_i)(alpha_j) = p(s_i(alpha_j)) > 0 for every j < i.  The roots
    s_i(alpha_j), j < i, are read from ``simple_perms`` once per walk
    (``_earlier_roots``), so the test composes nothing, and only children are
    composed: |W| - 1 compositions, each element made once.  Children
    follow in increasing i, and the walk holds one path of the tree with
    the pending siblings along it, never a whole length level.

    Each element carries S(w) = sum_{b in inv(w)} b^vee (``coroot_sum``)
    from its parent: on an edge p -> p s_i, p(alpha_i) > 0, so inv(p s_i)
    is s_i(inv(p)) with alpha_i added, and only coordinate i changes, to
    S_i + 1 - <alpha_i, S(p)>, read from row i of the Cartan pairings
    <alpha_i, alpha_j^vee>.
    """
    npos = rs.npos
    simples = rs.simple_index
    # <alpha_i, alpha_j^vee> is entry (j, i) of the Cartan matrix
    rows = tuple(zip(*rs.datum.cartan_matrix))
    # earlier[i] reads p(alpha_i) and p(s_i(alpha_j)) for j < i; alpha_i is
    # listed twice so that the getter returns a tuple for i = 0 too
    earlier = tuple(itemgetter(a, a, *roots)
                    for a, roots in zip(simples, _earlier_roots(rs)))
    # reversed, so that the stack pops the children in increasing i
    moves = tuple(reversed(tuple(zip(range(rs.rank), simples, earlier,
                                     rs.simple_getters, rows))))
    stack = [(rs.identity_perm, (0,) * rs.rank)]
    while stack:
        p, s = stack.pop()
        w = WeylElement(rs, p)
        w._coroot_sum = s
        yield w
        for i, a, images, step, row in moves:
            if p[a] >= npos and min(images(p)) >= npos:
                si = s[i] + 1 - sum(map(mul, row, s))
                stack.append((step(p), s[:i] + (si,) + s[i + 1:]))


def _earlier_roots(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Entry i lists s_i(alpha_j) for j < i: p s_i has a right descent
    before i exactly when p sends one of them to a negative root."""
    simples = rs.simple_index
    return tuple(tuple(s[b] for b in simples[:i])
                 for i, s in enumerate(rs.simple_perms))


def enumerate_group(rs: RootSystem) -> list[WeylElement]:
    """All elements in a list, in ``iter_group`` order."""
    return list(iter_group(rs))


def unrank(rs: RootSystem, n: int) -> WeylElement:
    """The element with index n in [0, |W|): w = c_rank ... c_1.

    c_k is one of the |W_{J_k}| / |W_{J_(k-1)}| representatives in
    ``rs.coset_chain[k - 1]``.  The mixed-radix digits of n, least
    significant first, pick c_rank, then c_(rank-1), down to c_1, so
    distinct indices give distinct elements and every element has one.

    The element's walk follows a reduced word: the concatenation of the
    representatives' search words.  c_k's walk roots are moved through
    the prefix c_rank ... c_(k+1), one lookup per root.  The permutation
    is the product of that word, so having exactly l(w) letters proves
    it reduced; a shorter or longer walk raises ``AssertionError``.
    """
    order = group_order(rs)
    if not 0 <= n < order:
        raise ValueError(f"index {n} is not in [0, {order})")
    perm = rs.identity_perm
    walk = []
    for level in reversed(rs.coset_chain):
        n, digit = divmod(n, len(level))
        getter, cwalk = level[digit]
        walk += [perm[b] for b in cwalk]
        perm = getter(perm)
    w = WeylElement(rs, perm)
    if len(walk) != w.length:
        raise AssertionError("chain walk is not a reduced word of its element")
    w._walk = tuple(walk)
    return w


def random_element(rs: RootSystem, rng) -> WeylElement:
    """A uniformly random element: ``unrank`` of ``rng.randrange(|W|)``.

    Uniform by construction, since ``unrank`` is a bijection onto W; one
    draw costs one ``randrange`` and rank compositions of root
    permutations.
    """
    return unrank(rs, rng.randrange(group_order(rs)))
