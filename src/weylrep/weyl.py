"""Finite Weyl group elements as exact permutations of the root list.

Elements carry a canonical reduced word (greedy smallest-descent
extraction, so equal permutations always yield equal words) and the walk
roots of a reduced word, and act on roots through precomputed
simple-reflection permutation tables.  Permutations compose in C:
``u * v`` is ``operator.itemgetter(*v.perm)(u.perm)``.  An unranked
element gets its walk from the coset chain that builds it; any other
element gets the roots that the descent walk extracting its canonical
word visits.  The sign-flip machinery lives here: inversion sets, the
two-step flip set ``flip_set(u, v)`` of positive roots sent negative by
``v`` and back to positive by ``u``, and the coroot-sum functionals
built on it.

The first difference at a root a pairs a with the inversion-set coroot
sum S(w) = sum_{b in inv(w)} b^vee.  ``iter_group`` carries S along its
breadth-first search: if w(alpha_i) > 0 then inv(w s_i) is
s_i(inv(w)) with alpha_i added, so S(w s_i) = S(w) - (<alpha_i, S(w)> - 1)
alpha_i^vee, one Cartan row read and one coordinate changed.  Any other
element builds S from ``inversion_set``.  The pairing is linear in S(w),
so one packed integer product pairs S(w) with every root at once
(``RootSystem.packed_pairing``), and each element decides all its roots
on its first check with one integer comparison: that product plus the
height fields joined in the order of ``perm`` (``RootSystem.packed_heights``)
equals the fields joined in root order exactly when every root holds,
since no field of either side reaches half the field's range.  Only an
element that fails builds its per-root verdict list.
``iter_group`` yields W breadth-first by length, one length level at a
time, and composes only the moves that go up in length; an exhaustive
sweep reads it element by element, and ``enumerate_group`` is its list.

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
from math import factorial
from operator import eq, itemgetter, le, mul, sub
from sys import byteorder

from .rootsys import RootSystem

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

    ``perm[k]`` is the index of ``w(root_k)``.  Words use 1-based simple
    indices following the Bourbaki numbering.  An element that
    ``iter_group`` yields carries S(w) in ``_coroot_sum``; every element
    keeps its first-difference verdicts in ``_verdicts`` once checked:
    the system's shared all-True tuple when the packed comparison holds,
    its own per-root list otherwise.
    """

    __slots__ = ("rs", "perm", "_word", "_walk", "_length", "_hash",
                 "_coroot_sum", "_verdicts")

    def __init__(self, rs: RootSystem, perm: tuple[int, ...]):
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
        return WeylElement(self.rs, itemgetter(*other.perm)(self.perm))

    def apply_simple(self, i: int) -> int:
        """Image root index of alpha_i (1-based)."""
        return self.perm[self.rs.simple_index[i - 1]]

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.perm)
        for k, v in enumerate(self.perm):
            inv[v] = k
        return WeylElement(self.rs, tuple(inv))

    def is_identity(self) -> bool:
        return self._length == 0 if self._length is not None else \
            self.perm == self.rs.identity_perm

    @property
    def length(self) -> int:
        if self._length is None:
            npos = self.rs.npos
            self._length = len([x for x in self.perm[npos:] if x < npos])
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
        ``iter_group`` returns the S carried along the search; any other
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
    """{a > 0 : v(a) < 0 and u(v(a)) > 0}."""
    npos = u.rs.npos
    pu = u.perm
    pv = v.perm
    out = []
    for k in u.rs.positive_indices():
        vk = pv[k]
        if vk < npos and pu[vk] >= npos:
            out.append(k)
    return frozenset(out)


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
    _, _, limits, _, columns = w.rs.packed_pairing
    if not all(map(le, map(abs, s), limits)):
        raise AssertionError(f"coroot sum {s} is past the packed range")
    return sum(map(mul, s, columns))


def _pairing_vector(w: WeylElement) -> list[int]:
    """L[a] = <root_a, S(w)> for every root a: ``_packed_pairings`` plus the
    bias (the top bit of every field, so no field borrows from the next),
    XORed with it, read as two's complement fields."""
    fmt, nbytes, _, bias, _ = w.rs.packed_pairing
    packed = (_packed_pairings(w) + bias) ^ bias
    return memoryview(packed.to_bytes(nbytes, byteorder)).cast(fmt).tolist()


def check_first_difference(w: WeylElement, a: int) -> bool:
    """Inversion-set coroot sum against the height drop along w.

    Verifies sum_{b in inv(w)} <a, b^vee> == ht(a) - ht(w(a)).  The left
    side is <a, S(w)> with S(w) = ``w.coroot_sum``: carried along the
    search for an ``iter_group`` element, built from inv(w) otherwise.
    The right side reads only heights and ``w.perm``, so the two sides
    come from independent routes.  The first call on an element decides
    every root at once with one integer comparison: P + R == T, where
    P = ``_packed_pairings(w)``, R joins the height fields of
    ``RootSystem.packed_heights`` in the order of ``w.perm`` and T joins
    them in root order.  Every field of P and of T - R is under B/2 in
    size (the range check and the build's digit bound), so the sum is T
    exactly when every root's two sides agree.  A passing element keeps
    the system's shared all-True verdicts; any other compares
    ``_pairing_vector`` with the height drops root by root.  Later calls
    index the verdicts kept on the element.
    """
    verdicts = w._verdicts
    if verdicts is None:
        fields, target, passing = w.rs.packed_heights
        right = int.from_bytes(b"".join(itemgetter(*w.perm)(fields)), "little")
        if _packed_pairings(w) + right == target:
            verdicts = passing
        else:
            heights = w.rs.heights
            drops = map(sub, heights, itemgetter(*w.perm)(heights))
            verdicts = list(map(eq, _pairing_vector(w), drops))
        w._verdicts = verdicts
    return verdicts[a]


def check_flip_symmetry(w: WeylElement) -> bool:
    """w^2 carries flip_set(w, w) onto flip_set(w^-1, w^-1).

    Both sides are {b > 0 : w^-1(b) < 0, w^-2(b) > 0} for any bijection
    w of the roots, so the identity says nothing about the root system:
    it tests ``__mul__`` and ``inverse``, the operations it relies on.
    The two flip sets are taken inline, as in ``flip_set``.
    """
    npos = w.rs.npos
    pos = w.rs.positive_indices()
    p, p2, pi = w.perm, (w * w).perm, w.inverse().perm
    lhs = {p2[k] for k in pos if p[k] < npos and p[p[k]] >= npos}
    return lhs == {k for k in pos if pi[k] < npos and pi[pi[k]] >= npos}


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
    """Yield every element, breadth-first by length; deterministic order.

    Level l + 1 is built from level l alone: p s_i is composed only when
    p(alpha_i) > 0, the moves that make p longer (Humphreys, *Reflection
    Groups and Coxeter Groups*, §1.6-1.7), and an insertion-ordered dict
    keeps each new element where it is first reached.  The order is
    that of a breadth-first search over all moves with one global
    ``seen`` set, since an element of length l + 1 is reached only from
    level l.  Only the permutations of the level being yielded and of
    the level being built are held, so a sweep that drops each element
    after its check never holds all of W.

    Each element carries S(w) = sum_{b in inv(w)} b^vee (``coroot_sum``),
    taken from the parent that reaches it first: on such a move inv(p s_i)
    is s_i(inv(p)) with alpha_i added, so only coordinate i changes, to
    S_i + 1 - <alpha_i, S(p)>, read from row i of the Cartan pairings
    <alpha_i, alpha_j^vee>.
    """
    npos = rs.npos
    # <alpha_i, alpha_j^vee> is entry (j, i) of the Cartan matrix
    rows = tuple(zip(*rs.datum.cartan_matrix))
    moves = tuple(zip(range(rs.rank), rs.simple_index, rs.simple_getters, rows))
    level = {rs.identity_perm: (0,) * rs.rank}
    while level:
        for x, s in level.items():
            w = WeylElement(rs, x)
            w._coroot_sum = s
            yield w
        nxt = {}
        for p, s in level.items():
            for i, a, getter, row in moves:
                if p[a] >= npos:
                    x = getter(p)
                    if x not in nxt:
                        nxt[x] = s[:i] + (s[i] + 1 - sum(map(mul, row, s)),) + s[i + 1:]
        level = nxt


def enumerate_group(rs: RootSystem) -> list[WeylElement]:
    """All elements in a list, in ``iter_group``'s order."""
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
