"""Finite Weyl groups acting on the weight lattice, with Bruhat order,
parabolic quotients, extremal lifts and Deodhar lifts.

An element is an index into tables built once per group.  The elements are
numbered 0..|W|-1 breadth first from the identity by right multiplication,
so in length order: the identity is 0 and w0 is |W|-1.  Per element the
group keeps its length, its products with each simple reflection on either
side, its descent sets, its inverse and one reduced word.  Products,
descents and cosets are table lookups; Bruhat comparisons and Deodhar lifts
are one recursion on the tables, down the left descents of the upper bound.
A coset is kept as its minimal representative, keyed by one int packing that
index with its parabolic's bit mask; its lower covers come from those of
the representative shortened by its lowest left descent (the lifting
property), each labelled by its inversion root gamma, with min(lower)
s_gamma = min(upper).

The breadth-first pass multiplies no matrix: it keys w by w^-1(rho) packed
into one int, whose signs are the right descents of w, reads one
precomputed tuple per generator, steps along ascents only, and takes the
reduced word through the smallest right descent.  The left products and
inverses follow in the same order, from the last letter i of the word of
x = u s_i: s_j x = (s_j u) s_i and x^-1 = s_i u^-1.  A WeylElt, with its
integer matrix on omega-coordinates packed into one int of signed 8-bit
digits that orders as the rows do, is made on first use; its matrix
columns are memoized along the last letter.  The index order is not the
matrix order, so whatever is sorted for output sorts by `packed`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cache

from .rootdata import (
    GroupSizeError,
    InvariantError,
    RootDatum,
    build_root_datum,
    checked_group_order,
)

__all__ = [
    "WeylElt",
    "Coset",
    "WeylGroup",
    "GroupSizeError",
    "LiftError",
    "make_group",
    "one_line_to_word",
    "word_to_one_line",
]

Parabolic = frozenset  # subset of 1-based simple-root indices


class LiftError(ValueError):
    """Raised when a requested extremal lift does not exist."""


@dataclass(frozen=True, slots=True)
class WeylElt:
    """Group element: its table index, its integer matrix on omega-coordinates
    packed into one int, its length and the group's rank.  Compared by index;
    output is sorted by `packed`, the matrix order."""

    index: int
    packed: int = field(compare=False)
    length: int = field(compare=False)
    rank: int = field(compare=False)

    def __hash__(self):
        return self.index

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The rows; entry (r, c) is the signed 8-bit digit at bit 8(n(n-1-r) + n-1-c)."""
        n = self.rank
        data = (self.packed + int.from_bytes(b"\x80" * n * n, "big")).to_bytes(n * n, "big")
        return tuple(tuple(b - 128 for b in data[r:r + n]) for r in range(0, n * n, n))

    def act(self, weight):
        """Apply to a weight in omega-coordinates (ints or Fractions)."""
        return tuple(sum(a * x for a, x in zip(row, weight, strict=True)) for row in self.matrix)


@dataclass(frozen=True, eq=False, slots=True)
class Coset:
    """Coset of a parabolic quotient W/W_P, stored by its minimal representative.

    `key` packs (rep index, mask of P) into one int at construction; equality
    and hashing read it alone."""

    rep: WeylElt
    parabolic: Parabolic
    key: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "key", pair_key(self.rep.index, bitmask(self.parabolic)))

    def __eq__(self, other):
        return self.key == other.key if isinstance(other, Coset) else NotImplemented

    def __hash__(self):
        return self.key

    @property
    def rank(self) -> int:
        return self.rep.length


@cache
def bitmask(indices: frozenset) -> int:
    """The bit mask of a set of 1-based indices (simple roots, or members of [m])."""
    return sum(1 << (i - 1) for i in indices)


def pair_key(a: int, b: int) -> int:
    """One int for a pair of non-negative ints, injective (Cantor pairing)."""
    return (a + b) * (a + b + 1) // 2 + b


def _lowest(mask: int) -> int:
    """0-based position of the lowest set bit."""
    return (mask & -mask).bit_length() - 1


class WeylGroup:
    """A fully enumerated Weyl group for one root datum.

    The constructor rejects groups larger than `size_guard` (default 1152,
    the order of W(F4)).  One breadth-first pass builds the tables, `lengths`
    among them (by element index, the rank table of the coset posets); the
    elements themselves are made on first use (`element`).  Bruhat
    comparisons and Deodhar lifts are memoized.
    """

    def __init__(self, datum: RootDatum, size_guard: int = 1152):
        order = checked_group_order(datum.dynkin_type, datum.rank, size_guard)
        self.datum = datum
        self.rank = n = datum.rank

        # Breadth first from the identity by right multiplication, so in
        # length order.  w is keyed by v = w^-1(rho), rho = (1, ..., 1) in
        # omega-coordinates, with v[k] + 128 in the 8 bits at 8n(n-1-k).  v[i]
        # is the height of the coroot w(alpha_i^vee), negative iff i is a right
        # descent, so only ascents are stepped along: (w s_i)^-1(rho) =
        # v - v[i] alpha_i, alpha_i being column i of the Cartan matrix.
        if max(map(sum, datum.positive_coroots)) > 127:
            raise InvariantError(f"W({datum.dynkin_type}_{n}) has a coroot too high "
                                 "for the 8-bit digits of its element keys")
        shifts = range(8 * n * (n - 1), -1, -8 * n)

        def pack(v):
            return sum((x + 128) << s for x, s in zip(v, shifts))

        # per generator i the loop reads (i, shift, alpha_i packed, bit, letter)
        gens = [(i, shift, pack([row[i] for row in datum.cartan]) - pack((0,) * n),
                 1 << i, (i + 1,)) for i, shift in enumerate(shifts)]
        keys = [pack((1,) * n)]
        seen = {keys[0]: 0}
        right, right_desc, words = [[0] * n], [], []
        for w, v in enumerate(keys):  # keys grows while it is walked
            row, mask, word = right[w], 0, ()
            for i, shift, step, bit, letter in gens:
                vi = (v >> shift & 255) - 128
                if vi < 0:
                    mask |= bit
                    if not word:  # a reduced word ends in the smallest right descent
                        word = words[row[i]] + letter
                    continue
                u = v - vi * step
                x = seen.get(u)
                if x is None:
                    x = seen[u] = len(keys)
                    keys.append(u)
                    right.append([0] * n)
                row[i] = x
                right[x][i] = w  # a descent slot, filled from the shorter side
            right_desc.append(mask)
            words.append(word)
        if len(keys) != order:
            raise InvariantError(f"generated {len(keys)} elements, expected {order}")

        # x = u s_i for the last letter i of x's word, u and u^-1 coming first
        left, inv = [tuple(right[0])], [0]
        for word, row in zip(words[1:], right[1:]):
            i = word[-1] - 1
            u = row[i]
            left.append(tuple([right[y][i] for y in left[u]]))  # s_j x = (s_j u) s_i
            inv.append(left[inv[u]][i])  # x^-1 = s_i u^-1
        self._words = words
        self.lengths = list(map(len, words))
        self._right = list(map(tuple, right))
        self._left, self._inv = left, inv
        self._right_desc = right_desc
        self._left_desc = list(map(right_desc.__getitem__, inv))

        # Matrices are n column ints, made on first use.  Column i of u s_i is
        # -u(e_i) - sum alpha_i[k] u(e_k) over the Dynkin neighbours k of i, each
        # u(e_k) shifted onto column i's digits; the other columns are those of u.
        self._neighbours = [[(k, a, 8 * max(k - i, 0), 8 * max(i - k, 0))
                             for k, a in enumerate(row[i] for row in datum.cartan)
                             if a and k != i] for i in range(n)]
        self._columns_of = {0: tuple(1 << 8 * (n + 1) * (n - 1 - c) for c in range(n))}
        self._elts: list[WeylElt | None] = [None] * order
        self.identity = self.element(0)
        self.longest = self.element(order - 1)  # the only element of the top length

        # reflection index per positive root beta, found by
        # s_beta(rho) = rho - <rho, beta^vee> beta, and the root of each
        self._reflections = [seen[pack(1 - sum(coroot) * x for x in datum.root_omega_coords(root))]
                             for root, coroot in zip(datum.positive_roots, datum.positive_coroots)]
        self._root_of = {x: idx for idx, x in enumerate(self._reflections)}

        self._lifts: defaultdict[tuple[int, int], dict[int, int]] = defaultdict(dict)
        self._parabolic_cache: dict[Parabolic, tuple[WeylElt, ...]] = {}
        self._covers_cache: dict[int, list[tuple[Coset, int]]] = {}  # by coset key
        self._cover_memo: defaultdict[int, dict] = defaultdict(dict)  # mask -> rep -> int pairs
        self.bonded_covers: dict = {}  # shape -> lspath.BondedCovers (shape_covers)

    # -- basic group operations -------------------------------------------

    def element(self, x: int) -> WeylElt:
        """The element of index x, made on first use."""
        return self._elts[x] or self._make(x)

    def _make(self, x: int) -> WeylElt:
        """Make the element of index x: its matrix columns come from those of
        x s_i for its last letter i, down to the nearest memoized ones."""
        memo, steps = self._columns_of, []
        cols = memo.get(x)
        while cols is None:
            i = self._words[x][-1] - 1
            steps.append((x, i))
            x = self._right[x][i]
            cols = memo.get(x)
        for x, i in reversed(steps):
            col = -cols[i]
            for k, a, up, down in self._neighbours[i]:
                col -= a * (cols[k] << up >> down)
            cols = memo[x] = cols[:i] + (col,) + cols[i + 1:]
        elt = self._elts[x] = WeylElt(x, sum(cols), self.lengths[x], self.rank)
        return elt

    def elements(self) -> tuple[WeylElt, ...]:
        """Every element, by index; this makes them all."""
        return tuple(map(self.element, range(len(self))))

    def __len__(self):
        return len(self._elts)

    def simple_reflection(self, i: int) -> WeylElt:
        """s_i for a 1-based Bourbaki index."""
        return self.element(self._right[0][i - 1])

    def reflection(self, root_index: int) -> WeylElt:
        """s_beta for the positive root at `root_index`."""
        return self.element(self._reflections[root_index])

    def mult(self, u: WeylElt, v: WeylElt) -> WeylElt:
        """u v, by multiplying u by the letters of a reduced word of v."""
        x, right = u.index, self._right
        for i in self._words[v.index]:
            x = right[x][i - 1]
        return self.element(x)

    def inverse(self, w: WeylElt) -> WeylElt:
        return self.element(self._inv[w.index])

    def from_word(self, word) -> WeylElt:
        """The product of the simple reflections of a (not necessarily
        reduced) word; letters are 1-based indices in 1..rank."""
        x = 0
        for i in word:
            if not 1 <= i <= self.rank:
                raise ValueError(f"word letter {i} is not in 1..{self.rank}")
            x = self._right[x][i - 1]
        return self.element(x)

    def reduced_word(self, w: WeylElt) -> tuple[int, ...]:
        """A reduced word for w (1-based indices); its last letter is the
        smallest right descent of w, recursively."""
        return self._words[w.index]

    def has_right_descent(self, w: WeylElt, i: int) -> bool:
        return bool(self._right_desc[w.index] >> (i - 1) & 1)

    def has_left_descent(self, w: WeylElt, i: int) -> bool:
        return bool(self._left_desc[w.index] >> (i - 1) & 1)

    # -- parabolic subgroups ------------------------------------------------

    def parabolic_elements(self, parabolic: Parabolic) -> tuple[WeylElt, ...]:
        """All elements of the standard parabolic subgroup W_P, by length and matrix."""
        parabolic = frozenset(parabolic)
        cached = self._parabolic_cache.get(parabolic)
        if cached is not None:
            return cached
        # w lies in W_P iff some (every) reduced word of w has letters in P
        members = [self.element(x) for x, word in enumerate(self._words)
                   if parabolic.issuperset(word)]
        result = tuple(sorted(members, key=lambda w: (w.length, w.packed)))
        self._parabolic_cache[parabolic] = result
        return result

    def longest_in_parabolic(self, parabolic: Parabolic) -> WeylElt:
        """The longest element of W_P, the one with no right ascent in P: reached
        from the identity by multiplying out such ascents while there is one."""
        mask, x = bitmask(frozenset(parabolic)), 0
        steps = self.longest.length  # each step adds one to the length
        while ascents := mask & ~self._right_desc[x]:
            if (steps := steps - 1) < 0:
                raise InvariantError("an ascent step of longest_in_parabolic keeps the length")
            x = self._right[x][_lowest(ascents)]
        return self.element(x)

    def is_q_minimal(self, w: WeylElt, parabolic: Parabolic) -> bool:
        """True iff w has no right descent inside the parabolic."""
        return not self._right_desc[w.index] & bitmask(frozenset(parabolic))

    def stabilizer_parabolic(self, weight) -> Parabolic:
        """Simple indices i with <weight, alpha_i^vee> = 0."""
        return frozenset(
            i for i in self.datum.simple_indices if weight[i - 1] == 0
        )

    # -- cosets ---------------------------------------------------------------

    def coset(self, w: WeylElt, parabolic: Parabolic) -> Coset:
        """The coset w W_P, reduced to its minimal representative."""
        parabolic = frozenset(parabolic)
        return Coset(self.element(self._min_rep(w.index, bitmask(parabolic))), parabolic)

    def _min_rep(self, x: int, mask: int) -> int:
        """The minimal representative of x W_P, P given by its bit mask."""
        steps = self.lengths[x]  # each step drops the length by one
        while descents := self._right_desc[x] & mask:
            if (steps := steps - 1) < 0:
                raise InvariantError("a descent step of _min_rep keeps the length")
            x = self._right[x][_lowest(descents)]
        return x

    def all_cosets(self, parabolic: Parabolic) -> list[Coset]:
        """The cosets of W/W_P, by rank and matrix."""
        parabolic = frozenset(parabolic)
        mask = bitmask(parabolic)
        reps = [self.element(x) for x, desc in enumerate(self._right_desc) if not desc & mask]
        reps.sort(key=lambda w: (w.length, w.packed))
        return [Coset(w, parabolic) for w in reps]

    def max_rep(self, c: Coset) -> WeylElt:
        """The maximal-length representative of the coset."""
        return self.mult(c.rep, self.longest_in_parabolic(c.parabolic))

    def coset_leq(self, a: Coset, b: Coset) -> bool:
        if a.parabolic != b.parabolic:
            raise ValueError("cosets of different quotients are incomparable")
        return self.bruhat_leq(a.rep, b.rep)

    def pi(self, c: Coset, larger: Parabolic) -> Coset:
        """Projection W/W_P -> W/W_P' for P <= P'."""
        larger = frozenset(larger)
        if not c.parabolic <= larger:
            raise ValueError("projection target must contain the source parabolic")
        return self.coset(c.rep, larger)

    def min_lift(self, c: Coset, smaller: Parabolic) -> Coset:
        """Unique minimal preimage under W/W_P -> W/W_P' for P <= P'."""
        smaller = frozenset(smaller)
        if not smaller <= c.parabolic:
            raise ValueError("lift target must be contained in the source parabolic")
        return Coset(c.rep, smaller)

    def max_lift(self, c: Coset, smaller: Parabolic) -> Coset:
        """Unique maximal preimage under W/W_P -> W/W_P' for P <= P'."""
        smaller = frozenset(smaller)
        if not smaller <= c.parabolic:
            raise ValueError("lift target must be contained in the source parabolic")
        return self.coset(self.max_rep(c), smaller)

    def coset_fiber(self, c: Coset, smaller: Parabolic) -> list[Coset]:
        """All preimages of the coset under W/W_P -> W/W_P', by rank."""
        smaller = frozenset(smaller)
        if not smaller <= c.parabolic:
            raise ValueError("lift target must be contained in the source parabolic")
        fiber = {self.coset(self.mult(c.rep, u), smaller)
                 for u in self.parabolic_elements(c.parabolic)}
        return sorted(fiber, key=lambda x: (x.rank, x.rep.packed))

    def is_lift_minimal(self, c: Coset, larger: Parabolic) -> bool:
        """True iff c is the minimal element of its fiber over W/W_P'."""
        return self.min_lift(self.pi(c, larger), c.parabolic) == c

    def is_lift_maximal(self, c: Coset, larger: Parabolic) -> bool:
        """True iff c is the maximal element of its fiber over W/W_P'."""
        return self.max_lift(self.pi(c, larger), c.parabolic) == c

    # -- Bruhat order and Deodhar lifts ---------------------------------------

    def bruhat_leq(self, u: WeylElt, v: WeylElt) -> bool:
        """u <= v in Bruhat order: with P = P' empty, u's one lift lies below v."""
        return self._lift(v.index, u.index, 0, 0, self._lifts[0, 0]) >= 0

    def _lift(self, t: int, f: int, p: int, pp: int, memo: dict) -> int:
        """L(t, f): the largest x <= t in f W_P' cap W^P, or -1 if there is none
        (and s(-1) = -1), for t in W^P, f in W^P' and P <= P' (masks p, pp).
        Let s be the lowest left descent of t and x' = L(st, min(f, sf)).  By
        the lifting property (Bjorner-Brenti, Prop. 2.2.7): if sf < f,
        L(t, f) = sx', which is longer and in W^P; if sf > f lies in another
        coset, L(t, f) = x'; if sf lies in f W_P', s permutes it and L(t, f) is
        sx' when that is longer and in W^P, else x'.  `memo` is self._lifts[p, pp],
        fetched once by the caller."""
        length = self.lengths
        if length[f] >= length[t]:
            return t if f == t else -1
        key = t * len(length) + f
        if (x := memo.get(key)) is not None:
            return x
        i = _lowest(self._left_desc[t])
        sf = self._left[f][i]
        down = length[sf] < length[f]
        x = self._lift(self._left[t][i], sf if down else f, p, pp, memo)
        if x >= 0 and (down or self._right_desc[sf] & pp):  # sx lies in f W_P'
            sx = self._left[x][i]
            x = sx if length[sx] > length[x] and not self._right_desc[sx] & p else x
        memo[key] = x
        return x

    def deodhar_max_lift(self, theta_bar: Coset, phi: Coset) -> Coset:
        """Unique maximal lift of phi (in W/W_P') to theta_bar's quotient that is
        <= theta_bar, by `_lift`; LiftError unless pi(theta_bar) >= phi (Deodhar, 1977)."""
        if not theta_bar.parabolic <= phi.parabolic:
            raise ValueError("lift target must be contained in the source parabolic")
        p, pp = bitmask(theta_bar.parabolic), bitmask(phi.parabolic)
        x = self._lift(theta_bar.rep.index, phi.rep.index, p, pp, self._lifts[p, pp])
        if x < 0:
            raise LiftError("no Deodhar lift within the given bound exists")
        return Coset(self.element(x), theta_bar.parabolic)

    def deodhar_min_lift(self, phi_bar: Coset, theta: Coset) -> Coset:
        """Unique minimal lift of theta (in W/W_P') to phi_bar's quotient
        that is >= phi_bar.  Requires theta >= pi(phi_bar).  The mirror of
        the maximal lift of theta's mirror below phi_bar's mirror."""
        mirror = self.mirror
        return mirror(self.deodhar_max_lift(mirror(phi_bar), mirror(theta)))

    def mirror(self, c: Coset) -> Coset:
        """The coset of w0 min(c) in c's quotient.  Left multiplication by w0
        reverses Bruhat order on every W/W_P and commutes with the
        projections (Bjorner-Brenti, Prop. 2.3.4 and section 2.5)."""
        return self.coset(self.mult(self.longest, c.rep), c.parabolic)

    # -- covering relations ------------------------------------------------------

    def covers_down(self, c: Coset) -> list[tuple[Coset, int]]:
        """Cosets covered by c, each with the index of its inversion root gamma:
        the positive root with min(lower) s_gamma = min(upper).  Listed by the
        matrix of min(lower), memoized per coset; the elements and cosets are
        made only for the cosets asked for, from the int pairs of
        _cover_pairs."""
        cached = self._covers_cache.get(c.key)
        if cached is not None:
            return cached
        elts = sorted(((self.element(y), root)
                       for y, root in self._cover_pairs(c.rep.index, bitmask(c.parabolic))),
                      key=lambda pair: pair[0].packed)  # distinct elements have distinct matrices
        self._covers_cache[c.key] = result = [(Coset(w, c.parabolic), root) for w, root in elts]
        return result

    def _cover_pairs(self, x: int, mask: int) -> list[tuple[int, int]]:
        """(lower index, root index) of each cover of x in W^P, P given by its
        bit mask, memoized per mask.  By the lifting property (Bjorner-Brenti,
        Prop. 2.2.7), with s the lowest left descent of x and u = s x, the
        covers of x are u, with gamma = u^-1(alpha_s), and s v for each cover
        v of u with s v > v and s v in W^P, with the root of v."""
        memo = self._cover_memo[mask]
        pairs = memo.get(x)
        if pairs is None:
            pairs = memo[x] = []
            if x:
                left, lengths = self._left, self.lengths
                i = _lowest(self._left_desc[x])
                u = left[x][i]
                t = self._inv[u]
                for letter in self._words[x]:  # t = u^-1 x, the reflection of gamma
                    t = self._right[t][letter - 1]
                pairs.append((u, self._root_of[t]))
                for v, root in self._cover_pairs(u, mask):
                    sv = left[v][i]
                    if lengths[sv] > lengths[v] and not self._right_desc[sv] & mask:
                        pairs.append((sv, root))
        return pairs

    def covering_root(self, upper: Coset, lower: Coset) -> int:
        """Index of the positive root beta with s_beta min(lower) = min(upper)."""
        delta = self.mult(upper.rep, self.inverse(lower.rep))
        if delta.index not in self._root_of:
            raise ValueError("elements are not related by a reflection")
        return self._root_of[delta.index]

    # -- product decomposition and interval covers -------------------------------

    def product_decomposition(self, w: WeylElt, q: Parabolic, qp: Parabolic):
        """Write w in W^Q as a * b with a in W^{Q'}, b in W_{Q'} cap W^Q and
        l(w) = l(a) + l(b)."""
        q, qp = frozenset(q), frozenset(qp)
        if not q <= qp:
            raise ValueError("need Q <= Q'")
        if not self.is_q_minimal(w, q):
            raise ValueError("element is not Q-minimal")
        a = self.coset(w, qp).rep
        b = self.mult(self.inverse(a), w)
        if w.length != a.length + b.length:
            raise InvariantError("the product decomposition is not length-additive")
        return a, b

    def bruhat_interval_cover(self, theta: Coset, phi: Coset, p: Parabolic) -> Coset:
        """Some psi covered by theta with psi >= phi and pi_P(psi) < pi_P(theta).

        Follows the inductive argument behind the covering lemma: lift
        pi_P(phi) maximally below theta, then push the lower bound up until
        the gap closes.
        """
        p = frozenset(p)
        if not (self.coset_leq(phi, theta) and phi != theta):
            raise ValueError("need theta > phi")
        if self.pi(theta, p) == self.pi(phi, p):
            raise ValueError("need pi_P(theta) > pi_P(phi)")
        while True:
            if theta.rank - phi.rank == 1:
                return phi
            phi_bar = self.deodhar_max_lift(theta, self.pi(phi, p))
            if theta.rank - phi_bar.rank == 1:
                return phi_bar
            theta_p = self.pi(theta, p)
            candidates = [
                c
                for c in self.all_cosets(theta.parabolic)
                if phi_bar.rank < c.rank < theta.rank
                and self.pi(c, p) != theta_p
                and self.coset_leq(phi_bar, c)
                and self.coset_leq(c, theta)
            ]
            phi = min(candidates, key=lambda c: (c.rank, c.rep.packed))


def make_group(dynkin_type: str, rank: int, size_guard: int = 1152) -> WeylGroup:
    """Root datum plus enumerated group in one call; the size guard is
    checked before either is built."""
    checked_group_order(dynkin_type, rank, size_guard)
    return WeylGroup(build_root_datum(dynkin_type, rank), size_guard)


# -- type A one-line notation ----------------------------------------------------


def one_line_to_word(perm) -> tuple[int, ...]:
    """Reduced word of a permutation given in one-line notation (values 1..n)."""
    p = list(perm)
    rev = []
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                rev.append(i + 1)
                changed = True
    return tuple(reversed(rev))


def word_to_one_line(word, n: int) -> tuple[int, ...]:
    """One-line notation of s_{i_1} ... s_{i_k} in S_n."""
    p = list(range(1, n + 1))
    for i in word:
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)
