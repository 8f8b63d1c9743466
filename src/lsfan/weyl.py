"""Finite Weyl groups acting on the weight lattice, with Bruhat order,
parabolic quotients, extremal lifts and Deodhar lifts.

Elements are integer matrices in omega-coordinates; a simple reflection acts
by s_i(lam) = lam - <lam, alpha_i^vee> alpha_i.  Equality of elements is
matrix equality, so no word normalization is ever needed.  All cosets are
kept as their unique minimal-length representative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rootdata import InvariantError, RootDatum, build_root_datum, weyl_group_order

__all__ = [
    "WeylElt",
    "Coset",
    "WeylGroup",
    "GroupSizeError",
    "LiftError",
    "covering_relations",
    "make_group",
    "one_line_to_word",
    "word_to_one_line",
]

Parabolic = frozenset  # subset of 1-based simple-root indices


class GroupSizeError(ValueError):
    """Raised when a Weyl group exceeds the enumeration guard."""


class LiftError(ValueError):
    """Raised when a requested extremal lift does not exist."""


@dataclass(frozen=True)
class WeylElt:
    """Group element as an integer matrix on omega-coordinates."""

    matrix: tuple[tuple[int, ...], ...]
    length: int = field(compare=False)

    def __hash__(self):
        return hash(self.matrix)

    def act(self, weight):
        """Apply to a weight in omega-coordinates (ints or Fractions)."""
        return tuple(
            sum(row[j] * weight[j] for j in range(len(weight))) for row in self.matrix
        )


@dataclass(frozen=True)
class Coset:
    """Coset of a parabolic quotient W/W_P, stored by its minimal representative."""

    rep: WeylElt
    parabolic: Parabolic

    def __hash__(self):
        return hash((self.rep.matrix, self.parabolic))

    @property
    def rank(self) -> int:
        return self.rep.length


def _mat_mult(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class WeylGroup:
    """A fully enumerated Weyl group for one root datum.

    The constructor rejects groups larger than `size_guard` (default 1152,
    the order of W(F4)).  All elements, lengths and inverses are materialized
    up front; Bruhat comparisons are memoized.
    """

    def __init__(self, datum: RootDatum, size_guard: int = 1152):
        order = weyl_group_order(datum.dynkin_type, datum.rank)
        if order > size_guard:
            raise GroupSizeError(
                f"|W({datum.dynkin_type}_{datum.rank})| = {order} exceeds the "
                f"size guard {size_guard}"
            )
        self.datum = datum
        self.rank = datum.rank
        n = datum.rank
        cartan = datum.cartan

        self._simple = []
        for i in range(n):
            mat = tuple(
                tuple(
                    (1 if k == j else 0) - (cartan[k][i] if j == i else 0)
                    for j in range(n)
                )
                for k in range(n)
            )
            self._simple.append(mat)

        id_mat = _identity(n)
        lengths = {id_mat: 0}
        inverses = {id_mat: id_mat}
        frontier = [id_mat]
        while frontier:
            new_frontier = []
            for mat in frontier:
                inv = inverses[mat]
                for i, s in enumerate(self._simple):
                    prod = _mat_mult(mat, s)
                    if prod not in lengths:
                        lengths[prod] = lengths[mat] + 1
                        inverses[prod] = _mat_mult(s, inv)
                        new_frontier.append(prod)
            frontier = new_frontier
        if len(lengths) != order:
            raise InvariantError(f"generated {len(lengths)} elements, expected {order}")

        self._elements = {m: WeylElt(m, l) for m, l in lengths.items()}
        self._inverses = inverses
        self.identity = self._elements[id_mat]
        max_len = len(datum.positive_roots)
        self.longest = next(w for w in self._elements.values() if w.length == max_len)

        # reflection matrix and omega-coordinates per positive root
        self._reflections = []
        self._root_omegas = []
        for root, coroot in zip(datum.positive_roots, datum.positive_coroots):
            omega = datum.root_omega_coords(root)
            mat = tuple(
                tuple(
                    (1 if k == j else 0) - omega[k] * coroot[j] for j in range(n)
                )
                for k in range(n)
            )
            self._reflections.append(self._elements[mat])
            self._root_omegas.append(omega)

        self._bruhat_cache: dict[tuple, bool] = {}
        self._parabolic_cache: dict[Parabolic, tuple[WeylElt, ...]] = {}
        self._w0_cache: dict[Parabolic, WeylElt] = {}
        self._coset_cache: dict[Parabolic, list[Coset]] = {}
        self._covers_cache: dict[Coset, list[tuple[Coset, int]]] = {}
        self._fiber_cache: dict[tuple, list[Coset]] = {}

    # -- basic group operations -------------------------------------------

    def elements(self):
        return self._elements.values()

    def __len__(self):
        return len(self._elements)

    def simple_reflection(self, i: int) -> WeylElt:
        """s_i for a 1-based Bourbaki index."""
        return self._elements[self._simple[i - 1]]

    def reflection(self, root_index: int) -> WeylElt:
        """s_beta for the positive root at `root_index`."""
        return self._reflections[root_index]

    def mult(self, u: WeylElt, v: WeylElt) -> WeylElt:
        return self._elements[_mat_mult(u.matrix, v.matrix)]

    def inverse(self, w: WeylElt) -> WeylElt:
        return self._elements[self._inverses[w.matrix]]

    def from_word(self, word) -> WeylElt:
        """The product of the simple reflections of a (not necessarily
        reduced) word; letters are 1-based indices in 1..rank."""
        w = self.identity
        for i in word:
            if not 1 <= i <= self.rank:
                raise ValueError(f"word letter {i} is not in 1..{self.rank}")
            w = self.mult(w, self.simple_reflection(i))
        return w

    def reduced_word(self, w: WeylElt) -> tuple[int, ...]:
        """A reduced word for w (1-based indices, lexicographically greedy)."""
        suffix = []
        while w.length > 0:
            i = next(
                i for i in self.datum.simple_indices if self.has_right_descent(w, i)
            )
            suffix.append(i)
            w = self.mult(w, self.simple_reflection(i))
        return tuple(reversed(suffix))

    def has_right_descent(self, w: WeylElt, i: int) -> bool:
        return self.mult(w, self.simple_reflection(i)).length < w.length

    def has_left_descent(self, w: WeylElt, i: int) -> bool:
        return self.mult(self.simple_reflection(i), w).length < w.length

    # -- Bruhat order -------------------------------------------------------

    def bruhat_leq(self, u: WeylElt, v: WeylElt) -> bool:
        """u <= v in Bruhat order, by the recursive descent criterion."""
        if u.length > v.length:
            return False
        if u == v:
            return True
        if v.length == 0:
            return False
        key = (u.matrix, v.matrix)
        cached = self._bruhat_cache.get(key)
        if cached is not None:
            return cached
        i = next(
            i for i in self.datum.simple_indices if self.has_left_descent(v, i)
        )
        s = self.simple_reflection(i)
        sv = self.mult(s, v)
        su = self.mult(s, u)
        if su.length < u.length:
            result = self.bruhat_leq(su, sv)
        else:
            result = self.bruhat_leq(u, sv)
        self._bruhat_cache[key] = result
        return result

    # -- parabolic subgroups ------------------------------------------------

    def parabolic_elements(self, parabolic: Parabolic) -> tuple[WeylElt, ...]:
        """All elements of the standard parabolic subgroup W_P."""
        parabolic = frozenset(parabolic)
        cached = self._parabolic_cache.get(parabolic)
        if cached is not None:
            return cached
        gens = [self.simple_reflection(i) for i in parabolic]
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            new_frontier = []
            for w in frontier:
                for s in gens:
                    ws = self.mult(w, s)
                    if ws not in seen:
                        seen.add(ws)
                        new_frontier.append(ws)
            frontier = new_frontier
        result = tuple(sorted(seen, key=lambda w: (w.length, w.matrix)))
        self._parabolic_cache[parabolic] = result
        return result

    def longest_in_parabolic(self, parabolic: Parabolic) -> WeylElt:
        parabolic = frozenset(parabolic)
        cached = self._w0_cache.get(parabolic)
        if cached is not None:
            return cached
        w = self.identity
        gens = [self.simple_reflection(i) for i in parabolic]
        improved = True
        while improved:
            improved = False
            for s in gens:
                ws = self.mult(w, s)
                if ws.length > w.length:
                    w = ws
                    improved = True
        self._w0_cache[parabolic] = w
        return w

    def is_q_minimal(self, w: WeylElt, parabolic: Parabolic) -> bool:
        """True iff w has no right descent inside the parabolic."""
        return not any(self.has_right_descent(w, i) for i in parabolic)

    def stabilizer_parabolic(self, weight) -> Parabolic:
        """Simple indices i with <weight, alpha_i^vee> = 0."""
        return frozenset(
            i for i in self.datum.simple_indices if weight[i - 1] == 0
        )

    # -- cosets ---------------------------------------------------------------

    def coset(self, w: WeylElt, parabolic: Parabolic) -> Coset:
        """The coset w W_P, reduced to its minimal representative."""
        parabolic = frozenset(parabolic)
        reduced = True
        while reduced:
            reduced = False
            for i in parabolic:
                ws = self.mult(w, self.simple_reflection(i))
                if ws.length < w.length:
                    w = ws
                    reduced = True
        return Coset(w, parabolic)

    def all_cosets(self, parabolic: Parabolic) -> list[Coset]:
        parabolic = frozenset(parabolic)
        cached = self._coset_cache.get(parabolic)
        if cached is None:
            reps = [
                w for w in self._elements.values() if self.is_q_minimal(w, parabolic)
            ]
            reps.sort(key=lambda w: (w.length, w.matrix))
            cached = [Coset(w, parabolic) for w in reps]
            self._coset_cache[parabolic] = cached
        return cached

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
        """All preimages of the coset under W/W_P -> W/W_P'."""
        smaller = frozenset(smaller)
        if not smaller <= c.parabolic:
            raise ValueError("lift target must be contained in the source parabolic")
        key = (c.rep.matrix, c.parabolic, smaller)
        cached = self._fiber_cache.get(key)
        if cached is None:
            fiber = {self.coset(self.mult(c.rep, u), smaller)
                     for u in self.parabolic_elements(c.parabolic)}
            cached = sorted(fiber, key=lambda x: (x.rank, x.rep.matrix))
            self._fiber_cache[key] = cached
        return cached

    def is_lift_minimal(self, c: Coset, larger: Parabolic) -> bool:
        """True iff c is the minimal element of its fiber over W/W_P'."""
        return self.min_lift(self.pi(c, larger), c.parabolic) == c

    def is_lift_maximal(self, c: Coset, larger: Parabolic) -> bool:
        """True iff c is the maximal element of its fiber over W/W_P'."""
        return self.max_lift(self.pi(c, larger), c.parabolic) == c

    # -- Deodhar lifts ---------------------------------------------------------

    def deodhar_max_lift(self, theta_bar: Coset, phi: Coset) -> Coset:
        """Unique maximal lift of phi (in W/W_P') to theta_bar's quotient
        that is <= theta_bar.  Requires pi(theta_bar) >= phi."""
        if not self.coset_leq(phi, self.pi(theta_bar, phi.parabolic)):
            raise LiftError("no lift below the given bound exists")
        candidates = [
            c
            for c in self.coset_fiber(phi, theta_bar.parabolic)
            if self.coset_leq(c, theta_bar)
        ]
        return max(candidates, key=lambda c: c.rank)

    def deodhar_min_lift(self, phi_bar: Coset, theta: Coset) -> Coset:
        """Unique minimal lift of theta (in W/W_P') to phi_bar's quotient
        that is >= phi_bar.  Requires theta >= pi(phi_bar)."""
        if not self.coset_leq(self.pi(phi_bar, theta.parabolic), theta):
            raise LiftError("no lift above the given bound exists")
        candidates = [
            c
            for c in self.coset_fiber(theta, phi_bar.parabolic)
            if self.coset_leq(phi_bar, c)
        ]
        return min(candidates, key=lambda c: c.rank)

    # -- covering relations ------------------------------------------------------

    def covers_down(self, c: Coset) -> list[tuple[Coset, int]]:
        """Cosets covered by c, each with the index of the positive root beta
        satisfying s_beta min(lower) = min(upper)."""
        cached = self._covers_cache.get(c)
        if cached is not None:
            return cached
        result = []
        for idx in range(len(self._reflections)):
            v = self.mult(self._reflections[idx], c.rep)
            if v.length == c.rep.length - 1 and self.is_q_minimal(v, c.parabolic):
                result.append((Coset(v, c.parabolic), idx))
        result.sort(key=lambda t: t[0].rep.matrix)
        self._covers_cache[c] = result
        return result

    def covering_root(self, upper: Coset, lower: Coset) -> int:
        """Index of the positive root beta with s_beta min(lower) = min(upper)."""
        delta = self.mult(upper.rep, self.inverse(lower.rep))
        for idx, refl in enumerate(self._reflections):
            if refl == delta:
                return idx
        raise ValueError("elements are not related by a reflection")

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
            phi = min(candidates, key=lambda c: (c.rank, c.rep.matrix))


def make_group(dynkin_type: str, rank: int, size_guard: int = 1152) -> WeylGroup:
    """Convenience: root datum plus enumerated group in one call."""
    return WeylGroup(build_root_datum(dynkin_type, rank), size_guard)


def covering_relations(group: WeylGroup, parabolic: Parabolic, tau: Coset):
    """All covering pairs theta > phi in W/W_P with theta <= tau, labelled by
    the index of the positive root beta with s_beta min(phi) = min(theta)."""
    parabolic = frozenset(parabolic)
    top = group.pi(tau, parabolic)
    result = []
    for upper in group.all_cosets(parabolic):
        if not group.coset_leq(upper, top):
            continue
        for lower, beta_idx in group.covers_down(upper):
            result.append((upper, lower, beta_idx))
    result.sort(key=lambda t: (t[0].rank, t[0].rep.matrix, t[1].rep.matrix))
    return result


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
