"""Index posets, the coset-pair poset, and the defining chain poset.

An instance is fixed by a sequence of dominant weights, a bounding coset tau
in W/W_Q (Q the stabilizer of the total weight) and an index poset on subsets
of [m].  A node (theta, I) of the defining chain poset has one int key,
packing theta's key (its rep index with the mask of Q) with the bit mask of
I.  One cover rule gives the lower covers of a node, each with its type and
bond: shrink I through a cover of the index poset, or step theta down one
cover of W/W_Q with non-zero bond for lambda_I; it reads the node's rep
index and member, bit masks, the group's int cover pairs and bonds per
root, and returns each cover's node key, rep index and fields.  The
inductive build (any tau) walks this rule down from (tau, [m]) on node
keys, recording each key's (rep index, member) and the edges in one pass,
and makes no node object or coset; the direct build (tau maximal) finds
its nodes by minimality and maximality conditions of its own
(direct_nodes) and keeps the rule's covers between them, so the two
builds agree iff their node keys do.  A built poset numbers its nodes
0..N-1 top down (rank, then I, then element matrix) and keeps their rep
indices and members, covers, rho images and reach rows
(lspath.reach_rows) as tables over these numbers; its DCPNode objects are
made on first use, for the boundary forms of the fan and the tests.
tau-standardness of the index poset is decided once per poset
(DCP.standardness), by injectivity of the slice-projection map rho and, in
the maximal case, the four criteria; rho, the criteria and the direct node
test read rep indices and parabolic masks, and make no coset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul

from .lspath import ShapePoset, maximal_bonded_chains, reach_rows, set_bits, shape_covers
from .rootdata import InvariantError
from .weyl import Coset, LiftError, Parabolic, WeylElt, WeylGroup, bitmask, pair_key

__all__ = [
    "IndexPoset",
    "IndexPosetError",
    "NotStandardError",
    "InvariantError",
    "build_index_poset",
    "powerset_iposet",
    "chain_iposet",
    "Setup",
    "UnderlineW",
    "DCPNode",
    "ColumnTable",
    "DCP",
    "build_dcp_inductive",
    "build_dcp_direct_w0",
    "direct_nodes",
    "rho",
    "StandardnessReport",
    "chain_criteria",
    "is_tau_standard",
    "tau_standardness_report",
    "totally_ordered_exists",
    "greedy_lifts",
    "max_defining_chain",
    "min_defining_chain",
    "defining_chain_extremes",
    "triangle_up",
    "triangle_down",
]


class IndexPosetError(ValueError):
    """Raised when a collection of subsets is not a valid index poset."""


class NotStandardError(ValueError):
    """Raised when rho is not injective: the index poset is not standard for tau."""


class IndexPoset:
    """Non-empty subsets of [m], ordered by inclusion, graded of length m-1.

    Carries the derived data used everywhere else: covering relations, the
    underline map, and the degree vectors e_I supported on underline(I).
    """

    def __init__(self, m: int, sets):
        self.m = m
        self.sets = tuple(sorted({frozenset(s) for s in sets}, key=_set_key))
        self._set_lookup = set(self.sets)
        full = frozenset(range(1, m + 1))
        for s in self.sets:
            if not s or not s <= full:
                raise IndexPosetError(f"{set(s)} is not a non-empty subset of [{m}]")
        if full not in self._set_lookup:
            raise IndexPosetError(f"the full set [{m}] must be a member")
        self.full = full

        # Covers of s: the members s - {i}; underline(s): those i, or s if none.  Graded:
        # no member below s holds every such i (it lies in no cover); minimal ones are 1-sets.
        self.covers_down: dict[frozenset, tuple[frozenset, ...]] = {}
        self.covers_up: dict[frozenset, list] = {s: [] for s in self.sets}  # in sets order
        self.underline: dict[frozenset, frozenset] = {}
        masks = list(map(bitmask, self.sets))
        number = {mask: k for k, mask in enumerate(masks)}
        for k, (s, mask) in enumerate(zip(self.sets, masks)):  # members below s come first
            removable = [i for i in s if mask ^ 1 << i - 1 in number]
            covers = sorted(number[mask ^ 1 << i - 1] for i in removable)
            for j in covers:
                self.covers_up[self.sets[j]].append(s)
            self.covers_down[s] = tuple(self.sets[j] for j in covers)
            self.underline[s] = frozenset(removable) or s
            under, outside = bitmask(frozenset(removable)), ~mask
            if skipped := [t for t, mt in zip(self.sets[:k], masks)
                           if mt & under == under and not mt & outside]:
                raise IndexPosetError(f"not graded of length {m - 1}: covering "
                                      f"{set(skipped[-1])} < {set(s)} skips a cardinality")
            if not covers and len(s) != 1:
                raise IndexPosetError(f"not graded of length {m - 1}: minimal member "
                                      f"{set(s)} is not a singleton")
        self._chains_to_top: dict[frozenset, list] = {}  # filled on first use

        for j, mj in zip(self.sets, masks):  # closure, on masks: i >= underline(j) holds j
            uj = bitmask(self.underline[j])
            if bad := [i for i, mi in zip(self.sets, masks) if not uj & ~mi and mj & ~mi]:
                raise IndexPosetError(f"closure condition fails: underline({set(j)}) is "
                                      f"contained in {set(bad[0])} but {set(j)} is not")

    def __contains__(self, s) -> bool:
        return frozenset(s) in self._set_lookup

    def e_vector(self, s: frozenset) -> tuple[int, ...]:
        u = self.underline[s]
        return tuple(1 if i in u else 0 for i in range(1, self.m + 1))

    def covering_chains_to_top(self, s: frozenset):
        """All chains s = I_r < ... < I_m = [m] of covering relations, walked
        up the covers in member order; the first call lists every member's,
        in one pass down the members without recursion."""
        chains = self._chains_to_top
        if not chains:
            for t in reversed(self.sets):  # upper covers come first
                chains[t] = [(t,) + chain for u in self.covers_up[t]
                             for chain in chains[u]] or [(t,)]
        return list(chains[s])

    def covering_chain_count(self) -> int:
        """The number of (member, covering chain to the top) pairs, counted
        without listing a chain: a member has one chain per chain of each of
        its upper covers, and the top has one."""
        count = {}
        for s in reversed(self.sets):  # upper covers come first
            count[s] = sum(map(count.__getitem__, self.covers_up[s])) or 1
        return sum(count.values())


def _set_key(s: frozenset):
    return (len(s), tuple(sorted(s)))


def build_index_poset(sets, m: int) -> IndexPoset:
    """Validate a collection of subsets of [m] as an index poset."""
    return IndexPoset(m, sets)


def powerset_iposet(m: int) -> IndexPoset:
    members = []
    for k in range(1, m + 1):
        members.extend(frozenset(c) for c in combinations(range(1, m + 1), k))
    return IndexPoset(m, members)


def chain_iposet(m: int) -> IndexPoset:
    return IndexPoset(m, [frozenset(range(1, k + 1)) for k in range(1, m + 1)])


# ---------------------------------------------------------------------------


class Setup:
    """One instance: group, weight sequence, bounding coset and index poset.

    Precomputes the parabolic subgroups attached to the index poset: P_I and
    Q_I per member, the bit masks of the Q_I, the maximal parabolic over which
    tau stays maximal, and the upper parabolics Q^r of each member's covering
    chains (upper_parabolics, without listing a chain).  `bonds` holds the
    bond of lambda_I per positive root for each member, read off its
    lspath.shape_covers table, one per weight.
    """

    def __init__(self, group: WeylGroup, lambdas, tau, iposet: IndexPoset):
        self.group = group
        self.lambdas = tuple(tuple(l) for l in lambdas)
        if len(self.lambdas) != iposet.m:
            raise ValueError("index poset ground size must match the weight count")
        for lam in self.lambdas:
            if len(lam) != group.rank:
                raise ValueError(f"weight {lam} needs {group.rank} coordinates")
            if any(x < 0 for x in lam):
                raise ValueError(f"weight {lam} is not dominant")
        self.iposet = iposet
        self.m = iposet.m
        self.total_weight = self.weight((1,) * self.m)
        self.q: Parabolic = group.stabilizer_parabolic(self.total_weight)
        if isinstance(tau, WeylElt):
            tau = group.coset(tau, self.q)
        if tau.parabolic != self.q:
            raise ValueError("tau must live in W/W_Q for Q the total stabilizer")
        self.tau = tau

        self.lambda_of = {}
        self.p_of = {}
        self.q_of = {}
        for s in iposet.sets:
            self.lambda_of[s] = lam_i = self.weight(iposet.e_vector(s))
            self.p_of[s] = group.stabilizer_parabolic(lam_i)
            indicator = [int(i in s) for i in range(1, self.m + 1)]
            self.q_of[s] = group.stabilizer_parabolic(self.weight(indicator))
        self.q_mask = {s: bitmask(q) for s, q in self.q_of.items()}
        self.bonds = {s: shape_covers(group, lam).pairs for s, lam in self.lambda_of.items()}

        # largest parabolic over Q for which tau is maximal: the right descent
        # set of the maximal-length representative of tau
        top = group._right_desc[group._max_rep(tau.rep.index, bitmask(self.q))]
        self.q_tau: Parabolic = frozenset(i for i in group.datum.simple_indices
                                          if top >> (i - 1) & 1)
        if not self.q <= self.q_tau:
            raise InvariantError("Q is not contained in the descent parabolic of tau")

    def weight(self, d) -> tuple[int, ...]:
        """The weight sum of d_i lambda_i of a degree d."""
        return tuple(sum(map(mul, d, column)) for column in zip(*self.lambdas))

    def is_w0_instance(self) -> bool:
        group = self.group
        return self.tau.rep.index == group._min_rep(len(group) - 1, bitmask(self.q))

    def q_upper_chain(self, chain) -> Parabolic:
        """Q^r for one covering chain from I up to [m]."""
        return self.q_tau.intersection(*map(self.p_of.__getitem__, chain))

    @cached_property
    def upper_parabolics(self) -> dict:
        """Member I -> the distinct Q^r of its covering chains to [m], in
        first-met order, by one pass down the upper covers without listing a
        chain: Q^r([m]) = q_tau cap P_[m], and the Q^r of I are P_I cap Q^r
        over the Q^r of each upper cover of I."""
        iposet, out = self.iposet, {}
        for s in reversed(iposet.sets):  # upper covers come first
            p_i, ups = self.p_of[s], iposet.covers_up[s]
            uppers = (q for t in ups for q in out[t]) if ups else (self.q_tau,)
            out[s] = tuple(dict.fromkeys(p_i & q for q in uppers))
        return out


# ---------------------------------------------------------------------------


class UnderlineW:
    """The poset of pairs (theta, I), theta in the shape poset of lambda_I
    below tau (lspath.ShapePoset), members in index-poset order.

    Node a generates node b != a when I_b is in I_a and min(theta_b) <=
    max(theta_a) in W: min(theta_b) lies in W^Q, and projection to W^Q
    preserves Bruhat order (Bjorner-Brenti, Prop. 2.5.1), so this says the
    minimal lift of theta_b lies below the maximal lift of theta_a in W/W_Q.
    By the same proposition, as min(theta_b) is minimal in its coset of the
    slice's quotient W/W_P, it says theta_b lies below the coset of
    max(theta_a) in W/W_P: row a is read off that coset's reach row at
    denominator 1 (lspath.BondedCovers.reach) in each slice under I_a.
    The partial order is the transitive hull, in general strictly larger.
    `_gen` and `_hull` hold one int row per node: bit b of row a is set iff
    node a is above node b.  Nodes come by slice, then rank, so a row's bits
    are below it and the hull is one ascending pass over the rows."""

    def __init__(self, setup: Setup):
        self.setup = setup
        group, sets = setup.group, setup.iposet.sets
        masks = {s: bitmask(setup.p_of[s]) for s in sets}
        lifts = {t: group._max_rep(setup.tau.rep.index, masks[t]) for t in sets}
        self.nodes, slices = [], []
        for s in sets:
            # the maximal lift of a node of slice t lies below tau's maximal
            # lift over P_t, and row a reads its coset in each slice s <= t:
            # the rows up to the longest of those cosets are read
            covers = shape_covers(group, setup.lambda_of[s])
            reads = [group._min_rep(lifts[t], masks[s]) for t in sets if s <= t]
            covers.upto = max(covers.upto, *reads)
            poset = ShapePoset(group, setup.lambda_of[s], setup.tau)
            covers, first = poset.covers_down, len(self.nodes)
            bits = [(c.rep.index, 1 << b) for b, c in enumerate(poset.nodes, first)]
            slices.append((s, covers.reach(1), bitmask(covers.parabolic), bits))
            self.nodes.extend((c, s) for c in poset.nodes)
        self._index = {node: k for k, node in enumerate(self.nodes)}
        self._gen = []
        for a, (c, sa) in enumerate(self.nodes):
            top, row = group._max_rep(c.rep.index, bitmask(c.parabolic)), 0
            for s, rows, mask, bits in slices:
                if s <= sa:
                    reach = rows[group._min_rep(top, mask)]
                    row |= sum(bit for x, bit in bits if reach >> x & 1)
            self._gen.append(row & ~(1 << a))
        self._hull = hull = []
        for a, row in enumerate(self._gen):  # one ascending pass: a row's bits are below a
            if row >> a:
                raise InvariantError(f"node {a} of underline W generates a later node")
            for b in set_bits(row):
                row |= hull[b]
            hull.append(row)
        self.generating_is_transitive = self._gen == hull

    def generating_geq(self, a, b) -> bool:
        return a == b or self._gen[self._index[a]] >> self._index[b] & 1 == 1

    def geq(self, a, b) -> bool:
        return a == b or self._hull[self._index[a]] >> self._index[b] & 1 == 1

    def covers(self):
        """Hasse edges of the hull, as (upper, lower) pairs in node order:
        a row's bits that no row below it holds."""
        result = []
        for upper, row in zip(self.nodes, self._hull):
            below = 0
            for k in set_bits(row):
                below |= self._hull[k]
            result.extend((upper, self.nodes[j]) for j in set_bits(row & ~below))
        return result


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class DCPNode:
    """A node (theta, I); `key` packs (theta.key, mask of I) into one int at
    construction, and equality and hashing read it alone."""

    theta: Coset  # in W/W_Q, Q_I-minimal
    iset: frozenset
    key: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "key", pair_key(self.theta.key, bitmask(self.iset)))

    def __eq__(self, other):
        return self.key == other.key if isinstance(other, DCPNode) else NotImplemented

    def __hash__(self):
        return self.key

    @property
    def rank(self) -> int:
        return self.theta.rank + len(self.iset) - 1


class ColumnTable(list):
    """The degree-one columns of one DCP, each an (LS-path, I) pair, numbered
    0, 1, ... in the order that a tableau walk or theta_d^-1 first meets
    them; `number` looks a column up by its value.  Per column number it
    keeps `ends`, the column's end point, and `terms`, its theta (node
    number, numerator) terms, each None until first read; `parts` maps the
    key of a degree-one fan vector to the number of its column; `slices`,
    a slice I to its columns' (number, rep indices) in tableau walk order."""

    def __init__(self):
        super().__init__()
        self.number, self.ends, self.terms, self.parts, self.slices = {}, [], [], {}, {}

    def add(self, column) -> int:
        """The number of a column, numbering it if it is new."""
        k = self.number.get(column)
        if k is None:
            k = self.number[column] = len(self)
            self.append(column)
            self.ends.append(None)
            self.terms.append(None)
        return k


class DCP:
    """The defining chain poset: graded, with typed, bond-labelled covers.

    The nodes are numbered 0..N-1 top down by rank, then by index set and
    element matrix, so the top is 0; `position` maps a node's key to its
    number.  `reps` (theta's rep index in W/W_Q), `members` (I) and
    covers_down (the (lower, kind, bond) covers) are tables over these
    numbers, and so are `rows`, the reach rows per denominator that
    reach(den) fills, the int rho images (rep index of pi_{P_I}(theta), I),
    inverted by rho_lookup, and the fan arithmetic.  `nodes`, `top` and
    `edges` are the same poset on DCPNode objects, made on first use for
    the boundary forms (fan.fan_vector, vector_key, leq) and the tests; no
    command reads them.  big_l, the lcm of the bonds, is the one
    denominator of its fan vectors.
    `columns` numbers the degree-one columns that tableau keys are made of
    (a ColumnTable), and `next_columns` keeps the tableau walk's steps per
    (I, lift index).
    """

    def __init__(self, setup: Setup, nodes: dict, edges):
        """`nodes` maps a node key to its (rep index, member) and `edges`
        lists the (upper key, lower key, kind, bond) covers."""
        self.setup = setup
        order = {s: k for k, s in enumerate(setup.iposet.sets)}  # the _set_key order
        length, element = setup.group.lengths, setup.group.element
        ranked = sorted((-length[x] - len(s), order[s], element(x).packed, key, x, s)
                        for key, (x, s) in nodes.items())
        self.position = position = {r[3]: k for k, r in enumerate(ranked)}
        self.reps, self.members = [r[4] for r in ranked], [r[5] for r in ranked]
        self.covers_down = covers = [[] for _ in ranked]
        for upper, lower, kind, bond in edges:
            covers[position[upper]].append((position[lower], kind, bond))
        for row in covers:
            row.sort()
        self.big_l = lcm(*{bond for *_, bond in edges})
        if position.get(pair_key(setup.tau.key, bitmask(setup.iposet.full))) != 0:
            raise InvariantError("the top (tau, [m]) is not the largest node")
        self.rows, self.columns, self.next_columns = {}, ColumnTable(), {}

    def node(self, k: int) -> DCPNode:
        """Node number k as a DCPNode, made anew."""
        setup = self.setup
        return DCPNode(Coset(setup.group.element(self.reps[k]), setup.q), self.members[k])

    @cached_property
    def nodes(self) -> list:
        """Every node as a DCPNode, by node number, made on first use."""
        return list(map(self.node, range(len(self.reps))))

    @cached_property
    def top(self) -> DCPNode:
        return self.nodes[0]

    @cached_property
    def edges(self) -> list:
        """The (upper, lower, kind, bond) covers on DCPNodes, by node numbers."""
        nodes = self.nodes
        return [(nodes[u], nodes[l], kind, bond)
                for u, covers in enumerate(self.covers_down) for l, kind, bond in covers]

    def length(self) -> int:
        return self.setup.tau.rank + self.setup.m - 1

    def reach(self, den: int) -> dict:
        """Node number -> its reach row at den (lspath.reach_rows), filled
        once per denominator in one pass down the node numbers: every cover
        goes to a larger number."""
        rows = self.rows.get(den)
        if rows is None:
            rows = self.rows[den] = reach_rows(self.covers_down, range(len(self.reps))[::-1], den)
        return rows

    def maximal_chains(self):
        """All maximal chains from the top, as (nodes, edge bonds) pairs; a
        brute-force reference for the reach table."""
        return [
            (tuple(self.nodes[k] for k in chain), bonds)
            for chain, bonds in maximal_bonded_chains(self.covers_down, 0)
        ]

    @cached_property
    def rho_images(self) -> list:
        """node number -> its rho image (rep index of pi_{P_I}(theta), I)."""
        setup = self.setup
        min_rep, masks = setup.group._min_rep, {s: bitmask(p) for s, p in setup.p_of.items()}
        return [(min_rep(x, masks[s]), s) for x, s in zip(self.reps, self.members)]

    @cached_property
    def standardness(self) -> StandardnessReport:
        """tau_standardness_report of this poset, evaluated once."""
        return tau_standardness_report(self)

    @cached_property
    def rho_lookup(self) -> dict:
        """rho inverted: (rep index of a coset in W/W_{P_I}, I) -> node
        number.  Raises NotStandardError when rho is not injective."""
        if collisions := self.standardness.collisions:
            pair = collisions[0]
            raise NotStandardError(
                f"rho is not injective; the index poset is not standard for "
                f"tau (collision at {pair[0]} / {pair[1]})"
            )
        return {image: k for k, image in enumerate(self.rho_images)}

    def leq(self, a: DCPNode, b: DCPNode) -> bool:
        """a <= b in the poset order: a is in the reach row of b at denominator 1."""
        return self.reach(1)[self.position[b.key]] >> self.position[a.key] & 1 == 1


def _lower_covers(setup: Setup, x: int, iset: frozenset):
    """The cover rule: the lower covers of the node (theta, I), theta the
    coset of W/W_Q of rep index x, as (key, y, I', kind, bond) tuples with
    the key of the node (theta', I') and the rep index y of theta'.

    shrinkI covers (theta, J) for J covered by I, theta Q_J-minimal, bond 1;
    sameI covers (phi, I) for phi covered by theta in W/W_Q, phi Q_I-minimal,
    with bond <lambda_I, gamma^vee> != 0 for the cover's inversion root gamma.
    That bond is non-zero iff pi_{P_I}(phi) != pi_{P_I}(theta): min(phi)
    s_gamma = min(theta), and s_gamma lies in W_{P_I}, the stabilizer of
    lambda_I, iff it fixes lambda_I.  Both tests read right-descent masks,
    parabolic masks, the int cover pairs of W/W_Q and the bond per root.
    """
    group, mask = setup.group, bitmask(setup.q)
    desc, theta = group._right_desc, pair_key(x, mask)
    covers = [
        (pair_key(theta, bitmask(j)), x, j, "shrinkI", 1)
        for j in setup.iposet.covers_down[iset]
        if not desc[x] & setup.q_mask[j]
    ]
    q_i, pairs = setup.q_mask[iset], setup.bonds[iset]
    i_mask = bitmask(iset)
    for y, root in group._cover_pairs(x, mask):
        if pairs[root] and not desc[y] & q_i:
            a = y + mask  # the key pair_key(pair_key(y, mask), i_mask), inlined
            a = a * (a + 1) // 2 + mask + i_mask
            covers.append((a * (a + 1) // 2 + i_mask, y, iset, "sameI", pairs[root]))
    return covers


def build_dcp_inductive(setup: Setup) -> DCP:
    """Rank-by-rank construction, valid for every bounding coset tau.

    Walks the cover rule down from (tau, [m]), one rank at a time, on node
    keys: every lower cover of a node is a node, recorded once per key with
    its (rep index, member) on the rank below, and its edge is recorded as
    it is met.  No node object and no coset is made.
    """
    length, full = setup.group.lengths, setup.iposet.full
    level = {pair_key(setup.tau.key, bitmask(full)): (setup.tau.rep.index, full)}
    nodes, edges, rank = dict(level), [], setup.tau.rank + setup.m - 1
    while level:
        below, rank = {}, rank - 1  # by node key, on the rank below
        for key, (x, iset) in level.items():
            for lower, y, j, kind, bond in _lower_covers(setup, x, iset):
                if lower not in below:
                    if length[y] + len(j) - 1 != rank:  # so that a level shares one rank
                        raise InvariantError(f"cover (rep {y}, {set(j)}) of (rep {x}, "
                                             f"{set(iset)}) does not drop the rank")
                    below[lower] = y, j
                edges.append((key, lower, kind, bond))
        nodes.update(below)
        level = below
    return DCP(setup, nodes, edges)


def build_dcp_direct_w0(setup: Setup) -> DCP:
    """Direct construction for tau = w0 W_Q: the nodes of direct_nodes and
    the cover rule's covers between them."""
    if not setup.is_w0_instance():
        raise ValueError("direct construction requires tau = w0 W_Q")
    nodes = {n.key: (n.theta.rep.index, n.iset) for n in direct_nodes(setup)}
    edges = [(key, lower, kind, bond) for key, (x, s) in nodes.items()
             for lower, _, _, kind, bond in _lower_covers(setup, x, s) if lower in nodes]
    return DCP(setup, nodes, edges)


def direct_nodes(setup: Setup) -> list:
    """The node test of the direct build: (theta, I) with theta Q_I-minimal
    and maximal over W/W_{Q^r} for the upper parabolic Q^r of some covering
    chain from I to [m], i.e. the maximal representative of theta has every
    simple reflection of Q^r as a right descent.  It scans the rep indices
    of W/W_Q and makes one coset per kept rep."""
    group, desc, mask = setup.group, setup.group._right_desc, bitmask(setup.q)
    reps = [(x, low, desc[group._max_rep(x, mask)])
            for x, low in enumerate(desc) if not low & mask]
    kept = []
    for s in setup.iposet.sets:
        uppers = set(map(bitmask, setup.upper_parabolics[s]))
        kept.extend((x, s) for x, low, top in reps
                    if not low & setup.q_mask[s] and any(top & u == u for u in uppers))
    cosets = {x: Coset(group.element(x), setup.q) for x in {x for x, _ in kept}}
    return [DCPNode(cosets[x], s) for x, s in kept]


# -- rho and tau-standardness -------------------------------------------------


def rho(setup: Setup, node: DCPNode):
    """Slice projection (theta, I) -> (pi_{P_I}(theta), I)."""
    return (setup.group.pi(node.theta, setup.p_of[node.iset]), node.iset)


def rho_map(dcp: DCP):
    """rho image (rep index, I) -> the numbers of the nodes that have it."""
    images: dict = {}
    for k, image in enumerate(dcp.rho_images):
        images.setdefault(image, []).append(k)
    return images


CHAIN_LIMIT = 10**5  # (member, chain) entries of chain_criteria, a constant like fan.GRID_LIMIT


@dataclass
class StandardnessReport:
    standard: bool
    collisions: list
    criteria: dict | None  # (I, Q^r) -> {'i','ii','iii','iv'} for w0 instances
    criteria_agree: bool | None


def tau_standardness_report(dcp: DCP) -> StandardnessReport:
    """Decide whether the index poset is standard for tau: injectivity of
    rho, read off one rho_map of the int images DCP.rho_images (a collision
    is a group of nodes sharing an image, ordered by its first node).  For
    tau = w0 W_Q the four criteria are also evaluated once per member I and
    upper parabolic Q^r of its covering chains (Setup.upper_parabolics), on
    rep indices and parabolic masks, and two invariants are checked over
    those keys: the four agree, and criterion (i), injectivity at the
    identity's image (0, I), holds everywhere iff rho is injective.
    chain_criteria lists them per covering chain."""
    setup, group = dcp.setup, dcp.setup.group
    images = rho_map(dcp)
    collisions = [list(map(dcp.node, ks)) for ks in images.values() if len(ks) > 1]
    standard = not collisions
    criteria = agree = None
    if setup.is_w0_instance():
        criteria = {}
        for s in setup.iposet.sets:
            p_i, q_i = setup.p_of[s], setup.q_of[s]
            crit_i = len(images.get((0, s), ())) == 1
            for q_r in setup.upper_parabolics[s]:
                criteria[s, q_r] = {
                    "i": crit_i,
                    "ii": _criterion_min_max(group, setup, p_i, q_i, q_r),
                    "iii": _criterion_subgroup(group, setup, p_i, q_i, q_r),
                    "iv": _criterion_dynkin(group.datum, p_i, q_i, q_r),
                }
        agree = all(len(set(v.values())) == 1 for v in criteria.values())
        if not agree:
            raise InvariantError(f"standardness criteria disagree: {criteria}")
        if standard != all(v["i"] for v in criteria.values()):
            raise InvariantError("criterion (i) disagrees with injectivity of rho")
    return StandardnessReport(standard, collisions, criteria, agree)


def chain_criteria(dcp: DCP) -> dict:
    """The criteria of the report per member and covering chain: (I, chain)
    -> the values of (I, Q^r of the chain), chains listed once per member
    in member order.  ValueError, before any is listed, if there are more
    than CHAIN_LIMIT covering chains."""
    setup, report = dcp.setup, dcp.standardness
    if report.criteria is None:
        raise ValueError("the criteria are listed for tau = w0 only")
    chains = setup.iposet.covering_chain_count()
    if chains > CHAIN_LIMIT:
        raise ValueError(f"the index poset has {chains} covering chains, more than "
                         f"the {CHAIN_LIMIT} whose criteria a report lists")
    return {(s, chain): dict(report.criteria[s, setup.q_upper_chain(chain)])
            for s in setup.iposet.sets for chain in setup.iposet.covering_chains_to_top(s)}


def is_tau_standard(dcp: DCP) -> bool:
    return dcp.standardness.standard


def _criterion_min_max(group, setup, p_i, q_i, q_r) -> bool:
    """(ii) on rep indices: the Q_I-minimal rep of w0(P_I) is the Q-minimal
    rep of w0(Q^r)."""
    min_rep, max_rep = group._min_rep, group._max_rep
    return (min_rep(max_rep(0, bitmask(p_i)), bitmask(q_i))
            == min_rep(max_rep(0, bitmask(q_r)), bitmask(setup.q)))


def _criterion_subgroup(group, setup, p_i, q_i, q_r) -> bool:
    """(iii) in one scan of W: each Q_I-minimal w in W_{P_I} (its reduced
    word's letters lie in P_I) lies in W_{Q^r} and is Q-minimal."""
    low, q = bitmask(q_i), bitmask(setup.q)
    return all(q_r.issuperset(word) and not desc & q
               for word, desc in zip(group._words, group._right_desc)
               if not desc & low and p_i.issuperset(word))


def _criterion_dynkin(datum, p_i, q_i, q_r) -> bool:
    if (q_i | q_r) != p_i:
        return False
    for a in q_i - q_r:
        for b in q_r - q_i:
            path = datum.dynkin_path(a, b)
            if all(v in p_i for v in path):
                return False
    return True


def totally_ordered_exists(datum, lambdas):
    """Whether a totally ordered standard index poset exists for weights
    k_i * omega_{j_i} with pairwise distinct fundamental weights.

    True iff one simple path of the Dynkin diagram passes through all the
    selected vertices; returns (flag, ordering or None) where the ordering
    lists the weight positions along such a path.
    """
    selected = []
    for lam in lambdas:
        support = [j + 1 for j, x in enumerate(lam) if x > 0]
        if len(support) != 1:
            raise ValueError(
                f"weight {tuple(lam)} is not a multiple of a fundamental weight"
            )
        selected.append(support[0])
    if len(set(selected)) != len(selected):
        raise ValueError("fundamental weights must be pairwise distinct")
    if len(selected) == 1:
        return True, (1,)
    best = None
    for a, b in combinations(selected, 2):
        path = datum.dynkin_path(a, b)
        if best is None or len(path) > len(best):
            best = path
    if not set(selected) <= set(best):
        return False, None
    position = {v: k for k, v in enumerate(best)}
    order = tuple(
        i + 1 for i, _ in sorted(enumerate(selected), key=lambda t: position[t[1]])
    )
    return True, order


# -- defining chains ------------------------------------------------------------


def greedy_lifts(lift, start: Coset, cosets):
    """Lift each coset in turn by `lift`, a Deodhar lift of the group
    (WeylGroup.deodhar_max_lift or deodhar_min_lift), against the previous
    lift, beginning at `start`; the lifts, or None as soon as one does not
    exist."""
    lifts = []
    for coset in cosets:
        try:
            start = lift(start, coset)
        except LiftError:
            return None
        lifts.append(start)
    return lifts


def max_defining_chain(setup: Setup, wchain):
    """Unique maximal defining chain of a weakly decreasing chain of pairs
    (theta in W/W_{P_I}, I), listed from the top; None if none exists."""
    return greedy_lifts(setup.group.deodhar_max_lift, setup.tau, [theta for theta, _ in wchain])


def min_defining_chain(setup: Setup, wchain):
    """Unique minimal defining chain, or None; wchain is listed from the top.
    Lifted minimally from the bottom, above the identity coset of W/W_Q."""
    group = setup.group
    lifts = greedy_lifts(group.deodhar_min_lift, group.coset(group.identity, setup.q),
                         [theta for theta, _ in reversed(wchain)])
    if lifts is None:
        return None
    lifts.reverse()
    if lifts and not group.coset_leq(lifts[0], setup.tau):
        return None
    return lifts


def defining_chain_extremes(setup: Setup, wchain):
    """(maximal, minimal) defining chains of a standard chain; raises if the
    chain admits no defining chain."""
    upper = max_defining_chain(setup, wchain)
    if upper is None:
        raise LiftError("the chain admits no defining chain")
    lower = min_defining_chain(setup, wchain)
    if lower is None:
        raise InvariantError("a chain with a maximal defining chain has no minimal one")
    return upper, lower


def triangle_up(setup: Setup, lifts, isets):
    """Push a defining chain up: max_Q of its projection to each Q^k."""
    group = setup.group
    out = []
    for k, lift in enumerate(lifts):
        qk = frozenset(setup.q_tau) & frozenset.intersection(
            *[setup.p_of[s] for s in isets[: k + 1]]
        )
        out.append(group.max_lift(group.pi(lift, qk), setup.q))
    return out


def triangle_down(setup: Setup, lifts, isets):
    """Push a defining chain down: min_Q of its projection to each Q_k."""
    group = setup.group
    out = []
    for k, lift in enumerate(lifts):
        qk = frozenset.intersection(*[setup.p_of[s] for s in isets[k:]])
        out.append(group.min_lift(group.pi(lift, qk), setup.q))
    return out
