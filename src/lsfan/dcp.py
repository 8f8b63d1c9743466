"""Index posets, the coset-pair poset, and the defining chain poset.

An instance is fixed by a sequence of dominant weights, a bounding coset tau
in W/W_Q (Q the stabilizer of the total weight) and an index poset on subsets
of [m].  One cover rule gives the lower covers of a node (theta, I) of the
defining chain poset, each with its type and bond: shrink I through a cover
of the index poset, or step theta down one cover of W/W_Q with non-zero bond
for lambda_I; it reads indices, bit masks, the group's int cover pairs and
bonds per root, and returns each cover's node key, element index and
fields.  The inductive build (any tau) walks this rule down from (tau, [m])
and records nodes, one object and one coset per key, and edges in one
pass; the direct build (tau maximal) finds its nodes by minimality and
maximality conditions of its own (direct_nodes) and keeps the rule's
covers between them, so the two builds agree iff their nodes do.  A
node carries one int key, packing theta's key with the bit mask of I, so
the two node sets compare key by key on (theta, I).  A built poset numbers
its nodes 0..N-1 top down (rank, then I, then element matrix) and keeps its
covers, rho lookup and reach memo (lspath.bonded_below) as tables over
these numbers.  tau-standardness of the index poset is decided once per
poset (DCP.standardness), by injectivity of the slice-projection map rho
and, in the maximal case, the four criteria.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul

from .lspath import ShapePoset, bonded_below, maximal_bonded_chains, set_bits, shape_covers
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

        # Covers of s: the members one size below in s.  Graded: each member below
        # s is on a chain of covers (under[k], bits by number); minimal ones are 1-sets.
        self.covers_down: dict[frozenset, tuple[frozenset, ...]] = {}
        self.covers_up: dict[frozenset, list] = {s: [] for s in self.sets}  # in sets order
        masks, under = list(map(bitmask, self.sets)), []
        for k, s in enumerate(self.sets):  # by size, so the members below s come first
            below = [j for j in range(k) if not masks[j] & ~masks[k]]
            covers, reach = [j for j in below if len(self.sets[j]) == len(s) - 1], 0
            for j in covers:
                reach |= under[j] | 1 << j
                self.covers_up[self.sets[j]].append(s)
            under.append(reach)
            self.covers_down[s] = tuple(self.sets[j] for j in covers)
            if skipped := [self.sets[j] for j in below if not reach >> j & 1]:
                raise IndexPosetError(f"not graded of length {m - 1}: covering "
                                      f"{set(skipped[-1])} < {set(s)} skips a cardinality")
            if not covers and len(s) != 1:
                raise IndexPosetError(f"not graded of length {m - 1}: minimal member "
                                      f"{set(s)} is not a singleton")
        self._chains_to_top: dict[frozenset, list] = {}  # filled on first use

        # a member with covers adds what any cover lacks; a minimal one, itself
        self.underline: dict[frozenset, frozenset] = {
            s: frozenset().union(*(s - t for t in self.covers_down[s])) or s
            for s in self.sets
        }

        for j, i in ((j, i) for j in self.sets for i in self.sets):
            if self.underline[j] <= i and not j <= i:
                raise IndexPosetError(
                    f"closure condition fails: underline({set(j)}) is contained "
                    f"in {set(i)} but {set(j)} is not"
                )

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
    chains (upper_parabolics, without listing a chain).  Bonds
    for lambda_I come from lspath.shape_covers, one table per weight.
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
        return self.tau == self.group.coset(self.group.longest, self.q)

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
    max(theta_a) in W/W_P: row a is read off that coset's reach
    (lspath.bonded_below at denominator 1) in each slice under I_a.
    The partial order is the transitive hull, in general strictly larger.
    `_gen` and `_hull` hold one int row per node: bit b of row a is set iff
    node a is above node b."""

    def __init__(self, setup: Setup):
        self.setup = setup
        group = setup.group
        self.nodes, slices = [], []
        for s in setup.iposet.sets:
            poset = ShapePoset(group, setup.lambda_of[s], setup.tau)
            covers, first = poset.covers_down, len(self.nodes)
            bits = [(c.rep.index, 1 << b) for b, c in enumerate(poset.nodes, first)]
            slices.append((s, covers, bitmask(covers.parabolic), bits))
            self.nodes.extend((c, s) for c in poset.nodes)
        self._index = {node: k for k, node in enumerate(self.nodes)}
        self._gen = []
        for a, (c, sa) in enumerate(self.nodes):
            top, row = group._max_rep(c.rep.index, bitmask(c.parabolic)), 0
            for s, covers, mask, bits in slices:
                if s <= sa:
                    reach = bonded_below(covers, group._min_rep(top, mask), 1, covers.reach)
                    row |= sum(bit for x, bit in bits if reach >> x & 1)
            self._gen.append(row & ~(1 << a))
        self._hull = hull = self._gen[:]
        for k in range(len(hull)):  # Warshall, one row at a time
            for i, row in enumerate(hull):
                if row >> k & 1:
                    hull[i] = row | hull[k]
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
    key of a degree-one fan vector to the number of its column."""

    def __init__(self):
        super().__init__()
        self.number, self.ends, self.terms, self.parts = {}, [], [], {}

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

    The nodes are numbered 0..N-1 in `nodes` order, top down by rank, then
    by index set and element matrix, so the top is 0; `position` maps a
    node's key to its number.  covers_down (the (lower, kind, bond) covers)
    is a table over these numbers, and so are `reach`, the memo of
    lspath.bonded_below, the rho lookup and the fan arithmetic.  big_l, the
    lcm of the bonds, is the one denominator of its fan vectors.  `columns`
    numbers the degree-one columns that tableau keys are made of (a
    ColumnTable), and `next_columns` keeps the tableau walk's steps per (I,
    lift index) and, per I, each column's number with its cosets' rep indices.
    """

    def __init__(self, setup: Setup, nodes, edges):
        self.setup = setup
        order = {s: k for k, s in enumerate(setup.iposet.sets)}  # the _set_key order
        self.nodes = sorted(nodes, key=lambda n: (-n.theta.rep.length - len(n.iset),
                                                  order[n.iset], n.theta.rep.packed))
        self.position = position = {n.key: k for k, n in enumerate(self.nodes)}
        size = len(self.nodes)
        self.edges = sorted(edges, key=lambda e: position[e[0].key] * size + position[e[1].key])
        self.covers_down = [[] for _ in self.nodes]
        for upper, lower, kind, bond in self.edges:
            self.covers_down[position[upper.key]].append((position[lower.key], kind, bond))
        self.big_l = lcm(*{bond for _, _, _, bond in self.edges})
        self.top = DCPNode(setup.tau, setup.iposet.full)
        if position.get(self.top.key) != 0:
            raise InvariantError("the top (tau, [m]) is not the largest node")
        self.reach, self.columns, self.next_columns = {}, ColumnTable(), {}

    def length(self) -> int:
        return self.top.rank

    def maximal_chains(self):
        """All maximal chains from the top, as (nodes, edge bonds) pairs; a
        brute-force reference for the reach table."""
        return [
            (tuple(self.nodes[k] for k in chain), bonds)
            for chain, bonds in maximal_bonded_chains(self.covers_down, 0)
        ]

    @cached_property
    def rho_images(self) -> list:
        """node number -> its rho image (pi_{P_I}(theta), I)."""
        return [rho(self.setup, n) for n in self.nodes]

    @cached_property
    def rho_table(self) -> dict:
        """rho_map of this poset."""
        return rho_map(self)

    def rho_collisions(self) -> list:
        """Groups of nodes sharing one rho image, ordered by their first node;
        empty iff the index poset is standard for tau."""
        return [v for v in self.rho_table.values() if len(v) > 1]

    @cached_property
    def standardness(self) -> StandardnessReport:
        """tau_standardness_report of this poset, evaluated once."""
        return tau_standardness_report(self)

    @cached_property
    def rho_lookup(self) -> dict:
        """rho inverted: (key of a coset in W/W_{P_I}, I) -> node number.
        Raises NotStandardError when rho is not injective."""
        collisions = self.rho_collisions()
        if collisions:
            pair = collisions[0]
            raise NotStandardError(
                f"rho is not injective; the index poset is not standard for "
                f"tau (collision at {pair[0]} / {pair[1]})"
            )
        return {(c.key, s): k for k, (c, s) in enumerate(self.rho_images)}

    def leq(self, a: DCPNode, b: DCPNode) -> bool:
        """a <= b in the poset order: a is in the reach of b at denominator 1."""
        reach = bonded_below(self.covers_down, self.position[b.key], 1, self.reach)
        return reach >> self.position[a.key] & 1 == 1


def _lower_covers(setup: Setup, node: DCPNode):
    """The cover rule: the lower covers of a node (theta, I), as (key, y, I',
    kind, bond) tuples with the key of the node (theta', I') and the index y
    of min(theta'), so that a build makes one DCPNode and coset per key.

    shrinkI covers (theta, J) for J covered by I, theta Q_J-minimal, bond 1;
    sameI covers (phi, I) for phi covered by theta in W/W_Q, phi Q_I-minimal,
    with bond <lambda_I, gamma^vee> != 0 for the cover's inversion root gamma.
    That bond is non-zero iff pi_{P_I}(phi) != pi_{P_I}(theta): min(phi)
    s_gamma = min(theta), and s_gamma lies in W_{P_I}, the stabilizer of
    lambda_I, iff it fixes lambda_I.  Both tests read right-descent masks,
    parabolic masks, the int cover pairs of W/W_Q and the bond per root.
    """
    group, theta, iset = setup.group, node.theta, node.iset
    desc, x, mask = group._right_desc, theta.rep.index, bitmask(setup.q)
    covers = [
        (pair_key(theta.key, bitmask(j)), x, j, "shrinkI", 1)
        for j in setup.iposet.covers_down[iset]
        if not desc[x] & setup.q_mask[j]
    ]
    q_i, pairs = setup.q_mask[iset], shape_covers(group, setup.lambda_of[iset]).pairs
    i_mask = bitmask(iset)
    covers.extend(
        (pair_key(pair_key(y, mask), i_mask), y, iset, "sameI", pairs[root])
        for y, root in group._cover_pairs(x, mask)
        if pairs[root] and not desc[y] & q_i
    )
    return covers


def build_dcp_inductive(setup: Setup) -> DCP:
    """Rank-by-rank construction, valid for every bounding coset tau.

    Walks the cover rule down from (tau, [m]), one rank at a time: every
    lower cover of a node is a node, made once per key on the rank below,
    with its coset and element, and its edge is recorded as it is met.
    """
    level = [DCPNode(setup.tau, setup.iposet.full)]
    nodes, edges = list(level), []
    while level:
        below = {}  # by node key
        for node in level:
            for key, y, iset, kind, bond in _lower_covers(setup, node):
                lower = below.get(key)
                if lower is None:
                    lower = below[key] = DCPNode(Coset(setup.group.element(y), setup.q), iset)
                    if lower.rank != node.rank - 1:  # so that a level shares one rank
                        raise InvariantError(f"cover {lower} of {node} does not drop the rank")
                edges.append((node, lower, kind, bond))
        level = list(below.values())
        nodes.extend(level)
    return DCP(setup, nodes, edges)


def build_dcp_direct_w0(setup: Setup) -> DCP:
    """Direct construction for tau = w0 W_Q: the nodes of direct_nodes and
    the cover rule's covers between them."""
    if not setup.is_w0_instance():
        raise ValueError("direct construction requires tau = w0 W_Q")
    nodes = direct_nodes(setup)
    by_key = {n.key: n for n in nodes}
    edges = [(node, by_key[key], kind, bond) for node in nodes
             for key, _, _, kind, bond in _lower_covers(setup, node) if key in by_key]
    return DCP(setup, nodes, edges)


def direct_nodes(setup: Setup) -> list:
    """The node test of the direct build: (theta, I) with theta Q_I-minimal
    and maximal over W/W_{Q^r} for the upper parabolic Q^r of some covering
    chain from I to [m], i.e. the maximal representative of theta has every
    simple reflection of Q^r as a right descent."""
    group, desc, mask = setup.group, setup.group._right_desc, bitmask(setup.q)
    cosets = [(c, desc[c.rep.index], desc[group._max_rep(c.rep.index, mask)])
              for c in group.all_cosets(setup.q)]
    nodes = []
    for s in setup.iposet.sets:
        uppers = set(map(bitmask, setup.upper_parabolics[s]))
        nodes.extend(DCPNode(c, s) for c, low, top in cosets
                     if not low & setup.q_mask[s] and any(top & u == u for u in uppers))
    return nodes


# -- rho and tau-standardness -------------------------------------------------


def rho(setup: Setup, node: DCPNode):
    """Slice projection (theta, I) -> (pi_{P_I}(theta), I)."""
    return (setup.group.pi(node.theta, setup.p_of[node.iset]), node.iset)


def rho_map(dcp: DCP):
    """rho image -> the nodes that have it."""
    images: dict = {}
    for node, image in zip(dcp.nodes, dcp.rho_images):
        images.setdefault(image, []).append(node)
    return images


CHAIN_LIMIT = 10**5  # (member, chain) entries of chain_criteria, a constant like fan.GRID_LIMIT


@dataclass
class StandardnessReport:
    standard: bool
    collisions: list
    criteria: dict | None  # (I, Q^r) -> {'i','ii','iii','iv'} for w0 instances
    criteria_agree: bool | None


def tau_standardness_report(dcp: DCP) -> StandardnessReport:
    """Decide whether the index poset is standard for tau.

    The decision is injectivity of rho on the defining chain poset.  For
    tau = w0 W_Q the four criterion values are also evaluated once per
    member I and upper parabolic Q^r of its covering chains
    (Setup.upper_parabolics), all they read, and two invariants are checked
    over those keys: the four agree, and criterion (i) holds everywhere iff
    rho is injective.  chain_criteria lists them per covering chain.
    """
    setup = dcp.setup
    group = setup.group
    images = dcp.rho_table
    collisions = dcp.rho_collisions()
    standard = not collisions

    criteria = None
    agree = None
    if setup.is_w0_instance():
        criteria = {}
        for s in setup.iposet.sets:
            p_i = setup.p_of[s]
            q_i = setup.q_of[s]
            id_coset = group.coset(group.identity, p_i)
            crit_i = len(images.get((id_coset, s), ())) == 1
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
    -> the values of (I, Q^r of the chain), chains listed once per member.
    ValueError, before any is listed, if there are more than CHAIN_LIMIT
    covering chains."""
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
    id_pi = group.coset(group.identity, p_i)
    left = group.min_lift(group.max_lift(id_pi, q_i), setup.q)
    right = group.max_lift(group.min_lift(id_pi, q_r), setup.q)
    return left == right


def _criterion_subgroup(group, setup, p_i, q_i, q_r) -> bool:
    members_qr = set(group.parabolic_elements(q_r))
    for w in group.parabolic_elements(p_i):
        if not group.is_q_minimal(w, q_i):
            continue
        if w not in members_qr or not group.is_q_minimal(w, setup.q):
            return False
    return True


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
