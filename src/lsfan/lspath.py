"""Lakshmibai-Seshadri paths of a given shape.

A path of shape nu is a strictly decreasing chain of cosets in W/W_nu with
rational cut points, subject to the chain-integrality condition: consecutive
cosets must be joined by a saturated chain of covering relations whose pairing
with the cut point is integral at every step.  bonded_below, the reach of a
node at a denominator memoized per poset, is the one home of this local
condition: validation reads certificates off the reach, and the walk over
it has one transition table, lattice_steps, on int-keyed covers (rep
indices here, node numbers on a DCP), which chain_lattice_points lists
(paths, fan vectors) and count_lattice_points counts.  Sums are integer
numerators over one denominator; Fractions are built only for returned
values.  An LSPath compares by one key made at construction and hashes by
that key's hash, computed once with it, so paths key the per-job memos of
end points and the column numbers of the DCP's ColumnTable cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .rootdata import InvariantError
from .weyl import Coset, WeylGroup, bitmask

__all__ = [
    "LSPath",
    "ShapePoset",
    "PathError",
    "validate_ls_path",
    "enumerate_ls_paths",
    "endpoint",
    "initial_direction",
    "theta_single",
    "theta_single_inverse",
    "lattice_steps",
    "chain_lattice_points",
    "count_lattice_points",
    "bonded_chain",
    "bonded_below",
    "maximal_bonded_chains",
]


class PathError(ValueError):
    """Raised for malformed LS-path data."""


@dataclass(frozen=True, eq=False, slots=True)
class LSPath:
    """LS-path (sigma_p > ... > sigma_1; 0, a_p, ..., a_1 = 1).

    `cosets[0]` is the largest coset (the initial direction) and `cuts[k]` is
    the cut point attached to `cosets[k]`, so cuts increase along the tuple
    and end in 1.  `key` holds the shape, the coset keys and the cut points'
    (numerator, denominator) pairs, made at construction; equality reads it
    alone, and the hash is hash(key), computed once with it.
    """

    shape: tuple[int, ...]
    cosets: tuple[Coset, ...]
    cuts: tuple[Fraction, ...]
    key: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.cosets) != len(self.cuts) or not self.cosets:
            raise PathError("need one cut point per coset")
        if self.cuts[-1] != 1:
            raise PathError("final cut point must be 1")
        cuts = tuple((a.numerator, a.denominator) for a in self.cuts)
        key = self.shape, tuple(c.key for c in self.cosets), cuts
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        return self.key == other.key if isinstance(other, LSPath) else NotImplemented

    def __hash__(self):
        return self._hash


def initial_direction(path: LSPath) -> Coset:
    return path.cosets[0]


class BondedCovers(dict):
    """The int-keyed coset poset W/W_nu of a shape nu: the rep index of a
    coset -> its (lower rep index, root index, bond) covers, each entry
    filled on first use from WeylGroup._cover_pairs, making no element or
    coset.  It also keeps the stabilizer parabolic of nu and its mask, the
    image w(nu) per element index w, each computed once, and the memo
    `reach` of bonded_below.

    The bond of a covering relation theta > phi is <phi(nu), beta^vee> for
    the positive root beta with s_beta min(phi) = min(theta).  As beta =
    min(phi)(gamma) for the cover's inversion root gamma (min(phi) s_gamma =
    min(theta)), it is <nu, gamma^vee>: `pairs` holds it per positive root,
    read by LS-paths of shape nu on W/W_nu and by the defining chain poset
    on W/W_Q with Q inside the stabilizer of nu.
    """

    def __init__(self, group: WeylGroup, nu):
        super().__init__()
        if any(x < 0 for x in nu):
            raise PathError(f"shape {nu} is not dominant")
        self.group = group
        self.nu = tuple(nu)
        self.parabolic = group.stabilizer_parabolic(self.nu)
        self.mask = bitmask(self.parabolic)
        datum = group.datum
        self.pairs = tuple(datum.pairing(self.nu, c) for c in datum.positive_coroots)
        self.images, self.reach = {group.identity.index: self.nu}, {}

    def image(self, x: int):
        """w(nu) for the element w of index x, computed once per element
        without a matrix: for the lowest left descent i of w, w = s_i y with
        y shorter, and w(nu) = y(nu) - <y(nu), alpha_i^vee> alpha_i."""
        img = self.images.get(x)
        if img is None:
            group = self.group
            i = (group._left_desc[x] & -group._left_desc[x]).bit_length() - 1
            below = self.image(group._left[x][i])
            img = tuple(v - below[i] * row[i] for v, row in zip(below, group.datum.cartan))
            self.images[x] = img
        return img

    def __missing__(self, x: int):
        self[x] = [(y, root, self.pairs[root])
                   for y, root in self.group._cover_pairs(x, self.mask)]
        return self[x]


def shape_covers(group: WeylGroup, nu) -> BondedCovers:
    """The one BondedCovers of shape nu on the group, made on first use."""
    nu = tuple(nu)
    if nu not in group.bonded_covers:
        group.bonded_covers[nu] = BondedCovers(group, nu)
    return group.bonded_covers[nu]


class ShapePoset:
    """The coset poset {sigma <= tau} in W/W_nu with bond-labelled covers.

    `nodes` and `top` are cosets; `covers_down`, the shape's BondedCovers,
    is keyed by their rep indices.  The nodes, by length and matrix, are
    the reach of the top at denominator 1 (Bruhat order on W/W_nu is the
    closure of its covers).  big_l, the lcm of the bonds below the top, is
    the one denominator of its lattice points."""

    def __init__(self, group: WeylGroup, nu, tau: Coset):
        self.covers_down = covers = shape_covers(group, nu)
        self.top = group.pi(tau, covers.parabolic)
        reach = bonded_below(covers, self.top.rep.index, 1, covers.reach)
        reps = sorted(map(group.element, set_bits(reach)), key=lambda w: (w.length, w.packed))
        self.nodes = [Coset(w, covers.parabolic) for w in reps]
        self.big_l = lcm(1, *(bond for w in reps for *_, bond in covers[w.index]))


def set_bits(mask: int):
    """The positions of the set bits of a mask, ascending."""
    return (k for k in range(mask.bit_length()) if mask >> k & 1)


def bonded_below(covers_down, node, den, memo):
    """The reach of `node` at `den`, a cut point's denominator: the bit mask
    of the node ids that a walk down the covers whose bond is divisible by
    den reaches from it, `node` included.  covers_down maps a node id to its
    (lower, label, bond) covers; memo keeps each reach of one poset.  A reach
    not in memo is filled depth first on an explicit stack, a node's after
    those of its bonded covers, so a deep poset needs no frame per rank."""
    reach = memo.get((node, den))
    if reach is not None:
        return reach
    # one entry per node whose reach is open: [node, its covers still to
    # read, the reach so far]; a cover whose reach is not in memo opens above it
    stack = [[node, iter(covers_down[node]), 1 << node]]
    while stack:
        top = stack[-1]
        for lower, _, bond in top[1]:
            if bond % den == 0:
                reach = memo.get((lower, den))
                if reach is None:
                    stack.append([lower, iter(covers_down[lower]), 1 << lower])
                    break
                top[2] |= reach
        else:
            stack.pop()
            memo[top[0], den] = reach = top[2]
            if stack:
                stack[-1][2] |= reach
    return reach


def bonded_chain(covers_down, upper, lower, den, memo):
    """A saturated chain from `upper` down to `lower`, listed from the top,
    whose bonds are all divisible by `den`; None if none.  Each step takes
    the first cover, in cover order, whose reach (bonded_below) holds
    `lower`."""
    if not bonded_below(covers_down, upper, den, memo) >> lower & 1:
        return None
    chain = [upper]
    while chain[-1] != lower:
        chain.append(next(
            nxt for nxt, _, bond in covers_down[chain[-1]]
            if bond % den == 0 and bonded_below(covers_down, nxt, den, memo) >> lower & 1
        ))
    return chain


def maximal_bonded_chains(covers_down, top):
    """All maximal chains of a graded poset from `top` downwards, as
    (nodes, edge bonds) pairs; covers_down maps a node to its
    (lower, label, bond) covers.  The library walks covers and lists no
    chain: this is the brute-force reference of DCP.maximal_chains and of
    the tests."""
    chains = []

    def descend(node, acc_nodes, acc_bonds):
        downs = covers_down[node]
        if not downs:
            chains.append((tuple(acc_nodes), tuple(acc_bonds)))
            return
        for lower, _, bond in downs:
            descend(lower, acc_nodes + [lower], acc_bonds + [bond])

    descend(top, [top], [])
    return chains


def _structure_check(group: WeylGroup, parabolic, path: LSPath) -> None:
    for c in path.cosets:
        if c.parabolic != parabolic:
            raise PathError("cosets do not live in the stabilizer quotient of the shape")
    for a, b in zip(path.cuts, path.cuts[1:]):
        if not a < b:
            raise PathError("cut points must be strictly increasing")
    if not 0 < path.cuts[0]:
        raise PathError("cut points must be positive")
    for upper, lower in zip(path.cosets, path.cosets[1:]):
        if upper == lower or not group.coset_leq(lower, upper):
            raise PathError("cosets must be strictly decreasing")


def validate_ls_path(group: WeylGroup, path: LSPath):
    """Check the chain condition; returns (True, certificate) or (False, None).

    The certificate maps each consecutive coset pair to one saturated chain
    (list of cosets) witnessing the integrality condition at that cut point.
    Structural defects (non-decreasing cosets, bad cut points) raise PathError
    before any reach is read.
    """
    covers = shape_covers(group, path.shape)
    _structure_check(group, covers.parabolic, path)
    certificate = {}
    for upper, lower, cut in zip(path.cosets, path.cosets[1:], path.cuts):
        witness = bonded_chain(
            covers, upper.rep.index, lower.rep.index, cut.denominator, covers.reach
        )
        if witness is None:
            return False, None
        certificate[(upper, lower)] = [Coset(group.element(x), covers.parabolic)
                                       for x in witness]
    return True, certificate


def lattice_steps(covers_down, top, degree, spend, big_l, memo):
    """The one home of the step rule of the lattice-point walk below `top`:
    (start, steps), steps mapping each state reached from start to its
    ((node, numerator), next state) steps in walk order.  A state is (the
    reach below the last support node, which fixes all later steps, or of
    `top` at the start; the sum mod big_l; the remaining degree), sums being
    over big_l, a multiple of the bonds of covers_down, the (lower, label,
    bond) covers per node id.  The next node is one in the reach, in
    ascending id, whose coefficient counts against the coordinates
    spend[node]; the reach below it is read at the new sum (bonded_below,
    with the memo).  A step spending the whole degree ends at None if its
    sum is integral, any other must leave a non-empty reach, and the start
    of degree 0 is None."""
    rest = tuple(x * big_l for x in degree)
    start = (bonded_below(covers_down, top, 1, memo), 0, rest) if any(rest) else None
    steps, todo = {}, [start] if start else []
    while todo:
        reach, cum, rest = state = todo.pop()
        if state in steps:
            continue
        steps[state] = out = []
        for node in set_bits(reach):
            for c in range(1, min(rest[j] for j in spend[node]) + 1):
                s = (cum + c) % big_l
                below = bonded_below(covers_down, node, big_l // gcd(s, big_l), memo) ^ 1 << node
                if s and not below:
                    continue
                left = list(rest)
                for j in spend[node]:
                    left[j] -= c
                if not any(left):
                    if not s:
                        out.append(((node, c), None))
                elif below:
                    nxt = below, s, tuple(left)
                    out.append(((node, c), nxt))
                    todo.append(nxt)
    return start, steps


def chain_lattice_points(covers_down, top, degree, spend, big_l, memo):
    """Every lattice point of degree `degree` below `top`, once each, by a
    depth-first walk over the lattice_steps table: the tuple of its (node,
    numerator over big_l) pairs in top-down support order."""
    start, steps = lattice_steps(covers_down, top, degree, spend, big_l, memo)
    stack = [(start, ())]
    while stack:
        state, point = stack.pop()
        if state is None:
            yield point
        else:
            stack.extend((nxt, point + (pair,)) for pair, nxt in reversed(steps[state]))


def count_lattice_points(covers_down, top, degree, spend, big_l, memo) -> int:
    """len(list(chain_lattice_points(...))) without listing: the completions
    of each lattice_steps state, in order of the remaining degree, which
    every step lowers (transfer-matrix counting, Stanley, EC I, 4.7)."""
    start, steps = lattice_steps(covers_down, top, degree, spend, big_l, memo)
    counts = {None: 1}
    for state in sorted(steps, key=lambda state: sum(state[2])):
        counts[state] = sum(counts[nxt] for _, nxt in steps[state])
    return counts[start]


def enumerate_ls_paths(group: WeylGroup, nu, tau: Coset, d: int) -> set[LSPath]:
    """All LS-paths of shape d*nu whose initial direction is <= tau.

    The lattice points of degree d on the poset {sigma <= tau}, each met
    once by chain_lattice_points, with cut points the running sums over d.
    """
    poset = ShapePoset(group, nu, tau)
    if d < 0:
        raise PathError("degree must be non-negative")
    if d == 0:
        return set()
    shape = tuple(d * x for x in nu)
    cosets = {c.rep.index: c for c in poset.nodes}  # the walk's ids
    covers, spend, paths = poset.covers_down, dict.fromkeys(cosets, (0,)), set()
    top, big_l = poset.top.rep.index, poset.big_l
    for point in chain_lattice_points(covers, top, (d,), spend, big_l, covers.reach):
        cuts = tuple(Fraction(cum, d * big_l) for cum in accumulate(c for _, c in point))
        paths.add(LSPath(shape, tuple(cosets[x] for x, _ in point), cuts))
    return paths


def numerators(values):
    """(numerators, den): the ints or Fractions `values` as integers over
    `den`, the lcm of their denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def column_steps(path: LSPath):
    """(steps, den): the column rule den * (a_j - a_{j+1}) per coset sigma_j."""
    cums, den = numerators(path.cuts)
    return [b - a for a, b in zip([0] + cums, cums)], den


def endpoint(path: LSPath, group: WeylGroup):
    """End point of the path: sum over segments of (a_j - a_{j+1}) sigma_j(shape).

    The images sigma_j(shape) come from the shape's table in shape_covers
    instead of a matrix product per segment; the tableau walk memoizes the
    end point per column number (dcp.ColumnTable.ends)."""
    covers = shape_covers(group, path.shape)
    steps, den = column_steps(path)
    vectors = [covers.image(c.rep.index) for c in path.cosets]
    return integral_sum(steps, vectors, den, len(path.shape), "endpoint")


def integral_sum(nums, vectors, den: int, size: int, what: str):
    """The sum of num * vector over `nums` and `vectors`, vectors of length
    `size`, divided once by den; InvariantError if not integral."""
    total = [0] * size
    for num, vector in zip(nums, vectors):
        for j, x in enumerate(vector):
            total[j] += num * x
    if any(x % den for x in total):
        raise InvariantError(f"non-integral {what} {tuple(Fraction(x, den) for x in total)}")
    return tuple(x // den for x in total)


def theta_single(path: LSPath, d: int) -> dict[Coset, Fraction]:
    """Coefficient vector of a degree-d path: sigma_j gets (a_j - a_{j+1}) * d."""
    steps, den = column_steps(path)
    return {c: Fraction(d * step, den) for c, step in zip(path.cosets, steps)}


def theta_single_inverse(group: WeylGroup, coeffs: dict[Coset, Fraction], nu) -> LSPath:
    """Inverse of theta_single on the monoid of shape nu."""
    nums, den = numerators(list(coeffs.values()))
    return column_of(group, zip(coeffs, nums), den, nu)


def column_of(group: WeylGroup, terms, den: int, nu) -> LSPath:
    """The LS-path of shape d*nu whose theta_single vector has the
    coefficient num/den at each (coset, num) of `terms`, cosets distinct.

    The support, sorted by rank, must be a strictly decreasing chain: the
    path is validated, which compares consecutive cosets only (Bruhat order
    is transitive), and a PathError is raised when the vector does not
    encode an LS-path.
    """
    terms = sorted((t for t in terms if t[1]), key=lambda t: -t[0].rank)
    if not terms:
        raise PathError("zero vector encodes no path")
    cums = list(accumulate(num for _, num in terms))
    total = cums[-1]
    d, rest = divmod(total, den)
    if rest or d <= 0:
        raise PathError(f"coefficients sum to {Fraction(total, den)}, not a positive integer")
    shape = tuple(d * x for x in nu)
    cosets = tuple(c for c, _ in terms)
    path = LSPath(shape, cosets, tuple(Fraction(c, total) for c in cums))
    ok, _ = validate_ls_path(group, path)
    if not ok:
        raise PathError("vector does not satisfy the chain-integrality conditions")
    return path
