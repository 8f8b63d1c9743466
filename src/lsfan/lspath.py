"""Lakshmibai-Seshadri paths of a given shape.

A path of shape nu is a strictly decreasing chain of cosets in W/W_nu with
rational cut points, subject to the chain-integrality condition: consecutive
cosets must be joined by a saturated chain of covering relations whose pairing
with the cut point is integral at every step.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rootdata import InvariantError
from .weyl import Coset, WeylGroup

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
    "chain_lattice_points",
    "bonded_chain",
    "maximal_bonded_chains",
]


class PathError(ValueError):
    """Raised for malformed LS-path data."""


@dataclass(frozen=True)
class LSPath:
    """LS-path (sigma_p > ... > sigma_1; 0, a_p, ..., a_1 = 1).

    `cosets[0]` is the largest coset (the initial direction) and `cuts[k]` is
    the cut point attached to `cosets[k]`, so cuts increase along the tuple
    and end in 1.
    """

    shape: tuple[int, ...]
    cosets: tuple[Coset, ...]
    cuts: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.cosets) != len(self.cuts) or not self.cosets:
            raise PathError("need one cut point per coset")
        if self.cuts[-1] != 1:
            raise PathError("final cut point must be 1")


def initial_direction(path: LSPath) -> Coset:
    return path.cosets[0]


class ShapePoset:
    """The coset poset {sigma <= tau} in W/W_nu with bond-labelled covers.

    The bond of a covering relation theta > phi is |<phi(nu), beta^vee>| for
    the positive root beta with s_beta min(phi) = min(theta).
    """

    def __init__(self, group: WeylGroup, nu, tau: Coset):
        if any(x < 0 for x in nu):
            raise PathError(f"shape {nu} is not dominant")
        self.group = group
        self.nu = tuple(nu)
        self.parabolic = group.stabilizer_parabolic(nu)
        self.top = group.pi(tau, self.parabolic)
        nodes = [
            c
            for c in group.all_cosets(self.parabolic)
            if group.coset_leq(c, self.top)
        ]
        self.nodes = nodes
        self.covers_down: dict[Coset, list[tuple[Coset, int, int]]] = {}
        for c in nodes:
            entries = []
            for lower, beta_idx in group.covers_down(c):
                coroot = group.datum.positive_coroots[beta_idx]
                bond = abs(group.datum.pairing(lower.rep.act(self.nu), coroot))
                entries.append((lower, beta_idx, bond))
            self.covers_down[c] = entries

    def maximal_chains(self):
        """All maximal chains from the top, as (nodes, edge bonds) pairs."""
        return maximal_bonded_chains(self.covers_down, self.top)


def bonded_chain(covers_down, upper, lower, cut):
    """A saturated chain from `upper` down to `lower`, listed from the top,
    whose every cover has bond * cut integral; None if there is none.

    covers_down maps a node to its (lower, label, bond) covers, and each
    cover lowers the node's `rank` by one.  The search goes depth first in
    cover order, stops at the rank of `lower` and skips nodes already known
    not to reach it.
    """
    den = Fraction(cut).denominator
    floor = lower.rank
    dead = set()

    def descend(node):
        if node == lower:
            return [node]
        if node.rank <= floor or node in dead:
            return None
        for nxt, _, bond in covers_down[node]:
            if bond % den == 0:
                rest = descend(nxt)
                if rest is not None:
                    return [node] + rest
        dead.add(node)
        return None

    return descend(upper)


def maximal_bonded_chains(covers_down, top):
    """All maximal chains of a graded poset from `top` downwards, as
    (nodes, edge bonds) pairs; covers_down maps a node to its
    (lower, label, bond) covers.  enumerate_ls_paths lists them; on the
    defining chain poset they are only the tests' brute-force reference."""
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


def _structure_check(group: WeylGroup, path: LSPath) -> None:
    parabolic = group.stabilizer_parabolic(path.shape)
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
    before any chain search happens.
    """
    _structure_check(group, path)
    poset = ShapePoset(group, path.shape, path.cosets[0])
    certificate = {}
    for k in range(len(path.cosets) - 1):
        upper, lower = path.cosets[k], path.cosets[k + 1]
        witness = bonded_chain(poset.covers_down, upper, lower, path.cuts[k])
        if witness is None:
            return False, None
        certificate[(upper, lower)] = witness
    return True, certificate


def chain_lattice_points(bonds, total: int):
    """Yield coefficient tuples on a chain of len(bonds)+1 nodes (top first).

    Coefficients are non-negative rationals summing to `total` such that for
    every edge the bond times the partial sum above the edge is an integer.
    """
    r = len(bonds)
    coeffs_buffer = [Fraction(0)] * (r + 1)

    def rec(k, prev_cum):
        if k == r:
            coeffs_buffer[r] = total - prev_cum
            yield tuple(coeffs_buffer)
            return
        b = bonds[k]
        step = Fraction(1, b)
        # smallest multiple of 1/b that is >= prev_cum
        start = -((-prev_cum * b) // 1)  # ceil(prev_cum * b)
        t = Fraction(start, b)
        while t <= total:
            coeffs_buffer[k] = t - prev_cum
            yield from rec(k + 1, t)
            t += step
    yield from rec(0, Fraction(0))


def enumerate_ls_paths(group: WeylGroup, nu, tau: Coset, d: int) -> set[LSPath]:
    """All LS-paths of shape d*nu whose initial direction is <= tau.

    Realized per maximal chain of {sigma <= tau} as lattice points of the
    bond-constrained monoid of degree d, deduplicated across chains.
    """
    if any(x < 0 for x in nu):
        raise PathError(f"shape {nu} is not dominant")
    if d < 0:
        raise PathError("degree must be non-negative")
    poset = ShapePoset(group, nu, tau)
    shape = tuple(d * x for x in nu)
    found: set[LSPath] = set()
    if d == 0:
        return found
    for nodes, bonds in poset.maximal_chains():
        for coeffs in chain_lattice_points(list(bonds), d):
            path = _path_from_chain_coeffs(nodes, coeffs, shape, d)
            found.add(path)
    return found


def _path_from_chain_coeffs(nodes, coeffs, shape, d):
    support = [(node, c) for node, c in zip(nodes, coeffs) if c != 0]
    cosets = tuple(node for node, _ in support)
    cum = Fraction(0)
    cuts = []
    for _, c in support:
        cum += c
        cuts.append(cum / d)
    return LSPath(shape, cosets, tuple(cuts))


def endpoint(path: LSPath):
    """End point of the path: sum over segments of (a_j - a_{j+1}) sigma_j(shape)."""
    total = None
    prev = Fraction(0)
    for coset, cut in zip(path.cosets, path.cuts):
        term = coset.rep.act(path.shape)
        seg = cut - prev
        contrib = tuple(seg * t for t in term)
        total = contrib if total is None else tuple(a + b for a, b in zip(total, contrib))
        prev = cut
    if any(x.denominator != 1 for x in total):
        raise InvariantError(f"non-integral endpoint {total}; path data is inconsistent")
    return tuple(int(x) for x in total)


def theta_single(path: LSPath, d: int) -> dict[Coset, Fraction]:
    """Coefficient vector of a degree-d path: sigma_j gets (a_j - a_{j+1}) * d."""
    coeffs = {}
    prev = Fraction(0)
    for coset, cut in zip(path.cosets, path.cuts):
        coeffs[coset] = (cut - prev) * d
        prev = cut
    return coeffs


def theta_single_inverse(group: WeylGroup, coeffs: dict[Coset, Fraction], nu) -> LSPath:
    """Inverse of theta_single on the monoid of shape nu.

    The support must be totally ordered; the resulting path is validated and a
    PathError is raised when the vector does not encode an LS-path.
    """
    support = [(c, Fraction(v)) for c, v in coeffs.items() if v != 0]
    if not support:
        raise PathError("zero vector encodes no path")
    total = sum(v for _, v in support)
    if total.denominator != 1 or total <= 0:
        raise PathError(f"coefficients sum to {total}, not a positive integer")
    d = int(total)
    for a, _ in support:
        for b, _ in support:
            if not (group.coset_leq(a, b) or group.coset_leq(b, a)):
                raise PathError("support is not totally ordered")
    support.sort(key=lambda t: t[0].rank, reverse=True)
    shape = tuple(d * x for x in nu)
    cosets = tuple(c for c, _ in support)
    cum = Fraction(0)
    cuts = []
    for _, v in support:
        cum += v
        cuts.append(cum / d)
    path = LSPath(shape, cosets, tuple(cuts))
    ok, _ = validate_ls_path(group, path)
    if not ok:
        raise PathError("vector does not satisfy the chain-integrality conditions")
    return path
