"""Brute-force references that list maximal chains.

The library builds LS-paths and fan vectors one support node at a time and
lists no chain.  These helpers decide the same questions chain by chain, as
the definitions read, for the tests to compare against.
"""

from fractions import Fraction

from lsfan.fan import FanError
from lsfan.lspath import LSPath, ShapePoset, maximal_bonded_chains


def index_poset_maximal_chains(iposet):
    """All maximal chains of an index poset, listed from the full set
    downwards."""
    chains = []

    def descend(s, acc):
        covers = iposet.covers_down[s]
        if not covers:
            chains.append(tuple(acc))
            return
        for t in covers:
            descend(t, acc + [t])

    descend(iposet.full, [iposet.full])
    return chains


def ls_lattice_member(vec, chain_nodes, chain_bonds) -> bool:
    """Partial-sum integrality of a vector supported on the given maximal chain.

    chain_nodes runs from the top; chain_bonds[k] is the bond of the edge
    between chain_nodes[k] and chain_nodes[k+1].  Membership in the fan
    additionally requires non-negative coefficients.
    """
    support = {n for n, c in vec.items() if c != 0}
    if not support <= set(chain_nodes):
        raise FanError("vector is not supported on the chain")
    cum = Fraction(0)
    for k, node in enumerate(chain_nodes):
        cum += Fraction(vec.get(node, 0))
        if k < len(chain_bonds) and (cum * chain_bonds[k]).denominator != 1:
            return False
    return cum.denominator == 1


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


def reference_ls_paths(group, nu, tau, d):
    """LS-paths of shape d*nu with initial direction <= tau: the lattice
    points of every maximal chain of {sigma <= tau}, deduplicated."""
    poset = ShapePoset(group, nu, tau)
    shape = tuple(d * x for x in nu)
    found = set()
    if d == 0:
        return found
    for nodes, bonds in maximal_bonded_chains(poset.covers_down, poset.top):
        for coeffs in chain_lattice_points(bonds, d):
            support = [(node, c) for node, c in zip(nodes, coeffs) if c != 0]
            cum = Fraction(0)
            cuts = []
            for _, c in support:
                cum += c
                cuts.append(cum / d)
            found.add(LSPath(shape, tuple(n for n, _ in support), tuple(cuts)))
    return found
