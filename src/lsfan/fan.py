"""The LS-fan of monoids over a defining chain poset.

A fan vector is a sparse map from poset nodes to non-negative rationals whose
support lies on one maximal chain; membership in the fan is cut out by
bond-weighted partial-sum integrality along that chain.  The condition is
local: between consecutive support nodes the running sum only has to make
bond * sum integral on the covers of one saturated chain, so membership
tests one bit of the reach of the node above (lspath.bonded_below, memoized
per poset in DCP.reach), enumeration and counting read the step table of
lspath.lattice_steps over the same reach, and none lists maximal chains.
Every function taking a DCP takes and returns a fan vector as its key: the
sorted tuple of its (node number, numerator over DCP.big_l, the lcm of the
bonds) pairs.
vector_key and fan_vector convert to and from {DCPNode: Fraction}, the form
of weights, degrees and the JSON.  Fan vectors of a fixed degree biject with
the standard tableaux of that degree, and theta_d and its inverse map keys
to keys: a tableau as its key is the tuple of its column numbers in the
DCP's ColumnTable (tableaux.tableau_key).  theta_d sums each column's (node
number, numerator) terms, computed once per column number.  The inverse
checks membership by one in_ls_plus call, splits the key into its
degree-one parts in one pass that counts the room left in the current part,
and maps each part to a column number, building and validating the column
(lspath.column_of) once per distinct part; so the round trip compares int
tuples.  The multidegree checker compares bond
products summed over maximal chains, by dynamic programming over the poset,
against the Hilbert multidegrees, read off as forward differences of the
dimension oracle on the simplex grid.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from .dcp import DCP, Setup
from .demazure import weyl_dimension
from .lspath import (bonded_below, chain_lattice_points, column_of, column_steps,
                     count_lattice_points, integral_sum, numerators, shape_covers)
from .rootdata import InvariantError

__all__ = [
    "FanError",
    "degree_grid",
    "vector_key",
    "fan_vector",
    "fan_degree",
    "in_ls_plus",
    "enumerate_fan_degree",
    "count_fan_degree",
    "decompose",
    "weight",
    "theta_d",
    "theta_d_inverse",
    "hilbert_multidegrees",
    "multidegree_conjecture_check",
]

FanVector = dict  # DCPNode -> Fraction, the boundary form
FanKey = tuple  # sorted (node number, numerator over DCP.big_l) pairs


class FanError(ValueError):
    pass


def _integral_sum(vec: FanVector, image, size: int, what: str):
    """sum of a_n * image(n), divided once at the end; InvariantError if not integral."""
    nums, den = numerators(list(vec.values()))
    return integral_sum(nums, map(image, vec), den, size, f"fan {what}")


def fan_degree(setup: Setup, vec: FanVector):
    """deg(a) = sum of a_{(theta,I)} * e_I, exact and integral."""
    return _integral_sum(vec, lambda n: setup.iposet.e_vector(n.iset), setup.m, "degree")


def vector_key(dcp: DCP, vec: FanVector):
    """The int form of a vector on the poset, hashable and canonical: the
    sorted tuple of its non-zero (node number, numerator over dcp.big_l)
    pairs, which runs top down by rank.  None if a node is not in the poset
    or a coefficient is negative or has a denominator not dividing big_l,
    as no fan vector has such a coefficient."""
    position, big_l, support = dcp.position, dcp.big_l, []
    for node, c in vec.items():
        num, den = c.as_integer_ratio()
        if num:
            k = position.get(node.key)
            if num < 0 or big_l % den or k is None:
                return None
            support.append((k, num * (big_l // den)))
    return tuple(sorted(support))


def fan_vector(dcp: DCP, key: FanKey) -> FanVector:
    """The {DCPNode: Fraction} form of a key; vector_key inverts it."""
    nodes, big_l = dcp.nodes, dcp.big_l
    return {nodes[k]: Fraction(c, big_l) for k, c in key}


def in_ls_plus(dcp: DCP, key: FanKey | None) -> bool:
    """Membership in the fan of a key (None, vector_key's answer for a
    vector without one, is no member): non-negative, integral in total, and
    each support node in the reach (lspath.bonded_below) of the one above it
    (of the top, for the first) at the denominator of the running sum."""
    if key is None:
        return False
    big_l, memo, upper, cum = dcp.big_l, dcp.reach, 0, 0
    for k, c in key:
        den = big_l // gcd(cum, big_l)
        reach = memo.get((upper, den))
        if reach is None:
            reach = bonded_below(dcp.covers_down, upper, den, memo)
        if c < 0 or not reach >> k & 1:
            return False
        upper, cum = k, cum + c
    return cum % big_l == 0


def enumerate_fan_degree(dcp: DCP, d) -> list[FanKey]:
    """The keys of all fan vectors of degree d: the lattice points of
    lspath.chain_lattice_points on the node numbers of the poset, where a
    node's coefficient counts against the coordinates of its index set's
    underline.  Every vector is met exactly once, on the path of its own
    support, whose node numbers increase down the support.
    """
    d, spend = _degree_spend(dcp, d)
    return list(chain_lattice_points(dcp.covers_down, 0, d, spend, dcp.big_l, dcp.reach))


def _degree_spend(dcp: DCP, d):
    """(d as a checked degree tuple, the coordinates each node spends)."""
    setup = dcp.setup
    d = tuple(d)
    if len(d) != setup.m or any(x < 0 for x in d):
        raise FanError(f"{d} is not a degree vector of length {setup.m}")
    return d, [[j - 1 for j in setup.iposet.underline[n.iset]] for n in dcp.nodes]


def count_fan_degree(dcp: DCP, d) -> int:
    """len(enumerate_fan_degree(dcp, d)) without listing: the
    lspath.count_lattice_points of the same walk."""
    d, spend = _degree_spend(dcp, d)
    return count_lattice_points(dcp.covers_down, 0, d, spend, dcp.big_l, dcp.reach)


def _parts(dcp: DCP, key: FanKey | None) -> list[FanKey]:
    """decompose on keys: the key of each part.  After one in_ls_plus call,
    one pass down the key keeps `room`, the numerators the current part
    still takes, and opens a part when a coefficient does not fit."""
    if not in_ls_plus(dcp, key):
        raise FanError("vector is not a member of the fan")
    big_l, nodes = dcp.big_l, dcp.nodes
    parts, part, room, iset = [], None, 0, None
    for k, c in key:
        if nodes[k].iset != iset:
            if room:
                at = Fraction(len(parts) * big_l - room, big_l)
                raise InvariantError(f"slice {set(iset)} of a fan member ends at {at}")
            if iset is not None and not nodes[k].iset < iset:
                raise InvariantError("slice index sets of a fan member are not a chain")
            iset = nodes[k].iset
        while c > room:
            if room:
                part.append((k, room))
                c -= room
            parts.append(part := [])
            room = big_l
        if c:
            part.append((k, c))
            room -= c
    return [tuple(part) for part in parts]


def decompose(dcp: DCP, key: FanKey | None) -> list[FanVector]:
    """Unique decomposition into fan vectors of total degree one.

    One pass down the support, in the order in_ls_plus walks it, with one
    running sum of numerators over L = big_l: part k holds the mass in
    [kL, (k+1)L), so the support of each part lies weakly above the support
    of the next.  Fan membership makes the index sets of the support a chain
    and the running sum integral where the index set changes, so that each
    part lies in one slice; both are checked as invariants.
    """
    return [fan_vector(dcp, part) for part in _parts(dcp, key)]


def weight(setup: Setup, vec: FanVector):
    """wt(a) = sum of a_{(theta,I)} * theta(lambda_I), exact and integral."""
    group = setup.group
    return _integral_sum(
        vec, lambda n: shape_covers(group, setup.lambda_of[n.iset]).image(n.theta.rep.index),
        group.rank, "weight",
    )


def theta_d(dcp: DCP, key: tuple[int, ...]) -> FanKey:
    """Fan key of a standard tableau's key (tableaux.tableau_key): the sum of
    its columns' (node number, numerator) terms, each coset transported into
    its slice through the rho lookup (NotStandardError when rho is not
    injective), once per column number in dcp.columns.terms."""
    columns, nums = dcp.columns, {}
    memo, get = columns.terms, nums.get
    for k in key:
        terms = memo[k]
        if terms is None:
            terms = memo[k] = _column_terms(dcp, *columns[k])
        for n, c in terms:
            nums[n] = get(n, 0) + c
    return tuple(sorted(nums.items()))


def _column_terms(dcp: DCP, path, s):
    """The (node number, numerator over big_l) terms of one column in slice s."""
    (steps, den), inverse, big_l = column_steps(path), dcp.rho_lookup, dcp.big_l
    if big_l % den:
        raise InvariantError(f"column steps over {den} are not integral over {big_l}")
    terms = []
    for coset, step in zip(path.cosets, steps):
        if (coset.key, s) not in inverse:
            raise FanError(f"column coset {coset} has no node in slice {set(s)}")
        terms.append((inverse[coset.key, s], step * (big_l // den)))
    return terms


def theta_d_inverse(dcp: DCP, key: FanKey | None) -> tuple[int, ...]:
    """Tableau key of a fan vector, via _parts (one in_ls_plus call, one
    pass); a part's nodes lie in one slice with distinct rho images.  Each
    distinct part's column is built and validated once (lspath.column_of)
    and numbered in dcp.columns, which keeps the part's number in `parts`;
    _parts makes the slices a chain, so the key needs no other check."""
    setup, columns, images = dcp.setup, dcp.columns, dcp.rho_images
    memo, out = columns.parts, []
    for part in _parts(dcp, key):
        k = memo.get(part)
        if k is None:
            s = images[part[0][0]][1]
            terms = [(images[n][0], c) for n, c in part]
            path = column_of(setup.group, terms, dcp.big_l, setup.lambda_of[s])
            k = memo[part] = columns.add((path, s))
        out.append(k)
    return tuple(out)


# -- multidegrees ---------------------------------------------------------------


GRID_LIMIT = 10**6  # points of a degree grid, a constant like the group-size guard


def degree_grid(m, n):
    """Exponent tuples in m variables of total degree <= n, lexicographic: the
    simplex walked one coordinate at a time.  Raises ValueError, naming
    max_total_degree, when there are more than GRID_LIMIT of them."""
    if comb(n + m, m) > GRID_LIMIT:
        raise ValueError(f"max_total_degree {n} gives more than {GRID_LIMIT} "
                         f"grid points in {m} variables")
    points = [()]
    for _ in range(m):
        points = [p + (x,) for p in points for x in range(n + 1 - sum(p))]
    return points


def hilbert_multidegrees(setup: Setup, max_total_degree: int):
    """Leading coefficients of the Hilbert polynomial, factorial-normalized,
    by forward differences on the simplex grid.

    The Hilbert function H: d -> dim V(d . lambda) (dimension oracle) is
    evaluated once at each grid point of total degree <= max_total_degree
    and differenced in place along each axis in turn, which leaves
    Delta^k H(0) at k.  Then H(d) = sum of Delta^k H(0) * prod C(d_i, k_i)
    on the grid, so H is polynomial of degree dim X_tau there exactly when
    every difference of higher order vanishes, and the multidegree of k,
    the coefficient of d^k times prod k_i!, is the integer Delta^k H(0).
    Returns a dict k -> degree over tuples with |k| = dim X_tau.
    """
    if not setup.is_w0_instance():
        raise FanError("multidegrees via the dimension formula need tau = w0")
    n = setup.tau.rank
    m = setup.m
    if max_total_degree < n:
        raise FanError(
            f"degree grid up to {max_total_degree} cannot determine a polynomial "
            f"of degree {n}; need total degree at least {n}"
        )

    points = degree_grid(m, max_total_degree)
    table = {pt: weyl_dimension(setup.group.datum, setup.weight(pt)) for pt in points}
    # pass s along axis i takes s-th differences; reversed lex order runs
    # down each line along the axis, so each subtraction reads the pass s - 1
    # value below it
    for i in range(m):
        for s in range(1, max_total_degree + 1):
            for pt in reversed(points):
                if pt[i] >= s:
                    table[pt] -= table[pt[:i] + (pt[i] - 1,) + pt[i + 1:]]

    # the first such k in lex order is also the first grid point where H
    # differs from the polynomial of degree n through the points of |k| <= n
    for k in points:
        if sum(k) > n and table[k]:
            raise FanError(
                f"dimension data at {k} is not polynomial of degree {n}; "
                "the fit cannot be trusted"
            )
    return {k: table[k] for k in points if sum(k) == n}


def multidegree_conjecture_check(dcp: DCP, max_total_degree: int):
    """Compare bond-weighted chain counts against the Hilbert multidegrees.

    For a totally ordered index poset, each maximal chain of the poset is
    typed by how many nodes it has per member; the left side sums the product
    of all bonds over chains of each type, in one top-down pass over the
    nodes, the right side takes the Hilbert multidegrees.  Returns a report
    dict; agreement is reported, not asserted.
    """
    setup = dcp.setup
    iposet = setup.iposet
    chain_sets = sorted(iposet.sets, key=len)
    for a, b in zip(chain_sets, chain_sets[1:]):
        if not a < b:
            raise FanError("the conjecture checker needs a totally ordered index poset")
    variable_of = {}
    for s in chain_sets:
        (x,) = tuple(iposet.underline[s])
        variable_of[s] = x

    def bump(k, s):
        j = variable_of[s] - 1
        return k[:j] + (k[j] + 1,) + k[j + 1:]

    # paths[n]: k-tuple of the nodes on a path from the top down to node
    # number n -> sum of the bond products of those paths; nodes run top-down
    paths = [{} for _ in dcp.nodes]
    paths[0] = {bump((-1,) * setup.m, iposet.full): 1}
    left: dict[tuple, int] = {}
    for n, covers in enumerate(dcp.covers_down):
        here, paths[n] = paths[n], None
        if not covers:
            for k, v in here.items():
                left[k] = left.get(k, 0) + v
        for lower, _, bond in covers:
            acc, iset = paths[lower], dcp.nodes[lower].iset
            for k, v in here.items():
                k = bump(k, iset)
                acc[k] = acc.get(k, 0) + v * bond

    right = hilbert_multidegrees(setup, max_total_degree)
    keys = sorted(set(left) | {k for k, v in right.items() if v != 0})
    mismatches = [
        k for k in keys if left.get(k, 0) != right.get(k, 0)
    ]
    return {
        "dimension": setup.tau.rank,
        "left": {k: left.get(k, 0) for k in keys},
        "right": {k: right.get(k, 0) for k in keys},
        "agree": not mismatches,
        "mismatches": mismatches,
    }
