"""Brute-force and Fraction references for the library's chain work.

The library builds LS-paths and fan vectors one support node at a time and
lists no chain.  The first helpers decide the same questions chain by chain,
as the definitions read, for the tests to compare against.

The library also carries every coefficient of the theta round trip as an
integer numerator over one denominator.  The last helpers are the earlier
versions of that round trip and of `endpoint`, which sum `Fraction`s
directly; they are kept as they were, apart from their type annotations
and from reading the poset's covers and rho lookup, which the library keys
by node number, through node_covers and dcp.nodes.  Among them, decompose_key
is the integer split of fan._parts as it was before the split kept a count
of the room left in the current part: the loop recomputes each part's end
from the number of parts.

The library reads the Hilbert multidegrees off forward differences on the
simplex grid.  The monomial-basis fit it replaced, a fraction-free (Bareiss)
solve checked at every grid point, is the reference for it after them.

The library reads a Bruhat interval below a coset off the reach table of
its shape, and builds the coset-pair poset on int bit rows.  The scan of all
cosets and the bool-matrix build with its triple-loop hull and cover test
that they replaced are the references for them after the fit.

The next helpers are queries with no caller in the library: the covering
pairs of a bounded quotient and two inverses of the slice map rho, one by
table lookup and one in closed form for the maximal tau.

The library builds a Weyl group's tables in one pass that visits only
ascents and reads descents off signs.  The helper after them is the build
it replaced, which computed every product, compared lengths, sorted the
reduced words by length and folded each reversed word for the inverse.

The library reads the covers of a coset off the reduced word of its
representative, one deleted letter at a time.  The helper after the group
build is the loop it replaced, which multiplied each positive root's
reflection into the representative.

The library runs the DCP cover rule and the direct construction's node
test on element indices and bit masks, and makes a node once per key.  The
next helpers are the versions they replaced, which ask the group about
Coset objects and parabolics given as sets: is_q_minimal, pi and
is_lift_maximal, and make a node for every cover.

The library generates the positive roots by raising simple reflections
only.  The last helper is the generator it replaced, which applied every
simple reflection and kept the images with non-negative coordinates.
"""

from fractions import Fraction
from functools import reduce
from math import factorial, prod

from lsfan.dcp import DCPNode, rho
from lsfan.demazure import weyl_dimension
import lsfan.fan
from lsfan.fan import FanError, degree_grid
from lsfan.lspath import (
    LSPath,
    PathError,
    ShapePoset,
    maximal_bonded_chains,
    validate_ls_path,
)
from lsfan.rootdata import InvariantError
from lsfan.tableaux import make_tableau
from lsfan.weyl import Coset, _lowest


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


def canonical_vector(vec):
    """Hashable canonical form of a {node: coefficient} vector: the frozenset
    of its non-zero pairs, so it needs no node order of its own."""
    return frozenset((n, c) for n, c in vec.items() if c != 0)


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
    cosets = {c.rep.index: c for c in poset.nodes}  # the poset's ids
    for ids, bonds in maximal_bonded_chains(poset.covers_down, poset.top.rep.index):
        nodes = [cosets[x] for x in ids]
        for coeffs in chain_lattice_points(bonds, d):
            support = [(node, c) for node, c in zip(nodes, coeffs) if c != 0]
            cum = Fraction(0)
            cuts = []
            for _, c in support:
                cum += c
                cuts.append(cum / d)
            found.add(LSPath(shape, tuple(n for n, _ in support), tuple(cuts)))
    return found


# -- the theta round trip and endpoint in Fraction arithmetic -----------------


def node_covers(dcp):
    """The covers of a defining chain poset keyed by node, from its edges."""
    covers = {n: [] for n in dcp.nodes}
    for upper, lower, kind, bond in dcp.edges:
        covers[upper].append((lower, kind, bond))
    return covers


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


def _support(vec):
    """The nodes with a non-zero coefficient, from the top down by rank."""
    return sorted((n for n, c in vec.items() if c != 0), key=lambda n: -n.rank)


def in_ls_plus(dcp, vec) -> bool:
    """Membership in the fan: non-negative, integral in total, and each
    support node reached from the one above it (from the top, for the
    first) by a bonded walk at the running sum."""
    if any(Fraction(c) < 0 for c in vec.values()):
        return False
    upper, cum, covers = dcp.top, Fraction(0), node_covers(dcp)
    for node in _support(vec):
        if bonded_chain(covers, upper, node, cum) is None:
            return False
        upper, cum = node, cum + Fraction(vec[node])
    return cum.denominator == 1


def decompose(dcp, vec):
    """Unique decomposition into fan vectors of total degree one.

    One pass down the support, in the order in_ls_plus walks it, with one
    running sum: part k holds the mass in [k, k+1), so the support of each
    part lies weakly above the support of the next.  Fan membership makes
    the index sets of the support a chain and the running sum integral
    where the index set changes, so that each part lies in one slice; both
    are checked as invariants.
    """
    if not in_ls_plus(dcp, vec):
        raise FanError("vector is not a member of the fan")
    parts, cum, iset = [], Fraction(0), None
    for node in _support(vec):
        if node.iset != iset:
            if cum.denominator != 1:
                raise InvariantError(f"slice {set(iset)} of a fan member ends at {cum}")
            if iset is not None and not node.iset < iset:
                raise InvariantError("slice index sets of a fan member are not a chain")
            iset = node.iset
        remaining = Fraction(vec[node])
        while remaining:
            if cum == len(parts):
                parts.append({})
            take = min(remaining, len(parts) - cum)
            parts[-1][node] = take
            cum += take
            remaining -= take
    return parts


def decompose_key(dcp, key):
    """decompose on int keys, the earlier fan._parts: the key of each part.
    Membership is read through lsfan.fan.in_ls_plus, so a test that patches
    it reaches the invariant checks of both splits."""
    if not lsfan.fan.in_ls_plus(dcp, key):
        raise FanError("vector is not a member of the fan")
    big_l, nodes = dcp.big_l, dcp.nodes
    parts, cum, iset = [], 0, None
    for k, remaining in key:
        if nodes[k].iset != iset:
            if cum % big_l:
                at = Fraction(cum, big_l)
                raise InvariantError(f"slice {set(iset)} of a fan member ends at {at}")
            if iset is not None and not nodes[k].iset < iset:
                raise InvariantError("slice index sets of a fan member are not a chain")
            iset = nodes[k].iset
        while remaining:
            if cum == len(parts) * big_l:
                parts.append([])
            take = min(remaining, len(parts) * big_l - cum)
            parts[-1].append((k, take))
            cum += take
            remaining -= take
    return [tuple(part) for part in parts]


def theta_single(path, d):
    """Coefficient vector of a degree-d path: sigma_j gets (a_j - a_{j+1}) * d."""
    coeffs = {}
    prev = Fraction(0)
    for coset, cut in zip(path.cosets, path.cuts):
        coeffs[coset] = (cut - prev) * d
        prev = cut
    return coeffs


def theta_single_inverse(group, coeffs, nu):
    """Inverse of theta_single on the monoid of shape nu.

    The support, sorted by rank, must be a strictly decreasing chain: the
    path is validated, which compares consecutive cosets only (Bruhat order
    is transitive), and a PathError is raised when the vector does not
    encode an LS-path.
    """
    support = [(c, Fraction(v)) for c, v in coeffs.items() if v != 0]
    if not support:
        raise PathError("zero vector encodes no path")
    total = sum(v for _, v in support)
    if total.denominator != 1 or total <= 0:
        raise PathError(f"coefficients sum to {total}, not a positive integer")
    d = int(total)
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


def theta_d(dcp, tableau):
    """Fan vector of a standard tableau: sum of the column vectors, each
    transported into its slice of the poset through the rho lookup; raises
    NotStandardError when rho is not injective."""
    if tableau.shapes is None:
        raise FanError("theta_d needs a tableau typed by the index poset")
    inverse = dcp.rho_lookup
    vec = {}
    for path, s in zip(tableau.columns, tableau.shapes):
        for coset, c in theta_single(path, 1).items():
            k = inverse.get((coset.key, s))
            if k is None:
                raise FanError(f"column coset {coset} has no node in slice {set(s)}")
            node = dcp.nodes[k]
            vec[node] = vec.get(node, Fraction(0)) + c
    return vec


def theta_d_inverse(dcp, vec):
    """Tableau of a fan vector, via the unique degree-one decomposition."""
    setup = dcp.setup
    columns = []
    shapes = []
    for part in decompose(dcp, vec):
        coeffs = {}
        for node, c in part.items():
            coset, s = rho(setup, node)
            coeffs[coset] = coeffs.get(coset, Fraction(0)) + c
        columns.append(theta_single_inverse(setup.group, coeffs, setup.lambda_of[s]))
        shapes.append(s)
    return make_tableau(setup, columns, shapes)


def endpoint(path):
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


def solve_exact(matrix, rhs):
    """Exact solution of a square invertible integer system, by fraction-free
    (Bareiss) elimination.

    Every entry stays an integer: each step divides exactly by the previous
    pivot, so the last pivot is +-det and det * x is integral (Cramer).
    Back-substitution solves for det * x in integers; only the returned
    values are Fractions.
    """
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    prev = 1
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        p, top = a[col][col], a[col]
        for r in range(col + 1, n):
            row, f = a[r], a[r][col]
            a[r] = [0] * (col + 1) + [
                (p * row[j] - f * top[j]) // prev for j in range(col + 1, n + 1)
            ]
        prev = p
    det = prev
    y = [0] * n
    for r in range(n - 1, -1, -1):
        acc = det * a[r][n] - sum(a[r][j] * y[j] for j in range(r + 1, n))
        y[r] = acc // a[r][r]
    return [Fraction(v, det) for v in y]


def power(point, exponents):
    out = 1
    for x, e in zip(point, exponents):
        out *= x**e
    return out


def monomial_fit_multidegrees(setup, max_total_degree):
    """Hilbert multidegrees by an exact fit in the monomial basis: solve for
    the coefficients of the polynomial of degree n = dim X_tau through the
    simplex points of total degree <= n, check it at every grid point up to
    max_total_degree, and return each top coefficient times prod k_i!, as a
    Fraction, for |k| = n.  None if the check fails."""
    n, m = setup.tau.rank, setup.m

    def hilbert(dvec):
        mu = tuple(
            sum(dvec[i] * setup.lambdas[i][j] for i in range(m))
            for j in range(setup.group.rank)
        )
        return weyl_dimension(setup.group.datum, mu)

    monomials = degree_grid(m, n)
    matrix = [[power(pt, mono) for mono in monomials] for pt in monomials]
    coeffs = solve_exact(matrix, [hilbert(pt) for pt in monomials])
    for pt in degree_grid(m, max_total_degree):
        value = sum(c * power(pt, mono) for mono, c in zip(monomials, coeffs))
        if value != hilbert(pt):
            return None
    return {
        mono: c * prod(map(factorial, mono))
        for mono, c in zip(monomials, coeffs)
        if sum(mono) == n
    }


# -- Bruhat intervals and the coset-pair poset by scans and bool matrices ------


def interval_scan(group, parabolic, top):
    """The cosets of W/W_P below `top`, by scanning every coset of W/W_P."""
    return [c for c in group.all_cosets(parabolic) if group.coset_leq(c, top)]


def underline_w_matrices(setup):
    """(nodes, gen, hull, covers) of the coset-pair poset: the nodes by
    scanning each member's quotient, the generating relation and its
    transitive hull as n x n lists of bools (gen[a][b]: node a is above
    node b), and the Hasse edges of the hull by an O(n^3) search."""
    group = setup.group
    nodes = []
    for s in setup.iposet.sets:
        for c in interval_scan(group, setup.p_of[s], group.pi(setup.tau, setup.p_of[s])):
            nodes.append((c, s))
    nodes.sort(key=lambda n: (len(n[1]), tuple(sorted(n[1])), n[0].rank, n[0].rep.index))
    n = len(nodes)

    gen = [[False] * n for _ in range(n)]
    for a, (ca, sa) in enumerate(nodes):
        max_a = group.max_lift(ca, setup.q)
        for b, (cb, sb) in enumerate(nodes):
            if a == b or not sb <= sa:
                continue
            min_b = group.min_lift(cb, setup.q)
            if group.coset_leq(min_b, max_a):
                gen[a][b] = True

    hull = [row[:] for row in gen]
    for k in range(n):
        hk = hull[k]
        for i in range(n):
            if hull[i][k]:
                hi = hull[i]
                for j in range(n):
                    if hk[j]:
                        hi[j] = True

    covers = []
    for i in range(n):
        for j in range(n):
            if not hull[i][j]:
                continue
            if any(hull[i][k] and hull[k][j] for k in range(n)):
                continue
            covers.append((nodes[i], nodes[j]))
    return nodes, gen, hull, covers


# -- queries without a library caller -------------------------------------------


def covering_relations(group, parabolic, tau):
    """All covering pairs theta > phi in W/W_P with theta <= tau, labelled by
    the index of the inversion root gamma with min(phi) s_gamma = min(theta)."""
    parabolic = frozenset(parabolic)
    top = group.pi(tau, parabolic)
    result = []
    for upper in group.all_cosets(parabolic):
        if not group.coset_leq(upper, top):
            continue
        for lower, beta_idx in group.covers_down(upper):
            result.append((upper, lower, beta_idx))
    result.sort(key=lambda t: (t[0].rank, t[0].rep.index, t[1].rep.index))
    return result


def rho_inverse(dcp, theta, iset):
    """Preimage of (theta, I) under rho; requires rho to be injective."""
    return dcp.nodes[dcp.rho_lookup[(theta.key, frozenset(iset))]]


def rho_inverse_w0(setup, theta, iset):
    """Closed-form inverse min_Q(max_{Q_I}(theta)) for the maximal tau."""
    iset = frozenset(iset)
    group = setup.group
    lifted = group.max_lift(theta, setup.q_of[iset])
    return DCPNode(group.min_lift(lifted, setup.q), iset)


# -- the Weyl group tables by the earlier build -----------------------------------


def reference_group_tables(datum):
    """Every table of WeylGroup(datum), by the earlier build: a dict from
    attribute name to value, elements as (index, matrix, length) and the
    identity, the longest element and the reflections as indices."""
    n = datum.rank
    cartan = datum.cartan
    alphas = [tuple(row[i] for row in cartan) for i in range(n)]
    keys = [(1,) * n]
    mats = [tuple(tuple(int(r == c) for c in range(n)) for r in range(n))]
    seen = {keys[0]: 0}
    bfs_right, bfs_length = [], [0]
    for w, v in enumerate(keys):  # keys grows while it is walked
        row = []
        for i, alpha in enumerate(alphas):
            u = tuple(x - v[i] * a for x, a in zip(v, alpha))
            if u not in seen:
                seen[u] = len(keys)
                keys.append(u)
                bfs_length.append(bfs_length[w] + 1)
                mats.append(tuple(
                    r[:i] + (r[i] - sum(a * x for a, x in zip(alpha, r)),) + r[i + 1:]
                    for r in mats[w]
                ))
            row.append(seen[u])
        bfs_right.append(row)
    order = len(keys)

    by_matrix = sorted(range(order), key=mats.__getitem__)
    new = {w: k for k, w in enumerate(by_matrix)}
    length = [bfs_length[w] for w in by_matrix]
    right = [tuple(new[j] for j in bfs_right[w]) for w in by_matrix]
    right_desc = [
        sum(1 << i for i, x in enumerate(row) if length[x] < length[w])
        for w, row in enumerate(right)
    ]
    words = [()] * order
    for w in sorted(range(order), key=length.__getitem__):
        if right_desc[w]:
            i = _lowest(right_desc[w])
            words[w] = words[right[w][i]] + (i + 1,)
    inv = [reduce(lambda x, i: right[x][i - 1], reversed(word), new[0]) for word in words]
    elements = [(k, mats[w], length[k]) for k, w in enumerate(by_matrix)]
    reflections = []
    for root, coroot in zip(datum.positive_roots, datum.positive_coroots):
        height = sum(coroot)
        key = tuple(1 - height * x for x in datum.root_omega_coords(root))
        reflections.append(new[seen[key]])
    return {
        "lengths": length,
        "_right": right,
        "_left": [tuple(inv[x] for x in right[inv[w]]) for w in range(order)],
        "_right_desc": right_desc,
        "_left_desc": [right_desc[inv[w]] for w in range(order)],
        "_words": words,
        "_inv": inv,
        "elements": elements,
        "identity": new[0],
        "longest": max(elements, key=lambda e: e[2])[0],
        "_reflections": reflections,
        "_root_of": {s: idx for idx, s in enumerate(reflections)},
    }


def reflection_covers(group, c):
    """covers_down(c) by a scan over the reflections: min(c) s_gamma for
    every positive root gamma, kept where it has length one less and is
    P-minimal, by rep index, each with the index of gamma."""
    result = []
    for idx in range(len(group.datum.positive_roots)):
        v = group.mult(c.rep, group.reflection(idx))
        if v.length == c.rep.length - 1 and group.is_q_minimal(v, c.parabolic):
            result.append((Coset(v, c.parabolic), idx))
    result.sort(key=lambda t: t[0].rep.index)
    return result


def lower_covers(setup, node):
    """The cover rule on objects: the (lower, kind, bond) covers of a node
    (theta, I), shrinkI covers first, then sameI covers in covers_down order.
    A sameI cover is kept by projecting both cosets to W/W_{P_I}, and its
    bond |<phi(lambda_I), beta^vee>| pairs the matrix image of lambda_I
    with the covering root beta, s_beta min(phi) = min(theta)."""
    group = setup.group
    theta, iset = node.theta, node.iset
    covers = [
        (DCPNode(theta, j), "shrinkI", 1)
        for j in setup.iposet.covers_down[iset]
        if group.is_q_minimal(theta.rep, setup.q_of[j])
    ]
    p_i, q_i = setup.p_of[iset], setup.q_of[iset]
    theta_p = group.pi(theta, p_i)
    datum, lam = group.datum, setup.lambda_of[iset]
    covers.extend(
        (DCPNode(phi, iset), "sameI", abs(datum.pairing(
            phi.rep.act(lam), datum.positive_coroots[group.covering_root(theta, phi)])))
        for phi, _ in group.covers_down(theta)
        if group.is_q_minimal(phi.rep, q_i) and group.pi(phi, p_i) != theta_p
    )
    return covers


def build_dcp_per_cover(setup):
    """The inductive build on the object cover rule, which makes a DCPNode
    for every cover it returns: the nodes and the edges, sorted as DCP
    sorts them (top down by rank, then index set, then element index)."""
    level = [DCPNode(setup.tau, setup.iposet.full)]
    nodes, edges = list(level), []
    while level:
        below = {}
        for node in level:
            for lower, kind, bond in lower_covers(setup, node):
                edges.append((node, lower, kind, bond))
                below.setdefault(lower.key, lower)
        level = list(below.values())
        nodes.extend(level)
    nodes.sort(key=lambda n: (-n.rank, len(n.iset), sorted(n.iset), n.theta.rep.index))
    position = {n.key: k for k, n in enumerate(nodes)}
    edges.sort(key=lambda e: (position[e[0].key], position[e[1].key]))
    return nodes, edges


def direct_nodes(setup):
    """The node test of the direct construction for tau = w0 W_Q, on
    objects: theta Q_I-minimal and lift-maximal over the upper parabolic of
    some covering chain from I to [m]."""
    group = setup.group
    nodes = []
    for s in setup.iposet.sets:
        uppers = [setup.q_upper_chain(chain)
                  for chain in setup.iposet.covering_chains_to_top(s)]
        for c in group.all_cosets(setup.q):
            if not group.is_q_minimal(c.rep, setup.q_of[s]):
                continue
            if any(group.is_lift_maximal(c, qr) for qr in uppers):
                nodes.append(DCPNode(c, s))
    return nodes


def _generate_root_coroot_pairs(cartan, rank):
    """All positive (root, coroot) pairs, closed under simple reflections.

    Reflections act on root coordinates via the Cartan matrix and on coroot
    coordinates via its transpose; the assignment beta -> beta^vee is
    equivariant, so generating pairs keeps them matched.
    """
    simple_pairs = [
        (
            tuple(1 if j == i else 0 for j in range(rank)),
            tuple(1 if j == i else 0 for j in range(rank)),
        )
        for i in range(rank)
    ]

    def reflect(i, pair):
        root, coroot = pair
        m = sum(cartan[i][j] * root[j] for j in range(rank))
        mv = sum(cartan[j][i] * coroot[j] for j in range(rank))
        new_root = tuple(r - (m if j == i else 0) for j, r in enumerate(root))
        new_coroot = tuple(c - (mv if j == i else 0) for j, c in enumerate(coroot))
        return new_root, new_coroot

    positive = {}
    frontier = dict(zip((p[0] for p in simple_pairs), simple_pairs))
    while frontier:
        positive.update(frontier)
        new_frontier = {}
        for pair in frontier.values():
            for i in range(rank):
                root, coroot = reflect(i, pair)
                if all(x >= 0 for x in root) and root not in positive:
                    new_frontier[root] = (root, coroot)
        frontier = new_frontier
    ordered = sorted(positive)
    return (
        tuple(ordered),
        tuple(positive[r][1] for r in ordered),
    )
