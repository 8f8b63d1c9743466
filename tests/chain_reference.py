"""References for the library, one per property.  Each entry: property
(library code) -> reference -> tests.

- Fan membership on one maximal chain -> ls_lattice_member -> test_fan's
  lattice tests and its reference_member.
- Bond-constrained lattice points on a chain -> chain_lattice_points ->
  reference_ls_paths, and test_fan's reference_fan_degree.
- LS-paths of a shape below tau (lspath.enumerate_ls_paths) ->
  reference_ls_paths, lattice points chain by chain ->
  test_lspath::test_enumeration_matches_the_chain_reference.
- A bonded walk between two cosets (lspath.bonded_chain, validate_ls_path)
  -> bonded_chain -> test_lspath::test_bonded_below_matches_bonded_chain.
- The theta round trip (fan.in_ls_plus, decompose, theta_d, theta_d_inverse;
  lspath.theta_single, theta_single_inverse, endpoint) -> the same names
  here, summing Fractions -> test_theta_reference, test_theta_sweep.
- The split of a key into parts (fan._parts), keys with zero numerators and
  patched membership included -> decompose_key, on int keys ->
  test_fan::test_the_one_pass_split_gives_the_reference_parts.
- Hilbert multidegrees (fan.hilbert_multidegrees) ->
  monomial_fit_multidegrees, a fraction-free solve (solve_exact) checked at
  every grid point -> test_fan::test_multidegrees_match_the_monomial_fit;
  solve_exact itself -> test_fan's Gauss-Jordan reference_solve.
- The Bruhat interval below a coset (lspath.ShapePoset) -> interval_scan ->
  test_lspath::test_shape_poset_nodes_are_the_interval_scan.
- The coset-pair poset (dcp.UnderlineW) -> underline_w_matrices, bool
  matrices -> test_dcp::test_underline_w_matches_the_bool_matrix_reference*.
- The covers of a bounded quotient, a query with no library caller ->
  covering_relations -> test_weyl::test_covering_relations_*, and the two
  interval tests that read the same edges, test_a2_interval_below_312 and
  test_a3_p1_quotient_is_a_chain.
- rho inverted for tau = w0 (DCP.rho_lookup) -> rho_inverse_w0, in closed
  form -> test_dcp::test_rho_inverse_closed_form_matches_search.
- The Weyl group tables (WeylGroup.__init__) -> reference_group_tables, the
  earlier build, in matrix order -> test_weyl::test_tables_match_the_reference_build,
  test_weyl::test_packed_matrices_decode_and_sort_as_the_reference_rows,
  test_weyl::test_left_products_and_inverses_by_recurrence_are_the_reference_tables.
- The covers of a coset (WeylGroup.covers_down, by the lifting property) ->
  reflection_covers, a scan over the reflections ->
  test_weyl::test_*covers_by_deletion_are_the_reflection_covers; and
  covers_by_deletion, the strong-exchange walk over the reduced word that
  the lifting recursion replaced ->
  test_weyl::test_*covers_by_lifting_are_the_deletion_covers.
- The DCP cover rule (dcp._lower_covers) -> lower_covers, on objects ->
  test_dcp::test_cover_rule_matches_the_object_reference*,
  test_dcp::test_inductive_build_makes_one_node_object_per_key.
"""

from fractions import Fraction
from functools import cache, lru_cache, reduce
from math import factorial, lcm, prod

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


@cache
def chain_lattice_points(bonds: tuple, total: int) -> tuple:
    """The coefficient tuples on a chain of len(bonds)+1 nodes (top first),
    listed once per (bonds, total).

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

    return tuple(rec(0, Fraction(0)))


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


@lru_cache(maxsize=16)
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
    if any(c < 0 for c in vec.values()):
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
    den = lcm(*(c.denominator for c in coeffs))  # the check runs on int numerators
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    for pt in degree_grid(m, max_total_degree):
        if sum(c * power(pt, mono) for mono, c in zip(monomials, nums)) != den * hilbert(pt):
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
    nodes.sort(key=lambda n: (len(n[1]), tuple(sorted(n[1])), n[0].rank, n[0].rep.packed))
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
    result.sort(key=lambda t: (t[0].rank, t[0].rep.packed, t[1].rep.packed))
    return result


def rho_inverse_w0(setup, theta, iset):
    """Closed-form inverse min_Q(max_{Q_I}(theta)) for the maximal tau."""
    iset = frozenset(iset)
    group = setup.group
    lifted = group.max_lift(theta, setup.q_of[iset])
    return DCPNode(group.min_lift(lifted, setup.q), iset)


# -- the Weyl group tables by the earlier build -----------------------------------


def reference_group_tables(datum):
    """Every table of WeylGroup(datum), by the earlier build, which numbers
    the elements in the order of their matrices: a dict from attribute name
    to value, elements as (index, matrix, length) and the identity, the
    longest element and the reflections as indices."""
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
    P-minimal, by rep matrix, each with the index of gamma."""
    result = []
    for idx in range(len(group.datum.positive_roots)):
        v = group.mult(c.rep, group.reflection(idx))
        if v.length == c.rep.length - 1 and group.is_q_minimal(v, c.parabolic):
            result.append((Coset(v, c.parabolic), idx))
    result.sort(key=lambda t: t[0].rep.packed)
    return result


def covers_by_deletion(group, c):
    """covers_down(c) by strong exchange: delete one letter j from the reduced
    word of min(c), keep the result v where it has length l - 1 and is
    P-minimal, labelled by the root of the reflection v^-1 min(c); by rep
    matrix.  O(l^2) table steps per coset."""
    right, word = group._right, group._words[c.rep.index]
    mask = sum(1 << (i - 1) for i in c.parabolic)
    result, prefix = [], 0
    for j, letter in enumerate(word):
        v = prefix
        for i in word[j + 1:]:
            v = right[v][i - 1]
        prefix = right[prefix][letter - 1]
        if group.lengths[v] == len(word) - 1 and not group._right_desc[v] & mask:
            t = group._inv[v]
            for i in word:
                t = right[t][i - 1]
            result.append((Coset(group.element(v), c.parabolic), group._root_of[t]))
    result.sort(key=lambda t: t[0].rep.packed)
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
