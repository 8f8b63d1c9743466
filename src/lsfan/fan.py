"""The LS-fan of monoids over a defining chain poset.

A fan vector is a sparse map from poset nodes to non-negative rationals whose
support lies on one maximal chain; membership in the fan is cut out by
bond-weighted partial-sum integrality along that chain.  Fan vectors of a
fixed degree biject with the standard tableaux of that degree, and the
multidegree checker compares chain/bond statistics against an exact fit of
the Hilbert polynomial computed from the dimension oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .dcp import DCP, DCPNode, Setup
from .demazure import weyl_dimension
from .lspath import chain_lattice_points, theta_single, theta_single_inverse
from .tableaux import LSTableau, make_tableau

__all__ = [
    "FanError",
    "canonical_vector",
    "fan_degree",
    "ls_lattice_member",
    "in_ls_plus",
    "enumerate_fan_degree",
    "decompose",
    "weight",
    "theta_d",
    "theta_d_inverse",
    "hilbert_multidegrees",
    "multidegree_conjecture_check",
]

FanVector = dict  # DCPNode -> Fraction


class FanError(ValueError):
    pass


def canonical_vector(vec: FanVector):
    """Hashable canonical form: (node, coefficient) pairs sorted by rank then id."""
    items = [(n, Fraction(c)) for n, c in vec.items() if c != 0]
    items.sort(key=lambda t: (-t[0].theta.rank - len(t[0].iset), _nkey(t[0])))
    return tuple(items)


def _nkey(node: DCPNode):
    return (tuple(sorted(node.iset)), node.theta.rep.matrix)


def fan_degree(setup: Setup, vec: FanVector):
    """deg(a) = sum of a_{(theta,I)} * e_I, exact."""
    total = [Fraction(0)] * setup.m
    for node, c in vec.items():
        for j, x in enumerate(setup.iposet.e_vector(node.iset)):
            total[j] += Fraction(c) * x
    return tuple(total)


def ls_lattice_member(vec: FanVector, chain_nodes, chain_bonds) -> bool:
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


def in_ls_plus(dcp: DCP, vec: FanVector) -> bool:
    """Membership in the fan: non-negative, and lattice-compatible with some
    maximal chain containing the support."""
    if any(Fraction(c) < 0 for c in vec.values()):
        return False
    support = {n for n, c in vec.items() if c != 0}
    if not support:
        return True
    for nodes, bonds in dcp.maximal_chains():
        if support <= set(nodes):
            if ls_lattice_member(vec, nodes, bonds):
                return True
    return False


def _chain_runs(setup: Setup, nodes, bonds):
    """Split a maximal chain into runs of constant index set.

    Returns (runs, run_bonds) where runs[k] is the node list of the k-th run
    (top first) and run_bonds[k] the bonds of its internal edges.
    """
    runs = [[nodes[0]]]
    run_bonds = [[]]
    for k in range(1, len(nodes)):
        if nodes[k].iset == nodes[k - 1].iset:
            runs[-1].append(nodes[k])
            run_bonds[-1].append(bonds[k - 1])
        else:
            runs.append([nodes[k]])
            run_bonds.append([])
    return runs, run_bonds


def _run_sums(setup: Setup, isets, d):
    """Solve sum_k s_k e_{I_k} = d for the run index sets of one chain.

    The index sets drop one element per step, which makes the system
    triangular; returns the unique solution or None if it leaves N_0^m.
    """
    m = setup.m
    dropped = []
    for k, s in enumerate(isets):
        nxt = isets[k + 1] if k + 1 < len(isets) else frozenset()
        (x,) = tuple(s - nxt)
        dropped.append(x)
    evecs = [setup.iposet.e_vector(s) for s in isets]
    sums = [0] * len(isets)
    for k, x in enumerate(dropped):
        val = d[x - 1] - sum(
            sums[l] for l in range(k) if evecs[l][x - 1]
        )
        if val < 0:
            return None
        sums[k] = val
    residual = list(d)
    for k, e in enumerate(evecs):
        for j in range(m):
            residual[j] -= sums[k] * e[j]
    if any(residual):
        return None
    return sums


def enumerate_fan_degree(dcp: DCP, d):
    """All fan vectors of degree d, duplicate-free across maximal chains."""
    setup = dcp.setup
    d = tuple(d)
    if len(d) != setup.m or any(x < 0 for x in d):
        raise FanError(f"{d} is not a degree vector of length {setup.m}")
    found = {}
    seen_signatures = set()
    for nodes, bonds in dcp.maximal_chains():
        runs, run_bonds = _chain_runs(setup, nodes, bonds)
        sums = _run_sums(setup, [r[0].iset for r in runs], d)
        if sums is None:
            continue
        # chains that agree on the blocks carrying mass yield the same vectors
        signature = tuple(
            (tuple(run), tuple(rb), s)
            for run, rb, s in zip(runs, run_bonds, sums)
            if s > 0
        )
        if signature in seen_signatures:
            continue
        seen_signatures.add(signature)
        per_run = [
            list(chain_lattice_points(rb, s)) for rb, s in zip(run_bonds, sums)
        ]
        for combo in product(*per_run):
            vec = {}
            for run, coeffs in zip(runs, combo):
                for node, c in zip(run, coeffs):
                    if c != 0:
                        vec[node] = vec.get(node, Fraction(0)) + c
            found[canonical_vector(vec)] = vec
    return list(found.values())


def decompose(dcp: DCP, vec: FanVector):
    """Unique decomposition into fan vectors of total degree one, ordered so
    that the support of each part lies weakly above the support of the next."""
    setup = dcp.setup
    if not in_ls_plus(dcp, vec):
        raise FanError("vector is not a member of the fan")
    slices: dict[frozenset, dict] = {}
    for node, c in vec.items():
        if c != 0:
            slices.setdefault(node.iset, {})[node] = Fraction(c)
    isets = sorted(slices, key=lambda s: -len(s))
    for a, b in zip(isets, isets[1:]):
        if not b < a:
            raise FanError("slice index sets do not form a chain")
    parts = []
    for s in isets:
        sl = slices[s]
        total = sum(sl.values())
        assert total.denominator == 1
        count = int(total)
        buckets = [dict() for _ in range(count)]
        cum = Fraction(0)
        for node in sorted(sl, key=lambda n: -n.theta.rank):
            remaining = sl[node]
            while remaining > 0:
                k = int(cum)  # bucket holding cumulative mass [k, k+1)
                take = min(remaining, k + 1 - cum)
                buckets[k][node] = buckets[k].get(node, Fraction(0)) + take
                cum += take
                remaining -= take
        parts.extend(buckets)
    return parts


def weight(setup: Setup, vec: FanVector):
    """wt(a) = sum of a_{(theta,I)} * theta(lambda_I), exact and integral."""
    total = [Fraction(0)] * setup.group.rank
    for node, c in vec.items():
        lam = setup.lambda_of[node.iset]
        img = node.theta.rep.act(lam)
        for j in range(setup.group.rank):
            total[j] += Fraction(c) * img[j]
    if any(x.denominator != 1 for x in total):
        raise AssertionError(f"non-integral fan weight {total}")
    return tuple(int(x) for x in total)


def theta_d(dcp: DCP, tableau: LSTableau):
    """Fan vector of a standard tableau: sum of the column vectors, each
    transported into its slice of the poset through the rho lookup; raises
    NotStandardError when rho is not injective."""
    if tableau.shapes is None:
        raise FanError("theta_d needs a tableau typed by the index poset")
    inverse = dcp.rho_lookup()
    vec: FanVector = {}
    for path, s in zip(tableau.columns, tableau.shapes):
        for coset, c in theta_single(path, 1).items():
            node = inverse.get((coset, s))
            if node is None:
                raise FanError(f"column coset {coset} has no node in slice {set(s)}")
            vec[node] = vec.get(node, Fraction(0)) + c
    return vec


def theta_d_inverse(dcp: DCP, vec: FanVector) -> LSTableau:
    """Tableau of a fan vector, via the unique degree-one decomposition."""
    setup = dcp.setup
    group = setup.group
    columns = []
    shapes = []
    for part in decompose(dcp, vec):
        (s,) = {node.iset for node in part}
        coeffs = {}
        for node, c in part.items():
            coset = group.pi(node.theta, setup.p_of[s])
            coeffs[coset] = coeffs.get(coset, Fraction(0)) + c
        columns.append(theta_single_inverse(group, coeffs, setup.lambda_of[s]))
        shapes.append(s)
    return make_tableau(setup, columns, shapes)


# -- multidegrees ---------------------------------------------------------------


def _monomials(m, n):
    """Exponent tuples in m variables of total degree <= n, lexicographic."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], n)
    return out


def _solve_exact(matrix, rhs):
    """Gaussian elimination over the rationals; matrix must be square and
    invertible."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def hilbert_multidegrees(setup: Setup, max_total_degree: int):
    """Leading coefficients of the Hilbert polynomial, factorial-normalized.

    The Hilbert function d -> dim V(d . lambda) (dimension oracle) is fitted
    exactly on the simplex grid of total degree dim X_tau; remaining grid
    points up to max_total_degree verify the fit.  Returns a dict k -> degree
    over tuples with |k| = dim X_tau.
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

    def hilbert(dvec):
        mu = tuple(
            sum(dvec[i] * setup.lambdas[i][j] for i in range(m))
            for j in range(setup.group.rank)
        )
        return weyl_dimension(setup.group.datum, mu)

    monomials = _monomials(m, n)
    points = _monomials(m, n)  # the simplex principal lattice is unisolvent
    matrix = [
        [_power(pt, mono) for mono in monomials] for pt in points
    ]
    rhs = [hilbert(pt) for pt in points]
    coeffs = dict(zip(monomials, _solve_exact(matrix, rhs)))

    for pt in _monomials(m, max_total_degree):
        value = sum(c * _power(pt, mono) for mono, c in coeffs.items())
        if value != hilbert(pt):
            raise FanError(
                f"dimension data at {pt} is not polynomial of degree {n}; "
                "the fit cannot be trusted"
            )

    degrees = {}
    for mono in monomials:
        if sum(mono) == n:
            value = coeffs[mono]
            for k in mono:
                for f in range(2, k + 1):
                    value *= f
            assert value.denominator == 1
            degrees[mono] = int(value)
    return degrees


def _power(point, exponents):
    out = 1
    for x, e in zip(point, exponents):
        out *= x**e
    return out


def multidegree_conjecture_check(setup: Setup, dcp: DCP, max_total_degree: int):
    """Compare bond-weighted chain counts against the Hilbert multidegrees.

    For a totally ordered index poset, each maximal chain of the poset is
    typed by how many nodes it has per member; the left side sums the product
    of all bonds over chains of each type, the right side takes the exact
    Hilbert fit.  Returns a report dict; agreement is reported, not asserted.
    """
    iposet = setup.iposet
    chain_sets = sorted(iposet.sets, key=len)
    for a, b in zip(chain_sets, chain_sets[1:]):
        if not a < b:
            raise FanError("the conjecture checker needs a totally ordered index poset")
    variable_of = {}
    for s in chain_sets:
        (x,) = tuple(iposet.underline[s])
        variable_of[s] = x

    left: dict[tuple, int] = {}
    for nodes, bonds in dcp.maximal_chains():
        count = {s: 0 for s in chain_sets}
        for node in nodes:
            count[node.iset] += 1
        ktuple = [0] * setup.m
        for s in chain_sets:
            ktuple[variable_of[s] - 1] = count[s] - 1
        ktuple = tuple(ktuple)
        prod = 1
        for b in bonds:
            prod *= b
        left[ktuple] = left.get(ktuple, 0) + prod

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
