import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsfan.fan
from lsfan import (
    FanError,
    InvariantError,
    Setup,
    build_dcp_inductive,
    build_index_poset,
    chain_iposet,
    cli,
    decompose,
    demazure_dimension,
    enumerate_fan_degree,
    enumerate_ls_paths,
    enumerate_standard,
    fan_degree,
    fan_vector,
    hilbert_multidegrees,
    in_ls_plus,
    is_tau_standard,
    ls_tableau,
    make_group,
    multidegree_conjecture_check,
    one_line_to_word,
    powerset_iposet,
    tableau_endpoint,
    tableau_key,
    theta_d,
    theta_d_inverse,
    theta_single,
    vector_key,
    walk_standard,
    weight,
)
from lsfan.fan import degree_grid

from chain_reference import (
    chain_lattice_points,
    decompose_key,
    ls_lattice_member,
    monomial_fit_multidegrees,
    power,
    solve_exact,
)

ONE = Fraction(1)


def fs(*xs):
    return frozenset(xs)


def chain_instance(group, lambdas, tau=None):
    tau = group.longest if tau is None else tau
    setup = Setup(group, lambdas, tau, chain_iposet(len(lambdas)))
    return setup, build_dcp_inductive(setup)


# -- lattice membership -------------------------------------------------------------


def test_unit_vectors_are_members(a2):
    setup, dcp = chain_instance(a2, [(1, 0), (0, 1)])
    for node in dcp.nodes:
        assert in_ls_plus(dcp, vector_key(dcp, {node: ONE}))


def test_all_bonds_one_chain_membership_is_integrality(a3):
    setup, dcp = chain_instance(a3, [(1, 0, 0), (0, 0, 1), (0, 1, 0)])
    nodes, bonds = dcp.maximal_chains()[0]
    assert set(bonds) == {1}
    integral = {n: Fraction(k % 3) for k, n in enumerate(nodes)}
    assert ls_lattice_member(integral, nodes, bonds)
    ragged = dict(integral)
    ragged[nodes[2]] = Fraction(1, 2)
    assert not ls_lattice_member(ragged, nodes, bonds)


def test_b2_bond_two_coefficient_patterns(b2):
    setup, dcp = chain_instance(b2, [(1, 0)])
    chain = next(
        (nodes, bonds) for nodes, bonds in dcp.maximal_chains() if 2 in bonds
    )
    nodes, bonds = chain
    k = bonds.index(2)
    upper, lower = nodes[k], nodes[k + 1]
    good = {upper: Fraction(1, 2), lower: Fraction(1, 2)}
    assert ls_lattice_member(good, nodes, bonds)
    bad = {upper: Fraction(1, 3), lower: Fraction(2, 3)}
    assert not ls_lattice_member(bad, nodes, bonds)


def test_membership_requires_support_on_chain(a2):
    setup, dcp = chain_instance(a2, [(1, 0), (0, 1)])
    nodes, bonds = dcp.maximal_chains()[0]
    outside = next(n for n in dcp.nodes if n not in set(nodes))
    with pytest.raises(FanError):
        ls_lattice_member({outside: ONE}, nodes, bonds)


def test_lattice_factorizes_across_shrink_edges(b2):
    # membership on a chain holds iff it holds blockwise once the block sums
    # are integral, because bonds at index-shrinking edges are 1
    setup = Setup(b2, [(1, 0), (0, 1)], b2.longest, powerset_iposet(2))
    dcp = build_dcp_inductive(setup)
    grid = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    for nodes, bonds in dcp.maximal_chains()[:2]:
        blocks = []
        current = [0]
        for k in range(1, len(nodes)):
            if nodes[k].iset == nodes[k - 1].iset:
                current.append(k)
            else:
                blocks.append(current)
                current = [k]
        blocks.append(current)
        for trial in range(40):
            vec = {
                nodes[k]: grid[(trial + 3 * k) % len(grid)]
                for k in range(len(nodes))
            }
            whole = ls_lattice_member(vec, nodes, bonds)
            sums_integral = all(
                sum(vec[nodes[k]] for k in block).denominator == 1
                for block in blocks
            )
            blockwise = sums_integral
            if blockwise:
                for block in blocks:
                    sub_nodes = [nodes[k] for k in block]
                    sub_bonds = [bonds[k] for k in block[:-1]]
                    sub_vec = {n: vec[n] for n in sub_nodes}
                    if not ls_lattice_member(sub_vec, sub_nodes, sub_bonds):
                        blockwise = False
                        break
            assert whole == blockwise


# -- enumeration -------------------------------------------------------------------------


def test_degree_zero_is_just_zero(a2):
    setup, dcp = chain_instance(a2, [(1, 0), (0, 1)])
    assert enumerate_fan_degree(dcp, (0, 0)) == [vector_key(dcp, {})]


def test_enumeration_counts_and_membership(a2, b2):
    for group, lambdas in [
        (a2, [(1, 0), (0, 1)]),
        (a2, [(1, 1), (1, 0)]),
        (b2, [(1, 0), (0, 1)]),
    ]:
        setup, dcp = chain_instance(group, lambdas)
        for d in product(range(3), repeat=2):
            if sum(d) > 3:
                continue
            vectors = enumerate_fan_degree(dcp, d)
            mu = tuple(
                d[0] * a + d[1] * b for a, b in zip(lambdas[0], lambdas[1])
            )
            assert len(vectors) == demazure_dimension(group, mu, setup.tau)
            for key in vectors:
                assert in_ls_plus(dcp, key)
                assert fan_degree(setup, fan_vector(dcp, key)) == tuple(map(Fraction, d))


def test_pure_degree_embeds_single_shape_fan(a2):
    # LS+(d e_I) = the single-shape monoid of lambda_I, transported by rho
    setup, dcp = chain_instance(a2, [(0, 1), (1, 0)])
    group = a2
    for s, d in [(fs(1), 2), (fs(1, 2), 2)]:
        evec = setup.iposet.e_vector(s)
        dvec = tuple(d * x for x in evec)
        vectors = enumerate_fan_degree(dcp, dvec)
        lam = setup.lambda_of[s]
        paths = enumerate_ls_paths(group, lam, setup.tau, d)
        assert len(vectors) == len(paths)
        path_keys = set()
        for path in paths:
            coeffs = theta_single(path, d)
            lifted = {}
            for coset, c in coeffs.items():
                node = next(
                    n
                    for n in dcp.nodes
                    if n.iset == s and group.pi(n.theta, setup.p_of[s]) == coset
                )
                lifted[node] = c
            path_keys.add(vector_key(dcp, lifted))
        assert path_keys == set(vectors)


def test_tau312_degree_10_matches_bounded_paths(a2):
    tau = a2.from_word(one_line_to_word((3, 1, 2)))
    setup = Setup(a2, [(0, 1), (1, 0)], tau, chain_iposet(2))
    dcp = build_dcp_inductive(setup)
    vectors = enumerate_fan_degree(dcp, (1, 0))
    paths = enumerate_ls_paths(a2, setup.lambda_of[fs(1)], setup.tau, 1)
    assert len(vectors) == len(paths) == 2


# -- decomposition ---------------------------------------------------------------------


def test_degree_one_decomposes_to_itself(a2):
    setup, dcp = chain_instance(a2, [(1, 0), (0, 1)])
    for key in enumerate_fan_degree(dcp, (1, 0)) + enumerate_fan_degree(dcp, (0, 1)):
        assert decompose(dcp, key) == [fan_vector(dcp, key)]


def test_two_unit_vectors_decompose_in_support_order(a2):
    setup, dcp = chain_instance(a2, [(1, 0), (0, 1)])
    nodes, _ = dcp.maximal_chains()[0]
    same_i = [n for n in nodes if n.iset == fs(1, 2)]
    p, q = same_i[0], same_i[1]
    parts = decompose(dcp, vector_key(dcp, {p: ONE, q: ONE}))
    assert parts == [{p: ONE}, {q: ONE}]


def test_decomposition_unique_by_brute_force(a2):
    tau = a2.from_word(one_line_to_word((3, 1, 2)))
    setup = Setup(a2, [(0, 1), (1, 0)], tau, chain_iposet(2))
    dcp = build_dcp_inductive(setup)
    degree_one = []
    for s in setup.iposet.sets:
        degree_one.extend(
            fan_vector(dcp, key)
            for key in enumerate_fan_degree(dcp, setup.iposet.e_vector(s))
        )

    def orderings(vec, parts_left, acc):
        if not any(vec.values()):
            yield list(acc)
            return
        if parts_left == 0:
            return
        for part in degree_one:
            rest = dict(vec)
            ok = True
            for n, c in part.items():
                rest[n] = rest.get(n, Fraction(0)) - c
                if rest[n] < 0:
                    ok = False
                    break
            if not ok:
                continue
            if acc:
                prev_min = min(n.theta.rank + len(n.iset) for n in acc[-1])
                cur_max = max(n.theta.rank + len(n.iset) for n in part)
            yield from orderings(
                {n: c for n, c in rest.items() if c != 0}, parts_left - 1, acc + [part]
            )

    for d in [(1, 1), (2, 0), (2, 1)]:
        for key in enumerate_fan_degree(dcp, d):
            vec = fan_vector(dcp, key)
            parts = decompose(dcp, key)
            assert sum((Counter := 0) or 1 for _ in parts) == len(parts)
            # reassemble
            total = {}
            for part in parts:
                for n, c in part.items():
                    total[n] = total.get(n, Fraction(0)) + c
            assert {n: c for n, c in total.items() if c} == {
                n: c for n, c in vec.items() if c
            }
            # support ordering between consecutive parts
            for first, second in zip(parts, parts[1:]):
                lo = min(first, key=lambda n: n.theta.rank + len(n.iset))
                hi = max(second, key=lambda n: n.theta.rank + len(n.iset))
                assert dcp.leq(hi, lo)
            # each part is a fan member of total degree one
            for part in parts:
                assert in_ls_plus(dcp, vector_key(dcp, part))
                assert sum(fan_degree(setup, part)) == 1
            # uniqueness among all valid ordered decompositions
            count = 0
            for candidate in orderings(dict(vec), len(parts), []):
                good = True
                for first, second in zip(candidate, candidate[1:]):
                    lo = min(first, key=lambda n: n.theta.rank + len(n.iset))
                    hi = max(second, key=lambda n: n.theta.rank + len(n.iset))
                    if not dcp.leq(hi, lo):
                        good = False
                        break
                count += good
            assert count == 1


def test_decompose_rejects_non_members(a2):
    setup, dcp = chain_instance(a2, [(1, 0), (0, 1)])
    node = dcp.top
    keys = [vector_key(dcp, {node: Fraction(-1)}), vector_key(dcp, {node: Fraction(1, 7)})]
    # keys with a negative numerator pass every reach and sum test
    keys += [((0, -1), (1, 2)), ((0, 1), (1, -1), (2, 1))]
    for key in keys:
        assert not in_ls_plus(dcp, key)
        for split in (decompose, lsfan.fan._parts, decompose_key):
            with pytest.raises(FanError):
                split(dcp, key)


FIXTURES = Path(__file__).parent / "fixtures"
JOB_FIXTURES = sorted(
    p.stem for p in FIXTURES.glob("*.json") if "lambdas" in json.loads(p.read_text())
)
NOT_TAU_STANDARD = {"a2_tau312_chain", "a3_mixed_chain_w0"}


def split_outcome(split, dcp, key):
    """What a split gives on a key: its parts, or its error's type and text."""
    try:
        return split(dcp, key)
    except (FanError, InvariantError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", JOB_FIXTURES)
def test_the_one_pass_split_gives_the_reference_parts(name, monkeypatch):
    # _parts keeps a count of the room left in the current part; the
    # reference is the loop it replaced, which recomputed each part's end.
    # Every walked tableau of total degree <= 2, then random keys with the
    # membership check patched out, so that both splits reach their
    # invariant checks on keys that are not fan members
    setup = cli._setup_from_job(json.loads((FIXTURES / f"{name}.json").read_text()))
    dcp = build_dcp_inductive(setup)
    assert is_tau_standard(dcp) == (name not in NOT_TAU_STANDARD)
    keys = [theta_d(dcp, t) for d in product(range(3), repeat=setup.m) if sum(d) <= 2
            for t, _ in walk_standard(dcp, d)] if is_tau_standard(dcp) else []
    for key in keys:
        assert lsfan.fan._parts(dcp, key) == decompose_key(dcp, key), key

    monkeypatch.setattr(lsfan.fan, "in_ls_plus", lambda dcp, key: True)
    rng, big_l, errors = random.Random(name), dcp.big_l, set()
    for _ in range(300):
        nodes = sorted(rng.sample(range(len(dcp.nodes)), rng.randint(1, 4)))
        key = tuple((k, rng.randint(0, 2 * big_l)) for k in nodes)
        outcome = split_outcome(lsfan.fan._parts, dcp, key)
        assert outcome == split_outcome(decompose_key, dcp, key), key
        if isinstance(outcome, tuple):
            errors.add(outcome[1])
    assert "slice index sets of a fan member are not a chain" in errors
    # a slice can end at a non-integral sum only over a denominator
    assert any("ends at" in e for e in errors) == (big_l > 1)


# -- weights --------------------------------------------------------------------------


def test_weight_of_top_unit_vector(a2):
    # chain poset: the top carries the weight of underline([m])
    setup, dcp = chain_instance(a2, [(1, 0), (0, 1)])
    assert weight(setup, {dcp.top: ONE}) == setup.tau.rep.act((0, 1))
    assert weight(setup, {}) == (0, 0)
    # power set poset: the top carries the full weight
    setup_p = Setup(a2, [(1, 0), (0, 1)], a2.longest, powerset_iposet(2))
    dcp_p = build_dcp_inductive(setup_p)
    assert weight(setup_p, {dcp_p.top: ONE}) == setup_p.tau.rep.act((1, 1))


def test_weight_matches_tableau_endpoints(b2):
    setup, dcp = chain_instance(b2, [(1, 0), (0, 1)])
    for d in [(1, 0), (1, 1), (2, 1)]:
        for t in enumerate_standard(dcp, d):
            vec = fan_vector(dcp, theta_d(dcp, tableau_key(dcp, t)))
            assert weight(setup, vec) == tableau_endpoint(setup, t)


# -- theta ----------------------------------------------------------------------------


def test_theta_bijection_on_mixed_instances(a2, a3, b2):
    tau3412 = a3.from_word(one_line_to_word((3, 4, 1, 2)))
    special = [fs(1), fs(2), fs(3), fs(1, 2), fs(2, 3), fs(1, 2, 3)]
    from lsfan import build_index_poset

    tau312 = a2.from_word(one_line_to_word((3, 1, 2)))
    cases = [
        Setup(a3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], tau3412,
              build_index_poset(special, 3)),
        Setup(b2, [(0, 1), (1, 0)], b2.longest, powerset_iposet(2)),
        Setup(a2, [(0, 1), (1, 0)], tau312, powerset_iposet(2)),
    ]
    for setup in cases:
        dcp = build_dcp_inductive(setup)
        degrees = [d for d in product(range(3), repeat=setup.m) if 0 < sum(d) <= 2]
        for d in degrees:
            tabs = enumerate_standard(dcp, d)
            vecs = enumerate_fan_degree(dcp, d)
            assert len(tabs) == len(vecs)
            for t in tabs:
                vec = theta_d(dcp, tableau_key(dcp, t))
                assert ls_tableau(dcp, theta_d_inverse(dcp, vec)) == t
            assert {theta_d(dcp, tableau_key(dcp, t)) for t in tabs} == set(vecs)


def test_degenerate_weight_sequences(a2):
    # a zero weight inside the sequence, and a repeated weight
    for lambdas, degree_mu in [
        ([(1, 0), (0, 0)], lambda d: (d[0], 0)),
        ([(1, 0), (1, 0)], lambda d: (d[0] + d[1], 0)),
    ]:
        setup = Setup(a2, lambdas, a2.longest, chain_iposet(2))
        dcp = build_dcp_inductive(setup)
        for d in [(1, 0), (0, 2), (1, 1), (2, 1)]:
            tabs = enumerate_standard(dcp, d)
            vecs = enumerate_fan_degree(dcp, d)
            dim = demazure_dimension(a2, degree_mu(d), setup.tau)
            assert len(tabs) == len(vecs) == dim, (lambdas, d)


def test_maximality_is_chain_independent_on_standard_posets(a3, d4):
    # for a standard index poset, a node is maximal for the upper parabolic of
    # one covering chain iff it is for every covering chain
    from lsfan import build_index_poset

    instances = [
        Setup(a3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], a3.longest,
              powerset_iposet(3)),
        Setup(
            d4,
            [(0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0)],
            d4.longest,
            build_index_poset(
                [fs(1), fs(2), fs(1, 2), fs(1, 2, 3), fs(1, 2, 3, 4)], 4
            ),
        ),
    ]
    for setup in instances:
        group = setup.group
        for s in setup.iposet.sets:
            chains = setup.iposet.covering_chains_to_top(s)
            if len(chains) < 2:
                continue
            uppers = [setup.q_upper_chain(ch) for ch in chains]
            for c in group.all_cosets(setup.q):
                if not group.is_q_minimal(c.rep, setup.q_of[s]):
                    continue
                answers = {group.is_lift_maximal(c, qr) for qr in uppers}
                assert len(answers) == 1, (s, c)


def test_branching_posets_with_higher_bonds(a3, d4):
    # power set on three weights: bonds up to 3 appear on composite shapes
    setup = Setup(a3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], a3.longest,
                  powerset_iposet(3))
    dcp = build_dcp_inductive(setup)
    assert {b for _, _, _, b in dcp.edges} == {1, 2, 3}
    vecs = enumerate_fan_degree(dcp, (1, 1, 1))
    tabs = enumerate_standard(dcp, (1, 1, 1))
    assert len(vecs) == len(tabs) == demazure_dimension(a3, (1, 1, 1), setup.tau)
    for t in tabs[:16]:
        assert ls_tableau(dcp, theta_d_inverse(dcp, theta_d(dcp, tableau_key(dcp, t)))) == t

    # branching only at the bottom: the poset used for D-type flag varieties
    from lsfan import build_index_poset

    ip = build_index_poset(
        [fs(1), fs(2), fs(1, 2), fs(1, 2, 3), fs(1, 2, 3, 4)], 4
    )
    setup4 = Setup(
        d4,
        [(0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0)],
        d4.longest,
        ip,
    )
    dcp4 = build_dcp_inductive(setup4)
    for d in [(1, 0, 0, 0), (1, 1, 0, 0)]:
        mu = tuple(
            sum(d[i] * setup4.lambdas[i][j] for i in range(4)) for j in range(4)
        )
        vecs = enumerate_fan_degree(dcp4, d)
        tabs = enumerate_standard(dcp4, d)
        dim = demazure_dimension(d4, mu, setup4.tau)
        assert len(vecs) == len(tabs) == dim


# -- multidegrees -----------------------------------------------------------------------


def test_b2_quadric_degree_is_two(b2):
    # single weight omega_1: the 3-dim quadric has degree 2
    setup, dcp = chain_instance(b2, [(1, 0)])
    report = multidegree_conjecture_check(dcp, 3)
    assert report["dimension"] == 3
    assert report["left"] == {(3,): 2}
    assert report["agree"]


def test_a2_flag_variety_multidegrees(a2):
    setup, dcp = chain_instance(a2, [(1, 0), (0, 1)])
    report = multidegree_conjecture_check(dcp, 3)
    assert report["dimension"] == 3
    assert report["agree"]
    assert report["left"] == {(1, 2): 1, (2, 1): 1}


def test_mixed_chain_conjecture_agreement(a3):
    setup, dcp = chain_instance(a3, [(1, 0, 0), (0, 0, 1), (0, 1, 0)])
    report = multidegree_conjecture_check(dcp, 6)
    assert report["agree"]
    assert all(v >= 0 for v in report["right"].values())


def test_degenerate_point_instance():
    from lsfan import make_group

    group = make_group("A", 1)
    setup = Setup(group, [(0,)], group.longest, chain_iposet(1))
    dcp = build_dcp_inductive(setup)
    assert len(dcp.nodes) == 1
    report = multidegree_conjecture_check(dcp, 0)
    assert report["dimension"] == 0
    assert report["left"] == {(0,): 1}
    assert report["agree"]


def test_hilbert_fit_rejects_small_grid(a2):
    setup, _ = chain_instance(a2, [(1, 0), (0, 1)])
    with pytest.raises(FanError) as err:
        hilbert_multidegrees(setup, 2)
    assert "total degree at least 3" in str(err.value)


MULTIDEGREE_INSTANCES = [
    # type, rank, weights; the chain index poset and tau = w0
    ("A", 2, [(1, 0), (0, 1)]),
    ("B", 2, [(1, 0), (0, 1)]),
    ("G", 2, [(1, 0), (0, 1)]),
    ("A", 3, [(0, 0, 1), (0, 1, 0), (1, 0, 0)]),
    ("A", 3, [(1, 0, 0), (0, 0, 1), (0, 1, 0)]),
    ("B", 3, [(1, 0, 0), (0, 0, 1)]),
    ("A", 4, [(1, 0, 0, 0)] * 4),
]


@pytest.mark.parametrize("kind,rank,lambdas", MULTIDEGREE_INSTANCES)
def test_multidegrees_match_the_monomial_fit(kind, rank, lambdas):
    group = make_group(kind, rank)
    setup = Setup(group, lambdas, group.longest, chain_iposet(len(lambdas)))
    n = setup.tau.rank
    for bound in (n, n + 1):
        degrees = hilbert_multidegrees(setup, bound)
        assert degrees == monomial_fit_multidegrees(setup, bound), bound
        assert all(type(v) is int for v in degrees.values())


@pytest.mark.parametrize("at", [(1, 1), (0, 3), (2, 2)])
def test_hilbert_fit_rejects_data_that_is_not_polynomial(a2, monkeypatch, capsys, at):
    """One dimension off by one, at a point that determines the degree-3
    polynomial (|at| <= 3) or at one that only checks it (|at| = 4, then
    named), is caught on the grid up to total degree 4.  On A2 with the
    fundamental weights, the point d is the highest weight d . lambda."""
    setup, _ = chain_instance(a2, [(1, 0), (0, 1)])
    original = lsfan.fan.weyl_dimension
    monkeypatch.setattr(
        lsfan.fan, "weyl_dimension", lambda datum, mu: original(datum, mu) + (mu == at)
    )
    with pytest.raises(FanError, match="not polynomial of degree 3") as err:
        hilbert_multidegrees(setup, 4)
    if sum(at) == 4:
        assert f"at {at}" in str(err.value)
    code = cli.main([
        "conjecture", "--type", "A", "--rank", "2", "--lambda", "1,0;0,1",
        "--tau", "w0", "--iposet", "chain", "--max-total-degree", "4",
    ])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and len(err.splitlines()) == 1
    assert "not polynomial" in err


def test_conjecture_needs_totally_ordered_iposet(a2):
    setup = Setup(a2, [(1, 0), (0, 1)], a2.longest, powerset_iposet(2))
    dcp = build_dcp_inductive(setup)
    with pytest.raises(FanError):
        multidegree_conjecture_check(dcp, 3)


def reference_solve(matrix, rhs):
    """Gauss-Jordan elimination over Fraction, the solver the fraction-free
    one replaced.  It pivots on the sparsest candidate row, and a row update
    skips the columns where the pivot row is 0, to keep the fill down."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = min((r for r in range(col, n) if a[r][col] != 0),
                    key=lambda r: sum(map(bool, a[r])))
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        top = a[col] = [x * inv for x in a[col]]
        nonzero = [j for j in range(col, n + 1) if top[j]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                row, factor = a[r], a[r][col]
                for j in nonzero:
                    row[j] -= factor * top[j]
    return [a[r][n] for r in range(n)]


def test_degree_grid_walks_the_simplex_in_lexicographic_order(monkeypatch):
    for m in range(5):
        for n in range(5):
            expected = [e for e in product(range(n + 1), repeat=m) if sum(e) <= n]
            assert degree_grid(m, n) == expected, (m, n)
    # C(n + m, m) points, compared with the limit before any is listed
    monkeypatch.setattr(lsfan.fan, "GRID_LIMIT", 10)
    assert len(degree_grid(2, 3)) == 10
    with pytest.raises(ValueError, match="max_total_degree 4 gives more than 10 grid points"):
        degree_grid(2, 4)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 6), (4, 4)])
def test_fraction_free_solver_matches_the_fraction_reference(m, n):
    """The Hilbert-fit systems (simplex points against monomials), with
    random right-hand sides, in the given row order and shuffled so that
    pivoting swaps rows."""
    monomials = degree_grid(m, n)
    matrix = [[power(pt, mono) for mono in monomials] for pt in monomials]
    rng = random.Random(f"{m},{n}")
    rhs = [rng.randint(-10**6, 10**6) for _ in monomials]
    assert solve_exact(matrix, rhs) == reference_solve(matrix, rhs)
    rows = list(zip(matrix, rhs))
    rng.shuffle(rows)
    shuffled = [r for r, _ in rows]
    rhs = [rng.randint(-10**6, 10**6) for _ in rows]
    assert solve_exact(shuffled, rhs) == reference_solve(shuffled, rhs)


# -- brute-force references over maximal chains ------------------------------------------
#
# The fan and DCP.leq read the reach rows of DCP.reach (one lspath.reach_rows
# pass per denominator) and list no maximal chain.  The references below list
# them all and decide each question chain by chain, as the definitions read.

A3_WEIGHTS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
REFERENCE_INSTANCES = {
    # name: (type, rank, weights, tau word or None for w0, index poset)
    "b2_chain": ("B", 2, [(1, 0), (0, 1)], None, "chain"),
    "g2_chain": ("G", 2, [(1, 0), (0, 1)], None, "chain"),
    "a3_mixed_chain": ("A", 3, [(1, 0, 0), (0, 0, 1), (0, 1, 0)], None, "chain"),
    "a3_tau3412_branched": (
        "A", 3, A3_WEIGHTS, (2, 1, 3, 2),
        [fs(1), fs(2), fs(3), fs(1, 2), fs(2, 3), fs(1, 2, 3)],
    ),
    "a3_powerset": ("A", 3, A3_WEIGHTS, None, "powerset"),
}
REFERENCE_DEGREES = {
    "b2_chain": [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)],
    "g2_chain": [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)],
    "a3_tau3412_branched": [(1, 0, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1),
                            (2, 0, 0), (1, 1, 1), (0, 2, 1)],
    "a3_powerset": [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1),
                    (2, 0, 1)],
}


@lru_cache(maxsize=None)
def reference_instance(name):
    """(setup, dcp, maximal chains) of one reference instance."""
    kind, rank, lambdas, word, sets = REFERENCE_INSTANCES[name]
    group = make_group(kind, rank)
    tau = group.longest if word is None else group.from_word(word)
    m = len(lambdas)
    if sets == "chain":
        iposet = chain_iposet(m)
    elif sets == "powerset":
        iposet = powerset_iposet(m)
    else:
        iposet = build_index_poset(sets, m)
    setup = Setup(group, lambdas, tau, iposet)
    dcp = build_dcp_inductive(setup)
    return setup, dcp, dcp.maximal_chains()


def reference_fan_degree(setup, chains, degrees):
    """Fan vectors of each degree, chain by chain: split the chain into runs
    of constant index set, solve the triangular system for the run sums, and
    combine the bond-constrained lattice points of every run."""
    found = {d: set() for d in degrees}
    for nodes, bonds in chains:
        runs, run_bonds = [[nodes[0]]], [[]]
        for k in range(1, len(nodes)):
            if nodes[k].iset == nodes[k - 1].iset:
                runs[-1].append(nodes[k])
                run_bonds[-1].append(bonds[k - 1])
            else:
                runs.append([nodes[k]])
                run_bonds.append([])
        isets = [run[0].iset for run in runs]
        evecs = [setup.iposet.e_vector(s) for s in isets]
        for d in degrees:
            sums = []
            for k, s in enumerate(isets):
                nxt = isets[k + 1] if k + 1 < len(isets) else frozenset()
                (x,) = tuple(s - nxt)
                sums.append(d[x - 1] - sum(t for t, e in zip(sums, evecs) if e[x - 1]))
            residual = [
                d[j] - sum(t * e[j] for t, e in zip(sums, evecs)) for j in range(setup.m)
            ]
            if min(sums) < 0 or any(residual):
                continue
            per_run = [chain_lattice_points(tuple(rb), t) for rb, t in zip(run_bonds, sums)]
            for combo in product(*per_run):
                found[d].add(frozenset((n, c) for run, coeffs in zip(runs, combo)
                                       for n, c in zip(run, coeffs) if c))
    return found


@lru_cache(maxsize=None)
def chain_node_sets(name):
    """The node set of each maximal chain of a reference instance."""
    return [frozenset(nodes) for nodes, _ in reference_instance(name)[2]]


def reference_member(name, vec):
    """Non-negative, and some maximal chain holds the support and passes
    ls_lattice_member."""
    if any(c < 0 for c in vec.values()):
        return False
    support = {n for n, c in vec.items() if c != 0}
    return any(
        support <= node_set and ls_lattice_member(vec, nodes, bonds)
        for (nodes, bonds), node_set in zip(reference_instance(name)[2], chain_node_sets(name))
    )


@pytest.mark.parametrize("name", sorted(REFERENCE_DEGREES))
def test_enumeration_matches_the_chain_reference(name):
    setup, dcp, chains = reference_instance(name)
    assert {b for _, _, _, b in dcp.edges} != {1}
    expected = reference_fan_degree(setup, chains, REFERENCE_DEGREES[name])
    for d in REFERENCE_DEGREES[name]:
        vectors = enumerate_fan_degree(dcp, d)
        keys = [frozenset(fan_vector(dcp, v).items()) for v in vectors]
        assert len(keys) == len(set(keys)), d
        assert set(keys) == expected[d], d


@pytest.mark.parametrize("name", sorted(REFERENCE_DEGREES))
def test_membership_of_enumerated_vectors_matches_the_reference(name):
    _, dcp, _ = reference_instance(name)
    for d in REFERENCE_DEGREES[name][:4]:
        for key in enumerate_fan_degree(dcp, d):
            assert in_ls_plus(dcp, key) and reference_member(name, fan_vector(dcp, key))


COEFFS = [Fraction(k, q) for q in (1, 2, 3, 6) for k in range(-1, 2 * q + 1)]


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(REFERENCE_DEGREES)),
    pick=st.integers(min_value=0, max_value=10**6),
    changes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**6), st.sampled_from(COEFFS)),
        min_size=1,
        max_size=3,
    ),
)
def test_membership_of_perturbed_vectors_matches_the_reference(name, pick, changes):
    setup, dcp, _ = reference_instance(name)
    degree = REFERENCE_DEGREES[name][pick % len(REFERENCE_DEGREES[name])]
    members = enumerate_fan_degree(dcp, degree)
    vec = fan_vector(dcp, members[pick % len(members)])
    for index, coeff in changes:
        vec[dcp.nodes[index % len(dcp.nodes)]] = coeff
    assert in_ls_plus(dcp, vector_key(dcp, vec)) == reference_member(name, vec)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(REFERENCE_DEGREES)),
    pick=st.integers(min_value=0, max_value=10**6),
    entries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),
            st.sampled_from([c for c in COEFFS if c > 0]),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_membership_of_chain_supported_vectors_matches_the_reference(name, pick, entries):
    # support on one maximal chain and an integral total, so that only the
    # bond conditions between support nodes decide
    _, dcp, chains = reference_instance(name)
    nodes, _ = chains[pick % len(chains)]
    vec = {nodes[index % len(nodes)]: coeff for index, coeff in entries}
    last = max(vec, key=nodes.index)
    vec[last] += -sum(vec.values()) % 1
    assert in_ls_plus(dcp, vector_key(dcp, vec)) == reference_member(name, vec)


@pytest.mark.parametrize("name", ["b2_chain", "g2_chain", "a3_mixed_chain"])
def test_conjecture_left_side_matches_the_chain_reference(name):
    setup, dcp, chains = reference_instance(name)
    variable_of = {s: min(setup.iposet.underline[s]) for s in setup.iposet.sets}
    left = {}
    for nodes, bonds in chains:
        k = [-1] * setup.m
        for node in nodes:
            k[variable_of[node.iset] - 1] += 1
        prod = 1
        for b in bonds:
            prod *= b
        left[tuple(k)] = left.get(tuple(k), 0) + prod
    report = multidegree_conjecture_check(dcp, setup.tau.rank)
    assert report["left"] == {k: left.get(k, 0) for k in report["left"]}
    assert set(left) <= set(report["left"])


@pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
def test_leq_is_the_transitive_closure_of_the_edges(name):
    _, dcp, _ = reference_instance(name)
    below = {n: {n} for n in dcp.nodes}
    for upper, lower, _, _ in dcp.edges:
        below[upper].add(lower)
    for k in dcp.nodes:  # Warshall
        for i in dcp.nodes:
            if k in below[i]:
                below[i] |= below[k]
    for a in dcp.nodes:
        for b in dcp.nodes:
            assert dcp.leq(a, b) == (a in below[b]), (a, b)
