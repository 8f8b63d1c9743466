import json
from fractions import Fraction
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsfan import (
    Coset,
    DCPNode,
    IndexPosetError,
    InvariantError,
    LiftError,
    LSPath,
    NotStandardError,
    Setup,
    UnderlineW,
    build_dcp_direct_w0,
    build_dcp_inductive,
    build_index_poset,
    build_root_datum,
    chain_criteria,
    chain_iposet,
    defining_chain_extremes,
    is_tau_standard,
    make_group,
    make_tableau,
    max_defining_chain,
    min_defining_chain,
    one_line_to_word,
    powerset_iposet,
    rho,
    tableau_key,
    tau_standardness_report,
    theta_d,
    totally_ordered_exists,
    triangle_down,
    triangle_up,
    word_to_one_line,
)

import lsfan.dcp
from lsfan import cli

from chain_reference import (
    lower_covers,
    rho_inverse_w0,
    underline_w_matrices,
)
from w0_grid import GRID, grid_builds, grid_setup

FIXTURES = Path(__file__).parent / "fixtures"
JOB_FIXTURES = sorted(
    p for p in FIXTURES.glob("*.json") if "lambdas" in json.loads(p.read_text())
)
# every job fixture, and the two largest DCPs of the benchmark
RULE_JOBS = {p.stem: json.loads(p.read_text()) for p in JOB_FIXTURES} | {
    "f4_chain": {"type": "F", "rank": 4, "lambdas": "1,0,0,0;0,0,0,1",
                 "tau": "w0", "iposet": "chain"},
    "b4_powerset": {"type": "B", "rank": 4, "lambdas": "1,0,0,0;0,1,0,0;0,0,0,1",
                    "tau": "w0", "iposet": "powerset"},
}

ALL = frozenset()
W1, W2, W3 = (1, 0), (0, 1), (1, 1)


def perm_elt(group, line):
    return group.from_word(one_line_to_word(line))


def one_line(group, c):
    return word_to_one_line(group.reduced_word(c.rep), group.rank + 1)


def fs(*xs):
    return frozenset(xs)


# -- index posets -----------------------------------------------------------------


def test_totally_ordered_iposet():
    ip = chain_iposet(4)
    for k in range(2, 5):
        assert ip.underline[fs(*range(1, k + 1))] == fs(k)
    assert ip.underline[fs(1)] == fs(1)


def test_powerset_iposet_underline():
    ip = powerset_iposet(3)
    for s in ip.sets:
        if len(s) == 1:
            assert ip.underline[s] == s
        else:
            assert ip.underline[s] == s  # union of s - k over all maximal subsets


def test_e_type_example_poset_is_valid():
    sets = [fs(1), fs(2), fs(3), fs(1, 2), fs(2, 3), fs(1, 2, 3), fs(1, 2, 3, 4)]
    ip = build_index_poset(sets, 4)
    assert ip.underline[fs(1, 2, 3)] == fs(1, 3)
    assert ip.underline[fs(1, 2, 3, 4)] == fs(4)


def test_iposet_missing_full_set_rejected():
    with pytest.raises(IndexPosetError):
        build_index_poset([fs(1), fs(2)], 2)


def test_iposet_not_graded_rejected():
    with pytest.raises(IndexPosetError):
        build_index_poset([fs(1), fs(1, 2, 3)], 3)
    with pytest.raises(IndexPosetError):
        build_index_poset([fs(1, 2), fs(1, 2, 3)], 3)


def test_iposet_closure_condition_rejected():
    # underline({1,2}) = {2} is contained in {2,3} but {1,2} is not
    with pytest.raises(IndexPosetError) as err:
        build_index_poset([fs(1), fs(3), fs(1, 2), fs(2, 3), fs(1, 2, 3)], 3)
    assert "closure" in str(err.value)


def all_pairs_covers(sets):
    """The reference for IndexPoset's validation: the covers of each member
    by the all-pairs rule (t below s with no member between), or the error
    kind, "graded" when a minimal member is not a singleton or a cover skips
    a size, and "closure" when the closure condition fails."""
    covers = {s: {t for t in sets if t < s and not any(t < u < s for u in sets)} for s in sets}
    if any(len(s) != 1 for s in sets if not covers[s]) or any(
            len(s) != len(t) + 1 for s in sets for t in covers[s]):
        return "graded"
    underline = {s: frozenset().union(*(s - t for t in covers[s])) or s for s in sets}
    if any(underline[j] <= i and not j <= i for j in sets for i in sets):
        return "closure"
    return covers


def test_iposet_with_one_cover_each_way_is_still_not_graded():
    # every member has a cover one size up and one size down, but {1} lies
    # under {1,2,3} on no chain of covers
    sets = [fs(1), fs(2), fs(3), fs(4), fs(1, 4), fs(2, 3), fs(1, 2, 3), fs(1, 2, 4),
            fs(1, 2, 3, 4)]
    assert all_pairs_covers(set(sets)) == "graded"
    with pytest.raises(IndexPosetError, match=r"covering \{1\} < \{1, 2, 3\} skips"):
        build_index_poset(sets, 4)


@st.composite
def collections(draw):
    """(m, members) for m = 4 or 5: the full set, and the prefixes of a few
    orders of [m] (a union of chains, graded) with random members toggled."""
    m = draw(st.sampled_from((4, 5)))
    proper = [frozenset(c) for k in range(1, m) for c in combinations(range(1, m + 1), k)]
    orders = draw(st.lists(st.permutations(range(1, m + 1)), max_size=3))
    flips = draw(st.sets(st.sampled_from(proper), max_size=draw(st.sampled_from((2, 8, 30)))))
    chains = {frozenset(order[:k]) for order in orders for k in range(1, m)}
    return m, (chains ^ flips) | {frozenset(range(1, m + 1))}


@settings(max_examples=200, deadline=None)
@given(collections())
def test_iposet_covers_and_verdict_match_the_all_pairs_rule(collection):
    m, sets = collection
    expected = all_pairs_covers(sets)
    try:
        ip = build_index_poset(sets, m)
    except IndexPosetError as err:
        assert expected == ("closure" if "closure" in str(err) else "graded"), (sets, err)
        return
    assert {s: set(ip.covers_down[s]) for s in ip.sets} == expected


def chains_by_rescan(iposet, s):
    """The covering chains from s up to [m], by a recursion that rescans
    every member for the covers of each step."""
    if s == iposet.full:
        return [(s,)]
    return [(s,) + chain for t in iposet.sets if s in iposet.covers_down[t]
            for chain in chains_by_rescan(iposet, t)]


def test_maximal_chains_of_index_poset():
    ip = build_index_poset([fs(1), fs(2), fs(1, 2)], 2)
    chains = {
        tuple(tuple(sorted(s)) for s in reversed(chain))
        for s in ip.sets for chain in chains_by_rescan(ip, s) if len(s) == 1
    }
    assert chains == {((1, 2), (1,)), ((1, 2), (2,))}


BRANCHED_POSETS = [job["iposet"] for job in RULE_JOBS.values()
                   if isinstance(job["iposet"], list)]
BRANCHED_POSETS.append(json.loads((FIXTURES / "branched_index_poset_m4.json").read_text())["sets"])


@pytest.mark.parametrize("sets", [None] + BRANCHED_POSETS)
def test_covering_chains_match_the_rescan_in_order(sets):
    ip = powerset_iposet(5) if sets is None else build_index_poset(
        [frozenset(s) for s in sets], max(map(max, sets)))
    for s in ip.sets:
        expected = chains_by_rescan(ip, s)
        assert ip.covering_chains_to_top(s) == expected, s
        assert ip.covering_chains_to_top(s) == expected, s  # the memo, read again
    # the count of a standardness report's entries is the rescan's, unlisted
    assert ip.covering_chain_count() == sum(len(chains_by_rescan(ip, s)) for s in ip.sets)


def test_criteria_run_once_per_member_and_upper_parabolic(a3, monkeypatch):
    names, calls = ("_criterion_min_max", "_criterion_subgroup", "_criterion_dynkin"), []
    for name in names:
        monkeypatch.setattr(lsfan.dcp, name, lambda *a, name=name, run=getattr(lsfan.dcp, name):
                            calls.append(name) or run(*a))
    a1 = make_group("A", 1)
    for setup in (Setup(a1, [(1,)] * 5, a1.longest, powerset_iposet(5)),
                  Setup(a3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], a3.longest, powerset_iposet(3))):
        calls.clear()
        dcp = build_dcp_inductive(setup)
        report = tau_standardness_report(dcp)
        pairs = {(s, chain) for s in setup.iposet.sets
                 for chain in chains_by_rescan(setup.iposet, s)}
        distinct = {(s, setup.q_upper_chain(chain)) for s, chain in pairs}
        assert set(report.criteria) == distinct and len(distinct) < len(pairs)
        assert sorted(calls) == sorted(names * len(distinct))
        # the report's values, listed per (member, covering chain)
        listed = chain_criteria(dcp)
        assert set(listed) == pairs
        assert all(v == report.criteria[s, setup.q_upper_chain(c)] for (s, c), v in listed.items())


def test_upper_parabolics_are_those_of_the_listed_chains(a3):
    # the pass down the upper covers gives each member the distinct Q^r of
    # its covering chains, on every index poset of [3], for w0 and a smaller tau
    members = [frozenset(c) for k in (1, 2) for c in combinations((1, 2, 3), k)]
    lambdas = [(1, 0, 0), (0, 1, 0), (1, 0, 0)]
    taus = (a3.longest, a3.from_word((2, 1, 3, 2)))
    posets = 0
    for k in range(len(members) + 1):
        for sets in combinations(members, k):
            try:
                ip = build_index_poset([*sets, fs(1, 2, 3)], 3)
            except IndexPosetError:
                continue
            posets += 1
            for tau in taus:
                setup = Setup(a3, lambdas, tau, ip)
                for s in ip.sets:
                    listed = {setup.q_upper_chain(c) for c in chains_by_rescan(ip, s)}
                    assert set(setup.upper_parabolics[s]) == listed, (ip.sets, s)
                    assert len(setup.upper_parabolics[s]) == len(listed)
    assert posets == 22


# -- setup ------------------------------------------------------------------------


def test_q_tau_is_largest_parabolic_fixing_tau_maximal(a2, b2):
    for group in (a2, b2):
        setup_parabolics = [frozenset(), fs(1), fs(2)]
        for q in setup_parabolics:
            for tau in group.all_cosets(q):
                # brute force over parabolics containing q
                rest = [i for i in group.datum.simple_indices if i not in q]
                best = set(q)
                for k in range(len(rest) + 1):
                    for extra in combinations(rest, k):
                        qp = q | frozenset(extra)
                        if group.max_lift(group.pi(tau, qp), q) == tau:
                            best |= qp
                lam = tuple(0 if i in q else 1 for i in group.datum.simple_indices)
                setup = Setup(group, [lam], tau, chain_iposet(1))
                assert setup.q_tau == frozenset(best)
                assert group.max_lift(group.pi(tau, setup.q_tau), q) == tau


# -- the coset-pair poset ----------------------------------------------------------


def test_small_example_is_a_five_chain(a2):
    tau = perm_elt(a2, (3, 1, 2))
    setup = Setup(a2, [W2, W1], tau, chain_iposet(2))
    uw = UnderlineW(setup)
    assert len(uw.nodes) == 5
    assert uw.generating_is_transitive
    # linear order: (3,[2]) > (2,[2]) > (1,[2]) > (13,[1]) > (12,[1])
    for a in uw.nodes:
        for b in uw.nodes:
            assert uw.geq(a, b) or uw.geq(b, a)


def mixed_chain_setup(a3):
    return Setup(
        a3, [(1, 0, 0), (0, 0, 1), (0, 1, 0)], a3.longest, chain_iposet(3)
    )


def wnode(setup, uw, prefix, s):
    group = setup.group
    k = ({1, 2, 3} - setup.p_of[s]).pop()
    for c, t in uw.nodes:
        if t == s and set(one_line(group, c)[:k]) == set(prefix):
            return (c, t)
    raise KeyError((prefix, s))


def test_mixed_chain_pair_poset_and_nontransitivity(a3):
    setup = mixed_chain_setup(a3)
    uw = UnderlineW(setup)
    assert len(uw.nodes) == 14
    assert not uw.generating_is_transitive
    n12 = wnode(setup, uw, (1, 2), fs(1, 2, 3))
    n124 = wnode(setup, uw, (1, 2, 4), fs(1, 2))
    n4 = wnode(setup, uw, (4,), fs(1))
    assert uw.generating_geq(n12, n124)
    assert uw.generating_geq(n124, n4)
    assert not uw.generating_geq(n12, n4)
    assert uw.geq(n12, n4)


def test_mixed_chain_pair_poset_cover_edges(a3):
    setup = mixed_chain_setup(a3)
    uw = UnderlineW(setup)
    I1, I2, I3 = fs(1), fs(1, 2), fs(1, 2, 3)
    node = lambda p, s: wnode(setup, uw, p, s)
    expected = {
        (node((3, 4), I3), node((2, 4), I3)),
        (node((2, 4), I3), node((1, 4), I3)),
        (node((1, 4), I3), node((1, 3), I3)),
        (node((2, 4), I3), node((2, 3), I3)),
        (node((2, 3), I3), node((1, 3), I3)),
        (node((1, 3), I3), node((1, 2), I3)),
        (node((2, 3, 4), I2), node((1, 3, 4), I2)),
        (node((1, 3, 4), I2), node((1, 2, 4), I2)),
        (node((1, 2, 4), I2), node((1, 2, 3), I2)),
        (node((4,), I1), node((3,), I1)),
        (node((3,), I1), node((2,), I1)),
        (node((2,), I1), node((1,), I1)),
        (node((2, 3), I3), node((2, 3, 4), I2)),
        (node((1, 3), I3), node((1, 3, 4), I2)),
        (node((1, 2), I3), node((1, 2, 4), I2)),
        (node((1, 2, 4), I2), node((4,), I1)),
        (node((1, 2, 3), I2), node((3,), I1)),
    }
    assert set(uw.covers()) == expected


def test_relation_criterion_equivalence(a3):
    # max_Q(theta) >= min_Q(phi)  iff  pi_{P_J}(max_{Q_I}(theta)) >= phi
    setup = mixed_chain_setup(a3)
    uw = UnderlineW(setup)
    group = a3
    for ca, sa in uw.nodes:
        for cb, sb in uw.nodes:
            if not sb <= sa:
                continue
            direct = group.coset_leq(
                group.min_lift(cb, setup.q), group.max_lift(ca, setup.q)
            )
            via_qi = group.coset_leq(
                cb, group.pi(group.max_lift(ca, setup.q_of[sa]), setup.p_of[sb])
            )
            assert direct == via_qi


@pytest.mark.parametrize("path", JOB_FIXTURES, ids=lambda p: p.stem)
def test_underline_w_matches_the_bool_matrix_reference(path):
    setup = cli._setup_from_job(json.loads(path.read_text()))
    uw = UnderlineW(setup)
    nodes, gen, hull, covers = underline_w_matrices(setup)
    as_rows = lambda matrix: [sum(1 << b for b, x in enumerate(row) if x) for row in matrix]
    assert uw.nodes == nodes
    assert uw._gen == as_rows(gen)
    assert uw._hull == as_rows(hull)
    assert uw.covers() == covers
    assert uw.generating_is_transitive == (gen == hull)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_underline_w_matches_the_bool_matrix_reference_on_random_setups(data):
    # UnderlineW compares min(theta_b) with max(theta_a) in W, the reference
    # their lifts in W/W_Q
    setup = draw_setup(data)
    uw = UnderlineW(setup)
    nodes, gen, hull, _ = underline_w_matrices(setup)
    assert uw.nodes == nodes
    assert uw._gen == [sum(1 << b for b, x in enumerate(row) if x) for row in gen]
    assert uw._hull == [sum(1 << b for b, x in enumerate(row) if x) for row in hull]


# -- defining chain posets ------------------------------------------------------------


def tau312_setup(a2):
    return Setup(a2, [W2, W1], perm_elt(a2, (3, 1, 2)), chain_iposet(2))


def dcp_shorthand(setup, dcp):
    group = setup.group
    return {
        (
            "".join(map(str, one_line(group, n.theta))),
            tuple(sorted(n.iset)),
        )
        for n in dcp.nodes
    }


def test_tau312_poset_nodes_and_edges(a2):
    setup = tau312_setup(a2)
    dcp = build_dcp_inductive(setup)
    assert dcp_shorthand(setup, dcp) == {
        ("312", (1, 2)),
        ("132", (1, 2)),
        ("213", (1, 2)),
        ("123", (1, 2)),
        ("132", (1,)),
        ("123", (1,)),
    }
    edges = {
        (
            "".join(map(str, one_line(setup.group, u.theta))),
            tuple(sorted(u.iset)),
            "".join(map(str, one_line(setup.group, l.theta))),
            tuple(sorted(l.iset)),
        )
        for u, l, _, _ in dcp.edges
    }
    assert edges == {
        ("312", (1, 2), "132", (1, 2)),
        ("312", (1, 2), "213", (1, 2)),
        ("213", (1, 2), "123", (1, 2)),
        ("132", (1, 2), "132", (1,)),
        ("123", (1, 2), "123", (1,)),
        ("132", (1,), "123", (1,)),
    }
    assert all(bond == 1 for _, _, _, bond in dcp.edges)




MIXED_CHAIN_NODES = {
    ("4321", 3), ("4231", 3), ("4132", 3), ("3241", 3), ("3142", 3), ("2143", 3),
    ("4231", 2), ("4132", 2), ("4123", 2), ("3124", 2), ("3241", 2), ("3142", 2),
    ("2143", 2), ("2134", 2),
    ("4123", 1), ("3124", 1), ("2134", 1), ("1234", 1),
}

MIXED_CHAIN_EDGES = {
    ("4321", 3, "4231", 3), ("4231", 3, "4132", 3), ("4231", 3, "3241", 3),
    ("4132", 3, "3142", 3), ("3241", 3, "3142", 3), ("3142", 3, "2143", 3),
    ("4231", 3, "4231", 2), ("4231", 2, "4132", 2), ("4132", 2, "4123", 2),
    ("4123", 2, "3124", 2), ("3241", 3, "3241", 2), ("3241", 2, "3142", 2),
    ("3142", 2, "2143", 2), ("2143", 2, "2134", 2), ("4123", 2, "4123", 1),
    ("4123", 1, "3124", 1), ("3124", 1, "2134", 1), ("2134", 1, "1234", 1),
    ("2143", 3, "2143", 2), ("3142", 3, "3142", 2), ("3142", 2, "3124", 2),
    ("3124", 2, "3124", 1), ("2134", 2, "2134", 1), ("4132", 3, "4132", 2),
}


def test_mixed_chain_poset_nodes_edges_bonds(a3):
    setup = mixed_chain_setup(a3)
    dcp = build_dcp_inductive(setup)
    got_nodes = {
        ("".join(map(str, one_line(a3, n.theta))), len(n.iset)) for n in dcp.nodes
    }
    assert got_nodes == MIXED_CHAIN_NODES
    got_edges = {
        (
            "".join(map(str, one_line(a3, u.theta))),
            len(u.iset),
            "".join(map(str, one_line(a3, l.theta))),
            len(l.iset),
        )
        for u, l, _, _ in dcp.edges
    }
    assert got_edges == MIXED_CHAIN_EDGES
    assert all(bond == 1 for _, _, _, bond in dcp.edges)


def test_direct_construction_rejects_non_maximal_tau(a2):
    setup = tau312_setup(a2)
    with pytest.raises(ValueError):
        build_dcp_direct_w0(setup)


def test_single_weight_dcp_is_bruhat_interval(b2):
    lam = (1, 1)
    tau = b2.coset(b2.from_word((1, 2, 1)), frozenset())
    setup = Setup(b2, [lam], tau, chain_iposet(1))
    dcp = build_dcp_inductive(setup)
    interval = {c for c in b2.all_cosets(frozenset()) if b2.coset_leq(c, tau)}
    assert {n.theta for n in dcp.nodes} == interval
    assert all(n.iset == fs(1) for n in dcp.nodes)


@pytest.mark.parametrize("name,lambdas,kind", GRID)
def test_inductive_equals_direct_on_w0_grid(request, name, lambdas, kind):
    ind, direct = grid_builds(request, name, lambdas, kind)
    assert set(ind.nodes) == set(direct.nodes)
    assert set(ind.edges) == set(direct.edges)


@pytest.mark.parametrize("name,lambdas,kind", GRID[:10])
def test_dcp_structural_invariants(request, name, lambdas, kind):
    setup = grid_setup(request, name, lambdas, kind)
    group = setup.group
    dcp = build_dcp_inductive(setup)
    top_rank = setup.tau.rank + setup.m - 1
    assert dcp.top.rank == top_rank
    has_upper_cover = {lower for _, lower, _, _ in dcp.edges}
    for n in dcp.nodes:
        assert n.rank == n.theta.rank + len(n.iset) - 1
        assert group.is_q_minimal(n.theta.rep, setup.q_of[n.iset])
        # every node reaches a minimal node and is reached from the top
        if n != dcp.top:
            assert n in has_upper_cover
        if n.rank > 0:
            assert dcp.covers_down[dcp.position[n.key]]
    # corollary: pushing a node down any subset stays in the poset, below it
    node_set = set(dcp.nodes)
    for n in dcp.nodes:
        for j in setup.iposet.sets:
            if j <= n.iset:
                pushed = DCPNode(
                    group.min_lift(group.pi(n.theta, setup.q_of[j]), setup.q), j
                )
                assert pushed in node_set
                assert dcp.leq(pushed, n)


def reachability_nodes(setup):
    """Membership oracle: theta Q_I-minimal plus a projection-faithful chain
    of covering relations from (tau, [m]), searched over the ambient product
    poset without any minimality filtering along the way."""
    group = setup.group
    interval = [
        c for c in group.all_cosets(setup.q) if group.coset_leq(c, setup.tau)
    ]
    start = (setup.tau, setup.iposet.full)
    reached = {start}
    frontier = [start]
    while frontier:
        new_frontier = []
        for theta, iset in frontier:
            p_i = setup.p_of[iset]
            theta_p = group.pi(theta, p_i)
            for phi, _ in group.covers_down(theta):
                if group.pi(phi, p_i) != theta_p:
                    nxt = (phi, iset)
                    if nxt not in reached:
                        reached.add(nxt)
                        new_frontier.append(nxt)
            for j in setup.iposet.covers_down[iset]:
                nxt = (theta, j)
                if nxt not in reached:
                    reached.add(nxt)
                    new_frontier.append(nxt)
        frontier = new_frontier
    return {
        DCPNode(theta, iset)
        for theta, iset in reached
        if group.is_q_minimal(theta.rep, setup.q_of[iset])
    }


@pytest.mark.parametrize("name,lambdas,kind", [GRID[1], GRID[2], GRID[5], GRID[9]])
def test_inductive_nodes_match_reachability_oracle(request, name, lambdas, kind):
    setup = grid_setup(request, name, lambdas, kind)
    dcp = build_dcp_inductive(setup)
    assert set(dcp.nodes) == reachability_nodes(setup)


def test_reachability_oracle_on_a_non_maximal_tau(a2):
    setup = tau312_setup(a2)
    dcp = build_dcp_inductive(setup)
    assert set(dcp.nodes) == reachability_nodes(setup)


# -- node identity ------------------------------------------------------------------


def test_cosets_compare_by_rep_and_parabolic(a3):
    w = perm_elt(a3, (3, 1, 2, 4))
    a = a3.coset(w, fs(2))
    b = Coset(a3.elements()[a.rep.index], frozenset([2]))
    assert a is not b and a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    # the identity is minimal in every quotient: same rep, other parabolic
    e = a3.identity
    assert Coset(e, fs(1)) != Coset(e, fs(2)) and Coset(e, fs(1)) != Coset(e, fs())
    assert Coset(e, fs(1)) != Coset(a3.simple_reflection(2), fs(1))
    keys = {c.key for p in (fs(), fs(1), fs(2), fs(1, 3)) for c in a3.all_cosets(p)}
    assert len(keys) == sum(len(a3.all_cosets(p)) for p in (fs(), fs(1), fs(2), fs(1, 3)))


def test_dcp_nodes_compare_by_theta_and_index_set(a3):
    setup = mixed_chain_setup(a3)
    inductive, direct = build_dcp_inductive(setup), build_dcp_direct_w0(setup)
    for a, b in zip(inductive.nodes, direct.nodes):
        assert a is not b and a.theta is not b.theta
        assert a == b and hash(a) == hash(b)
    assert len({n.key for n in inductive.nodes}) == len(inductive.nodes)
    theta = setup.tau
    full, smaller = setup.iposet.full, setup.iposet.sets[-2]
    assert DCPNode(theta, full) == DCPNode(a3.coset(a3.longest, setup.q), frozenset(full))
    assert DCPNode(theta, full) != DCPNode(theta, smaller)
    assert DCPNode(theta, full) != theta and DCPNode(theta, full) != (theta, full)


def test_direct_dcp_with_one_theta_swapped_exits_one(capsys, monkeypatch):
    # same node count and the same index sets: only comparing (theta, I)
    # tells the two node sets apart
    node_test = lsfan.dcp.direct_nodes

    def swapped(setup):
        nodes = node_test(setup)
        group, present = setup.group, set(nodes)
        for k, old in enumerate(nodes[1:], 1):
            for c in group.all_cosets(setup.q):
                new = DCPNode(c, old.iset)
                if (c.rank == old.theta.rank and new not in present
                        and group.is_q_minimal(c.rep, setup.q_of[old.iset])):
                    nodes[k] = new
                    return nodes
        raise AssertionError("no coset to swap in")

    monkeypatch.setattr(cli, "direct_nodes", swapped)
    job = str(Path(__file__).parent / "fixtures" / "a3_mixed_chain_w0.json")
    assert cli.main(["dcp", "--job", job]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert "differ" in captured.err


def cover_keys(covers):
    """The (key, kind, bond) of each cover, sorted: the rule lists the covers
    of theta in lifting-property order and the reference by matrix, and no
    output reads that order (the DCP sorts its nodes and edges)."""
    return sorted((lower.key, kind, bond) for lower, kind, bond in covers)


def rule_covers(setup, node):
    """The cover rule's (key, y, I, kind, bond) covers as (lower, kind, bond)
    triples, each key checked against the node (coset of the element y, I)."""
    covers = []
    for key, y, iset, kind, bond in lsfan.dcp._lower_covers(setup, node):
        lower = DCPNode(Coset(setup.group.element(y), setup.q), iset)
        assert lower.key == key, (node, lower)
        covers.append((lower, kind, bond))
    return covers


@pytest.mark.parametrize("name", RULE_JOBS)
def test_cover_rule_matches_the_object_reference(name):
    setup = cli._setup_from_job(RULE_JOBS[name])
    dcp = build_dcp_inductive(setup)
    for node in dcp.nodes:
        expected = cover_keys(lower_covers(setup, node))
        assert cover_keys(rule_covers(setup, node)) == expected, node


@pytest.mark.parametrize("name", RULE_JOBS)
def test_inductive_build_makes_one_node_object_per_key(name):
    setup = cli._setup_from_job(RULE_JOBS[name])
    dcp = build_dcp_inductive(setup)
    node_of = {n.key: n for n in dcp.nodes}
    assert len(node_of) == len(dcp.nodes)
    assert all(node_of[upper.key] is upper and node_of[lower.key] is lower
               for upper, lower, _, _ in dcp.edges)
    # the reference: the nodes top down by rank, then index set, then element
    # matrix; the object rule's covers of each, sorted by the two positions;
    # and every node but the top is a lower cover
    nodes = sorted(dcp.nodes, key=lambda n: (-n.rank, len(n.iset), sorted(n.iset),
                                             n.theta.rep.packed))
    assert nodes[0] == dcp.top and [n.key for n in nodes] == [n.key for n in dcp.nodes]
    at = {n.key: k for k, n in enumerate(nodes)}.__getitem__
    edges = sorted(((at(u.key), at(v.key)), kind, bond)
                   for u in nodes for v, kind, bond in lower_covers(setup, u))
    assert {lower for (_, lower), _, _ in edges} == set(range(1, len(nodes)))
    assert [((at(u.key), at(v.key)), kind, bond) for u, v, kind, bond in dcp.edges] == edges


SWEEP_GROUPS = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]


@cache
def sweep_group(kind, rank):
    return make_group(kind, rank)


def draw_setup(data):
    """A random setup: a group of SWEEP_GROUPS, 1-3 weights with entries in
    {0, 1, 2}, tau = w0 or a word of length <= 8, a chain or powerset poset."""
    kind, rank = data.draw(st.sampled_from(SWEEP_GROUPS))
    group = sweep_group(kind, rank)
    weight = st.tuples(*[st.integers(0, 2)] * rank)
    lambdas = data.draw(st.lists(weight, min_size=1, max_size=3))
    word = data.draw(st.none() | st.lists(st.integers(1, rank), max_size=8))
    tau = group.longest if word is None else group.from_word(word)
    iposet = data.draw(st.sampled_from([chain_iposet, powerset_iposet]))(len(lambdas))
    return Setup(group, lambdas, tau, iposet)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cover_rule_matches_the_object_reference_on_random_setups(data):
    # weights with zero entries give P_I larger than Q, so some covers of
    # W/W_Q have bond 0 for lambda_I and must be dropped
    setup = draw_setup(data)
    for node in build_dcp_inductive(setup).nodes:
        expected = cover_keys(lower_covers(setup, node))
        assert cover_keys(rule_covers(setup, node)) == expected, node


@pytest.mark.parametrize("name", [n for n, job in RULE_JOBS.items() if job["tau"] == "w0"])
def test_direct_build_matches_the_object_reference_and_reads_known_covers(name):
    # the direct build runs the cover rule on the nodes of its own node test,
    # and both must be exactly those the inductive build knows
    setup = cli._setup_from_job(RULE_JOBS[name])
    inductive, direct = build_dcp_inductive(setup), build_dcp_direct_w0(setup)
    assert (direct.nodes, direct.edges) == (inductive.nodes, inductive.edges)


@pytest.mark.parametrize("change", ["drop", "add"])
def test_direct_node_test_off_by_one_node_exits_one(capsys, monkeypatch, change):
    # the two-build check compares the direct node test with the inductive
    # nodes, so it sees a node too few, or one too many
    node_test = lsfan.dcp.direct_nodes

    def off_by_one(setup):
        nodes = node_test(setup)
        if change == "drop":
            del nodes[len(nodes) // 2]
        else:
            present = set(nodes)
            nodes.append(next(node for s in setup.iposet.sets
                              for c in setup.group.all_cosets(setup.q)
                              if (node := DCPNode(c, s)) not in present))
        return nodes

    monkeypatch.setattr(cli, "direct_nodes", off_by_one)
    assert cli.main(["dcp", "--job", str(FIXTURES / "b3_chain.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the inductive and the direct constructions differ\n"


def test_a_cover_that_keeps_the_rank_exits_one_at_once(capsys, monkeypatch):
    # shrinkI covers that keep I: each is the node itself, which the walk
    # used to meet on every level, growing without end
    rule = lsfan.dcp._lower_covers
    monkeypatch.setattr(lsfan.dcp, "_lower_covers", lambda setup, node: [
        (node.key, node.theta.rep.index, node.iset, "shrinkI", 1) if cover[3] == "shrinkI"
        else cover
        for cover in rule(setup, node)])
    assert cli.main(["dcp", "--job", str(FIXTURES / "a2_tau312_chain.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert "does not drop the rank" in captured.err


# -- bonds ------------------------------------------------------------------------


def test_shrink_edges_have_bond_one(a3):
    dcp = build_dcp_inductive(mixed_chain_setup(a3))
    for _, _, kind, bond in dcp.edges:
        if kind == "shrinkI":
            assert bond == 1


@pytest.mark.parametrize(
    "job", ["b3_chain", "c3_powerset", "a3_tau3412_branched", "d4_flag_branched"]
)
def test_same_i_bonds_pair_the_lower_weight_with_the_covering_coroot(job):
    # reference: the covering root recomputed from the two representatives
    path = Path(__file__).parent / "fixtures" / f"{job}.json"
    setup = cli._setup_from_job(json.loads(path.read_text()))
    group, datum = setup.group, setup.group.datum
    dcp = build_dcp_inductive(setup)
    same_i = [e for e in dcp.edges if e[2] == "sameI"]
    assert same_i
    for upper, lower, _, bond in same_i:
        coroot = datum.positive_coroots[group.covering_root(upper.theta, lower.theta)]
        weight = lower.theta.rep.act(setup.lambda_of[upper.iset])
        assert bond == abs(datum.pairing(weight, coroot))


def test_b2_single_weight_has_a_bond_two_edge(b2):
    setup = Setup(b2, [(1, 0)], b2.longest, chain_iposet(1))
    dcp = build_dcp_inductive(setup)
    bonds = {bond for _, _, _, bond in dcp.edges}
    assert bonds == {1, 2}


# -- rho --------------------------------------------------------------------------


def test_rho_single_weight_is_bijective(a2):
    setup = Setup(a2, [W3], a2.longest, chain_iposet(1))
    dcp = build_dcp_inductive(setup)
    images = {rho(setup, n) for n in dcp.nodes}
    assert len(images) == len(dcp.nodes)


def test_rho_not_injective_on_tau312_instance(a2):
    setup = tau312_setup(a2)
    dcp = build_dcp_inductive(setup)
    # 6 poset nodes vs 5 coset pairs force a collision
    assert len(dcp.nodes) == 6
    assert len({rho(setup, n) for n in dcp.nodes}) == 5
    with pytest.raises(ValueError):
        dcp.rho_lookup
    report = tau_standardness_report(dcp)
    assert not report.standard
    assert report.collisions


def test_theta_d_rejects_non_standard_poset(a2):
    setup = tau312_setup(a2)
    dcp = build_dcp_inductive(setup)
    top = setup.iposet.full
    theta = setup.group.pi(setup.tau, setup.p_of[top])
    column = LSPath(setup.lambda_of[top], (theta,), (Fraction(1),))
    tableau = make_tableau(setup, [column], [top])
    with pytest.raises(NotStandardError):
        theta_d(dcp, tableau_key(dcp, tableau))


def test_criteria_disagreement_is_an_invariant_error(a3, monkeypatch):
    import lsfan.dcp

    flip = lsfan.dcp._criterion_dynkin
    monkeypatch.setattr(lsfan.dcp, "_criterion_dynkin", lambda *a: not flip(*a))
    setup = Setup(a3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], a3.longest, chain_iposet(3))
    with pytest.raises(InvariantError):
        tau_standardness_report(build_dcp_inductive(setup))
    assert not issubclass(InvariantError, ValueError)


def test_rho_inverse_closed_form_matches_search(a3):
    # tau-standard sibling of the mixed-chain instance: diagram-ordered weights
    setup = Setup(
        a3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], a3.longest, chain_iposet(3)
    )
    dcp = build_dcp_inductive(setup)
    assert is_tau_standard(dcp)
    assert len(dcp.nodes) == 14  # 4 + 6 + 4 across the three slices
    for node in dcp.nodes:
        image = rho(setup, node)
        assert dcp.nodes[dcp.rho_lookup[image[0].key, image[1]]] == node
        assert rho_inverse_w0(setup, *image) == node


# -- standardness of index posets ---------------------------------------------------


def test_powerset_always_tau_standard(a2, a3):
    for group, lambdas in [(a2, [W2, W1]), (a3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])]:
        for tau in group.all_cosets(frozenset()):
            if tau.rank < 2:
                continue
            setup = Setup(group, lambdas, tau, powerset_iposet(len(lambdas)))
            assert is_tau_standard(build_dcp_inductive(setup))


def test_fundamental_weight_chain_is_standard_in_type_a(a3):
    # increasing column lengths ordered against the chain: (w3, w2, w1)
    setup = Setup(a3, [(0, 0, 1), (0, 1, 0), (1, 0, 0)], a3.longest, chain_iposet(3))
    assert is_tau_standard(build_dcp_inductive(setup))


def test_criteria_agree_across_w0_grid(request):
    for name, lambdas, kind in GRID[:14]:
        setup = grid_setup(request, name, lambdas, kind)
        report = tau_standardness_report(build_dcp_inductive(setup))
        assert report.criteria is not None
        assert report.criteria_agree
        # chain independence of (ii)-(iv)
        by_set = {}
        for (s, _), values in report.criteria.items():
            by_set.setdefault(s, set()).add(
                (values["ii"], values["iii"], values["iv"])
            )
        assert all(len(v) == 1 for v in by_set.values())


def test_dtype_fallback_poset_is_standard(d4):
    # weights ordered so that the two leaves come last
    lambdas = [(0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0)]
    ip = build_index_poset(
        [fs(1), fs(2), fs(1, 2), fs(1, 2, 3), fs(1, 2, 3, 4)], 4
    )
    setup = Setup(d4, lambdas, d4.longest, ip)
    assert is_tau_standard(build_dcp_inductive(setup))


def test_dtype_totally_ordered_is_not_standard(d4):
    lambdas = [(0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0)]
    setup = Setup(d4, lambdas, d4.longest, chain_iposet(4))
    assert not is_tau_standard(build_dcp_inductive(setup))


# -- totally ordered standard posets ---------------------------------------------------


def test_type_a_always_has_a_totally_ordered_poset(a3):
    lambdas = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    flag, order = totally_ordered_exists(a3.datum, lambdas)
    assert flag and len(order) == 3


def test_d4_star_has_none():
    datum = build_root_datum("D", 4)
    lambdas = [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ]
    flag, order = totally_ordered_exists(datum, lambdas)
    assert not flag and order is None


def test_e6_both_branch_leaves_fails():
    datum = build_root_datum("E", 6)
    lambdas = [
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1),
    ]
    flag, order = totally_ordered_exists(datum, lambdas)
    assert not flag and order is None


def test_totally_ordered_rejects_non_fundamental():
    datum = build_root_datum("A", 2)
    with pytest.raises(ValueError):
        totally_ordered_exists(datum, [(1, 1)])
    with pytest.raises(ValueError):
        totally_ordered_exists(datum, [(1, 0), (2, 0)])


# -- defining chains --------------------------------------------------------------------


def test_singleton_chain_lifts_to_tau(a2):
    setup = tau312_setup(a2)
    proj = setup.group.pi(setup.tau, setup.p_of[setup.iposet.full])
    upper, lower = defining_chain_extremes(setup, [(proj, setup.iposet.full)])
    assert upper == [setup.tau]


def maximal_standard_chains(setup, dcp):
    """Project the maximal chains of the poset; these are exactly the maximal
    standard chains once duplicates are erased."""
    out = []
    for nodes, _ in dcp.maximal_chains():
        chain = []
        for n in nodes:
            entry = (setup.group.pi(n.theta, setup.p_of[n.iset]), n.iset)
            if not chain or chain[-1] != entry:
                chain.append(entry)
        out.append((nodes, chain))
    return out


def test_unique_defining_chain_on_maximal_chains(a2, a3):
    for setup in (
        tau312_setup(a2),
        Setup(a3, [(1, 0, 0), (0, 0, 1), (0, 1, 0)], a3.longest, chain_iposet(3)),
    ):
        dcp = build_dcp_inductive(setup)
        for nodes, chain in maximal_standard_chains(setup, dcp):
            upper, lower = defining_chain_extremes(setup, chain)
            assert upper == lower  # unique defining chain
            assert upper == [n.theta for n in nodes]


def test_triangle_normalizations(a3):
    setup = Setup(a3, [(1, 0, 0), (0, 0, 1), (0, 1, 0)], a3.longest, chain_iposet(3))
    dcp = build_dcp_inductive(setup)
    for nodes, chain in maximal_standard_chains(setup, dcp)[:10]:
        isets = [s for _, s in chain]
        upper, lower = defining_chain_extremes(setup, chain)
        assert triangle_up(setup, upper, isets) == upper
        assert triangle_down(setup, lower, isets) == lower


def test_sl4_chain_without_defining_chain_is_rejected(a3):
    setup = mixed_chain_setup(a3)
    group = a3
    c13 = group.coset(perm_elt(group, (1, 3, 2, 4)), setup.p_of[fs(1, 2, 3)])
    c124 = group.coset(perm_elt(group, (1, 2, 4, 3)), setup.p_of[fs(1, 2)])
    c3 = group.coset(perm_elt(group, (3, 1, 2, 4)), setup.p_of[fs(1)])
    chain = [(c13, fs(1, 2, 3)), (c124, fs(1, 2)), (c3, fs(1))]
    assert max_defining_chain(setup, chain) is None
    assert min_defining_chain(setup, chain) is None
    with pytest.raises(LiftError):
        defining_chain_extremes(setup, chain)
    # dropping the first entry leaves a standard chain
    assert max_defining_chain(setup, chain[1:]) is not None


def test_extremes_bound_every_defining_chain(a2):
    setup = tau312_setup(a2)
    group = a2
    dcp = build_dcp_inductive(setup)
    for _, chain in maximal_standard_chains(setup, dcp):
        upper, lower = defining_chain_extremes(setup, chain)
        # brute force: every weakly decreasing lift tuple bounded by tau
        fibers = [
            [
                c
                for c in group.all_cosets(setup.q)
                if group.pi(c, setup.p_of[s]) == theta
            ]
            for theta, s in chain
        ]

        def walk(k, prev, acc):
            if k == len(fibers):
                yield list(acc)
                return
            for c in fibers[k]:
                if prev is None or group.coset_leq(c, prev):
                    if k > 0 or group.coset_leq(c, setup.tau):
                        yield from walk(k + 1, c, acc + [c])

        chains = list(walk(0, setup.tau, []))
        assert chains
        for candidate in chains:
            for hi, x, lo in zip(upper, candidate, lower):
                assert group.coset_leq(x, hi)
                assert group.coset_leq(lo, x)
