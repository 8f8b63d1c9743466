"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a PASS line on success (run with -s to see them inline).
All expected values are either forced combinatorial facts, frozen instance
data shipped under fixtures/, or values recomputed by an independent oracle
(Demazure operators / Weyl dimension formula / brute-force search).
"""

import json
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from lsfan import (
    IndexPosetError,
    LSPath,
    Setup,
    build_dcp_direct_w0,
    build_dcp_inductive,
    build_index_poset,
    chain_iposet,
    demazure_character,
    demazure_dimension,
    enumerate_fan_degree,
    enumerate_ssyt,
    enumerate_standard,
    flatten,
    free_tableau,
    is_semistandard,
    is_standard,
    is_tau_standard,
    is_weakly_standard,
    ls_from_yt,
    min_defining_chain,
    multidegree_conjecture_check,
    one_line_to_word,
    powerset_iposet,
    tableau_endpoint,
    tau_standardness_report,
    theta_d,
    theta_d_inverse,
    weyl_dimension,
    word_to_one_line,
    yt_from_ls,
    young_setup,
)

FIXTURES = Path(__file__).parent / "fixtures"

ONE = Fraction(1)


def fs(*xs):
    return frozenset(xs)


def report(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def one_line(group, c):
    return word_to_one_line(group.reduced_word(c.rep), group.rank + 1)


def shorthand(setup, dcp):
    group = setup.group
    nodes = {
        ("".join(map(str, one_line(group, n.theta))), tuple(sorted(n.iset)))
        for n in dcp.nodes
    }
    edges = {
        (
            "".join(map(str, one_line(group, u.theta))),
            tuple(sorted(u.iset)),
            "".join(map(str, one_line(group, l.theta))),
            tuple(sorted(l.iset)),
        )
        for u, l, _, _ in dcp.edges
    }
    return nodes, edges


def load_setup(fixture_name, group):
    data = json.loads((FIXTURES / fixture_name).read_text())
    lambdas = [tuple(l) for l in data["lambdas"]]
    total = tuple(sum(l[j] for l in lambdas) for j in range(group.rank))
    q = group.stabilizer_parabolic(total)
    if data["tau"] == "w0":
        tau = group.coset(group.longest, q)
    else:
        tau = group.coset(group.from_word(data["tau"]), q)
    ip = data["iposet"]
    if ip == "chain":
        iposet = chain_iposet(len(lambdas))
    elif ip == "powerset":
        iposet = powerset_iposet(len(lambdas))
    else:
        iposet = build_index_poset([frozenset(s) for s in ip], len(lambdas))
    return Setup(group, lambdas, tau, iposet)


def test_criterion_1_a2_bounded_instance(a2):
    start = time.monotonic()
    setup = load_setup("a2_tau312_chain.json", a2)
    dcp = build_dcp_inductive(setup)
    nodes, edges = shorthand(setup, dcp)
    assert nodes == {
        ("312", (1, 2)),
        ("132", (1, 2)),
        ("213", (1, 2)),
        ("123", (1, 2)),
        ("132", (1,)),
        ("123", (1,)),
    }
    assert edges == {
        ("312", (1, 2), "132", (1, 2)),
        ("312", (1, 2), "213", (1, 2)),
        ("213", (1, 2), "123", (1, 2)),
        ("132", (1, 2), "132", (1,)),
        ("123", (1, 2), "123", (1,)),
        ("132", (1,), "123", (1,)),
    }
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"6-node/6-edge poset reproduced exactly in {elapsed:.3f}s")


MIXED_CHAIN_NODES = {
    ("4321", (1, 2, 3)), ("4231", (1, 2, 3)), ("4132", (1, 2, 3)),
    ("3241", (1, 2, 3)), ("3142", (1, 2, 3)), ("2143", (1, 2, 3)),
    ("4231", (1, 2)), ("4132", (1, 2)), ("4123", (1, 2)), ("3124", (1, 2)),
    ("3241", (1, 2)), ("3142", (1, 2)), ("2143", (1, 2)), ("2134", (1, 2)),
    ("4123", (1,)), ("3124", (1,)), ("2134", (1,)), ("1234", (1,)),
}

MIXED_CHAIN_EDGES = {
    ("4321", (1, 2, 3), "4231", (1, 2, 3)),
    ("4231", (1, 2, 3), "4132", (1, 2, 3)),
    ("4231", (1, 2, 3), "3241", (1, 2, 3)),
    ("4132", (1, 2, 3), "3142", (1, 2, 3)),
    ("3241", (1, 2, 3), "3142", (1, 2, 3)),
    ("3142", (1, 2, 3), "2143", (1, 2, 3)),
    ("4231", (1, 2, 3), "4231", (1, 2)),
    ("4132", (1, 2, 3), "4132", (1, 2)),
    ("3241", (1, 2, 3), "3241", (1, 2)),
    ("3142", (1, 2, 3), "3142", (1, 2)),
    ("2143", (1, 2, 3), "2143", (1, 2)),
    ("4231", (1, 2), "4132", (1, 2)),
    ("4132", (1, 2), "4123", (1, 2)),
    ("4123", (1, 2), "3124", (1, 2)),
    ("3241", (1, 2), "3142", (1, 2)),
    ("3142", (1, 2), "3124", (1, 2)),
    ("3142", (1, 2), "2143", (1, 2)),
    ("2143", (1, 2), "2134", (1, 2)),
    ("4123", (1, 2), "4123", (1,)),
    ("3124", (1, 2), "3124", (1,)),
    ("2134", (1, 2), "2134", (1,)),
    ("4123", (1,), "3124", (1,)),
    ("3124", (1,), "2134", (1,)),
    ("2134", (1,), "1234", (1,)),
}


def test_criterion_2_a3_mixed_weights_instance(a3):
    start = time.monotonic()
    setup = load_setup("a3_mixed_chain_w0.json", a3)
    dcp = build_dcp_inductive(setup)
    nodes, edges = shorthand(setup, dcp)
    assert nodes == MIXED_CHAIN_NODES
    assert edges == MIXED_CHAIN_EDGES
    assert all(bond == 1 for _, _, _, bond in dcp.edges)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"18 nodes, 24 edges, all bonds 1, in {elapsed:.3f}s")


EQUIVALENCE_GRID = [
    ("a2", [(1, 0), (0, 1)], "chain"),
    ("a2", [(0, 1), (1, 0)], "chain"),
    ("a2", [(1, 1), (1, 0)], "chain"),
    ("a2", [(1, 0), (0, 1)], "powerset"),
    ("a3", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], "chain"),
    ("a3", [(1, 0, 0), (0, 0, 1), (0, 1, 0)], "chain"),
    ("a3", [(0, 1, 0), (1, 0, 1)], "powerset"),
    ("b2", [(1, 0), (0, 1)], "chain"),
    ("b2", [(0, 1), (1, 0)], "chain"),
    ("b2", [(1, 0), (0, 1)], "powerset"),
    ("b3", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], "chain"),
    ("b3", [(0, 1, 0), (0, 0, 1)], "powerset"),
    ("c3", [(1, 0, 0), (0, 1, 0)], "chain"),
    ("c3", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], "chain"),
    ("d4", [(0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0)], "dtype"),
    ("d4", [(1, 0, 0, 0), (0, 1, 0, 0)], "chain"),
]


def grid_setup(request, name, lambdas, kind):
    group = request.getfixturevalue(name)
    m = len(lambdas)
    if kind == "chain":
        ip = chain_iposet(m)
    elif kind == "powerset":
        ip = powerset_iposet(m)
    else:
        ip = build_index_poset(
            [fs(1), fs(2), fs(1, 2), fs(1, 2, 3), fs(1, 2, 3, 4)], 4
        )
    return Setup(group, lambdas, group.longest, ip)


def test_criterion_3_procedure_equivalence(request):
    start = time.monotonic()
    assert len(EQUIVALENCE_GRID) >= 12
    assert {name for name, _, _ in EQUIVALENCE_GRID} == {
        "a2", "a3", "b2", "b3", "c3", "d4"
    }
    for name, lambdas, kind in EQUIVALENCE_GRID:
        setup = grid_setup(request, name, lambdas, kind)
        ind = build_dcp_inductive(setup)
        direct = build_dcp_direct_w0(setup)
        assert set(ind.nodes) == set(direct.nodes), (name, lambdas, kind)
        assert set(ind.edges) == set(direct.edges), (name, lambdas, kind)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(
        3,
        f"inductive and direct constructions agree on {len(EQUIVALENCE_GRID)} "
        f"fixtures in {elapsed:.1f}s",
    )


def test_criterion_4_tau_3412_classification(a3):
    start = time.monotonic()
    tau = a3.from_word(one_line_to_word((3, 4, 1, 2)))
    lambdas = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    all_subsets = [
        frozenset(c) for k in (1, 2, 3) for c in combinations((1, 2, 3), k)
    ]
    full = frozenset({1, 2, 3})
    standard_posets = []
    n_valid = 0
    for r in range(1, len(all_subsets) + 1):
        for combo in combinations(all_subsets, r):
            if full not in combo:
                continue
            try:
                iposet = build_index_poset(combo, 3)
            except IndexPosetError:
                continue
            n_valid += 1
            setup = Setup(a3, lambdas, tau, iposet)
            if is_tau_standard(build_dcp_inductive(setup)):
                standard_posets.append(
                    {tuple(sorted(s)) for s in iposet.sets}
                )
    assert len(standard_posets) == 2
    assert {(1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)} in standard_posets
    assert {
        (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)
    } in standard_posets
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(
        4,
        f"exactly 2 of {n_valid} valid index posets are standard for 3412 "
        f"({elapsed:.1f}s)",
    )


def test_criterion_5_criteria_equivalence(request):
    checked = 0
    for name, lambdas, kind in EQUIVALENCE_GRID:
        setup = grid_setup(request, name, lambdas, kind)
        result = tau_standardness_report(build_dcp_inductive(setup))
        assert result.criteria is not None and result.criteria_agree
        by_set = {}
        for (s, _), values in result.criteria.items():
            assert len({values["i"], values["ii"], values["iii"], values["iv"]}) == 1
            by_set.setdefault(s, set()).add(
                (values["ii"], values["iii"], values["iv"])
            )
            checked += 1
        # chain independence of (ii)-(iv)
        assert all(len(v) == 1 for v in by_set.values())
    report(5, f"criteria (i)-(iv) agree on {checked} (member, chain) pairs")


def test_criterion_6_standardness_fixtures(a3):
    data = json.loads((FIXTURES / "a3_three_column_tableau.json").read_text())
    setup = young_setup(a3, [len(p) for p in data["column_prefixes"]])

    def straight(prefix):
        k = len(prefix)
        rest = [x for x in range(1, 5) if x not in set(prefix)]
        w = a3.from_word(one_line_to_word(tuple(prefix) + tuple(rest)))
        parabolic = frozenset(i for i in (1, 2, 3) if i != k)
        return LSPath(
            a3.datum.fundamental_weight(k), (a3.coset(w, parabolic),), (ONE,)
        )

    columns = [straight(tuple(p)) for p in data["column_prefixes"]]
    t = free_tableau(columns)
    assert is_weakly_standard(setup, t) == data["weakly_standard"]
    assert is_standard(setup, t)[0] == data["standard"]

    subs = [free_tableau(columns[:2]), free_tableau(columns[1:])]
    for sub, expected in zip(subs, data["subtableau_min_chains"]):
        ok, _ = is_standard(setup, sub)
        assert ok
        chain = min_defining_chain(setup, flatten(sub))
        assert [list(one_line(a3, c)) for c in chain] == expected
    report(
        6,
        "(13,124,3) weakly standard but not standard; sub-tableaux standard "
        "with minimal defining chains 1342>=1243 and 4123>=3124 "
        "(1324 is not Bruhat-comparable with 1243)",
    )


COUNTING_GRID = [
    ("a2", [(1, 0), (0, 1)], "chain", "w0"),
    ("a2", [(0, 1), (1, 0)], "powerset", (3, 1, 2)),
    ("a3", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], "chain", "w0"),
    ("a3", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], "powerset", "w0"),
    ("a3", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], "special", (3, 4, 1, 2)),
    ("b2", [(1, 0), (0, 1)], "chain", "w0"),
    ("b2", [(0, 1), (1, 0)], "powerset", "len3"),
    ("c3", [(1, 0, 0), (0, 1, 0)], "chain", "w0"),
]


def counting_setup(request, name, lambdas, kind, tau_spec):
    group = request.getfixturevalue(name)
    m = len(lambdas)
    if kind == "chain":
        ip = chain_iposet(m)
    elif kind == "powerset":
        ip = powerset_iposet(m)
    else:
        ip = build_index_poset(
            [fs(1), fs(2), fs(3), fs(1, 2), fs(2, 3), fs(1, 2, 3)], 3
        )
    if tau_spec == "w0":
        tau = group.longest
    elif tau_spec == "len3":
        tau = group.from_word((1, 2, 1))
    else:
        tau = group.from_word(one_line_to_word(tau_spec))
    return Setup(group, lambdas, tau, ip)


def degrees_up_to(m, total):
    return [
        d for d in product(range(total + 1), repeat=m) if 0 < sum(d) <= total
    ]


@pytest.fixture(scope="module")
def counting_data(request):
    start = time.monotonic()
    data = []
    for name, lambdas, kind, tau_spec in COUNTING_GRID:
        setup = counting_setup(request, name, lambdas, kind, tau_spec)
        dcp = build_dcp_inductive(setup)
        per_degree = {}
        for d in degrees_up_to(setup.m, 3):
            tableaux = enumerate_standard(dcp, d)
            vectors = enumerate_fan_degree(dcp, d)
            per_degree[d] = (tableaux, vectors)
        data.append((setup, dcp, per_degree))
    return data, time.monotonic() - start


def test_criterion_7_counting_identity(counting_data):
    instances, build_time = counting_data
    start = time.monotonic()
    n_cases = 0
    n_tau_below = 0
    for setup, dcp, per_degree in instances:
        group = setup.group
        below = setup.tau != group.coset(group.longest, setup.q)
        for d, (tableaux, vectors) in per_degree.items():
            mu = tuple(
                sum(d[i] * setup.lambdas[i][j] for i in range(setup.m))
                for j in range(group.rank)
            )
            dim = demazure_dimension(group, mu, setup.tau)
            assert len(tableaux) == dim, (d, len(tableaux), dim)
            assert len(vectors) == dim, (d, len(vectors), dim)
            n_cases += 1
            n_tau_below += below
    elapsed = build_time + time.monotonic() - start
    assert n_tau_below > 0
    assert elapsed < 300.0
    report(
        7,
        f"|tableaux| = |fan| = Demazure dimension on {n_cases} degree cases "
        f"({n_tau_below} with tau below the top), {elapsed:.1f}s incl. enumeration",
    )


def test_criterion_8_character_identity(counting_data):
    n_cases = 0
    for setup, dcp, per_degree in counting_data[0]:
        group = setup.group
        for d, (tableaux, _) in per_degree.items():
            mu = tuple(
                sum(d[i] * setup.lambdas[i][j] for i in range(setup.m))
                for j in range(group.rank)
            )
            endpoints = Counter(tableau_endpoint(setup, t) for t in tableaux)
            assert dict(endpoints) == demazure_character(group, mu, setup.tau), d
            n_cases += 1
    report(8, f"endpoint multisets match Demazure characters on {n_cases} cases")


def test_criterion_9_young_tableau_correspondence(a2, a3):
    cases = []
    for mu in product(range(3), repeat=2):
        if any(mu):
            cases.append((a2, mu))
    cases.append((a3, (1, 1, 1)))
    for group, mu in cases:
        n = group.rank + 1
        lengths = []
        for i, a in enumerate(mu, start=1):
            lengths.extend([i] * a)
        lengths = tuple(sorted(lengths, reverse=True))
        setup = young_setup(group, lengths)
        dim = weyl_dimension(group.datum, mu)
        semi = 0
        for y in enumerate_ssyt(n, lengths):
            t = ls_from_yt(setup, y)
            standard = is_standard(setup, t)[0]
            assert is_semistandard(y) == standard
            assert yt_from_ls(setup, t) == y
            semi += standard
        assert semi == dim, (group.datum.dynkin_type, mu, semi, dim)
    report(9, f"semistandard <-> standard verified on {len(cases)} shapes")


def test_criterion_10_lift_oracle_equivalence(a3, b2):
    n_checked = 0
    for group in (a3, b2):
        indices = list(group.datum.simple_indices)
        subsets = [
            frozenset(c)
            for k in range(len(indices) + 1)
            for c in combinations(indices, k)
        ]
        for q in subsets:
            lower_cosets = group.all_cosets(q)
            for qp in subsets:
                if not (q < qp):
                    continue
                for phi in group.all_cosets(qp):
                    lifts = [c for c in lower_cosets if group.pi(c, qp) == phi]
                    for bound in lower_cosets:
                        theta = group.pi(bound, qp)
                        if group.coset_leq(phi, theta):
                            below = [
                                c for c in lifts if group.coset_leq(c, bound)
                            ]
                            best = [
                                c
                                for c in below
                                if all(group.coset_leq(d, c) for d in below)
                            ]
                            assert len(best) == 1
                            assert group.deodhar_max_lift(bound, phi) == best[0]
                            n_checked += 1
                        if group.coset_leq(theta, phi):
                            above = [
                                c for c in lifts if group.coset_leq(bound, c)
                            ]
                            best = [
                                c
                                for c in above
                                if all(group.coset_leq(c, d) for d in above)
                            ]
                            assert len(best) == 1
                            assert group.deodhar_min_lift(bound, phi) == best[0]
                            n_checked += 1
    report(10, f"greedy lifts match brute force on {n_checked} inputs")


def test_criterion_11_multidegree_conjecture(a3):
    start = time.monotonic()
    setup = load_setup("a3_mixed_chain_w0.json", a3)
    dcp = build_dcp_inductive(setup)
    result = multidegree_conjecture_check(dcp, 6)
    assert result["agree"], result
    assert result["mismatches"] == []
    assert sum(result["left"].values()) > 0
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(
        11,
        f"chain-bond sums equal Hilbert multidegrees on "
        f"{len(result['left'])} type tuples ({elapsed:.1f}s)",
    )
