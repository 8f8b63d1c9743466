import json
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from operator import add
from pathlib import Path

import pytest

from lsfan import (
    IndexPosetError,
    LSPath,
    LSTableau,
    Setup,
    ShapeError,
    TableauError,
    YoungTableau,
    build_dcp_inductive,
    build_index_poset,
    chain_iposet,
    degree,
    demazure_character,
    demazure_dimension,
    enumerate_ls_paths,
    enumerate_ssyt,
    enumerate_standard,
    flatten,
    free_tableau,
    is_semistandard,
    is_standard,
    is_weakly_standard,
    ls_from_yt,
    make_tableau,
    max_defining_chain,
    min_defining_chain,
    one_line_to_word,
    powerset_iposet,
    shape_for_degree,
    tableau_endpoint,
    weyl_dimension,
    word_to_one_line,
    young_setup,
    yt_from_ls,
)
from lsfan import cli

ONE = Fraction(1)
FIXTURES = Path(__file__).parent / "fixtures"


def fs(*xs):
    return frozenset(xs)


def straight(group, prefix):
    """Single-direction path of fundamental shape, type A one-line prefix."""
    n = group.rank + 1
    k = len(prefix)
    rest = [x for x in range(1, n + 1) if x not in set(prefix)]
    w = group.from_word(one_line_to_word(tuple(prefix) + tuple(rest)))
    parabolic = frozenset(i for i in range(1, n) if i != k)
    coset = group.coset(w, parabolic)
    return LSPath(group.datum.fundamental_weight(k), (coset,), (ONE,))


def one_line(group, c):
    return word_to_one_line(group.reduced_word(c.rep), group.rank + 1)


# -- the SL4 standardness example ------------------------------------------------------


def test_sl4_tableau_weakly_standard_but_not_standard(a3):
    setup = young_setup(a3, [1, 2, 3])
    t = free_tableau(
        [straight(a3, (1, 3)), straight(a3, (1, 2, 4)), straight(a3, (3,))]
    )
    assert is_weakly_standard(setup, t)
    ok, chain = is_standard(setup, t)
    assert not ok and chain is None


def test_sl4_subtableaux_defining_chains(a3):
    setup = young_setup(a3, [1, 2, 3])
    first = free_tableau([straight(a3, (1, 3)), straight(a3, (1, 2, 4))])
    second = free_tableau([straight(a3, (1, 2, 4)), straight(a3, (3,))])
    ok1, _ = is_standard(setup, first)
    ok2, _ = is_standard(setup, second)
    assert ok1 and ok2
    # minimal defining chains, cross-checked by brute force below; note that
    # 1324 (a digit transposition of 1342) is not comparable with 1243, so
    # (1342, 1243) is the only minimal chain for the first pair
    assert [one_line(a3, c) for c in min_defining_chain(setup, flatten(first))] == [
        (1, 3, 4, 2),
        (1, 2, 4, 3),
    ]
    assert [one_line(a3, c) for c in min_defining_chain(setup, flatten(second))] == [
        (4, 1, 2, 3),
        (3, 1, 2, 4),
    ]


def test_empty_tableau_is_standard(a3):
    setup = young_setup(a3, [1])
    ok, chain = is_standard(setup, free_tableau([]))
    assert ok and chain == []


def test_greedy_chains_bound_all_brute_force_chains(a3):
    setup = young_setup(a3, [1, 2, 3])
    group = a3
    tableaux = [
        free_tableau([straight(a3, (1, 3)), straight(a3, (1, 2, 4))]),
        free_tableau([straight(a3, (1, 2, 4)), straight(a3, (3,))]),
        free_tableau([straight(a3, (2, 4)), straight(a3, (2,))]),
    ]
    for t in tableaux:
        upper = max_defining_chain(setup, flatten(t))
        lower = min_defining_chain(setup, flatten(t))
        entries = flatten(t)
        fibers = [
            [
                c
                for c in group.all_cosets(setup.q)
                if group.pi(c, coset.parabolic) == coset
            ]
            for coset, _ in entries
        ]
        found = []

        def walk(k, prev, acc):
            if k == len(fibers):
                found.append(list(acc))
                return
            for c in fibers[k]:
                if group.coset_leq(c, prev):
                    walk(k + 1, c, acc + [c])

        walk(0, setup.tau, [])
        assert found  # standard, so brute force agrees
        for candidate in found:
            for hi, x, lo in zip(upper, candidate, lower):
                assert group.coset_leq(x, hi) and group.coset_leq(lo, x)
        assert upper in found and lower in found


# -- shapes and degrees ------------------------------------------------------------------


def test_shape_for_degree_examples(a3):
    setup = Setup(
        a3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], a3.longest, chain_iposet(3)
    )
    assert shape_for_degree(setup, (0, 0, 0)) == ()
    assert shape_for_degree(setup, (2, 1, 1)) == (
        fs(1, 2, 3),
        fs(1, 2),
        fs(1),
        fs(1),
    )
    assert shape_for_degree(setup, (0, 0, 2)) == (fs(1, 2, 3), fs(1, 2, 3))
    with pytest.raises(ShapeError):
        shape_for_degree(setup, (1, 1))
    with pytest.raises(ShapeError):
        shape_for_degree(setup, (1, -1, 0))


def test_shape_for_degree_uniqueness_small_total(a2, a3):
    instances = [
        Setup(a2, [(0, 1), (1, 0)], a2.longest, chain_iposet(2)),
        Setup(a2, [(0, 1), (1, 0)], a2.longest, powerset_iposet(2)),
        Setup(
            a3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], a3.longest, powerset_iposet(3)
        ),
    ]
    for setup in instances:
        iposet = setup.iposet
        members = list(iposet.sets)
        for total in range(4):
            # every weakly decreasing sequence, by brute force
            by_degree = {}

            def extend(seq, upper, left):
                if left == 0:
                    d = [0] * setup.m
                    for s in seq:
                        for j, x in enumerate(iposet.e_vector(s)):
                            d[j] += x
                    by_degree.setdefault(tuple(d), set()).add(tuple(seq))
                    return
                for s in members:
                    if upper is None or s <= upper:
                        extend(seq + [s], s, left - 1)

            for length in range(total + 1):
                extend([], None, length)
            for d, seqs in by_degree.items():
                assert len(seqs) == 1, (d, seqs)
                assert shape_for_degree(setup, d) == next(iter(seqs))


def valid_index_posets(m):
    """Every family of subsets of [m] holding [m] that IndexPoset accepts."""
    full = frozenset(range(1, m + 1))
    proper = [frozenset(c) for k in range(1, m) for c in combinations(sorted(full), k)]
    posets = []
    for chosen in product((False, True), repeat=len(proper)):
        try:
            posets.append(build_index_poset([s for s, x in zip(proper, chosen) if x] + [full], m))
        except IndexPosetError:
            pass
    return posets


def assert_one_sequence_per_degree(setup):
    """Every d in {0,1,2}^m has exactly one weakly decreasing member sequence,
    found by brute force, and shape_for_degree returns it."""
    iposet, found = setup.iposet, {}

    def extend(seq, d):
        found.setdefault(d, []).append(tuple(seq))
        for s in iposet.sets:
            more = tuple(map(add, d, iposet.e_vector(s)))
            if (not seq or s <= seq[-1]) and max(more) <= 2:
                extend(seq + [s], more)

    extend([], (0,) * setup.m)
    for d in product(range(3), repeat=setup.m):
        assert found.get(d) == [shape_for_degree(setup, d)], (iposet.sets, d)


def test_shape_for_degree_is_the_one_sequence_on_every_small_index_poset(a3):
    # every valid index poset on m <= 3: 1 + 3 + 22 of them
    counts = {}
    for m in (1, 2, 3):
        weights = [a3.datum.fundamental_weight(k) for k in range(1, m + 1)]
        posets = valid_index_posets(m)
        counts[m] = len(posets)
        for iposet in posets:
            assert_one_sequence_per_degree(Setup(a3, weights, a3.longest, iposet))
    assert counts == {1: 1, 2: 3, 3: 22}


@pytest.mark.parametrize(
    "name", ["branched_index_poset_m4", "a3_tau3412_branched", "d4_flag_branched"]
)
def test_shape_for_degree_is_the_one_sequence_on_the_branched_fixtures(d4, name):
    job = json.loads((FIXTURES / f"{name}.json").read_text())
    if "lambdas" in job:
        setup = cli._setup_from_job(job)
    else:
        weights = [d4.datum.fundamental_weight(k) for k in range(1, 5)]
        setup = Setup(d4, weights, d4.longest, build_index_poset(job["sets"], job["m"]))
    assert_one_sequence_per_degree(setup)


def test_degree_sums_shape_vectors(a2):
    setup = Setup(a2, [(0, 1), (1, 0)], a2.longest, chain_iposet(2))
    tabs = enumerate_standard(build_dcp_inductive(setup), (2, 1))
    for t in tabs:
        assert degree(setup, t) == (2, 1)


def test_make_tableau_validates(a2):
    setup = Setup(a2, [(0, 1), (1, 0)], a2.longest, chain_iposet(2))
    path = next(iter(enumerate_ls_paths(a2, (1, 0), setup.tau, 1)))
    with pytest.raises(TableauError):
        make_tableau(setup, [path], [fs(1)])  # lambda_{[1]} is omega_2, not omega_1
    with pytest.raises(TableauError):
        make_tableau(setup, [path, path], [fs(1), fs(1, 2)])  # increasing shapes


# -- enumeration --------------------------------------------------------------------------


def test_degree_zero_gives_empty_tableau(a2):
    setup = Setup(a2, [(1, 0), (0, 1)], a2.longest, chain_iposet(2))
    tabs = enumerate_standard(build_dcp_inductive(setup), (0, 0))
    assert tabs == [LSTableau((), ())]


def test_enumeration_counts_against_oracle(a2, b2):
    cases = [
        (a2, [(1, 0), (0, 1)], chain_iposet(2), "w0"),
        (a2, [(0, 1), (1, 0)], powerset_iposet(2), (3, 1, 2)),
        (b2, [(1, 0), (0, 1)], chain_iposet(2), "w0"),
    ]
    for group, lambdas, iposet, tau in cases:
        if tau == "w0":
            tau_elt = group.longest
        else:
            tau_elt = group.from_word(one_line_to_word(tau))
        setup = Setup(group, lambdas, tau_elt, iposet)
        dcp = build_dcp_inductive(setup)
        for d in product(range(3), repeat=2):
            if sum(d) == 0 or sum(d) > 3:
                continue
            mu = tuple(
                d[0] * a + d[1] * b for a, b in zip(lambdas[0], lambdas[1])
            )
            tabs = enumerate_standard(dcp, d)
            assert len(tabs) == demazure_dimension(group, mu, setup.tau), (d,)
            counts = Counter(tableau_endpoint(setup, t) for t in tabs)
            assert dict(counts) == demazure_character(group, mu, setup.tau)


def test_slotted_tableaux_rebuilt_field_by_field_compare_and_hash_alike():
    # LSTableau is a slotted frozen dataclass: a tableau rebuilt from fresh
    # columns must equal the walked one, hash alike and find its dict entry
    job = json.loads((FIXTURES / "g2_chain.json").read_text())
    dcp = build_dcp_inductive(cli._setup_from_job(job))
    tabs = enumerate_standard(dcp, (1, 1)) + enumerate_standard(dcp, (2, 0))
    assert len(tabs) > 50 and not hasattr(tabs[0], "__dict__")
    for t in tabs:
        columns = tuple(LSPath(p.shape, tuple(p.cosets), tuple(p.cuts)) for p in t.columns)
        u = LSTableau(columns, tuple(frozenset(s) for s in t.shapes))
        assert u is not t and u == t and hash(u) == hash(t) and {t: 1}[u] == 1
    assert len(set(tabs)) == len(tabs)


def test_enumeration_rejects_non_standard_iposet(a2):
    tau = a2.from_word(one_line_to_word((3, 1, 2)))
    setup = Setup(a2, [(0, 1), (1, 0)], tau, chain_iposet(2))
    with pytest.raises(TableauError):
        enumerate_standard(build_dcp_inductive(setup), (1, 1))


def all_typed_tableaux(setup, d):
    """Every tableau of the given type and degree, standard or not."""
    shapes = shape_for_degree(setup, d)
    pools = {
        s: sorted(
            enumerate_ls_paths(setup.group, setup.lambda_of[s], setup.tau, 1),
            key=lambda p: (tuple(c.rep.matrix for c in p.cosets), p.cuts),
        )
        for s in set(shapes)
    }
    tabs = []

    def extend(k, acc):
        if k == len(shapes):
            tabs.append(LSTableau(tuple(acc), shapes))
            return
        for path in pools[shapes[k]]:
            extend(k + 1, acc + [path])

    extend(0, [])
    return tabs


def test_weak_equals_full_standardness_iff_iposet_standard(a3):
    standard_setup = Setup(
        a3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], a3.longest, chain_iposet(3)
    )
    broken_setup = Setup(
        a3, [(1, 0, 0), (0, 0, 1), (0, 1, 0)], a3.longest, chain_iposet(3)
    )
    for d in [(1, 1, 0), (1, 1, 1)]:
        for t in all_typed_tableaux(standard_setup, d):
            assert is_weakly_standard(standard_setup, t) == is_standard(
                standard_setup, t
            )[0]
    witnesses = 0
    for d in [(1, 1, 1)]:
        for t in all_typed_tableaux(broken_setup, d):
            weak = is_weakly_standard(broken_setup, t)
            full = is_standard(broken_setup, t)[0]
            if full:
                assert weak
            if weak and not full:
                witnesses += 1
    assert witnesses > 0


# -- Young-tableaux ------------------------------------------------------------------------


def test_four_column_young_correspondence(a3):
    setup = young_setup(a3, [1, 2, 3])
    I1, I2, I3 = fs(1), fs(1, 2), fs(1, 2, 3)
    p = {2: setup.p_of[I2], 1: setup.p_of[I3], 3: setup.p_of[I1]}
    cosets = [
        a3.coset(a3.from_word((2, 1)), p[1]),
        a3.coset(a3.from_word((3, 2)), p[2]),
        a3.coset(a3.from_word((1, 2)), p[2]),
        a3.coset(a3.from_word((3,)), p[3]),
    ]
    shapes = [I3, I2, I2, I1]
    columns = [
        LSPath(setup.lambda_of[s], (c,), (ONE,)) for c, s in zip(cosets, shapes)
    ]
    t = make_tableau(setup, columns, shapes)
    yt = yt_from_ls(setup, t)
    assert yt.columns == ((1, 2, 4), (2, 3), (1, 4), (3,))
    assert ls_from_yt(setup, yt) == t


def test_single_column_identity_coset(a3):
    setup = young_setup(a3, [2])
    yt = YoungTableau(((1, 2),))
    t = ls_from_yt(setup, yt)
    assert len(t.columns) == 1
    assert t.columns[0].cosets[0].rep == a3.identity
    assert yt_from_ls(setup, t) == yt


def test_young_tableau_validation():
    with pytest.raises(TableauError):
        YoungTableau(((2, 1),))
    with pytest.raises(TableauError):
        YoungTableau(((1,), (1, 2)))


def test_semistandard_detection():
    assert is_semistandard(YoungTableau(((1, 2), (1, 3), (2,))))
    assert not is_semistandard(YoungTableau(((2, 3), (1, 4))))
    assert not is_semistandard(YoungTableau(((1, 3), (1, 2))))
    assert is_semistandard(YoungTableau(()))


def column_lengths_for(mu):
    lengths = []
    for i, a in enumerate(mu, start=1):
        lengths.extend([i] * a)
    return tuple(sorted(lengths, reverse=True))


@pytest.mark.parametrize("mu", [(a, b) for a in range(3) for b in range(3) if a or b])
def test_a2_ssyt_biject_with_standard_tableaux(a2, mu):
    lengths = column_lengths_for(mu)
    setup = young_setup(a2, lengths)
    dim = weyl_dimension(a2.datum, mu)
    ssyts = [y for y in enumerate_ssyt(3, lengths) if is_semistandard(y)]
    standard = [
        y
        for y in enumerate_ssyt(3, lengths)
        if is_standard(setup, ls_from_yt(setup, y))[0]
    ]
    assert len(ssyts) == dim
    assert {y.columns for y in ssyts} == {y.columns for y in standard}
    # round trip through the LS side
    for y in ssyts:
        assert yt_from_ls(setup, ls_from_yt(setup, y)) == y


def test_a3_regular_weight_correspondence(a3):
    mu = (1, 1, 1)
    lengths = column_lengths_for(mu)
    setup = young_setup(a3, lengths)
    dim = weyl_dimension(a3.datum, mu)
    count = 0
    for y in enumerate_ssyt(4, lengths):
        semi = is_semistandard(y)
        standard = is_standard(setup, ls_from_yt(setup, y))[0]
        assert semi == standard
        count += semi
    assert count == dim
