from dataclasses import replace
from functools import cache
from itertools import combinations, permutations

import pytest

from lsfan import (
    GroupSizeError,
    InvariantError,
    LiftError,
    RootDatumError,
    WeylElt,
    WeylGroup,
    build_root_datum,
    make_group,
    one_line_to_word,
    word_to_one_line,
)
import lsfan.weyl
from lsfan.rootdata import checked_group_order

from chain_reference import covering_relations, reference_group_tables, reflection_covers

ALL = frozenset()


def perm_elt(group, line):
    return group.from_word(one_line_to_word(line))


def one_line(group, w):
    return word_to_one_line(group.reduced_word(w), group.rank + 1)


def bruhat_ideal(group, v):
    """Subword-property oracle: all elements <= v, independent of the
    recursive comparison used by the library."""
    word = group.reduced_word(v)
    ideal = {group.identity}
    for i in word:
        s = group.simple_reflection(i)
        ideal |= {group.mult(x, s) for x in ideal}
    return ideal


def sorted_prefixes(line):
    return [tuple(sorted(line[:k])) for k in range(1, len(line) + 1)]


# -- generation -----------------------------------------------------------------


def test_group_orders(a3, b2, a2):
    assert len(a3) == 24
    assert len(b2) == 8
    assert a2.longest.length == 3


def test_size_guard():
    datum = build_root_datum("E", 6)
    with pytest.raises(GroupSizeError):
        WeylGroup(datum)
    # overridable in principle; B3 passes a small custom guard
    WeylGroup(build_root_datum("B", 3), size_guard=48)
    with pytest.raises(GroupSizeError):
        WeylGroup(build_root_datum("B", 3), size_guard=47)


def test_element_count_mismatch_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr(lsfan.weyl, "checked_group_order", lambda *args: 49)
    with pytest.raises(InvariantError, match=r"generated 48 elements, expected 49"):
        WeylGroup(build_root_datum("B", 3))


def test_coroots_too_high_for_the_key_digits_are_an_invariant_error():
    datum = build_root_datum("B", 3)
    high = replace(datum, positive_coroots=datum.positive_coroots + ((128, 0, 0),))
    with pytest.raises(InvariantError, match="too high"):
        WeylGroup(high)


REFERENCE_TYPES = (
    [("A", r) for r in range(1, 6)]
    + [(t, r) for t in "BC" for r in (2, 3, 4)]
    + [("D", r) for r in (3, 4, 5)]
    + [("F", 4), ("G", 2)]
)


@cache
def reference_build(kind, rank):
    """The group and the reference tables of one type, built once."""
    datum = build_root_datum(kind, rank)
    return WeylGroup(datum, size_guard=1920), reference_group_tables(datum)  # |W(D5)|


def relabel(group, key):
    """Every table of reference_group_tables, read off the group with its
    elements renumbered in the order of key(x) over the indices x."""
    old = sorted(range(len(group)), key=key)
    new = [0] * len(old)
    for k, x in enumerate(old):
        new[x] = k
    renumber = lambda rows: [tuple(new[y] for y in rows[x]) for x in old]
    tables = {name: [getattr(group, name)[x] for x in old]
              for name in ("lengths", "_right_desc", "_left_desc", "_words")}
    tables |= {"_right": renumber(group._right), "_left": renumber(group._left),
               "_inv": [new[group._inv[x]] for x in old],
               "_root_of": {new[x]: idx for x, idx in group._root_of.items()}}
    tables["elements"] = [(new[w.index], w.matrix, w.length)
                          for w in map(group.elements().__getitem__, old)]
    tables["identity"] = new[group.identity.index]
    tables["longest"] = new[group.longest.index]
    tables["_reflections"] = [new[x] for x in group._reflections]
    return tables


@pytest.mark.parametrize("kind,rank", REFERENCE_TYPES)
def test_tables_match_the_reference_build(kind, rank):
    # the reference numbers the elements in matrix order, the group breadth
    # first: its tables are compared renumbered by their packed matrices
    group, expected = reference_build(kind, rank)
    tables = relabel(group, lambda x: group.element(x).packed)
    assert tables.keys() == expected.keys()
    for name, table in expected.items():
        assert tables[name] == table, name


@pytest.mark.parametrize("kind,rank", REFERENCE_TYPES)
def test_longest_in_parabolic_is_the_last_element_of_the_scan(kind, rank):
    group = WeylGroup(build_root_datum(kind, rank), size_guard=1920)
    for k in range(rank + 1):
        for subset in combinations(group.datum.simple_indices, k):
            p = frozenset(subset)
            longest = group.longest_in_parabolic(p)
            assert longest == group.parabolic_elements(p)[-1]
            assert all(group.has_right_descent(longest, i) for i in p)


@pytest.mark.parametrize("kind,rank", REFERENCE_TYPES)
def test_parabolic_elements_are_the_word_scan_by_length_and_matrix(kind, rank):
    group, _ = reference_build(kind, rank)
    for k in range(rank + 1):
        for p in map(frozenset, combinations(group.datum.simple_indices, k)):
            members = [w for w in group.elements() if p.issuperset(group.reduced_word(w))]
            members.sort(key=lambda w: (w.length, w.packed))
            assert list(group.parabolic_elements(p)) == members, p


@pytest.mark.parametrize("kind,rank", REFERENCE_TYPES)
def test_packed_matrices_decode_and_sort_as_the_reference_rows(kind, rank):
    # the elements sorted by packed are the reference rows, in matrix order
    group, expected = reference_build(kind, rank)
    rows = [matrix for _, matrix, _ in expected["elements"]]
    by_packed = sorted(group.elements(), key=lambda w: w.packed)
    assert [w.matrix for w in by_packed] == rows
    # entry (r, c) is the signed 8-bit digit at bit 8(n(n-1-r) + n-1-c)
    n = rank
    assert [w.packed for w in by_packed] == [
        sum(x << 8 * (n * (n - 1 - r) + n - 1 - c)
            for r, row in enumerate(matrix) for c, x in enumerate(row))
        for matrix in rows
    ]
    # and the index numbers them breadth first, so by length
    assert [w.index for w in group.elements()] == list(range(len(group)))
    assert group.lengths == sorted(group.lengths)


@pytest.mark.parametrize("kind,rank", [("F", 4), ("B", 4), ("D", 4)])
def test_left_products_and_inverses_by_recurrence_are_the_reference_tables(kind, rank):
    # x = u s_i for the last letter i of x's word: s_j x = (s_j u) s_i and
    # x^-1 = s_i u^-1; compared with the group renumbered by reduced word,
    # not by the packed matrices that the table test reads
    group, expected = reference_build(kind, rank)
    at = {word: k for k, word in enumerate(expected["_words"])}
    tables = relabel(group, lambda x: at[group._words[x]])
    assert tables["_left"] == expected["_left"]
    assert tables["_inv"] == expected["_inv"]


def test_elements_are_made_on_first_use():
    # the build makes the identity and w0; a coset query, its representative
    group = make_group("F", 4)
    rep = group.coset(group.longest, frozenset({2, 3})).rep
    made = [w for w in group._elts if w is not None]
    assert made == sorted({group.identity, rep, group.longest}, key=lambda w: w.index)
    assert len(made) < len(group) == 1152
    assert len(group.elements()) == 1152 == sum(w is not None for w in group._elts)


def test_longest_element_length_equals_root_count(a3, b2, d4):
    for group in (a3, b2, d4):
        assert group.longest.length == len(group.datum.positive_roots)


def test_reduced_words_reconstruct(a3):
    for w in a3.elements():
        word = a3.reduced_word(w)
        assert len(word) == w.length
        assert a3.from_word(word) == w


def test_products_of_distinct_simple_reflections_are_reduced(a3, d4):
    for group in (a3, d4):
        indices = list(group.datum.simple_indices)
        for k in range(1, len(indices) + 1):
            for subset in combinations(indices, k):
                for order in permutations(subset):
                    assert group.from_word(order).length == k


# -- tables against matrix products ------------------------------------------------
#
# The group multiplies, inverts and finds descents by table lookup; these
# references multiply the element matrices instead.


def mat_mult(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


@pytest.fixture(scope="module")
def f4():
    return make_group("F", 4)


@pytest.mark.parametrize("kind,rank", [("A", 2), ("A", 3), ("B", 3), ("G", 2)])
def test_tables_match_matrix_products(kind, rank):
    group = make_group(kind, rank)
    by_matrix = {w.matrix: w for w in group.elements()}
    assert len(by_matrix) == len(group)
    simple = [group.simple_reflection(i) for i in group.datum.simple_indices]
    for u in group.elements():
        assert group.mult(group.inverse(u), u) == group.identity
        for v in group.elements():
            assert group.mult(u, v).matrix == mat_mult(u.matrix, v.matrix)
        for i, s in enumerate(simple):
            us = by_matrix[mat_mult(u.matrix, s.matrix)]
            su = by_matrix[mat_mult(s.matrix, u.matrix)]
            assert group._right[u.index][i] == us.index
            assert group._left[u.index][i] == su.index
            assert group.has_right_descent(u, i + 1) == (us.length < u.length)
            assert group.has_left_descent(u, i + 1) == (su.length < u.length)


def test_f4_packed_order_is_the_matrix_order(f4):
    elements = f4.elements()
    assert [w.index for w in elements] == list(range(len(f4)))
    assert sorted(elements, key=lambda w: w.packed) == sorted(elements, key=lambda w: w.matrix)


def test_f4_covering_root_matches_a_scan_over_the_reflections(f4):
    # lower s = upper iff s = lower^-1 upper, and s lower = upper iff
    # s = upper lower^-1: one matrix product per cover, then a scan
    reflections = [f4.reflection(k).matrix for k in range(len(f4.datum.positive_roots))]
    p = frozenset({2, 3})
    for upper in f4.all_cosets(p):
        for lower, idx in f4.covers_down(upper):
            inverse = f4.inverse(lower.rep).matrix
            assert mat_mult(lower.rep.matrix, inverse) == f4.identity.matrix
            # covers_down labels by the right root, covering_root gives the left one
            right = mat_mult(inverse, upper.rep.matrix)
            left = mat_mult(upper.rep.matrix, inverse)
            assert [k for k, s in enumerate(reflections) if s == right] == [idx]
            assert [k for k, s in enumerate(reflections) if s == left] == [
                f4.covering_root(upper, lower)]


def test_elements_compare_and_hash_by_index(a3):
    w = a3.longest
    twin = WeylElt(w.index, 0, -1, 0)
    assert twin == w and hash(twin) == hash(w)
    assert WeylElt(w.index + 1, w.packed, w.length, w.rank) != w


# -- Bruhat order -----------------------------------------------------------------


def test_identity_below_everything(a3):
    for w in a3.elements():
        assert a3.bruhat_leq(a3.identity, w)


def test_bruhat_vs_subword_oracle(a3, b2):
    for group in (a3, b2):
        for v in group.elements():
            ideal = bruhat_ideal(group, v)
            for u in group.elements():
                assert group.bruhat_leq(u, v) == (u in ideal)


def test_type_a_one_line_criterion(a3):
    elements = list(a3.elements())
    for u in elements:
        pu = sorted_prefixes(one_line(a3, u))
        for v in elements:
            pv = sorted_prefixes(one_line(a3, v))
            componentwise = all(
                all(x <= y for x, y in zip(a, b)) for a, b in zip(pu, pv)
            )
            assert a3.bruhat_leq(u, v) == componentwise


def test_bruhat_facts_below_3412(a3):
    w3412 = perm_elt(a3, (3, 4, 1, 2))
    assert a3.bruhat_leq(perm_elt(a3, (1, 4, 3, 2)), w3412)
    assert a3.bruhat_leq(perm_elt(a3, (3, 2, 1, 4)), w3412)


# -- quotients, lifts, Deodhar -----------------------------------------------------


def parabolic_pairs(group):
    indices = list(group.datum.simple_indices)
    subsets = [frozenset(c) for k in range(len(indices) + 1) for c in combinations(indices, k)]
    return [(q, qp) for q in subsets for qp in subsets if q <= qp]


def test_pi_to_own_parabolic_is_identity(a3):
    p = frozenset({1, 3})
    for c in a3.all_cosets(p):
        assert a3.pi(c, p) == c


def test_pi_examples(a3, a2):
    # A3: 3124 W_B projected to W/W_{P_1} is the coset "3"
    c = a3.coset(perm_elt(a3, (3, 1, 2, 4)), ALL)
    proj = a3.pi(c, frozenset({2, 3}))
    assert one_line(a3, proj.rep)[0] == 3
    # A2: pi_{P_1}(312 W_B) = 3, by brute force over S_3
    c = a2.coset(perm_elt(a2, (3, 1, 2)), ALL)
    proj = a2.pi(c, frozenset({2}))
    expected = min(
        (w for w in a2.elements() if one_line(a2, w)[0] == 3),
        key=lambda w: w.length,
    )
    assert proj.rep == expected


def test_lift_round_trips_and_monotonicity(a3, b2):
    for group in (a3, b2):
        for q, qp in parabolic_pairs(group):
            if q == qp:
                continue
            cosets = group.all_cosets(qp)
            for c in cosets:
                assert group.pi(group.min_lift(c, q), qp) == c
                assert group.pi(group.max_lift(c, q), qp) == c
                assert group.coset_leq(group.min_lift(c, q), group.max_lift(c, q))
            for c1 in cosets:
                for c2 in cosets:
                    if group.coset_leq(c1, c2):
                        assert group.coset_leq(
                            group.min_lift(c1, q), group.min_lift(c2, q)
                        )
                        assert group.coset_leq(
                            group.max_lift(c1, q), group.max_lift(c2, q)
                        )


def test_min_lift_image_is_exactly_the_minimal_elements(a3):
    q, qp = frozenset(), frozenset({1, 2})
    image = {a3.min_lift(c, q) for c in a3.all_cosets(qp)}
    minimal = {c for c in a3.all_cosets(q) if a3.is_lift_minimal(c, qp)}
    assert image == minimal


def test_max_lift_examples(a3):
    # max lift of 134 in W/W_{P_3} to W/W_B is 4312
    c = a3.coset(perm_elt(a3, (1, 3, 4, 2)), frozenset({1, 2}))
    assert one_line(a3, a3.max_lift(c, ALL).rep) == (4, 3, 1, 2)
    # max lift of 13 in W/W_{P_2} to W/W_B is 3142
    c = a3.coset(perm_elt(a3, (1, 3, 2, 4)), frozenset({1, 3}))
    assert one_line(a3, a3.max_lift(c, ALL).rep) == (3, 1, 4, 2)


@cache
def lifts_by_scan(group, parabolic, phi):
    """The cosets of W/W_P that project to phi, by a scan of W/W_P."""
    return [c for c in group.all_cosets(parabolic) if group.pi(c, phi.parabolic) == phi]


def deodhar_brute(group, theta_bar, phi, want_max):
    lifts = lifts_by_scan(group, theta_bar.parabolic, phi)
    if want_max:
        bounded = [c for c in lifts if group.coset_leq(c, theta_bar)]
    else:
        bounded = [c for c in lifts if group.coset_leq(theta_bar, c)]
    if not bounded:
        return None
    extremes = [
        c
        for c in bounded
        if all(
            group.coset_leq(d, c) if want_max else group.coset_leq(c, d)
            for d in bounded
        )
    ]
    assert len(extremes) == 1, "extremal lift is not unique"
    return extremes[0]


@pytest.mark.parametrize("fixture_name", ["a2", "a3", "b2", "b3", "g2"])
def test_deodhar_lifts_match_brute_force(fixture_name, request):
    group = request.getfixturevalue(fixture_name)
    for q, qp in parabolic_pairs(group):
        if q == qp:
            continue
        upper_cosets = group.all_cosets(qp)
        lower_cosets = group.all_cosets(q)
        for phi in upper_cosets:
            fiber = group.coset_fiber(phi, q)
            assert fiber == lifts_by_scan(group, q, phi)
            for theta_bar in lower_cosets:
                theta = group.pi(theta_bar, qp)
                if group.coset_leq(phi, theta):
                    expected = deodhar_brute(group, theta_bar, phi, want_max=True)
                    assert group.deodhar_max_lift(theta_bar, phi) == expected
                else:
                    with pytest.raises(LiftError):
                        group.deodhar_max_lift(theta_bar, phi)
                if group.coset_leq(theta, phi):
                    expected = deodhar_brute(group, theta_bar, phi, want_max=False)
                    assert group.deodhar_min_lift(theta_bar, phi) == expected
                else:
                    with pytest.raises(LiftError):
                        group.deodhar_min_lift(theta_bar, phi)


def test_lift_and_projection_parabolic_mismatch_rejected(a3):
    c = a3.coset(a3.identity, frozenset({1, 2}))
    with pytest.raises(ValueError):
        a3.pi(c, frozenset({3}))
    with pytest.raises(ValueError):
        a3.min_lift(c, frozenset({1, 3}))
    with pytest.raises(ValueError):
        a3.max_lift(c, frozenset({1, 3}))
    with pytest.raises(ValueError):
        a3.coset_fiber(c, frozenset({1, 3}))
    with pytest.raises(ValueError, match="contained"):
        a3.deodhar_max_lift(a3.coset(a3.identity, frozenset({1, 3})), c)


def test_deodhar_precondition_violated_rejected(a3):
    from lsfan import LiftError

    bound = a3.coset(a3.identity, ALL)  # identity coset bounds nothing above it
    phi = a3.coset(perm_elt(a3, (3, 1, 2, 4)), frozenset({2, 3}))
    with pytest.raises(LiftError):
        a3.deodhar_max_lift(bound, phi)


def test_deodhar_same_coset_returns_given_lift(a3):
    q, qp = frozenset(), frozenset({2, 3})
    for theta_bar in a3.all_cosets(q):
        phi = a3.pi(theta_bar, qp)
        assert a3.deodhar_max_lift(theta_bar, phi) == theta_bar


def test_deodhar_sl4_example(a3):
    # minimal lift of 124 above 3124 is 4123
    w3124 = a3.coset(perm_elt(a3, (3, 1, 2, 4)), ALL)
    c124 = a3.coset(perm_elt(a3, (1, 2, 4, 3)), frozenset({1, 2}))
    lifted = a3.deodhar_min_lift(w3124, c124)
    assert one_line(a3, lifted.rep) == (4, 1, 2, 3)


def test_deodhar_a2_max_below_312(a2):
    # max lift of 1 in W/W_{P_1} below 312 W_B, against the 6-element scan
    p1 = frozenset({2})
    bound = a2.coset(perm_elt(a2, (3, 1, 2)), ALL)
    phi = a2.coset(a2.identity, p1)
    assert a2.deodhar_max_lift(bound, phi) == deodhar_brute(a2, bound, phi, True)


# -- covering relations -------------------------------------------------------------


def test_rank_zero_coset_has_no_covers(a2):
    assert a2.covers_down(a2.coset(a2.identity, frozenset({1}))) == []


def test_covering_relations_of_rank_zero_interval(a2):
    tau = a2.coset(a2.identity, ALL)
    assert covering_relations(a2, frozenset({1}), tau) == []


def test_covering_relations_below_312(a2):
    tau = a2.coset(perm_elt(a2, (3, 1, 2)), ALL)
    edges = covering_relations(a2, ALL, tau)
    assert len(edges) == 4
    for upper, lower, gamma_idx in edges:
        assert a2.mult(lower.rep, a2.reflection(gamma_idx)) == upper.rep


def test_covering_relations_chain_in_p1_quotient(a3):
    p1 = frozenset({2, 3})
    tau = a3.coset(perm_elt(a3, (4, 1, 2, 3)), ALL)
    edges = covering_relations(a3, p1, tau)
    got = {(one_line(a3, u.rep)[0], one_line(a3, l.rep)[0]) for u, l, _ in edges}
    assert got == {(4, 3), (3, 2), (2, 1)}


def test_covers_match_rank_gap_definition(a3, b2):
    for group in (a3, b2):
        for p in [frozenset(), frozenset({1}), frozenset({2})]:
            cosets = group.all_cosets(p)
            for upper in cosets:
                expected = {
                    c
                    for c in cosets
                    if c.rank == upper.rank - 1 and group.coset_leq(c, upper)
                }
                got = {c for c, _ in group.covers_down(upper)}
                assert got == expected


def test_covers_are_computed_once_per_coset(b2):
    # the memo is keyed by the coset's int key, so an equal coset built
    # anew reads the same entry
    for p in [frozenset(), frozenset({1})]:
        for c in b2.all_cosets(p):
            first = b2.covers_down(c)
            assert b2.covers_down(b2.coset(c.rep, p)) is first


COVER_GROUPS = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3),
                ("D", 4), ("G", 2)]


@pytest.mark.parametrize("kind,rank", COVER_GROUPS)
def test_covers_by_deletion_are_the_reflection_covers(kind, rank):
    group = make_group(kind, rank)
    simple = group.datum.simple_indices
    for k in range(len(simple) + 1):
        for p in combinations(simple, k):
            for c in group.all_cosets(frozenset(p)):
                assert group.covers_down(c) == reflection_covers(group, c), (p, c.rep.index)


@pytest.mark.parametrize("p", [ALL, frozenset({2, 3})])
def test_f4_covers_by_deletion_are_the_reflection_covers(f4, p):
    for c in f4.all_cosets(p):
        assert f4.covers_down(c) == reflection_covers(f4, c), c.rep.index


def test_covering_roots_are_reflection_witnesses(b2):
    for c in b2.all_cosets(frozenset({1})):
        for lower, idx in b2.covers_down(c):
            assert b2.mult(lower.rep, b2.reflection(idx)) == c.rep


def test_a2_interval_below_312(a2):
    top = a2.coset(perm_elt(a2, (3, 1, 2)), ALL)
    nodes = [c for c in a2.all_cosets(ALL) if a2.coset_leq(c, top)]
    assert len(nodes) == 4
    edges = {
        (one_line(a2, u.rep), one_line(a2, l.rep))
        for u in nodes
        for l, _ in a2.covers_down(u)
    }
    assert edges == {
        ((3, 1, 2), (1, 3, 2)),
        ((3, 1, 2), (2, 1, 3)),
        ((1, 3, 2), (1, 2, 3)),
        ((2, 1, 3), (1, 2, 3)),
    }


def test_a3_p1_quotient_is_a_chain(a3):
    p1 = frozenset({2, 3})
    top = a3.coset(perm_elt(a3, (4, 1, 2, 3)), p1)
    chain = [top]
    while True:
        downs = a3.covers_down(chain[-1])
        if not downs:
            break
        assert len(downs) == 1
        chain.append(downs[0][0])
    assert [one_line(a3, c.rep)[0] for c in chain] == [4, 3, 2, 1]


# -- product decomposition ------------------------------------------------------------


def test_product_decomposition_identity(a3):
    a, b = a3.product_decomposition(a3.identity, ALL, frozenset({2}))
    assert a == a3.identity and b == a3.identity


def test_product_decomposition_lengths_all_pairs(a3):
    for q, qp in parabolic_pairs(a3):
        members_qp = set(a3.parabolic_elements(qp))
        for c in a3.all_cosets(q):
            w = c.rep
            a, b = a3.product_decomposition(w, q, qp)
            assert a3.mult(a, b) == w
            assert w.length == a.length + b.length
            assert a3.is_q_minimal(a, qp)
            assert b in members_qp and a3.is_q_minimal(b, q)
            # uniqueness: exhaustive over candidate factorizations
            count = sum(
                1
                for bb in a3.parabolic_elements(qp)
                if a3.is_q_minimal(bb, q)
                and a3.is_q_minimal(a3.mult(w, a3.inverse(bb)), qp)
                and a3.mult(a3.mult(w, a3.inverse(bb)), bb) == w
                and w.length == a3.mult(w, a3.inverse(bb)).length + bb.length
            )
            assert count == 1


def test_product_decomposition_rejects_non_minimal(a3):
    s1 = a3.simple_reflection(1)
    with pytest.raises(ValueError):
        a3.product_decomposition(s1, frozenset({1}), frozenset({1, 2}))


# -- interval covering lemma -----------------------------------------------------------


def test_bruhat_interval_cover_rank_gap_one(a3):
    p = frozenset({2})
    theta = a3.coset(perm_elt(a3, (2, 1, 3, 4)), ALL)
    phi = a3.coset(a3.identity, ALL)
    assert a3.bruhat_interval_cover(theta, phi, p) == phi


def test_bruhat_interval_cover_picks_by_rank_then_matrix(a3):
    # two covers of theta qualify in each case; the candidates are ordered by
    # rank, then matrix, never by the breadth-first index
    p, phi = frozenset({1}), a3.coset(a3.identity, ALL)
    for word, psi in (((3, 2), (3,)), ((2, 3), (3,)), ((2, 3, 2), (3, 2))):
        theta = a3.coset(a3.from_word(word), ALL)
        assert a3.reduced_word(a3.bruhat_interval_cover(theta, phi, p).rep) == psi, word


def test_bruhat_interval_cover_postconditions(a3, b2):
    for group in (a3, b2):
        p = frozenset({1})
        cosets = group.all_cosets(ALL)
        for theta in cosets:
            for phi in cosets:
                if not (group.coset_leq(phi, theta) and phi != theta):
                    continue
                if group.pi(theta, p) == group.pi(phi, p):
                    continue
                psi = group.bruhat_interval_cover(theta, phi, p)
                assert psi.rank == theta.rank - 1
                assert group.coset_leq(psi, theta)
                assert group.coset_leq(phi, psi)
                assert group.pi(psi, p) != group.pi(theta, p)
                # a brute-force witness exists among the covers of theta
                assert any(
                    group.coset_leq(phi, c) and group.pi(c, p) != group.pi(theta, p)
                    for c, _ in group.covers_down(theta)
                )


def test_bruhat_interval_cover_rejects_bad_input(a3):
    p = frozenset({1})
    c = a3.coset(perm_elt(a3, (2, 1, 3, 4)), ALL)
    with pytest.raises(ValueError):
        a3.bruhat_interval_cover(c, c, p)


# -- one-line helpers ---------------------------------------------------------------


def test_one_line_round_trip():
    for line in permutations((1, 2, 3, 4)):
        word = one_line_to_word(line)
        assert word_to_one_line(word, 4) == line


def test_concurrent_style_purity(a3):
    # repeated queries give identical results (memoization is invisible)
    u = perm_elt(a3, (2, 1, 4, 3))
    v = perm_elt(a3, (4, 2, 3, 1))
    first = a3.bruhat_leq(u, v)
    assert all(a3.bruhat_leq(u, v) == first for _ in range(3))


def test_size_guard_rejects_large_ranks_without_the_group_order(monkeypatch):
    # |W| >= 2^rank for every simple type, so these fail before |W| or the
    # root datum is computed
    def never(*args):
        raise AssertionError("the root datum was built for an oversized group")

    monkeypatch.setattr(lsfan.weyl, "build_root_datum", never)
    with pytest.raises(GroupSizeError, match=r">= 2\^400 exceeds"):
        make_group("A", 400)
    with pytest.raises(GroupSizeError, match=r">= 2\^1000000000 exceeds"):
        checked_group_order("A", 10**9, 1152)
    with pytest.raises(GroupSizeError, match=r"\| = 48 exceeds the size guard 47"):
        checked_group_order("B", 3, 47)
    checked_group_order("B", 3, 48)
    with pytest.raises(GroupSizeError):
        checked_group_order("A", 1, 0)
    # the type and rank are checked first
    with pytest.raises(RootDatumError):
        checked_group_order("E", 400, 1152)


def test_a_self_loop_in_the_right_table_raises_instead_of_walking_on():
    # every step of the two walks changes the length by one, so a slot that
    # leads back to its own element stops them once the length is spent
    group = make_group("A", 2)  # its own tables, broken below
    top, e = group.longest.index, group.identity.index
    group._right[top] = (top,) + group._right[top][1:]
    with pytest.raises(InvariantError, match="keeps the length"):
        group.coset(group.longest, frozenset({1}))
    group._right[e] = (e,) + group._right[e][1:]
    with pytest.raises(InvariantError, match="keeps the length"):
        group.longest_in_parabolic(frozenset({1}))
