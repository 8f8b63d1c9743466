from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lsfan import (
    LSPath,
    PathError,
    Setup,
    ShapePoset,
    build_dcp_inductive,
    demazure_character,
    demazure_dimension,
    endpoint,
    enumerate_ls_paths,
    initial_direction,
    make_group,
    powerset_iposet,
    theta_single,
    theta_single_inverse,
    validate_ls_path,
    weyl_dimension,
)
from lsfan.lspath import bonded_below, bonded_chain, maximal_bonded_chains
from lsfan.weyl import Coset

from chain_reference import (
    bonded_chain as ref_bonded_chain,
    interval_scan,
    reference_ls_paths,
)

ONE = Fraction(1)


def top_coset(group, nu):
    return group.coset(group.longest, group.stabilizer_parabolic(nu))


def scaled(nu, d):
    return tuple(d * x for x in nu)


# -- the path key -----------------------------------------------------------------


def test_path_key_agrees_with_fieldwise_comparison(b2):
    # equality and hashing read the key made at construction; they must
    # agree with comparing shape, cosets and cut points field by field
    paths = [
        p for nu in [(1, 0), (0, 1), (1, 1)] for d in (1, 2)
        for p in enumerate_ls_paths(b2, nu, top_coset(b2, nu), d)
    ]
    rebuilt = [LSPath(tuple(p.shape), tuple(p.cosets), tuple(p.cuts)) for p in paths]
    for p, q in zip(paths, rebuilt):
        assert p is not q and p == q and hash(p) == hash(q)
    fields = lambda p: (p.shape, p.cosets, p.cuts)
    for p in paths:
        for q in paths:
            assert (p == q) == (fields(p) == fields(q))
    assert paths[0] != fields(paths[0])


@pytest.mark.parametrize("name", ["a3", "g2"])
def test_the_hash_made_at_construction_is_the_hash_of_the_key(name, request):
    # LSPath computes hash(key) once, in __post_init__; a path rebuilt field
    # by field must hash alike, compare equal and find the original's entry
    group = request.getfixturevalue(name)
    rank = group.rank
    shapes = [tuple(int(i == j) for i in range(rank)) for j in range(rank)] + [(1,) * rank]
    paths = [p for nu in shapes for d in (1, 2)
             for p in enumerate_ls_paths(group, nu, top_coset(group, nu), d)]
    assert len(paths) > 100
    for p in paths:
        q = LSPath(tuple(p.shape), tuple(p.cosets), tuple(p.cuts))
        assert hash(p) == hash(p.key) == hash(q) == hash(q.key)
        assert p is not q and p == q and {p: name}[q] == name


def test_paths_that_differ_in_shape_or_one_cut_are_unequal(b2):
    nu = (1, 0)
    path = next(
        p for p in enumerate_ls_paths(b2, nu, top_coset(b2, nu), 2) if len(p.cuts) == 2
    )
    other_shape = LSPath(scaled(path.shape, 2), path.cosets, path.cuts)
    other_cut = LSPath(path.shape, path.cosets, (path.cuts[0] / 2, ONE))
    assert other_shape != path and other_cut != path
    assert len({path, other_shape, other_cut}) == 3


# -- validation -------------------------------------------------------------------


def test_straight_line_paths_are_valid(a2):
    nu = (1, 1)
    for sigma in a2.all_cosets(a2.stabilizer_parabolic(nu)):
        ok, cert = validate_ls_path(a2, LSPath(nu, (sigma,), (ONE,)))
        assert ok and cert == {}


def test_non_decreasing_cosets_rejected(a3):
    nu = (0, 1, 0)
    sigma = top_coset(a3, nu)
    with pytest.raises(PathError):
        validate_ls_path(
            a3, LSPath(scaled(nu, 2), (sigma, sigma), (Fraction(1, 2), ONE))
        )


def test_shape_poset_nodes_are_the_interval_scan():
    # every nonzero 0/1 shape and every coset of its quotient as the top
    for dynkin, rank in (("A", 2), ("B", 2), ("G", 2), ("A", 3)):
        group = make_group(dynkin, rank)
        for nu in product((0, 1), repeat=rank):
            if not any(nu):
                continue
            parabolic = group.stabilizer_parabolic(nu)
            for tau in group.all_cosets(parabolic):
                nodes = ShapePoset(group, nu, tau).nodes
                assert nodes == interval_scan(group, parabolic, tau), (dynkin, nu, tau)


def test_bad_cut_points_rejected(a2):
    nu = (1, 0)
    poset = ShapePoset(a2, nu, top_coset(a2, nu))
    hi, lo = poset.nodes[-1], poset.nodes[0]
    with pytest.raises(PathError):
        LSPath(nu, (hi, lo), (Fraction(1, 2),))  # length mismatch
    with pytest.raises(PathError):
        validate_ls_path(a2, LSPath(nu, (hi, lo), (ONE, ONE)))
    with pytest.raises(PathError):
        validate_ls_path(a2, LSPath(scaled(nu, 2), (hi, lo), (Fraction(0), ONE)))


def test_b2_half_cut_across_bond_two(b2):
    nu = (1, 0)
    poset = ShapePoset(b2, nu, top_coset(b2, nu))
    cosets = {c.rep.index: c for c in poset.nodes}
    pair = next(
        (c, cosets[lower])
        for c in poset.nodes
        for lower, _, bond in poset.covers_down[c.rep.index]
        if bond == 2
    )
    upper, lower = pair
    good = LSPath(nu, (upper, lower), (Fraction(1, 2), ONE))
    assert validate_ls_path(b2, good)[0]
    bad = LSPath(nu, (upper, lower), (Fraction(1, 3), ONE))
    assert not validate_ls_path(b2, bad)[0]


def test_certificate_is_a_real_chain(b2):
    nu = (1, 1)
    top = top_coset(b2, nu)
    for path in enumerate_ls_paths(b2, nu, top, 2):
        ok, cert = validate_ls_path(b2, path)
        assert ok
        for (upper, lower), chain in cert.items():
            assert chain[0] == upper and chain[-1] == lower
            for a, b in zip(chain, chain[1:]):
                assert b in {c for c, _ in b2.covers_down(a)}


# -- enumeration ---------------------------------------------------------------------


def test_trivial_poset_single_path(a2):
    nu = (1, 0)
    tau = a2.coset(a2.identity, a2.stabilizer_parabolic(nu))
    paths = enumerate_ls_paths(a2, nu, tau, 3)
    assert len(paths) == 1
    (path,) = paths
    assert path.cosets == (tau,) and path.cuts == (ONE,)


def test_a2_fundamental_counts(a2):
    assert len(enumerate_ls_paths(a2, (1, 0), top_coset(a2, (1, 0)), 1)) == 3
    assert len(enumerate_ls_paths(a2, (1, 1), top_coset(a2, (1, 1)), 1)) == 8


FIXTURES = [
    ("a2", (1, 0), 3),
    ("a2", (1, 1), 3),
    ("a2", (2, 1), 2),
    ("a3", (1, 0, 0), 3),
    ("a3", (0, 1, 0), 2),
    ("a3", (1, 1, 1), 1),
    ("b2", (1, 0), 3),
    ("b2", (0, 1), 3),
    ("b2", (1, 1), 2),
    ("c3", (1, 0, 0), 3),
    ("c3", (0, 0, 1), 2),
    ("c3", (1, 0, 1), 1),
]


@pytest.mark.parametrize("fixture_name,nu,dmax", FIXTURES)
def test_counts_match_dimensions_at_full_tau(fixture_name, nu, dmax, request):
    group = request.getfixturevalue(fixture_name)
    top = top_coset(group, nu)
    for d in range(1, dmax + 1):
        paths = enumerate_ls_paths(group, nu, top, d)
        assert len(paths) == weyl_dimension(group.datum, scaled(nu, d))
        for path in paths:
            assert validate_ls_path(group, path)[0]


def test_counts_match_demazure_dimensions_below_top(a3, b2):
    cases = [(a3, (0, 1, 0)), (a3, (1, 0, 1)), (b2, (1, 1))]
    for group, nu in cases:
        parabolic = group.stabilizer_parabolic(nu)
        for tau in group.all_cosets(parabolic):
            for d in (1, 2):
                paths = enumerate_ls_paths(group, nu, tau, d)
                assert len(paths) == demazure_dimension(group, scaled(nu, d), tau)
                assert all(
                    group.coset_leq(initial_direction(p), tau) for p in paths
                )


def test_endpoint_multiset_is_demazure_character(a2, b2):
    for group, nu in [(a2, (1, 1)), (a2, (2, 0)), (b2, (1, 0)), (b2, (1, 1))]:
        parabolic = group.stabilizer_parabolic(nu)
        for tau in group.all_cosets(parabolic):
            counts = Counter(
                endpoint(p, group) for p in enumerate_ls_paths(group, nu, tau, 1)
            )
            assert dict(counts) == demazure_character(group, nu, tau)


def test_endpoint_multiset_at_higher_degree(b2):
    nu = (1, 0)
    top = top_coset(b2, nu)
    for d in (2, 3):
        counts = Counter(endpoint(p, b2) for p in enumerate_ls_paths(b2, nu, top, d))
        assert dict(counts) == demazure_character(b2, scaled(nu, d), top)


def test_endpoint_examples(a2):
    nu = (1, 1)
    sigma = top_coset(a2, nu)
    assert endpoint(LSPath(nu, (sigma,), (ONE,)), a2) == sigma.rep.act(nu)
    ident = a2.coset(a2.identity, a2.stabilizer_parabolic(nu))
    assert endpoint(LSPath(nu, (ident,), (ONE,)), a2) == nu
    total = (0, 0)
    for p in enumerate_ls_paths(a2, (1, 0), top_coset(a2, (1, 0)), 1):
        e = endpoint(p, a2)
        total = (total[0] + e[0], total[1] + e[1])
    assert total == (0, 0)


# -- theta ------------------------------------------------------------------------------


def test_theta_single_unit_vector(a2):
    nu = (1, 0)
    sigma = top_coset(a2, nu)
    path = LSPath(nu, (sigma,), (ONE,))
    assert theta_single(path, 1) == {sigma: ONE}


def test_theta_round_trip_and_degree_scaling(a2, b2):
    for group, nu, d in [(a2, (1, 0), 1), (a2, (1, 1), 2), (b2, (1, 0), 2)]:
        top = top_coset(group, nu)
        for path in enumerate_ls_paths(group, nu, top, d):
            coeffs = theta_single(path, d)
            assert sum(coeffs.values()) == d
            assert theta_single_inverse(group, coeffs, nu) == path


def test_theta_inverse_rejects_junk(a2):
    nu = (1, 0)
    poset = ShapePoset(a2, nu, top_coset(a2, nu))
    chain = poset.nodes
    with pytest.raises(PathError):
        theta_single_inverse(a2, {}, nu)
    with pytest.raises(PathError):
        theta_single_inverse(a2, {chain[0]: Fraction(1, 2)}, nu)
    # incomparable support in the W/W_B quotient
    nu2 = (1, 1)
    cosets = a2.all_cosets(frozenset())
    s1 = a2.coset(a2.simple_reflection(1), frozenset())
    s2 = a2.coset(a2.simple_reflection(2), frozenset())
    with pytest.raises(PathError):
        theta_single_inverse(a2, {s1: Fraction(1, 2), s2: Fraction(1, 2)}, nu2)


def test_theta_inverse_rejects_incomparable_support_of_different_ranks(a3):
    # s1 and s2 s3 are incomparable in Bruhat order; the rank sort puts
    # s2 s3 first, and the consecutive-pair check must still reject them
    regular = (1, 1, 1)
    s1 = a3.coset(a3.from_word((1,)), frozenset())
    s2s3 = a3.coset(a3.from_word((2, 3)), frozenset())
    assert (s1.rank, s2s3.rank) == (1, 2)
    assert not a3.coset_leq(s1, s2s3) and not a3.coset_leq(s2s3, s1)
    for coeffs in (
        {s1: Fraction(1, 2), s2s3: Fraction(1, 2)},
        {s2s3: Fraction(1, 3), s1: Fraction(2, 3)},
    ):
        with pytest.raises(PathError):
            theta_single_inverse(a3, coeffs, regular)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_enumerated_paths_survive_round_trips(data, a2):
    nu = data.draw(
        st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda t: any(t))
    )
    d = data.draw(st.integers(1, 2))
    paths = sorted(
        enumerate_ls_paths(a2, nu, top_coset(a2, nu), d),
        key=lambda p: (tuple(c.rep.matrix for c in p.cosets), p.cuts),
    )
    if not paths:
        return
    path = data.draw(st.sampled_from(paths))
    assert theta_single_inverse(a2, theta_single(path, d), nu) == path


# -- the lattice-point walk against the per-chain reference ------------------------------

WALK_CASES = (
    [("A", 2, nu, 3) for nu in product(range(3), repeat=2) if any(nu)]
    + [("B", 2, nu, 3) for nu in product(range(3), repeat=2) if any(nu)]
    + [("G", 2, nu, 2) for nu in product(range(2), repeat=2) if any(nu)]
    + [("A", 3, nu, 1) for nu in product(range(2), repeat=3) if any(nu)]
)


@pytest.mark.parametrize(
    "kind,rank,nu,dmax", WALK_CASES, ids=[f"{k}{r}-{nu}" for k, r, nu, _ in WALK_CASES]
)
def test_enumeration_matches_the_chain_reference(kind, rank, nu, dmax):
    group = make_group(kind, rank)
    for tau in group.all_cosets(group.stabilizer_parabolic(nu)):
        for d in range(dmax + 1):
            assert enumerate_ls_paths(group, nu, tau, d) == reference_ls_paths(
                group, nu, tau, d
            ), (tau, d)


def reference_reach(covers, upper, den):
    """The bit mask of the nodes on the maximal chains from `upper` that the
    chain reaches before its first bond not divisible by den."""
    reach = 1 << upper
    for nodes, bonds in maximal_bonded_chains(covers, upper):
        for node, bond in zip(nodes[1:], bonds):
            if bond % den:
                break
            reach |= 1 << node
    return reach


def test_bonded_below_matches_bonded_chain(b2):
    nu = (1, 1)
    poset = ShapePoset(b2, nu, top_coset(b2, nu))
    setup = Setup(b2, [(1, 0), (0, 1)], b2.longest, powerset_iposet(2))
    dcp = build_dcp_inductive(setup)
    # both posets walk int ids: rep indices and node numbers
    for covers, memo, nodes in [
        (poset.covers_down, poset.covers_down.reach, [c.rep.index for c in poset.nodes]),
        (dcp.covers_down, dcp.reach, range(len(dcp.nodes))),
    ]:
        bonds = {bond for n in nodes for _, _, bond in covers[n]}
        assert bonds != {1}
        for upper in nodes:
            for den in (1, 2, 3):
                reach = bonded_below(covers, upper, den, memo)
                assert reach == reference_reach(covers, upper, den), (upper, den)
                for lower in nodes:
                    chain = bonded_chain(covers, upper, lower, den, memo)
                    assert (chain is None) == (not reach >> lower & 1)


def test_validation_certificates_are_the_reference_chains(b2):
    # the chain read off the reach masks is the one the depth-first search
    # in cover order finds
    nu, elements, witnessed = (1, 1), b2.elements(), 0
    top = top_coset(b2, nu)
    for d in (1, 2):
        # the covers of the path's shape d * nu, keyed by coset
        poset = ShapePoset(b2, scaled(nu, d), top)
        covers = {
            c: [(Coset(elements[x], c.parabolic), root, bond)
                for x, root, bond in poset.covers_down[c.rep.index]]
            for c in poset.nodes
        }
        for path in enumerate_ls_paths(b2, nu, top, d):
            ok, certificate = validate_ls_path(b2, path)
            assert ok
            for upper, lower, cut in zip(path.cosets, path.cosets[1:], path.cuts):
                reference = ref_bonded_chain(covers, upper, lower, cut)
                assert certificate[(upper, lower)] == reference, path
                witnessed += len(reference) > 2
    assert witnessed
