"""The theta round trip and `endpoint` against their Fraction references.

The library carries every coefficient of theta_d, theta_d^-1, fan
membership, the degree-one decomposition and the path end point as an
integer numerator over one denominator.  `chain_reference` keeps the
versions that summed `Fraction`s directly; both must give the same results
on every tableau and fan vector of small instances whose bonds reach 2 and
3, among them the C3 powerset poset with its many bond-2 edges, and on
perturbed vectors that are not fan members.  The library runs the round
trip on node numbers and the references on nodes, so the two also check
the numbering against each other.
"""

import json
from fractions import Fraction
from functools import cache, lru_cache
from itertools import product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chain_reference as ref
from lsfan import (
    Setup,
    build_dcp_inductive,
    chain_iposet,
    decompose,
    endpoint,
    enumerate_fan_degree,
    enumerate_standard,
    fan_vector,
    in_ls_plus,
    make_group,
    powerset_iposet,
    theta_d,
    theta_d_inverse,
    theta_single,
    theta_single_inverse,
    vector_key,
)
from lsfan.cli import _setup_from_job

FIXTURES = Path(__file__).parent / "fixtures"


def _grid(m, bound, total=False):
    """Non-zero degree vectors with entries (or, with total=True, entry sum)
    at most `bound`."""
    grid = product(range(bound + 1), repeat=m)
    return [d for d in grid if 0 < (sum(d) if total else max(d)) <= bound]


@lru_cache(maxsize=None)
def instance(name):
    """(setup, dcp, degrees) of a named instance."""
    if name in ("b2_chain", "g2_chain"):
        group = make_group(name[0].upper(), 2)
        setup = Setup(group, [(1, 0), (0, 1)], group.longest, chain_iposet(2))
        degrees = _grid(2, 2)
    elif name == "a3_powerset":
        group = make_group("A", 3)
        lambdas = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        setup = Setup(group, lambdas, group.longest, powerset_iposet(3))
        degrees = [(1, 1, 1)]
    else:
        setup = _setup_from_job(json.loads((FIXTURES / f"{name}.json").read_text()))
        degrees = _grid(setup.m, 2, total=True)
    return setup, build_dcp_inductive(setup), degrees


@lru_cache(maxsize=None)
def vectors(name, d):
    return enumerate_fan_degree(instance(name)[1], d)


@lru_cache(maxsize=None)
def tableaux(name, d):
    return enumerate_standard(instance(name)[1], d)


NAMES = ["b2_chain", "g2_chain", "a3_powerset", "a3_tau3412_branched", "c3_powerset"]


def outcome(fn, *args):
    """fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


@pytest.mark.parametrize("name", NAMES)
def test_round_trip_matches_the_fraction_reference(name):
    setup, dcp, degrees = instance(name)
    assert dcp.big_l == lcm(1, *(bond for *_, bond in dcp.edges))
    # the references are pure, so each runs once per key or path
    inverse = cache(lambda key: ref.theta_d_inverse(dcp, fan_vector(dcp, key)))
    end, single = cache(ref.endpoint), cache(lambda path: ref.theta_single(path, 2))
    for d in degrees:
        for t in tableaux(name, d):
            key = theta_d(dcp, t)
            vec = fan_vector(dcp, key)
            assert vec == ref.theta_d(dcp, t)
            assert all(type(c) is Fraction for c in vec.values())
            assert theta_d_inverse(dcp, key) == inverse(key) == t
            for path in t.columns:
                e = endpoint(path, setup.group)
                assert e == end(path)
                assert all(type(x) is int for x in e)
                assert theta_single(path, 2) == single(path)
        for key in vectors(name, d):
            vec = fan_vector(dcp, key)
            assert in_ls_plus(dcp, key)
            parts = decompose(dcp, key)
            assert parts == ref.decompose(dcp, vec)  # which raises unless ref.in_ls_plus holds
            assert all(type(c) is Fraction for p in parts for c in p.values())
            assert theta_d_inverse(dcp, key) == inverse(key)


# a coefficient as (numerator, denominator); "L" is the lcm of the bonds, so
# 1/7 and 1/(2L) have denominators that do not divide it, and a denominator
# of 1 gives an int
COEFFICIENTS = st.tuples(st.integers(-2, 6), st.sampled_from([1, 1, 2, 3, 7, "L", "2L"]))


def coefficient(pair, big_l):
    num, den = pair
    if den == 1:
        return num
    return Fraction(num, {"L": big_l, "2L": 2 * big_l}.get(den, den))


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(NAMES),
    pick=st.integers(min_value=0, max_value=10**6),
    changes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**6), COEFFICIENTS),
        max_size=3,
    ),
    moves=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=0, max_value=10**6),
            st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), 1]),
        ),
        max_size=2,
    ),
)
def test_perturbed_vectors_match_the_fraction_reference(name, pick, changes, moves):
    # changes set coefficients; moves shift mass from a support node to any
    # node, which keeps the total and so leaves the bond conditions to decide
    setup, dcp, degrees = instance(name)
    members = vectors(name, degrees[pick % len(degrees)])
    vec = fan_vector(dcp, members[pick % len(members)])
    big_l = lcm(1, *(bond for *_, bond in dcp.edges))
    for source, target, mass in moves:
        source = sorted(vec, key=dcp.nodes.index)[source % len(vec)]
        target = dcp.nodes[target % len(dcp.nodes)]
        vec[source] -= mass
        vec[target] = vec.get(target, 0) + mass
    for index, pair in changes:
        vec[dcp.nodes[index % len(dcp.nodes)]] = coefficient(pair, big_l)
    key = vector_key(dcp, vec)
    assert in_ls_plus(dcp, key) == ref.in_ls_plus(dcp, vec)
    assert outcome(decompose, dcp, key) == outcome(ref.decompose, dcp, vec)
    assert outcome(theta_d_inverse, dcp, key) == outcome(ref.theta_d_inverse, dcp, vec)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(NAMES),
    pick=st.integers(min_value=0, max_value=10**6),
    changes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**6), COEFFICIENTS),
        min_size=1,
        max_size=3,
    ),
)
def test_perturbed_columns_match_the_fraction_reference(name, pick, changes):
    setup, dcp, degrees = instance(name)
    group = setup.group
    found = tableaux(name, degrees[pick % len(degrees)])
    t = found[pick % len(found)]
    k = pick % len(t.columns)
    path, nu = t.columns[k], setup.lambda_of[t.shapes[k]]
    coeffs = theta_single(path, 1)
    cosets = group.all_cosets(path.cosets[0].parabolic)
    for index, pair in changes:
        coeffs[cosets[index % len(cosets)]] = coefficient(pair, 6)
    args = (group, coeffs, nu)
    assert outcome(theta_single_inverse, *args) == outcome(ref.theta_single_inverse, *args)
