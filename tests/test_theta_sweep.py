"""A property sweep of the theta round trip over random small instances.

An instance is a chain index poset over a group of type A1-A3, B2 or G2,
with weights that are 1 or 2 times distinct fundamental weights, and tau
either w0 or a random element given by its reduced word; its degree has
total at most 2.  On every standard tableau t of that degree, theta_d^-1
undoes theta_d, theta_d agrees with the Fraction reference, and the images
are exactly the enumerated fan vectors.  The library memoizes the columns
of theta_d and theta_d^-1 per DCP, so the sweep also checks that a memo
never hands one column's answer to another.
"""

from functools import lru_cache

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chain_reference as ref
from lsfan import (
    Setup,
    build_dcp_inductive,
    chain_iposet,
    enumerate_fan_degree,
    enumerate_standard,
    fan_vector,
    is_tau_standard,
    make_group,
    theta_d,
    theta_d_inverse,
)

GROUPS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]


@lru_cache(maxsize=None)
def group_of(kind, rank):
    return make_group(kind, rank)


@st.composite
def instances(draw):
    """(setup, degree) of a random chain instance."""
    kind, rank = draw(st.sampled_from(GROUPS))
    group = group_of(kind, rank)
    m = draw(st.integers(1, min(3, rank)))
    support = draw(st.permutations(range(rank)))[:m]
    scales = draw(st.lists(st.sampled_from([1, 2]), min_size=m, max_size=m))
    lambdas = [
        tuple(k if i == j else 0 for i in range(rank)) for j, k in zip(support, scales)
    ]
    if draw(st.booleans()):
        tau = group.longest
    else:
        w = draw(st.sampled_from(group.elements()))
        tau = group.from_word(group.reduced_word(w))
    degree = draw(
        st.lists(st.integers(0, 2), min_size=m, max_size=m).filter(
            lambda d: 0 < sum(d) <= 2
        )
    )
    return Setup(group, lambdas, tau, chain_iposet(m)), tuple(degree)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_theta_round_trip_on_random_chain_instances(case):
    setup, d = case
    dcp = build_dcp_inductive(setup)
    assume(is_tau_standard(dcp))
    images = set()
    for t in enumerate_standard(dcp, d):
        key = theta_d(dcp, t)
        assert theta_d_inverse(dcp, key) == t
        assert fan_vector(dcp, key) == ref.theta_d(dcp, t)
        images.add(key)
    assert images == set(enumerate_fan_degree(dcp, d))
