"""The w0 instances shared by the DCP and acceptance tests: (group fixture
name, weights, index poset kind), each case's set-up, and its inductive and
direct builds, made once per test session."""

from lsfan import (
    Setup,
    build_dcp_direct_w0,
    build_dcp_inductive,
    build_index_poset,
    chain_iposet,
    powerset_iposet,
)

W1, W2, W3 = (1, 0), (0, 1), (1, 1)

GRID = [
    ("a2", [W1, W2], "chain"),
    ("a2", [W2, W1], "chain"),
    ("a2", [W1, W2], "powerset"),
    ("a2", [W3, W1], "chain"),
    ("a3", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], "chain"),
    ("a3", [(1, 0, 0), (0, 0, 1), (0, 1, 0)], "chain"),
    ("a3", [(0, 1, 0), (1, 0, 1)], "powerset"),
    ("b2", [W1, W2], "chain"),
    ("b2", [W2, W1], "chain"),
    ("b2", [W1, W2], "powerset"),
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
    else:  # the branching poset used for D-type flag varieties
        sets = [{1}, {2}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4}]
        ip = build_index_poset([frozenset(s) for s in sets], 4)
    return Setup(group, lambdas, group.longest, ip)


_BUILDS = {}


def grid_builds(request, name, lambdas, kind):
    """(inductive, direct) DCP of a grid case, built once per session; the
    groups are session fixtures."""
    key = name, tuple(lambdas), kind
    if key not in _BUILDS:
        setup = grid_setup(request, name, lambdas, kind)
        _BUILDS[key] = build_dcp_inductive(setup), build_dcp_direct_w0(setup)
    return _BUILDS[key]
