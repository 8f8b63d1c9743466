"""Exhaustive verify without lists: fan vectors counted by memoized
completions, tableaux streamed from the enumeration walk.

count_fan_degree runs the search of chain_lattice_points with one memo per
search state, so the two share the bond rule only through bonded_below; the
count equals the length of the enumeration on every job fixture and on
random degrees, which pins the two loops together.  walk_standard is the
walk behind enumerate_standard; it yields the same tableaux in the same
order, with end points equal to tableau_endpoint.  A tracemalloc bound pins
that verify holds no list of tableaux, fan vectors or images.
"""

import io
import json
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsfan import (
    Setup,
    build_dcp_inductive,
    cli,
    count_fan_degree,
    enumerate_fan_degree,
    enumerate_standard,
    is_tau_standard,
    make_group,
    powerset_iposet,
    tableau_endpoint,
    walk_standard,
)
from lsfan.demazure import weyl_dimension

FIXTURES = Path(__file__).parent / "fixtures"
JOB_FIXTURES = sorted(
    p.stem for p in FIXTURES.glob("*.json") if "lambdas" in json.loads(p.read_text())
)


@lru_cache(maxsize=None)
def instance(name):
    """(setup, dcp) of a job fixture."""
    setup = cli._setup_from_job(json.loads((FIXTURES / f"{name}.json").read_text()))
    return setup, build_dcp_inductive(setup)


def small_degrees(m, total=2):
    return [d for d in product(range(total + 1), repeat=m) if sum(d) <= total]


@pytest.mark.parametrize("name", JOB_FIXTURES)
def test_count_is_the_enumeration_length_on_job_fixtures(name):
    _, dcp = instance(name)
    for d in small_degrees(dcp.setup.m):
        assert count_fan_degree(dcp, d) == len(enumerate_fan_degree(dcp, d)), d


@lru_cache(maxsize=None)
def a3_powerset():
    group = make_group("A", 3)
    setup = Setup(group, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], group.longest, powerset_iposet(3))
    return setup, build_dcp_inductive(setup)


# instance -> the largest degree entry drawn; C3 powerset (big_l = 60) is the
# slow side of the count, at 0.18 s for (2,2,2)
SWEEP = {"g2_chain": 3, "a3_young_chain_w0": 3, "b3_chain": 3, "a3_powerset": 3,
         "c3_powerset": 1}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SWEEP)), st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_count_on_random_degrees(name, entries):
    # the enumeration up to total degree 4; beyond, the Weyl dimension of
    # these w0 instances, which shares no code with the count
    setup, dcp = a3_powerset() if name == "a3_powerset" else instance(name)
    d = tuple(min(x, SWEEP[name]) for x in entries[:setup.m])
    count = count_fan_degree(dcp, d)
    if sum(d) <= 4:
        assert count == len(enumerate_fan_degree(dcp, d)), d
    mu = tuple(sum(x * lam[j] for x, lam in zip(d, setup.lambdas))
               for j in range(setup.group.rank))
    assert setup.is_w0_instance() and count == weyl_dimension(setup.group.datum, mu), d


@pytest.mark.parametrize("name", JOB_FIXTURES)
def test_walk_is_the_enumeration_in_order_with_end_points(name):
    setup, dcp = instance(name)
    if not is_tau_standard(setup, dcp):
        return
    for d in small_degrees(setup.m):
        walked = list(walk_standard(setup, d, dcp, endpoints=True))
        assert [t for t, _ in walked] == enumerate_standard(setup, d, dcp), d
        assert [e for _, e in walked] == [tableau_endpoint(setup, t) for t, _ in walked]
        assert {e for _, e in walk_standard(setup, d, dcp)} == {None}


def test_verify_memory_does_not_grow_with_the_output():
    # B3 chain at (2,2,1): 7,392 tableaux.  tracemalloc peaks over the job
    # read 8.0 MB when verify listed every tableau, fan vector and image,
    # and 0.4-0.9 MB streamed; 3 MB sits well between the two
    argv = ["verify", "--job", str(FIXTURES / "b3_chain.json"), "--degree", "2,2,1"]
    tracemalloc.start()
    try:
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(out.getvalue())["checks"][0]["detail"]["tableaux"] == 7392
    assert peak < 3_000_000, peak
