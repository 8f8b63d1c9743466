"""Exhaustive verify without lists: fan vectors counted by memoized
completions, tableaux streamed from the enumeration walk.

lspath.lattice_steps is the one transition table of the lattice-point walk:
chain_lattice_points lists by walking it and count_lattice_points counts
its completions, so count_fan_degree and enumerate_fan_degree read one step
rule.  The count equals the length of the listing on every job fixture, on
random degrees and on shape posets with bonds above 1.  walk_standard is
the walk behind enumerate_standard, over the memoized steps of
next_columns; it yields the keys of the same tableaux in the same order,
with end points equal to tableau_endpoint, and each step list equals the
sorted columns lifted one by one through Cosets.  A step that neither
shortens its lift nor is its state's one kept step raises InvariantError.
tableau_key and ls_tableau convert the walk's keys and the tableaux both
ways.  A tracemalloc bound pins that verify holds no list of tableaux, fan
vectors or images, and a count of LSTableau constructions that it makes
none.  A count of Coset and element constructions pins that the inductive
DCP build makes a coset only for a node it keeps.
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
    Coset,
    InvariantError,
    LSTableau,
    Setup,
    WeylGroup,
    build_dcp_inductive,
    cli,
    count_fan_degree,
    enumerate_fan_degree,
    enumerate_standard,
    is_tau_standard,
    ls_tableau,
    make_group,
    powerset_iposet,
    shape_for_degree,
    tableau_endpoint,
    tableau_key,
    walk_standard,
)
from lsfan.dcp import greedy_lifts
from lsfan.demazure import weyl_dimension
from lsfan.lspath import ShapePoset, chain_lattice_points, count_lattice_points, enumerate_ls_paths
from lsfan.tableaux import next_columns

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


@pytest.mark.parametrize("dynkin, rank, nu", [
    ("G", 2, (1, 0)), ("G", 2, (0, 1)), ("G", 2, (1, 1)),
    ("B", 3, (1, 0, 0)), ("B", 3, (0, 1, 0)), ("B", 3, (1, 0, 1)),
])
def test_count_is_the_listing_length_on_shape_posets(dynkin, rank, nu):
    # big_l is 2 to 60 on these shapes, so non-integral sums and the reach
    # at denominators above 1 are walked; the count of degree d is also the
    # number of LS-paths of shape d*nu, the Weyl dimension
    group = make_group(dynkin, rank)
    poset = ShapePoset(group, nu, group.coset(group.longest, group.stabilizer_parabolic(nu)))
    assert poset.big_l > 1
    covers, top = poset.covers_down, poset.top.rep.index
    spend = dict.fromkeys((c.rep.index for c in poset.nodes), (0,))
    for d in range(4):
        walk = (covers.reach, top, (d,), spend, poset.big_l)
        points = list(chain_lattice_points(*walk))
        assert count_lattice_points(*walk) == len(points) == len(set(points)), d
        mu = tuple(d * x for x in nu)
        assert len(points) == weyl_dimension(group.datum, mu), d


def canonical(paths):
    return sorted(paths, key=lambda p: ([c.rep.packed for c in p.cosets], p.cuts))


@pytest.mark.parametrize("name", JOB_FIXTURES)
def test_next_columns_is_the_lifted_columns_at_every_visited_lift(name):
    # the walk's memo holds exactly the (I, lift index) states reached from
    # tau, and each step list is the slice's sorted columns, lifted one by
    # one through Coset objects by greedy_lifts over deodhar_max_lift
    setup, _ = instance(name)
    dcp = build_dcp_inductive(setup)
    if not is_tau_standard(dcp):
        return
    group, degrees = setup.group, small_degrees(setup.m)
    for d in degrees:
        for _ in walk_standard(dcp, d):
            pass
    walked = set(dcp.next_columns)
    visited = set()
    for d in degrees:
        lifts = {setup.tau.key: setup.tau}
        for s in shape_for_degree(setup, d):
            columns = canonical(enumerate_ls_paths(group, setup.lambda_of[s], setup.tau, 1))
            below = {}
            for lift in lifts.values():
                visited.add((s, lift.rep.index))
                brute = []
                for path in columns:
                    chain = greedy_lifts(group.deodhar_max_lift, lift, path.cosets)
                    if chain is not None:
                        brute.append(((path, s), chain[-1].rep.index))
                        below[chain[-1].key] = chain[-1]
                steps = next_columns(dcp, s, lift.rep.index)
                assert [(dcp.columns[k], x) for k, x in steps] == brute, (d, s)
            lifts = below
    assert visited == walked


def patch_lifts(monkeypatch, group, change):
    """Make each outermost call of group._lift return change(t, x) for its
    bound t and its result x; the recursion inside _lift reads the patch
    too, so the depth keeps its own calls unchanged."""
    lift, depth = group._lift, [0]

    def patched(t, f, p, pp, memo):
        depth[0] += 1
        try:
            x = lift(t, f, p, pp, memo)
        finally:
            depth[0] -= 1
        return x if depth[0] else change(t, x)

    monkeypatch.setattr(group, "_lift", patched)


def test_a_step_that_keeps_the_length_but_not_the_lift_is_an_invariant_error(monkeypatch):
    # the kept step from tau returns another element of tau's length
    setup = instance("a3_tau3412_branched")[0]
    dcp, group = build_dcp_inductive(setup), setup.group
    twin = {t: next(y for y, n in enumerate(group.lengths) if n == group.lengths[t] and y != t)
            for t in range(1, len(group) - 1)}
    patch_lifts(monkeypatch, group, lambda t, x: twin.get(t, x) if x == t else x)
    with pytest.raises(InvariantError, match="neither shortens"):
        list(walk_standard(dcp, (1, 1, 1)))


def test_two_kept_steps_in_one_state_are_an_invariant_error(monkeypatch):
    # every column that lifts keeps the lift
    setup = instance("a3_tau3412_branched")[0]
    dcp = build_dcp_inductive(setup)
    patch_lifts(monkeypatch, setup.group, lambda t, x: t if x >= 0 else x)
    with pytest.raises(InvariantError, match="one kept step"):
        list(walk_standard(dcp, (1, 1, 1)))


@pytest.mark.parametrize("name", JOB_FIXTURES)
def test_walk_is_the_enumeration_in_order_with_end_points(name):
    setup, dcp = instance(name)
    if not is_tau_standard(dcp):
        return
    for d in small_degrees(setup.m):
        walked = [(ls_tableau(dcp, key), e) for key, e in walk_standard(dcp, d, endpoints=True)]
        assert [t for t, _ in walked] == enumerate_standard(dcp, d), d
        assert [e for _, e in walked] == [tableau_endpoint(setup, t) for t, _ in walked]
        assert {e for _, e in walk_standard(dcp, d)} == {None}


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


def test_streamed_verify_makes_no_tableau_object(monkeypatch):
    # walk_standard yields keys (tuples of column numbers) and the theta
    # round trip compares them, so verify builds no LSTableau at all
    made = []
    init = LSTableau.__init__
    monkeypatch.setattr(LSTableau, "__init__", lambda t, *a: made.append(None) or init(t, *a))
    argv = ["verify", "--job", str(FIXTURES / "b3_chain.json"), "--degree", "1,1,1"]
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    assert json.loads(out.getvalue())["checks"][0]["detail"]["tableaux"] == 512
    assert not made
    # the count sees a tableau that is made
    ls_tableau(instance("b3_chain")[1], ())
    assert len(made) == 1


@pytest.mark.parametrize("name", JOB_FIXTURES)
def test_the_inductive_build_makes_a_coset_per_new_node_only(name, monkeypatch):
    # the cover rule reads the group's int cover pairs, so the build makes a
    # coset only for a node it keeps, the top's being tau, and an element
    # only for a theta of a node; a fresh group has made no other
    setup = cli._setup_from_job(json.loads((FIXTURES / f"{name}.json").read_text()))
    cosets, elements = [], []
    post_init, make = Coset.__post_init__, WeylGroup._make
    monkeypatch.setattr(Coset, "__post_init__", lambda c: cosets.append(None) or post_init(c))
    monkeypatch.setattr(WeylGroup, "_make", lambda g, x: elements.append(x) or make(g, x))
    dcp = build_dcp_inductive(setup)
    monkeypatch.undo()
    assert len(cosets) <= len(dcp.nodes) - 1, (len(cosets), len(dcp.nodes))
    assert len(elements) <= len({n.theta.key for n in dcp.nodes}), len(elements)


D4_FLAG = ("--job", str(FIXTURES / "d4_flag_branched.json"))
B4_POWERSET = ("--type", "B", "--rank", "4", "--lambda", "1,0,0,0;0,1,0,0;0,0,0,1",
               "--tau", "w0", "--iposet", "powerset")
F4_CHAIN = ("--type", "F", "--rank", "4", "--lambda", "1,0,0,0;0,0,0,1",
            "--tau", "w0", "--iposet", "chain")
A3_TAU3412 = ("--job", str(FIXTURES / "a3_tau3412_branched.json"))


@pytest.mark.parametrize("argv", [("check", *D4_FLAG), ("check", *B4_POWERSET),
                                  ("check", *A3_TAU3412), ("dcp", *D4_FLAG), ("dcp", *F4_CHAIN)],
                         ids=["check-d4", "check-b4", "check-a3", "dcp-d4", "dcp-f4"])
def test_standardness_and_the_direct_node_test_read_rep_indices(argv, monkeypatch):
    # once the inductive build returns, rho, the four criteria and the w0
    # test read rep indices and masks, so check makes no Coset and no
    # element; the direct node test scans rep indices and makes a Coset
    # only for a rep it keeps, whose element the build already made
    cosets, elements, built = [], [], []
    post_init, make, build = Coset.__post_init__, WeylGroup._make, cli.build_dcp_inductive

    def counted_after(setup):
        built.append(build(setup))
        cosets.clear(), elements.clear()
        return built[-1]

    monkeypatch.setattr(Coset, "__post_init__", lambda c: cosets.append(None) or post_init(c))
    monkeypatch.setattr(WeylGroup, "_make", lambda g, x: elements.append(x) or make(g, x))
    monkeypatch.setattr(cli, "build_dcp_inductive", counted_after)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0
    monkeypatch.undo()
    assert not elements, len(elements)
    if argv[0] == "check":
        assert not cosets, len(cosets)
    else:
        assert len(cosets) <= len({n.theta.key for n in built[0].nodes}), len(cosets)


@pytest.mark.parametrize("name", JOB_FIXTURES)
def test_tableau_keys_and_tableaux_convert_both_ways(name):
    # every standard tableau of total degree <= 2: the walk's key is the key
    # of its tableau, and a fresh DCP, on which no walk numbered a column,
    # numbers the tableau's columns and reads the same tableau back
    setup, dcp = instance(name)
    if not is_tau_standard(dcp):
        return
    fresh = build_dcp_inductive(setup)
    for d in small_degrees(setup.m):
        for key, _ in walk_standard(dcp, d):
            t = ls_tableau(dcp, key)
            assert tableau_key(dcp, t) == key
            assert ls_tableau(fresh, tableau_key(fresh, t)) == t
