"""The benchmark's layer tracer patches library functions by name; it must
find every one of them.  A refactor that removes or renames a traced name
fails here instead of only in the benchmark's own smoke test.  The tracer's
call counts also pin how often theta_d and the node numbering run, that no
command recomputes a covering root that the cover walk already gave, and
that verify validates each distinct degree-one part once, in memos that
one job builds and no later job sees, computes no image w(nu) by a matrix,
reads a shape's stabilizer from its table and fills each (slice, lift
index) state of tableau enumeration once, with no Coset lift, and each
(poset, denominator) table of reach rows once; a count of
Fraction constructions pins the integer arithmetic of the theta round trip,
and a count of DCPNode constructions that no command but dcp's direct node
test makes a node object.
enumerate builds each distinct column's row once, and the Fractions it
makes do not grow with the number of tableaux."""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import lsfan.cli
import lsfan.dcp
import lsfan.fan
import lsfan.lspath
import lsfan.weyl

TRACING = Path(__file__).parent.parent / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("lsfan_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    theta_d, main = lsfan.fan.theta_d, lsfan.cli.main
    with tracing.Tracer() as tracer:
        for module_name, attr, _ in tracing.TARGETS:
            owner = sys.modules[module_name]
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert hasattr(owner, "__wrapped__"), (module_name, attr)
        assert lsfan.fan.theta_d is not theta_d
        assert lsfan.cli.theta_d is lsfan.fan.theta_d
        assert lsfan.cli.main is main
    assert not tracer._restore
    assert lsfan.fan.theta_d is theta_d and lsfan.cli.theta_d is theta_d


def test_theta_d_once_per_tableau_and_one_node_numbering_per_job(capsys):
    tracing = load_tracing()
    job = str(Path(__file__).parent / "fixtures" / "a2_young_chain_w0.json")

    def traced(command):
        with tracing.Tracer() as tracer:
            assert lsfan.cli.main([command, "--job", job, "--degree", "1,1"]) == 0
        return tracer.calls, json.loads(capsys.readouterr().out)

    calls, out = traced("enumerate")
    assert calls["theta_d"] == out["count"] > 0
    assert calls["dcp_node_ids"] == 1
    calls, out = traced("verify")
    tableaux = out["checks"][0]["detail"]["tableaux"]
    assert calls["theta_d"] == calls["theta_d_inverse"] == tableaux > 0


def test_dcp_edges_come_from_the_one_cover_walk(capsys):
    # tau != w0, so the DCP is built inductively only
    tracing = load_tracing()
    job = str(Path(__file__).parent / "fixtures" / "a3_tau3412_branched.json")
    runs = (("dcp", ()), ("check", ()), ("verify", ("--degree", "1,1,0")))
    for command, extra in runs:
        with tracing.Tracer() as tracer:
            assert lsfan.cli.main([command, "--job", job, *extra]) == 0
        capsys.readouterr()
        assert tracer.calls["build_dcp_inductive"] == 1
        assert tracer.calls["WeylGroup.covering_root"] == 0, command


# B3 chain at degree (1,1,1) has 7 + 21 + 8 distinct degree-one parts
B3_PARTS = 36
# and its tableau walk fills 33 (slice, lift index) states
B3_STATES = 33


def fractions_made(argv) -> int:
    """The number of Fractions that one successful command constructs."""
    made = []
    original = Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        made.append(None)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        assert lsfan.cli.main(argv) == 0
    finally:
        Fraction.__new__ = original
    return len(made)


def test_verify_builds_few_fractions_and_validates_once_per_column(capsys):
    # the theta round trip and the end points sum integer numerators; only
    # the values that public functions return are Fractions
    job = str(Path(__file__).parent / "fixtures" / "b3_chain.json")
    made = fractions_made(["verify", "--job", job, "--degree", "1,1,1"])
    tableaux = json.loads(capsys.readouterr().out)["checks"][0]["detail"]["tableaux"]
    assert tableaux == 512
    assert made <= 4 * tableaux, made / tableaux

    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        assert lsfan.cli.main(["verify", "--job", job, "--degree", "1,1,1"]) == 0
    capsys.readouterr()
    calls = tracer.calls
    assert calls["in_ls_plus"] == calls["theta_d_inverse"] == tableaux
    assert calls["validate_ls_path"] == B3_PARTS  # one per distinct column


def test_verify_reads_shape_images_and_stabilizers_from_tables(capsys, monkeypatch):
    # the images w(nu) come from the shape's table, walked along left
    # descents with no matrix product, and the stabilizer of a column's
    # shape is read once per shape, not once per validated column
    job = str(Path(__file__).parent / "fixtures" / "b3_chain.json")
    acts = []
    act = lsfan.weyl.WeylElt.act

    def counted(w, weight):
        acts.append((w.index, tuple(weight)))
        return act(w, weight)

    monkeypatch.setattr(lsfan.weyl.WeylElt, "act", counted)
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        assert lsfan.cli.main(["verify", "--job", job, "--degree", "1,1,1"]) == 0
    capsys.readouterr()
    assert not acts
    assert tracer.calls["validate_ls_path"] == B3_PARTS
    assert tracer.calls["WeylGroup.stabilizer_parabolic"] < 20


def test_column_memos_stay_within_one_job(capsys, monkeypatch):
    # the memos live on the job's DCP and group, so a second run in the same
    # process validates every distinct part again and fills again each
    # (slice, lift index) state of the tableau walk, lifting on ints with
    # no call to the Coset form deodhar_max_lift
    job = str(Path(__file__).parent / "fixtures" / "b3_chain.json")
    tracing = load_tracing()
    built, build = [], lsfan.cli.build_dcp_inductive
    monkeypatch.setattr(lsfan.cli, "build_dcp_inductive",
                        lambda setup: built.append(build(setup)) or built[-1])
    for run in range(2):
        with tracing.Tracer() as tracer:
            assert lsfan.cli.main(["verify", "--job", job, "--degree", "1,1,1"]) == 0
        capsys.readouterr()
        assert tracer.calls["validate_ls_path"] == B3_PARTS
        assert tracer.calls["theta_d_inverse"] == 512
        assert tracer.calls["WeylGroup.deodhar_max_lift"] == 0
        assert len(built) == run + 1
        assert len(built[-1].next_columns) == B3_STATES


def test_each_reach_table_is_filled_once_per_job(capsys, monkeypatch):
    # a DCP and each shape's BondedCovers fill their reach rows once per
    # denominator, in one lspath.reach_rows pass; both live on the job's
    # poset and group, so a second run fills as many tables again, on posets
    # of its own
    job = str(Path(__file__).parent / "fixtures" / "b3_chain.json")
    fills, reach_rows = [], lsfan.lspath.reach_rows

    def counted(covers_down, order, den):
        fills.append((covers_down, den))
        return reach_rows(covers_down, order, den)

    for module in (lsfan.lspath, lsfan.dcp):
        monkeypatch.setattr(module, "reach_rows", counted)
    runs = []
    for _ in range(2):
        fills.clear()
        assert lsfan.cli.main(["verify", "--job", job, "--degree", "1,1,1"]) == 0
        capsys.readouterr()
        tables = {(id(covers), den) for covers, den in fills}
        assert len(tables) == len(fills), "a reach table was filled twice"
        kinds = {type(covers).__name__ for covers, _ in fills}
        assert kinds == {"BondedCovers", "list"}, kinds  # shapes and the DCP
        runs.append((len(fills), {id(covers): covers for covers, _ in fills}))
    (filled, first), (again, second) = runs
    assert filled == again and not first.keys() & second.keys(), (filled, again)


def test_command_paths_make_no_node_objects(capsys, monkeypatch):
    # the DCP keeps int tables over its node numbers and makes its DCPNodes
    # on first use, which no command path asks for: verify, enumerate,
    # conjecture and check on a standard poset make none, and dcp makes only
    # the direct node test's own list, which runs on tau = w0 jobs alone
    made, listed = [], []
    post_init, direct = lsfan.dcp.DCPNode.__post_init__, lsfan.cli.direct_nodes

    def counted(node):
        made.append(1)
        post_init(node)

    def listing(setup):
        nodes = direct(setup)
        listed.append(len(nodes))
        return nodes

    monkeypatch.setattr(lsfan.dcp.DCPNode, "__post_init__", counted)
    monkeypatch.setattr(lsfan.cli, "direct_nodes", listing)
    fixtures = Path(__file__).parent / "fixtures"
    b3 = ["--job", str(fixtures / "b3_chain.json")]
    for argv in (["verify", *b3, "--degree", "1,1,1"], ["enumerate", *b3, "--degree", "1,1,1"],
                 ["conjecture", *b3], ["check", *b3]):
        made.clear()
        assert lsfan.cli.main(argv) == 0
        out = capsys.readouterr().out
        assert not made, (argv, len(made))
    assert json.loads(out)["tau_standard"]  # check ran last, on a standard poset
    for job, w0 in (("b3_chain", True), ("a2_tau312_chain", False)):
        for extra in ([], ["--format", "dot"]):
            made.clear()
            listed.clear()
            assert lsfan.cli.main(["dcp", "--job", str(fixtures / f"{job}.json"), *extra]) == 0
            assert len(listed) == w0 and len(made) == sum(listed), (job, len(made), listed)
    capsys.readouterr()


def test_enumerate_builds_each_column_row_once_and_few_fractions(capsys):
    # enumerate reads its rows off the tableau and fan keys: each distinct
    # column's row is built once, however many tableaux hold it, and the
    # Fractions it makes (the cut points of the degree-one LS-paths) do not
    # grow with the number of tableaux
    job = str(Path(__file__).parent / "fixtures" / "g2_chain.json")
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        assert lsfan.cli.main(["enumerate", "--job", job, "--degree", "2,1"]) == 0
    out = json.loads(capsys.readouterr().out)
    columns = [(json.dumps(c, sort_keys=True), tuple(s))
               for t in out["tableaux"] for c, s in zip(t["columns"], t["shapes"])]
    assert len(columns) > 2 * len(set(columns))  # columns repeat
    assert tracer.calls["path_to_json"] == len(set(columns))
    assert tracer.calls["tableau_to_json"] == tracer.calls["fan_vector_to_json"] == out["count"]

    def fractions(degree):
        made = fractions_made(["enumerate", "--job", job, "--degree", degree])
        return made, json.loads(capsys.readouterr().out)["count"]

    (few, small), (many, large) = fractions("1,1"), fractions("2,2")
    assert large > 10 * small
    assert many <= few < small, (few, many)
