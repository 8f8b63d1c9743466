import json
import sys
import time
from pathlib import Path

import lsfan.fan
import lsfan.weyl
from lsfan import DCPNode, FanError, cli, vector_key

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dcp_tau312_job(capsys):
    code, out, err = run(capsys, "dcp", "--job", str(FIXTURES / "a2_tau312_chain.json"))
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 6
    assert len(data["edges"]) == 6
    assert data["all_bonds_one"]
    assert "all bonds 1" in err


def test_dcp_mixed_chain_job(capsys):
    code, out, err = run(capsys, "dcp", "--job", str(FIXTURES / "a3_mixed_chain_w0.json"))
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 18
    assert data["all_bonds_one"]


def test_dcp_single_weight_is_interval(capsys):
    code, out, _ = run(
        capsys,
        "dcp",
        "--type", "A", "--rank", "2",
        "--lambda", "1,1",
        "--tau", "2,1",
        "--iposet", "chain",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 4  # the interval below 312 in S_3


def test_deterministic_output(capsys, tmp_path):
    args = ["dcp", "--job", str(FIXTURES / "a3_mixed_chain_w0.json")]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    out_file = tmp_path / "dcp.json"
    code = cli.main(args + ["--out", str(out_file)])
    assert code == 0
    capsys.readouterr()
    assert out_file.read_text() == first


def test_dot_output(capsys):
    code, out, _ = run(
        capsys, "dcp", "--job", str(FIXTURES / "a2_tau312_chain.json"), "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph dcp {")
    assert out.count("->") == 6


def test_dot_output_builds_no_json_document(capsys, monkeypatch):
    # the stderr summary is read off the poset, not off its JSON document
    def no_document(dcp):
        raise AssertionError("dcp --format dot built the JSON document")

    monkeypatch.setattr(cli.lsio, "dcp_to_json", no_document)
    for name, summary in [("a2_tau312_chain", "6 nodes, 6 edges, all bonds 1"),
                          ("g2_chain", "bonds > 1 present")]:
        code, out, err = run(capsys, "dcp", "--job", str(FIXTURES / f"{name}.json"),
                             "--format", "dot")
        assert code == 0 and out.startswith("digraph dcp {"), name
        assert err.startswith("dcp: ") and err.rstrip().endswith(summary), name


def test_underline_w_young_chain_instances(capsys):
    # the classical one-column-tableau posets: 6 nodes for A2, 14 for A3
    code, out, _ = run(
        capsys, "underline-w", "--job", str(FIXTURES / "a2_young_chain_w0.json")
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 6
    assert data["generating_relation_transitive"] is True
    code, out, _ = run(
        capsys, "underline-w", "--job", str(FIXTURES / "a3_young_chain_w0.json")
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 14
    assert data["generating_relation_transitive"] is True


def test_underline_w_mixed_chain(capsys):
    code, out, _ = run(capsys, "underline-w", "--job", str(FIXTURES / "a3_mixed_chain_w0.json"))
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 14
    assert len(data["cover_edges"]) == 17
    assert data["generating_relation_transitive"] is False


def test_check_tau3412_chain_not_standard(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--type", "A", "--rank", "3",
        "--lambda", "1,0,0;0,1,0;0,0,1",
        "--tau", "2,1,3,2",
        "--iposet", "chain",
    )
    assert code == 0
    data = json.loads(out)
    assert data["tau_standard"] is False
    assert data["collisions"]


def test_check_tau3412_special_poset_standard(capsys):
    code, out, _ = run(capsys, "check", "--job", str(FIXTURES / "a3_tau3412_branched.json"))
    assert code == 0
    assert json.loads(out)["tau_standard"] is True


def test_check_powerset_standard(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--type", "A", "--rank", "2",
        "--lambda", "0,1;1,0",
        "--tau", "2,1",
        "--iposet", "powerset",
    )
    assert code == 0
    assert json.loads(out)["tau_standard"] is True


def test_check_dtype_fallback(capsys):
    code, out, _ = run(capsys, "check", "--job", str(FIXTURES / "d4_flag_branched.json"))
    assert code == 0
    data = json.loads(out)
    assert data["tau_standard"] is True
    assert data["criteria_agree"] is True


def test_enumerate_counts(capsys):
    code, out, _ = run(
        capsys,
        "enumerate",
        "--type", "A", "--rank", "2",
        "--lambda", "1,0;0,1",
        "--tau", "w0",
        "--iposet", "chain",
        "--degree", "1,1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 8
    assert len(data["tableaux"]) == 8
    assert len(data["fan_vectors"]) == 8


def test_verify_passes(capsys):
    code, out, err = run(
        capsys,
        "verify",
        "--type", "A", "--rank", "2",
        "--lambda", "1,0;0,1",
        "--tau", "w0",
        "--iposet", "chain",
        "--max-total-degree", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(c["pass"] for c in data["checks"])
    assert "all" in err


def test_verify_empty_grid_vacuous(capsys):
    code, out, err = run(
        capsys,
        "verify",
        "--type", "A", "--rank", "2",
        "--lambda", "1,0;0,1",
        "--tau", "w0",
        "--iposet", "chain",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["warning"]
    assert "vacuous" in err
    # a conjecture bound is parsed, checked and run on an empty grid too
    flags = ("--type", "A", "--rank", "2", "--lambda", "1,0;0,1", "--tau", "w0",
             "--iposet", "chain")
    for bound in ("x", "-1"):
        code, out, err = run(capsys, "verify", *flags, "--conjecture", bound)
        assert code == 2 and out == "" and err.startswith("error:"), bound
        assert len(err.splitlines()) == 1 and "--conjecture" in err, bound
    code, out, _ = run(capsys, "verify", *flags, "--conjecture", "3")
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["check"] == "multidegree_conjecture" and check["pass"] is True


def test_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "demazure_character", lambda *a, **k: {(0, 0): -1})
    code, out, err = run(
        capsys,
        "verify",
        "--type", "A", "--rank", "2",
        "--lambda", "1,0;0,1",
        "--tau", "w0",
        "--iposet", "chain",
        "--degree", "1,0",
    )
    assert code == 1
    assert json.loads(out)["ok"] is False
    assert "FAILED" in err


def test_theta_bijection_check_reports_each_failure(capsys, monkeypatch):
    count_fan_degree = cli.count_fan_degree
    enumerate_fan_degree = cli.enumerate_fan_degree
    walk_standard = cli.walk_standard
    argv = ("verify", "--job", str(FIXTURES / "a2_young_chain_w0.json"),
            "--degree", "1,1")

    def bijection_detail():
        code, out, _ = run(capsys, *argv)
        assert code == 1
        return json.loads(out)["checks"][2]["detail"]

    # with the round trip, onto is read off the counts: a fan vector that no
    # tableau hits, then a tableau image that is no counted fan vector, then
    # a tableau that the stream leaves out
    monkeypatch.setattr(cli, "count_fan_degree", lambda dcp, d: count_fan_degree(dcp, d) + 1)
    assert bijection_detail() == {"onto": False, "round_trip": True}
    monkeypatch.setattr(cli, "count_fan_degree", lambda dcp, d: count_fan_degree(dcp, d) - 1)
    assert bijection_detail() == {"onto": False, "round_trip": True}
    monkeypatch.setattr(cli, "count_fan_degree", count_fan_degree)
    monkeypatch.setattr(cli, "walk_standard", lambda *a, **k: iter(list(walk_standard(*a, **k))[1:]))
    assert bijection_detail() == {"onto": False, "round_trip": True}
    monkeypatch.setattr(cli, "walk_standard", walk_standard)
    # without it, onto compares the image set with the listed fan vectors
    monkeypatch.setattr(cli, "theta_d_inverse", lambda dcp, vec: None)
    assert bijection_detail() == {"onto": True, "round_trip": False}
    short = lambda dcp, d: enumerate_fan_degree(dcp, d)[1:]
    monkeypatch.setattr(cli, "enumerate_fan_degree", short)
    assert bijection_detail() == {"onto": False, "round_trip": False}


def test_a_raising_theta_round_trip_is_a_failed_check(capsys, monkeypatch):
    # theta_d^-1 raises for a vector outside the fan; that is a failed round
    # trip (exit 1, with the JSON), not bad input (exit 2)
    theta_d = cli.theta_d
    argv = ("verify", "--type", "B", "--rank", "3", "--lambda", "1,0,0;0,1,0;0,0,1",
            "--tau", "w0", "--iposet", "chain", "--degree", "0,1,1")

    def off_by_one(dcp, t):
        (k, c), *rest = theta_d(dcp, t)
        return ((k, c + 1), *rest)

    monkeypatch.setattr(cli, "theta_d", off_by_one)
    code, out, err = run(capsys, *argv)
    assert code == 1 and "FAILED theta_bijection" in err
    checks = json.loads(out)["checks"]
    assert [c["pass"] for c in checks] == [True, True, False]
    assert checks[2]["detail"] == {"onto": False, "round_trip": False}

    # the set comparison skips a tableau whose theta_d raises, so one fan
    # vector goes unhit
    first = []

    def raises_on_the_first(dcp, t):
        first[:] = first or [t]
        if t == first[0]:
            raise FanError("no image")
        return theta_d(dcp, t)

    monkeypatch.setattr(cli, "theta_d", raises_on_the_first)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["checks"][2]["detail"] == {"onto": False, "round_trip": False}


def test_swapped_column_terms_fail_the_round_trip(capsys, monkeypatch):
    # theta_d reads each column's terms by its number, and theta_d^-1 builds
    # the column of each part anew: two columns of one slice whose terms are
    # swapped still map onto the fan, but no tableau comes back.  A theta_d^-1
    # that returned the number whose terms made the part would pass this
    column_terms = lsfan.fan._column_terms

    def swapped(dcp, path, s):
        k = dcp.columns.number[path, s]
        return column_terms(dcp, *dcp.columns[{0: 1, 1: 0}.get(k, k)])

    monkeypatch.setattr(lsfan.fan, "_column_terms", swapped)
    code, out, err = run(capsys, "verify", "--job", str(FIXTURES / "b3_chain.json"),
                         "--degree", "0,0,1")
    assert code == 1 and "FAILED theta_bijection" in err
    checks = json.loads(out)["checks"]
    assert [c["pass"] for c in checks] == [True, True, False]
    assert checks[2]["detail"] == {"onto": True, "round_trip": False}


def test_format_is_a_flag_of_the_poset_commands_only(capsys):
    job = ("--job", str(FIXTURES / "a3_young_chain_w0.json"))
    for command, extra in (("check", ()), ("enumerate", ("--degree", "1,0,0")),
                           ("verify", ("--degree", "1,0,0")), ("conjecture", ())):
        assert run(capsys, command, *job, *extra)[0] == 0, command
        code, out, err = run(capsys, command, *job, *extra, "--format", "dot")
        assert code == 2 and out == "", command
        assert err == "error: unrecognized arguments: --format dot\n", command
    for command in ("dcp", "underline-w"):
        code, out, _ = run(capsys, command, *job, "--format", "dot")
        assert code == 0 and out.startswith("digraph"), command


def test_malformed_list_flags_name_the_flag(capsys):
    # int()'s own message named neither the flag nor the field
    good = {"--lambda": "1,0;0,1", "--iposet": "1;1,2", "--tau": "2,1", "--degree": "1,1"}
    for flag, value in (("--lambda", "1,x"), ("--lambda", "1,0;;0,y"),
                        ("--iposet", "foo"), ("--iposet", "1;1,2.5"),
                        ("--tau", "1,b"), ("--tau", ""),
                        ("--degree", "1,x"), ("--degree", "1,,1")):
        flags = {**good, flag: value}
        code, out, err = run(capsys, "verify", "--type", "A", "--rank", "2",
                             *(x for item in flags.items() for x in item))
        assert code == 2 and out == "" and err.startswith("error:"), (flag, value)
        assert len(err.splitlines()) == 1 and flag in err and "int()" not in err, err


def test_conjecture_mixed_chain(capsys):
    code, out, err = run(
        capsys, "conjecture", "--job", str(FIXTURES / "a3_mixed_chain_w0.json")
    )
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["mismatches"] == []
    assert "agree" in err


def test_invalid_inputs_exit_two(capsys, tmp_path):
    code, _, err = run(
        capsys, "dcp", "--type", "Z", "--rank", "5",
        "--lambda", "1", "--tau", "w0", "--iposet", "chain",
    )
    assert code == 2 and "error" in err
    code, _, err = run(
        capsys, "dcp", "--type", "A", "--rank", "2",
        "--lambda", "1,0;0,1", "--tau", "w0",
        "--iposet", "1;1,2",  # missing the full set member on m=2? it has it; use a bad one
    )
    assert code == 0  # that one is fine; now a genuinely bad poset
    code, _, err = run(
        capsys, "dcp", "--type", "A", "--rank", "3",
        "--lambda", "1,0,0;0,1,0;0,0,1", "--tau", "w0",
        "--iposet", "1,2;1,2,3",
    )
    assert code == 2
    code, _, err = run(
        capsys, "enumerate", "--type", "A", "--rank", "2",
        "--lambda", "1,0;0,1", "--tau", "w0", "--iposet", "chain",
        "--degree", "1,1,1",
    )
    assert code == 2
    # tau letters outside 1..rank
    for word in ("0", "9"):
        code, _, err = run(
            capsys, "dcp", "--type", "A", "--rank", "2",
            "--lambda", "1,0;0,1", "--tau", word, "--iposet", "chain",
        )
        assert code == 2 and err.startswith("error:")
    # a weight with more coordinates than the rank
    code, _, err = run(
        capsys, "dcp", "--type", "A", "--rank", "2",
        "--lambda", "1,0,0", "--tau", "w0", "--iposet", "chain",
    )
    assert code == 2 and err.startswith("error:")
    # no weight at all, on the command line or in a job file
    for weights in ("", ";"):
        code, out, err = run(
            capsys, "dcp", "--type", "A", "--rank", "2",
            "--lambda", weights, "--tau", "w0", "--iposet", "chain",
        )
        assert code == 2 and out == "", weights
        assert err == "error: --lambda needs at least one weight\n", weights
    job = tmp_path / "no_weights.json"
    job.write_text(json.dumps(
        {"type": "A", "rank": 2, "lambdas": [], "tau": "w0", "iposet": "chain"}
    ))
    code, out, err = run(capsys, "dcp", "--job", str(job))
    assert code == 2 and out == ""
    assert err == "error: --lambda needs at least one weight\n"
    # an index poset that is neither a string nor a list of lists
    job = tmp_path / "bad_iposet.json"
    job.write_text(json.dumps(
        {"type": "A", "rank": 2, "lambdas": [[1, 0]], "tau": "w0", "iposet": 7}
    ))
    code, _, err = run(capsys, "dcp", "--job", str(job))
    assert code == 2 and err.startswith("error:")
    # job entries of the wrong type, and a job that is not a JSON object
    base = {"type": "A", "rank": 2, "lambdas": [[1, 0], [0, 1]], "tau": "w0",
            "iposet": "chain"}
    for command, entry in [
        ("dcp", {"tau": 7}),
        ("dcp", {"tau": ["a"]}),
        ("dcp", {"lambdas": [7]}),
        ("dcp", {"lambdas": [[1, 0], ["a", 1]]}),
        ("dcp", {"iposet": [[1], [1, "2"]]}),
        ("verify", {"degree": 7}),
        ("verify", {"degree": [1, "x"]}),
        ("verify", {"type": ["A"]}),
        ("verify", {"rank": [2]}),
        ("verify", {"rank": True}),
        ("verify", {"size_guard": [5]}),
        ("verify", {"max_total_degree": [1]}),
        ("conjecture", {"max_total_degree": [1]}),
        ("verify", {"max_total_degree": -3}),
    ]:
        job.write_text(json.dumps({**base, **entry}))
        code, _, err = run(capsys, command, "--job", str(job))
        assert code == 2 and err.startswith("error:"), entry
        assert len(err.splitlines()) == 1, entry
    # a negative degree bound in the job file is named, by conjecture as by verify
    job.write_text(json.dumps({**base, "max_total_degree": -1}))
    for command in ("verify", "conjecture"):
        code, out, err = run(capsys, command, "--job", str(job))
        assert code == 2 and out == "" and err.startswith("error:"), command
        assert len(err.splitlines()) == 1 and "max_total_degree" in err, command
    job.write_text(json.dumps([base]))
    code, _, err = run(capsys, "dcp", "--job", str(job))
    assert code == 2 and err.startswith("error:")
    # a rank or a size guard on the command line that is not an integer
    for flag, value in (("--rank", "x"), ("--rank", "1.5"), ("--size-guard", "y")):
        code, out, err = run(
            capsys, "dcp", "--type", "A", "--rank", "2", "--lambda", "1,0",
            "--tau", "w0", "--iposet", "chain", flag, value,
        )
        assert code == 2 and out == "" and err.startswith("error:"), value
        assert len(err.splitlines()) == 1 and flag in err, value
    # a negative degree bound on the command line, over a job file
    code, out, err = run(
        capsys, "verify", "--job", str(FIXTURES / "a3_tau3412_branched.json"),
        "--max-total-degree", "-1",
    )
    assert code == 2 and out == "" and err.startswith("error:")
    assert len(err.splitlines()) == 1
    # a degree bound on the command line that is not an integer
    for command in ("verify", "conjecture"):
        for bound in ("x", "1.5"):
            code, out, err = run(
                capsys, command, "--job", str(FIXTURES / "a2_young_chain_w0.json"),
                "--max-total-degree", bound,
            )
            assert code == 2 and out == "" and err.startswith("error:"), bound
            assert len(err.splitlines()) == 1 and "--max-total-degree" in err, bound
    # a conjecture bound that is empty, not an integer or negative is
    # rejected, not dropped
    for bound in ("", " ", "x", "1.5", "-1", "2,3"):
        code, out, err = run(
            capsys, "verify", "--job", str(FIXTURES / "a2_young_chain_w0.json"),
            "--degree", "1,1", "--conjecture", bound,
        )
        assert code == 2 and out == "" and err.startswith("error:"), bound
        assert len(err.splitlines()) == 1 and "--conjecture" in err, bound
    # argparse's own errors: a negative degree or weight read as a flag, an
    # unknown flag and a missing subcommand
    young = str(FIXTURES / "a2_young_chain_w0.json")
    for argv, text in [
        (("verify", "--job", young, "--degree", "-1,1"), "--degree"),
        (("dcp", "--type", "A", "--rank", "2", "--lambda", "-1,0;0,1", "--tau", "w0",
          "--iposet", "chain"), "--lambda"),
        (("dcp", "--job", young, "--bogus"), "--bogus"),
        ((), "command"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv
        assert len(err.splitlines()) == 1 and text in err, argv
    # both degree flags at once, in either order
    for flags in (("--degree", "1,1", "--max-total-degree", "2"),
                  ("--max-total-degree", "2", "--degree", "1,1")):
        code, out, err = run(capsys, "verify", "--job", young, *flags)
        assert code == 2 and out == "" and err.startswith("error:"), flags
        assert len(err.splitlines()) == 1 and "--degree" in err, flags
    # a job file that holds both degree entries, as the flag pair above
    job.write_text(json.dumps({**base, "degree": [1, 0], "max_total_degree": 2}))
    code, out, err = run(capsys, "verify", "--job", str(job))
    assert code == 2 and out == "" and err.startswith("error:")
    assert len(err.splitlines()) == 1 and "'degree'" in err and "'max_total_degree'" in err
    # a negative degree entry that reaches the degree check is named
    code, out, err = run(capsys, "verify", "--job", young, "--degree=-1,1")
    assert code == 2 and out == "" and err.startswith("error:")
    assert len(err.splitlines()) == 1 and "negative entry -1" in err
    # enumerate with no degree at all
    code, out, err = run(capsys, "enumerate", "--job", young)
    assert code == 2 and out == "" and err.startswith("error:")
    assert len(err.splitlines()) == 1 and "--degree" in err
    # a weight with a negative entry, which only a job file can pass
    job.write_text(json.dumps({**base, "lambdas": [[1, 0], [-1, 1]]}))
    code, out, err = run(capsys, "dcp", "--job", str(job))
    assert code == 2 and out == "" and err.startswith("error:")
    assert len(err.splitlines()) == 1 and "not dominant" in err
    # any bound that int() parses is accepted, a sign included
    code, out, _ = run(
        capsys, "verify", "--job", str(FIXTURES / "a2_young_chain_w0.json"),
        "--degree", "1,1", "--conjecture", "+3",
    )
    assert code == 0 and '"multidegree_conjecture"' in out
    # a degree bound too large for range(bound + 1), by flag or job entry
    huge = "99999999999999999999"
    job.write_text(json.dumps({**base, "max_total_degree": int(huge)}))
    for argv, text in [
        (("verify", "--job", young, "--max-total-degree", huge), "--max-total-degree"),
        (("verify", "--job", young, "--degree", "1,1", "--conjecture", huge), "--conjecture"),
        (("conjecture", "--job", young, "--max-total-degree", huge), "--max-total-degree"),
        (("verify", "--job", str(job)), "max_total_degree"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv
        assert len(err.splitlines()) == 1 and text in err, argv
    # raise lines of the job reader, the index poset and the conjecture
    job.write_text(json.dumps({key: value for key, value in base.items() if key != "type"}))
    for argv, text in [
        (("dcp", "--job", str(job)), "error: job is missing 'type'\n"),
        (("dcp", "--type", "A", "--rank", "2", "--lambda", "1,0;0,1", "--tau", "w0",
          "--iposet", "1;3;1,2"), "error: {3} is not a non-empty subset of [2]\n"),
        (("conjecture", "--job", young, "--tau", "1"),
         "error: multidegrees via the dimension formula need tau = w0\n"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err == text, argv


def test_a_degree_bound_past_the_grid_limit_exits_two_at_once(capsys):
    # C(1000002, 2) points would not fit in memory; the bound is refused
    # before a single one is listed
    young = str(FIXTURES / "a2_young_chain_w0.json")
    for command in ("verify", "conjecture"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--job", young, "--max-total-degree", "1000000")
        assert time.perf_counter() - start < 1, command
        assert code == 2 and out == "" and err.startswith("error:"), command
        assert len(err.splitlines()) == 1 and "max_total_degree" in err, command


def test_a_report_past_the_chain_limit_exits_two_at_once(capsys):
    # A1 with 9 weights on the powerset has 623,530 covering chains, whose
    # criteria filled 555 MB of check output; they are counted, not listed
    argv = ("check", "--type", "A", "--rank", "1", "--lambda", ";".join(["1"] * 9),
            "--tau", "w0", "--iposet", "powerset")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == "" and err.startswith("error:")
    assert len(err.splitlines()) == 1 and "623530 covering chains" in err


def test_only_check_lists_criteria_per_chain_and_stops_at_the_limit(capsys, monkeypatch):
    # verify and enumerate read the criteria keyed by (I, Q^r), which need no
    # chain listed; check lists them per covering chain, and A1 powerset(3)
    # has 1 + 3 * 1 + 3 * 2 = 10 (member, chain) pairs
    import lsfan.dcp

    job = ("--type", "A", "--rank", "1", "--lambda", "1;1;1", "--tau", "w0",
           "--iposet", "powerset")
    monkeypatch.setattr(lsfan.dcp, "CHAIN_LIMIT", 9)
    code, out, err = run(capsys, "verify", *job, "--degree", "1,1,0")
    assert code == 0 and json.loads(out)["ok"] is True
    assert run(capsys, "enumerate", *job, "--degree", "1,0,0")[0] == 0
    code, out, err = run(capsys, "check", *job)
    assert code == 2 and out == "" and "10 covering chains" in err
    monkeypatch.setattr(lsfan.dcp, "CHAIN_LIMIT", 10)
    code, out, _ = run(capsys, "check", *job)
    assert code == 0 and len(json.loads(out)["criteria"]) == 10


def test_check_lists_the_chains_of_a_deep_index_poset_without_recursion(capsys):
    # covering_chains_to_top lists chains in one pass down the members, with
    # no frame per member, so under a limit 150 frames above the caller an
    # index poset of 100 members lists as at the normal limit
    argv = ("check", "--type", "A", "--rank", "1", "--lambda", ";".join(["1"] * 100),
            "--tau", "w0", "--iposet", "chain")
    expected = run(capsys, *argv)
    assert expected[0] == 0
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        assert run(capsys, *argv) == expected
    finally:
        sys.setrecursionlimit(limit)


def test_verify_walks_the_reach_of_a_deep_chain_without_recursion(capsys):
    # theta_d^-1 checks fan membership on the reach of the top node
    # (lspath.bonded_below), filled on an explicit stack with no frame per
    # rank, so under a limit 150 frames above the caller a DCP of 160 ranks
    # verifies as at the normal limit
    m = 160
    argv = ("verify", "--type", "A", "--rank", "1", "--lambda", ";".join(["1"] * m),
            "--tau", "w0", "--iposet", "chain", "--degree", ",".join(["1"] + ["0"] * (m - 1)))
    expected = run(capsys, *argv)
    assert expected[0] == 0
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        assert run(capsys, *argv) == expected
    finally:
        sys.setrecursionlimit(limit)


def test_a_degree_flag_replaces_both_degree_entries_of_the_job(capsys, tmp_path):
    base = json.loads((FIXTURES / "a2_young_chain_w0.json").read_text())
    job = tmp_path / "degrees.json"

    def degrees(entries, *flags):
        job.write_text(json.dumps({**base, **entries}))
        code, out, _ = run(capsys, "verify", "--job", str(job), *flags)
        assert code == 0
        return [c["degree"] for c in json.loads(out)["checks"] if c["check"] == "counting"]

    grid = [[0, 1], [0, 2], [1, 0], [1, 1], [2, 0]]
    assert degrees({"degree": [1, 0]}, "--max-total-degree", "2") == grid
    assert degrees({"max_total_degree": 2}, "--degree", "0,1") == [[0, 1]]
    both = {"degree": [1, 0], "max_total_degree": 1}
    assert degrees(both, "--max-total-degree", "2") == grid
    assert degrees(both, "--degree", "0,1") == [[0, 1]]


def test_verify_evaluates_one_standardness_report_per_job(capsys, monkeypatch):
    import lsfan.dcp

    report, reports = lsfan.dcp.tau_standardness_report, []
    monkeypatch.setattr(lsfan.dcp, "tau_standardness_report",
                        lambda *args: reports.append(args) or report(*args))
    argv = ("verify", "--job", str(FIXTURES / "a3_young_chain_w0.json"),
            "--max-total-degree", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(json.loads(out)["checks"]) == 3 * 9
    assert len(reports) == 1
    # the one report still evaluates the criteria: a flipped one fails the job
    flip = lsfan.dcp._criterion_dynkin
    monkeypatch.setattr(lsfan.dcp, "_criterion_dynkin", lambda *a: not flip(*a))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: standardness criteria disagree")


def test_size_guard_rejects_a_large_rank_before_building_anything(
    capsys, monkeypatch
):
    def never(*args):
        raise AssertionError("the root datum was built for an oversized group")

    monkeypatch.setattr(lsfan.weyl, "build_root_datum", never)
    for rank in ("400", "40", "11"):
        code, out, err = run(
            capsys, "dcp", "--type", "A", "--rank", rank,
            "--lambda", "1" + ",0" * (int(rank) - 1), "--tau", "w0",
            "--iposet", "chain",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "exceeds the size guard 1152" in err
        assert len(err.splitlines()) == 1


def test_inductive_direct_mismatch_exits_one(capsys, monkeypatch):
    def top_only(setup):
        return [DCPNode(setup.tau, setup.iposet.full)]

    monkeypatch.setattr(cli, "direct_nodes", top_only)
    code, out, err = run(
        capsys, "dcp", "--job", str(FIXTURES / "a2_young_chain_w0.json")
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_etype_poset_fixture_is_valid_index_poset():
    from lsfan import build_index_poset

    data = json.loads((FIXTURES / "branched_index_poset_m4.json").read_text())
    ip = build_index_poset([frozenset(s) for s in data["sets"]], data["m"])
    assert ip.underline[frozenset({1, 2, 3})] == frozenset({1, 3})
