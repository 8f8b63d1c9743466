"""Byte-for-byte CLI output on the job fixtures.

The sha256 of each command's stdout was recorded from the library before the
rho table, the shared Deodhar-lift routines and the shared maximal-chain walk
replaced their duplicated predecessors; the D4 verify case was recorded before
the bonded walk replaced the listing of maximal chains in the fan; the
`underline-w`, `conjecture` and DOT cases, whose order follows the order of
group elements, were recorded while elements were still compared and sorted
by their matrices; the C3 powerset verify case was recorded while LS-paths were
still enumerated chain by chain; the B3 chain verify and C3 powerset enumerate
cases were recorded while theta_d was computed twice per tableau and fan
vectors were serialized with a node numbering of their own; the C3 powerset
and B3 chain DCP cases, which pin bonds of 2 in JSON and in DOT, were
recorded while the DCP edges were found by a second pass over the nodes and
each same-I bond recomputed its covering root; the G2 chain cases, whose
bonds reach 3 and whose fan vectors carry halves and thirds, were recorded
while theta_d, its inverse and fan membership still summed Fraction
coefficients.  Every hash was kept when one memoized reach table
(lspath.bonded_below) replaced the depth-first bonded walk, the per-call
reach sets and the walk memo of the DCP in path validation, fan
membership, DCP.leq and lattice-point enumeration.  The underline-w DOT
case was recorded while the underline-w writers still numbered the nodes
and sorted the cover edges themselves.  The F4 chain and B4 powerset `dcp`
and `check` cases, the two largest DCPs of the benchmark, were recorded
while the cover rule still asked the group about cosets and parabolic
sets, ran twice per node of a maximal-tau `dcp` job, and JSON was written
by the stdlib encoder; they are given as inline flags, not fixture files,
which every test that loops over the fixtures would pick up.  The G2
chain enumerate case at degree (2,1), whose tableaux hold one column twice
and whose cut points and fan coefficients reach thirds and sixths, was
recorded while enumerate built a row per column of every tableau and wrote
its cut points through Fraction.  A refactor must keep every hash.
"""

import hashlib
from pathlib import Path

import pytest

from lsfan import cli

FIXTURES = Path(__file__).parent / "fixtures"
INLINE = {
    "f4_chain": ("--type", "F", "--rank", "4", "--lambda", "1,0,0,0;0,0,0,1",
                 "--tau", "w0", "--iposet", "chain"),
    "b4_powerset": ("--type", "B", "--rank", "4", "--lambda", "1,0,0,0;0,1,0,0;0,0,0,1",
                    "--tau", "w0", "--iposet", "powerset"),
}


def job_flags(job):
    return INLINE.get(job) or ("--job", str(FIXTURES / f"{job}.json"))


GOLDEN = [
    ("dcp", "a2_tau312_chain", (),
     "69b59fb11da800806a4e6f96c1d2ccb4aef799c507f5abd80af6829eefebe968"),
    ("check", "a2_tau312_chain", (),
     "13c1f75f2f6dd696bcbc9b0adc010a8b8e35af72eb7a63f1e92b686a8ed34434"),
    ("dcp", "a2_young_chain_w0", (),
     "812c3b01cc38d0a61f11a84cda29ea85c7cd515965437b85de8756f7d94b3060"),
    ("check", "a2_young_chain_w0", (),
     "3ed4d134879a08a74a90a4e33fb631376c8d2fa59adb93f4d31b2307d385d397"),
    ("dcp", "a3_mixed_chain_w0", (),
     "359a55a900a8bf3b5d7e6518a7843900c3dd87210997e34dfe71266b2b36a173"),
    ("check", "a3_mixed_chain_w0", (),
     "11dba4712afc4268821707c4ebb945d2c8b73a6a88461938e2ef88d42ecbf92e"),
    ("dcp", "a3_tau3412_branched", (),
     "5d1246fce4e1bd3953e6b955de27a6d76208bb00e454232edebd8c373ae42c62"),
    ("check", "a3_tau3412_branched", (),
     "fa71e321ce01bca48adfe758b8c721cbe77b8a21ef9c68dc090cb6916f9e235b"),
    ("dcp", "a3_young_chain_w0", (),
     "242bf76bac5a4271dfce6eacf92619c11f8669f5a4b7a6ef0765de059ade8262"),
    ("check", "a3_young_chain_w0", (),
     "6ba7b341102537f41c6b9394d3093b3938a3be1d362f50db850d37b9ac7ffd61"),
    ("dcp", "d4_flag_branched", (),
     "3a325feb1513e458e4790ff144bf511a7e4179e08544ed8acf42e45e19e574ab"),
    ("check", "d4_flag_branched", (),
     "0fdec4b61d62cf4c845acbb91ada561c98bc03b481506126a8516779e07739e0"),
    ("enumerate", "a2_young_chain_w0", ("--degree", "1,1"),
     "379410e8de9d75e7620ac0e2f5bc548da9217f5b4f069499c4e126a12067c7a8"),
    ("verify", "a3_tau3412_branched", ("--max-total-degree", "2"),
     "6de97b56e833cfe75707f966e83cf1e42d9d18c903c2c22d3ebbacd63904dff8"),
    ("verify", "d4_flag_branched", ("--degree", "1,1,0,0"),
     "b6707501231bb1d09725fc0f04497bf9f0e8f9fec52f53c4142157d1de0d777f"),
    ("underline-w", "a3_tau3412_branched", (),
     "94d61104e3d9c0589fb35d06ad6651f0d8478b2201062c41866c7b9cd001e3fd"),
    ("underline-w", "d4_flag_branched", (),
     "d374b239a3735b8710590c20ace4988276ddf19694de8dbad73b40b8d5cff88f"),
    ("conjecture", "a3_mixed_chain_w0", (),
     "f5e795d0d006c3fa5874071f76d3f34850802d164b508774feab09e5179fecc8"),
    ("conjecture", "a3_young_chain_w0", (),
     "a4edb8346cc0ccc542e14ab1accbc804d28259de9565a9c534c61b93a58890e4"),
    ("dcp", "d4_flag_branched", ("--format", "dot"),
     "6c627e61ef48381b90734917a9988821fef09ea6c3aad624f415190945c6ae50"),
    ("verify", "c3_powerset", ("--degree", "1,1,1"),
     "846df12ab626d5ac7397422337b16e6b850c3f504d9f05dfcc20309aa9f3c892"),
    ("verify", "b3_chain", ("--degree", "2,1,1"),
     "08de9a4afa03710f2156198080e00966fcbb77830724c6a23ec5deb52925bb7f"),
    ("enumerate", "c3_powerset", ("--degree", "0,1,1"),
     "21ed25a0d55418d92b5b2afa057bb841de365581f0e04e860b60dd12345a3ac2"),
    ("dcp", "c3_powerset", (),
     "df0b544341ef6707f53dcd6fb3371a16b593c05af00571b92162a7149c10940d"),
    ("dcp", "b3_chain", ("--format", "dot"),
     "6b74a87d33e884d1ee0b4bc37b44cdb262fdef8b8349f408642c9ffd859c72d8"),
    ("verify", "g2_chain", ("--degree", "2,2"),
     "d8027c4ae7c6b92efe7bf8c4d2d59959da449878232ef9227dc56caa57a21a15"),
    ("enumerate", "g2_chain", ("--degree", "1,1"),
     "ef118c85817ba57af78c1c7c46765ab83d6e5fcf43f7374f2d7b4207fbf998aa"),
    ("enumerate", "g2_chain", ("--degree", "2,1"),
     "60472289fe16698d311c0314d51386cd65a98f63915caca6b8d2d462a608ec7b"),
    ("underline-w", "d4_flag_branched", ("--format", "dot"),
     "86606d0c0e7078dd30f2fec926a9b38483a2a63cbb24ab5f37f4f55f69fc39e4"),
    ("dcp", "f4_chain", (),
     "15a78932297886272d53c42556f1f1fff15a7d7006eaf38acd5d69ee3c508af2"),
    ("check", "f4_chain", (),
     "3ed4d134879a08a74a90a4e33fb631376c8d2fa59adb93f4d31b2307d385d397"),
    ("dcp", "b4_powerset", (),
     "0bf081bb34f2791c3efcb959954fbb5b7dd804508b971fabb21a902e4190c859"),
    ("check", "b4_powerset", (),
     "613bc8a5784af014e14615b7bc8520399e58429c7fe09d1639e6b81ca320c34c"),
]


def case_ids():
    """command-job, with -dot for DOT output, and the last flag's value
    when a case of the same command and job comes before it."""
    ids = []
    for command, job, extra, _ in GOLDEN:
        base = f"{command}-{job}" + ("-dot" if "dot" in extra else "")
        ids.append(base if base not in ids else f"{base}-{extra[-1]}")
    return ids


@pytest.mark.parametrize("command,job,extra,digest", GOLDEN, ids=case_ids())
def test_stdout_bytes_unchanged(capsys, command, job, extra, digest):
    code = cli.main([command, *job_flags(job), *extra])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_jobs_after_an_argparse_error_keep_their_bytes(capsys):
    # the parser is built once per process, so a call that argparse rejects
    # must leave it as it was for the jobs after it
    assert cli.main(["dcp", "--no-such-flag"]) == 2
    assert capsys.readouterr().err.startswith("error: unrecognized arguments")
    assert cli._parser() is cli._parser()
    cases = [g for g in GOLDEN if g[:2] in {("dcp", "a2_tau312_chain"),
                                            ("verify", "d4_flag_branched")}]
    assert len(cases) == 2
    for command, job, extra, digest in cases:
        code = cli.main([command, "--job", str(FIXTURES / f"{job}.json"), *extra])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
