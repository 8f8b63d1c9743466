"""Metamorphic relations on words: two words for the same tau give the same
bytes.

A word names tau through WeylGroup.from_word, so any two words joined by
braid and commutation moves (Matsumoto's theorem, Bjorner-Brenti Thm.
3.3.1), or by inserting a square s_i s_i, name one element, and every
command must print the same bytes for both.  No expected value is needed.
The moves are drawn from the Cartan matrix alone: s_i s_j has order m_ij =
2, 3, 4 or 6 as a_ij a_ji = 0, 1, 2 or 3.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsfan import build_root_datum, cli

FIXTURES = Path(__file__).parent / "fixtures"


def run(*argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def same_bytes(commands, words, *common) -> list:
    """Each command prints the same bytes and exits with the same code for
    every --tau word; the exit codes, by command."""
    codes = []
    for command in commands:
        outputs = [run(*command, *common, "--tau", word) for word in words]
        assert all(o == outputs[0] for o in outputs), (command, words)
        codes.append(outputs[0][0])
    return codes


def test_a2_chain_words_for_w0():
    # a braid move, and a non-reduced word with a square s_1 s_1 inserted
    assert same_bytes([("dcp",), ("check",)], ["1,2,1", "2,1,2", "1,1,1,2,1"],
                      "--type", "A", "--rank", "2", "--lambda", "1,0;0,1",
                      "--iposet", "chain") == [0, 0]


def test_a3_tau3412_words():
    # 2132 and 2312 are joined by the commutation s_1 s_3 = s_3 s_1
    assert same_bytes([("dcp",), ("enumerate", "--degree", "1,1,1"),
                       ("verify", "--max-total-degree", "2")], ["2,1,3,2", "2,3,1,2"],
                      "--job", str(FIXTURES / "a3_tau3412_branched.json")) == [0, 0, 0]


TYPES = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]
ORDER = {0: 2, 1: 3, 2: 4, 3: 6}  # a_ij a_ji -> the order m_ij of s_i s_j


def braid_order(cartan, i: int, j: int) -> int:
    """m_ij for 1-based simple indices i != j, from the Cartan matrix."""
    return ORDER[cartan[i - 1][j - 1] * cartan[j - 1][i - 1]]


@st.composite
def word_pairs(draw):
    """(type, rank, word, other word) with other = word up to one move at a
    drawn place: the braid relation (i j i ...) = (j i j ...) of length m_ij,
    which is a commutation when m_ij = 2, or a square s_i s_i inserted."""
    dynkin, rank = draw(st.sampled_from(TYPES))
    cartan = build_root_datum(dynkin, rank).cartan
    letters = st.integers(1, rank)
    prefix = draw(st.lists(letters, min_size=1, max_size=4))  # no empty word
    suffix = draw(st.lists(letters, max_size=4))
    i = draw(letters)
    j = draw(st.integers(1, rank - 1))
    j += j >= i  # any letter but i
    if draw(st.booleans()):
        m = braid_order(cartan, i, j)
        left, right = [(i, j)[k % 2] for k in range(m)], [(j, i)[k % 2] for k in range(m)]
    else:
        left, right = [], [i, i]
    return dynkin, rank, prefix + left + suffix, prefix + right + suffix


@settings(max_examples=100, deadline=None)
@given(word_pairs())
def test_words_joined_by_a_move_give_the_same_bytes(pair):
    # enumerate exits 2 alike for both words when the chain is not standard
    # for tau
    dynkin, rank, word, other = pair
    lambdas = ";".join(",".join(str(int(k == i)) for k in range(rank)) for i in (0, 1))
    same_bytes([("dcp",), ("check",), ("enumerate", "--degree", "1,1")],
               [",".join(map(str, w)) for w in (word, other)],
               "--type", dynkin, "--rank", str(rank), "--lambda", lambdas, "--iposet", "chain")


# -- diagram automorphisms ---------------------------------------------------
#
# A permutation sigma of the simple indices that fixes the Cartan matrix
# relabels each weight's coordinates and tau's letters.  w0 is fixed, so on a
# w0 instance check prints the same bytes when the index poset is standard
# (its JSON then names no theta), and the same report with each colliding
# theta relabelled when it is not; dcp gives the same poset with each theta
# relabelled.  The commands print a canonical reduced word per theta, which
# a relabelling need not keep, so a theta is compared by theta(rho) with
# rho = (1, ..., 1), an element's image of a regular weight, read off the
# word and the Cartan matrix alone.

D4_LEGS = list(permutations((1, 3, 4)))  # (sigma(1), sigma(3), sigma(4))


def d4_sigma(legs) -> dict:
    """The D4 diagram automorphism sending the legs 1, 3, 4 to `legs`."""
    return {1: legs[0], 2: 2, 3: legs[1], 4: legs[2]}


def a_flip(rank: int) -> dict:
    return {i: rank + 1 - i for i in range(1, rank + 1)}


def relabel_weights(lambdas: str, sigma: dict) -> str:
    """Each weight with coordinate i moved to sigma(i)."""
    out = []
    for lam in lambdas.split(";"):
        x = lam.split(",")
        out.append(",".join(x[i - 1] for i in sorted(sigma, key=sigma.get)))
    return ";".join(out)


def image_of_rho(cartan, word) -> tuple:
    """w(rho) for the product w of `word`, in omega-coordinates: s_i v =
    v - v_i alpha_i, alpha_i being column i of the Cartan matrix."""
    v = [1] * len(cartan)
    for i in reversed(word):
        vi = v[i - 1]
        v = [x - vi * row[i - 1] for x, row in zip(v, cartan)]
    return tuple(v)


def theta_key(cartan, word, sigma: dict) -> tuple:
    """sigma(theta)(rho), theta the product of `word`."""
    v = image_of_rho(cartan, word)
    return tuple(v[i - 1] for i in sorted(sigma, key=sigma.get))


def dcp_shape(cartan, text: str, sigma: dict) -> tuple:
    """A dcp JSON's length, sorted nodes and sorted edges, each node read as
    (I, rank, sigma(theta)(rho))."""
    data = json.loads(text)
    key = {n["id"]: (tuple(n["I"]), n["rank"], theta_key(cartan, n["theta"], sigma))
           for n in data["nodes"]}
    edges = sorted((key[e["from"]], key[e["to"]], e["type"], e["bond"]) for e in data["edges"])
    return data["length"], sorted(key.values()), edges


def check_shape(cartan, text: str, sigma: dict) -> dict:
    """A check JSON with each collision's thetas read as sigma(theta)(rho),
    the groups sorted."""
    data = json.loads(text)
    data["collisions"] = sorted(
        sorted((n["I"], theta_key(cartan, n["theta"], sigma)) for n in group)
        for group in data["collisions"])
    return data


def same_up_to_relabelling(dynkin, rank, lambdas, iposet, sigma):
    """check and dcp on the weights, thetas read through sigma, equal check
    and dcp on the relabelled weights; check's bytes are equal when it
    names no theta."""
    common = ("--type", dynkin, "--rank", str(rank), "--iposet", iposet, "--tau", "w0")
    cartan = build_root_datum(dynkin, rank).cartan
    shapes, texts = [], []
    for lam, s in ((lambdas, sigma), (relabel_weights(lambdas, sigma), {i: i for i in sigma})):
        (code, check, err), (dcp_code, dcp, dcp_err) = (
            run(command, *common, "--lambda", lam) for command in ("check", "dcp"))
        assert code == dcp_code == 0, (lam, err, dcp_err)
        shapes.append((err, dcp_err, check_shape(cartan, check, s), dcp_shape(cartan, dcp, s)))
        texts.append(check)
    assert shapes[0] == shapes[1], (lambdas, sigma)
    if not shapes[0][2]["collisions"]:
        assert texts[0] == texts[1], (lambdas, sigma)


@pytest.mark.parametrize("legs", D4_LEGS, ids=["".join(map(str, l)) for l in D4_LEGS])
def test_d4_flag_under_the_leg_permutations(legs):
    job = json.loads((FIXTURES / "d4_flag_branched.json").read_text())
    lambdas = ";".join(",".join(map(str, lam)) for lam in job["lambdas"])
    iposet = ";".join(",".join(map(str, s)) for s in job["iposet"])
    same_up_to_relabelling("D", 4, lambdas, iposet, d4_sigma(legs))


AUTOMORPHISMS = [("A", 2, a_flip(2)), ("A", 3, a_flip(3)), ("A", 4, a_flip(4))] + [
    ("D", 4, d4_sigma(legs)) for legs in D4_LEGS[1:]]


@st.composite
def w0_instances(draw):
    """(type, rank, lambdas, iposet, sigma): two or three weights with
    entries 0..1, none zero, on the chain or the powerset."""
    dynkin, rank, sigma = draw(st.sampled_from(AUTOMORPHISMS))
    weight = st.lists(st.integers(0, 1), min_size=rank, max_size=rank).filter(any)
    lambdas = draw(st.lists(weight, min_size=2, max_size=3))
    return (dynkin, rank, ";".join(",".join(map(str, lam)) for lam in lambdas),
            draw(st.sampled_from(["chain", "powerset"])), sigma)


@settings(max_examples=30, deadline=None)
@given(w0_instances())
def test_w0_instances_under_a_diagram_automorphism(instance):
    same_up_to_relabelling(*instance)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=6),
       st.lists(st.lists(st.integers(0, 1), min_size=3, max_size=3).filter(any),
                min_size=2, max_size=3))
def test_a3_flip_keeps_the_check_verdict_and_collision_count(word, lambdas):
    # the flip relabels the colliding thetas, which check prints, so only
    # the verdict and the number of collisions must agree
    flip = a_flip(3)
    lam = ";".join(",".join(map(str, l)) for l in lambdas)
    reports = []
    for tau, weights in ((word, lam), ([flip[i] for i in word], relabel_weights(lam, flip))):
        code, out, err = run("check", "--type", "A", "--rank", "3", "--lambda", weights,
                             "--tau", ",".join(map(str, tau)), "--iposet", "chain")
        data = json.loads(out) if code == 0 else None
        reports.append((code, err, data and (data["tau_standard"], len(data["collisions"]))))
    assert reports[0] == reports[1], (word, lambdas)


# -- index relabelling -------------------------------------------------------
#
# A permutation pi of [m] moves weight i to place pi(i) and maps each member I
# of the index poset to pi(I).  The node (theta, I) goes to (theta, pi(I)),
# which has the same weight lambda_I, so the poset keeps its nodes, edges and
# bonds, and the count at degree d is the count at d permuted by pi.  verify
# prints counts and verdicts by degree, dcp its poset and check its verdict,
# so these are compared; an instance that is not standard for tau exits 2
# alike.

RELABEL_TYPES = [("A", 2), ("A", 3), ("A", 4), ("B", 3), ("C", 3), ("D", 4)]


def permuted(items, pi) -> list:
    """items[i] moved to place pi[i] (0-based)."""
    out = [None] * len(items)
    for i, item in enumerate(items):
        out[pi[i]] = item
    return out


@st.composite
def relabellings(draw):
    """(common flags, lambdas, iposet sets, pi): two or three fundamental
    weights on the chain or the powerset, tau w0 or a short word, and a
    permutation pi of the weight places."""
    dynkin, rank = draw(st.sampled_from(RELABEL_TYPES))
    fundamental = st.integers(0, rank - 1).map(lambda j: [int(k == j) for k in range(rank)])
    lambdas = draw(st.lists(fundamental, min_size=2, max_size=3))
    m = len(lambdas)
    if draw(st.booleans()):
        sets = [list(range(1, k + 1)) for k in range(1, m + 1)]
    else:
        sets = [list(c) for k in range(1, m + 1) for c in combinations(range(1, m + 1), k)]
    word = draw(st.one_of(st.just("w0"), st.lists(st.integers(1, rank), min_size=1, max_size=5)
                          .map(lambda w: ",".join(map(str, w)))))
    pi = draw(st.permutations(range(m)))
    return ("--type", dynkin, "--rank", str(rank), "--tau", word), lambdas, sets, pi


def flags(lambdas, sets) -> tuple:
    return ("--lambda", ";".join(",".join(map(str, lam)) for lam in lambdas),
            "--iposet", ";".join(",".join(map(str, s)) for s in sets))


def verify_by_degree(text: str, pi=None) -> dict:
    """verify's checks keyed by (check, degree), each degree permuted by pi."""
    data = json.loads(text)
    return {(c["check"], tuple(permuted(c["degree"], pi) if pi else c["degree"])):
            (c["pass"], c["detail"]) for c in data["checks"]} | {"ok": data["ok"]}


def dcp_counts(text: str) -> tuple:
    data = json.loads(text)
    return (data["length"], len(data["nodes"]),
            sorted((e["type"], e["bond"]) for e in data["edges"]))


@settings(max_examples=20, deadline=None)
@given(relabellings())
def test_index_relabelling_keeps_counts_and_verdicts(instance):
    common, lambdas, sets, pi = instance
    moved = flags(permuted(lambdas, pi), [sorted(pi[i - 1] + 1 for i in s) for s in sets])
    commands = {"verify": ("verify", "--max-total-degree", "2"), "dcp": ("dcp",),
                "check": ("check",)}
    original, relabelled = ({name: run(*command, *common, *args)
                             for name, command in commands.items()}
                            for args in (flags(lambdas, sets), moved))
    for command in ("verify", "dcp", "check"):
        assert original[command][0] == relabelled[command][0] in (0, 2), command
    if original["verify"][0] == 0:
        assert (verify_by_degree(original["verify"][1], pi)
                == verify_by_degree(relabelled["verify"][1])), instance
    if original["dcp"][0] == 0:
        assert dcp_counts(original["dcp"][1]) == dcp_counts(relabelled["dcp"][1]), instance
    if original["check"][0] == 0:
        assert (json.loads(original["check"][1])["tau_standard"]
                == json.loads(relabelled["check"][1])["tau_standard"]), instance
