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
from contextlib import redirect_stderr, redirect_stdout
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
