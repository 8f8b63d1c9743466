"""lsfan.io.dumps writes JSON itself; it must give the bytes of
json.dumps(x, indent=2, sort_keys=True) + "\\n" for every document it
accepts, subclasses of its types and objects that a document holds more
than once included, and raise TypeError for everything else."""

import enum
import json
from collections import Counter, OrderedDict, namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsfan.io import coset_to_json, dumps
from lsfan.weyl import make_group

# text from a fixed alphabet, one cheap draw per character, that draws
# quotes, backslashes, control, non-ASCII and astral characters often
ALPHABET = 'ab "\\/\n\t\r\x00\x1f\x7f\x80\xe9\u20ac\u2028\uffff\U0001f600\U0010ffff'
TEXT = st.text(st.sampled_from(ALPHABET), max_size=8)
SCALARS = (
    TEXT
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**80)
    | st.integers(min_value=-(2**80), max_value=-1)
    | st.booleans()
    | st.none()
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.lists(st.integers(), max_size=5)
        | st.dictionaries(TEXT, inner, max_size=5)
    ),
    max_leaves=20,
)


def stdlib(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True) + "\n"


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS)
def test_dumps_is_the_stdlib_call_byte_for_byte(x):
    assert dumps(x) == stdlib(x)


def test_dumps_keeps_empty_containers_and_int_lists():
    # a bool among ints is written as a bool, not by the int-list join
    x = {"a": [], "b": {}, "c": (), "d": [1, -2, 2**70], "e": [True, 1, None], "f": [[]],
         "g": [1, True, 0, False], "h": (True,), "i": {"j": [0, 1, True], "k": [False]}}
    assert dumps(x) == stdlib(x)


def test_dumps_indents_an_object_held_at_two_depths_for_each():
    # dumps writes the text of an object that a document holds again once
    # per depth; each place must keep its own indent
    shared = [1, [2, "x"], {"k": [3]}]
    x = {"a": shared, "b": [shared, {"c": shared}], "d": [shared, shared], "e": [[shared]]}
    assert dumps(x) == stdlib(x)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Text(str):
    pass


Point = namedtuple("Point", "x y")


class Fresh(dict):
    """A dict whose items() makes a new list for each value on each call;
    the lists die after the dict is written, so that a later list may take
    the id of one."""

    def items(self):
        return [(k, [v, [v]]) for k, v in super().items()]


class FreshTwice(dict):
    """As Fresh, with each new list the value of two keys, so that it is
    written twice before it dies."""

    def items(self):
        return [(k + end, value) for k, v in super().items()
                for value in ([v, [v]],) for end in ("", "2")]


@pytest.mark.parametrize("x", [
    OrderedDict([("b", 1), ("a", [2, OrderedDict(z=None, y="s")])]),
    {"c": Counter("abracadabra"), "n": [Counter(), Counter(x=2)]},
    {"one": Level.HIGH, "list": [Level.LOW, Level.HIGH], "mixed": [Level.LOW, "a", 3]},
    {"t": Text("a\"b"), "l": [Text("é"), 1], Text("k"): Text("v")},
    [Point(1, 2), {"p": Point([1], "y")}],
    [Fresh(a=k, b=-k) for k in range(20)],
    [FreshTwice(a=k, b=-k) for k in range(20)],
], ids=["ordered-dict", "counter", "int-enum", "str-subclass", "namedtuple", "fresh-values",
        "fresh-values-twice"])
def test_dumps_writes_subclasses_as_the_stdlib(x):
    assert dumps(x) == stdlib(x)


@pytest.mark.parametrize("x", [
    1.5,
    [1, 2.0],
    {"a": {"b": float("nan")}},
    {1: "a"},
    {"a": 1, 2: "b"},
    {None: 1},
    {(1, 2): 3},
    {1, 2},
    b"bytes",
    [object()],
], ids=["float", "float-in-int-list", "nested-nan", "int-key", "mixed-keys",
        "none-key", "tuple-key", "set", "bytes", "object"])
def test_dumps_rejects_other_types_and_keys(x):
    with pytest.raises(TypeError):
        dumps(x)


def test_coset_to_json_gives_the_word_and_the_sorted_parabolic():
    a3 = make_group("A", 3)
    c = a3.coset(a3.from_word((1, 2, 3)), frozenset({3, 1}))  # s1 s2 s3 W_{1,3} = s1 s2 W_{1,3}
    assert coset_to_json(a3, c) == {"word": [1, 2], "parabolic": [1, 3]}
