"""lsfan.io.dumps writes JSON itself; it must give the bytes of
json.dumps(x, indent=2, sort_keys=True) + "\\n" for every document it
accepts and raise TypeError for everything else."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsfan.io import coset_to_json, dumps
from lsfan.weyl import make_group

# any code point but a lone surrogate, with quotes, backslashes, control
# characters and non-ASCII ones drawn often
TEXT = st.text(
    st.characters(exclude_categories=["Cs"]) | st.sampled_from('"\\\n\t\x00\x1f\x7fé€😀'),
    max_size=8,
)
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
    x = {"a": [], "b": {}, "c": (), "d": [1, -2, 2**70], "e": [True, 1, None], "f": [[]]}
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
