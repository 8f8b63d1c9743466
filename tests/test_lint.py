"""Source checks: invariants in the library are named errors, never `assert`,
so that `python -O` cannot drop them; every JSON document leaves through
lsfan.io.dumps, so the library calls no json.dump or json.dumps; and weight
images come from the per-shape tables, so no module but weyl calls the
matrix product WeylElt.act.  A job's defining chain poset is its one
handle: only the command line builds one, so no other module calls
build_dcp_inductive.  Bruhat order and the maximal Deodhar lift are one
descent recursion, WeylGroup._lift, so no library function calls coset_fiber
and deodhar_max_lift compares no cosets; the minimal lift is the w0 mirror
of the maximal one.  The cover rule reads bonds off inversion roots, so
dcp._lower_covers and lspath.BondedCovers.__missing__ project no coset,
pair no weight image and make no element or coset: they read the group's
int cover pairs.  The DCP set-up reads maximal representatives as ints, so
Setup.__init__, UnderlineW.__init__ and direct_nodes call no max_rep.
The tableau walk steps on rep indices, so tableaux.next_columns and
walk_standard call no greedy_lifts or deodhar_max_lift and construct no
Coset.
Projection to minimal representatives preserves Bruhat order, so
UnderlineW.__init__ and WeylGroup.deodhar_max_lift compare
representatives in W and project or lift no coset; the closure condition
fixes the shape sequence of a degree, so tableaux.shape_for_degree reads it
off without a nested search.  Elements are numbered breadth first, not in
the order of their matrices, so no sort key in the library (sorted, .sort,
min, max) reads an element's .index.  The JSON writers read numerators, so
lsfan.io constructs no Fraction.  Every hypothesis sweep in tests/ names
max_examples <= 300 and deadline=None, so tier-1 keeps a known size."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "lsfan").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_in_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
    )
    assert not offenders, f"{path.name}: assert or AssertionError at lines {offenders}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_json_dump_in_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in {"dump", "dumps"}
            and isinstance(node.value, ast.Name) and node.value.id == "json")
        or (isinstance(node, ast.ImportFrom) and node.module == "json"
            and any(a.name in {"dump", "dumps"} for a in node.names))
    )
    assert not offenders, f"{path.name}: json.dump or json.dumps at lines {offenders}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_matrix_action_outside_weyl(path):
    if path.name == "weyl.py":
        return
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "act"
    )
    assert not offenders, f"{path.name}: .act( at lines {offenders}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_the_cli_builds_a_dcp(path):
    if path.name == "cli.py":
        return
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "build_dcp_inductive" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))
    )
    assert not offenders, f"{path.name}: build_dcp_inductive( at lines {offenders}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_the_maximal_deodhar_lift_scans_a_fiber(path):
    # named when deodhar_max_lift was the last fiber scan; now no function is one
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "coset_fiber" in (getattr(node.func, "id", None),
                              getattr(node.func, "attr", None))
    )
    assert not offenders, f"{path.name}: coset_fiber( at lines {offenders}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_sort_key_reads_an_element_index(path):
    # a key on .index would follow the breadth-first numbering; output is
    # ordered by .packed, the matrix order
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = sorted(
        node.lineno
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and (getattr(call.func, "id", None) in {"sorted", "min", "max"}
             or getattr(call.func, "attr", None) == "sort")
        for keyword in call.keywords if keyword.arg == "key"
        for node in ast.walk(keyword.value)
        if isinstance(node, ast.Attribute) and node.attr == "index"
    )
    assert not offenders, f"{path.name}: a sort key reads .index at lines {offenders}"


SRC = SOURCES[0].parent
COVER_RULE = [("dcp.py", None, "_lower_covers"), ("lspath.py", "BondedCovers", "__missing__")]


@pytest.mark.parametrize("module,cls,name", COVER_RULE, ids=[f for *_, f in COVER_RULE])
def test_the_cover_rule_reads_int_tables_only(module, cls, name):
    tree = ast.parse((SRC / module).read_text())
    if cls is not None:
        tree = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    offenders = sorted(
        node.lineno
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
        & {"image", "pairing", "_min_rep", "pi", "act"}
    )
    assert not offenders, f"{module}: {name} projects or pairs at lines {offenders}"
    made = sorted(node.lineno for node in ast.walk(fn) if isinstance(node, ast.Call)
                  and {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
                  & {"covers_down", "element", "Coset"})
    assert not made, f"{module}: {name} makes an element or coset at lines {made}"


def _function(module, cls, name):
    """The definition of `name` in `module`, inside class `cls` if one is given."""
    body = ast.parse((SRC / module).read_text()).body
    if cls is not None:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == cls).body
    (fn,) = [n for n in body if isinstance(n, ast.FunctionDef) and n.name == name]
    return fn


IN_W = [("dcp.py", "UnderlineW", "__init__"), ("weyl.py", "WeylGroup", "deodhar_max_lift")]


@pytest.mark.parametrize("module,cls,name", IN_W, ids=[f"{c}.{f}" for _, c, f in IN_W])
def test_bruhat_comparisons_read_representatives_in_w(module, cls, name):
    offenders = sorted(
        node.lineno
        for node in ast.walk(_function(module, cls, name))
        if isinstance(node, ast.Call)
        and {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
        & {"pi", "min_lift", "max_lift"}
    )
    assert not offenders, f"{module}: {name} projects or lifts at lines {offenders}"


def test_shape_for_degree_defines_no_nested_function():
    fn = _function("tableaux.py", None, "shape_for_degree")
    offenders = sorted(
        node.lineno
        for node in ast.walk(fn)
        if node is not fn and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    )
    assert not offenders, f"tableaux.py: shape_for_degree defines functions at lines {offenders}"


def _called(fn) -> set:
    """The names that `fn` calls, as plain names or attributes."""
    return {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(fn) if isinstance(node, ast.Call)}


def test_bruhat_order_and_the_maximal_deodhar_lift_are_one_recursion():
    lift = _called(_function("weyl.py", "WeylGroup", "deodhar_max_lift"))
    assert not lift & {"coset_fiber", "coset_leq", "bruhat_leq"}, sorted(lift)
    assert "_lift" in lift and "_lift" in _called(_function("weyl.py", "WeylGroup", "bruhat_leq"))


@pytest.mark.parametrize("name", ["Setup.__init__", "UnderlineW.__init__", "direct_nodes"])
def test_maximal_representatives_are_read_as_ints(name):
    cls, _, fn = name.rpartition(".")
    called = _called(_function("dcp.py", cls or None, fn))
    assert "max_rep" not in called and "_max_rep" in called, sorted(called)


@pytest.mark.parametrize("name", ["next_columns", "walk_standard"])
def test_the_tableau_walk_lifts_on_ints(name):
    # a lift is a rep index, stepped by WeylGroup._lift: no Coset is made
    # and no Coset-valued lift is called
    called = _called(_function("tableaux.py", None, name))
    assert not called & {"greedy_lifts", "deodhar_max_lift", "Coset"}, sorted(called)


def test_the_writers_make_no_fraction():
    # a cut point is written off its own numerator and denominator, and a
    # fan coefficient off its numerator over DCP.big_l
    offenders = sorted(
        node.lineno
        for node in ast.walk(ast.parse((SRC / "io.py").read_text()))
        if isinstance(node, ast.Call)
        and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )
    assert not offenders, f"io.py: Fraction( at lines {offenders}"


def test_hypothesis_sweeps_bound_their_examples():
    # every sweep carries @settings naming max_examples <= 300 and
    # deadline=None: a known share of tier-1, and no failure from timing
    offenders = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        text = path.read_text()
        for fn in ast.walk(ast.parse(text)) if "hypothesis" in text else ():
            calls = {getattr(d.func, "id", None) or getattr(d.func, "attr", None): d
                     for d in getattr(fn, "decorator_list", ()) if isinstance(d, ast.Call)}
            if calls.keys() & {"given", "settings"}:
                named = {k.arg: getattr(k.value, "value", k.value)
                         for k in getattr(calls.get("settings"), "keywords", ())}
                bound = named.get("max_examples")
                if not (type(bound) is int and bound <= 300 and named.get("deadline", 0) is None):
                    offenders.append(f"{path.name}:{fn.lineno} {fn.name}")
    assert not offenders, f"sweeps without a bound: {offenders}"
