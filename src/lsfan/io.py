"""JSON and DOT serialization.

Group elements are serialized as reduced words (1-based simple reflection
indices); rationals as "num/den" strings, read off a Fraction's own fields
or a numerator over DCP.big_l, so no writer makes a Fraction.  Node
ordering is canonical (rank, then index set, then the element's matrix,
never its breadth-first index) so identical inputs produce byte-identical
output.

The rows read the int tables of the DCP.  A tableau row is read off its
key (tableaux.tableau_key) and a fan-vector row off the key that
fan.theta_d returns; each column number's row, each member's sorted list
and each (node number, numerator) term is built once per job, and each
word and member list once per poset.  dumps writes every document in one
pass into one buffer, and writes the text of an object that a document
holds more than once, such as a shared row, once.
"""

from __future__ import annotations

from functools import cache
from json.encoder import encode_basestring_ascii
from math import gcd

from .dcp import DCP, UnderlineW
from .lspath import LSPath
from .weyl import Coset, WeylGroup

__all__ = [
    "word_of",
    "coset_to_json",
    "path_to_json",
    "tableau_to_json",
    "dcp_to_json",
    "dcp_node_ids",
    "fan_vector_to_json",
    "underline_w_to_json",
    "dcp_to_dot",
    "underline_w_to_dot",
    "dumps",
]


def dumps(data) -> str:
    """json.dumps(data, indent=2, sort_keys=True) + "\\n", byte for byte, for
    str, int, bool, None, lists, tuples and str-keyed dicts, their subclasses
    included; any other type, a float too, raises TypeError.  The pieces of
    text go to one list, joined once."""
    out = []
    _write(data, 0, out, {}, {})
    out.append("\n")
    return "".join(out)


@cache
def _pads(depth: int) -> tuple[str, ...]:
    """The item separator, the "[" and "{" openers and the "]" and "}"
    closers of a container whose line is indented by depth levels."""
    nl = "\n" + "  " * depth
    inner = nl + "  "
    return "," + inner, "[" + inner, "{" + inner, nl + "]", nl + "}"


_CONTAINERS = frozenset({dict, list, tuple})


def _write(x, depth: int, out: list, keys: dict, seen: dict) -> None:
    """Append the text of one value to `out`, at `depth` levels of indent.
    A container's scalars are written inline, joined with the text up to
    its next container value into one piece; the piece grows by += on a
    local str, which CPython extends in place, so a long flat container is
    written in linear time.  `keys` keeps each dict
    key's text, and `seen` each container's text by (id, depth): (container,
    start, end), the span of `out` that it filled, and (container, text)
    once it is met again.  `seen` holds the container, so that no object
    made during the call, such as a value that a subclass's items() makes,
    takes its id."""
    if type(x) not in _CONTAINERS:
        if isinstance(x, str):
            out.append(encode_basestring_ascii(x))
            return
        if x is None or x is True or x is False:
            out.append("null" if x is None else "true" if x else "false")
            return
        if isinstance(x, int):
            out.append(int.__repr__(x))
            return
        if not isinstance(x, (dict, list, tuple)):
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    if not x:
        out.append("{}" if isinstance(x, dict) else "[]")
        return
    mark = id(x), depth
    entry = seen.get(mark)
    if entry is not None:
        if len(entry) == 3:  # met once before: join the span it filled
            entry = seen[mark] = x, "".join(out[entry[1]:entry[2]])
        out.append(entry[1])
        return
    start = len(out)
    sep, open_list, open_dict, close_list, close_dict = _pads(depth)
    if isinstance(x, dict):
        text, lead = "", open_dict
        for k, v in sorted(x.items()):
            key = keys.get(k)
            if key is None:  # a key that is not a str fails in encode_basestring_ascii
                key = keys[k] = encode_basestring_ascii(k) + ": "
            if type(v) is int:
                text += f"{lead}{key}{int.__repr__(v)}"
            elif type(v) is str:
                text += f"{lead}{key}{encode_basestring_ascii(v)}"
            else:
                out.append(f"{text}{lead}{key}")
                _write(v, depth + 1, out, keys, seen)
                text = ""
            lead = sep
        out.append(text + close_dict)
    elif all(type(v) is int for v in x):
        out.append(open_list + sep.join(map(int.__repr__, x)) + close_list)
    else:
        text, lead = "", open_list
        for v in x:
            if type(v) is int:
                text += lead + int.__repr__(v)
            elif type(v) is str:
                text += lead + encode_basestring_ascii(v)
            else:
                out.append(text + lead)
                _write(v, depth + 1, out, keys, seen)
                text = ""
            lead = sep
        out.append(text + close_list)
    seen[mark] = x, start, len(out)


def word_of(group: WeylGroup, w) -> list[int]:
    return list(group.reduced_word(w))


def coset_to_json(group: WeylGroup, c: Coset) -> dict:
    return {
        "word": word_of(group, c.rep),
        "parabolic": sorted(c.parabolic),
    }


def path_to_json(group: WeylGroup, path: LSPath) -> dict:
    return {
        "shape": list(path.shape),
        "cosets": [word_of(group, c.rep) for c in path.cosets],
        "cuts": [f"{c.numerator}/{c.denominator}" for c in path.cuts],
    }


def tableau_to_json(dcp: DCP, key: tuple[int, ...], rows: dict) -> dict:
    """The row of a tableau key (tableaux.tableau_key) on the DCP.  `rows` is
    the job's memo: it keeps each column number's (path row, member list)
    pair and each member's sorted list, built on first use and shared by
    every row that holds them."""
    for k in key:
        if k not in rows:
            path, s = dcp.columns[k]
            if s not in rows:
                rows[s] = sorted(s)
            rows[k] = path_to_json(dcp.setup.group, path), rows[s]
    pairs = [rows[k] for k in key]
    return {"columns": [p for p, _ in pairs], "shapes": [s for _, s in pairs]}


def dcp_node_ids(dcp: DCP) -> list[int]:
    """The canonical node numbering of a poset as a table over its node
    numbers; compute it once per poset and pass it to fan_vector_to_json."""
    members = {s: tuple(sorted(s)) for s in dcp.setup.iposet.sets}
    nodes = dcp.nodes
    order = sorted(range(len(nodes)), key=lambda k: (
        nodes[k].rank, members[nodes[k].iset], nodes[k].theta.rep.packed))
    return sorted(range(len(order)), key=order.__getitem__)  # the inverse permutation


def _words_and_members(group: WeylGroup, nodes):
    """For (coset, member) pairs: the reduced word of each distinct
    representative, keyed by its element index, and each member's sorted
    list, each made once."""
    words, members = {}, {}
    for c, s in nodes:
        if c.rep.index not in words:
            words[c.rep.index] = word_of(group, c.rep)
        if s not in members:
            members[s] = sorted(s)
    return words, members


def dcp_to_json(dcp: DCP) -> dict:
    ids = dcp_node_ids(dcp)
    words, members = _words_and_members(dcp.setup.group, ((n.theta, n.iset) for n in dcp.nodes))
    nodes = [None] * len(ids)
    for k, n in enumerate(dcp.nodes):
        nodes[ids[k]] = {"id": ids[k], "theta": words[n.theta.rep.index],
                         "I": members[n.iset], "rank": n.rank}
    edges = sorted((ids[u], ids[l], kind, bond)
                   for u, covers in enumerate(dcp.covers_down) for l, kind, bond in covers)
    return {
        "nodes": nodes,
        "edges": [{"from": u, "to": l, "type": kind, "bond": bond} for u, l, kind, bond in edges],
        "length": dcp.length(),
        "all_bonds_one": all(bond == 1 for *_, bond in edges),
    }


def fan_vector_to_json(dcp: DCP, ids: list[int], key, rows: dict) -> list[dict]:
    """The row of a fan key (fan.theta_d) on the DCP: its terms by node id,
    each coefficient its numerator over dcp.big_l in lowest terms; `ids` is
    the dcp_node_ids table of the poset.  `rows` is the job's memo: it keeps
    each (node number, numerator) term's (node id, row) pair, built on first
    use and shared by every row that holds it."""
    big_l = dcp.big_l
    for term in key:
        if term not in rows:
            k, c = term
            g = gcd(c, big_l)
            rows[term] = ids[k], {"node_id": ids[k], "coeff": f"{c // g}/{big_l // g}"}
    return [row for _, row in sorted(map(rows.__getitem__, key))]


def underline_w_to_json(uw: UnderlineW) -> dict:
    words, members = _words_and_members(uw.setup.group, uw.nodes)
    index = uw._index
    return {
        "nodes": [{"id": k, "theta": words[c.rep.index], "I": members[s]}
                  for k, (c, s) in enumerate(uw.nodes)],
        "cover_edges": [{"from": index[u], "to": index[l]} for u, l in uw.covers()],
        "generating_relation_transitive": uw.generating_is_transitive,
    }


def _dot_escape(s: str) -> str:
    return s.replace('"', '\\"')


def _dot_labels(group: WeylGroup, nodes) -> list[str]:
    """The DOT label of each (coset, member) pair: word|{members}."""
    words, members = _words_and_members(group, nodes)
    text = {x: "".join(map(str, w)) or "e" for x, w in words.items()}
    sets = {s: ",".join(map(str, m)) for s, m in members.items()}
    return [_dot_escape(f"{text[c.rep.index]}|{{{sets[s]}}}") for c, s in nodes]


def dcp_to_dot(dcp: DCP) -> str:
    ids = dcp_node_ids(dcp)
    labels = _dot_labels(dcp.setup.group, [(n.theta, n.iset) for n in dcp.nodes])
    lines = ["digraph dcp {"]
    lines += [f'  n{ids[k]} [label="{labels[k]}"];'
              for k in sorted(range(len(ids)), key=ids.__getitem__)]
    for u, covers in enumerate(dcp.covers_down):  # node number order, as dcp.edges
        for l, kind, bond in covers:
            attrs = f'label="{bond}"' if bond != 1 else ""
            style = ' style=dashed' if kind == "shrinkI" else ""
            attr_str = f" [{attrs}{style}]" if attrs or style else ""
            lines.append(f"  n{ids[u]} -> n{ids[l]}{attr_str};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def underline_w_to_dot(uw: UnderlineW) -> str:
    index = uw._index
    lines = ["digraph underline_w {"]
    lines += [f'  n{k} [label="{label}"];'
              for k, label in enumerate(_dot_labels(uw.setup.group, uw.nodes))]
    lines += [f"  n{index[u]} -> n{index[l]};" for u, l in uw.covers()]
    lines.append("}")
    return "\n".join(lines) + "\n"
