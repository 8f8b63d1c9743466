"""JSON and DOT serialization.

Group elements are serialized as reduced words (1-based simple reflection
indices); rationals as "num/den" strings.  Node ordering is canonical (rank,
then index set, then the element's matrix, never its breadth-first index) so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .dcp import DCP, UnderlineW
from .lspath import LSPath
from .tableaux import LSTableau
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
    str, int, bool, None, lists, tuples and str-keyed dicts; any other type,
    a float too, raises TypeError.  The stdlib writes an indented document
    with its pure-Python encoder, through a list of small chunks."""
    return _dump(data, "\n") + "\n"


def _dump(x, nl: str) -> str:
    """One value; `nl` is a newline plus the indent of the value's line."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = nl + "  "
    if isinstance(x, dict):  # a key that is not a str fails in encode_basestring_ascii
        ends = "{}"
        items = [encode_basestring_ascii(k) + ": "
                 + (int.__repr__(v) if type(v) is int else _dump(v, inner))
                 for k, v in sorted(x.items())]
    elif isinstance(x, (list, tuple)):
        ends = "[]"
        items = (map(int.__repr__, x) if all(type(v) is int for v in x)
                 else [_dump(v, inner) for v in x])
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    return ends[0] + inner + ("," + inner).join(items) + nl + ends[1] if x else ends


def word_of(group: WeylGroup, w) -> list[int]:
    return list(group.reduced_word(w))


def coset_to_json(group: WeylGroup, c: Coset) -> dict:
    return {
        "word": word_of(group, c.rep),
        "parabolic": sorted(c.parabolic),
    }


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def path_to_json(group: WeylGroup, path: LSPath) -> dict:
    return {
        "shape": list(path.shape),
        "cosets": [word_of(group, c.rep) for c in path.cosets],
        "cuts": [_frac_str(c) for c in path.cuts],
    }


def tableau_to_json(group: WeylGroup, tableau: LSTableau) -> dict:
    data = {"columns": [path_to_json(group, p) for p in tableau.columns]}
    if tableau.shapes is not None:
        data["shapes"] = [sorted(s) for s in tableau.shapes]
    return data


def dcp_node_ids(dcp: DCP) -> dict[int, int]:
    """The canonical node numbering of a poset, keyed by DCPNode.key; compute
    it once per poset and pass it to fan_vector_to_json."""
    ordered = sorted(
        dcp.nodes, key=lambda n: (n.rank, tuple(sorted(n.iset)), n.theta.rep.packed)
    )
    return {n.key: i for i, n in enumerate(ordered)}


def dcp_to_json(dcp: DCP) -> dict:
    group = dcp.setup.group
    ids = dcp_node_ids(dcp)
    nodes = [
        {
            "id": ids[n.key],
            "theta": word_of(group, n.theta.rep),
            "I": sorted(n.iset),
            "rank": n.rank,
        }
        for n in sorted(dcp.nodes, key=lambda n: ids[n.key])
    ]
    edges = [
        {
            "from": ids[u.key],
            "to": ids[l.key],
            "type": kind,
            "bond": bond,
        }
        for u, l, kind, bond in dcp.edges
    ]
    edges.sort(key=lambda e: (e["from"], e["to"]))
    return {
        "nodes": nodes,
        "edges": edges,
        "length": dcp.length(),
        "all_bonds_one": all(e["bond"] == 1 for e in edges),
    }


def fan_vector_to_json(ids: dict[int, int], vec) -> list[dict]:
    """Non-zero coefficients of a fan vector by node id; `ids` is the
    dcp_node_ids numbering of its poset."""
    items = [
        {"node_id": ids[n.key], "coeff": _frac_str(c)} for n, c in vec.items() if c != 0
    ]
    items.sort(key=lambda d: d["node_id"])
    return items


def underline_w_to_json(uw: UnderlineW) -> dict:
    group = uw.setup.group
    nodes = [
        {
            "id": k,
            "theta": word_of(group, c.rep),
            "I": sorted(s),
        }
        for k, (c, s) in enumerate(uw.nodes)
    ]
    index = uw._index
    return {
        "nodes": nodes,
        "cover_edges": [{"from": index[u], "to": index[l]} for u, l in uw.covers()],
        "generating_relation_transitive": uw.generating_is_transitive,
    }


def _dot_escape(s: str) -> str:
    return s.replace('"', '\\"')


def dcp_to_dot(dcp: DCP) -> str:
    group = dcp.setup.group
    ids = dcp_node_ids(dcp)
    lines = ["digraph dcp {"]
    for n in sorted(dcp.nodes, key=lambda n: ids[n.key]):
        word = "".join(map(str, group.reduced_word(n.theta.rep))) or "e"
        label = f"{word}|{{{','.join(map(str, sorted(n.iset)))}}}"
        lines.append(f'  n{ids[n.key]} [label="{_dot_escape(label)}"];')
    for u, l, kind, bond in dcp.edges:
        attrs = f'label="{bond}"' if bond != 1 else ""
        style = ' style=dashed' if kind == "shrinkI" else ""
        attr_str = f" [{attrs}{style}]" if attrs or style else ""
        lines.append(f"  n{ids[u.key]} -> n{ids[l.key]}{attr_str};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def underline_w_to_dot(uw: UnderlineW) -> str:
    group = uw.setup.group
    index = uw._index
    lines = ["digraph underline_w {"]
    for k, (c, s) in enumerate(uw.nodes):
        word = "".join(map(str, group.reduced_word(c.rep))) or "e"
        label = f"{word}|{{{','.join(map(str, sorted(s)))}}}"
        lines.append(f'  n{k} [label="{_dot_escape(label)}"];')
    for u, l in uw.covers():
        lines.append(f"  n{index[u]} -> n{index[l]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
