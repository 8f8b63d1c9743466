"""LS-tableaux of type (lambda-sequence, index poset), and the type A
correspondence with Young-tableaux.

A tableau is a sequence of LS-paths whose shapes follow a weakly decreasing
chain in the index poset.  Standardness means the flattened coset sequence
lifts to a weakly decreasing chain in W/W_Q bounded by tau; the lift is
computed greedily through unique maximal Deodhar lifts, so the certificate
returned on success is the maximal defining chain.

On a DCP a typed tableau is its key: the tuple of its columns' numbers in
the DCP's ColumnTable, where each degree-one column, an (LS-path, I) pair,
is numbered the first time it is met.  walk_standard walks the keys of the
standard tableaux of a degree on the memoized steps of next_columns, from
a (slice I, lift) state to a (column number, next lift) step, a lift being
the rep index of a coset of W/W_Q, lifted by WeylGroup._lift with no Coset
made; it reads each column's end point by its number.  The theta round
trip of fan takes and returns keys.  tableau_key and ls_tableau convert to
and from LSTableau, the form of the paper-level functions and the JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from .dcp import DCP, Setup, is_tau_standard, max_defining_chain
from .lspath import LSPath, enumerate_ls_paths, endpoint
from .rootdata import InvariantError
from .weyl import Coset, WeylGroup, bitmask, one_line_to_word, word_to_one_line

__all__ = [
    "LSTableau",
    "TableauError",
    "ShapeError",
    "make_tableau",
    "free_tableau",
    "degree",
    "tableau_endpoint",
    "shape_for_degree",
    "flatten",
    "is_standard",
    "is_weakly_standard",
    "enumerate_standard",
    "tableau_key",
    "ls_tableau",
    "next_columns",
    "walk_standard",
    "YoungTableau",
    "is_semistandard",
    "young_setup",
    "yt_from_ls",
    "ls_from_yt",
    "enumerate_ssyt",
]


class TableauError(ValueError):
    pass


class ShapeError(ValueError):
    """The requested degree is not a degree vector of the index poset."""


@dataclass(frozen=True, slots=True)
class LSTableau:
    """Sequence of LS-paths.  `shapes` records the weakly decreasing chain in
    the index poset when the tableau is typed by one; free tableaux (arbitrary
    shape sequences, as in the standardness examples) carry shapes=None."""

    columns: tuple[LSPath, ...]
    shapes: tuple[frozenset, ...] | None = None


def make_tableau(setup: Setup, columns, shapes) -> LSTableau:
    """Validate column shapes against the index poset and build the tableau."""
    columns = tuple(columns)
    shapes = tuple(frozenset(s) for s in shapes)
    if len(columns) != len(shapes):
        raise TableauError("need one shape per column")
    for a, b in zip(shapes, shapes[1:]):
        if not b <= a:
            raise TableauError("shape sequence must be weakly decreasing")
    for path, s in zip(columns, shapes):
        if s not in setup.iposet:
            raise TableauError(f"{set(s)} is not a member of the index poset")
        if path.shape != setup.lambda_of[s]:
            raise TableauError(
                f"column of shape {path.shape} does not match the weight of {set(s)}"
            )
    return LSTableau(columns, shapes)


def free_tableau(columns) -> LSTableau:
    """Tableau with an arbitrary shape sequence, untyped by an index poset."""
    return LSTableau(tuple(columns), None)


def degree(setup: Setup, tableau: LSTableau) -> tuple[int, ...]:
    if tableau.shapes is None:
        raise TableauError("degree needs a tableau typed by the index poset")
    total = [0] * setup.m
    for s in tableau.shapes:
        for j, x in enumerate(setup.iposet.e_vector(s)):
            total[j] += x
    return tuple(total)


def tableau_endpoint(setup: Setup, tableau: LSTableau) -> tuple[int, ...]:
    """Sum of the columns' end points, by lspath.endpoint."""
    total = (0,) * setup.group.rank
    for path in tableau.columns:
        e = endpoint(path, setup.group)
        total = tuple(a + b for a, b in zip(total, e))
    return total


def shape_for_degree(setup: Setup, d) -> tuple[frozenset, ...]:
    """The weakly decreasing shape sequence of total degree d: while the rest
    of d is non-zero, append the smallest member I holding its support S and
    subtract e_I.

    The sequence exists and is unique.  The members run by size, and [m]
    holds S, so I exists.  underline(I) lies in S: for i in underline(I) - S,
    the member I - {i} covered by I holds S and is smaller.  A member J
    holding S with underline(J) in S equals I: each holds the other's
    underline, so by the closure condition each holds the other.  So every
    sequence of degree d starts with I, and its rest is the sequence of
    d - e_I, whose first member lies in I by the closure condition, as its
    underline lies in S.
    """
    d = tuple(d)
    if len(d) != setup.m or any(x < 0 for x in d):
        raise ShapeError(f"{d} is not a degree vector of length {setup.m}")
    iposet, shapes = setup.iposet, []
    while any(d):
        support = {i + 1 for i, x in enumerate(d) if x}
        s = next(s for s in iposet.sets if support <= s)
        if not iposet.underline[s] <= support:
            raise InvariantError(f"underline({set(s)}) leaves the support of {d}")
        shapes.append(s)
        d = tuple(map(sub, d, iposet.e_vector(s)))
    return tuple(shapes)


def flatten(tableau: LSTableau):
    """Flattened (coset, tag) sequence with consecutive duplicates erased.

    The tag is the index-poset member for typed tableaux and the column shape
    for free ones; either way a duplicate means the same coset is continued
    into the next column of the same shape.
    """
    tags = tableau.shapes
    if tags is None:
        tags = tuple(p.shape for p in tableau.columns)
    out = []
    for path, tag in zip(tableau.columns, tags):
        for c in path.cosets:
            if not out or out[-1] != (c, tag):
                out.append((c, tag))
    return out


def is_standard(setup: Setup, tableau: LSTableau):
    """(True, maximal defining chain) or (False, None).

    The defining chain lists one coset of W/W_Q per flattened entry, weakly
    decreasing and bounded by tau; it is found greedily through unique maximal
    Deodhar lifts, starting from tau.
    """
    lifts = max_defining_chain(setup, flatten(tableau))
    return lifts is not None, lifts


def is_weakly_standard(setup: Setup, tableau: LSTableau) -> bool:
    """True iff every pair of consecutive columns is standard on its own."""
    if len(tableau.columns) <= 1:
        return is_standard(setup, tableau)[0]
    for k in range(len(tableau.columns) - 1):
        pair = free_tableau(tableau.columns[k : k + 2])
        if not is_standard(setup, pair)[0]:
            return False
    return True


def enumerate_standard(dcp: DCP, d) -> list[LSTableau]:
    """All standard tableaux of degree d, in canonical order: walk_standard's
    keys as tableaux."""
    return [ls_tableau(dcp, key) for key, _ in walk_standard(dcp, d)]


def tableau_key(dcp: DCP, tableau: LSTableau) -> tuple[int, ...]:
    """The int form of a typed tableau on the DCP: the tuple of its columns'
    numbers in dcp.columns, numbering the columns not met before."""
    if tableau.shapes is None:
        raise TableauError("a tableau key needs a tableau typed by the index poset")
    return tuple(map(dcp.columns.add, zip(tableau.columns, tableau.shapes)))


def ls_tableau(dcp: DCP, key: tuple[int, ...]) -> LSTableau:
    """The LSTableau of a key; tableau_key inverts it."""
    columns = [dcp.columns[k] for k in key]
    return LSTableau(tuple(path for path, _ in columns), tuple(s for _, s in columns))


def next_columns(dcp: DCP, s, lift: int):
    """The tableau walk's steps from `lift`, the rep index of a coset of W/W_Q,
    into slice s: (column number, last maximal lift) for each degree-one
    LS-path of shape lambda_s below tau whose cosets lift greedily below
    `lift` by WeylGroup._lift, in canonical order (rep matrices, then cut
    points).  Memoized per (s, lift) in dcp.next_columns, which keeps under s
    each column's number with its cosets' rep indices.  A step keeps the
    lift or shortens it, and at most one step of a state keeps it."""
    memo, setup = dcp.next_columns, dcp.setup
    if s not in memo:
        paths = enumerate_ls_paths(setup.group, setup.lambda_of[s], setup.tau, 1)
        paths = sorted(paths, key=lambda p: ([c.rep.packed for c in p.cosets], p.cuts))
        memo[s] = [(dcp.columns.add((path, s)), [c.rep.index for c in path.cosets])
                   for path in paths]
    steps = memo.get((s, lift))
    if steps is None:
        group, q, p = setup.group, bitmask(setup.q), bitmask(setup.p_of[s])
        table, length, steps = group._lifts[q, p], group.lengths, []
        for k, reps in memo[s]:
            x = lift
            for f in reps:
                if (x := group._lift(x, f, q, p, table)) < 0:
                    break
            else:
                steps.append((k, x))
        if [x for _, x in steps if length[x] >= length[lift]] not in ([], [lift]):
            raise InvariantError(f"a step from lift {lift} into {set(s)} neither "
                                 "shortens it nor is its one kept step")
        memo[s, lift] = steps
    return steps


def walk_standard(dcp: DCP, d, endpoints: bool = False):
    """Yield (key, end point) for each standard tableau of degree d, in
    canonical order, by a depth-first walk over next_columns that keeps no
    list of tableaux; the key is the tuple of the tableau's column numbers
    (tableau_key).  The end point is None unless `endpoints`, and is then
    carried down the walk as a running sum of the columns' end points, each
    read by its column number.  Summing end points that `enumerate` never
    reads made the chain-bound benchmark's job_max_s 3-10 % higher (4 of 4
    pairs, 2-core host).

    Requires the index poset to be standard for tau, so that standardness is
    decided column by column while extending the maximal defining chain;
    the poset's one report (DCP.standardness) says whether it is.
    """
    if not is_tau_standard(dcp):
        raise TableauError("the index poset is not standard for tau")
    setup, shapes = dcp.setup, shape_for_degree(dcp.setup, d)
    group, columns, ends = setup.group, dcp.columns, dcp.columns.ends
    # one stack entry per prefix still to walk: its end point, its key and
    # its lift; a prefix's steps are pushed in reverse, to pop in order
    stack = [((0,) * group.rank if endpoints else None, (), setup.tau.rep.index)]
    while stack:
        end, key, lift = stack.pop()
        if len(key) == len(shapes):
            yield key, end
            continue
        for k, below in reversed(next_columns(dcp, shapes[len(key)], lift)):
            if endpoints:
                if ends[k] is None:
                    ends[k] = endpoint(columns[k][0], group)
                stack.append((tuple(map(add, end, ends[k])), key + (k,), below))
            else:
                stack.append((None, key + (k,), below))


# -- type A Young-tableaux ----------------------------------------------------


@dataclass(frozen=True)
class YoungTableau:
    """Columns listed left to right, entries strictly increasing downwards."""

    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for col in self.columns:
            if any(a >= b for a, b in zip(col, col[1:])):
                raise TableauError("column entries must strictly increase")
        lengths = [len(c) for c in self.columns]
        if any(a < b for a, b in zip(lengths, lengths[1:])):
            raise TableauError("column lengths must weakly decrease left to right")


def is_semistandard(yt: YoungTableau) -> bool:
    """Rows weakly increase left to right (columns strictly increase by construction)."""
    if not yt.columns:
        return True
    for r in range(len(yt.columns[0])):
        row = [col[r] for col in yt.columns if len(col) > r]
        if any(a > b for a, b in zip(row, row[1:])):
            return False
    return True


def young_setup(group: WeylGroup, column_lengths) -> Setup:
    """The chain-index instance matching Young-tableaux with the given
    distinct column lengths (type A only)."""
    if group.datum.dynkin_type != "A":
        raise TableauError("Young-tableau correspondence requires type A")
    ks = sorted(set(column_lengths))
    n = group.rank
    if any(not 1 <= k <= n for k in ks):
        raise TableauError(f"column lengths must lie in [1, {n}]")
    from .dcp import chain_iposet

    lambdas = [group.datum.fundamental_weight(k) for k in reversed(ks)]
    return Setup(group, lambdas, group.longest, chain_iposet(len(ks)))


def _column_of_coset(group: WeylGroup, coset: Coset, length: int) -> tuple[int, ...]:
    n = group.rank + 1
    line = word_to_one_line(group.reduced_word(coset.rep), n)
    return tuple(sorted(line[:length]))


def _coset_of_column(group: WeylGroup, column) -> Coset:
    n = group.rank + 1
    rest = [x for x in range(1, n + 1) if x not in set(column)]
    line = tuple(column) + tuple(rest)
    w = group.from_word(one_line_to_word(line))
    k = len(column)
    parabolic = frozenset(i for i in range(1, n) if i != k)
    return group.coset(w, parabolic)


def yt_from_ls(setup: Setup, tableau: LSTableau) -> YoungTableau:
    """Type A: read the straight-line columns as subsets; column order reverses."""
    if setup.group.datum.dynkin_type != "A":
        raise TableauError("Young-tableau correspondence requires type A")
    columns = []
    for path, s in zip(tableau.columns, tableau.shapes):
        if len(path.cosets) != 1:
            raise TableauError("columns must be straight-line paths")
        lam = setup.lambda_of[s]
        support = [j + 1 for j, x in enumerate(lam) if x]
        if len(support) != 1 or lam[support[0] - 1] != 1:
            raise TableauError("column shapes must be fundamental weights")
        columns.append(_column_of_coset(setup.group, path.cosets[0], support[0]))
    return YoungTableau(tuple(reversed(columns)))


def ls_from_yt(setup: Setup, yt: YoungTableau) -> LSTableau:
    """Inverse of yt_from_ls for the chain-index instance of young_setup."""
    if setup.group.datum.dynkin_type != "A":
        raise TableauError("Young-tableau correspondence requires type A")
    shape_by_length = {}
    for s in setup.iposet.sets:
        lam = setup.lambda_of[s]
        support = [j + 1 for j, x in enumerate(lam) if x]
        if len(support) == 1 and lam[support[0] - 1] == 1:
            shape_by_length[support[0]] = s
    columns = []
    shapes = []
    for col in reversed(yt.columns):
        if len(col) not in shape_by_length:
            raise TableauError(f"no shape for a column of length {len(col)}")
        s = shape_by_length[len(col)]
        coset = _coset_of_column(setup.group, col)
        columns.append(LSPath(setup.lambda_of[s], (coset,), (Fraction(1),)))
        shapes.append(s)
    return make_tableau(setup, columns, shapes)


def enumerate_ssyt(n: int, column_lengths):
    """All semistandard Young-tableaux with the given column lengths
    (weakly decreasing) and entries in [n], by direct backtracking."""
    lengths = tuple(column_lengths)
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        raise TableauError("column lengths must weakly decrease")
    results = []
    ncols = len(lengths)
    if ncols == 0:
        return [YoungTableau(())]
    cols = [[0] * l for l in lengths]

    def fill(c, r):
        if c == ncols:
            results.append(YoungTableau(tuple(tuple(col) for col in cols)))
            return
        if r == lengths[c]:
            fill(c + 1, 0)
            return
        lo = 1
        if r > 0:
            lo = max(lo, cols[c][r - 1] + 1)
        if c > 0 and len(cols[c - 1]) > r:
            lo = max(lo, cols[c - 1][r])
        for v in range(lo, n + 1):
            cols[c][r] = v
            fill(c, r + 1)

    fill(0, 0)
    return results
