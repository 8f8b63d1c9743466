"""Root data for the simple Dynkin types, in Bourbaki numbering.

All lattice elements are integer tuples.  Weights live in the fundamental
weight basis (omega-coordinates), roots are kept both in simple-root
coordinates and omega-coordinates, coroots in simple-coroot coordinates.
The pairing of a weight with a coroot is then a plain dot product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import mul

__all__ = [
    "RootDatum",
    "RootDatumError",
    "InvariantError",
    "GroupSizeError",
    "build_root_datum",
    "checked_group_order",
    "weyl_group_order",
]

SIMPLE_TYPES = ("A", "B", "C", "D", "E", "F", "G")


class RootDatumError(ValueError):
    """Raised for (type, rank) pairs that do not name a simple root system."""


class InvariantError(Exception):
    """An internal consistency check failed; a defect, never bad input."""


class GroupSizeError(ValueError):
    """Raised when a Weyl group exceeds the enumeration guard."""


def _check_type_rank(dynkin_type: str, rank: int) -> None:
    ok = {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 3,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }
    if dynkin_type not in ok or not ok[dynkin_type]:
        raise RootDatumError(f"no simple root system of type {dynkin_type}_{rank}")


def weyl_group_order(dynkin_type: str, rank: int) -> int:
    """Order of the Weyl group of the given simple type."""
    _check_type_rank(dynkin_type, rank)
    n = rank
    if dynkin_type == "A":
        return math.factorial(n + 1)
    if dynkin_type in ("B", "C"):
        return 2**n * math.factorial(n)
    if dynkin_type == "D":
        return 2 ** (n - 1) * math.factorial(n)
    if dynkin_type == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[n]
    if dynkin_type == "F":
        return 1152
    return 12  # G2


def checked_group_order(dynkin_type: str, rank: int, size_guard: int) -> int:
    """Order of the Weyl group of the given simple type; raises
    GroupSizeError when it exceeds `size_guard`.  Every simple type has
    |W| >= 2^rank, so a rank of at least the guard's bit length is rejected
    before |W| is computed."""
    _check_type_rank(dynkin_type, rank)
    if rank >= max(size_guard, 1).bit_length():
        shown = f">= 2^{rank}"
    else:
        order = weyl_group_order(dynkin_type, rank)
        if order <= size_guard:
            return order
        shown = f"= {order}"
    raise GroupSizeError(
        f"|W({dynkin_type}_{rank})| {shown} exceeds the size guard {size_guard}"
    )


def _dynkin_edges(dynkin_type: str, rank: int) -> set[frozenset[int]]:
    """Edge set of the Dynkin diagram on 1-based Bourbaki indices."""
    n = rank
    if dynkin_type in ("A", "B", "C", "F", "G"):
        return {frozenset((i, i + 1)) for i in range(1, n)}
    if dynkin_type == "D":
        edges = {frozenset((i, i + 1)) for i in range(1, n - 1)}
        edges.add(frozenset((n - 2, n)))
        return edges
    # E types: chain 1-3-4-5-6(-7)(-8) with 2 attached to 4
    edges = {frozenset((1, 3)), frozenset((3, 4)), frozenset((2, 4))}
    for i in range(4, n):
        edges.add(frozenset((i, i + 1)))
    return edges


def _cartan_matrix(dynkin_type: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with entries a[i][j] = <alpha_j, alpha_i^vee> (0-based)."""
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for edge in _dynkin_edges(dynkin_type, n):
        i, j = sorted(edge)
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    if dynkin_type == "B":
        # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
        a[n - 1][n - 2] = -2
    elif dynkin_type == "C":
        # alpha_n long: <alpha_n, alpha_{n-1}^vee> = -2
        a[n - 2][n - 1] = -2
    elif dynkin_type == "F":
        # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        a[2][1] = -2
    elif dynkin_type == "G":
        # alpha_1 short, alpha_2 long
        a[0][1] = -3
    return tuple(tuple(row) for row in a)


@dataclass(frozen=True)
class RootDatum:
    """Cartan matrix, positive roots/coroots and Dynkin adjacency of one simple type.

    cartan[i][j] = <alpha_j, alpha_i^vee>, so column j holds the
    omega-coordinates of the simple root alpha_j.
    """

    dynkin_type: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]      # simple-root coordinates
    positive_coroots: tuple[tuple[int, ...], ...]    # simple-coroot coordinates
    adjacency: frozenset[frozenset[int]]             # 1-based vertex pairs

    @property
    def simple_indices(self) -> range:
        """1-based Bourbaki indices of the simple roots."""
        return range(1, self.rank + 1)

    def root_omega_coords(self, root: tuple[int, ...]) -> tuple[int, ...]:
        """Omega-coordinates of a root given in simple-root coordinates."""
        return tuple(sum(map(mul, row, root)) for row in self.cartan)

    def pairing(self, weight: tuple[int, ...], coroot: tuple[int, ...]) -> int:
        """<weight, coroot> for a weight in omega-coordinates."""
        return sum(map(mul, weight, coroot))

    def fundamental_weight(self, i: int) -> tuple[int, ...]:
        """Omega-coordinates of omega_i (1-based i)."""
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def rho(self) -> tuple[int, ...]:
        return (1,) * self.rank

    def dynkin_path(self, i: int, j: int) -> tuple[int, ...]:
        """The unique simple path from vertex i to vertex j in the diagram."""
        if i == j:
            return (i,)
        neighbours: dict[int, list[int]] = {v: [] for v in self.simple_indices}
        for edge in self.adjacency:
            u, v = tuple(edge)
            neighbours[u].append(v)
            neighbours[v].append(u)
        stack = [(i, (i,))]
        seen = {i}
        while stack:
            v, path = stack.pop()
            for w in neighbours[v]:
                if w == j:
                    return path + (w,)
                if w not in seen:
                    seen.add(w)
                    stack.append((w, path + (w,)))
        raise ValueError(f"no path between {i} and {j}")  # diagram is connected


def _generate_root_coroot_pairs(cartan, rank):
    """All positive (root, coroot) pairs, from the simple ones by raising simple
    reflections only.  s_i raises beta iff m = <beta, alpha_i^vee> < 0 (row i of
    the Cartan matrix), and every positive root is reached from a simple root
    that way.  It adds -m alpha_i to beta and -<alpha_i, beta^vee> alpha_i^vee
    (column i) to the coroot; the assignment beta -> beta^vee is equivariant,
    so generating pairs keeps them matched.
    """
    columns = tuple(zip(*cartan))
    units = [(0,) * i + (1,) + (0,) * (rank - 1 - i) for i in range(rank)]
    frontier = dict(zip(units, units))  # root -> coroot
    positive = {}
    while frontier:
        positive.update(frontier)
        raised = {}
        for root, coroot in frontier.items():
            for i, (row, column) in enumerate(zip(cartan, columns)):
                m = sum(map(mul, row, root))
                if m < 0 and (up := root[:i] + (root[i] - m,) + root[i + 1:]) not in positive:
                    mv = sum(map(mul, column, coroot))
                    raised[up] = coroot[:i] + (coroot[i] - mv,) + coroot[i + 1:]
        frontier = raised
    ordered = sorted(positive)
    return tuple(ordered), tuple(map(positive.__getitem__, ordered))


def build_root_datum(dynkin_type: str, rank: int) -> RootDatum:
    """Construct the root datum of a simple type, Bourbaki numbering.

    Raises RootDatumError for invalid (type, rank) pairs.
    """
    _check_type_rank(dynkin_type, rank)
    cartan = _cartan_matrix(dynkin_type, rank)
    roots, coroots = _generate_root_coroot_pairs(cartan, rank)
    adjacency = frozenset(_dynkin_edges(dynkin_type, rank))
    datum = RootDatum(dynkin_type, rank, cartan, roots, coroots, adjacency)
    _validate(datum)
    return datum


def _validate(datum: RootDatum) -> None:
    n = datum.rank
    for i in range(n):
        if datum.cartan[i][i] != 2:
            raise InvariantError(f"Cartan diagonal entry {i + 1} is not 2")
        for j in range(n):
            if i != j and datum.cartan[i][j] > 0:
                raise InvariantError(f"Cartan entry ({i + 1}, {j + 1}) is positive")
    for i, j in combinations(range(n), 2):
        if (frozenset((i + 1, j + 1)) in datum.adjacency) != (datum.cartan[i][j] != 0):
            raise InvariantError(f"Dynkin edge {i + 1}-{j + 1} contradicts the Cartan matrix")
    # <beta, beta^vee> = 2 ties the two coordinate systems together
    for root, coroot in zip(datum.positive_roots, datum.positive_coroots):
        if datum.pairing(datum.root_omega_coords(root), coroot) != 2:
            raise InvariantError(f"root {root} does not pair to 2 with its coroot")
