import pytest

from lsfan import RootDatumError, build_root_datum, weyl_group_order

POSITIVE_ROOT_COUNTS = [
    ("A", 1, 1),
    ("A", 3, 6),
    ("B", 2, 4),
    ("B", 3, 9),
    ("C", 3, 9),
    ("D", 3, 6),
    ("D", 4, 12),
    ("E", 6, 36),
    ("E", 7, 63),
    ("E", 8, 120),
    ("F", 4, 24),
    ("G", 2, 6),
]


@pytest.mark.parametrize("dynkin_type,rank,count", POSITIVE_ROOT_COUNTS)
def test_positive_root_counts(dynkin_type, rank, count):
    datum = build_root_datum(dynkin_type, rank)
    assert len(datum.positive_roots) == count
    assert len(datum.positive_coroots) == count


@pytest.mark.parametrize(
    "dynkin_type,rank",
    [(t, r) for t, r, _ in POSITIVE_ROOT_COUNTS] + [("A", 5), ("B", 4), ("C", 4), ("D", 5)],
)
def test_raising_reflections_generate_the_reference_roots_in_order(dynkin_type, rank):
    # the reference is the definition: a sorted set of non-zero, non-negative
    # vectors that holds the simple roots and is closed under each simple
    # reflection (but for s_i alpha_i = -alpha_i) is the set of positive roots,
    # since a non-root's orbit would reach the negative cone through w0; s_i
    # sends the coroot of beta to that of s_i beta (Cartan column i)
    datum = build_root_datum(dynkin_type, rank)
    roots, cartan = datum.positive_roots, datum.cartan
    assert list(roots) == sorted(set(roots)) and all(min(r) >= 0 < max(r) for r in roots)
    coroot_of = dict(zip(roots, datum.positive_coroots))
    for i in range(rank):
        simple = tuple(int(j == i) for j in range(rank))
        assert coroot_of[simple] == simple
        for root, coroot in coroot_of.items():
            if root != simple:
                m = sum(cartan[i][j] * root[j] for j in range(rank))
                mv = sum(cartan[j][i] * coroot[j] for j in range(rank))
                image = root[:i] + (root[i] - m,) + root[i + 1:]
                assert coroot_of[image] == coroot[:i] + (coroot[i] - mv,) + coroot[i + 1:]


def test_a3_has_six_positive_roots():
    assert len(build_root_datum("A", 3).positive_roots) == 6


def test_g2_cartan_offdiagonals():
    datum = build_root_datum("G", 2)
    assert len(datum.positive_roots) == 6
    off = {datum.cartan[0][1], datum.cartan[1][0]}
    assert off == {-1, -3}


def test_d4_adjacency_is_a_star():
    datum = build_root_datum("D", 4)
    expected = {frozenset({1, 2}), frozenset({2, 3}), frozenset({2, 4})}
    assert datum.adjacency == expected


@pytest.mark.parametrize(
    "dynkin_type,rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)],
)
def test_invalid_type_rank_rejected(dynkin_type, rank):
    with pytest.raises(RootDatumError):
        build_root_datum(dynkin_type, rank)


@pytest.mark.parametrize("dynkin_type,rank,_", POSITIVE_ROOT_COUNTS)
def test_cartan_invariants(dynkin_type, rank, _):
    datum = build_root_datum(dynkin_type, rank)
    for i in range(rank):
        assert datum.cartan[i][i] == 2
        for j in range(rank):
            if i != j:
                assert datum.cartan[i][j] <= 0
                edge = frozenset({i + 1, j + 1})
                assert (edge in datum.adjacency) == (datum.cartan[i][j] != 0)


@pytest.mark.parametrize("dynkin_type,rank,_", POSITIVE_ROOT_COUNTS)
def test_pairing_of_root_with_own_coroot_is_two(dynkin_type, rank, _):
    datum = build_root_datum(dynkin_type, rank)
    for root, coroot in zip(datum.positive_roots, datum.positive_coroots):
        assert datum.pairing(datum.root_omega_coords(root), coroot) == 2


def test_dynkin_path_is_unique_simple_path():
    datum = build_root_datum("E", 6)
    assert datum.dynkin_path(1, 6) == (1, 3, 4, 5, 6)
    assert datum.dynkin_path(2, 1) == (2, 4, 3, 1)
    assert datum.dynkin_path(4, 4) == (4,)


def test_weyl_group_orders():
    assert weyl_group_order("A", 3) == 24
    assert weyl_group_order("B", 2) == 8
    assert weyl_group_order("D", 4) == 192
    assert weyl_group_order("F", 4) == 1152
    assert weyl_group_order("E", 6) == 51840
