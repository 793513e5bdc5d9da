"""Partition combinatorics and scalar invariants."""

import pytest

from qtoda.partitions import (
    EMPTY,
    Partition,
    enumerate_partitions,
    hook_height,
    hooks_of_size,
    is_vertical_strip,
    partitions_of,
)
from qtoda.vertex import subpartitions


def test_conjugate_examples():
    assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))
    assert EMPTY.conjugate() == EMPTY
    assert Partition((2, 2)).conjugate() == Partition((2, 2))


def test_conjugate_is_involution():
    for nu in enumerate_partitions(8):
        c = nu.conjugate()
        assert c.conjugate() == nu
        assert c.weight == nu.weight
        if nu.parts:
            assert c.length == nu.parts[0]


def test_kappa_examples():
    assert Partition((2,)).kappa() == 2
    assert Partition((1, 1)).kappa() == -2
    assert Partition((2, 1)).kappa() == 0


def test_kappa_antisymmetric_under_conjugation():
    for nu in enumerate_partitions(8):
        assert nu.conjugate().kappa() == -nu.kappa()


def test_enumerate_examples():
    assert enumerate_partitions(0) == [EMPTY]
    assert enumerate_partitions(2) == [EMPTY, Partition((1,)), Partition((2,)), Partition((1, 1))]
    assert len(enumerate_partitions(4)) == 12


def test_enumerate_counts_match_partition_function():
    p = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for w in range(9):
        assert len(partitions_of(w)) == p[w]
        assert len(enumerate_partitions(w)) == sum(p[: w + 1])


def test_enumerate_order_deterministic():
    got = [nu.parts for nu in partitions_of(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_containment_and_strips():
    assert Partition((3, 1)).contains(Partition((2, 1)))
    assert not Partition((2, 2)).contains(Partition((3,)))
    assert is_vertical_strip(Partition((2, 1, 1)), Partition((1, 1)))
    assert not is_vertical_strip(Partition((3, 1)), Partition((1,)))
    assert hooks_of_size(3) == [Partition((3,)), Partition((2, 1)), Partition((1, 1, 1))]
    assert [hook_height(h) for h in hooks_of_size(3)] == [0, 1, 2]


def test_text_round_trip():
    assert str(Partition((3, 1))) == "[3,1]"
    assert Partition.parse("[3,1]") == Partition((3, 1))
    assert Partition.parse("[]") == EMPTY
    with pytest.raises(ValueError):
        Partition((1, 2))


@pytest.mark.parametrize("parts", [(1, 2), (3, -1), (-2,), (2, 3, 1), (1, 0, 2)])
def test_malformed_parts_are_refused(parts):
    # the checked constructors; only the program's own builders skip the checks
    with pytest.raises(ValueError):
        Partition(parts)
    with pytest.raises(ValueError):
        Partition.parse(",".join(map(str, parts)))


def test_unchecked_builders_make_valid_partitions():
    # every partition built without the checks equals the checked one of its parts
    built = [p for w in range(8) for p in partitions_of(w)]
    built += [p.conjugate() for p in built]
    built += [p.intersect(q) for p in built[:40] for q in built[:40]]
    built += [eta for p in enumerate_partitions(6) for eta in subpartitions(p)]
    for p in built:
        assert Partition(p.parts) == p
