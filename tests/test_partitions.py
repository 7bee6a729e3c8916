import pytest
from hypothesis import given, strategies as st

from orbitduality import partitions as pt


def all_partitions_reference(n):
    """Independent generator: multisets via nondecreasing compositions."""
    def gen(total, minimum):
        if total == 0:
            yield ()
            return
        for first in range(minimum, total + 1):
            for rest in gen(total - first, first):
                yield (first,) + rest
    return {tuple(sorted(p, reverse=True)) for p in gen(n, 1)}


def collapse_oracle(p, family):
    """Dominance-maximum valid partition below p, by exhaustion."""
    below = [q for q in pt.enumerate_valid(sum(p), family) if pt.dominates(p, q)]
    best = [q for q in below if all(pt.dominates(q, r) for r in below)]
    assert len(best) == 1, (p, family, below)
    return best[0]


partitions_st = st.lists(st.integers(1, 9), min_size=0, max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_partition_normalization():
    assert pt.partition([3, 1, 0, 0]) == (3, 1)
    assert pt.partition([]) == ()
    with pytest.raises(ValueError):
        pt.partition([1, 2])
    with pytest.raises(ValueError):
        pt.partition([2, -1])


def test_transpose_examples():
    assert pt.transpose((5,)) == (1, 1, 1, 1, 1)
    assert pt.transpose((3, 1, 1)) == (3, 1, 1)
    assert pt.transpose((2, 2)) == (2, 2)
    assert pt.transpose(()) == ()


def test_transpose_involution_exhaustive():
    for n in range(13):
        for p in pt.enumerate_partitions(n):
            assert pt.transpose(pt.transpose(p)) == p


@given(partitions_st)
def test_transpose_involution_random(p):
    assert pt.transpose(pt.transpose(p)) == p
    assert sum(pt.transpose(p)) == sum(p)


def test_dominance_examples():
    assert pt.dominates((4,), (2, 2))
    assert not pt.dominates((2, 2), (3, 1))
    assert pt.dominates((3, 1), (3, 1))
    with pytest.raises(ValueError):
        pt.dominates((2,), (1, 1, 1))


def test_transpose_reverses_dominance():
    for n in range(11):
        for p in pt.enumerate_partitions(n):
            for q in pt.enumerate_partitions(n):
                assert pt.dominates(p, q) == pt.dominates(
                    pt.transpose(q), pt.transpose(p)
                )


def test_is_valid_examples():
    assert pt.is_valid((2, 2), "C")
    assert not pt.is_valid((3, 1), "C")
    assert pt.is_valid((3, 1, 1), "B")
    assert not pt.is_valid((2, 2), "B")  # wrong size parity
    assert pt.is_valid((3, 1), "D")
    assert not pt.is_valid((4, 2), "D")
    with pytest.raises(ValueError):
        pt.is_valid((2,), "E")


def test_collapse_examples():
    assert pt.collapse((3, 1), "C") == (2, 2)
    assert pt.collapse((4, 1), "B") == (3, 1, 1)
    assert pt.collapse((2, 2), "C") == (2, 2)
    assert pt.collapse((5, 1), "A") == (5, 1)
    with pytest.raises(ValueError):
        pt.collapse((3, 1), "B")  # even size cannot be orthogonal odd


def test_collapse_against_exhaustive_oracle():
    for family, sizes in (("B", (1, 3, 5, 7, 9, 11)), ("C", (2, 4, 6, 8, 10, 12)),
                          ("D", (2, 4, 6, 8, 10, 12))):
        for n in sizes:
            for p in pt.enumerate_partitions(n):
                got = pt.collapse(p, family)
                assert got == collapse_oracle(p, family), (p, family)


def test_collapse_properties():
    for family, n in (("B", 9), ("C", 8), ("D", 8)):
        valid = pt.enumerate_valid(n, family)
        for p in pt.enumerate_partitions(n):
            c = pt.collapse(p, family)
            assert pt.is_valid(c, family)
            assert pt.dominates(p, c)
            for q in valid:
                if pt.dominates(p, q):
                    assert pt.dominates(c, q)
            if pt.is_valid(p, family):
                assert c == p


def test_enumerate_examples():
    assert pt.enumerate_partitions(0) == ((),)
    assert pt.enumerate_valid(4, "C") == ((4,), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert pt.enumerate_valid(5, "B") == ((5,), (3, 1, 1), (2, 2, 1), (1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        pt.enumerate_valid(4, "B")
    with pytest.raises(ValueError):
        pt.enumerate_partitions(-1)
    with pytest.raises(ValueError):
        pt.enumerate_valid(-1, "A")
    assert not pt.size_fits_family(-1, "A")


def test_enumerate_complete_and_duplicate_free():
    for n in range(11):
        generated = pt.enumerate_partitions(n)
        assert len(set(generated)) == len(generated)
        assert set(generated) == all_partitions_reference(n)
        for family in "BCD":
            if not pt.size_fits_family(n, family):
                continue
            got = pt.enumerate_valid(n, family)
            assert len(set(got)) == len(got)
            assert set(got) == {
                p for p in all_partitions_reference(n) if pt.is_valid(p, family)
            }


def test_enumerate_order_is_descending_lex():
    for n in range(9):
        ps = pt.enumerate_partitions(n)
        assert list(ps) == sorted(ps, reverse=True)
