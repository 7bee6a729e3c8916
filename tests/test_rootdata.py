from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitduality.rootdata import (
    Coweight,
    coweight_orbit,
    dominant_rep,
    half_sum,
    invariant_form,
    positive_roots,
    root_pairing,
    root_system,
    weyl_conjugate,
)

F4 = root_system("F4")


def det(matrix):
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


@pytest.mark.parametrize(
    "label,rank",
    [("A", 3), ("B", 4), ("C", 2), ("D", 4), ("F4", 4), ("G2", 2)],
)
def test_cartan_matrix_shape(label, rank):
    rs = root_system(label, rank)
    for i, row in enumerate(rs.cartan):
        assert row[i] == 2
        assert all(row[j] <= 0 for j in range(rs.rank) if j != i)
    assert det(rs.cartan) != 0


@pytest.mark.parametrize(
    "label,rank,count",
    [("A", 2, 3), ("B", 2, 4), ("C", 3, 9), ("D", 4, 12), ("F4", 4, 24), ("G2", 2, 6)],
)
def test_positive_root_counts(label, rank, count):
    rs = root_system(label, rank)
    assert len(positive_roots(rs)) == count
    assert rs.num_positive_roots == count


@pytest.mark.parametrize(
    "args", [("F4", 3), ("G2", 3), ("B", 0), ("A",), ("D", 1)], ids=str
)
def test_root_system_rejects_bad_rank(args):
    with pytest.raises(ValueError):
        root_system(*args)


def test_dominant_rep_fixes_zero():
    rs = root_system("B", 3)
    zero = Coweight.of([0, 0, 0])
    assert dominant_rep(zero, rs) == zero


def test_dominant_rep_idempotent_on_dominant():
    w = Coweight.of([1, 0, 2, 0])
    assert dominant_rep(w, F4) == w
    assert dominant_rep(dominant_rep(w, F4), F4) == dominant_rep(w, F4)


def test_rank_one_sign_flip():
    rs = root_system("A", 1)
    assert dominant_rep(Coweight.of([-3]), rs) == Coweight.of([3])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        dominant_rep(Coweight.of([1, 2]), F4)
    with pytest.raises(ValueError):
        weyl_conjugate(Coweight.of([1]), Coweight.of([1, 0, 0, 0]), F4)
    with pytest.raises(ValueError):
        Coweight.of([1]) + Coweight.of([1, 2])
    with pytest.raises(ValueError):
        half_sum(Coweight.of([1]), Coweight.of([1, 2]))


def test_weyl_conjugate_basics():
    a = Coweight.of([-1, 2, 0, -1])
    assert weyl_conjugate(a, a, F4)
    assert weyl_conjugate(a, dominant_rep(a, F4), F4)
    rs = root_system("A", 1)
    assert not weyl_conjugate(Coweight.of([1]), Coweight.of([2]), rs)


small_coords = st.lists(st.integers(-4, 4), min_size=4, max_size=4)


@given(small_coords, small_coords, small_coords)
def test_weyl_conjugacy_is_an_equivalence(a, b, c):
    wa, wb, wc = (Coweight.of(v) for v in (a, b, c))
    assert weyl_conjugate(wa, wa, F4)
    if weyl_conjugate(wa, wb, F4):
        assert weyl_conjugate(wb, wa, F4)
    if weyl_conjugate(wa, wb, F4) and weyl_conjugate(wb, wc, F4):
        assert weyl_conjugate(wa, wc, F4)


@given(small_coords)
def test_dominant_rep_lands_in_chamber(coords):
    w = dominant_rep(Coweight.of(coords), F4)
    assert all(c >= 0 for c in w.twice)


@given(small_coords)
def test_orbit_has_one_dominant_element(coords):
    w = Coweight.of([c % 3 for c in coords])
    orbit = coweight_orbit(w, F4)
    dominant = [v for v in orbit if all(c >= 0 for c in v.twice)]
    assert len(dominant) == 1
    assert dominant[0] == dominant_rep(w, F4)


@pytest.mark.parametrize(
    "label,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("F4", 4), ("G2", 2)]
)
@settings(max_examples=20)
@given(coords=st.data())
def test_invariant_form_is_constant_on_weyl_orbits(label, rank, coords):
    rs = root_system(label, rank)
    twice = coords.draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
    w = Coweight(tuple(twice))
    form = invariant_form(rs)

    def q(v):
        return sum(root_pairing(b, v) ** 2 for b in positive_roots(rs))

    def gram(v):
        return sum(
            v.twice[j] * form[j][k] * v.twice[k]
            for j in range(rank)
            for k in range(rank)
        )

    assert gram(w) == q(w)
    assert {gram(v) for v in coweight_orbit(w, rs)} == {q(w)}


def test_half_sum_exact():
    a = Coweight.of([1, 0, 1, 0])
    b = Coweight.of([0, 1, 0, 1])
    assert half_sum(a, b).twice == (1, 1, 1, 1)
    assert str(half_sum(a, b)) == "(1/2, 1/2, 1/2, 1/2)"


def test_half_sum_rejects_quarter_integers():
    a = Coweight((1, 0))  # already half-integral
    b = Coweight((0, 0))
    with pytest.raises(ValueError):
        half_sum(a, b)
