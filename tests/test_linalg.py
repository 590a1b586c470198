import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stringcone.linalg import (
    det_int,
    hnf_rows,
    invert_fraction,
    kernel_basis_int,
    lattice_span_basis,
    primitive,
    rank_int,
    snf_with_uinv,
    vec_content,
)


def test_content_and_primitive():
    assert vec_content((4, -6, 10)) == 2
    assert vec_content((0, 0)) == 0
    assert primitive((4, -6, 10)) == (2, -3, 5)
    assert primitive((0, 0, 7)) == (0, 0, 1)


def test_rank():
    assert rank_int([]) == 0
    assert rank_int([(1, 2), (2, 4)]) == 1
    assert rank_int([(1, 0, 1), (0, 1, 1), (1, 1, 2)]) == 2


def test_det():
    assert det_int([]) == 1
    assert det_int([(3,)]) == 3
    assert det_int([(1, 2), (3, 4)]) == -2
    assert det_int([(2, 0, 0), (0, 3, 0), (0, 0, 5)]) == 30


def test_invert_fraction():
    inv = invert_fraction([(1, 2), (3, 4)])
    assert [list(row) for row in inv] == [
        [Fraction(-2), Fraction(1)], [Fraction(3, 2), Fraction(-1, 2)]]
    with pytest.raises(ValueError):
        invert_fraction([(1, 2), (2, 4)])


def test_hnf_rows():
    assert hnf_rows([(2, 4), (3, 5)]) == ((1, 1), (0, 2))
    assert hnf_rows([(0, 0), (0, 0)]) == ()
    # pivots positive, entries above reduced
    h = hnf_rows([(4, 2, 1), (2, 2, 0), (0, 0, 3)])
    for i, row in enumerate(h):
        pivot_col = next(c for c, v in enumerate(row) if v)
        assert row[pivot_col] > 0
        for above in h[:i]:
            assert 0 <= above[pivot_col] < row[pivot_col]


def test_kernel_basis():
    assert kernel_basis_int([(1, 0, 1), (0, 1, 1)], 3) == ((1, 1, -1),)
    assert kernel_basis_int([(1, 0), (0, 1)], 2) == ()
    assert kernel_basis_int([], 2) == ((1, 0), (0, 1))


def test_lattice_span():
    assert lattice_span_basis([(2, 0), (0, 2)], 2) == ((1, 0), (0, 1))
    assert lattice_span_basis([(2, 4)], 2) == ((1, 2),)
    assert lattice_span_basis([(0, 0)], 2) == ()


def test_snf_uinv_roundtrip():
    diag, uinv = snf_with_uinv([(2, 4), (6, 8)])
    assert all(d > 0 for d in diag)
    prod = 1
    for d in diag:
        prod *= d
    assert prod == abs(det_int([(2, 4), (6, 8)]))
    assert abs(det_int(uinv)) == 1


small_matrices = st.integers(min_value=-5, max_value=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small_matrices, small_matrices, small_matrices),
                min_size=3, max_size=3))
@example(rows=[(0, 0, 1), (0, 2, 0), (3, 0, 0)])
def test_snf_divisibility_chain(rows):
    det = det_int(rows)
    if det == 0:
        return
    diag, uinv = snf_with_uinv(rows)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    prod = 1
    for d in diag:
        prod *= d
    assert prod == abs(det)
    assert abs(det_int(uinv)) == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small_matrices, small_matrices, small_matrices),
                min_size=1, max_size=4))
def test_kernel_vectors_annihilate(rows):
    for vec in kernel_basis_int(rows, 3):
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0


def _rank_by_minors(rows):
    """Largest k with a nonzero k x k minor."""
    nrows, ncols = len(rows), len(rows[0])
    for k in range(min(nrows, ncols), 0, -1):
        for rs in itertools.combinations(range(nrows), k):
            for cs in itertools.combinations(range(ncols), k):
                if det_int([[rows[r][c] for c in cs] for r in rs]):
                    return k
    return 0


entries = st.integers(min_value=-3, max_value=3)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda ncols: st.lists(st.tuples(*[entries] * ncols), min_size=1, max_size=4)))
def test_rank_matches_minor_oracle(rows):
    assert rank_int(rows) == _rank_by_minors(rows)
