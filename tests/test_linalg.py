import itertools
import math
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
    slack_lanes,
    snf_with_uinv,
    vec_content,
    vec_dot,
)


def test_content_and_primitive():
    assert vec_content((4, -6, 10)) == 2
    assert vec_content((0, 0)) == 0
    assert vec_content((0, -9, 6)) == 3
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


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _minor_gcd(rows, k):
    """Gcd of the k x k minors of an integer matrix."""
    return math.gcd(*(
        det_int([[rows[r][c] for c in cs] for r in rs])
        for rs in itertools.combinations(range(len(rows)), k)
        for cs in itertools.combinations(range(len(rows[0])), k)))


def test_snf_worked_example():
    diag, v = snf_with_uinv([(2, 4), (6, 8)])
    assert diag == [2, 4]
    assert abs(det_int(v)) == 1
    assert [[c % d for c, d in zip(row, diag)] for row in _matmul([(2, 4), (6, 8)], v)] \
        == [[0, 0], [0, 0]]


small_matrices = st.integers(min_value=-5, max_value=5)
shapes = st.sampled_from([(3, 3), (2, 3), (3, 2), (4, 2)])


@settings(max_examples=120, deadline=None)
@given(shapes.flatmap(lambda shape: st.lists(
    st.tuples(*[small_matrices] * shape[1]), min_size=shape[0], max_size=shape[0])))
@example(rows=[(0, 0, 1), (0, 2, 0), (3, 0, 0)])
def test_snf_divisibility_chain(rows):
    # A * V = U^-1 * D, so column j of A * V is d_j times a column of U^-1
    # (zero past the rank), and d_1 ... d_k is the gcd of the k x k minors
    diag, v = snf_with_uinv(rows)
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    assert abs(det_int(v)) == 1
    assert len(diag) == rank_int(rows)
    av = _matmul(rows, v)
    for row in av:
        assert all(c % d == 0 for c, d in zip(row, diag))
        assert not any(row[len(diag):])
    prod = 1
    for k, d in enumerate(diag, start=1):
        prod *= d
        assert prod == _minor_gcd(rows, k)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small_matrices, small_matrices, small_matrices),
                min_size=1, max_size=4))
def test_kernel_vectors_annihilate(rows):
    for vec in kernel_basis_int(rows, 3):
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda ncols: st.tuples(st.just(ncols), st.lists(
        st.tuples(*[small_matrices] * ncols), max_size=4))))
def test_kernel_basis_is_the_saturated_kernel_in_hermite_form(case):
    ncols, rows = case
    basis = kernel_basis_int(rows, ncols)
    assert len(basis) == ncols - rank_int(rows)
    for vec in basis:
        assert all(vec_dot(row, vec) == 0 for row in rows)
    if basis:
        # unit Smith invariants: the basis spans every integer kernel vector
        diag, _ = snf_with_uinv(basis)
        assert diag == [1] * len(basis)
    assert hnf_rows(basis) == basis


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


def _unpack(packed, sign, lanes):
    """Lane values of a packed int: base-2**w digits of packed + sign, re-centred."""
    width = (sign & -sign).bit_length() if sign else 1
    digits = packed + sign
    assert digits >= 0
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = tuple(((digits >> (j * width)) & mask) - half for j in range(lanes))
    assert digits >> (lanes * width) == 0
    return out


def _nonneg(packed, sign):
    return (packed + sign) & sign == sign


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda dim: st.tuples(
    st.lists(st.tuples(*[st.integers(-9, 9)] * dim), max_size=6),
    st.tuples(*[st.integers(-50, 50)] * dim),
    st.tuples(*[st.integers(-50, 50)] * dim),
)))
@example(([(1, 0), (0, 1)], (0, 0), (0, 0)))
@example(([(1, -1), (2, 3)], (1, 1), (1, 1)))
def test_packed_slacks_match_tuples(case):
    normals, x, g = case
    sx = tuple(vec_dot(u, x) for u in normals)
    sg = tuple(vec_dot(u, g) for u in normals)
    diff = tuple(a - b for a, b in zip(sx, sg))
    # x - g as a vector has |x - g|_inf <= |x|_inf + |g|_inf
    columns, sign = slack_lanes(normals, max(map(abs, x)) + max(map(abs, g)))
    px, pg = vec_dot(x, columns), vec_dot(g, columns)
    assert _unpack(px, sign, len(normals)) == sx
    assert _unpack(px - pg, sign, len(normals)) == diff
    assert _nonneg(px, sign) == all(y >= 0 for y in sx)
    assert _nonneg(px - pg, sign) == all(y >= 0 for y in diff)
    assert (px == pg) == (sx == sg)


@pytest.mark.parametrize("width", [2, 8, 64])
def test_packed_lanes_at_the_bound(width):
    # unit normals: |u|_1 = 1, so lanes reach exactly +-top = +-(2**(w-1) - 1)
    top = (1 << (width - 1)) - 1
    normals = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    columns, sign = slack_lanes(normals, top)
    assert sign == sum(1 << (j * width + width - 1) for j in range(len(normals)))
    for x in [(top, 0), (-top, 0), (top, -top), (0, top), (-top, -top)]:
        lanes = (x[0], x[1], -x[0], -x[1])
        packed = vec_dot(x, columns)
        assert _unpack(packed, sign, len(normals)) == lanes
        assert _nonneg(packed, sign) == (min(lanes) >= 0)
    # no lanes: every vector packs to 0, which passes the sign test
    assert slack_lanes([], 5) == ((), 0)
