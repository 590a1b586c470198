"""Exact integer linear algebra on small dense matrices.

Everything here works over Python ints, with no floating point; only
``invert_fraction`` returns Fractions.  No runtime path calls it (the
benchmark's tracer still spans it), so it imports ``fractions`` only when
it runs, and the pipeline never loads that module.
Rank and integer kernel are both read off one elimination, the Hermite form
``hnf_rows``.  Vectors are tuples, matrices are sequences of row tuples.
"""

from __future__ import annotations

from math import gcd
from operator import lshift, mul


def vec_dot(u, v) -> int:
    return sum(map(mul, u, v))


def slack_lanes(normals, reach: int):
    """Column ints and sign mask that pack the values on ``normals`` into one int.

    Lane j of the packed value ``sum(map(mul, v, columns))`` holds
    ``normals[j] . v``: column i is ``sum(normals[j][i] << j*w)``, so one
    multiply-add per coordinate computes every lane.  The packing is linear
    and exact while every lane value y obeys |y| < 2**(w-1): adding the
    sign mask (bit w-1 of every lane) then turns each lane into one
    base-2**w digit y + 2**(w-1), with no carries.  So all lanes of s are
    >= 0 exactly when ``(s + sign) & sign == sign``, and s == 0 only when
    every lane is 0.  The width w covers |y| <= max |u|_1 * reach over the
    normals u, which bounds the lanes of every v with |v|_inf <= reach, and
    of the difference of two such packed values whose lanes are all >= 0.
    It packs a few vectors, each on its own: the rays of the double
    description (``polyhedra._DoubleDescription``) and the candidates of
    ``hilbert_basis``.  Many points on one list of
    normals are packed the other way round, one int per normal
    (``degeneration.PointLanes``), as the certificate's data and basis are.
    """
    normals = list(normals)
    bound = max((sum(map(abs, u)) for u in normals), default=0) * reach
    width = bound.bit_length() + 1
    shifts = range(0, len(normals) * width, width)
    columns = tuple(sum(map(lshift, col, shifts)) for col in zip(*normals))
    ones = ((1 << len(normals) * width) - 1) // ((1 << width) - 1)
    return columns, ones << (width - 1)


def vec_content(v) -> int:
    return gcd(*v)


def primitive(v):
    """Divide out the content, keeping direction; zero stays zero."""
    g = vec_content(v)
    if g in (0, 1):
        return tuple(v)
    return tuple(c // g for c in v)


def rank_int(rows) -> int:
    """Rank of an integer matrix: the row count of its Hermite form."""
    return len(hnf_rows(rows))


def det_int(matrix) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss)."""
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def invert_fraction(matrix):
    """Inverse of a nonsingular square integer matrix, as Fraction rows."""
    from fractions import Fraction

    n = len(matrix)
    aug = [
        [Fraction(c) for c in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [c * inv for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def hnf_rows(rows):
    """Canonical row form under unimodular row operations.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows are dropped.  The result is a deterministic basis of the row
    lattice.
    """
    mat = [list(r) for r in rows]
    mat = [r for r in mat if any(r)]
    if not mat:
        return ()
    ncols = len(mat[0])
    top = 0
    for col in range(ncols):
        live = [r for r in range(top, len(mat)) if mat[r][col] != 0]
        if not live:
            continue
        # gcd elimination below the pivot row
        while len(live) > 1:
            live.sort(key=lambda r: abs(mat[r][col]))
            base = live[0]
            for r in live[1:]:
                q = mat[r][col] // mat[base][col]
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[base])]
            live = [r for r in live if mat[r][col] != 0]
        pivot = live[0]
        mat[top], mat[pivot] = mat[pivot], mat[top]
        if mat[top][col] < 0:
            mat[top] = [-c for c in mat[top]]
        p = mat[top][col]
        for r in range(top):
            q = mat[r][col] // p
            if q:
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[top])]
        top += 1
        if top == len(mat):
            break
    return tuple(tuple(r) for r in mat[:top] if any(r))


def kernel_basis_int(rows, ncols):
    """Canonical basis of the integer kernel {x : row . x == 0 for all rows}.

    Every row of [A^T | I] reads (A x, x), and unimodular row operations
    keep that form, so the rows of its Hermite form with A x = 0 are a
    basis of the kernel lattice, and their x parts are already in Hermite
    form.
    """
    rows = [tuple(r) for r in rows]
    m = len(rows)
    aug = [tuple(r[j] for r in rows) + tuple(int(i == j) for i in range(ncols))
           for j in range(ncols)]
    return tuple(r[m:] for r in hnf_rows(aug) if not any(r[:m]))


def lattice_span_basis(vectors, dim):
    """Basis rows of the saturation of the span: span_Q(vectors) intersect Z^dim."""
    if not vectors:
        return ()
    perp = kernel_basis_int(list(vectors), dim)
    if not perp:
        return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
    return kernel_basis_int(list(perp), dim)


def snf_with_uinv(matrix):
    """Diagonalize by unimodular row and column operations.

    Returns ``(diag, v)`` where U * A * V = D is the Smith normal form of
    the n x m matrix A: D is n x m with the positive entries ``diag``, each
    dividing the next, leading its diagonal and zeros elsewhere, and
    ``v`` = V is m x m and unimodular.  The row transform U is not kept;
    the name stays because the benchmark tracer spans it.
    """
    a = [list(r) for r in matrix]
    n = len(a)
    m = len(a[0]) if n else 0
    v = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def col_swap(i, j):
        for row in a + v:
            row[i], row[j] = row[j], row[i]

    def col_addmul(dst, src, q):
        for row in a + v:
            row[dst] += q * row[src]

    t = 0
    while t < min(n, m):
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        a[best[0]], a[t] = a[t], a[best[0]]
        if best[1] != t:
            col_swap(best[1], t)
        if a[t][t] < 0:
            a[t] = [-c for c in a[t]]
        while True:
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t] != 0:
                        a[i], a[t] = a[t], a[i]
                        if a[t][t] < 0:
                            a[t] = [-c for c in a[t]]
                        dirty = True
            for j in range(t + 1, m):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_addmul(j, t, -q)
                    if a[t][j] != 0:
                        col_swap(j, t)
                        dirty = True
            if dirty:
                continue
            # The pivot must divide the rest of the matrix; adding a row
            # holding a non-multiple makes the next pass shrink the pivot.
            bad = next((i for i in range(t + 1, n)
                        if any(a[i][j] % a[t][t] for j in range(t + 1, m))), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
        t += 1
    diag = [a[k][k] for k in range(t)]
    return diag, v
