"""Exact integer linear algebra against independent brute-force oracles."""

import random
from itertools import permutations
from math import gcd, isqrt

import pytest

from unimod.errors import DimensionError, PreconditionError
from unimod.intlinalg import (
    IntMatrix,
    _cofactor_adjugate,
    _gauss_jordan,
    _gauss_jordan_adjugate,
    adjugate,
    determinant,
    hermite_form,
    kernel_basis,
    matvec,
    rank,
    solve_unimodular,
    square_minors,
    vecmat,
)

rng = random.Random(20260824)


def _perm_det(rows):
    """Permutation-expansion determinant: the O(n!) textbook definition."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):          # count inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def _random_matrix(r, c, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


# ---------------------------------------------------------------------------
# determinant


def test_determinant_trivial_sizes():
    assert determinant(IntMatrix.from_rows([])) == 1          # empty product
    assert determinant(IntMatrix.from_rows([[-7]])) == -7
    assert determinant(IntMatrix.from_rows([[2, 1], [7, 4]])) == 1


def test_determinant_singular():
    m = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert determinant(m) == 0


def _low_rank_matrix(r, c, k):
    """A random r x c matrix of rank at most k: a product of r x k and k x c."""
    left, right = _random_matrix(r, k, -3, 3), _random_matrix(k, c, -3, 3)
    return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(c)]
            for i in range(r)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_determinant_matches_permutation_expansion(n):
    """Random matrices, singular ones (rank n - 1), one with a zero leading
    entry (the kernel swaps rows) and one whose middle column gets no pivot
    (the kernel skips it, so fewer than n pivots: det 0)."""
    cases = [_random_matrix(n, n) for _ in range(25)]
    cases += [_low_rank_matrix(n, n, n - 1) for _ in range(5)]
    swap = _random_matrix(n, n, 1, 6)
    swap[0][0] = 0
    skip = _random_matrix(n, n)
    for row in skip:
        row[n // 2] = 2 * row[0]
    for rows in cases + [swap, skip]:
        assert determinant(IntMatrix.from_rows(rows)) == _perm_det(rows)
    assert _perm_det(skip) == 0 or n == 1


def test_rank_matches_hermite_rank():
    for _ in range(60):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        rows = (_low_rank_matrix(r, c, rng.randint(0, 4)) if rng.random() < 0.5
                else _random_matrix(r, c))
        m = IntMatrix(r, c, tuple(x for row in rows for x in row))
        assert rank(m) == hermite_form(m)[2]


def test_determinant_large_entries_exact():
    rows = [[10**12 + 1, 10**12], [10**12, 10**12 - 1]]
    assert determinant(IntMatrix.from_rows(rows)) == -1


# ---------------------------------------------------------------------------
# Hermite form / rank / kernel


def test_hermite_canonical_column_pair():
    h, u, rk = hermite_form(IntMatrix.from_rows([[1], [1]]), transform=True)
    assert rk == 1
    assert h.to_lists() == [[1], [0]]
    assert u is not None and abs(determinant(u)) == 1


def test_hermite_reduces_above_pivots():
    m = IntMatrix.from_rows([[4, 7, 2], [2, 4, 6], [1, 1, 1]])
    h, _, rk = hermite_form(m)
    assert rk == 3
    # pivots positive, entries above each pivot reduced into [0, pivot)
    pivots = []
    for i in range(3):
        j = next(k for k in range(3) if h[i, k] != 0)
        pivots.append((i, j))
        assert h[i, j] > 0
        for above in range(i):
            assert 0 <= h[above, j] < h[i, j]


def test_hermite_transform_is_unimodular_and_consistent():
    for _ in range(30):
        rows = _random_matrix(rng.randint(1, 5), rng.randint(1, 5))
        m = IntMatrix.from_rows(rows)
        h, u, rk = hermite_form(m, transform=True)
        assert abs(determinant(u)) == 1
        assert (u @ m).to_lists() == h.to_lists()
        assert rk == rank(m)
        # rows beyond rk are zero
        for i in range(rk, len(rows)):
            assert all(h[i, j] == 0 for j in range(m.cols))


def test_kernel_basis_triangle():
    # rows e1, e2, e1+e2: the single relation is r0 + r1 - r2 = 0
    m = IntMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    assert kernel_basis(m) == ((1, 1, -1),)


def test_kernel_basis_repeated_row():
    assert kernel_basis(IntMatrix.from_rows([[1], [1]])) == ((1, -1),)


def test_kernel_is_left_kernel_and_saturated():
    for _ in range(30):
        rows = _random_matrix(rng.randint(1, 6), rng.randint(1, 4))
        m = IntMatrix.from_rows(rows)
        ker = kernel_basis(m)
        assert len(ker) == len(rows) - rank(m)
        for y in ker:
            prod = [sum(y[i] * rows[i][j] for i in range(len(rows)))
                    for j in range(m.cols)]
            assert all(v == 0 for v in prod)
        if ker:
            # saturation: all Smith invariant factors are 1, equivalently the
            # gcd over all maximal minors of the kernel basis is 1
            kb = IntMatrix.from_rows([list(y) for y in ker])
            assert rank(kb) == len(ker)
            g = 0
            for minor in square_minors(kb, len(ker)):
                g = gcd(g, minor)
            assert g == 1


# ---------------------------------------------------------------------------
# minors, adjugate


def test_square_minors_stream_order_and_count():
    m = IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    # lexicographic by row set, then column set
    assert list(square_minors(m, 1)) == [1, 2, 3, 4, 5, 6]
    assert list(square_minors(m, 2)) == [-2, -4, -2]


@pytest.mark.parametrize("call", [
    pytest.param(lambda: IntMatrix.identity(2) @ IntMatrix.identity(3), id="matmul"),
    pytest.param(lambda: matvec(IntMatrix.identity(2), (1, 2, 3)), id="matvec"),
    pytest.param(lambda: vecmat((1, 2, 3), IntMatrix.identity(2)), id="vecmat"),
    pytest.param(lambda: determinant(IntMatrix.zeros(2, 3)), id="determinant"),
    pytest.param(lambda: adjugate(IntMatrix.zeros(3, 2)), id="adjugate"),
    pytest.param(lambda: solve_unimodular(IntMatrix.zeros(1, 2), (1,)),
                 id="solve_unimodular"),
])
def test_shape_mismatch_raises_dimension_error(call):
    with pytest.raises(DimensionError):
        call()


def test_square_minors_bad_order():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(DimensionError):
        list(square_minors(m, 3))
    with pytest.raises(DimensionError):
        list(square_minors(m, 0))


@pytest.mark.parametrize("rows", [
    [[1.7, True]],        # float and boolean, once truncated to [[1, 1]]
    [[1, 0], [0, 1.0]],   # integral float
    [[False]],            # boolean alone
    [[1, "2"]],           # string
])
def test_from_rows_rejects_non_integer_entries(rows):
    with pytest.raises(PreconditionError):
        IntMatrix.from_rows(rows)


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(DimensionError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_take_rows_keeps_entries_and_checks_indices():
    m = IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert m.take_rows([2, 0]) == IntMatrix.from_rows([[5, 6], [1, 2]])
    assert m.take_rows([]) == IntMatrix(0, 2, ())
    for bad in ([3], [-1]):
        with pytest.raises(DimensionError):
            m.take_rows(bad)


def test_adjugate_identity_law():
    for n in (1, 2, 3, 4):
        for _ in range(10):
            m = IntMatrix.from_rows(_random_matrix(n, n))
            d = determinant(m)
            prod = m @ adjugate(m)
            expect = [[d if i == j else 0 for j in range(n)] for i in range(n)]
            assert prod.to_lists() == expect


def _matrix_of_rank(gen, n, r, bound):
    """A random n x n matrix of rank r, entries at most bound in size.

    The product of random n x r and r x n factors has rank at most r; it is
    redrawn until the rank is exactly r.
    """
    side = isqrt(bound // max(r, 1))
    while True:
        x = IntMatrix(n, r, tuple(gen.randint(-side, side) for _ in range(n * r)))
        y = IntMatrix(r, n, tuple(gen.randint(-side, side) for _ in range(r * n)))
        m = x @ y
        if rank(m) == r:
            return m


def test_adjugate_matches_cofactor_oracle():
    """Gauss-Jordan adjugate against the n^2 cofactor determinants: n = 0..7,
    every rank from n down to 0, entries up to 10^6."""
    gen = random.Random(20261018)
    for n in range(8):
        for r in range(n, -1, -1):
            for bound in (10, 10 ** 6):
                for _ in range(4 if r == n else 2):
                    m = _matrix_of_rank(gen, n, r, bound)
                    want = _cofactor_adjugate(m.row_list())
                    assert adjugate(m).to_lists() == want, m
                    fast = _gauss_jordan_adjugate(m.row_list())
                    assert (fast is None) == (r < n)
                    assert fast is None or fast == want


def test_solve_unimodular_matches_cofactor_solve():
    gen = random.Random(20261019)
    for _ in range(40):
        n = gen.randint(1, 7)
        while True:
            b = IntMatrix(n, n, tuple(gen.randint(-2, 2) for _ in range(n * n)))
            d = determinant(b)
            if d in (1, -1):
                break
        v = tuple(gen.randint(-10 ** 6, 10 ** 6) for _ in range(n))
        adj = IntMatrix.from_rows(_cofactor_adjugate(b.row_list()))
        assert solve_unimodular(b, v) == tuple(d * x for x in vecmat(v, adj))


# ---------------------------------------------------------------------------
# expansion / unimodular solve


_Q_HEAD = [[1, 1, 0, 0, 0],
           [0, 1, 1, 0, 0],
           [0, 0, 1, 1, 0],
           [0, 0, 0, 1, 1],
           [1, 0, 0, 0, 1]]


def test_solve_unimodular_row_combination():
    b = IntMatrix.from_rows([[1, 0], [1, 1]])
    x = solve_unimodular(b, (1, 2))
    assert x == (-1, 2)
    recon = [x[0] * b[0, j] + x[1] * b[1, j] for j in range(2)]
    assert tuple(recon) == (1, 2)


def test_solve_unimodular_rejects_nonunit_determinant():
    b = IntMatrix.from_rows(_Q_HEAD)          # determinant 2
    with pytest.raises(PreconditionError):
        solve_unimodular(b, (1, 0, 1, 0, 0))


def test_solve_unimodular_random_roundtrip():
    for _ in range(40):
        n = rng.randint(1, 4)
        while True:
            b = IntMatrix.from_rows(_random_matrix(n, n, -3, 3))
            if determinant(b) in (1, -1):
                break
        x = tuple(rng.randint(-5, 5) for _ in range(n))
        v = tuple(sum(x[i] * b[i, j] for i in range(n)) for j in range(n))
        assert solve_unimodular(b, v) == x


# ---------------------------------------------------------------------------
# IntMatrix basics


def test_matrix_ops():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.transpose().to_lists() == [[1, 3], [2, 4]]
    assert (-m).to_lists() == [[-1, -2], [-3, -4]]
    assert m.take_rows([1]).to_lists() == [[3, 4]]
    assert (m @ IntMatrix.identity(2)).to_lists() == m.to_lists()
    assert m.row(1) == (3, 4)
    assert m.col(0) == (1, 3)


def test_row_kernels_match_entrywise_definitions():
    gen = random.Random(20261020)
    for r, c in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4)]:
        m = IntMatrix(r, c, tuple(gen.randint(-9, 9) for _ in range(r * c)))
        t = m.transpose()
        assert (t.rows, t.cols) == (c, r)
        assert all(t[j, i] == m[i, j] for i in range(r) for j in range(c))
        rs = [gen.randrange(r) for _ in range(3)] if r else []
        cs = [gen.randrange(c) for _ in range(2)] if c else []
        sub = m.submatrix(rs, cs)
        assert sub.to_lists() == [[m[i, j] for j in cs] for i in rs]
        v = [gen.randint(-9, 9) for _ in range(c)]
        assert matvec(m, v) == tuple(
            sum(m[i, j] * v[j] for j in range(c)) for i in range(r))
        u = [gen.randint(-9, 9) for _ in range(r)]
        assert vecmat(u, m) == tuple(
            sum(u[i] * m[i, j] for i in range(r)) for j in range(c))


def test_intmatrix_indexes_entries_and_has_no_tuple_arithmetic():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert (m[0, 1], m[1, 0]) == (2, 3)
    for op in (lambda: m + m, lambda: m * 2, lambda: 2 * m):
        with pytest.raises(TypeError):
            op()


def test_forward_elimination_has_the_pivots_of_the_full_pass():
    # determinant and rank stop at forward elimination: the pivot columns,
    # the last pivot and the swap sign must be those of the full pass, on
    # square, wide and tall matrices, singular ones and ones with a
    # pivotless column among them
    rng = random.Random(34)
    for _ in range(300):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(c)]
                for _ in range(r)]
        if rng.random() < 0.3:  # a dependent row
            rows.append([x - y for x, y in zip(rows[0], rows[-1])])
        full, forward = [list(x) for x in rows], [list(x) for x in rows]
        assert (_gauss_jordan(forward, c, forward=True)
                == _gauss_jordan(full, c)), rows
        assert rank(IntMatrix.from_rows(rows)) == len(_gauss_jordan(
            [list(x) for x in rows], c)[0])
        if len(rows) == c:
            assert determinant(IntMatrix.from_rows(rows)) == _leibniz(rows)


def _leibniz(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total
