"""Exact linear algebra over the integers.

Everything here works on arbitrary-precision Python ints; no floats anywhere.
The workhorse is one fraction-free Gauss-Jordan kernel that skips
pivotless columns: determinants and minors are its last pivot, rank its
pivot count, the adjugate runs it on [M | I], and systems standardizes
with it on the transposed input.  Beside it are a row Hermite normal form
with unimodular transform (for *saturated* integer kernels and canonical
bases), adjugate-based unimodular solves, and a streaming minor
enumerator.  All outputs are deterministic; kernel bases are canonicalized
to a unique Hermite-reduced form with positive leading entries.
"""

from __future__ import annotations

from itertools import chain, combinations
from operator import mul
from typing import NamedTuple

from .errors import DimensionError, PreconditionError


class IntMatrix(NamedTuple):
    """Immutable integer matrix, entries stored row-major in one flat tuple.
    m[i, j] is an entry; + and * raise TypeError (no tuple arithmetic)."""

    rows: int
    cols: int
    entries: tuple

    @classmethod
    def from_rows(cls, rows):
        """Build from an iterable of row iterables.

        Rows must be of equal length (DimensionError) and hold plain ints
        (PreconditionError otherwise, so 1.7 or True is never read as 1).
        """
        rows = [tuple(r) for r in rows]
        entries = tuple(chain.from_iterable(rows))
        if not set(map(type, entries)) <= {int}:
            i, r = next((i, r) for i, r in enumerate(rows)
                        if not set(map(type, r)) <= {int})
            raise PreconditionError(f"row {i} {r} has a non-integer entry")
        c = len(rows[0]) if rows else 0
        if not set(map(len, rows)) <= {c}:
            raise DimensionError("ragged rows")
        return cls(len(rows), c, entries)

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, r, c):
        return cls(r, c, (0,) * (r * c))

    def row(self, i):
        c = self.cols
        return self.entries[i * c:(i + 1) * c]

    def col(self, j):
        return self.entries[j::self.cols]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row_list(self):
        return [self.row(i) for i in range(self.rows)]

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         tuple(chain.from_iterable(map(self.col, range(self.cols)))))

    def submatrix(self, row_idx, col_idx):
        row_idx = tuple(row_idx)
        col_idx = tuple(col_idx)
        return IntMatrix(len(row_idx), len(col_idx),
                         tuple(row[j] for row in map(self.row, row_idx)
                               for j in col_idx))

    def take_rows(self, row_idx):
        row_idx = tuple(row_idx)
        if not all(0 <= i < self.rows for i in row_idx):
            raise DimensionError(f"row index out of range in {row_idx}")
        return IntMatrix(len(row_idx), self.cols,
                         tuple(chain.from_iterable(map(self.row, row_idx))))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ocols = other.cols
        orows = other.row_list()
        out = []
        for i in range(self.rows):
            a = self.row(i)
            acc = [0] * ocols
            for k, aik in enumerate(a):
                if aik:
                    brow = orows[k]
                    for j in range(ocols):
                        acc[j] += aik * brow[j]
            out.extend(acc)
        return IntMatrix(self.rows, ocols, tuple(out))

    def __add__(self, other):
        return NotImplemented

    __mul__ = __rmul__ = __add__

    def __neg__(self):
        return IntMatrix(self.rows, self.cols, tuple(-x for x in self.entries))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_lists()})"


def matvec(m, v):
    """m @ v for a plain tuple/list vector; returns a tuple."""
    v = tuple(v)
    if m.cols != len(v):
        raise DimensionError("matvec shape mismatch")
    return tuple(sum(map(mul, row, v)) for row in m.row_list())


def vecmat(v, m):
    """v @ m (row vector times matrix); returns a tuple."""
    v = tuple(v)
    if m.rows != len(v):
        raise DimensionError("vecmat shape mismatch")
    return tuple(sum(map(mul, v, m.col(j))) for j in range(m.cols))


def dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


# ---------------------------------------------------------------------------
# determinant


def determinant(m):
    """Exact determinant of a square IntMatrix (0x0 gives 1), see _det."""
    if m.rows != m.cols:
        raise DimensionError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    return _det(m.row_list())


# ---------------------------------------------------------------------------
# Hermite form, rank, kernels


def _addmul_row(mat, i, j, q):
    """mat[i] += q * mat[j] in place."""
    ri, rj = mat[i], mat[j]
    for t in range(len(ri)):
        ri[t] += q * rj[t]


def hermite_form(m, transform=False):
    """Row Hermite normal form.

    Returns (h, u, rank) where h is the canonical upper-echelon form of m
    (positive pivots, entries above each pivot reduced into [0, pivot),
    zero rows at the bottom) and, when ``transform`` is set, u is a
    unimodular matrix with u @ m == h.  The nonzero rows of h are the
    canonical basis of the group generated by the rows of m.
    """
    r, c = m.rows, m.cols
    h = m.to_lists()
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)] if transform else None
    piv = 0
    for col in range(c):
        if piv == r:
            break
        while True:
            nz = [i for i in range(piv, r) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][col]), i))
            if i0 != piv:
                h[piv], h[i0] = h[i0], h[piv]
                if u is not None:
                    u[piv], u[i0] = u[i0], u[piv]
            if h[piv][col] < 0:
                h[piv] = [-x for x in h[piv]]
                if u is not None:
                    u[piv] = [-x for x in u[piv]]
            p = h[piv][col]
            for i in range(piv + 1, r):
                if h[i][col] != 0:
                    q = h[i][col] // p
                    if q:
                        _addmul_row(h, i, piv, -q)
                        if u is not None:
                            _addmul_row(u, i, piv, -q)
            if all(h[i][col] == 0 for i in range(piv + 1, r)):
                break
        if piv < r and h[piv][col] != 0:
            p = h[piv][col]
            for i in range(piv):
                q = h[i][col] // p
                if q:
                    _addmul_row(h, i, piv, -q)
                    if u is not None:
                        _addmul_row(u, i, piv, -q)
            piv += 1
    hmat = IntMatrix.from_rows(h)
    umat = IntMatrix.from_rows(u) if transform else None
    return hmat, umat, piv


def rank(m):
    """Exact rank over Q (= rank over Z): the pivot count of _gauss_jordan."""
    return len(_gauss_jordan(m.row_list(), m.cols, forward=True)[0])


def kernel_basis(m):
    """Canonical basis of the saturated left kernel {z in Z^rows : z @ m = 0}.

    The rows of the unimodular transform that land on zero rows of the
    Hermite form span the kernel saturatedly; a second Hermite pass makes
    the output unique (leading entries positive, reduced echelon).
    Returns a tuple of integer tuples.
    """
    h, u, rk = hermite_form(m, transform=True)
    k = m.rows - rk
    if k == 0:
        return ()
    ker = u.take_rows(range(rk, m.rows))
    canon, _, crk = hermite_form(ker)
    assert crk == k, "kernel rows must be independent"
    return tuple(canon.row(i) for i in range(k))


# ---------------------------------------------------------------------------
# minors, adjugate, unimodular solve


def square_minors(m, k):
    """Stream all k x k minors in lexicographic (row-set, col-set) order."""
    if k < 1 or k > min(m.rows, m.cols):
        raise DimensionError(f"minor size {k} out of range for {m.rows}x{m.cols}")
    rows = m.row_list()
    for rs in combinations(range(m.rows), k):
        picked = [rows[i] for i in rs]
        for cs in combinations(range(m.cols), k):
            yield _det([[pr[j] for j in cs] for pr in picked])


def _gauss_jordan(a, width, forward=False):
    """Fraction-free Gauss-Jordan on the list of rows a, rewritten in place
    (each row is replaced, never changed, so rows may be tuples).

    Pivots are taken from columns 0..width-1, left to right; a column with
    no nonzero entry at or below the current row is skipped, and the pass
    stops once every row holds a pivot.  Step k makes the pivot column zero
    off row k: every other row becomes (p * row - row[j] * pivot row) /
    prev, p the pivot and prev the one before it; a row with row[j] = 0 is
    left as it is when p == prev.  Every entry is then, up to sign, a minor
    of the input (Sylvester's identity, Bareiss), so the division is exact,
    and every pivot column ends as d * e_k, d the last pivot.  Returns
    (pivot columns, d, sign of the row swaps); d is 1 when no column has a
    pivot.  With forward set only the rows below row k are rewritten
    (Bareiss's forward elimination): the rows at and below each pivot, and
    so the pivots, d and the sign, are those of the full pass, at about a
    third of its row operations, which is all a determinant or a rank needs.
    """
    pivots = []
    sign = 1
    prev = 1
    for j in range(width):
        k = len(pivots)
        if k == len(a):
            break
        piv = next((i for i in range(k, len(a)) if a[i][j]), None)
        if piv is None:
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        rk = a[k]
        p = rk[j]
        for i in range(k + 1 if forward else 0, len(a)):
            ri = a[i]
            f = ri[j]
            if i != k and (f or p != prev):
                a[i] = [(p * x - f * y) // prev for x, y in zip(ri, rk)]
        prev = p
        pivots.append(j)
    return pivots, prev, sign


def _det(rows):
    """det M for the rows of a square M: sign * d from _gauss_jordan, d the
    last pivot = det(PM) for the row swaps P, when all n columns get a pivot,
    and 0 otherwise."""
    n = len(rows)
    pivots, d, sign = _gauss_jordan(list(rows), n, forward=True)
    return sign * d if len(pivots) == n else 0


def _gauss_jordan_adjugate(rows):
    """adj(M) by fraction-free Gauss-Jordan on [M | I]; None if M is singular.

    M is singular when fewer than n pivots land in its n columns.  Otherwise
    the last pivot is det(PM) for the row swaps P, the left block ends as
    det(PM) * I and the right block as det(PM) * M^-1 = sign(P) * adj(M).
    """
    n = len(rows)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    pivots, _, sign = _gauss_jordan(a, n)
    if len(pivots) < n:
        return None
    return [[sign * x for x in r[n:]] for r in a]


def _cofactor_adjugate(rows):
    """adj(M) as the transposed matrix of n^2 cofactor determinants."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            out[j][i] = (-1) ** (i + j) * _det(sub)
    return out


def adjugate(m):
    """Adjugate matrix: m @ adjugate(m) == adjugate(m) @ m == det(m) * I.

    A nonsingular m takes one pass of the shared fraction-free Gauss-Jordan
    kernel (_gauss_jordan) over [m | I], O(n^3); a singular one, found by
    fewer than n pivots in m's columns, falls back to its n^2 cofactor
    determinants.
    """
    if m.rows != m.cols:
        raise DimensionError("adjugate of non-square matrix")
    rows = m.row_list()
    out = _gauss_jordan_adjugate(rows)
    return IntMatrix(m.rows, m.cols, tuple(chain.from_iterable(
        out if out is not None else _cofactor_adjugate(rows))))


def solve_unimodular(b, v):
    """For |det(b)| = 1, the unique integer x with sum_i x_i * row_i(b) = v."""
    if b.rows != b.cols:
        raise DimensionError("solve_unimodular needs a square matrix")
    d = determinant(b)
    if d not in (1, -1):
        raise PreconditionError(f"matrix determinant is {d}, not +-1")
    num = vecmat(v, adjugate(b))
    return tuple(x * d for x in num)  # divide by d = multiply, since d is +-1
