"""Exact integer and rational helpers the benchmark uses to make inputs and
check outputs.

They are written independently of the library under test, so a check never
trusts the code it is checking.  Inputs are small (at most 21 x 7), so plain
Gaussian elimination over Fractions is fast enough.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations


def transpose(rows):
    return [list(c) for c in zip(*rows)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(r, c)) for c in bt] for r in a]


def det(rows):
    """Exact determinant by Fraction elimination (the 0 x 0 determinant is 1)."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return int(out)


def gram_det(rows):
    """det(A^T A): the number of bases of the system A (Cauchy-Binet)."""
    return det(matmul(transpose(rows), rows))


def first_base(rows):
    """Indices of the first maximal linearly independent subset of rows."""
    echelon = []  # (pivot column, row) pairs, each row reduced against the earlier
    picked = []
    for i, r in enumerate(rows):
        v = [Fraction(x) for x in r]
        for col, e in echelon:
            if v[col]:
                f = v[col] / e[col]
                v = [x - f * y for x, y in zip(v, e)]
        col = next((j for j, x in enumerate(v) if x), None)
        if col is not None:
            echelon.append((col, v))
            picked.append(i)
    return picked


def inverse(rows):
    """Inverse of a nonsingular square matrix, as lists of Fractions."""
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k])
        m[k], m[piv] = m[piv], m[k]
        p = m[k][k]
        m[k] = [x / p for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [r[n:] for r in m]


def expand(rows):
    """Rows re-expanded over their first base: (base indices, rational rows)."""
    base = first_base(rows)
    return base, matmul(rows, inverse([rows[i] for i in base]))


def standard_form(rows):
    """The standard form of a unimodular presentation, as integer rows."""
    base, std = expand(rows)
    if any(x.denominator != 1 for r in std for x in r):
        raise ValueError("rows are not integral over their first base")
    return base, [[int(x) for x in r] for r in std]


def first_bad_minor(rows):
    """First square minor outside {0, 1, -1}: sizes ascending, then row sets
    and column sets in lexicographic order.  None if there is none."""
    nrows, ncols = len(rows), len(rows[0])
    for k in range(1, min(nrows, ncols) + 1):
        for rs in combinations(range(nrows), k):
            for cs in combinations(range(ncols), k):
                d = det([[rows[i][j] for j in cs] for i in rs])
                if d not in (0, 1, -1):
                    return list(rs), list(cs), d
    return None


# ---------------------------------------------------------------------------
# graphs: vertices 1..vc, edges (tail, head), no loops


def kirchhoff(vc, edges):
    """Spanning-tree count: det of the Laplacian with vertex 1 deleted."""
    lap = [[0] * vc for _ in range(vc)]
    for t, h in edges:
        lap[t - 1][t - 1] += 1
        lap[h - 1][h - 1] += 1
        lap[t - 1][h - 1] -= 1
        lap[h - 1][t - 1] -= 1
    return det([r[1:] for r in lap[1:]])


def cographic_rows(vc, edges):
    """Cut-space presentation: row e is head minus tail over vertices 2..vc."""
    rows = []
    for t, h in edges:
        r = [0] * vc
        r[h - 1] += 1
        r[t - 1] -= 1
        rows.append(r[1:])
    return rows


def graphic_rows(vc, edges):
    """Cycle-space presentation over the fundamental cycles of a BFS tree.

    Column f is the cycle through non-tree edge f, oriented along f.  The
    graphs the benchmark builds have no bridges, so no row is zero.
    """
    parent = {1: None}  # vertex -> (edge index, parent vertex)
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for k, (t, h) in enumerate(edges):
            w = h if t == u else t if h == u else None
            if w is not None and w not in parent:
                parent[w] = (k, u)
                queue.append(w)
    tree = {p[0] for p in parent.values() if p is not None}

    def path_to_root(v):  # edges with signs, walking from v up to the root
        out = []
        while parent[v] is not None:
            k, p = parent[v]
            out.append((k, 1 if edges[k][0] == v else -1))
            v = p
        return out

    cols = []
    for f, (t, h) in enumerate(edges):
        if f in tree:
            continue
        coeff = [0] * len(edges)
        coeff[f] = 1
        # close the cycle: h -> root along the tree, then root -> t
        for k, s in path_to_root(h):
            coeff[k] += s
        for k, s in path_to_root(t):
            coeff[k] -= s
        cols.append(coeff)
    return transpose(cols)
