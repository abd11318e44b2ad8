"""Unimodular systems of integer linear forms.

A system is stored as an N x n integer matrix whose rows are the forms
written in the coordinates of a distinguished base: the first (in row order)
maximal linearly independent subset of the input rows.  Construction finds
that base and re-expands every row over it in a single fraction-free
Gauss-Jordan pass over the transposed input (Bareiss).  Every entry the
pass holds is, up to sign, a minor of the input, so each of its divisions
is exact; its last pivot d = +-det B then divides the column of a row
exactly when the row is an integer combination of the base rows, as every
row of a unimodular system is.  Construction then certifies total
unimodularity (every square minor in {0, 1, -1}), which is equivalent to
all maximal independent row subsets generating the same group.
Certification looks only at the tail block T (the non-base rows), by
Ghouila-Houri's theorem: T is totally unimodular exactly when every subset
of its lines has a +-1 signing whose sum lies in {0, +-1}^m.  One pass over
the 2^s subsets of the s lines on T's shorter side settles them all, each
from a smaller one by two bitmask ANDs, so it costs about 2^s steps however
many bases there are.  On a T with more subsets than entries, lines with at
most one nonzero entry and lines parallel to an earlier one are deleted
first, which keeps the verdict (a minor through a unit line expands to a
smaller minor, and a minor through two parallel lines is 0), and the pass
runs on each connected block of the rest.  A subset with no balanced
signing shows that T holds a bad minor of at most its size; the minors of
T, expanded line by line from those of each line set's prefix, are then
walked up to that size, and the first bad minor in the order of a scan
over every square minor is the witness.  The pass and the walk share one
work budget of DEFAULT_CAP units (2^s per block of s lines, one per node
of an exact search, one per minor walked), and CapError refuses an input
that would run past it before a block's table of 2^s sums is allocated.
Certification runs on raw matrix input only.  Total unimodularity
survives transposition, submatrices and block sums, so Gale duals,
unit-free cores and direct sums of certified systems skip it, graph
systems check a spanning-tree certificate instead (see graphs), and the
catalog's systems are constants the tests certify (see catalog).  Only
raw input, Gale duals and the catalog's 0/1 Bixby-Seymour presentation
go through the elimination.  Direct sums, unit-free cores, graph systems
and the other catalog systems are written straight in the standard form
it would give them, because their first maximal independent rows are
known: the operands' bases, block after block; the base left once the
unit rows (coloops) are deleted; the first spanning tree in edge order,
or the complement of the first one in reverse edge order; the first n
rows of a catalog constant.

Operations: complexity (= number of bases = det of the Gram matrix, on the
short side), base enumeration by the same walk over the nonzero tail minors
as the witness, also on the shorter side (they are in bijection with the
bases), direct sums, splitting off unit summands, Gale duality, and signed
isomorphism search with exact invariant pruning.  Automorphisms are counted
down a stabilizer chain: the orbit of each base row under the symmetries
that fix the earlier base rows, closed under the symmetries already found,
with one witness search per image that none of them reaches, times the
permutations of tail rows equal up to sign that remain once every base row
is fixed.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product
from math import factorial, prod
from operator import mul, neg
from typing import NamedTuple

from .errors import (CapError, DimensionError, NotUnimodularError,
                     PreconditionError, RankError)
from .intlinalg import IntMatrix, _det, _gauss_jordan, adjugate, determinant, vecmat

DEFAULT_CAP = 10**6  # work budget of each exponential core, in its own units


class UnimodularSystem(NamedTuple):
    """An N-row, rank-n unimodular system in standard (base-expanded) form.

    a_matrix rows are the forms; the rows indexed by base_rows are exactly
    the n unit vectors, in order.  labels carry optional per-row provenance
    (e.g. edge names) and do not participate in equality or hashing.
    """

    n: int
    a_matrix: IntMatrix
    base_rows: tuple
    labels: tuple | None = None

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self[:3] == other[:3]

    def __ne__(self, other):  # tuple's own __ne__ would compare the labels
        return not self == other

    def __hash__(self):
        return hash(self[:3])

    @property
    def N(self):
        return self.a_matrix.rows

    def row(self, i):
        return self.a_matrix.row(i)

    def tail_rows(self):
        """Row indices not in the base, in ascending order."""
        base = set(self.base_rows)
        return tuple(i for i in range(self.N) if i not in base)

    def label(self, i):
        return self.labels[i] if self.labels is not None else f"r{i}"

    def __repr__(self):
        return (f"UnimodularSystem(N={self.N}, n={self.n}, "
                f"base_rows={self.base_rows})")


EMPTY_SYSTEM = UnimodularSystem(n=0, a_matrix=IntMatrix(0, 0, ()), base_rows=())


def _normalize_row(row):
    """Flip the sign so the first nonzero entry is positive (for comparisons)."""
    for x in row:
        if x > 0:
            return row
        if x < 0:
            return tuple(-y for y in row)
    return row


def _tail_block(m, base):
    """The tail row indices of m (those not in base) and the tail rows."""
    skip = set(base)
    tail = [i for i in range(m.rows) if i not in skip]
    rows = m.row_list()
    return tail, [rows[i] for i in tail]


def _tail_minors(lines, visit, limit):
    """Walk the nonzero square minors of a block given by its lines.

    The lines are the rows of the tail block T, or its columns (the rows of
    T^t, whose minors are those of T).  The walk goes depth first over
    ascending tuples of line positions; the preorder meets the line sets of
    each size lexicographically.  Each line set holds its nonzero minors
    keyed by a bitmask over the positions within a line.  Extending it by
    a line gives every larger minor by Laplace expansion along that (last)
    line, O(k) per minor instead of an elimination.  A line set whose
    minors are all 0 has only zero extensions and is skipped.
    visit(line_set, minors) is called on every other line set and returns
    the largest line-set size the walk still enters, so it decides whether
    that line set grows and whether larger ones are met.  limit is that
    size before the first visit.
    """
    def walk(start, ls, minors):
        nonlocal limit
        k = len(ls)
        for t in range(start, len(lines)):
            if k >= limit:
                return
            grown = {}
            for c, x in enumerate(lines[t]):
                if not x:
                    continue
                bit = 1 << c
                x = -x if k % 2 else x
                for cs, v in minors.items():
                    if not cs & bit:
                        # sign (-1)^(k+p), p = position of c in cs | bit
                        w = -x * v if (cs & (bit - 1)).bit_count() % 2 else x * v
                        grown[cs | bit] = grown.get(cs | bit, 0) + w
            grown = {cs: v for cs, v in grown.items() if v}
            if grown:
                grown_ls = (*ls, t)
                limit = visit(grown_ls, grown)
                walk(t + 1, grown_ls, grown)

    walk(0, (), {0: 1})


def _walk_witness(tail, t, width, limit, spend):
    """First bad minor of the tail block T, by the minor walk.

    tail holds T's row indices in m, width is its column count and limit
    is a size that some bad minor of T does not exceed.  T is walked along
    its rows, in the full scan's order of row sets, up to limit rows.  A
    row set with a bad minor is not extended, and once a bad minor of size
    k is found, only smaller sizes are searched, so a later find is
    strictly smaller and replaces it.  Extended row sets thus hold only
    0/+-1 minors.  Each row set met is charged its number of nonzero
    minors: spend(units).
    """
    best = None

    def visit(rs, minors):
        nonlocal best
        spend(len(minors))
        if not set(minors.values()) <= {1, -1}:
            bad = [(tuple(c for c in range(width) if cs >> c & 1), v)
                   for cs, v in minors.items() if v not in (1, -1)]
            best = (tuple(tail[q] for q in rs), *min(bad))
        return limit if best is None else len(best[0]) - 1

    _tail_minors(t, visit, limit)
    return best


def _kept_lines(lines):
    """Indices of the lines with two nonzero entries or more that are not
    parallel (equal up to sign) to an earlier kept line; lines holds
    (index, entries) pairs."""
    seen = set()
    kept = []
    for i, line in lines:
        key = _normalize_row(line)
        if len(line) - line.count(0) > 1 and key not in seen:
            seen.add(key)
            kept.append(i)
    return kept


def _forest(vertex_count, edges, order):
    """(forest, find): Kruskal over the edge indices in order.

    An edge joins the forest when it joins two of its components, and the
    pass stops at vertex_count - 1 edges, a spanning tree.  Vertices are
    1..vertex_count; find maps one to the representative of its component.
    The graph systems pick their tree with it (see graphs), and
    _reduced_blocks splits a block into its connected parts.
    """
    parent = list(range(vertex_count + 1))
    size = vertex_count - 1
    forest = []
    for k in order:
        if len(forest) == size:
            break
        t, h = edges[k]
        while parent[t] != t:
            parent[t] = t = parent[parent[t]]
        while parent[h] != h:
            parent[h] = h = parent[parent[h]]
        if t != h:
            parent[h] = t
            forest.append(k)

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    return forest, find


def _reduced_blocks(t):
    """The connected blocks of a 0/+-1 block T, reduced: (rows, cols) pairs.

    Lines (rows and columns) with at most one nonzero entry, and lines
    parallel up to sign to an earlier line, are deleted on both sides until
    none are left.  Neither deletion changes whether T is totally
    unimodular: a minor through a unit line expands along it to +- a
    smaller minor without it (or is 0), and a minor through two parallel
    lines is 0, while one through the later line alone is +- one through
    the earlier.  The rest splits into the connected components of its
    support (_forest over the nonzero entries, with rows as nodes 1..R and
    columns as nodes R+1..R+C); T is totally unimodular exactly when each
    block is, since a square minor of a block sum is 0 or a product of
    block minors.  Each block lists its rows and columns ascending, as
    positions in T, and the blocks come in the order of their first rows.
    """
    r = len(t)
    width = len(t[0]) if t else 0
    rows, cols = list(range(r)), list(range(width))
    while True:
        kept_rows = _kept_lines((i, tuple(t[i][j] for j in cols)) for i in rows)
        kept_cols = _kept_lines((j, tuple(t[i][j] for i in kept_rows))
                                for j in cols)
        if (kept_rows, kept_cols) == (rows, cols):
            break
        rows, cols = kept_rows, kept_cols
    edges = [(i + 1, r + 1 + j) for i in rows for j in cols if t[i][j]]
    _, find = _forest(r + width, edges, range(len(edges)))
    blocks = {}
    for i in rows:
        blocks.setdefault(find(i + 1), ([], []))[0].append(i)
    for j in cols:
        blocks[find(r + 1 + j)][1].append(j)
    return [(tuple(r), tuple(c)) for r, c in blocks.values()]


def _balanced_signing(lines, spend):
    """A +-1 signing of the 0/+-1 lines, the first line +1, whose sum lies
    in {0, +-1}^m, as the sum's bitmasks (plus, minus), or None if there is
    none; spend() is called on every node, one line signed.

    The search goes depth first over the lines in order, +1 before -1.  A
    coordinate may stray at most 1 + (its absolute sum over the later
    lines) and still come back into [-1, 1], so a branch is cut as soon as
    one strays further; after the last line that bound is 1, so a leaf is
    a balanced signing.  Negating a whole signing negates its sum, so the
    first line's sign is fixed.
    """
    rest = [0] * len(lines[0])
    steps = [()] * len(lines)  # per line: (coordinate, entry, bound)
    for k in range(len(lines) - 1, -1, -1):
        support = [(i, x, 1 + rest[i]) for i, x in enumerate(lines[k]) if x]
        for i, _, _ in support:
            rest[i] += 1
        steps[k] = support
    w = [0] * len(rest)

    def search(k):
        if k == len(lines):
            return True
        for sign in (1, -1) if k else (1,):
            spend()
            inside = True
            for i, x, b in steps[k]:
                v = w[i] = w[i] + sign * x
                if v > b or v < -b:
                    inside = False
            if inside and search(k + 1):
                return True
            for i, x, _ in steps[k]:
                w[i] -= sign * x
        return False

    if not search(0):
        return None
    return (sum(1 << i for i, v in enumerate(w) if v > 0),
            sum(1 << i for i, v in enumerate(w) if v < 0))


def _extend(kept, line):
    """kept + line or kept - line, + first, if one lies in {0, +-1}^m, else
    None; both are pairs of bitmasks over the m coordinates, of the +1 and
    of the -1 entries.  A sum leaves the box exactly where a +1 meets a +1
    or a -1 meets a -1, two ANDs; elsewhere the masks give the new sum."""
    p, m = kept
    lp, lm = line
    if not (p & lp or m & lm):
        return p & ~lm | lp & ~m, m & ~lp | lm & ~p
    if not (p & lm or m & lp):
        return p & ~lp | lm & ~m, m & ~lm | lp & ~p
    return None


def _subset_pass(lines, spend):
    """None if every subset of the 0/+-1 lines has a balanced signing (a
    +-1 signing whose sum lies in {0, +-1}^m), otherwise the size of a
    subset that has none.

    Each subset S keeps the sum of one balanced signing, its two bitmasks
    (_extend) at index S of the flat lists plus and minus (no tuple per
    subset), read off the sums kept for smaller subsets: for k in S,
    lowest first, the kept sum of S - {k} plus or minus line k.  The
    subsets are settled by their lowest line k, from the last line to the
    first, and within that in increasing bitmask order, so every S - {k'}
    a try reads is settled before S.  A subset where no k and no sign fits
    goes to the exact search _balanced_signing over its own lines, whose
    sum is kept if it finds one.  So every kept sum is that of a balanced
    signing.  spend is passed on to the exact search.
    """
    s = len(lines)
    signed = [(sum(1 << i for i, x in enumerate(l) if x > 0),
               sum(1 << i for i, x in enumerate(l) if x < 0)) for l in lines]
    plus = [0] * (1 << s)
    minus = [0] * (1 << s)
    for low in range(s - 1, -1, -1):
        bit = 1 << low
        lp, lm = signed[low]
        for prev in range(0, 1 << s, bit << 1):
            subset = prev | bit
            p, m = plus[prev], minus[prev]
            # _extend of the kept sum of prev by signed[low], inlined: nearly
            # every subset is settled here
            if not (p & lp or m & lm):
                plus[subset], minus[subset] = p & ~lm | lp & ~m, m & ~lp | lm & ~p
                continue
            if not (p & lm or m & lp):
                plus[subset], minus[subset] = p & ~lp | lm & ~m, m & ~lm | lp & ~p
                continue
            for k in range(low + 1, s):
                if subset >> k & 1:
                    rest = subset ^ 1 << k
                    found = _extend((plus[rest], minus[rest]), signed[k])
                    if found is not None:
                        break
            else:
                found = _balanced_signing(
                    [lines[k] for k in range(s) if subset >> k & 1], spend)
                if found is None:
                    return subset.bit_count()
            plus[subset], minus[subset] = found
    return None


def _bicolored(t, spend):
    """None if the 0/+-1 block T is totally unimodular, by Ghouila-Houri;
    otherwise the size of a line subset of T that has no balanced signing.

    A matrix is totally unimodular exactly when every subset of its rows
    (or of its columns) has a +-1 signing whose sum lies in {0, +-1}^m
    (Ghouila-Houri 1962; Schrijver, Theory of Linear and Integer
    Programming, Thm 19.3).  _subset_pass settles every subset of the lines
    on the short side of T itself when 2^s - 1 <= rows * cols of T, and
    otherwise of each block of _reduced_blocks, whose deletions and split
    cost more than the pass over a small T.  A pass over every block is a
    certificate.  A subset with no balanced signing refutes T: the
    submatrix on its lines is not totally unimodular, so T holds a bad
    minor of at most its size.  A block of s lines is charged 2^s units
    before its pass allocates its table of 2^s sums, and each node of an
    exact search one more: spend(units).
    """
    if not t:
        return None
    r, c = len(t), len(t[0])
    if (1 << min(r, c)) - 1 <= r * c:
        blocks = [t]
    else:
        blocks = [[[t[i][j] for j in cols] for i in rows]
                  for rows, cols in _reduced_blocks(t)]
    for block in blocks:
        lines = block if len(block) <= len(block[0]) else list(zip(*block))
        spend(1 << len(lines))
        size = _subset_pass(lines, spend)
        if size is not None:
            return size
    return None


def _tu_witness(m, base):
    """First square minor outside {0,1,-1}: (row_set, col_set, value) or None.

    The order is that of a full scan of m: sizes small to large, then row
    sets, then column sets, each lexicographic.  A minor through base row
    e_p is 0 when p is not among its columns and otherwise +- the smaller
    minor without that row and column.  So every bad minor of the smallest
    bad size uses tail rows only, and only the tail block T is examined,
    in three steps.  (1) An entry outside {0, +-1}: the first one, in row
    order, is the witness.  This comes first, as the Ghouila-Houri test
    holds for 0/+-1 entries only.  (2) The Ghouila-Houri pass (_bicolored)
    over the subsets of the short side of T, or of its reduced blocks:
    2^s_b units per block of s_b lines plus the nodes of its exact
    searches.  Its cost does not grow with the number of bases.  A pass
    certifies T.  (3) A refutation names a line subset of some size k with
    no balanced signing, so T holds a bad minor of size at most k: the rows
    of T are walked (_walk_witness) over row sets of at most k rows, which
    names the first bad minor, at one unit per nonzero minor met.  Steps
    (2) and (3) share one budget of DEFAULT_CAP units, read at each call:
    CapError once they would run past it, before a pass allocates its
    table.
    """
    tail, t = _tail_block(m, base)
    for q, row in enumerate(t):
        for c, x in enumerate(row):
            if x not in (0, 1, -1):
                return (tail[q],), (c,), x
    cap, spent = DEFAULT_CAP, 0

    def spend(units=1):
        nonlocal spent
        spent += units
        if spent > cap:
            raise CapError(f"certification exceeds cap {cap} units")

    size = _bicolored(t, spend)
    if size is None:
        return None
    return _walk_witness(tail, t, m.cols, size, spend)


def check_labels(labels, count):
    """Row labels as a tuple of count strings, each one nonempty word.

    Labels are written as a single "# labels:" comment line and read back
    by splitting it on whitespace, so an empty label or one containing
    whitespace would not survive the round trip.  Nothing is converted: a
    label that is not a str, or one str given as the whole sequence, is a
    PreconditionError.
    """
    if isinstance(labels, str):
        raise PreconditionError(f"labels {labels!r} is one string, not a sequence")
    labels = tuple(labels)
    if len(labels) != count:
        raise PreconditionError("labels length must match the row count")
    for x in labels:
        if not isinstance(x, str):
            raise PreconditionError(f"label {x!r} is not a string")
        if x.split() != [x]:
            raise PreconditionError(
                f"label {x!r} is empty or contains whitespace")
    return labels


def _standardize(raw, labels=None):
    """The standard form of integer row data, without certifying it TU.

    One fraction-free Gauss-Jordan pass over the n x N matrix A^T, columns
    left to right, does the whole job (intlinalg._gauss_jordan).  Its pivot
    columns are the rows of the first maximal independent row subset B, in
    row order.  The pass turns A^T into d * (A B^-1)^T, d the last pivot
    (+-det B), so column i divided by d is row i of the standard form, and
    base row k comes out as e_k.  Every entry the pass holds is, up to
    sign, a minor of A (Bareiss), so its own divisions are exact.  Column i
    holds d times the coefficients of row i over B (Cramer's rule), so d
    divides it exactly when row i is an integer combination of the base
    rows.  A row for which it does not lies outside the group generated by
    the base, so the maximal subsets generate different groups and the
    input is rejected.  When d is +-1, as for every totally unimodular
    input, it divides everything, and the columns are read off as they
    are (or negated).  Raw rows must hold plain integers (PreconditionError
    otherwise, so 1.7 or True is never read as 1).  The 0 x 0 matrix gives
    EMPTY_SYSTEM, the Gale dual of a pure unit block, so that a written
    dual reads back; rows of width 0 are refused.  Three callers:
    from_matrix, which scans the result; gale_dual, whose result is totally
    unimodular; and the catalog's 0/1 Bixby-Seymour presentation, whose
    standard form the tests certify.  The systems derived otherwise
    (direct_sum, the split_upsilon core, graphs.graphic_system and
    graphs.cographic_system) are written straight in the form this pass
    would give them, over the same base: each knows its first maximal
    independent rows in row order.
    """
    m = raw if isinstance(raw, IntMatrix) else IntMatrix.from_rows(raw)
    N, n = m.rows, m.cols
    if n < 1 and N:
        raise PreconditionError("a system needs at least one coordinate")
    if N < n:
        raise RankError(f"only {N} rows cannot have rank {n}")
    rows = list(zip(*[iter(m.entries)] * n))
    if not all(map(any, rows)):
        i = next(i for i, row in enumerate(rows) if not any(row))
        raise NotUnimodularError(f"row {i} is the zero form", rows=(i,))
    a = list(zip(*rows))
    base, d, _ = _gauss_jordan(a, N)
    if len(base) < n:
        raise RankError(f"matrix rank {len(base)} is below the column count {n}")
    out = chain.from_iterable(zip(*a))  # d times the standard form
    if d == -1:
        out = map(neg, out)
    elif d != 1:
        for i, col in enumerate(zip(*a)):
            if any(x % d for x in col):
                raise NotUnimodularError(
                    f"row {i} is not an integer combination of the base rows "
                    f"{tuple(base)}: the maximal independent subsets generate "
                    f"different groups", rows=(*base, i))
        out = (x // d for x in out)
    if labels is not None:
        labels = check_labels(labels, N)
    return UnimodularSystem(n=n, a_matrix=IntMatrix(N, n, tuple(out)),
                            base_rows=tuple(base), labels=labels)


def from_matrix(raw, labels=None):
    """Construct and fully verify a unimodular system from integer row data.

    The rows are put in standard form (see _standardize), whose tail block
    is then certified totally unimodular (see _tu_witness) by
    Ghouila-Houri's theorem (every subset of lines has a +-1 signing
    summing into {0, +-1}^m): one pass over the 2^s subsets of the s lines
    on its shorter side, or on that of each block left once unit and
    parallel lines are deleted.  A rejection walks the tail's minors up to
    the size of a subset the pass refutes.  Pass and walk share a budget
    of DEFAULT_CAP units (see _tu_witness); past it, CapError, raised
    before a pass allocates a table larger than the budget.  The witness
    is the first offending minor in the order of a scan over every square
    minor (size, then rows, then columns).  The check is for raw input:
    systems the library derives from certified ones (graph systems, Gale
    duals, cores, direct sums) are totally unimodular by construction and
    skip it, as do the catalog's systems.  Scalar presentations collapse:
    [[2]] is accepted as the unit system, since the single row is a base
    of the group it generates.
    A non-TU input is rejected before its labels are checked.  An IntMatrix
    is held to what IntMatrix.from_rows demands of rows: plain int entries
    (PreconditionError) and rows x cols of them (DimensionError).
    """
    if isinstance(raw, IntMatrix):
        if not set(map(type, raw.entries)) <= {int}:
            raise PreconditionError(f"matrix {raw} has a non-integer entry")
        if len(raw.entries) != raw.rows * raw.cols:
            raise DimensionError(f"a {raw.rows} x {raw.cols} matrix cannot"
                                 f" hold {len(raw.entries)} entries")
    sys = _standardize(raw)
    witness = _tu_witness(sys.a_matrix, sys.base_rows)
    if witness is not None:
        rs, cs, val = witness
        raise NotUnimodularError(
            f"minor on rows {rs}, columns {cs} equals {val}",
            rows=rs, cols=cs, value=val)
    if labels is None:
        return sys
    return sys._replace(labels=check_labels(labels, sys.N))


# ---------------------------------------------------------------------------
# complexity and bases


@lru_cache
def gram_matrix(sys):
    """Gram matrix A^T A of the stored form matrix."""
    return sys.a_matrix.transpose() @ sys.a_matrix


@lru_cache
def complexity(sys):
    """Number of bases, det A^T A (Cauchy-Binet).  In standard form that is
    det(I + T^T T) = det(I + T T^T) (Sylvester; the Gale dual's Gram matrix),
    T the tail block, so it is taken as det(I + L L^T) of size min(n, N - n):
    L the rows of T when T has fewer rows than columns, else its columns."""
    _, t = _tail_block(sys.a_matrix, sys.base_rows)
    lines = t if len(t) < sys.n else list(zip(*t))
    return _det([[(i == j) + sum(map(mul, u, v)) for j, v in enumerate(lines)]
                 for i, u in enumerate(lines)])


def _picker(items):
    """mask -> tuple of the items at the set bits of mask, memoized: the
    masks of the minors a walk meets recur many times."""
    memo = {}

    def pick(mask):
        got = memo.get(mask)
        if got is None:
            got = memo[mask] = tuple(x for q, x in enumerate(items)
                                     if mask >> q & 1)
        return got

    return pick


def enumerate_bases(sys, cap=DEFAULT_CAP):
    """All bases as ascending row tuples, lexicographically ordered.

    Expanding a maximal minor of the standard form along its unit base rows
    leaves +- the minor of the tail rows R on the columns C of the base
    positions it lacks.  So the nonzero minors T[R, C] of the tail block T
    are in bijection with the bases: R plus the base rows at the positions
    outside C, the standard base itself for R empty (Cauchy-Binet counts
    them as det A^T A).  The bases are read off the walk of _tail_minors
    along the shorter side of T: its rows, or its columns when T has more
    rows than columns.  So the work grows with the number of bases, not
    with C(N, n).  CapError once more than cap bases have been found.
    """
    base = sys.base_rows
    tail, t = _tail_block(sys.a_matrix, base)
    tail_of, base_of = _picker(tail), _picker(base)
    full = (1 << sys.n) - 1
    bases = [tuple(base)]  # the standard base

    def found():
        if len(bases) > cap:
            raise CapError(f"base enumeration exceeds cap {cap} bases")
        return sys.n

    def visit_rows(rs, minors):
        rows = tuple(tail[q] for q in rs)
        bases.extend(rows + base_of(full ^ cs) for cs in minors)
        return found()

    def visit_cols(cs, minors):
        rest = base_of(full ^ sum(1 << p for p in cs))
        bases.extend(tail_of(rs) + rest for rs in minors)
        return found()

    found()
    if len(tail) > sys.n:
        _tail_minors(list(zip(*t)), visit_cols, sys.n)
    else:
        _tail_minors(t, visit_rows, sys.n)
    return sorted(tuple(sorted(b)) for b in bases)


@lru_cache
def form_pairing_matrix(sys):
    """Pairings of the forms in the metric the system induces on its span.

    Returns (P, d) with P = A adj(A^T A) A^T and d = det(A^T A): the matrix
    of inner products of the forms is P/d.  These pairings are invariant
    under signed isomorphism (up to the signs), unlike raw row dot products,
    and drive the isomorphism pruning and lattice.zonotope_witness, which
    reads a sign vector off P only when the zonotope verdict is "no"; the
    verdict itself is a count of multiplicity_classes.
    """
    a = sys.a_matrix
    return a @ adjugate(gram_matrix(sys)) @ a.transpose(), complexity(sys)


# ---------------------------------------------------------------------------
# direct sum and unit-summand splitting


def direct_sum(a, b):
    """Block direct sum; left operand's rows first, then the right's.

    The block diagonal of the operands' standard forms is itself a
    standard form, over a.base_rows followed by b.base_rows shifted by
    a.N.  That is the base _standardize would pick: no row of one block
    depends on rows of the other, so the first maximal independent rows
    of the sum are those of a, then those of b.  The operands are systems,
    which the library hands out only certified, and a block sum of
    totally unimodular matrices is totally unimodular, so the sum needs
    neither an elimination nor a rescan.
    """
    if a.N == 0:
        return b
    if b.N == 0:
        return a
    pad_a, pad_b = (0,) * b.n, (0,) * a.n
    entries = (*chain.from_iterable(r + pad_a for r in a.a_matrix.row_list()),
               *chain.from_iterable(pad_b + r for r in b.a_matrix.row_list()))
    labels = None
    if a.labels is not None or b.labels is not None:
        labels = tuple(a.label(i) for i in range(a.N)) + \
            tuple(b.label(i) for i in range(b.N))
    n = a.n + b.n
    return UnimodularSystem(
        n=n, a_matrix=IntMatrix(a.N + b.N, n, entries),
        base_rows=tuple(a.base_rows) + tuple(a.N + r for r in b.base_rows),
        labels=labels)


class UpsilonSplit(NamedTuple):
    """Result of splitting off all unit (one-form) summands."""

    core: UnimodularSystem
    s: int
    unit_rows: tuple  # row indices that carried a unit summand


def split_upsilon(sys):
    """Split sys into its unit-free core and s unit summands.

    A column of the standard form with a single nonzero entry is zero on
    every non-base row, so its base row is a unit vector of the lattice and
    splits off; deleting such rows/columns never creates new ones.  The
    core is the submatrix of the standard form without them, which is
    again a standard form: its base is the rest of sys's base, renumbered.
    That is the base _standardize would pick, because a unit row is a
    coloop (in every base) and deleting a coloop keeps the greedy base.  sys
    was certified when the library built it, and a submatrix of a totally
    unimodular matrix is totally unimodular, so the core needs neither an
    elimination nor a rescan.
    """
    if sys.N == 0:
        return UpsilonSplit(core=EMPTY_SYSTEM, s=0, unit_rows=())
    m = sys.a_matrix
    unit_cols = []
    for j in range(sys.n):
        if sum(1 for x in m.col(j) if x) == 1:
            unit_cols.append(j)
    if not unit_cols:
        return UpsilonSplit(core=sys, s=0, unit_rows=())
    drop_rows = {sys.base_rows[j] for j in unit_cols}
    keep_rows = [i for i in range(sys.N) if i not in drop_rows]
    keep_cols = [j for j in range(sys.n) if j not in unit_cols]
    if not keep_cols:
        return UpsilonSplit(core=EMPTY_SYSTEM, s=len(unit_cols),
                            unit_rows=tuple(sorted(drop_rows)))
    position = {r: i for i, r in enumerate(keep_rows)}
    labels = tuple(sys.label(i) for i in keep_rows) if sys.labels else None
    core = UnimodularSystem(
        n=len(keep_cols), a_matrix=m.submatrix(keep_rows, keep_cols),
        base_rows=tuple(position[sys.base_rows[j]] for j in keep_cols),
        labels=labels)
    return UpsilonSplit(core=core, s=len(unit_cols),
                        unit_rows=tuple(sorted(drop_rows)))


# ---------------------------------------------------------------------------
# Gale duality


def gale_dual(sys):
    """The dual system on the orthogonal complement of the span.

    With the system in standard form [E; T] (base rows E, tail rows T), the
    dual is presented by [T^t; -E] with rows interleaved back into original
    row positions, so row i of the dual corresponds to row i of sys.  Rows
    that vanish identically (exactly the unit-summand carriers) are dropped;
    dualizing twice therefore returns the unit-free core up to isomorphism.
    sys was certified when the library built it, and [T^t; -E] is totally
    unimodular when [E; T] is, so the dual is standardized without a
    rescan.
    """
    if sys.N == sys.n:  # pure unit block: complement is zero-dimensional
        return EMPTY_SYSTEM
    tail = sys.tail_rows()
    k = len(tail)
    pos_in_base = {r: p for p, r in enumerate(sys.base_rows)}
    pos_in_tail = {r: q for q, r in enumerate(tail)}
    rows = []
    kept = []
    for i in range(sys.N):
        if i in pos_in_base:
            p = pos_in_base[i]
            row = tuple(sys.row(t)[p] for t in tail)
        else:
            q = pos_in_tail[i]
            row = tuple(-1 if t == q else 0 for t in range(k))
        if any(row):
            rows.append(row)
            kept.append(i)
    labels = tuple(sys.label(i) for i in kept) if sys.labels else None
    return _standardize(IntMatrix.from_rows(rows), labels=labels)


# ---------------------------------------------------------------------------
# multiplicity classes


@lru_cache
def multiplicity_classes(sys):
    """Partition of row indices into classes of forms equal up to sign.

    Classes are ordered by smallest member; members ascend within a class.
    Memoized, since one report reads the classes of a system several times.
    """
    seen = {}
    for i in range(sys.N):
        seen.setdefault(_normalize_row(sys.row(i)), []).append(i)
    classes = sorted(seen.values(), key=lambda c: c[0])
    return tuple(tuple(c) for c in classes)


# ---------------------------------------------------------------------------
# signed isomorphism


class SignedCorrespondence(NamedTuple):
    """Witness of a signed isomorphism from system a to system b.

    row_map[i] is the b-row image of a-row i, signs[i] in {1,-1}, and
    base_change G satisfies signs[i] * (row_i(a) @ G) == row_{row_map[i]}(b)
    for every i, with |det G| = 1.
    """

    row_map: tuple
    signs: tuple
    base_change: IntMatrix

    def verify(self, a, b):
        if sorted(self.row_map) != list(range(b.N)) or a.N != b.N:
            return False
        g = self.base_change
        if determinant(g) not in (1, -1):
            return False
        for i in range(a.N):
            img = vecmat(a.row(i), g)
            if tuple(self.signs[i] * x for x in img) != b.row(self.row_map[i]):
                return False
        return True


def _iso_prefilter(a, b):
    """The first cheap invariant on which a and b differ, as (name, value
    for a, value for b), or None when they all agree.  In order: "shape"
    [N, n], "complexity", "profile" (the sorted sizes of the multiplicity
    classes) and "pairing_diagonal" (the sorted diagonal of P, see
    form_pairing_matrix; its d is the complexity, by then equal)."""
    invariants = (
        ("shape", lambda s: [s.N, s.n]),
        ("complexity", complexity),
        ("profile", lambda s: sorted(map(len, multiplicity_classes(s)))),
        ("pairing_diagonal",
         lambda s: sorted(p[i] for i, p in enumerate(_pairing_rows(s)))))
    for name, of in invariants:
        va, vb = of(a), of(b)
        if va != vb:
            return name, va, vb
    return None


@lru_cache
def _pairing_rows(sys):
    """The rows of P (form_pairing_matrix) as tuples, built once per system
    for the isomorphism search and the automorphism count."""
    return tuple(form_pairing_matrix(sys)[0].row_list())


def _pairing_test(a, b):
    """fits(images, t, eps): whether the signed b-row (t, eps) may image
    base row j = len(images) of a, after images = ((t_0, eps_0), ...) of
    the base rows before it.  The image must keep the exact pairing of
    the base row with itself and with each earlier base row (P/d, with the
    same d on both sides)."""
    pa, pb = _pairing_rows(a), _pairing_rows(b)
    ba = a.base_rows

    def fits(images, t, eps):
        aj = ba[len(images)]
        qa, qb = pa[aj], pb[t]
        return qb[t] == qa[aj] and all(
            qa[ba[i]] == s * eps * qb[u] for i, (u, s) in enumerate(images))

    return fits


def _correspondence_search(a, b, cap):
    """A function first(prefix=()): the first signed correspondence a -> b.

    first backtracks over signed images (t, eps) of a's base rows in b, row
    t ascending and eps = 1 before -1, and returns None if no assignment
    completes.  Assignments must preserve the exact form pairings (P/d
    matrices, _pairing_test), which prunes hard; a complete assignment
    forces the base change g.  Then each tail row of a, in order, takes the
    smallest free b-row equal to its image up to sign, and the first miss
    fails: the N - n tail rows meet N - n free rows (the targets are
    distinct), so all find one exactly when the two multisets agree.  g is
    unimodular without a test: a's base rows are unit vectors, so the
    pairing tests force adj(A^T A) = g adj(B^T B) g^T, and taking
    determinants with det A^T A = det B^T B > 0 (the prefilter compares the
    complexities; automorphisms compare a system with itself) gives
    det(g)^2 = 1.  prefix forces the images of the first len(prefix) base
    rows; each forced choice still has to pass the same tests.  Repeated
    searches share the tables (b's rows normalized, built once per pair;
    the pairings, once per system) and the budget: CapError once more than
    cap signed images (search nodes) have been assigned; first.nodes() is
    the number assigned so far.
    """
    n, N = a.n, a.N
    fits = _pairing_test(a, b)
    ba = a.base_rows
    rest_a = a.tail_rows()
    a_rows = a.a_matrix.row_list()
    b_rows = b.a_matrix.row_list()
    b_keys = [_normalize_row(r) for r in b_rows]
    every = [(t, eps) for t in range(N) for eps in (1, -1)]
    targets = [0] * n
    signs = [0] * n
    nodes = 0

    def complete():
        g = IntMatrix(n, n, tuple(signs[j] * x for j in range(n)
                                  for x in b_rows[targets[j]]))
        used = set(targets)
        free = {}
        for i in range(N):
            if i not in used:
                free.setdefault(b_keys[i], []).append(i)
        row_map = [None] * N
        sgn = [0] * N
        for j in range(n):
            row_map[ba[j]] = targets[j]
            sgn[ba[j]] = signs[j]
        # the first witness: smallest free b-row per a-row, ascending
        for i in rest_a:
            w = vecmat(a_rows[i], g)
            match = free.get(_normalize_row(w))
            if not match:
                return None
            t = match.pop(0)
            row_map[i] = t
            sgn[i] = 1 if b_rows[t] == w else -1
        return SignedCorrespondence(tuple(row_map), tuple(sgn), g)

    def first(prefix=(), j=0):
        nonlocal nodes
        if j == n:
            return complete()
        images = tuple(zip(targets[:j], signs[:j]))
        for t, eps in prefix[j:j + 1] if j < len(prefix) else every:
            if t in targets[:j] or not fits(images, t, eps):
                continue
            nodes += 1
            if nodes > cap:
                raise CapError(f"correspondence search exceeds cap {cap} nodes")
            targets[j] = t
            signs[j] = eps
            found = first(prefix, j + 1)
            if found is not None:
                return found
        return None

    first.nodes = lambda: nodes
    return first


def are_isomorphic(a, b, cap=DEFAULT_CAP, explain=False):
    """First signed correspondence a -> b in deterministic search order, or None.

    With explain=True the result is a pair (correspondence, witness).  The
    witness of a "yes" is None; that of a "no" is {"invariant": name,
    "a": value, "b": value} for the first invariant of _iso_prefilter that
    differs, or {"search_nodes": k} when they all agree and the search
    assigned k nodes without completing.
    """
    corr, witness = None, None
    if a.N == b.N == 0:  # otherwise the prefilter compares the sizes first
        corr = SignedCorrespondence((), (), IntMatrix(0, 0, ()))
    elif (differ := _iso_prefilter(a, b)) is not None:
        witness = dict(zip(("invariant", "a", "b"), differ))
    elif a.a_matrix == b.a_matrix:
        corr = SignedCorrespondence(tuple(range(a.N)), (1,) * a.N,
                                    IntMatrix.identity(a.n))
    else:
        first = _correspondence_search(a, b, cap)
        corr = first()
        if corr is None:
            witness = {"search_nodes": first.nodes()}
    return (corr, witness) if explain else corr


def _swap(u, v, s):
    """The symmetry exchanging rows u and v, where row v = s * row u, as a
    map of the signed rows it moves."""
    return {(u, 1): (v, s), (u, -1): (v, -s), (v, 1): (u, s), (v, -1): (u, -s)}


def _close(points, gens, into):
    """Add to the set into the orbit of points under the group gens generate.

    A point already in into is not followed further: the orbit of a finite
    group is the closure under its generators alone (an inverse is a power).
    """
    stack = [p for p in points if p not in into]
    into.update(stack)
    while stack:
        p = stack.pop()
        for g in gens:
            q = g.get(p, p)
            if q not in into:
                into.add(q)
                stack.append(q)


def automorphism_count(sys, cap=DEFAULT_CAP):
    """Number of signed self-correspondences (global flip included).

    The correspondences form a group acting on the signed rows: h maps
    (t, eps), the form eps * row t, to (pi(t), eps * sigma_t) when
    row t @ g = sigma_t * row pi(t).  It is counted down its stabilizer
    chain (Sims): |Aut| = |G_n| * prod_{j<n} |O_j|, where G_j fixes the base
    rows ba[0..j-1], each with sign 1, and O_j is the orbit of (ba[j], 1)
    under G_j.  An element of G_n fixes every base row, so its base change
    is the identity and it only permutes tail rows that are equal up to
    sign: |G_n| is the product of cnt! over those classes.

    Each O_j is built by closure under the symmetries already known, which
    all lie in G_j:
    - the swaps of adjacent members of each such class of tail rows, which
      lie in G_n, contained in every G_j;
    - the global flip (g = -I), at level 0 only: it lies in G_0 but moves
      (ba[0], 1), so in no later G_j;
    - every witness found so far.  The levels run from j = n - 1 down to 0,
      and a witness found at level j' fixes (ba[i], 1) for i < j', so it
      lies in G_j' and hence in G_j for every j <= j'.
    O_j starts as the closure of (ba[j], 1).  The candidates (t, eps) then
    come with t ascending and eps = 1 before -1.  One already in O_j or
    settled outside it is skipped, as is t in ba[:j] (G_j fixes those rows)
    and one that fails the search's own pairing test for the last forced
    image (_pairing_test), which every element of O_j passes.  Any other
    candidate costs one witness search with the prefix (ba[0], 1), ...,
    (ba[j-1], 1), (t, eps).  A witness becomes a generator, and O_j grows by
    its image and the closure of the new points.  A failure settles the
    closure of (t, eps) as outside O_j: were h(t, eps) in O_j for some h in
    G_j, (t, eps) would be too.  So only candidates that no known symmetry
    reaches are searched (Sims' orbit pruning, also nauty's), not one
    search per orbit element, and cap bounds the nodes of all of them.
    """
    if sys.N == 0:
        return 1
    N, ba, row = sys.N, sys.base_rows, sys.row
    classes = {}
    for i in sys.tail_rows():
        classes.setdefault(_normalize_row(row(i)), []).append(i)
    count = prod(factorial(len(c)) for c in classes.values())
    gens = [_swap(u, v, 1 if row(u) == row(v) else -1)
            for c in classes.values() for u, v in zip(c, c[1:])]
    first = _correspondence_search(sys, sys, cap)
    fits = _pairing_test(sys, sys)
    fixed = tuple((r, 1) for r in ba)
    for j in reversed(range(sys.n)):
        if j == 0:
            gens.append({(t, e): (t, -e) for t in range(N) for e in (1, -1)})
        prefix, pinned = fixed[:j], ba[:j]
        orbit, outside = set(), set()
        _close([(ba[j], 1)], gens, orbit)
        for t, eps in product(range(N), (1, -1)):
            c = (t, eps)
            if (c in orbit or c in outside or t in pinned
                    or not fits(prefix, t, eps)):
                continue
            w = first(prefix + (c,))
            if w is None:
                _close([c], gens, outside)
                continue
            g = {}
            for i, image in enumerate(zip(w.row_map, w.signs)):
                if image != (i, 1):
                    g[i, 1], g[i, -1] = image, (image[0], -image[1])
            gens.append(g)
            _close([g.get(p, p) for p in orbit], gens, orbit)
        count *= len(orbit)
    return count
