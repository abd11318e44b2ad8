"""The integral lattice and reflexive polytope attached to a system.

The span W of the form columns is embedded in Z^N so that coordinate i of a
point is the value the i-th form takes on it.  The lattice L = W cap Z^N is
generated by the columns of the standard-form matrix A (saturation comes from
total unimodularity), and the polytope D = {w in W : every |coordinate| <= 1}
is a reflexive lattice polytope: its inequalities are primitive, and total
unimodularity makes its vertices lattice points (Hoffman-Kruskal), so the
census below holds them all.  A point of D is a vertex when its active
forms have rank n, and that rank is taken over GF(2), valid because the
system is TU: every minor is 0 or +-1, so a minor is nonzero exactly when
it is odd.  That verdict (_is_vertex) reads only the support of the
point, so the report takes it once per support.

An exact census is a search over the base coordinates of the points: the
point search _box_points over the columns of A; the argument that it
meets every point of D is polytope_points'.  D is centrally symmetric, and
the module uses that once.  The search returns one of each +-pair of
nonzero points, those whose first nonzero base coordinate is 1.  The base
is the first maximal independent row set in row order, so that half is
the lexicographically positive one: polytope_points sorts it alone and
puts its negations, reversed, and the origin before it.  The vertices,
facet pairs and square histogram (_square_counts) are read off that half.
The census is also a complete certificate for lattice vectors of square
<= 3, all of which lie in D.

The report stores each fact once: a point is its vector w, a plain tuple
of ints (its square is N minus its count of zeros, its coefficients are w
at base_rows), a vertex is the vector of a point, a facet pair holds one
point count and one vertex count, each the count on either side (w -> -w
swaps them), and the square histogram is kept once.

The orthogonal shadow of the cube, Z = pi([-1,1]^N), is a zonotope in W that
always contains D (pi fixes every point of D).  zonotope_check decides
whether D equals Z by a closed form: exactly when the forms fall into n
classes of parallel forms, that is when D is a parallelepiped.  False is
an exact answer, not a failure of the computation, and zonotope_witness
names a sign vector that projects outside D, read off the projection
matrix scaled by a single common denominator (the discriminant) so that
it takes integer comparisons only.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache, partial
from itertools import chain, compress
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .errors import CapError, MembershipError, PreconditionError
from .fileio import Records
from .intlinalg import IntMatrix, hermite_form, kernel_basis, matvec
from .systems import (DEFAULT_CAP, UnimodularSystem, complexity,
                      form_pairing_matrix, gram_matrix, multiplicity_classes)


class LatticeModel(NamedTuple):
    """L = W cap Z^N presented by the generating columns and their Gram data."""

    system: UnimodularSystem
    basis_columns: IntMatrix   # N x n; columns generate L
    gram: IntMatrix            # pairwise products of the generating columns
    complement_basis: tuple    # saturated basis of {z in Z^N : z @ A = 0}

    @property
    def ambient_dim(self):
        return self.basis_columns.rows


def lattice_of(sys):
    """Lattice model of a system; the column basis is the stored matrix."""
    return LatticeModel(system=sys,
                        basis_columns=sys.a_matrix,
                        gram=gram_matrix(sys),
                        complement_basis=kernel_basis(sys.a_matrix))


def discriminant(lat):
    """det of the Gram matrix, which is the complexity of the system."""
    return complexity(lat.system)


# ---------------------------------------------------------------------------
# points


def _coefficients(sys, z):
    """Exact coordinates of a lattice point in the column basis.

    The base rows of the standard form are unit vectors, so the coordinates
    can be read off there; the remaining rows then verify membership.
    """
    c = tuple(z[i] for i in sys.base_rows)
    if matvec(sys.a_matrix, c) != tuple(z):
        raise MembershipError(f"{tuple(z)} is not in the lattice")
    return c


def _squares(sys, vectors):
    """The squares of the vectors, each N minus its count of zeros."""
    return [sys.N - w.count(0) for w in vectors]


def _box_points(cols, cap):
    """One of each +-pair of the nonzero points w = sum x_j cols[j], x in
    {-1,0,1}^n, that lie in the box [-1, 1]^m, for columns of length m
    whose entries are 0 or +-1: those whose first nonzero x_j is 1, in
    search order.  CapError once the whole count, 2 per pair found plus
    the origin, exceeds cap; a cap below 1 raises at once.

    The box is centrally symmetric, so -w is in it exactly when w is, and
    x = 0 gives the origin.  The leading x_j = 1 is chosen first, then the
    later coordinates depth first over j.  Choosing x_j moves w only on the
    support of column j; there a coordinate may stray at most 1 + (its
    absolute sum over the later columns) and still come back into [-1, 1],
    so a branch is cut as soon as one strays further.  After a coordinate's
    last column that bound is 1, so every leaf lies in the box.
    """
    n, n_rows = len(cols), len(cols[0]) if cols else 0
    half_cap = (cap - 1) // 2  # 2 h + 1 > cap exactly when h > half_cap
    if half_cap < 0:
        raise CapError(f"point search exceeds cap {cap} points")
    rest = [0] * n_rows
    steps = [()] * n  # per column: the moves of x_j = -1, 0, 1
    for j in range(n - 1, -1, -1):
        support = [(i, c, 1 + rest[i]) for i, c in enumerate(cols[j]) if c]
        for i, c, _ in support:
            rest[i] += abs(c)
        steps[j] = tuple(tuple((i, v * c, b) for i, c, b in support)
                         for v in (-1, 0, 1))
    w = [0] * n_rows
    out = []

    def visit(j):
        if j == n:
            out.append(tuple(w))
            if len(out) > half_cap:
                raise CapError(f"point search exceeds cap {cap} points")
            return
        for move in steps[j]:
            inside = True
            for i, d, b in move:
                t = w[i] + d
                w[i] = t
                if t > b or t < -b:
                    inside = False
            if inside:
                visit(j + 1)
            for i, d, _ in move:
                w[i] -= d

    # x_j is the first nonzero coordinate and is 1: w = cols[j] is in the box
    for j in range(n):
        lead = steps[j][2]
        for i, d, _ in lead:
            w[i] = d
        visit(j + 1)
        for i, _, _ in lead:
            w[i] = 0
    return out


def polytope_points(sys, cap=DEFAULT_CAP):
    """All lattice points of D as vectors, plain tuples of ints, sorted
    lexicographically: the negations of the half the point search over the
    columns of A returns (_box_points, under the same cap), the origin,
    then that half.  Only the half is sorted.

    The search is complete by the base-coordinate argument: a point of L
    is w = A x for one integer x, and the base rows of A are unit vectors,
    so x = w_B.  Every w in D thus has w_B in {-1,0,1}^n and w = A x, so
    searching x in {-1,0,1}^n with A x in the box [-1, 1]^N meets each
    point of D once; the columns of A are those of a TU matrix, so their
    entries are 0 or +-1, as the search needs.  It returns one of each
    +-pair of nonzero points, those whose first nonzero base coordinate
    is 1.

    That half is the lexicographically positive one.  The base is the
    first maximal independent row set in row order, so every row before
    base row b_j is spanned by b_0..b_{j-1}; a point whose first nonzero
    base coordinate is x_j = 1 is 0 on those rows and 1 on row b_j, so its
    first nonzero entry is 1.  Negation reverses the lexicographic order,
    so the sorted list is symmetric: point k from the end is minus point
    k, the origin sits in the middle, and the points after it,
    pts[len(pts) // 2 + 1:], are the sorted half.
    """
    half = _box_points([sys.a_matrix.col(j) for j in range(sys.n)], cap)
    half.sort()
    return tuple(chain([tuple([-x for x in w]) for w in reversed(half)],
                       ((0,) * sys.N,), half))


@lru_cache
def _odd_rows(sys):
    """The form matrix mod 2: bit j of row i is set when A[i, j] is odd."""
    return tuple(sum(1 << j for j, x in enumerate(sys.row(i)) if x & 1)
                 for i in range(sys.N))


def vertex_test(sys, point):
    """Whether a lattice point of D is a vertex: active rows have rank n.

    The rank is the GF(2) rank, valid because the system is TU: a TU matrix
    has the same rank over every field (Tutte 1958; Schrijver, Theory of
    Linear and Integer Programming, ch. 19).  The point must be a length-N
    vector of plain ints in {-1,0,1} (PreconditionError; True or 1.0 is not
    read as 1) in L (MembershipError); _is_vertex reduces its active rows.
    """
    point = tuple(point)
    if any(type(x) is not int for x in point):
        raise PreconditionError(f"{point} has a non-integer entry")
    if len(point) != sys.N or any(x not in (-1, 0, 1) for x in point):
        raise PreconditionError("vertex_test expects a point of D")
    _coefficients(sys, point)
    return _is_vertex(_odd_rows(sys), sys.n, point)


def _is_vertex(rows, n, point):
    """Whether the rows active at point (bitmasks mod 2) have GF(2) rank n.

    Only the support of point is read: the rows where it is nonzero.  They
    are reduced against an XOR basis keyed by leading bit, stopping as soon
    as the rank is reached.
    """
    if n == 0:
        return True
    basis = {}  # leading bit -> basis row
    for v in compress(rows, point):
        while v:
            top = v.bit_length() - 1
            b = basis.get(top)
            if b is None:
                basis[top] = v
                if len(basis) == n:
                    return True
                break
            v ^= b
    return False


class FacetPair(NamedTuple):
    """The two opposite facets cut out by one multiplicity class of forms,
    at levels +1 and -1 of the rep form.  w -> -w swaps the sides, so each
    count is the count on either side."""

    rep_row: int       # smallest row index of the class
    class_rows: tuple  # all rows whose form equals the rep's up to sign
    point_count: int   # lattice points on each side
    vertex_count: int  # vertices on each side


def _vertices_and_facets(sys, half, squares):
    """The positions in half of its vertices, ascending, and the facet
    pairs of D, read off the sorted half of the points after the origin
    (one of each +-pair of nonzero points) and the list of their squares.

    A point is a vertex when its active rows have GF(2) rank n, so only the
    points of square >= n are candidates.  The verdict (_is_vertex, as in
    vertex_test) depends on the support alone (w, -w and every point with
    the same nonzero pattern share it), so it is taken once per support,
    keyed by the pattern as bytes.

    A point lies on the + side of a pair when it is 1 on the rep form, so
    -w lies on the - side, and each side holds one of each pair nonzero on
    the rep form: either side's count is that of the half's points (and
    vertices) that are, read at the rep row of _nonzero_counts.
    """
    n = sys.n
    verdict = lru_cache(maxsize=None)(partial(_is_vertex, _odd_rows(sys), n))
    upper = [p for p, (w, s) in enumerate(zip(half, squares))
             if s >= n and verdict(bytes(map(abs, w)))]
    on_points = _nonzero_counts(half, sys.N)
    on_vertices = _nonzero_counts([half[p] for p in upper], sys.N)
    return upper, tuple(
        FacetPair(cls[0], cls, on_points[cls[0]], on_vertices[cls[0]])
        for cls in multiplicity_classes(sys))


def _base_coordinates(base):
    """w -> the tuple of w's entries at the base rows, its coefficients."""
    # itemgetter of one index returns the entry, not a 1-tuple
    if len(base) > 1:
        return itemgetter(*base)
    return lambda w: tuple([w[i] for i in base])


_COUNT_CHUNK = 1024  # points transposed at once by _nonzero_counts


def _nonzero_counts(points, width):
    """For each of the width coordinates, how many of the points are
    nonzero there.  The points are read _COUNT_CHUNK at a time, each chunk
    transposed by zip and its zeros counted by tuple.count; a transposed
    copy of all the points would nearly double the memory they hold."""
    zeros = [0] * width
    for start in range(0, len(points), _COUNT_CHUNK):
        chunk = zip(*points[start:start + _COUNT_CHUNK])
        zeros = [z + c.count(0) for z, c in zip(zeros, chunk)]
    return [len(points) - z for z in zeros]


def facets(sys, cap=DEFAULT_CAP):
    """One facet pair per distinct form (up to sign), with their counts."""
    return build_polytope_report(sys, cap).facet_pairs


# ---------------------------------------------------------------------------
# zonotope property


def zonotope_witness(sys):
    """A sign vector whose projection leaves D, or None when D equals Z.

    zonotope_check(sys) == (zonotope_witness(sys) is None).  Only for a
    "no" is the projection built: the projection of s is (P s)/d with
    P = A adj(A^T A) A^T and d = det(A^T A).  Over s in {-1,1}^N the
    largest (P s)_i is the absolute sum of row i of P, reached at that
    row's sign pattern.  Z lies in D exactly when no row's absolute sum
    exceeds d, so when D is not Z some row's does, and its sign pattern
    (zeros read as +1), the first such row's, projects to a point whose
    i-th form value is above 1.
    """
    if zonotope_check(sys):
        return None
    p, d = form_pairing_matrix(sys)
    return next(tuple(-1 if x < 0 else 1 for x in row) for row in p.row_list()
                if sum(map(abs, row)) > d)


def zonotope_check(sys):
    """Whether D equals the cube's shadow Z = pi([-1,1]^N): exactly when
    the forms fall into n classes of parallel forms (multiplicity_classes),
    that is when D is a parallelepiped.

    D is always contained in Z (pi fixes D), so D = Z exactly when Z lies
    in D.  Write Pi = P/d for the orthogonal projection of R^N onto W, whose
    rows are the largest form values over Z: Z lies in D exactly when every
    row of Pi has absolute sum <= 1 (zonotope_witness).

    (<=) The class representatives form a base, and over that base every
    row is +-e_k.  So Pi is block-diagonal, with entries +-1/k inside a
    class of k forms, and every row of Pi sums to 1 in absolute value.

    (=>) Assume Z lies in D.  Take a fundamental cocircuit vector c: a
    column of A B^-1 for some base B, so a point of D whose entries are in
    {0, +-1}, as the fundamental cocircuits of a totally unimodular matrix
    are (Schrijver, Theory of Linear and Integer Programming, ch. 19).
    Take any s in {-1,1}^N that equals c on supp c.  Then
    <Pi s, c> = <s, c> = |supp c|, while |(Pi s)_i| <= 1 for every i;
    together these force (Pi s)_i = c_i on supp c, whatever s is off it.
    So Pi_ij = 0 for every i in supp c and j outside it.  Two forms that
    are not parallel lie in a common base, and the fundamental cocircuit of
    one of them with respect to that base avoids the other.  So Pi is
    block-diagonal on the classes, with rank one per class, and
    n = rank Pi is the number of classes.

    The answer is exact either way: False means some sign vector projects
    strictly outside D, which happens for many unimodular systems (the
    plane triangle system among them).
    """
    return len(multiplicity_classes(sys)) == sys.n


# ---------------------------------------------------------------------------
# short vectors


class ShortVectorCensus(NamedTuple):
    """Counts of lattice vectors of square 1, 2, 3 (both signs counted).

    The points of D include *every* lattice vector of square <= 3, so the
    counts are exact.  min_nonzero_square is the minimum over the nonzero
    points of D; when all counts vanish the true lattice minimum is only
    certified to be >= 4, attained exactly if a square-4 point of D exists.
    """

    counts: dict
    min_nonzero_square: int | None

    def units(self):
        return self.counts[1]

    def roots(self):
        return self.counts[2]

    def minimum_summary(self):
        for s in (1, 2, 3):
            if self.counts[s]:
                return str(s)
        if self.min_nonzero_square is None:
            return "none"
        if self.min_nonzero_square == 4:
            return "4 (attained)"
        return ">= 4"


def _census(by_square):
    """The census read off the square histogram of the points of D."""
    return ShortVectorCensus(counts={s: by_square.get(s, 0) for s in (1, 2, 3)},
                             min_nonzero_square=next(iter(by_square), None))


def _square_counts(half_squares):
    """The square histogram of the nonzero points of D, ascending, from the
    squares of one of each +-pair: w and -w have the same square."""
    return {s: 2 * c for s, c in sorted(Counter(half_squares).items())}


def short_vector_census(sys, cap=DEFAULT_CAP):
    """The exact counts of lattice vectors of square 1, 2 and 3, read off
    the squares of one of each +-pair of nonzero points of D (the search of
    polytope_points, under the same cap) through _square_counts; the other
    half is never built, and nothing is sorted."""
    half = _box_points([sys.a_matrix.col(j) for j in range(sys.n)], cap)
    return _census(_square_counts(_squares(sys, half)))


# ---------------------------------------------------------------------------
# generation


def generation_index(lat, vectors):
    """Index in L of the sublattice the vectors generate (0 if lower rank).

    Each vector must have the ambient dimension N (MembershipError
    otherwise) and plain integer entries (PreconditionError otherwise, so
    1.5 or True is never read as 1).
    """
    sys = lat.system
    coords = []
    for v in vectors:
        v = tuple(v)
        if len(v) != lat.ambient_dim:
            raise MembershipError(
                f"{v} has {len(v)} coordinates, the lattice lives in "
                f"Z^{lat.ambient_dim}")
        if any(type(x) is not int for x in v):
            raise PreconditionError(f"{v} has a non-integer entry")
        coords.append(_coefficients(sys, v))
    if not coords:
        return 1 if sys.n == 0 else 0
    h, _, rk = hermite_form(IntMatrix.from_rows(coords))
    if rk < sys.n:
        return 0
    index = 1
    for i in range(sys.n):
        index *= h[i, i]
    return index


def lattice_generated_by(lat, vectors):
    """Whether the given lattice vectors generate L (index-1 Hermite check)."""
    return generation_index(lat, vectors) == 1


# ---------------------------------------------------------------------------
# full report


class PolytopeReport(NamedTuple):
    system: UnimodularSystem
    discriminant: int
    points: tuple          # the vector of each lattice point, sorted
    vertices: tuple        # the vectors of the vertices, in point order
    facet_pairs: tuple     # FacetPair per multiplicity class
    square_counts: dict    # nonzero points by square, ascending
    zonotope_verified: bool
    reflexive_verified: bool

    @property
    def census(self):
        return _census(self.square_counts)

    def to_dict(self):
        """The report as a JSON document (schema polytope result v2).

        Each point is listed once: vertices index into points, found by
        binary search since both are sorted, so no point is hashed; both
        sides of a facet pair (levels +-1 of rep_row) take its one count.
        points is a fileio.Records over the vectors, so no dict or list is
        built per point: a record's vector is the tuple itself, its square
        N minus its count of zeros, and its coefficients the tuple of its
        entries at base_rows.  facets is a Records over the facet pairs,
        whose one point count and one vertex count fill both sides.
        """
        vectors = self.points
        N = self.system.N
        base = self.system.base_rows
        census = self.census
        return {
            "N": N,
            "n": self.system.n,
            "base_rows": list(base),
            "discriminant": self.discriminant,
            "origin_included": True,
            "census_by_square": {str(k): v for k, v in self.square_counts.items()},
            "point_count": len(vectors),
            "points": Records(vectors, (
                ("vector", tuple),
                ("square", lambda v: N - v.count(0)),
                ("coefficients", _base_coordinates(base)))),
            "vertex_count": len(self.vertices),
            "vertices": [bisect_left(vectors, v) for v in self.vertices],
            "facets": Records(self.facet_pairs, (
                ("rep_row", attrgetter("rep_row")),
                ("class_rows", lambda f: list(f.class_rows)),
                ("plus_point_count", attrgetter("point_count")),
                ("minus_point_count", attrgetter("point_count")),
                ("plus_vertex_count", attrgetter("vertex_count")),
                ("minus_vertex_count", attrgetter("vertex_count")))),
            "min_nonzero_square": census.minimum_summary(),
            "short_vectors": {str(k): v for k, v in census.counts.items()},
            "zonotope_verified": self.zonotope_verified,
            "reflexive_verified": self.reflexive_verified,
        }


def build_polytope_report(sys, cap=DEFAULT_CAP):
    """Assemble the full polytope report from one point search.

    The points come from one base-coordinate search (polytope_points), under
    the same cap, which finds one of each +-pair and sorts only that half;
    the vertices, facet pairs and census are derived in one pass over the
    half after the origin (_vertices_and_facets).  The squares of that half
    are taken once, as a list, which picks the vertex candidates and feeds
    the histogram (_square_counts).  The form matrix mod 2 is taken once.
    The vertex verdict is vertex_test's GF(2) rank (valid because the
    system is TU), taken once per support and without vertex_test's check
    that the point lies in D, which the search guarantees.  The vertices
    are read off the sorted points by position, so no point is negated or
    hashed again.  The list holds every vertex of D: the system was
    certified totally unimodular when it was built, so by Hoffman-Kruskal
    (Schrijver, Theory of Linear and Integer Programming, ch. 19) every
    vertex of D = {w in W : |f_i(w)| <= 1} is integral, a lattice point.
    The inequalities |f_i| <= 1 are primitive, so D is reflexive;
    reflexive_verified further checks that every facet pair has vertices
    on its sides (one count serves both, as D = -D).  The zonotope flag is
    zonotope_check's exact verdict on whether D equals the cube's shadow,
    a count of the classes of parallel forms: the report never builds the
    projection matrix.  Points and vertices are vectors, a facet pair
    holds one point count and one vertex count per side, and census and
    to_dict read the one square histogram, square_counts.
    """
    pts = polytope_points(sys, cap=cap)
    h = len(pts) // 2  # the origin's index, and the size of either half
    half = pts[h + 1:]
    squares = _squares(sys, half)
    upper, fp = _vertices_and_facets(sys, half, squares)
    # the half's vertices sit at h + 1 + their position in it, those before
    # the origin mirror them, and for n = 0 the origin is the one vertex
    middle = [pts[h]] if sys.n == 0 else []
    vertices = tuple([pts[h - 1 - p] for p in reversed(upper)] + middle
                     + [pts[h + 1 + p] for p in upper])
    reflexive = sys.n == 0 or all(f.vertex_count for f in fp)
    return PolytopeReport(system=sys,
                          discriminant=complexity(sys),
                          points=pts,
                          vertices=vertices,
                          facet_pairs=fp,
                          square_counts=_square_counts(squares),
                          zonotope_verified=zonotope_check(sys),
                          reflexive_verified=reflexive)
