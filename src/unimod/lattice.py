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
it is odd.  Every point of L is w = A x for one integer x, and the base rows
of A are unit vectors, so x = w_B, the point's values on the base forms.  A
point of D therefore has w_B in {-1,0,1}^n, and an exact census is a search
over these base coordinates: depth first, cut as soon as some form can no
longer come back to [-1, 1].  The census is also a complete certificate for
lattice vectors of square <= 3, all of which lie in D.

The report stores each fact once: a point is its vector w and its square
(its coefficients are w at base_rows), a vertex is the vector of a point,
a facet side is a count, and the square histogram is kept once.

The orthogonal shadow of the cube, Z = pi([-1,1]^N), is a zonotope in W that
always contains D (pi fixes every point of D).  zonotope_check decides
whether D equals Z by a closed form on the projection matrix, scaled by a
single common denominator (the discriminant) so that the verdict takes
integer comparisons only; False is an exact answer, not a failure of the
computation, and zonotope_witness names a sign vector that projects
outside D.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from itertools import compress, count, repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import CapError, MembershipError, PreconditionError
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


def _box_points(cols, n_rows, cap):
    """All w = sum_j x_j cols[j] with x in {-1,0,1}^n that lie in the box
    [-1, 1]^n_rows; CapError once more than cap of them are found.

    Depth first over j.  Choosing x_j moves w only on the support of
    cols[j]; there a coordinate may stray at most 1 + (its absolute sum
    over the later columns) and still come back into [-1, 1], so a branch
    is cut as soon as one strays further.  After a coordinate's last column
    that bound is 1, so every leaf lies in the box.
    """
    n = len(cols)
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
            if len(out) > cap:
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

    visit(0)
    return out


class PolytopePoint(NamedTuple):
    vector: tuple  # form values w; the coefficients are w at base_rows
    square: int    # number of nonzero form values


def _coefficients(sys, z):
    """Exact coordinates of a lattice point in the column basis.

    The base rows of the standard form are unit vectors, so the coordinates
    can be read off there; the remaining rows then verify membership.
    """
    c = tuple(z[i] for i in sys.base_rows)
    if matvec(sys.a_matrix, c) != tuple(z):
        raise MembershipError(f"{tuple(z)} is not in the lattice")
    return c


def _point_vectors(sys, cap):
    """The vectors of the lattice points of D, in search order.

    Complete by the base-coordinate argument: every point w of D has w_B in
    {-1,0,1}^n and w = A w_B, so searching x in {-1,0,1}^n with A x in the
    box meets each point once; CapError past cap.
    """
    return _box_points([sys.a_matrix.col(j) for j in range(sys.n)],
                       sys.N, cap)


def _squares(sys, vectors):
    """The squares of the vectors, each N minus its count of zeros."""
    return map(sys.N.__sub__, map(tuple.count, vectors, repeat(0)))


def polytope_points(sys, cap=DEFAULT_CAP):
    """All lattice points of D, sorted lexicographically (_point_vectors,
    under the same cap)."""
    found = _point_vectors(sys, cap)
    found.sort()
    return tuple(map(PolytopePoint, found, _squares(sys, found)))


@lru_cache(maxsize=None)
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

    Only the support of point is read: the rows where it is nonzero.  The
    active rows are reduced against an XOR basis keyed by leading bit,
    stopping as soon as the rank reaches n.
    """
    if n == 0:
        return True
    active = [i for i, x in enumerate(point) if x]
    if len(active) < n:
        return False
    basis = {}  # leading bit -> basis row
    for i in active:
        v = rows[i]
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
    """The two opposite facets cut out by one multiplicity class of forms;
    a side is held as counts, its points being those at level +-1."""

    rep_row: int            # smallest row index of the class
    class_rows: tuple       # all rows whose form equals the rep's up to sign
    plus_point_count: int   # lattice points at level +1 of the rep form
    minus_point_count: int
    plus_vertex_count: int  # vertices at level +1 of the rep form
    minus_vertex_count: int


def _vertices_and_facets(sys, pts):
    """The vertex vectors (in point order) and the facet pairs of D.

    A point is a vertex when its active rows have GF(2) rank n, so only the
    points of square >= n are candidates, and the verdict depends on the
    support alone: w, -w and every point with the same nonzero pattern
    share it.  It is taken once per support, keyed by the pattern as bytes;
    the per-point work (keys, cache hits, facet levels) runs in C loops.
    Each class reads its levels through the points, one list at a time: a
    transposed copy of the points would nearly double the memory they hold.
    """
    n = sys.n
    vector = itemgetter(0)
    candidates = list(compress(map(vector, pts),
                               map(n.__le__, map(itemgetter(1), pts))))
    verdict = lru_cache(maxsize=None)(partial(_is_vertex, _odd_rows(sys), n))
    supports = map(bytes, map(map, repeat(abs), candidates))
    vertices = tuple(compress(candidates, map(verdict, supports)))
    out = []
    for cls in multiplicity_classes(sys):
        side = itemgetter(cls[0])
        levels = list(map(side, map(vector, pts)))
        vertex_levels = list(map(side, vertices))
        out.append(FacetPair(cls[0], cls, levels.count(1), levels.count(-1),
                             vertex_levels.count(1), vertex_levels.count(-1)))
    return vertices, tuple(out)


def facets(sys, cap=DEFAULT_CAP):
    """One facet pair per distinct form (up to sign), with their counts."""
    return _vertices_and_facets(sys, polytope_points(sys, cap=cap))[1]


# ---------------------------------------------------------------------------
# zonotope property


def zonotope_witness(sys):
    """A sign vector whose projection leaves D, or None when D equals Z.

    The projection of s is (P s)/d with P = A adj(A^T A) A^T and
    d = det(A^T A).  Over s in {-1,1}^N the largest (P s)_i is the absolute
    sum of row i of P, reached at that row's sign pattern.  So Z lies in D,
    and D = Z, exactly when no row's absolute sum exceeds d; otherwise the
    sign pattern of the first row that does (zeros read as +1) projects to
    a point whose i-th form value is above 1.
    """
    p, d = form_pairing_matrix(sys)
    for row in p.row_list():
        if sum(abs(x) for x in row) > d:
            return tuple(-1 if x < 0 else 1 for x in row)
    return None


def zonotope_check(sys):
    """Whether D equals the cube's shadow Z = pi([-1,1]^N).

    D is always contained in Z, so they are equal exactly when every +-1
    sign vector projects into D; zonotope_witness decides that in closed
    form.  The answer is exact either way: False means some sign vector
    projects strictly outside D, which happens for many unimodular systems
    (the plane triangle system among them).
    """
    return zonotope_witness(sys) is None


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


def _by_square(squares):
    """Counts of nonzero squares, in ascending square order."""
    out = Counter(squares)
    out.pop(0, None)
    return dict(sorted(out.items()))


def _census(by_square):
    """The census read off the square histogram of the points of D."""
    return ShortVectorCensus(counts={s: by_square.get(s, 0) for s in (1, 2, 3)},
                             min_nonzero_square=next(iter(by_square), None))


def short_vector_census(sys, cap=DEFAULT_CAP):
    """The exact counts of lattice vectors of square 1, 2 and 3, read off
    the squares of the points of D (_point_vectors, under the same cap),
    which need no sort."""
    return _census(_by_square(_squares(sys, _point_vectors(sys, cap))))


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
    points: tuple          # PolytopePoint per lattice point, sorted
    vertices: tuple        # the vectors of the vertices, in point order
    facet_pairs: tuple     # FacetPair per multiplicity class
    square_counts: dict    # nonzero points by square, ascending
    zonotope_verified: bool
    reflexive_verified: bool

    def by_square(self):
        """Counts of nonzero lattice points by square (origin excluded)."""
        return self.square_counts

    @property
    def census(self):
        return _census(self.square_counts)

    def to_dict(self):
        # each point is listed once: vertices index into points, and a facet
        # side is a count, its points being those at level +-1 of rep_row;
        # a point's coefficients are its vector at the base rows
        vectors = [p.vector for p in self.points]
        base = self.system.base_rows
        if len(base) > 1:
            coefficients = map(list, map(itemgetter(*base), vectors))
        elif base:
            coefficients = ([v[base[0]]] for v in vectors)
        else:
            coefficients = ([] for v in vectors)
        census = self.census
        return {
            "N": self.system.N,
            "n": self.system.n,
            "base_rows": list(base),
            "discriminant": self.discriminant,
            "origin_included": True,
            "census_by_square": {str(k): v for k, v in self.by_square().items()},
            "point_count": len(self.points),
            "points": [{"vector": list(v), "square": p.square,
                        "coefficients": c}
                       for v, p, c in zip(vectors, self.points, coefficients)],
            "vertex_count": len(self.vertices),
            "vertices": list(compress(count(), map(
                set(self.vertices).__contains__, vectors))),
            "facets": [{**f._asdict(), "class_rows": list(f.class_rows)}
                       for f in self.facet_pairs],
            "min_nonzero_square": census.minimum_summary(),
            "short_vectors": {str(k): v for k, v in census.counts.items()},
            "zonotope_verified": self.zonotope_verified,
            "reflexive_verified": self.reflexive_verified,
        }


def build_polytope_report(sys, cap=DEFAULT_CAP):
    """Assemble the full polytope report from one point search.

    The points come from one base-coordinate search (polytope_points), under
    the same cap; the vertices, facet pairs and census are derived from that
    list in one pass (_vertices_and_facets).  The form matrix mod 2 is taken
    once, and the vertex verdict (_is_vertex: GF(2) rank, valid because the
    system is TU) is taken once per support, that is once per nonzero
    pattern among the points of square >= n, without vertex_test's check
    that the point lies in D, which the search guarantees.  The list
    holds every vertex of D: the system was certified totally unimodular
    when it was built, so by Hoffman-Kruskal (Schrijver, Theory of Linear
    and Integer Programming, ch. 19) every vertex of
    D = {w in W : |f_i(w)| <= 1} is integral, a lattice point.  The
    inequalities |f_i| <= 1 are primitive, so D is reflexive;
    reflexive_verified further checks that every facet pair has vertices on
    both sides.  The zonotope flag is zonotope_check's exact verdict on
    whether D equals the cube's shadow.  Points are (vector, square),
    vertices are vectors, facet sides are counts, and by_square(), census
    and to_dict read the one square histogram.
    """
    pts = polytope_points(sys, cap=cap)
    vertices, fp = _vertices_and_facets(sys, pts)
    reflexive = sys.n == 0 or all(
        f.plus_vertex_count and f.minus_vertex_count for f in fp)
    return PolytopeReport(system=sys,
                          discriminant=complexity(sys),
                          points=pts,
                          vertices=vertices,
                          facet_pairs=fp,
                          square_counts=_by_square(map(itemgetter(1), pts)),
                          zonotope_verified=zonotope_check(sys),
                          reflexive_verified=reflexive)
