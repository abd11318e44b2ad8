"""Acceptance gate: twelve end-to-end checks, each with a time budget.

Every assertion is an exact integer equality (tolerance zero).  Each
check prints one scoreboard line

    ACCEPTANCE <k> <label>: PASS|FAIL (<elapsed>, budget <limit>)

so a ``pytest -v -s`` run shows the whole gate at a glance.  A check
fails if any assertion fails or if it runs over its budget.
"""

import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from unimod.catalog import make
from unimod.errors import CapError
from unimod.graphs import (
    Multigraph,
    cographic_system,
    deleted_laplacian,
    graphic_system,
    spanning_trees,
)
from unimod.intlinalg import (
    IntMatrix,
    adjugate,
    determinant,
    hermite_form,
    matvec,
    square_minors,
    vecmat,
)
from unimod.lattice import (
    build_polytope_report,
    discriminant,
    generation_index,
    lattice_of,
    polytope_points,
    short_vector_census,
)
from unimod.systems import (
    are_isomorphic,
    automorphism_count,
    complexity,
    enumerate_bases,
    from_matrix,
    gale_dual,
    gram_matrix,
    multiplicity_classes,
    split_upsilon,
)

# 0/1 presentation of the ten-form rank-5 self-dual system; every maximal
# minor is 0 or +-2, so the standard form below cannot be read off from a
# row subset without the exact division step in from_matrix.
Q_RAW = [
    [1, 1, 0, 0, 0],
    [0, 1, 1, 0, 0],
    [0, 0, 1, 1, 0],
    [0, 0, 0, 1, 1],
    [1, 0, 0, 0, 1],
    [1, 0, 1, 0, 0],
    [0, 1, 0, 1, 0],
    [0, 0, 1, 0, 1],
    [1, 0, 0, 1, 0],
    [0, 1, 0, 0, 1],
]


def catalog_sweep():
    """Every built-in system with at most 12 rows, plus both derived
    systems of every built-in graph, labelled for failure messages."""
    out = [(f"upsilon:{k}", make("upsilon", k)) for k in (1, 2, 3)]
    out += [(f"sigma:{n}", make("sigma", n)) for n in range(1, 9)]
    out += [("pair2", make("pair2")), ("triangle3", make("triangle3")),
            ("bixby_seymour_raw", make("bixby_seymour_raw")),
            ("bixby_seymour", make("bixby_seymour"))]
    graphs = [(f"theta:{n}", make("theta", n)) for n in range(2, 7)]
    graphs += [(f"cycle:{n}", make("cycle", n)) for n in range(3, 7)]
    graphs += [("complete:4", make("complete", 4)),
               ("complete:5", make("complete", 5))]
    for label, g in graphs:
        out.append((f"graphic({label})", graphic_system(g)))
        out.append((f"cographic({label})", cographic_system(g)))
    return [(label, s) for label, s in out if s.N <= 12]


# The oracles below scan every n-subset of rows, so their cost grows with N,
# not with the number of bases the library enumerates: they keep a size guard.
ORACLE_ROW_CAP = 16


def combinations_bases(sys, cap=ORACLE_ROW_CAP):
    """All n-subsets of rows with nonzero determinant, lexicographically."""
    if sys.N > cap:
        raise CapError(f"base enumeration over {sys.N} rows exceeds cap {cap}")
    m = sys.a_matrix
    out = []
    for rs in combinations(range(sys.N), sys.n):
        if determinant(m.submatrix(rs, range(sys.n))) != 0:
            out.append(rs)
    return out


def adjugate_basic_vertices(sys, cap=ORACLE_ROW_CAP):
    """Vertices of D the dual way: feasible basic solutions of n active rows.

    For every base S and sign pattern e, the system (rows S) x = e has a
    unique solution, integral because base minors are +-1; it is a vertex of
    D exactly when all coordinates of the lifted point lie in [-1, 1].
    (Test-only oracle: the bases come from combinations_bases, so it shares
    no code with enumerate_bases or with vertex_test.)
    """
    a = sys.a_matrix
    verts = set()
    for base in combinations_bases(sys, cap=cap):
        b = a.take_rows(base)
        d = determinant(b)           # +-1 by total unimodularity
        adj_t = adjugate(b.transpose())
        for eps in product((1, -1), repeat=sys.n):
            x = tuple(v * d for v in vecmat(eps, adj_t))
            w = matvec(a, x)
            if all(-1 <= c <= 1 for c in w):
                verts.add(w)
    return verts


def _criterion(num, label, budget_s, body):
    t0 = time.perf_counter()
    failure = None
    try:
        body()
    except AssertionError as exc:
        failure = exc
    elapsed = time.perf_counter() - t0
    status = "PASS" if failure is None and elapsed < budget_s else "FAIL"
    print(f"ACCEPTANCE {num:>2} {label}: {status}"
          f" ({elapsed:.2f}s, budget {budget_s}s)")
    if failure is not None:
        raise failure
    assert elapsed < budget_s, (
        f"time budget exceeded: {elapsed:.2f}s >= {budget_s}s")


def test_criterion_01_sigma_family():
    def body():
        for n in range(1, 9):
            s = make("sigma", n)
            assert complexity(s) == n
            vecs = set(polytope_points(s))
            assert vecs == {(0,) * n, (1,) * n, (-1,) * n}
            rep = build_polytope_report(s)
            assert len(rep.vertices) == 2
            assert 2 * len(rep.facet_pairs) == 2
    _criterion(1, "repeated-form family", 1, body)


def test_criterion_02_small_systems():
    def body():
        assert complexity(make("pair2")) == 1
        assert complexity(make("triangle3")) == 3
    _criterion(2, "two small plane systems", 1, body)


def test_criterion_03_cayley_counts():
    def body():
        for n, expect in ((3, 3), (4, 16), (5, 125)):
            assert expect == n ** (n - 2)
            assert complexity(cographic_system(make("complete", n))) == expect
        for n in (3, 4):
            assert len(spanning_trees(make("complete", n))) == n ** (n - 2)
    _criterion(3, "complete-graph tree counts", 10, body)


def test_criterion_04_determinant_vs_enumeration():
    def body():
        for label, s in catalog_sweep():
            det = determinant(gram_matrix(s))
            count = len(enumerate_bases(s))
            assert det == count, f"{label}: det {det} != count {count}"
    _criterion(4, "Gram determinant equals base count", 30, body)


def test_criterion_05_ten_form_golden_report():
    def body():
        for v in square_minors(IntMatrix.from_rows(Q_RAW), 5):
            assert v in (-2, 0, 2)
        r = make("bixby_seymour")
        assert from_matrix(Q_RAW).a_matrix == r.a_matrix
        for k in range(1, 6):
            assert all(v in (-1, 0, 1)
                       for v in square_minors(r.a_matrix, k))
        assert complexity(r) == 162
        corr = are_isomorphic(gale_dual(r), r)
        assert corr is not None and corr.verify(gale_dual(r), r)
        rep = build_polytope_report(r)
        assert len(rep.points) == 73
        assert rep.square_counts == {4: 30, 6: 30, 10: 12}
        assert len(rep.vertices) == 12
        assert 2 * len(rep.facet_pairs) == 20
        for f in rep.facet_pairs:
            assert f.vertex_count == 6
        lat = lattice_of(r)
        shortest = [v for v in polytope_points(r)
                    if sum(x * x for x in v) == 4]
        assert generation_index(lat, shortest) == 1
        census = short_vector_census(r)
        assert census.units() == 0
        assert census.roots() == 0
        assert census.counts[3] == 0
        assert automorphism_count(r) == 1440
    _criterion(5, "ten-form system golden report", 60, body)


def test_criterion_06_graph_duality():
    def body():
        graphs = [make("theta", n) for n in range(2, 7)]
        graphs += [make("cycle", n) for n in range(3, 7)]
        graphs.append(make("complete", 4))
        for g in graphs:
            cyc, cut = graphic_system(g), cographic_system(g)
            assert are_isomorphic(gale_dual(cyc), cut) is not None
            assert are_isomorphic(gale_dual(cut), cyc) is not None
            assert complexity(cyc) == complexity(cut)
    _criterion(6, "cycle/cut space duality", 10, body)


def test_criterion_07_double_dual_and_units():
    def body():
        for label, s in catalog_sweep():
            core = split_upsilon(s).core
            dd = gale_dual(gale_dual(s))
            assert are_isomorphic(dd, core) is not None, label
            assert split_upsilon(gale_dual(s)).s == 0, label
        path3 = Multigraph.build(3, [(1, 2), (2, 3)])
        assert cographic_system(path3).a_matrix == make("upsilon", 2).a_matrix
    _criterion(7, "double dual recovers the core", 5, body)


def test_criterion_08_roots_track_multiplicity():
    def body():
        for n in range(2, 7):
            s = make("sigma", n)
            census = short_vector_census(gale_dual(s))
            # the census counts v and -v separately
            assert census.roots() == 2 * (n * (n - 1) // 2)
            assert census.units() == 0
            classes = multiplicity_classes(s)
            assert len(classes) == 1 and len(classes[0]) == n
        b = make("bixby_seymour")
        assert short_vector_census(gale_dual(b)).roots() == 0
        classes = multiplicity_classes(b)
        assert len(classes) == 10
        assert all(len(c) == 1 for c in classes)
    _criterion(8, "dual roots match repeated forms", 5, body)


def _up_to_sign(v):
    """The representative of {v, -v} whose first nonzero entry is positive."""
    lead = next((x for x in v if x), 1)
    return tuple(x if lead > 0 else -x for x in v)


def _cube_shadow_facet_normals(s):
    """Primitive facet normals of Z = pi([-1,1]^N), up to sign.

    Z is the zonotope generated by the projections pi(e_k), so each facet
    is parallel to n-1 linearly independent generators, and for u in W
    <pi(e_k), u> = u_k.  A facet normal is therefore a line of W on which
    n-1 forms of rank n-1 vanish: the image under A of the kernel of those
    rows, spanned by their signed (n-1)-minors (zero iff the rank is short).
    Dividing by the gcd gives its primitive vector in L = W cap Z^N.
    """
    a, n = s.a_matrix, s.n
    normals = set()
    for rows in combinations(range(s.N), n - 1):
        x = [(-1) ** j * determinant(
                a.submatrix(rows, [c for c in range(n) if c != j]))
             for j in range(n)]
        if not any(x):
            continue
        u = matvec(a, x)
        g = gcd(*u)
        normals.add(_up_to_sign(tuple(v // g for v in u)))
    return normals


def _minimal_support_points(vectors):
    """Nonzero vectors whose support contains no other's, up to sign."""
    supports = {v: frozenset(i for i, x in enumerate(v) if x)
                for v in vectors if any(v)}
    return {_up_to_sign(v) for v, sv in supports.items()
            if not any(sw < sv for sw in supports.values())}


def _projection_rows(s):
    """The rows of the orthogonal projection A (A^T A)^-1 A^T onto the span,
    in Fractions, by Gauss-Jordan: shares no code with the library."""
    a, n, big_n = s.a_matrix, s.n, s.N
    aug = [[Fraction(sum(a[k, i] * a[k, j] for k in range(big_n)))
            for j in range(n)] + [Fraction(a[k, i]) for k in range(big_n)]
           for i in range(n)]                      # [A^T A | A^T]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    # column k of (A^T A)^-1 A^T is aug[.][n + k]; row i of the projection
    # is row i of A times it
    return [[sum(a[i, t] * aug[t][n + k] for t in range(n))
             for k in range(big_n)] for i in range(big_n)]


def _shadow_inside_section(s):
    """Whether Z lies in D, from the projection matrix in Fractions.

    The largest i-th coordinate over Z is max_s <s, pi(e_i)> = |pi(e_i)|_1,
    so Z is inside D iff every row of A (A^T A)^-1 A^T has absolute sum
    <= 1 (_projection_rows).
    """
    return all(sum(map(abs, row)) <= 1 for row in _projection_rows(s))


def test_criterion_09_projection_and_reflexivity():
    # The cube's shadow Z = pi([-1,1]^N) on W is twice the Voronoi cell of
    # L: for v in L, <pi(s), v> = <s, v> <= |v|_1 <= v.v, so Z lies in
    # 2 Vor(L) = {x : <x, v> <= v.v for all v in L}; and when every facet
    # normal u of Z has entries in {0, +-1}, Z's facet <x, u> <= |u|_1 is
    # <x, u> <= u.u, so 2 Vor(L) lies in Z.  Those normals are the
    # minimal-support points of D.  D lies in Z (pi fixes it), and D = Z,
    # the report's zonotope flag, holds iff Z lies in D.  The report reads
    # the vertices of D off its lattice points, which holds all of them by
    # total unimodularity (Hoffman-Kruskal); the feasible basic solutions
    # give the vertices a second, independent way.
    def body():
        for label, s in catalog_sweep():
            rep = build_polytope_report(s)
            assert rep.reflexive_verified, f"reflexivity fails for {label}"
            assert set(rep.vertices) == adjugate_basic_vertices(s), (
                f"{label}: the report's vertices differ from the feasible "
                "basic solutions")
            normals = _cube_shadow_facet_normals(s)
            assert all(x in (-1, 0, 1) for u in normals for x in u), (
                f"{label}: a facet normal of the cube shadow leaves "
                "{0, +-1}^N")
            assert normals == _minimal_support_points(rep.points), (
                f"{label}: facet normals of the cube shadow differ from "
                "the minimal-support points of the polytope")
            assert rep.zonotope_verified == _shadow_inside_section(s), (
                f"{label}: zonotope flag {rep.zonotope_verified} disagrees "
                "with the projection-matrix row sums")
    _criterion(9, "cube projection and reflexivity", 60, body)


def test_criterion_10_k4_rhombic_dodecahedron():
    def body():
        g = make("complete", 4)
        cyc, cut = graphic_system(g), cographic_system(g)
        assert are_isomorphic(cyc, cut) is not None
        rep = build_polytope_report(cut)
        assert 2 * len(rep.facet_pairs) == 12
        assert len(rep.vertices) == 14
        assert discriminant(lattice_of(cut)) == 16
    _criterion(10, "K4 rhombic dodecahedron", 5, body)


def test_criterion_11_theta_family_lattices():
    def body():
        for n in range(2, 7):
            lat = lattice_of(graphic_system(make("theta", n)))
            assert lat.complement_basis == ((1,) * n,)
            assert discriminant(lat) == n
            gens = lat.basis_columns.transpose()
            target = IntMatrix.from_rows(
                [[1 if j == i else (-1 if j == n - 1 else 0)
                  for j in range(n)] for i in range(n - 1)])
            h1, _, r1 = hermite_form(gens)
            h2, _, r2 = hermite_form(target)
            assert r1 == r2 == n - 1
            assert h1.to_lists() == h2.to_lists()
        rep = build_polytope_report(graphic_system(make("theta", 3)))
        assert len(rep.vertices) == 6
    _criterion(11, "sum-zero lattices and hexagon", 2, body)


def test_criterion_12_kirchhoff():
    def body():
        for g in (make("cycle", 3), make("theta", 4),
                  make("complete", 4), make("complete", 5)):
            assert determinant(deleted_laplacian(g)) == len(spanning_trees(g))
    _criterion(12, "deleted-Laplacian tree counts", 5, body)
