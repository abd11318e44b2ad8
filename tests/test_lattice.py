"""Lattice and polytope geometry: scans, vertices, facets, censuses."""

import json
import re
import typing
from enum import IntEnum
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from unimod.catalog import make
from unimod.errors import CapError, MembershipError, PreconditionError
from unimod.fileio import render_json, sha256_hex
from unimod.graphs import cographic_system, graphic_system
from unimod.lattice import (
    LatticeModel,
    PolytopeReport,
    build_polytope_report,
    discriminant,
    facets,
    generation_index,
    lattice_generated_by,
    lattice_of,
    polytope_points,
    short_vector_census,
    vertex_test,
    zonotope_check,
    zonotope_witness,
)
from unimod.systems import (EMPTY_SYSTEM, UnimodularSystem, complexity,
                            gale_dual)

from test_acceptance import _shadow_inside_section, catalog_sweep
from test_properties import sign_scan_zonotope_check

GOLDEN = Path(__file__).parent / "golden" / "bixby_seymour_polytope.json"

V2_FACET_KEYS = ["rep_row", "class_rows", "plus_point_count",
                 "minus_point_count", "plus_vertex_count", "minus_vertex_count"]


def v1_of(doc):
    """The v1 polytope result, rebuilt from a v2 result alone.

    v1 listed each vertex as its vector and each facet side as the points
    on it; v2 gives vertices as indices into points and each side as a
    count.  A point lies on the + (-) side of a pair exactly when its value
    on the rep row is 1 (-1), so the lists are filtered from points, and
    each count must equal the length of its list.
    """
    vectors = [p["vector"] for p in doc["points"]]
    facets = []
    for f in doc["facets"]:
        assert list(f) == V2_FACET_KEYS
        rep = f["rep_row"]
        plus = [v for v in vectors if v[rep] == 1]
        minus = [v for v in vectors if v[rep] == -1]
        assert f["plus_point_count"] == len(plus)
        assert f["minus_point_count"] == len(minus)
        facets.append({"rep_row": rep, "class_rows": f["class_rows"],
                       "plus_points": plus, "minus_points": minus,
                       "plus_vertex_count": f["plus_vertex_count"],
                       "minus_vertex_count": f["minus_vertex_count"]})
    return dict(doc, vertices=[vectors[i] for i in doc["vertices"]],
                facets=facets)


def _orthogonal_projection(system, s):
    """Orthogonal projection of s onto the span of the columns, in Fractions.

    Solves the normal equations (A^T A) c = A^T s by Gaussian elimination
    and returns A c.  Completely independent of the integer-cleared
    implementation.
    """
    a = system.a_matrix
    n, N = system.n, system.N
    gram = [[sum(a[k, i] * a[k, j] for k in range(N)) for j in range(n)]
            for i in range(n)]
    rhs = [Fraction(sum(a[k, i] * s[k] for k in range(N))) for i in range(n)]
    mat = [[Fraction(gram[i][j]) for j in range(n)] + [rhs[i]]
           for i in range(n)]
    for col in range(n):                          # Gaussian elimination
        piv = next(r for r in range(col, n) if mat[r][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    c = [mat[i][n] for i in range(n)]
    return tuple(sum(a[k, i] * c[i] for i in range(n)) for k in range(N))


def _orthogonal_projection_inside(system):
    """Fraction-arithmetic oracle for the sign-cube projection test.

    Projects every corner of {-1,1}^N orthogonally onto the span of the
    columns and checks all form values stay within [-1, 1].
    """
    return all(abs(x) <= 1
               for s in product((-1, 1), repeat=system.N)
               for x in _orthogonal_projection(system, s))


# ---------------------------------------------------------------------------
# lattice model


def test_lattice_model_theta3():
    lat = lattice_of(graphic_system(make("theta", 3)))
    assert lat.complement_basis == ((1, 1, 1),)
    assert discriminant(lat) == 3


def test_discriminant_equals_complexity_everywhere():
    for s in (make("pair2"), make("triangle3"), make("sigma", 5),
              make("bixby_seymour"), cographic_system(make("complete", 4))):
        assert discriminant(lattice_of(s)) == complexity(s)


# ---------------------------------------------------------------------------
# points / vertices / facets


def test_segment_census():
    pts = polytope_points(make("sigma", 4))
    assert [v for v in pts if not any(v)] == [(0, 0, 0, 0)]
    assert sorted(v for v in pts if any(v)) == [
        (-1, -1, -1, -1), (1, 1, 1, 1)]


def test_hexagon_points_and_vertices():
    s = make("triangle3")
    pts = polytope_points(s)
    assert len(pts) == 7
    verts = [v for v in pts if vertex_test(s, v)]
    assert len(verts) == 6
    assert (1, 0, 1) in verts and (-1, 1, 0) in verts


def test_point_set_negation_closed():
    for s in (make("triangle3"), make("bixby_seymour")):
        vecs = set(polytope_points(s))
        assert {tuple(-x for x in v) for v in vecs} == vecs


def test_point_coefficients_reconstruct_vector():
    s = make("bixby_seymour")
    a = s.a_matrix
    for v in polytope_points(s):
        w_b = [v[i] for i in s.base_rows]
        recon = tuple(sum(a[k, i] * w_b[i] for i in range(s.n))
                      for k in range(s.N))
        assert recon == v


def test_vertex_test_rejects_non_scan_points():
    with pytest.raises(PreconditionError):
        vertex_test(make("pair2"), (2, 0))


def test_vertex_test_rejects_points_off_the_lattice():
    s = make("triangle3")
    assert (1, 1, 0) not in polytope_points(s)
    with pytest.raises(MembershipError):
        vertex_test(s, (1, 1, 0))
    assert vertex_test(s, (1, 0, 1))


@pytest.mark.parametrize("point", [(True, 0, 1), (1.0, 0, 1), (1, 0, 1.0)])
def test_vertex_test_rejects_non_int_entries(point):
    with pytest.raises(PreconditionError):
        vertex_test(make("triangle3"), point)


def test_scan_cap():
    with pytest.raises(CapError):
        polytope_points(make("bixby_seymour"), cap=8)


# every point count is odd: the origin and the pairs +-w
CAP_PINS = [("bixby_seymour", lambda: make("bixby_seymour"), 73),
            ("graphic complete:5",
             lambda: graphic_system(make("complete", 5)), 219),
            ("pair2", lambda: make("pair2"), 9),
            ("sigma:3", lambda: make("sigma", 3), 3),
            ("empty", lambda: EMPTY_SYSTEM, 1)]


@pytest.mark.parametrize("build, count", [pin[1:] for pin in CAP_PINS],
                         ids=[pin[0] for pin in CAP_PINS])
@pytest.mark.parametrize("routine", [polytope_points, short_vector_census,
                                     facets, build_polytope_report])
def test_cap_bounds_the_whole_point_count(routine, build, count):
    # the search finds one of each pair, yet the cap is on all the points
    s = build()
    for cap in (count - 2, count - 1):
        with pytest.raises(CapError,
                           match=f"^point search exceeds cap {cap} points$"):
            routine(s, cap=cap)
    routine(s, cap=count)
    assert len(polytope_points(s, cap=count)) == count


def test_facet_pairs_segment():
    fp = facets(make("sigma", 3))
    assert len(fp) == 1
    assert fp[0].class_rows == (0, 1, 2)
    assert fp[0].point_count == fp[0].vertex_count == 1
    rep = build_polytope_report(make("sigma", 3))
    assert [v for v in rep.vertices if v[fp[0].rep_row] == 1] == [(1, 1, 1)]


def test_facet_pairs_k4():
    fp = facets(cographic_system(make("complete", 4)))
    assert len(fp) == 6          # 12 facets, one pair per edge form


# ---------------------------------------------------------------------------
# zonotope verdict


def test_zonotope_check_matches_fraction_oracle():
    for s in (make("upsilon", 2), make("pair2"), make("sigma", 3),
              make("triangle3"), graphic_system(make("theta", 4)),
              cographic_system(make("complete", 4))):
        assert zonotope_check(s) == _orthogonal_projection_inside(s)


def test_zonotope_check_boundary_cases_pass():
    # projections land exactly on the boundary for these families
    assert zonotope_check(make("upsilon", 3))
    assert zonotope_check(make("pair2"))
    assert zonotope_check(make("sigma", 5))
    assert zonotope_check(graphic_system(make("cycle", 4)))


def test_zonotope_check_section_strictly_inside_shadow():
    # the cube shadow sticks out of the section for these systems, so the
    # check reports False; on the hexagon the sign vector (1,-1,1) projects
    # to a point whose first form value is 4/3
    tri = make("triangle3")
    assert _orthogonal_projection(tri, (1, -1, 1)) == (
        Fraction(4, 3), Fraction(-2, 3), Fraction(2, 3))
    assert not zonotope_check(tri)
    assert not zonotope_check(make("bixby_seymour"))
    assert not zonotope_check(cographic_system(make("complete", 4)))


def test_zonotope_closed_form_matches_sign_scan():
    s = make("bixby_seymour")
    assert zonotope_check(s) == sign_scan_zonotope_check(s) is False


def test_zonotope_check_beyond_the_old_sign_cap():
    # the sign scan stopped at N = 16; the closed form has no cap
    assert zonotope_check(make("sigma", 20))
    s = cographic_system(make("complete", 7))
    assert s.N == 21
    assert zonotope_check(s) == _shadow_inside_section(s)


def test_zonotope_witness_projects_outside():
    tri = make("triangle3")
    assert zonotope_witness(tri) == (1, -1, 1)
    assert _orthogonal_projection(tri, (1, -1, 1))[0] == Fraction(4, 3)
    escaped = 0
    for label, s in catalog_sweep():
        w = zonotope_witness(s)
        assert zonotope_check(s) == (w is None), label
        if w is not None:
            escaped += 1
            assert set(w) <= {1, -1} and len(w) == s.N, label
            assert max(abs(x) for x in _orthogonal_projection(s, w)) > 1, label
    assert escaped == 15


# ---------------------------------------------------------------------------
# censuses and generation


def test_roots_of_dual_repeated_form():
    # one multiplicity class of size n gives n(n-1) root vectors
    for n in range(2, 7):
        cen = short_vector_census(gale_dual(make("sigma", n)))
        assert cen.roots() == n * (n - 1)
        assert cen.units() == 0


def test_unit_count_matches_upsilon_summands():
    from unimod.systems import direct_sum, split_upsilon
    s = direct_sum(make("upsilon", 2), make("triangle3"))
    cen = short_vector_census(s)
    assert cen.units() == 2 * split_upsilon(s).s


def test_census_minimum_summaries():
    assert short_vector_census(make("sigma", 2)).minimum_summary() == "2"
    assert short_vector_census(make("bixby_seymour")).minimum_summary() == \
        "4 (attained)"


def test_lattice_generated_by_basis_and_membership():
    s = make("bixby_seymour")
    lat = lattice_of(s)
    cols = [tuple(s.a_matrix[k, i] for k in range(s.N)) for i in range(s.n)]
    assert lattice_generated_by(lat, cols)
    with pytest.raises(MembershipError):
        lattice_generated_by(lat, [(1,) + (0,) * 9])


def test_generation_index_rejects_short_vectors():
    lat = lattice_of(make("bixby_seymour"))
    for bad in ([(1, 0, 0)], [(0,) * 11]):
        with pytest.raises(MembershipError):
            generation_index(lat, bad)
        with pytest.raises(MembershipError):
            lattice_generated_by(lat, bad)


def test_generation_index_rejects_non_integer_entries():
    s = make("bixby_seymour")
    lat = lattice_of(s)
    col = list(s.a_matrix.col(0))
    one = IntEnum("One", "A").A  # an int subclass, equal to 1
    for x in (1.5, 1.0, True, "1", one):
        bad = [tuple([x] + col[1:])]
        # the message names the input vector, not its coefficients
        with pytest.raises(PreconditionError, match=re.escape(str(bad[0]))):
            generation_index(lat, bad)
        with pytest.raises(PreconditionError):
            lattice_generated_by(lat, bad)


def test_generation_index_of_vectors_of_lower_rank():
    # no vectors generate L exactly when n = 0; vectors of rank below n
    # generate a sublattice of infinite index, reported as 0
    assert generation_index(lattice_of(EMPTY_SYSTEM), []) == 1
    s = make("bixby_seymour")
    lat = lattice_of(s)
    col = tuple(s.a_matrix.col(0))
    assert generation_index(lat, []) == 0
    assert generation_index(lat, [col, tuple(-x for x in col)] * s.n) == 0


def test_generation_indices_of_bs_shells():
    s = make("bixby_seymour")
    lat = lattice_of(s)
    pts = polytope_points(s)
    by_square = {}
    for v in pts:
        by_square.setdefault(s.N - v.count(0), []).append(v)
    assert lattice_generated_by(lat, by_square[4])
    assert generation_index(lat, by_square[6]) == 3
    assert generation_index(lat, by_square[10]) == 16


# ---------------------------------------------------------------------------
# full report / golden file


def test_empty_system_report():
    rep = build_polytope_report(EMPTY_SYSTEM)
    assert len(rep.points) == 1 and len(rep.vertices) == 1
    assert rep.discriminant == 1


def test_report_reflexivity_flags():
    for s in (make("sigma", 3), make("triangle3"),
              graphic_system(make("complete", 4)), make("bixby_seymour")):
        assert build_polytope_report(s).reflexive_verified


def test_bixby_seymour_golden_report():
    rep = build_polytope_report(make("bixby_seymour"))
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    # through JSON: the report holds its points as a Records of tuples
    assert json.loads(render_json(v1_of(rep.to_dict()))) == golden


def test_golden_report_spot_values():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert golden["census_by_square"] == {"4": 30, "6": 30, "10": 12}
    assert golden["vertex_count"] == 12
    assert len(golden["facets"]) == 10
    assert all(f["plus_vertex_count"] == 6 and f["minus_vertex_count"] == 6
               for f in golden["facets"])
    assert golden["min_nonzero_square"] == "4 (attained)"
    assert golden["zonotope_verified"] is False
    assert golden["reflexive_verified"] is True


def test_complete_graph_reports_at_the_polytope_frontier():
    rep = build_polytope_report(cographic_system(make("complete", 6)))
    assert (len(rep.points), len(rep.vertices)) == (63, 62)
    assert rep.reflexive_verified
    rep = build_polytope_report(graphic_system(make("complete", 6)))
    assert (len(rep.points), len(rep.vertices)) == (7839, 3594)
    assert rep.reflexive_verified


# sha256 of the v1 report text render_json(build_polytope_report(s).to_dict()),
# computed at commit a883b67, where to_dict built a fresh list for every
# point entry and render_json kept no memo; there the text also equalled
# json.dumps(doc, indent=2).  The v2 result is checked by rebuilding the v1
# document from it (v1_of).  The golden file pins bixby_seymour only.
REPORT_SHA256 = {
    ("graphic", 5):
        "15dbd9535ab57e14bd6993b02352142898a69e9d83c0a65fe3abf18c23d84b8e",
    ("cographic", 6):
        "0d06af0e267b3a8cdfec2c40fc4cf7281247a2fecde607c3fcfa51e61ddd97b2",
}


@pytest.mark.parametrize("mode, k", sorted(REPORT_SHA256))
def test_complete_graph_report_json_is_pinned(mode, k):
    derive = {"graphic": graphic_system, "cographic": cographic_system}[mode]
    doc = build_polytope_report(derive(make("complete", k))).to_dict()
    assert sha256_hex(render_json(v1_of(doc))) == REPORT_SHA256[mode, k]


def test_report_dict_shares_no_lists():
    doc = build_polytope_report(make("bixby_seymour")).to_dict()
    seen = set()

    def walk(x):
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            assert id(x) not in seen
            seen.add(id(x))
            for v in x:
                walk(v)

    walk(doc)


@pytest.mark.parametrize("cls", [LatticeModel, PolytopeReport])
def test_lattice_type_hints_resolve(cls):
    assert typing.get_type_hints(cls)["system"] is UnimodularSystem
