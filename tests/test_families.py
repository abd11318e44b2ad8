"""Closed forms for the paper's named families, beyond the sweep's N <= 12.

The pins reach complete:12 (N = 66 edges, rank 55 graphic and 11
cographic, 12^10 bases) for the Cayley counts, complete:10 (N = 45) for
symmetries, complete:7 for the polytope and theta:12 for points and
vertices.  Each family has exact counts valid at every size, so no slow
oracle is needed: spanning-tree counts (Cayley), lattice points and
vertices of the polytope D, facet counts and symmetry counts.

One structural fact explains the cographic complete-graph counts.  In
potential coordinates, D for cographic complete:k is the projection of the
cube [0,1]^k along (1, ..., 1): the lattice zonotope spanned by the k
vertex stars.  Its points are the 2^k - 2 proper nonempty vertex subsets
(each a vertex) plus the origin, and its facet pairs are the k(k-1)/2 edge
forms.  D is nevertheless not the shadow of the cube [-1,1]^N of its
N = k(k-1)/2 edge forms, so the zonotope flag reads no: D equals that
shadow exactly when the forms fall into n classes of parallel forms, and
the k(k-1)/2 edge forms, no two of them parallel, are more than
n = k - 1 classes.  On the same count the flag reads yes for the
one-dimensional systems, cographic theta:k and graphic cycle:k, and no for
graphic theta:k (k classes, n = k - 1) and cographic cycle:k (the same).
"""

from math import comb, factorial

import pytest

from unimod.catalog import make
from unimod.graphs import cographic_system, graphic_system
from unimod.lattice import (build_polytope_report, polytope_points,
                            vertex_test, zonotope_check)
from unimod.systems import (automorphism_count, complexity, direct_sum,
                            gale_dual)


def central_trinomial(k):
    """Coefficient of x^k in (1 + x + x^2)^k."""
    return sum(comb(k, 2 * j) * comb(2 * j, j) for j in range(k // 2 + 1))


@pytest.mark.parametrize("k", range(3, 13))
def test_complete_graph_complexity_is_cayley(k):
    g = make("complete", k)
    for s in (graphic_system(g), cographic_system(g)):
        assert complexity(s) == k ** (k - 2)
        assert complexity(gale_dual(s)) == k ** (k - 2)


@pytest.mark.parametrize("k", range(3, 8))
def test_cographic_complete_polytope(k):
    rep = build_polytope_report(cographic_system(make("complete", k)))
    assert len(rep.points) == 2 ** k - 1
    assert len(rep.vertices) == 2 ** k - 2
    assert 2 * len(rep.facet_pairs) == k * (k - 1)
    assert rep.reflexive_verified
    assert not rep.zonotope_verified


@pytest.mark.parametrize("k", range(3, 9))
def test_cographic_complete_symmetries(k):
    s = cographic_system(make("complete", k))
    assert automorphism_count(s) == 2 * factorial(k)


@pytest.mark.parametrize("k", range(3, 9))
def test_graphic_complete_symmetries(k):
    s = graphic_system(make("complete", k))
    assert automorphism_count(s) == 2 * factorial(k)


@pytest.mark.parametrize("k", (9, 10))
def test_complete_symmetries_beyond_a_search_per_orbit_element(k):
    # the k! vertex permutations and the global sign; counting each orbit
    # element by its own witness search took 0.4 s on graphic complete:9
    g = make("complete", k)
    for s in (graphic_system(g), cographic_system(g)):
        assert automorphism_count(s) == 2 * factorial(k)


@pytest.mark.parametrize("k", range(3, 13))
def test_theta_and_cycle_symmetries(k):
    # every permutation of the k edges, and the global sign
    for g in (make("theta", k), make("cycle", k)):
        for s in (graphic_system(g), cographic_system(g)):
            assert automorphism_count(s) == 2 * factorial(k)


@pytest.mark.parametrize("k", range(3, 13))
def test_graphic_theta(k):
    s = graphic_system(make("theta", k))
    assert complexity(s) == k
    points = polytope_points(s)
    assert len(points) == central_trinomial(k)
    vertices = sum(1 for v in points if vertex_test(s, v))
    half = k // 2
    assert vertices == (comb(k, half) if k % 2 == 0 else k * comb(k - 1, half))
    assert automorphism_count(s) == 2 * factorial(k)


@pytest.mark.parametrize("k", range(3, 13))
def test_cycle_complexity(k):
    g = make("cycle", k)
    assert complexity(graphic_system(g)) == k
    assert complexity(cographic_system(g)) == k


@pytest.mark.parametrize("k", range(3, 13))
def test_zonotope_flag_of_theta_and_cycle(k):
    theta, cycle = make("theta", k), make("cycle", k)
    pinned = [(cographic_system(theta), True), (graphic_system(cycle), True),
              (graphic_system(theta), False), (cographic_system(cycle), False)]
    for s, flag in pinned:
        assert zonotope_check(s) is flag
    for a, flag_a in pinned:
        for b, flag_b in pinned:
            assert zonotope_check(direct_sum(a, b)) is (flag_a and flag_b)
