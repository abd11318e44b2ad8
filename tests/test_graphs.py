"""Graph-derived systems: cycles, cuts, tree counting, stabilization."""

import random
import time
from collections import deque
from enum import IntEnum

import pytest

from unimod import graphs
from unimod.catalog import make
from unimod.errors import (
    CapError,
    ConnectivityError,
    DegenerateSystemError,
    PreconditionError,
)
from unimod.graphs import (
    Multigraph,
    bridges,
    cographic_system,
    deleted_laplacian,
    graphic_system,
    incidence_matrix,
    is_connected,
    laplacian,
    loops,
    spanning_trees,
    stabilize,
)
from unimod.intlinalg import determinant
from unimod.systems import are_isomorphic, complexity

from test_properties import bfs_tree, random_multigraph_with_loops


def _theta(n):
    return Multigraph.build(2, [(1, 2)] * n)


def _triangle():
    return Multigraph.build(3, [(1, 2), (2, 3), (3, 1)])


def _path(n):
    return Multigraph.build(n, [(i, i + 1) for i in range(1, n)])


# ---------------------------------------------------------------------------
# basic structure


def test_build_validates_endpoints():
    with pytest.raises(PreconditionError):
        Multigraph.build(2, [(1, 3)])
    with pytest.raises(PreconditionError):
        Multigraph.build(0, [])


class _V(IntEnum):
    A = 1
    B = 2


@pytest.mark.parametrize("vertex_count, edges", [
    (3.9, [(1, 2), (2, 3)]),       # float vertex count, truncated to 3
    (3.0, [(1, 2)]),               # integral float
    (True, []),                    # boolean vertex count
    (3, [(1.2, 2), (2, 3)]),       # float endpoint
    (3, [(1, 2), (2, 3.0)]),       # integral float endpoint
    (3, [(True, 2)]),              # boolean endpoint
    (3, [("1", 2)]),               # string endpoint
    pytest.param(_V.B, [(1, 2)], id="IntEnum-vertex-count"),
    pytest.param(2, [(_V.A, 2)], id="IntEnum-endpoint"),
])
def test_build_rejects_non_integer_ids(vertex_count, edges):
    with pytest.raises(PreconditionError):
        Multigraph.build(vertex_count, edges)


@pytest.mark.parametrize("edges", [
    [(1, 2, 3)],  # a triple, not a pair
    [1],          # a bare vertex
    5,            # not a list of edges at all
    None,
    {(1, 2): "x"},  # a dict is not read through its keys
])
def test_build_rejects_an_edge_that_is_not_a_pair(edges):
    with pytest.raises(PreconditionError):
        Multigraph.build(3, edges)


def test_incidence_matrix_signs():
    g = Multigraph.build(3, [(1, 2), (3, 2), (1, 1)])
    m = incidence_matrix(g)
    assert m.to_lists() == [[-1, 1, 0], [0, 1, -1], [0, 0, 0]]  # loop row zero
    assert incidence_matrix(Multigraph.build(3, [])) == (0, 3, ())  # no edges


def test_connectivity_and_loops():
    assert is_connected(_triangle())
    assert not is_connected(Multigraph.build(4, [(1, 2), (3, 4)]))
    g = Multigraph.build(2, [(1, 1), (1, 2)])
    assert loops(g) == (0,)
    assert bridges(g) == (1,)


def test_bridges_requires_connected():
    with pytest.raises(ConnectivityError):
        bridges(Multigraph.build(3, [(1, 2)]))


def test_too_few_edges_fail_before_per_vertex_work():
    # a billion vertices and one edge: a per-vertex table would need many GB
    g = Multigraph.build(10**9, [(1, 2)])
    start = time.perf_counter()
    assert not is_connected(g)
    assert spanning_trees(g) == []
    for derive in (bfs_tree, graphic_system, cographic_system, bridges,
                   stabilize):
        with pytest.raises(ConnectivityError):
            derive(g)
    assert time.perf_counter() - start < 0.5


def bfs_unreached(g):
    """The smallest vertex a plain BFS from vertex 1 does not reach, or None."""
    seen = {1}
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for t, h in g.edges:
            for a, b in ((t, h), (h, t)):
                if a == u and b not in seen:
                    seen.add(b)
                    queue.append(b)
    return next((v for v in range(1, g.vertex_count + 1) if v not in seen),
                None)


def _cut_apart(rng):
    """A random multigraph with loops, cut apart: a few extra vertices, and
    its edges shuffled and some dropped."""
    g = random_multigraph_with_loops(rng)
    edges = list(g.edges)
    rng.shuffle(edges)
    del edges[:rng.randint(0, len(edges))]
    return Multigraph.build(g.vertex_count + rng.randint(0, 2), edges)


def test_disconnected_graphs_name_the_smallest_unreached_vertex():
    rng = random.Random(170824)
    cases = [_cut_apart(rng) for _ in range(300)]
    wants = [bfs_unreached(g) for g in cases]
    # both branches: fewer than V - 1 edges, and enough edges but disconnected
    assert any(w and g.edge_count < g.vertex_count - 1
               for g, w in zip(cases, wants))
    assert any(w and g.edge_count >= g.vertex_count - 1
               for g, w in zip(cases, wants))
    assert None in wants
    for g, want in zip(cases, wants):
        for derive in (graphic_system, cographic_system, bridges, stabilize):
            if want is None:
                try:
                    derive(g)
                except DegenerateSystemError:
                    pass
                continue
            with pytest.raises(ConnectivityError) as info:
                derive(g)
            assert info.value.vertex == want, (g, derive)
            assert info.value.witness() == {"vertex": want}


@pytest.mark.parametrize("edges, vertex", [
    ([(1, 2)], 3),
    ([(2, 3)], 2),
    ([(1, 1), (4, 2), (1, 4), (3, 5)], 3),
])
def test_unreached_vertex_without_per_vertex_work(edges, vertex):
    # a billion vertices: the witness comes from the edges alone
    g = Multigraph.build(10**9, edges)
    start = time.perf_counter()
    for derive in (graphic_system, cographic_system, bridges, stabilize):
        with pytest.raises(ConnectivityError) as info:
            derive(g)
        assert info.value.vertex == vertex
    assert time.perf_counter() - start < 0.5


def test_bfs_tree_deterministic_first_edges():
    g = Multigraph.build(3, [(2, 3), (1, 2), (1, 3)])
    tree, parent = bfs_tree(g)
    assert tree == (1, 2)          # earliest edges reaching each new vertex
    assert parent[2] == (1, 1) and parent[3] == (2, 1)


# ---------------------------------------------------------------------------
# spanning trees / Kirchhoff


@pytest.mark.parametrize("g,count", [
    (_theta(3), 3),
    (_triangle(), 3),
    (_path(4), 1),
    (Multigraph.build(1, []), 1),
])
def test_spanning_tree_counts(g, count):
    assert len(spanning_trees(g)) == count


def test_spanning_trees_disconnected_none():
    assert spanning_trees(Multigraph.build(4, [(1, 2), (3, 4)])) == []


def test_spanning_trees_cap():
    with pytest.raises(CapError):
        spanning_trees(make("complete", 5), cap=9)


@pytest.mark.parametrize("g", [make("complete", 5), _theta(3),
                               Multigraph.build(1, [(1, 1)])],
                         ids=["complete:5", "theta:3", "one-vertex"])
def test_spanning_trees_cap_counts_trees(g):
    # the cap counts the trees found: as many as there are is enough, one
    # fewer is not, even for the one-vertex graph's empty tree (cap 0)
    c = determinant(deleted_laplacian(g))
    assert len(spanning_trees(g, cap=c)) == c
    with pytest.raises(CapError, match=f"exceeds cap {c - 1} trees"):
        spanning_trees(g, cap=c - 1)


def test_spanning_trees_of_complete_8_within_the_default_budget():
    trees = spanning_trees(make("complete", 8))
    assert len(trees) == 8 ** 6 == 262144
    assert trees[0] == (0, 1, 2, 3, 4, 5, 6) and trees == sorted(trees)


def test_laplacian_row_sums_zero():
    lap = laplacian(make("complete", 4))
    for i in range(4):
        assert sum(lap[i, j] for j in range(4)) == 0


@pytest.mark.parametrize("g", [
    _triangle(), _theta(4), make("complete", 4), make("complete", 5)])
def test_kirchhoff_matches_enumeration(g):
    assert determinant(deleted_laplacian(g)) == len(spanning_trees(g))


@pytest.mark.parametrize("v0", [0, 5, -1, 2.0, True,
                                pytest.param(_V.A, id="IntEnum")])
def test_deleted_laplacian_needs_a_vertex(v0):
    # out of range, v0 once deleted nothing: the full singular Laplacian
    with pytest.raises(PreconditionError):
        deleted_laplacian(make("complete", 4), v0)


# ---------------------------------------------------------------------------
# graphic / cographic systems


def test_graphic_theta3_exact_matrix():
    s = graphic_system(_theta(3))
    assert s.a_matrix.to_lists() == [[1, 0], [0, 1], [-1, -1]]
    assert s.labels == ("e1", "e2", "e3")


def test_cographic_theta_is_repeated_form():
    for n in range(2, 6):
        assert are_isomorphic(cographic_system(_theta(n)),
                              make("sigma", n)) is not None


def test_graphic_cycle_is_repeated_form():
    for n in range(3, 7):
        s = graphic_system(make("cycle", n))
        assert s.n == 1 and s.N == n
        assert are_isomorphic(s, make("sigma", n)) is not None


def test_graphic_of_tree_degenerate():
    with pytest.raises(DegenerateSystemError):
        graphic_system(_path(3))


def test_cographic_of_loop_only_degenerate():
    with pytest.raises(DegenerateSystemError):
        cographic_system(Multigraph.build(1, [(1, 1)]))


def test_bridge_rows_absent_from_graphic():
    # triangle plus a pendant edge: the bridge contributes no cycle row
    g = Multigraph.build(4, [(1, 2), (2, 3), (3, 1), (3, 4)])
    s = graphic_system(g)
    assert s.N == 3
    assert s.labels == ("e1", "e2", "e3")


def test_loop_rows_absent_from_cographic():
    g = Multigraph.build(2, [(1, 1), (1, 2), (1, 2)])
    s = cographic_system(g)
    assert s.N == 2


def test_cycle_and_cut_spaces_orthogonal():
    # fundamental cycles pair to zero with fundamental cuts, edge by edge
    for g in (make("complete", 4), make("complete", 5), _theta(4)):
        gr, co = graphic_system(g), cographic_system(g)
        cyc = {gr.label(i): gr.a_matrix.row(i) for i in range(gr.N)}
        cut = {co.label(i): co.a_matrix.row(i) for i in range(co.N)}
        edges = [f"e{k + 1}" for k in range(g.edge_count)]
        for ci in range(gr.n):
            for cj in range(co.n):
                s = sum(cyc[e][ci] * cut[e][cj] for e in edges
                        if e in cyc and e in cut)
                # edges missing from one side contribute zero coefficients
                assert s == 0


def test_graphic_cographic_complexity_equal():
    for g in (make("complete", 4), _theta(5), make("cycle", 5)):
        assert complexity(graphic_system(g)) == complexity(cographic_system(g))


@pytest.mark.parametrize("build,k", [
    (graphic_system, 6), (cographic_system, 7), (cographic_system, 8)])
def test_complete_graph_systems_at_the_certification_frontier(build, k):
    """Complete-graph systems build certified, with Cayley's tree count.

    The certificate is the spanning tree their standard form is read off, a
    check in O(N n).  The tail-minor scan of raw input costs one minor per
    base instead: k^(k-2), 262144 for cographic K8.
    """
    s = build(make("complete", k))
    assert s.N == k * (k - 1) // 2
    assert complexity(s) == k ** (k - 2)  # Cayley / Kirchhoff tree count


# ---------------------------------------------------------------------------
# stabilization


def test_stabilize_removes_loops_and_bridges():
    g = Multigraph.build(4, [(1, 1), (1, 2), (2, 3), (3, 1), (3, 4)])
    h = stabilize(g)
    assert h.vertex_count == 3 and h.edge_count == 3
    assert not loops(h) and not bridges(h)


def test_stabilize_fixpoint_returns_same_object():
    g = _triangle()
    assert stabilize(g) is g


def test_stabilize_tree_collapses_to_point():
    h = stabilize(_path(4))
    assert h.vertex_count == 1 and h.edge_count == 0


@pytest.mark.parametrize("derive, g, shape", [
    (graphic_system, make("theta", 1001), "1001 x 1000"),
    (graphic_system, make("theta", 2000), "2000 x 1999"),
    (graphic_system, make("complete", 46), "1035 x 990"),
    (cographic_system, make("cycle", 1001), "1001 x 1000"),
    (cographic_system, make("cycle", 100000), "100000 x 99999"),
    (cographic_system, make("complete", 127), "8001 x 126"),
])
def test_derived_system_past_the_budget_is_refused_unbuilt(monkeypatch,
                                                           derive, g, shape):
    # a row of n entries per edge (graphic n = E - V + 1, cographic
    # n = V - 1) would exceed DEFAULT_CAP: refused before the cycle table
    # or the potentials are built.  Only inputs above the bound are built
    # here, and none of their tables
    def refuse(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr(graphs, "_cycle_table", refuse)
    monkeypatch.setattr(graphs, "_unit_potentials", refuse)
    kind = derive.__name__.split("_")[0]
    with pytest.raises(CapError, match=f"^{kind} system of {shape} entries "
                                       "exceeds cap 1000000$"):
        derive(g)


@pytest.mark.parametrize("derive", [graphic_system, cographic_system])
def test_disconnected_graph_past_the_budget_is_refused_as_disconnected(derive):
    g = Multigraph.build(1100, [(1, 2)] * 1100 + [(k, k + 1)
                                                   for k in range(2, 1099)])
    with pytest.raises(ConnectivityError) as info:
        derive(g)
    assert info.value.vertex == 1100
