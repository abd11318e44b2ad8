"""Oriented multigraphs and the unimodular systems they induce.

Edges act as functions on the cycle space (graphic system) or the cut space
(cographic system).  Bases are the fundamental cycles / fundamental cuts of
a deterministic BFS spanning tree, so the derived matrices are reproducible;
bridges vanish on all cycles and loops vanish on all cuts, and those zero
rows are omitted.  Such a system is totally unimodular by theorem (network
matrices, Poincare), so it is certified in O(N n) by checking its standard
form against a spanning tree of the graph, not by the minor scan; a failed
certificate falls back to the scan.  Also provides spanning-tree
enumeration, Laplacians, and the contract-bridges/delete-loops
stabilization.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import NamedTuple

from .errors import (CapError, ConnectivityError, DegenerateSystemError,
                     PreconditionError)
from .intlinalg import IntMatrix
from .systems import _standardize, from_matrix

DEFAULT_TREE_CAP = 16


class Multigraph(NamedTuple):
    """Oriented multigraph; vertices are 1..vertex_count, edges (tail, head)."""

    vertex_count: int
    edges: tuple

    @classmethod
    def build(cls, vertex_count, edges):
        """Validated multigraph; the vertex count and every endpoint must be
        plain integers (PreconditionError otherwise, so 3.9 or True is never
        truncated)."""
        if not isinstance(vertex_count, int) or isinstance(vertex_count, bool):
            raise PreconditionError(
                f"vertex count {vertex_count!r} is not an integer")
        if vertex_count < 1:
            raise PreconditionError("a multigraph needs at least one vertex")
        out = []
        for t, h in edges:
            if any(not isinstance(x, int) or isinstance(x, bool)
                   for x in (t, h)):
                raise PreconditionError(
                    f"edge ({t!r}, {h!r}) has a non-integer endpoint")
            if not (1 <= t <= vertex_count and 1 <= h <= vertex_count):
                raise PreconditionError(
                    f"edge ({t},{h}) outside vertex range 1..{vertex_count}")
            out.append((t, h))
        return cls(vertex_count, tuple(out))

    @property
    def edge_count(self):
        return len(self.edges)


def incidence_matrix(g):
    """Edge-by-vertex incidence: +1 at the head, -1 at the tail, loops zero."""
    rows = []
    for t, h in g.edges:
        row = [0] * g.vertex_count
        if t != h:
            row[t - 1] -= 1
            row[h - 1] += 1
        rows.append(row)
    return IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, g.vertex_count)


def _components(vertex_count, edges):
    """Connected components as a vertex -> representative map (union-find)."""
    parent = list(range(vertex_count + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, h in edges:
        rt, rh = find(t), find(h)
        if rt != rh:
            parent[rh] = rt
    return {v: find(v) for v in range(1, vertex_count + 1)}


def is_connected(g):
    comp = _components(g.vertex_count, g.edges)
    return len(set(comp.values())) == 1


def loops(g):
    """Indices of loop edges."""
    return tuple(i for i, (t, h) in enumerate(g.edges) if t == h)


def bridges(g):
    """Indices of bridges, by per-edge deletion-connectivity (exact)."""
    if not is_connected(g):
        raise ConnectivityError("bridges are defined for connected multigraphs")
    out = []
    for i in range(g.edge_count):
        rest = g.edges[:i] + g.edges[i + 1:]
        comp = _components(g.vertex_count, rest)
        if len(set(comp.values())) > 1:
            out.append(i)
    return tuple(out)


def spanning_trees(g, cap=DEFAULT_TREE_CAP):
    """All spanning trees as lexicographic tuples of edge indices.

    A disconnected graph has none (empty list); the one-vertex graph has
    exactly the empty tree.
    """
    if g.edge_count > cap:
        raise CapError(f"spanning-tree enumeration over {g.edge_count} edges "
                       f"exceeds cap {cap}")
    m = g.vertex_count
    out = []
    for subset in combinations(range(g.edge_count), m - 1):
        comp = _components(m, [g.edges[i] for i in subset])
        if len(set(comp.values())) == 1:
            out.append(subset)
    return out


def bfs_tree(g):
    """Edge indices of the BFS spanning tree from vertex 1, edges scanned in
    input order; also returns the parent structure for path finding."""
    if not is_connected(g):
        raise ConnectivityError("spanning tree needs a connected multigraph")
    visited = {1}
    queue = deque([1])
    tree = []
    parent = {}  # vertex -> (edge index, parent vertex)
    while queue:
        u = queue.popleft()
        for k, (t, h) in enumerate(g.edges):
            if t == h:
                continue
            w = h if t == u else (t if h == u else None)
            if w is not None and w not in visited:
                visited.add(w)
                tree.append(k)
                parent[w] = (k, u)
                queue.append(w)
    return tuple(sorted(tree)), parent


def _tree_walk(edges, parent, src, dst):
    """Walk src -> dst through the tree: list of (edge index, +-1).

    The sign is +1 when the step traverses the edge from its tail to its
    head, -1 against its orientation.
    """
    def ancestors(v):
        seq = [v]
        while v in parent:
            v = parent[v][1]
            seq.append(v)
        return seq

    on_dst_path = set(ancestors(dst))
    lca = next(v for v in ancestors(src) if v in on_dst_path)
    walk = []
    v = src
    while v != lca:
        k, p = parent[v]
        walk.append((k, 1 if edges[k][0] == v else -1))
        v = p
    down = []
    v = dst
    while v != lca:
        k, p = parent[v]
        down.append((k, 1 if edges[k][0] == p else -1))
        v = p
    walk.extend(reversed(down))
    return walk


def _edge_rows(g, vectors):
    """Rows of the edges on which some vector is nonzero, and those edges.

    vectors are the base cycles or cuts as edge coefficient maps; row f
    reads edge f off each of them.
    """
    rows = []
    kept = []
    for f in range(g.edge_count):
        row = tuple(v.get(f, 0) for v in vectors)
        if any(row):
            rows.append(row)
            kept.append(f)
    return rows, kept


def _cycle_rows(g):
    """Raw graphic rows: every non-bridge edge on the BFS fundamental cycles.

    Returns (rows, kept) with kept[i] the edge of row i.
    """
    tree, parent = bfs_tree(g)
    non_tree = [k for k in range(g.edge_count) if k not in set(tree)]
    if not non_tree:
        raise DegenerateSystemError("the graph is a tree: its cycle space is zero")
    # fundamental cycle of non-tree edge e: e itself, then back through the tree
    cycles = []
    for e in non_tree:
        t, h = g.edges[e]
        coeff = {e: 1}
        if t != h:
            for k, direction in _tree_walk(g.edges, parent, h, t):
                coeff[k] = coeff.get(k, 0) + direction
        cycles.append(coeff)
    return _edge_rows(g, cycles)


def _cut_rows(g):
    """Raw cographic rows: every non-loop edge on the BFS fundamental cuts.

    Returns (rows, kept) with kept[i] the edge of row i.
    """
    tree, _ = bfs_tree(g)
    if not tree:
        raise DegenerateSystemError(
            "the graph has no spanning-tree edges: its cut space is zero")
    cuts = []
    for e in tree:
        # vertex side V'' = component of (tree - e) containing head(e)
        rest = [g.edges[k] for k in tree if k != e]
        comp = _components(g.vertex_count, rest)
        side = comp[g.edges[e][1]]
        cuts.append({f: (comp[h] == side) - (comp[t] == side)
                     for f, (t, h) in enumerate(g.edges)})
    return _edge_rows(g, cuts)


def _spans_tree(g, tree):
    """Whether the edge indices in tree form a spanning tree of g."""
    edges = [g.edges[k] for k in tree]
    return (len(edges) == g.vertex_count - 1
            and len(set(_components(g.vertex_count, edges).values())) == 1)


def _is_cycle_matrix(g, kept, sys):
    """Whether sys is the fundamental-cycle matrix of a spanning tree of g.

    Row i is edge kept[i].  The tree is every edge but the base-row edges,
    so it holds the tail-row edges and the edges left out.  Each column,
    read as an edge vector that is 0 on the edges left out, must be a
    circulation: zero signed sum at every vertex.  Its base-row entries are
    those of a unit vector, so it is then the fundamental cycle of its base
    edge, and sys is [I; network matrix] up to row order: totally
    unimodular.  O(N n).
    """
    base_edges = {kept[r] for r in sys.base_rows}
    if not _spans_tree(g, [k for k in range(g.edge_count)
                           if k not in base_edges]):
        return False
    excess = [[0] * sys.n for _ in range(g.vertex_count + 1)]
    for f, row in zip(kept, sys.a_matrix.row_list()):
        t, h = g.edges[f]
        at_t, at_h = excess[t], excess[h]
        for j, x in enumerate(row):
            if x:
                at_h[j] += x
                at_t[j] -= x
    return not any(map(any, excess))


def _is_cut_matrix(g, kept, sys):
    """Whether sys is the fundamental-cut matrix of a spanning tree of g.

    Row i is edge kept[i], and the base-row edges must form the tree.  For
    each column, potentials p are integrated along the tree from vertex 1
    so that p[head] - p[tail] is the column's entry on every tree edge;
    then every row must read p[head] - p[tail] as well.  The column is the
    cut of a unit tree edge, so sys is [I; transposed network matrix] up to
    row order: totally unimodular.  O(N n).
    """
    if not _spans_tree(g, [kept[r] for r in sys.base_rows]):
        return False
    rows = sys.a_matrix.row_list()
    around = {v: [] for v in range(1, g.vertex_count + 1)}
    for r in sys.base_rows:
        t, h = g.edges[kept[r]]
        around[t].append((h, rows[r]))
        around[h].append((t, tuple(-x for x in rows[r])))
    potential = {1: (0,) * sys.n}
    stack = [1]
    while stack:
        u = stack.pop()
        for w, step in around[u]:
            if w not in potential:
                potential[w] = tuple(x + y for x, y in zip(potential[u], step))
                stack.append(w)
    return all(row == tuple(x - y for x, y in zip(potential[h], potential[t]))
               for row, (t, h) in zip(rows, (g.edges[f] for f in kept)))


def _tree_certified(g, rows, kept, certificate):
    """The system of rows, labelled by edge, certified by its spanning tree.

    The rows are put in standard form without the minor scan, and the
    certificate checks that form against g.  Should it fail, which would
    mean a construction bug, the rows go through the full from_matrix
    verification, so the verdict is never weaker than the scan's.
    """
    labels = [f"e{f + 1}" for f in kept]
    sys = _standardize(rows, labels)
    if certificate(g, kept, sys):
        return sys
    return from_matrix(rows, labels)


def graphic_system(g):
    """The system of edges acting on the cycle space of g.

    The base is the set of fundamental cycles of the BFS tree, one per
    non-tree edge and oriented along it, so non-tree edge rows come out as
    unit vectors.  Bridges lie on no cycle and are dropped.  A tree (no
    cycles at all) is degenerate.  The standard form is certified totally
    unimodular by checking in O(N n) that it is the fundamental-cycle
    matrix of a spanning tree (see _is_cycle_matrix), not by a minor scan.
    """
    rows, kept = _cycle_rows(g)
    return _tree_certified(g, rows, kept, _is_cycle_matrix)


def cographic_system(g):
    """The system of edges acting on the cut space of g.

    The base is the set of fundamental cuts of the BFS tree, one per tree
    edge e (oriented so e crosses positively).  Loops vanish on every cut
    and are dropped.  A single-vertex graph has a zero cut space.  The
    standard form is certified totally unimodular by checking in O(N n)
    that it is the fundamental-cut matrix of a spanning tree (see
    _is_cut_matrix), not by a minor scan.
    """
    rows, kept = _cut_rows(g)
    return _tree_certified(g, rows, kept, _is_cut_matrix)


def laplacian(g):
    """Vertex Laplacian I^T I of the incidence matrix (loops contribute 0)."""
    inc = incidence_matrix(g)
    return inc.transpose() @ inc


def deleted_laplacian(g, v0=1):
    """Laplacian with row and column of vertex v0 removed.

    Equals the Gram matrix of the vertex cuts {boundary of v : v != v0};
    its determinant is the spanning-tree count (Kirchhoff).
    """
    lap = laplacian(g)
    keep = [v - 1 for v in range(1, g.vertex_count + 1) if v != v0]
    return lap.submatrix(keep, keep)


def stabilize(g):
    """Delete loops and contract bridges until neither remains.

    Contraction can create new loops from parallel bridges, so the two moves
    alternate to a fixed point.  A tree collapses to the one-vertex graph.
    """
    if not is_connected(g):
        raise ConnectivityError("stabilize needs a connected multigraph")
    cur = g
    changed = False
    while True:
        lp = loops(cur)
        if lp:
            keep = [e for i, e in enumerate(cur.edges) if i not in set(lp)]
            cur = Multigraph(cur.vertex_count, tuple(keep))
            changed = True
            continue
        br = bridges(cur)
        if not br:
            return cur if changed else g
        # contract the first bridge: merge the larger endpoint into the smaller
        e = br[0]
        t, h = cur.edges[e]
        a, z = min(t, h), max(t, h)

        def remap(v):
            if v == z:
                return a
            return v - 1 if v > z else v

        new_edges = tuple((remap(t2), remap(h2))
                          for i, (t2, h2) in enumerate(cur.edges) if i != e)
        cur = Multigraph(cur.vertex_count - 1, new_edges)
        changed = True
