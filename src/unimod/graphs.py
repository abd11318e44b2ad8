"""Oriented multigraphs and the unimodular systems they induce.

Edges act as functions on the cycle space (graphic system) or the cut space
(cographic system).  Bases are the fundamental cycles / fundamental cuts of
a deterministic BFS spanning tree, so the derived matrices are reproducible;
bridges vanish on all cycles and loops vanish on all cuts, and those zero
rows are omitted.  Also provides spanning-tree enumeration, Laplacians, and
the contract-bridges/delete-loops stabilization.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .errors import (CapError, ConnectivityError, DegenerateSystemError,
                     PreconditionError)
from .intlinalg import IntMatrix
from .systems import from_matrix

DEFAULT_TREE_CAP = 16


@dataclass(frozen=True)
class Multigraph:
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


def graphic_system(g):
    """The system of edges acting on the cycle space of g.

    The base is the set of fundamental cycles of the BFS tree, one per
    non-tree edge and oriented along it, so non-tree edge rows come out as
    unit vectors.  Bridges lie on no cycle and are dropped.  A tree (no
    cycles at all) is degenerate.
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
    rows = []
    kept = []
    for f in range(g.edge_count):
        row = tuple(c.get(f, 0) for c in cycles)
        if any(row):
            rows.append(row)
            kept.append(f)
    return from_matrix(IntMatrix.from_rows(rows),
                       labels=[f"e{f + 1}" for f in kept])


def cographic_system(g):
    """The system of edges acting on the cut space of g.

    The base is the set of fundamental cuts of the BFS tree, one per tree
    edge e (oriented so e crosses positively).  Loops vanish on every cut
    and are dropped.  A single-vertex graph has a zero cut space.
    """
    tree, _ = bfs_tree(g)
    if not tree:
        raise DegenerateSystemError(
            "the graph has no spanning-tree edges: its cut space is zero")
    tree_set = set(tree)
    cuts = []
    for e in tree:
        # vertex side V'' = component of (tree - e) containing head(e)
        rest = [g.edges[k] for k in tree if k != e]
        comp = _components(g.vertex_count, rest)
        t0, h0 = g.edges[e]
        side = comp[h0]
        cut = []
        for (t, h) in g.edges:
            v = (1 if comp[h] == side else 0) - (1 if comp[t] == side else 0)
            cut.append(v)
        cuts.append(cut)
    rows = []
    kept = []
    for f in range(g.edge_count):
        row = tuple(c[f] for c in cuts)
        if any(row):
            rows.append(row)
            kept.append(f)
    return from_matrix(IntMatrix.from_rows(rows),
                       labels=[f"e{f + 1}" for f in kept])


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
