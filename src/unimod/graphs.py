"""Oriented multigraphs and the unimodular systems they induce.

Edges act as functions on the cycle space (graphic system) or the cut space
(cographic system).  Each system is written straight in the standard form
that systems._standardize would give any presentation of it: over the
first maximal independent rows in edge order.  By the greedy algorithm,
for the cut space that base is the first spanning tree in edge order; by
matroid duality, for the cycle space it is the complement of the first
spanning tree in reverse edge order (Oxley, Matroid Theory, 1.8 and ch. 2).
One union-find (_forest) picks the tree.  Potentials p are integrated
along it from vertex 1 with p[head k] - p[tail k] = e_k on each tree edge
k; the fundamental-cut row of an edge f is then p[head f] - p[tail f].  On
one tree the cut rows are [I; Q] up to row order, and the fundamental-
cycle rows are their Gale partner [-Q^T; I], one unit row per chord: the
cut space reads the first, on the tree picked forward, and the cycle space
the second, on the tree picked backward, where -Q^T is read off subtree
sums (_cycle_table) in time the size of the table.  Bridges vanish on all
cycles and loops vanish on all cuts, and those zero rows are omitted.  Such
a system is totally unimodular by theorem (network matrices, Poincare), so
it is certified in O(N n), not by the minor scan, against the tree its base
rows name, which one walk checks to span; a failed certificate falls back to
the scan.  A system whose table would hold more than DEFAULT_CAP entries is
refused (CapError) before the table is built.  A disconnected graph is
refused with the smallest vertex that vertex 1 cannot reach.  Also
provides spanning-tree enumeration, Laplacians, and the
delete-loops/contract-bridges stabilization.
"""

from __future__ import annotations

from itertools import chain
from operator import add, neg, sub
from typing import NamedTuple

from .errors import (CapError, ConnectivityError, DegenerateSystemError,
                     PreconditionError)
from .intlinalg import IntMatrix
from .systems import (DEFAULT_CAP, UnimodularSystem, _forest,
                      enumerate_bases, from_matrix)


class Multigraph(NamedTuple):
    """Oriented multigraph; vertices are 1..vertex_count, edges (tail, head)."""

    vertex_count: int
    edges: tuple

    @classmethod
    def build(cls, vertex_count, edges):
        """Validated multigraph; edges must be a list or tuple of (tail, head)
        pairs, and the vertex count and every endpoint plain integers
        (PreconditionError otherwise, so 3.9 or True is never truncated)."""
        if type(vertex_count) is not int:
            raise PreconditionError(
                f"vertex count {vertex_count!r} is not an integer")
        if vertex_count < 1:
            raise PreconditionError("a multigraph needs at least one vertex")
        if not isinstance(edges, (list, tuple)):
            raise PreconditionError(f"edges {edges!r} is not a list of pairs")
        out = []
        for edge in edges:
            if not isinstance(edge, (tuple, list)) or len(edge) != 2:
                raise PreconditionError(f"edge {edge!r} is not a (tail, head) pair")
            t, h = edge
            if not (type(t) is int and type(h) is int):
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


def is_connected(g):
    """Whether g is connected: its Kruskal forest spans.  Fewer than V - 1
    edges answer at once."""
    size = g.vertex_count - 1
    return g.edge_count >= size and len(
        _forest(g.vertex_count, g.edges, range(g.edge_count))[0]) == size


def loops(g):
    """Indices of loop edges."""
    return tuple(i for i, (t, h) in enumerate(g.edges) if t == h)


def spanning_trees(g, cap=DEFAULT_CAP):
    """All spanning trees as lexicographic tuples of edge indices.

    The spanning trees of a connected graph are the bases of its cographic
    system, whose rows are the non-loop edges in order, so the trees are
    read off enumerate_bases, row r being the r-th non-loop edge: loops are
    in no tree, and bridges, unit summands of the system, are in every one.
    That map is increasing, so the trees come out in lexicographic order.
    A disconnected graph has none (empty list), as cographic_system's
    ConnectivityError says; a graph with one vertex has exactly the empty
    tree.  CapError once more than cap trees have been found.
    """
    too_many = f"spanning-tree enumeration exceeds cap {cap} trees"
    if g.vertex_count == 1:
        if cap < 1:
            raise CapError(too_many)
        return [()]
    try:
        s = cographic_system(g)
    except ConnectivityError:
        return []
    edge = [f for f, (t, h) in enumerate(g.edges) if t != h]
    try:
        bases = enumerate_bases(s, cap)
    except CapError:
        raise CapError(too_many) from None
    return [tuple(edge[r] for r in b) for b in bases]


_DISCONNECTED = "spanning tree needs a connected multigraph"


def _unreached(g):
    """The smallest vertex that vertex 1 cannot reach in a disconnected g.

    A search from vertex 1 over the edges, so O(E) time and space whatever
    the vertex count: the vertices it meets are at most E + 1.
    """
    around = {}
    for t, h in g.edges:
        around.setdefault(t, []).append(h)
        around.setdefault(h, []).append(t)
    seen = {1}
    stack = [1]
    while stack:
        for w in around.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return next(v for v in range(2, g.vertex_count + 1) if v not in seen)


def _first_tree(g, message, reverse=False):
    """Edge indices, ascending, of the first spanning tree in edge order.

    Kruskal's forest (_forest) over the edges in input order or in
    reverse.  By the greedy algorithm of matroids, it is the first maximal
    independent edge set of the cycle matroid in that order (Oxley,
    Matroid Theory, 1.8).  ConnectivityError(message), naming the smallest
    vertex that vertex 1 cannot reach, when g is disconnected; with fewer
    than V - 1 edges, that is found before any per-vertex work.
    """
    if g.edge_count >= g.vertex_count - 1:
        order = range(g.edge_count)
        tree, _ = _forest(g.vertex_count, g.edges,
                          order[::-1] if reverse else order)
        if len(tree) == g.vertex_count - 1:
            return tree[::-1] if reverse else tree
    raise ConnectivityError(message, vertex=_unreached(g))


def _potentials(g, steps):
    """Vertex potentials integrated from vertex 1 along a tree.

    steps maps edge indices to vectors of one length; p[1] is zero and
    p[head k] - p[tail k] = steps[k] on each edge k the walk takes, all of
    them on a tree.  A vertex the walk does not reach gets no potential.
    """
    around = [[] for _ in range(g.vertex_count + 1)]
    for k, step in steps.items():
        t, h = g.edges[k]
        around[t].append((h, add, step))
        around[h].append((t, sub, step))
    p = {1: (0,) * len(next(iter(steps.values()), ()))}
    stack = [1]
    while stack:
        u = stack.pop()
        for w, op, step in around[u]:
            if w not in p:
                p[w] = tuple(map(op, p[u], step))
                stack.append(w)
    return p


def _unit(i, n):
    return (0,) * i + (1,) + (0,) * (n - i - 1)


def _unit_potentials(g, tree):
    """Potentials under unit steps on the tree: p[head f] - p[tail f] is
    the fundamental-cut row of edge f, entry i being +-1 when the tree path
    from the tail of f to its head crosses tree[i] along or against its
    orientation, else 0."""
    return _potentials(g, {k: _unit(i, len(tree)) for i, k in enumerate(tree)})


def _cycle_table(g, message):
    """The tree picked backward, its chords (the other edges), and the row
    of each tree edge k over the chords' fundamental cycles.

    The cycle of chord j = (t, h) runs along it, then back through the tree
    from h to t, so it crosses k when k separates t from h.  Put +e_j at t
    and -e_j at h, and fold every vertex's sum into its parent's, leaves
    first, on the tree rooted at vertex 1 in the walk order of _potentials:
    k's row is then the sum at its lower end, negated when that end is k's
    tail.  O(V c) for c chords, the size of the table.
    """
    tree = _first_tree(g, message, reverse=True)
    in_tree = set(tree)
    chords = [f for f in range(g.edge_count) if f not in in_tree]
    order = {v: i for i, v in enumerate(_potentials(g, dict.fromkeys(tree, ())))}
    total = {v: [0] * len(chords) for v in order}
    for j, (t, h) in enumerate(map(g.edges.__getitem__, chords)):
        total[t][j] += 1
        total[h][j] -= 1
    rows = {}
    for k in sorted(tree, key=lambda k: -max(map(order.get, g.edges[k]))):
        t, h = g.edges[k]
        low, up = (h, t) if order[h] > order[t] else (t, h)
        total[up] = list(map(add, total[up], total[low]))
        rows[k] = tuple(total[low]) if low == h else tuple(map(neg, total[low]))
    return tree, chords, [rows[k] for k in tree]


def _bridges(g, message):
    tree, _, rows = _cycle_table(g, message)
    return tuple(k for k, row in zip(tree, rows) if not any(row))


def bridges(g):
    """Indices of bridges: the tree edges on the fundamental cycle of no
    chord.  The tree is the one graphic_system reads."""
    return _bridges(g, "bridges are defined for connected multigraphs")


def _is_cycle_matrix(g, kept, sys):
    """Whether sys is the fundamental-cycle matrix of a spanning tree of g.

    Row i is edge kept[i].  The tree is every edge but the base-row edges,
    the tail-row edges and the edges left out: V - 1 edges that a walk
    from vertex 1 takes to all V vertices.  Each column, read as an edge
    vector that is 0 on the edges left out, must be a circulation: zero
    signed sum at every vertex.  Its base-row entries are those of a unit
    vector, so it is then the fundamental cycle of its base edge, and sys
    is [I; network matrix] up to row order: totally unimodular.  O(N n).
    """
    base_edges = {kept[r] for r in sys.base_rows}
    tree = [k for k in range(g.edge_count) if k not in base_edges]
    if len(tree) != g.vertex_count - 1 or len(
            _potentials(g, dict.fromkeys(tree, ()))) != g.vertex_count:
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

    Row i is edge kept[i], and the base-row edges must form the tree.  With
    the base rows as steps, potentials p are integrated from vertex 1 along
    the base edges; they must reach all V vertices, and every row must
    read p[head] - p[tail].  Then the base edges span: each base row is a
    potential difference and a distinct unit vector, and round a cycle of
    base edges the signed differences sum to zero, which distinct unit
    vectors cannot; so the base edges are acyclic, and they reach every
    vertex.  Each column is then the cut of a unit tree edge, so sys is
    [I; transposed network matrix] up to row order: totally unimodular.
    O(N n).
    """
    rows = sys.a_matrix.row_list()
    p = _potentials(g, {kept[r]: rows[r] for r in sys.base_rows})
    return len(p) == g.vertex_count and all(
        row == tuple(map(sub, p[h], p[t]))
        for row, (t, h) in zip(rows, (g.edges[f] for f in kept)))


def _tree_certified(g, kept, rows, base, certificate):
    """The system of standard-form rows over base, labelled by edge.

    Row i is edge kept[i].  The base rows must be the unit vectors, in
    order, and the certificate checks the form against a spanning tree of
    g, in O(N n) and without the minor scan.  Should either fail, which
    would mean a construction bug, the rows go through the full
    from_matrix verification, so the verdict is never weaker than the
    scan's.
    """
    n = len(base)
    labels = tuple(f"e{f + 1}" for f in kept)
    sys = UnimodularSystem(n, IntMatrix(len(rows), n, tuple(
        chain.from_iterable(rows))), tuple(base), labels)
    if all(sys.row(r) == _unit(i, n) for i, r in enumerate(base)) and \
            certificate(g, kept, sys):
        return sys
    return from_matrix(rows, labels)


def graphic_system(g):
    """The system of edges acting on the cycle space of g.

    Its matroid is the dual of the graph's, so a set of edges is a base
    when the other edges form a spanning tree.  The tree is picked in
    reverse edge order (_first_tree), so its chords are the first maximal
    independent rows in edge order (matroid duality: Oxley, Matroid
    Theory, ch. 2), the base _standardize would pick from any presentation.
    The standard form is written at once: a chord's row is the unit vector
    of its own fundamental cycle, oriented along it, and a tree edge's row
    lists its coefficients on those cycles (_cycle_table).  Bridges lie on
    no cycle and are dropped.  A tree (no cycles at all) is degenerate.
    The form is certified totally unimodular by checking in O(N n) that it
    is the fundamental-cycle matrix of a spanning tree (see
    _is_cycle_matrix), not by a minor scan.  Its table holds a row of
    n = E - V + 1 entries for every edge, bridges included, before the
    bridges' zero rows are dropped; a connected graph for which E n would
    exceed DEFAULT_CAP is refused (CapError) before the table is built.
    """
    n = g.edge_count - g.vertex_count + 1
    if g.edge_count * n > DEFAULT_CAP:
        _first_tree(g, _DISCONNECTED)  # refuses a disconnected graph as such
        raise CapError(f"graphic system of {g.edge_count} x {n} entries "
                       f"exceeds cap {DEFAULT_CAP}")
    tree, chords, tree_rows = _cycle_table(g, _DISCONNECTED)
    if not chords:
        raise DegenerateSystemError("the graph is a tree: its cycle space is zero")
    row = dict(zip(tree, tree_rows))
    row.update((e, _unit(j, len(chords))) for j, e in enumerate(chords))
    kept = [f for f in range(g.edge_count) if any(row[f])]
    chord_set = set(chords)
    return _tree_certified(g, kept, [row[f] for f in kept],
                           [i for i, f in enumerate(kept) if f in chord_set],
                           _is_cycle_matrix)


def cographic_system(g):
    """The system of edges acting on the cut space of g.

    A set of edges is a base when it is a spanning tree.  The tree is
    picked in edge order (_first_tree), so it is the first maximal
    independent set of rows in edge order (the greedy algorithm: Oxley,
    Matroid Theory, 1.8), the base _standardize would pick from any
    presentation.  The standard form is written at once: under unit steps
    on the tree, every edge f reads its fundamental-cut row p[head f] -
    p[tail f], so tree edges read unit vectors (oriented so the edge
    crosses its cut positively).  Loops vanish on every cut and are
    dropped.  A single-vertex graph has a zero cut space.  The form is
    certified totally unimodular by checking in O(N n) that it is the
    fundamental-cut matrix of a spanning tree (see _is_cut_matrix), not by
    a minor scan.  A graph whose N non-loop edges and n = V - 1 give N n
    above DEFAULT_CAP is refused (CapError) before any potential is built.
    """
    tree = _first_tree(g, _DISCONNECTED)
    if not tree:
        raise DegenerateSystemError(
            "the graph has no spanning-tree edges: its cut space is zero")
    # the zero rows are the loops: distinct vertices have distinct tree paths
    kept = [f for f, (t, h) in enumerate(g.edges) if t != h]
    if len(kept) * len(tree) > DEFAULT_CAP:
        raise CapError(f"cographic system of {len(kept)} x {len(tree)} "
                       f"entries exceeds cap {DEFAULT_CAP}")
    p = _unit_potentials(g, tree)
    in_tree = set(tree)
    rows = [tuple(map(sub, p[h], p[t]))
            for t, h in map(g.edges.__getitem__, kept)]
    return _tree_certified(g, kept, rows,
                           [i for i, f in enumerate(kept) if f in in_tree],
                           _is_cut_matrix)


def laplacian(g):
    """Vertex Laplacian I^T I of the incidence matrix (loops contribute 0)."""
    inc = incidence_matrix(g)
    return inc.transpose() @ inc


def deleted_laplacian(g, v0=1):
    """Laplacian with row and column of vertex v0 removed.

    Equals the Gram matrix of the vertex cuts {boundary of v : v != v0};
    its determinant is the spanning-tree count (Kirchhoff).  v0 must be a
    plain integer in 1..vertex_count (PreconditionError otherwise).
    """
    if not (type(v0) is int and 1 <= v0 <= g.vertex_count):
        raise PreconditionError(f"vertex {v0!r} is not in 1..{g.vertex_count}")
    lap = laplacian(g)
    keep = [v - 1 for v in range(1, g.vertex_count + 1) if v != v0]
    return lap.submatrix(keep, keep)


def stabilize(g):
    """Delete loops, then contract every bridge.

    Once the loops are gone, contracting a bridge creates no loop and no
    new bridge, so one pass suffices: each class of vertices joined by
    bridges becomes one vertex, numbered by the rank of its smallest
    member.  A tree collapses to the one-vertex graph.  The bridges come
    from the tree graphic_system picks, in the same pass that checks that
    g is connected, and the classes from a union-find over the bridges.
    """
    cur = Multigraph(g.vertex_count, tuple(e for e in g.edges if e[0] != e[1]))
    br = set(_bridges(cur, "stabilize needs a connected multigraph"))
    if not br:
        return cur if cur.edge_count < g.edge_count else g
    _, find = _forest(g.vertex_count, cur.edges, br)
    # vertices in order, so classes come in order of their minima
    rank = {r: i for i, r in enumerate(
        dict.fromkeys(map(find, range(1, g.vertex_count + 1))), 1)}
    return Multigraph(len(rank), tuple(
        (rank[find(t)], rank[find(h)])
        for i, (t, h) in enumerate(cur.edges) if i not in br))
