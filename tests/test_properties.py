"""Randomized consistency checks across module boundaries.

Each test draws small random multigraphs (or systems derived from them)
with a fixed seed and confirms that independently computed quantities
agree: tree counts against Gram determinants, duals against cut-space
derivations, scans against their defining inequalities, and each fast path
against the slow routine it replaced, kept here as a test-only oracle: the
tail-minor total-unimodularity scan (along rows or columns) against a scan
over every square minor, the certification by one Ghouila-Houri pass
over line subsets against the unbudgeted walk, its verdicts against the
signed-sum search and the full scan, its deletions of unit
and parallel lines and its block split against the full scan, the
base-coordinate point search against the cube scan, the bases read off
the nonzero tail minors against a scan over all row subsets, the
spanning trees read off the cographic bases against a scan over all edge
subsets, the closed-form zonotope verdict against the sign-vector scan,
the stabilizer-chain automorphism count against the search that visits
one leaf per automorphism, the GF(2) vertex test
against the Hermite rank of the active rows, the one-pass standardization
against the first base by Hermite ranks with the adjugate expansion, and
the cycle rows, cut rows, bridges and stabilization read off one
tree-potential map against the tree walks, union-finds, deletion tests and
contraction loop they replaced, the cycle table by subtree sums against
the unit potentials it replaced, the complexity on the short side of the
tail against the Gram determinant, the graph systems written in standard form
over the edge-order spanning tree against the raw rows on the BFS tree put
in standard form by elimination, the direct sums and unit-free cores
written without elimination against the same rows standardized, the one
union-find and the certificates that check their own tree against the
component map and the spanning check they replaced, and the one-pass
isomorphism completion against the two-pass one.
"""

import gc
import math
import random
from collections import Counter, deque
from functools import cache
from itertools import combinations, product
from math import factorial, prod
from operator import sub

import pytest

from unimod import graphs, intlinalg, systems
from unimod.catalog import _BIXBY_SEYMOUR_RAW, make
from unimod.errors import (
    CapError,
    ConnectivityError,
    DegenerateSystemError,
    NotUnimodularError,
    PreconditionError,
    RankError,
    UnimodError,
)
from unimod.graphs import (
    Multigraph,
    _bridges,
    _is_cut_matrix,
    _is_cycle_matrix,
    _potentials,
    _tree_certified,
    _unit,
    bridges,
    cographic_system,
    deleted_laplacian,
    graphic_system,
    is_connected,
    loops,
    spanning_trees,
    stabilize,
)
from unimod.intlinalg import (
    IntMatrix,
    _det,
    adjugate,
    determinant,
    dot,
    kernel_basis,
    rank,
    vecmat,
)
from unimod.lattice import (
    _box_points,
    _coefficients,
    build_polytope_report,
    facets,
    polytope_points,
    short_vector_census,
    vertex_test,
    zonotope_check,
    zonotope_witness,
)
from unimod.systems import (
    EMPTY_SYSTEM,
    SignedCorrespondence,
    UnimodularSystem,
    _bicolored,
    _normalize_row,
    _reduced_blocks,
    _standardize,
    _tail_block,
    _tail_minors,
    _tu_witness,
    are_isomorphic,
    automorphism_count,
    check_labels,
    complexity,
    direct_sum,
    enumerate_bases,
    form_pairing_matrix,
    from_matrix,
    gale_dual,
    gram_matrix,
    multiplicity_classes,
    split_upsilon,
)

from test_acceptance import (
    _projection_rows,
    _shadow_inside_section,
    adjugate_basic_vertices,
    catalog_sweep,
    combinations_bases,
)


def random_connected_multigraph(rng, nverts, extra):
    """A random tree on nverts vertices plus `extra` further edges."""
    edges = [(rng.randint(1, v - 1), v) for v in range(2, nverts + 1)]
    while len(edges) < nverts - 1 + extra:
        a, b = rng.randint(1, nverts), rng.randint(1, nverts)
        if a != b:
            edges.append((a, b))
    return Multigraph.build(nverts, edges)


def random_graphic_system(rng):
    g = random_connected_multigraph(rng, rng.randint(3, 5), rng.randint(1, 3))
    return graphic_system(stabilize(g)), g


def test_discriminant_counts_spanning_trees():
    rng = random.Random(170801)
    for _ in range(8):
        s, g = random_graphic_system(rng)
        trees = determinant(deleted_laplacian(g))
        assert trees == len(spanning_trees(g))
        assert complexity(s) == trees
        assert len(enumerate_bases(s)) == trees


def test_dual_of_cycle_space_is_cut_space():
    rng = random.Random(170802)
    for _ in range(5):
        g = random_connected_multigraph(rng, rng.randint(3, 5),
                                        rng.randint(1, 2))
        h = stabilize(g)
        cyc, cut = graphic_system(h), cographic_system(h)
        assert complexity(cyc) == complexity(cut)
        corr = are_isomorphic(gale_dual(cyc), cut)
        assert corr is not None and corr.verify(gale_dual(cyc), cut)


def test_dual_preserves_complexity():
    rng = random.Random(170803)
    for _ in range(8):
        s, _ = random_graphic_system(rng)
        assert complexity(gale_dual(s)) == complexity(s)


def test_double_dual_recovers_the_core():
    rng = random.Random(170804)
    for _ in range(5):
        s, _ = random_graphic_system(rng)
        if rng.random() < 0.5:
            s = direct_sum(make("upsilon", rng.randint(1, 2)), s)
        core = split_upsilon(s).core
        assert are_isomorphic(gale_dual(gale_dual(s)), core) is not None


def test_direct_sum_complexity_is_multiplicative():
    rng = random.Random(170805)
    for _ in range(6):
        a, _ = random_graphic_system(rng)
        b, _ = random_graphic_system(rng)
        assert complexity(direct_sum(a, b)) == complexity(a) * complexity(b)


def test_complexity_on_the_short_side_matches_the_gram_determinant():
    """complexity is det(I + L L^T) over the shorter side L of the tail
    block T; the determinant of the whole Gram matrix A^T A is the oracle,
    with T wider than tall, taller than wide and empty (the empty system,
    pure unit blocks), and the Gale dual, whose T is transposed, has the
    same complexity."""
    rng = random.Random(170835)
    cases = _systems_under_test(170835) + random_graph_systems(rng, 200)
    cases += [direct_sum(a, b) for a, b in zip(cases[:40:2], cases[1:40:2])]
    cases += [EMPTY_SYSTEM, make("upsilon", 3), make("sigma", 1),
              make("sigma", 16)]
    shapes = Counter()
    for s in cases:
        tail = s.N - s.n
        shapes[(tail > s.n) - (tail < s.n), tail == 0 or s.n == 0] += 1
        assert complexity(s) == determinant(gram_matrix(s)), s
        assert complexity(gale_dual(s)) == complexity(s), s
    assert {(-1, False), (1, False), (-1, True), (0, True)} <= set(shapes)


def test_graph_complexity_is_the_tree_count():
    """For a connected graph with both systems, each has as many bases as
    the graph has spanning trees: det of the deleted Laplacian (Kirchhoff)."""
    rng = random.Random(170836)
    gs = [random_multigraph_with_loops(rng) for _ in range(200)]
    gs += [make("complete", k) for k in range(2, 9)]
    gs += [make("cycle", 9), make("theta", 7)]
    both = 0
    for g in gs:
        try:
            pair = graphic_system(g), cographic_system(g)
        except DegenerateSystemError:  # a tree, or one vertex
            continue
        both += 1
        trees = determinant(deleted_laplacian(g))
        assert [complexity(s) for s in pair] == [trees, trees], g
    assert both > 100


def test_scan_points_negate_and_reconstruct():
    rng = random.Random(170806)
    for _ in range(5):
        s, _ = random_graphic_system(rng)
        pts = polytope_points(s)
        vecs = set(pts)
        assert {tuple(-x for x in v) for v in vecs} == vecs
        a = s.a_matrix
        for v in pts:
            w_b = [v[i] for i in s.base_rows]
            recon = tuple(sum(a[k, i] * w_b[i] for i in range(s.n))
                          for k in range(s.N))
            assert recon == v


def test_census_total_matches_scan():
    rng = random.Random(170807)
    for _ in range(5):
        s, _ = random_graphic_system(rng)
        census = short_vector_census(s)
        pts = polytope_points(s)
        for sq in (1, 2, 3):
            assert census.counts[sq] == sum(
                1 for v in pts
                if sum(x * x for x in v) == sq)


def test_sign_scrambled_copy_is_isomorphic():
    rng = random.Random(170808)
    for _ in range(5):
        s, _ = random_graphic_system(rng)
        order = rng.sample(range(s.N), s.N)
        rows = s.a_matrix.to_lists()
        scrambled = [[rng.choice((1, -1)) * x for x in rows[i]]
                     for i in order]
        t = from_matrix(scrambled)
        corr = are_isomorphic(s, t)
        assert corr is not None and corr.verify(s, t)
        assert complexity(t) == complexity(s)


def full_scan_tu_witness(m):
    """Reference scan over every square minor of m (test-only oracle).

    First square minor outside {0,1,-1}, scanning sizes small to large.
    Returns (row_set, col_set, value) or None.
    """
    rows = m.row_list()
    for k in range(1, min(m.rows, m.cols) + 1):
        for rs in combinations(range(m.rows), k):
            picked = [rows[i] for i in rs]
            for cs in combinations(range(m.cols), k):
                d = _det([[pr[j] for j in cs] for pr in picked])
                if d not in (0, 1, -1):
                    return rs, cs, d
    return None


def plant_bad_cycle(rng, tail, k, last=False):
    """Overwrite a k x k submatrix of the rows tail (lists) at random rows
    and columns (among the last k of each if last) with a signed cycle of
    determinant +-2, all of whose smaller minors are 0/+-1; the other
    entries of those rows and columns are kept."""
    height, width = len(tail), len(tail[0])
    rs = rng.sample(range(height - k, height) if last else range(height), k)
    cs = rng.sample(range(width - k, width) if last else range(width), k)
    signs = [rng.choice((1, -1)) for _ in range(2 * k - 1)]
    # det = (prod of diagonal signs) + (-1)^(k-1) (prod of cycle signs)
    signs.append(math.prod(signs) * (-1) ** (k - 1))
    for j in range(k):
        row = tail[rs[j]]
        for c in cs:
            row[c] = 0
        row[cs[j]] = signs[2 * j]
        row[cs[(j + 1) % k]] = signs[2 * j + 1]


def random_standard_form(rng, max_tail=4):
    """A matrix whose n unit rows sit at random positions, plus base.

    n is at most 4 and the tail holds up to max_tail rows.  Tail entries lie
    in {-2..2}; some tails use only 0/+-1.  Half of the tails carry a
    planted signed cycle block of size k >= 2: its determinant is +-2 and
    all its smaller minors are 0/+-1, so witnesses of every size turn up,
    not only entries and 2x2 minors.
    """
    n = rng.randint(1, 4)
    tail_count = rng.randint(0, max_tail)
    pool = rng.choice(((-2, -1, 0, 1, 2), (-1, 0, 1), (-1, 0, 0, 0, 1)))
    tail = [[rng.choice(pool) for _ in range(n)] for _ in range(tail_count)]
    if min(n, tail_count) >= 2 and rng.random() < 0.5:
        plant_bad_cycle(rng, tail, rng.randint(2, min(n, tail_count)))
    base = sorted(rng.sample(range(n + tail_count), n))
    rest = iter(tail)
    rows = [tuple(int(c == base.index(i)) for c in range(n)) if i in base
            else tuple(next(rest)) for i in range(n + tail_count)]
    return IntMatrix.from_rows(rows), base


def test_tail_scan_matches_full_scan_witness():
    """The tail-row scan returns the full scan's witness, or None with it."""
    rng = random.Random(170809)
    by_size = {}
    for _ in range(3000):
        m, base = random_standard_form(rng)
        want = full_scan_tu_witness(m)
        assert _tu_witness(m, base) == want, (m.to_lists(), base)
        size = 0 if want is None else len(want[0])
        by_size[size] = by_size.get(size, 0) + 1
    # good matrices and bad ones of every size up to 4x4
    assert sorted(by_size) == [0, 1, 2, 3, 4] and min(by_size.values()) >= 20, by_size


def test_tall_tail_scan_matches_full_scan_witness():
    """A tail with more rows than columns is certified along its columns;
    a rejected one still names the full scan's witness."""
    rng = random.Random(170817)
    by_shape = Counter()
    tall_sizes = Counter()
    for _ in range(3000):
        m, base = random_standard_form(rng, max_tail=7)
        want = full_scan_tu_witness(m)
        assert _tu_witness(m, base) == want, (m.to_lists(), base)
        assert walk_tu_witness(m, base) == want, (m.to_lists(), base)
        tail_count = m.rows - m.cols
        shape = ("tall" if tail_count > m.cols else
                 "square" if tail_count == m.cols else "wide")
        by_shape[shape] += 1
        if shape == "tall":
            tall_sizes[0 if want is None else len(want[0])] += 1
    assert min(by_shape[s] for s in ("tall", "square", "wide")) >= 200, by_shape
    # tall tails that pass, and tall ones rejected by minors of every size
    assert sorted(tall_sizes) == [0, 1, 2, 3, 4], tall_sizes
    assert min(tall_sizes.values()) >= 5, tall_sizes


# ---------------------------------------------------------------------------
# certification by Ghouila-Houri bicolorings of the tail's short side: the
# minor walk that certified every tail before, without a budget, is the
# oracle (body unchanged but for the walks' first limit, once a default:
# the length of a line)


def walk_tu_witness(m, base):
    """First square minor outside {0,1,-1}: (row_set, col_set, value) or None.

    The order is that of a full scan of m: sizes small to large, then row
    sets, then column sets, each lexicographic.  A minor through base row
    e_p is 0 when p is not among its columns and otherwise +- the smaller
    minor without that row and column.  So every bad minor of the smallest
    bad size uses tail rows only, and only the minors of the tail block T
    are walked (_tail_minors).  A tall T (more rows than columns) is first
    walked along its columns, the shorter side, which stops at the first
    bad minor; if there is none, m is certified.  Otherwise, and for a
    square or wide T, T is walked along its rows, in the full scan's order
    of row sets.  There a row set with a bad minor is not extended, and
    once a bad minor of size k is found, only smaller sizes are searched,
    so a later find is strictly smaller and replaces it.  Extended row
    sets thus hold only 0/+-1 minors.
    """
    tail, t = _tail_block(m, base)
    if len(tail) > m.cols:
        clean = True

        def visit_cols(cs, minors):
            nonlocal clean
            clean = set(minors.values()) <= {1, -1}
            return m.cols if clean else 0

        _tail_minors(list(zip(*t)), visit_cols, len(tail))
        if clean:
            return None
    best = None

    def visit(rs, minors):
        nonlocal best
        if not set(minors.values()) <= {1, -1}:
            bad = [(tuple(c for c in range(m.cols) if cs >> c & 1), v)
                   for cs, v in minors.items() if v not in (1, -1)]
            best = (tuple(tail[q] for q in rs), *min(bad))
        return m.cols if best is None else len(best[0]) - 1

    _tail_minors(t, visit, m.cols)
    return best


def _short_side(m):
    """Lines on the shorter side of the tail block of a standard form m."""
    return min(m.rows - m.cols, m.cols)


def standard_form(rows):
    s = _standardize(rows)
    return s.a_matrix, s.base_rows


def _tail_lists(m, base):
    """The rows of m as lists, and those of its tail block (the same lists)."""
    rows = m.to_lists()
    return rows, [rows[i] for i in range(m.rows) if i not in base]


def bicoloring_inputs(rng):
    """Seeded standard forms (m, base) whose tail block has a short side of
    5 to 9 lines.  Totally unimodular: random graphic and cographic
    systems, row- and column-shuffled direct sums of sweep systems, and
    scrambled copies of both.  Each of them again with one tail entry's
    sign flipped and with a planted bad cycle of size 2 to 5 (never
    totally unimodular; the flips mostly are not), both at random places
    and in the last tail row or rows and columns, and with a bad cycle of
    size 3 or 4 added as a block summand (short side up to 13).  Random
    dense and sparse 0/+-1 tails."""
    graph_systems = []
    while len(graph_systems) < 60:
        g = random_connected_multigraph(rng, rng.randint(7, 9),
                                        rng.randint(6, 9))
        s = rng.choice((graphic_system, cographic_system))(g)
        if 5 <= _short_side(s.a_matrix) <= 9:
            graph_systems.append(s)
    sweep = [s for _, s in catalog_sweep()]
    sums = []
    while len(sums) < 25:
        s = direct_sum(*rng.sample(sweep, 2))
        if 5 <= _short_side(s.a_matrix) <= 9:
            cols = rng.sample(range(s.n), s.n)
            sums.append([[r[j] for j in cols]
                         for r in rng.sample(s.a_matrix.to_lists(), s.N)])
    good = [(s.a_matrix, s.base_rows) for s in graph_systems]
    good += [standard_form(rows) for rows in sums]
    good += [standard_form(rows)
             for rows in scrambled_rows(rng, graph_systems, 30)]
    out = list(good)
    for m, base in good:
        # the walks meet late rows and columns late, so a defect there
        # often outlasts their budget
        for last in (False, True):
            rows, tail = _tail_lists(m, base)
            if last:
                i = len(tail) - 1
                j = max(j for j, x in enumerate(tail[i]) if x)
            else:
                i, j = rng.choice([(i, j) for i, r in enumerate(tail)
                                   for j, x in enumerate(r) if x])
            tail[i][j] = -tail[i][j]
            out.append((IntMatrix.from_rows(rows), base))
            rows, tail = _tail_lists(m, base)
            plant_bad_cycle(rng, tail, rng.randint(2, 5), last)
            out.append((IntMatrix.from_rows(rows), base))
        # a bad cycle as a summand, after the rest: no bad minor is smaller
        _, tail = _tail_lists(m, base)
        k = rng.randint(3, 4)
        cycle = [[0] * k for _ in range(k)]
        plant_bad_cycle(rng, cycle, k)
        out.append((IntMatrix.from_rows(
            [_unit(j, m.cols + k) for j in range(m.cols + k)]
            + [r + [0] * k for r in tail] + [[0] * m.cols + r for r in cycle]),
            tuple(range(m.cols + k))))
    for density in (0.2, 0.35, 0.6, 0.9) * 25:
        n, tail_count = rng.randint(5, 9), rng.randint(5, 14)
        if rng.random() < 0.5:
            n, tail_count = tail_count, n
        tail = [tuple(rng.choice((1, -1)) if rng.random() < density else 0
                      for _ in range(n)) for _ in range(tail_count)]
        units = [_unit(j, n) for j in range(n)]
        out.append((IntMatrix.from_rows(units + tail), tuple(range(n))))
    return out


@cache
def bicoloring_cases():
    """(m, base, the oracle's witness) on the seeded bicoloring_inputs."""
    return [(m, base, walk_tu_witness(m, base))
            for m, base in bicoloring_inputs(random.Random(170826))]


def count_branches(monkeypatch):
    """Counter of the ways _tu_witness settles its inputs, filled in as it
    runs: the Ghouila-Houri pass certifies, refutes or runs over the
    budget."""
    seen = Counter()
    bicolored = systems._bicolored

    def counted_bicolored(t, spend):
        try:
            size = bicolored(t, spend)
        except CapError:
            seen["pass over budget"] += 1
            raise
        seen["pass certifies" if size is None else "pass refutes"] += 1
        return size

    monkeypatch.setattr(systems, "_bicolored", counted_bicolored)
    return seen


def certification_units(work):
    """The units a count_work counter shows certification charged to its
    budget: 2^s per block of s lines, one per node of an exact search and
    one per minor walked."""
    return (sum(1 << b for b in work["blocks"]) + work["nodes"]
            + work["minors"])


@pytest.mark.parametrize("cap", [10**6, 100], ids=["default-cap", "cut-cap"])
def test_bicoloring_names_the_minor_walks_witness(monkeypatch, cap):
    """The Ghouila-Houri pass of _tu_witness certifies and refutes, and
    every verdict and witness is the unbudgeted minor walk's.  Under the
    default budget every input gets one.  Cut to 100 units, the budget
    refuses with CapError exactly the inputs whose pass and walk take more
    units, some in the pass and some in the walk, and none of them gets a
    verdict."""
    assert systems.DEFAULT_CAP == 10**6
    verdicts, outcomes = Counter(), Counter()
    for m, base, want in bicoloring_cases():
        verdicts[want is None] += 1
        work = count_work(monkeypatch)
        assert _tu_witness(m, base) == want, (m.to_lists(), base)
        units = certification_units(work)
        monkeypatch.undo()
        monkeypatch.setattr(systems, "DEFAULT_CAP", cap)
        seen = count_branches(monkeypatch)
        if units > cap:
            with pytest.raises(CapError, match=f"exceeds cap {cap} units$"):
                _tu_witness(m, base)
            where = "pass" if seen["pass over budget"] else "walk"
            outcomes[f"{where} over budget"] += 1
        else:
            assert _tu_witness(m, base) == want, (m.to_lists(), base)
            outcomes.update(seen)
        monkeypatch.undo()
    assert min(verdicts.values()) >= 200, verdicts
    over = {"pass over budget", "walk over budget"} if cap < 10**6 else set()
    assert set(outcomes) == {"pass certifies", "pass refutes"} | over, outcomes
    assert min(outcomes.values()) >= 20, outcomes


def _block_matrices(t):
    return [[[t[i][j] for j in cols] for i in rows]
            for rows, cols in _reduced_blocks(t)]


def _is_tu(rows):
    return full_scan_tu_witness(IntMatrix.from_rows(rows)) is None


def _reduced(lines):
    """Each line has two nonzero entries or more, and none is parallel to
    another, up to sign."""
    keys = [_normalize_row(tuple(x)) for x in lines]
    return (all(len(x) - x.count(0) > 1 for x in keys)
            and len(set(keys)) == len(keys))


def test_reduced_blocks_keep_the_verdict():
    """Deleting unit and parallel lines and splitting the rest into the
    connected blocks of its support keeps total unimodularity."""
    rng = random.Random(170827)
    graph_tails = []
    while len(graph_tails) < 60:
        g = random_connected_multigraph(rng, rng.randint(4, 6),
                                        rng.randint(2, 5))
        s = rng.choice((graphic_system, cographic_system))(g)
        t = _tail_lists(s.a_matrix, s.base_rows)[1]
        # series-parallel graphs reduce to nothing
        if max(s.n, s.N - s.n) <= 5 and _reduced_blocks(t):
            graph_tails.append(t)
    verdicts = Counter()
    for _ in range(2000):
        if rng.random() < 0.3:
            t = [list(r) for r in rng.choice(graph_tails)]
        else:
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            pool = rng.choice(((-1, 0, 1), (-1, 0, 0, 0, 1), (-1, 0, 1, 1)))
            t = [[rng.choice(pool) for _ in range(c)] for _ in range(r)]
        r, c = len(t), len(t[0])
        if min(r, c) >= 2 and rng.random() < 0.5:
            plant_bad_cycle(rng, t, rng.randint(2, min(r, c)))
        blocks = _reduced_blocks(t)
        want = _is_tu(t)
        assert all(map(_is_tu, _block_matrices(t))) == want, t
        verdicts[want, bool(blocks)] += 1
        rows = [i for r, _ in blocks for i in r]
        cols = [j for _, c in blocks for j in c]
        assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
        for block_rows, block_cols in blocks:
            block = [[t[i][j] for j in block_cols] for i in block_rows]
            assert _reduced(block) and _reduced(list(zip(*block))), t
            # connected, and no nonzero entry leaves it
            reach, todo = {block_rows[0]}, [block_rows[0]]
            while todo:
                i = todo.pop()
                for j in cols:
                    assert not t[i][j] or j in block_cols, t
                    if t[i][j]:
                        for k in rows:
                            if t[k][j] and k not in reach:
                                reach.add(k)
                                todo.append(k)
            assert reach == set(block_rows), t
    # totally unimodular tails with and without a block left, and others
    assert min(verdicts.values()) >= 100, verdicts


def riffle(rng, sizes):
    """A seeded interleaving of parts of the given sizes that keeps the
    order within each part: position -> (part, index in the part)."""
    parts = [p for p, k in enumerate(sizes) for _ in range(k)]
    rng.shuffle(parts)
    seen = Counter()
    out = []
    for p in parts:
        out.append((p, seen[p]))
        seen[p] += 1
    return out


def test_riffled_direct_sum_splits_into_its_summands():
    """The rows and columns of a block sum of tails, interleaved with the
    order kept within each summand, reduce to the summands' own reduced
    blocks, line for line."""
    rng = random.Random(170828)
    tails = [_tail_block(s.a_matrix, s.base_rows)[1]
             for _, s in catalog_sweep() if s.N > s.n]
    split = Counter()
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(2, 3)):
            if rng.random() < 0.5:
                parts.append(rng.choice(tails))
            else:
                r, c = rng.randint(1, 5), rng.randint(1, 5)
                parts.append([[rng.choice((-1, 0, 1)) for _ in range(c)]
                              for _ in range(r)])
        row_of = riffle(rng, [len(t) for t in parts])
        col_of = riffle(rng, [len(t[0]) for t in parts])
        t = [[parts[p][i][j] if p == q else 0 for q, j in col_of]
             for p, i in row_of]
        got = {(tuple(row_of[i] for i in rows), tuple(col_of[j] for j in cols))
               for rows, cols in _reduced_blocks(t)}
        want = {(tuple((p, i) for i in rows), tuple((p, j) for j in cols))
                for p, part in enumerate(parts)
                for rows, cols in _reduced_blocks(part)}
        assert got == want, (parts, row_of, col_of)
        split[len(want)] += 1
    assert split.keys() >= {0, 1, 2, 3}, split


def signed_sum_supports(lines):
    """The bitmasks of the subsets of the 0/+-1 lines that have a +-1
    signing whose sum lies in {0, +-1}^m: the search the Ghouila-Houri test
    ran before it ran the point search over [I; B], kept as the oracle of
    the subset pass that replaced both.

    The walk goes over ascending tuples of line positions, each line signed
    +1 or -1 but the first, which is +1 (negating a whole signing negates
    its sum).  The running sum w is cut as soon as a coordinate the last
    line moves strays beyond 1 plus its absolute sum over the later lines:
    from there no later line can bring it back into [-1, 1].  visit(mask,
    balanced) is called on every signed subset that is not cut, mask the
    bitmask of its line positions and balanced whether its sum lies in
    {0, +-1}^m.
    """
    reached = set()

    def visit(mask, balanced):
        if balanced:
            reached.add(mask)

    width = len(lines[0])
    rest = [0] * width
    steps = [()] * len(lines)  # per line: (coordinate, entry, bound)
    for t in range(len(lines) - 1, -1, -1):
        support = [(i, x, 1 + rest[i]) for i, x in enumerate(lines[t]) if x]
        for i, _, _ in support:
            rest[i] += 1
        steps[t] = support
    w = [0] * width
    stray = 0  # coordinates of w outside [-1, 1]

    def walk(start, mask):
        nonlocal stray
        for t in range(start, len(lines)):
            grown = mask | 1 << t
            before = stray
            for sign in (1, -1) if mask else (1,):
                inside = True
                for i, x, b in steps[t]:
                    old = w[i]
                    v = w[i] = old + sign * x
                    stray += (v > 1 or v < -1) - (old > 1 or old < -1)
                    if v > b or v < -b:
                        inside = False
                if inside:
                    visit(grown, not stray)
                    walk(t + 1, grown)
                for i, x, _ in steps[t]:
                    w[i] -= sign * x
                stray = before

    walk(0, 0)
    return reached


def random_reduced_blocks(rng, quota):
    """Seeded reduced 0/+-1 blocks, quota[s] of them with a short side of s
    lines: the blocks of random tails of density 0.15 to 0.95 (rarely
    totally unimodular), and those of the tails of random graphic and
    cographic systems with their lines negated at random (totally
    unimodular)."""
    quota = Counter(quota)
    out = []
    while +quota:
        if rng.random() < 0.3:
            g = random_connected_multigraph(rng, rng.randint(7, 12),
                                            rng.randint(6, 14))
            s = rng.choice((graphic_system, cographic_system))(g)
            row_signs = [rng.choice((1, -1)) for _ in range(s.N)]
            col_signs = [rng.choice((1, -1)) for _ in range(s.n)]
            t = [[x * row_signs[i] * col_signs[j] for j, x in enumerate(r)]
                 for i, r in enumerate(_tail_lists(s.a_matrix,
                                                   s.base_rows)[1])]
        else:
            density = rng.uniform(0.15, 0.95)
            r = rng.randint(6, max(+quota))
            c = rng.randint(r, r + 6)
            t = [[rng.choice((1, -1)) if rng.random() < density else 0
                  for _ in range(c)] for _ in range(r)]
            if rng.random() < 0.5:
                t = [list(line) for line in zip(*t)]
        for block in _block_matrices(t):
            s = min(len(block), len(block[0]))
            if quota[s] > 0:
                quota[s] -= 1
                out.append(block)
    return out


def random_raw_tails(rng, count):
    """Seeded 0/+-1 tails of 1 to 6 rows and columns, half of them with a
    planted bad cycle."""
    out = []
    for _ in range(count):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        pool = rng.choice(((-1, 0, 1), (-1, 0, 0, 0, 1), (-1, 0, 1, 1)))
        t = [[rng.choice(pool) for _ in range(c)] for _ in range(r)]
        if min(r, c) >= 2 and rng.random() < 0.5:
            plant_bad_cycle(rng, t, rng.randint(2, min(r, c)))
        out.append(t)
    return out


def unbudgeted(units=1):
    """A spend that charges nothing: the pass without a budget."""


def test_subset_pass_reaches_the_signed_sums(monkeypatch):
    """The Ghouila-Houri pass of _bicolored gives the verdict of the
    signed-sum search on every reduced block of the bicoloring inputs and
    on 2000 seeded random reduced blocks with a short side of 6 to 12 lines
    (fewer of the larger ones, which cost more), and that of the full scan
    on 3000 seeded raw tails, which cover the pass over a whole tail.  A
    refutation's size bounds the smallest bad minor.  The exact search the
    pass falls back on finds a signing on some totally unimodular blocks."""
    signing = systems._balanced_signing
    searches = Counter()

    def counted(lines, spend):
        found = signing(lines, spend)
        searches[found is not None] += 1
        return found

    monkeypatch.setattr(systems, "_balanced_signing", counted)
    blocks = [block for m, base, _ in bicoloring_cases()
              for block in _block_matrices(_tail_block(m, base)[1])]
    blocks += random_reduced_blocks(random.Random(170832), {
        6: 1100, 7: 540, 8: 240, 9: 80, 10: 24, 11: 10, 12: 6})
    verdicts = Counter()
    signed_on_tu = 0
    for block in blocks:
        lines = block if len(block) <= len(block[0]) else list(zip(*block))
        want = len(signed_sum_supports(lines)) == (1 << len(lines)) - 1
        searches.clear()
        size = _bicolored(block, unbudgeted)
        assert (size is None) == want, block
        assert size is None or 2 <= size <= len(lines), block
        verdicts[want] += 1
        signed_on_tu += want and searches[True]
    assert min(verdicts.values()) >= 400, verdicts
    # 7 on these blocks, all of them random ones; many more would mean that
    # the extensions of kept sums fail where they should fit
    assert 5 <= signed_on_tu <= 10, signed_on_tu
    by_route = Counter()
    for t in random_raw_tails(random.Random(170833), 3000):
        want = full_scan_tu_witness(IntMatrix.from_rows(t))
        size = _bicolored(t, unbudgeted)
        assert (size is None) == (want is None), t
        assert size is None or len(want[0]) <= size, t
        whole = (1 << min(len(t), len(t[0]))) - 1 <= len(t) * len(t[0])
        by_route[whole, want is None] += 1
    # whole tails of both verdicts, and fewer reduced ones (5 lines or more
    # on the short side), most of them not totally unimodular
    assert min(by_route[True, v] for v in (False, True)) >= 1000, by_route
    assert min(by_route[False, v] for v in (False, True)) >= 10, by_route


def _frontier_rows():
    """Raw rows past the reach of the minor walk: the systems of complete
    graphs, and three copies of graphic complete:6 summed, rows shuffled."""
    out = [pytest.param(
        cographic_system(make("complete", k)).a_matrix.to_lists(),
        id=f"cographic(complete:{k})") for k in range(8, 13)]
    out += [pytest.param(
        graphic_system(make("complete", k)).a_matrix.to_lists(),
        id=f"graphic(complete:{k})") for k in (8, 9, 10)]
    k6 = graphic_system(make("complete", 6))
    rows = direct_sum(direct_sum(k6, k6), k6).a_matrix.to_lists()
    out.append(pytest.param(random.Random(170829).sample(rows, len(rows)),
                            id="graphic(complete:6)^3 shuffled"))
    return out


def count_work(monkeypatch):
    """Counter of the work of certification, filled in as it runs: the
    nonzero tail minors the walks take in, the line counts of the blocks
    the Ghouila-Houri pass runs on (a tuple), the subsets it settles (2^s
    - 1 on a block of s lines that passes) and the nodes of its exact
    searches."""
    work = Counter()
    tail_minors, subset_pass = systems._tail_minors, systems._subset_pass
    signing = systems._balanced_signing

    def counted_minors(lines, visit, limit):
        def counted(line_set, minors):
            work["minors"] += len(minors)
            return visit(line_set, minors)
        tail_minors(lines, counted, limit)

    def counted_pass(lines, spend):
        size = subset_pass(lines, spend)
        work["blocks"] += (len(lines),)
        if size is None:
            work["subsets"] += (1 << len(lines)) - 1
        return size

    def counted_signing(lines, spend):
        def counted():
            work["nodes"] += 1
            spend()
        return signing(lines, counted)

    work["blocks"] = ()
    monkeypatch.setattr(systems, "_tail_minors", counted_minors)
    monkeypatch.setattr(systems, "_subset_pass", counted_pass)
    monkeypatch.setattr(systems, "_balanced_signing", counted_signing)
    return work


@pytest.mark.parametrize("rows", _frontier_rows())
def test_certification_work_grows_with_the_short_side(monkeypatch, rows):
    """Certifying these systems settles one subset of lines per nonempty
    subset of each block the pass runs on, the whole tail when it is small
    and its reduced blocks otherwise: at most 2^s - 1, s the tail's short
    side, where the minor walk meets one minor per base.  Its exact
    searches visit at most 2^s nodes, and no minor is walked."""
    work = count_work(monkeypatch)
    s = from_matrix(rows)
    t = _tail_block(s.a_matrix, s.base_rows)[1]
    short = _short_side(s.a_matrix)
    if (1 << short) - 1 <= len(t) * len(t[0]):
        blocks = (short,)
    else:
        blocks = tuple(min(len(r), len(c)) for r, c in _reduced_blocks(t))
    assert complexity(s) > 8 << short
    assert work["blocks"] == blocks, work
    assert work["subsets"] == sum((1 << b) - 1 for b in blocks) < 1 << short
    assert work["nodes"] <= 1 << short, work
    assert work["minors"] == 0, work


def flipped_rows(kind, k):
    """The rows of the graph system of complete:k, as its file lists them,
    with the last nonzero entry of the last row negated."""
    rows = kind(make("complete", k)).a_matrix.to_lists()
    j = max(j for j, x in enumerate(rows[-1]) if x)
    rows[-1][j] = -rows[-1][j]
    return rows


def test_flipped_complete_graph_names_the_walks_witness(monkeypatch):
    """One sign flipped in the last row of graphic complete:8 and of
    cographic complete:9: the pass refutes at some size, and the walk over
    the rows up to that size names the unbudgeted walk's witness, the first
    bad minor, after a pinned count of minors."""
    for kind, k, minors in ((graphic_system, 8, 3718),
                            (cographic_system, 9, 9941)):
        rows = flipped_rows(kind, k)
        m, base = standard_form(rows)
        want = walk_tu_witness(m, base)
        assert want is not None
        seen = count_branches(monkeypatch)
        work = count_work(monkeypatch)
        assert _tu_witness(m, base) == want
        assert seen == Counter({"pass refutes": 1}), seen
        assert work["minors"] == minors, work
        with pytest.raises(NotUnimodularError) as err:
            from_matrix(rows)
        assert (err.value.rows, err.value.cols, err.value.value) == want
        monkeypatch.undo()


def test_certification_budget_boundary(monkeypatch):
    """Certification charges the pass and the witness walk to one budget
    of systems.DEFAULT_CAP units, read when it runs.  Bixby-Seymour's raw
    rows cost 32 units, all of them in the pass; the flipped graphic
    complete:8 rows 133 in the pass and 3718 walked minors.  Each input is
    settled at exactly its units and refused with CapError at one less."""
    flipped = flipped_rows(graphic_system, 8)
    want = walk_tu_witness(*standard_form(flipped))
    for rows, units, walked in ((_BIXBY_SEYMOUR_RAW, 32, 0),
                                (flipped, 133 + 3718, 3718)):
        work = count_work(monkeypatch)
        monkeypatch.setattr(systems, "DEFAULT_CAP", units)
        if walked:
            with pytest.raises(NotUnimodularError) as err:
                from_matrix(rows)
            assert (err.value.rows, err.value.cols, err.value.value) == want
        else:
            assert from_matrix(rows).N == len(rows)
        assert certification_units(work) == units, work
        assert work["minors"] == walked, work
        monkeypatch.setattr(systems, "DEFAULT_CAP", units - 1)
        with pytest.raises(CapError, match=f"exceeds cap {units - 1} units$"):
            from_matrix(rows)
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# graph systems on a BFS spanning tree: the route graphic_system and
# cographic_system took before they were written in standard form over the
# edge-order tree, raw rows on the BFS tree, which _standardize then put in
# standard form, is the oracle (bodies unchanged)


def bfs_tree(g):
    """Edge indices of the BFS spanning tree from vertex 1, edges scanned in
    input order; also returns the parent structure, vertex -> (edge index,
    parent vertex).  ConnectivityError when g is disconnected, before any
    per-vertex work when it has fewer than V - 1 edges."""
    if g.edge_count < g.vertex_count - 1:
        raise ConnectivityError("spanning tree needs a connected multigraph")
    around = [[] for _ in range(g.vertex_count + 1)]
    for k, (t, h) in enumerate(g.edges):
        if t != h:
            around[t].append((k, h))
            around[h].append((k, t))
    queue = deque([1])
    tree = []
    parent = {}
    while queue:
        u = queue.popleft()
        for k, w in around[u]:
            if w != 1 and w not in parent:
                tree.append(k)
                parent[w] = (k, u)
                queue.append(w)
    if len(parent) < g.vertex_count - 1:
        raise ConnectivityError("spanning tree needs a connected multigraph")
    return tuple(sorted(tree)), parent


def _tree_cuts(g):
    """The BFS tree, the other edges (chords), and the fundamental-cut row
    p[head f] - p[tail f] of every edge f under unit steps on the tree.

    Entry i of row f is +-1 when the tree path from the tail of f to its
    head crosses tree edge tree[i] along or against its orientation, else 0.
    Tree edges get unit rows and loops zero rows.
    """
    tree, _ = bfs_tree(g)
    in_tree = set(tree)
    p = _potentials(g, {k: _unit(i, len(tree)) for i, k in enumerate(tree)})
    return (tree, [f for f in range(g.edge_count) if f not in in_tree],
            [tuple(map(sub, p[h], p[t])) for t, h in g.edges])


def _nonzero_rows(rows):
    """(rows, kept): the nonzero rows, and kept[i] the edge of row i."""
    kept = [f for f, row in enumerate(rows) if any(row)]
    return [rows[f] for f in kept], kept


def _cycle_rows(g):
    """Raw graphic rows: every non-bridge edge on the BFS fundamental cycles.

    The cycle of non-tree edge e runs along e, then back through the tree
    from its head to its tail, so tree edge k reads (p[tail e] - p[head e])_k
    on it, the negated cut row of e.  Returns (rows, kept) with kept[i] the
    edge of row i.
    """
    tree, chords, cuts = _tree_cuts(g)
    if not chords:
        raise DegenerateSystemError("the graph is a tree: its cycle space is zero")
    rows = [None] * g.edge_count
    for j, e in enumerate(chords):
        rows[e] = _unit(j, len(chords))
    for k, col in zip(tree, zip(*(cuts[e] for e in chords))):
        rows[k] = tuple(-x for x in col)
    return _nonzero_rows(rows)


def _cut_rows(g):
    """Raw cographic rows: every non-loop edge on the BFS fundamental cuts.

    Returns (rows, kept) with kept[i] the edge of row i.
    """
    tree, _, cuts = _tree_cuts(g)
    if not tree:
        raise DegenerateSystemError(
            "the graph has no spanning-tree edges: its cut space is zero")
    return _nonzero_rows(cuts)


# ---------------------------------------------------------------------------
# certification without the scan: graph systems check a spanning-tree
# certificate, and systems derived from certified ones are built unscanned;
# from_matrix on the same raw rows, or on their own rows, is the oracle


def random_multigraph_with_loops(rng):
    """A random tree plus loops, parallel edges and chords, randomly oriented."""
    v = rng.randint(2, 7)
    edges = [(rng.randint(1, u - 1), u) for u in range(2, v + 1)]
    for _ in range(rng.randint(1, 5)):
        kind = rng.random()
        if kind < 0.25:
            edges.append((rng.randint(1, v),) * 2)
        elif kind < 0.5:
            edges.append(rng.choice(edges))
        else:
            edges.append((rng.randint(1, v), rng.randint(1, v)))
    rng.shuffle(edges)
    return Multigraph.build(v, [(h, t) if rng.random() < 0.5 else (t, h)
                                for t, h in edges])


def assert_same_system(got, want):
    assert got.a_matrix == want.a_matrix
    assert got.base_rows == want.base_rows
    assert got.labels == want.labels  # labels are compare=False


def edge_labels(kept):
    return [f"e{f + 1}" for f in kept]


def _must_not_run(*args):
    raise AssertionError("a skipped route ran")


def test_tree_certificate_matches_the_scan(monkeypatch):
    """The graph route gives what from_matrix gives on the same raw rows, and
    its certificate accepts every graph, so the fallback scan never runs."""
    rng = random.Random(170816)
    randoms = [random_multigraph_with_loops(rng) for _ in range(20)]
    assert any(map(loops, randoms)) and any(map(bridges, randoms))
    assert any(len(set(g.edges)) < g.edge_count for g in randoms)
    cases = [(graphic_system, make("complete", k)) for k in range(3, 7)]
    cases += [(cographic_system, make("complete", k)) for k in range(3, 9)]
    for g in ([make("theta", k) for k in range(2, 13)]
              + [make("cycle", k) for k in range(3, 13)] + randoms):
        cases += [(graphic_system, g), (cographic_system, g)]
    monkeypatch.setattr(graphs, "from_matrix", _must_not_run)
    for build, g in cases:
        rows, kept = (_cycle_rows if build is graphic_system else _cut_rows)(g)
        assert_same_system(build(g), from_matrix(rows, edge_labels(kept)))


def potential_cycle_table(g):
    """The cycle table read off unit potentials (test-only oracle for the
    subtree sums of graphs._cycle_table): the row of tree edge k over chord
    e = (t, h) is (p[t] - p[h])_k, p under unit steps on the backward tree,
    a vector of width V - 1 at every vertex."""
    tree = graphs._first_tree(g, "", reverse=True)
    chords = [f for f in range(g.edge_count) if f not in tree]
    p = graphs._unit_potentials(g, tree)
    cols = [tuple(map(sub, p[t], p[h])) for t, h in map(g.edges.__getitem__, chords)]
    return tree, chords, list(zip(*cols)) if cols else [()] * len(tree)


def test_cycle_table_by_subtree_sums_matches_unit_potentials():
    rng = random.Random(170837)
    cases = [random_multigraph_with_loops(rng) for _ in range(300)]
    assert any(map(loops, cases)) and any(map(bridges, cases))
    assert any(len(set(g.edges)) < g.edge_count for g in cases)
    cases += [random_connected_multigraph(rng, rng.randint(10, 40),
                                          rng.randint(0, 30)) for _ in range(20)]
    cases += [make("complete", k) for k in range(2, 9)]
    cases += [make("cycle", 60), make("theta", 6), Multigraph.build(1, [(1, 1)])]
    for g in cases:
        assert graphs._cycle_table(g, "") == potential_cycle_table(g), g


def test_derived_systems_match_the_scan():
    """gale_dual, the split_upsilon core and direct_sum skip the scan; each
    system they derive is what from_matrix certifies and builds from its
    own rows, so it is totally unimodular and in standard form over the
    first maximal independent rows."""
    subjects = _systems_under_test(170817)
    unit = make("upsilon", 1)
    derived = []
    for s, t in zip(subjects, subjects[1:] + subjects[:1]):
        summed = direct_sum(unit, s)
        derived += [gale_dual(s), summed, split_upsilon(summed).core,
                    direct_sum(s, t)]
    derived = [d for d in derived if d.N]
    assert len(derived) >= 3 * len(subjects)
    for got in derived:
        assert_same_system(got, from_matrix(got.a_matrix, got.labels))


def standardized_direct_sum(a, b):
    """The block sum put in standard form by _standardize (the route
    direct_sum took before it wrote the block diagonal at once)."""
    if a.N == 0:
        return b
    if b.N == 0:
        return a
    rows = []
    for i in range(a.N):
        rows.append(a.row(i) + (0,) * b.n)
    for i in range(b.N):
        rows.append((0,) * a.n + b.row(i))
    labels = None
    if a.labels is not None or b.labels is not None:
        labels = tuple(a.label(i) for i in range(a.N)) + \
            tuple(b.label(i) for i in range(b.N))
    return _standardize(IntMatrix.from_rows(rows), labels=labels)


def standardized_core(sys):
    """The unit-free core put in standard form by _standardize (the route
    split_upsilon took before it renumbered the base of the submatrix)."""
    unit_cols = [j for j in range(sys.n)
                 if sum(1 for x in sys.a_matrix.col(j) if x) == 1]
    drop_rows = {sys.base_rows[j] for j in unit_cols}
    keep_rows = [i for i in range(sys.N) if i not in drop_rows]
    keep_cols = [j for j in range(sys.n) if j not in unit_cols]
    if not keep_cols:
        return EMPTY_SYSTEM
    sub = sys.a_matrix.submatrix(keep_rows, keep_cols)
    labels = tuple(sys.label(i) for i in keep_rows) if sys.labels else None
    return _standardize(sub, labels=labels)


def test_sums_and_cores_match_standardize():
    """direct_sum and the split_upsilon core equal _standardize of the same
    rows, on the systems under test and on shuffled sums: sums with unit
    summands, their rows permuted and sign-flipped, under a unimodular
    change of base, so that unit rows sit anywhere in the row order."""
    subjects = _systems_under_test(170817)
    units = [make("upsilon", m) for m in (1, 2)]
    sums = [direct_sum(direct_sum(units[i % 2], s), t) for i, (s, t) in
            enumerate(zip(subjects, subjects[2:] + subjects[:2]))]
    shuffled = scrambled_copies(random.Random(170820), sums, 40)
    labelled = [s for s in subjects if s.labels is not None]
    assert labelled
    pairs = list(zip(subjects, subjects[1:] + subjects[:1]))
    pairs += list(zip(shuffled, subjects + labelled + [EMPTY_SYSTEM]))
    pairs += [(EMPTY_SYSTEM, s) for s in labelled]
    for a, b in pairs:
        assert_same_system(direct_sum(a, b), standardized_direct_sum(a, b))
    cores = 0
    for s in subjects + sums + shuffled:
        got = split_upsilon(s).core
        assert_same_system(got, standardized_core(s))
        if got.N and got.N < s.N and got.base_rows != tuple(range(got.n)):
            cores += 1
    # cores whose base rows are renumbered out of the first positions
    assert cores >= 20, cores


def test_builders_run_no_elimination_and_no_scan(monkeypatch):
    """graphic_system, cographic_system, direct_sum and the split_upsilon
    core write their standard forms at once: neither _standardize nor
    _tu_witness runs, and the graph builders never fall back."""
    rng = random.Random(170822)
    graphs_ = [random_multigraph_with_loops(rng) for _ in range(40)]
    graphs_ += [make("complete", k) for k in range(3, 9)]
    graphs_ += [make("theta", 3), make("cycle", 5), Multigraph.build(1, [])]
    subjects = _systems_under_test(170823)
    unit = make("upsilon", 1)
    monkeypatch.setattr(systems, "_standardize", _must_not_run)
    monkeypatch.setattr(systems, "_tu_witness", _must_not_run)
    monkeypatch.setattr(graphs, "from_matrix", _must_not_run)
    built = Counter()
    for g in graphs_:
        for build in (graphic_system, cographic_system):
            try:
                build(g)
                built[build.__name__] += 1
            except DegenerateSystemError:
                pass
    for s, t in zip(subjects, subjects[1:] + subjects[:1]):
        assert split_upsilon(direct_sum(unit, s)).s == 1 + split_upsilon(s).s
        direct_sum(s, t)
    assert min(built.values()) >= 30, built


def test_derived_systems_never_scan(monkeypatch):
    sweep = [s for _, s in catalog_sweep()]
    unit = make("upsilon", 1)
    monkeypatch.setattr(systems, "_tu_witness", _must_not_run)
    k7 = make("complete", 7)
    assert complexity(graphic_system(k7)) == 7 ** 5
    assert complexity(cographic_system(k7)) == 7 ** 5
    for s, t in zip(sweep, sweep[1:] + sweep[:1]):
        assert complexity(gale_dual(s)) == complexity(s)
        assert split_upsilon(direct_sum(unit, s)).s == 1 + split_upsilon(s).s
        assert complexity(direct_sum(s, t)) == complexity(s) * complexity(t)


def _outcome(build):
    """What build() returns, or the rejection it raises, comparably."""
    try:
        s = build()
    except NotUnimodularError as exc:
        return str(exc), exc.rows, exc.cols, exc.value
    return s.a_matrix, s.base_rows, s.labels


@pytest.mark.parametrize("rows_of,certificate", [
    (_cycle_rows, _is_cycle_matrix), (_cut_rows, _is_cut_matrix)])
def test_tree_certificate_rejects_a_flipped_sign(rows_of, certificate):
    """Every single sign flip in the tail of a certified standard form is
    rejected, and the fallback then answers as from_matrix does."""
    g = make("complete", 4)
    rows, kept = rows_of(g)
    std = _standardize(rows)
    # base rows first, so a flip in the tail leaves the base in place
    order = list(std.base_rows) + list(std.tail_rows())
    kept = [kept[i] for i in order]
    good = [list(std.row(i)) for i in order]
    assert certificate(g, kept, _standardize(good))
    flips = 0
    for i in range(std.n, std.N):
        for j, x in enumerate(good[i]):
            if x:
                bad = [list(r) for r in good]
                bad[i][j] = -x
                assert not certificate(g, kept, _standardize(bad)), (i, j)
                assert _outcome(lambda: _tree_certified(
                    g, kept, bad, range(std.n), certificate)) == _outcome(
                    lambda: from_matrix(bad, edge_labels(kept)))
                flips += 1
    assert flips >= 6


def test_tree_certificate_needs_a_spanning_tree():
    # three parallel edges: the column (1, -2, 1) is a circulation, but the
    # tail edges e2, e3 form a cycle, and the entry -2 is a bad minor
    g = Multigraph.build(2, [(1, 2)] * 3)
    rows, kept = [[1], [-2], [1]], [0, 1, 2]
    assert not _is_cycle_matrix(g, kept, _standardize(rows))
    got = _outcome(lambda: _tree_certified(g, kept, rows, [0], _is_cycle_matrix))
    assert got == _outcome(lambda: from_matrix(rows, edge_labels(kept)))
    assert got[3] == -2
    # base edges e1, e2 are parallel: a cycle, and vertex 3 is left out
    g = Multigraph.build(3, [(1, 2), (1, 2), (2, 3)])
    rows = [[1, 0], [0, 1], [1, 1]]
    assert not _is_cut_matrix(g, kept, _standardize(rows))
    assert_same_system(_tree_certified(g, kept, rows, [0, 1], _is_cut_matrix),
                       from_matrix(rows, edge_labels(kept)))



def subset_scan_spanning_trees(g):
    """Every (V-1)-edge subset that connects g, lexicographically (test-only
    oracle: the scan over all C(E, V-1) edge subsets that spanning_trees
    ran before it read the trees off the cographic bases)."""
    return [subset
            for subset in combinations(range(g.edge_count), g.vertex_count - 1)
            if is_connected(Multigraph(g.vertex_count,
                                       [g.edges[k] for k in subset]))]


def random_forest(rng, nverts, parts):
    """A random forest on nverts vertices with `parts` components, plus
    loops, randomly oriented and shuffled."""
    cuts = sorted(rng.sample(range(2, nverts + 1), parts - 1))
    edges = [(rng.randint(start, v - 1), v)
             for start, stop in zip([1] + cuts, cuts + [nverts + 1])
             for v in range(start + 1, stop)]
    edges += [(rng.randint(1, nverts),) * 2 for _ in range(rng.randint(0, 2))]
    rng.shuffle(edges)
    return Multigraph.build(nverts, [(h, t) if rng.random() < 0.5 else (t, h)
                                     for t, h in edges])


def test_spanning_trees_match_subset_scan():
    """The trees read off the cographic bases are the subsets that span."""
    rng = random.Random(170818)
    randoms = [random_multigraph_with_loops(rng) for _ in range(200)]
    assert any(map(loops, randoms)) and any(map(bridges, randoms))
    trees = [random_forest(rng, rng.randint(1, 7), 1) for _ in range(20)]
    forests = [random_forest(rng, rng.randint(2, 7), 2) for _ in range(20)]
    forests += [random_forest(rng, 7, 3), Multigraph.build(3, [])]
    for g in randoms + trees:
        got = spanning_trees(g)
        assert got == subset_scan_spanning_trees(g), g
        assert len(got) == determinant(deleted_laplacian(g)), g
        # loops are in no tree, bridges in every tree
        assert not set(loops(g)) & set().union(*got), g
        if g.vertex_count > 1:
            assert all(set(bridges(g)) <= set(t) for t in got), g
    for g in trees:
        # a tree with its loops dropped is its own only spanning tree
        assert spanning_trees(g) == [tuple(
            k for k, (t, h) in enumerate(g.edges) if t != h)], g
    for g in forests:
        assert not is_connected(g), g
        assert spanning_trees(g) == subset_scan_spanning_trees(g) == [], g


# ---------------------------------------------------------------------------
# tree data from one potential map: the routines it replaced, a walk through
# the lowest common ancestor per fundamental cycle, a union-find per tree
# edge, a connectivity test per deleted edge and a contract-one-bridge loop,
# are the oracles (bodies unchanged but for the names of the oracles they
# call)


def tree_walk(edges, parent, src, dst):
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


def edge_rows(g, vectors):
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


def walk_cycle_rows(g):
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
            for k, direction in tree_walk(g.edges, parent, h, t):
                coeff[k] = coeff.get(k, 0) + direction
        cycles.append(coeff)
    return edge_rows(g, cycles)


def union_find_cut_rows(g):
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
    return edge_rows(g, cuts)


def deletion_bridges(g):
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


def contraction_stabilize(g):
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
        br = deletion_bridges(cur)
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


def _system_from(rows_of):
    """The graph system as the BFS route built it: rows_of's raw rows, put
    in standard form by _standardize."""
    def build(g):
        rows, kept = rows_of(g)
        return _standardize(rows, edge_labels(kept))
    return build


def _graph_result(f, g):
    """f(g) comparably, or the type and message of the error it raises."""
    try:
        out = f(g)
    except UnimodError as exc:
        return type(exc), str(exc)
    if isinstance(out, UnimodularSystem):
        return out.a_matrix, out.base_rows, out.labels
    return out


def _potential_map_cases():
    rng = random.Random(170818)
    cases = [random_multigraph_with_loops(rng) for _ in range(200)]
    cases += [make("theta", k) for k in range(2, 13)]
    cases += [make("cycle", k) for k in range(3, 13)]
    cases += [make("complete", k) for k in range(3, 10)]
    return cases + [
        Multigraph.build(4, [(1, 2), (3, 4), (3, 3)]),  # disconnected
        Multigraph.build(4, [(1, 2), (3, 2), (2, 4)]),  # a tree
        Multigraph.build(1, []),                        # one vertex
        Multigraph.build(1, [(1, 1), (1, 1)])]          # one vertex, loops


@pytest.mark.parametrize("new,old", [
    (_cycle_rows, walk_cycle_rows),
    (_cut_rows, union_find_cut_rows),
    (graphic_system, _system_from(_cycle_rows)),
    (cographic_system, _system_from(_cut_rows)),
    (bridges, deletion_bridges),
    (stabilize, contraction_stabilize),
], ids=["cycle_rows", "cut_rows", "graphic", "cographic", "bridges",
        "stabilize"])
def test_potential_map_matches_the_routines_it_replaced(new, old):
    cases = _potential_map_cases()
    assert any(map(loops, cases)) and any(map(deletion_bridges, cases[:200]))
    for g in cases:
        assert _graph_result(new, g) == _graph_result(old, g), g


# ---------------------------------------------------------------------------
# one union-find, and certificates that check their own tree: the
# per-vertex component map, and the certificates that asked it whether
# their tree spans, are the oracles (bodies unchanged but for their names)


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


def components_connected(g):
    """Whether g is connected; fewer than V - 1 edges answer at once."""
    return (g.edge_count >= g.vertex_count - 1 and
            len(set(_components(g.vertex_count, g.edges).values())) == 1)


def components_stabilize(g):
    """Delete loops, then contract every bridge, classes by _components."""
    cur = Multigraph(g.vertex_count, tuple(e for e in g.edges if e[0] != e[1]))
    br = set(_bridges(cur, "stabilize needs a connected multigraph"))
    if not br:
        return cur if cur.edge_count < g.edge_count else g
    comp = _components(g.vertex_count, [cur.edges[i] for i in br])
    # comp lists the vertices in order, so classes come in order of their minima
    rank = {r: i for i, r in enumerate(dict.fromkeys(comp.values()), 1)}
    return Multigraph(len(rank), tuple(
        (rank[comp[t]], rank[comp[h]])
        for i, (t, h) in enumerate(cur.edges) if i not in br))


def _spans_tree(g, tree):
    """Whether the edge indices in tree form a spanning tree of g."""
    return len(tree) == g.vertex_count - 1 and components_connected(
        Multigraph(g.vertex_count, [g.edges[k] for k in tree]))


def spans_tree_cycle_matrix(g, kept, sys):
    """Whether sys is the fundamental-cycle matrix of a spanning tree of g."""
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


def spans_tree_cut_matrix(g, kept, sys):
    """Whether sys is the fundamental-cut matrix of a spanning tree of g."""
    if not _spans_tree(g, [kept[r] for r in sys.base_rows]):
        return False
    rows = sys.a_matrix.row_list()
    p = _potentials(g, {kept[r]: rows[r] for r in sys.base_rows})
    return all(row == tuple(map(sub, p[h], p[t]))
               for row, (t, h) in zip(rows, (g.edges[f] for f in kept)))


def test_union_find_matches_the_component_map():
    rng = random.Random(170825)
    cases = [random_multigraph_with_loops(rng) for _ in range(200)]
    cases += [random_forest(rng, rng.randint(3, 9), rng.choice((2, 3)))
              for _ in range(40)]
    cases += [random_forest(rng, rng.randint(1, 9), 1) for _ in range(20)]
    connected = [is_connected(g) for g in cases]
    assert connected == [components_connected(g) for g in cases]
    assert connected.count(False) >= 40 and connected.count(True) >= 200
    contracted = 0
    for g in cases:
        got = _graph_result(stabilize, g)
        assert got == _graph_result(components_stabilize, g), g
        contracted += isinstance(got, Multigraph) and \
            got.vertex_count < g.vertex_count
    assert contracted >= 100


def _form(kept, rows, base):
    """The system of rows over base, labelled by edge, unchecked, as
    _tree_certified builds it before its certificate."""
    return UnimodularSystem(len(base), IntMatrix.from_rows(rows), tuple(base),
                            tuple(edge_labels(kept)))


def _perturbed(g, kept, rows, base):
    """(g, kept, rows, base) cases near a certified form: a base edge
    swapped for a tail edge, a flipped sign in the tail, and a loop put in
    for a base edge."""
    tail = sorted(set(range(len(kept))) - set(base))
    for r in base:
        for q in tail:
            swapped = list(kept)
            swapped[r], swapped[q] = kept[q], kept[r]
            yield g, swapped, rows, base
    for q in tail:
        for j, x in enumerate(rows[q]):
            if x:
                flipped = [list(row) for row in rows]
                flipped[q][j] = -x
                yield g, kept, flipped, base
    with_loop = Multigraph(g.vertex_count, g.edges + ((1, 1),))
    for r in base:
        looped = list(kept)
        looped[r] = g.edge_count
        yield with_loop, looped, rows, base


def _certificate_cases():
    """(g, kept, rows, base, certificate, oracle) for the graph systems of
    the potential-map graphs, their perturbations, and bases on a cycle
    that leaves a vertex out."""
    pairs = ((graphic_system, _is_cycle_matrix, spans_tree_cycle_matrix),
             (cographic_system, _is_cut_matrix, spans_tree_cut_matrix))
    for g in _potential_map_cases():
        for build, certificate, oracle in pairs:
            try:
                s = build(g)
            except UnimodError:
                continue
            kept = [int(label[1:]) - 1 for label in s.labels]
            rows = s.a_matrix.to_lists()
            yield g, kept, rows, s.base_rows, certificate, oracle
            if g.edge_count <= 12:  # the fallback scans the perturbed rows
                for case in _perturbed(g, kept, rows, s.base_rows):
                    yield (*case, certificate, oracle)
    # the base edges e1 e2 e3 are a triangle, and vertex 4 is left out
    g = Multigraph.build(4, [(1, 2), (2, 3), (3, 1), (3, 4)])
    yield (g, [0, 1, 2, 3], [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]],
           [0, 1, 2], _is_cut_matrix, spans_tree_cut_matrix)
    # the non-base edges e1 e2 e3 are a triangle, and vertex 4 is left out
    g = Multigraph.build(4, [(1, 2), (2, 3), (3, 1), (3, 4), (3, 4)])
    yield (g, [0, 1, 2, 3, 4], [[0, 0], [0, 0], [0, 0], [1, 0], [0, 1]],
           [3, 4], _is_cycle_matrix, spans_tree_cycle_matrix)
    # the same with vertex 4 isolated: the column of e4 is a circulation
    g = Multigraph.build(4, [(1, 2), (2, 3), (3, 1), (1, 2)])
    yield g, [0, 3], [[-1], [1]], [1], _is_cycle_matrix, spans_tree_cycle_matrix


def test_tree_certificates_match_the_spanning_check():
    verdicts = Counter()
    for g, kept, rows, base, certificate, oracle in _certificate_cases():
        form = _form(kept, rows, base)
        verdict = certificate(g, kept, form)
        assert verdict == oracle(g, kept, form), (g, kept, rows, base)
        verdicts[verdict] += 1
        if not verdict:
            assert _outcome(lambda: _tree_certified(
                g, kept, rows, base, certificate)) == _outcome(
                lambda: from_matrix(rows, edge_labels(kept)))
    assert verdicts[True] >= 1000 and verdicts[False] >= 5000, verdicts


# ---------------------------------------------------------------------------
# standardization by one elimination: the route it replaced, a first base
# by one Hermite rank per row, then the adjugate expansion, is the oracle
# (bodies unchanged)


def hermite_first_base(m):
    """Indices of the first maximal linearly independent row subset."""
    picked = []
    for i in range(m.rows):
        if len(picked) == m.cols:
            break
        if rank(m.take_rows(picked + [i])) == len(picked) + 1:
            picked.append(i)
    return picked


def adjugate_standardize(raw, labels=None):
    """The standard form of integer row data, without certifying it TU.

    The rows are re-expanded over the first maximal independent row subset
    (exact adjugate division); a row whose expansion is non-integer does not
    lie in the group generated by the base, so the maximal subsets generate
    different groups and the input is rejected.
    """
    m = raw if isinstance(raw, IntMatrix) else IntMatrix.from_rows(raw)
    N, n = m.rows, m.cols
    if n < 1 and N:
        raise PreconditionError("a system needs at least one coordinate")
    if N < n:
        raise RankError(f"only {N} rows cannot have rank {n}")
    for i in range(N):
        if not any(m.row(i)):
            raise NotUnimodularError(f"row {i} is the zero form", rows=(i,))
    base = hermite_first_base(m)
    if len(base) < n:
        raise RankError(f"matrix rank {len(base)} is below the column count {n}")
    bmat = m.take_rows(base)
    d = determinant(bmat)
    adjb = adjugate(bmat)
    out = []
    for i in range(N):
        num = vecmat(m.row(i), adjb)
        if any(x % d for x in num):
            raise NotUnimodularError(
                f"row {i} is not an integer combination of the base rows "
                f"{tuple(base)}: the maximal independent subsets generate "
                f"different groups", rows=(*base, i))
        out.append(tuple(x // d for x in num))
    if labels is not None:
        labels = check_labels(labels, N)
    return UnimodularSystem(n=n, a_matrix=IntMatrix.from_rows(out),
                            base_rows=tuple(base), labels=labels)


def _standard_outcome(standardize, raw, labels=None):
    """The standard form, or the rejection it raises, comparably."""
    try:
        s = standardize(raw, labels)
    except UnimodError as exc:
        return type(exc), str(exc), getattr(exc, "rows", None)
    return s.a_matrix, s.base_rows, s.labels


def random_raw_rows(rng):
    """Seeded integer row data: (kind, rows).

    Kinds: free entries; rank below n (a product through r < n columns);
    a zero row; N = n - 1 rows; integer expansions C B over a random B,
    whose pivots are rarely units, with C = [I; T] in shuffled or base-first
    row order.  Entries are bounded by 1, 2, 9 or 10^6.
    """
    n = rng.randint(1, 5)
    N = rng.randint(n, n + 5)
    bound = rng.choice((1, 2, 9, 10 ** 6))
    kind = rng.choice(("entries", "low rank", "zero row", "short", "expanded"))

    def block(r, c, b=bound):
        return [[rng.randint(-b, b) for _ in range(c)] for _ in range(r)]

    if kind == "low rank" and n > 1:
        r = rng.randint(1, n - 1)
        return kind, (IntMatrix.from_rows(block(N, r))
                      @ IntMatrix.from_rows(block(r, n))).to_lists()
    if kind == "short":
        return kind, block(n - 1, n)
    if kind == "expanded":
        c = [[int(i == j) for j in range(n)] for i in range(n)]
        c += block(N - n, n, 2)
        if rng.random() < 0.5:
            rng.shuffle(c)
        return kind, (IntMatrix.from_rows(c)
                      @ IntMatrix.from_rows(block(n, n))).to_lists()
    rows = block(N, n)
    if kind == "zero row":
        rows[rng.randrange(N)] = [0] * n
    return kind, rows


def _raw_cases():
    """(raw rows, labels) for the standardization oracle."""
    sweep = [s for _, s in catalog_sweep()]
    cases = [(s.a_matrix, s.labels) for s in sweep]
    cases += [(rows, None) for rows in
              scrambled_rows(random.Random(170818), sweep[3:], 12)]
    for k in range(3, 10):
        g = make("complete", k)
        for rows_of in (_cycle_rows, _cut_rows):
            rows, kept = rows_of(g)
            cases.append((rows, edge_labels(kept)))
    for i in range(len(_BIXBY_SEYMOUR_RAW)):
        rows = [list(r) for r in _BIXBY_SEYMOUR_RAW]
        rows[i] = [2 * x for x in rows[i]]
        cases.append((rows, None))
    rng = random.Random(170819)
    for t in range(320):
        _, rows = random_raw_rows(rng)
        labels = None
        if t % 4 == 1:
            labels = [f"x{i}" for i in range(len(rows))]
        elif t % 16 == 3:
            labels = ["x y"] * len(rows)
        cases.append((rows, labels))
    # the empty system, with labels of each length up to 3, and 1 to 8
    # rows of width 0; a 0 x 0 matrix from random_raw_rows ("short" with
    # n = 1) is the empty system too
    cases += [([], None)] + [([], [f"x{i}" for i in range(k)])
                             for k in range(4)]
    cases += [([()] * k, None) for k in range(1, 9)]
    return cases


def test_one_pass_standardization_matches_hermite_route():
    """The same a_matrix, base_rows and labels as the route of one Hermite
    rank per row and the adjugate, or the same rejection: type, message and
    rows."""
    seen = Counter()
    for raw, labels in _raw_cases():
        want = _standard_outcome(adjugate_standardize, raw, labels)
        assert _standard_outcome(_standardize, raw, labels) == want, raw
        if isinstance(want[0], type):
            seen[want[0].__name__, "zero form" in want[1]] += 1
        else:
            m = raw if isinstance(raw, IntMatrix) else IntMatrix.from_rows(raw)
            d = determinant(m.take_rows(want[1]))
            seen["built", "|det B| > 1" if abs(d) > 1 else "unit"] += 1
    # every branch is taken, and built inputs include non-unit pivots
    assert min(seen.values()) >= 10 and len(seen) == 6, seen


def test_standardization_runs_no_other_kernel(monkeypatch):
    """No Hermite form, determinant or adjugate runs while standardizing."""
    sweep = [s for _, s in catalog_sweep()]
    k7 = make("complete", 7)
    built = [(graphic_system(k7), _cycle_rows(k7)),
             (cographic_system(k7), _cut_rows(k7))]
    monkeypatch.setattr(intlinalg, "hermite_form", _must_not_run)
    monkeypatch.setattr(systems, "adjugate", _must_not_run)
    monkeypatch.setattr(systems, "determinant", _must_not_run)
    for s in sweep:
        assert_same_system(from_matrix(s.a_matrix.to_lists(), s.labels), s)
    for s, (rows, kept) in built:
        assert_same_system(_standardize(rows, edge_labels(kept)), s)


# ---------------------------------------------------------------------------
# oracles for the polytope report: the routines the report used before the
# base-coordinate search, the bases read off the tail minors and the
# closed-form zonotope verdict replaced them, bodies unchanged except where
# noted


def _cube_scan(n_coords, kernel):
    """All z in {-1,0,1}^n_coords orthogonal to every kernel vector.

    Meet-in-the-middle: index half-assignments by their partial products
    against the kernel, then join halves whose partials cancel.
    """
    if n_coords == 0:
        return [()]
    half = n_coords // 2
    left_len, right_len = half, n_coords - half
    kl = [k[:half] for k in kernel]
    kr = [k[half:] for k in kernel]
    table = {}
    for left in product((-1, 0, 1), repeat=left_len):
        key = tuple(dot(left, k) for k in kl)
        table.setdefault(key, []).append(left)
    out = []
    for right in product((-1, 0, 1), repeat=right_len):
        need = tuple(-dot(right, k) for k in kr)
        for left in table.get(need, ()):
            out.append(left + right)
    out.sort()
    return out


# The cube scan meets 3^N candidates whatever the number of points, so the
# oracle keeps a size guard of its own.
CUBE_SCAN_CAP = 18


def cube_scan_polytope_points(sys, cap=CUBE_SCAN_CAP):
    """All lattice points of D as vectors, sorted lexicographically.

    Complete by the cube argument: a point of D has every form value in
    {-1,0,1}, and membership in W is equivalent to orthogonality against a
    saturated basis of the complement.
    """
    if sys.N > cap:
        raise CapError(f"cube scan over 3^{sys.N} points exceeds cap {cap}")
    kernel = kernel_basis(sys.a_matrix)
    pts = []
    for z in _cube_scan(sys.N, kernel):
        _coefficients(sys, z)  # every scanned point lies in the lattice
        pts.append(z)
    return tuple(pts)


def _sign_ok(prows, d, s):
    for pr in prows:
        acc = 0
        for a, b in zip(pr, s):
            if b == 1:
                acc += a
            else:
                acc -= a
        if acc > d or acc < -d:
            return False
    return True


def _zono_block(args):
    prows, d, prefix, suffix_len = args
    for suffix in product((1, -1), repeat=suffix_len):
        if not _sign_ok(prows, d, prefix + suffix):
            return False
    return True


def sign_scan_zonotope_check(sys):
    """Whether every +-1 sign vector projects into D, by scanning them all.

    The projection of s is (P s)/d, so membership is max_i |(P s)_i| <= d;
    opposite sign vectors are equivalent, so s_1 = +1.  (The cap and the
    worker pool of the original are left out.)
    """
    if sys.N == 0:
        return True
    p, d = form_pairing_matrix(sys)
    return _zono_block((p.row_list(), d, (1,), sys.N - 1))


def scrambled_rows(rng, systems, count):
    """Seeded raw rows: rows permuted and sign-flipped, a unimodular base change."""
    out = []
    for _ in range(count):
        s = rng.choice(systems)
        n = s.n
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(2 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            sign = rng.choice((1, -1))
            u[i] = [x + sign * y for x, y in zip(u[i], u[j])]
        rows = (s.a_matrix @ IntMatrix.from_rows(u)).to_lists()
        signs = [rng.choice((1, -1)) for _ in rows]
        out.append([[signs[i] * x for x in rows[i]]
                    for i in rng.sample(range(s.N), s.N)])
    return out


def scrambled_copies(rng, systems, count):
    """Seeded copies: rows permuted and sign-flipped, a unimodular base change."""
    return [from_matrix(rows) for rows in scrambled_rows(rng, systems, count)]


def _systems_under_test(seed):
    sweep = [s for _, s in catalog_sweep()]
    return sweep + scrambled_copies(random.Random(seed), sweep[3:], 12)


def random_graph_systems(rng, count):
    """The graphic and cographic systems of seeded multigraphs with loops,
    bridges and parallel edges, up to count of them."""
    out = []
    while len(out) < count:
        g = random_multigraph_with_loops(rng)
        for build in (graphic_system, cographic_system):
            try:
                out.append(build(g))
            except DegenerateSystemError:  # a tree, or one vertex
                pass
    return out[:count]


def _is_vector(v, length):
    return (type(v) is tuple and len(v) == length
            and all(type(x) is int for x in v))


def test_points_match_cube_scan():
    for s in _systems_under_test(170810):
        scanned = cube_scan_polytope_points(s)
        assert all(_is_vector(v, s.N) for v in scanned), s
        assert polytope_points(s) == scanned, s


def test_points_are_plain_int_tuples():
    # a point is its vector: an exact tuple of plain ints, not a record
    systems = [s for _, s in catalog_sweep()]
    systems += random_graph_systems(random.Random(170840), 40)
    for s in systems:
        for pts in (polytope_points(s), build_polytope_report(s).points):
            assert type(pts) is tuple, s
            assert all(_is_vector(v, s.N) for v in pts), s


def test_report_points_are_not_tracked_by_the_gc():
    # exact tuples of ints are untracked by a collection, so a full
    # collection does not walk every point of a large report
    rep = build_polytope_report(graphic_system(make("complete", 5)))
    gc.collect()
    assert len(rep.points) == 219
    assert not any(map(gc.is_tracked, rep.points))


def test_half_search_returns_one_of_each_pair():
    # _box_points returns the nonzero points whose first nonzero base
    # coordinate is 1; with their negations and the origin they are D
    subjects = _systems_under_test(170830)
    subjects += random_graph_systems(random.Random(170831), 60)
    subjects.append(EMPTY_SYSTEM)
    for s in subjects:
        half = _box_points([s.a_matrix.col(j) for j in range(s.n)],
                           systems.DEFAULT_CAP)
        origin = (0,) * s.N
        negations = [tuple(-x for x in w) for w in half]
        assert origin not in half, s
        assert len(set(half + negations)) == 2 * len(half), s
        assert tuple(sorted(half + negations + [origin])) == (
            cube_scan_polytope_points(s)), s


def test_walker_visits_each_base_once():
    for s in _systems_under_test(170811):
        bases = enumerate_bases(s)
        assert len(set(bases)) == len(bases) == complexity(s), s
        assert bases == combinations_bases(s), s


def test_bases_of_scrambled_tall_tails_match_the_oracle():
    # a tail with more rows than columns is walked along its columns
    rng = random.Random(170819)
    tall = [s for _, s in catalog_sweep() if s.N - s.n > s.n]
    dense = []
    while len(dense) < 15:
        g = random_connected_multigraph(rng, rng.randint(4, 6),
                                        rng.randint(4, 9))
        s = cographic_system(g)
        if s.n < s.N - s.n and s.N <= 15:
            dense.append(s)
    copies = (scrambled_copies(rng, tall, 10)
              + scrambled_copies(rng, dense, 30))
    assert Counter(s.n for s in copies).keys() >= {1, 3, 4, 5}
    for s in copies:
        assert s.N - s.n > s.n
        bases = enumerate_bases(s)
        assert len(bases) == complexity(s), s
        assert bases == combinations_bases(s), s


@pytest.mark.parametrize("order", [6, 7])
@pytest.mark.parametrize("build", [graphic_system, cographic_system])
def test_bases_of_complete_graphs_beyond_the_oracle(build, order):
    # both systems of K_m have one base per spanning tree, m^(m-2) of them
    # (Cayley); K_7 has N = 21 rows, past the subset oracle's size guard
    bases = enumerate_bases(build(make("complete", order)))
    assert len(set(bases)) == len(bases) == order ** (order - 2)


def test_bases_of_cographic_k7_have_unit_determinant():
    s = cographic_system(make("complete", 7))
    assert s.n == 6
    a = s.a_matrix
    assert all(determinant(a.take_rows(b)) in (1, -1)
               for b in enumerate_bases(s))


def test_basic_vertices_match_adjugate_route():
    # the report's vertices come from the point search and the rank test;
    # the feasible basic solutions are computed independently
    for s in _systems_under_test(170813):
        rep = build_polytope_report(s)
        assert set(rep.vertices) == adjugate_basic_vertices(s), s


def hermite_vertex_test(sys, point):
    """Whether a point of D is a vertex, by the exact rank of its active rows.

    The rank comes from the Hermite form over Z, so this oracle does not
    rely on total unimodularity, as the GF(2) rank in vertex_test does.
    """
    active = [i for i, x in enumerate(point) if x]
    if len(active) < sys.n:
        return False
    return rank(sys.a_matrix.take_rows(active)) == sys.n


def test_gf2_vertex_test_matches_hermite_rank():
    k6 = make("complete", 6)
    systems = _systems_under_test(170814)
    systems += [graphic_system(k6), cographic_system(k6), EMPTY_SYSTEM]
    for s in systems:
        for v in polytope_points(s):
            assert vertex_test(s, v) == hermite_vertex_test(s, v), (s, v)


def per_point_vertices_and_facets(sys, pts):
    """The vertices of D and, per facet pair, its rep row, its class and the
    point and vertex counts of both sides, derived point by point.

    vertex_test runs on every point, and each class lists the level of
    every point and vertex on its rep row; the report instead takes the
    verdict once per support, counts the levels in C loops, and counts
    one side only, since w -> -w swaps them.
    """
    vertices = tuple(v for v in pts if vertex_test(sys, v))
    pairs = []
    for cls in multiplicity_classes(sys):
        levels = [v[cls[0]] for v in pts]
        vertex_levels = [v[cls[0]] for v in vertices]
        pairs.append((cls[0], cls, levels.count(1), levels.count(-1),
                      vertex_levels.count(1), vertex_levels.count(-1)))
    return vertices, pairs


def test_report_vertices_match_vertex_test():
    # the sweep, scrambled copies of it, and complete graphs, whose points
    # share supports many times over (7839 points, 1024 supports at k = 6)
    rng = random.Random(170815)
    sweep = [s for _, s in catalog_sweep()]
    systems = sweep + [c for s in sweep for c in scrambled_copies(rng, [s], 1)]
    for k in (5, 6):
        g = make("complete", k)
        systems += [graphic_system(g), cographic_system(g)]
    systems += random_graph_systems(rng, 60)
    for s in systems:
        rep = build_polytope_report(s)
        vertices, pairs = per_point_vertices_and_facets(s, rep.points)
        assert rep.vertices == vertices, s
        assert len(rep.facet_pairs) == len(pairs), s
        for f, (row, rows, plus, minus, plus_v, minus_v) in zip(
                rep.facet_pairs, pairs):
            assert (f.rep_row, f.class_rows) == (row, rows), s
            # central symmetry: -w is a point (vertex) whenever w is
            assert f.point_count == plus == minus, s
            assert f.vertex_count == plus_v == minus_v, s
        assert facets(s) == rep.facet_pairs, s
        squares = [sum(1 for x in v if x) for v in rep.points]
        assert [p["square"] for p in rep.to_dict()["points"]] == squares, s
        counts = Counter(squares)
        del counts[0]  # the origin
        assert rep.square_counts == dict(sorted(counts.items())), s
        assert short_vector_census(s) == rep.census, s


def test_zonotope_closed_form_matches_sign_scan():
    systems = [make("sigma", n) for n in range(1, 17)]
    systems += [s for _, s in catalog_sweep()]
    for s in systems:
        assert zonotope_check(s) == sign_scan_zonotope_check(s), s


def verdict_subjects(seed):
    """Seeded systems for the zonotope verdict: the graphic and cographic
    systems of random multigraphs with loops, bridges and parallel edges,
    their Gale duals and unit-free cores, direct sums of pairs of them, and
    scrambled copies of the sweep."""
    rng = random.Random(seed)
    graph_systems = random_graph_systems(rng, 200)
    derived = [d for s in graph_systems
               for d in (s, gale_dual(s), split_upsilon(s).core) if d.N]
    sums = [direct_sum(rng.choice(derived), rng.choice(derived))
            for _ in range(100)]
    sweep = [s for _, s in catalog_sweep()]
    return derived + sums + scrambled_copies(rng, sweep[3:], 60)


def test_zonotope_verdict_is_the_class_count():
    # zonotope_check counts the classes of parallel forms; the oracle sums
    # the rows of the projection matrix in Fractions, and every "no"
    # witness must project outside D
    subjects = verdict_subjects(170832)
    assert len(subjects) >= 500
    verdicts = Counter()
    for s in subjects:
        verdict = zonotope_check(s)
        assert verdict == _shadow_inside_section(s), s
        verdicts[verdict] += 1
        witness = zonotope_witness(s)
        assert (witness is None) == verdict, s
        if witness is not None:
            assert len(witness) == s.N and set(witness) <= {1, -1}, s
            image = [sum(p * x for p, x in zip(row, witness))
                     for row in _projection_rows(s)]
            assert max(map(abs, image)) > 1, s
    assert min(verdicts[True], verdicts[False]) >= 100, verdicts


def enumerate_correspondences(a, b, *, count_all):
    """Backtracking over signed images of a's base rows in b (test-only
    oracle: the search that counted one leaf per automorphism).

    Assignments must preserve the exact form pairings (P/d matrices), which
    prunes hard; a complete assignment forces the base change, and the
    remaining rows are matched as a multiset.  Yields either the first
    witness (count_all=False) or the total number of correspondences.
    """
    n, N = a.n, a.N
    pa, _ = form_pairing_matrix(a)
    pb, _ = form_pairing_matrix(b)
    ba = a.base_rows
    b_rows = b.a_matrix.row_list()
    by_norm = {}
    for i, r in enumerate(b_rows):
        by_norm.setdefault(_normalize_row(r), []).append(i)

    total = 0
    targets = [0] * n
    signs = [0] * n

    def complete():
        nonlocal total
        g = IntMatrix.from_rows(
            [tuple(signs[j] * x for x in b_rows[targets[j]]) for j in range(n)])
        if determinant(g) == 0:
            return None
        used = set(targets)
        rest_a = [i for i in range(N) if i not in set(ba)]
        rest_b_count = {}
        for i in range(N):
            if i not in used:
                rest_b_count[_normalize_row(b_rows[i])] = \
                    rest_b_count.get(_normalize_row(b_rows[i]), 0) + 1
        need = {}
        images = {}
        for i in rest_a:
            w = vecmat(a.row(i), g)
            key = _normalize_row(w)
            images[i] = w
            need[key] = need.get(key, 0) + 1
        if need != rest_b_count:
            return None
        if count_all:
            ways = 1
            for cnt in need.values():
                for t in range(2, cnt + 1):
                    ways *= t
            total += ways
            return None
        # build the first witness: smallest free b-row per a-row, ascending
        free = {}
        for i in range(N):
            if i not in used:
                free.setdefault(_normalize_row(b_rows[i]), []).append(i)
        row_map = [None] * N
        sgn = [0] * N
        for j in range(n):
            row_map[ba[j]] = targets[j]
            sgn[ba[j]] = signs[j]
        for i in rest_a:
            w = images[i]
            t = free[_normalize_row(w)].pop(0)
            row_map[i] = t
            sgn[i] = 1 if b_rows[t] == w else -1
        return SignedCorrespondence(tuple(row_map), tuple(sgn), g)

    def dfs(j):
        nonlocal total
        if j == n:
            found = complete()
            return found
        aj = ba[j]
        for t in range(N):
            if t in targets[:j]:
                continue
            if pb[t, t] != pa[aj, aj]:
                continue
            for eps in (1, -1):
                ok = True
                for i in range(j):
                    if pa[ba[i], aj] != signs[i] * eps * pb[targets[i], t]:
                        ok = False
                        break
                if not ok:
                    continue
                targets[j] = t
                signs[j] = eps
                found = dfs(j + 1)
                if found is not None and not count_all:
                    return found
        targets[j] = 0
        signs[j] = 0
        return None

    witness = dfs(0)
    return total if count_all else witness


def enumerate_automorphism_count(sys):
    """Automorphisms counted one search leaf at a time (test-only oracle)."""
    if sys.N == 0:
        return 1
    return enumerate_correspondences(sys, sys, count_all=True)


def test_automorphism_count_matches_enumeration():
    # the sweep holds sigma:1..8, theta/cycle graphs and bixby_seymour
    systems = _systems_under_test(170814)
    systems += [graphic_system(make("complete", 6)),
                cographic_system(make("complete", 6))]
    for s in systems:
        assert automorphism_count(s) == enumerate_automorphism_count(s), s


def test_isomorphism_witness_matches_enumeration():
    rng = random.Random(170815)
    for _, s in catalog_sweep():
        t = scrambled_copies(rng, [s], 1)[0]
        corr = are_isomorphic(s, t)
        if s.a_matrix == t.a_matrix:
            assert corr.row_map == tuple(range(s.N))
        else:
            assert corr == enumerate_correspondences(s, t, count_all=False), s


# ---------------------------------------------------------------------------
# one-pass isomorphism completion: the search whose completion compared the
# multisets of tail images and free rows first, then walked the tail again
# to assign them, is the oracle (body unchanged but for the failed list and
# the pairings read through the systems module, as the search reads them)


def two_pass_correspondence_search(a, b, cap, failed=None):
    """A function first(prefix=()): the first signed correspondence a -> b,
    each completion matching the tail rows in two passes.  Each completion
    that fails appends to failed, when given."""
    n, N = a.n, a.N
    pa = systems.form_pairing_matrix(a)[0].row_list()
    pb = systems.form_pairing_matrix(b)[0].row_list()
    ba = a.base_rows
    rest_a = a.tail_rows()
    a_rows = a.a_matrix.row_list()
    b_rows = b.a_matrix.row_list()
    targets = [0] * n
    signs = [0] * n
    nodes = 0

    def complete():
        g = IntMatrix.from_rows(
            [tuple(signs[j] * x for x in b_rows[targets[j]]) for j in range(n)])
        used = set(targets)
        free = {}
        for i in range(N):
            if i not in used:
                free.setdefault(_normalize_row(b_rows[i]), []).append(i)
        need = {}
        images = {}
        for i in rest_a:
            w = vecmat(a_rows[i], g)
            key = _normalize_row(w)
            images[i] = w
            need[key] = need.get(key, 0) + 1
        if need != {key: len(rows) for key, rows in free.items()}:
            if failed is not None:
                failed.append(tuple(zip(targets, signs)))
            return None
        # the first witness: smallest free b-row per a-row, ascending
        row_map = [None] * N
        sgn = [0] * N
        for j in range(n):
            row_map[ba[j]] = targets[j]
            sgn[ba[j]] = signs[j]
        for i in rest_a:
            w = images[i]
            t = free[_normalize_row(w)].pop(0)
            row_map[i] = t
            sgn[i] = 1 if b_rows[t] == w else -1
        return SignedCorrespondence(tuple(row_map), tuple(sgn), g)

    def first(prefix=(), j=0):
        nonlocal nodes
        if j == n:
            return complete()
        aj = ba[j]
        choices = (prefix[j:j + 1] if j < len(prefix)
                   else [(t, eps) for t in range(N) for eps in (1, -1)])
        for t, eps in choices:
            if t in targets[:j] or pb[t][t] != pa[aj][aj]:
                continue
            if any(pa[ba[i]][aj] != signs[i] * eps * pb[targets[i]][t]
                   for i in range(j)):
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

    return first


def _random_graph_systems(rng, count, builds):
    out = []
    while len(out) < count:
        g = random_multigraph_with_loops(rng)
        for build in builds:
            try:
                out.append(build(g))
            except UnimodError:
                pass
    return out[:count]


def test_one_pass_completion_matches_two_pass(monkeypatch):
    rng = random.Random(170826)
    sweep = [s for _, s in catalog_sweep()]
    randoms = _random_graph_systems(rng, 30, (graphic_system, cographic_system))
    pairs = [(s, scrambled_copies(rng, [s], 1)[0]) for s in sweep + randoms]
    # automorphisms: the level-0 orbit candidates (t, 1), about half of
    # which have no witness
    autos = [make("bixby_seymour"), graphic_system(make("complete", 5)),
             cographic_system(make("complete", 5)),
             graphic_system(make("theta", 5))]
    autos += _random_graph_systems(rng, 30, (cographic_system,))
    found = Counter()
    for s in autos:
        one = systems._correspondence_search(s, s, systems.DEFAULT_CAP)
        two = two_pass_correspondence_search(s, s, systems.DEFAULT_CAP)
        for t in range(s.N):
            got = one(((t, 1),))
            assert got == two(((t, 1),)), (s, t)
            found[got is None] += 1
    assert found[True] >= 50 and found[False] >= 50, found
    got = ([are_isomorphic(s, t) for s, t in pairs],
           [automorphism_count(s) for s in autos])
    monkeypatch.setattr(systems, "_correspondence_search",
                        two_pass_correspondence_search)
    assert got == ([are_isomorphic(s, t) for s, t in pairs],
                   [automorphism_count(s) for s in autos])
    assert all(got[0])


def test_completion_misses_as_two_pass_does(monkeypatch):
    """Completions that fail, which no pair of systems above produced: b is
    a with one tail row doubled, searched under a's pairings, so every
    assignment passes the pairing tests as it does for a, and the doubled
    row matches no image."""
    pairing = systems.form_pairing_matrix
    for _, a in catalog_sweep():
        if a.N == a.n:
            continue
        rows = a.a_matrix.to_lists()
        for r in (a.tail_rows()[0], a.tail_rows()[-1]):
            doubled = [[2 * x for x in row] if i == r else row
                       for i, row in enumerate(rows)]
            b = UnimodularSystem(a.n, IntMatrix.from_rows(doubled),
                                 a.base_rows, None)
            monkeypatch.setattr(systems, "form_pairing_matrix",
                                lambda s: pairing(a))
            failed = []
            one = systems._correspondence_search(a, b, systems.DEFAULT_CAP)
            two = two_pass_correspondence_search(a, b, systems.DEFAULT_CAP,
                                                 failed)
            for t in range(a.N):
                assert one(((t, 1),)) is two(((t, 1),)) is None, (a, t)
            assert failed, a


# ---------------------------------------------------------------------------
# automorphisms counted by orbit closure: the count that ran one witness
# search per candidate signed row at every stabilizer level is the oracle
# (body unchanged but for the search read through the systems module)


def per_candidate_automorphism_count(sys, cap=systems.DEFAULT_CAP):
    """Signed self-correspondences, one witness search per candidate orbit
    element (test-only oracle)."""
    if sys.N == 0:
        return 1
    classes = Counter(_normalize_row(sys.row(i)) for i in sys.tail_rows())
    count = prod(factorial(cnt) for cnt in classes.values())
    first = systems._correspondence_search(sys, sys, cap)
    fixed = tuple((r, 1) for r in sys.base_rows)
    count *= 2 * sum(1 for t in range(sys.N) if first(((t, 1),)) is not None)
    for j in range(1, sys.n):
        count *= sum(1 for t in range(sys.N) for eps in (1, -1)
                     if first(fixed[:j] + ((t, eps),)) is not None)
    return count


def counted_work(count, sys, cap=systems.DEFAULT_CAP):
    """(count(sys, cap), witness searches, search nodes) of one count."""
    search = systems._correspondence_search
    made = []

    def counting(a, b, cap):
        first = search(a, b, cap)
        made.append([first, 0])

        def counted(prefix=()):
            made[-1][1] += 1
            return first(prefix)

        return counted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(systems, "_correspondence_search", counting)
        got = count(sys, cap)
    if not made:  # the empty system
        return got, 0, 0
    (first, searches), = made
    return got, searches, first.nodes()


def _repeated_sums():
    """Direct sums with repeated summands: their symmetries also swap the
    equal blocks, which no single summand shows."""
    t3, s2 = make("triangle3"), make("sigma", 2)
    k4 = graphic_system(make("complete", 4))
    theta3 = graphic_system(make("theta", 3))
    cycle4 = cographic_system(make("cycle", 4))
    sums = [direct_sum(direct_sum(t3, t3), s2), direct_sum(k4, k4),
            direct_sum(s2, direct_sum(s2, s2)), direct_sum(t3, s2),
            direct_sum(direct_sum(theta3, cycle4), theta3),
            direct_sum(make("pair2"), make("pair2")),
            direct_sum(make("upsilon", 2), direct_sum(s2, t3))]
    return sums + [direct_sum(x, x) for _, x in catalog_sweep() if x.N <= 5]


def test_orbit_closure_count_matches_the_oracles():
    # the sweep with scrambled copies, 240 seeded graphic and cographic
    # multigraph systems (parallel edges make classes of equal tail rows,
    # whose swaps are the first generators) and repeated direct sums.  The
    # enumeration visits one search leaf per automorphism, so it checks the
    # counts up to 5000 (upsilon:3 + upsilon:3 has 46080 and took 1.3 s)
    rng = random.Random(170830)
    cases = (_systems_under_test(170829) + random_graph_systems(rng, 240)
             + _repeated_sums())
    fewer = enumerated = 0
    for s in cases:
        got, searches, _ = counted_work(automorphism_count, s)
        want, per_candidate, _ = counted_work(
            per_candidate_automorphism_count, s)
        assert got == want, s
        if want <= 5000:
            assert got == enumerate_automorphism_count(s), s
            enumerated += 1
        assert searches <= per_candidate, s
        fewer += searches < per_candidate
    assert enumerated >= 280 and fewer >= 200


@pytest.mark.parametrize("build,searches,nodes", [
    (lambda: make("bixby_seymour"), 4, 20),
    (lambda: graphic_system(make("complete", 7)), 6, 90),
    (lambda: graphic_system(make("complete", 9)), 8, 224),
])
def test_automorphism_work_is_pinned(build, searches, nodes):
    # deterministic counters: a change in them is a change of the count's
    # work, not machine noise.  The per-candidate oracle ran N + (n-1) 2N
    # searches: 90, 609 and 1980 of them
    s = build()
    got, k, spent = counted_work(automorphism_count, s)
    assert (k, spent) == (searches, nodes)
    assert k <= s.N + (s.n - 1) * 2 * s.N
    assert automorphism_count(s, cap=nodes) == got
    with pytest.raises(CapError, match=f"exceeds cap {nodes - 1} nodes"):
        automorphism_count(s, cap=nodes - 1)
