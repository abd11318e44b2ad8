"""Randomized consistency checks across module boundaries.

Each test draws small random multigraphs (or systems derived from them)
with a fixed seed and confirms that independently computed quantities
agree: tree counts against Gram determinants, duals against cut-space
derivations, scans against their defining inequalities, and the tail-row
total-unimodularity scan against a scan over every square minor.
"""

import math
import random
from itertools import combinations

from unimod.catalog import make
from unimod.graphs import (
    Multigraph,
    cographic_system,
    deleted_laplacian,
    graphic_system,
    spanning_trees,
    stabilize,
)
from unimod.intlinalg import IntMatrix, _det_dense, determinant
from unimod.lattice import polytope_points, short_vector_census
from unimod.systems import (
    _tu_witness,
    are_isomorphic,
    complexity,
    direct_sum,
    enumerate_bases,
    from_matrix,
    gale_dual,
    split_upsilon,
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


def test_scan_points_negate_and_reconstruct():
    rng = random.Random(170806)
    for _ in range(5):
        s, _ = random_graphic_system(rng)
        pts = polytope_points(s)
        vecs = {p.vector for p in pts}
        assert {tuple(-x for x in v) for v in vecs} == vecs
        a = s.a_matrix
        for p in pts:
            recon = tuple(
                sum(a[k, i] * p.coefficients[i] for i in range(s.n))
                for k in range(s.N))
            assert recon == p.vector


def test_census_total_matches_scan():
    rng = random.Random(170807)
    for _ in range(5):
        s, _ = random_graphic_system(rng)
        census = short_vector_census(s)
        pts = polytope_points(s)
        for sq in (1, 2, 3):
            assert census.counts[sq] == sum(
                1 for p in pts
                if sum(x * x for x in p.vector) == sq)


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
                d = _det_dense([[pr[j] for j in cs] for pr in picked])
                if d not in (0, 1, -1):
                    return rs, cs, d
    return None


def random_standard_form(rng):
    """A matrix whose n unit rows sit at random positions, plus base.

    Tail entries lie in {-2..2}; some tails use only 0/+-1.  Half of the
    tails carry a planted signed cycle block of size k >= 2: its determinant
    is +-2 and all its smaller minors are 0/+-1, so witnesses of every size
    turn up, not only entries and 2x2 minors.
    """
    n = rng.randint(1, 4)
    tail_count = rng.randint(0, 4)
    pool = rng.choice(((-2, -1, 0, 1, 2), (-1, 0, 1), (-1, 0, 0, 0, 1)))
    tail = [[rng.choice(pool) for _ in range(n)] for _ in range(tail_count)]
    if min(n, tail_count) >= 2 and rng.random() < 0.5:
        k = rng.randint(2, min(n, tail_count))
        rs, cs = rng.sample(range(tail_count), k), rng.sample(range(n), k)
        signs = [rng.choice((1, -1)) for _ in range(2 * k - 1)]
        # det = (prod of diagonal signs) + (-1)^(k-1) (prod of cycle signs)
        signs.append(math.prod(signs) * (-1) ** (k - 1))
        for j in range(k):
            row = tail[rs[j]]
            for c in cs:
                row[c] = 0
            row[cs[j]] = signs[2 * j]
            row[cs[(j + 1) % k]] = signs[2 * j + 1]
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
