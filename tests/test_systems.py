"""Construction, verification, duality and isomorphism of systems."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from unimod.catalog import entries as catalog_entries
from unimod.catalog import make
from unimod.errors import (CapError, DimensionError, NotUnimodularError,
                           PreconditionError, RankError)
from unimod.graphs import cographic_system, graphic_system
from unimod.intlinalg import IntMatrix, determinant
from unimod.lattice import _odd_rows, build_polytope_report, lattice_of
from unimod.systems import (
    EMPTY_SYSTEM,
    are_isomorphic,
    automorphism_count,
    complexity,
    direct_sum,
    enumerate_bases,
    from_matrix,
    form_pairing_matrix,
    gale_dual,
    gram_matrix,
    multiplicity_classes,
    split_upsilon,
)

rng = random.Random(996633)

Q_RAW = [[1, 1, 0, 0, 0],
         [0, 1, 1, 0, 0],
         [0, 0, 1, 1, 0],
         [0, 0, 0, 1, 1],
         [1, 0, 0, 0, 1],
         [1, 0, 1, 0, 0],
         [0, 1, 0, 1, 0],
         [0, 0, 1, 0, 1],
         [1, 0, 0, 1, 0],
         [0, 1, 0, 0, 1]]

R_STANDARD = [[1, 0, 0, 0, 0],
              [0, 1, 0, 0, 0],
              [0, 0, 1, 0, 0],
              [0, 0, 0, 1, 0],
              [0, 0, 0, 0, 1],
              [0, 0, 1, -1, 1],
              [1, 0, 0, 1, -1],
              [-1, 1, 0, 0, 1],
              [1, -1, 1, 0, 0],
              [0, 1, -1, 1, 0]]


# ---------------------------------------------------------------------------
# from_matrix


def test_from_matrix_reexpands_raw_presentation():
    sys_q = from_matrix(Q_RAW)
    assert sys_q.a_matrix.to_lists() == R_STANDARD
    assert sys_q.base_rows == (0, 1, 2, 3, 4)
    assert sys_q.n == 5 and sys_q.N == 10


def test_from_matrix_accepts_scaled_single_form():
    assert from_matrix([[2]]).a_matrix.to_lists() == [[1]]
    assert from_matrix([[-3]]).a_matrix.to_lists() == [[1]]


def test_from_matrix_rejects_tu_violation_with_witness():
    with pytest.raises(NotUnimodularError) as exc:
        from_matrix([[1, 0], [0, 1], [1, 1], [1, -1]])
    w = exc.value.witness()
    assert w["rows"] == [2, 3]
    assert w["cols"] == [0, 1]
    assert w["value"] in (2, -2)


def test_from_matrix_rejects_zero_row():
    with pytest.raises(NotUnimodularError):
        from_matrix([[1, 0], [0, 0]])


def test_from_matrix_rejects_rank_deficiency():
    with pytest.raises(RankError):
        from_matrix([[1, 1], [2, 2]])


def test_from_matrix_rejects_incompatible_group():
    # rows (2,0) and (0,1) generate index-2 subgroup that misses (1,1)
    with pytest.raises(NotUnimodularError):
        from_matrix([[2, 0], [0, 1], [1, 1]])


def test_from_matrix_label_validation():
    s = from_matrix([[1], [1]], labels=("a", "b"))
    assert s.label(1) == "b"
    with pytest.raises(PreconditionError):
        from_matrix([[1], [1]], labels=("only-one",))
    for bad in (("a b", "c"), ("", "c"), ("a", "\tb")):
        with pytest.raises(PreconditionError):
            from_matrix([[1], [1]], labels=bad)


@pytest.mark.parametrize("labels", [
    "ab",            # one string, not split into characters
    (None, True),    # not strings, not converted to "None" and "True"
    ("a", 3),
])
def test_from_matrix_takes_labels_as_given_strings(labels):
    with pytest.raises(PreconditionError):
        from_matrix([[1], [1]], labels=labels)


@pytest.mark.parametrize("raw", [
    [[1.7, 0], [0, 1], [True, 1]],  # float and boolean, read as [[1, 0], ...]
    [[1.0, 0], [0, 1]],             # integral float
    [[1, 0], [0, True]],            # boolean alone
    [[1, 0], [0, "1"]],             # string
    [[Fraction(2, 2)]],             # integral fraction
])
def test_from_matrix_rejects_non_integer_entries(raw):
    with pytest.raises(PreconditionError):
        from_matrix(raw)


def test_from_matrix_of_an_int_matrix_rejects_a_float_entry():
    # IntMatrix.from_rows checks the entries, so an IntMatrix handed to
    # from_matrix cannot carry a truncated float
    with pytest.raises(PreconditionError):
        from_matrix(IntMatrix.from_rows([[1, 0], [0, 1], [1.7, 1]]))


@pytest.mark.parametrize("m, error", [
    (IntMatrix(1, 1, (True,)), PreconditionError),
    (IntMatrix(2, 1, (1.5, 1)), PreconditionError),
    (IntMatrix(2, 2, (1, 0, 0, 1, 7)), DimensionError),  # an entry too many
    (IntMatrix(2, 2, (1, 0, 0)), DimensionError),        # an entry too few
], ids=["bool", "float", "extra-entry", "missing-entry"])
def test_from_matrix_checks_an_int_matrix_built_directly(m, error):
    # an IntMatrix built without from_rows is checked as from_rows checks rows
    with pytest.raises(error):
        from_matrix(m)


# ---------------------------------------------------------------------------
# complexity / bases


@pytest.mark.parametrize("n", range(1, 9))
def test_sigma_complexity(n):
    assert complexity(make("sigma", n)) == n


def test_complexity_bixby_seymour():
    assert complexity(make("bixby_seymour")) == 162


def test_gram_matrix_symmetry():
    g = gram_matrix(make("bixby_seymour"))
    assert g.to_lists() == g.transpose().to_lists()
    assert determinant(g) == 162


def test_enumerate_bases_matches_gram_determinant():
    for name in ("pair2", "triangle3", "bixby_seymour"):
        s = make(name)
        assert len(enumerate_bases(s)) == complexity(s)


def test_enumerate_bases_brute_force_definition():
    s = make("triangle3")
    expect = [c for c in combinations(range(s.N), s.n)
              if determinant(s.a_matrix.take_rows(c)) != 0]
    assert list(enumerate_bases(s)) == expect


def test_enumerate_bases_cap():
    with pytest.raises(CapError):
        enumerate_bases(make("bixby_seymour"), cap=9)


@pytest.mark.parametrize("s", [make("bixby_seymour"), make("sigma", 8),
                               graphic_system(make("complete", 5)),
                               cographic_system(make("complete", 5)),
                               make("upsilon", 1)],
                         ids=["bixby_seymour", "sigma:8", "graphic:complete:5",
                              "cographic:complete:5", "upsilon:1"])
def test_enumerate_bases_cap_boundaries(s):
    # the cap counts the bases found: as many as there are is enough, one
    # fewer is not, even for upsilon:1, one base with no tail rows (cap 0);
    # sigma:8 and cographic complete:5 (tail 6 > n 4) walk the tail columns
    c = complexity(s)
    assert len(enumerate_bases(s, cap=c)) == c
    with pytest.raises(CapError, match=f"exceeds cap {c - 1} bases"):
        enumerate_bases(s, cap=c - 1)


# ---------------------------------------------------------------------------
# direct sum / upsilon split


def test_direct_sum_complexity_multiplicative():
    a, b = make("triangle3"), make("sigma", 4)
    s = direct_sum(a, b)
    assert s.N == a.N + b.N and s.n == a.n + b.n
    assert complexity(s) == complexity(a) * complexity(b)


def test_direct_sum_with_empty():
    a = make("pair2")
    assert direct_sum(a, EMPTY_SYSTEM) is a
    assert direct_sum(EMPTY_SYSTEM, a) is a


def test_upsilon_detection():
    assert split_upsilon(make("upsilon", 3)).s == 3
    assert split_upsilon(make("upsilon", 3)).core.N == 0
    assert split_upsilon(make("sigma", 1)).s == 1
    sp = split_upsilon(make("bixby_seymour"))
    assert sp.s == 0 and sp.core.N == 10


def test_upsilon_split_mixed():
    s = direct_sum(make("upsilon", 2), make("triangle3"))
    sp = split_upsilon(s)
    assert sp.s == 2
    assert sp.unit_rows == (0, 1)
    assert sp.core.a_matrix.to_lists() == make("triangle3").a_matrix.to_lists()


# ---------------------------------------------------------------------------
# Gale duality


def test_gale_dual_of_repeated_form():
    d = gale_dual(make("sigma", 2))
    assert d.a_matrix.to_lists() == [[1], [-1]]
    assert are_isomorphic(d, make("sigma", 2)) is not None


def test_gale_dual_full_rank_is_empty():
    assert gale_dual(make("upsilon", 2)).N == 0
    assert gale_dual(EMPTY_SYSTEM).N == 0


def test_empty_matrix_is_the_empty_system():
    # the 0 x 0 matrix a written empty dual reads back as
    assert from_matrix([]) == from_matrix(IntMatrix(0, 0, ())) == EMPTY_SYSTEM
    with pytest.raises(RankError):
        from_matrix(IntMatrix(0, 3, ()))
    with pytest.raises(PreconditionError):
        from_matrix([(), ()])


def test_gale_dual_complexity_preserved():
    for name in ("sigma", "triangle3", "bixby_seymour"):
        s = make(name, 5) if name == "sigma" else make(name)
        assert complexity(gale_dual(s)) == complexity(s)


def test_bixby_seymour_self_dual():
    bs = make("bixby_seymour")
    corr = are_isomorphic(gale_dual(bs), bs)
    assert corr is not None
    assert corr.verify(gale_dual(bs), bs)


def test_double_dual_is_unit_free_core():
    s = direct_sum(make("upsilon", 1), make("triangle3"))
    dd = gale_dual(gale_dual(s))
    core = split_upsilon(s).core
    assert are_isomorphic(dd, core) is not None


def test_dual_rows_stay_aligned_with_original_positions():
    # the dual of sigma_3 pairs row i with the relation entered by form i
    s = make("sigma", 3)
    d = gale_dual(s)
    assert d.N == 3 and d.n == 2


# ---------------------------------------------------------------------------
# multiplicity classes


def test_multiplicity_classes_sigma():
    assert multiplicity_classes(make("sigma", 4)) == ((0, 1, 2, 3),)


def test_multiplicity_classes_all_distinct():
    assert multiplicity_classes(make("bixby_seymour")) == tuple(
        (i,) for i in range(10))


def test_multiplicity_classes_sign_insensitive():
    s = from_matrix([[1], [-1], [1]])
    assert multiplicity_classes(s) == ((0, 1, 2),)


# ---------------------------------------------------------------------------
# isomorphism / automorphisms


def test_identity_correspondence_fast_path():
    bs = make("bixby_seymour")
    corr = are_isomorphic(bs, bs)
    assert corr.row_map == tuple(range(10))
    assert corr.signs == (1,) * 10


def test_isomorphism_distinguishes_different_systems():
    assert are_isomorphic(make("sigma", 3), make("triangle3")) is None
    assert are_isomorphic(make("upsilon", 2), make("sigma", 2)) is None


def test_isomorphism_witness_verifies():
    a = make("triangle3")
    b = from_matrix([[0, 1], [1, 1], [1, 0]])      # shuffled triangle
    corr = are_isomorphic(a, b)
    assert corr is not None and corr.verify(a, b)


def _double_first_row(g):
    rows = g.to_lists()
    return IntMatrix.from_rows([[2 * x for x in rows[0]]] + rows[1:])


@pytest.mark.parametrize("broken", [
    pytest.param(lambda c: c._replace(row_map=(0, 0, 1)),
                 id="not-a-permutation"),
    pytest.param(
        lambda c: c._replace(base_change=_double_first_row(c.base_change)),
        id="det-2"),
    pytest.param(lambda c: c._replace(signs=(-c.signs[0],) + c.signs[1:]),
                 id="one-sign-flipped"),
])
def test_isomorphism_witness_verify_refuses_a_broken_witness(broken):
    a = make("triangle3")
    b = from_matrix([[0, 1], [1, 1], [1, 0]])
    corr = are_isomorphic(a, b)
    assert corr.verify(a, b)
    assert not broken(corr).verify(a, b)


def test_isomorphism_under_random_scrambles():
    base = [make("triangle3"), make("sigma", 4),
            direct_sum(make("pair2"), make("sigma", 2))]
    for s in base:
        for _ in range(5):
            perm = list(range(s.N))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(s.N)]
            rows = [[signs[i] * v for v in s.a_matrix.row(perm[i])]
                    for i in range(s.N)]
            t = from_matrix(rows)
            corr = are_isomorphic(s, t)
            assert corr is not None and corr.verify(s, t)


@pytest.mark.parametrize("n,expect", [(1, 2), (2, 4), (3, 12), (4, 48)])
def test_sigma_automorphism_count(n, expect):
    # signed permutations of one repeated form: 2 * n!
    assert automorphism_count(make("sigma", n)) == expect


def test_triangle_automorphism_count():
    # the hexagon's symmetry group: 3! permutations x 2 global signs
    assert automorphism_count(make("triangle3")) == 12


def test_automorphism_counts_at_the_frontier():
    # theta:12 (twelve parallel edges) and the 12-cycle: every permutation
    # of the 12 edges is a symmetry, times the global sign, 2 * 12! in all;
    # far beyond a search that visits one leaf per automorphism
    for s in (graphic_system(make("theta", 12)),
              cographic_system(make("cycle", 12))):
        assert automorphism_count(s) == 2 * math.factorial(12) == 958003200
    # K6: the 6! vertex permutations and the global sign
    for derive in (graphic_system, cographic_system):
        assert automorphism_count(derive(make("complete", 6))) == 1440


def test_empty_system_conventions():
    assert automorphism_count(EMPTY_SYSTEM) == 1
    assert complexity(EMPTY_SYSTEM) == 1


def test_automorphism_cap():
    with pytest.raises(CapError):
        automorphism_count(make("bixby_seymour"), cap=5)


def test_module_memos_are_bounded():
    # each memo keeps the systems it has seen alive, so it holds at most
    # lru_cache's default of 128 entries, however many systems a session sees
    memos = (gram_matrix, complexity, form_pairing_matrix, _odd_rows)
    for k in range(1, 201):
        s = make("sigma", k)
        for memo in memos:
            memo(s)
    assert all(memo.cache_info().currsize <= 128 for memo in memos)


def test_labels_do_not_take_part_in_equality():
    a = from_matrix([[1, 0], [0, 1], [1, 1]])
    b = from_matrix([[1, 0], [0, 1], [1, 1]], labels=("x", "y", "z"))
    assert a == b and b == a
    assert not (a != b) and not (b != a)
    assert hash(a) == hash(b)
    assert a != from_matrix([[1, 0], [0, 1], [1, -1]])


def test_records_are_immutable():
    s = make("bixby_seymour")
    report = build_polytope_report(s)
    records = [s, s.a_matrix, split_upsilon(s), are_isomorphic(s, s),
               make("complete", 4), catalog_entries()[0], lattice_of(s),
               report, report.facet_pairs[0], report.census]
    assert len({type(r) for r in records}) == 10
    for r in records:
        for name in r._fields:
            with pytest.raises(AttributeError):
                setattr(r, name, getattr(r, name))


def test_standard_form_under_every_last_pivot():
    # [[2]] (last pivot 2) still collapses to the unit system; [[2], [1]]
    # (last pivot 2, row 1 half of the base row) is still refused, naming
    # the base and the row; a base of determinant -1 is read off negated
    assert from_matrix([[2]]) == from_matrix([[1]]) == make("upsilon", 1)
    with pytest.raises(NotUnimodularError) as info:
        from_matrix([[2], [1]])
    assert info.value.rows == (0, 1)
    assert str(info.value) == (
        "row 1 is not an integer combination of the base rows (0,): the "
        "maximal independent subsets generate different groups")
    negated = from_matrix([[1, 1], [1, 0], [0, 1]])
    assert negated.a_matrix.to_lists() == [[1, 0], [0, 1], [1, -1]]


def test_raw_rows_are_checked_for_type_before_shape():
    # a ragged presentation holding a non-integer is refused for the entry
    with pytest.raises(PreconditionError, match=r"^row 1 \(1, 0.5\) has a "
                                                r"non-integer entry$"):
        from_matrix([[1], [1, 0.5]])
    with pytest.raises(DimensionError, match="^ragged rows$"):
        from_matrix([[1, 0], [1]])
