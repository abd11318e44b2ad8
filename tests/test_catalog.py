"""Built-in systems and graphs: bounds, verbatim data, family identities."""

import pytest

from unimod.catalog import entries, lookup, make, parse_reference
from unimod.errors import CatalogError
from unimod.graphs import Multigraph, cographic_system, graphic_system
from unimod.intlinalg import square_minors
from unimod.systems import are_isomorphic, complexity, from_matrix


def test_entries_are_listed_once():
    names = [e.name for e in entries()]
    assert len(names) == len(set(names))
    assert "bixby_seymour" in names and "complete" in names


def test_lookup_unknown():
    with pytest.raises(CatalogError):
        lookup("petersen")


def test_make_kinds():
    assert make("pair2").n == 2
    assert isinstance(make("cycle", 4), Multigraph)


def test_make_param_bounds():
    with pytest.raises(CatalogError):
        make("sigma", 0)
    with pytest.raises(CatalogError):
        make("cycle", 2)
    with pytest.raises(CatalogError):
        make("sigma")           # parameter required
    with pytest.raises(CatalogError):
        make("pair2", 3)        # parameter refused


@pytest.mark.parametrize("name, param, message", [
    ("upsilon", 0, "upsilon needs m >= 1"),
    ("sigma", 0, "sigma needs N >= 1"),
    ("theta", 1, "theta needs N >= 2 parallel edges"),
    ("cycle", 2, "cycle needs N >= 3"),
    ("complete", 1, "complete needs N >= 2"),
])
def test_parameter_below_the_floor_is_refused(name, param, message):
    with pytest.raises(CatalogError, match=f"^{message}$"):
        make(name, param)


def test_default_parameter_is_used_when_none_is_given():
    assert make(*parse_reference("catalog:upsilon")) == make("upsilon", 1)


@pytest.mark.parametrize("name, param", [
    ("upsilon", 1001),          # m^2 = 1002001 matrix entries
    ("sigma", 10**6 + 1),
    ("theta", 10**6 + 1),
    ("cycle", 10**6 + 1),
    ("complete", 1415),         # 1000405 edges
    ("sigma", 99999999999999999999),
])
def test_parameter_past_the_size_bound_is_refused(name, param):
    # refused before anything is allocated: a parameter whose object would
    # hold more than DEFAULT_CAP entries never reaches a builder's list
    with pytest.raises(CatalogError, match=f"^{name} would hold .* entries, "
                                           "more than 1000000$"):
        make(name, param)


def test_parse_reference():
    # splits syntax only; make() is responsible for coercing the parameter
    assert parse_reference("catalog:sigma:4") == ("sigma", "4")
    assert parse_reference("catalog:pair2") == ("pair2", None)
    for bad in ("sigma:4", "catalog:", "catalog:a:1:2"):
        with pytest.raises(CatalogError):
            parse_reference(bad)
    with pytest.raises(CatalogError):
        make(*parse_reference("catalog:sigma:x"))


def test_raw_presentation_maximal_minors_are_0_or_2():
    # the raw entry standardizes on construction, so the advertised minor
    # property is checked on the 0/1 data as printed
    q = make("bixby_seymour_raw")
    raw = [[1, 1, 0, 0, 0],
           [0, 1, 1, 0, 0],
           [0, 0, 1, 1, 0],
           [0, 0, 0, 1, 1],
           [1, 0, 0, 0, 1],
           [1, 0, 1, 0, 0],
           [0, 1, 0, 1, 0],
           [0, 0, 1, 0, 1],
           [1, 0, 0, 1, 0],
           [0, 1, 0, 0, 1]]
    from unimod.intlinalg import IntMatrix
    vals = set(square_minors(IntMatrix.from_rows(raw), 5))
    assert vals == {0, 2, -2}
    assert q.a_matrix.to_lists() == make("bixby_seymour").a_matrix.to_lists()


def test_standard_form_entry_is_fixed_point():
    bs = make("bixby_seymour")
    assert from_matrix(bs.a_matrix.to_lists()).a_matrix == bs.a_matrix


def test_family_identities():
    for n in range(2, 6):
        assert are_isomorphic(cographic_system(make("theta", n)),
                              make("sigma", n)) is not None
    for n in range(3, 6):
        assert are_isomorphic(graphic_system(make("cycle", n)),
                              make("sigma", n)) is not None


def test_complete_graph_sizes():
    g = make("complete", 5)
    assert g.vertex_count == 5 and g.edge_count == 10
    assert complexity(cographic_system(g)) == 125


@pytest.mark.parametrize("param", [3.9, True, " 4 "])
def test_make_coerces_no_parameter(param):
    # int() would read these as 3, 1 and 4
    with pytest.raises(CatalogError, match="is not an integer"):
        make("sigma", param)


@pytest.mark.parametrize("ref", ["catalog:sigma:1_0", "catalog:sigma:٣"])
def test_reference_parameter_is_ascii_decimal(ref):
    # int() would read these as 10 and 3
    with pytest.raises(CatalogError, match="is not an integer"):
        make(*parse_reference(ref))


def test_make_accepts_ints_and_decimal_strings():
    assert make("sigma", 4) == make("sigma", "4") == make("sigma", "+4")


BIXBY_SEYMOUR_RAW = [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0],
                     [0, 0, 0, 1, 1], [1, 0, 0, 0, 1], [1, 0, 1, 0, 0],
                     [0, 1, 0, 1, 0], [0, 0, 1, 0, 1], [1, 0, 0, 1, 0],
                     [0, 1, 0, 0, 1]]


def _defining_rows():
    """(name, param, rows) for every catalog system: the rows each entry
    is defined by, as a raw presentation."""
    cases = [("upsilon", m, [[int(i == j) for j in range(m)]
                             for i in range(m)]) for m in range(1, 9)]
    cases += [("sigma", n, [[1]] * n) for n in range(1, 13)]
    cases += [("pair2", None, [[1, 0], [0, 1]]),
              ("triangle3", None, [[1, 0], [0, 1], [1, 1]]),
              ("bixby_seymour", None, BIXBY_SEYMOUR_RAW),
              ("bixby_seymour_raw", None, BIXBY_SEYMOUR_RAW)]
    return cases


@pytest.mark.parametrize("name, param, rows", _defining_rows(),
                         ids=lambda x: None if isinstance(x, list) else str(x))
def test_catalog_system_is_its_certified_standard_form(name, param, rows):
    # the entries are written in standard form; from_matrix, which
    # eliminates and certifies the defining rows, is the oracle
    got, want = make(name, param), from_matrix(rows)
    assert got == want
    assert got.a_matrix.entries == want.a_matrix.entries
    assert (got.n, got.base_rows, got.labels) == (want.n, want.base_rows, None)


def test_every_catalog_system_is_covered_by_the_oracle():
    covered = {name for name, _, _ in _defining_rows()}
    assert covered == {e.name for e in entries() if e.kind == "system"}


def test_make_runs_no_certification(monkeypatch):
    # building a catalog system certifies nothing, and only the 0/1
    # Bixby-Seymour presentation is eliminated
    from unimod import systems

    def refuse(*args):
        raise AssertionError("make certified a catalog system")

    eliminated = []
    kernel = systems._gauss_jordan

    def counted(*args, **kwargs):
        eliminated.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(systems, "_tu_witness", refuse)
    monkeypatch.setattr(systems, "from_matrix", refuse)
    monkeypatch.setattr(systems, "_gauss_jordan", counted)
    for name, param, _ in _defining_rows():
        del eliminated[:]
        make(name, param)
        assert len(eliminated) == (name == "bixby_seymour_raw"), name
