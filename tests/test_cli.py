"""End-to-end tests of the command line front end.

Most tests drive ``unimod.cli.run`` in-process and inspect captured
stdout; subprocess tests confirm the module and console-script entry
points behave the same way.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

import unimod
from unimod import cli
from unimod.catalog import make
from unimod.cli import run
from unimod.fileio import render_edges_text, render_matrix_text, sha256_hex
from unimod.graphs import Multigraph, cographic_system, graphic_system
from unimod.intlinalg import IntMatrix
from unimod.lattice import PolytopeReport
from unimod.systems import from_matrix

from test_acceptance import _projection_rows, catalog_sweep
from test_lattice import v1_of
from test_properties import enumerate_correspondences

BAD_MINOR_MATRIX = "4 2\n1 0\n0 1\n1 1\n1 -1\n"
ZERO_ROW_MATRIX = "4 2\n1 0\n0 0\n0 1\n1 1\n"
NON_INTEGRAL_MATRIX = "3 2\n1 1\n1 -1\n1 0\n"


def payload(out):
    """The non-metadata lines of a text report."""
    return [l for l in out.splitlines() if not l.startswith("#")]


def without_timing(out):
    return [l for l in out.splitlines() if not l.startswith("# elapsed_ms")]


def test_complexity_text_report(capsys):
    rc = run(["complexity", "catalog:bixby_seymour"])
    out = capsys.readouterr().out
    assert rc == 0
    assert payload(out) == ["162"]
    lines = out.splitlines()
    assert lines[0] == "# unimod complexity"
    assert lines[1].startswith("# input catalog:bixby_seymour sha256=")
    assert len(lines[1].split("sha256=")[1]) == 64
    assert lines[-1].startswith("# elapsed_ms ")


def test_complexity_enumerate_agrees(capsys):
    rc = run(["complexity", "catalog:bixby_seymour", "--enumerate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert payload(out) == ["162", "bases 162", "agree yes"]


def test_check_standard_form_comment(capsys):
    rc = run(["check", "catalog:bixby_seymour"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# standard form, n=5 N=10 base_rows=0,1,2,3,4" in out
    # ten data rows after the "10 5" header
    assert payload(out)[0] == "10 5"
    assert len(payload(out)) == 11


def test_check_failure_prints_witness_and_exits_1(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text(BAD_MINOR_MATRIX)
    rc = run(["check", str(f)])
    out = capsys.readouterr().out
    assert rc == 1
    assert any(l.startswith("error:") for l in out.splitlines())
    witness = [l for l in out.splitlines() if l.startswith("# witness ")]
    assert len(witness) == 1
    assert "rows=" in witness[0] and "value=" in witness[0]
    assert "2" in witness[0].split("value=")[1]


@pytest.mark.parametrize("text, witness", [
    (BAD_MINOR_MATRIX, "# witness rows=[2, 3] cols=[0, 1] value=-2"),
    (ZERO_ROW_MATRIX, "# witness rows=[1]"),
    (NON_INTEGRAL_MATRIX, "# witness rows=[0, 1, 2]"),
])
def test_check_text_witness_prints_the_fields_present(tmp_path, capsys,
                                                      text, witness):
    # a minor carries rows, cols and value; a zero or non-integral row
    # carries its rows only
    f = tmp_path / "bad.txt"
    f.write_text(text)
    rc = run(["check", str(f)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert [l for l in lines if l.startswith("# witness rows=")] == [witness]
    assert lines[-1].startswith("# elapsed_ms ")


@pytest.mark.parametrize("text", [BAD_MINOR_MATRIX, ZERO_ROW_MATRIX],
                         ids=["minor", "zero-row"])
def test_failed_check_names_the_digest_of_the_text_read(tmp_path, capsys,
                                                        text):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert run(["check", str(f)]) == 1
    assert capsys.readouterr().out.splitlines()[1] == (
        f"# input {f} sha256={digest}")
    assert run(["check", str(f), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["inputs"] == [{"source": str(f), "sha256": digest}]
    assert doc["error"]["kind"] == "NotUnimodularError"


def test_cap_failure_names_the_digest_of_the_catalog_input(capsys):
    assert run(["aut", "catalog:sigma:5"]) == 0
    ok = capsys.readouterr().out.splitlines()[1]
    assert len(ok.split("sha256=")[1]) == 64
    # one search node counts the symmetries of sigma:5, so cap 0 stops it
    assert run(["aut", "catalog:sigma:5", "--cap", "0"]) == 3
    assert capsys.readouterr().out.splitlines()[1] == ok
    assert run(["aut", "catalog:sigma:5", "--json"]) == 0
    inputs = json.loads(capsys.readouterr().out)["inputs"]
    assert inputs == [{"source": "catalog:sigma:5",
                       "sha256": ok.split("sha256=")[1]}]
    assert run(["aut", "catalog:sigma:5", "--cap", "0", "--json"]) == 3
    assert json.loads(capsys.readouterr().out)["inputs"] == inputs


def test_unknown_catalog_entry_exits_2(capsys):
    rc = run(["complexity", "catalog:no_such_thing"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "error:" in out


def test_huge_catalog_parameter_exits_2(capsys):
    # an input error, refused before the entry is built, not an
    # OverflowError from allocating it
    rc = run(["polytope", "catalog:sigma:99999999999999999999"])
    out = capsys.readouterr().out
    assert rc == 2
    assert ("error: sigma would hold 99999999999999999999 entries, more than"
            " 1000000") in out


def test_kind_mismatch_exits_2(capsys):
    # theta is a graph entry, not a system
    rc = run(["complexity", "catalog:theta:3"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "use the graph command" in out


def test_missing_file_exits_2(capsys):
    rc = run(["check", "/no/such/file.txt"])
    assert rc == 2
    assert "error:" in capsys.readouterr().out


def test_cap_exceeded_exits_3(capsys):
    rc = run(["polytope", "catalog:bixby_seymour", "--cap", "8"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "error:" in out


@pytest.mark.parametrize("src, count", [("catalog:bixby_seymour", 73),
                                        ("graphic complete:5", 219),
                                        ("catalog:pair2", 9),
                                        ("catalog:sigma:3", 3)])
@pytest.mark.parametrize("command", ["polytope", "lattice"])
def test_cap_boundary_is_the_point_count(command, src, count, tmp_path,
                                         capsys):
    if src == "graphic complete:5":
        src = str(tmp_path / "k5.txt")
        assert run(["graph", "catalog:complete:5", "--graphic", "-o", src]) == 0
    for cap in (count - 2, count - 1):
        assert run([command, src, "--cap", str(cap)]) == 3
        assert f"exceeds cap {cap} points" in capsys.readouterr().out
    assert run([command, src, "--cap", str(count)]) == 0
    out = capsys.readouterr().out
    if command == "polytope":
        assert f"points {count}" in payload(out)


def grid_edges_text(k):
    """The edge file of the k x k grid graph, vertex (r, c) numbered
    r * k + c + 1: first the edges along the rows, then down the columns."""
    edges = [(r * k + c + 1, r * k + c + 2)
             for r in range(k) for c in range(k - 1)]
    edges += [(r * k + c + 1, (r + 1) * k + c + 1)
              for r in range(k - 1) for c in range(k)]
    return f"{k * k} {len(edges)}\n" + "".join(f"{t} {h}\n" for t, h in edges)


@pytest.mark.parametrize("k", [6, 7])
def test_grid_files_exceed_the_certification_budget(k, tmp_path, capsys):
    """check on the graphic file of the 6 x 6 grid (N = 60, n = 25) and of
    the 7 x 7 grid (N = 84, n = 36), whose tails reduce to one block of 25
    and of 36 lines, is refused with exit 3 and the budget message, without
    a traceback: the block is charged its 2^s units before the pass
    allocates a table of 2^s sums, so the traced peak stays small.  The
    JSON error names the file's digest."""
    edges = tmp_path / "grid-edges.txt"
    edges.write_text(grid_edges_text(k))
    f = str(tmp_path / "grid.txt")
    assert run(["graph", str(edges), "--graphic", "-o", f]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        rc = run(["check", f])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (rc, err) == (3, "")
    assert "error: certification exceeds cap 1000000 units" in out.splitlines()
    assert peak < 8 << 20, peak
    assert run(["check", f, "--json"]) == 3
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert err == ""
    assert doc["error"]["kind"] == "CapError"
    assert "exceeds cap 1000000" in doc["error"]["message"]
    assert doc["inputs"] == [{"source": f,
                              "sha256": sha256_hex(Path(f).read_text())}]


def test_cap_zero_is_a_cap(capsys):
    # --cap 0 is a budget of no points, bases and search nodes; it does not
    # fall back to the default
    rc = run(["polytope", "catalog:sigma:3", "--cap", "0"])
    assert rc == 3
    assert "exceeds cap 0" in capsys.readouterr().out
    # upsilon:1 has no tail rows; its one base is already over the cap
    rc = run(["complexity", "--enumerate", "--cap", "0", "catalog:upsilon:1"])
    assert rc == 3
    assert "exceeds cap 0 bases" in capsys.readouterr().out
    rc = run(["aut", "catalog:sigma:3", "--cap", "0", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 3
    assert doc["error"]["kind"] == "CapError"


@pytest.mark.parametrize("value", ["-1", "x", "1_0", " 3 ", "\u0663"])
def test_bad_cap_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["polytope", "catalog:sigma:3", "--cap", value])
    assert exc.value.code == 2
    assert "--cap" in capsys.readouterr().err


def test_polytope_beyond_the_base_walk_cap(capsys):
    # the cap bounds the points found, not N: sigma:19 (N = 19) has 3 points
    for ref in ("catalog:sigma:18", "catalog:sigma:19"):
        rc = run(["polytope", ref])
        body = payload(capsys.readouterr().out)
        assert rc == 0
        assert "points 3" in body
        assert "vertices 2" in body
        assert "reflexive yes" in body


def test_default_cap_is_read_without_the_option(monkeypatch, capsys):
    # sigma:3 has 3 points, so a default budget of 2 stops the point search
    monkeypatch.setattr(cli, "DEFAULT_CAP", 2)
    assert run(["polytope", "catalog:sigma:3"]) == 3
    assert "exceeds cap 2" in capsys.readouterr().out


def test_json_error_document(capsys):
    rc = run(["complexity", "catalog:no_such_thing", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["schema"] == "unimod/1"
    assert doc["error"]["kind"] == "CatalogError"
    assert "result" not in doc


def test_polytope_json_matches_golden(capsys):
    rc = run(["polytope", "catalog:bixby_seymour", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["schema"] == "unimod/1"
    assert doc["command"] == "polytope"
    assert doc["inputs"][0]["source"] == "catalog:bixby_seymour"
    with open("tests/golden/bixby_seymour_polytope.json") as fh:
        golden = json.load(fh)
    assert v1_of(doc["result"]) == golden


def test_polytope_json_lists_each_point_once(tmp_path, capsys):
    for i, (label, s) in enumerate(catalog_sweep()):
        f = tmp_path / f"s{i}.txt"
        f.write_text(render_matrix_text(s.a_matrix.to_lists(), s.labels),
                     encoding="utf-8")
        assert run(["polytope", str(f), "--json"]) == 0, label
        doc = json.loads(capsys.readouterr().out)["result"]
        for pair in doc["facets"]:
            assert "plus_points" not in pair and "minus_points" not in pair
        v = doc["vertices"]
        assert all(type(i) is int for i in v), label
        assert all(a < b for a, b in zip(v, v[1:])), label
        assert all(0 <= i < doc["point_count"] for i in v), label


def test_polytope_text_mode_builds_no_json(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("to_dict called in text mode")

    monkeypatch.setattr(PolytopeReport, "to_dict", refuse)
    assert run(["polytope", "catalog:bixby_seymour"]) == 0
    assert "reflexive yes" in payload(capsys.readouterr().out)


def test_polytope_text_verdict_lines(capsys):
    rc = run(["polytope", "catalog:bixby_seymour"])
    out = capsys.readouterr().out
    assert rc == 0
    body = payload(out)
    assert "origin 1" in body
    assert "square 4 count 30" in body
    assert "square 6 count 30" in body
    assert "square 10 count 12" in body
    assert "points 73" in body
    assert "vertices 12" in body
    assert "facets 20" in body
    assert "zonotope no" in body
    assert "reflexive yes" in body
    pair_lines = [l for l in body if l.startswith("pair ")]
    assert len(pair_lines) == 10
    assert all("+side 21p/6v" in l and "-side 21p/6v" in l for l in pair_lines)


def test_reports_are_deterministic_modulo_timing(capsys):
    runs = []
    for _ in range(2):
        run(["polytope", "catalog:bixby_seymour"])
        text = without_timing(capsys.readouterr().out)
        run(["polytope", "catalog:bixby_seymour", "--json"])
        doc = json.loads(capsys.readouterr().out)
        doc.pop("elapsed_ms")
        runs.append((text, doc))
    assert runs[0] == runs[1]


def test_json_deterministic_modulo_timing(capsys):
    run(["lattice", "catalog:bixby_seymour", "--json"])
    a = json.loads(capsys.readouterr().out)
    run(["lattice", "catalog:bixby_seymour", "--json"])
    b = json.loads(capsys.readouterr().out)
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_lattice_report_fields(capsys):
    rc = run(["lattice", "catalog:bixby_seymour"])
    out = capsys.readouterr().out
    assert rc == 0
    body = payload(out)
    assert "discriminant 162" in body
    assert "units 0" in body
    assert "roots 0" in body
    assert "square_3 0" in body
    assert "min_square 4 (attained)" in body


def test_dual_output_file_round_trips(tmp_path, capsys):
    out_file = tmp_path / "dual.txt"
    rc = run(["dual", "catalog:bixby_seymour", "-o", str(out_file)])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"wrote {out_file}" in out
    # the written file parses, verifies, and is isomorphic to the original
    rc = run(["check", str(out_file)])
    capsys.readouterr()
    assert rc == 0
    rc = run(["isomorphic", str(out_file), "catalog:bixby_seymour"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "isomorphic yes" in out


def test_empty_dual_reads_back(tmp_path, capsys):
    # upsilon:2 is a pure unit block, so its Gale dual is the empty system
    out_file = tmp_path / "e.txt"
    assert run(["dual", "catalog:upsilon:2", "-o", str(out_file)]) == 0
    assert payload(out_file.read_text(encoding="utf-8")) == ["0 0"]
    json_file = tmp_path / "e.json"
    json_file.write_text('{"rows": []}', encoding="utf-8")
    capsys.readouterr()
    for src in (out_file, json_file):
        for cmd in (["check"], ["complexity", "--enumerate"], ["aut"],
                    ["lattice"], ["polytope"]):
            assert run([cmd[0], str(src), *cmd[1:]]) == 0, (src, cmd)
            out = capsys.readouterr().out
        assert "points 1" in payload(out)
    bad = tmp_path / "bad.txt"
    bad.write_text("0 3\n", encoding="utf-8")
    assert run(["check", str(bad)]) == 2
    assert 'header "0 0"' in capsys.readouterr().out


def test_isomorphic_no(capsys):
    rc = run(["isomorphic", "catalog:sigma:3", "catalog:upsilon:3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert payload(out) == ["isomorphic no"]


# ---------------------------------------------------------------------------
# the witness of "isomorphic no", re-verified from the matrix rows by exact
# rational arithmetic, sharing no code with the verdict


def _exact_rank(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _invariants(rows):
    """[N, n], the number of bases, the sorted sizes of the classes of rows
    equal up to sign, and the sorted diagonal of the projection onto the
    span times the number of bases (the pairing matrix P = d A (A^T A)^-1
    A^T, d = det A^T A = the number of bases, by Cauchy-Binet)."""
    n = _exact_rank(rows)
    bases = sum(1 for rs in combinations(rows, n) if _exact_rank(rs) == n)
    classes = {}
    for r in rows:
        lead = next(x for x in r if x)
        key = tuple(x if lead > 0 else -x for x in r)
        classes[key] = classes.get(key, 0) + 1
    proj = _projection_rows(SimpleNamespace(
        a_matrix=IntMatrix.from_rows(rows), n=n, N=len(rows)))
    return {"shape": [len(rows), n], "complexity": bases,
            "profile": sorted(classes.values()),
            "pairing_diagonal": sorted(int(bases * proj[i][i])
                                       for i in range(len(rows)))}


def _graph_rows(build, vertices, edges):
    return build(Multigraph.build(vertices, edges)).a_matrix.to_lists()


# cut space of a 7-vertex graph and cycle space of a 6-vertex one, both
# N = 11 and n = 6: every invariant agrees, and the search exhausts
_SEARCHED_PAIR = (
    _graph_rows(cographic_system, 7, [(1, 2), (5, 6), (4, 5), (1, 5), (2, 6),
                                      (3, 7), (2, 4), (5, 7), (3, 6), (1, 3),
                                      (2, 7)]),
    _graph_rows(graphic_system, 6, [(2, 3), (1, 6), (4, 6), (1, 4), (4, 5),
                                    (2, 4), (3, 6), (1, 3), (5, 6), (3, 5),
                                    (2, 6)]))

_WITNESS_PAIRS = [
    ("shape", make("sigma", 3).a_matrix.to_lists(),
     make("upsilon", 3).a_matrix.to_lists()),
    ("complexity", [[1, 0], [0, 1], [1, 1]], [[1, 0], [0, 1], [1, 0]]),
    # e3 is in every base of b, and the other rows pair off 4 + 2 + 2 ways
    ("profile", [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1],
                 [0, 0, 1]],
     [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]),
    # the cut spaces of two 6-vertex, 7-edge graphs with 24 spanning trees
    ("pairing_diagonal",
     _graph_rows(cographic_system, 6, [(1, 2), (1, 3), (1, 4), (1, 5),
                                       (2, 3), (4, 6), (5, 6)]),
     _graph_rows(cographic_system, 6, [(1, 2), (1, 3), (1, 5), (2, 4),
                                       (2, 6), (3, 6), (5, 6)])),
    ("search_nodes", *_SEARCHED_PAIR),
]


def _isomorphic_no(tmp_path, rows_a, rows_b, capsys, *extra):
    """The witness of isomorphic on the two row lists, as text and JSON."""
    srcs = []
    for name, rows in (("a.txt", rows_a), ("b.txt", rows_b)):
        (tmp_path / name).write_text(render_matrix_text(rows),
                                      encoding="utf-8")
        srcs.append(str(tmp_path / name))
    assert run(["isomorphic", *srcs, *extra]) == 0
    lines = payload(capsys.readouterr().out)
    assert run(["isomorphic", *srcs, "--json", *extra]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert lines == ["isomorphic no"] and result["isomorphic"] is False
    return result["witness"]


@pytest.mark.parametrize("name,rows_a,rows_b", _WITNESS_PAIRS,
                         ids=[p[0] for p in _WITNESS_PAIRS])
def test_isomorphic_no_names_its_witness(name, rows_a, rows_b, tmp_path,
                                         capsys):
    witness = _isomorphic_no(tmp_path, rows_a, rows_b, capsys)
    text = "# witness " + " ".join(
        f"{k}={v}" if isinstance(v, str)
        else f"{k}={json.dumps(v, separators=(',', ':'))}"
        for k, v in witness.items())
    assert run(["isomorphic", str(tmp_path / "a.txt"),
                str(tmp_path / "b.txt")]) == 0
    assert text in capsys.readouterr().out.splitlines()
    got_a, got_b = _invariants(rows_a), _invariants(rows_b)
    order = list(got_a)
    if name == "search_nodes":
        assert got_a == got_b
        assert list(witness) == ["search_nodes"] and witness[name] > 0
        return
    assert witness == {"invariant": name, "a": got_a[name], "b": got_b[name]}
    assert got_a[name] != got_b[name]
    for before in order[:order.index(name)]:
        assert got_a[before] == got_b[before]


def test_isomorphic_no_after_the_search_counts_its_nodes(tmp_path, capsys):
    # the witness is deterministic: the search needs exactly that budget
    a, b = (from_matrix(rows) for rows in _SEARCHED_PAIR)
    assert enumerate_correspondences(a, b, count_all=False) is None
    witness = _isomorphic_no(tmp_path, *_SEARCHED_PAIR, capsys)
    assert witness == {"search_nodes": 12}
    assert _isomorphic_no(tmp_path, *_SEARCHED_PAIR, capsys,
                          "--cap", "12") == witness
    assert run(["isomorphic", str(tmp_path / "a.txt"),
                str(tmp_path / "b.txt"), "--cap", "11"]) == 3
    assert "exceeds cap 11 nodes" in capsys.readouterr().out


def test_aut_count(capsys):
    rc = run(["aut", "catalog:sigma:3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert payload(out) == ["12"]


def test_aut_cap_at_its_node_count(capsys):
    # aut assigns 20 search nodes on bixby_seymour (pinned with its
    # searches in test_properties)
    assert run(["aut", "catalog:bixby_seymour", "--cap", "20"]) == 0
    assert payload(capsys.readouterr().out) == ["1440"]
    assert run(["aut", "catalog:bixby_seymour", "--cap", "19"]) == 3
    assert "exceeds cap 19 nodes" in capsys.readouterr().out


def test_decompose_upsilon(capsys):
    rc = run(["decompose", "catalog:upsilon:2"])
    out = capsys.readouterr().out
    assert rc == 0
    body = out.splitlines()
    assert "upsilon_summands 2" in body
    assert "unit_rows 0 1" in body
    assert "# core empty" in body


def test_decompose_core_passthrough(capsys):
    rc = run(["decompose", "catalog:bixby_seymour"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "upsilon_summands 0" in out.splitlines()
    assert "unit_rows -" in out.splitlines()
    assert "10 5" in payload(out)


def test_graph_graphic_from_edge_file(tmp_path, capsys):
    f = tmp_path / "theta3.txt"
    f.write_text("2 3\n1 2\n1 2\n1 2\n")
    rc = run(["graph", str(f), "--graphic"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# labels: e1 e2 e3" in out
    assert payload(out)[0] == "3 2"


def test_graph_requires_a_mode(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("2 1\n1 2\n")
    with pytest.raises(SystemExit) as ei:
        run(["graph", str(f)])
    assert ei.value.code == 2


def test_graph_stabilize_note(capsys):
    # theta:3 is already stable, so the note shows no change
    rc = run(["graph", "catalog:theta:3", "--cographic", "--stabilize"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "stabilized 2v/3e -> 2v/3e" in out


def test_graph_degenerate_exits_1(tmp_path, capsys):
    f = tmp_path / "tree.txt"
    f.write_text("3 2\n1 2\n2 3\n")
    rc = run(["graph", str(f), "--graphic"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "error:" in out


def test_graph_disconnected_names_an_unreached_vertex(tmp_path, capsys):
    # vertices 1, 2 and 4 are joined; 3 and 5 are not reached from vertex 1
    f = tmp_path / "apart.txt"
    f.write_text("5 4\n1 2\n2 4\n3 5\n4 1\n")
    for mode in ("--graphic", "--cographic"):
        rc = run(["graph", str(f), mode])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        at = lines.index("error: spanning tree needs a connected multigraph")
        assert lines[at + 1] == "# witness vertex=3"
        assert lines[at + 2].startswith("# elapsed_ms ")
        rc = run(["graph", str(f), mode, "--stabilize", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["error"] == {
            "kind": "ConnectivityError",
            "message": "stabilize needs a connected multigraph",
            "witness": {"vertex": 3}}


def test_catalog_listing(capsys):
    rc = run(["catalog"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("bixby_seymour", "bixby_seymour_raw", "sigma", "upsilon",
                 "pair2", "triangle3", "theta", "cycle", "complete"):
        assert any(l.startswith(name) for l in payload(out))


@pytest.mark.parametrize("argv", [["catalog", "--list"],
                                  ["polytope", "catalog:triangle3",
                                   "--threads", "2"]])
def test_removed_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


CAPPED = {"complexity", "isomorphic", "aut", "lattice", "polytope"}


@pytest.mark.parametrize("argv", [
    ["check", "catalog:sigma:3"], ["complexity", "catalog:sigma:3"],
    ["dual", "catalog:sigma:3"], ["decompose", "catalog:sigma:3"],
    ["isomorphic", "catalog:sigma:3", "catalog:sigma:3"],
    ["aut", "catalog:sigma:3"], ["lattice", "catalog:sigma:3"],
    ["polytope", "catalog:sigma:3"], ["graph", "catalog:theta:3", "--graphic"],
    ["catalog"]], ids=lambda argv: argv[0])
def test_cap_only_where_a_cap_is_read(argv, capsys):
    if argv[0] in CAPPED:
        assert run(argv + ["--cap", "5"]) == 0
        return
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap" in capsys.readouterr().err


def test_catalog_and_file_fingerprints_agree(tmp_path, capsys):
    """A catalog reference and its rendered file hash identically."""
    s = make("triangle3")
    sys_file = tmp_path / "sys.txt"
    sys_file.write_text(render_matrix_text(s.a_matrix.to_lists(), s.labels))
    graph_file = tmp_path / "k4.txt"
    graph_file.write_text(render_edges_text(make("complete", 4)))
    for argv, path in (
            (["check", "catalog:triangle3"], sys_file),
            (["graph", "catalog:complete:4", "--graphic"], graph_file)):
        digests = []
        for src in (argv[1], str(path)):
            assert run([argv[0], src, *argv[2:], "--json"]) == 0
            digests.append(json.loads(capsys.readouterr().out)["inputs"][0]["sha256"])
        assert digests == [sha256_hex(path.read_text())] * 2


def test_module_entry_point_subprocess():
    # the child imports the same copy of the package as this process
    env = dict(os.environ, PYTHONPATH=str(Path(unimod.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "unimod.cli", "complexity", "catalog:sigma:5"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert payload(proc.stdout) == ["5"]


def test_closed_stdout_exits_141_quietly():
    # the read end is closed before the child writes its first line
    env = dict(os.environ, PYTHONPATH=str(Path(unimod.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "unimod.cli", "graph",
             "catalog:complete:7", "--cographic"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_stdout_closed_mid_stream_exits_141_quietly(tmp_path):
    # the report (about 3.5 MB) outgrows the pipe buffer, so the child is
    # still writing points when the reader goes
    path = tmp_path / "k6.txt"
    s = graphic_system(make("complete", 6))
    path.write_text(render_matrix_text(s.a_matrix.to_lists(), s.labels))
    env = dict(os.environ, PYTHONPATH=str(Path(unimod.__file__).parents[1]))
    with subprocess.Popen(
            [sys.executable, "-m", "unimod.cli", "polytope", "--json",
             str(path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(1024)) == 1024
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, stderr) == (141, b"")


def test_console_script_entry_point_without_install():
    # the [project.scripts] target, resolved and called as the installed
    # script would call it
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
        "project"]["scripts"]
    module, func = scripts["unimod"].split(":")
    code = (f"import importlib, sys; "
            f"sys.exit(importlib.import_module({module!r}).{func}())")
    env = dict(os.environ, PYTHONPATH=str(Path(unimod.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, "complexity", "catalog:sigma:5"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert payload(proc.stdout) == ["5"]


@pytest.mark.skipif(shutil.which("unimod") is None,
                    reason="console script not on PATH")
def test_console_script_subprocess():
    proc = subprocess.run(["unimod", "complexity", "catalog:sigma:5"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert payload(proc.stdout) == ["5"]


# ---------------------------------------------------------------------------
# the command table: parsing, help and usage errors

HELP_LINES = {
    "check": "verify a matrix and print its standard form",
    "complexity": "number of bases via the Gram determinant",
    "dual": "emit the Gale dual",
    "decompose": "split off unit summands",
    "isomorphic": "search for a signed row correspondence",
    "aut": "count signed self-correspondences",
    "lattice": "Gram matrix, discriminant, short-vector census",
    "polytope": "full polytope report (census, facets, verdicts)",
    "graph": "derive the cycle- or cut-space system of a graph",
    "catalog": "list built-in systems and graphs",
}


def usage_error(argv, capsys):
    """Run a command line that must be refused; return its stderr lines."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: unimod")
    return lines


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: unimod")
    listed = {l.split(None, 1)[0]: l.split(None, 1)[1]
              for l in out.splitlines() if l.startswith("  ")}
    assert listed == HELP_LINES


@pytest.mark.parametrize("command", sorted(HELP_LINES))
def test_command_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: unimod {command} [-h] [--json]")
    assert HELP_LINES[command] in out


@pytest.mark.parametrize("argv, message", [
    ([], "unimod: error: the following arguments are required: command"),
    (["frob"], "unimod: error: argument command: invalid choice: 'frob'"),
])
def test_no_or_unknown_command_exits_2(argv, message, capsys):
    assert usage_error(argv, capsys)[1].startswith(message)


@pytest.mark.parametrize("argv, message", [
    (["check"], "unimod check: error: the following arguments are required: src"),
    (["isomorphic", "catalog:pair2"],
     "unimod isomorphic: error: the following arguments are required: b"),
])
def test_missing_positional_exits_2(argv, message, capsys):
    lines = usage_error(argv, capsys)
    assert lines[1] == message
    assert "required" in lines[1]


@pytest.mark.parametrize("form", ["--cap={}", "--cap {}"])
def test_cap_value_after_equals_or_space(form, capsys):
    # aut assigns one search node on sigma:3
    assert run(["aut", "catalog:sigma:3", *form.format(1).split()]) == 0
    assert payload(capsys.readouterr().out) == ["12"]
    assert run(["aut", "catalog:sigma:3", *form.format(0).split()]) == 3
    assert "exceeds cap 0" in capsys.readouterr().out


def test_graph_flags_are_exclusive(capsys):
    lines = usage_error(
        ["graph", "catalog:theta:3", "--graphic", "--cographic"], capsys)
    assert lines[1] == ("unimod graph: error: argument --cographic:"
                        " not allowed with argument --graphic")
    lines = usage_error(["graph", "catalog:theta:3"], capsys)
    assert lines[1] == ("unimod graph: error: one of the arguments"
                        " --graphic --cographic is required")


def test_double_dash_ends_options(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-m.txt").write_text(BAD_MINOR_MATRIX.replace("1 -1\n", "0 1\n"))
    assert run(["check", "--", "-m.txt"]) == 0
    assert "# input -m.txt sha256=" in capsys.readouterr().out
    lines = usage_error(["check", "-m.txt"], capsys)
    assert lines[1].endswith("the following arguments are required: src")


def test_options_are_not_abbreviated(capsys):
    lines = usage_error(["complexity", "catalog:sigma:3", "--enum"], capsys)
    assert lines[1] == "unimod complexity: error: unrecognized arguments: --enum"


@pytest.mark.parametrize("argv, message", [
    (["polytope", "catalog:sigma:3", "--cap"], "argument --cap: expected one argument"),
    (["polytope", "catalog:sigma:3", "--cap=-2"],
     "argument --cap: cap must be nonnegative: -2"),
    (["dual", "catalog:sigma:3", "-o"],
     "argument -o/--output: expected one argument"),
    (["check", "catalog:sigma:3", "--json=1"],
     "argument --json: ignored explicit argument '1'"),
    (["check", "catalog:sigma:3", "catalog:sigma:4"],
     "unrecognized arguments: catalog:sigma:4"),
])
def test_usage_error_wording(argv, message, capsys):
    assert usage_error(argv, capsys)[1] == f"unimod {argv[0]}: error: {message}"


def test_output_option_forms(tmp_path, capsys):
    written = []
    for i, argv in enumerate((["-o", "{}"], ["-o{}"], ["--output={}"])):
        path = tmp_path / f"dual{i}.txt"
        assert run(["dual", "catalog:triangle3",
                    *[a.format(path) for a in argv]]) == 0
        assert payload(capsys.readouterr().out) == [f"wrote {path}"]
        written.append(path.read_text())
    assert written[0] == written[1] == written[2]


# ---------------------------------------------------------------------------
# start-up and input decoding


def test_import_loads_no_argparse_or_dataclasses(tmp_path):
    """Neither the import nor a run loads argparse, dataclasses or hashlib
    (OpenSSL); the fingerprint is taken at call time, so commands run too."""
    openssl = {"hashlib", "_hashlib"}  # allowed if a bare interpreter has them
    heavy = {"argparse", "gettext", "dataclasses", "inspect"} | openssl
    matrix = tmp_path / "m.txt"
    matrix.write_text("3 2\n1 0\n0 1\n1 1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(unimod.__file__).parents[1]))
    show = f"print(sorted({heavy!r} & set(sys.modules)), file=sys.stderr)"
    bare = subprocess.run(
        [sys.executable, "-c", f"import sys; print(sorted({openssl!r}"
         " & set(sys.modules)), file=sys.stderr)"],
        env=env, capture_output=True, text=True)
    code = "\n".join([
        "import sys, unimod.cli", show,
        "for argv in (['check', 'catalog:bixby_seymour'],"
        f" ['check', {str(matrix)!r}], ['check', {str(matrix)!r}, '--json']):",
        "    assert unimod.cli.run(argv) == 0, argv", show])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert bare.returncode == 0, bare.stderr
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [bare.stderr.strip()] * 2


@pytest.mark.parametrize("argv, text", [
    (["check"], "3 2\n1 0\n0 1\n1 1\n"),
    (["check"], '{"rows": [[1, 0], [0, 1], [1, 1]]}'),
    (["graph", "--graphic"], "3 3\n1 2\n2 3\n3 1\n"),
], ids=["matrix", "json-matrix", "edges"])
def test_byte_order_mark_is_an_input_error(argv, text, tmp_path, capsys):
    f = tmp_path / "bom.txt"
    f.write_text("\ufeff" + text, encoding="utf-8")
    cmd = [argv[0], str(f), *argv[1:]]
    assert run(cmd) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"# input {f} sha256=unavailable"
    assert lines[2] == (f"error: {f} starts with a UTF-8 byte-order mark;"
                        " save it without one")
    assert run(cmd + ["--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["kind"] == "PreconditionError"
    assert "byte-order mark" in doc["error"]["message"]
    f.write_text(text, encoding="utf-8")
    assert run(cmd) == 0


def test_crlf_file_has_the_digest_of_its_lf_twin(tmp_path, capsys):
    """A file's digest is taken over its text after newline translation."""
    text = render_matrix_text(make("bixby_seymour").a_matrix.to_lists())
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    digests = []
    for f in (lf, crlf):
        assert run(["check", str(f), "--json"]) == 0
        digests.append(json.loads(capsys.readouterr().out)["inputs"][0]["sha256"])
    assert digests == [hashlib.sha256(text.encode()).hexdigest()] * 2
    assert digests[1] != hashlib.sha256(crlf.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", [["check"], ["graph", "--graphic"]])
def test_non_utf8_input_is_an_input_error(argv, tmp_path, capsys):
    f = tmp_path / "binary.txt"
    f.write_bytes(b"\xff\xfe\x00")
    cmd = [argv[0], str(f), *argv[1:]]
    assert run(cmd) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"# input {f} sha256=unavailable"
    assert lines[2].startswith(f"error: {f} is not UTF-8 text")
    assert run(cmd + ["--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["inputs"] == [{"source": str(f), "sha256": None}]
    assert doc["error"]["kind"] == "PreconditionError"


def test_text_report_is_written_whole_and_keeps_its_bytes(tmp_path,
                                                          monkeypatch):
    # an error report with a witness line, byte for byte apart from the
    # timing, and passed to standard output in one write
    f = tmp_path / "bad.txt"
    f.write_text(BAD_MINOR_MATRIX)
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert run(["check", str(f)]) == 1
    assert len(writes) == 1
    head, elapsed = writes[0].rsplit("# elapsed_ms ", 1)
    assert head == (
        "# unimod check\n"
        f"# input {f} sha256={sha256_hex(BAD_MINOR_MATRIX)}\n"
        "error: minor on rows (2, 3), columns (0, 1) equals -2\n"
        "# witness rows=[2, 3] cols=[0, 1] value=-2\n")
    assert elapsed.endswith("\n") and float(elapsed) >= 0


@pytest.mark.parametrize("argv, message", [
    (["graph", "catalog:theta:2000", "--graphic"],
     "graphic system of 2000 x 1999 entries exceeds cap 1000000"),
    (["graph", "catalog:cycle:100000", "--cographic"],
     "cographic system of 100000 x 99999 entries exceeds cap 1000000"),
])
def test_graph_past_the_derived_size_budget_exits_3(capsys, argv, message):
    # both built for seconds (the second for more than half a minute) and
    # are now refused before their tables are allocated
    assert run(argv) == 3
    assert f"error: {message}" in capsys.readouterr().out.splitlines()
