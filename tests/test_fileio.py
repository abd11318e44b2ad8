"""Matrix/edge-list text formats: parsing, rendering, round-trips."""

import pytest

from unimod.cli import run
from unimod.errors import PreconditionError
from unimod.fileio import (
    parse_edges_text,
    parse_matrix_text,
    render_edges_text,
    render_matrix_json,
    render_matrix_text,
    sha256_hex,
)
from unimod.graphs import Multigraph


def test_parse_matrix_header_form():
    rows, labels = parse_matrix_text("# a comment\n3 2\n1 0\n0 1\n 1  1\n")
    assert rows == [(1, 0), (0, 1), (1, 1)]
    assert labels is None


def test_parse_matrix_with_labels_comment():
    text = "2 1\n1\n1\n# labels: a b\n"
    rows, labels = parse_matrix_text(text)
    assert labels == ("a", "b")


def test_parse_matrix_json_form():
    rows, labels = parse_matrix_text('{"rows": [[1, 0], [0, 1]], "labels": ["x", "y"]}')
    assert rows == [(1, 0), (0, 1)]
    assert labels == ("x", "y")


@pytest.mark.parametrize("bad", [
    "",                       # no header
    "2 2\n1 0\n",             # short
    "1 2\n1 0 0\n",           # wide row
    "1 two\n1 1\n",           # bad header token
    "1 1\n1.5\n",             # non-integer entry
    "2 1\n1\n1\n# labels: a\n",  # label count mismatch
    '{"cols": []}',           # json without rows
    '{"rows": [[1.7, 0], [0, true]]}',  # float and boolean entries
    '{"rows": [[1.0]]}',      # integral float
    '{"rows": [[false]]}',    # boolean alone
    "1 1\n1_0\n",             # underscore digit grouping
    "1 1\n\u0661\n",          # non-ASCII digit
    "1_0 1\n1\n",             # underscore in the header
    '{"rows": [[1], [1]], "labels": ["a b", "c"]}',  # label with a space
    '{"rows": [[1], [1]], "labels": ["", "c"]}',     # empty label
    '{"rows": [[1], [1]], "labels": "ab"}',          # labels not a list
    "2 1\n1\n1\n# labels: a b\n# labels: c d\n",  # second labels line
])
def test_parse_matrix_rejects_malformed(bad):
    with pytest.raises(PreconditionError):
        parse_matrix_text(bad)


@pytest.mark.parametrize("text", [
    '{"rows": [[1.7, 0], [0, true]]}',
    "2 2\n1_0 0\n0 1\n",
])
def test_non_integer_matrix_files_exit_2(tmp_path, capsys, text):
    f = tmp_path / "m.txt"
    f.write_text(text, encoding="utf-8")
    assert run(["check", str(f)]) == 2
    assert "error:" in capsys.readouterr().out


def test_label_with_whitespace_exits_2(tmp_path, capsys):
    # "# labels: a b c" could not be read back as two labels
    f = tmp_path / "m.json"
    f.write_text('{"rows": [[1], [1]], "labels": ["a b", "c"]}',
                 encoding="utf-8")
    assert run(["check", str(f)]) == 2
    assert "whitespace" in capsys.readouterr().out


def test_parse_edges_rejects_non_decimal_ids():
    with pytest.raises(PreconditionError):
        parse_edges_text("2 1\n1 2_0\n")


def test_matrix_text_round_trip():
    rows = [[1, 0, -12], [0, 3, 4]]
    text = render_matrix_text(rows, labels=["p", "q"], comments=["hi"])
    back, labels = parse_matrix_text(text)
    assert [list(r) for r in back] == rows
    assert labels == ("p", "q")


def test_matrix_json_round_trip():
    rows = [[1], [-1]]
    back, labels = parse_matrix_text(render_matrix_json(rows))
    assert [list(r) for r in back] == rows
    assert labels is None


def test_edges_round_trip():
    g = Multigraph.build(3, [(1, 2), (2, 3), (3, 1), (1, 1)])
    back = parse_edges_text(render_edges_text(g))
    assert back == g


def test_parse_edges_rejects_bad_endpoint():
    with pytest.raises(PreconditionError):
        parse_edges_text("1 2\n1 3\n")


def test_sha256_stable():
    assert sha256_hex("3 1\n1\n1\n1\n") == (
        "049067cecdf4bb739983545c64473b8a4795065f87dbf13c6b56a54f60a85ebe")
