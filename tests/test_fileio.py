"""Matrix/edge-list text formats: parsing, rendering, round-trips, and the
JSON writer against json.dumps."""

import hashlib
import json
import random
import tracemalloc
from operator import itemgetter
from pathlib import Path

import pytest

import unimod.cli
from unimod.catalog import make
from unimod.cli import run
from unimod.errors import PreconditionError
from unimod.fileio import (
    _CHUNK,
    _MIN_RECORDS,
    Records,
    _data_lines,
    _int,
    parse_edges_text,
    parse_matrix_text,
    render_edges_text,
    render_json,
    render_matrix_text,
    sha256_hex,
)
from unimod.graphs import Multigraph, cographic_system, graphic_system
from unimod.lattice import build_polytope_report


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
    "0 3\n",                  # no rows but 3 columns
    '{"rows": [[1], [1]], "labels": ["a b", "c"]}',  # label with a space
    '{"rows": [[1], [1]], "labels": ["", "c"]}',     # empty label
    '{"rows": [[1], [1]], "labels": "ab"}',          # labels not a list
    '{"rows": [[1], [1]], "labels": [null, true]}',  # labels not strings
    '{"rows": [[1], [1]], "labels": ["a", 3]}',      # a number label
    "2 1\n1\n1\n# labels: a b\n# labels: c d\n",  # second labels line
    '{"rows": [[1,0],[0,1],[1,1]], "lables": ["a","b","c"]}',  # unknown key
    '{"rows": [[1,0],[0,1]], "rows": [[1,0],[0,1],[1,1]]}',   # repeated key
])
def test_parse_matrix_rejects_malformed(bad):
    with pytest.raises(PreconditionError):
        parse_matrix_text(bad)


@pytest.mark.parametrize("text, message", [
    # the second labels line comes after a bad row, and still wins
    ("2 1\n# labels: a b\n1\nx\n# labels: c d\n",
     "more than one '# labels:' line"),
    ("# labels: a\n2 one\n1\n1\n", 'matrix header must be "N n"'),
    ("2 1\n1\nx\n# labels: a\n", "non-integer matrix entry in 'x'"),
    ("2 1\n1\n#labels: a b c\n", "expected 2 matrix rows, found 1"),
    ("# labels: a\n", "empty matrix file"),
    ("2 1\n1\n1\n  #  labels: a\n", "labels length must match the row count"),
])
def test_matrix_text_errors_come_in_a_fixed_order(text, message):
    with pytest.raises(PreconditionError) as info:
        parse_matrix_text(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text", [
    '{"rows": [[1.7, 0], [0, true]]}',
    "2 2\n1_0 0\n0 1\n",
])
def test_non_integer_matrix_files_exit_2(tmp_path, capsys, text):
    f = tmp_path / "m.txt"
    f.write_text(text, encoding="utf-8")
    assert run(["check", str(f)]) == 2
    assert "error:" in capsys.readouterr().out


@pytest.mark.parametrize("command, text, message", [
    (["check"], '{"rows": [[1, 0]', "bad JSON matrix: "),
    (["check"], "2 x\n1\n1\n", 'matrix header must be "N n"'),
    (["graph", "--graphic"], "", "empty edge file"),
    (["graph", "--graphic"], "3\n", 'edge header must be "m N"'),
    (["graph", "--graphic"], "3 1 1\n1 2\n", 'edge header must be "m N"'),
    (["graph", "--graphic"], "3 x\n1 2\n", 'edge header must be "m N"'),
    (["graph", "--graphic"], "3 1\n1\n", 'edge line must be "tail head"'),
    (["graph", "--graphic"], "3 1\n1 2 3\n",
     'edge line must be "tail head"'),
    (["check"], "3\n1\n1\n1\n", 'matrix header must be "N n"'),
    (["check"], "3 1 1\n1\n1\n1\n", 'matrix header must be "N n"'),
    (["check"], "3 x\n1\n1\n1\n", 'matrix header must be "N n"'),
])
def test_malformed_input_files_exit_2_with_their_message(tmp_path, capsys,
                                                         command, text,
                                                         message):
    f = tmp_path / "in.txt"
    f.write_text(text, encoding="utf-8")
    assert run([command[0], str(f), *command[1:]]) == 2
    assert f"error: {message}" in capsys.readouterr().out


def test_label_with_whitespace_exits_2(tmp_path, capsys):
    # "# labels: a b c" could not be read back as two labels
    f = tmp_path / "m.json"
    f.write_text('{"rows": [[1], [1]], "labels": ["a b", "c"]}',
                 encoding="utf-8")
    assert run(["check", str(f)]) == 2
    assert "whitespace" in capsys.readouterr().out


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("labels", ['[null, true]', '["a", 3]'])
def test_non_string_labels_exit_2(tmp_path, capsys, labels, mode):
    f = tmp_path / "m.json"
    f.write_text('{"rows": [[1], [1]], "labels": %s}' % labels,
                 encoding="utf-8")
    assert run(["check", str(f), *mode]) == 2
    out = capsys.readouterr().out
    if mode:
        out = json.loads(out)["error"]["message"]
    assert "is not a string" in out


def test_parse_edges_rejects_non_decimal_ids():
    with pytest.raises(PreconditionError):
        parse_edges_text("2 1\n1 2_0\n")


def test_matrix_text_round_trip():
    rows = [[1, 0, -12], [0, 3, 4]]
    text = render_matrix_text(rows, labels=["p", "q"], comments=["hi"])
    back, labels = parse_matrix_text(text)
    assert [list(r) for r in back] == rows
    assert labels == ("p", "q")


def test_edges_round_trip():
    g = Multigraph.build(3, [(1, 2), (2, 3), (3, 1), (1, 1)])
    back = parse_edges_text(render_edges_text(g))
    assert back == g


def test_parse_edges_rejects_bad_endpoint():
    with pytest.raises(PreconditionError):
        parse_edges_text("1 2\n1 3\n")


@pytest.mark.parametrize("text, digest", [
    pytest.param("3 1\n1\n1\n1\n",
                 "049067cecdf4bb739983545c64473b8a4795065f87dbf13c6b56a54f60a85ebe",
                 id="pinned"),
    pytest.param("", None, id="empty"),
    pytest.param("# a comment\n3 2\n1 0\n0 1\n1 1\n", None, id="ascii"),
    pytest.param("# labels: \u03b1 \u00e9 \U0001d4b3\n", None,
                 id="non-ascii-and-astral"),
    pytest.param("0123456789 -1 0\n" * (1 << 16), None, id="1MiB"),
])
def test_sha256_stable(text, digest):
    """The built-in SHA-256 gives hashlib's digest of the UTF-8 bytes."""
    assert sha256_hex(text) == hashlib.sha256(text.encode()).hexdigest()
    if digest is not None:
        assert sha256_hex(text) == digest


# ---------------------------------------------------------------------------
# render_json writes the bytes of json.dumps(doc, indent=2)


def test_render_json_matches_golden_report():
    path = Path(__file__).parent / "golden" / "bixby_seymour_polytope.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert render_json(doc) == json.dumps(doc, indent=2)


def _materialized(x):
    """x with every Records (and tuple) made a list, recursively: the
    document whose json.dumps render_json must equal."""
    if isinstance(x, dict):
        return {k: _materialized(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, Records)):
        return [_materialized(v) for v in x]
    return x


def _sweep_argvs(tmp_path):
    """Every subcommand with --json over the sweep, failures included."""
    from test_acceptance import catalog_sweep

    argvs = [["catalog"]]
    for i, (_, s) in enumerate(catalog_sweep()):
        f = tmp_path / f"s{i}.txt"
        f.write_text(render_matrix_text(s.a_matrix.to_lists(), s.labels),
                     encoding="utf-8")
        f = str(f)
        argvs += [["check", f], ["complexity", f, "--enumerate"],
                  ["dual", f], ["decompose", f], ["isomorphic", f, f],
                  ["aut", f], ["lattice", f], ["polytope", f]]
    graphs = [f"theta:{k}" for k in range(2, 7)]
    graphs += [f"cycle:{k}" for k in range(3, 7)] + ["complete:4", "complete:5"]
    for g in graphs:
        for mode in ("--graphic", "--cographic"):
            argvs += [["graph", f"catalog:{g}", mode],
                      ["graph", f"catalog:{g}", mode, "--stabilize"]]
    bad = tmp_path / "bad.txt"
    bad.write_text("4 2\n1 0\n0 1\n1 1\n1 -1\n", encoding="utf-8")
    argvs += [["check", str(bad)],                         # exit 1, witness
              ["complexity", "catalog:no_such_thing"],     # exit 2
              ["check", str(tmp_path / "missing.txt")],    # exit 2
              ["polytope", "catalog:bixby_seymour", "--cap", "8"]]  # exit 3
    return [a + ["--json"] for a in argvs]


def test_render_json_matches_json_dumps_on_every_report(tmp_path, capsys,
                                                       monkeypatch):
    docs = []

    def checked(doc, write):
        # a long list of records must reach the writer as a Records, which
        # it writes column by column, not as a list of dicts
        assert all(len(x) < _MIN_RECORDS for x in _lists_of_dicts(doc)), doc
        plain = _materialized(doc)
        assert render_json(doc) == json.dumps(plain, indent=2)
        docs.append(plain)
        return render_json(doc, write)

    monkeypatch.setattr(unimod.cli, "render_json", checked)
    codes = set()
    for argv in _sweep_argvs(tmp_path):
        codes.add(run(argv))
        out = capsys.readouterr().out
        assert out == json.dumps(docs[-1], indent=2) + "\n"
    assert codes == {0, 1, 2, 3}


def _lists_of_dicts(x):
    """The lists and tuples of dicts in x, at any depth outside Records."""
    if isinstance(x, dict):
        for v in x.values():
            yield from _lists_of_dicts(v)
    elif isinstance(x, (list, tuple)):
        if x and all(isinstance(v, dict) for v in x):
            yield x
        for v in x:
            yield from _lists_of_dicts(v)


def _fuzz_value(rng, depth):
    strings = ["", "plain", 'quote " and \\ backslash', "tab\tnew\nline",
               "\x00\x1f\x7f", "caf\u00e9", "\u2200x", "\U0001d4b5",
               "\ud800", "</script>"]
    kind = rng.randrange(10 if depth < 4 else 6)
    if kind == 0:
        return rng.choice(strings)
    if kind == 1:
        return rng.randint(-10**30, 10**30)
    if kind == 2:
        return rng.choice([0.0, -0.0, 1.5, -2.25e-7, 1e300, 0.1,
                           float("inf"), float("-inf")])
    if kind == 3:
        return rng.choice([None, True, False])
    if kind == 4:   # int lists, some with a bool or a float among the ints
        xs = [rng.randint(-3, 3) for _ in range(rng.randrange(5))]
        if xs and rng.random() < 0.4:
            xs[rng.randrange(len(xs))] = rng.choice([True, False, 2.0, None])
        return xs if rng.random() < 0.8 else tuple(xs)
    if kind == 5:
        return rng.choice([[], {}, ()])
    if kind in (6, 7):
        return [_fuzz_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {rng.choice(strings) + str(i): _fuzz_value(rng, depth + 1)
            for i in range(rng.randrange(4))}


def test_render_json_matches_json_dumps_on_fuzzed_documents():
    rng = random.Random(20261018)
    for _ in range(500):
        doc = _fuzz_value(rng, 0)
        assert render_json(doc) == json.dumps(doc, indent=2), doc


def _aliased_doc(rng):
    """A document that holds a few list and tuple objects several times,
    at one depth and at different depths; some hold a bool or a float."""
    shared = [[1, True, -1], [2.0, 0], (0, False), [0, 1, -1], (1, -1)]
    for _ in range(rng.randrange(1, 4)):
        xs = [rng.randint(-3, 3) for _ in range(rng.randrange(1, 6))]
        shared.append(xs if rng.random() < 0.7 else tuple(xs))

    def value(depth):
        kind = rng.randrange(5 if depth < 5 else 2)
        if kind == 0:
            return rng.choice(shared)
        if kind == 1:
            return _fuzz_value(rng, 4)
        if kind in (2, 3):
            return [value(depth + 1) for _ in range(rng.randrange(5))]
        return {f"k{i}": value(depth + 1) for i in range(rng.randrange(4))}

    same_depth = [rng.choice(shared) for _ in range(6)]
    return {"a": same_depth, "b": [same_depth, value(1)], "c": value(0)}


def test_render_json_matches_json_dumps_on_aliased_documents():
    rng = random.Random(20261019)
    for _ in range(300):
        doc = _aliased_doc(rng)
        assert render_json(doc) == json.dumps(doc, indent=2), doc


def test_render_json_reflects_mutation_between_calls():
    v = [1, 0, -1]
    doc = {"a": v, "b": [v, [v]], "c": (v, v)}
    first = render_json(doc)
    v[0] = 5
    v.append(True)
    second = render_json(doc)
    assert first != second == json.dumps(doc, indent=2)
    del v[-1]
    assert render_json(doc) == json.dumps(doc, indent=2) != second


class _Dict(dict):
    """A dict subclass whose [] differs from its items(), which json.dumps
    reads: a record of it must not be read column by column."""

    def __getitem__(self, key):
        return "not the stored value"


class _List(list):
    pass


# keys that str.format or % would read as fields, or that encode to \u escapes
_RECORD_KEYS = ["vector", "square", "{", "}", "{0}", "{}", 'say "hi"',
                "back\\slash", "%s", "caf\u00e9", "\u2200x", "\U0001d4b5"]

# odd values, one of which may be mixed into an otherwise uniform column
_ODD_VALUES = [True, False, 1.0, -0.5, None, 10**30, -(10**30), 2**64, [], (),
               [1, True], (0, 2.5), [None], _List([1, 0]), (1,), [1, 0, 1, 0, 1],
               _Dict(a=1), {}, "s", [[1]]]


def _record_column(rng, length):
    """One column of a record list: ints, int lists or tuples of one width,
    strs or fuzzed values, with one odd value now and then."""
    kind = rng.randrange(6)
    width = rng.randrange(4)

    def value():
        if kind == 0:
            return rng.randint(-2, 40)
        if kind == 1:
            return [rng.randint(-1, 1) for _ in range(width)]
        if kind == 2:
            return tuple(rng.randint(-1, 1) for _ in range(width))
        if kind == 3:
            return rng.choice(["", "a", "{}", "%s", "caf\u00e9", "\ud800"])
        if kind == 4:
            return rng.randint(-10**20, 10**20)
        return _fuzz_value(rng, 3)

    col = [value() for _ in range(length)]
    if rng.random() < 0.5:
        col[rng.randrange(length)] = rng.choice(_ODD_VALUES)
    return col


def _record_list(rng):
    """A list of records: plain dicts sharing one key order, or, now and
    then, one row with its keys reordered or of a dict subclass, or a list
    subclass or tuple holding the rows."""
    length = rng.choice([1, 2, _MIN_RECORDS, _MIN_RECORDS + 1, 20])
    keys = rng.sample(_RECORD_KEYS, rng.randrange(1, 5))
    columns = [_record_column(rng, length) for _ in keys]
    rows = [dict(zip(keys, values)) for values in zip(*columns)]
    change = rng.randrange(8)
    i = rng.randrange(length)
    if change == 0:
        items = list(rows[i].items())
        rng.shuffle(items)
        rows[i] = dict(items)
    elif change == 1:
        rows[i] = _Dict(rows[i])
    elif change == 2:
        rows = _List(rows)
    elif change == 3:
        rows = tuple(rows)
    return rows


def _records_of(rows):
    """rows as a Records read through one itemgetter per key, or None if
    they are not plain dicts sharing one key order."""
    keys = tuple(rows[0])
    if all(type(r) is dict and tuple(r) == keys for r in rows):
        return Records(rows, [(k, itemgetter(k)) for k in keys])
    return None


def test_render_json_matches_json_dumps_on_record_lists():
    # a list of dicts is written row by row, and the same rows as a
    # Records column by column
    rng = random.Random(20261021)
    for _ in range(1500):
        rows = _record_list(rng)
        doc = rng.choice([rows, {"records": rows}, [{"nested": [rows]}]])
        assert render_json(doc) == json.dumps(doc, indent=2), doc
        records = _records_of(rows)
        if records is not None:
            assert render_json(records) == json.dumps(rows, indent=2), rows


@pytest.mark.parametrize("rows", [
    [{"{x}": [1, -1], "}": 0}, {"{x}": [0, 0], "}": 7}],
    [{"a": [1, 0]}, {"a": []}, {"a": [0, 1]}],
    [{"a": [1, 0]}, {"a": [1, 0, 1]}],
    [{"a": 1, "b": 2}, {"b": 3, "a": 4}],
    [{"a": 1}, {"a": True}, {"a": None}, {"a": 1.5}, {"a": 10**40}],
    [{"a": (1, 0)}, {"a": [0, True]}],
    [{"a": (1, 0)}, {"a": _List([0, 1])}],
    [{"a": "x"}, _Dict(a="y")],
    [{}, {}],
    [{"a": 0}],
    [{"a": 0, "b": 1}, {"b": 0, "a": 1}, {"a": 1, "b": 0}],
])
def test_render_json_record_list_edge_cases(rows):
    # long enough for a Records of them to be written column by column
    rows = rows * _MIN_RECORDS
    docs = [rows, {"k": rows}]
    records = _records_of(rows)
    if records is not None:
        docs += [records, {"k": records}]
    for doc in docs:
        assert render_json(doc) == json.dumps(_materialized(doc), indent=2)


def _rendered_both_ways(doc):
    """render_json(doc) returned, and the pieces it passes to a write."""
    pieces = []
    assert render_json(doc, pieces.append) is None
    return render_json(doc), "".join(pieces)


@pytest.mark.parametrize("count", sorted({
    0, 1, _MIN_RECORDS - 1, _MIN_RECORDS, _CHUNK - 1, _CHUNK, _CHUNK + 1,
    2 * _CHUNK + 1}))
def test_records_at_chunk_boundaries(count):
    vectors = [((i % 3) - 1, i, -i) for i in range(count)]
    records = Records(vectors, (("vector", tuple), ("first", itemgetter(0)),
                                ("name", lambda v: f"p{v[1]}")))
    plain = [{"vector": list(v), "first": v[0], "name": f"p{v[1]}"}
             for v in vectors]
    assert list(records) == [dict(r, vector=tuple(r["vector"])) for r in plain]
    for doc, expected in ((records, plain), ({"a": [records], "b": 0},
                                             {"a": [plain], "b": 0})):
        text = json.dumps(expected, indent=2)
        assert _rendered_both_ways(doc) == (text, text)


def _getter_column(rng, length):
    """Values for one Records field: bools, None, floats, strs, ints, int
    tuples and lists of mixed widths, subclasses, or a mixture of them."""
    kinds = [
        lambda: rng.choice([True, False]),
        lambda: None,
        lambda: rng.choice([0.5, -0.0, 1e300, float("inf")]),
        lambda: rng.choice(["", "x", "caf\u00e9", "\ud800", '"q"']),
        lambda: rng.randint(-10**20, 10**20),
        lambda: tuple(rng.randint(-1, 1) for _ in range(3)),
        lambda: [rng.randint(-1, 1) for _ in range(rng.randrange(4))],
        lambda: rng.choice([_List([1, 0]), _Dict(a=1), (True, 0), [None]]),
    ]
    kind = rng.choice(kinds + [None])
    return [(kind or rng.choice(kinds))() for _ in range(length)]


def test_render_json_matches_json_dumps_on_fuzzed_records(monkeypatch):
    # chunks of 1 to 8 rows, so that a few dozen rows cross many chunk
    # boundaries
    rng = random.Random(20261022)
    for _ in range(400):
        monkeypatch.setattr(unimod.fileio, "_CHUNK", rng.randint(1, 8))
        length = rng.choice([0, 1, _MIN_RECORDS - 1, _MIN_RECORDS, 9, 17, 40])
        keys = rng.sample(_RECORD_KEYS, rng.randrange(1, 5))
        if rng.random() < 0.1:  # a key given twice: read row by row
            keys.append(keys[0])
        columns = [_getter_column(rng, length) for _ in keys]
        rows = rng.choice([list(range(length)), range(length)])
        records = Records(rows, [(k, c.__getitem__)
                                 for k, c in zip(keys, columns)])
        plain = [dict(zip(keys, values)) for values in zip(*columns)]
        assert list(records) == plain
        doc, expected = rng.choice([
            (records, plain), ({"records": records}, {"records": plain}),
            ([{"n": [records]}], [{"n": [plain]}])])
        text = json.dumps(expected, indent=2)
        assert _rendered_both_ways(doc) == (text, text), doc


def test_streamed_report_holds_one_chunk(monkeypatch):
    # the graphic complete:6 report: 7839 points, about 2.95 MB of text
    monkeypatch.setattr(unimod.fileio, "_CHUNK", 256)
    report = build_polytope_report(graphic_system(make("complete", 6)))
    size = 0

    def write(text):
        nonlocal size
        size += len(text)

    tracemalloc.start()
    try:
        render_json(report.to_dict(), write)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == len(render_json(report.to_dict())) > 2_900_000
    assert peak < size / 4, (peak, size)


def test_render_json_matches_json_dumps_on_large_reports():
    from test_properties import scrambled_copies

    k5, k6 = make("complete", 5), make("complete", 6)
    systems = [cographic_system(k6), graphic_system(k6)]
    systems += scrambled_copies(random.Random(20261020), [graphic_system(k5)], 1)
    for s in systems:
        doc = build_polytope_report(s).to_dict()
        assert render_json(doc) == json.dumps(_materialized(doc), indent=2), s


@pytest.mark.parametrize("doc", [
    {1: 2}, {"a": [{None: 0}]}, {("t",): 1},
    [{1: i} for i in range(_MIN_RECORDS)],
    [{"a": i} for i in range(_MIN_RECORDS)] + [{"a": 0, 2: 3}],
    Records(range(_MIN_RECORDS), [("a", int), (2, int)])])
def test_render_json_rejects_non_str_keys(doc):
    with pytest.raises(TypeError):
        render_json(doc)


def _per_token_rows(text):
    """The data rows of a matrix file, each token read by _int (a
    _DECIMAL.fullmatch, then int): the oracle of the line-wise parser."""
    lines, _ = _data_lines(text)
    return [tuple(_int(x) for x in line.split()) for line in lines[1:]]


def test_line_wise_parse_matches_per_token_parse():
    # signs, "+", leading zeros, CRLF line ends and the Unicode spaces
    # str.split() splits on (no-break space, em space), all accepted
    rng = random.Random(34)
    separators = [" ", "  ", "\t", "\u00a0", "\u2003", " \u00a0 "]
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [tuple(rng.randint(-120, 120) for _ in range(n))
                for _ in range(rng.randint(1, 8))]

        def token(x):
            sign = "-" if x < 0 else rng.choice(["", "", "+"])
            return sign + "0" * rng.choice([0, 0, 1, 3]) + str(abs(x))

        def line(words):
            pad = rng.choice(["", " ", "\u2003"])
            return pad + rng.choice(separators).join(words) + pad

        body = [line(map(str, (len(rows), n)))]
        body += [line(map(token, r)) for r in rows]
        if rng.random() < 0.3:
            body.insert(rng.randint(0, len(body)), "# a comment")
        text = rng.choice(["\n", "\r\n"]).join(body) + "\n"
        parsed, labels = parse_matrix_text(text)
        assert parsed == _per_token_rows(text) == rows, text
        assert labels is None


@pytest.mark.parametrize("word", ["1_0", "\u0661", "0x1", "+-1", "1.0"])
@pytest.mark.parametrize("sep", [" ", "\u00a0"])
def test_line_wise_parse_refuses_what_int_alone_would_read(word, sep):
    # int() reads the first two as 10 and 1; each keeps the refusal of the
    # per-token parse
    line = sep.join(["0", word])
    text = f"2 2\n1 0\n{line}\n"
    with pytest.raises(ValueError):
        _per_token_rows(text)
    with pytest.raises(PreconditionError) as info:
        parse_matrix_text(text)
    assert str(info.value) == f"non-integer matrix entry in {line!r}"
