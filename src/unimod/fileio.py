"""Plain-text and JSON input formats.

Matrix files: first non-comment line "N n", then N lines of n signed
decimal integers ([+-]?[0-9]+); '#' starts a comment line.  Each data
line is checked once to hold only ASCII digits, signs and whitespace
(_DATA_LINE), and its words are then read by int(): the check keeps out
the underscores and non-ASCII digits int() would take, and int() refuses
a misplaced sign, so a word is read exactly when it is a signed ASCII
decimal.  "0 0" is the empty system, and "0 n" with n >= 1 is refused.
A comment of the form "# labels: a b c" carries row labels and survives
a parse/render round trip, so each label must be a nonempty word without
whitespace.  A JSON object {"rows": [[...]], "labels": [...]} is accepted
anywhere a matrix file is; its entries must be JSON integers (no floats
or booleans), and it may carry no other key and no key twice.
Edge-list files: first line "m N" (vertices, edges), then N lines
"tail head" with 1-indexed vertex ids.  Reports are written as JSON by
render_json, which gives the bytes of json.dumps(doc, indent=2) faster:
a list of plain ints is written in one join, and a Records (a list of
records read through one getter per key, such as a report's points and
facets, which builds no dict per record) is written column by column, so
its per-value work is done by C loops.  Given a write function,
render_json streams the text a chunk of records at a time, so a report
of any size is written without its whole text in memory.
"""

from __future__ import annotations

import json
import re
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

# hashlib loads OpenSSL's libcrypto, which weighs more than the rest of the
# CLI together; the interpreter's built-in SHA-256 gives the same digests.
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from .errors import PreconditionError
from .graphs import Multigraph
from .systems import check_labels


_DECIMAL = re.compile(r"[+-]?[0-9]+")

# A data line of a matrix file: int() reads each of its words exactly when
# every word is a _DECIMAL (\s is the whitespace str.split() splits on).
_DATA_LINE = re.compile(r"[-+0-9\s]*")

# Below this many records a Records is rendered row by row: the column
# set-up costs more than it saves (about 20 us against 7 us for one point).
_MIN_RECORDS = 8

# Records are rendered this many rows at a time: few enough that one
# chunk's text (about 2.4 MB for points of N = 21) is all that is held,
# many enough that the column set-up is paid rarely.
_CHUNK = 4096


class Records:
    """A lazy list of records: record k is {key: get(rows[k]) for key, get
    in fields}, fields being (key, get) pairs in key order and rows a
    sequence.

    It has a length, and iterating it builds the records one by one;
    nothing else builds them.  render_json reads it column by column
    instead, one getter over a chunk of rows at a time, and writes the
    bytes of json.dumps of the list of its records.
    """

    __slots__ = ("rows", "fields")

    def __init__(self, rows, fields):
        self.rows = rows
        self.fields = tuple(fields)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        fields = self.fields
        return ({key: get(row) for key, get in fields} for row in self.rows)


def sha256_hex(text):
    """The SHA-256 of text encoded as UTF-8, in hex."""
    return _sha256(text.encode()).hexdigest()


def _int(token):
    """int(token) for a plain decimal token, else ValueError.

    int() alone would also take "1_0", padded or non-ASCII digits.
    """
    if not _DECIMAL.fullmatch(token):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def _data_lines(text):
    """The stripped data lines of text, and the words of each of its
    '# labels:' comment lines, in one pass."""
    lines, labels = [], []
    for line in text.splitlines():
        s = line.strip()
        if not s.startswith("#"):
            if s:
                lines.append(s)
        elif s[1:].lstrip().startswith("labels:"):
            labels.append(tuple(s[1:].lstrip()[len("labels:"):].split()))
    return lines, labels


def _unique_keys(pairs):
    """A JSON object as a dict; a key given twice is an error, not the last
    value silently kept."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise PreconditionError(f"JSON matrix repeats the key {key!r}")
        obj[key] = value
    return obj


def parse_matrix_text(text):
    """Parse a matrix file (text or JSON form) into (rows, labels)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as e:
            raise PreconditionError(f"bad JSON matrix: {e}") from None
        if not isinstance(obj, dict) or "rows" not in obj:
            raise PreconditionError('JSON matrix needs a "rows" key')
        unknown = [k for k in obj if k not in ("rows", "labels")]
        if unknown:
            raise PreconditionError(
                f"JSON matrix has an unknown key {unknown[0]!r}")
        rows = obj["rows"]
        if (not isinstance(rows, list)
                or not all(isinstance(r, list) for r in rows)
                or not all(type(x) is int for r in rows for x in r)):
            raise PreconditionError('"rows" must be a list of integer lists')
        labels = obj.get("labels")
        if labels is not None:
            if not isinstance(labels, list):
                raise PreconditionError('"labels" must be a list')
            labels = check_labels(labels, len(rows))
        return [tuple(r) for r in rows], labels
    lines, labels = _data_lines(text)
    if len(labels) > 1:
        raise PreconditionError("more than one '# labels:' line")
    labels = labels[0] if labels else None
    if not lines:
        raise PreconditionError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise PreconditionError('matrix header must be "N n"')
    try:
        nrows, ncols = _int(head[0]), _int(head[1])
    except ValueError:
        raise PreconditionError('matrix header must be "N n"') from None
    if nrows == 0 and ncols:
        raise PreconditionError(
            f'a matrix without rows has the header "0 0", not "0 {ncols}"')
    if len(lines) - 1 != nrows:
        raise PreconditionError(
            f"expected {nrows} matrix rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != ncols:
            raise PreconditionError(
                f"expected {ncols} entries per row, got {len(parts)}: {line!r}")
        try:
            if not _DATA_LINE.fullmatch(line):
                raise ValueError(line)
            rows.append(tuple(map(int, parts)))
        except ValueError:
            raise PreconditionError(f"non-integer matrix entry in {line!r}") from None
    if labels is not None:
        labels = check_labels(labels, nrows)
    return rows, labels


def render_matrix_text(rows, labels=None, comments=()):
    """Canonical text rendering of a matrix (labels become comments).

    Entries are ints.  Each distinct entry is rendered once, right-justified
    to the widest, and every row is joined from that table.
    """
    rows = [tuple(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    lines = [f"# {c}" for c in comments]
    lines.append(f"{len(rows)} {ncols}")
    text = {x: str(x) for x in set(chain.from_iterable(rows))}
    width = max(map(len, text.values()), default=1)
    text = {x: t.rjust(width) for x, t in text.items()}
    lines += [" ".join(map(text.__getitem__, r)) for r in rows]
    if labels is not None:
        lines.append("# labels: " + " ".join(labels))
    return "\n".join(lines) + "\n"


def render_json(doc, write=None):
    """Exactly json.dumps(doc, indent=2), with the leaves encoded in C.

    Without write the text is returned.  With write it is passed through
    write in pieces, a chunk of records at a time, and None is returned:
    the text is never held whole.  A document may hold Records where a
    list may stand; the text is then that of the document with each
    Records materialized as the list of its records.

    With indent set, json.dumps runs its pure-Python encoder.  Here the
    nesting is walked in Python, but a list of plain ints (no bools) is
    written in one join and strs go through the C string encoder.  A
    Records of at least _MIN_RECORDS records is written column by column
    (_records), so a report's many points cost no Python call each; any
    other list, however long, is written item by item.  Every
    dict key must be a str (TypeError otherwise); json.dumps would convert
    some other keys.
    """
    if write is None:
        return _text(doc, "\n")
    parts = []
    _render(doc, "\n", parts, write)
    write("".join(parts))
    return None


def _text(x, nl):
    """x as indented JSON text; nl is the newline plus the current indent."""
    parts = []
    _render(x, nl, parts, None)
    return "".join(parts)


def _render(x, nl, parts, write):
    """Append the text of x to parts; nl is the newline plus the current
    indent.  With write, _records hands parts and its chunks to write."""
    t = type(x)
    if t is str:
        parts.append(encode_basestring_ascii(x))
        return
    if t is int:
        parts.append(str(x))
        return
    inner = nl + "  "
    if isinstance(x, dict):
        if not x:
            parts.append("{}")
            return
        sep = "{" + inner
        for k, v in x.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON key {k!r} is not a str")
            parts.append(sep + encode_basestring_ascii(k) + ": ")
            _render(v, inner, parts, write)
            sep = "," + inner
        parts.append(nl + "}")
        return
    if t is Records:
        if len(x) >= _MIN_RECORDS and _column_keys([k for k, _ in x.fields]):
            _records(x, nl, parts, write)
            return
    elif isinstance(x, (list, tuple)):
        if set(map(type, x)) == {int}:
            parts.append("[" + inner + ("," + inner).join(map(str, x)) + nl + "]")
            return
    else:
        parts.append(json.dumps(x))
        return
    # any other list, or a Records that is not read by columns
    if not x:
        parts.append("[]")
        return
    sep = "[" + inner
    for v in x:
        parts.append(sep)
        _render(v, inner, parts, write)
        sep = "," + inner
    parts.append(nl + "]")


def _column_keys(keys):
    """Whether records with these keys, in this order, are written column
    by column: at least one key, every key a plain str, none twice."""
    return (bool(keys) and set(map(type, keys)) == {str}
            and len(set(keys)) == len(keys))


def _int_texts(xs):
    """The texts of plain ints, through a table of their distinct values."""
    text = {i: str(i) for i in set(xs)}
    return list(map(text.__getitem__, xs))


def _records(recs, nl, parts, write):
    """Append the text of a Records to parts, column by column, _CHUNK
    rows at a time; with write, parts and then each chunk's text go to
    write, so no more than one chunk's text is held.

    Its fields must pass _column_keys.  The text of a chunk is literals
    and values in turn: the literals are the keys and the layout, the same
    in every row, and a column's values are rendered together.  A column of
    strs goes through the C string encoder and a column of plain ints
    through _int_texts; a column of int lists (or tuples) of one nonzero
    length w is flattened and rendered in one pass, and each row's w
    texts are joined into one value, the list's text between its
    brackets.  Any other column (bools, floats, None, nested objects,
    lists of mixed lengths, subclasses) is rendered value by value by
    _text.  One join over the interleaved literals and values gives the
    text.
    """
    rows = recs.rows
    row_nl = nl + "  "
    field_nl = row_nl + "  "
    item_nl = field_nl + "  "
    sep = "," + row_nl
    parts.append("[" + row_nl)
    for start in range(0, len(rows), _CHUNK):
        chunk = rows[start:start + _CHUNK]
        lits = []      # lits[i] is the literal text before value column i
        columns = []
        lit = "{"
        for j, (k, get) in enumerate(recs.fields):
            lit += ("," if j else "") + field_nl + encode_basestring_ascii(k) + ": "
            col = list(map(get, chunk))
            types = set(map(type, col))
            width = len(col[0]) if types <= {list, tuple} else 0
            flat = list(chain.from_iterable(col)) if width else ()
            if (width and set(map(len, col)) == {width}
                    and set(map(type, flat)) == {int}):
                lits.append(lit + "[" + item_nl)
                columns.append(map(("," + item_nl).join,
                                   zip(*[iter(_int_texts(flat))] * width)))
                lit = field_nl + "]"
                continue
            lits.append(lit)
            lit = ""
            if types == {str}:
                columns.append(map(encode_basestring_ascii, col))
            elif types == {int}:
                columns.append(_int_texts(col))
            else:
                columns.append([_text(v, field_nl) for v in col])
        pieces = []
        for lit_i, values in zip(lits, columns):
            pieces += [repeat(lit_i), values]
        pieces.append(repeat(lit + row_nl + "}" + sep))  # every row ends in sep
        text = "".join(chain.from_iterable(zip(*pieces)))
        if start + _CHUNK >= len(rows):
            text = text[:-len(sep)]
        if write is None:
            parts.append(text)
        else:
            write("".join(parts))
            parts.clear()
            write(text)
        del text, pieces, columns  # hold one chunk's strings, not two
    parts.append(nl + "]")


def parse_edges_text(text):
    """Parse an edge-list file into a Multigraph."""
    lines, _ = _data_lines(text)
    if not lines:
        raise PreconditionError("empty edge file")
    head = lines[0].split()
    if len(head) != 2:
        raise PreconditionError('edge header must be "m N"')
    try:
        m, nedges = _int(head[0]), _int(head[1])
    except ValueError:
        raise PreconditionError('edge header must be "m N"') from None
    if len(lines) - 1 != nedges:
        raise PreconditionError(f"expected {nedges} edges, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise PreconditionError(f'edge line must be "tail head": {line!r}')
        try:
            edges.append((_int(parts[0]), _int(parts[1])))
        except ValueError:
            raise PreconditionError(f"non-integer vertex id in {line!r}") from None
    return Multigraph.build(m, edges)


def render_edges_text(g):
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines += [f"{t} {h}" for t, h in g.edges]
    return "\n".join(lines) + "\n"
