"""Content checks on the output of one CLI call.

Each check reads fields, never layout: JSON keys, or the ``key value`` and
matrix lines of a text report, skipping ``#`` metadata.  A report that gains
fields still passes.  ``check(call, code, out)`` returns None when the output
is right, else a one-line reason.
"""

import json

import exact


class Wrong(Exception):
    pass


def need(cond, what):
    if not cond:
        raise Wrong(what)


def _payload(text):
    return [ln.split() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]


def _fields(text):
    """Text report lines of the form 'key value...' as {key: [values]}."""
    return {p[0]: p[1:] for p in _payload(text) if not _is_int(p[0])}


def _is_int(tok):
    return tok.lstrip("-").isdigit()


def _text_matrix(text):
    """The 'N n' header and rows of a matrix rendering."""
    lines = [p for p in _payload(text) if all(_is_int(t) for t in p)]
    nrows, ncols = int(lines[0][0]), int(lines[0][1])
    rows = [[int(t) for t in p] for p in lines[1:1 + nrows]]
    need(len(rows) == nrows and all(len(r) == ncols for r in rows),
         "matrix rows do not match the header")
    return rows


def _system(out, as_json):
    """Standard-form rows of a check/graph/dual report."""
    if as_json:
        doc = json.loads(out)["result"]
        return doc["rows"]
    return _text_matrix(out)


def _standard(rows, what):
    """Rows must be a standard form: their first base is the unit matrix."""
    base = exact.first_base(rows)
    n = len(rows[0])
    need([rows[i] for i in base] == [[int(i == j) for j in range(n)]
                                     for i in range(n)],
         f"{what}: first base rows are not the unit vectors")
    return base


def _graph(out, e):
    rows = _system(out, "--json" in e["argv"])
    need((len(rows), len(rows[0])) == (e["N"], e["n"]),
         f"shape {len(rows)}x{len(rows[0])}, expected {e['N']}x{e['n']}")
    _standard(rows, "graph")
    need(exact.gram_det(rows) == e["complexity"],
         "det of the Gram matrix differs from the Kirchhoff tree count")


def _check(out, e):
    rows = _system(out, "--json" in e["argv"])
    base = _standard(rows, "check")
    need(base == e["base_rows"], f"base rows {base}, expected {e['base_rows']}")
    raw = e["raw"]
    need(exact.matmul(rows, [raw[i] for i in base]) == raw,
         "standard form times the base rows does not give the input back")
    need(exact.gram_det(rows) == e["complexity"], "complexity changed")


def _dual(out, e):
    doc = json.loads(out)["result"]
    rows, raw = doc["rows"], e["raw"]
    if e["n"] == 0:
        need(doc["N"] == 0, "dual of a pure unit system is not empty")
        return
    need(doc["n"] == e["n"], f"dual rank {doc['n']}, expected {e['n']}")
    need(exact.gram_det(rows) == e["complexity"],
         "dual complexity differs from the system's")
    if e["labels"]:
        at = {lab: i for i, lab in enumerate(e["labels"])}
        aligned = [raw[at[lab]] for lab in doc["labels"]]
    else:
        need(len(rows) == len(raw), "dual dropped rows of an unlabelled system")
        aligned = raw
    need(not any(any(r) for r in exact.matmul(exact.transpose(aligned), rows)),
         "dual rows are not orthogonal to the system")


def _reject(code, out, e):
    need(code == 1, f"exit code {code}, expected 1")
    w = json.loads(out)["error"]["witness"]
    rows, cols, value = e["witness"]
    need((w.get("rows"), w.get("cols"), w.get("value")) == (rows, cols, value),
         f"witness {w}, expected the first bad minor {rows} {cols} = {value}")


def _polytope(out, e):
    if "--json" in e["argv"]:
        doc = json.loads(out)["result"]
        got = {"points": doc["point_count"], "vertices": doc["vertex_count"],
               "facets": 2 * len(doc["facets"]),
               "by_square": doc["census_by_square"],
               "min_square": doc["min_nonzero_square"],
               "zonotope": doc["zonotope_verified"],
               "reflexive": doc["reflexive_verified"],
               "complexity": doc["discriminant"]}
        need(len(doc["points"]) == doc["point_count"]
             and len(doc["vertices"]) == doc["vertex_count"],
             "listed points or vertices disagree with their counts")
    else:
        f = _fields(out)
        squares = [p for p in _payload(out) if p[0] == "square"]
        got = {"points": int(f["points"][0]), "vertices": int(f["vertices"][0]),
               "facets": int(f["facets"][0]),
               "by_square": {p[1]: int(p[3]) for p in squares},
               "zonotope": f["zonotope"][0] == "yes",
               "reflexive": f["reflexive"][0] == "yes"}
    want = dict(e, reflexive=True)
    for key, value in got.items():
        need(value == want[key], f"{key} {value!r}, expected {want[key]!r}")


def _lattice(out, e):
    f = _fields(out)
    n = int(f["n"][0])
    gram = [[int(t) for t in p] for p in _payload(out) if _is_int(p[0])]
    need(len(gram) == n and gram == e["gram"], "Gram matrix differs")
    sq = e["by_square"]
    for key, want in (("discriminant", e["complexity"]),
                      ("units", sq.get("1", 0)), ("roots", sq.get("2", 0)),
                      ("square_3", sq.get("3", 0))):
        need(int(f[key][0]) == want, f"{key} {f[key][0]}, expected {want}")
    need(" ".join(f["min_square"]) == e["min_square"], "min_square differs")


def _complexity(out, e):
    f = _fields(out)
    first = next(p for p in _payload(out) if _is_int(p[0]))
    c = e["complexity"]
    need(int(first[0]) == c, f"complexity {first[0]}, expected {c}")
    need(int(f["bases"][0]) == c and f["agree"] == ["yes"],
         "enumerated bases disagree with the complexity")


def _isomorphic(out, e):
    doc = json.loads(out)["result"]
    need(doc["isomorphic"], "scrambled copy reported not isomorphic")
    a, b = e["std_a"], e["std_b"]
    perm, signs, g = doc["row_map"], doc["signs"], doc["base_change"]
    need(sorted(perm) == list(range(len(b))), "row_map is not a permutation")
    need(all(s in (1, -1) for s in signs), "signs are not +-1")
    need(exact.det(g) in (1, -1), "base change is not unimodular")
    image = exact.matmul(a, g)
    need(all([signs[i] * x for x in image[i]] == b[perm[i]]
             for i in range(len(a))),
         "correspondence does not map the rows onto the scrambled copy")


def _decompose(out, e):
    s = int(_fields(out)["upsilon_summands"][0])
    need(s == e["summands"], f"{s} unit summands, expected {e['summands']}")


def _aut(out, e):
    count = int(_payload(out)[0][0])
    need(count == e["aut"], f"{count} automorphisms, expected {e['aut']}")


_CHECKS = {"graph": _graph, "check": _check, "dual": _dual,
           "polytope": _polytope, "lattice": _lattice,
           "complexity": _complexity, "isomorphic": _isomorphic,
           "decompose": _decompose, "aut": _aut}


def check(call, code, out):
    """None if the call's exit code and output are right, else a reason."""
    kind, e = call["kind"], dict(call["expect"], argv=call["argv"])
    try:
        if kind == "reject":
            _reject(code, out, e)
        else:
            need(code == 0, f"exit code {code}, expected 0")
            _CHECKS[kind](out, e)
    except Wrong as exc:
        return str(exc)
    except (KeyError, IndexError, ValueError, TypeError, StopIteration) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
