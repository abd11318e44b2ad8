"""Command-line front end: deterministic reports over the library operations.

Each run prints one report to standard output.  In text mode the payload is
surrounded by metadata lines prefixed with ``#`` (command echo, input
fingerprint, timing); with ``--json`` everything becomes a single JSON
document carrying the schema tag ``unimod/1``.  Two runs on identical inputs
differ only in the timing line/field.

Exit codes: 0 success, 1 verification failure (a witness is printed),
2 usage or input-format error, 3 enumeration cap exceeded, 141 (128 +
SIGPIPE) standard output closed by its reader, as in ``unimod dual FILE |
head -3``.
"""

import argparse
import os
import sys
import time
from functools import lru_cache

from .catalog import entries, lookup, make, parse_reference
from .errors import (
    CapError,
    CatalogError,
    ConnectivityError,
    DegenerateSystemError,
    NotUnimodularError,
    RankError,
    UnimodError,
)
from .fileio import (
    parse_edges_text,
    parse_matrix_text,
    render_edges_text,
    render_json,
    render_matrix_text,
    sha256_hex,
)
from .graphs import Multigraph, cographic_system, graphic_system, stabilize
from .lattice import (
    DEFAULT_SCAN_CAP,
    build_polytope_report,
    short_vector_census,
)
from .systems import (
    DEFAULT_ENUMERATION_CAP,
    are_isomorphic,
    automorphism_count,
    complexity,
    enumerate_bases,
    from_matrix,
    gale_dual,
    gram_matrix,
    split_upsilon,
)

# Substantive failures of the input itself: reported with witness, exit 1.
_VERIFICATION_ERRORS = (NotUnimodularError, RankError,
                        DegenerateSystemError, ConnectivityError)


# ---------------------------------------------------------------------------
# input resolution


def _load(src, want):
    """Resolve a <src> argument into (object, fingerprint).

    ``src`` is either a file path or a ``catalog:<name>[:<param>]``
    reference; ``want`` is "system" or "graph".  Catalog objects are hashed
    over their canonical file rendering, so a reference and the equivalent
    file carry the same fingerprint.
    """
    if src.startswith("catalog:"):
        name, param = parse_reference(src)
        entry = lookup(name)
        if entry.kind != want:
            raise CatalogError(
                f"catalog entry '{name}' is a {entry.kind}, not a {want}"
                + ("; use the graph command" if entry.kind == "graph" else ""))
        obj = make(name, param)
        if want == "system":
            text = render_matrix_text(obj.a_matrix.to_lists(), obj.labels)
        else:
            text = render_edges_text(obj)
        return obj, sha256_hex(text)
    with open(src, "r", encoding="utf-8") as fh:
        text = fh.read()
    digest = sha256_hex(text)
    if want == "graph":
        return parse_edges_text(text), digest
    rows, labels = parse_matrix_text(text)
    return from_matrix(rows, labels), digest


def _cap(args, default):
    """The --cap value, or the default when it is not given (0 is a cap)."""
    return default if args.cap is None else args.cap


def _sources(args):
    """The <src>-like argument values of a parsed command line."""
    for attr in ("src", "a", "b", "edges"):
        v = getattr(args, attr, None)
        if v is not None and attr == "a":
            return [args.a, args.b]
        if v is not None:
            return [v]
    return []


# ---------------------------------------------------------------------------
# report assembly


def _emit(args, inputs, lines, result, elapsed_ms, error=None):
    if args.json:
        doc = {
            "schema": "unimod/1",
            "command": args.command,
            "inputs": [{"source": s, "sha256": h} for s, h in inputs],
        }
        if error is not None:
            doc["error"] = error
        else:
            doc["result"] = result
        doc["elapsed_ms"] = elapsed_ms
        print(render_json(doc))
    else:
        print(f"# unimod {args.command}")
        for s, h in inputs:
            print(f"# input {s} sha256={h if h else 'unavailable'}")
        if error is not None:
            print(f"error: {error['message']}")
            if "witness" in error:
                # a minor has rows, cols and value; a zero or non-integral
                # row has rows only
                print("# witness " + " ".join(
                    f"{k}={v}" for k, v in error["witness"].items()))
        else:
            for line in lines:
                print(line)
        print(f"# elapsed_ms {elapsed_ms}")


def _matrix_lines(system, comments=()):
    text = render_matrix_text(system.a_matrix.to_lists(), system.labels,
                              comments=comments)
    return text.splitlines()


def _system_dict(system):
    return {
        "N": system.N,
        "n": system.n,
        "base_rows": list(system.base_rows),
        "rows": system.a_matrix.to_lists(),
        "labels": list(system.labels) if system.labels else None,
    }


# ---------------------------------------------------------------------------
# command handlers: each returns (inputs, text payload lines, json payload)


def _cmd_check(args):
    system, digest = _load(args.src, "system")
    lines = _matrix_lines(system, comments=[
        f"standard form, n={system.n} N={system.N}"
        f" base_rows={','.join(map(str, system.base_rows))}"])
    doc = dict(_system_dict(system), unimodular=True)
    return [(args.src, digest)], lines, doc


def _cmd_complexity(args):
    system, digest = _load(args.src, "system")
    c = complexity(system)
    lines = [str(c)]
    doc = {"complexity": c}
    if args.enumerate:
        bases = enumerate_bases(system, cap=_cap(args, DEFAULT_ENUMERATION_CAP))
        lines.append(f"bases {len(bases)}")
        lines.append(f"agree {'yes' if len(bases) == c else 'no'}")
        doc["bases"] = len(bases)
        doc["agree"] = len(bases) == c
    return [(args.src, digest)], lines, doc


def _cmd_dual(args):
    system, digest = _load(args.src, "system")
    dual = gale_dual(system)
    text = render_matrix_text(dual.a_matrix.to_lists(), dual.labels,
                              comments=["gale dual"])
    doc = dict(_system_dict(dual), written=None)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        lines = [f"wrote {args.output}"]
        doc["written"] = args.output
    else:
        lines = text.splitlines()
    return [(args.src, digest)], lines, doc


def _cmd_decompose(args):
    system, digest = _load(args.src, "system")
    sp = split_upsilon(system)
    lines = [f"upsilon_summands {sp.s}",
             "unit_rows " + (" ".join(map(str, sp.unit_rows))
                             if sp.unit_rows else "-")]
    if sp.core.N:
        lines += _matrix_lines(sp.core, comments=["core"])
    else:
        lines.append("# core empty")
    doc = {"upsilon_summands": sp.s, "unit_rows": list(sp.unit_rows),
           "core": _system_dict(sp.core)}
    return [(args.src, digest)], lines, doc


def _cmd_isomorphic(args):
    sys_a, dig_a = _load(args.a, "system")
    sys_b, dig_b = _load(args.b, "system")
    cap = _cap(args, DEFAULT_ENUMERATION_CAP)
    corr = are_isomorphic(sys_a, sys_b, cap=cap)
    inputs = [(args.a, dig_a), (args.b, dig_b)]
    if corr is None:
        return inputs, ["isomorphic no"], {"isomorphic": False}
    lines = ["isomorphic yes",
             "row_map " + " ".join(map(str, corr.row_map)),
             "signs " + " ".join("+" if s > 0 else "-" for s in corr.signs)]
    doc = {"isomorphic": True, "row_map": list(corr.row_map),
           "signs": list(corr.signs),
           "base_change": corr.base_change.to_lists()}
    return inputs, lines, doc


def _cmd_aut(args):
    system, digest = _load(args.src, "system")
    count = automorphism_count(system, cap=_cap(args, DEFAULT_ENUMERATION_CAP))
    return [(args.src, digest)], [str(count)], {"automorphisms": count}


def _cmd_lattice(args):
    system, digest = _load(args.src, "system")
    gram = gram_matrix(system)
    census = short_vector_census(system, cap=_cap(args, DEFAULT_SCAN_CAP))
    lines = [f"n {system.n}", f"N {system.N}"]
    lines.append("# gram")
    for i in range(system.n):
        lines.append(" ".join(str(gram[i, j]) for j in range(system.n)))
    lines += [f"discriminant {complexity(system)}",
              f"units {census.units()}",
              f"roots {census.roots()}",
              f"square_3 {census.counts[3]}",
              f"min_square {census.minimum_summary()}"]
    doc = {"n": system.n, "N": system.N,
           "gram": gram.to_lists(),
           "discriminant": complexity(system),
           "units": census.units(), "roots": census.roots(),
           "square_3": census.counts[3],
           "min_square": census.minimum_summary()}
    return [(args.src, digest)], lines, doc


def _cmd_polytope(args):
    system, digest = _load(args.src, "system")
    report = build_polytope_report(system, cap=_cap(args, DEFAULT_SCAN_CAP))
    lines = ["origin 1"]
    for sq, cnt in report.by_square().items():
        lines.append(f"square {sq} count {cnt}")
    lines += [f"points {len(report.points)}",
              f"vertices {len(report.vertices)}",
              f"facets {2 * len(report.facet_pairs)}"]
    for f in report.facet_pairs:
        lines.append(
            f"pair rep={f.rep_row} rows={','.join(map(str, f.class_rows))}"
            f" +side {f.plus_point_count}p/{len(f.plus_vertices)}v"
            f" -side {f.minus_point_count}p/{len(f.minus_vertices)}v")
    lines += [f"zonotope {'yes' if report.zonotope_verified else 'no'}",
              f"reflexive {'yes' if report.reflexive_verified else 'no'}"]
    return [(args.src, digest)], lines, report.to_dict() if args.json else None


def _cmd_graph(args):
    g, digest = _load(args.edges, "graph")
    note = []
    if args.stabilize:
        before = (g.vertex_count, g.edge_count)
        g = stabilize(g)
        note.append(f"stabilized {before[0]}v/{before[1]}e ->"
                    f" {g.vertex_count}v/{g.edge_count}e")
    derive = graphic_system if args.graphic else cographic_system
    system = derive(g)
    kind = "graphic" if args.graphic else "cographic"
    text = render_matrix_text(system.a_matrix.to_lists(), system.labels,
                              comments=[f"{kind} system"] + note)
    doc = dict(_system_dict(system), derivation=kind,
               stabilized=bool(args.stabilize), written=None)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        lines = [f"wrote {args.output}"]
        doc["written"] = args.output
    else:
        lines = text.splitlines()
    return [(args.edges, digest)], lines, doc


def _cmd_catalog(args):
    lines = []
    doc = []
    for e in entries():
        if not e.takes_param:
            param = "-"
        elif e.default_param is None:
            param = "param (required)"
        else:
            param = f"param (default {e.default_param})"
        lines.append(f"{e.name:<18} {e.kind:<7} {param:<19} {e.description}")
        doc.append({"name": e.name, "kind": e.kind,
                    "takes_param": e.takes_param,
                    "default_param": e.default_param,
                    "description": e.description})
    return [], lines, {"entries": doc}


_HANDLERS = {
    "check": _cmd_check,
    "complexity": _cmd_complexity,
    "dual": _cmd_dual,
    "decompose": _cmd_decompose,
    "isomorphic": _cmd_isomorphic,
    "aut": _cmd_aut,
    "lattice": _cmd_lattice,
    "polytope": _cmd_polytope,
    "graph": _cmd_graph,
    "catalog": _cmd_catalog,
}


# ---------------------------------------------------------------------------
# parser / entry point


def _cap_value(text):
    """A --cap argument: a nonnegative integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"cap must be nonnegative: {value}")
    return value


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built on first use and shared by every run."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a single JSON document")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument("--cap", type=_cap_value, metavar="N",
                        help="override enumeration/scan size caps")

    parser = argparse.ArgumentParser(
        prog="unimod",
        description="Exact tools for unimodular systems of linear forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="verify a matrix and print its standard form")
    p.add_argument("src", help="matrix file or catalog: reference")

    p = sub.add_parser("complexity", parents=[capped],
                       help="number of bases via the Gram determinant")
    p.add_argument("src")
    p.add_argument("--enumerate", action="store_true",
                   help="also enumerate bases and report agreement")

    p = sub.add_parser("dual", parents=[common], help="emit the Gale dual")
    p.add_argument("src")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the dual system to FILE")

    p = sub.add_parser("decompose", parents=[common],
                       help="split off unit summands")
    p.add_argument("src")

    p = sub.add_parser("isomorphic", parents=[capped],
                       help="search for a signed row correspondence")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("aut", parents=[capped],
                       help="count signed self-correspondences")
    p.add_argument("src")

    p = sub.add_parser("lattice", parents=[capped],
                       help="Gram matrix, discriminant, short-vector census")
    p.add_argument("src")

    p = sub.add_parser("polytope", parents=[capped],
                       help="full polytope report (census, facets, verdicts)")
    p.add_argument("src")

    p = sub.add_parser("graph", parents=[common],
                       help="derive the cycle- or cut-space system of a graph")
    p.add_argument("edges", help="edge-list file or catalog: graph reference")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--graphic", action="store_true")
    which.add_argument("--cographic", action="store_true")
    p.add_argument("--stabilize", action="store_true",
                   help="delete loops and contract bridges first")
    p.add_argument("-o", "--output", metavar="FILE")

    sub.add_parser("catalog", parents=[common],
                   help="list built-in systems and graphs")

    return parser


def run(argv=None):
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        inputs, lines, doc = _HANDLERS[args.command](args)
    except Exception as exc:  # mapped to exit codes below
        elapsed = round((time.perf_counter() - t0) * 1000, 1)
        error = {"kind": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NotUnimodularError):
            error["witness"] = exc.witness()
        inputs = [(s, None) for s in _sources(args)]
        if isinstance(exc, CapError):
            code = 3
        elif isinstance(exc, _VERIFICATION_ERRORS):
            code = 1
        elif isinstance(exc, (UnimodError, OSError)):
            code = 2
        else:
            raise
        _emit(args, inputs, [], None, elapsed, error=error)
        return code
    elapsed = round((time.perf_counter() - t0) * 1000, 1)
    _emit(args, inputs, lines, doc, elapsed)
    return 0


def main(argv=None):
    try:
        code = run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at the null device so that the
        # flush at interpreter shutdown does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
