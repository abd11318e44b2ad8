"""Command-line front end: deterministic reports over the library operations.

Each run prints one report to standard output.  In text mode the payload is
surrounded by metadata lines prefixed with ``#`` (command echo, input
fingerprint, timing); with ``--json`` everything becomes a single JSON
document carrying the schema tag ``unimod/1``.  Two runs on identical inputs
differ only in the timing line/field.

Inputs: ``run`` loads the inputs a command's positionals name (``edges``
is a graph, any other a system) and passes them to the command's handler,
which only computes.  Fingerprints: a file's digest is the SHA-256 of its
UTF-8-decoded text after universal-newline translation, so a CRLF file has
the digest of its LF twin, not its ``sha256sum``; a ``catalog:`` reference
hashes its canonical rendering.  The interpreter's built-in SHA-256
computes it, without OpenSSL.  A digest is taken as soon as the input is
read, so a report that fails later, while parsing, certifying or
computing, still names it; an input that cannot be read has none.

Exit codes: 0 success, 1 verification failure (a witness is printed),
2 usage or input-format error, 3 work cap exceeded (more than ``--cap N``,
default ``systems.DEFAULT_CAP``, points or bases found, or search nodes;
or, for a matrix file under any command, more than ``DEFAULT_CAP`` units
of certification, which ``--cap`` does not change; or, under ``graph``, a
derived system of more than ``DEFAULT_CAP`` entries), 141 (128 + SIGPIPE)
standard output closed by its reader, as in ``unimod dual FILE | head -3``.
"""

import os
import sys
import time
from operator import attrgetter
from types import SimpleNamespace

from .catalog import entries, lookup, make, parse_reference
from .errors import (CapError, CatalogError, ConnectivityError,
                     DegenerateSystemError, NotUnimodularError,
                     PreconditionError, RankError, UnimodError)
from .fileio import (Records, _int, parse_edges_text, parse_matrix_text,
                     render_json, render_edges_text, render_matrix_text,
                     sha256_hex)
from .graphs import cographic_system, graphic_system, stabilize
from .lattice import build_polytope_report, short_vector_census
from .systems import (DEFAULT_CAP, are_isomorphic, automorphism_count,
                      complexity, enumerate_bases, from_matrix, gale_dual,
                      gram_matrix, split_upsilon)

# Substantive failures of the input itself: reported with witness, exit 1.
_VERIFICATION_ERRORS = (NotUnimodularError, RankError,
                        DegenerateSystemError, ConnectivityError)


# ---------------------------------------------------------------------------
# input resolution


def _load(src, want):
    """Read a <src> argument: (its fingerprint, a function building its object).

    ``src`` is either a file path or a ``catalog:<name>[:<param>]``
    reference; ``want`` is "system" or "graph".  A file is hashed as soon as
    its text is read, so the digest is known before parsing or
    certification can fail; a ``catalog:`` reference hashes its canonical
    rendering, so it carries the fingerprint of the equivalent file.  A
    file that is not UTF-8 or starts with a byte-order mark is refused
    unhashed.
    """
    if src.startswith("catalog:"):
        name, param = parse_reference(src)
        entry = lookup(name)
        if entry.kind != want:
            raise CatalogError(
                f"catalog entry '{name}' is a {entry.kind}, not a {want}"
                + ("; use the graph command" if entry.kind == "graph" else ""))
        obj = make(name, param)
        text = _matrix_text(obj) if want == "system" else render_edges_text(obj)
        return sha256_hex(text), lambda: obj
    with open(src, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise PreconditionError(f"{src} is not UTF-8 text: {exc}") from None
    if text.startswith("\ufeff"):
        raise PreconditionError(
            f"{src} starts with a UTF-8 byte-order mark; save it without one")
    if want == "graph":
        return sha256_hex(text), lambda: parse_edges_text(text)
    return sha256_hex(text), lambda: from_matrix(*parse_matrix_text(text))


def _cap(args):
    """The --cap value, or DEFAULT_CAP when it is not given (0 is a cap)."""
    return DEFAULT_CAP if args.cap is None else args.cap


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
        render_json(doc, sys.stdout.write)
        sys.stdout.write("\n")
    else:
        out = [f"# unimod {args.command}"]
        out += [f"# input {s} sha256={h if h else 'unavailable'}"
                for s, h in inputs]
        if error is not None:
            out.append(f"error: {error['message']}")
            if "witness" in error:
                # a minor has rows, cols and value; a zero or non-integral
                # row has rows only; a disconnected graph has a vertex
                out.append("# witness " + " ".join(
                    f"{k}={v}" for k, v in error["witness"].items()))
        else:
            out += lines
        out.append(f"# elapsed_ms {elapsed_ms}\n")
        sys.stdout.write("\n".join(out))


def _matrix_text(system, comments=()):
    return render_matrix_text(system.a_matrix.row_list(), system.labels,
                              comments=comments)


def _system_dict(system):
    return {
        "N": system.N,
        "n": system.n,
        "base_rows": list(system.base_rows),
        "rows": system.a_matrix.to_lists(),
        "labels": list(system.labels) if system.labels else None,
    }


def _derived(args, system, comments, **fields):
    """A derived system's report: its text printed, or written to -o FILE."""
    text = _matrix_text(system, comments)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        lines = [f"wrote {args.output}"]
    else:
        lines = text.splitlines()
    return lines, dict(_system_dict(system), **fields,
                       written=args.output or None)


# ---------------------------------------------------------------------------
# command handlers: each takes the parsed arguments and the objects its
# positionals name, already loaded by run, and returns (text payload lines,
# json payload)


def _cmd_check(args, system):
    lines = _matrix_text(system, [
        f"standard form, n={system.n} N={system.N}"
        f" base_rows={','.join(map(str, system.base_rows))}"]).splitlines()
    return lines, dict(_system_dict(system), unimodular=True)


def _cmd_complexity(args, system):
    c = complexity(system)
    lines = [str(c)]
    doc = {"complexity": c}
    if args.enumerate:
        bases = enumerate_bases(system, cap=_cap(args))
        lines.append(f"bases {len(bases)}")
        lines.append(f"agree {'yes' if len(bases) == c else 'no'}")
        doc["bases"] = len(bases)
        doc["agree"] = len(bases) == c
    return lines, doc


def _cmd_dual(args, system):
    return _derived(args, gale_dual(system), ["gale dual"])


def _cmd_decompose(args, system):
    sp = split_upsilon(system)
    lines = [f"upsilon_summands {sp.s}",
             "unit_rows " + (" ".join(map(str, sp.unit_rows))
                             if sp.unit_rows else "-")]
    if sp.core.N:
        lines += _matrix_text(sp.core, ["core"]).splitlines()
    else:
        lines.append("# core empty")
    doc = {"upsilon_summands": sp.s, "unit_rows": list(sp.unit_rows),
           "core": _system_dict(sp.core)}
    return lines, doc


def _cmd_isomorphic(args, sys_a, sys_b):
    corr, witness = are_isomorphic(sys_a, sys_b, cap=_cap(args), explain=True)
    if corr is None:
        # the first invariant that differs, or the nodes of the exhausted
        # search; a value is an int or a list, written without spaces
        return (["isomorphic no", "# witness " + " ".join(
                    f"{k}={v}".replace(" ", "") for k, v in witness.items())],
                {"isomorphic": False, "witness": witness})
    lines = ["isomorphic yes",
             "row_map " + " ".join(map(str, corr.row_map)),
             "signs " + " ".join("+" if s > 0 else "-" for s in corr.signs)]
    doc = {"isomorphic": True, "row_map": list(corr.row_map),
           "signs": list(corr.signs),
           "base_change": corr.base_change.to_lists()}
    return lines, doc


def _cmd_aut(args, system):
    count = automorphism_count(system, cap=_cap(args))
    return [str(count)], {"automorphisms": count}


def _cmd_lattice(args, system):
    census = short_vector_census(system, cap=_cap(args))
    doc = {"n": system.n, "N": system.N,
           "gram": gram_matrix(system).to_lists(),
           "discriminant": complexity(system),
           "units": census.units(), "roots": census.roots(),
           "square_3": census.counts[3],
           "min_square": census.minimum_summary()}
    lines = [f"n {system.n}", f"N {system.N}", "# gram"]
    lines += [" ".join(map(str, row)) for row in doc["gram"]]
    lines += [f"{k} {doc[k]}"
              for k in ("discriminant", "units", "roots", "square_3",
                        "min_square")]
    return lines, doc


def _cmd_polytope(args, system):
    report = build_polytope_report(system, cap=_cap(args))
    lines = ["origin 1"]
    for sq, cnt in report.square_counts.items():
        lines.append(f"square {sq} count {cnt}")
    lines += [f"points {len(report.points)}",
              f"vertices {len(report.vertices)}",
              f"facets {2 * len(report.facet_pairs)}"]
    for f in report.facet_pairs:
        lines.append(
            f"pair rep={f.rep_row} rows={','.join(map(str, f.class_rows))}"
            f" +side {f.point_count}p/{f.vertex_count}v"
            f" -side {f.point_count}p/{f.vertex_count}v")
    lines += [f"zonotope {'yes' if report.zonotope_verified else 'no'}",
              f"reflexive {'yes' if report.reflexive_verified else 'no'}"]
    return lines, report.to_dict() if args.json else None


def _cmd_graph(args, g):
    note = []
    if args.stabilize:
        before = (g.vertex_count, g.edge_count)
        g = stabilize(g)
        note.append(f"stabilized {before[0]}v/{before[1]}e ->"
                    f" {g.vertex_count}v/{g.edge_count}e")
    derive = graphic_system if args.graphic else cographic_system
    kind = "graphic" if args.graphic else "cographic"
    return _derived(args, derive(g), [f"{kind} system"] + note,
                    derivation=kind, stabilized=bool(args.stabilize))


def _cmd_catalog(args):
    lines = []
    for e in entries():
        if not e.takes_param:
            param = "-"
        elif e.default_param is None:
            param = "param (required)"
        else:
            param = f"param (default {e.default_param})"
        lines.append(f"{e.name:<18} {e.kind:<7} {param:<19} {e.description}")
    keys = ("name", "kind", "takes_param", "default_param", "description")
    return lines, {"entries": Records(entries(), [(k, attrgetter(k))
                                                  for k in keys])}


# ---------------------------------------------------------------------------
# command table / entry point

# name: (handler, help line, positionals, flags, value options).  Every
# command also takes --json; "--a|--b" is a pair of flags of which exactly
# one must be given; a value option is "NAMES METAVAR", with "/" between
# the names of one option.  The table drives parsing, help and dispatch;
# run loads each positional (edges: a graph, else a system) and calls
# handler(args, *objects).
_COMMANDS = {
    "check": (_cmd_check, "verify a matrix and print its standard form",
              ("src",), (), ()),
    "complexity": (_cmd_complexity, "number of bases via the Gram determinant",
                   ("src",), ("--enumerate",), ("--cap N",)),
    "dual": (_cmd_dual, "emit the Gale dual", ("src",), (), ("-o/--output FILE",)),
    "decompose": (_cmd_decompose, "split off unit summands", ("src",), (), ()),
    "isomorphic": (_cmd_isomorphic, "search for a signed row correspondence",
                   ("a", "b"), (), ("--cap N",)),
    "aut": (_cmd_aut, "count signed self-correspondences", ("src",), (), ("--cap N",)),
    "lattice": (_cmd_lattice, "Gram matrix, discriminant, short-vector census",
                ("src",), (), ("--cap N",)),
    "polytope": (_cmd_polytope, "full polytope report (census, facets, verdicts)",
                 ("src",), (), ("--cap N",)),
    "graph": (_cmd_graph, "derive the cycle- or cut-space system of a graph",
              ("edges",), ("--graphic|--cographic", "--stabilize"),
              ("-o/--output FILE",)),
    "catalog": (_cmd_catalog, "list built-in systems and graphs", (), (), ()),
}

_ARG_HELP = {  # by destination
    "src": "matrix file or catalog: reference",
    "edges": "edge-list file or catalog: graph reference",
    "json": "emit a single JSON document",
    "enumerate": "also enumerate bases and report agreement",
    "graphic": "edges acting on the cycle space",
    "cographic": "edges acting on the cut space",
    "stabilize": "delete loops and contract bridges first",
    "cap": f"work budget: most points, bases or search nodes (default {DEFAULT_CAP})",
    "output": "write the system to FILE",
}


def _is_value(word):
    return word[:1] != "-" or word == "-" or word[1:2].isdigit()  # -1 is a value


def _usage(name):
    if name is None:
        return "unimod [-h] {" + ",".join(_COMMANDS) + "} ..."
    _, _, positionals, flags, values = _COMMANDS[name]
    words = [f"({f.replace('|', ' | ')})" if "|" in f else f"[{f}]"
             for f in ("--json", *flags)]
    words += [f"[{names.split('/')[0]} {m}]" for names, m in map(str.split, values)]
    return " ".join(["unimod", name, "[-h]", *words, *positionals])


def _fail(name, message):
    """A usage error, worded as argparse words it: exit 2."""
    prog = "unimod" if name is None else f"unimod {name}"
    sys.stderr.write(f"usage: {_usage(name)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _help(name):
    """Print the help of the program or of one command, then exit 0."""
    if name is None:
        about = "Exact tools for unimodular systems of linear forms."
        rows = {k: v[1] for k, v in _COMMANDS.items()}
    else:
        _, about, positionals, flags, values = _COMMANDS[name]
        rows = {p: _ARG_HELP.get(p, _ARG_HELP["src"]) for p in positionals}
        rows["-h, --help"] = "show this help message and exit"
        rows.update((g, _ARG_HELP[g[2:]]) for f in ("--json", *flags)
                    for g in f.split("|"))
        rows.update((", ".join(f"{g} {m}" for g in names.split("/")),
                     _ARG_HELP[names.rpartition("-")[2]])
                    for names, m in map(str.split, values))
    width = max(map(len, rows))
    print(f"usage: {_usage(name)}\n\n{about}\n")
    print("\n".join(f"  {k:<{width}}  {v}" for k, v in rows.items()))
    raise SystemExit(0)


def _parse(argv):
    """The command's handler, its positionals and its parsed arguments (an
    option's value is the next word or follows "="; "--" ends the options;
    options are matched whole, never by prefix)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        _help(None)
    if name not in _COMMANDS:
        _fail(None, "the following arguments are required: command"
              if name is None else f"argument command: invalid choice: {name!r}"
              f" (choose from {', '.join(map(repr, _COMMANDS))})")
    handler, _, positionals, flags, values = _COMMANDS[name]
    # option string -> (destination, names, metavar or None for a flag)
    options = {g: (g[2:], f, None) for f in ("--json", *flags)
               for g in f.split("|")}
    for names, metavar in map(str.split, values):
        dest = names.rpartition("-")[2]
        options.update(dict.fromkeys(names.split("/"), (dest, names, metavar)))
    args = SimpleNamespace(command=name, **{
        d: None if m else False for d, _, m in options.values()})
    words = argv[1:]
    cut = words.index("--") if "--" in words else len(words)
    tokens, pos, extra = iter(words[:cut]), [], []
    for tok in tokens:
        if _is_value(tok):
            pos.append(tok)
            continue
        if tok in ("-h", "--help"):
            _help(name)
        opt, eq, val = tok.partition("=")
        if opt not in options and tok[1] != "-" and tok[:2] in options:
            opt, eq, val = tok[:2], "=", tok[2:]  # -oFILE
        if opt not in options:
            extra.append(tok)
            continue
        dest, names, metavar = options[opt]
        if metavar is None:
            if eq:
                _fail(name, f"argument {opt}: ignored explicit argument {val!r}")
            for other in names.split("|"):
                if other != opt and getattr(args, other[2:]):
                    _fail(name, f"argument {opt}: not allowed with argument {other}")
            setattr(args, dest, True)
            continue
        if not eq:
            val = next(tokens, None)
            if val is None or not _is_value(val):
                _fail(name, f"argument {names}: expected one argument")
        if dest == "cap":
            try:
                val = _int(val)  # plain ASCII decimal, as in matrix files
            except ValueError:
                _fail(name, f"argument --cap: invalid int value: {val!r}")
            if val < 0:
                _fail(name, f"argument --cap: cap must be nonnegative: {val}")
        setattr(args, dest, val)
    pos += words[cut + 1:]
    if len(pos) < len(positionals):
        _fail(name, "the following arguments are required: "
              + ", ".join(positionals[len(pos):]))
    for f in flags:
        if "|" in f and not any(getattr(args, g[2:]) for g in f.split("|")):
            _fail(name, f"one of the arguments {f.replace('|', ' ')} is required")
    if extra or len(pos) > len(positionals):
        _fail(name, "unrecognized arguments: "
              + " ".join(extra + pos[len(positionals):]))
    args.__dict__.update(zip(positionals, pos))
    return handler, positionals, args


def run(argv=None):
    handler, positionals, args = _parse(argv)
    t0 = time.perf_counter()
    # (source, digest) per positional; a digest stays None until read
    inputs = [(getattr(args, p), None) for p in positionals]
    try:
        objects = []
        for i, p in enumerate(positionals):
            src = inputs[i][0]
            digest, build = _load(src, "graph" if p == "edges" else "system")
            inputs[i] = (src, digest)
            objects.append(build())
        lines, doc = handler(args, *objects)
    except Exception as exc:  # mapped to exit codes below
        elapsed = round((time.perf_counter() - t0) * 1000, 1)
        error = {"kind": type(exc).__name__, "message": str(exc)}
        witness = exc.witness() if hasattr(exc, "witness") else None
        if witness:
            error["witness"] = witness
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
