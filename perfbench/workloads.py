"""Seeded inputs and call plans for the three workloads.

Everything here runs in untimed set-up.  A plan is a list of calls; each
call is the argv given to ``unimod.cli.run`` plus what its output must
contain.  Expected values come from the benchmark's own exact arithmetic
(``exact``) or from the pinned counts of the original system (``pins.json``).

The program only ever receives ``catalog:`` references and files written
here: edge lists, and matrices as text or JSON.
"""

import json
import os
import random

import exact

with open(os.path.join(os.path.dirname(__file__), "pins.json"),
          encoding="utf-8") as _fh:
    PINS = json.load(_fh)

# Row data of the catalog systems, as the catalog defines them.
_BIXBY_SEYMOUR_RAW = [
    [1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1],
    [1, 0, 0, 0, 1], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1],
    [1, 0, 0, 1, 0], [0, 1, 0, 0, 1],
]
_BIXBY_SEYMOUR = [
    [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1], [0, 0, 1, -1, 1], [1, 0, 0, 1, -1], [-1, 1, 0, 0, 1],
    [1, -1, 1, 0, 0], [0, 1, -1, 1, 0],
]


def catalog_rows(ref):
    """Rows of a catalog system reference such as 'sigma:4'."""
    name, _, param = ref.partition(":")
    if name == "upsilon":
        m = int(param)
        return [[int(i == j) for j in range(m)] for i in range(m)]
    if name == "sigma":
        return [[1]] * int(param)
    return {"pair2": [[1, 0], [0, 1]],
            "triangle3": [[1, 0], [0, 1], [1, 1]],
            "bixby_seymour_raw": _BIXBY_SEYMOUR_RAW,
            "bixby_seymour": _BIXBY_SEYMOUR}[name]


def catalog_graph(ref):
    """(vertex count, edges) of a catalog graph reference such as 'cycle:5'."""
    name, _, param = ref.partition(":")
    n = int(param)
    if name == "complete":
        return n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if name == "theta":
        return 2, [(1, 2)] * n
    if name == "cycle":
        return n, [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    raise ValueError(ref)


def derived_rows(key):
    """Rows and edge labels of 'graphic(<graph>)' or 'cographic(<graph>)'."""
    kind, _, ref = key.rstrip(")").partition("(")
    vc, edges = catalog_graph(ref)
    derive = exact.graphic_rows if kind == "graphic" else exact.cographic_rows
    return derive(vc, edges), [f"e{k + 1}" for k in range(len(edges))]


# The acceptance gate's catalog sweep: every system with N <= 12.
SWEEP = ([f"upsilon:{k}" for k in (1, 2, 3)]
         + [f"sigma:{n}" for n in range(1, 9)]
         + ["pair2", "triangle3", "bixby_seymour_raw", "bixby_seymour"]
         + [f"{kind}({g})"
            for g in ([f"theta:{n}" for n in range(2, 7)]
                      + [f"cycle:{n}" for n in range(3, 7)]
                      + ["complete:4", "complete:5"])
            for kind in ("graphic", "cographic")])


# ---------------------------------------------------------------------------
# seeded generators


def random_multigraph(rng, vc, ec):
    """Connected, bridgeless, loopless multigraph with vc vertices, ec edges.

    A Hamiltonian cycle on a shuffled vertex order makes it 2-edge-connected,
    so every graph of one shape derives a system of the same size and the
    certification cost does not depend on the seed.
    """
    order = list(range(1, vc + 1))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % vc]) for i in range(vc)]
    while len(edges) < ec:
        t, h = rng.sample(range(1, vc + 1), 2)
        edges.append((t, h))
    edges = [(h, t) if rng.random() < 0.5 else (t, h) for t, h in edges]
    rng.shuffle(edges)
    return edges


def unimodular_base_change(rng, n):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        u[i] = [x + s * y for x, y in zip(u[i], u[j])]
    return u


def _flip(rng, row):
    return [-x for x in row] if rng.random() < 0.5 else row


def scramble(rng, rows, labels=None):
    """Row permutation, sign flips and a unimodular base change of a system."""
    perm = list(range(len(rows)))
    while len(perm) > 1 and perm == sorted(perm):
        rng.shuffle(perm)
    u = unimodular_base_change(rng, len(rows[0]))
    out = [_flip(rng, r) for r in exact.matmul([rows[p] for p in perm], u)]
    return out, ([labels[p] for p in perm] if labels else None)


def non_unimodular(rng, n=4, tail=4):
    """A non-unimodular matrix whose rows expand integrally over their first
    base, so the program must reject it with a minor witness."""
    while True:
        t = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(tail)]
        std = [[int(i == j) for j in range(n)] for i in range(n)] + t
        if all(any(r) for r in t) and exact.first_bad_minor(std):
            break
    base, rest = std[:n], std[n:]
    rng.shuffle(rest)
    u = unimodular_base_change(rng, n)
    return [_flip(rng, r) for r in exact.matmul(base + rest, u)]


# ---------------------------------------------------------------------------
# files


class Inputs:
    """Writes generated inputs into one directory, under unique names."""

    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, name):
        return os.path.join(self.directory, name)

    def matrix(self, name, rows, labels=None, as_json=False):
        path = self._path(name + (".json" if as_json else ".txt"))
        with open(path, "w", encoding="utf-8") as fh:
            if as_json:
                doc = {"rows": rows}
                if labels:
                    doc["labels"] = labels
                json.dump(doc, fh)
            else:
                fh.write(f"{len(rows)} {len(rows[0])}\n")
                fh.writelines(" ".join(map(str, r)) + "\n" for r in rows)
                if labels:
                    fh.write("# labels: " + " ".join(labels) + "\n")
        return path

    def edges(self, name, vc, edges):
        path = self._path(name + ".edges")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{vc} {len(edges)}\n")
            fh.writelines(f"{t} {h}\n" for t, h in edges)
        return path


def slug(key):
    return "".join(c if c.isalnum() else "_" for c in key).strip("_")


# ---------------------------------------------------------------------------
# calls: argv plus expectations (see checks.py for how each kind is checked)


def system_facts(rows):
    base, std = exact.standard_form(rows)
    return {"base_rows": base, "std": std, "complexity": exact.gram_det(std)}


def call(kind, argv, **expect):
    return {"kind": kind, "argv": argv, "expect": expect}


def graph_call(src, vc, edges, kind, as_json=False):
    n = len(edges) - vc + 1 if kind == "graphic" else vc - 1
    argv = ["graph", src, "--" + kind] + (["--json"] if as_json else [])
    return call("graph", argv, N=len(edges), n=n,
                complexity=exact.kirchhoff(vc, edges))


def check_call(src, rows, as_json=False):
    facts = system_facts(rows)
    return call("check", ["check", src] + (["--json"] if as_json else []),
                raw=rows, base_rows=facts["base_rows"],
                complexity=facts["complexity"])


def dual_call(src, rows, labels=None):
    facts = system_facts(rows)
    return call("dual", ["dual", "--json", src], raw=rows, labels=labels,
                n=len(rows) - len(rows[0]), complexity=facts["complexity"])


def reject_call(src, rows):
    _, std = exact.expand(rows)
    return call("reject", ["check", "--json", src],
                witness=exact.first_bad_minor([[int(x) for x in r] for r in std]))


def polytope_call(src, key, rows, as_json=True):
    return call("polytope", ["polytope"] + (["--json"] if as_json else []) + [src],
                complexity=system_facts(rows)["complexity"], **PINS[key])


def lattice_call(src, key, rows):
    facts = system_facts(rows)
    std = facts["std"]
    return call("lattice", ["lattice", src], complexity=facts["complexity"],
                gram=exact.matmul(exact.transpose(std), std), **PINS[key])


# ---------------------------------------------------------------------------
# plans


def build_plan(workload, seed, directory):
    """The call list of one workload for one seed, with its input files."""
    rng = random.Random(f"{workload}:{seed}")
    files = Inputs(directory)
    return {"construct": _construct, "polytope": _polytope,
            "sweep": _sweep}[workload](rng, files)


def _construct(rng, files):
    calls = [graph_call("catalog:complete:7", *catalog_graph("complete:7"),
                        "cographic"),
             graph_call("catalog:complete:5", *catalog_graph("complete:5"),
                        "graphic"),
             graph_call("catalog:complete:6", *catalog_graph("complete:6"),
                        "cographic", as_json=True)]
    shapes = [(6, 11, "graphic", True), (6, 11, "graphic", False),
              (7, 12, "cographic", False), (7, 12, "cographic", True)]
    for k, (vc, ec, kind, as_json) in enumerate(shapes):
        edges = random_multigraph(rng, vc, ec)
        calls.append(graph_call(files.edges(f"multigraph{k}", vc, edges),
                                vc, edges, kind, as_json))
    for k, key in enumerate(["bixby_seymour", "graphic(complete:5)",
                             "cographic(complete:5)", "cographic(cycle:6)"]):
        rows = catalog_rows(key) if "(" not in key else derived_rows(key)[0]
        rows, _ = scramble(rng, rows)
        as_json = k % 2 == 1
        path = files.matrix(f"scrambled_{slug(key)}", rows, as_json=as_json)
        calls.append(check_call(path, rows, as_json))
    calls.append(dual_call("catalog:bixby_seymour", _BIXBY_SEYMOUR))
    calls.append(dual_call("catalog:triangle3", catalog_rows("triangle3")))
    rows, labels = derived_rows("cographic(complete:5)")
    calls.append(dual_call(files.matrix("cographic_complete_5", rows, labels),
                           rows, labels))
    rows = non_unimodular(rng)
    calls.append(reject_call(files.matrix("non_unimodular", rows), rows))
    return calls


def _polytope(rng, files):
    calls = [polytope_call("catalog:bixby_seymour", "bixby_seymour",
                           _BIXBY_SEYMOUR)]
    for key in ("graphic(complete:5)", "cographic(complete:6)"):
        rows, labels = derived_rows(key)
        calls.append(polytope_call(files.matrix(slug(key), rows, labels),
                                   key, rows))
    rows, labels = scramble(rng, *derived_rows("graphic(complete:5)"))
    path = files.matrix("scrambled_graphic_complete_5", rows, labels,
                        as_json=True)
    calls.append(polytope_call(path, "graphic(complete:5)", rows))
    calls.append(polytope_call("catalog:sigma:16", "sigma:16",
                               catalog_rows("sigma:16")))
    calls.append(lattice_call("catalog:bixby_seymour_raw", "bixby_seymour_raw",
                              _BIXBY_SEYMOUR_RAW))
    return calls


def _sweep(rng, files):
    calls = []
    for k, key in enumerate(SWEEP):
        if "(" in key:
            rows, labels = derived_rows(key)
            src = files.matrix(slug(key), rows, labels)
        else:
            rows, labels = catalog_rows(key), None
            src = "catalog:" + key
        srows, slabels = scramble(rng, rows, labels)
        scrambled = files.matrix("scrambled_" + slug(key), srows, slabels,
                                 as_json=k % 2 == 1)
        facts = system_facts(rows)
        pins = PINS[key]
        calls += [
            check_call(src, rows),
            call("complexity", ["complexity", "--enumerate", src],
                 complexity=facts["complexity"]),
            dual_call(src, rows, labels),
            call("decompose", ["decompose", src], summands=pins["summands"]),
            call("aut", ["aut", src], aut=pins["aut"]),
            call("isomorphic", ["isomorphic", "--json", src, scrambled],
                 std_a=facts["std"], std_b=system_facts(srows)["std"]),
            lattice_call(src, key, rows),
            polytope_call(src, key, rows, as_json=False),
            polytope_call(src, key, rows),
        ]
    return calls
