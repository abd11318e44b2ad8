"""Benchmark of the unimod command line: workloads construct, polytope, sweep.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from its
``src/``.  Set-up (untimed): byte-compile the package, write the seeded
inputs and the call plan, and time fresh interpreters importing
``unimod.cli`` (``setup_s``).  Then passes run one after another, each in a
fresh worker interpreter, until ``--seconds`` is used up; every call's
output is checked.  Metrics are medians over passes.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
traced and untraced passes alternate and the per-layer metrics are
reported, with the import-time breakdown and the tracing overhead.  Human
readable lines come first; the last line of standard output is one JSON
object.  Inputs and spans are written under ``.bench_build/perfbench``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("construct", "polytope", "sweep")
SETUP_SAMPLES = 15
IMPORT_SAMPLES = 5
PASS_TIMEOUT_S = 120

# Per-layer metrics reported in the JSON line of a traced run.  Times are
# listed only for functions that every workload calls, so that none reads 0
# by construction; call counts are listed for every function named in
# NOTES.md.  The human-readable table shows every wrapped function.
TIMED = ("cli.run", "fileio.parse_matrix_text", "fileio.render_matrix_text",
         "systems.from_matrix", "intlinalg.determinant",
         "intlinalg.adjugate", "intlinalg.vecmat", "intlinalg.hermite_form")
COUNTED = ("systems.from_matrix", "systems.gale_dual", "graphs.graphic_system",
           "graphs.cographic_system", "intlinalg.adjugate",
           "intlinalg.determinant", "intlinalg.vecmat", "intlinalg.matvec",
           "intlinalg.hermite_form", "systems.enumerate_bases",
           "lattice.build_polytope_report", "lattice.polytope_points",
           "lattice.vertex_test", "lattice.zonotope_check", "lattice.facets",
           "lattice.short_vector_census", "systems.automorphism_count",
           "systems.are_isomorphic", "systems.form_pairing_matrix",
           "fileio.parse_matrix_text", "catalog.make")
RATIOS = ("systems.enumerate_bases", "lattice.vertex_test")
IMPORTED = ("unimod", "unimod.errors", "unimod.intlinalg", "unimod.systems",
            "unimod.graphs", "unimod.catalog", "unimod.fileio",
            "unimod.lattice", "unimod.cli")
# Cumulative import times: the whole of `import unimod.cli`, and lattice
# with the multiprocessing import it pulls in.
IMPORTED_CUM = ("unimod.lattice", "unimod.cli")


def child_env():
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def python(args, **kwargs):
    """Run the interpreter on args, waiting for it (killed on timeout)."""
    return subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(),
                          timeout=PASS_TIMEOUT_S, **kwargs)


def build():
    """Byte-compile the package, so imports use the cache as users have it."""
    python(["-m", "compileall", "-q", os.path.join(SRC, "unimod")], check=True,
           stdout=subprocess.DEVNULL)


def setup_samples(count):
    """Reference seconds from starting an interpreter until `import
    unimod.cli` returns; the child times the calibration kernel just after."""
    code = ("import unimod.cli, sys; sys.stdout.write('1'); sys.stdout.flush();"
            f" sys.path.insert(0, {HERE!r}); import calibrate;"
            " print(calibrate.kernel_seconds())")
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE) as proc:
            ready = proc.stdout.read(1)
            elapsed = time.perf_counter() - t0
            kernel = proc.stdout.read()
            proc.wait(timeout=PASS_TIMEOUT_S)
        if ready != b"1" or proc.returncode != 0:
            raise RuntimeError("importing unimod.cli failed")
        out.append(elapsed * calibrate.REFERENCE_S / float(kernel))
    return out


def import_breakdown(count):
    """Median import times (ms) of the unimod modules, via -X importtime:
    {"<module>_ms": self time, "<module>_cum_ms": cumulative time}."""
    samples = {}
    for _ in range(count):
        proc = python(["-X", "importtime", "-c", "import unimod.cli"],
                      check=True, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3 or not parts[1].isdigit():  # header line
                continue
            self_us, cum_us, mod = int(parts[0].split()[-1]), int(parts[1]), parts[2]
            if mod in IMPORTED:
                samples.setdefault(f"{mod}_ms", []).append(self_us / 1000)
            if mod in IMPORTED_CUM:
                samples.setdefault(f"{mod}_cum_ms", []).append(cum_us / 1000)
    return {k: statistics.median(v) for k, v in samples.items()}


def run_pass(plan_path, index, trace):
    """One worker pass: its result dict, plus the wall time of the process."""
    result_path = os.path.join(os.path.dirname(plan_path), f"result{index}.json")
    args = [os.path.join(HERE, "worker.py"), plan_path, result_path]
    if trace:
        args.append(os.path.join(WORK, os.path.basename(
            os.path.dirname(plan_path)) + "-spans.tsv"))
    t0 = time.perf_counter()
    proc = python(args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                  text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"worker pass failed:\n{proc.stderr}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), elapsed


def prepare(workload, seed):
    """Write the inputs and call plan of one workload; returns the plan path."""
    directory = os.path.join(WORK, f"{workload}-{seed}")
    shutil.rmtree(directory, ignore_errors=True)
    calls = workloads.build_plan(workload, seed, os.path.relpath(directory, ROOT))
    path = os.path.join(directory, "plan.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "calls": calls}, fh)
    return path


def measure(workload, seed, seconds, trace):
    """All passes of one run.  Returns (per-pass results, traced results)."""
    plan_path = prepare(workload, seed)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        tracing = trace and len(traced) < len(plain)
        result, elapsed = run_pass(plan_path, len(plain) + len(traced), tracing)
        (traced if tracing else plain).append(result)
        done = time.perf_counter() - start
        enough = len(plain) >= 2 and (not trace or len(traced) >= 2)
        if enough and done + elapsed > seconds:
            break
    shutil.rmtree(os.path.dirname(plan_path), ignore_errors=True)
    return plain, traced


def calibrated(result):
    """Call times of a pass in reference seconds (see calibrate.py)."""
    return [t * calibrate.REFERENCE_S / k
            for t, k in zip(result["times"], result["kernels"])]


def end_to_end(workload, plain, setup):
    times = [calibrated(r) for r in plain]
    walls = [sum(t) for t in times]
    p50s = [statistics.median(t) * 1000 for t in times]
    rss = [r["peak_rss_mb"] for r in plain]
    raw = statistics.median(sum(r["times"]) for r in plain)
    print(f"{workload} uncalibrated wall_s {raw:.6g} s (n={len(plain)})")
    return {"setup_s": (statistics.median(setup), "s", len(setup)),
            "wall_s": (statistics.median(walls), "s", len(walls)),
            "call_p50_ms": (statistics.median(p50s), "ms", len(p50s)),
            "peak_rss_mb": (statistics.median(rss), "MB", len(rss))}


def per_layer(plain, traced, imports):
    """Per-layer metrics, and the traced passes' summaries."""
    funcs = [r["functions"] for r in traced]
    counts = {k: v["calls"] for k, v in funcs[0].items()}
    n = len(funcs)

    def med(name, stat):
        return statistics.median(f[name][stat] for f in funcs)

    out = {}
    for name in TIMED:
        out[f"{name}.self_s"] = (med(name, "self_s"), "s", n)
    for name in COUNTED:
        out[f"{name}.calls"] = (counts[name], "count", n)
    for name in RATIOS:
        out[f"{name}.useful_ratio"] = (funcs[0][name]["useful_ratio"], "ratio", n)
    for name in ("systems.from_matrix", "catalog.make"):
        out[f"{name}.total_s"] = (med(name, "total_s"), "s", n)
    for key, ms in imports.items():
        out[f"import.{key}"] = (ms, "ms", IMPORT_SAMPLES)
    overhead = (statistics.median(sum(calibrated(r)) for r in traced)
                - statistics.median(sum(calibrated(r)) for r in plain))
    out["trace.overhead_s"] = (overhead, "s", n)
    return out, funcs


def function_table(funcs):
    """Every traced function that ran: calls, median self and total time."""
    lines = [f"  {'function':<34} {'calls':>8} {'self_s':>10} {'total_s':>10}"]
    for name in sorted(funcs[0], key=lambda k: -funcs[0][k]["self_s"]):
        if funcs[0][name]["calls"]:
            self_s = statistics.median(f[name]["self_s"] for f in funcs)
            total_s = statistics.median(f[name]["total_s"] for f in funcs)
            lines.append(f"  {name:<34} {funcs[0][name]['calls']:>8}"
                         f" {self_s:>10.4f} {total_s:>10.4f}")
    return lines


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; print its report lines, return its JSON parts."""
    plain, traced = measure(workload, seed, seconds, trace)
    attempted = sum(len(r["times"]) for r in plain + traced)
    failures = [f for r in plain + traced for f in r["failed"]]
    for k, argv, reason in failures[:10]:
        print(f"{workload} FAILED call {k} ({argv}): {reason}")
    print(f"{workload} failed_frac {len(failures) / attempted:.6g}"
          f" ({len(failures)}/{attempted} calls, {len(plain) + len(traced)} passes)")
    correct = not failures
    if trace:
        metrics, funcs = per_layer(plain, traced, import_breakdown(IMPORT_SAMPLES))
        print(f"{workload} traced functions (median over {len(funcs)} passes):")
        print("\n".join(function_table(funcs)))
        counts = [{k: v["calls"] for k, v in f.items()} for f in funcs]
        if any(c != counts[0] for c in counts):
            print(f"{workload} FAILED: call counts differ between traced passes")
            correct = False
    else:
        metrics = end_to_end(workload, plain, setup_samples(SETUP_SAMPLES))
    for name, (value, unit, n) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit} (n={n})")
    return (correct, attempted, len(failures),
            {name: {"value": value, "unit": unit}
             for name, (value, unit, _) in metrics.items()})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "unimod", "cli.py")):
        print(f"no unimod package under {SRC}", file=sys.stderr)
        return 2
    build()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, att, fail, mets = run_workload(name, args.seed, args.seconds,
                                           bool(args.trace))
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: v for k, v in mets.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
