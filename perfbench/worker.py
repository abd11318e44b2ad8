"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py PLAN RESULT [SPANS]

Runs every call of the plan through ``unimod.cli.run`` in order, timing
each call alone and checking its output after the timer stops.  With SPANS
the public functions are traced and the raw spans are written there.
RESULT receives the raw call times, the mean calibration kernel time of
each call (see calibrate.py), the failed calls, the peak RSS and, when
tracing, the per-function summary.
"""

import contextlib
import io
import json
import resource
import sys

import calibrate
import checks


def main(plan_path, result_path, spans_path=None):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import unimod.cli as cli
    if not cli.__file__.startswith(plan["src"]):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's copy")
    tracer = None
    if spans_path:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    times, kernels, failed = [], [], []
    meter = calibrate.Meter()
    for k, call in enumerate(plan["calls"]):
        out = io.StringIO()
        if tracer:
            tracer.call_id = k
        error = None
        with meter:
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.run(call["argv"])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
            except Exception as exc:  # a crash fails this call, not the pass
                error = f"raised {type(exc).__name__}: {exc}"
        times.append(meter.elapsed)
        kernels.append(meter.kernel)
        if error is None:
            error = checks.check(call, code, out.getvalue())
        if error is not None:
            failed.append([k, " ".join(call["argv"]), error])
    result = {"times": times, "kernels": kernels, "failed": failed,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        result["functions"] = tracer.summary(
            [calibrate.REFERENCE_S / k for k in kernels])
        tracer.write(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
