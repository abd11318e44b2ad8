"""Span tracing around the public functions of each unimod module.

``install`` wraps every public function a module defines, and puts the
wrapper both on that module and on every other unimod module that imported
the function by name, so calls between modules are traced too.  Private
helpers stay unwrapped: their time is part of their caller's self time.

Spans stay in memory.  ``summary`` turns them into per-function call counts,
self time (duration minus the time covered by child spans) and total time
(outermost spans only, so recursion is not counted twice), plus the useful
work ratios; ``write`` dumps the raw spans at the end of the pass.
"""

import importlib
import sys
from time import perf_counter_ns

MODULES = ("intlinalg", "systems", "graphs", "lattice", "catalog", "fileio",
           "cli")

# A leaf called about a million times per polytope pass from the cube scan's
# inner loop: wrapping it doubled the traced pass and its spans filled 60 MB,
# so, like a private helper, it is left to its callers' self time.
UNTRACED = {"intlinalg.dot"}

# Functions whose result is recorded, reduced to one integer.
_RESULT = {"systems.enumerate_bases": len, "lattice.vertex_test": int}

# span fields
_NAME, _PARENT, _CALL, _START, _END, _RES = range(6)


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.call_id = 0  # index of the CLI call the spans belong to

    def wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        reduce = _RESULT.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [fid, stack[-1] if stack else -1, self.call_id, 0, 0, -1]
            stack.append(len(spans))
            spans.append(span)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = perf_counter_ns()
                span[_START] = start
                stack.pop()
            if reduce is not None:
                span[_RES] = reduce(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def summary(self, scale):
        """{name: {calls, self_s, total_s}} plus the useful-work ratios.

        Times are in reference seconds: scale[k] converts the nanoseconds of
        CLI call k (see calibrate.py)."""
        spans, names = self.spans, self.names
        child = [0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]
        out = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for n in names}
        det_under_enum = 0
        for i, s in enumerate(spans):
            name = names[s[_NAME]]
            dur = s[_END] - s[_START]
            factor = scale[s[_CALL]] / 1e9
            st = out[name]
            st["calls"] += 1
            st["self_s"] += (dur - child[i]) * factor
            p = s[_PARENT]
            while p >= 0 and spans[p][_NAME] != s[_NAME]:
                p = spans[p][_PARENT]
            if p < 0:
                st["total_s"] += dur * factor
            if (name == "intlinalg.determinant" and s[_PARENT] >= 0
                    and names[spans[s[_PARENT]][_NAME]] == "systems.enumerate_bases"):
                det_under_enum += 1
        for name in _RESULT:
            out[name]["useful"] = sum(
                s[_RES] for s in spans if names[s[_NAME]] == name)
        enum, vt = out["systems.enumerate_bases"], out["lattice.vertex_test"]
        enum["useful_ratio"] = enum["useful"] / det_under_enum if det_under_enum else 0.0
        vt["useful_ratio"] = vt["useful"] / vt["calls"] if vt["calls"] else 0.0
        return out

    def write(self, path):
        """Raw spans, one per line: call, span, parent, name, start, end (ns)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("call\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{s[_CALL]}\t{i}\t{s[_PARENT]}\t{self.names[s[_NAME]]}"
                         f"\t{s[_START]}\t{s[_END]}\n")


def install(tracer):
    """Wrap the public functions of every unimod module (already imported)."""
    wrapped = {}
    for short in MODULES:
        mod = importlib.import_module("unimod." + short)
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and callable(obj)
                    and f"{short}.{attr}" not in UNTRACED
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    for name, mod in list(sys.modules.items()):
        if name == "unimod" or name.startswith("unimod."):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
