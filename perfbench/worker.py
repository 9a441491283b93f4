"""Run one job of the benchmark in a fresh process and print its result.

Usage: python3 perfbench/worker.py JOB.json

The job names the workload, the operations and whether to trace.  The
process starts cold, so no cache of the program holds anything from an
earlier job.  It prints one JSON line: per operation its name, wall time,
the range of probe samples taken while it ran, checked output and error;
the reference times the probe thread measured; the process's peak RSS;
and, when traced, the per-layer metrics (the spans go to the job's
``spans_path``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import threading
import traceback
from fractions import Fraction
from time import perf_counter

# A bound far above the largest closure in the object set (24 objects).
MAX_OBJECTS = 1000


def _search(cryarr, op):
    result = cryarr.search.enumerate_rank3(op["cap"])
    output = {"verdict": result.verdict,
              "canonical_forms": [f.decode("utf-8") for f in result.canonical_forms]}
    return output, {"search.states": result.states_visited, "search.emitted": result.emitted}


def _verify(cryarr, op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cryarr.cli.main(["verify", op["path"]])
    report = json.loads(out.getvalue())
    output = {
        "exit": code,
        "crystallographic": report.get("crystallographic"),
        "reason": report.get("reason"),
        "chambers": report.get("chambers"),
        "checks": [[c["check"], c["verdict"]] for c in report.get("checks", [])],
        "canonical_form": report.get("canonical_form"),
    }
    return output, {}


def _closure(cryarr, op):
    base = cryarr.groupoid.make_root_object(op["rank"], op["roots"])
    graph = cryarr.groupoid.traverse(base, max_objects=MAX_OBJECTS)
    reports = cryarr.verifier.run_all(graph)
    form = cryarr.groupoid.canonical_form(graph)
    return {"all_ok": cryarr.verifier.all_ok(reports),
            "canonical_form": form.decode("utf-8")}, {}


OPERATIONS = {"search": _search, "verify": _verify, "closure": _closure}


# A reference sample takes about 1.5 ms, well inside the interpreter's 5 ms
# switch interval, so the main thread does not interrupt it; one every
# 100 ms adds about 1.5% to the operations' time.
PROBE_INTERVAL_S = 0.1
PROBE_ITERATIONS = 300


def reference_seconds():
    """Wall time of a fixed computation that does not touch the program:
    exact fractions and small-tuple hashing, the kind of work cryarr does."""
    start = perf_counter()
    total = Fraction(0)
    seen = {}
    for i in range(1, PROBE_ITERATIONS):
        v = (i % 7, i % 11, i % 13)
        seen[v] = seen.get(v, 0) + 1
        total += Fraction(i % 5 + 1, i % 97 + 1)
    return perf_counter() - start


class SpeedProbe(threading.Thread):
    """Times the reference computation every PROBE_INTERVAL_S while the
    operations run, so the samples show how fast the shared machine ran
    over the whole job, evenly in time."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []
        self._done = threading.Event()

    def run(self):
        while not self._done.wait(PROBE_INTERVAL_S):
            self.samples.append(reference_seconds())

    def stop(self):
        self._done.set()
        self.join(timeout=10)


def run_ops(cryarr, job, tracer):
    results = []
    counters = {}
    probe = SpeedProbe()
    probe.start()
    try:
        for index, op in enumerate(job["ops"]):
            if tracer is not None:
                tracer.op = index
            first_sample = len(probe.samples)
            start = perf_counter()
            try:
                output, op_counters = OPERATIONS[job["workload"]](cryarr, op)
                error = None
            except Exception:  # one failing operation must not stop the others
                output, op_counters = None, {}
                error = traceback.format_exc(limit=-3)
            results.append({"name": op["name"], "seconds": perf_counter() - start,
                            "samples": [first_sample, len(probe.samples)],
                            "output": output, "error": error})
            for key, value in op_counters.items():
                counters[key] = counters.get(key, 0) + value
    finally:
        probe.stop()
    # a job shorter than one interval still gets a sample
    return results, counters, probe.samples or [reference_seconds()]


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import cryarr
    import cryarr.catalog
    import cryarr.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(cryarr.__file__))) != job["src"]:
        raise SystemExit(f"cryarr imported from {cryarr.__file__}, not from {job['src']}")
    tracer = None
    with contextlib.ExitStack() as stack:
        if job["trace"]:
            from tracing import Tracer
            tracer = stack.enter_context(Tracer())
        # catalog construction is part of the set-up every process pays
        cryarr.catalog.entries()
        ops, counters, reference = run_ops(cryarr, job, tracer)
    result = {"ops": ops, "reference_s": reference,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["metrics"] = {**tracer.metrics(), **counters}
        tracer.write_spans(job["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
