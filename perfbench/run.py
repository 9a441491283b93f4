"""The cryarr benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {search,verify,closure,all} \
        --seed N --seconds S --trace {0,1}

Each workload is a single-process closed loop: one client sends one
operation at a time and waits for its answer.  Every job runs in a fresh
worker process, so each starts with the program's caches empty, as a
command-line user does:

* ``search``: ``enumerate_rank3(7)``, one call per process;
* ``verify``: one pass of the document set through ``cryarr verify``
  (``cli.main(["verify", path])``, stdout captured), one pass per process;
* ``closure``: one pass of ``make_root_object``, ``traverse``, ``run_all``
  and ``canonical_form`` over the object set, one pass per process.

Every pass gets a fresh seeded presentation of its inputs (see
``inputs.py``).  Each operation's output is checked against the
expectation pinned in ``expected.json``; an operation fails if it raises
or its output differs.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``: ``answer_ref`` (the time to a correct answer of one job
in reference units, median over jobs; see ``job_ref``), ``setup_s``
(interpreter start to ``import cryarr`` plus catalog construction, median
of several cold starts) and ``peak_rss_mb`` (median over the worker
processes).  With ``--trace 1`` the first half of the time runs untraced,
then one traced job reports the per-layer metrics and
``trace.overhead_frac``.  The last line of stdout is one JSON object; the
lines before it, for people, also give plain wall times and
``failed_frac``.  ``--workload all`` runs the three workloads in turn and
reports them under workload-qualified names.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("search", "verify", "closure")
SEARCH_CAP = 7
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150
SETUP_CODE = ("import cryarr, cryarr.catalog; cryarr.catalog.entries(); "
              "print('ready', flush=True)")
# Ratios computed from the traced counters: (numerator, base).
FRACTIONS = {
    "search.close.pruned_frac": ("search.close.pruned", "search.close.calls"),
    "search.plane_systems_ok.pass_frac": ("search.plane_systems_ok.passed",
                                          "search.plane_systems_ok.calls"),
    "search.verify_candidate.hit_frac": ("search.verify_candidate.hits",
                                         "search.verify_candidate.calls"),
    "groupoid.verify_crystallographic.ok_frac": ("groupoid.verify_crystallographic.ok",
                                                 "groupoid.verify_crystallographic.calls"),
}


class Run:
    """One workload run inside a checkout: its inputs, scratch files and tallies."""

    def __init__(self, root, workload, seed, scratch):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.inputs = (inputs.documents() if workload == "verify"
                       else inputs.objects() if workload == "closure" else [])
        self.attempted = 0
        self.failed = 0

    def job(self, pass_index, trace):
        job = {"workload": self.workload, "trace": trace,
               "src": str(self.root / "src"), "ops": []}
        if self.workload == "search":
            job["ops"].append({"name": f"enumerate_rank3({SEARCH_CAP})", "cap": SEARCH_CAP})
        elif self.workload == "verify":
            for doc in self.inputs:
                path = self.scratch / f"{pass_index}-{doc['name']}.json"
                path.write_text(json.dumps(
                    inputs.present_document(doc, self.seed, pass_index)))
                job["ops"].append({"name": doc["name"], "path": str(path)})
        else:
            for obj in self.inputs:
                shown = inputs.present_object(obj, self.seed, pass_index)
                job["ops"].append({"name": obj["name"], "rank": shown["rank"],
                                   "roots": shown["roots"]})
        if trace:
            job["spans_path"] = str(
                HERE / ".work" / f"spans-{self.workload}-seed{self.seed}.jsonl")
        return job

    def execute(self, job):
        """Run a job in a fresh worker.  Returns the worker's result, or None
        if the worker itself failed, which fails all the job's operations."""
        path = self.scratch / "job.json"
        path.write_text(json.dumps(job))
        self.attempted += len(job["ops"])
        try:
            proc = subprocess.run([sys.executable, str(WORKER), str(path)],
                                  env=self.env, capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S, cwd=self.root)
        except subprocess.TimeoutExpired:
            print(f"worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
            self.failed += len(job["ops"])
            return None
        if proc.returncode != 0:
            print(f"worker failed:\n{proc.stderr[-4000:]}", file=sys.stderr)
            self.failed += len(job["ops"])
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, result, expected):
        """Count the operations that raised or whose output is not the pinned one."""
        for op in result["ops"]:
            if op["error"] is not None:
                print(f"{op['name']} raised:\n{op['error']}", file=sys.stderr)
                self.failed += 1
            elif op["output"] != expected[op["name"]]:
                print(f"{op['name']}: output {op['output']!r} differs from the "
                      f"pinned {expected[op['name']]!r}", file=sys.stderr)
                self.failed += 1

    def setup_seconds(self):
        """Wall time from spawning an interpreter to its set-up being done."""
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=self.env,
                              stdout=subprocess.PIPE, text=True, cwd=self.root) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up of cryarr failed")
        return elapsed


def job_seconds(result):
    return sum(op["seconds"] for op in result["ops"])


def job_ref(result):
    """A job's time to answer in reference units: the sum over its
    operations of each one's wall time over the median reference time that
    the worker's probe thread measured while it ran (the job's median for an
    operation too short to get a sample).  The machine is shared and its
    speed drifts by tens of percent within minutes; the ratio cancels most
    of that."""
    samples = result["reference_s"]
    return sum(op["seconds"] / statistics.median(samples[slice(*op["samples"])] or samples)
               for op in result["ops"])


def run_workload(root, workload, seed, seconds, trace, metric_units, scratch):
    """Run one workload; returns (attempted, failed, metrics, report lines)."""
    run = Run(root, workload, seed, scratch)
    expected = json.loads((HERE / "expected.json").read_text())[workload]
    setups = [run.setup_seconds() for _ in range(SETUP_SAMPLES)]
    untraced, walls = [], []
    budget = seconds / 2 if trace else seconds
    start = time.monotonic()
    # start another job only while half a typical job still fits in the budget
    while not walls or time.monotonic() - start + statistics.median(walls) / 2 < budget:
        began = time.monotonic()
        result = run.execute(run.job(len(walls), trace=False))
        walls.append(time.monotonic() - began)
        if result is not None:
            run.check(result, expected)
            untraced.append(result)
    if not untraced:
        return run.attempted, run.failed, None, [f"{workload}: every worker failed"]
    answer = statistics.median(job_ref(r) for r in untraced)
    ops = len(untraced[0]["ops"])
    values = {"answer_ref": answer, "setup_s": statistics.median(setups),
              "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced)}
    lines = [f"{workload}: seed {seed}, {len(untraced)} untraced jobs of {ops} operations",
             f"  {workload + '_s':<12} {statistics.median(map(job_seconds, untraced)):.4f} s"
             "  (wall time of a job, median over jobs)",
             f"  {'answer_ref':<12} {answer:.4f} ref  (the same in reference units, "
             "median over jobs)",
             f"  {'setup_s':<12} {values['setup_s']:.4f} s  "
             f"(median of {len(setups)} cold starts)",
             f"  {'peak_rss_mb':<12} {values['peak_rss_mb']:.1f} MB  "
             f"(median over {len(untraced)} processes)"]
    if trace:
        job = run.job("trace", trace=True)
        traced = run.execute(job)
        if traced is None:
            return run.attempted, run.failed, None, lines + ["traced worker failed"]
        run.check(traced, expected)
        values = dict(traced["metrics"])
        for name, (part, base) in FRACTIONS.items():
            values[name] = values.get(part, 0) / values[base] if values.get(base) else 0.0
        values["trace.overhead_frac"] = job_ref(traced) / answer - 1
        lines.append(f"  traced job {job_seconds(traced):.4f} s, trace.overhead_frac "
                     f"{values['trace.overhead_frac']:.3f}; spans in {job['spans_path']}")
    lines.append(f"  {'failed_frac':<12} {run.failed / run.attempted} "
                 f"({run.failed} of {run.attempted} operations)")
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in metric_units.items()}
    return run.attempted, run.failed, metrics, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cryarr" / "__init__.py").is_file():
        print(f"no cryarr sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work))
    attempted = failed = 0
    metrics = {}
    try:
        for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
            a, f, m, lines = run_workload(root, workload, args.seed, args.seconds,
                                          bool(args.trace), units, scratch)
            print("\n".join(lines), flush=True)
            attempted += a
            failed += f
            if m is None:
                return 1
            if args.workload == "all":
                m = {f"{workload}:{name}": value for name, value in m.items()}
            metrics.update(m)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
