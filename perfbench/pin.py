"""Pin the outputs that the benchmark checks, from the program as it is.

Run from the root of a checkout, only when an output is meant to change:

    python3 perfbench/pin.py

It runs every operation of every workload once, in the seed-0
presentation, and writes ``perfbench/expected.json``: per workload and
operation, the output fields that do not depend on the presentation (see
``worker.py``).  Work counters are never pinned.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, WORKLOADS, Run


def main():
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work))
    expected = {}
    try:
        for workload in WORKLOADS:
            run = Run(Path.cwd(), workload, 0, scratch)
            result = run.execute(run.job(0, trace=False))
            if result is None:
                return 1
            for op in result["ops"]:
                if op["error"] is not None:
                    print(f"{op['name']} raised:\n{op['error']}", file=sys.stderr)
                    return 1
            expected[workload] = {op["name"]: op["output"] for op in result["ops"]}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # one line per operation, so a changed output shows as one changed line
    text = ",\n".join(
        f" {json.dumps(workload)}: {{\n"
        + ",\n".join(f"  {json.dumps(name)}: {json.dumps(output)}" for name, output in ops.items())
        + "\n }"
        for workload, ops in expected.items())
    (HERE / "expected.json").write_text("{\n" + text + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
