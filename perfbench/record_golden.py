"""Record the golden exit status and stdout sha256 of every operation.

    python3 perfbench/record_golden.py

Runs, once and untraced, every operation that any seed of any workload
can draw (``ops.pool``) plus the set-up invocation, and writes
``golden.json``.  The goldens pin the outputs byte for byte, so they are
recorded once on a known-good commit and not regenerated to make a
later change pass.
"""

import json
import platform
import time

from ops import SETUP, WORKLOADS, pool
from run import GOLDEN, RUN_LIMIT_S, SCRATCH, launch


def main():
    SCRATCH.mkdir(exist_ok=True)
    entries = {}
    for op in [SETUP] + [op for w in WORKLOADS for op in pool(w)]:
        if op.key in entries:
            continue
        result = launch(op, None, time.perf_counter() + RUN_LIMIT_S)
        if result.timed_out:
            raise SystemExit(f"{op.key} timed out")
        entries[op.key] = {"status": result.status, "sha256": result.sha256,
                           "bytes": result.nbytes}
        print(f"{result.wall:8.3f}s  exit {result.status}  {result.nbytes:7d} B  {op.key}",
              flush=True)
    GOLDEN.write_text(json.dumps({"python": platform.python_version(), "ops": entries},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
