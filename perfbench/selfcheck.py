"""Check that the benchmark's deterministic counters repeat exactly.

    python3 perfbench/selfcheck.py

For each workload, runs two traced passes in the request order that seed 0
gives, each in a fresh process with a fixed ``PYTHONHASHSEED``, and compares
their counters (calls, rows scanned, pivots, module dimensions, cache hits and
misses, GC collections).  Prints the counters that differ and exits 1 if any
do.
"""

from __future__ import annotations

import random
import sys

import workloads
from run import OUT, Runner


def main() -> int:
    OUT.mkdir(exist_ok=True)
    differ = 0
    for workload in workloads.WORKLOADS:
        runner = Runner(workload)
        order_seed = random.Random(0).randrange(2**32)
        spans = str(OUT / f"spans-{workload}.jsonl")
        # Compiling a module allocates more than loading its cached bytecode,
        # which moves the cyclic GC's schedule; write the cache first.
        runner.worker(order_seed, "--setup-only")
        first, second = (runner.worker(order_seed, "--trace", spans)["counters"] for _ in range(2))
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        for key in diff:
            print(f"{workload}: {key} {first.get(key)} != {second.get(key)}")
        print(f"{workload}: {len(first) - len(diff)} of {len(first)} counters repeat")
        differ += len(diff)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
