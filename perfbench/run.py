"""equivar benchmark: exact Hom and Ext requests, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; equivar is imported from its ``src``.
Workloads and their grids are in ``workloads.py``.  Every pass runs the
workload's whole grid in a fresh single-threaded process (``worker.py``),
in an order drawn from ``--seed``; answers are checked exactly after each
pass, outside the timed interval.

``--trace 0`` runs rounds of ten set-up-only processes and one pass for
about ``--seconds`` seconds in all, and reports the median over passes of
wall time, CPU time and peak RSS, plus the median set-up time over all
processes.  ``--trace 1`` runs one untraced and one traced pass in the same
order and reports the per-layer counters and self times of the traced pass.
The metrics reported are those ``BENCHMARK.json`` names, with its units.

The last line of standard output is the result object.  The lines before it
carry diagnostics that are not metrics (the calibration-loop times, which
show how fast the machine was during the run, the fail ratio and the slowest
request of each pass) and, when tracing, the counters and the timings on separate
lines.  Per-request rows go to ``perfbench/out/<workload>-seed<N>-trace<T>.json``
and spans to ``perfbench/out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
# Set-up takes about 0.03 s, so one sample is mostly noise: each pass is
# preceded by this many set-up-only processes, and setup_s is the median
# over them and the passes.
SETUP_PROBES = 10
RUN_LIMIT_S = 170  # a run must end well inside 180 s


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine is right now."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t


class Runner:
    """Starts worker processes one at a time, within the run's time limit."""

    def __init__(self, workload: str):
        self.workload = workload
        self.t0 = time.perf_counter()
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        # Import from cached bytecode, as an installed package does; the first
        # process in a fresh checkout writes the cache.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def worker(self, order_seed: int, *extra: str) -> dict:
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--order-seed", str(order_seed), *extra]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])


def check(passes: list) -> list:
    """Rows whose answer differs from the expected value or that raised."""
    expected: dict = {}
    bad = []
    for p in passes:
        for row in p["rows"]:
            req = tuple(row["request"])
            if req not in expected:
                expected[req] = workloads.expected(req)
            if row["error"] is not None or row["got"] != expected[req]:
                bad.append({**row, "expected": expected[req]})
    return bad


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def untraced(runner: Runner, rng: random.Random, seconds: float, calib: list) -> tuple:
    passes, setups = [], []
    while True:  # stop before a round as long as the last one would overrun
        calib.append(calibrate())
        t = runner.elapsed()
        setups += [runner.worker(rng.randrange(2**32), "--setup-only")["setup_s"]
                   for _ in range(SETUP_PROBES)]
        passes.append(runner.worker(rng.randrange(2**32)))
        if 2 * runner.elapsed() - t > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    med = statistics.median
    values = {
        "setup_s": med(setups),
        "wall_s": med(p["wall_s"] for p in passes),
        "cpu_s": med(p["cpu_s"] for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in metric_units("end_to_end").items()}
    return passes, metrics, {}


def traced(runner: Runner, rng: random.Random, calib: list) -> tuple:
    order_seed = rng.randrange(2**32)
    calib.append(calibrate())
    plain = runner.worker(order_seed)
    calib.append(calibrate())
    spans_file = OUT / f"spans-{runner.workload}.jsonl"
    traced_pass = runner.worker(order_seed, "--trace", str(spans_file))
    counters, timings = traced_pass["counters"], traced_pass["timings"]
    wall = traced_pass["wall_s"]
    timings["trace.wall_s"] = wall  # on the timings line, not metrics
    timings["trace.untraced_wall_s"] = plain["wall_s"]
    timings["trace.overhead_s"] = wall - plain["wall_s"]
    # Every layer span runs inside a request span, so the layer self times
    # plus bench.self_s add up to the request spans' total by construction;
    # the share that falls to the layers is what shows their coverage.
    timings["trace.layer_share"] = sum(timings[f"{layer}.self_s"] for layer in LAYERS) / wall
    values = {**counters, **timings}
    metrics = {k: {"value": values[k], "unit": u} for k, u in metric_units("per_layer").items()}
    return [plain, traced_pass], metrics, {"counters": counters, "timings": timings}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "equivar" / "__init__.py").is_file():
        print(f"equivar sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # for the expected values
    OUT.mkdir(exist_ok=True)

    runner = Runner(args.workload)
    rng = random.Random(args.seed)
    calib: list = []
    if args.trace:
        passes, metrics, extra = traced(runner, rng, calib)
    else:
        passes, metrics, extra = untraced(runner, rng, args.seconds, calib)
    calib.append(calibrate())
    bad = check(passes)
    attempted = sum(len(p["rows"]) for p in passes)

    # The slowest request is reported but not gated: which request first
    # builds a cached module depends on the order, and on a shared machine
    # its spread over seeds exceeds any usable bound.
    slowest = [max(r["seconds"] for r in p["rows"]) for p in passes]
    diagnostics = {"passes": len(passes), "calibration_s": calib,
                   "calibration_median_s": statistics.median(calib),
                   "max_request_s": slowest, "max_request_median_s": statistics.median(slowest),
                   "fail_ratio": len(bad) / attempted, "failed": len(bad),
                   "attempted": attempted}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "diagnostics": diagnostics, "metrics": metrics,
              **extra, "failures": bad, "passes": passes}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print(json.dumps({"diagnostics": diagnostics}))
    for key in ("counters", "timings"):
        if key in extra:
            print(json.dumps({key: extra[key]}, sort_keys=True))
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": len(bad),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
