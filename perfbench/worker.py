"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload NAME --order-seed N [--setup-only] [--trace FILE]

Imports equivar from the checkout's ``src``, generates the workload's
requests in the order ``--order-seed`` gives, runs them one after another and
prints one JSON object: set-up time, the timed interval (wall, CPU, peak
RSS), and one row per request with its latency and answer.  Answers are not
checked here; ``run.py`` checks them after the pass.  With ``--trace`` the
layer functions are wrapped (see ``tracing.py``), the spans are written to FILE
and the per-layer counters and self times are added to the output.
"""

import time

from tracing import REQUEST_SPAN, Tracer  # the benchmark's own code: not set-up

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _call(req, homcalc, equivariant):
    """Run one request through equivar's public API and return its answer.

    Names are looked up on the modules at call time so that a traced pass
    goes through the wrapped functions.
    """
    op = req[0]
    if op == "stable_hom":
        _, src_kind, src_s, src_n, tgt_kind, tgt_s, tgt_n, N = req
        fam = homcalc.PQFamily
        return homcalc.stable_hom(fam(src_kind, src_s, src_n), fam(tgt_kind, tgt_s, tgt_n), N).dim_stable
    if op == "ext_truncated":
        _, s, n, d, N, max_i = req
        return homcalc.ext_truncated(equivariant.build_Q(s, n, N), equivariant.build_P(s, d, N), max_i)
    if op == "ext_stable":
        _, s, a, b, N, max_i = req
        return homcalc.ext_stable(s, a, b, N, max_i)
    raise ValueError(f"unknown request {req!r}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--order-seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="FILE")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import equivar.cli  # noqa: F401  (front-end import cost is part of set-up)
    import equivar.verify  # noqa: F401
    from equivar import equivariant, homcalc

    reqs = workloads.requests(args.workload, random.Random(args.order_seed))
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        call = tracer.span(REQUEST_SPAN, _call)
    else:
        call = _call

    rows = []
    cpu0 = _cpu_s()
    t_start = time.perf_counter()
    for rid, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = rid
        t = time.perf_counter()
        try:
            got, error = call(req, homcalc, equivariant), None
        except Exception as exc:  # a failing request is counted, not fatal
            got, error = None, f"{type(exc).__name__}: {exc}"
        rows.append({"request": req, "seconds": time.perf_counter() - t,
                     "got": got, "error": error})
    wall_s = time.perf_counter() - t_start
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
           "peak_rss_mb": peak_rss_mb, "rows": rows}
    if tracer is not None:
        tracer.uninstall()
        cache = homcalc._build_family.cache_info()
        counters, timings = tracer.summary()
        lookups = cache.hits + cache.misses
        counters["homcalc.family_cache.hits"] = cache.hits
        counters["homcalc.family_cache.misses"] = cache.misses
        if lookups:  # a ratio of no lookups would read as all misses
            counters["homcalc.family_cache.hit_ratio"] = cache.hits / lookups
        out["counters"] = counters
        out["timings"] = timings
        tracer.write_spans(args.trace)
    print(json.dumps(out), flush=True)
    # Skip freeing the heap object by object at exit: after stable-hom that
    # takes most of a second and measures nothing.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
