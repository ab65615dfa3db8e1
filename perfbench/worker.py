"""One pass of a workload in a fresh interpreter: build the seeded query list,
answer it as a closed loop (one caller; the next query is sent only when the
previous one has returned) and print one JSON line with the timings.

    python3 perfbench/worker.py --workload potential --seed 1 --trace 0

It reports ``t_first``, the ``time.monotonic()`` reading just before the
first query, so that the parent can measure set-up time from the spawn, and
the machine-speed probe timed before the first query and then between
queries every ``PROBE_EVERY_S`` (outside the query timings).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

import workloads  # noqa: E402
from probe import probe_s  # noqa: E402
from tracer import Tracer  # noqa: E402
from orbitforge.errors import UndecidedError  # noqa: E402

PROBE_EVERY_S = 0.25


def answer(queries, tracer):
    """Run the queries in order; returns per-query latency (s) and status,
    the CLI query's stdout and the probe times."""
    latencies, statuses, cli_stdout, probes = [], [], None, []
    last_probe = 0.0
    for idx, query in enumerate(queries):
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe_s())
            last_probe = time.perf_counter()
        if tracer is not None:
            tracer.query, tracer.active = idx, True
        t0 = time.perf_counter()
        try:
            result = query.run()
            error = None
        except UndecidedError:
            error = "undecided"
        except Exception as exc:   # every raise, documented or not, is a failure
            error = f"raised:{type(exc).__name__}"
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                error = query.check(result)
            except Exception as exc:
                error = f"wrong:{type(exc).__name__}"
            if query.kind == "cli":
                cli_stdout = result[1]
        statuses.append(error or "ok")
    return latencies, statuses, cli_stdout, probes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spans", help="write the spans of a traced pass here")
    args = ap.parse_args()

    queries = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
    t_first = time.monotonic()
    latencies, statuses, cli_stdout, probes = answer(queries, tracer)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "t_first": t_first,
        "kinds": [q.kind for q in queries],
        "latencies": latencies,
        "statuses": statuses,
        "cli_stdout": cli_stdout,
        "probes": probes,
        "peak_rss_mb": rss_kib / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
