"""The orbitforge benchmark: seeded library queries answered as a closed loop.

    python3 perfbench/run.py --workload potential --seed 1 --seconds 20 --trace 0

Run it from the repository root; it needs ``src/orbitforge`` and exits with
code 2 without it.  Workloads (``workloads.py`` builds their inputs):

* ``potential``: canonical heights, Green values and short equipotential
  traces.  ``ball``/``green`` do most of the work; bounded archimedean orbits
  run the whole step budget and form the p90 tail, escaping points the p50.
* ``series``: Psi/Phi series of distinct maps at mixed orders with their
  three exact residuals, nu ledgers over Q3/Q5 and Poisson-Jensen pairs.
  Fraction-only arithmetic in ``exact``/``boettcher``; every series is new.
* ``intersect``: irreducible non-special lines and conics against the small
  orbits of X^2-1 and X^2-2 (cap 3, and cap 4 for the tail), plus orbit level
  sets.  ``factor`` (sympy), ``exact.poly_resultant`` and ``rootcert``.
* ``lattice``: box counts over an exhaustive (a, N) sweep, whose lattices
  repeat heavily, and over random (a, N) with N <= 200, which barely repeat;
  plus primitive and root-pair decompositions.  Pure integers in ``combinat``.

A run answers the workload's fixed query list in fresh single-threaded
worker processes, one pass per worker, for about ``--seconds`` (at least
``MIN_PASSES`` passes and ``MIN_SAMPLES`` query latencies).  Before each
pass it times ``CLI_RUNS_PER_PASS`` cold ``python -m orbitforge.cli``
subprocesses on the workload's README command; ``cli_cold_s`` is their
median, and their stdout must be byte-identical every time and equal to the
same command run in-process by the worker.  ``setup_s`` is the median time
from spawning a worker to its first query: interpreter start, imports (sympy
included) and building the inputs.  Each query's latency is its median over
the passes; ``wall_s`` is their sum and ``query_p50_ms``/``query_p90_ms``
their percentiles.  Every time is scaled to the reference machine speed of
``probe.py``, measured during the pass (during the next pass for the CLI
runs); raw times are kept in the run record.  A query fails when it raises,
is undecided, drops trace points or fails its output check; failures are
counted in ``failed`` against ``attempted``, and a failed output check makes
``correct`` false.  Each query of the list counts once, however many passes
re-time it (every pass must give the same statuses), so both counts depend
on the seed alone and not on how many passes fit in ``--seconds``.

With ``--trace 1`` the passes alternate between untraced and traced workers
(at least two of each), and the metrics are the per-layer ones: calls, self
time and raised errors of each module's public entry points, input-property
counts, ``trace_overhead_s`` (traced minus untraced ``wall_s``) and
``failed_share``.  Counts must repeat exactly across the traced passes.  The
spans of the last traced pass go to ``perfbench/out/``, next to a JSON record
of each run with its environment and the probe timed at its start and end.

Seed 20261017 is held out: it was not used while the benchmark was built.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from probe import REFERENCE_S, probe_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("potential", "series", "intersect", "lattice")
MIN_PASSES = 3
MIN_SAMPLES = 100       # latency samples per run: ten lie beyond the p90
CLI_RUNS_PER_PASS = 2
WORKER_TIMEOUT_S = 60

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "query_p50_ms": "ms",
             "query_p90_ms": "ms", "peak_rss_mb": "MB", "cli_cold_s": "s"}


def environment(args) -> dict:
    from mpmath.libmp import BACKEND
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "orbitforge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {"python": platform.python_version(), "mpmath_backend": BACKEND,
            "nproc": os.cpu_count(), "git_sha": sha,
            "src_sha256": digest.hexdigest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def cli_cold(workload: str) -> dict:
    """One cold ``python -m orbitforge.cli`` run of the README command."""
    from workloads import CLI_COMMANDS
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "orbitforge.cli",
                           *CLI_COMMANDS[workload]],
                          capture_output=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                          env={**os.environ, "PYTHONPATH": SRC})
    return {"raw_s": time.monotonic() - t0, "stdout": proc.stdout.decode(),
            "code": proc.returncode}


def run_pass(args, traced: bool, spans_path: str | None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced))]
    if spans_path:
        cmd += ["--spans", spans_path]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["duration_s"] = time.monotonic() - t_spawn
    out["t_spawn"] = t_spawn
    out["traced"] = traced
    out["speed"] = REFERENCE_S / statistics.median(out["probes"])
    out["setup_s"] = (out["t_first"] - t_spawn) * out["speed"]
    out["wall_raw_s"] = sum(out["latencies"])
    return out


def query_latencies(passes: list[dict]) -> list[float]:
    """Each query's scaled latency, as its median over the passes."""
    return [statistics.median(lats) for lats in
            zip(*([lat * p["speed"] for lat in p["latencies"]] for p in passes))]


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def want_more(passes: list[dict], started: float, args) -> bool:
    """Start another pass while the minimums are unmet or it fits the time."""
    if len(passes) < (2 * 2 if args.trace else MIN_PASSES):
        return True
    if not args.trace and len(passes) * len(passes[0]["statuses"]) < MIN_SAMPLES:
        return True
    return time.monotonic() - started + passes[-1]["duration_s"] <= args.seconds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "orbitforge", "__init__.py")):
        print("run.py: no src/orbitforge here; run it from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    sys.path[:0] = [SRC]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args)
    probe_start_s = probe_s()
    # one untimed import compiles the bytecode and warms the file cache
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path[:0] = {[SRC, HERE]!r}; import workloads"],
                   check=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S)

    passes: list[dict] = []
    clis: list[dict] = []
    started = time.monotonic()
    while want_more(passes, started, args):
        traced = bool(args.trace) and len(passes) % 2 == 1
        fresh = [] if traced else [cli_cold(args.workload)
                                   for _ in range(CLI_RUNS_PER_PASS)]
        spans = os.path.join(OUT, f"spans-{tag}.json") if traced else None
        passes.append(run_pass(args, traced, spans))
        # the CLI runs take the machine speed measured in the pass after them
        for cli in fresh:
            cli["scaled_s"] = cli["raw_s"] * passes[-1]["speed"]
        clis += fresh
    probe_end_s = probe_s()

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    statuses = [s for p in passes for s in p["statuses"]]
    # one count per query: the passes answer the same list with the same
    # statuses (checked below), so the counts do not grow with the run's length
    attempted = len(passes[0]["statuses"])
    failed = sum(s != "ok" for s in passes[0]["statuses"])
    latencies = query_latencies(plain)
    p90 = percentile(latencies, 90)
    checks = {
        "outputs_correct": not any(s.startswith("wrong") for s in statuses),
        "passes_identical": all(p["statuses"] == passes[0]["statuses"] for p in passes),
        "cli_exit_zero": all(c["code"] == 0 for c in clis),
        "cli_byte_identical": all(c["stdout"] == clis[0]["stdout"] for c in clis)
        and all(p["cli_stdout"] == clis[0]["stdout"] for p in passes),
    }

    if args.trace:
        counts = [{k: v for k, v in p["layers"].items() if not k.endswith("self_s")}
                  for p in traced]
        checks["trace_counts_repeat"] = all(c == counts[0] for c in counts)
        layers = dict(traced[0]["layers"])
        for key in layers:
            if key.endswith(".self_s"):
                layers[key] = statistics.median(p["layers"][key] * p["speed"]
                                                for p in traced)
        layers["trace_overhead_s"] = (sum(query_latencies(traced))
                                      - sum(latencies))
        layers["failed_share"] = failed / attempted
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "wall_s": sum(latencies),
            "query_p50_ms": statistics.median(latencies) * 1000,
            "query_p90_ms": p90 * 1000,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "cli_cold_s": statistics.median(c["scaled_s"] for c in clis),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    report = {
        "environment": env,
        "probe_ms": {"start": probe_start_s * 1000, "end": probe_end_s * 1000,
                     "reference": REFERENCE_S * 1000},
        "passes": [{"traced": p["traced"], "speed": p["speed"],
                    "setup_raw_s": p["t_first"] - p["t_spawn"],
                    "wall_raw_s": p["wall_raw_s"],
                    "peak_rss_mb": p["peak_rss_mb"]} for p in passes],
        "queries_per_pass": len(passes[0]["statuses"]),
        "failed_share": failed / attempted,
        "failures": sorted({f"{k}:{s}" for k, s in zip(passes[0]["kinds"],
                                                       passes[0]["statuses"])
                            if s != "ok"}),
        "latency_samples": len(latencies) * len(plain),
        "queries_beyond_p90": sum(lat > p90 for lat in latencies),
        "cli_cold_raw_s": [c["raw_s"] for c in clis],
        "checks": checks,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"report": report, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": all(checks.values()), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("share") else "count"


if __name__ == "__main__":
    sys.exit(main())
