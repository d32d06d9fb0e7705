"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload ledger|wide-window|graph-fan \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` it splits the run into ``SEGMENTS`` segments.  Each
segment starts one set-up-only workload process and then one measuring
process that runs its timed loop for ``--seconds / SEGMENTS``; every
process is a fresh interpreter.  ``setup_s`` is the median set-up time
of all these processes, so its samples are spread over the whole run
rather than taken back to back.  The other end-to-end metrics pool the
timed loops of the measuring processes.  With ``--trace 1`` it starts
one traced workload process and prints the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Raw data (every latency, every set-up time) goes to ``perfbench/out/``.
The exit code is 0 only when every workload process succeeded.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("ledger", "wide-window", "graph-fan")
SEGMENTS = 4
# p90 needs ten samples beyond it.
MIN_OPS = 100
# Every workload process together must end well within three minutes.
DEADLINE_S = 170.0


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    return ordered[max(int(rank), 1) - 1]


def launch(workload, seed, seconds, mode, deadline, min_ops=0):
    """Run one workload process; its JSON result, or exit on failure."""
    launched = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode,
           "--min-ops", str(min_ops), "--launched", str(launched)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        sys.exit(f"{mode} process of {workload} did not end in time")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{mode} process of {workload} exited with "
                 f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(measured, setups):
    lat = [x for r in measured for x in r["latencies_ms"]]
    passed = sum(r["passed"] for r in measured)
    return {
        "indices_per_s": (passed / sum(r["loop_s"] for r in measured), "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_p90_ms": (percentile(lat, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in measured), "MB"),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        results = [launch(args.workload, args.seed, args.seconds, "trace",
                          deadline)]
        measured = results
        metrics = {k: (v["value"], v["unit"])
                   for k, v in results[0]["metrics"].items()}
    else:
        results = []
        for _ in range(SEGMENTS):
            results.append(launch(args.workload, args.seed, 0, "setup",
                                  deadline))
            results.append(launch(args.workload, args.seed,
                                  args.seconds / SEGMENTS, "run", deadline,
                                  min_ops=-(-MIN_OPS // SEGMENTS)))
        measured = [r for r in results if "attempted" in r]
        metrics = end_to_end(measured, [r["setup_s"] for r in results])
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    unexpected = [u for r in results for u in r["unexpected"]]

    OUT_DIR.mkdir(exist_ok=True)
    raw = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"args": vars(args), "processes": results}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}")
    for line in sorted(set(unexpected)):
        print(f"{args.workload} UNEXPECTED {line}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
