"""One workload process: set-up, warm-up and the timed closed loop.

Started by ``run.py`` as a fresh interpreter, one per measurement:

    python3 perfbench/worker.py --workload ledger --seed 1 --seconds 20 \
        --mode run|setup|trace --min-ops N --launched <CLOCK_MONOTONIC ns>

``--launched`` is the moment ``run.py`` started this process, so the
set-up time covers the interpreter, ``import fredcorr``, building the
input pool and the warm-up operation.  ``--mode setup`` stops there.
``run`` then drives the workload in a closed loop (one client, the next
operation starts when the previous one returned) in whole rounds of the
pool until ``--seconds`` have passed and at least ``--min-ops``
operations ran.  ``trace`` runs half the time untraced and half traced,
for the per-layer figures and the tracing overhead.

The last line of standard output is one JSON object for ``run.py``.
"""

import os

# One BLAS thread, set in this process's own environment before numpy
# loads: the machine is small and shared, and a second BLAS thread only
# adds contention noise to these matrix sizes.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"


def now():
    """CLOCK_MONOTONIC in seconds: one clock shared with run.py."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_fredcorr():
    """Import fredcorr from this checkout's ``src``, and only from there."""
    sys.path.insert(0, str(SRC_DIR))
    import fredcorr
    if Path(fredcorr.__file__).resolve().parent.parent != SRC_DIR:
        raise ImportError(f"fredcorr was imported from {fredcorr.__file__},"
                          f" not from {SRC_DIR}")
    return fredcorr


class Tally:
    """Latencies and check outcomes of the operations run so far."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.passed = 0
        self.unexpected = []

    def record(self, item, latency, checks):
        self.latencies.append(latency)
        bad = [label for label, got, want in checks if got != want]
        if bad:
            self.failed += 1
        else:
            self.passed += 1
        for label, got, want in checks:
            if got != want and label not in item.known_fault:
                self.unexpected.append(f"{label}: expected {want}, got {got}")


def run_rounds(workload, pool, tally, seconds, min_ops=0):
    """Whole rounds over the pool until both limits are met; wall seconds."""
    start = now()
    while True:
        for item in pool:
            t0 = time.perf_counter()
            checks = workload.op(item)
            tally.record(item, time.perf_counter() - t0, checks)
        elapsed = now() - start
        if elapsed >= seconds and len(tally.latencies) >= min_ops:
            return elapsed


def per_layer_metrics(tracer, ops, overhead_ms):
    """The per-layer metrics of BENCHMARK.json, per operation."""
    s = tracer.summary()

    def calls(name):
        return s[name]["calls"] / ops

    def ms(name, kind):
        return 1e3 * s[name][kind] / ops

    max_dim, flops = tracer.svd_stats()
    out = {
        "kernel.svd.calls": (calls("kernel.svd"), "1/op"),
        "kernel.svd.self_ms": (ms("kernel.svd", "self_s"), "ms/op"),
        "kernel.svd.max_dim": (max_dim, "count"),
        "kernel.svd.gflop": (flops / ops / 1e9, "GFLOP/op"),
        "subspaces.Subspace.calls": (calls("subspaces.Subspace"), "1/op"),
        "subspaces.intersection.calls":
            (calls("subspaces.intersection"), "1/op"),
        "subspaces.intersection.fallbacks":
            (calls("subspaces._intersection_nullspace"), "1/op"),
        "subspaces.pair_index.calls": (calls("subspaces.pair_index"), "1/op"),
        "windows.restricted_image.calls":
            (calls("windows.restricted_image"), "1/op"),
        "morphisms.compose.calls": (calls("morphisms.compose"), "1/op"),
    }
    for name in ("subspaces.Subspace", "spaces.Splitting", "spaces.ModelSpace",
                 "circles.symbol_band_matrix"):
        out[f"{name}.self_ms"] = (ms(name, "self_s"), "ms/op")
    for name in ("subspaces.intersection", "subspaces.pair_index",
                 "subspaces.rank", "subspaces.nullspace",
                 "subspaces.orthonormalize", "windows.restricted_image",
                 "morphisms.compose", "morphisms.delta", "morphisms.index",
                 "morphisms.tilde_ind", "morphisms.Twist",
                 "circles.LaurentSymbol", "circles.winding_number",
                 "circles.LaurentCircle.space", "fans.fan_index",
                 "fans.TwistChain.realize", "graphs.vertex_index",
                 "graphs.global_index_additive", "graphs.global_index_fan"):
        out[f"{name}.total_ms"] = (ms(name, "total_s"), "ms/op")
    out["trace.overhead_ms"] = (overhead_ms, "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    p.add_argument("--min-ops", type=int, default=0)
    p.add_argument("--launched", type=int, required=True,
                   help="CLOCK_MONOTONIC nanoseconds at process launch")
    args = p.parse_args(argv)

    import_fredcorr()
    import numpy as np
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    pool = workload.pool(np.random.default_rng(args.seed))
    warm = Tally()
    t0 = time.perf_counter()
    checks = workload.op(pool[0])
    warm.record(pool[0], time.perf_counter() - t0, checks)
    setup_s = now() - args.launched / 1e9
    result = {"setup_s": setup_s, "unexpected": warm.unexpected}

    if args.mode == "run":
        tally = Tally()
        elapsed = run_rounds(workload, pool, tally, args.seconds,
                             args.min_ops)
        result.update(
            attempted=len(tally.latencies), failed=tally.failed,
            passed=tally.passed, loop_s=elapsed,
            latencies_ms=[1e3 * x for x in tally.latencies],
            unexpected=warm.unexpected + tally.unexpected)
    elif args.mode == "trace":
        from tracer import Tracer
        plain = Tally()
        run_rounds(workload, pool, plain, args.seconds / 2)
        tracer = Tracer()
        traced = Tally()
        tracer.install()
        try:
            run_rounds(workload, pool, traced, args.seconds / 2)
        finally:
            tracer.uninstall()
        overhead_ms = 1e3 * (sum(traced.latencies) / len(traced.latencies)
                             - sum(plain.latencies) / len(plain.latencies))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(
            OUT_DIR / f"{args.workload}-seed{args.seed}-spans.tsv.gz")
        result.update(
            attempted=len(plain.latencies) + len(traced.latencies),
            failed=plain.failed + traced.failed,
            metrics=per_layer_metrics(tracer, len(traced.latencies),
                                      overhead_ms),
            unexpected=warm.unexpected + plain.unexpected + traced.unexpected)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
