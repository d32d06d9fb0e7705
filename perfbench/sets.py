"""Run a set of benchmark runs and summarize each metric's spread.

    python3 perfbench/sets.py --seeds 1-10 --seconds 36 [--label a]

Runs ``run.py --trace 0`` once per workload and seed, one run at a time,
and prints for every workload and metric (with its unit) the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, plus the operations attempted
and failed.  The raw results go to
``perfbench/out/sets-<label>.json``.  Exits 1 if any run failed or
reported ``correct: false``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, OUT_DIR, WORKLOADS


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return dict(median=statistics.median(values), q1=q1, q3=q3,
                iqr_share=(q3 - q1) / statistics.median(values))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                   help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=36)
    p.add_argument("--label", default="latest")
    args = p.parse_args(argv)

    runs, ok = {}, True
    for workload in WORKLOADS:
        runs[workload] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=BENCH_DIR.parent)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            runs[workload].append(dict(seed=seed, **result))
            print(f"{workload} seed {seed}: attempted {result['attempted']}"
                  f" failed {result['failed']} correct {result['correct']}",
                  flush=True)

    summary = {}
    for workload, results in runs.items():
        if len(results) < 2:
            continue
        summary[workload] = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            summary[workload][name] = dict(unit=first["unit"], **s)
            print(f"{workload:12s} {name:42s} {s['median']:12.6g} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] {first['unit']:9s}"
                  f" spread {100 * s['iqr_share']:.2f}%")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload:12s} failed share {shares}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"sets-{args.label}.json").write_text(
        json.dumps(dict(args=vars(args),
                        runs=runs, summary=summary), indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
