"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Checks, in about half a minute:

1. one round of each workload passes its checks, and wide-window fails
   exactly its kept fault operations;
2. a deliberately wrong expected integer is counted as a failed
   operation, not raised as a crash;
3. after a traced round every wrapped fredcorr name, class hook and
   ``numpy.linalg.svd`` is the original object again, also when the
   traced code raises;
4. ``run.py`` ends with exit code 0 and a result line of the required
   shape.

Prints one line per check and exits 1 if any failed.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import worker

worker.import_fredcorr()

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def check(ok, what):
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def one_round(workload, seed=1):
    tally = worker.Tally()
    pool = workload.pool(np.random.default_rng(seed))
    worker.run_rounds(workload, pool, tally, seconds=0)
    return pool, tally


def check_rounds():
    for name, w in workloads.WORKLOADS.items():
        pool, tally = one_round(w)
        faults = sum(1 for item in pool if item.known_fault)
        check(not tally.unexpected and tally.failed == faults,
              f"{name}: one round of {len(pool)} passes, {faults} kept "
              f"fault(s) failed ({tally.failed} failed, "
              f"unexpected {tally.unexpected})")


def check_wrong_expectation():
    w = workloads.WORKLOADS["ledger"]
    item = w.pool(np.random.default_rng(1))[0]
    wrong = replace(item, data=dict(item.data, truth=item.data["truth"] + 1))
    tally = worker.Tally()
    try:
        tally.record(wrong, 0.0, w.op(wrong))
        crashed = False
    except Exception:  # the point of the check: nothing may escape
        crashed = True
    check(not crashed and tally.failed == 1 and len(tally.unexpected) == 2,
          "a wrong expected integer is a failed operation, not a crash")


def bindings():
    """Every object the tracer may rebind, keyed by where it is bound."""
    out = {("numpy.linalg", "svd"): np.linalg.svd}
    for mod in tracer._fredcorr_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, f"{key}.{attr}")] = member
    return out


def check_restore():
    before = bindings()
    t = tracer.Tracer()
    t.install()
    try:
        import fredcorr
        wrapped = fredcorr.intersection is not before[("fredcorr",
                                                       "intersection")]
        for name, w in workloads.WORKLOADS.items():
            item = w.pool(np.random.default_rng(2))[0]
            w.op(item)
    finally:
        t.uninstall()
    summary = t.summary()
    every_layer = all(summary[f"{layer}.{attr}"]["calls"] > 0
                      for layer, _, attr in tracer.TARGETS
                      if not attr.startswith("_"))
    after = bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    check(wrapped and every_layer and not changed,
          f"traced round wraps every layer and restores every binding "
          f"(changed: {changed[:5]})")

    t = tracer.Tracer()
    t.install()
    try:
        import fredcorr
        fredcorr.orthonormalize(np.zeros(3))
    except fredcorr.InvalidInput:  # a 1d input, refused on purpose
        pass
    finally:
        t.uninstall()
    changed = [k for k in before if bindings().get(k) is not before[k]]
    check(not changed, "bindings are restored after a traced call raised")


def check_run_py():
    root = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, str(root / "run.py"), "--workload", "ledger",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        result = {}
    check(proc.returncode == 0
          and set(result) == {"correct", "attempted", "failed", "metrics"}
          and result["correct"] and result["attempted"] >= 100
          and set(result["metrics"]) == {"indices_per_s", "latency_p50_ms",
                                         "latency_p90_ms", "setup_s",
                                         "peak_rss_mb"},
          "run.py prints a correct result line and exits 0")


def main():
    check_rounds()
    check_wrong_expectation()
    check_restore()
    check_run_py()
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
