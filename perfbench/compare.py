"""Compare two sets of runs made by ``sets.py``, metric by metric.

    python3 perfbench/compare.py perfbench/out/sets-a.json perfbench/out/sets-b.json

Prints a markdown table: for every workload and end-to-end metric, each
set's median with its quartiles and spread (quartile distance over
median), and the change of the second median against the first in the
metric's worse direction.  A row is marked OVER when either spread or
the change exceeds the metric's bound in ``BENCHMARK.json``.  Exits 1 if
any row is OVER.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    first, second = (json.loads(Path(p).read_text())["summary"] for p in argv)
    spec = {m["name"]: m for m in
            json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    print("| workload | metric | unit | first: median [q1, q3] spread "
          "| second: median [q1, q3] spread | worse by | bound |")
    print("|---|---|---|---|---|---|---|")
    over = False
    for workload, metrics in first.items():
        for name, a in metrics.items():
            b = second[workload][name]
            m = spec[name]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (b["median"] - a["median"]) / a["median"]
            flag = max(a["iqr_share"], b["iqr_share"], worse) > m["bound"]
            over = over or flag
            cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                     f"{100 * s['iqr_share']:.1f}%" for s in (a, b)]
            print(f"| {workload} | `{name}` | {m['unit']} | {cells[0]} | "
                  f"{cells[1]} | {100 * worse:+.1f}% | {m['bound']}"
                  f"{' OVER' if flag else ''} |")
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
