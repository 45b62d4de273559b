"""Pool the per-repetition times (scaled to the reference speed, as in
rep_s) that untraced runs saved under .perfbench/ and print, per method, the
sample count, the median and the highest percentile that has at least ten
samples beyond it.

    python3 perfbench/tails.py table1_d1
"""

from __future__ import annotations

import json
import sys

from run import OUT_DIR, TIMED_METHODS, timing_line


def main(argv) -> int:
    if len(argv) != 1:
        raise SystemExit("usage: python3 perfbench/tails.py WORKLOAD")
    files = sorted(OUT_DIR.glob(f"result-{argv[0]}-seed*-trace0.json"))
    times = {method: [] for method in TIMED_METHODS}
    for path in files:
        for r in json.loads(path.read_text())["records"]:
            if r["method"] in times and r["error"] is None:
                times[r["method"]].append(r["scaled_s"])
    print(f"{argv[0]}: {len(files)} runs")
    for method, values in times.items():
        print(timing_line(method, values))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
