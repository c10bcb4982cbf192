"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py BASE.json ... --vs CHANGE.json ...

Files are the ``perfbench/results/*-trace0.json`` that run.py writes.  Each
side's files are grouped by workload; for every end-to-end metric the script
prints both medians and quartiles, the relative change, and whether the
change is worse than the bound in BENCHMARK.json.  It refuses (exit 2) to
compare runs whose finsum backend or Python, numpy or finsum versions
differ, because their numbers do not measure the same program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

_SAME = ("backend", "python", "numpy", "finsum")


def _load(paths):
    out = {}
    for p in paths:
        r = json.loads(Path(p).read_text())
        out.setdefault(r["workload"], []).append(r)
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare benchmark result files")
    ap.add_argument("base", nargs="+")
    ap.add_argument("--vs", nargs="+", required=True, dest="change")
    args = ap.parse_args(argv)
    base, change = _load(args.base), _load(args.change)
    envs = {tuple(r["environment"][k] for k in _SAME)
            for side in (base, change) for rs in side.values() for r in rs}
    if len(envs) != 1:
        sys.stderr.write("compare.py: runs differ in " + ", ".join(_SAME) +
                         f": {sorted(envs)}; refusing to compare\n")
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    worse = 0
    for workload in sorted(set(base) & set(change)):
        print(f"{workload}: {len(base[workload])} base runs, {len(change[workload])} change runs")
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            b = [r["metrics"][name] for r in base[workload]]
            c = [r["metrics"][name] for r in change[workload]]
            bq, cq = _quartiles(b), _quartiles(c)
            rel = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            regress = (rel if lower else -rel) > m["bound"]
            worse += regress
            print(f"  {name:<14} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  {rel:+.1%}"
                  f"{'  WORSE than bound ' + format(m['bound'], '.0%') if regress else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
