"""finsum benchmark: seeded workloads, referee-checked end-to-end metrics,
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload quad-heavy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from anywhere; the program is imported from ``src/`` next to this
directory.  A request is one ``finsum.cli.run`` call (one public library
call in ``scalar-closure``), made by a single caller in a fresh worker
process, each request sent when the previous one returns.  The worker makes
whole passes over the seeded pool until ``--seconds`` have passed and, with
``--trace 0``, at least ``MIN_REQUESTS`` requests have completed, so that at
least ten latencies lie beyond the 90th percentile.  ``--trace 1`` spends
half the time untraced and half traced and prints the per-layer metrics,
including the tracing overhead.

The referee (``referee.py``, mpmath only) runs in this process after the
worker has exited.  Every route record is classed as solved, missed
(unflagged, outside tol), flagged, refused or failed.  The last line of
stdout is one JSON object; a human-readable summary comes before it, and
the full result, with its environment record, is written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

import referee
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

MIN_REQUESTS = 100
SETUP_REPEATS = 5
# a seed no development run used, for the generator's mix check
FRESH_SEED = 918_273_645
# an unflagged value this far from the referee is wrong, not just under-estimated
_GROSS_REL = 1e-6
_GROSS_EST = 1e3
_CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "req_per_s": "1/s", "lat_p50_ms": "ms",
                    "lat_p90_ms": "ms", "covered_frac": "ratio",
                    "solved_frac": "ratio", "ok_frac": "ratio",
                    "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(job: dict) -> tuple[float, str]:
    """Run one worker job; (wall seconds, stdout)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(job), capture_output=True, text=True,
                              env=_child_env(), cwd=ROOT, timeout=_CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {job['mode']} exceeded {_CHILD_TIMEOUT_S} s") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker {job['mode']} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return wall, proc.stdout


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _key(item: dict) -> str:
    return json.dumps({k: v for k, v in item.items() if k not in ("method", "tol", "family")},
                      sort_keys=True)


def _classify(items: list[dict], records: list, refs: dict) -> dict:
    """Class counts and the covered/solved/gross tallies over the first pass."""
    t = {"solved": 0, "missed": 0, "flagged": 0, "refused": 0, "failed": 0,
         "unflagged": 0, "covered": 0, "pairs": 0, "pairs_solved": 0,
         "em_ran": 0, "em_within_tol": 0, "gross": [], "uncovered": [], "unsolved": []}
    for item, recs in zip(items, records):
        requested = {item["kind"]} if item["kind"] != "run" else (
            {"laplace", "fourier", "telescope", "euler-maclaurin", "closed-form"}
            if item["method"] == "all" else {item["method"]})
        if recs is None:                          # never completed
            t["failed"] += len(requested)
            t["pairs"] += len(requested)
            continue
        ref = refs[_key(item)]
        scale = max(1.0, float(abs(ref)))
        for r in recs:
            if "error" in r:
                cls = "refused"
            elif r["flags"]:
                cls = "flagged"
            else:
                dev = float(abs(mpmath.mpc(r["value"]["re"], r["value"]["im"]) - ref))
                est = r["error_estimate"]
                t["unflagged"] += 1
                if dev <= est:
                    t["covered"] += 1
                else:
                    t["uncovered"].append(f"{item['expr']} N={item.get('n')} "
                                          f"{r['method']}: |err| {dev:.2e} > est {est:.2e}")
                cls = "solved" if dev <= item["tol"] * scale else "missed"
                if dev > max(_GROSS_EST * est, _GROSS_REL * scale):
                    t["gross"].append(f"{item['expr']} N={item.get('n')} "
                                      f"{r['method']}: |err| {dev:.3e}")
            t[cls] += 1
            if r["method"] in requested:
                t["pairs"] += 1
                t["pairs_solved"] += cls == "solved"
                if cls != "solved":
                    t["unsolved"].append(f"{item['expr']} N={item.get('n')} "
                                         f"{r['method']}: {cls}")
            if r["method"] in ("euler-maclaurin", "em_sum") and cls != "refused":
                t["em_ran"] += 1
                t["em_within_tol"] += cls == "solved"
    return t


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    problems = referee.selfcheck() + workloads.check_generator(workload, seed, FRESH_SEED)
    items = workloads.generate(workload, seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    job = {"mode": "setup", "items": items[:1]}
    _worker(job)                                  # untimed: fills caches, proves the import
    setups = [] if trace else [_worker(job)[0] for _ in range(SETUP_REPEATS)]
    _, out = _worker({"mode": "run", "items": items, "seconds": seconds,
                      "min_requests": MIN_REQUESTS, "trace": trace,
                      "spans_path": str(RESULTS / f"{stem}.spans.csv")})
    res = json.loads(out)

    refs: dict = {}
    for item in items:
        key = _key(item)
        if key not in refs:
            refs[key] = referee.value(item)
    tally = _classify(items, res["records"], refs)

    lat_ms = [ns / 1e6 for ns in res["timed"]["latencies_ns"]]
    attempted = len(lat_ms) + res.get("traced_requests", 0) + res["untimed_requests"]
    timed = len(items) - res["untimed_requests"]
    failed = res["outcomes"]["failed"]
    metrics = {
        "setup_s": statistics.median(setups) if setups else None,
        "req_per_s": len(lat_ms) / res["timed"]["elapsed_s"],
        "lat_p50_ms": statistics.median(lat_ms),
        "lat_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
        if len(lat_ms) > 1 else lat_ms[0],
        "covered_frac": tally["covered"] / max(1, tally["unflagged"]),
        "solved_frac": tally["pairs_solved"] / max(1, tally["pairs"]),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    layers = res.get("layers", {})
    if trace:
        layers["eulermaclaurin.useful_frac"] = (tally["em_within_tol"] / tally["em_ran"]
                                                if tally["em_ran"] else 0.0)
    correct = not problems and not tally["gross"] and res["outcomes"]["nondeterministic"] == 0
    env = dict(res["environment"], nproc=os.cpu_count(), cpu=_cpu_model())
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "correct": correct, "attempted": attempted,
        "failed": failed, "failed_frac": failed / attempted,
        "requests_timed": len(lat_ms), "passes": res["timed"]["passes"],
        "beyond_p90": sum(x > metrics["lat_p90_ms"] for x in lat_ms),
        "pool": timed, "untimed": res["untimed_requests"], "setup_samples_s": setups,
        "metrics": metrics,
        "item_median_ms": [statistics.median(lat_ms[i::timed]) for i in range(timed)],
        "layers": layers,
        "classes": {k: tally[k] for k in ("solved", "missed", "flagged", "refused", "failed")},
        "problems": problems, "gross": tally["gross"], "uncovered": tally["uncovered"],
        "unsolved": tally["unsolved"], "outcomes": res["outcomes"], "failures": res["failures"],
        "missing_hooks": res.get("missing_hooks", []),
    }
    (RESULTS / f"{stem}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def _summary(r: dict) -> str:
    lines = [f"{r['workload']} seed={r['seed']} trace={int(r['trace'])}: "
             f"{r['requests_timed']} timed requests, {r['passes']} passes over "
             f"{r['pool']}, backend={r['environment']['backend']}"]
    m = r["metrics"]
    for name, unit in END_TO_END_UNITS.items():
        if m[name] is not None:
            extra = f"  ({r['requests_timed']} samples, {r['beyond_p90']} beyond)" \
                if name == "lat_p90_ms" else ""
            lines.append(f"  {name:<14}{m[name]:>14.6g} {unit}{extra}")
    lines.append(f"  {'failed_frac':<14}{r['failed_frac']:>14.6g} ratio "
                 f"({r['failed']} of {r['attempted']})")
    lines.append("  records: " + ", ".join(f"{k} {v}" for k, v in r["classes"].items()))
    for name, v in sorted(r["layers"].items()):
        lines.append(f"  {name:<38}{v:>14.6g}")
    for msg in r["problems"] + r["gross"] + r["failures"] + \
            [f"missing hook {h}" for h in r["missing_hooks"]]:
        lines.append(f"  ! {msg}")
    return "\n".join(lines)


def _line(r: dict) -> dict:
    if r["trace"]:
        # per-layer units follow the name: *_us times, *_frac ratios, else counts
        units = {n: ("us" if n.endswith("_us") else
                     "ratio" if n.endswith("_frac") else "count") for n in r["layers"]}
        metrics = {n: {"value": v, "unit": units[n]} for n, v in r["layers"].items()}
    else:
        metrics = {n: {"value": r["metrics"][n], "unit": u}
                   for n, u in END_TO_END_UNITS.items()}
    return {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "finsum" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no finsum source under {ROOT / 'src'}\n")
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1
    for r in results:
        print(_summary(r), flush=True)
    if len(results) == 1:
        print(json.dumps(_line(results[0])))
    else:
        print(json.dumps({r["workload"]: _line(r) for r in results}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
