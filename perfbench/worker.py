"""The process that runs the timed requests.

Reads one JSON job from stdin and writes one JSON result to stdout.  It is a
fresh interpreter per job, so its peak RSS is that of the requests alone;
the referee never runs here.

mode "setup": import finsum and run the pool's first request, nothing more.
mode "run":   closed loop, one caller: whole passes over the pool until both
              the time budget and the minimum request count are reached.
              With ``trace`` the loop runs twice, untraced then traced, and
              the traced half also yields per-layer metrics.  Items marked
              ``untimed`` run once afterwards, for their records only.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import resource
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import finsum                                        # noqa: E402
from finsum import cli, eulermaclaurin, quadrature, series, telescope  # noqa: E402

# a pass is never cut short, but a run stops starting passes after this
_HARD_STOP_S = 100.0


# -- scalar-only closures ------------------------------------------------------------

def _scalar(fn: dict):
    """g(x) for one family; complex() rejects arrays and jets on purpose."""
    c, a, a2 = fn["c"], fn["a"], fn["a2"]
    name = fn["name"]
    if name == "lorentz":
        return lambda x: c / (complex(x) * complex(x) + a2)
    if name == "exp-cos":
        theta = fn["theta"]
        return lambda x: c * cmath.exp(-a * complex(x)) * cmath.cos(theta * complex(x))
    if name == "power":
        s = fn["s"]
        return lambda x: c * complex(x) ** (-s)
    if name == "exp":
        return lambda x: c * cmath.exp(-a * complex(x))
    if name == "inv-square":
        return lambda x: c / (complex(x) + a) ** 2
    raise ValueError(f"unknown closure family {name!r}")


def _derivative(fn: dict):
    """The analytic derivative(x, order) that em_sum takes instead of jets."""
    c, a = fn["c"], fn["a"]
    if fn["name"] == "exp":
        return lambda x, k: c * (-a) ** k * math.exp(-a * x)
    if fn["name"] == "inv-square":
        return lambda x, k: c * (-1) ** k * math.factorial(k + 1) * (x + a) ** (-k - 2)
    raise ValueError(f"no analytic derivative for {fn['name']!r}")


def _request(item: dict):
    """A zero-argument callable for one pool item; module attributes are
    looked up at call time so the traced run sees its wrappers."""
    kind = item["kind"]
    if kind == "run":
        args = (item["expr"], item["n"])
        kw = {k: item[k] for k in ("method", "alpha", "variant", "beta", "tol")}
        return lambda: cli.run(*args, **kw)
    g = _scalar(item["fn"])
    if kind == "direct_sum":
        spec = series.SeriesSpec(g, item["n"], item["alpha"], item["variant"], item["beta"])
        return lambda: series.direct_sum(spec)
    if kind == "telescoping_sum":
        return lambda: telescope.telescoping_sum(g, item["n"], tol=item["tol"])
    if kind == "em_sum":
        job = eulermaclaurin.EMJob(g, item["lo"], item["hi"], item["m"], 3,
                                   derivative=_derivative(item["fn"]))
        return lambda: eulermaclaurin.em_sum(job, quad_tol=item["tol"])
    if kind == "integrate_finite":
        return lambda: quadrature.integrate_finite(g, item["lo"], item["hi"], tol=item["tol"])
    if kind == "integrate_semi_infinite":
        return lambda: quadrature.integrate_semi_infinite(g, tol=item["tol"])
    raise ValueError(f"unknown item kind {kind!r}")


def _records(item: dict, result) -> list[dict]:
    """The route records of one request, in the report's shape."""
    if item["kind"] == "run":
        return result["results"]
    if isinstance(result, quadrature.QuadratureResult):
        value, est, flags = result.value, result.abs_error_estimate, \
            ([] if result.converged else ["non-converged"])
    else:
        value, est, flags = result.value, result.error_estimate, list(result.flags)
    return [{"method": item["kind"], "value": {"re": value.real, "im": value.imag},
             "error_estimate": float(est), "flags": flags}]


def _expected_methods(item: dict) -> list[str]:
    if item["kind"] != "run":
        return [item["kind"]]
    routes = list(cli.METHODS[1:]) if item["method"] == "all" else [item["method"]]
    return ["oracle"] + routes


def _check(item: dict, records: list[dict]) -> str | None:
    """Why the request failed (lost record, non-finite value), or None."""
    if [r["method"] for r in records] != _expected_methods(item):
        return "lost record"
    for r in records:
        if "error" in r:
            continue
        v = r["value"]
        if not (math.isfinite(v["re"]) and math.isfinite(v["im"])):
            return f"non-finite value from {r['method']}"
    return None


def _signature(records: list[dict]):
    return [(r["method"], r.get("value"), r.get("error_estimate"), r.get("flags"),
             r.get("error")) for r in records]


class Loop:
    """Closed loop over the pool; keeps latencies and first-pass records."""

    def __init__(self, items: list[dict]):
        self.items = items
        self.timed = [i for i, it in enumerate(items) if not it.get("untimed")]
        self.calls = [_request(it) for it in items]
        self.records: list = [None] * len(items)
        self.signatures: list = [None] * len(items)
        self.outcomes = {"refused": 0, "failed": 0, "nondeterministic": 0}
        self.failures: list[str] = []
        self.tracer = None

    def one(self, i: int) -> int:
        item, call = self.items[i], self.calls[i]
        if self.tracer is not None:
            self.tracer.request += 1
        t0 = time.perf_counter_ns()
        try:
            result = call()
        except cli._ROUTE_ERRORS as exc:
            t1 = time.perf_counter_ns()
            self.outcomes["refused"] += 1
            recs = [{"method": m, "error": f"{type(exc).__name__}: {exc}", "flags": ["error"]}
                    for m in _expected_methods(item)]
            self._keep(i, recs)
            return t1 - t0
        except Exception as exc:   # a failure to report, not to stop on
            t1 = time.perf_counter_ns()
            self.outcomes["failed"] += 1
            self.failures.append(f"item {i}: {type(exc).__name__}: {exc}")
            return t1 - t0
        t1 = time.perf_counter_ns()
        recs = _records(item, result)
        why = _check(item, recs)
        if why is not None:
            self.outcomes["failed"] += 1
            self.failures.append(f"item {i}: {why}")
        self._keep(i, recs)
        return t1 - t0

    def _keep(self, i: int, recs: list[dict]) -> None:
        sig = _signature(recs)
        if self.records[i] is None:
            self.records[i] = recs
            self.signatures[i] = sig
        elif sig != self.signatures[i]:
            self.outcomes["nondeterministic"] += 1

    def passes(self, seconds: float, min_requests: int) -> dict:
        lat: list[int] = []
        start = time.perf_counter()
        while True:
            for i in self.timed:
                lat.append(self.one(i))
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(lat) >= min_requests) or elapsed >= _HARD_STOP_S:
                break
        return {"latencies_ns": lat, "elapsed_s": elapsed,
                "passes": len(lat) // len(self.timed)}

    def untimed(self) -> int:
        """Run each untimed item once; how many ran."""
        rest = [i for i in range(len(self.items)) if i not in self.timed]
        for i in rest:
            self.one(i)
        return len(rest)


def _environment() -> dict:
    import numpy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "finsum": getattr(finsum, "__version__", "?"),
            "backend": finsum.active_backend(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main() -> int:
    job = json.load(sys.stdin)
    items = job["items"]
    if job["mode"] == "setup":
        _request(items[0])()
        return 0
    loop = Loop(items)
    try:                                      # warm-up, not timed or counted
        loop.calls[0]()
    except Exception:
        pass
    out = {"environment": _environment()}
    if job["trace"]:
        from spans import Tracer
        half = job["seconds"] / 2.0
        out["timed"] = loop.passes(half, 1)
        tracer = loop.tracer = Tracer(cli._ROUTE_ERRORS)
        tracer.install()
        try:
            traced = loop.passes(half, 1)
        finally:
            tracer.uninstall()
        requests = len(traced["latencies_ns"])
        out["traced_requests"] = requests
        out["layers"] = tracer.layer_metrics(requests)
        out["layers"]["trace.overhead_frac"] = 1.0 - (
            requests / traced["elapsed_s"]) / (len(out["timed"]["latencies_ns"])
                                               / out["timed"]["elapsed_s"])
        out["missing_hooks"] = tracer.missing
        tracer.write(job["spans_path"])
    else:
        out["timed"] = loop.passes(job["seconds"], job["min_requests"])
    out["untimed_requests"] = loop.untimed()
    out["records"] = loop.records
    out["outcomes"] = loop.outcomes
    out["failures"] = loop.failures[:20]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
