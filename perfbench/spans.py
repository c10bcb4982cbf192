"""Span tracing from outside the program.

The traced run replaces public entry points of each finsum module with
wrappers, at the module attribute through which their callers look them
up (``finsum.cli.sum_via_integral``, ``finsum.laplace.integrate_semi_infinite``
and so on).  The program's source is not edited.  Each wrapper records a
span (name, start, end, parent span, request id, outcome, one count) in
memory; ``Tracer.write`` stores them when the run ends, and
``Tracer.layer_metrics`` derives per-request counts and mean self times
(span time minus the time of its direct child spans).
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, span name, count extractor); the extractor maps
# (args, result) to the count the span carries
_TERMS = lambda args, res: res.diagnostics.nodes                      # noqa: E731
_NODES = lambda args, res: res.nodes_used                             # noqa: E731
_POINTS = lambda args, res: getattr(args[0], "size", 1)               # noqa: E731

HOOKS = (
    ("finsum.cli", "run", "cli.run", None),
    ("finsum.cli", "_run_laplace", "cli.route", None),
    ("finsum.cli", "_run_fourier", "cli.route", None),
    ("finsum.cli", "_run_telescope", "cli.route", None),
    ("finsum.cli", "_run_em", "cli.route", None),
    ("finsum.cli", "_run_closed_form", "cli.route", None),
    ("finsum.expr", "parse_expression", "expr.parse", None),
    ("finsum.cli", "recognize_pair", "kernels.recognize", None),
    ("finsum.cli", "recognize_fourier", "fourier.recognize", None),
    ("finsum.cli", "eval_identity", "identities.eval", None),
    ("finsum.cli", "direct_sum", "series.oracle", _TERMS),
    ("finsum.series", "direct_sum", "series.oracle", _TERMS),
    ("finsum.cli", "sum_via_integral", "laplace.route", None),
    ("finsum.laplace", "phi_derivative", "laplace.phi_derivative", None),
    ("finsum.cli", "sum_via_fourier", "fourier.route", None),
    ("finsum.cli", "telescoping_sum", "telescope.route", _TERMS),
    ("finsum.telescope", "telescoping_sum", "telescope.route", _TERMS),
    ("finsum.cli", "em_sum", "eulermaclaurin.em_sum", None),
    ("finsum.eulermaclaurin", "em_sum", "eulermaclaurin.em_sum", None),
    ("finsum.telescope", "em_tail", "eulermaclaurin.em_tail", None),
    ("finsum.laplace", "integrate_semi_infinite", "quadrature", _NODES),
    ("finsum.kernels", "integrate_semi_infinite", "quadrature", _NODES),
    ("finsum.fourier", "integrate_real_line", "quadrature", _NODES),
    ("finsum.eulermaclaurin", "integrate_finite", "quadrature", _NODES),
    ("finsum.eulermaclaurin", "integrate_semi_infinite", "quadrature", _NODES),
    ("finsum.quadrature", "integrate_finite", "quadrature", _NODES),
    ("finsum.quadrature", "integrate_semi_infinite", "quadrature", _NODES),
    ("finsum.backend", "phi_grid", "backend.phi_grid", _POINTS),
    ("finsum.backend", "dirichlet_grid", "backend.dirichlet_grid", _POINTS),
    ("finsum.backend", "neumaier_sum", "backend.neumaier_sum", _POINTS),
)

# per-layer metric -> (span name, statistic); statistics are per request
# except "self_us" (mean self time per call) and "per_call" (count per call)
LAYER_METRICS = {
    "quadrature.calls": ("quadrature", "calls"),
    "quadrature.self_us": ("quadrature", "self_us"),
    "quadrature.nodes": ("quadrature", "count"),
    "quadrature.unconverged": ("quadrature", "unconverged"),
    "backend.phi_grid.calls": ("backend.phi_grid", "calls"),
    "backend.phi_grid.self_us": ("backend.phi_grid", "self_us"),
    "backend.phi_grid.pts_per_call": ("backend.phi_grid", "per_call"),
    "backend.dirichlet_grid.calls": ("backend.dirichlet_grid", "calls"),
    "backend.dirichlet_grid.self_us": ("backend.dirichlet_grid", "self_us"),
    "backend.dirichlet_grid.pts_per_call": ("backend.dirichlet_grid", "per_call"),
    "fourier.route.self_us": ("fourier.route", "self_us"),
    "laplace.route.self_us": ("laplace.route", "self_us"),
    "laplace.phi_derivative.calls": ("laplace.phi_derivative", "calls"),
    "series.oracle.calls": ("series.oracle", "calls"),
    "series.oracle.self_us": ("series.oracle", "self_us"),
    "series.oracle.terms": ("series.oracle", "count"),
    "backend.neumaier_sum.self_us": ("backend.neumaier_sum", "self_us"),
    "expr.parse.self_us": ("expr.parse", "self_us"),
    "kernels.recognize.self_us": ("kernels.recognize", "self_us"),
    "kernels.recognize.refused": ("kernels.recognize", "refused"),
    "fourier.recognize.self_us": ("fourier.recognize", "self_us"),
    "identities.eval.self_us": ("identities.eval", "self_us"),
    "cli.run.self_us": ("cli.run", "self_us"),
    "cli.refusal_us": ("cli.route", "refused_us"),
    "telescope.route.self_us": ("telescope.route", "self_us"),
    "telescope.terms": ("telescope.route", "count"),
    "telescope.useful_frac": ("telescope.route", "converged_frac"),
    "eulermaclaurin.em_sum.self_us": ("eulermaclaurin.em_sum", "self_us"),
    "eulermaclaurin.em_tail.calls": ("eulermaclaurin.em_tail", "calls"),
    "eulermaclaurin.em_tail.self_us": ("eulermaclaurin.em_tail", "self_us"),
}


class Tracer:
    """Span recorder; install() wraps the hooks, uninstall() restores them."""

    def __init__(self, refusal_types: tuple):
        self.refusal_types = refusal_types
        self.spans: list[list] = []   # [name, start, end, parent, request, outcome, count]
        self.stack: list[int] = []
        self.request = -1
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self.stack
        refusals = self.refusal_types

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter_ns(), 0,
                    stack[-1] if stack else -1, self.request, "ok", 0]
            spans.append(span)
            stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            except refusals:
                span[5] = "refused"
                raise
            except BaseException:
                span[5] = "raised"
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                span[6] = count(args, res)
            if name in ("quadrature", "telescope.route"):
                ok = res.converged if name == "quadrature" else res.diagnostics.converged
                span[5] = "ok" if ok else "unconverged"
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for modname, attr, name, count in HOOKS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def self_times(self) -> list[int]:
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-layer metrics over ``requests`` traced requests."""
        agg: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            a = agg.setdefault(span[0], {"calls": 0, "self": 0, "count": 0,
                                         "unconverged": 0, "refused": 0,
                                         "refused_ns": 0})
            a["calls"] += 1
            a["self"] += own
            a["count"] += span[6]
            if span[5] == "unconverged":
                a["unconverged"] += 1
            elif span[5] == "refused":
                a["refused"] += 1
                a["refused_ns"] += span[2] - span[1]
        out = {}
        for metric, (name, stat) in LAYER_METRICS.items():
            a = agg.get(name)
            if a is None:
                out[metric] = 0.0
            elif stat == "calls":
                out[metric] = a["calls"] / requests
            elif stat == "self_us":
                out[metric] = a["self"] / a["calls"] / 1e3
            elif stat == "count":
                out[metric] = a["count"] / requests
            elif stat == "per_call":
                out[metric] = a["count"] / a["calls"]
            elif stat in ("unconverged", "refused"):
                out[metric] = a[stat] / requests
            elif stat == "refused_us":
                out[metric] = a["refused_ns"] / a["refused"] / 1e3 if a["refused"] else 0.0
            elif stat == "converged_frac":
                out[metric] = 1.0 - a["unconverged"] / a["calls"]
        out["cli.refusals"] = agg["cli.route"]["refused"] / requests if "cli.route" in agg else 0.0
        # share of request time spent inside each layer, from self times
        total = sum(a["self"] for a in agg.values()) or 1
        for layer in ("quadrature", "backend"):
            out[f"{layer}.time_frac"] = sum(a["self"] for name, a in agg.items()
                                            if name.split(".")[0] == layer) / total
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,request,outcome,count\n")
            for s in self.spans:
                fh.write(",".join(str(v) for v in s) + "\n")
