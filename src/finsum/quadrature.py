"""Adaptive Gauss-Kronrod quadrature for the integral representations.

One engine, two frontends:

* :func:`integrate_finite`        -- a <= t <= b
* :func:`integrate_semi_infinite` -- 0 < t < inf via t = u/(1-u)

Intervals are bisected worst-first (by the QUADPACK-style error estimate of
a 7/15 Gauss-Kronrod pair) until the summed estimate drops below ``tol`` or
the node budget runs out.  Each round bisects a batch of the worst panels
and evaluates all their children in one integrand call.  Callers may seed
the initial mesh with interior ``points`` where the integrand's scale lies
(QUADPACK's QAGP breakpoints); they only spare the rounds that would find
that scale, the error control is unchanged.  Endpoints are never sampled:
every Kronrod node is interior, which is what lets the half-line transform
skip t = 0.  Integrands are complex-valued; they are evaluated on 1-D arrays
of abscissas (each frontend detects scalar-only callables once and wraps
them).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError

# 15-point Kronrod abscissas/weights with the embedded 7-point Gauss rule.
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
# both rules as the columns of one matrix, so one product gives both sums
_W_KG = np.zeros((15, 2), dtype=np.complex128)
_W_KG[:, 0] = _WGK
_W_KG[1::2, 1] = _WG

_MIN_WIDTH_FRACTION = 1e-15
# most panels bisected in one round; bounds the memory of one batched call
_ROUND_CAP = 256
# no error estimate can certify below roundoff on the accumulated value, so
# the absolute tolerance is floored at this multiple of |integral|
_REL_FLOOR = 50.0 * 2.220446049250313e-16


@dataclass
class QuadratureResult:
    value: complex
    abs_error_estimate: float
    nodes_used: int
    converged: bool


def _vectorize(f: Callable, probes: np.ndarray) -> Callable:
    """Return an array-in/array-out version of f, wrapping scalar callables."""
    try:
        out = f(probes)
    except Exception:
        out = None
    if isinstance(out, np.ndarray) and out.shape == probes.shape:
        return f
    return lambda xs: np.array([complex(f(x)) for x in xs.tolist()])


def _gk_panels(f: Callable, a: np.ndarray, b: np.ndarray):
    """Kronrod values and error estimates on the panels [a[i], b[i]].

    All 15 * len(a) nodes go to f in one flat array.
    """
    width = b - a
    half = 0.5 * width
    mid = 0.5 * (a + b)
    # keep every node strictly interior even on few-ulp panels, where
    # mid + half*x can round onto a (possibly singular) panel boundary
    xs = np.minimum(np.maximum(mid[:, None] + half[:, None] * _XGK,
                               np.nextafter(a, b)[:, None]), np.nextafter(b, a)[:, None])
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        ys = np.asarray(f(xs.ravel()), dtype=np.complex128).reshape(xs.shape)
        finite = np.isfinite(ys)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise EvaluationError("integrand is not finite", at=f"t={xs.flat[bad]!r}")
        sums = half[:, None] * (ys @ _W_KG)
        resk = sums[:, 0]
        raw = np.abs(resk - sums[:, 1])
        resasc = half * (np.abs(ys - (resk / width)[:, None]) @ _WGK)
        scaled = resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5)
    # raw == 0 gives scaled == 0 == raw already; resasc == 0 would give nan
    return resk, np.where(resasc != 0.0, scaled, raw)


def _adaptive(f: Callable, cuts: list[float], tol: float, budget: int) -> QuadratureResult:
    """Worst-first bisection over the panels delimited by ``cuts``.

    ``f`` maps a 1-D array of abscissas to an array of values.  Each round
    bisects the worst panels, as many as it takes for their summed error to
    cover the excess over the target (at most ``_ROUND_CAP``), and
    evaluates all their children in one call.
    """
    min_width = _MIN_WIDTH_FRACTION * (cuts[-1] - cuts[0])
    heap: list = []   # (-err, tiebreak, a, b, value, err)
    done: list = []   # (a, b, value, err) panels at minimum width, accepted as-is
    counter = 0
    nodes = 0
    err_total = 0.0
    done_err = 0.0    # error frozen into accepted panels; a floor on err_total
    value_run = 0j    # running integral, for the roundoff floor on tol
    stuck = False

    def push(lo: list, hi: list):
        """Evaluate the panels [lo[i], hi[i]] and add them to the heap."""
        nonlocal counter, nodes, err_total, value_run
        vals, errs = _gk_panels(f, np.array(lo), np.array(hi))
        vals, errs = vals.tolist(), errs.tolist()
        nodes += 15 * len(lo)
        for a, b, val, err in zip(lo, hi, vals, errs):
            heapq.heappush(heap, (-err, counter, a, b, val, err))
            counter += 1
        err_total += math.fsum(errs)
        value_run += sum(vals)

    # the initial mesh goes in slices the size of one full round's children
    lo, hi, width = cuts[:-1], cuts[1:], 2 * _ROUND_CAP
    for i in range(0, len(lo), width):
        push(lo[i:i + width], hi[i:i + width])
    while not stuck and heap:
        target = max(tol, _REL_FLOOR * abs(value_run))
        if err_total <= target:
            # the running total carries rounding from the early, large
            # errors; confirm on the exact sum before stopping
            err_total = math.fsum([p[5] for p in heap] + [p[3] for p in done])
            if err_total <= target:
                break
        if nodes + 30 > budget:
            break
        cap = min(_ROUND_CAP, (budget - nodes) // 30)
        split = []
        shed = 0.0
        while heap and len(split) < cap and shed < err_total - target:
            _, _, a, b, val, err = heapq.heappop(heap)
            if (b - a) <= min_width:
                done.append((a, b, val, err))
                done_err += err
                stuck = done_err > tol   # the floor alone exceeds tol: unreachable
                if stuck:
                    break
                continue
            split.append((a, b, val, err))
            shed += err
        if not split:
            break
        mid = [0.5 * (p[0] + p[1]) for p in split]
        err_total -= shed
        value_run -= sum(p[2] for p in split)
        push([p[0] for p in split] + mid, mid + [p[1] for p in split])

    vals = [p[4] for p in heap] + [p[2] for p in done]
    errs = [p[5] for p in heap] + [p[3] for p in done]
    value = complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))
    # the rule-disagreement estimate is blind to accumulation roundoff, so
    # the reported estimate is floored at roundoff on the panel magnitudes
    floor = _REL_FLOOR * math.fsum(abs(v) for v in vals)
    err_total = max(math.fsum(errs), floor)
    return QuadratureResult(value=value, abs_error_estimate=err_total,
                            nodes_used=nodes,
                            converged=err_total <= max(tol, floor))


def _mesh(cuts: list[float], points) -> list[float]:
    """The fixed cuts merged with the interior points, sorted; points
    outside (cuts[0], cuts[-1]) and duplicates are dropped."""
    pts = np.asarray(points, dtype=np.float64).ravel()
    pts = pts[(pts > cuts[0]) & (pts < cuts[-1])]
    if not pts.size:
        return cuts
    # not np.unique: its first call imports a numpy submodule, ~30 ms
    mesh = np.sort(np.concatenate((cuts, pts)))
    return mesh[np.append(True, np.diff(mesh) > 0.0)].tolist()


def integrate_finite(f: Callable, a: float, b: float, tol: float = 1e-10,
                     budget: int = 10 ** 6, points=()) -> QuadratureResult:
    """Adaptive integral of f over [a, b] to absolute tolerance tol;
    ``points`` are interior breakpoints of the initial mesh."""
    if not (b > a):
        raise EvaluationError(f"integration interval is empty: [{a}, {b}]")
    f = _vectorize(f, np.array([a + 0.382 * (b - a), a + 0.618 * (b - a)]))
    return _adaptive(f, _mesh([a, 0.5 * (a + b), b], points), tol, budget)


def integrate_semi_infinite(f: Callable, tol: float = 1e-10,
                            budget: int = 10 ** 6, points=()) -> QuadratureResult:
    """Adaptive integral of f over (0, inf) to absolute tolerance tol.

    Maps t = u/(1-u) onto u in (0, 1); the Jacobian 1/(1-u)^2 is folded into
    the transformed integrand.  t = 0 is never requested.  ``points`` are
    interior breakpoints of the initial mesh, given in t.
    """
    g = _vectorize(f, np.array([0.5, 1.5]))
    with np.errstate(invalid="ignore", divide="ignore"):   # t <= 0, t = inf map outside (0, 1)
        ts = np.asarray(points, dtype=np.float64)
        cuts = _mesh([0.0, 0.5, 0.9, 0.99, 1.0], ts / (1.0 + ts))

    def fu(us: np.ndarray) -> np.ndarray:
        ts = us / (1.0 - us)
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            vals = np.asarray(g(ts), dtype=np.complex128)
            out = vals / (1.0 - us) ** 2
        return out

    return _adaptive(fu, cuts, tol, budget)

