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
of abscissas.  No call is spent on probing: the first round's batch decides
whether f takes arrays, and an f that does not is evaluated point by point
from then on (:func:`_array_form`).
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from itertools import compress
from typing import Callable

import numpy as np

from .errors import EvaluationError, FinsumError
from .series import check_tol

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
# most nodes one integral may spend; the bisection stops short of it
_BUDGET = 10 ** 6
# most panels bisected in one round; bounds the memory of one batched call
_ROUND_CAP = 256
# no error estimate can certify below roundoff on the accumulated value, so
# the absolute tolerance is floored at this multiple of |integral|
_REL_FLOOR = 50.0 * 2.220446049250313e-16
# the outermost Kronrod node lies 0.0043 widths inside its panel, and the
# rounding of mid + half*x is at most eps*max(|a|, |b|); panels wider than
# this multiple of eps*max(|a|, |b|) (234 would do) keep every node interior
_NARROW = 1024 * 2.220446049250313e-16


@dataclass
class QuadratureResult:
    value: complex
    abs_error_estimate: float
    nodes_used: int
    converged: bool


def _pointwise(f: Callable) -> Callable:
    """f on a 1-D array of abscissas, one complex(f(x)) per point: the array
    form of a callable that takes scalars only."""
    return lambda xs: np.array([complex(f(x)) for x in xs.tolist()])


def _array_form(f: Callable, xs: np.ndarray) -> tuple[Callable, np.ndarray]:
    """(form, values): the array form of f, decided by its first batch xs,
    and its values there.

    The form is f itself when f(xs) is an ndarray of the batch's shape, and
    :func:`_pointwise` of f on any other result or on an exception that is
    not a FinsumError; a FinsumError is the integrand's own and propagates.
    """
    try:
        out = f(xs)
    except FinsumError:
        raise
    except Exception:
        out = None
    if isinstance(out, np.ndarray) and out.shape == xs.shape:
        return f, out
    form = _pointwise(f)
    return form, form(xs)


def _first_batch(f: Callable) -> Callable:
    """f in array form, settled by :func:`_array_form` at the first call."""
    form = None

    def batch(xs):
        nonlocal form
        if form is None:
            form, out = _array_form(f, xs)
            return out
        return form(xs)

    return batch


def _gk_panels(f: Callable, a: np.ndarray, b: np.ndarray, clamp: bool):
    """Kronrod values and error estimates on the panels [a[i], b[i]].

    All 15 * len(a) nodes go to f in one flat array.  ``clamp`` is set when
    a panel may be so narrow that its outermost nodes round onto its ends.
    The caller holds the floating-point error state.
    """
    width = b - a
    half = 0.5 * width
    mid = 0.5 * (a + b)
    xs = mid[:, None] + half[:, None] * _XGK
    if clamp:
        # keep every node strictly interior, off a (possibly singular) end;
        # a no-op on nodes that are interior already
        xs = np.minimum(np.maximum(xs, np.nextafter(a, b)[:, None]), np.nextafter(b, a)[:, None])
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
    narrow = _NARROW * max(abs(cuts[0]), abs(cuts[-1]))
    # panel i is [lo[i], hi[i]] with Kronrod value vals[i] and error errs[i];
    # live[i] turns False when it is split.  The live panels not on the heap
    # are those accepted as-is at minimum width.
    lo: list = []
    hi: list = []
    vals: list = []
    errs: list = []
    live: list = []
    heap: list = []   # (-errs[i], i); the index breaks ties in push order
    nodes = 0
    err_total = 0.0
    done_err = 0.0    # error frozen into accepted panels; a floor on err_total
    value_run = 0j    # running integral, for the roundoff floor on tol
    stuck = False

    def push(a: list, b: list, narrowest: float):
        """Evaluate the panels [a[i], b[i]], none narrower than
        ``narrowest``, and add them to the heap."""
        nonlocal nodes, err_total, value_run
        v, e = _gk_panels(f, np.array(a), np.array(b), narrowest <= narrow)
        v, e = v.tolist(), e.tolist()
        first = len(errs)
        lo.extend(a)
        hi.extend(b)
        vals.extend(v)
        errs.extend(e)
        live.extend([True] * len(e))
        for i, err in enumerate(e, first):
            heapq.heappush(heap, (-err, i))
        nodes += 15 * len(e)
        err_total += math.fsum(e)
        value_run += sum(v)

    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        # the initial mesh goes in slices the size of one full round's children
        a, b, width = cuts[:-1], cuts[1:], 2 * _ROUND_CAP
        for i in range(0, len(a), width):
            push(a[i:i + width], b[i:i + width],
                 min(map(operator.sub, b[i:i + width], a[i:i + width])))
        while not stuck and heap:
            target = max(tol, _REL_FLOOR * abs(value_run))
            if err_total <= target:
                # the running total carries rounding from the early, large
                # errors; confirm on the exact sum before stopping
                err_total = math.fsum(compress(errs, live))
                if err_total <= target:
                    break
            if nodes + 30 > budget:
                break
            cap = min(_ROUND_CAP, (budget - nodes) // 30)
            split = []
            shed = 0.0
            narrowest = math.inf   # of the split panels
            while heap and len(split) < cap and shed < err_total - target:
                i = heapq.heappop(heap)[1]
                w = hi[i] - lo[i]
                if w <= min_width:
                    done_err += errs[i]
                    stuck = done_err > tol   # the floor alone exceeds tol: unreachable
                    if stuck:
                        break
                    continue
                split.append(i)
                live[i] = False
                shed += errs[i]
                if w < narrowest:
                    narrowest = w
            if not split:
                break
            a = [lo[i] for i in split]
            b = [hi[i] for i in split]
            mid = [0.5 * (x + y) for x, y in zip(a, b)]
            err_total -= shed
            value_run -= sum([vals[i] for i in split])
            # a child is half its parent, give or take an ulp
            push(a + mid, mid + b, 0.49 * narrowest)

    kept = list(compress(vals, live))
    value = complex(math.fsum(v.real for v in kept), math.fsum(v.imag for v in kept))
    # the rule-disagreement estimate is blind to accumulation roundoff, so
    # the reported estimate is floored at roundoff on the panel magnitudes
    floor = _REL_FLOOR * math.fsum(map(abs, kept))
    err_total = max(math.fsum(compress(errs, live)), floor)
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
                     points=()) -> QuadratureResult:
    """Adaptive integral of f over [a, b] to absolute tolerance tol;
    ``points`` are interior breakpoints of the initial mesh."""
    check_tol(tol)
    if not (b > a):
        raise EvaluationError(f"integration interval is empty: [{a}, {b}]")
    cuts = [a, 0.5 * (a + b), b]
    if np.size(points):
        cuts = _mesh(cuts, points)
    return _adaptive(_first_batch(f), cuts, tol, _BUDGET)


def integrate_semi_infinite(f: Callable, tol: float = 1e-10, points=()) -> QuadratureResult:
    """Adaptive integral of f over (0, inf) to absolute tolerance tol.

    Maps t = u/(1-u) onto u in (0, 1); the Jacobian 1/(1-u)^2 is folded into
    the transformed integrand.  t = 0 is never requested.  ``points`` are
    interior breakpoints of the initial mesh, given in t.
    """
    check_tol(tol)
    g = _first_batch(f)
    cuts = [0.0, 0.5, 0.9, 0.99, 1.0]
    if np.size(points):
        with np.errstate(invalid="ignore", divide="ignore"):   # t <= 0, t = inf map outside (0, 1)
            ts = np.asarray(points, dtype=np.float64)
            cuts = _mesh(cuts, ts / (1.0 + ts))

    def fu(us: np.ndarray) -> np.ndarray:
        return np.asarray(g(us / (1.0 - us)), dtype=np.complex128) / (1.0 - us) ** 2

    return _adaptive(fu, cuts, tol, _BUDGET)
