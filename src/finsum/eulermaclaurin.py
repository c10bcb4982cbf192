"""Euler-Maclaurin lattice summation and its tail-estimator specialization.

The lattice sum of f over a, a+h, ..., b is the integral plus endpoint
corrections weighted by even-index Bernoulli numbers; the first omitted
correction bounds the remainder.  ``em_sum`` sums the first ``HEAD`` lattice
points directly, where the derivatives are largest and the formula weakest,
and applies it to the tail from a + HEAD*h on; a lattice of at most ``HEAD``
points is the direct sum alone.  Derivatives are taken by jet arithmetic,
one jet over every point a sum needs, unless the caller supplies them
analytically.  ``em_tail`` is the one-sided version, the sum past m, from
one scalar jet at m; its caller supplies the integral that stands in for
the one past m.  The telescoping route passes the integral of g over its
finite window [m, m+N], for f(x) = g(x) - g(x+N), and its tolerance as
``need``, so that no integral is taken where the correction term alone
already misses it.  ``gregory_tail`` finishes the same window for an f
that jets cannot differentiate, with forward differences of four lattice
values in place of the derivatives (Gregory's formula), under the same
``need``; ``gregory_value`` finishes a window it skipped.
``decay_breakpoints`` seeds both routes' integrals at the decay length that
lattice values they hold show (QUADPACK's QAGP breakpoints), so that the
first nodes on a long span do not all fall past the mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import jets
from .errors import CapabilityError, EvaluationError, PreconditionError
from .quadrature import _array_form, integrate_finite
from .series import Diagnostics, SumResult, check_count, check_tol
from .special import bernoulli

_EPS = 2.220446049250313e-16
# lattice points em_sum sums directly, and the telescope's first checkpoint
HEAD = 16
_CURVATURE_SAMPLES = 17
# gregory_tail: each term must be at most this fraction of the one before it
_GREGORY_RATIO = 0.25
# em_tail and gregory_tail charge their first omitted term this many times over
_SAFETY = 2.0


@dataclass(frozen=True)
class EMJob:
    """A lattice-summation request: f on [a, b] in m steps, corrections to order n.

    ``derivative(x, order)`` overrides jet differentiation when given; it must
    serve orders up to 2n (odd orders for the corrections, order 2n for the
    remainder bound).
    """

    f: Callable
    a: float
    b: float
    m: int
    n: int = 3
    derivative: Callable | None = None

    def __post_init__(self):
        if not self.b > self.a:
            raise PreconditionError(f"need b > a, got [{self.a}, {self.b}]")
        object.__setattr__(self, "m", check_count(self.m, "subinterval count"))
        object.__setattr__(self, "n", check_count(self.n, "correction order"))

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.m


# what a closure that cannot take a jet raises on one
_NO_JET = (TypeError, AttributeError, ZeroDivisionError)


def _cannot_differentiate(x: float, order: int, e: Exception) -> CapabilityError:
    return CapabilityError(f"cannot differentiate f at x={x} to order {order}: {e}; "
                           "supply derivative= analytically")


def _derivative_at(job: EMJob, x: float, order: int) -> complex:
    if order == 0:
        return complex(job.f(x))
    if job.derivative is not None:
        return complex(job.derivative(x, order))
    try:
        jet = jets.Jet.variable(complex(x), order)
        return job.f(jet).derivative(order)
    except _NO_JET as e:
        raise _cannot_differentiate(x, order, e) from None


def _derivatives(job: EMJob, xs: list[float], order: int) -> Callable:
    """at(i, j) -> f^(j)(xs[i]), for j up to order, from one jet of that order.

    The jet is over the array of points (numpy in place of cmath for the
    value parts).  With derivative= given, when f raises on that batch or
    when any derivative it gives is not finite, at() takes the per-point
    path instead, call for call in the caller's order, so that its errors
    and its overflow behaviour are the ones reported.
    """
    def per_point(i, j):
        return _derivative_at(job, xs[i], j)

    if job.derivative is not None:
        return per_point
    x = np.array(xs, dtype=np.complex128)
    try:
        with np.errstate(all="ignore"):
            jet = job.f(jets.Jet.variable(x, order))
            table = np.array([np.broadcast_to(jet.derivative(j), x.shape)
                              for j in range(order + 1)], dtype=np.complex128)
    except Exception:  # whatever f raised, the per-point path replays
        return per_point
    if not np.all(np.isfinite(table)):
        return per_point
    return lambda i, j: complex(table[j, i])


def decay_breakpoints(values, step: float, start: float, stop: float) -> list[float]:
    """Breakpoints start + L*2^j inside (start, stop) for the integral of a
    function whose lattice values, step apart, end near start; none unless
    the decay length L they show is under an eighth of stop - start.

    L is read from the envelope: the largest magnitude in the first and in
    the last half of values, so that an oscillation whose period is under
    half their number does not pass for a decay or hide one.
    """
    mags = np.abs(values)
    half = mags.size // 2
    if not half:
        return []
    early, late = float(mags[:half].max()), float(mags[-half:].max())
    if not late < early:
        return []
    length = (mags.size - half) * step / math.log(early / max(late, _EPS * early))
    if not length < (stop - start) / 8:
        return []
    return [start + length * 2.0 ** j
            for j in range(int(math.log2((stop - start) / length)) + 1)]


def _head(job: EMJob, size: int) -> np.ndarray:
    """f at the first size lattice points, in one call on their array
    (point by point where f rejects arrays), b the last when size takes all."""
    xs = job.a + job.h * np.arange(size, dtype=float)
    if size == job.m + 1:
        xs[-1] = job.b
    with np.errstate(all="ignore"):
        _, values = _array_form(job.f, xs)
    values = np.asarray(values, dtype=np.complex128)
    finite = np.isfinite(values)
    if not finite.all():
        raise EvaluationError("summand is not finite", at=f"x={float(xs[np.argmin(finite)])!r}")
    return values


def em_sum(job: EMJob, quad_tol: float = 1e-13) -> SumResult:
    """Sigma of f over the lattice a, a+h, ..., b (both endpoints included).

    The first ``HEAD`` points are summed directly, by ``math.fsum`` per
    component, with the rounding estimate 2*eps*Sigma|f| of the oracle
    (``series.direct_sum``); a lattice of at most ``HEAD`` points is that sum
    alone, and at ``HEAD`` + 1 points the tail is the single f(b), summed
    with them.  Euler-Maclaurin takes the tail a + HEAD*h, ..., b, its
    integral seeded by ``decay_breakpoints`` of the head.  notes["head"] is
    the number of points summed directly, notes["breakpoints"] the number
    of seeded breakpoints.  A non-finite head value is an EvaluationError
    that names its x.
    """
    check_tol(quad_tol, "quad_tol")
    size = job.m + 1 if job.m <= HEAD else HEAD
    values = _head(job, size)
    head = complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))
    rounding = 2.0 * _EPS * float(np.abs(values).sum())
    notes = {"lattice_points": job.m + 1, "head": size, "breakpoints": 0}
    if size == job.m + 1:
        return SumResult(value=head, method="euler-maclaurin", error_estimate=rounding,
                         diagnostics=Diagnostics(notes=notes))
    step = job.h
    job = replace(job, a=job.a + HEAD * step, m=job.m - HEAD)
    h = job.h
    points = decay_breakpoints(values, step, job.a, job.b)
    notes["breakpoints"] = len(points)
    quad = integrate_finite(job.f, job.a, job.b, tol=quad_tol, points=points)
    value = head + quad.value / h + 0.5 * (complex(job.f(job.a)) + complex(job.f(job.b)))
    # the curvature samples include both endpoints, so one jet of order 2n
    # over them also gives the odd derivatives of the corrections
    last = _CURVATURE_SAMPLES - 1
    xs = [job.a] + [job.a + (job.b - job.a) * i / last for i in range(1, last)] + [job.b]
    at = _derivatives(job, xs, 2 * job.n)
    for k in range(1, job.n):
        b2k = float(bernoulli(2 * k))
        diff = at(last, 2 * k - 1) - at(0, 2 * k - 1)
        value += b2k * h ** (2 * k - 1) * diff / math.factorial(2 * k)

    # remainder: |h^(2n) B_2n / (2n)!| per step, against the worst curvature;
    # a nan or inf sample voids the bound rather than being skipped by max
    b2n = abs(float(bernoulli(2 * job.n)))
    curvature = [abs(at(i, 2 * job.n)) for i in range(_CURVATURE_SAMPLES)]
    worst = max(curvature) if all(map(math.isfinite, curvature)) else math.inf
    error = h ** (2 * job.n) * b2n / math.factorial(2 * job.n) * job.m * worst
    error += quad.abs_error_estimate / h + rounding

    diag = Diagnostics(nodes=quad.nodes_used, converged=quad.converged and math.isfinite(worst),
                       notes=notes)
    return SumResult(value=value, method="euler-maclaurin",
                     error_estimate=error, diagnostics=diag)


def em_tail(f: Callable, m: float, n: int = 3, need: float = math.inf, *,
            integral: Callable):
    """(value, bound) with value approximating Sigma_{j>=1} f(m + j).

    integral is called with no arguments for the QuadratureResult that
    stands in for integral_m^inf f, and

        value = integral - f(m)/2 - Sigma_{k=1}^{n-1} B_2k f^(2k-1)(m)/(2k)!

    bound is twice the magnitude of the first omitted correction term,
    |B_2n f^(2n-1)(m)/(2n)!|, plus the quadrature's error estimate: on a
    damped oscillation f = e^{-ax}, Im a > Re a > 0, the remainder exceeds
    that term by about 1/(1 - (|a|/2pi)^2).  For f(x) = g(x) - g(x+N) and
    the integral of g over the window [m, m+N], value is Euler-Maclaurin for
    Sigma_{k=m+1}^{m+N} g(k).  That window integral needs no decay of g,
    but the bound holds only while g's next even derivative keeps one sign
    on the window, since the remainder is the integral of the periodic
    Bernoulli function times it.  It fails for a g periodic on the lattice
    (cos(2*pi*k)): f and its derivatives vanish at m, so value is the
    window integral alone and bound is about 0, with the oscillating part
    of the window sum missing.

    need is the bound the caller could use: when it is finite and the
    doubled correction term alone is already at least need, no bound this
    call returns can meet it, so the integral is not taken and (None, that
    term) comes back.
    """
    n = check_count(n, "correction order")
    # derivatives first: an f that jets cannot differentiate is refused
    # before any quadrature is spent on it
    try:
        jet = f(jets.Jet.variable(complex(m), 2 * n - 1))
        odd = [jet.derivative(2 * k - 1) for k in range(1, n + 1)]
    except _NO_JET as e:
        # the cause tells a g that rejects every jet (TypeError,
        # AttributeError) from one that fails at this point
        raise _cannot_differentiate(m, 1, e) from e
    corrections = [float(bernoulli(2 * k)) * odd[k - 1] / math.factorial(2 * k)
                   for k in range(1, n)]
    bound = _SAFETY * abs(float(bernoulli(2 * n)) * odd[-1] / math.factorial(2 * n))
    if need < math.inf and bound >= need:
        return None, bound
    quad = integral()
    value = quad.value - 0.5 * complex(f(m))
    for c in corrections:
        value -= c
    return value, bound + quad.abs_error_estimate


def gregory_tail(m: float, lattice, need: float = math.inf, *, integral: Callable):
    """(value, bound) with value approximating Sigma_{j>=1} f(m + j), no derivatives.

    Gregory's formula: Euler-Maclaurin with the derivatives at m replaced by
    forward differences of lattice = f(m), f(m+1), f(m+2), f(m+3),

        value = integral - f(m)/2 - Delta f(m)/12 + Delta^2 f(m)/24,

    and bound is twice the first omitted term, 19/720 |Delta^3 f(m)|, plus
    the quadrature's error estimate (Davis & Rabinowitz, Methods of
    Numerical Integration, on Gregory's rule).  integral stands in for
    integral_m^inf f as in em_tail, so for f(x) = g(x) - g(x+N) and the
    integral of g over [m, m+N], value is Gregory's sum of g over
    m+1..m+N.  The differences stand in for derivatives only while they
    shrink, so CapabilityError is raised, before integral is called, unless
    each term of f(m)/2, Delta f/12, Delta^2 f/24, 19 Delta^3 f/720 is at
    most a quarter of the one before it.

    need is the bound the caller could use, as in em_tail: when it is
    finite and the doubled term 2*19/720 |Delta^3 f(m)| alone is already at
    least need, integral is not called and (None, that term) comes back.
    The caller can still finish the window later, from the same lattice and
    one quadrature, with gregory_value.
    """
    f0, d1, d2, d3 = _differences(lattice)
    terms = [abs(f0) / 2, abs(d1) / 12, abs(d2) / 24, 19 * abs(d3) / 720]
    if any(later > _GREGORY_RATIO * earlier for earlier, later in zip(terms, terms[1:])):
        raise CapabilityError(f"forward differences of f at {m} do not shrink "
                              "fast enough to stand in for derivatives")
    bound = _SAFETY * terms[3]
    if need < math.inf and bound >= need:
        return None, bound
    quad = integral()
    return gregory_value(lattice, quad), bound + quad.abs_error_estimate


def gregory_value(lattice, quad) -> complex:
    """Gregory's value of gregory_tail, from its lattice and the
    QuadratureResult its integral returns."""
    f0, d1, d2, _ = _differences(lattice)
    return quad.value - 0.5 * f0 - d1 / 12 + d2 / 24


def _differences(lattice):
    """f(m) and its forward differences Delta, Delta^2, Delta^3 from the
    lattice f(m), f(m+1), f(m+2), f(m+3)."""
    f0, f1, f2, f3 = (complex(v) for v in lattice)
    return f0, f1 - f0, f2 - 2.0 * f1 + f0, f3 - 3.0 * f2 + 3.0 * f1 - f0
