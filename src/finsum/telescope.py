"""Telescoping evaluation of finite sums, plus the zeta shortcut for powers.

The finite sum of g equals the infinite sum of differences
d(k) = g(k) - g(N+k): each g(N+k) cancels a later g(k), so only the first N
survive.  Cut at any depth M, the identity is exact and finite:

    Sigma_{k=1}^{N} g(k) = Sigma_{k<=M} d(k) + Sigma_{k=M+1}^{M+N} g(k),

so the tail past M is a window of N values of g, whatever g does beyond it.
The route sums the differences to doubling depths M, from M = HEAD (16, the
lattice points em_sum sums directly), and finishes each checkpoint's window
by Euler-Maclaurin on [M, M+N]: the integral of g over the window, from one
finite quadrature, with the corrections of d at M,
d^(j)(M) = g^(j)(M) - g^(j)(M+N), which are those of g at both ends of the
window (Apostol, "An elementary view of Euler's summation formula", Amer.
Math. Monthly 1999).  The window integral exists wherever g is smooth on
[M, M+N], whether or not g decays, and a limit c of g is summed inside the
window as N*c.  Its initial mesh is seeded at the decay length of the HEAD
differences d(M-12..M+3) the route holds (``decay_breakpoints``), so that a
long window of a fast decay does not start past its mass.  The bound is
twice the first omitted correction plus the quadrature's error estimate.
It bounds the Euler-Maclaurin remainder only while g's next even
derivative keeps one sign on the window: for a g periodic on the lattice
(cos(2*pi*k)), d and its derivatives vanish at M, and the window sum comes
out as the window integral alone, with an estimate near 0.  A checkpoint
whose first omitted correction is already at least tol takes no window
integral (em_tail's need), except the last, at max_terms, whose tail the
result reports.  When
jets cannot differentiate d, Gregory's formula takes forward differences of
d(M..M+3) in place of the derivatives; its estimate counts only when the
previous checkpoint produced one too, and is no smaller than the two
estimates' disagreement.  gregory_tail takes the same need: a checkpoint
whose doubled Gregory term 2*19/720*|Delta^3 d(M)| is at least tol cannot
converge on that estimate, so its window is deferred.  The route keeps that checkpoint's
depth, its four differences and its partial sum, and integrates the window
only when the next checkpoint compares with it: when the next one's own
Gregory term is below tol, when the next one is the last, or when the next
one is deferred too and Aitken's estimate would converge there.  Such a
checkpoint converges by Aitken only where its window or the previous one
fails, so both are integrated to decide.  The records are those of
integrating every window at its own checkpoint; scalar Lorentzians take 3
windows in place of 6.  Where neither tail serves, or while the window of
differences is still above a quarter of their peak (an oscillating or
growing g), Aitken extrapolation of the partials closes the tail.  The
reported estimate is floored at the rounding of the values that do not
cancel in the evaluated differences.

g is evaluated once per lattice point.  Each checkpoint extends the
differences, through the four-point convergence window past it, with one
call of g on the points k, k+N not seen before; g(k) for k > N was already
evaluated as a g(k'+N) and is carried over.  Only the last N or so values of
g(k+N) are kept, so memory grows with min(N, depth), never with N alone.

The route refuses a g that oscillates or grows, judging that from a
statistic it already holds: E, the largest |g(k+N)| among the values a
checkpoint evaluates for the first time.  Once the depth reaches
max(2N, 1024) (below 2N the g(k+N) sample g only near N), an E that has not
fallen by 1% at two checkpoints in a row ends the run: sin and k^2 stop at
1,024 terms.  So does 1000 + 1/k^2, whose window sums of about 1e4 cannot
be certified to an absolute tol of 1e-10.  The refusal is a non-converged result
with an infinite estimate and notes["reason"] "g does not decay", not a
CapabilityError.  A g whose magnitude still rises past that depth is refused
as well, though its sum may be computable: k*exp(-k/2000) at N=10 peaks at
k=2000; the direct sum serves such g.  A checkpoint whose own Gregory bound
already meets tol is not refused, since only its disagreement with the
previous estimate is left to settle: closures of sqrt(k) and log(k) that
reject arrays and jets certify at the next checkpoint, 2,048.

Every other exit names itself in notes["strategy"]: the tail that certified
or last bounded the sum (euler-maclaurin, gregory, extrapolation), or
died-out when the differences, and g(N + M) with them, fell below 1e-15 of
the partial sum.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import CapabilityError, DomainError, EvaluationError
from . import quadrature
from .eulermaclaurin import HEAD, decay_breakpoints, em_tail, gregory_tail, gregory_value
from .quadrature import _array_form
from .series import Diagnostics, SumResult, check_count, check_tol
from .special import hurwitz_zeta, riemann_zeta

_DECAY_DEPTH = 1024  # no refusal for lack of decay below max(2N, this)
_STALL = 0.99  # a checkpoint's max |g(k+N)| above this times the last one's has not fallen
_EM_ORDER = 3
_EPS = 2.220446049250313e-16


def telescoping_sum(g, n_terms: int, tol: float = 1e-10,
                    max_terms: int = 1 << 17) -> SumResult:
    """Sigma_{k=1}^{N} g(k) via the collapsing differences g(k) - g(N+k)."""
    n_terms = check_count(n_terms)
    max_terms = check_count(max_terms, "max_terms")
    check_tol(tol)
    quad_tol = min(tol, 1e-12)

    gv = None  # g in array form, decided by the first block

    def d(t):
        return g(t) - g(t + n_terms)

    def g_new(points, lo, hi):
        """g at the points that k = lo..hi meets for the first time."""
        nonlocal gv
        try:
            if gv is None:
                gv, out = _array_form(g, points)
                return np.asarray(out)
            return np.asarray(gv(points))
        except Exception:
            if gv is not g:
                # walk the range one difference at a time, so that the error
                # names the same k as separate calls for the checkpoint's own
                # differences (up to hi - 3) and for its window would
                bad = None
                for k in range(lo, hi + 1):
                    if k == hi - 2 and bad is not None:
                        break
                    try:
                        diff = complex(d(float(k)))
                    except Exception as exc:
                        raise EvaluationError(f"difference failed to evaluate: {exc}",
                                              at=f"k={k}") from exc
                    if bad is None and not cmath.isfinite(diff):
                        bad = k
                if bad is not None:
                    raise EvaluationError("difference is not finite", at=f"k={bad}")
            raise

    def window_integral(start):
        """The integral of g over the tail window [start, start + N] of the
        checkpoint at depth start, seeded at the decay length of the HEAD
        differences that end its convergence window; an error of g there is
        an EvaluationError."""
        points = decay_breakpoints(vals[max(0, start + 3 - HEAD):start + 3], 1.0,
                                   float(start), float(start + n_terms))
        try:
            # looked up on the module, where a tracer's wrapper would sit
            return quadrature.integrate_finite(g, float(start), float(start + n_terms),
                                               tol=quad_tol, points=points)
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(f"g failed to evaluate on the tail window: {exc}") from exc

    # after the differences up to k = known: g(k+N) for the last
    # min(known, N) + 3 values of k, which are every g(k+N) that a later k can
    # still meet and g(N + depth) of the window; and the sum of |g(k)| over
    # k <= min(known, N), for the rounding floor
    known = 0
    shifted = None
    low_size = 0.0

    def extend(hi):
        """d(k) for k = known+1..hi, and max |g(k+N)| over the range;
        EvaluationError at the first bad k.

        Only g(k) for k <= N and g(k+N) are new: g(k) for k > N is a g(k'+N)
        of this range or of an earlier one.
        """
        nonlocal known, shifted, low_size
        lo = known + 1
        low = np.arange(lo, min(hi, n_terms) + 1, dtype=float)
        high = np.arange(known + n_terms + 1, hi + n_terms + 1, dtype=float)
        with np.errstate(all="ignore"):
            fresh = g_new(np.concatenate((low, high)), lo, hi)
            g_low, g_high = fresh[:low.size], fresh[low.size:]
            low_size += float(np.abs(g_low).sum())
            if shifted is None:
                shifted = fresh[:0]  # differences are taken in g's own dtype
            # g on max(known, N)+1..hi+N, after up to three older values
            start = shifted.size - min(known, n_terms)
            shifted = np.concatenate((shifted, g_high))
            g_k = np.concatenate((g_low, shifted[start:start + hi - lo + 1 - low.size]))
            out = np.asarray(g_k - g_high, dtype=np.complex128)
        keep = min(hi, n_terms) + 3
        if shifted.size > keep:
            # a copy, so that the block's values are not kept alive through it
            shifted = shifted[-keep:].copy()
        known = hi
        finite = np.isfinite(out)
        if not finite.all():
            raise EvaluationError("difference is not finite", at=f"k={lo + int(np.argmin(finite))}")
        return out, float(np.abs(g_high).max())

    vals = np.empty(0, dtype=np.complex128)  # d(1), ..., d(depth + 3)
    partials = []  # partial sums at each doubling checkpoint
    peak = 0.0  # running max of |d(k)| over the prefix
    depth = 0
    m = min(HEAD, max_terms)
    converged = False
    strategy = "euler-maclaurin"
    tail = 0j
    tail_bound = math.inf
    # the previous checkpoint's Gregory estimate of the sum, or, while its
    # window is not integrated, that window as (depth, lattice, partial)
    previous = None
    high = math.inf  # max |g(k+N)| over the values the checkpoint evaluated
    stalled = 0  # checkpoints in a row at which that did not fall by 1%
    takes_jets = True  # until em_tail finds that g rejects jets

    def settle(estimate):
        """A Gregory estimate, integrating its window if it was deferred;
        None where g fails on that window."""
        if not isinstance(estimate, tuple):
            return estimate
        start, lattice, partial_there = estimate
        try:
            return partial_there + gregory_value(lattice, window_integral(start))
        except EvaluationError:
            return None

    def gregory_integral():
        """The window integral for this checkpoint's Gregory estimate, which
        is compared with the previous one: that is settled first."""
        nonlocal previous
        previous = settle(previous)
        return window_integral(depth)

    while True:
        # the checkpoint's differences and the window d(m..m+3) past it
        block, block_high = extend(m + 3)
        vals = np.concatenate((vals, block))
        last_high, high = high, block_high
        stalled = stalled + 1 if high > _STALL * last_high else 0
        peak = max(peak, float(np.abs(vals[depth:m]).max()))
        depth = m
        partial = complex(math.fsum(vals[:depth].real.tolist()),
                          math.fsum(vals[:depth].imag.tolist()))
        partials.append(partial)

        window = np.abs(vals[depth - 1:]).tolist()
        scale = max(1.0, abs(partial))
        # differences that vanish next to a g(N + depth) that does not (a
        # flat g) have not died out: the tail window holds N*g
        if max(window) <= 1e-15 * scale and abs(shifted[-4]) <= tol * scale:
            converged = True
            strategy = "died-out"
            tail = 0j
            # the tail is bounded as geometric at the window's largest ratio
            # of consecutive magnitudes, when that is below 1
            r = max(b / a if a else (math.inf if b else 0.0) for a, b in zip(window, window[1:]))
            tail_bound = max(window) / (1.0 - r) if r < 1.0 else max(window)
            break

        gregory = None  # this checkpoint's Gregory estimate of the sum
        settled = False  # whether that estimate's own bound met tol
        strategy = "extrapolation"
        if max(window) > 0.25 * peak:
            # the differences are still at full strength (oscillatory or
            # growing g): go straight to extrapolating the checkpoint
            # partials.  No extrapolant can be trusted below the size of the
            # terms still being added.
            tail, tail_bound = _aitken_tail(partials)
            tail_bound = max(tail_bound, max(window))
        else:
            # the tail is g summed over the window [depth, depth + N]; below
            # max_terms a correction term of at least tol skips its integral
            # (tail None), and the last checkpoint, whose tail the result
            # reports, always integrates
            need = tol if m < max_terms else math.inf
            try:
                if takes_jets:
                    try:
                        tail, tail_bound = em_tail(d, float(depth), _EM_ORDER, need=need,
                                                   integral=lambda: window_integral(depth))
                        strategy = "euler-maclaurin"
                    except CapabilityError as exc:
                        # a g that rejects jets rejects them at every
                        # checkpoint; a ZeroDivisionError depends on the point
                        takes_jets = not isinstance(exc.__cause__, (TypeError, AttributeError))
                if strategy != "euler-maclaurin":
                    # no jets: Gregory's formula on the window instead; one
                    # whose term misses tol is deferred (tail None), and its
                    # window is integrated only if the next checkpoint
                    # compares with it
                    lattice = vals[depth - 1:depth + 3]
                    tail, tail_bound = gregory_tail(float(depth), lattice, need=need,
                                                    integral=gregory_integral)
                    if tail is None:
                        # a copy, so that vals is not kept alive through it
                        gregory = (depth, lattice.copy(), partial)
                    else:
                        gregory = partial + tail
                        settled = tail_bound < tol
            except (CapabilityError, EvaluationError):
                pass  # neither tail serves, or g fails on the window
            if isinstance(gregory, tuple):
                # a deferred estimate cannot converge, but Aitken's can: it is
                # the checkpoint's tail where there is no previous estimate or
                # where this window or the previous one fails, so only when
                # it would converge are those windows integrated to decide
                bound = tail_bound
                tail, tail_bound = _aitken_tail(partials)
                if tail_bound < tol and previous is not None:
                    previous = settle(previous)
                    gregory = settle(gregory) if previous is not None else None
                    if gregory is not None:
                        strategy, tail_bound = "gregory", bound  # at least tol
            elif gregory is not None and previous is not None:
                # a Gregory estimate counts only next to the previous
                # checkpoint's, and no closer than the two agree
                strategy = "gregory"
                tail_bound = max(tail_bound, abs(gregory - previous))
            elif strategy == "extrapolation":
                tail, tail_bound = _aitken_tail(partials)
        previous = gregory

        if tail_bound < tol:
            converged = True
            break
        if stalled >= 2 and depth >= max(2 * n_terms, _DECAY_DEPTH) and not settled:
            # below depth 2N the g(k+N) sample g only near N, where a slow
            # decay can look flat (x**-2 at N = 1e9); a Gregory estimate
            # whose own bound met tol waits for the next one to agree
            return _does_not_decay(partial, depth)
        if m >= max_terms:
            break
        m = min(2 * m, max_terms)

    value = partials[-1] + tail
    diag = Diagnostics(nodes=depth, truncation_index=depth, converged=converged,
                       notes={"strategy": strategy, "tail_bound": float(tail_bound)})
    # no tail bound certifies below the rounding of what was evaluated
    # (Higham, ch. 4): each g(j) that enters both as a g(k) and as a g(k'+N)
    # is the same double and cancels, so what remains is the rounding of the
    # first N g(k), of the last N g(k+N) and of each difference
    rounding = _EPS * (low_size + float(np.abs(vals).sum())
                       + float(np.abs(shifted[shifted.size - min(known, n_terms):]).sum()))
    return SumResult(value=value, method="telescope",
                     error_estimate=max(float(tail_bound), rounding), diagnostics=diag)


def _does_not_decay(partial, depth):
    """The refusal: g oscillates or grows, so the partials telescoped nothing."""
    diag = Diagnostics(nodes=depth, truncation_index=depth, converged=False,
                       notes={"reason": "g does not decay"})
    return SumResult(value=partial, method="telescope",
                     error_estimate=math.inf, diagnostics=diag)


def _aitken_tail(partials):
    """Tail correction from the doubling partials, with a defensible bound.

    The extrapolant models the checkpoint increments as geometric with a
    fixed ratio.  That model only holds for algebraically decaying
    differences (block sums over doubling windows then shrink by a constant
    factor); exponential decay shrinks the ratio itself every checkpoint,
    and there the correction overshoots the true tail while looking
    converged.  So the correction is applied only once two consecutive
    increment ratios agree; otherwise nothing is added and the tail is
    bounded by the geometric model at a pessimistically doubled ratio.
    """
    if len(partials) < 3:
        return 0j, math.inf
    s1, s2, s3 = partials[-3], partials[-2], partials[-1]
    d21 = s2 - s1
    d32 = s3 - s2
    denom = d32 - d21
    if denom == 0 or abs(d21) == 0:
        return 0j, math.inf
    ratio = abs(d32) / abs(d21)
    if ratio >= 0.9:
        return 0j, math.inf
    stable = False
    if len(partials) >= 4:
        d10 = s1 - partials[-4]
        if abs(d10) > 0:
            prev_ratio = abs(d21) / abs(d10)
            stable = 0.5 * prev_ratio <= ratio <= 2.0 * prev_ratio
    if not stable:
        cap = min(0.9, 2.0 * ratio)
        return 0j, abs(d32) * cap / (1.0 - cap) + 1e-16 * abs(s3)
    correction = -d32 * d32 / denom
    return correction, abs(correction) * ratio + 1e-16 * abs(s3)


def zeta_power_sum(s: float, n_terms: int) -> SumResult:
    """Sigma_{k=1}^{N} k^(-s) as zeta(s) - zeta(s, N) + N^(-s), for s > 1."""
    if not s > 1:
        raise DomainError(f"need s > 1, got {s}")
    n_terms = check_count(n_terms)
    value = riemann_zeta(s) - hurwitz_zeta(s, float(n_terms)) + float(n_terms) ** (-s)
    diag = Diagnostics(notes={"route": "hurwitz"})
    return SumResult(value=complex(value), method="zeta-power",
                     error_estimate=1e-13 * max(1.0, abs(value)), diagnostics=diag)
