"""Telescoping evaluation of finite sums, plus the zeta shortcut for powers.

The finite sum of g equals the infinite sum of differences
d(k) = g(k) - g(N+k): each g(N+k) cancels a later g(k), so only the first N
survive.  That trades a finite sum for an infinite-but-collapsing one, which
pays off when d decays fast while g itself does not (the separate sums may
even diverge, as with 1/k).  The truncation policy is ours: partial sums at
doubling depth M with the remaining tail finished by one-sided
Euler-Maclaurin on d, falling back to Aitken extrapolation of the partials
when d cannot be differentiated.

Constants expose the method's precondition: their differences vanish
identically while the sum is N*c, so the result cannot be certified and is
flagged instead of silently wrong.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapabilityError, DomainError, EvaluationError
from .eulermaclaurin import em_tail
from .quadrature import _vectorize
from .series import Diagnostics, SumResult, check_count
from .special import hurwitz_zeta, riemann_zeta

_START_DEPTH = 8
_EM_ORDER = 3


def telescoping_sum(g, n_terms: int, tol: float = 1e-10,
                    max_terms: int = 1 << 17) -> SumResult:
    """Sigma_{k=1}^{N} g(k) via the collapsing differences g(k) - g(N+k)."""
    n_terms = check_count(n_terms)
    max_terms = check_count(max_terms, "max_terms")

    def d(t):
        return g(t) - g(t + n_terms)

    def d_at(t):
        """d, naming the index k of a scalar difference that fails."""
        if isinstance(t, np.ndarray):
            return d(t)
        try:
            return d(t)
        except Exception as exc:
            raise EvaluationError(f"difference failed to evaluate: {exc}",
                                  at=f"k={int(t)}") from exc

    with np.errstate(all="ignore"):
        dv = _vectorize(d_at, np.array([1.0, 2.0]))

    def diffs(lo, hi):
        """d(k) for k = lo..hi in one call; EvaluationError at the first bad k."""
        with np.errstate(all="ignore"):
            out = np.asarray(dv(np.arange(lo, hi + 1, dtype=float)), dtype=np.complex128)
        finite = np.isfinite(out)
        if not finite.all():
            raise EvaluationError("difference is not finite", at=f"k={lo + int(np.argmin(finite))}")
        return out

    vals = np.empty(0, dtype=np.complex128)  # d(1), ..., d(depth)
    partials = []  # partial sums at each doubling checkpoint
    peak = 0.0  # running max of |d(k)| over the prefix
    depth = 0
    m = min(_START_DEPTH, max_terms)
    converged = False
    strategy = "euler-maclaurin"
    tail = 0j
    tail_bound = math.inf

    while True:
        block = diffs(depth + 1, m)
        vals = np.concatenate((vals, block))
        peak = max(peak, float(np.abs(block).max()))
        depth = m
        partial = complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))
        partials.append(partial)

        window = np.abs(diffs(depth, depth + 3)).tolist()
        scale = max(1.0, abs(partial))
        if max(window) <= 1e-15 * scale:
            # differences have died out; is it genuine collapse or a flat g?
            if abs(complex(g(float(n_terms + depth)))) > tol * scale:
                # g does not decay, so nothing was telescoped into the partials
                diag = Diagnostics(nodes=vals.size, truncation_index=depth,
                                   converged=False,
                                   notes={"reason": "differences vanish but g does not decay"})
                return SumResult(value=partial, method="telescope",
                                 error_estimate=math.inf, diagnostics=diag)
            converged = True
            tail = 0j
            tail_bound = max(window)
            break

        if max(window) > 0.25 * peak:
            # the differences are still at full strength (oscillatory or
            # growing g): the tail integral would not exist, so go straight
            # to extrapolating the checkpoint partials.  No extrapolant can
            # be trusted below the size of the terms still being added.
            strategy = "extrapolation"
            tail, tail_bound = _aitken_tail(partials)
            tail_bound = max(tail_bound, max(window))
        else:
            try:
                tail, tail_bound = em_tail(d, float(depth), _EM_ORDER,
                                           quad_tol=min(tol, 1e-12))
                strategy = "euler-maclaurin"
            except (CapabilityError, DomainError, EvaluationError):
                # no jet derivatives, or the tail integral misbehaves anyway
                strategy = "extrapolation"
                tail, tail_bound = _aitken_tail(partials)

        if tail_bound < tol:
            converged = True
            break
        if m >= max_terms:
            break
        m = min(2 * m, max_terms)

    value = partials[-1] + tail
    diag = Diagnostics(nodes=vals.size, truncation_index=depth, converged=converged,
                       notes={"strategy": strategy, "tail_bound": float(tail_bound)})
    return SumResult(value=value, method="telescope",
                     error_estimate=float(tail_bound), diagnostics=diag)


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
