"""Bernoulli numbers, the gamma function, and Hurwitz/Riemann zeta.

Bernoulli numbers are exact rationals from the defining recurrence

    sum_{j=0}^{n} C(n+1, j) B_j = 0,   B_0 = 1,

which fixes B_1 = -1/2.  Hurwitz zeta uses the tail-corrected form

    zeta(s, a) = sum_{j=0}^{M-1} (j+a)^(-s) + (M+a)^(1-s)/(s-1)
                 + (M+a)^(-s)/2
                 + sum_{k>=1} B_{2k}/(2k)! * (s)_{2k-1} * (M+a)^(-s-2k+1)

with M grown adaptively until the first omitted correction term is below
tolerance (correction count capped at 15 per evaluation).  M starts near
0.25*s, where the correction terms shrink; for s > 64 it starts no later
than the head's own terms fall below tol^2 of the first, so a steep power
such as s = 1e10 sums one term and not 2.5e9.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import backend
from .errors import CapabilityError, DomainError

BERNOULLI_MAX = 60

_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (convention B_1 = -1/2)."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"Bernoulli index must be a nonnegative integer, got {n!r}")
    if n > BERNOULLI_MAX:
        raise CapabilityError(f"Bernoulli table is capped at index {BERNOULLI_MAX}, got {n}")
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * _bernoulli_cache[j]
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


def bernoulli_table(n_max: int) -> list[Fraction]:
    """B_0 .. B_{n_max} as exact rationals."""
    bernoulli(n_max)
    return list(_bernoulli_cache[: n_max + 1])


def gamma_fn(s: float) -> float:
    """Gamma(s) for real s > 0."""
    if not (s > 0.0):
        raise DomainError(f"gamma_fn requires s > 0, got {s!r}")
    return math.gamma(s)


# the exponent from which the head is sized by the decay of its terms; every
# s below it keeps the head of 0.25*s + 6 terms
_STEEP = 64.0


def hurwitz_zeta(s: float, a: float, tol: float = 1e-14) -> float:
    """zeta(s, a) = sum_{j>=0} (j+a)^(-s) for real s > 1, a > 0."""
    if not (s > 1.0):
        raise DomainError(f"hurwitz_zeta requires s > 1, got {s!r}")
    if not (a > 0.0):
        raise DomainError(f"hurwitz_zeta requires a > 0, got {a!r}")

    # The correction terms shrink while 2*pi*(M+a) comfortably exceeds s.
    m = max(0, math.ceil(max(10.0, 0.25 * s + 6.0) - a))
    if s > _STEEP:
        # Past q = a * tol^(-2/s) the terms are below tol^2 of the first,
        # and the tail with its first correction term goes with them, so
        # the head ends there when that is sooner; q > 1 keeps q^(1-s) finite.
        m = min(m, max(1, math.ceil(a * tol ** (-2.0 / s) - a)))
    while True:
        q = m + a
        head = backend.hurwitz_head(s, a, m)
        value = head + q ** (1.0 - s) / (s - 1.0) + 0.5 * q ** (-s)
        scale = max(abs(value), q ** (-s))
        poch = s                      # (s)_{2k-1} for k = 1
        qpow = q ** (-s - 1.0)        # q^(1-s-2k) for k = 1
        converged = False
        prev = math.inf
        for k in range(1, 16):
            term = float(bernoulli(2 * k)) / math.factorial(2 * k) * poch * qpow
            if abs(term) > prev:      # asymptotic series turned; need a larger M
                break
            value += term
            prev = abs(term)
            if abs(term) <= tol * scale:
                converged = True
                break
            poch *= (s + 2 * k - 1) * (s + 2 * k)
            qpow /= q * q
        if converged or m > 2_000_000:
            return value
        m = max(2 * m, 16)


def riemann_zeta(s: float, tol: float = 1e-14) -> float:
    """zeta(s) for real s > 1."""
    return hurwitz_zeta(s, 1.0, tol=tol)
