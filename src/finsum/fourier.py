"""Finite-sum evaluation through the Fourier transform.

Summing the inverse transform of G over the integer lattice turns the sum
into (1/2pi) * integral over the real line of G(x) times the lattice factor
D_N(x) = Sigma_{k=1}^{N} exp(i x k).  D_N is 2pi-periodic, so the integral
folds onto one period: (1/2pi) * integral over [-pi, pi] of P(x) * D_N(x),
where P(x) = Sigma_m G(x + 2 pi m) is the Poisson-summed transform.  Over a
finite period nothing is truncated.  Every P in the table is even, so the
odd imaginary part of D_N integrates to zero and the period folds once
more onto its half: (1/pi) * integral over [0, pi] of P(x) * Re D_N(x).

Re D_N(x) = (sin(omega x)/sin(x/2) - 1)/2 with omega = N + 1/2: the
Dirichlet kernel.  Taking P(0) out of P leaves a smooth amplitude and one
pure oscillation:

    Sigma_{k=1}^{N} g(k) = (1/pi) * integral_0^pi h(x) sin(omega x) dx
                           + (P(0) - g(0))/2,
    h(x) = (P(x) - P(0)) / (2 sin(x/2)),

because (1/pi) integral_0^pi P = g(0) and (1/pi) integral_0^pi
sin(omega x)/sin(x/2) dx = 1.  (P(0) - g(0))/2 is the whole series
Sigma_{k>=1} g(k); the integral is minus its tail beyond N.  h is smooth on
[0, pi] for every pair in the table, so one Levin collocation rule
integrates it at every N (Levin, Math. Comp. 38, 1982; Olver, Numer. Math.
114, 2010): the integral is Im[p(pi) exp(i omega pi) - p(0)] for the
polynomial p that solves p' + i omega p = h at the Gauss-Chebyshev points
of [0, pi].  Those points are interior, so h is never evaluated at its
removable 0/0 at x = 0, and the cost does not grow with N.

The transform table is deliberately tiny -- Gaussian and Lorentzian families
under the convention G(x) = integral g(t) exp(-i x t) dt, each with its
folded transform in closed form -- plus their finite linear combinations.
It reads the terms of ``kernels.decompose``, as the Laplace catalog and the
identity catalog do.  The lattice factor itself, ``dirichlet_factor``, is
kept for comparison with its phase-free simplification
sin(x N/2)/sin(x/2); the latter drops the phase exp(i x (N+1)/2) and does
not reproduce the sums, so nothing computes with it by default.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import backend
from .errors import CapabilityError
from .kernels import GAUSS, decompose
from .series import Diagnostics, SumResult, check_count, check_tol
from .stable import TWO_PI, reduce_angle

_LOG_EPS = -math.log(np.finfo(float).eps)
# collocation degrees of the Levin rule: the first two always run, and each
# later one doubles the last while the two latest still disagree
_DEGREES = (24, 32, 64, 128, 256)
# the estimate's roundoff floor, per unit of |P(0)| + |g(0)| + |sum|
_ROUNDOFF = 50.0 * float(np.finfo(float).eps)


class DirichletForm(str, Enum):
    EXACT = "exact"
    PHASE_FREE = "phase-free"


def dirichlet_factor(alpha: float, n_terms: int,
                     form: DirichletForm = DirichletForm.EXACT) -> complex:
    """The lattice factor Sigma_{k=1}^{N} exp(i alpha k) (or its phase-free cousin)."""
    n_terms = check_count(n_terms)
    form = DirichletForm(form)
    d, m = reduce_angle(float(alpha))
    if form is DirichletForm.EXACT:
        # exp(i alpha k) == exp(i d k) exactly at integer k
        return complex(backend.dirichlet_grid(d, n_terms))
    # sin(alpha N/2)/sin(alpha/2) via the reduced angle:
    # sin(pi m N + d N/2) = (-1)^(mN) sin(dN/2), sin(pi m + d/2) = (-1)^m sin(d/2)
    amp = float(backend.dirichlet_amplitude(d, n_terms))
    return complex(-amp if (m * (n_terms - 1)) % 2 else amp)


@dataclass(frozen=True)
class FourierPair:
    """The transform of g and its Poisson sum over one period.

    ``periodic`` is Sigma_m transform(alpha + 2 pi m), for alpha in [-pi, pi].
    It must be even, periodic(-alpha) == periodic(alpha): the route
    integrates it over [0, pi] only.  Every pair in the table is.  ``g0`` is
    g(0) and ``p0`` is periodic(0), the two constants the route takes out of
    the integral.
    """

    transform: Callable
    periodic: Callable
    label: str
    g0: complex
    p0: complex


def _gaussian_pair(weight, a: float) -> FourierPair:
    root = math.sqrt(math.pi / a)
    # relative to the m = 0 term, the first dropped term (|m| = M + 1) is
    # largest at |alpha| = pi, where it is exp(-pi^2 M (M+1) / a): keep the
    # smallest M that puts this below eps
    terms = math.ceil(0.5 * (math.sqrt(1.0 + 4.0 * a * _LOG_EPS / math.pi ** 2) - 1.0))
    shifts = TWO_PI * np.arange(-terms, terms + 1)

    def transform(al):
        return weight * root * np.exp(-np.asarray(al) ** 2 / (4.0 * a))

    def periodic(al):
        x = np.asarray(al)[..., None] + shifts
        return weight * root * np.exp(-x * x / (4.0 * a)).sum(axis=-1)

    return FourierPair(transform, periodic, f"gaussian(a={a})", weight,
                       np.asarray(periodic(0.0)).item())


def _lorentzian_pair(weight, a: float) -> FourierPair:
    scale = math.pi / a
    # Sigma_m exp(-a|alpha + 2 pi m|) in closed form; the same as
    # cosh(a(pi - |alpha|))/sinh(a pi), which overflows once a pi > 710
    fold = scale / -math.expm1(-TWO_PI * a)

    def transform(al):
        return weight * scale * np.exp(-a * np.abs(np.asarray(al)))

    def periodic(al):
        x = np.abs(np.asarray(al))
        return weight * fold * (np.exp(-a * x) + np.exp(-a * (TWO_PI - x)))

    return FourierPair(transform, periodic, f"lorentzian(a={a})", weight / (a * a),
                       np.asarray(periodic(0.0)).item())


def _combine(pairs: list[FourierPair]) -> FourierPair:
    if len(pairs) == 1:
        return pairs[0]

    def transform(al):
        return sum(p.transform(al) for p in pairs)

    def periodic(al):
        return sum(p.periodic(al) for p in pairs)

    return FourierPair(transform, periodic, " + ".join(p.label for p in pairs),
                       sum(p.g0 for p in pairs), sum(p.p0 for p in pairs))


def recognize_fourier(expression) -> FourierPair:
    """Look the expression up in the transform table (linear combinations
    allowed): text, a tree, or the terms ``kernels.decompose`` returned."""
    pairs = []
    for coeff, factors in decompose(expression):
        if coeff.imag == 0:
            coeff = coeff.real    # a real weight keeps P real
        lorentz = [(param, mult) for (kind, param), mult in factors.items()
                   if kind == "lorentz"]
        if set(factors) == {GAUSS} and not lorentz:
            c = factors[GAUSS]
            if abs(c.imag) > 1e-14 * abs(c) or c.real >= 0:
                raise CapabilityError(
                    f"Gaussian exponent {c} is not negative real; no transform in the table")
            pairs.append(_gaussian_pair(coeff, -c.real))
        elif lorentz and set(factors) == {("lorentz", lorentz[0][0])} and lorentz[0][1] == 1:
            pairs.append(_lorentzian_pair(coeff, lorentz[0][0]))
        else:
            names = ", ".join(sorted(kind for (kind, _p) in factors)) or "constant"
            raise CapabilityError(
                f"no Fourier pair for a term with factors [{names}]; the table "
                "holds Gaussian and Lorentzian families only")
    if not pairs:
        raise CapabilityError("expression reduced to zero terms; nothing to transform")
    return _combine(pairs)


class _Rule:
    """The Levin rule of one collocation degree n on [0, pi].

    ``x`` are the n Gauss-Chebyshev points, all interior, ``t`` the same
    points on [-1, 1], and ``two_sin`` is 2 sin(x/2) there.  ``bary`` are
    the barycentric weights of first-kind points (Trefethen, *Approximation
    Theory and Approximation Practice*, ch. 5), ``deriv_t`` the transposed
    derivative of the interpolant at the points, and ``ends[parity]`` is
    exp(i omega pi) e_pi - e_0 for that parity of N, where e_0 and e_pi
    interpolate from the points to x = 0 and x = pi, and exp(i omega pi)
    is i (-1)^N exactly.  ``fejer`` are the weights of Fejer's first rule on
    the points, divided by pi.
    """

    def __init__(self, n: int):
        theta = (np.arange(n) + 0.5) * (math.pi / n)
        self.t = t = np.cos(theta)
        self.bary = w = np.sin(theta)
        w[1::2] *= -1.0
        gap = t[:, None] - t
        np.fill_diagonal(gap, 1.0)
        deriv = w / w[:, None] / gap
        np.fill_diagonal(deriv, 0.0)
        np.fill_diagonal(deriv, -deriv.sum(axis=1))
        at_zero, at_pi = (w / (end - t) / np.sum(w / (end - t)) for end in (-1.0, 1.0))
        self.x = 0.5 * math.pi * (1.0 + t)
        self.two_sin = 2.0 * np.sin(0.5 * self.x)
        self.deriv_t = (2.0 / math.pi) * deriv.T.astype(complex)
        self.diagonal = np.diag_indices(n)
        self.ends = {parity: (1j * parity) * at_pi - at_zero for parity in (1, -1)}
        k = np.arange(1, n // 2 + 1)
        series = (np.cos(np.outer(theta, 2 * k)) / (4 * k * k - 1)).sum(axis=1)
        self.fejer = (1.0 - 2.0 * series) / n

    def weights(self, omega: float, parity: int) -> np.ndarray:
        """v with Sigma v h(x) = integral_0^pi h(x) sin(omega x) dx for every
        polynomial h of degree below n, omega = N + 1/2.

        Levin's p solves p' + i omega p = h at the points, and the integral
        is Im[p(pi) exp(i omega pi) - p(0)] = Im c.p with c = ends[parity].
        c.p = c.A^-1 h, so one solve with A transposed gives the weights of
        every h.  The polynomial derivative is nilpotent, so A's only
        eigenvalue is i omega and A is never singular.
        """
        a = self.deriv_t.copy()
        a[self.diagonal] += 1j * omega
        return np.linalg.solve(a, self.ends[parity]).imag


_rule = functools.cache(_Rule)


@functools.cache
def _transfer(n: int, m: int) -> np.ndarray:
    """Values at the n points of a rule -> its interpolant at the m points of
    another.  Consecutive degrees of ``_DEGREES`` share no point: (2j+1)/2n =
    (2i+1)/2m has no solution for m = 2n, nor for n = 24, m = 32."""
    src, dst = _rule(n), _rule(m)
    rows = src.bary / (dst.t[:, None] - src.t)
    return rows / rows.sum(axis=1, keepdims=True)


def sum_via_fourier(pair, n_terms: int, tol: float = 1e-9) -> SumResult:
    """Sigma_{k=1}^{N} g(k) as (1/pi) integral_0^pi h(x) sin((N+1/2)x) dx
    + (P(0) - g(0))/2, by Levin collocation (see the module docstring).

    ``pair`` is a FourierPair, an expression tree or expression text.  The
    rule of degree n integrates the interpolant h_n of h exactly, so two
    degrees n < m differ by (1/pi) integral (h_m - h_n) sin(omega x), at most
    (1/pi) integral |h_m - h_n| at every N.  That integral, by Fejer's rule
    on the m points where h_m = h, is the estimate, floored at the roundoff
    ``_ROUNDOFF * (|P(0)| + |g(0)| + |sum|)``.  The rule runs at degrees 24
    and 32, then doubles the degree up to 256 while the estimate exceeds
    both tol and the floor, and flags the result at 256.  Neither the
    degrees nor the estimate depend on N beyond the floor, so ``nodes``,
    the evaluations of P, is the same at every N for a given pair and tol.
    The imaginary part of the result is reported in the diagnostics as
    ``imag_residual`` and flags nothing: it is exactly 0 for the table's
    pairs with real weights, and part of the sum where a weight is complex.
    """
    check_tol(tol)
    if not isinstance(pair, FourierPair):
        pair = recognize_fourier(pair)
    n_terms = check_count(n_terms)
    omega, parity = n_terms + 0.5, -1 if n_terms % 2 else 1
    whole = 0.5 * (pair.p0 - pair.g0)
    scale = abs(pair.p0) + abs(pair.g0)
    nodes, previous, converged = 0, None, False
    for degree in _DEGREES:
        rule = _rule(degree)
        amplitude = (pair.periodic(rule.x) - pair.p0) / rule.two_sin
        nodes += degree
        if previous is None:
            previous = amplitude
            continue
        gap = amplitude - _transfer(previous.size, degree) @ previous
        change = float(rule.fejer @ np.abs(gap))
        # the floor needs |sum|; |P(0)| + |g(0)| bounds it until the one
        # solve, at the degree that stops, gives the sum itself
        if change <= max(tol, _ROUNDOFF * scale):
            converged = True
            break
        previous = amplitude
    value = complex(rule.weights(omega, parity) @ amplitude) / math.pi + whole
    floor = _ROUNDOFF * (scale + abs(value))
    converged = converged or change <= floor
    diag = Diagnostics(nodes=nodes, converged=converged,
                       notes={"imag_residual": abs(value.imag), "pair": pair.label})
    return SumResult(value=value, method="fourier", error_estimate=max(change, floor),
                     diagnostics=diag)
