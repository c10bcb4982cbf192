"""Finite-sum evaluation through the Fourier transform.

Summing the inverse transform of G over the integer lattice turns the sum
into (1/2pi) * integral over the real line of G(alpha) times the lattice
factor D(alpha) = Sigma_{k=1}^{N} exp(i alpha k).  D is 2pi-periodic, so the
integral folds onto one period: (1/2pi) * integral over [-pi, pi] of
G_per(alpha) * D(alpha), where G_per(alpha) = Sigma_m G(alpha + 2 pi m) is
the Poisson-summed transform.  Over a finite period nothing is truncated.
Every G_per in the table is even, and D(-alpha) is the conjugate of
D(alpha), so the odd imaginary part of D integrates to zero and the period
folds once more onto its half: (1/pi) * integral over [0, pi] of
G_per(alpha) * Re D(alpha), with
Re D(d) = sin(N d/2) cos((N+1) d/2) / sin(d/2).  The factor is evaluated as
the real amplitude sin(N d/2)/sin(d/2) times the phase exp(i d (N+1)/2)
after exact argument reduction alpha = 2 pi m + d (the reduced angle gives
the same value at every integer k and keeps the evaluation conditioned near
resonances).

The transform table is deliberately tiny -- Gaussian and Lorentzian families
under the convention G(alpha) = integral g(x) exp(-i alpha x) dx, each with
its folded transform in closed form -- plus their finite linear
combinations.  It reads the terms of ``kernels.decompose``, as the Laplace
catalog and the identity catalog do.  The phase-free simplified lattice factor
sin(alpha*N/2)/sin(alpha/2) is kept alongside the exact one for side-by-side
comparison; it drops the phase exp(i alpha (N+1)/2) and does not reproduce
the sums, so nothing computes with it by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import backend, quadrature
from .errors import CapabilityError
from .kernels import GAUSS, decompose
from .series import Diagnostics, SumResult, check_count
from .stable import TWO_PI, reduce_angle

_LOG_EPS = -math.log(np.finfo(float).eps)
_MESH_PANELS = 10_000   # on [0, pi]: 1.5e5 nodes, under a sixth of quadrature._BUDGET


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
    integrates it over [0, pi] only.  Every pair in the table is.
    """

    transform: Callable
    periodic: Callable
    label: str


def _gaussian_pair(weight: complex, a: float) -> FourierPair:
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

    return FourierPair(transform, periodic, f"gaussian(a={a})")


def _lorentzian_pair(weight: complex, a: float) -> FourierPair:
    scale = math.pi / a
    # Sigma_m exp(-a|alpha + 2 pi m|) in closed form; the same as
    # cosh(a(pi - |alpha|))/sinh(a pi), which overflows once a pi > 710
    fold = scale / -math.expm1(-TWO_PI * a)

    def transform(al):
        return weight * scale * np.exp(-a * np.abs(np.asarray(al)))

    def periodic(al):
        x = np.abs(np.asarray(al))
        return weight * fold * (np.exp(-a * x) + np.exp(-a * (TWO_PI - x)))

    return FourierPair(transform, periodic, f"lorentzian(a={a})")


def _combine(pairs: list[FourierPair]) -> FourierPair:
    if len(pairs) == 1:
        return pairs[0]

    def transform(al):
        return sum(p.transform(al) for p in pairs)

    def periodic(al):
        return sum(p.periodic(al) for p in pairs)

    return FourierPair(transform, periodic, " + ".join(p.label for p in pairs))


def recognize_fourier(expression) -> FourierPair:
    """Look the expression up in the transform table (linear combinations
    allowed): text, a tree, or the terms ``kernels.decompose`` returned."""
    pairs = []
    for coeff, factors in decompose(expression):
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


def sum_via_fourier(pair, n_terms: int, tol: float = 1e-9) -> SumResult:
    """Sigma_{k=1}^{N} g(k) as (1/pi) integral over [0, pi] of G_per * Re D.

    ``pair`` is a FourierPair, an expression tree or expression text.  The
    half-period integral is asked for tol/2, so the reported estimate, its
    error over pi, targets tol/2pi.  For real g the imaginary part of the
    result is exactly 0 for the table's pairs; it is still reported in the
    diagnostics and flags the result when it exceeds 10*tol.
    """
    if not isinstance(pair, FourierPair):
        pair = recognize_fourier(pair)
    n_terms = check_count(n_terms)

    def integrand(al):
        return pair.periodic(al) * backend.dirichlet_grid(al, n_terms).real

    # the mesh cuts at every step-th half-lobe pi*(j/N) of D, at most
    # _MESH_PANELS panels; pi*(j/N) rather than j*(pi/N) puts the cut of
    # j = N/2 exactly on integrate_finite's midpoint pi/2, leaving no sliver
    step = -(-n_terms // _MESH_PANELS)
    half_lobes = math.pi * (np.arange(step, n_terms, step) / n_terms)
    quad = quadrature.integrate_finite(integrand, 0.0, math.pi, 0.5 * tol,
                                       points=half_lobes)
    value = quad.value / math.pi
    residual = abs(value.imag)
    converged = quad.converged and residual < 10.0 * tol
    diag = Diagnostics(nodes=quad.nodes_used, converged=converged,
                       notes={"imag_residual": residual, "pair": pair.label})
    return SumResult(value=value, method="fourier",
                     error_estimate=quad.abs_error_estimate / math.pi,
                     diagnostics=diag)
