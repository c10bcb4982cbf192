"""Finite-sum evaluation through the integral representation.

The sum of a SeriesSpec equals the integral of G(t) against its summation
factor, sum_k sign^(k+1) exp(-(alpha*k + shift)*t - damping*k), built from
the spec's three parts and never from its variant.  Spike components of G hit
the factor in closed form through its derivatives; smooth components go
through adaptive quadrature with the factor evaluated in expm1-stabilized
form on the whole grid.  Both evaluate ``backend.summation_factor`` (the
grid through ``backend.phi_grid``), whose comb in :mod:`finsum.jets`
raises PoleError where its denominator vanishes.

Also here: the dual family that evaluates Sigma G(x/k)/k directly
(``type_b_sum`` and its spike counterpart ``delta_type_b``), and the
deliberately retained divergent zeta-series rewriting of the Lorentzian sum
(``zeta_expansion_sum``) whose job is to *report* divergence, as a negative
control against the sound integral route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend, jets
from .errors import CapabilityError, PreconditionError
from .kernels import Kernel
from .quadrature import integrate_semi_infinite
from .series import (Diagnostics, SeriesSpec, SumResult, Variant, check_count,
                     check_tol)
from .special import riemann_zeta
from .stable import TWO_PI

_EPS = 2.220446049250313e-16
_MAX_DERIV = 4
_LADDER_FLOOR = 1e-100   # t^p, p > -1, stays below 1e100 on the ladder
# upward rungs _UP_RATIO^j decay lengths, j = 1.._UP_RUNGS; the factor is
# down to exp(-1.5^9) = 3e-17 at the top one
_UP_RATIO = 1.5
_UP_RUNGS = 9
# below the top rung an oscillating density gets a breakpoint every
# _PERIODS of its periods, on at most _WAVE_PANELS panels
_PERIODS = 2
_WAVE_PANELS = 4096


def phi(spec: SeriesSpec, t) -> complex:
    """The summation factor of spec at complex t (removable point at t=0
    included); spec.g is not used and may be None."""
    return complex(backend.summation_factor(complex(t), spec.n_terms, spec.sign,
                                            spec.alpha, spec.damping, spec.shift))


def phi_derivative(spec: SeriesSpec, t, order: int) -> complex:
    """d^order/dt^order of the summation factor, by jet arithmetic."""
    if not 1 <= order <= _MAX_DERIV:
        raise PreconditionError(f"derivative order {order} outside 1..{_MAX_DERIV}")
    jet = jets.Jet.variable(complex(t), order)
    return backend.summation_factor(jet, spec.n_terms, spec.sign, spec.alpha,
                                    spec.damping, spec.shift).derivative(order)


def _growth_limit(spec: SeriesSpec) -> float:
    """Re(alpha + shift): the summation factor decays like exp(-limit*t)."""
    return spec.alpha.real + (0.0 if spec.shift is None else spec.shift.real)


def _ladder(spec: SeriesSpec, smooth, tol: float) -> np.ndarray:
    """Breakpoints in t on both scales of the summation factor, and on the
    periods of an oscillating density (QUADPACK's QAGP device: they spare
    the rounds that would find these scales; the error control is the
    engine's).

    * Down from t = 1: rungs 4^-j toward the smaller of two scales, a
      quarter of the knee 1/(|alpha| N), where the factor turns from its
      plateau near N to its 1/(alpha t) decay, and, for a density t^p with
      non-integer p, (tol/N)^(1/(p+1)), below which the density's mass
      against the factor is under tol.
    * Up on the decay length 1/L of the factor's exp(-L t) tail, with L =
      Re alpha (+ Re beta when shifted): rungs 1.5^j / L for j = 1..9, the
      top one 38 decay lengths out.
    * Below the top rung, a density with ``frequency`` w > 0 is cut every
      two periods 4 pi / w (the step widened to top/4096 past 4,096
      panels).  Without that cap Gauss and Kronrod can agree by aliasing:
      1.6/k^3.2+1.6/(k^2+7.9) at alpha = 0.05, N = 10, tol 1e-8 deviated
      3.0e-8 against an estimate of 9.7e-9, its panel t in [341.7, 410.1]
      holding 31 periods of sin(2.81 t).
    """
    low = 1.0 / (4.0 * abs(spec.alpha) * spec.n_terms)
    for s in smooth:
        p = s.endpoint_exponent
        if p != round(p):
            low = min(low, (tol / spec.n_terms) ** (1.0 / (p + 1.0)))
    depth = math.floor(math.log(1.0 / max(low, _LADDER_FLOOR), 4.0))
    up = _UP_RATIO ** np.arange(1, _UP_RUNGS + 1) / _growth_limit(spec)
    rungs = [4.0 ** -np.arange(depth + 1), up]
    top = up[-1]
    for s in smooth:
        if s.frequency > 0.0:
            step = max(_PERIODS * TWO_PI / s.frequency, top / _WAVE_PANELS)
            rungs.append(np.arange(step, top, step))
    return np.concatenate(rungs)


def sum_via_integral(spec: SeriesSpec, kernel: Kernel, tol: float = 1e-10) -> SumResult:
    """Evaluate the finite sum of spec through its integral representation.

    The kernel must be the density of spec.g alone -- variant weights enter
    through the summation factor, not the kernel.  Spike terms are closed
    form; smooth terms are integrated against the factor on [0, inf).
    """
    check_tol(tol)
    value = 0j
    delta_scale = 0.0
    for d in kernel.deltas:
        if d.deriv_order == 0:
            contrib = d.weight * phi(spec, d.location)
        else:
            contrib = d.weight * (-1.0) ** d.deriv_order \
                * phi_derivative(spec, d.location, d.deriv_order)
        value += contrib
        delta_scale += abs(contrib)
    error = 2.0 * _EPS * delta_scale
    nodes = 0
    converged = True

    if kernel.smooth:
        limit = _growth_limit(spec)
        decay = (f"only decays like exp(-{limit}*t)" if limit > 0.0 else
                 f"does not decay: Re(alpha + beta) = {limit:.6g}")
        for s in kernel.smooth:
            if s.growth_bound >= limit:
                raise PreconditionError(f"density {s.label!r} grows like "
                                        f"exp({s.growth_bound}*t) but the summation factor {decay}")

        def integrand(t):
            t = np.asarray(t, dtype=float)
            factor = backend.phi_grid(t, spec)
            total = kernel.smooth[0].fn(t) * factor
            for s in kernel.smooth[1:]:
                total = total + s.fn(t) * factor
            return total

        quad = integrate_semi_infinite(integrand, tol=tol,
                                       points=_ladder(spec, kernel.smooth, tol))
        value += quad.value
        error += quad.abs_error_estimate
        nodes = quad.nodes_used
        converged = quad.converged

    diag = Diagnostics(nodes=nodes, converged=converged,
                       notes={"delta_terms": len(kernel.deltas),
                              "smooth_terms": len(kernel.smooth)})
    return SumResult(value=value, method="laplace", error_estimate=error,
                     diagnostics=diag)


# ---------------------------------------------------------------------------
# the dual family: direct evaluation of Sigma G(x/k)/k

def type_b_sum(kernel: Kernel, x: float, n_terms: int,
               variant: Variant = Variant.STANDARD, beta: complex = 0j) -> complex:
    """Sigma_{k=1}^{N} w_k * (variant factor) * G(x/k) / k for smooth G.

    The factors are those of the variant's SeriesSpec: the weight
    sign^(k+1), the shift factor exp(shift*x/k) and the damping weight
    exp(-damping*k).
    """
    if kernel.deltas:
        raise CapabilityError(
            "spike kernels produce a point-mass comb, not a function; "
            "use delta_type_b")
    if x <= 0:
        raise PreconditionError(f"x must be positive, got {x}")
    spec = SeriesSpec(None, n_terms, variant=variant, beta=beta)

    ks = np.arange(1, spec.n_terms + 1, dtype=float)
    u = x / ks
    g_vals = np.zeros_like(u, dtype=complex)
    for s in kernel.smooth:
        g_vals = g_vals + np.asarray(s.fn(u), dtype=complex)
    weights = np.ones(spec.n_terms, dtype=complex)
    weights[1::2] = spec.sign
    if spec.shift is not None:
        weights = weights * np.exp(spec.shift * u)
    if spec.damping is not None:
        weights = weights * np.exp(-spec.damping * ks)
    terms = weights * g_vals / ks
    return backend.neumaier_sum(terms)


@dataclass(frozen=True)
class DeltaComb:
    """A finite train of point masses -- the dual image of a spike kernel."""

    atoms: tuple[tuple[float, float], ...]  # (weight, location), locations increasing

    def __post_init__(self):
        locs = [loc for _, loc in self.atoms]
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise PreconditionError("comb locations must be strictly increasing")
        if not all(math.isfinite(w) and math.isfinite(loc) for w, loc in self.atoms):
            raise PreconditionError("comb atoms must be finite")

    def transform(self, alpha: complex) -> complex:
        """Sigma weight * exp(-alpha*location) -- the arrow back to f(alpha)."""
        alpha = complex(alpha)
        return sum((w * jets.exp(-alpha * loc) for w, loc in self.atoms), 0j)


def delta_type_b(a: float, n_terms: int):
    """The dual image of the spike density delta(t - a): a unit-mass comb.

    delta(a - x/n)/n rescales to delta(x - n*a), so the comb carries unit
    weights at x = a, 2a, ..., Na; every point mass beyond Na cancels
    pairwise against the infinite tail.  Returns (comb, f) where f(alpha) is
    the geometric closed form (1 - exp(-alpha*N*a)) / (exp(a*alpha) - 1).
    """
    if not a > 0:
        raise PreconditionError(f"a must be positive, got {a}")
    n_terms = check_count(n_terms)
    comb = DeltaComb(tuple((1.0, n * a) for n in range(1, n_terms + 1)))

    def closed_form(alpha) -> complex:
        return complex(jets.exp_power_sum(-a * complex(alpha), n_terms))

    return comb, closed_form


# ---------------------------------------------------------------------------
# negative control: the divergent zeta rewriting of the Lorentzian sum

_GROWTH_RUN = 5
_PARTIAL_CAP = 1e6


def zeta_expansion_sum(a: float, alpha: float, n_terms: int,
                       max_terms: int = 60) -> SumResult:
    """Partial sums of the zeta-series rewriting of Sigma a/(k^2+a^2).

    The rewriting interchanges integration with an infinite summation whose
    convergence was never established, and for most parameters the terms
    grow without bound.  The divergence flag is set after _GROWTH_RUN
    consecutive terms that exceed magnitude 1 while growing, or when the
    partial sum passes _PARTIAL_CAP; the value is then the last partial sum
    and carries no authority.
    """
    if a == 0:
        raise PreconditionError("a must be nonzero")
    n_terms = SeriesSpec(None, n_terms, alpha).n_terms
    max_terms = check_count(max_terms, "max_terms")

    ia = 1j * a
    edge = alpha * n_terms
    partial = 0j
    prev_mag = math.inf
    growth = 0
    divergent = False
    onset = 0
    used = 0
    last_mag = 0.0
    for n in range(1, max_terms + 1):
        term = (alpha ** (n - 1)) * riemann_zeta(n + 1) * (
            ia ** n - (-ia) ** n - (edge + ia) ** n + (-edge - ia) ** n
        ) / 2j
        partial += term
        used = n
        last_mag = abs(term)
        if last_mag > 1.0 and last_mag > prev_mag:
            growth += 1
            if growth >= _GROWTH_RUN:
                divergent = True
                onset = n
                break
        else:
            growth = 0
        prev_mag = last_mag
        if abs(partial) > _PARTIAL_CAP:
            divergent = True
            onset = n
            break

    notes = {"terms_evaluated": used}
    if divergent:
        notes["onset_index"] = onset
    diag = Diagnostics(truncation_index=used, divergent=divergent, notes=notes)
    return SumResult(value=partial, method="zeta-expansion",
                     error_estimate=last_mag, diagnostics=diag)
