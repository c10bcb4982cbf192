"""The numpy grid primitives every route evaluates through.

Callers look these functions up as ``backend.<name>`` at call time, so a
wrapper installed on the module attribute sees every call.
``summation_factor`` takes a SeriesSpec's (sign, damping, shift);
``phi_grid(t, spec)`` evaluates it on grids, on the spec's real or complex
lattice, and the laplace spike path at a scalar or a jet without it.  The
comb behind both lives in :mod:`finsum.jets`.  ``dirichlet_grid`` serves
:func:`finsum.fourier.dirichlet_factor` only: the fourier route integrates
the Dirichlet kernel by a Levin rule and never evaluates the lattice
factor.  ``partial_sums`` is the one compensated reduction: ``math.fsum``
on short sums, one error-free extraction on long ones.  The oracle applies
it to each block of its lattice, and ``neumaier_sum`` to a whole array: in
the package, only the dual sum :func:`finsum.laplace.type_b_sum` calls it.
"""

from __future__ import annotations

import math

import numpy as np

from . import jets

# sums up to this length go straight to math.fsum, correctly rounded; past
# it one error-free extraction per component is faster.  Measured on a
# 2-CPU x86-64 host (numpy 2.4) with sum(|p|) in hand, as in the oracle:
# fsum 2.4 / 3.0 / 5.0 / 48 us at 128 / 160 / 256 / 2,048 terms, the
# extraction 2.9 / 2.9 / 3.0 / 5 us
_FSUM_MAX = 160
# a component whose sum of magnitudes reaches this is scaled by 2^-64 first,
# so that the extraction constant 2^(e+1) and sigma + p stay finite
_HUGE = 2.0 ** 1020


def active() -> str:
    """Name of the implementation in use; there is one, in numpy."""
    return "pure"


def summation_factor(t, n: int, sign: float, alpha: complex, damping, shift):
    """Phi(t) = sum_{k=1}^{n} sign^(k+1) exp(-(alpha*k + shift)*t - damping*k),
    from a :class:`finsum.series.SeriesSpec`'s parts (damping and shift None
    where the variant has none), at a complex scalar, a jet, a complex grid
    or, with real parts, a float64 grid.  -shift*t is the comb's lead, inside
    its one exponential, so that derivatives see it too."""
    w = alpha * t
    if damping is not None:
        w = w + damping
    comb = jets.alternating_exp_power_sum if sign < 0 else jets.exp_power_sum
    return comb(-w, n, None if shift is None else -shift * t)


def phi_grid(t: np.ndarray, spec) -> np.ndarray:
    """The summation factor of a SeriesSpec on a grid of real abscissas
    t >= 0: in float64 where ``spec.real_lattice`` holds, as the oracle's
    lattice is, and on the complex128 grid otherwise."""
    dtype = np.float64 if spec.real_lattice else np.complex128
    return summation_factor(np.asarray(t, dtype=dtype), spec.n_terms, spec.sign,
                            *spec.parameters(dtype))


def dirichlet_amplitude(d, n: int):
    """sin(n d/2)/sin(d/2) at reduced angles |d| <= pi, with n at d = 0."""
    half = 0.5 * np.asarray(d, dtype=np.float64)
    den = np.sin(half)
    return np.divide(np.sin(n * half), den, out=np.full(half.shape, float(n)),
                     where=den != 0.0)


def dirichlet_grid(alpha: np.ndarray, n: int) -> np.ndarray:
    """sum_{k=1}^{n} exp(i alpha k) on a grid of real frequencies: the real
    amplitude times the phase exp(i (n+1) d/2) at the angle d reduced mod 2 pi."""
    alpha = np.asarray(alpha, dtype=np.float64)
    two_pi = 2.0 * math.pi
    d = alpha - two_pi * np.round(alpha / two_pi)
    amp, phase = dirichlet_amplitude(d, n), (0.5 * (n + 1)) * d
    out = np.empty(d.shape, dtype=np.complex128)
    out.real, out.imag = amp * np.cos(phase), amp * np.sin(phase)
    return out


def neumaier_sum(x: np.ndarray) -> complex:
    """Compensated sum of a float64 (one component) or complex array (two).

    Each component is ``math.fsum`` of its :func:`partial_sums`: one
    ``math.fsum`` up to ``_FSUM_MAX`` terms, correctly rounded, and one
    error-free extraction beyond (Rump, Ogita and Oishi, "Accurate
    floating-point summation, part I", SISC 31, 2008).  Before its final
    rounding the result is within about 1e-25 of ``sum(|x|)`` of the exact
    sum at 1e5 terms, far inside the oracle's charge of
    ``2 * eps * sum(|x|)``.  The oracle reduces its lattice block by block
    through the same :func:`partial_sums`, and the laplace route adds its
    spike contributions in plain Python; in the package only the dual sum
    :func:`finsum.laplace.type_b_sum` sums its terms here.  The name stays
    from the Neumaier loop that came before, because callers and tracing
    wrappers look the function up by it.
    """
    x = np.asarray(x)
    parts = 2 if np.iscomplexobj(x) else 1
    flat = np.ascontiguousarray(x, dtype=np.complex128 if parts == 2 else np.float64)
    flat = flat.ravel().view(np.float64)  # re, im interleaved when complex
    buf = np.empty(flat.size // parts)
    return complex(*(math.fsum(partial_sums(flat[i::parts], buf)) for i in range(parts)))


def partial_sums(p: np.ndarray, buf: np.ndarray, mag: float | None = None,
                 total: int | None = None) -> list[float]:
    """Floats whose exact sum is sum(p), to about N * eps^2 * sum(|p|).

    p is a whole sum or one block of a sum of ``total`` terms.  A whole sum
    of up to ``_FSUM_MAX`` terms is ``[math.fsum(p)]``, correctly rounded.
    Anything longer, and every block of a longer sum, takes one
    ExtractVector step and gives ``[high, low]``: a block sum rounded to
    one float would err by half its ulp, which a total that cancels between
    blocks cannot absorb.  With b = sum(|p|) < 2^e and sigma = 2^(e+1),
    q = (sigma + p) - sigma and p - q are exact, every q is a multiple of
    2^-53 sigma and every partial sum of q stays below sigma, so
    ``high = sum(q)`` is exact in any order.  The only rounding is in the
    pairwise sum of the small parts p - q, each at most eps * b, which errs
    by about log2(N) * N * eps^2 * b.  A b of ``_HUGE`` or more is scaled
    by 2^-64 first, so that sigma and sigma + p stay finite; a b that is
    not finite leaves p to ``math.fsum``.

    buf is float64 scratch of p's length; mag, when the caller already
    holds sum(|p|), saves the pass that computes it.
    """
    if (p.size if total is None else total) <= _FSUM_MAX:
        return [math.fsum(p.tolist())]
    if mag is None:
        mag = float(np.add.reduce(np.abs(p, out=buf)))
    if not math.isfinite(mag):
        return [math.fsum(p.tolist())]
    scale = 1.0
    if mag >= _HUGE:
        p, mag, scale = p * 2.0 ** -64, mag * 2.0 ** -64, 2.0 ** 64
    sigma = math.ldexp(1.0, math.frexp(mag)[1] + 1)
    np.add(p, sigma, out=buf)
    buf -= sigma
    high = float(np.add.reduce(buf))
    np.subtract(p, buf, out=buf)
    return [high * scale, float(np.add.reduce(buf)) * scale]


def hurwitz_head(s: float, a: float, m: int) -> float:
    """Compensated partial sum sum_{j=0}^{m-1} (j+a)^(-s)."""
    if m <= 0:
        return 0.0
    base = a + np.arange(m, dtype=np.float64)
    return math.fsum(np.power(base, -s).tolist())
