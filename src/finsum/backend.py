"""The numpy grid primitives every route evaluates through.

Callers look these functions up as ``backend.<name>`` at call time, so a
wrapper installed on the module attribute sees every call.  ``phi_grid``
and ``dirichlet_grid`` are reached only with grids; the laplace spike path
evaluates ``summation_factor`` at a scalar or a jet without them.  The comb
behind both lives in :mod:`finsum.jets`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import jets

# lane count of the tiled compensated sum
_LANES = 1024
# arrays up to this length go straight to math.fsum: past one row the row
# loop's fixed cost, an fsum over 2 * _LANES column sums and carries, is
# larger than one fsum over the terms until about 3,000 terms
_FSUM_MAX = 2 * _LANES


def active() -> str:
    """Name of the implementation in use; there is one, in numpy."""
    return "pure"


def summation_factor(t, n: int, variant, alpha: complex, beta: complex):
    """The kernel Phi(t) of a :class:`finsum.series.Variant` at a complex
    scalar, a jet, a complex grid or, with alpha and beta real, a float64
    grid: w = alpha*t (+ beta), the comb of -w, and the shift factor
    exp(-beta*t)."""
    w = alpha * t
    if variant.is_exp_factor:
        w = w + beta
    if variant.is_alternating:
        out = jets.alternating_exp_power_sum(-w, n)
    else:
        out = jets.exp_power_sum(-w, n)
    if variant.is_shifted:
        # the shift factor is part of the kernel, so derivatives see it too
        out = out * jets.exp(-beta * t)
    return out


def phi_grid(t: np.ndarray, n: int, variant, alpha: complex, beta: complex) -> np.ndarray:
    """Variant kernel Phi(t) on a grid of real abscissas t >= 0.

    With alpha and beta real the comb is real on real t and is evaluated in
    float64; a complex alpha or beta keeps the complex128 grid.
    """
    alpha, beta = complex(alpha), complex(beta)
    if alpha.imag == 0.0 and beta.imag == 0.0:
        return summation_factor(np.asarray(t, dtype=np.float64), n, variant,
                                alpha.real, beta.real)
    return summation_factor(np.asarray(t, dtype=np.complex128), n, variant, alpha, beta)


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

    Up to ``_FSUM_MAX`` terms each component is one ``math.fsum``, correctly
    rounded.  Longer arrays are cut into rows of ``_LANES`` terms and
    accumulated down the rows with TwoSum, a running sum and an error carry
    per column; the column sums and carries then go through ``math.fsum``.
    The carries are only summed in floating point, so the result can differ
    from ``math.fsum`` by rounding on terms of order eps times the carried
    errors, far below ``eps * sum(|x|)``.
    """
    x = np.asarray(x)
    parts = 2 if np.iscomplexobj(x) else 1
    flat = np.ascontiguousarray(x, dtype=np.complex128 if parts == 2 else np.float64)
    flat = flat.ravel().view(np.float64)  # re, im interleaved when complex
    if flat.size <= parts * _FSUM_MAX:
        return complex(*(math.fsum(flat[i::parts].tolist()) for i in range(parts)))
    width = parts * _LANES
    rows = flat[:flat.size // width * width].reshape(-1, width)
    last = np.zeros(width)
    last[:flat.size - rows.size] = flat[rows.size:]
    total = rows[0].copy()
    carry = np.zeros(width)
    s, bp, err = np.empty(width), np.empty(width), np.empty(width)
    for row in itertools.chain(rows[1:], (last,)):
        # TwoSum: the two parts added to carry are the rounding error of s
        np.add(total, row, out=s)
        np.subtract(s, total, out=bp)
        np.subtract(s, bp, out=err)
        np.subtract(total, err, out=err)
        carry += err
        np.subtract(row, bp, out=err)
        carry += err
        total, s = s, total
    cols = np.concatenate((total, carry)).reshape(-1, parts)
    return complex(*(math.fsum(cols[:, i].tolist()) for i in range(parts)))


def hurwitz_head(s: float, a: float, m: int) -> float:
    """Compensated partial sum sum_{j=0}^{m-1} (j+a)^(-s)."""
    if m <= 0:
        return 0.0
    base = a + np.arange(m, dtype=np.float64)
    return math.fsum(np.power(base, -s).tolist())
