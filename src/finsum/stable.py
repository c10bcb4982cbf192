"""Numerically stable scalar primitives shared across the engines.

Everything here works on Python scalars.  ``expm1`` and the geometric combs
for scalars, jets and arrays live in :mod:`finsum.jets`, the grid primitives
in :mod:`finsum.backend`.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


def cexp(z) -> complex:
    """exp(z) for complex z without overflowing on large negative real parts."""
    z = complex(z)
    if z.real < -745.0:
        return 0j
    if z.real > 709.0:
        # Let the magnitude overflow to inf but keep the phase finite.
        mag = math.inf
    else:
        mag = math.exp(z.real)
    return complex(mag * math.cos(z.imag), mag * math.sin(z.imag))


def power_sums(n: int) -> tuple[float, float, float, float, float]:
    """Faulhaber sums S_j = sum_{k=1}^{n} k^j for j = 0..4, as floats."""
    nf = float(n)
    s0 = nf
    s1 = nf * (nf + 1.0) / 2.0
    s2 = nf * (nf + 1.0) * (2.0 * nf + 1.0) / 6.0
    s3 = s1 * s1
    s4 = nf * (nf + 1.0) * (2.0 * nf + 1.0) * (3.0 * nf * nf + 3.0 * nf - 1.0) / 30.0
    return s0, s1, s2, s3, s4


def reduce_angle(alpha: float) -> tuple[float, int]:
    """Split alpha into (d, m) with alpha = 2*pi*m + d and |d| <= pi.

    For integer k, exp(i*alpha*k) == exp(i*d*k) exactly, so closed forms
    evaluated at d are much better conditioned near the resonances.
    """
    m = round(alpha / TWO_PI)
    return alpha - TWO_PI * m, m


_TAU_LO = 2.4492935982947064e-16  # 2*pi - TWO_PI in exact arithmetic
_SPLIT = 134217729.0              # 2**27 + 1, Veltkamp splitter


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Dekker's exact product: (p, e) with p = fl(a*b) and p + e == a*b."""
    p = a * b
    sa = _SPLIT * a
    a_hi = sa - (sa - a)
    a_lo = a - a_hi
    sb = _SPLIT * b
    b_hi = sb - (sb - b)
    b_lo = b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def scaled_angle(theta: float, scale: float) -> float:
    """theta*scale reduced mod 2*pi into [-pi, pi], to ~1e-16 absolute.

    fl(theta*scale) alone is off by up to ulp(product)/2, which libm's sin
    cannot repair; closed forms that divide such a sine by sin^2(theta/2)
    would lose two or three digits near the ends of the period.  Keeping
    the product and the reduction in double-double form removes that.
    """
    p, e = two_prod(theta, scale)
    q = round(p / TWO_PI)
    q_hi, q_lo = two_prod(float(q), TWO_PI)
    return (p - q_hi) - q_lo + (e - q * _TAU_LO)
