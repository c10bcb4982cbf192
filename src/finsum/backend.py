"""The numpy grid primitives every route evaluates through.

Variant codes: 0 standard, 1 alternating, 2 shifted, 3 shifted-alternating,
4 exp-factor, 5 exp-factor-alternating.  Callers look these functions up as
``backend.<name>`` at call time, so a wrapper installed on the module
attribute sees every call.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import jets
from .errors import PoleError
from .stable import power_sums

_SERIES_CUTOFF = 1e-6
_SERIES_N_CUTOFF = 3e-3
_POLE_EPS = 1e-12
# lane count of the tiled compensated sum; arrays up to this length go
# straight to math.fsum
_LANES = 1024


def active() -> str:
    """Name of the implementation in use; there is one, in numpy."""
    return "pure"


def _geom_sum(z: np.ndarray, n: int) -> np.ndarray:
    """sum_{k=1}^{n} exp(z k) element-wise for Re(z) <= 0."""
    out = np.empty(z.shape, dtype=np.complex128)
    az = np.abs(z)
    small = (az < _SERIES_CUTOFF) & (az * n <= _SERIES_N_CUTOFF)
    if np.any(small):
        s0, s1, s2, s3, s4 = power_sums(n)
        zs = z[small]
        out[small] = s0 + zs * (s1 + zs * (s2 / 2.0 + zs * (s3 / 6.0 + zs * (s4 / 24.0))))
    big = ~small
    if np.any(big):
        zb = z[big]
        den = jets.expm1(zb)
        bad = np.abs(den) < _POLE_EPS
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise PoleError("variant kernel pole on the integration path", pole=complex(zb[idx]))
        out[big] = jets.expm1(zb * n) * np.exp(zb) / den
    return out


def _alt_sum(z: np.ndarray, n: int) -> np.ndarray:
    """sum_{k=1}^{n} (-1)^(k+1) exp(z k) element-wise."""
    ez = np.exp(z)
    den = 1.0 + ez
    bad = np.abs(den) < _POLE_EPS
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise PoleError("alternating kernel pole on the integration path", pole=complex(z[idx]))
    if n % 2 == 0:
        return -jets.expm1(z * n) * ez / den
    return (2.0 + jets.expm1(z * n)) * ez / den


def phi_grid(t: np.ndarray, n: int, variant: int, alpha: complex, beta: complex) -> np.ndarray:
    """Variant kernel Phi(t) on a grid of real abscissas t > 0."""
    t = np.asarray(t, dtype=np.float64)
    w = alpha * t.astype(np.complex128)
    if variant >= 4:
        w = w + beta
    if variant in (1, 3, 5):
        out = _alt_sum(-w, n)
    else:
        out = _geom_sum(-w, n)
    if variant in (2, 3):
        out = out * np.exp(-(beta * t.astype(np.complex128)))
    return out


def dirichlet_grid(alpha: np.ndarray, n: int) -> np.ndarray:
    """sum_{k=1}^{n} exp(i alpha k) on a grid of real frequencies."""
    alpha = np.asarray(alpha, dtype=np.float64)
    two_pi = 2.0 * math.pi
    d = alpha - two_pi * np.round(alpha / two_pi)
    return _geom_sum(1j * d, n)


def neumaier_sum(x: np.ndarray) -> complex:
    """Compensated sum of a complex array, each component separately.

    Up to ``_LANES`` terms this is ``math.fsum``, correctly rounded.  Longer
    arrays are cut into rows of ``_LANES`` terms and accumulated down the
    rows with TwoSum, a running sum and an error carry per column; the column
    sums and carries then go through ``math.fsum``.  The carries are only
    summed in floating point, so the result can differ from ``math.fsum`` by
    rounding on terms of order eps times the carried errors, far below
    ``eps * sum(|x|)``.
    """
    x = np.ascontiguousarray(x, dtype=np.complex128).ravel()
    if x.size <= _LANES:
        return complex(math.fsum(x.real.tolist()), math.fsum(x.imag.tolist()))
    flat = x.view(np.float64)            # re, im interleaved
    width = 2 * _LANES
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
    parts = np.concatenate((total, carry)).reshape(-1, 2)
    return complex(math.fsum(parts[:, 0].tolist()), math.fsum(parts[:, 1].tolist()))


def hurwitz_head(s: float, a: float, m: int) -> float:
    """Compensated partial sum sum_{j=0}^{m-1} (j+a)^(-s)."""
    if m <= 0:
        return 0.0
    base = a + np.arange(m, dtype=np.float64)
    return math.fsum(np.power(base, -s).tolist())
