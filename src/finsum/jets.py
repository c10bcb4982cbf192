"""Truncated-Taylor (jet) arithmetic for exact higher derivatives.

A :class:`Jet` carries the Taylor coefficients ``c[0..p]`` of a function at a
point, so composing ordinary arithmetic on jets propagates derivatives up to
order ``p`` without finite differencing.  The coefficients may also be
complex128 arrays over a batch of points (``Jet.variable`` of an array), so
that one evaluation of a closure differentiates it at every point of the
batch.  The module-level ``exp``, ``log``,
``sin``, ``cos``, ``sqrt`` and ``expm1`` dispatch on their argument (Jet,
numpy array, plain number), which lets one closure serve the direct
summation, the quadrature grids and the derivative machinery alike.

The geometric combs ``exp_power_sum`` and ``alternating_exp_power_sum``
dispatch the same way; they are the one implementation of the Laplace
summation factor and the Fourier lattice factor, on scalars, jets and grids.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import PoleError
from .stable import power_sums

# the comb's Faulhaber series serves |z| below this with |z|*n below the next
_SERIES_CUTOFF = 1e-6
_SERIES_N_CUTOFF = 3e-3
# a comb denominator within _POLE_EPS*|z| of 0, and within _POLE_ABS, is a
# pole, not a value; far from the poles (Re z << 0) it is about -1 or 1
_POLE_EPS = 1e-12
_POLE_ABS = 1e-3
# float64 exp rounds to 0.0 below this (the smallest subnormal is exp(-744.4))
_EXP_UNDERFLOW = -745.2


def _has_zero(v) -> bool:
    """Whether a value part, a scalar or an array over a batch, holds a 0."""
    return bool((v == 0).any()) if isinstance(v, np.ndarray) else v == 0


class Jet:
    """Taylor coefficients of a function at a point, truncated at fixed order.

    A coefficient is a complex scalar or a complex128 array.  Arrays of one
    shape make a jet over a batch of points, which one walk of an expression
    serves (vector-mode Taylor arithmetic: Griewank & Walther, Evaluating
    Derivatives, 2nd ed., ch. 13); a scalar coefficient in such a jet is the
    same at every point.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(complex(c) for c in coeffs)

    @classmethod
    def _of(cls, coeffs) -> "Jet":
        """A jet on coefficients that are already complex scalars or arrays."""
        jet = object.__new__(cls)
        jet.coeffs = tuple(coeffs)
        return jet

    @classmethod
    def variable(cls, value, order: int) -> "Jet":
        """The identity function x -> x as a jet of the given order; an array
        of values gives the jet over that batch of points."""
        if order < 0:
            raise ValueError("jet order must be >= 0")
        if isinstance(value, np.ndarray):
            value = value.astype(np.complex128)
        else:
            value = complex(value)
        tail = (1 + 0j,) + (0j,) * (order - 1) if order > 0 else ()
        return cls._of((value,) + tail)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, k: int):
        """The k-th derivative encoded by this jet."""
        if not 0 <= k <= self.order:
            raise ValueError(f"derivative order {k} out of range 0..{self.order}")
        return self.coeffs[k] * math.factorial(k)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Jet | None":
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError("jet order mismatch")
            return other
        if isinstance(other, (int, float, complex)):
            return Jet._of((complex(other),) + (0j,) * self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet._of(a + b for a, b in zip(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return Jet._of(-a for a in self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet._of(a - b for a, b in zip(self.coeffs, o.coeffs))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            # a constant scales each coefficient, in O(p): the Cauchy product
            # with the constant jet gives the same bits for finite
            # coefficients, + 0j standing in for its sum's leading 0
            c = complex(other)
            return Jet._of(a * c + 0j for a in self.coeffs)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        return Jet._of(
            sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if _has_zero(b[0]):
            raise ZeroDivisionError("jet division by a jet with zero value part")
        q = []
        for k in range(len(a)):
            acc = a[k]
            for j in range(k):
                acc = acc - q[j] * b[k - j]
            q.append(acc / b[0])
        return Jet._of(q)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, p):
        if isinstance(p, Jet):
            return exp(log(self) * p)
        if isinstance(p, int) and p >= 0:
            out = self._coerce(1)
            base = self
            n = p
            while n:
                if n & 1:
                    out = out * base
                base = base * base
                n >>= 1
            return out
        return exp(p * log(self))

    def __rpow__(self, base):
        o = self._coerce(base)
        if o is None:
            return NotImplemented
        return o ** self

    def __repr__(self):
        return f"Jet({list(self.coeffs)!r})"


# The elementals below take the value part of a jet through the scalar and
# array dispatch of this module (cmath for a complex scalar, numpy for an
# array); the recurrences for the higher coefficients serve both.  Their
# accumulators, like the quotient's, are rebound and never updated in place,
# since one may start as an operand's coefficient array.

def _jet_exp_coeffs(a: tuple, c0) -> Jet:
    """Propagate exp through a jet given the (already computed) value part."""
    out = [c0]
    for k in range(1, len(a)):
        acc = 0j
        for j in range(1, k + 1):
            acc = acc + j * a[j] * out[k - j]
        out.append(acc / k)
    return Jet._of(out)


def exp(x):
    if isinstance(x, Jet):
        return _jet_exp_coeffs(x.coeffs, exp(x.value))
    if isinstance(x, np.ndarray):
        if (x.dtype == np.float64 and x.ndim and x.size
                and (x.item(0) < _EXP_UNDERFLOW or x.item(-1) < _EXP_UNDERFLOW)):
            # numpy's exp is many times slower on lanes that round to 0, so
            # they are left at 0.0; NaN compares False and is still computed.
            # A lattice's exponent is monotone in k, so its ends show whether
            # any lane underflows; other arrays may take the plain exp
            return np.exp(x, out=np.zeros_like(x), where=~(x < _EXP_UNDERFLOW))
        return np.exp(x)
    if isinstance(x, complex):
        return cmath.exp(x)
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _complex_expm1(lib, re, im):
    """Parts of exp(re + i*im) - 1 by ``lib`` (math or numpy); the real part
    expm1(re)*cos(im) - 2*sin^2(im/2) avoids the cancellation of
    exp(re)*cos(im) - 1 when both factors are close to 1 (Higham, ch. 1)."""
    ex = lib.expm1(re)
    s = lib.sin(0.5 * im)
    return ex * lib.cos(im) - 2.0 * s * s, (ex + 1.0) * lib.sin(im)


def expm1(x):
    """exp(x) - 1, accurate near 0, for jets, arrays and scalars."""
    if isinstance(x, Jet):
        coeffs = list(_jet_exp_coeffs(x.coeffs, exp(x.value)).coeffs)
        coeffs[0] = expm1(x.value)
        return Jet._of(coeffs)
    if isinstance(x, np.ndarray):
        if np.iscomplexobj(x):
            re, im = _complex_expm1(np, x.real, x.imag)
            return re + 1j * im
        return np.expm1(x)
    if isinstance(x, complex):
        return complex(*_complex_expm1(math, x.real, x.imag))
    return math.expm1(x)


def log(x):
    if isinstance(x, Jet):
        a = x.coeffs
        if _has_zero(a[0]):
            raise ZeroDivisionError("log of a jet with zero value part")
        out = [log(a[0])]
        for k in range(1, len(a)):
            acc = k * a[k]
            for j in range(1, k):
                acc = acc - j * out[j] * a[k - j]
            out.append(acc / (k * a[0]))
        return Jet._of(out)
    if isinstance(x, np.ndarray):
        return np.log(x)
    if isinstance(x, complex) or (isinstance(x, (int, float)) and x < 0):
        return cmath.log(x)
    return math.log(x)


def _sin_cos_coeffs(a: tuple) -> tuple[list, list]:
    """The coefficients of sin and of cos of the jet with coefficients a."""
    s = [sin(a[0])]
    c = [cos(a[0])]
    for k in range(1, len(a)):
        sacc = 0j
        cacc = 0j
        for j in range(1, k + 1):
            sacc = sacc + j * a[j] * c[k - j]
            cacc = cacc + j * a[j] * s[k - j]
        s.append(sacc / k)
        c.append(-cacc / k)
    return s, c


def sin(x):
    if isinstance(x, Jet):
        return Jet._of(_sin_cos_coeffs(x.coeffs)[0])
    if isinstance(x, np.ndarray):
        return np.sin(x)
    if isinstance(x, complex):
        return cmath.sin(x)
    return math.sin(x)


def cos(x):
    if isinstance(x, Jet):
        return Jet._of(_sin_cos_coeffs(x.coeffs)[1])
    if isinstance(x, np.ndarray):
        return np.cos(x)
    if isinstance(x, complex):
        return cmath.cos(x)
    return math.cos(x)


def sqrt(x):
    if isinstance(x, Jet):
        a = x.coeffs
        if _has_zero(a[0]):
            raise ZeroDivisionError("sqrt of a jet with zero value part")
        r = [sqrt(a[0])]
        for k in range(1, len(a)):
            acc = a[k]
            for j in range(1, k):
                acc = acc - r[j] * r[k - j]
            r.append(acc / (2.0 * r[0]))
        return Jet._of(r)
    if isinstance(x, np.ndarray):
        return np.sqrt(x)  # real (nan below 0) on a float64 array
    if isinstance(x, complex) or (isinstance(x, (int, float)) and x < 0):
        return cmath.sqrt(x)
    return math.sqrt(x)


def value_part(x) -> complex:
    """The plain numeric value behind a jet (or the number itself)."""
    return x.value if isinstance(x, Jet) else complex(x)


def _faulhaber(z, n: int):
    """sum exp(z k) = S0 + z S1 + z^2 S2/2 + z^3 S3/6 + z^4 S4/24 + O(z^5 S5)."""
    s0, s1, s2, s3, s4 = power_sums(n)
    return s0 + z * (s1 + z * (s2 / 2.0 + z * (s3 / 6.0 + z * (s4 / 24.0))))


def _check_pole(den, z, what: str) -> None:
    """PoleError naming the (first) z whose comb denominator den vanishes.

    The test is relative to |z|: den = expm1(z) ~ z at the removable point
    z = 0, which a long comb reaches off its series branch, while every
    true pole lies at |z| >= pi.  It is absolute too, below ``_POLE_ABS``,
    where den ~ z - pole: at Re z << 0 den is about -1 (or 1 on the
    alternating comb), which 1e-12 |z| exceeds once |z| > 1e12.  Scalars
    and jets are tested on their value part with plain ``abs``, arrays
    elementwise."""
    if isinstance(den, np.ndarray):
        mag = np.abs(den)
        bad = mag < _POLE_EPS * np.abs(z)
        if np.any(bad):  # the absolute test runs only where the relative one fired
            bad &= mag < _POLE_ABS
            if np.any(bad):
                raise PoleError(f"{what} pole on the integration path",
                                pole=complex(z[np.argmax(bad)]))
    else:
        mag = abs(value_part(den))
        if mag < _POLE_EPS * abs(value_part(z)) and mag < _POLE_ABS:
            raise PoleError(f"{what} has a pole", pole=value_part(z))


def exp_power_sum(z, n: int, lead=None):
    """sum_{k=1}^{n} exp(z*k + lead), stable for scalars, jets and arrays.

    Closed form expm1(n*z)*exp(z + lead)/expm1(z), rearranged so that only
    exponentials of non-positive real part appear when Re(z) <= 0.  Near the
    removable point z = 0 (|z| < 1e-6 with |z|*n small) a degree-4 series in
    z with Faulhaber coefficients is used, times exp(lead); at z = 0 exactly
    the limit is n.  ``lead`` (None for 0), a scalar or a jet or array like
    z, sits inside the one exponential, so it cannot overflow on its own.
    Arrays must have Re(z) <= 0; there the series serves a mask of the
    elements.  A pole z = 2*pi*i*m (m != 0) raises PoleError on scalars,
    jets and arrays alike.  A float64 array gives float64 values, any other
    array complex128.
    """
    if isinstance(z, np.ndarray):
        out = np.empty(z.shape, dtype=np.float64 if z.dtype == np.float64 else np.complex128)
        az = np.abs(z)
        small = (az < _SERIES_CUTOFF) & (az * n <= _SERIES_N_CUTOFF)
        if np.any(small):
            out[small] = _faulhaber(z[small], n)
            if lead is not None:
                out[small] *= np.exp(lead[small])
        big = ~small
        if np.any(big):
            zb = z[big]
            den = expm1(zb)
            _check_pole(den, zb, "variant kernel")
            out[big] = expm1(zb * n) * np.exp(zb if lead is None else zb + lead[big]) / den
        return out
    z0 = value_part(z)
    az = abs(z0)
    if az < _SERIES_CUTOFF and az * n <= _SERIES_N_CUTOFF:
        return _faulhaber(z, n) if lead is None else _faulhaber(z, n) * exp(lead)
    if z0.real <= 0.0:
        num, den = expm1(z * n) * exp(z if lead is None else z + lead), expm1(z)
    else:
        # Growing case: factor the dominant exponential out front.
        num, den = exp(z * n if lead is None else z * n + lead) * expm1(-z * n), expm1(-z)
    _check_pole(den, z, "variant kernel")
    return num / den


def alternating_exp_power_sum(z, n: int, lead=None):
    """sum_{k=1}^{n} (-1)^(k+1) exp(z*k + lead), stable for scalars, jets
    and arrays, with ``lead`` as in :func:`exp_power_sum`.

    Equals (1 - (-1)^n exp(n z)) * exp(z + lead) / (1 + exp(z)); no
    removable point (the value at z = 0 is 0 for even n, exp(lead) for odd
    n).  A pole z = i*pi*(2m+1) raises PoleError.
    """
    ez = exp(z)
    den = 1.0 + ez
    _check_pole(den, z, "alternating kernel")
    if lead is not None:
        ez = exp(z + lead)
    if n % 2 == 0:
        return -expm1(z * n) * ez / den
    return (2.0 + expm1(z * n)) * ez / den
