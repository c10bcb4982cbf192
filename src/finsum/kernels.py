"""Recognition of summands with a known integral representation.

A summand g(k) is rewritten, when possible, as a Laplace transform

    g(x) = integral_0^inf G(t) exp(-x t) dt

where G is a combination of distributional spikes (delta functions and their
derivatives, possibly at complex locations) and smooth densities.  The spike
{weight w, location c, order m} contributes ``w * x**m * exp(-x*c)`` to g and
is evaluated against the summation factor in closed form; smooth densities go
through quadrature.

``linear_terms`` normalizes an expression tree into a sum of terms, each a
coefficient times a product of atomic factors in k (powers, exponentials,
sines/cosines of theta*k, Lorentzian denominators, Gaussian exponents).
It is the one expansion of a tree into terms: like terms merge, a power of
one term is c^p times its factors to the p (``sqrt(x)`` is ``x^0.5``), and
an integer power of a sum expands by repeated products within a budget of
``_MAX_TERMS`` terms, while a negative one, or one in a denominator,
inverts the sum first.  The polynomials in exponents, trigonometric
arguments and denominators are read off these terms
(``polynomial_coefficients``).
``decompose`` is its public face: it drops the zero terms and is the one
place a summand without such a decomposition is refused.  Its terms are
what every term-table route reads -- the catalog in ``recognize_pair``
here, the Fourier pair table and the identity catalog -- so one request
decomposes a summand once per lattice scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr as ex
from .errors import PreconditionError, RecognitionError
from .quadrature import integrate_semi_infinite
from .series import check_tol
from .special import gamma_fn
from .stable import cexp

# factor-dictionary keys: (kind, parameter)
KPOW = ("kpow", None)    # value: exponent of k
EXP = ("exp", None)      # value: c in exp(c*k)
GAUSS = ("gauss", None)  # value: c in exp(c*k^2)
_MAX_DELTA_ORDER = 4
# terms a product of two sums may leave once like terms merge; a summand
# whose expansion needs more is refused
_MAX_TERMS = 64


@dataclass(frozen=True)
class DeltaTerm:
    """Spike w * delta^(m)(t - c); contributes w * k^m * exp(-k c) to g(k)."""

    weight: complex
    location: complex
    deriv_order: int = 0

    def __post_init__(self):
        if self.location.real < -1e-12:
            raise PreconditionError(
                f"spike location {self.location} has negative real part")
        if not 0 <= self.deriv_order <= _MAX_DELTA_ORDER:
            raise PreconditionError(
                f"spike derivative order {self.deriv_order} outside 0..{_MAX_DELTA_ORDER}")


@dataclass(frozen=True)
class SmoothTerm:
    """Density fn(t) on t >= 0 with |fn(t)| <= C * exp(growth_bound * t)
    and fn(t) ~ t^endpoint_exponent as t -> 0.  ``frequency`` is the
    angular frequency w of a density that oscillates like sin(w t) or
    cos(w t) (0 for one that does not); the laplace route cuts its initial
    mesh every two periods of it."""

    fn: Callable
    growth_bound: float = 0.0
    label: str = ""
    endpoint_exponent: float = 0.0
    frequency: float = 0.0


@dataclass(frozen=True)
class Kernel:
    deltas: tuple[DeltaTerm, ...] = ()
    smooth: tuple[SmoothTerm, ...] = ()

    def __add__(self, other: "Kernel") -> "Kernel":
        return Kernel(self.deltas + other.deltas, self.smooth + other.smooth)


def laplace_of_kernel(kernel: Kernel, x: complex, tol: float = 1e-10) -> complex:
    """Reconstruct g(x) from its density -- the consistency check for recognition."""
    check_tol(tol)
    x = complex(x)
    total = 0j
    for d in kernel.deltas:
        total += d.weight * x ** d.deriv_order * cexp(-x * d.location)
    for s in kernel.smooth:
        if x.real <= s.growth_bound:
            raise PreconditionError(
                f"evaluation point {x} inside growth bound {s.growth_bound} of {s.label!r}")
        res = integrate_semi_infinite(lambda t: s.fn(t) * np.exp(-x * t), tol=tol)
        total += res.value
    return total


class _Unrecognized(Exception):
    def __init__(self, why: str):
        self.why = why
        super().__init__(why)


def _merge(f1: dict, f2: dict) -> dict:
    out = dict(f1)
    for key, val in f2.items():
        cur = out.get(key)
        if cur is None:
            out[key] = val
        else:
            new = cur + val
            if new == 0:
                del out[key]
            else:
                out[key] = new
    return out


def _collect(terms):
    """Like terms summed, in order of first appearance."""
    if len(terms) == 2 and terms[0][1] != terms[1][1]:
        return terms
    out = {}
    for coeff, factors in terms:
        key = frozenset(factors.items())
        prev = out.get(key)
        out[key] = (coeff, factors) if prev is None else (prev[0] + coeff, prev[1])
    return list(out.values())


def _cross(terms1, terms2):
    out = [(c1 * c2, _merge(f1, f2)) for c1, f1 in terms1 for c2, f2 in terms2]
    # one term shifts every factor dict of the other side alike, so only a
    # product of two sums can bring like terms together
    if len(terms1) > 1 and len(terms2) > 1:
        out = _collect(out)
        if len(out) > _MAX_TERMS:
            raise _Unrecognized(f"expansion exceeds {_MAX_TERMS} terms")
    return out


def polynomial_coefficients(terms, degree: int = 2) -> list[complex] | None:
    """[c0, ..., c_degree] when the terms are a polynomial in k of at most
    that degree, else None."""
    coeffs = [0j] * (degree + 1)
    for coeff, factors in terms:
        p = factors.get(KPOW, 0.0)
        if len(factors) > (KPOW in factors) or p not in range(degree + 1):
            return None
        coeffs[int(p)] += coeff
    return coeffs


def _polynomial(node: ex.Node, degree: int, why: str) -> list[complex]:
    try:
        coeffs = polynomial_coefficients(linear_terms(node), degree)
    except _Unrecognized:
        coeffs = None
    if coeffs is None:
        raise _Unrecognized(why)
    return coeffs


def _exp_terms(arg: ex.Node):
    c0, c1, c2 = _polynomial(arg, 2, "exponent is not a polynomial of degree <= 2 in k")
    factors = {}
    if c1 != 0:
        factors[EXP] = c1
    if c2 != 0:
        factors[GAUSS] = c2
    return [(cexp(c0), factors)]


def _trig_frequency(arg: ex.Node, fn: str) -> tuple[float, complex]:
    """(theta, sign factor) for sin/cos of a homogeneous linear argument."""
    why = f"{fn} argument must be a multiple of k"
    c0, c1 = _polynomial(arg, 1, why)
    if c0 != 0:
        raise _Unrecognized(why)
    if abs(c1.imag) > 1e-14 * max(1.0, abs(c1)):
        raise _Unrecognized(f"{fn} frequency must be real")
    theta = c1.real
    if theta < 0:
        return -theta, (-1 if fn == "sin" else 1)
    return theta, 1


def _invert(terms):
    """The one term of 1/(sum of terms), for the denominators the catalog
    understands."""
    terms = [term for term in terms if term[0] != 0]
    if not terms:
        raise _Unrecognized("division by zero")
    if len(terms) == 1:
        coeff, factors = terms[0]
        return [(1.0 / coeff, {key: -val for key, val in factors.items()})]
    coeffs = polynomial_coefficients(terms, 2)
    if coeffs is None:
        raise _Unrecognized("cannot invert a multi-term denominator")
    c0, c1, c2 = coeffs
    if c1 == 0 and c2 != 0:
        ratio = c0 / c2
        if abs(ratio.imag) <= 1e-14 * abs(ratio) or ratio.imag == 0:
            if ratio.real > 0:
                a = math.sqrt(ratio.real)
                return [(1.0 / c2, {("lorentz", a): 1})]
        raise _Unrecognized(f"denominator k^2 + {ratio} is not a positive Lorentzian")
    raise _Unrecognized("denominator polynomial is not of a recognized shape")


def _power(term, p: float):
    """(c*F)^p as c^p * F^p.  For a fractional p that needs F(k) > 0 at
    every k > 0, which sines, cosines and complex exponentials break."""
    coeff, factors = term
    if coeff == 0 and p < 0:
        raise _Unrecognized("division by zero")
    n = int(p)
    if n != p:
        for (kind, _), val in factors.items():
            if kind in ("sin", "cos") or kind in ("exp", "gauss") and val.imag != 0:
                raise _Unrecognized("fractional power of an oscillating factor")
    if n == p and abs(n) <= _MAX_TERMS:
        # repeated products, as the power of a sum takes them
        step = coeff if n >= 0 else 1.0 / coeff
        coeff = 1 + 0j
        for _ in range(abs(n)):
            coeff *= step
    else:
        try:
            # a real base keeps the real power real, whatever the sign
            coeff = complex(coeff.real ** p) if coeff.imag == 0 else coeff ** p
        except OverflowError:
            raise _Unrecognized(f"coefficient {coeff}^{p} overflows") from None
    return (coeff, {key: val * p for key, val in factors.items()} if p else {})


def _constant_power(b: ex.Node, e: ex.Node, inverse: bool = False):
    """The terms of b^e, or with ``inverse`` of 1/b^e, for a constant real e.

    A sum to a negative integer power inverts the sum first, and 1/s^n does
    the same, as s^-n: expanding s^n before inverting would leave a
    polynomial of degree 2n that no denominator shape matches.
    """
    ev = ex.constant_value(e)
    if ev.imag != 0:
        raise _Unrecognized("complex exponent")
    if not math.isfinite(ev.real):
        raise _Unrecognized("non-finite exponent")
    base = linear_terms(b)
    if len(base) == 1:
        out = [_power(base[0], ev.real)]
        return _invert(out) if inverse else out
    if ev.real != int(ev.real):
        raise _Unrecognized("fractional power of a composite base")
    n = -int(ev.real) if inverse else int(ev.real)
    if abs(n) > _MAX_TERMS:
        # refused before expanding: (a + b)^n alone has n + 1 terms, and
        # both spellings of its inverse are refused alike
        raise _Unrecognized(f"expansion exceeds {_MAX_TERMS} terms")
    if n < 0:
        return [_power(_invert(base)[0], -n)]
    out = [(1 + 0j, {})]
    for _ in range(n):
        out = _cross(out, base)
    return out


def linear_terms(node: ex.Node) -> list[tuple[complex, dict]]:
    """Decompose into [(coefficient, {factor-key: value})], no two terms
    with equal factors, or raise _Unrecognized."""
    if ex.is_constant(node):
        return [(ex.constant_value(node), {})]
    match node:
        case ex.Var():
            return [(1 + 0j, {KPOW: 1.0})]
        case ex.Neg(arg=a):
            return [(-c, f) for c, f in linear_terms(a)]
        case ex.Add(left=l, right=r):
            return _collect(linear_terms(l) + linear_terms(r))
        case ex.Sub(left=l, right=r):
            return _collect(linear_terms(l) + [(-c, f) for c, f in linear_terms(r)])
        case ex.Mul(left=l, right=r):
            return _cross(linear_terms(l), linear_terms(r))
        case ex.Div(left=l, right=ex.Pow(base=b, exponent=e)) \
                if ex.is_constant(e) and not ex.is_constant(b):
            return _cross(linear_terms(l), _constant_power(b, e, inverse=True))
        case ex.Div(left=l, right=r):
            return _cross(linear_terms(l), _invert(linear_terms(r)))
        case ex.Call(fn="exp", arg=a) | ex.Pow(base=ex.Const(name="e"), exponent=a):
            return _exp_terms(a)
        case ex.Call(fn="sin", arg=a):
            theta, sign = _trig_frequency(a, "sin")
            if theta == 0:
                return []
            return [(complex(sign), {("sin", theta): 1})]
        case ex.Call(fn="cos", arg=a):
            theta, sign = _trig_frequency(a, "cos")
            if theta == 0:
                return [(complex(sign), {})]
            return [(complex(sign), {("cos", theta): 1})]
        case ex.Call(fn="sqrt", arg=a):
            return linear_terms(ex.Pow(a, ex.Num(0.5)))
        case ex.Call(fn="log"):
            raise _Unrecognized("log(k) has no integral representation here")
        case ex.Pow(base=b, exponent=e) if ex.is_constant(e):
            return _constant_power(b, e)
        case ex.Pow(base=b, exponent=e) if ex.is_constant(b):
            # k in the exponent with a constant base: rewrite through exp
            bv = ex.constant_value(b)
            if bv.imag == 0 and bv.real > 0:
                return _exp_terms(ex.Mul(ex.Num(math.log(bv.real)), e))
            raise _Unrecognized("base of a k-dependent power must be a positive constant")
    raise _Unrecognized(f"no decomposition for {ex.pretty(node)!r}")


def decompose(expression) -> list[tuple[complex, dict]]:
    """The summand (text or tree) as [(coefficient, factors)], zero terms
    dropped; terms it returned before pass through, as a list or as the
    tuple of (coefficient, read-only factors) pairs that ``cli`` keeps.

    ``cli.run`` decomposes each (summand, lattice scale) once per process:
    its ``functools.lru_cache`` tables (at most 256 entries each) keep
    these terms and the kernel and pair read from them, never a value.  A
    one-shot ``finsum eval`` process starts with empty tables and
    decomposes on its one request.

    Raises RecognitionError when the summand has no such decomposition.
    """
    if isinstance(expression, (list, tuple)):
        return expression
    node = ex.parse_expression(expression) if isinstance(expression, str) else expression
    try:
        terms = linear_terms(node)
    except _Unrecognized as e:
        raise RecognitionError(
            f"cannot normalize summand: {e.why}; "
            "the telescoping route or the direct oracle handles it") from None
    return [(coeff, factors) for coeff, factors in terms if coeff != 0]


# ---------------------------------------------------------------------------
# the catalog

def _no_transform(why: str) -> RecognitionError:
    return RecognitionError(f"no transform for term: {why}; "
                            "the telescoping route or the direct oracle handles it")


def _as_order(p: float) -> int:
    n = round(p)
    if abs(p - n) > 1e-12 or not 0 <= n <= _MAX_DELTA_ORDER:
        raise _no_transform(f"k-power {p} is not an integer order in 0..{_MAX_DELTA_ORDER}")
    return int(n)


def _trig_deltas(coeff: complex, kind: str, theta: float, shift: complex,
                 order: int) -> tuple[DeltaTerm, ...]:
    # exp(ck) sin/cos(theta k) splits over exp(-k(-c -+ i theta))
    lo = -shift - 1j * theta
    hi = -shift + 1j * theta
    if kind == "cos":
        half = coeff / 2
        return (DeltaTerm(half, lo, order), DeltaTerm(half, hi, order))
    half = coeff / 2j
    return (DeltaTerm(half, lo, order), DeltaTerm(-half, hi, order))


def _term_kernel(coeff: complex, factors: dict) -> Kernel:
    if GAUSS in factors:
        raise _no_transform(
            "Gaussian factor exp(c*k^2) has no representation on this route; "
            "use the Fourier route")
    trig = [(kind, param, mult) for (kind, param), mult in factors.items()
            if kind in ("sin", "cos")]
    lorentz = [(param, mult) for (kind, param), mult in factors.items()
               if kind == "lorentz"]
    kpow = factors.get(KPOW, 0.0)
    shift = factors.get(EXP, 0j)

    if lorentz:
        if trig or shift != 0 or len(lorentz) != 1 or lorentz[0][1] != 1:
            raise _no_transform("Lorentzian factor only combines with a single power of k")
        a, _ = lorentz[0]
        if kpow == 0:
            fn = (lambda t, c=coeff, a=a: c * np.sin(a * t) / a)
            term = SmoothTerm(fn, 0.0, f"lorentzian(a={a})", frequency=abs(a))
            return Kernel(smooth=(term,))
        if kpow == 1:
            fn = (lambda t, c=coeff, a=a: c * np.cos(a * t))
            term = SmoothTerm(fn, 0.0, f"k-lorentzian(a={a})", frequency=abs(a))
            return Kernel(smooth=(term,))
        raise _no_transform(f"k^{kpow} over a Lorentzian is not in the catalog")

    if trig:
        if len(trig) != 1 or trig[0][2] != 1:
            raise _no_transform("products or powers of trigonometric factors")
        kind, theta, _ = trig[0]
        if (-shift).real < -1e-12:
            raise _no_transform(f"growing exponential factor exp({shift}*k)")
        order = _as_order(kpow)
        return Kernel(deltas=_trig_deltas(coeff, kind, theta, shift, order))

    if shift != 0:
        if (-shift).real < -1e-12:
            raise _no_transform(f"growing exponential factor exp({shift}*k)")
        order = _as_order(kpow)
        return Kernel(deltas=(DeltaTerm(coeff, -shift, order),))

    if kpow < 0:
        s = -kpow
        try:
            gamma = gamma_fn(s)
        except OverflowError:
            raise _no_transform(f"Gamma({s}) of the power density overflows float64") from None
        fn = (lambda t, c=coeff, s=s, gamma=gamma: c * t ** (s - 1.0) / gamma)
        return Kernel(smooth=(SmoothTerm(fn, 0.0, f"power(s={s})", s - 1.0),))
    order = _as_order(kpow)
    return Kernel(deltas=(DeltaTerm(coeff, 0j, order),))


def recognize_pair(expression) -> Kernel:
    """The density of an expression in k: text, a tree, or the terms
    ``decompose`` returned for it.

    Raises RecognitionError when the expression has no decomposition or
    some term has no entry in the catalog; the telescoping route and the
    direct oracle handle general summands.
    """
    kernel = Kernel()
    for coeff, factors in decompose(expression):
        kernel = kernel + _term_kernel(coeff, factors)
    return kernel
