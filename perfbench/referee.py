"""Independent high-precision referee, built on mpmath alone.

The referee never imports finsum.  It parses the summand text with its own
parser (the grammar of ``finsum eval --expr``), reads every numeric literal
and every alpha/beta as the exact double the program receives, forms
alpha*k and the variant weights in mpmath, and sums at ``DPS`` digits.
Integrals use closed-form antiderivatives evaluated in mpmath.

``selfcheck`` compares the referee with exact ``fractions.Fraction`` sums and
with mpmath closed forms of a few catalog identities; a run does not count
unless it passes.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

DPS = 50

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?|([A-Za-z_]\w*)|([()+\-*/^]))")
_FUNCS = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp,
          "log": mpmath.log, "sqrt": mpmath.sqrt}
_CONSTS = {"pi": math.pi, "e": math.e}


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"referee cannot tokenize {text!r} at {pos}")
        out.append(m.group(1) + (m.group(2) or "") if m.group(1) else m.group(3) or m.group(4))
        pos = m.end()
    return out


class _Parser:
    """additive > multiplicative > unary minus > right-associative power > atom."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _take(self, want=None):
        tok = self._peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"referee parse error near token {self.i}: want {want!r}, got {tok!r}")
        self.i += 1
        return tok

    def parse(self):
        f = self._additive()
        if self._peek() is not None:
            raise ValueError(f"referee parse error: trailing {self._peek()!r}")
        return f

    def _additive(self):
        f = self._multiplicative()
        while self._peek() in ("+", "-"):
            op = self._take()
            g = self._multiplicative()
            f = (lambda x, f=f, g=g: f(x) + g(x)) if op == "+" else \
                (lambda x, f=f, g=g: f(x) - g(x))
        return f

    def _multiplicative(self):
        f = self._unary()
        while self._peek() in ("*", "/"):
            op = self._take()
            g = self._unary()
            f = (lambda x, f=f, g=g: f(x) * g(x)) if op == "*" else \
                (lambda x, f=f, g=g: f(x) / g(x))
        return f

    def _unary(self):
        if self._peek() == "-":
            self._take()
            f = self._unary()
            return lambda x: -f(x)
        return self._power()

    def _power(self):
        base = self._atom()
        if self._peek() == "^":
            self._take()
            expo = self._unary()
            return lambda x: base(x) ** expo(x)
        return base

    def _atom(self):
        tok = self._take()
        if tok == "(":
            f = self._additive()
            self._take(")")
            return f
        if tok == "k":
            return lambda x: x
        if tok in _CONSTS:
            v = mpf(_CONSTS[tok])
            return lambda x: v
        if tok in _FUNCS:
            fn = _FUNCS[tok]
            self._take("(")
            arg = self._additive()
            self._take(")")
            return lambda x: fn(arg(x))
        if tok[0].isdigit() or tok[0] == ".":
            v = mpf(float(tok))
            return lambda x: v
        raise ValueError(f"referee: unknown token {tok!r}")


def compile_expr(text: str):
    """text -> function of an mpmath number, in the finsum expression grammar."""
    return _Parser(text).parse()


def series(text: str, n: int, alpha: float = 1.0, variant: str = "standard",
           beta: float = 0.0):
    """sum_{k=1}^{n} w_k g(alpha*k [+ beta]) with the variant weights w_k."""
    g = compile_expr(text)
    alternating = variant.endswith("alternating")
    shifted = variant.startswith("shifted")
    damped = variant.startswith("exp-factor")
    with mp.workdps(DPS):
        al, be = mpf(alpha), mpf(beta)
        step = mpmath.exp(-be) if damped else mpf(1)
        weight = mpf(1)
        total = mpf(0)
        for k in range(1, n + 1):
            x = al * k
            if shifted:
                x += be
            weight *= step
            term = g(x) * weight
            total += -term if alternating and k % 2 == 0 else term
        return +total


def lattice(text: str, lo: float, hi: float, m: int):
    """sum of g over lo, lo+h, ..., hi with h = (hi-lo)/m, both ends included."""
    g = compile_expr(text)
    with mp.workdps(DPS):
        a, b = mpf(lo), mpf(hi)
        return +mpmath.fsum(g(a + (b - a) * i / m) for i in range(m + 1))


def integral(fn: dict, lo: float, hi: float | None):
    """Closed-form integral of a scalar-closure family over [lo, hi] (hi=None: inf)."""
    name = fn["name"]
    with mp.workdps(DPS):
        c, a = mpf(fn["c"]), mpf(fn["a"])
        if name == "lorentz":
            r = mpmath.sqrt(mpf(fn["a2"]))
            prim = lambda t: c / r * mpmath.atan(t / r)
            top = c / r * mpmath.pi / 2 if hi is None else prim(mpf(hi))
            return top - prim(mpf(lo))
        if name == "exp-cos":
            w = mpf(fn["theta"])
            prim = lambda t: c * mpmath.exp(-a * t) * (w * mpmath.sin(w * t)
                                                       - a * mpmath.cos(w * t)) / (a * a + w * w)
            top = mpf(0) if hi is None else prim(mpf(hi))
            return top - prim(mpf(lo))
    raise ValueError(f"no closed-form integral for family {name!r}")


def value(item: dict):
    """The referee value of one pool item."""
    kind = item["kind"]
    if kind in ("run", "direct_sum"):
        return series(item["expr"], item["n"], item["alpha"], item["variant"],
                      item["beta"])
    if kind == "telescoping_sum":
        return series(item["expr"], item["n"])
    if kind == "em_sum":
        return lattice(item["expr"], item["lo"], item["hi"], item["m"])
    if kind == "integrate_finite":
        return integral(item["fn"], item["lo"], item["hi"])
    if kind == "integrate_semi_infinite":
        return integral(item["fn"], 0.0, None)
    raise ValueError(f"unknown item kind {kind!r}")


# -- self-check -----------------------------------------------------------------

def _fraction_cases():
    yield ("1/k^2", 100, "standard", sum(Fraction(1, k * k) for k in range(1, 101)))
    yield ("1/k", 40, "alternating",
           sum(Fraction((-1) ** (k + 1), k) for k in range(1, 41)))
    yield ("k^3", 1000, "standard", Fraction(sum(k ** 3 for k in range(1, 1001))))


def _closed_form_cases():
    with mp.workdps(DPS + 20):
        th = mpf(1.1)
        n = 50
        cosine = mpmath.sin(n * th / 2) * mpmath.cos((n + 1) * th / 2) / mpmath.sin(th / 2)
        yield ("cos(1.1*k)", n, 1.0, "standard", 0.0, cosine)
        z = mpmath.expj(mpf(2.2))
        n = 30
        kz = z * (1 - (n + 1) * z ** n + n * z ** (n + 1)) / (1 - z) ** 2
        yield ("k*cos(2.2*k)", n, 1.0, "standard", 0.0, kz.real)
        r = mpmath.exp(-(mpf(0.5) + mpf(0.3) * mpf(1.25)))
        n = 40
        yield ("exp(-0.3*k)", n, 1.25, "exp-factor", 0.5, r * (1 - r ** n) / (1 - r))
        q = mpmath.exp(-mpf(0.3) * mpf(1.25))
        yield ("exp(-0.3*k)", n, 1.25, "shifted", 0.5,
               mpmath.exp(-mpf(0.3) * mpf(0.5)) * q * (1 - q ** n) / (1 - q))


def selfcheck() -> list[str]:
    """Problems with the referee, as messages; empty when it agrees everywhere."""
    problems = []
    with mp.workdps(DPS):
        for text, n, variant, exact in _fraction_cases():
            got = series(text, n, variant=variant)
            want = mpf(exact.numerator) / exact.denominator
            if abs(got - want) > mpf(10) ** (10 - DPS) * max(1, abs(want)):
                problems.append(f"referee {text} N={n} {variant}: {got} != exact {want}")
        for text, n, alpha, variant, beta, want in _closed_form_cases():
            got = series(text, n, alpha, variant, beta)
            if abs(got - want) > mpf(10) ** (10 - DPS) * max(1, abs(want)):
                problems.append(f"referee {text} N={n} {variant}: {got} != closed form {want}")
        fn = {"name": "exp-cos", "c": 1.5, "a": 0.7, "theta": 2.3}
        quad = 1.5 * mpmath.quad(lambda t: mpmath.exp(-mpf(0.7) * t) * mpmath.cos(mpf(2.3) * t),
                                 [0, 1, 2, 3])
        if abs(integral(fn, 0.0, 3.0) - quad) > mpf(10) ** (10 - DPS):
            problems.append("referee closed-form integral disagrees with mpmath.quad")
        if compile_expr("-0.5*k^2")(mpf(2)) != -2 or compile_expr("2^3^2")(mpf(0)) != 512:
            problems.append("referee parser precedence is wrong")
    return problems
