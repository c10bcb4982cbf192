"""Expression grammar over the summation index k.

    additive       := multiplicative (('+' | '-') multiplicative)*
    multiplicative := unary (('*' | '/') unary)*
    unary          := '-' unary | power
    power          := atom ('^' unary)?          # right-associative
    atom           := NUMBER | 'pi' | 'e' | 'k'
                    | ('sin'|'cos'|'exp'|'log'|'sqrt') '(' additive ')'
                    | '(' additive ')'

Precedence (low to high): additive, multiplicative, unary minus, power,
atoms -- so ``-k^2`` is ``-(k^2)`` and ``2^3^2`` is 512.  Parse errors carry
the byte offset and the expected-token set.  Evaluation is polymorphic: the
same tree evaluates at scalars, float64 and complex128 arrays and jets, which
is how one closure serves the oracle, the quadrature grids and the derivative
machinery.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import jets
from .errors import ParseError

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str  # 'pi' | 'e'


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Num, Const, Var, Neg, Add, Sub, Mul, Div, Pow, Call]


# ---------------------------------------------------------------------------
# tokenizer / parser

# nesting levels (parentheses, calls, unary minus, exponents, and each
# operator of a + - * / chain, which nests its left operand one level deeper)
# the parser accepts; every tree walk here recurses once per level
_MAX_DEPTH = 100
_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?|([A-Za-z_]\w*)|([()+\-*/^]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unrecognized character {stripped[0]!r}",
                             len(text) - len(stripped),
                             frozenset({"number", "name", "operator"}))
        if m.group(1) is not None:
            tokens.append(("num", m.group(1) + (m.group(2) or ""), m.start(1)))
        elif m.group(3) is not None:
            tokens.append(("name", m.group(3), m.start(3)))
        else:
            tokens.append(("op", m.group(4), m.start(4)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off, frozenset({repr(op)}))
        return self.advance()

    def parse(self) -> Node:
        node = self.additive()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", off,
                             frozenset({"'+'", "'-'", "'*'", "'/'", "'^'", "end of input"}))
        return node

    def additive(self) -> Node:
        node = self.multiplicative()
        depth = self.depth
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                self.depth += 1
                rhs = self.multiplicative()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                self.depth = depth
                return node

    def multiplicative(self) -> Node:
        node = self.unary()
        depth = self.depth
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                self.depth += 1
                rhs = self.unary()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                self.depth = depth
                return node

    def unary(self) -> Node:
        # every nested operand, and every operand of a chain, is parsed
        # through here
        kind, val, off = self.peek()
        if self.depth >= _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels", off)
        self.depth += 1
        if kind == "op" and val == "-":
            self.advance()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Node:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return Pow(base, self.unary())
        return base

    def atom(self) -> Node:
        kind, val, off = self.peek()
        if kind == "num":
            self.advance()
            value = float(val)
            if math.isinf(value):
                raise ParseError(f"number {val!r} overflows float64", off)
            return Num(value)
        if kind == "name":
            self.advance()
            if val == "k":
                return Var()
            if val in CONSTANTS:
                return Const(val)
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.additive()
                self.expect_op(")")
                return Call(val, arg)
            raise ParseError(f"unknown name {val!r}", off,
                             frozenset({"'k'", "'pi'", "'e'"} | {f"'{f}'" for f in FUNCTIONS}))
        if kind == "op" and val == "(":
            self.advance()
            node = self.additive()
            self.expect_op(")")
            return node
        raise ParseError("expected a value", off,
                         frozenset({"number", "'k'", "'pi'", "'e'", "function", "'('"}))


def parse_expression(text: str) -> Node:
    """Parse an expression in k; raises ParseError with offset on bad input."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation

_FUNCS = {"sin": jets.sin, "cos": jets.cos, "exp": jets.exp,
          "log": jets.log, "sqrt": jets.sqrt}


def evaluate(node: Node, k):
    """Evaluate at k, which may be a scalar, a float64 or complex array or a jet.

    An array power is real only for a float64 base and a real scalar
    exponent that is integral or has every base > 0; ``(k-5)^0.5`` is complex.
    """
    match node:
        case Num(value=v):
            return v
        case Const(name=name):
            return CONSTANTS[name]
        case Var():
            return k
        case Neg(arg=a):
            return -evaluate(a, k)
        case Add(left=l, right=r):
            return evaluate(l, k) + evaluate(r, k)
        case Sub(left=l, right=r):
            return evaluate(l, k) - evaluate(r, k)
        case Mul(left=l, right=r):
            return evaluate(l, k) * evaluate(r, k)
        case Div(left=l, right=r):
            return evaluate(l, k) / evaluate(r, k)
        case Pow(base=b, exponent=e):
            be = evaluate(b, k)
            ee = evaluate(e, k)
            if isinstance(be, jets.Jet) or isinstance(ee, jets.Jet):
                return be ** ee
            if isinstance(be, np.ndarray) or isinstance(ee, np.ndarray):
                if (isinstance(be, np.ndarray) and be.dtype == np.float64 and isinstance(ee, float)
                        and (ee.is_integer() or np.all(be > 0))):
                    return np.power(be, ee)
                return np.asarray(be, dtype=complex) ** ee
            return complex(be) ** ee
        case Call(fn=fn, arg=a):
            return _FUNCS[fn](evaluate(a, k))
    raise TypeError(f"unknown node {node!r}")


def as_function(node: Node):
    """A closure k -> value that accepts scalars, arrays and jets.

    The source tree stays reachable as ``.node``, so recognizers can work
    from the closure alone.
    """
    def g(k):
        return evaluate(node, k)
    g.node = node
    return g


def substitute_index(node: Node, replacement: Node) -> Node:
    """The tree with every occurrence of k replaced by the given subtree."""
    match node:
        case Num() | Const():
            return node
        case Var():
            return replacement
        case Neg(arg=a):
            return Neg(substitute_index(a, replacement))
        case Add(left=l, right=r):
            return Add(substitute_index(l, replacement), substitute_index(r, replacement))
        case Sub(left=l, right=r):
            return Sub(substitute_index(l, replacement), substitute_index(r, replacement))
        case Mul(left=l, right=r):
            return Mul(substitute_index(l, replacement), substitute_index(r, replacement))
        case Div(left=l, right=r):
            return Div(substitute_index(l, replacement), substitute_index(r, replacement))
        case Pow(base=b, exponent=e):
            return Pow(substitute_index(b, replacement), substitute_index(e, replacement))
        case Call(fn=fn, arg=a):
            return Call(fn, substitute_index(a, replacement))
    raise TypeError(f"unknown node {node!r}")


def is_constant(node: Node) -> bool:
    """True when the tree does not reference k."""
    match node:
        case Num() | Const():
            return True
        case Var():
            return False
        case Neg(arg=a):
            return is_constant(a)
        case Add(left=l, right=r) | Sub(left=l, right=r) | Mul(left=l, right=r) \
                | Div(left=l, right=r):
            return is_constant(l) and is_constant(r)
        case Pow(base=b, exponent=e):
            return is_constant(b) and is_constant(e)
        case Call(arg=a):
            return is_constant(a)
    return False


def constant_value(node: Node) -> complex:
    """Numeric value of a k-free subtree."""
    return complex(evaluate(node, 0.0))


# ---------------------------------------------------------------------------
# pretty printer

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}


def _prec(node: Node) -> int:
    return _PREC.get(type(node), 5)


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def pretty(node: Node) -> str:
    """Canonical text form; parse(pretty(parse(s))) == parse(s)."""
    match node:
        case Num(value=v):
            return _fmt_num(v)
        case Const(name=name):
            return name
        case Var():
            return "k"
        case Neg(arg=a):
            inner = pretty(a)
            if _prec(a) < 3:
                inner = f"({inner})"
            return f"-{inner}"
        case Add(left=l, right=r):
            rs = pretty(r)
            if _prec(r) <= 1:
                rs = f"({rs})"
            ls = pretty(l)
            if _prec(l) < 1:
                ls = f"({ls})"
            return f"{ls} + {rs}"
        case Sub(left=l, right=r):
            rs = pretty(r)
            if _prec(r) <= 1 or isinstance(r, Neg):
                rs = f"({rs})"
            ls = pretty(l)
            if _prec(l) < 1:
                ls = f"({ls})"
            return f"{ls} - {rs}"
        case Mul(left=l, right=r):
            ls = pretty(l)
            if _prec(l) < 2:
                ls = f"({ls})"
            rs = pretty(r)
            if _prec(r) <= 2 and not isinstance(r, Mul):
                rs = rs if _prec(r) > 2 else f"({rs})"
            elif isinstance(r, Mul):
                rs = f"({rs})"
            return f"{ls}*{rs}"
        case Div(left=l, right=r):
            ls = pretty(l)
            if _prec(l) < 2:
                ls = f"({ls})"
            rs = pretty(r)
            if _prec(r) <= 2:
                rs = f"({rs})"
            return f"{ls}/{rs}"
        case Pow(base=b, exponent=e):
            bs = pretty(b)
            if _prec(b) <= 4:
                bs = f"({bs})"
            es = pretty(e)
            if _prec(e) < 3:
                es = f"({es})"
            return f"{bs}^{es}"
        case Call(fn=fn, arg=a):
            return f"{fn}({pretty(a)})"
    raise TypeError(f"unknown node {node!r}")
