"""Expression grammar over the summation index k.

    chain_0 := chain_1 (('+' | '-') chain_1)*    # _CHAINS, loosest first
    chain_1 := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?                 # right-associative
    atom    := NUMBER | 'pi' | 'e' | 'k'
             | ('sin'|'cos'|'exp'|'log'|'sqrt') '(' chain_0 ')'
             | '(' chain_0 ')'

Precedence (low to high): + and -, * and /, unary minus, power, atoms --
so ``-k^2`` is ``-(k^2)`` and ``2^3^2`` is 512.  The grammar is stated in
two tables: ``_CHAINS``, the left-associative binary operators by level,
which one chain loop of the parser reads, and ``_BINARY``, each binary
node's symbol and the least precedence its operands print bare at, which
``pretty`` reads.  ``substitute_index`` and ``is_constant`` are one walk
over each node type's subtree fields (the fields annotated ``Node``);
``evaluate``, the hot walk, keeps one case per node type.  Parse errors
carry the byte offset and the expected-token set.  Evaluation is
polymorphic: the same tree evaluates at scalars, float64 and complex128
arrays and jets, which is how one closure serves the oracle, the
quadrature grids and the derivative machinery.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from typing import Union, get_args

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
    arg: Node


@dataclass(frozen=True)
class Add:
    left: Node
    right: Node


@dataclass(frozen=True)
class Sub:
    left: Node
    right: Node


@dataclass(frozen=True)
class Mul:
    left: Node
    right: Node


@dataclass(frozen=True)
class Div:
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow:
    base: Node
    exponent: Node


@dataclass(frozen=True)
class Call:
    fn: str
    arg: Node


Node = Union[Num, Const, Var, Neg, Add, Sub, Mul, Div, Pow, Call]


# ---------------------------------------------------------------------------
# tokenizer / parser

# nesting levels (parentheses, calls, unary minus, exponents, and each
# operator of a + - * / chain, which nests its left operand one level deeper)
# the parser accepts; every tree walk here recurses once per level
_MAX_DEPTH = 100
# the left-associative binary operators, one table per precedence level,
# loosest first
_CHAINS = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})
_TRAILING = frozenset({repr(op) for ops in _CHAINS for op in ops} | {"'^'", "end of input"})
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
        node = self.chain()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", off, _TRAILING)
        return node

    def chain(self, level: int = 0) -> Node:
        """Operands of the next level (``unary`` past the last) joined left
        to right by the operators of ``_CHAINS[level]``."""
        ops = _CHAINS[level]
        tighter = level + 1 < len(_CHAINS)
        node = self.chain(level + 1) if tighter else self.unary()
        depth = self.depth
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in ops:
                self.depth = depth
                return node
            self.advance()
            self.depth += 1
            rhs = self.chain(level + 1) if tighter else self.unary()
            node = ops[val](node, rhs)

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
                arg = self.chain()
                self.expect_op(")")
                return Call(val, arg)
            raise ParseError(f"unknown name {val!r}", off,
                             frozenset({"'k'", "'pi'", "'e'"} | {f"'{f}'" for f in FUNCTIONS}))
        if kind == "op" and val == "(":
            self.advance()
            node = self.chain()
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


def _field_list(kind: type) -> tuple[tuple[str, bool], ...] | None:
    """(name, holds a subtree) for each field of a node type, in order, or
    None for a leaf type; a field annotated ``Node`` holds a subtree."""
    fields = tuple((f.name, f.type == "Node") for f in dataclasses.fields(kind))
    return fields if any(sub for _, sub in fields) else None


# the field list of each node type, taken once
_FIELDS = {kind: _field_list(kind) for kind in get_args(Node)}


def substitute_index(node: Node, replacement: Node) -> Node:
    """The tree with every occurrence of k replaced by the given subtree."""
    kind = type(node)
    if kind is Var:
        return replacement
    fields = _FIELDS[kind]
    if fields is None:
        return node
    return kind(*[substitute_index(getattr(node, name), replacement) if sub
                  else getattr(node, name) for name, sub in fields])


def is_constant(node: Node) -> bool:
    """True when the tree does not reference k."""
    kind = type(node)
    if kind is Var:
        return False
    for name, sub in _FIELDS[kind] or ():
        if sub and not is_constant(getattr(node, name)):
            return False
    return True


def constant_value(node: Node) -> complex:
    """Numeric value of a k-free subtree."""
    return complex(evaluate(node, 0.0))


# ---------------------------------------------------------------------------
# pretty printer

# precedence of each node type, 5 for atoms
_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}
# each binary node's symbol and the least precedence its left and its right
# operand print bare at; an operand below it takes parentheses
_BINARY = {Add: (" + ", 1, 2), Sub: (" - ", 1, 2), Mul: ("*", 2, 3),
           Div: ("/", 2, 3), Pow: ("^", 5, 3)}


def _operand(node: Node, least: int) -> str:
    text = pretty(node)
    return text if _PREC.get(type(node), 5) >= least else f"({text})"


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def pretty(node: Node) -> str:
    """Canonical text form; parse(pretty(parse(s))) == parse(s)."""
    kind = type(node)
    if kind in _BINARY:
        symbol, least_left, least_right = _BINARY[kind]
        (left, _), (right, _) = _FIELDS[kind]
        a, b = getattr(node, left), getattr(node, right)
        rs = _operand(b, least_right)
        if kind is Sub and isinstance(b, Neg):
            rs = f"({rs})"  # a - (-b), not a - -b
        return f"{_operand(a, least_left)}{symbol}{rs}"
    match node:
        case Num(value=v):
            return _fmt_num(v)
        case Const(name=name):
            return name
        case Var():
            return "k"
        case Neg(arg=a):
            return f"-{_operand(a, 3)}"
        case Call(fn=fn, arg=a):
            return f"{fn}({pretty(a)})"
    raise TypeError(f"unknown node {node!r}")
