"""Core finite-series types and the direct-summation oracle.

The direct sum is the reference every other engine is judged against, so it
is kept boring: evaluate each term, weight it for the variant, and reduce
with compensated summation.  A SeriesSpec resolves its variant once into
(sign, damping, shift), which every route reads instead of the variant.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from . import backend, jets
from .errors import (CapabilityError, DomainError, EvaluationError,
                     PreconditionError)

_EPS = 2.220446049250313e-16
# terms per block of the oracle's lattice: 64 KB of float64, which malloc
# serves from its heap, so no block faults in fresh pages
_BLOCK = 8192
# 1.._BLOCK, read-only: a block's indices are one shifted copy of it, which
# is faster than np.arange's fill
_INDICES = np.arange(1, _BLOCK + 1, dtype=np.float64)
_INDICES.flags.writeable = False


class Variant(str, Enum):
    STANDARD = "standard"
    ALTERNATING = "alternating"
    SHIFTED = "shifted"
    SHIFTED_ALTERNATING = "shifted-alternating"
    EXP_FACTOR = "exp-factor"
    EXP_FACTOR_ALTERNATING = "exp-factor-alternating"

    @property
    def is_alternating(self) -> bool:
        return self in (Variant.ALTERNATING, Variant.SHIFTED_ALTERNATING,
                        Variant.EXP_FACTOR_ALTERNATING)

    @property
    def is_shifted(self) -> bool:
        return self in (Variant.SHIFTED, Variant.SHIFTED_ALTERNATING)

    @property
    def is_exp_factor(self) -> bool:
        return self in (Variant.EXP_FACTOR, Variant.EXP_FACTOR_ALTERNATING)


def check_count(n, name: str = "n_terms") -> int:
    """n as a Python int, or PreconditionError unless it is an integer >= 1.

    Python and NumPy integers pass; bool, float, str and the rest do not.
    Every term count, subinterval count and correction order in the package
    is checked here.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise PreconditionError(f"{name} must be a positive integer, got {n!r}")
    return int(n)


def check_tol(tol, name: str = "tol") -> None:
    """PreconditionError unless tol is a positive finite number: the rule
    for every tolerance the package takes."""
    if not (tol > 0 and math.isfinite(tol)):
        raise PreconditionError(f"{name} must be a positive finite number, got {tol!r}")


def check_lattice(variant, n_terms, alpha=1.0, beta=0j) -> tuple[Variant, int, complex, complex]:
    """(variant, n_terms, alpha, beta) normalized, or PreconditionError.

    The conditions a variant puts on its lattice: N >= 1, a finite alpha
    with Re(alpha) > 0, even N for the alternating variants, a finite beta
    for the variants that use it (shifted and exp-factor) and Re(beta) > 0
    for the exp-factor ones.  They are stated here and nowhere else.  A
    variant that is not one of the six raises DomainError.
    """
    try:
        variant = Variant(variant)
    except ValueError:
        raise DomainError(f"unknown variant {variant!r}") from None
    n_terms = check_count(n_terms)
    alpha, beta = complex(alpha), complex(beta)
    if not cmath.isfinite(alpha):
        raise PreconditionError(f"alpha must be finite, got {alpha}")
    if (variant.is_shifted or variant.is_exp_factor) and not cmath.isfinite(beta):
        raise PreconditionError(f"variant {variant.value!r} requires a finite beta, got {beta}")
    if alpha.real <= 0.0:
        raise PreconditionError(f"Re(alpha) must be positive, got {alpha}")
    if variant.is_alternating and n_terms % 2 != 0:
        raise PreconditionError(
            f"variant {variant.value!r} requires an even number of terms, got {n_terms}")
    if variant.is_exp_factor and beta.real <= 0.0:
        raise PreconditionError(
            f"variant {variant.value!r} requires Re(beta) > 0, got {beta}")
    return variant, n_terms, alpha, beta


@dataclass(frozen=True)
class SeriesSpec:
    """A finite series sum_{k=1}^{n} sign^(k+1) exp(-damping*k) g(alpha*k + shift).

    ``g`` is the bare term function, or None where only the lattice is
    needed.  The variant is resolved once, here, into the three parts every
    consumer reads: ``sign`` is -1.0 on the alternating variants, else 1.0;
    ``damping`` is beta on the exp-factor variants and ``shift`` beta on
    the shifted ones, else None.
    """

    g: Callable | None
    n_terms: int
    alpha: complex = 1.0 + 0j
    variant: Variant = Variant.STANDARD
    beta: complex = 0j
    sign: float = field(init=False, repr=False)
    damping: complex | None = field(init=False, repr=False)
    shift: complex | None = field(init=False, repr=False)

    def __post_init__(self):
        lattice = check_lattice(self.variant, self.n_terms, self.alpha, self.beta)
        variant, beta = lattice[0], lattice[3]
        parts = (-1.0 if variant.is_alternating else 1.0,
                 beta if variant.is_exp_factor else None, beta if variant.is_shifted else None)
        for name, value in zip(("variant", "n_terms", "alpha", "beta", "sign", "damping",
                                "shift"), lattice + parts):
            object.__setattr__(self, name, value)

    @property
    def real_lattice(self) -> bool:
        """Whether alpha, damping and shift are real: the oracle's lattice
        and the summation factor's grid are then float64."""
        return all(v is None or v.imag == 0.0 for v in (self.alpha, self.damping, self.shift))

    def parameters(self, dtype) -> tuple:
        """(alpha, damping, shift), their real parts for a float64 lattice."""
        parts = (self.alpha, self.damping, self.shift)
        if dtype == np.complex128:
            return parts
        return tuple(None if v is None else v.real for v in parts)


@dataclass
class Diagnostics:
    nodes: int = 0
    truncation_index: int = 0
    divergent: bool = False
    converged: bool = True
    runtime_ns: int = 0
    notes: dict = field(default_factory=dict)


@dataclass
class SumResult:
    value: complex
    method: str
    error_estimate: float
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    @property
    def flags(self) -> list[str]:
        out = []
        if self.diagnostics.divergent:
            out.append("divergent")
        if not self.diagnostics.converged:
            out.append("non-converged")
        return out


def term_argument(spec: SeriesSpec, k):
    """The argument handed to g at index k (scalar, array or jet)."""
    if spec.shift is not None:
        return spec.alpha * k + spec.shift
    return spec.alpha * k


def term_weight(spec: SeriesSpec, k):
    """The variant weight at index k (scalar, or float64 or complex128
    array of indices); float64 on a float64 index array when the damping
    is real."""
    w = 1.0
    if spec.damping is not None:
        if isinstance(k, np.ndarray):
            real = k.dtype == np.float64 and spec.damping.imag == 0.0
            w = np.exp(-(spec.damping.real if real else spec.damping) * k)
        else:
            w = jets.exp(-spec.damping * k)
    if spec.sign < 0:
        if isinstance(k, np.ndarray):
            sign = np.where(k.real.astype(np.int64) % 2 == 1, 1.0, spec.sign)
        else:
            sign = 1.0 if int(k) % 2 == 1 else spec.sign
        w = w * sign
    return w


def effective_term(spec: SeriesSpec) -> Callable:
    """h with sum(spec) = sum_{k=1}^{n} h(k), extended off the lattice.

    h(x) is exp(-damping*x) * g(alpha*x + shift), without the parts the
    variant lacks and with no unit weight applied.  On a jet x with
    alpha == 1 the argument is x itself (+ shift), since scaling by 1
    changes no coefficient.  Used by the telescoping and lattice-sum
    routes; the alternating variants raise a capability error, since the
    sign (-1)^(k+1) has no smooth extension.
    """
    if spec.sign < 0:
        raise CapabilityError(
            f"variant {spec.variant.value!r} cannot be extended smoothly off the integer lattice")
    g, alpha, shift = spec.g, spec.alpha, spec.shift
    unit = alpha == 1
    damping = None if spec.damping is None else -spec.damping

    def h(x):
        w = None if damping is None else jets.exp(damping * x)
        arg = x if unit and isinstance(x, jets.Jet) else alpha * x
        if shift is not None:
            arg = arg + shift
        return g(arg) if w is None else w * g(arg)

    return h


def _probe_vectorized(g: Callable, dtype) -> bool:
    """True when g maps an array of the dtype to a matching array of values."""
    probe = np.array([1.0, 2.0], dtype=dtype)
    try:
        with np.errstate(all="ignore"):
            out = g(probe)
    except Exception:
        return False
    if not isinstance(out, np.ndarray) or np.shape(out) != probe.shape:
        return False
    try:
        a = complex(g(probe[0].item()))
        b = complex(g(probe[1].item()))
    except Exception:
        return False
    ref = np.array([a, b])
    scale = np.maximum(np.abs(ref), 1.0)
    return bool(np.all(np.abs(np.asarray(out, dtype=complex) - ref) <= 1e-12 * scale))


def _parsed(g: Callable) -> bool:
    """True for a closure of :func:`finsum.expr.as_function`: its array and
    scalar values come from one evaluator, so no probe need compare them."""
    return getattr(g, "node", None) is not None


def _block_terms(spec: SeriesSpec, dtype, k0: int, m: int, lattice: bool):
    """The weighted terms k0 .. k0+m-1 on a lattice of the dtype, float64
    (the real parts of the spec's parameters) or complex128.

    With ``lattice`` (g is parsed or passed the probe) the block is one
    shifted copy of the indices: its weights are formed from it before g
    runs, so a g that writes into its argument cannot change them, and then
    it is scaled and shifted in place.  Only the operations that change a
    value run.  Terms come in the lattice's dtype, or complex128 where g
    gives complex values.  Without ``lattice``, or where g raises or gives
    no array of the block's shape, the float64 lattice gives None and the
    complex128 lattice forms the block by :func:`_term_block`."""
    if lattice:
        alpha, _, shift = spec.parameters(dtype)
        args = _INDICES[:m] + dtype(k0 - 1)  # the block's own array, scaled in place
        try:
            weights = (term_weight(spec, args)
                       if spec.sign < 0 or spec.damping is not None else None)
            if alpha != 1:
                args *= alpha
            if shift is not None:
                args += shift
            vals = spec.g(args)
            if isinstance(vals, np.ndarray) and vals.shape == (m,):
                terms = vals if weights is None else vals * weights
                return terms.astype(np.complex128 if terms.dtype.kind == "c" else dtype,
                                    copy=False)
        except Exception:
            pass
    return _term_block(spec, k0, m) if dtype == np.complex128 else None


def _term_block(spec: SeriesSpec, k0: int, m: int) -> np.ndarray:
    """The terms k0 .. k0+m-1 of a g that rejects arrays, in one pass of g
    over the arguments.  Each value is weighted by the operations of
    :func:`term_argument` and :func:`term_weight` in their order, so the
    terms are the same bits.  On an exception :func:`_term_loop` replays
    the block term by term, so that the error names the first failing k."""
    # iterators, so that no list of arguments or weights is held
    ks = range(k0, k0 + m)
    xs = map(operator.mul, itertools.repeat(spec.alpha), ks)
    if spec.shift is not None:
        xs = map(operator.add, xs, itertools.repeat(spec.shift))
    weights = (map(cmath.exp, map(operator.mul, itertools.repeat(-spec.damping), ks))
               if spec.damping is not None else itertools.repeat(1.0, m))
    if spec.sign < 0:  # k0 is odd
        weights = map(operator.mul, weights, itertools.cycle((1.0, spec.sign)))
    try:
        return np.fromiter(map(operator.mul, map(complex, map(spec.g, xs)), weights),
                           dtype=np.complex128, count=m)
    except Exception:
        return _term_loop(spec, k0, m)


def _term_loop(spec: SeriesSpec, k0: int, m: int) -> np.ndarray:
    """The terms k0 .. k0+m-1 one at a time, each formed and checked before
    the next."""
    terms = []
    for k in range(k0, k0 + m):
        try:
            term = complex(spec.g(term_argument(spec, k))) * term_weight(spec, k)
        except Exception as exc:
            raise EvaluationError(f"series term failed to evaluate: {exc}", at=f"k={k}") from exc
        if not (math.isfinite(term.real) and math.isfinite(term.imag)):
            raise EvaluationError("series term is not finite", at=f"k={k}")
        terms.append(term)
    return np.array(terms, dtype=np.complex128)


def _lattice_sum(spec: SeriesSpec, dtype) -> tuple[complex, float] | None:
    """(sum of the terms, sum of their magnitudes) on the lattice of the
    dtype, block by block; None where a float64 block is None or holds a
    non-finite term, which on complex128 raises EvaluationError naming k.

    |t| goes into one scratch buffer once: its sum is the block's sum of
    magnitudes, its finiteness the block's, and on a real block the
    extraction's b.  :func:`finsum.backend.partial_sums` reduces each block
    per component, and one ``math.fsum`` per list at the end the blocks;
    finite terms whose magnitudes or sum overflow raise EvaluationError."""
    n = spec.n_terms
    lattice = _parsed(spec.g) or _probe_vectorized(spec.g, dtype)
    buf = np.empty(min(n, _BLOCK))
    re, im, mag = [], [], []
    for k0 in range(1, n + 1, _BLOCK):
        m = min(_BLOCK, n + 1 - k0)  # every block but the last starts at an odd k
        terms = _block_terms(spec, dtype, k0, m, lattice)
        if terms is None:
            return None
        b = buf[:m]
        block_mag = float(np.add.reduce(np.abs(terms, out=b)))
        if not math.isfinite(block_mag):
            finite = np.isfinite(terms)
            if finite.all():
                raise EvaluationError("series sum overflows")
            if dtype == np.float64:
                return None
            raise EvaluationError("series term is not finite",
                                  at=f"k={k0 + int(np.argmin(finite))}")
        mag.append(block_mag)
        if terms.dtype == np.float64:
            re += backend.partial_sums(terms, b, block_mag, n)
        else:
            re += backend.partial_sums(terms.real, b, total=n)
            im += backend.partial_sums(terms.imag, b, total=n)
    try:
        return complex(math.fsum(re), math.fsum(im)), math.fsum(mag)
    except OverflowError:
        raise EvaluationError("series sum overflows") from None


def direct_sum(spec: SeriesSpec) -> SumResult:
    """Compensated direct evaluation of the series (the oracle).

    g runs on a float64 lattice where ``spec.real_lattice`` holds, the rule
    the summation factor's grid shares.  Otherwise, or when g fails the
    probe, raises, gives the wrong shape or a non-finite term there, the
    complex128 lattice gives the terms, block by block or, where g rejects
    arrays, term by term, and names a failing k: the oracle is
    ``_lattice_sum(float64) or _lattice_sum(complex128)``.  A parsed
    closure (one of :func:`finsum.expr.as_function`) goes straight to a
    lattice, so it is called once per block of the lattice; any other g is
    first probed at k = 1, 2, its array values checked against its scalar
    ones.

    The lattice is evaluated and reduced in blocks of ``_BLOCK`` terms by
    one loop, so memory stays O(block) at any N.  Each block is reduced by
    :func:`finsum.backend.partial_sums` (one ``math.fsum`` for a series of
    up to 160 terms, one error-free extraction otherwise), and the block
    sums are carried exactly by ``math.fsum``.  Up to one block the value
    and estimate are those of one reduction of all terms.  The estimate
    bounds the rounding accumulation by 2 * eps * sum(|terms|); a series
    whose sum or sum of magnitudes overflows float64 raises
    EvaluationError.
    """
    t0 = time.perf_counter_ns()
    with np.errstate(all="ignore"):  # a non-finite term is reported by k
        value, abs_sum = ((spec.real_lattice and _lattice_sum(spec, np.float64))
                          or _lattice_sum(spec, np.complex128))
    diag = Diagnostics(nodes=spec.n_terms, runtime_ns=time.perf_counter_ns() - t0)
    return SumResult(value=value, method="oracle", error_estimate=2.0 * _EPS * abs_sum,
                     diagnostics=diag)


def antidifference_sum(u: Callable, n: int) -> SumResult:
    """Evaluate sum_{k=1}^{n} g(k) from an antidifference u with u(k+1)-u(k) = g(k).

    Telescopes to u(n+1) - u(1); both endpoint values must be finite.
    """
    n = check_count(n, "n")
    t0 = time.perf_counter_ns()
    hi, lo = complex(u(n + 1)), complex(u(1))
    for name, v in (("u(n+1)", hi), ("u(1)", lo)):
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise EvaluationError("antidifference endpoint is not finite", at=name)
    value = hi - lo
    diag = Diagnostics(runtime_ns=time.perf_counter_ns() - t0)
    return SumResult(value=value, method="antidifference", error_estimate=_EPS * (abs(hi) + abs(lo)),
                     diagnostics=diag)
