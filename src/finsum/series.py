"""Core finite-series types and the direct-summation oracle.

The direct sum is the reference every other engine is judged against, so it
is kept boring: evaluate each term, weight it for the variant, and reduce
with compensated summation.  Variant weighting lives here and only here;
the integral engines import these helpers instead of re-deriving signs.
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


def check_lattice(variant, n_terms, alpha=1.0, beta=0j) -> tuple[Variant, int, complex, complex]:
    """(variant, n_terms, alpha, beta) normalized, or PreconditionError.

    The conditions a variant puts on its lattice: N >= 1, Re(alpha) > 0,
    even N for the alternating variants and Re(beta) > 0 for the
    exp-factor ones.  They are stated here and nowhere else.  A variant
    that is not one of the six raises DomainError.
    """
    try:
        variant = Variant(variant)
    except ValueError:
        raise DomainError(f"unknown variant {variant!r}") from None
    n_terms = check_count(n_terms)
    alpha, beta = complex(alpha), complex(beta)
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
    """A finite series sum_{k=1}^{n} weight_k * g(argument_k).

    ``g`` is the bare term function; the variant contributes the weights
    (alternating signs, exp(-beta*k) damping) and the argument shift.
    """

    g: Callable
    n_terms: int
    alpha: complex = 1.0 + 0j
    variant: Variant = Variant.STANDARD
    beta: complex = 0j

    def __post_init__(self):
        lattice = check_lattice(self.variant, self.n_terms, self.alpha, self.beta)
        for name, value in zip(("variant", "n_terms", "alpha", "beta"), lattice):
            object.__setattr__(self, name, value)


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
    if spec.variant.is_shifted:
        return spec.alpha * k + spec.beta
    return spec.alpha * k


def term_weight(spec: SeriesSpec, k):
    """The variant weight at index k (scalar or array of indices); float64
    on a float64 index array when beta is real."""
    w = 1.0
    if spec.variant.is_exp_factor:
        if isinstance(k, np.ndarray):
            real = k.dtype == np.float64 and spec.beta.imag == 0.0
            w = np.exp(-(spec.beta.real if real else spec.beta) * k)
        else:
            w = jets.exp(-spec.beta * k)
    if spec.variant.is_alternating:
        if isinstance(k, np.ndarray):
            sign = np.where(np.asarray(k).astype(np.int64) % 2 == 1, 1.0, -1.0)
        else:
            sign = 1.0 if int(k) % 2 == 1 else -1.0
        w = w * sign
    return w


def effective_term(spec: SeriesSpec) -> Callable:
    """h with sum(spec) = sum_{k=1}^{n} h(k), extended off the lattice.

    h(x) is exp(-beta*x) * g(alpha*x) on the exp-factor variant, and
    g(alpha*x + beta) or g(alpha*x) itself on the shifted and standard ones,
    with no unit weight applied.  On a jet x with alpha == 1 the argument is
    x itself (+ beta), since scaling by 1 changes no coefficient.  Used by
    the telescoping and lattice-sum routes; the alternating variants raise a
    capability error, since the sign (-1)^(k+1) has no smooth extension.
    """
    if spec.variant.is_alternating:
        raise CapabilityError(
            f"variant {spec.variant.value!r} cannot be extended smoothly off the integer lattice")
    # the variant is resolved here, once, rather than at every call of h
    g, alpha = spec.g, spec.alpha
    unit = alpha == 1
    shift = spec.beta if spec.variant.is_shifted else None
    damping = -spec.beta if spec.variant.is_exp_factor else None

    def h(x):
        w = None if damping is None else jets.exp(damping * x)
        arg = x if unit and isinstance(x, jets.Jet) else alpha * x
        if shift is not None:
            arg = arg + shift
        return g(arg) if w is None else w * g(arg)

    return h


def _probe_vectorized(g: Callable, dtype=np.complex128) -> bool:
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


def _real_lattice(spec: SeriesSpec):
    """The weighted terms on a float64 lattice, or None when alpha or a beta
    the variant uses is complex, or g raises there, gives no array of the
    lattice's shape or any non-finite term.  A closure other than a parsed
    one must first pass the probe.

    Only the operations that change a value run: no scaling when alpha is
    1, no shift unless the variant is shifted, no weighting unless it is
    alternating or exp-factor.  The weights are formed before g runs, so a
    g that writes into its argument cannot change them."""
    variant = spec.variant
    beta_used = variant.is_shifted or variant.is_exp_factor
    if (spec.alpha.imag != 0.0 or (beta_used and spec.beta.imag != 0.0)
            or not (_parsed(spec.g) or _probe_vectorized(spec.g, np.float64))):
        return None
    n = spec.n_terms
    args = np.arange(1, n + 1, dtype=np.float64)
    weighted = variant.is_alternating or variant.is_exp_factor
    try:
        with np.errstate(all="ignore"):
            weights = term_weight(spec, args) if weighted else None
            if spec.alpha != 1:
                args = spec.alpha.real * args
            if variant.is_shifted:
                args = args + spec.beta.real
            vals = spec.g(args)
            if not (isinstance(vals, np.ndarray) and vals.shape == (n,)):
                return None
            terms = vals if weights is None else vals * weights
            finite = bool(np.all(np.isfinite(terms)))
    except Exception:
        return None
    return terms if finite else None


def _complex_terms(spec: SeriesSpec) -> np.ndarray:
    """The weighted terms on a complex128 lattice, or one by one when g does
    not take arrays; EvaluationError names the first failing index.

    A parsed closure goes to the lattice unprobed, any other g once it
    passes the probe.  A g that raises there or gives no array of the
    lattice's shape is taken to reject arrays: the variant is resolved once
    per series, and the terms are formed in one pass of g over the
    arguments, each value weighted by the operations of
    :func:`term_argument` and :func:`term_weight` in their order, so the
    terms are the same bits; one numpy check then covers their finiteness.
    On any exception or non-finite term, :func:`_term_loop` replays the
    series term by term, so that the error names the first failing index."""
    n = spec.n_terms
    if _parsed(spec.g) or _probe_vectorized(spec.g):
        ks = np.arange(1, n + 1, dtype=np.complex128)
        with np.errstate(all="ignore"):  # a non-finite term is reported below
            args = spec.alpha * ks + (spec.beta if spec.variant.is_shifted else 0.0)
            try:
                vals = spec.g(args)
            except Exception:
                vals = None  # the term loop below names the failing k
            if isinstance(vals, np.ndarray) and vals.shape == ks.shape:
                weights = np.asarray(term_weight(spec, np.arange(1, n + 1)), dtype=np.complex128)
                terms = np.asarray(vals, dtype=np.complex128) * weights
                finite = np.isfinite(terms.real) & np.isfinite(terms.imag)
                if not np.all(finite):
                    k_bad = int(np.argmin(finite)) + 1
                    raise EvaluationError("series term is not finite", at=f"k={k_bad}")
                return terms
    g, alpha, variant = spec.g, spec.alpha, spec.variant
    shift = spec.beta if variant.is_shifted else None
    damping = -spec.beta if variant.is_exp_factor else None
    # iterators, so that no list of N arguments or weights is held
    ks = range(1, n + 1)
    xs = map(operator.mul, itertools.repeat(alpha), ks)
    if shift is not None:
        xs = map(operator.add, xs, itertools.repeat(shift))
    weights = (itertools.repeat(1.0, n) if damping is None
               else map(cmath.exp, map(operator.mul, itertools.repeat(damping), ks)))
    if variant.is_alternating:
        weights = map(operator.mul, weights, itertools.cycle((1.0, -1.0)))
    try:
        terms = np.fromiter(map(operator.mul, map(complex, map(g, xs)), weights),
                            dtype=np.complex128, count=n)
        if np.all(np.isfinite(terms)):
            return terms
    except Exception:
        pass  # the replay below raises it again, naming its k
    return _term_loop(g, alpha, shift, damping, variant.is_alternating, n)


def _term_loop(g, alpha, shift, damping, alternating, n) -> np.ndarray:
    """The terms one at a time, each formed and checked before the next."""
    terms = []
    for k in range(1, n + 1):
        try:
            x = alpha * k
            if shift is not None:
                x = x + shift
            value = complex(g(x))
            w = 1.0 if damping is None else cmath.exp(damping * k)
            if alternating:
                w = w * (1.0 if k % 2 == 1 else -1.0)
            term = value * w
        except Exception as exc:
            raise EvaluationError(f"series term failed to evaluate: {exc}", at=f"k={k}") from exc
        if not (math.isfinite(term.real) and math.isfinite(term.imag)):
            raise EvaluationError("series term is not finite", at=f"k={k}")
        terms.append(term)
    return np.array(terms, dtype=np.complex128)


def direct_sum(spec: SeriesSpec) -> SumResult:
    """Compensated direct evaluation of the series (the oracle).

    g runs on a float64 lattice when alpha is real and beta real or unused.
    Otherwise, or when g raises there, gives the wrong shape or a non-finite
    term, the complex128 lattice (or a loop, for g that rejects arrays)
    gives the terms and names a failing k.  A parsed closure (one of
    :func:`finsum.expr.as_function`) goes straight to a lattice, so it is
    called once per lattice; any other g is first probed at k = 1, 2, its
    array values checked against its scalar ones.
    :func:`finsum.backend.neumaier_sum` reduces the terms (one ``math.fsum``
    up to 2,048 of them, one error-free extraction beyond); the estimate
    bounds the rounding accumulation by eps * sum(|terms|).
    """
    t0 = time.perf_counter_ns()
    terms = _real_lattice(spec)
    if terms is None:
        terms = _complex_terms(spec)
    value = backend.neumaier_sum(terms)
    # in float64: a g that returns integers must not wrap the sum around
    abs_sum = float(np.sum(np.abs(terms), dtype=np.float64))
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
