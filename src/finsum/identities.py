"""Catalog of closed-form finite-sum identities with verification sweeps.

Each entry pairs a closed form with its summand g(k) as text, a ``{name}``
field standing for each parameter (the scale alpha of the geometric entry
is the lattice's).  ``verify_identity`` sweeps a parameter grid: it fills
the fields in, parses the text into the closure ``cli.run`` serves for a
summand (``expr.as_function`` of the tree) and compares the closed form
against the compensated direct sum of it, which is the ground truth
everywhere in this package.  So every closed form is checked against the
summand that the closed-form route decomposes.  The trigonometric forms
divide by sin(theta/2), so their exactness degrades in floating point as
theta approaches 0 or 2*pi; evaluation inside the outer 0.1 margin emits
a conditioning warning and the default grids stay out of it.
``catalog_entry`` matches one term of ``kernels.decompose`` to its entry,
which is how the closed-form route sums a decomposed summand term by
term.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr as ex
from . import jets
from .errors import CapabilityError, ConditioningWarning, DomainError
from .kernels import EXP, KPOW
from .series import SeriesSpec, check_count, direct_sum
from .stable import TWO_PI, scaled_angle
from .telescope import zeta_power_sum

_MARGIN = 0.1


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not 0.0 < theta < TWO_PI:
        raise DomainError(f"theta must lie in (0, 2*pi), got {theta}")
    if theta < _MARGIN or theta > TWO_PI - _MARGIN:
        warnings.warn(
            f"theta={theta} is within {_MARGIN} of the interval ends; "
            "the sin(theta/2) division amplifies rounding there",
            ConditioningWarning, stacklevel=3)
    return theta


def _check_positive(value, name: str) -> float:
    value = float(value)
    if not value > 0:
        raise DomainError(f"{name} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class Identity:
    name: str
    param_names: tuple[str, ...]
    closed_form: Callable  # (params: dict, n: int) -> complex
    summand: str           # g(k), a {name} field for each parameter but alpha
    note: str
    default_grid: Callable  # () -> list[(params, n)]


@dataclass(frozen=True)
class VerificationReport:
    name: str
    points: int
    max_abs_dev: float
    max_rel_dev: float
    worst_params: dict
    worst_n: int
    passed: bool


# -- closed forms -----------------------------------------------------------

def _sine_closed(params, n):
    theta = _check_theta(params["theta"])
    n = check_count(n, "n")
    half = 0.5 * theta
    mid = scaled_angle(theta, n + 0.5)
    return complex(0.5 / math.tan(half) - math.cos(mid) / (2.0 * math.sin(half)))


def _cosine_closed(params, n):
    theta = _check_theta(params["theta"])
    n = check_count(n, "n")
    mid = scaled_angle(theta, n + 0.5)
    return complex(-0.5 + math.sin(mid) / (2.0 * math.sin(0.5 * theta)))


def _k_cosine_closed(params, n):
    theta = _check_theta(params["theta"])
    n = check_count(n, "n")
    s = math.sin(0.5 * theta)
    mid = scaled_angle(theta, n + 0.5)
    half_n = scaled_angle(theta, 0.5 * n)
    return complex(0.5 * (n * s * math.sin(mid) - math.sin(half_n) ** 2) / (s * s))


def _exp_cosine_closed(params, n):
    theta = _check_theta(params["theta"])
    beta = _check_positive(params["beta"], "beta")
    n = check_count(n, "n")
    plus = jets.exp_power_sum(complex(-beta, theta), n)
    minus = jets.exp_power_sum(complex(-beta, -theta), n)
    return 0.5 * (plus + minus)


def _power_closed(params, n):
    s = float(params["s"])
    if not s > 1:
        raise DomainError(f"s must exceed 1, got {s}")
    return zeta_power_sum(s, n).value


def _geometric_closed(params, n):
    a = _check_positive(params["a"], "a")
    alpha = _check_positive(params["alpha"], "alpha")
    return complex(jets.exp_power_sum(-a * alpha, check_count(n, "n")))


# -- default verification grids ---------------------------------------------

_THETAS = tuple(np.round(np.arange(0.1, 6.15, 0.5), 10))   # 0.1 .. 6.1
_NS = (1, 2, 5, 10, 50)


def _trig_grid():
    return [({"theta": float(t)}, n) for t in _THETAS for n in _NS]


def _exp_cosine_grid():
    return [({"theta": float(t), "beta": b}, n)
            for t in (0.5, 1.5, 3.0, 4.5, 6.0)
            for b in (0.1, 1.0, 3.0)
            for n in _NS]


def _power_grid():
    return [({"s": s}, n) for s in (1.5, 2.0, 3.0) for n in (1, 10, 100)]


def _geometric_grid():
    return [({"a": a, "alpha": al}, n)
            for a in (0.3, 1.0, 2.0) for al in (0.5, 1.0, 2.0) for n in (1, 5, 20)]


def dense_grids() -> dict:
    """A denser sweep of every identity, by name, for ``verify_all``."""
    thetas = [float(t) for t in np.round(np.arange(0.15, 6.14, 0.13), 10)]
    ns = (1, 2, 3, 5, 8, 13, 21, 50)
    trig = [({"theta": t}, n) for t in thetas for n in ns]
    return {
        "sine": trig,
        "cosine": trig,
        "k-cosine": trig,
        "exp-cosine": [({"theta": t, "beta": b}, n)
                       for t in thetas[::4]
                       for b in (0.1, 0.5, 1.0, 2.0, 3.0) for n in ns],
        "power": [({"s": s}, n) for s in (1.1, 1.5, 2.0, 2.5, 3.0, 4.0)
                  for n in (1, 2, 10, 100, 1000)],
        "geometric": [({"a": a, "alpha": al}, n)
                      for a in (0.1, 0.3, 1.0, 2.0) for al in (0.5, 1.0, 2.0)
                      for n in (1, 5, 20, 100)],
    }


REGISTRY: dict[str, Identity] = {
    ident.name: ident for ident in (
        Identity("sine", ("theta",), _sine_closed, "sin({theta}*k)",
                 "sum of sin(theta*k): cot(theta/2)/2 - cos(theta(N+1/2))/(2 sin(theta/2))",
                 _trig_grid),
        Identity("cosine", ("theta",), _cosine_closed, "cos({theta}*k)",
                 "sum of cos(theta*k): -1/2 + sin(theta(N+1/2))/(2 sin(theta/2))",
                 _trig_grid),
        Identity("exp-cosine", ("theta", "beta"), _exp_cosine_closed,
                 "exp(-{beta}*k)*cos({theta}*k)",
                 "sum of exp(-beta*k)cos(theta*k): mean of the conjugate geometric forms",
                 _exp_cosine_grid),
        Identity("k-cosine", ("theta",), _k_cosine_closed, "k*cos({theta}*k)",
                 "sum of k*cos(theta*k): [N sin(theta/2) sin(theta(N+1/2)) "
                 "- sin^2(N theta/2)] / (2 sin^2(theta/2))",
                 _trig_grid),
        Identity("power", ("s",), _power_closed, "k^-{s}",
                 "sum of k^(-s) finished through the Hurwitz tail",
                 _power_grid),
        Identity("geometric", ("a", "alpha"), _geometric_closed, "exp(-{a}*k)",
                 "sum of exp(-a*alpha*k): the stabilized geometric closed form",
                 _geometric_grid),
    )
}


def identity_names() -> list[str]:
    return sorted(REGISTRY)


def eval_identity(name: str, params: dict, n: int) -> complex:
    """The closed-form value; domain errors outside the admissible ranges."""
    try:
        ident = REGISTRY[name]
    except KeyError:
        raise DomainError(f"unknown identity {name!r}; have {', '.join(identity_names())}") \
            from None
    missing = set(ident.param_names) - set(params)
    if missing:
        raise DomainError(f"identity {name!r} needs parameters {sorted(missing)}")
    try:
        values = {key: float(params[key]) for key in ident.param_names}
    except (TypeError, ValueError):
        raise DomainError(f"identity {name!r} needs real parameters, got {params!r}") from None
    return ident.closed_form(values, n)


def catalog_entry(factors: dict) -> tuple[str, dict] | None:
    """(name, params) of the identity that sums one term's factors, a factor
    dict of ``kernels.decompose``, over k = 1..N; None for the constant
    term, whose sum is N.  CapabilityError when no entry matches."""
    live = {key: v for key, v in factors.items() if v != 0}
    keys = set(live)
    if not keys:
        return None
    trig = [key for key in keys if key[0] in ("sin", "cos")]
    if len(trig) == 1:
        key = trig[0]
        kind, theta = key
        if live[key] != 1:
            raise CapabilityError("no closed form for powers of a trigonometric factor")
        rest = keys - {key}
        if kind == "cos":
            if not rest:
                return "cosine", {"theta": theta}
            if rest == {KPOW} and live[KPOW] == 1:
                return "k-cosine", {"theta": theta}
            if rest == {EXP}:
                c = live[EXP]
                if c.imag == 0 and c.real < 0:
                    return "exp-cosine", {"theta": theta, "beta": -c.real}
        elif kind == "sin" and not rest:
            return "sine", {"theta": theta}
        raise CapabilityError("no catalog entry for this trigonometric combination")
    if keys == {EXP}:
        c = live[EXP]
        if c.imag == 0 and c.real < 0:
            return "geometric", {"a": -c.real, "alpha": 1.0}
        raise CapabilityError("the geometric closed form needs a real decaying exponent")
    if keys == {KPOW}:
        p = live[KPOW]
        if p < -1:
            return "power", {"s": float(-p)}
        raise CapabilityError("the power closed form needs an exponent below -1")
    raise CapabilityError("no catalog entry matches this term")


_REL_PASS = 1e-11
_ABS_PASS = 1e-12


def verify_identity(name: str, grid=None) -> VerificationReport:
    """Sweep closed form against the direct-sum oracle of the parsed summand
    over a parameter grid.

    A point passes when the relative deviation stays below 1e-11, or the
    absolute deviation below 1e-12 where the sum itself is near zero.
    """
    ident = REGISTRY[name] if name in REGISTRY else None
    if ident is None:
        raise DomainError(f"unknown identity {name!r}; have {', '.join(identity_names())}")
    if grid is None:
        grid = ident.default_grid()
    max_abs = 0.0
    max_rel = 0.0
    worst_params: dict = {}
    worst_n = 0
    passed = True
    count = 0
    for params, n in grid:
        closed = ident.closed_form(params, n)
        values = {key: float(params[key]) for key in ident.param_names}
        g = ex.as_function(ex.parse_expression(ident.summand.format(**values)))
        oracle = direct_sum(SeriesSpec(g, n, alpha=values.get("alpha", 1.0))).value
        abs_dev = abs(closed - oracle)
        point_ok = abs_dev <= max(_ABS_PASS, _REL_PASS * abs(oracle))
        passed = passed and point_ok
        max_abs = max(max_abs, abs_dev)
        rel_dev = abs_dev / abs(oracle) if abs(oracle) > _ABS_PASS else abs_dev
        if rel_dev > max_rel:
            max_rel = rel_dev
            worst_params = dict(params)
            worst_n = n
        count += 1
    return VerificationReport(name=name, points=count, max_abs_dev=max_abs,
                              max_rel_dev=max_rel, worst_params=worst_params,
                              worst_n=worst_n, passed=passed)


def verify_all(grids: dict | None = None) -> list[VerificationReport]:
    grids = grids or {}
    return [verify_identity(name, grids.get(name)) for name in identity_names()]
