"""Command-line front end: evaluate finite sums, verify identities, benchmark.

The ``eval`` subcommand parses a summand g(k), always computes the
compensated direct oracle, then runs whichever routes were requested and
reports each value together with its deviation from that oracle.  Reports
serialize to JSON with a fixed field order (floats go through repr, so two
identical runs produce identical bytes once the runtime counters are set
aside) or to CSV.

The per-summand step of a request (parse the text, decompose g(scale*k)
into terms, recognize the laplace kernel or the Fourier pair of those
terms, or refuse) is compiled once per process, as ``re`` keeps compiled
patterns, in four ``functools.lru_cache`` tables: text -> tree and
closure, (text, scale) -> terms, text -> kernel and (text, scale) -> pair,
a refusal being kept as its message.  They hold compiled forms only, never
a value, a tolerance or a result: every request still builds its own
``SeriesSpec``, oracle and route evaluations.  Each keeps at most
``_TABLE_SIZE`` = 256 entries, the least recently used leaving first, and
``_clear_tables()`` empties them; there is no option.  A one-shot
``finsum eval`` process finds them empty and pays the whole compilation.

Defaults may come from a plain ``key=value`` config file named by the
FINSUM_CONFIG environment variable; command-line flags win over the file.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from types import MappingProxyType

from . import __version__
from . import expr as ex
from .errors import (CapabilityError, DomainError, EvaluationError,
                     FinsumError, PreconditionError)
from .eulermaclaurin import EMJob, em_sum
from .fourier import recognize_fourier, sum_via_fourier
from .identities import catalog_entry, dense_grids, eval_identity, verify_all
from .kernels import decompose, recognize_pair
from .laplace import sum_via_integral
from .series import (Diagnostics, SeriesSpec, SumResult, Variant, check_tol,
                     direct_sum, effective_term)
from .telescope import telescoping_sum

#: every evaluation route the ``eval`` subcommand knows, reporting order.
METHODS = ("oracle", "laplace", "fourier", "telescope", "euler-maclaurin",
           "closed-form")

# a route that cannot handle the request records an error entry instead of
# aborting the report; the oracle is computed outside this net, so a broken
# summand still fails the whole run.  A summand without a decomposition
# raises RecognitionError, a CapabilityError.
_ROUTE_ERRORS = (CapabilityError, DomainError, PreconditionError,
                 EvaluationError)
_EPS = 2.220446049250313e-16


# -- the summand table --------------------------------------------------------

def _fold_scale(node: ex.Node, alpha: float) -> ex.Node:
    """g(alpha*k) as a tree in k, for routes that only know unit spacing."""
    if alpha == 1:
        return node
    return ex.substitute_index(node, ex.Mul(ex.Num(alpha), ex.Var()))


#: entries each of the four tables keeps
_TABLE_SIZE = 256


class _Refusal:
    """A route error kept as its type and message, so that every request
    raises a fresh exception and the table holds no traceback."""

    __slots__ = ("kind", "message")

    def __init__(self, exc: Exception):
        self.kind, self.message = type(exc), str(exc)


def _attempt(recognize, terms):
    """recognize(terms), or the refusal of the terms or of recognize."""
    if isinstance(terms, _Refusal):
        return terms
    try:
        return recognize(terms)
    except _ROUTE_ERRORS as exc:
        return _Refusal(exc)


def _given(form):
    """The form, or its refusal raised afresh."""
    if isinstance(form, _Refusal):
        raise form.kind(form.message)
    return form


@functools.lru_cache(maxsize=_TABLE_SIZE)
def _compiled(text: str) -> tuple:
    """(tree, closure) of the summand text; a ParseError is not kept."""
    node = ex.parse_expression(text)
    return node, ex.as_function(node)


@functools.lru_cache(maxsize=_TABLE_SIZE)
def _terms(text: str, scale: float):
    """decompose(g(scale*k)) as read-only (coefficient, factors) pairs, or
    its refusal."""
    try:
        return tuple([(coeff, MappingProxyType(factors)) for coeff, factors
                      in decompose(_fold_scale(_compiled(text)[0], scale))])
    except _ROUTE_ERRORS as exc:
        return _Refusal(exc)


@functools.lru_cache(maxsize=_TABLE_SIZE)
def _kernel(text: str):
    # the lattice scale enters through the summation factor, not the kernel
    return _attempt(recognize_pair, _terms(text, 1.0))


@functools.lru_cache(maxsize=_TABLE_SIZE)
def _pair(text: str, scale: float):
    return _attempt(recognize_fourier, _terms(text, scale))


def _clear_tables() -> None:
    """Empty the four summand tables."""
    for table in (_compiled, _terms, _kernel, _pair):
        table.cache_clear()


# -- per-route runners -------------------------------------------------------

def _run_laplace(text: str, spec: SeriesSpec, tol: float) -> SumResult:
    return sum_via_integral(spec, _given(_kernel(text)), tol=tol)


def _run_fourier(text: str, spec: SeriesSpec, tol: float) -> SumResult:
    if spec.variant is not Variant.STANDARD:
        raise CapabilityError("the transform route covers the standard variant only")
    if spec.alpha.imag != 0:
        raise CapabilityError("the transform route needs a real positive scale")
    return sum_via_fourier(_given(_pair(text, spec.alpha.real)), spec.n_terms,
                           tol=max(tol, 1e-12))


def _run_telescope(spec: SeriesSpec, tol: float) -> SumResult:
    return telescoping_sum(effective_term(spec), spec.n_terms, tol=tol)


def _run_em(spec: SeriesSpec, tol: float) -> SumResult:
    h = effective_term(spec)
    n = spec.n_terms
    if n == 1:
        # a one-point lattice needs no correction terms at all; the estimate
        # is the oracle's charge for the rounding of one term
        value = complex(h(1.0))
        return SumResult(value=value, method="euler-maclaurin",
                         error_estimate=2.0 * _EPS * abs(value),
                         diagnostics=Diagnostics(nodes=1))
    job = EMJob(h, 1.0, float(n), n - 1)
    return em_sum(job, quad_tol=min(tol, 1e-13))


def _run_closed_form(text: str, spec: SeriesSpec) -> SumResult:
    """Match the summand against the identity catalog, term by term."""
    if spec.variant is not Variant.STANDARD:
        raise CapabilityError("the identity catalog covers the standard variant only")
    if spec.alpha.imag != 0:
        raise CapabilityError("the identity catalog needs a real positive scale")
    terms = _given(_terms(text, spec.alpha.real))
    n = spec.n_terms
    total = 0j
    for coeff, factors in terms:
        entry = catalog_entry(factors)
        total += coeff * (complex(n) if entry is None else eval_identity(*entry, n))
    value = complex(total)
    return SumResult(value=value, method="closed-form",
                     error_estimate=4e-16 * max(1.0, abs(value)),
                     diagnostics=Diagnostics(nodes=len(terms)))


# -- report assembly ---------------------------------------------------------

def _cplx(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _jsonable(value):
    if isinstance(value, complex):
        return _cplx(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return float(value)


def _success_record(name: str, result: SumResult, oracle_value: complex,
                    runtime_ns: int) -> dict:
    d = result.diagnostics
    return {
        "method": name,
        "value": _cplx(result.value),
        "abs_err_vs_oracle": abs(result.value - oracle_value),
        "error_estimate": float(result.error_estimate),
        "flags": list(result.flags),
        "diagnostics": {
            "nodes": int(d.nodes),
            "truncation_index": int(d.truncation_index),
            "converged": bool(d.converged),
            "notes": _jsonable(d.notes),
            "runtime_ns": int(runtime_ns),
        },
    }


def run(text: str, n: int, method: str = "all", alpha: complex = 1 + 0j,
        variant: Variant | str = Variant.STANDARD, beta: complex = 0j,
        tol: float = 1e-10) -> dict:
    """Evaluate sum_{k=1}^{n} of the parsed summand; the full report as a dict.

    The oracle record is always present and first; ``abs_err_vs_oracle`` in
    every other record is measured against it.  Routes that cannot handle
    the request contribute an error entry instead of aborting the run.
    """
    if method != "all" and method not in METHODS:
        raise DomainError(
            f"unknown method {method!r}; have all, {', '.join(METHODS)}")
    check_tol(tol)
    spec = SeriesSpec(g=_compiled(text)[1], n_terms=n, alpha=complex(alpha),
                      variant=variant, beta=complex(beta))

    started = time.perf_counter_ns()
    oracle = direct_sum(spec)
    records = [_success_record("oracle", oracle, oracle.value,
                               time.perf_counter_ns() - started)]

    runners = {
        "laplace": lambda: _run_laplace(text, spec, tol),
        "fourier": lambda: _run_fourier(text, spec, tol),
        "telescope": lambda: _run_telescope(spec, tol),
        "euler-maclaurin": lambda: _run_em(spec, tol),
        "closed-form": lambda: _run_closed_form(text, spec),
    }
    wanted = METHODS[1:] if method == "all" else [m for m in METHODS[1:] if m == method]
    for name in wanted:
        started = time.perf_counter_ns()
        try:
            result = runners[name]()
        except _ROUTE_ERRORS as exc:
            records.append({"method": name, "error": str(exc), "flags": ["error"]})
            continue
        records.append(_success_record(name, result, oracle.value,
                                       time.perf_counter_ns() - started))

    meta = {
        "expr": text,
        "n": spec.n_terms,
        "alpha": _cplx(spec.alpha),
        "variant": spec.variant.value,
        "beta": _cplx(spec.beta),
        "tol": tol,
        "version": __version__,
    }
    return {"meta": meta, "results": records}


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


_CSV_FIELDS = ("method", "value_re", "value_im", "abs_err_vs_oracle",
               "error_estimate", "flags", "nodes", "runtime_ns")


def report_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for rec in report["results"]:
        if "error" in rec:
            writer.writerow([rec["method"], "", "", "", "",
                             "error:" + rec["error"], "", ""])
            continue
        writer.writerow([rec["method"],
                         repr(rec["value"]["re"]), repr(rec["value"]["im"]),
                         repr(rec["abs_err_vs_oracle"]),
                         repr(rec["error_estimate"]),
                         ";".join(rec["flags"]),
                         rec["diagnostics"]["nodes"],
                         rec["diagnostics"]["runtime_ns"]])
    return buf.getvalue()


def _exit_code(report: dict, requested: list[str]) -> int:
    """0 iff at least one requested route produced a clean (unflagged) value."""
    for rec in report["results"]:
        if rec["method"] in requested and not rec.get("flags"):
            return 0
    return 1


# -- config file -------------------------------------------------------------

def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise DomainError(f"cannot parse {text!r} as a number") from None


def _load_config() -> dict:
    path = os.environ.get("FINSUM_CONFIG")
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
        out[key.strip()] = value.strip()
    return out


def _setting(args, config: dict, key: str, cast, fallback, attr: str | None = None):
    """Flag if given, else the config file entry, else the fallback."""
    flag = getattr(args, attr or key, None)
    if flag is not None:
        return flag
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise DomainError(f"config entry {key} = {config[key]!r} is not a valid "
                              f"{key}") from None
    return fallback


# -- subcommands -------------------------------------------------------------

def _cmd_eval(args, config: dict) -> int:
    text = _setting(args, config, "expr", str, None)
    if text is None:
        raise DomainError("--expr is required (as a flag or a config entry)")
    n = _setting(args, config, "n", int, None)
    if n is None:
        raise DomainError("--n is required (as a flag or a config entry)")
    method = _setting(args, config, "method", str, "all")
    alpha = _setting(args, config, "alpha", _parse_complex, 1 + 0j)
    variant = _setting(args, config, "variant", str, Variant.STANDARD.value)
    beta = _setting(args, config, "beta", _parse_complex, 0j)
    tol = _setting(args, config, "tol", float, 1e-10)
    fmt = _setting(args, config, "format", str, "json", attr="fmt")
    if fmt not in ("json", "csv"):
        raise DomainError(f"unknown format {fmt!r}; have json, csv")

    report = run(text, n, method=method, alpha=alpha, variant=variant,
                 beta=beta, tol=tol)
    sys.stdout.write(report_json(report) if fmt == "json" else report_csv(report))
    requested = list(METHODS) if method == "all" else [method]
    return _exit_code(report, requested)


def _cmd_identities(args, config: dict) -> int:
    grid = _setting(args, config, "grid", str, "default")
    if grid not in ("default", "dense"):
        raise DomainError(f"unknown grid {grid!r}; have default, dense")
    reports = verify_all(dense_grids() if grid == "dense" else None)
    failures = 0
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{rep.name}: {status} points={rep.points} "
              f"max_abs={rep.max_abs_dev:.3e} max_rel={rep.max_rel_dev:.3e}")
        if not rep.passed:
            failures += 1
    return 1 if failures else 0


#: the fixed benchmark suite: one summand per kernel family the routes cover.
_BENCH_SUITE = (
    ("1/k", 50),
    ("1/k^2", 100),
    ("1/(k^2+1)", 10),
    ("exp(-0.7*k)", 25),
    ("sin(1.1*k)", 50),
    ("k*cos(2.2*k)", 30),
    ("exp(-k^2)", 8),
)


def _cmd_bench(args, config: dict) -> int:
    suite = _setting(args, config, "suite", str, "standard")
    if suite != "standard":
        raise DomainError(f"unknown suite {suite!r}; have standard")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("expr", "N", "method", "value_re", "value_im", "abs_err",
                     "nodes", "runtime_ns"))
    for text, n in _BENCH_SUITE:
        report = run(text, n)
        for rec in report["results"]:
            if "error" in rec:
                continue
            writer.writerow((text, n, rec["method"],
                             repr(rec["value"]["re"]), repr(rec["value"]["im"]),
                             repr(rec["abs_err_vs_oracle"]),
                             rec["diagnostics"]["nodes"],
                             rec["diagnostics"]["runtime_ns"]))
    return 0


# -- entry point -------------------------------------------------------------

def _complex_arg(text: str) -> complex:
    try:
        return _parse_complex(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsum",
        description="finite-series summation engines with a shared oracle")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a finite sum by one or all routes")
    ev.add_argument("--expr", help="summand g(k), e.g. '1/(k^2+1)'")
    ev.add_argument("--n", type=int, help="number of terms N")
    ev.add_argument("--method", choices=("all",) + METHODS,
                    help="route to run (default: all)")
    ev.add_argument("--alpha", type=_complex_arg,
                    help="lattice scale, Re > 0 (default 1)")
    ev.add_argument("--variant", choices=[v.value for v in Variant],
                    help="summation variant (default standard)")
    ev.add_argument("--beta", type=_complex_arg,
                    help="shift or damping parameter for the variants that take one")
    ev.add_argument("--tol", type=float, help="target tolerance (default 1e-10)")
    ev.add_argument("--format", dest="fmt", choices=("json", "csv"),
                    help="report format (default json)")

    idents = sub.add_parser("identities", help="closed-form identity utilities")
    idsub = idents.add_subparsers(dest="subcommand", required=True)
    ver = idsub.add_parser("verify",
                           help="sweep every identity against the direct oracle")
    ver.add_argument("--grid", choices=("default", "dense"),
                     help="verification grid density")

    bench = sub.add_parser("bench", help="time every applicable route on a fixed suite")
    bench.add_argument("--suite", choices=("standard",), help="suite name")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config()
        if args.command == "eval":
            return _cmd_eval(args, config)
        if args.command == "identities":
            return _cmd_identities(args, config)
        return _cmd_bench(args, config)
    except FinsumError as exc:
        sys.stderr.write(f"finsum: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
