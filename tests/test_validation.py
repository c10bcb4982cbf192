"""One count rule for every entry point that takes a term count, one
lattice rule for every entry point that takes alpha or beta, and one tol
rule for every entry point that takes a tolerance.

Each entry below calls a public routine with the count under test and
returns something comparable.  Every one must refuse the same malformed
counts with PreconditionError, and must treat a NumPy integer exactly like
the Python int of the same value.
"""

import math

import numpy as np
import pytest

from finsum import cli
from finsum.errors import DomainError, PreconditionError
from finsum.eulermaclaurin import EMJob, em_sum, em_tail
from finsum.fourier import dirichlet_factor, sum_via_fourier
from finsum.identities import eval_identity
from finsum.kernels import Kernel, SmoothTerm, laplace_of_kernel, recognize_pair
from finsum.laplace import (delta_type_b, phi, sum_via_integral, type_b_sum,
                            zeta_expansion_sum)
from finsum.quadrature import integrate_finite, integrate_semi_infinite
from finsum.series import SeriesSpec, antidifference_sum, direct_sum
from finsum.telescope import telescoping_sum, zeta_power_sum

N = 4
_LORENTZ = recognize_pair("1/(k^2+1)")


def _delta_type_b(n):
    comb, closed_form = delta_type_b(0.5, n)
    return comb.atoms, closed_form(1.2)


def _tail_integral():
    """The integral of x^-2 past 4, for em_tail's entry."""
    return integrate_semi_infinite(lambda u: (u + 4.0) ** -2.0)


ENTRIES = {
    "SeriesSpec": lambda n: direct_sum(SeriesSpec(g=lambda x: 1.0 / (x * x + 1.0),
                                                  n_terms=n)).value,
    "phi": lambda n: phi(SeriesSpec(None, n, 1.3), 0.7),
    "type_b_sum": lambda n: type_b_sum(_LORENTZ, 2.0, n),
    "delta_type_b": _delta_type_b,
    "zeta_expansion_sum": lambda n: zeta_expansion_sum(0.3, 0.5, n).value,
    "dirichlet_factor": lambda n: dirichlet_factor(1.0, n),
    "sum_via_fourier": lambda n: sum_via_fourier("1/(k^2+1)", n).value,
    "telescoping_sum": lambda n: telescoping_sum(lambda x: x ** -2.0, n).value,
    "zeta_power_sum": lambda n: zeta_power_sum(2.0, n).value,
    "eval_identity": lambda n: eval_identity("sine", {"theta": 1.0}, n),
    "antidifference_sum": lambda n: antidifference_sum(lambda k: k * k, n).value,
    "EMJob": lambda n: em_sum(EMJob(lambda x: x ** -2.0, 1.0, 5.0, n)).value,
    "em_tail": lambda n: em_tail(lambda x: x ** -2.0, 4.0, n, integral=_tail_integral),
}


@pytest.mark.parametrize("name", sorted(ENTRIES))
@pytest.mark.parametrize("bad", [0, -2, 2.0, "3", True], ids=repr)
def test_malformed_count_is_a_precondition_error(name, bad):
    with pytest.raises(PreconditionError, match="positive integer"):
        ENTRIES[name](bad)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_numpy_integer_count_matches_int(name):
    assert ENTRIES[name](np.int64(N)) == ENTRIES[name](N)


VARIANT_ENTRIES = {
    "SeriesSpec": lambda v: SeriesSpec(g=lambda x: 1.0 / x, n_terms=N, variant=v),
    "phi": lambda v: phi(SeriesSpec(None, N, 1.3, v), 0.7),
    "type_b_sum": lambda v: type_b_sum(_LORENTZ, 2.0, N, variant=v),
    "cli.run": lambda v: cli.run("1/k", N, variant=v),
}


@pytest.mark.parametrize("name", sorted(VARIANT_ENTRIES))
def test_unknown_variant_is_a_domain_error(name):
    with pytest.raises(DomainError, match="unknown variant 'bogus'"):
        VARIANT_ENTRIES[name]("bogus")


_NON_FINITE = [math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(1.0, math.inf)]

ALPHA_ENTRIES = {
    "SeriesSpec": lambda a: SeriesSpec(g=lambda x: 1.0 / x, n_terms=N, alpha=a),
    "phi": lambda a: phi(SeriesSpec(None, N, a), 0.7),
    "cli.run": lambda a: cli.run("1/k", N, alpha=a),
}


@pytest.mark.parametrize("name", sorted(ALPHA_ENTRIES))
@pytest.mark.parametrize("alpha", _NON_FINITE, ids=repr)
def test_non_finite_alpha_is_a_precondition_error(name, alpha):
    """A NaN alpha used to pass Re(alpha) > 0 and fail as an EvaluationError
    at k=1; at alpha = inf the oracle gave an unflagged 0."""
    with pytest.raises(PreconditionError, match="alpha must be finite"):
        ALPHA_ENTRIES[name](alpha)


BETA_ENTRIES = {
    "SeriesSpec": lambda v, b: SeriesSpec(g=lambda x: 1.0 / x, n_terms=N, variant=v, beta=b),
    "phi": lambda v, b: phi(SeriesSpec(None, N, 1.3, v, b), 0.7),
    "type_b_sum": lambda v, b: type_b_sum(_LORENTZ, 2.0, N, variant=v, beta=b),
    "cli.run": lambda v, b: cli.run("1/k", N, variant=v, beta=b),
}


@pytest.mark.parametrize("name", sorted(BETA_ENTRIES))
@pytest.mark.parametrize("variant", ["shifted", "shifted-alternating", "exp-factor",
                                     "exp-factor-alternating"])
@pytest.mark.parametrize("beta", _NON_FINITE, ids=repr)
def test_non_finite_beta_is_a_precondition_error(name, variant, beta):
    with pytest.raises(PreconditionError, match="requires a finite beta"):
        BETA_ENTRIES[name](variant, beta)


@pytest.mark.parametrize("name", sorted(BETA_ENTRIES))
def test_beta_is_not_read_where_the_variant_has_none(name):
    """The standard and alternating variants take no beta, so theirs is
    not checked."""
    for variant in ("standard", "alternating"):
        BETA_ENTRIES[name](variant, math.nan)


def _tol_entries(g):
    """Each entry point that takes a tolerance, called with g as its
    summand, integrand or density wherever it takes one."""
    density = Kernel(smooth=(SmoothTerm(g),))
    return {
        "telescoping_sum": lambda tol: telescoping_sum(g, N, tol=tol),
        "em_sum": lambda tol: em_sum(EMJob(g, 1.0, 5.0, N), quad_tol=tol),
        "sum_via_integral": lambda tol: sum_via_integral(SeriesSpec(g, N), density, tol=tol),
        "sum_via_fourier": lambda tol: sum_via_fourier("1/(k^2+1)", N, tol=tol),
        "integrate_finite": lambda tol: integrate_finite(g, 0.0, 1.0, tol=tol),
        "integrate_semi_infinite": lambda tol: integrate_semi_infinite(g, tol=tol),
        "laplace_of_kernel": lambda tol: laplace_of_kernel(density, 2.0, tol=tol),
        "cli.run": lambda tol: cli.run("1/(k^2+1)", N, tol=tol),
    }


@pytest.mark.parametrize("name", sorted(_tol_entries(None)))
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf], ids=repr)
def test_bad_tol_is_a_precondition_error_before_g_runs(name, tol):
    """At tol 0, -1 or NaN the telescope walked all 131,072 terms and came
    back non-converged, the Fourier route ran to degree 256 and reported
    converged at NaN, and the quadrature stopped after 30 nodes."""
    calls = []

    def g(x):
        calls.append(x)
        return 1.0 / (x * x + 1.0)

    with pytest.raises(PreconditionError, match="tol must be a positive finite number"):
        _tol_entries(g)[name](tol)
    assert calls == []
