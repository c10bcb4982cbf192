"""Summand-recognition tests: expression -> point masses + smooth density.

Each recognized kernel is validated through its defining property: applying
the exponential-decay transform to the kernel must reproduce the summand.
"""

import cmath
import math
import re
import time

import numpy as np
import pytest

from finsum import cli
from finsum import expr as ex
from finsum.errors import CapabilityError, RecognitionError
from finsum.kernels import (EXP, GAUSS, KPOW, DeltaTerm, Kernel, SmoothTerm, decompose,
                            laplace_of_kernel, linear_terms, polynomial_coefficients,
                            recognize_pair)


def _check_round_trip(text, xs=(0.5, 1.0, 2.0, 3.7), tol=1e-9):
    """laplace_of_kernel(kernel, x) must equal g(x) pointwise."""
    node = ex.parse_expression(text)
    rec = recognize_pair(node)
    for x in xs:
        want = complex(ex.evaluate(node, x))
        got = laplace_of_kernel(rec, x)
        assert got == pytest.approx(want, rel=tol, abs=tol), (text, x)


class TestLinearTerms:
    def test_single_power(self):
        [(c, f)] = linear_terms(ex.parse_expression("3/k^2"))
        assert c == 3
        assert f == {KPOW: -2.0}

    def test_scaled_fractional_power(self):
        """(4k)^(-1.5) = 4^(-1.5) k^(-1.5): the scale folds into the weight."""
        [(c, f)] = linear_terms(ex.parse_expression("(4*k)^(-1.5)"))
        assert c == pytest.approx(4.0**-1.5)
        assert f == {KPOW: -1.5}

    def test_exponential_product(self):
        [(c, f)] = linear_terms(ex.parse_expression("2*exp(-0.7*k)"))
        assert c == 2
        assert f == {EXP: -0.7 + 0j}

    def test_sum_splits(self):
        terms = linear_terms(ex.parse_expression("1/k + exp(-k)"))
        assert len(terms) == 2

    def test_base_power_rewrites_through_exp(self):
        """2^(-k) carries the same factor dict as exp(-k ln 2)."""
        [(c, f)] = linear_terms(ex.parse_expression("2^(-k)"))
        assert c == 1
        assert f[EXP] == pytest.approx(-math.log(2.0))

    def test_polynomial_coefficients(self):
        def poly(node):
            return polynomial_coefficients(linear_terms(node))

        node = ex.parse_expression("3 + 2*k - 0.5*k^2")
        assert poly(node) == pytest.approx([3.0, 2.0, -0.5])
        assert poly(ex.parse_expression("sin(k)")) is None
        assert poly(ex.parse_expression("k^3")) is None


class TestLikeTerms:
    def test_power_of_a_sum_is_binomial(self):
        """(k+1)^16 is 17 terms, C(16, j) k^(16-j), not 2^16 products."""
        terms = decompose("(k+1)^16")
        assert terms == [(complex(math.comb(16, j)), {KPOW: 16.0 - j} if j < 16 else {})
                         for j in range(17)]

    def test_equal_factors_merge(self):
        assert decompose("1/k^2 + 1/k^2") == [(2 + 0j, {KPOW: -2.0})]
        assert decompose("k - k") == []

    def test_merge_keeps_first_appearance_order(self):
        terms = decompose("exp(-k) + 1/k^2 + 2*exp(-k)")
        assert terms == [(3 + 0j, {EXP: -1 + 0j}), (1 + 0j, {KPOW: -2.0})]

    def test_square_root_is_a_half_power(self):
        assert decompose("sqrt(4*k)") == decompose("(4*k)^0.5") == [(2 + 0j, {KPOW: 0.5})]

    def test_power_of_a_real_coefficient_stays_real(self):
        [(c, f)] = decompose("(-2*k)^-200")
        assert c == complex(2.0 ** -200)
        assert f == {KPOW: -200.0}

    def test_fractional_power_of_an_oscillating_factor_is_refused(self):
        with pytest.raises(RecognitionError, match="oscillating"):
            decompose("sqrt(sin(k))")

    @pytest.mark.parametrize("over, under", [
        ("1/(k^2+1)^2", "(k^2+1)^-2"), ("3/(k^2+0.25)^3", "3*(k^2+0.25)^-3"),
        ("k/(k^2+1)^2", "k*(k^2+1)^-2"), ("1/(k+2)^2", "(k+2)^-2")])
    def test_both_spellings_of_an_inverse_power_of_a_sum_agree(self, over, under):
        """1/s^n inverts the sum s first, as s^-n does, rather than
        expanding s^n into a polynomial of degree 2n."""
        try:
            want = decompose(under)
        except RecognitionError as exc:
            with pytest.raises(RecognitionError, match=re.escape(str(exc))):
                decompose(over)
        else:
            assert decompose(over) == want

    def test_inverse_square_of_a_lorentzian_denominator(self):
        assert decompose("1/(k^2+1)^2") == [(1 + 0j, {("lorentz", 1.0): 2})]

    def test_deep_power_of_a_sum_is_refused_quickly(self):
        """(k^2+1)^20000 would have 20,001 terms; the term budget refuses it."""
        started = time.perf_counter()
        with pytest.raises(RecognitionError, match="expansion exceeds"):
            decompose("1/(k^2+1)^20000")
        assert time.perf_counter() - started < 0.05


def _factor(key, value, k):
    kind, param = key
    if key == KPOW:
        return k ** value
    if key == EXP:
        return cmath.exp(value * k)
    if key == GAUSS:
        return cmath.exp(value * k * k)
    if kind == "lorentz":
        return (k * k + param * param) ** -value
    return (cmath.sin if kind == "sin" else cmath.cos)(param * k) ** value


# the finsum bench suite, the spike-catalog families, quad-heavy's widest
# summand, and powers of sums that expand
_CORPUS = [text for text, _ in cli._BENCH_SUITE] + [
    "1.3*sin(0.7*k)", "0.9*cos(2.1*k)", "k*cos(2.2*k)", "exp(-0.4*k)*cos(1.7*k)",
    "1.2*exp(-0.6*k)", "1.317*k^4", "1.5/k^2.5",
    "1.6568/k^3.1948+1.6568/(k^2+7.8613)+0.7*exp(-0.3*k^2)",
    "(k+1)^3*exp(-k)", "(2*k+1)^2/k^4", "2^(-k)", "sqrt(4*k)"]


class TestReconstruction:
    @pytest.mark.parametrize("alpha", [1.0, 1.3])
    @pytest.mark.parametrize("text", _CORPUS)
    def test_terms_sum_back_to_the_summand(self, text, alpha):
        """Sum over the terms of c * prod factor(k) is g(alpha*k)."""
        node = cli._fold_scale(ex.parse_expression(text), alpha)
        terms = decompose(node)
        for k in (0.5, 1.0, 2.7, 7.0):
            got = sum(c * math.prod(_factor(key, v, k) for key, v in f.items())
                      for c, f in terms)
            want = complex(ex.evaluate(node, k))
            assert got == pytest.approx(want, rel=1e-13, abs=0), (text, alpha, k)


class TestDeltaRecognition:
    def test_exponential_spike(self):
        rec = recognize_pair("exp(-0.7*k)")
        assert len(rec.deltas) == 1
        d = rec.deltas[0]
        assert d.location == pytest.approx(0.7)
        assert d.weight == 1
        assert d.deriv_order == 0
        assert rec.smooth == ()

    def test_sine_splits_into_conjugate_pair(self):
        rec = recognize_pair("sin(1.3*k)")
        locs = sorted((d.location for d in rec.deltas),
                      key=lambda z: z.imag)
        assert locs[0] == pytest.approx(-1.3j)
        assert locs[1] == pytest.approx(+1.3j)
        weights = {d.location: d.weight for d in rec.deltas}
        assert weights[locs[0]] == pytest.approx(1 / 2j)
        assert weights[locs[1]] == pytest.approx(-1 / 2j)

    def test_damped_cosine_shifts_locations(self):
        rec = recognize_pair("exp(-0.4*k)*cos(2*k)")
        locs = sorted((d.location for d in rec.deltas),
                      key=lambda z: z.imag)
        assert locs[0] == pytest.approx(0.4 - 2j)
        assert locs[1] == pytest.approx(0.4 + 2j)

    def test_k_factor_raises_derivative_order(self):
        rec = recognize_pair("k*cos(2.2*k)")
        assert {d.deriv_order for d in rec.deltas} == {1}

    def test_monomial_is_a_derivative_spike_at_zero(self):
        rec = recognize_pair("k^2")
        [d] = rec.deltas
        assert d.location == 0
        assert d.deriv_order == 2

    def test_constant_is_an_order_zero_spike_at_zero(self):
        rec = recognize_pair("3")
        [d] = rec.deltas
        assert (d.location, d.deriv_order) == (0, 0)
        assert d.weight == 3

    def test_round_trips(self):
        _check_round_trip("exp(-0.7*k)")
        _check_round_trip("2*exp(-1.2*k) - 0.5*exp(-0.3*k)")


class TestSmoothRecognition:
    def test_lorentzian_density(self):
        """1/(k^2+a^2) has density sin(a t)/a."""
        rec = recognize_pair("1/(k^2+4)")
        assert rec.deltas == ()
        [s] = rec.smooth
        ts = np.linspace(0.1, 5.0, 9)
        np.testing.assert_allclose(np.asarray(s.fn(ts), dtype=complex),
                                   np.sin(2 * ts) / 2, rtol=1e-13)
        assert s.growth_bound == 0.0
        assert s.frequency == 2.0

    def test_k_lorentzian_density(self):
        """k/(k^2+a^2) has density cos(a t)."""
        rec = recognize_pair("k/(k^2+9)")
        [s] = rec.smooth
        ts = np.linspace(0.1, 5.0, 9)
        np.testing.assert_allclose(np.asarray(s.fn(ts), dtype=complex),
                                   np.cos(3 * ts), rtol=1e-13)
        assert s.frequency == 3.0

    def test_power_density(self):
        """k^{-s} has density t^{s-1}/Gamma(s)."""
        rec = recognize_pair("1/k^3")
        [s] = rec.smooth
        ts = np.linspace(0.5, 4.0, 7)
        np.testing.assert_allclose(np.asarray(s.fn(ts), dtype=complex),
                                   ts**2 / 2.0, rtol=1e-13)
        assert s.frequency == 0.0

    def test_power_density_is_bit_identical_to_the_formula(self):
        """Gamma(s) is taken once, at recognition; the density still computes
        c * t^(s-1) / Gamma(s), to the bit."""
        ts = np.linspace(0.1, 40.0, 57)
        for text, s in (("1/k^3", 3.0), ("2.5*k^-1.5", 1.5), ("1/k^171.5", 171.5)):
            [term] = recognize_pair(text).smooth
            c = 2.5 + 0j if text.startswith("2.5") else 1.0 + 0j
            want = c * ts ** (s - 1.0) / math.gamma(s)
            assert np.asarray(term.fn(ts)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("text", ["1/k^172", "k^-1e10"])
    def test_power_density_whose_gamma_overflows_is_refused(self, text):
        """Gamma(s) overflows float64 past s = 171.6; math.gamma used to raise
        OverflowError inside the integrand, out of every route."""
        with pytest.raises(RecognitionError, match="overflows float64"):
            recognize_pair(text)

    def test_harmonic_density_is_flat(self):
        rec = recognize_pair("1/k")
        [s] = rec.smooth
        np.testing.assert_allclose(np.asarray(s.fn(np.array([0.3, 2.0])),
                                              dtype=complex), 1.0, rtol=1e-14)

    def test_round_trips(self):
        _check_round_trip("1/(k^2+4)", tol=1e-8)
        _check_round_trip("1/k^2", tol=1e-8)
        _check_round_trip("1/k + exp(-k)", tol=1e-8)

    def test_mixed_summand_keeps_both_parts(self):
        rec = recognize_pair("sin(0.5*k) + 1/(k^2+1)")
        assert len(rec.deltas) == 2
        assert len(rec.smooth) == 1


class TestRejection:
    @pytest.mark.parametrize("text", ["log(k)", "sin(k^2)", "1/(k^3+1)",
                                      "exp(k)*sin(k)", "sqrt(k)*cos(k)",
                                      "exp(0.2*k)", "1/(k-k)", "(0*k)^-1",
                                      "(2*k)^2000"])
    def test_unsupported_shapes_raise(self, text):
        with pytest.raises(RecognitionError):
            recognize_pair(text)

    def test_infinite_exponent_raises(self):
        """The text k^(1e400) no longer parses, so the tree is built."""
        with pytest.raises(RecognitionError):
            recognize_pair(ex.Pow(ex.Var(), ex.Num(math.inf)))

    def test_gaussian_points_to_transform_route(self):
        with pytest.raises(RecognitionError, match="[Ff]ourier"):
            recognize_pair("exp(-k^2)")

    def test_error_names_the_alternatives(self):
        with pytest.raises(RecognitionError, match="telescoping|oracle"):
            recognize_pair("log(k)")


class TestDecompose:
    def test_drops_zero_terms(self):
        assert decompose("1/k^2 + 0*sqrt(k)") == [(1 + 0j, {KPOW: -2.0})]

    def test_terms_pass_through(self):
        terms = decompose("exp(-0.7*k)")
        assert decompose(terms) is terms

    def test_refusal_is_a_capability_error(self):
        assert issubclass(RecognitionError, CapabilityError)
        with pytest.raises(RecognitionError, match="cannot normalize summand"):
            decompose("log(k)")

    @pytest.mark.parametrize("text", ["sin(0.5*k) + 1/(k^2+1)", "k*cos(2.2*k)",
                                      "1/k^1.5 + exp(-0.3*k)"])
    def test_recognize_pair_reads_the_terms(self, text):
        """Text and its decomposition give the same kernel."""
        from_text, from_terms = recognize_pair(text), recognize_pair(decompose(text))
        assert from_text.deltas == from_terms.deltas
        assert [s.label for s in from_text.smooth] == [s.label for s in from_terms.smooth]
        t = np.linspace(0.1, 5.0, 7)
        for a, b in zip(from_text.smooth, from_terms.smooth):
            np.testing.assert_array_equal(a.fn(t), b.fn(t))


class TestKernelAlgebra:
    def test_addition_merges_parts(self):
        a = Kernel(deltas=(DeltaTerm(1 + 0j, 0.5 + 0j, 0),))
        b = Kernel(smooth=(SmoothTerm(fn=lambda t: t, growth_bound=0.0,
                                      label="linear"),))
        both = a + b
        assert len(both.deltas) == 1 and len(both.smooth) == 1

    def test_delta_validation(self):
        with pytest.raises(Exception):
            DeltaTerm(1 + 0j, -0.5 + 0j, 0)   # decaying transform needs Re >= 0
        with pytest.raises(Exception):
            DeltaTerm(1 + 0j, 0.5 + 0j, 7)    # derivative order is capped
