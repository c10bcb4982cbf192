"""Lattice-summation tests: Bernoulli corrections, remainder honesty, tails."""

import math

import pytest

from finsum import jets
from finsum.errors import CapabilityError, DomainError, PreconditionError
from finsum.eulermaclaurin import EMJob, em_sum, em_tail, gregory_tail
from finsum.special import hurwitz_zeta


class TestPolynomialExactness:
    """With corrections to order n the remainder carries f^(2n), so any
    polynomial of degree <= 2n-1 must come out exact."""

    def test_cubes(self):
        job = EMJob(lambda x: x**3, 0.0, 10.0, 10, n=2)
        got = em_sum(job)
        assert got.value.real == pytest.approx(3025.0, abs=1e-12 * 3025.0)
        assert got.error_estimate <= 1e-9  # f^(4) == 0: only quadrature dust

    def test_degree_five(self):
        want = float(sum(k**5 for k in range(13)))
        job = EMJob(lambda x: x**5, 0.0, 12.0, 12, n=3)
        got = em_sum(job)
        assert got.value.real == pytest.approx(want, rel=1e-12)

    def test_general_quintic_on_offset_lattice(self):
        def p(x):
            return ((2 * x - 3) * x + 1) * x**3 - 7 * x + 4

        want = math.fsum(p(float(k)) for k in range(2, 31))
        job = EMJob(p, 2.0, 30.0, 28, n=3)
        got = em_sum(job)
        assert got.value.real == pytest.approx(want, rel=1e-12)

    def test_fractional_step(self):
        """The lattice need not sit on integers: h = 1/4 over [0, 1]."""
        job = EMJob(lambda x: x**2, 0.0, 1.0, 4, n=2)
        want = math.fsum((0.25 * j) ** 2 for j in range(5))
        got = em_sum(job)
        assert got.value.real == pytest.approx(want, rel=1e-13)


class TestRemainderHonesty:
    def test_inverse_square_unit_lattice(self):
        """h = 1 is coarse for 1/x^2 near x = 1: the estimate must admit
        that (the sampled curvature is large) while still covering the miss."""
        job = EMJob(lambda x: 1.0 / (x * x), 1.0, 10.0, 9, n=3)
        got = em_sum(job)
        want = math.fsum(1.0 / (k * k) for k in range(1, 11))
        assert abs(got.value.real - want) <= got.error_estimate
        assert got.error_estimate > 1e-3  # no false confidence at h = 1

    def test_inverse_square_fine_lattice(self):
        job = EMJob(lambda x: 1.0 / (x * x), 1.0, 10.0, 90, n=3)
        got = em_sum(job)
        want = math.fsum(1.0 / (1.0 + 0.1 * j) ** 2 for j in range(91))
        assert abs(got.value.real - want) <= got.error_estimate
        assert got.error_estimate < 1e-4

    def test_shifted_reciprocal(self):
        job = EMJob(lambda x: 1.0 / (1.0 + x), 0.0, 20.0, 20, n=3)
        got = em_sum(job)
        want = math.fsum(1.0 / (1.0 + k) for k in range(21))
        assert abs(got.value.real - want) <= got.error_estimate

    def test_smooth_decay(self):
        job = EMJob(lambda x: jets.exp(-0.3 * x), 0.0, 15.0, 15, n=3)
        got = em_sum(job)
        want = math.fsum(math.exp(-0.3 * k) for k in range(16))
        assert abs(got.value.real - want) <= got.error_estimate
        assert abs(got.value.real - want) < 1e-7

    def test_finer_lattice_tightens_the_estimate(self):
        coarse = em_sum(EMJob(lambda x: 1.0 / (x * x), 1.0, 5.0, 4, n=2))
        fine = em_sum(EMJob(lambda x: 1.0 / (x * x), 1.0, 5.0, 32, n=2))
        assert fine.error_estimate < coarse.error_estimate


class TestAnalyticDerivatives:
    def test_override_matches_jets(self):
        def f(x):
            return 1.0 / x

        def df(x, order):
            return (-1.0) ** order * math.factorial(order) / x ** (order + 1)

        auto = em_sum(EMJob(f, 1.0, 8.0, 7, n=3))
        manual = em_sum(EMJob(f, 1.0, 8.0, 7, n=3, derivative=df))
        assert manual.value == pytest.approx(auto.value, rel=1e-13)

    def test_opaque_function_needs_the_override(self):
        """math.exp rejects jets, so differentiation must be supplied."""
        with pytest.raises(CapabilityError, match="derivative="):
            em_sum(EMJob(lambda x: math.exp(-x), 0.0, 5.0, 5, n=2))
        got = em_sum(EMJob(lambda x: math.exp(-x), 0.0, 5.0, 5, n=2,
                           derivative=lambda x, o: (-1.0) ** o * math.exp(-x)))
        want = math.fsum(math.exp(-float(k)) for k in range(6))
        assert abs(got.value.real - want) <= got.error_estimate


class TestTailEstimator:
    def test_power_tail_matches_hurwitz(self):
        """Sigma_{j>=1} (m+j)^(-s) is the Hurwitz zeta at m+1."""
        for s, m in ((2.0, 8.0), (3.0, 8.0), (2.5, 16.0)):
            value, bound = em_tail(lambda x: x ** (-s), m, n=3)
            want = hurwitz_zeta(s, m + 1.0)
            assert abs(value - want) <= max(bound, 1e-13), (s, m)
            assert abs(value - want) < 1e-6

    def test_geometric_tail(self):
        m = 6.0
        value, bound = em_tail(lambda x: jets.exp(-x), m, n=3)
        want = math.exp(-m) / (math.e - 1.0)
        assert abs(value - want) <= max(bound, 1e-15)

    def test_bound_shrinks_with_depth(self):
        _, near = em_tail(lambda x: x ** (-2.0), 4.0, n=3)
        _, far = em_tail(lambda x: x ** (-2.0), 64.0, n=3)
        assert far < near

    def test_non_integrable_tail_is_refused(self):
        with pytest.raises(DomainError, match="integrable"):
            em_tail(lambda x: 1.0 / x, 2.0, n=2)

    def test_decay_slower_than_inverse_square_is_refused(self):
        """x^(-1.5) is summable but its compactified tail integrand is
        endpoint-singular, which the half-line rule does not serve; the
        route must refuse rather than return an uncertified number."""
        with pytest.raises(DomainError, match="integrable"):
            em_tail(lambda x: x ** (-1.5), 16.0, n=3)


class TestGregoryTail:
    """Euler-Maclaurin's tail with forward differences of four lattice values
    in place of the derivatives, for closures that reject jets."""

    def test_lorentzian_tail_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        m = 64.0

        def f(x):
            return 1.0 / (complex(x) ** 2 + 1.0)      # rejects jets

        value, bound = gregory_tail(f, m, [f(m + i) for i in range(4)])
        with mp.workdps(30):
            want = complex(mp.nsum(lambda j: 1 / ((64 + j) ** 2 + 1), [1, mp.inf]))
        assert abs(value - want) <= bound < 2e-9

    def test_differences_that_do_not_shrink_are_refused_first(self):
        """An oscillation near the Nyquist angle: each difference doubles the
        last, so no Gregory term is below a quarter of its predecessor; the
        refusal comes before f is called at all."""
        def f(x):
            raise AssertionError("no quadrature on a refused tail")

        lattice = [math.exp(-0.3 * k) * math.cos(3.0 * k) for k in range(16, 20)]
        with pytest.raises(CapabilityError, match="forward differences"):
            gregory_tail(f, 16.0, lattice)


class TestValidation:
    def test_interval(self):
        with pytest.raises(PreconditionError):
            EMJob(lambda x: x, 3.0, 3.0, 1)

    def test_counts(self):
        with pytest.raises(PreconditionError):
            EMJob(lambda x: x, 0.0, 1.0, 0)
        with pytest.raises(PreconditionError):
            EMJob(lambda x: x, 0.0, 1.0, 4, n=0)
        with pytest.raises(PreconditionError):
            em_tail(lambda x: x ** (-2.0), 4.0, n=0)
