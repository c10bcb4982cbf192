"""Lattice-summation tests: Bernoulli corrections, remainder honesty, tails."""

import cmath
import math

import numpy as np
import pytest

from finsum import cli, jets
from finsum.errors import CapabilityError, EvaluationError, PreconditionError
from finsum.eulermaclaurin import (EMJob, decay_breakpoints, em_sum, em_tail, gregory_tail,
                                   gregory_value)
from finsum.expr import as_function, parse_expression
from finsum.quadrature import integrate_finite, integrate_semi_infinite
from finsum.special import hurwitz_zeta


def _semi_infinite(f, m):
    """integral= for em_tail and gregory_tail: integral_m^inf f."""
    return lambda: integrate_semi_infinite(lambda u: f(u + m), tol=1e-13)


def _counted(f, m):
    """_semi_infinite(f, m), and the list of the m of each of its calls."""
    calls = []
    integral = _semi_infinite(f, m)

    def counted():
        calls.append(m)
        return integral()
    return counted, calls


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
        """h = 1 is coarse for 1/x^2 near x = -1, at the end of the tail past
        the 16-point head: the estimate must admit that (the sampled
        curvature is large) while still covering the miss."""
        job = EMJob(lambda x: 1.0 / (x * x), -26.0, -1.0, 25, n=3)
        got = em_sum(job)
        want = math.fsum(1.0 / (k * k) for k in range(1, 27))
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

    def test_non_finite_curvature_voids_the_bound(self):
        """exp(35k) overflows at the upper curvature samples: their nan
        derivatives void the remainder bound instead of being skipped."""
        f = as_function(parse_expression("exp(700*k/20)"))
        got = em_sum(EMJob(f, 1.0, 20.0, 19, n=3))
        assert not math.isfinite(got.error_estimate)
        assert "non-converged" in got.flags

    def test_finer_lattice_tightens_the_estimate(self):
        coarse = em_sum(EMJob(lambda x: 1.0 / (x * x), -33.0, -1.0, 32, n=2))
        fine = em_sum(EMJob(lambda x: 1.0 / (x * x), -33.0, -1.0, 256, n=2))
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
            em_sum(EMJob(lambda x: math.exp(-x), 0.0, 25.0, 25, n=2))
        got = em_sum(EMJob(lambda x: math.exp(-x), 0.0, 25.0, 25, n=2,
                           derivative=lambda x, o: (-1.0) ** o * math.exp(-x)))
        want = math.fsum(math.exp(-float(k)) for k in range(26))
        assert abs(got.value.real - want) <= got.error_estimate


class TestOneJet:
    """em_sum takes every derivative from one jet over its 17 curvature
    samples of the tail past its 16-point head, em_tail from one scalar jet;
    the per-point path is the fallback and serves derivative= call for
    call."""

    @staticmethod
    def _counted(f):
        seen = []

        def g(x):
            if isinstance(x, jets.Jet):
                seen.append(x)
            return f(x)
        return g, seen

    def test_em_sum_calls_a_parsed_summand_on_one_jet(self):
        g, seen = self._counted(as_function(parse_expression("1.3*exp(-0.4*k)*cos(0.7*k)")))
        em_sum(EMJob(g, -15.0, 20.0, 35, n=3))
        assert len(seen) == 1
        assert seen[0].order == 6 and seen[0].value.shape == (17,)
        assert seen[0].value[0] == 1.0 and seen[0].value[-1] == 20.0

    @pytest.mark.parametrize("n", [1, 3])
    def test_em_tail_calls_f_on_one_jet_of_order_2n_minus_1(self, n):
        g, seen = self._counted(lambda x: x ** (-2.0))
        em_tail(g, 8.0, n=n, integral=_semi_infinite(g, 8.0))
        assert [(jet.order, jet.value) for jet in seen] == [(2 * n - 1, 8.0)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_derivative_path_is_called_per_point(self, n):
        calls = []

        def df(x, order):
            calls.append((x, order))
            return (-1.0) ** order * math.factorial(order) / x ** (order + 1)

        g, seen = self._counted(lambda x: 1.0 / x)
        em_sum(EMJob(g, 1.0, 25.0, 24, n=n, derivative=df))
        assert len(calls) == 2 * (n - 1) + 17 and not seen
        corrections = [(x, o) for k in range(1, n) for x, o in ((25.0, 2 * k - 1), (17.0, 2 * k - 1))]
        assert calls[:2 * (n - 1)] == corrections
        assert [o for _, o in calls[2 * (n - 1):]] == [2 * n] * 17

    @staticmethod
    def _per_point(f):
        """em_sum of f with each derivative from its own scalar jet: the
        per-point path, as a derivative= callback."""
        def derivative(x, order):
            return f(jets.Jet.variable(complex(x), order)).derivative(order)
        return em_sum(EMJob(f, 1.0, 20.0, 19, n=3, derivative=derivative))

    @pytest.mark.parametrize("text", ["1.3*exp(-0.4*k)*cos(0.7*k)", "1/(k^2+1.5)"])
    def test_closure_rejecting_a_batch_gives_the_same_record(self, text):
        f = as_function(parse_expression(text))

        def scalar_only(x):
            if isinstance(x, jets.Jet) and isinstance(x.value, np.ndarray):
                raise TypeError("no batches")
            return f(x)

        want = self._per_point(f)
        got = em_sum(EMJob(scalar_only, 1.0, 20.0, 19, n=3))
        assert (got.value, got.error_estimate) == (want.value, want.error_estimate)
        batch = em_sum(EMJob(f, 1.0, 20.0, 19, n=3))
        assert batch.value == pytest.approx(want.value, rel=4e-16)
        assert batch.error_estimate == pytest.approx(want.error_estimate, rel=1e-12)

    def test_non_finite_batch_is_replayed_per_point(self):
        """exp just past the top of the double range at b, past the finite
        head: numpy gives inf there, and the per-point replay raises cmath's
        OverflowError, as the per-point path always did."""
        b = math.nextafter(math.log(np.finfo(float).max), math.inf)
        with pytest.raises(OverflowError):
            em_sum(EMJob(jets.exp, 700.0, b, 20, n=3))

    def test_refusal_names_the_first_point_and_order_as_before(self):
        """The batch fails on the zero under sqrt at k = 17, the first point
        past the head; the per-point replay refuses at the lower end of the
        first correction, as one jet per point always did, not at the
        curvature order."""
        rec = cli.run("sqrt(k-17)", 40, method="euler-maclaurin")["results"][1]
        assert rec["error"] == ("cannot differentiate f at x=17.0 to order 1: sqrt of a "
                                "jet with zero value part; supply derivative= analytically")


class TestDirectHead:
    """em_sum sums the first 16 lattice points directly and runs
    Euler-Maclaurin on the rest; a lattice of at most 16 points is the
    direct sum alone."""

    @pytest.mark.parametrize("m", [1, 7, 15])
    @pytest.mark.parametrize("f", [lambda x: 1.0 / (x * x + 0.3),
                                   lambda x: math.exp(-0.7 * x) * math.cos(x)],
                             ids=["array", "scalar-only"])
    def test_short_lattice_is_the_fsum_of_its_values(self, f, m):
        values = [f(float(k)) for k in range(1, m + 2)]
        got = em_sum(EMJob(f, 1.0, float(m + 1), m))
        assert got.value == complex(math.fsum(values), 0.0)
        assert got.error_estimate == 2.0 * 2.220446049250313e-16 * float(np.abs(values).sum())
        assert got.diagnostics.notes == {"lattice_points": m + 1, "head": m + 1, "breakpoints": 0}
        assert not got.flags

    def test_non_finite_head_value_names_its_x(self):
        with pytest.raises(EvaluationError, match="not finite") as info:
            em_sum(EMJob(lambda x: 1.0 / (x - 3.0), 0.0, 30.0, 30))
        assert info.value.at == "x=3.0"

    def test_record_notes_the_head_and_the_breakpoints(self):
        short = cli.run("1/k^2", 10, method="euler-maclaurin")["results"]
        assert short[1]["diagnostics"]["notes"] == {"lattice_points": 10, "head": 10,
                                                    "breakpoints": 0}
        assert short[1]["abs_err_vs_oracle"] <= short[0]["error_estimate"]
        long = cli.run("exp(-0.3*k)", 10 ** 5, method="euler-maclaurin")["results"][1]
        notes = long["diagnostics"]["notes"]
        assert notes["head"] == 16 and notes["breakpoints"] > 0


def _trigamma_rational(mp, n):
    """Sigma_{k<=n} k/(k^2+1)^2 = Im(psi'(1-i) - psi'(n+1-i))/2, from
    k/(k^2+1)^2 = (1/(k-i)^2 - 1/(k+i)^2)/(4i)."""
    with mp.workdps(40):
        return complex(mp.im(mp.psi(1, 1 - 1j) - mp.psi(1, n + 1 - 1j)) / 2)


def _geometric(mp, c, a, alpha, n, theta=0.0):
    """Sigma_{k<=n} c exp(-a alpha k) cos(theta alpha k), as Re of a
    geometric sum."""
    with mp.workdps(40):
        z = mp.exp((-mp.mpf(a) + 1j * mp.mpf(theta)) * mp.mpf(alpha))
        return complex(mp.mpf(c) * mp.re(z * (1 - z ** n) / (1 - z)))


# (summand, N, alpha, c, a): euler-maclaurin rows that missed by 8.0e-4, 2.5
# and 1.0 with the head-less route and unseeded tail integrals; c*exp(-a*k),
# or k/(k^2+1)^2 where c is None
_EM_ROWS = [("k/(k^2+1)^2", 100, 1.0, None, None), ("k/(k^2+1)^2", 1000, 1.0, None, None),
            ("exp(-0.3*k)", 10 ** 5, 1.0, 1.0, 0.3),
            ("0.6366*exp(-0.4072*k)", 59583, 1.0115, 0.6366, 0.4072)]


@pytest.mark.parametrize("text,n,alpha,c,a", _EM_ROWS)
def test_head_and_seeded_tail_cover_the_rows(text, n, alpha, c, a):
    mp = pytest.importorskip("mpmath")
    want = _trigamma_rational(mp, n) if c is None else _geometric(mp, c, a, alpha, n)
    rec = cli.run(text, n, method="euler-maclaurin", alpha=alpha, tol=1e-10)["results"][1]
    assert not rec["flags"]
    value = complex(rec["value"]["re"], rec["value"]["im"])
    assert abs(value - want) <= rec["error_estimate"]


class TestDecayBreakpoints:
    def test_exponential_decay_length(self):
        values = [math.exp(-0.5 * k) for k in range(16)]
        got = decay_breakpoints(values, 1.0, 16.0, 1016.0)
        assert got[0] == pytest.approx(18.0, rel=1e-12)
        assert got == pytest.approx([16.0 + 2.0 * 2 ** j for j in range(9)], rel=1e-12)

    def test_oscillation_does_not_hide_the_decay(self):
        """exp(-0.7k) cos(1.7k): single ratios of neighbours swing either
        way, the envelope of each half still shows the decay length."""
        values = [math.exp(-0.7 * k) * math.cos(1.7 * k) for k in range(16)]
        got = decay_breakpoints(values, 1.0, 16.0, 10016.0)
        assert 1.0 / 0.7 / 1.5 < got[0] - 16.0 < 1.0 / 0.7 * 1.5

    @pytest.mark.parametrize("values,stop", [([math.cos(2.2 * k) for k in range(16)], 1e5),
                                             ([1.0 / (k + 16.0) ** 2 for k in range(16)], 60.0),
                                             ([1.0], 1e5)],
                             ids=["no-decay", "long-length", "too-few"])
    def test_none_unless_the_length_is_short(self, values, stop):
        assert decay_breakpoints(values, 1.0, 16.0, stop) == []


class TestTailEstimator:
    def test_power_tail_matches_hurwitz(self):
        """Sigma_{j>=1} (m+j)^(-s) is the Hurwitz zeta at m+1."""
        for s, m in ((2.0, 8.0), (3.0, 8.0), (2.5, 16.0)):
            f = lambda x: x ** (-s)  # noqa: E731
            value, bound = em_tail(f, m, n=3, integral=_semi_infinite(f, m))
            want = hurwitz_zeta(s, m + 1.0)
            assert abs(value - want) <= max(bound, 1e-13), (s, m)
            assert abs(value - want) < 1e-6

    def test_geometric_tail(self):
        m = 6.0
        f = lambda x: jets.exp(-x)  # noqa: E731
        value, bound = em_tail(f, m, n=3, integral=_semi_infinite(f, m))
        want = math.exp(-m) / (math.e - 1.0)
        assert abs(value - want) <= max(bound, 1e-15)

    def test_bound_shrinks_with_depth(self):
        f = lambda x: x ** (-2.0)  # noqa: E731
        _, near = em_tail(f, 4.0, n=3, integral=_semi_infinite(f, 4.0))
        _, far = em_tail(f, 64.0, n=3, integral=_semi_infinite(f, 64.0))
        assert far < near

    def test_need_skips_the_integral_only_where_the_term_misses_it(self):
        """With need at or below the first omitted term, (None, that term)
        comes back and integral is not called; above it, or at the default
        inf, em_tail is as always."""
        f = lambda x: x ** (-2.0)  # noqa: E731
        integral, calls = _counted(f, 8.0)
        _, term = em_tail(f, 8.0, n=3, need=1e-300, integral=integral)
        assert calls == []
        assert em_tail(f, 8.0, n=3, need=term, integral=integral) == (None, term)
        assert calls == []
        full = em_tail(f, 8.0, n=3, integral=integral)
        assert em_tail(f, 8.0, n=3, need=term * (1 + 1e-12), integral=integral) == full
        assert full[1] >= term
        assert calls == [8.0, 8.0]

    def test_rejected_jet_is_refused_before_the_integral(self):
        """A closure that rejects jets is refused at order 1, with the
        TypeError as the cause (the telescope reads it), and integral is
        not called."""
        f = lambda x: 1.0 / complex(x) ** 2  # noqa: E731
        integral, calls = _counted(f, 8.0)
        with pytest.raises(CapabilityError, match="to order 1") as info:
            em_tail(f, 8.0, n=3, integral=integral)
        assert isinstance(info.value.__cause__, TypeError)
        assert calls == []

    def test_bound_is_twice_the_first_omitted_term(self):
        """On a damped oscillation e^{-ax}, Im a > Re a > 0, the remainder
        exceeds the first omitted term by about 1/(1 - (|a|/2pi)^2), so the
        term is charged twice over."""
        a, m = 0.2 - 2.0j, 6.0
        f = lambda x: jets.exp(-a * x)  # noqa: E731
        term = abs(a ** 5 * cmath.exp(-a * m)) / 42 / math.factorial(6)
        integral = _semi_infinite(f, m)
        assert em_tail(f, m, n=3, need=1e-300, integral=integral)[1] == \
            pytest.approx(2 * term, rel=1e-12)
        value, bound = em_tail(f, m, n=3, integral=integral)
        want = cmath.exp(-a * m) / (cmath.exp(a) - 1.0)
        assert term < abs(value - want) <= bound


class TestGregoryTail:
    """Euler-Maclaurin's tail with forward differences of four lattice values
    in place of the derivatives, for closures that reject jets."""

    def test_lorentzian_tail_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        m = 64.0

        def f(x):
            return 1.0 / (complex(x) ** 2 + 1.0)      # rejects jets

        value, bound = gregory_tail(m, [f(m + i) for i in range(4)],
                                    integral=_semi_infinite(f, m))
        with mp.workdps(30):
            want = complex(mp.nsum(lambda j: 1 / ((64 + j) ** 2 + 1), [1, mp.inf]))
        assert abs(value - want) <= bound < 2e-9

    def test_differences_that_do_not_shrink_are_refused_first(self):
        """An oscillation near the Nyquist angle: each difference doubles the
        last, so no Gregory term is below a quarter of its predecessor; the
        refusal comes before integral is called."""
        def integral():
            raise AssertionError("no quadrature on a refused tail")

        lattice = [math.exp(-0.3 * k) * math.cos(3.0 * k) for k in range(16, 20)]
        with pytest.raises(CapabilityError, match="forward differences"):
            gregory_tail(16.0, lattice, integral=integral)

    def test_need_defers_the_integral_only_where_the_term_misses_it(self):
        """As for em_tail: with need at or below the doubled first omitted
        term, (None, that term) comes back and integral is not called; the
        window finishes later from the same lattice and one quadrature,
        bit for bit as without need."""
        m = 64.0
        f = lambda x: 1.0 / (complex(x) ** 2 + 1.0)  # noqa: E731
        lattice = [f(m + i) for i in range(4)]
        integral, calls = _counted(f, m)
        _, term = gregory_tail(m, lattice, need=1e-300, integral=integral)
        assert calls == []
        assert gregory_tail(m, lattice, need=term, integral=integral) == (None, term)
        assert calls == []
        full = gregory_tail(m, lattice, integral=integral)
        assert gregory_tail(m, lattice, need=term * (1 + 1e-12), integral=integral) == full
        assert full[0] == gregory_value(lattice, integral())
        assert full[1] >= term
        assert calls == [m, m, m]

    def test_given_integral_makes_it_a_window_sum(self):
        """For f(x) = g(x) - g(x+N), the integral of g over [m, m+N] in place
        of the semi-infinite one turns either tail into the sum of g over
        m+1..m+N."""
        mp = pytest.importorskip("mpmath")
        m, n = 16.0, 40
        g = lambda x: 1.0 / (x * x + 1.0)  # noqa: E731
        f = lambda x: g(x) - g(x + n)  # noqa: E731
        window = lambda: integrate_finite(g, m, m + n, tol=1e-13)  # noqa: E731
        want = complex(mp.fsum(1 / (mp.mpf(k) ** 2 + 1) for k in range(17, 17 + n)))
        value, bound = em_tail(f, m, integral=window)
        assert abs(value - want) <= bound < 1e-9
        scalar = lambda x: f(complex(x))  # noqa: E731
        value, bound = gregory_tail(m, [scalar(m + i) for i in range(4)], integral=window)
        assert abs(value - want) <= bound < 1e-5


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
            em_tail(lambda x: x ** (-2.0), 4.0, n=0,
                    integral=_semi_infinite(lambda x: x ** (-2.0), 4.0))
