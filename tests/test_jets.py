"""Truncated-Taylor (jet) arithmetic tests.

Derivatives produced by jet propagation are cross-checked against hand
closed forms and high-order central finite differences.
"""

import cmath
import math

import numpy as np
import pytest

from finsum import jets
from finsum.errors import PoleError
from finsum.jets import Jet, alternating_exp_power_sum, exp_power_sum


def _fd_derivative(f, x, order, h):
    """Central finite difference of the given order (stencil width order+2)."""
    if order == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if order == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    if order == 3:
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3)
    raise ValueError(order)


class TestJetArithmetic:
    def test_value_and_first_derivatives_of_rational(self):
        """d/dx [x/(x^2+4)] = (4-x^2)/(x^2+4)^2 at several points."""
        for x0 in (0.5, 1.0, 3.0):
            j = Jet.variable(x0, 3)
            out = j / (j * j + 4.0)
            want = (4 - x0**2) / (x0**2 + 4) ** 2
            assert out.derivative(1) == pytest.approx(want, rel=1e-13)

    def test_product_rule_to_fourth_order(self):
        """(fg)'''' contains the full Leibniz expansion; compare sin*exp."""
        x0 = 0.8
        j = Jet.variable(x0, 4)
        out = jets.sin(j) * jets.exp(j)
        # d^4/dx^4 [e^x sin x] = -4 e^x sin x
        assert out.derivative(4) == pytest.approx(-4 * math.exp(x0) * math.sin(x0),
                                                  rel=1e-12)

    def test_quotient_vs_finite_difference(self):
        f = lambda x: math.exp(-0.4 * x) / (x**2 + 1)
        x0 = 1.7
        j = jets.exp(-0.4 * Jet.variable(x0, 3)) / (Jet.variable(x0, 3) ** 2 + 1)
        for order, h, tol in ((1, 1e-6, 1e-8), (2, 1e-4, 1e-6), (3, 1e-3, 1e-4)):
            assert j.derivative(order) == pytest.approx(
                _fd_derivative(f, x0, order, h), rel=tol)

    def test_integer_power(self):
        j = Jet.variable(2.0, 3)
        out = j**5
        assert out.value == 32.0
        assert out.derivative(1) == 80.0
        assert out.derivative(2) == 160.0
        assert out.derivative(3) == 240.0

    def test_fractional_power_via_exp_log(self):
        j = Jet.variable(4.0, 2)
        out = j**0.5
        assert out.value == pytest.approx(2.0, rel=1e-15)
        assert out.derivative(1) == pytest.approx(0.25, rel=1e-13)
        assert out.derivative(2) == pytest.approx(-1.0 / 32.0, rel=1e-13)

    def test_complex_jet_chain(self):
        """exp at a complex point keeps both components of every derivative."""
        z0 = 0.3 + 1.2j
        j = jets.exp(Jet.variable(z0, 2))
        for order in (0, 1, 2):
            assert j.derivative(order) == pytest.approx(cmath.exp(z0), rel=1e-14)


def _cauchy(a, b):
    """The truncated Cauchy product of two coefficient sequences."""
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))]


def _bits(c):
    return np.asarray(c, dtype=np.complex128).tobytes()


class TestConstantTimesJet:
    """A number times a jet scales each coefficient, with the bits of the
    Cauchy product with the constant jet (c, 0, ..., 0)."""

    _PARTS = (0.0, -0.0, 1.0, -2.5, 3.0e-300, -7.0e290, 0.1)
    _CONSTANTS = (0, 1, -3, 1.0, -0.0, 2.75, 1 + 0j, -1j, 0.5 - 2j, complex(-0.0, 0.0),
                  np.float64(1.0), np.float64(-1.3))

    @classmethod
    def _jets(cls, order=6):
        """A scalar jet and a jet over five points, with signed zeros, tiny
        and huge parts."""
        rng = np.random.default_rng(16)

        def part(size=None):
            return rng.choice(cls._PARTS, size) * rng.uniform(0.5, 2.0, size)

        scalar = [complex(part(), part()) for _ in range(order + 1)]
        batch = [part(5) + 1j * part(5) for _ in range(order + 1)]
        return Jet._of(scalar), Jet._of(batch)

    @pytest.mark.parametrize("c", _CONSTANTS, ids=repr)
    def test_same_bits_as_the_cauchy_product(self, c):
        for jet in self._jets():
            want = _cauchy(jet.coeffs, (complex(c),) + (0j,) * jet.order)
            for got in (jet * c, c * jet):
                assert isinstance(got, Jet)
                assert [_bits(x) for x in got.coeffs] == [_bits(x) for x in want]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("c", [2, -1.5, 0.5 + 1j, np.float64(3.0)], ids=repr)
    def test_non_finite_stays_non_finite(self, bad, c):
        """A non-finite coefficient gives a non-finite one, as in the Cauchy
        product (which also spreads it to the later coefficients)."""
        scalar = Jet._of([2.0 + 0j, complex(bad, 1.0), 0.5j])
        batch = Jet._of([np.array([2.0, 1.0]) + 0j, np.array([1.0, bad]) + 0j,
                         np.array([0.5j, 1.0])])
        with np.errstate(all="ignore"):
            for jet in (scalar, batch):
                old = _cauchy(jet.coeffs, (complex(c),) + (0j,) * jet.order)
                for coeffs in (old, (jet * c).coeffs, (c * jet).coeffs):
                    assert not np.all(np.isfinite(coeffs[1]))


class TestElementals:
    def test_dispatch_matches_math_on_scalars(self):
        for x in (0.3, 2.0):
            assert jets.exp(x) == math.exp(x)
            assert jets.log(x) == math.log(x)
            assert jets.sin(x) == math.sin(x)
            assert jets.cos(x) == math.cos(x)
            assert jets.sqrt(x) == math.sqrt(x)
            assert jets.expm1(x) == math.expm1(x)

    def test_dispatch_on_arrays(self):
        xs = np.linspace(0.1, 3.0, 11)
        np.testing.assert_allclose(jets.exp(xs), np.exp(xs), rtol=1e-15)
        np.testing.assert_allclose(jets.expm1(xs), np.expm1(xs), rtol=1e-15)

    def test_expm1_jet_constant_term_is_stable(self):
        """The order-0 slot must carry expm1, not exp-then-subtract."""
        j = jets.expm1(Jet.variable(1e-12, 2))
        assert j.value == pytest.approx(1e-12, rel=1e-13)
        assert j.derivative(1) == pytest.approx(math.exp(1e-12), rel=1e-13)

    def test_real_exp_overflows_only_past_the_double_range(self):
        """math.exp(709.5) is finite; inf only where math.exp overflows."""
        limit = math.log(np.finfo(float).max)          # 709.78...
        for x in (709.0, 709.5, math.nextafter(limit, 0.0)):
            assert jets.exp(x) == math.exp(x) < math.inf
        for x in (math.nextafter(limit, math.inf), 710.0, 1e5):
            assert jets.exp(x) == math.inf

    @pytest.mark.parametrize("sort", [False, True])
    def test_exp_of_underflowing_lanes_matches_numpy(self, sort):
        """Lanes below -745.2 are left at 0.0 rather than computed; the result
        is numpy's bit for bit, NaN, -inf and +inf lanes included."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-2000.0, 800.0, size=int(rng.integers(1, 200)))
            x[rng.integers(0, x.size, size=3)] = (np.nan, -np.inf, np.inf)
            if sort:
                x.sort()
            with np.errstate(over="ignore"):
                want = np.exp(x)
                assert jets.exp(x).tobytes() == want.tobytes()
        assert jets.exp(np.array(-800.0)) == 0.0

    @pytest.mark.parametrize("name", ["1/x", "log", "sqrt"])
    def test_zero_value_part_of_a_scalar_jet_raises(self, name):
        op = {"1/x": lambda x: 1.0 / x, "log": jets.log, "sqrt": jets.sqrt}[name]
        for zero in (0.0, 0j):
            with pytest.raises(ZeroDivisionError):
                op(Jet.variable(zero, 3))

    def test_value_part(self):
        assert jets.value_part(3.5) == 3.5
        assert jets.value_part(Jet.variable(2.0, 3) ** 2) == 4.0


# every operation on jets, on operands x and y
_BATCH_OPS = {
    "+": lambda x, y: x + y, "-": lambda x, y: x - y,
    "*": lambda x, y: x * y, "/": lambda x, y: x / y,
    "** int": lambda x, y: x ** 5, "** float": lambda x, y: x ** 0.37,
    # exp multiplies the rounding of its argument p*log(x) by |p*log(x)|:
    # a Jet exponent of modest size keeps that below an ulp
    "** jet": lambda x, y: x ** (0.25 * y),
    "exp": lambda x, y: jets.exp(x), "expm1": lambda x, y: jets.expm1(x),
    "log": lambda x, y: jets.log(x), "sin": lambda x, y: jets.sin(x),
    "cos": lambda x, y: jets.cos(x), "sqrt": lambda x, y: jets.sqrt(x),
}


class TestBatchJets:
    """A jet over an array of points against scalar jets at each point.

    numpy and libm differ by about an ulp in the value parts, and numpy may
    fuse or reorder a complex product, so the two agree to rounding, not bit
    for bit: to 4 ulps of the largest coefficient of the jet at that point,
    the scale at which a coefficient that nearly cancels still carries the
    rounding of its larger terms."""

    _ORDER = 6  # what em_sum takes at its default n = 3
    # 17 points on a circle about 1.2, away from 0 and the branch cut of log
    _Z = 1.2 + 0.5 * np.exp(2j * np.pi * (np.arange(17) + 0.5) / 17)

    @classmethod
    def _operands(cls, z):
        return Jet.variable(z, cls._ORDER), Jet.variable(3.0 - 1.0j - 0.5 * z, cls._ORDER)

    @pytest.mark.parametrize("name", list(_BATCH_OPS))
    def test_agrees_with_scalar_jets_per_point(self, name):
        op = _BATCH_OPS[name]
        batch = op(*self._operands(self._Z))
        assert batch.order == self._ORDER
        for i, z in enumerate(self._Z.tolist()):
            want = op(*self._operands(z)).coeffs
            scale = max(abs(c) for c in want)
            for k, (got, c) in enumerate(zip(batch.coeffs, want)):
                got = complex(np.broadcast_to(got, self._Z.shape)[i])
                assert abs(got - c) <= 4.0 * 2.220446049250313e-16 * scale, (name, z, k)

    @pytest.mark.parametrize("name", ["1/x", "log", "sqrt"])
    def test_zero_value_part_in_any_lane_raises(self, name):
        op = {"1/x": lambda x: 1.0 / x, "log": jets.log, "sqrt": jets.sqrt}[name]
        for lane in (0, 8, 16):
            z = self._Z.copy()
            z[lane] = 0.0
            with pytest.raises(ZeroDivisionError):
                op(Jet.variable(z, self._ORDER))

    def test_variable_over_an_array(self):
        x = Jet.variable(np.array([1.0, 2.5]), 3)
        assert x.value.dtype == np.complex128
        assert np.array_equal(x.derivative(1) * np.ones(2), [1.0, 1.0])
        assert np.array_equal((x * x).derivative(2), [2.0, 2.0])


class TestExpPowerSum:
    def test_matches_direct_loop(self):
        """Sigma_{k=1}^{n} e^{zk} against an fsum'd term-by-term loop."""
        rng = np.random.default_rng(17)
        for _ in range(120):
            z = complex(rng.uniform(-3, 0.5), rng.uniform(-4, 4))
            n = int(rng.integers(1, 60))
            want_re = math.fsum((cmath.exp(z * k)).real for k in range(1, n + 1))
            want_im = math.fsum((cmath.exp(z * k)).imag for k in range(1, n + 1))
            got = complex(exp_power_sum(z, n))
            assert got == pytest.approx(complex(want_re, want_im),
                                        rel=1e-12, abs=1e-12)

    def test_tiny_argument_series_branch(self):
        """For |z|n << 1 the sum is n + z n(n+1)/2 + ... to high accuracy."""
        z = 1e-9 + 2e-9j
        n = 1000
        s0, s1, s2, s3, _ = (float(n), n * (n + 1) / 2,
                             n * (n + 1) * (2 * n + 1) / 6,
                             (n * (n + 1) / 2) ** 2, 0)
        want = s0 + z * s1 + z * z * s2 / 2 + z**3 * s3 / 6
        assert complex(exp_power_sum(z, n)) == pytest.approx(want, rel=1e-13)

    def test_zero_argument_counts_terms(self):
        assert complex(exp_power_sum(0j, 37)) == pytest.approx(37.0, rel=1e-14)

    def test_growing_argument_does_not_overflow_prematurely(self):
        got = complex(exp_power_sum(2.0 + 0j, 50))
        # Sigma e^{2k} = e^2 (e^{100} - 1)/(e^2 - 1); compare in log space
        want_log = 2 + 100 + math.log1p(-math.exp(-100)) - math.log(math.e**2 - 1)
        assert math.log(got.real) == pytest.approx(want_log, rel=1e-13)

    def test_jet_argument_propagates_derivative(self):
        """d/dz Sigma e^{zk} = Sigma k e^{zk}."""
        z0 = -0.4 + 0.3j
        n = 12
        out = exp_power_sum(Jet.variable(z0, 1), n)
        want = sum(k * cmath.exp(z0 * k) for k in range(1, n + 1))
        assert out.derivative(1) == pytest.approx(want, rel=1e-12)


class TestAlternatingExpPowerSum:
    def test_matches_direct_loop_even_and_odd(self):
        rng = np.random.default_rng(23)
        for _ in range(120):
            z = complex(rng.uniform(-2, 0.5), rng.uniform(-4, 4))
            n = int(rng.integers(1, 40))
            want = sum((-1) ** (k + 1) * cmath.exp(z * k) for k in range(1, n + 1))
            got = complex(alternating_exp_power_sum(z, n))
            assert got == pytest.approx(want, rel=1e-11, abs=1e-12)

    def test_zero_argument(self):
        assert complex(alternating_exp_power_sum(0j, 8)) == pytest.approx(0.0, abs=1e-14)
        assert complex(alternating_exp_power_sum(0j, 9)) == pytest.approx(1.0, rel=1e-14)


class TestCombOnArrays:
    """The combs on a complex128 array against the same combs on each element
    as a Python complex.  libm and numpy differ by about an ulp, so the two
    agree to 4 eps relative, not bit for bit."""

    # z = 0, |z| on both sides of the 1e-6 series cutoff, and O(1) values.
    # |z| = 5e-7 is in the series below n = 6000 (|z|*n <= 3e-3) and in the
    # closed form at n = 100000; |z| >= 2e-6 is always in the closed form
    _Z = np.array([0.0, -5e-7, 5e-7j, -3e-7 - 4e-7j, -2e-6, 2e-6j,
                   -1e-6 + 2e-6j, -4e-6j, -0.3 + 2.0j, -1.7 - 0.4j, 3.0j, -25.0 + 1.0j])

    @pytest.mark.parametrize("comb", [exp_power_sum, alternating_exp_power_sum])
    @pytest.mark.parametrize("n", [1, 8, 9, 1000, 1001, 100_000])
    def test_array_matches_scalar(self, comb, n):
        got = comb(self._Z.astype(np.complex128), n)
        assert got.shape == self._Z.shape
        for z, value in zip(self._Z.tolist(), got.tolist()):
            want = complex(comb(complex(z), n))
            assert abs(value - want) <= 4.0 * 2.220446049250313e-16 * abs(want), (z, n)

    def test_pole_on_the_grid_raises(self):
        z = np.array([-0.5 + 0j, 2j * math.pi, -1.0 + 1j])
        with pytest.raises(PoleError) as info:
            exp_power_sum(z, 5)
        assert info.value.pole == pytest.approx(2j * math.pi)
        z = np.array([-0.5 + 0j, 1j * math.pi])
        with pytest.raises(PoleError) as info:
            alternating_exp_power_sum(z, 6)
        assert info.value.pole == pytest.approx(1j * math.pi)


class TestCombPolesOffTheGrid:
    """Scalars and jets meet the same pole test as grids."""

    @pytest.mark.parametrize("order", [0, 2])
    def test_pole_at_a_scalar_or_jet_raises(self, order):
        """Off the grid the comb tests the value part of its denominator,
        relative to |z|, and names z; either side of the pole, since the
        growing branch (Re z > 0) divides by expm1(-z)."""
        for z in (2j * math.pi, 1e-13 - 4j * math.pi):
            arg = Jet.variable(z, order) if order else z
            with pytest.raises(PoleError, match="variant kernel has a pole") as info:
                exp_power_sum(arg, 5)
            assert info.value.pole == z
        arg = Jet.variable(-1j * math.pi, order) if order else -1j * math.pi
        with pytest.raises(PoleError, match="alternating kernel has a pole") as info:
            alternating_exp_power_sum(arg, 6)
        assert info.value.pole == -1j * math.pi

    @pytest.mark.parametrize("m", [1e6, 1e9, 1e12])
    def test_pole_at_large_m_raises(self, m):
        """The pole test stays relative to |z| up to the absolute bound:
        the float nearest 2*pi*i*m lies within 1e-3 of the pole."""
        with pytest.raises(PoleError, match="variant kernel has a pole"):
            exp_power_sum(2j * math.pi * m, 5)
        with pytest.raises(PoleError, match="alternating kernel has a pole"):
            alternating_exp_power_sum(1j * math.pi * (2 * m + 1), 6)
        with pytest.raises(PoleError, match="pole on the integration path"):
            exp_power_sum(np.array([-0.5 + 0j, 2j * math.pi * m]), 5)

    @pytest.mark.parametrize("z", [-1e13 + 0j, -1e308 + 0j, -1e300 + 2j, -0.5 + 1e13j])
    def test_far_from_every_pole_is_no_pole(self, z):
        """At |z| > 1e12 the denominator is about -1 or 1 (or of order 1),
        which 1e-12 |z| exceeds; it is no pole."""
        for n in (5, 6):
            want = sum(cmath.exp(z * k) for k in range(1, n + 1))
            assert exp_power_sum(z, n) == pytest.approx(want, rel=1e-12, abs=1e-300)
            with np.errstate(over="ignore"):  # n*z is -inf at z = -1e308
                got = exp_power_sum(np.array([z]), n)[0]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
            alt = sum((-1) ** (k + 1) * cmath.exp(z * k) for k in range(1, n + 1))
            assert alternating_exp_power_sum(z, n) == pytest.approx(alt, rel=1e-12,
                                                                    abs=1e-300)

    def test_removable_point_off_the_series_is_no_pole(self):
        """z = -1e-13 at n = 1e11 takes the closed form, where expm1(z) ~ z
        lies below an absolute 1e-12 but not below 1e-12 |z|."""
        got = exp_power_sum(-1e-13, 10**11)
        assert got == pytest.approx(-math.expm1(-1e-2) / 1e-13, rel=1e-9)
