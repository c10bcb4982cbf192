"""Tests for the stable scalar primitives, and for jets.expm1 on complex
scalars and complex arrays."""

import cmath
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from finsum.jets import expm1
from finsum.stable import (TWO_PI, cexp, power_sums, reduce_angle,
                           scaled_angle, two_prod)


class TestCexp:
    def test_agrees_with_cmath(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = complex(rng.uniform(-30, 5), rng.uniform(-50, 50))
            assert cexp(z) == pytest.approx(cmath.exp(z), rel=1e-14)

    def test_deep_negative_real_part_underflows_cleanly(self):
        assert cexp(-1000 + 3j) == 0j
        assert cexp(complex(-800.0, 1e6)) == 0j


class TestCexpm1:
    """jets.expm1 on complex input: each case as a Python complex and inside
    a complex128 array."""

    @staticmethod
    def _both(z):
        return expm1(complex(z)), complex(expm1(np.array([z], dtype=np.complex128))[0])

    def test_small_arguments_keep_relative_accuracy(self):
        """Near z = 0 the naive exp(z)-1 loses all digits; expm1 must not."""
        for mag in (1e-5, 1e-8, 1e-12):
            for phase in np.linspace(0, TWO_PI, 13, endpoint=False):
                z = mag * cmath.exp(1j * phase)
                series = z + z * z / 2 + z**3 / 6 + z**4 / 24
                for got in self._both(z):
                    assert got == pytest.approx(series, rel=1e-13)

    def test_matches_cmath_away_from_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = complex(rng.uniform(-5, 5), rng.uniform(-10, 10))
            for got in self._both(z):
                assert got == pytest.approx(cmath.exp(z) - 1, rel=1e-12, abs=1e-13)

    def test_underflow_limit(self):
        for got in self._both(-1000.0):
            assert got == complex(-1.0, 0.0)


class TestPowerSums:
    def test_matches_direct_loops(self):
        for n in (1, 2, 7, 100, 10_000):
            want = [float(sum(k**j for k in range(1, n + 1))) for j in range(5)]
            got = power_sums(n)
            np.testing.assert_allclose(got, want, rtol=1e-14)


class TestAngleReduction:
    def test_reduce_angle_identity(self):
        rng = np.random.default_rng(11)
        for alpha in rng.uniform(-300, 300, size=500):
            d, m = reduce_angle(float(alpha))
            assert abs(d) <= math.pi + 1e-9
            assert d + TWO_PI * m == pytest.approx(alpha, abs=1e-12)

    def test_two_prod_is_exact(self):
        """p + e must equal a*b in exact arithmetic, bit for bit."""
        rng = np.random.default_rng(13)
        for _ in range(500):
            a = float(rng.uniform(-1000, 1000))
            b = float(rng.uniform(-1000, 1000))
            p, e = two_prod(a, b)
            assert Decimal(p) + Decimal(e) == Decimal(a) * Decimal(b)

    def test_scaled_angle_against_decimal_reference(self):
        """theta*scale mod 2*pi, checked against 60-digit arithmetic."""
        getcontext().prec = 60
        pi_ref = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
        tau = 2 * pi_ref
        worst = 0.0
        for i in range(1, 63):
            theta = i / 10
            for scale in (0.5, 1.5, 10.5, 50.5, 500.5):
                product = Decimal(theta) * Decimal(scale)
                q = int((product / tau).to_integral_value(rounding="ROUND_HALF_EVEN"))
                want = float(product - q * tau)
                worst = max(worst, abs(scaled_angle(theta, scale) - want))
        assert worst <= 5e-16

    def test_scaled_angle_beats_naive_product(self):
        """The double-double path must not inherit the product's ulp error."""
        theta, scale = 6.2, 50.5
        getcontext().prec = 60
        pi_ref = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
        product = Decimal(theta) * Decimal(scale)
        q = int((product / (2 * pi_ref)).to_integral_value(rounding="ROUND_HALF_EVEN"))
        want = float(product - q * 2 * pi_ref)
        naive = math.remainder(theta * scale, TWO_PI)
        assert abs(scaled_angle(theta, scale) - want) < abs(naive - want)
