"""Bernoulli numbers and zeta-family tests.

Zeta values are checked against classical constants and against a direct
partial sum bracketed by integral tail bounds, which is independent of the
asymptotic machinery used inside the implementation.
"""

import math
import time
from fractions import Fraction

import pytest

from finsum.errors import CapabilityError, DomainError
from finsum.special import (bernoulli, bernoulli_table, hurwitz_zeta,
                            riemann_zeta)

# B_0 .. B_12 as printed in any classical table
_BERNOULLI_KNOWN = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


class TestBernoulli:
    def test_table_values(self):
        for idx, want in _BERNOULLI_KNOWN.items():
            assert bernoulli(idx) == want

    def test_odd_indices_vanish(self):
        for idx in range(3, 31, 2):
            assert bernoulli(idx) == 0

    def test_defining_recurrence_exact_to_30(self):
        """sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1, in exact rationals."""
        for n in range(1, 31):
            total = sum(Fraction(math.comb(n + 1, j)) * bernoulli(j)
                        for j in range(n + 1))
            assert total == 0

    def test_table_helper(self):
        table = bernoulli_table(12)
        assert len(table) == 13
        assert table[12] == Fraction(-691, 2730)

    def test_rejects_bad_index(self):
        with pytest.raises(DomainError):
            bernoulli(-1)
        with pytest.raises(DomainError):
            bernoulli(2.0)
        with pytest.raises(CapabilityError):
            bernoulli(200)


class TestRiemannZeta:
    def test_even_integer_values(self):
        assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-13)
        assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-13)
        assert riemann_zeta(6.0) == pytest.approx(math.pi**6 / 945, rel=1e-13)

    def test_large_s_approaches_one(self):
        assert riemann_zeta(40.0) == pytest.approx(1.0 + 2.0**-40, rel=1e-13)

    def test_against_bracketed_partial_sum(self):
        """zeta(s) lies between partial + integral tail bounds."""
        for s in (1.5, 2.5, 3.5):
            m = 2000
            partial = math.fsum(k**-s for k in range(1, m + 1))
            lo = partial + m**(1 - s) / (s - 1) * (1 + 1 / m) ** (1 - s)
            hi = partial + m**(1 - s) / (s - 1)
            assert lo <= riemann_zeta(s) <= hi

    def test_domain(self):
        with pytest.raises(DomainError):
            riemann_zeta(1.0)
        with pytest.raises(DomainError):
            riemann_zeta(0.5)


class TestHurwitzZeta:
    def test_reduces_to_riemann_at_a_equals_one(self):
        for s in (1.5, 2.0, 3.0, 7.5):
            assert hurwitz_zeta(s, 1.0) == pytest.approx(riemann_zeta(s), rel=1e-13)

    def test_half_offset_closed_form(self):
        """zeta(s, 1/2) = (2^s - 1) zeta(s)."""
        for s in (2.0, 3.0, 4.0):
            want = (2.0**s - 1.0) * riemann_zeta(s)
            assert hurwitz_zeta(s, 0.5) == pytest.approx(want, rel=1e-12)

    def test_shift_recurrence(self):
        """zeta(s, a) = zeta(s, a+1) + a^{-s} across a sweep of (s, a)."""
        for s in (1.5, 2.0, 3.0, 5.5):
            for a in (0.25, 0.5, 1.0, 2.5, 10.0, 101.0):
                lhs = hurwitz_zeta(s, a)
                rhs = hurwitz_zeta(s, a + 1.0) + a**-s
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_against_bracketed_partial_sum(self):
        for s, a in ((2.0, 0.7), (3.5, 1.3), (1.8, 4.0)):
            m = 3000
            partial = math.fsum((a + k) ** -s for k in range(m))
            lo = partial + (a + m) ** (1 - s) / (s - 1)
            hi = partial + (a + m - 1) ** (1 - s) / (s - 1)
            assert lo <= hurwitz_zeta(s, a) <= hi

    @pytest.mark.parametrize("s", [64.5, 65.0, 100.0, 300.0, 1e4])
    @pytest.mark.parametrize("a", [0.95, 1.0, 1.5, 3.3, 30.0, 100.0])
    def test_steep_power_against_direct_sum(self, s, a):
        """Past s = 64 the head ends where its own terms have decayed; the
        terms fall so fast that 2,000 of them are the whole sum."""
        want = math.fsum((j + a) ** -s for j in range(2000))
        assert hurwitz_zeta(s, a) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("entry, s", [("riemann_zeta", 1e10), ("cli", 1e10),
                                          ("cli", 4e7)])
    def test_steep_power_is_one_within_10_ms(self, entry, s):
        """The head used to be about 0.25*s terms however fast they fell: at
        s = 4e7, 1e7 of them and 2 s; at s = 1e10 it would ask for 2.5e9
        floats, about 20 GB."""
        from finsum import cli
        started = time.perf_counter()
        if entry == "cli":
            record = cli.run(f"1/k^{s:g}", 5, method="closed-form")["results"][1]
            value = record["value"]["re"]
            assert record["flags"] == []
        else:
            value = riemann_zeta(s)
        assert time.perf_counter() - started < 0.010
        assert value == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0, 2.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 0.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, -1.5)
