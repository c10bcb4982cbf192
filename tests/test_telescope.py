"""Telescoping-route tests.

Sigma_{k=1}^{N} g(k) = Sigma_{k>=1} (g(k) - g(N+k)) whenever g decays; the
engine must land within tol of the direct sum, certify the decay cases, and
flag the cases where the collapse argument does not apply.
"""

import cmath
import math

import pytest

from finsum import telescope
from finsum.errors import DomainError, PreconditionError
from finsum.special import hurwitz_zeta, riemann_zeta
from finsum.telescope import telescoping_sum, zeta_power_sum

SUMMANDS = {
    "exp": lambda x: cmath.exp(-x),
    "harmonic": lambda x: 1.0 / x,
    "inv-square": lambda x: 1.0 / (x * x),
    "lorentz": lambda x: 1.0 / (x * x + 1.0),
}


def _direct(g, n):
    return complex(math.fsum(complex(g(float(k))).real for k in range(1, n + 1)),
                   math.fsum(complex(g(float(k))).imag for k in range(1, n + 1)))


class TestDecayingSummands:
    @pytest.mark.parametrize("name", sorted(SUMMANDS))
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 100])
    def test_matches_direct_sum(self, name, n):
        g = SUMMANDS[name]
        got = telescoping_sum(g, n, tol=1e-11)
        want = _direct(g, n)
        assert abs(got.value - want) <= 1e-9 * max(1.0, abs(want)), (name, n)

    def test_certifies_convergence(self):
        got = telescoping_sum(lambda x: 1.0 / (x * x), 10, tol=1e-11)
        assert got.diagnostics.converged
        assert not got.flags

    def test_error_estimate_is_honest(self):
        for name, g in sorted(SUMMANDS.items()):
            got = telescoping_sum(g, 7, tol=1e-11)
            want = _direct(g, 7)
            assert abs(got.value - want) <= max(got.error_estimate, 1e-12), name

    def test_harmonic_numbers_despite_divergent_pieces(self):
        """Sigma 1/k and Sigma 1/(N+k) both diverge; their difference
        telescopes to H_N all the same."""
        got = telescoping_sum(lambda x: 1.0 / x, 5, tol=1e-12)
        assert got.value.real == pytest.approx(137.0 / 60.0, abs=1e-10)

    def test_fast_decay_collapses_early(self):
        got = telescoping_sum(lambda x: cmath.exp(-3.0 * x), 4, tol=1e-12)
        want = _direct(lambda x: cmath.exp(-3.0 * x), 4)
        assert abs(got.value - want) <= 1e-12
        assert got.diagnostics.nodes <= 64


class TestNonCollapsingSummands:
    def test_constant_is_flagged(self):
        """d(k) == 0 identically while the sum is N*c: no certification."""
        got = telescoping_sum(lambda x: 3.0, 10, tol=1e-10)
        assert not got.diagnostics.converged
        assert "non-converged" in got.flags
        assert got.error_estimate == math.inf
        assert "does not decay" in got.diagnostics.notes["reason"]

    def test_oscillation_is_not_certified(self):
        """sin(1.1*k) does not decay, so the differences never die; the
        engine may extrapolate but must not claim tol-level convergence."""
        got = telescoping_sum(lambda x: cmath.sin(1.1 * x), 20, tol=1e-10,
                              max_terms=1 << 12)
        assert not got.diagnostics.converged
        assert got.error_estimate > 1e-10

    def test_slow_decay_reports_its_tail_bound(self):
        """With the budget capped the engine must report a bound that covers
        the actual miss rather than claiming success."""
        got = telescoping_sum(lambda x: 1.0 / x, 50, tol=1e-13,
                              max_terms=256)
        want = _direct(lambda x: 1.0 / x, 50)
        if not got.diagnostics.converged:
            assert abs(got.value - want) <= max(got.error_estimate, 1e-12)

    def test_domain(self):
        with pytest.raises(PreconditionError):
            telescoping_sum(lambda x: 1.0 / x, 0)
        with pytest.raises(PreconditionError):
            telescoping_sum(lambda x: 1.0 / x, 5, max_terms=0)


def test_scalar_only_summand_spends_no_tail_quadrature(monkeypatch):
    """Without jets every Euler-Maclaurin tail is refused after the one call
    that fails to differentiate, before any tail integral is evaluated."""
    calls = [0]

    def g(x):
        calls[0] += 1
        return 1.0 / (complex(x) ** 2 + 2.0)      # rejects jets

    per_tail = []
    em_tail = telescope.em_tail

    def counted_em_tail(*args, **kwargs):
        before = calls[0]
        try:
            return em_tail(*args, **kwargs)
        finally:
            per_tail.append(calls[0] - before)

    monkeypatch.setattr(telescope, "em_tail", counted_em_tail)
    res = telescoping_sum(g, 50, max_terms=1 << 10)
    assert res.diagnostics.notes["strategy"] == "extrapolation"
    assert per_tail and set(per_tail) == {1}


class TestZetaShortcut:
    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_matches_direct_power_sum(self, s, n):
        got = zeta_power_sum(s, n)
        want = math.fsum(float(k) ** (-s) for k in range(1, n + 1))
        assert abs(got.value - want) <= 1e-11 * max(1.0, abs(want)), (s, n)

    def test_single_term(self):
        assert zeta_power_sum(2.5, 1).value == pytest.approx(1.0, abs=1e-12)

    def test_consistency_with_component_functions(self):
        s, n = 2.0, 7
        via_parts = riemann_zeta(s) - hurwitz_zeta(s, float(n)) + n ** (-s)
        assert zeta_power_sum(s, n).value.real == pytest.approx(via_parts,
                                                                rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta_power_sum(1.0, 5)
        with pytest.raises(DomainError):
            zeta_power_sum(0.5, 5)
        with pytest.raises(PreconditionError):
            zeta_power_sum(2.0, 0)
