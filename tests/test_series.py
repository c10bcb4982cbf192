"""Series specification and direct-oracle tests.

The oracle itself is validated here against raw fsum loops written out
longhand, one per variant, so everything downstream can lean on it.
"""

import cmath
import math
import warnings

import numpy as np
import pytest

from finsum.errors import CapabilityError, EvaluationError, PreconditionError
from finsum.expr import as_function, parse_expression
from finsum.series import (SeriesSpec, Variant, antidifference_sum, direct_sum,
                           effective_term, term_argument, term_weight)


def _loop(terms):
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


class TestSpecValidation:
    def test_accepts_minimal(self):
        spec = SeriesSpec(g=lambda k: 1.0 / k, n_terms=3)
        assert spec.alpha == 1 + 0j
        assert spec.variant is Variant.STANDARD

    def test_rejects_bad_n(self):
        for n in (0, -2, 2.0, "3"):
            with pytest.raises(PreconditionError):
                SeriesSpec(g=abs, n_terms=n)

    def test_rejects_nonpositive_alpha_real_part(self):
        with pytest.raises(PreconditionError):
            SeriesSpec(g=abs, n_terms=2, alpha=-1.0)
        with pytest.raises(PreconditionError):
            SeriesSpec(g=abs, n_terms=2, alpha=1j)

    def test_alternating_needs_even_n(self):
        with pytest.raises(PreconditionError):
            SeriesSpec(g=abs, n_terms=5, variant=Variant.ALTERNATING)
        SeriesSpec(g=abs, n_terms=6, variant=Variant.ALTERNATING)
        with pytest.raises(PreconditionError):
            SeriesSpec(g=abs, n_terms=3, variant=Variant.SHIFTED_ALTERNATING,
                       beta=0.1)

    def test_exp_factor_needs_decaying_beta(self):
        with pytest.raises(PreconditionError):
            SeriesSpec(g=abs, n_terms=4, variant=Variant.EXP_FACTOR, beta=-0.5)
        SeriesSpec(g=abs, n_terms=4, variant=Variant.EXP_FACTOR, beta=0.5)


class TestDirectSum:
    def test_standard_matches_loop(self):
        g = lambda k: 1.0 / (k * k + 1.0)
        spec = SeriesSpec(g=g, n_terms=50)
        want = _loop([complex(g(k)) for k in range(1, 51)])
        assert direct_sum(spec).value == pytest.approx(want, rel=1e-15)

    def test_known_value_harmonic(self):
        spec = SeriesSpec(g=lambda k: 1.0 / k, n_terms=5)
        assert direct_sum(spec).value == pytest.approx(137.0 / 60.0, rel=1e-15)

    def test_scale_enters_argument(self):
        """g(alpha k): Sigma exp(-0.5k) equals the 2x-lattice of exp(-0.25 k)."""
        a = SeriesSpec(g=lambda k: np.exp(-0.25 * k), n_terms=9, alpha=2.0)
        b = SeriesSpec(g=lambda k: np.exp(-0.5 * k), n_terms=9)
        assert direct_sum(a).value == pytest.approx(direct_sum(b).value, rel=1e-14)

    def test_alternating_matches_loop(self):
        g = lambda k: 1.0 / k
        spec = SeriesSpec(g=g, n_terms=10, variant=Variant.ALTERNATING)
        want = _loop([complex((-1.0) ** (k + 1) / k) for k in range(1, 11)])
        assert direct_sum(spec).value == pytest.approx(want, rel=1e-15)

    def test_shifted_matches_loop(self):
        g = lambda k: np.exp(-0.3 * k)
        spec = SeriesSpec(g=g, n_terms=7, variant=Variant.SHIFTED, beta=0.45)
        want = _loop([cmath.exp(-0.3 * (k + 0.45)) for k in range(1, 8)])
        assert direct_sum(spec).value == pytest.approx(want, rel=1e-14)

    def test_exp_factor_matches_loop(self):
        g = lambda k: 1.0 / k
        spec = SeriesSpec(g=g, n_terms=12, variant=Variant.EXP_FACTOR, beta=0.2)
        want = _loop([cmath.exp(-0.2 * k) / k for k in range(1, 13)])
        assert direct_sum(spec).value == pytest.approx(want, rel=1e-14)

    def test_exp_factor_alternating_matches_loop(self):
        g = lambda k: 1.0 / (k + 1.0)
        spec = SeriesSpec(g=g, n_terms=8,
                          variant=Variant.EXP_FACTOR_ALTERNATING, beta=0.15)
        want = _loop([(-1.0) ** (k + 1) * cmath.exp(-0.15 * k) / (k + 1.0)
                      for k in range(1, 9)])
        assert direct_sum(spec).value == pytest.approx(want, rel=1e-14)

    def test_compensation_beats_naive_on_rough_series(self):
        """Neumaier reduction of 1e8-spread terms keeps full precision."""
        vals = [1e8, 1.0, -1e8, 1e-8] * 64
        spec = SeriesSpec(g=lambda k: vals[int(k.real) - 1], n_terms=len(vals))
        want = _loop([complex(v) for v in vals])
        assert direct_sum(spec).value == pytest.approx(want, abs=1e-12)

    def test_non_finite_term_is_reported_with_index(self):
        spec = SeriesSpec(g=lambda k: 1.0 / (complex(k).real - 3.0), n_terms=6)
        with pytest.raises(EvaluationError, match="k=3"):
            direct_sum(spec)

    @pytest.mark.parametrize("text, n, k", [("1/(k-5)", 10, 5), ("log(k-3)", 10, 3),
                                            ("exp(k^2)", 30, 27)])
    def test_non_finite_grid_term_raises_without_numpy_warnings(self, text, n, k):
        """The vectorized grid reports the first non-finite term as a typed
        error and leaves nothing on stderr: no numpy RuntimeWarning escapes
        first, even with warnings turned into errors."""
        spec = SeriesSpec(g=as_function(parse_expression(text)), n_terms=n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError) as info:
                direct_sum(spec)
        assert info.value.at == f"k={k}"

    def test_runtime_and_nodes_recorded(self):
        res = direct_sum(SeriesSpec(g=lambda k: 1.0 / k, n_terms=25))
        assert res.diagnostics.nodes == 25
        assert res.diagnostics.runtime_ns > 0


class TestTermHelpers:
    def test_term_argument_shifted(self):
        spec = SeriesSpec(g=abs, n_terms=4, alpha=2.0, variant=Variant.SHIFTED,
                          beta=0.5)
        assert term_argument(spec, 3) == pytest.approx(6.5)

    def test_term_weight_alternating_signs(self):
        spec = SeriesSpec(g=abs, n_terms=4, variant=Variant.ALTERNATING)
        assert [term_weight(spec, k) for k in (1, 2, 3, 4)] == [1, -1, 1, -1]

    def test_effective_term_rejects_alternating(self):
        spec = SeriesSpec(g=abs, n_terms=4, variant=Variant.ALTERNATING)
        with pytest.raises(CapabilityError):
            effective_term(spec)

    def test_effective_term_reproduces_lattice_values(self):
        spec = SeriesSpec(g=lambda x: 1.0 / (x + 1.0), n_terms=5, alpha=1.5,
                          variant=Variant.EXP_FACTOR, beta=0.3)
        h = effective_term(spec)
        for k in (1, 2, 5):
            want = cmath.exp(-0.3 * k) / (1.5 * k + 1.0)
            assert complex(h(float(k))) == pytest.approx(want, rel=1e-14)


class TestAntidifference:
    def test_telescopes_exactly(self):
        """u(k) = -1/k has u(k+1) - u(k) = 1/(k(k+1)); the sum collapses."""
        res = antidifference_sum(lambda k: -1.0 / k, 100)
        want = 1.0 - 1.0 / 101.0
        assert res.value == pytest.approx(want, rel=1e-15)

    def test_geometric_antidifference(self):
        r = 0.8
        u = lambda k: r**k / (r - 1.0)
        res = antidifference_sum(u, 30)
        want = math.fsum(r**k for k in range(1, 31))
        assert res.value == pytest.approx(want, rel=1e-13)
