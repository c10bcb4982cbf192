"""Telescoping-route tests.

Sigma_{k=1}^{N} g(k) = Sigma_{k>=1} (g(k) - g(N+k)) whenever g decays; the
engine must land within tol of the direct sum, certify the decay cases, and
flag the cases where the collapse argument does not apply.
"""

import cmath
import math

import numpy as np
import pytest

from finsum import cli, telescope
from finsum import expr as ex
from finsum.errors import DomainError, EvaluationError, PreconditionError
from finsum.series import SeriesSpec, effective_term
from finsum.special import hurwitz_zeta, riemann_zeta
from finsum.telescope import telescoping_sum, zeta_power_sum

_EPS = 2.220446049250313e-16

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


def _scalar_only(g):
    """g behind a wrapper that rejects arrays but still takes jets."""
    def h(x):
        if isinstance(x, np.ndarray):
            raise TypeError("scalar closure")
        return g(x)
    return h


def _effective(text, n, variant="standard"):
    beta = 0.0 if variant == "standard" else 0.6
    alpha = 1.0 if variant == "standard" else 1.3
    spec = SeriesSpec(ex.as_function(ex.parse_expression(text)), n, alpha, variant, beta)
    return effective_term(spec)


def _assert_same_decisions(arr, sca, h, n):
    """Same nodes, flags and strategy; values within the estimate or the
    rounding of the prefix sum, 4 eps sum |d_k|."""
    assert arr.diagnostics.nodes == sca.diagnostics.nodes
    assert arr.diagnostics.truncation_index == sca.diagnostics.truncation_index
    assert arr.flags == sca.flags
    assert arr.diagnostics.notes.get("strategy") == sca.diagnostics.notes.get("strategy")
    ks = np.arange(1, arr.diagnostics.nodes + 1, dtype=float)
    rounding = 4 * _EPS * float(np.sum(np.abs(h(ks) - h(ks + n))))
    assert abs(arr.value - sca.value) <= max(arr.error_estimate, rounding)


class TestArrayBlocks:
    """Array-capable summands are evaluated one doubling block per call and
    must make exactly the decisions the per-element path makes."""

    @pytest.mark.parametrize("text,n,variant", [
        *[(t, n, "standard") for t, n in cli._BENCH_SUITE],
        ("1/(k^2+1)", 10, "shifted"),
        ("1/(k^2+1)", 10, "exp-factor"),
    ])
    def test_matches_the_scalar_path(self, text, n, variant):
        h = _effective(text, n, variant)
        arr = telescoping_sum(h, n, max_terms=1 << 12)
        sca = telescoping_sum(_scalar_only(h), n, max_terms=1 << 12)
        _assert_same_decisions(arr, sca, h, n)

    @pytest.mark.parametrize("text,n", [
        ("1.2*sin(0.83*k)", 37), ("k*cos(1.7*k)", 64), ("0.9*k^2", 21),
        ("1.4*cos(2.3*k)", 90), ("1.6005*log(k)", 50), ("0.7*sqrt(k)", 12),
    ])
    def test_non_decaying_families_match_a_scalar_closure(self, text, n):
        """The wrapper takes neither arrays nor jets, as a user's closure
        might; these summands never reach an Euler-Maclaurin tail anyway."""
        h = _effective(text, n)
        arr = telescoping_sum(h, n, max_terms=1 << 12)
        sca = telescoping_sum(lambda x: complex(h(float(x))), n, max_terms=1 << 12)
        _assert_same_decisions(arr, sca, h, n)
        assert arr.diagnostics.notes["strategy"] == "extrapolation"

    @pytest.mark.parametrize("text", ["sin(1.1*k)", "1.3*k^2"])
    def test_calls_per_checkpoint_not_per_term(self, text):
        """At the 2^17 term cap, g is called for the probe and then twice per
        block and twice per window: O(checkpoints), not O(terms)."""
        g = _effective(text, 50)
        calls = [0]

        def counted(x):
            calls[0] += 1
            return g(x)

        res = telescoping_sum(counted, 50, max_terms=1 << 17)
        assert res.diagnostics.nodes == 1 << 17
        checkpoints = 17 - 3 + 1          # depths 8, 16, ..., 2^17
        assert calls[0] <= 2 + 4 * checkpoints


class TestUndefinedDifferences:
    """A difference that fails or comes out non-finite is an EvaluationError
    naming its index, on the array path and on the scalar path alike."""

    @pytest.mark.parametrize("text,k", [("1/(k-12)", 2), ("1/(k^2-144)", 2),
                                        ("log(k-11)", 1)])
    def test_cli_record_is_an_error_entry(self, text, k):
        report = cli.run(text, 10)
        records = {r["method"]: r for r in report["results"]}
        assert records["telescope"]["flags"] == ["error"]
        assert f"k={k}" in records["telescope"]["error"]
        for name, rec in records.items():
            if name in ("oracle", "telescope"):
                continue
            alone = cli.run(text, 10, method=name)["results"][1]
            for r in (rec, alone):
                r.get("diagnostics", {}).pop("runtime_ns", None)
            assert rec == alone, name

    @pytest.mark.parametrize("g,k", [
        pytest.param(lambda x: 1.0 / (x - 12.0), 2, id="array-inf"),
        pytest.param(lambda x: 1.0 / (complex(x) - 12.0), 2, id="scalar-zero-division"),
        pytest.param(lambda x: cmath.log(complex(x) - 11.0), 1, id="scalar-log-of-zero"),
        pytest.param(lambda x: math.nan if x > 30 else 1.0 / x**2, 21, id="scalar-nan"),
    ])
    def test_direct_call(self, g, k):
        with pytest.raises(EvaluationError) as info:
            telescoping_sum(g, 10)
        assert info.value.at == f"k={k}"
