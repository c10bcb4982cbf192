"""Telescoping-route tests.

Sigma_{k=1}^{N} g(k) = Sigma_{k<=M} (g(k) - g(N+k)) + Sigma_{k=M+1}^{M+N} g(k)
at every depth M; the engine must land within tol of the direct sum, certify
the cases whose window tail converges, and flag the g that oscillate or grow.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from finsum import cli, jets, quadrature, telescope
from finsum import expr as ex
from finsum.errors import DomainError, EvaluationError, PreconditionError
from finsum.series import SeriesSpec, effective_term
from finsum.special import bernoulli, hurwitz_zeta, riemann_zeta
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
    def test_constant_sums_to_n_times_c(self):
        """d(k) == 0 identically while the sum is N*c: the differences have
        not died out, and the tail window holds the N*c."""
        got = telescoping_sum(lambda x: 3.0, 10, tol=1e-10)
        assert got.diagnostics.converged and not got.flags
        assert abs(got.value - 30.0) <= got.error_estimate < 1e-10

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


def test_closure_failing_the_gregory_guard_spends_no_tail_quadrature(monkeypatch):
    """Without jets the tail goes to Gregory's formula, which refuses
    differences that do not shrink like derivatives before it integrates:
    one g call per Euler-Maclaurin attempt (the jet that fails), none per
    Gregory attempt, and the partials are extrapolated instead until the
    differences die out."""
    calls = [0]

    def g(x):
        calls[0] += 1
        z = complex(x)                                # rejects jets and arrays
        return cmath.exp(-0.3 * z) * cmath.cos(3.0 * z)

    per_tail = {"em_tail": [], "gregory_tail": []}
    for name in per_tail:
        def counted(*args, _tail=getattr(telescope, name), _seen=per_tail[name], **kwargs):
            before = calls[0]
            try:
                return _tail(*args, **kwargs)
            finally:
                _seen.append(calls[0] - before)
        monkeypatch.setattr(telescope, name, counted)
    res = telescoping_sum(g, 50, max_terms=1 << 10)
    assert res.diagnostics.notes["strategy"] == "died-out"
    assert per_tail["em_tail"] and set(per_tail["em_tail"]) == {1}
    assert per_tail["gregory_tail"] and set(per_tail["gregory_tail"]) == {0}


class TestJetRefusal:
    """A g that rejects jets with TypeError or AttributeError rejects them
    at every checkpoint, so em_tail is asked once per run and Gregory's
    formula serves the rest; a ZeroDivisionError depends on the point and
    sends the next checkpoint back to em_tail."""

    @staticmethod
    def _counted(monkeypatch):
        seen = {"em_tail": 0, "gregory_tail": 0}
        for name in seen:
            def counted(*args, _tail=getattr(telescope, name), _name=name, **kwargs):
                seen[_name] += 1
                return _tail(*args, **kwargs)
            monkeypatch.setattr(telescope, name, counted)
        return seen

    @pytest.mark.parametrize("error", [TypeError, AttributeError])
    def test_rejected_jets_are_asked_for_once(self, error, monkeypatch):
        def g(x):
            if isinstance(x, jets.Jet):
                raise error("no jets")
            return 0.651 / (complex(x) * complex(x) + 0.3516)

        seen = self._counted(monkeypatch)
        res = telescoping_sum(g, 12, tol=1e-10)
        assert res.diagnostics.notes["strategy"] == "gregory"
        assert seen["em_tail"] == 1 and seen["gregory_tail"] >= 2

    def test_zero_division_is_tried_again(self, monkeypatch):
        def g(x):
            if isinstance(x, jets.Jet):
                raise ZeroDivisionError("jet at a pole")
            return 0.651 / (complex(x) * complex(x) + 0.3516)

        seen = self._counted(monkeypatch)
        res = telescoping_sum(g, 12, tol=1e-10)
        assert res.diagnostics.notes["strategy"] == "gregory"
        assert seen["gregory_tail"] >= 2 and seen["em_tail"] == seen["gregory_tail"]


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
        ("1.4*cos(2.3*k)", 90),
    ])
    def test_non_decaying_families_match_a_scalar_closure(self, text, n):
        """The wrapper takes neither arrays nor jets, as a user's closure
        might; both paths refuse these summands at 1,024 terms."""
        h = _effective(text, n)
        arr = telescoping_sum(h, n, max_terms=1 << 12)
        sca = telescoping_sum(lambda x: complex(h(float(x))), n, max_terms=1 << 12)
        _assert_same_decisions(arr, sca, h, n)
        assert arr.diagnostics.nodes == 1024
        assert arr.diagnostics.notes["reason"] == "g does not decay"

    @pytest.mark.parametrize("text,n", [("1.6005*log(k)", 50), ("0.7*sqrt(k)", 12)])
    def test_growing_smooth_g_is_covered_on_either_path(self, text, n):
        """log and sqrt grow, but each tail window is smooth: the array path
        certifies them by Euler-Maclaurin.  A closure that rejects arrays
        and jets certifies them by Gregory or refuses them, never uncovered."""
        mp = pytest.importorskip("mpmath")
        h = _effective(text, n)
        c = float(text.split("*")[0])
        fn = mp.log if "log" in text else mp.sqrt
        want = _mp_sum(mp, lambda k: mp.mpf(c) * fn(k), n)
        arr = telescoping_sum(h, n, max_terms=1 << 12)
        assert arr.diagnostics.converged
        assert arr.diagnostics.notes["strategy"] == "euler-maclaurin"
        assert abs(arr.value - want) <= arr.error_estimate < 1e-10
        sca = telescoping_sum(lambda x: complex(h(float(x))), n, max_terms=1 << 12)
        if sca.diagnostics.converged:
            assert abs(sca.value - want) <= sca.error_estimate < 1e-10
        else:
            assert sca.diagnostics.notes["reason"] == "g does not decay"

    @pytest.mark.parametrize("text,n", [
        ("1.2*sin(0.83*k)/k^0.05", 37), ("cos(1.7*k)/k^0.1", 64),
        ("1.4*cos(2.3*k)/k^0.05", 90), ("0.7*cos(k)/k^0.05", 12),
    ])
    def test_slowly_decaying_oscillations_match_a_scalar_closure(self, text, n):
        """|g| decays, too slowly to converge in 4,096 terms, while the
        differences stay at full strength: these never reach an
        Euler-Maclaurin tail, on either path."""
        h = _effective(text, n)
        arr = telescoping_sum(h, n, max_terms=1 << 12)
        sca = telescoping_sum(lambda x: complex(h(float(x))), n, max_terms=1 << 12)
        _assert_same_decisions(arr, sca, h, n)
        assert arr.diagnostics.nodes == 1 << 12
        assert arr.diagnostics.notes["strategy"] == "extrapolation"

    @pytest.mark.parametrize("text", ["sin(1.1*k)/k^0.05", "1.3*cos(2.2*k)/k^0.1"])
    def test_calls_per_checkpoint_not_per_term(self, text):
        """At the 2^17 term cap, g is called for the probe and then once per
        checkpoint, for its block and window together: O(checkpoints), not
        O(terms)."""
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


def _slow(x):
    """sin(1.1x)/x^0.05: it decays, too slowly for 2^17 terms to converge."""
    return np.sin(1.1 * x) * x ** -0.05


def _fails_at_3000(x):
    """_slow as a scalar closure that raises at x = 3000 only."""
    if x == 3000.0:
        raise ValueError("undefined at 3000")
    return cmath.sin(1.1 * complex(x)) * complex(x) ** -0.05


class TestCarriedValues:
    """g is evaluated once per lattice point: g(k+N) of one block is g(k) of
    a later one and is carried there instead of being evaluated again."""

    _CHECKPOINTS = 17 - 3 + 1          # depths 8, 16, ..., 2^17

    def test_array_path_points(self):
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return _slow(x)

        res = telescoping_sum(counted, 50, max_terms=1 << 17)
        assert res.diagnostics.nodes == 1 << 17
        assert sum(sizes) <= (1 << 17) + 50 + 4 * self._CHECKPOINTS + 2

    def test_scalar_path_points(self):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return cmath.sin(1.1 * complex(x)) * complex(x) ** -0.05  # rejects arrays

        res = telescoping_sum(counted, 50, max_terms=1 << 17)
        assert res.diagnostics.nodes == 1 << 17
        assert calls[0] <= (1 << 17) + 50 + 4 * self._CHECKPOINTS + 2

    def test_flat_g_is_summed_in_the_window(self):
        """The died-out check reads g(N + depth) from the carried values: a
        flat g whose differences vanish is not taken for died out, and the
        first checkpoint's window holds N*c."""
        def flat(x):
            return 3.0 + 0.0 * x

        res = telescoping_sum(flat, 10)
        assert res.diagnostics.converged and res.diagnostics.nodes == 16
        assert res.diagnostics.notes["strategy"] == "euler-maclaurin"
        assert abs(res.value - 30.0) <= res.error_estimate < 1e-10

    def test_scalar_failure_names_the_first_k(self):
        """g(3000) is first needed as g(k+N) at k = 2990."""
        with pytest.raises(EvaluationError) as info:
            telescoping_sum(_fails_at_3000, 10)
        assert info.value.at == "k=2990"

    def test_array_nan_names_the_same_k(self):
        def g(x):
            return np.where(x == 3000.0, np.nan, _slow(x))

        with pytest.raises(EvaluationError) as info:
            telescoping_sum(g, 10)
        assert info.value.at == "k=2990"

    @pytest.mark.parametrize("nan_at,raise_at,k,why", [
        (5.0, 18.0, 5, "not finite"),        # the raise is in the window past depth 16
        (5.0, 7.0, 7, "failed to evaluate"),  # both among the checkpoint's own
    ])
    def test_scalar_nan_and_raise_in_one_range(self, nan_at, raise_at, k, why):
        """A scalar g returning NaN at one point and raising at a later one:
        the error names the k that separate calls for the checkpoint's own
        differences and for its window would."""
        def g(x):
            if x == raise_at:
                raise ValueError("undefined")
            return math.nan if x == nan_at else math.sin(1.1 * x)

        with pytest.raises(EvaluationError) as info:
            telescoping_sum(g, 100)
        assert info.value.at == f"k={k}"
        assert why in str(info.value)

    @pytest.mark.parametrize("g", [lambda x: np.exp(-x * x), lambda x: x ** -2.0],
                             ids=["gaussian", "inv-square"])
    def test_huge_n_allocates_with_depth(self, g):
        """Memory follows min(N, depth): at N = 1e9 the run stops after a few
        short blocks and never holds anything of size N."""
        tracemalloc.start()
        try:
            res = telescoping_sum(g, 10 ** 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.diagnostics.converged
        assert res.diagnostics.truncation_index <= 64
        assert peak < 1 << 20


class TestRoundoffFloor:
    """The estimate is floored at the rounding of what was evaluated:
    eps (sum |g(k)| over k <= N, + sum |d(k)|, + the last N |g(k+N)|); the
    tail bound in the notes stays as it was."""

    @pytest.mark.parametrize("c,a,n", [(1.0, 1.0, 8), (1.0125, 1.2872, 11),
                                       (1.5203, 1.4457, 29), (0.8746, 1.1164, 55)])
    def test_gaussian_is_covered(self, c, a, n):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            ref = mp.fsum(mp.mpf(c) * mp.exp(-mp.mpf(a) * k * k) for k in range(1, n + 1))
            ref = complex(ref)
        got = telescoping_sum(lambda x: c * np.exp(-a * x * x), n)
        assert got.diagnostics.converged
        assert got.diagnostics.notes["strategy"] == "died-out"
        assert got.diagnostics.notes["tail_bound"] < 1e-20
        assert abs(got.value - ref) <= got.error_estimate <= 1e-15

    def test_floor_counts_only_the_uncancelled_values(self):
        """The differences are evaluated through the window, k <= depth + 3;
        every g(j) that is both a g(k) and a g(k'+N) cancels exactly."""
        n = 2
        g = lambda x: np.exp(-x * x / 50)  # noqa: E731
        got = telescoping_sum(g, n)
        ks = np.arange(1, got.diagnostics.truncation_index + 4, dtype=float)
        rounding = _EPS * float(np.sum(g(ks[:n])) + np.sum(np.abs(g(ks) - g(ks + n)))
                                + np.sum(g(ks[-n:] + n)))
        assert got.diagnostics.notes["tail_bound"] < rounding
        assert got.error_estimate == pytest.approx(rounding, rel=1e-12, abs=0)


def test_died_out_bound_sums_the_geometric_remainder():
    """Once the differences fall below 1e-15 of the partial sum the tail is
    taken as 0, but a remainder shrinking by r per term sums to up to
    max(window)/(1 - r): 1.3*exp(-0.125k)*cos(0.02k) at N=12 stops there at
    depth 256 and misses by about 10 times max(window).  The record names
    that stop, not the Gregory tail of the checkpoint before."""
    mp = pytest.importorskip("mpmath")
    lam, theta, n = 0.125, 0.02, 12
    got = telescoping_sum(lambda x: 1.3 * cmath.exp(-lam * complex(x))
                          * cmath.cos(theta * complex(x)), n, tol=1e-12)
    with mp.workdps(40):
        want = complex(mp.fsum(mp.mpf(1.3) * mp.exp(-mp.mpf(lam) * k) * mp.cos(mp.mpf(theta) * k)
                               for k in range(1, n + 1)))
    assert got.diagnostics.converged
    assert got.diagnostics.truncation_index == 256
    assert got.diagnostics.notes["strategy"] == "died-out"
    assert abs(got.value - want) <= got.error_estimate < 1e-12



def _telescope_record(text, n):
    return cli.run(text, n, method="telescope")["results"][1]


class TestDecayCheck:
    """Past depth max(2N, 1024) the route refuses, non-converged with
    reason "g does not decay", once max |g(k+N)| over the values a
    checkpoint evaluates has not fallen by 1% at two checkpoints in a row."""

    _HEAVY = ("1.2*sin(1.1*k)", "k*cos(2.2*k)", "1.3*k^2", "0.9*cos(3.1*k)",
              "1.6*log(k)", "0.7*sqrt(k)")

    @pytest.mark.parametrize("text,n", [*cli._BENCH_SUITE,
                                        *[(t, n) for t in _HEAVY for n in (8, 31, 100)]])
    def test_more_than_4096_terms_only_to_converge(self, text, n):
        rec = _telescope_record(text, n)
        assert not rec["flags"] or rec["diagnostics"]["nodes"] <= 4096

    def test_deep_convergence_is_kept(self):
        """A power law at huge N samples g only near N, and a slow
        exponential still falls by more than 1% per checkpoint."""
        got = telescoping_sum(lambda x: x ** -2.0, 10 ** 9)
        assert got.diagnostics.converged and got.diagnostics.nodes == 32
        rec = _telescope_record("exp(-0.001*k)", 100)
        assert not rec["flags"] and rec["diagnostics"]["nodes"] == 2048

    def test_no_refusal_below_twice_n(self):
        """Below 2N the g(k+N) sample g only up to 3N: sin(1.1k) at N=3000
        runs to the first checkpoint past 6,000."""
        got = telescoping_sum(lambda x: np.sin(1.1 * x), 3000)
        assert got.diagnostics.nodes == 8192
        assert got.diagnostics.notes["reason"] == "g does not decay"

    def test_constant_limit_is_flagged(self):
        """1000 + 1/k^2: the differences telescope the 1/k^2 part only and
        miss N*1000, so the record must not come back certified."""
        rec = _telescope_record("1000 + 1/k^2", 10)
        assert rec["flags"] == ["non-converged"]
        assert rec["diagnostics"]["notes"]["reason"] == "g does not decay"


def _mp_sum(mp, term, n):
    with mp.workdps(40):
        return complex(mp.fsum(term(mp.mpf(k)) for k in range(1, n + 1)))


class TestGregoryTail:
    """Closures that reject jets finish the tail by Gregory's formula on the
    window d(depth..depth+3); the estimate counts once two checkpoints
    produce one, and is no smaller than their disagreement."""

    # the telescoping_sum items of the scalar-closure benchmark pool, seed 7
    _LORENTZIANS = [(0.651, 0.3516, 12), (1.1877, 1.829, 20), (0.6304, 0.9403, 33),
                    (1.7631, 0.3138, 52), (1.3562, 1.7636, 83), (0.8752, 0.9137, 122),
                    (0.7588, 0.2701, 201), (0.8425, 1.7644, 305), (1.5982, 0.8647, 500),
                    (0.9583, 0.2594, 808)]

    @pytest.mark.parametrize("c,a2,n", _LORENTZIANS)
    def test_scalar_lorentzians_converge_early(self, c, a2, n):
        mp = pytest.importorskip("mpmath")
        got = telescoping_sum(lambda x: c / (complex(x) * complex(x) + a2), n, tol=1e-10)
        assert got.diagnostics.converged
        assert got.diagnostics.notes["strategy"] == "gregory"
        assert got.diagnostics.nodes <= 512
        want = _mp_sum(mp, lambda k: mp.mpf(c) / (k * k + mp.mpf(a2)), n)
        assert abs(got.value - want) <= got.error_estimate < 1e-10

    @staticmethod
    def _corpus(mp):
        """(name, scalar closure, mpmath term) over four decaying families."""
        for c, a in ((0.65, 0.3), (1.2, 0.6), (0.9, 1.0), (1.7, 1.35), (0.8, 2.0),
                     (1.4, 3.0), (1.1, 0.45)):
            yield (f"{c}/(k^2+{a}^2)", lambda x, c=c, a=a: c / (complex(x) ** 2 + a * a),
                   lambda k, c=c, a=a: c / (k * k + mp.mpf(a) ** 2))
        for c, s in ((1.3, 1.6), (0.7, 2.0), (1.9, 2.5), (1.1, 3.0), (0.6, 3.3),
                     (1.5, 3.7), (0.95, 4.0)):
            yield (f"{c}*k^-{s}", lambda x, c=c, s=s: c * complex(x) ** (-s),
                   lambda k, c=c, s=s: c * k ** (-mp.mpf(s)))
        for c, a in ((1.0, 0.5), (0.7, 1.3), (1.6, 2.7), (1.2, 0.1), (0.9, 4.0),
                     (1.8, 0.8), (0.55, 6.5)):
            yield (f"{c}/(k+{a})^2", lambda x, c=c, a=a: c / (complex(x) + a) ** 2,
                   lambda k, c=c, a=a: c / (k + mp.mpf(a)) ** 2)
        for c, a in ((1.0, 0.05), (0.8, 0.2), (1.5, 0.5), (1.2, 1.0), (0.6, 2.0),
                     (1.9, 0.01), (1.1, 0.12)):
            yield (f"{c}*exp(-{a}*k)", lambda x, c=c, a=a: c * cmath.exp(-a * complex(x)),
                   lambda k, c=c, a=a: c * mp.exp(-mp.mpf(a) * k))

    def test_scalar_closures_are_covered(self):
        """Every converged result lies within its estimate of the 40-digit
        sum, over N in {1, 5, 12, 100, 1000} and three tolerances."""
        mp = pytest.importorskip("mpmath")
        uncovered = []
        for name, g, term in self._corpus(mp):
            for n in (1, 5, 12, 100, 1000):
                want = _mp_sum(mp, term, n)
                for tol in (1e-8, 1e-10, 1e-12):
                    got = telescoping_sum(g, n, tol=tol)
                    if got.diagnostics.converged and abs(got.value - want) > got.error_estimate:
                        uncovered.append((name, n, tol, abs(got.value - want),
                                          got.error_estimate))
        assert not uncovered


    @pytest.mark.parametrize("n", [5, 12, 100])
    def test_one_gregory_estimate_alone_does_not_converge(self, n):
        """exp(-k)cos(0.75k): the Gregory estimate at depth 16 already sits
        below tol, but misses by about 1e-9; the next checkpoint's estimate
        disagrees with it, and the result is still covered."""
        mp = pytest.importorskip("mpmath")
        got = telescoping_sum(lambda x: cmath.exp(-complex(x)) * cmath.cos(0.75 * complex(x)), n)
        want = _mp_sum(mp, lambda k: mp.exp(-k) * mp.cos(0.75 * k), n)
        assert got.diagnostics.converged
        assert abs(got.value - want) <= got.error_estimate


class TestPoles:
    """A pole between lattice points lies inside the tail windows of the
    early checkpoints, where the window integral fails or misses; past it
    the route still certifies a covered sum, with jets and without."""

    @pytest.mark.parametrize("pole,n", [(40.5, 10), (40.5, 25), (40.5, 40),
                                        (50.5, 25), (50.5, 40)])
    def test_covered_on_either_path(self, pole, n):
        mp = pytest.importorskip("mpmath")
        want = _mp_sum(mp, lambda k: 1 / (k - mp.mpf(pole)) ** 2, n)
        for g in (_effective(f"1/(k-{pole})^2", n), lambda x: 1 / (complex(x) - pole) ** 2):
            got = telescoping_sum(g, n)
            assert got.diagnostics.converged
            assert abs(got.value - want) <= got.error_estimate < 1e-10


def _counted_windows(monkeypatch):
    """The (a, b) of every window integral that telescoping_sum takes; the
    semi-infinite tail integral must not be reached at all."""
    windows = []
    integrate_finite = quadrature.integrate_finite

    def counted(f, a, b, **kwargs):
        windows.append((a, b))
        return integrate_finite(f, a, b, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("semi-infinite tail integral taken")

    monkeypatch.setattr(quadrature, "integrate_finite", counted)
    monkeypatch.setattr(quadrature, "integrate_semi_infinite", forbidden)
    return windows


class TestSkippedTailIntegral:
    """A checkpoint whose doubled first omitted Euler-Maclaurin term alone
    is at least tol cannot certify, so it takes no window integral, except
    the last, whose tail the result reports."""

    # (summand, N, max_terms, value, estimate, depth, converged); each value
    # lies within its estimate of the 40-digit sum
    _PINNED = [("1/k^2", 100, 1 << 17, 1.6349839001842008, 1.3860913286333678e-12, 32, True),
               ("1.9544*exp(-0.6654*k)", 17, 1 << 17, 2.0675354754628708,
                9.539481970762907e-15, 32, True),
               ("1/k^2", 100, 8, 1.6349838890715904, 2.2706563719788434e-08, 8, False),
               ("1.9544*exp(-0.6654*k)", 17, 16, 2.0675354752645463,
                4.0104911626009945e-10, 16, False)]

    @staticmethod
    def _correction(h, n, m):
        """2 |B_6 d^(5)(m)/6!| for d(t) = h(t) - h(t+N)."""
        t = jets.Jet.variable(m, 5)
        return 2 * abs(float(bernoulli(6)) * (h(t) - h(t + n)).derivative(5) / math.factorial(6))

    @pytest.mark.parametrize("text,n,max_terms,value,estimate,depth,converged", _PINNED)
    def test_integrals_only_where_they_can_certify(self, monkeypatch, text, n, max_terms,
                                                   value, estimate, depth, converged):
        mp = pytest.importorskip("mpmath")
        c, a = {"1/k^2": (1.0, None), "1.9544*exp(-0.6654*k)": (1.9544, 0.6654)}[text]
        want = _mp_sum(mp, (lambda k: 1 / k ** 2) if a is None
                       else (lambda k: mp.mpf(c) * mp.exp(-mp.mpf(a) * k)), n)
        windows = _counted_windows(monkeypatch)
        h = _effective(text, n)
        got = telescoping_sum(h, n, max_terms=max_terms)
        assert windows == [(float(depth), float(depth + n))]
        if converged:
            assert self._correction(h, n, depth) < 1e-10
        assert all(self._correction(h, n, m) >= 1e-10 for m in (8, 16, 32) if m < depth)
        assert got.value == value
        assert got.error_estimate == estimate
        assert got.diagnostics.nodes == depth
        assert got.diagnostics.converged is converged
        assert got.diagnostics.notes == {"strategy": "euler-maclaurin", "tail_bound": estimate}
        assert abs(got.value - want) <= got.error_estimate


@pytest.mark.parametrize("c,a,n", [(1.9544, 0.6654, 17), (1.3092, 0.6152, 39)])
def test_em_tail_bound_carries_the_quadrature_error(c, a, n):
    """Two eval-all records whose deviation exceeded the Euler-Maclaurin
    term alone; twice the term, plus the window integral's own error
    estimate, covers them."""
    mp = pytest.importorskip("mpmath")
    rec = cli.run(f"{c}*exp(-{a}*k)", n, method="telescope")["results"][1]
    want = _mp_sum(mp, lambda k: c * mp.exp(-mp.mpf(a) * k), n)
    assert not rec["flags"]
    assert abs(complex(rec["value"]["re"], rec["value"]["im"]) - want) <= rec["error_estimate"]


def _bytes(got):
    """A telescope record as bytes: value, estimate, nodes and notes."""
    notes = {k: v.hex() if isinstance(v, float) else v for k, v in got.diagnostics.notes.items()}
    return (got.value.real.hex(), got.value.imag.hex(), float(got.error_estimate).hex(),
            got.diagnostics.nodes, got.diagnostics.converged, notes)


def _pinned(value, estimate, nodes, strategy, converged=True, imag="0x0.0p+0"):
    return (value, imag, estimate, nodes, converged,
            {"strategy": strategy, "tail_bound": estimate})


class TestGregoryWindow:
    """Without jets every checkpoint whose differences shrink like
    derivatives takes Gregory's estimate.  Its window is integrated where
    the estimate's own bound meets tol, at the last checkpoint, and where
    the next checkpoint compares with it; the records are pinned, and each
    lies within its estimate of the 40-digit sum."""

    _LORENTZIANS = TestGregoryTail._LORENTZIANS
    _LORENTZ_RECORDS = [
        ("0x1.a9f3925116a33p-1", "0x1.2104000000000p-38"),
        ("0x1.febc3ad3190e9p-1", "0x1.7863000000000p-37"),
        ("0x1.57f3de3627f55p-1", "0x1.07f8000000000p-37"),
        ("0x1.338d2fd47d9b0p+1", "0x1.ba1c000000000p-36"),
        ("0x1.34447b1d5e4ebp+0", "0x1.7ca0000000000p-36"),
        ("0x1.eb22b7646b72dp-1", "0x1.01d9000000000p-36"),
        ("0x1.112bc426c8286p+0", "0x1.ca96000000000p-37"),
        ("0x1.82b2827689990p-1", "0x1.ffeb000000000p-37"),
        ("0x1.c9c0ca61db66ap+0", "0x1.e66c000000000p-36"),
        ("0x1.5bbdaca5c0680p+0", "0x1.23c7000000000p-36"),
    ]

    @pytest.mark.parametrize("item,record", list(zip(_LORENTZIANS, _LORENTZ_RECORDS)))
    def test_scalar_lorentzians(self, monkeypatch, item, record):
        """Windows [M, M+N] at 64, 128 and 256 only: the Gregory bound
        meets tol from 128 on, and 128 compares with 64."""
        mp = pytest.importorskip("mpmath")
        c, a2, n = item
        windows = _counted_windows(monkeypatch)
        got = telescoping_sum(lambda x: c / (complex(x) * complex(x) + a2), n, tol=1e-10)
        assert _bytes(got) == _pinned(*record, 256, "gregory")
        assert windows == [(float(m), float(m + n)) for m in (64, 128, 256)]
        want = _mp_sum(mp, lambda k: mp.mpf(c) / (k * k + mp.mpf(a2)), n)
        assert abs(got.value - want) <= got.error_estimate

    # (pole, N, value, estimate, depth)
    _POLES = [(40.5, 25, "0x1.55245cb51e31fp-5", "0x1.6f92400000000p-34", 256),
              (40.5, 40, "0x1.3a3a3878163e3p+2", "0x1.b3ce000000000p-34", 256),
              (50.5, 25, "0x1.479a84c998f3fp-6", "0x1.9bd0800000000p-41", 512),
              (50.5, 40, "0x1.4757b3794a021p-4", "0x1.159d000000000p-40", 512)]

    @pytest.mark.parametrize("pole,n,value,estimate,depth", _POLES)
    def test_scalar_poles(self, pole, n, value, estimate, depth):
        mp = pytest.importorskip("mpmath")
        got = telescoping_sum(lambda x: 1 / (complex(x) - pole) ** 2, n)
        assert _bytes(got) == _pinned(value, estimate, depth, "gregory")
        want = _mp_sum(mp, lambda k: 1 / (k - mp.mpf(pole)) ** 2, n)
        assert abs(got.value - want) <= got.error_estimate

    # (max_terms, record) for log(1+1/k) at N=10: the first checkpoint, at
    # 16 or at a max_terms below it, has no comparator and extrapolates; from
    # 32 on a Gregory estimate is the last one's
    _LOGS = [(8, _pinned("0x1.a6930584f0e54p+0", "inf", 8, "extrapolation", False)),
             (16, _pinned("0x1.ef6df82ec646bp+0", "inf", 16, "extrapolation", False)),
             (64, _pinned("0x1.32ee3b6fd0c5ep+1", "0x1.589c222000000p-24", 64, "gregory",
                          False)),
             (1 << 17, _pinned("0x1.32ee3b77f35cep+1", "0x1.5bb8000000000p-38", 512,
                               "gregory"))]

    # the windows integrated at each max_terms: the last checkpoint's and
    # the one it compares with; with no limit, the Gregory bound meets tol
    # from 256 on, and 256 compares with 128
    _LOG_WINDOWS = {8: (8,), 16: (16,), 64: (32, 64), 1 << 17: (128, 256, 512)}

    @pytest.mark.parametrize("max_terms,record", _LOGS)
    def test_scalar_log_at_the_last_checkpoint(self, monkeypatch, max_terms, record):
        mp = pytest.importorskip("mpmath")
        windows = _counted_windows(monkeypatch)
        got = telescoping_sum(lambda x: cmath.log(1 + 1 / complex(x)), 10, max_terms=max_terms)
        assert _bytes(got) == record
        assert windows == [(float(m), float(m + 10)) for m in self._LOG_WINDOWS[max_terms]]
        want = _mp_sum(mp, lambda k: mp.log(1 + 1 / k), 10)
        assert abs(got.value - want) <= got.error_estimate


def test_window_tail_spends_few_g_calls(monkeypatch):
    """The scalar-closure Lorentzians of TestGregoryTail take 5,260 calls
    of g in all: three windows of one finite quadrature each, never a
    semi-infinite tail integral (8,230 calls with a window at each of six
    checkpoints, 15,240 when the tail was the integral of d over (M, inf))."""
    _counted_windows(monkeypatch)
    calls = [0]
    for c, a2, n in TestGregoryTail._LORENTZIANS:
        def g(x, c=c, a2=a2):
            calls[0] += 1
            return c / (complex(x) * complex(x) + a2)

        assert telescoping_sum(g, n, tol=1e-10).diagnostics.converged
    assert calls[0] <= 5_500


def _wave(period, eps, amp, phase, pole=None):
    """A scalar closure: a fast exponential, which sets the peak of the
    differences, plus a slowly damped cosine, whose doubling partials
    Aitken's model fits while its lattice differences keep the Gregory
    term above tol; with a pole, 1e-3/(k - pole)^2 on top."""
    def g(x):
        z = complex(x)
        v = 10 * cmath.exp(-z / 2) + amp * cmath.exp(-eps * z) * cmath.cos(2 * math.pi * z / period
                                                                          + phase)
        return v if pole is None else v + 1e-3 / (z - pole) ** 2
    return g


class TestDeferredWindows:
    """A Gregory window whose own bound misses tol is not integrated at its
    checkpoint, only when the next one compares with it.  The records are
    byte-identical to integrating every window at once (gregory_tail
    without need), exits included: where a deferred checkpoint's Aitken
    estimate would converge, the eager order takes it unless both this
    window and the previous one integrate, so those are integrated there."""

    @staticmethod
    def _deferred_and_eager(monkeypatch, g, n, **kwargs):
        deferred = _bytes(telescoping_sum(g, n, **kwargs))
        gregory_tail = telescope.gregory_tail
        with monkeypatch.context() as patch:
            patch.setattr(telescope, "gregory_tail",
                          lambda m, lattice, need=math.inf, *, integral:
                          gregory_tail(m, lattice, integral=integral))
            eager = _bytes(telescoping_sum(g, n, **kwargs))
        return deferred, eager

    @pytest.mark.parametrize("c,a2,n", TestGregoryTail._LORENTZIANS)
    def test_lorentzians(self, monkeypatch, c, a2, n):
        deferred, eager = self._deferred_and_eager(
            monkeypatch, lambda x: c / (complex(x) * complex(x) + a2), n, tol=1e-10)
        assert deferred == eager

    @pytest.mark.parametrize("pole,n", [(pole, n) for pole, n, *_ in TestGregoryWindow._POLES])
    def test_windows_across_a_pole(self, monkeypatch, pole, n):
        """The early windows cross the pole, where window_integral raises."""
        deferred, eager = self._deferred_and_eager(
            monkeypatch, lambda x: 1 / (complex(x) - pole) ** 2, n)
        assert deferred == eager

    @pytest.mark.parametrize("max_terms", [max_terms for max_terms, _ in TestGregoryWindow._LOGS])
    def test_log_at_every_max_terms(self, monkeypatch, max_terms):
        deferred, eager = self._deferred_and_eager(
            monkeypatch, lambda x: cmath.log(1 + 1 / complex(x)), 10, max_terms=max_terms)
        assert deferred == eager

    # (closure, N, tol, max_terms, windows, depth, strategy): Aitken's
    # estimate would converge at a deferred checkpoint with a previous one.
    # Both windows integrate (at 64, the first with three partials), and
    # Gregory's estimate, which misses tol, goes on to the last checkpoint;
    # this window crosses the pole, and Aitken's converges; the previous
    # window crosses it, and Aitken's converges without this window
    _AITKEN = [(_wave(32, 1.2e-4, 0.5, 1.0), 30, 1e-5, 128, (32, 64, 128), 128, "gregory"),
               (_wave(32, 3e-4, 0.5, 4.0, 70.5), 30, 1e-5, 1 << 17, (32, 64), 64,
                "extrapolation"),
               (_wave(32, 3e-4, 0.5, 3.45, 40.5), 100, 1.4e-5, 1 << 17, (32,), 64,
                "extrapolation")]

    @pytest.mark.parametrize("g,n,tol,max_terms,windows,depth,strategy", _AITKEN,
                             ids=["both-windows", "this-window-fails", "previous-fails"])
    def test_aitken_at_a_deferred_checkpoint(self, monkeypatch, g, n, tol, max_terms, windows,
                                             depth, strategy):
        seen = _counted_windows(monkeypatch)
        got = telescoping_sum(g, n, tol=tol, max_terms=max_terms)
        assert seen == [(float(m), float(m + n)) for m in windows]
        assert got.diagnostics.nodes == depth
        assert got.diagnostics.notes["strategy"] == strategy
        deferred, eager = self._deferred_and_eager(monkeypatch, g, n, tol=tol,
                                                   max_terms=max_terms)
        assert deferred == eager


# (summand, N, tol): converged within its estimate of the 40-digit sum, or
# flagged.  The covered group had come back certified and wrong, or flagged;
# x**-2.0 goes through telescoping_sum, the rest through cli.run
_REFEREE = [("2 - exp(-k)", 10, 1e-10, "covered"), ("1 - 1/k^2", 10, 1e-6, "covered"),
            ("log(1+1/k)", 25, 1e-10, "covered"), ("log(1+1/k)", 200, 1e-12, "covered"),
            *[("1/k^0.5", n, 1e-10, "covered") for n in (25, 50, 100, 150)],
            ("log(k)", 50, 1e-10, "covered"), ("0.6627*sqrt(k)", 72, 1e-10, "covered"),
            ("x**-2.0", 10 ** 9, 1e-10, "covered"),
            ("1000 + 1/k^2", 10, 1e-10, "flagged"), ("1.3*k^2", 31, 1e-10, "flagged"),
            ("sin(1.1*k)", 50, 1e-10, "flagged"), ("k*exp(-k/2000)", 10, 1e-10, "flagged")]


@pytest.mark.parametrize("text,n,tol,outcome", _REFEREE)
def test_window_records_against_mpmath(text, n, tol, outcome):
    mp = pytest.importorskip("mpmath")
    if text == "x**-2.0":
        got = telescoping_sum(lambda x: x ** -2.0, n, tol=tol)
        value, estimate, flags = got.value, got.error_estimate, got.flags
        with mp.workdps(40):
            want = complex(mp.zeta(2) - mp.zeta(2, n + 1))
    else:
        rec = cli.run(text, n, method="telescope", tol=tol)["results"][1]
        value = complex(rec["value"]["re"], rec["value"]["im"])
        estimate, flags = rec["error_estimate"], rec["flags"]
        terms = {"2 - exp(-k)": lambda k: 2 - mp.exp(-k), "1 - 1/k^2": lambda k: 1 - 1 / k ** 2,
                 "log(1+1/k)": lambda k: mp.log(1 + 1 / k), "1/k^0.5": lambda k: 1 / mp.sqrt(k),
                 "log(k)": mp.log, "0.6627*sqrt(k)": lambda k: mp.mpf(0.6627) * mp.sqrt(k),
                 "1000 + 1/k^2": lambda k: 1000 + 1 / k ** 2,
                 "1.3*k^2": lambda k: mp.mpf(1.3) * k ** 2,
                 "sin(1.1*k)": lambda k: mp.sin(mp.mpf(1.1) * k),
                 "k*exp(-k/2000)": lambda k: k * mp.exp(-k / 2000)}
        want = _mp_sum(mp, terms[text], n)
    if outcome == "flagged":
        assert flags == ["non-converged"]
    else:
        assert not flags
        assert abs(value - want) <= estimate


def _geometric(mp, c, a, alpha, n, theta=0.0):
    """Sigma_{k<=n} c exp(-a alpha k) cos(theta alpha k), as Re of a
    geometric sum."""
    with mp.workdps(40):
        z = mp.exp((-mp.mpf(a) + 1j * mp.mpf(theta)) * mp.mpf(alpha))
        return complex(mp.mpf(c) * mp.re(z * (1 - z ** n) / (1 - z)))


# (summand, N, alpha, c, a, theta): long windows whose unseeded integral
# started past the mass, off by 2.3e-4, 2.9e-6, 2.8e-8, 4.5e-11 and 3.4e-11
# against estimates of 1e-11 and below
_LONG_WINDOWS = [("exp(-0.3*k)", 10 ** 5, 1.0, 1.0, 0.3, 0.0),
                 ("0.6366*exp(-0.4072*k)", 59583, 1.0115, 0.6366, 0.4072, 0.0),
                 ("1.7559*exp(-0.9178*k)", 14442, 0.63, 1.7559, 0.9178, 0.0),
                 ("exp(-0.47*k)*cos(0.732778*k)", 11285, 1.5631, 1.0, 0.47, 0.732778),
                 ("exp(-1.3463*k)*cos(3.174098*k)", 11740, 0.5376, 1.0, 1.3463, 3.174098)]


@pytest.mark.parametrize("text,n,alpha,c,a,theta", _LONG_WINDOWS)
def test_long_windows_are_seeded_at_the_decay_length(text, n, alpha, c, a, theta):
    mp = pytest.importorskip("mpmath")
    rec = cli.run(text, n, method="telescope", alpha=alpha, tol=1e-10)["results"][1]
    assert not rec["flags"]
    value = complex(rec["value"]["re"], rec["value"]["im"])
    assert abs(value - _geometric(mp, c, a, alpha, n, theta)) <= rec["error_estimate"]


class TestGrowingScalarClosures:
    """Closures that reject arrays and jets.  A growing g whose Gregory
    estimate meets tol on its own bound at depth 1,024 is not refused there
    and certifies at 2,048, once the next estimate agrees; g that grow like
    k^2, oscillate or tend to a constant are still refused."""

    @pytest.mark.parametrize("c,fn,mp_fn,n", [(0.6627, cmath.sqrt, "sqrt", 72),
                                              (1.6005, cmath.log, "log", 50)])
    def test_gregory_finishes_a_growing_g(self, c, fn, mp_fn, n):
        mp = pytest.importorskip("mpmath")
        got = telescoping_sum(lambda x: c * fn(complex(x)), n)
        assert got.diagnostics.converged
        assert got.diagnostics.notes["strategy"] == "gregory"
        assert got.diagnostics.nodes == 2048
        want = _mp_sum(mp, lambda k: mp.mpf(c) * getattr(mp, mp_fn)(k), n)
        assert abs(got.value - want) <= got.error_estimate < 1e-10

    @pytest.mark.parametrize("g,n", [(lambda x: 1.3 * complex(x) ** 2, 31),
                                     (lambda x: cmath.sin(1.1 * complex(x)), 50),
                                     (lambda x: 1000 + 1 / complex(x) ** 2, 10)],
                             ids=["1.3*k^2", "sin(1.1*k)", "1000 + 1/k^2"])
    def test_still_refused(self, g, n):
        got = telescoping_sum(g, n)
        assert got.flags == ["non-converged"]
        assert got.diagnostics.notes["reason"] == "g does not decay"
