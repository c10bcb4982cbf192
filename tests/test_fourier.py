"""Transform-route tests: lattice factor, pair table, full sums."""

import cmath
import dataclasses
import importlib.util
import itertools
import math
import pathlib

import numpy as np
import pytest

from finsum import backend, cli
from finsum.errors import CapabilityError, PreconditionError
from finsum.fourier import (DirichletForm, dirichlet_factor, recognize_fourier,
                            sum_via_fourier)
from finsum.kernels import decompose
from finsum.series import SeriesSpec, direct_sum


class TestLatticeFactor:
    def test_matches_geometric_loop(self):
        """Sigma exp(i*alpha*k) straight from the definition, k = 1..N."""
        rng = np.random.default_rng(42)
        for _ in range(60):
            alpha = float(rng.uniform(-40.0, 40.0))
            n = int(rng.integers(1, 40))
            want = sum(cmath.exp(1j * alpha * k) for k in range(1, n + 1))
            got = dirichlet_factor(alpha, n)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-11)

    def test_resonance_is_exact(self):
        """At alpha = 2*pi*m every term is 1, so the factor is exactly N."""
        for m in (-3, 1, 7):
            got = dirichlet_factor(2.0 * math.pi * m, 25)
            assert got == pytest.approx(25.0, abs=2e-13)

    def test_near_resonance_stays_conditioned(self):
        """1e-9 away from resonance the naive phase hits catastrophic
        cancellation; the reduced-angle evaluation must not."""
        alpha = 8.0 * math.pi + 1e-9
        n = 30
        want = sum(cmath.exp(1j * (alpha - 8.0 * math.pi) * k)
                   for k in range(1, n + 1))
        got = dirichlet_factor(alpha, n)
        assert got == pytest.approx(want, rel=1e-12)

    def test_simplified_form_drops_the_phase(self):
        """The phase-free cousin has the exact factor's magnitude but not
        its phase, so it cannot be used for summation."""
        alpha, n = 1.3, 9
        exact = dirichlet_factor(alpha, n)
        simple = dirichlet_factor(alpha, n, DirichletForm.PHASE_FREE)
        assert simple.imag == 0.0
        assert abs(simple) == pytest.approx(abs(exact), rel=1e-12)
        phase = cmath.exp(1j * alpha * (n + 1) / 2.0)
        assert simple * phase == pytest.approx(exact, rel=1e-12)

    def test_simplified_form_sign_across_periods(self):
        for alpha in (0.7, 0.7 + 2 * math.pi, 0.7 + 6 * math.pi):
            n = 8
            want = math.sin(0.5 * alpha * n) / math.sin(0.5 * alpha)
            got = dirichlet_factor(alpha, n, DirichletForm.PHASE_FREE)
            assert got.real == pytest.approx(want, rel=1e-9)

    def test_rejects_bad_length(self):
        with pytest.raises(PreconditionError):
            dirichlet_factor(1.0, 0)

    # d = 0, +-1e-9, +-pi, and within 1e-12 of 2 pi m
    ANGLES = [0.0, 1e-9, -1e-9, math.pi, -math.pi] + [
        2.0 * math.pi * m + e for m in (1, -3, 7) for e in (0.0, 1e-12, -1e-12)]

    @pytest.mark.parametrize("n", [1, 2, 1000, 10 ** 6])
    def test_both_forms_and_the_grid_against_mpmath(self, n):
        """Amplitude sin(N a/2)/sin(a/2) and phase exp(i a (N+1)/2) at 40
        digits, at the exact doubles; the bound is eps times the condition
        number N + |a| N^2 of the sum under a relative change of a."""
        mpmath = pytest.importorskip("mpmath")
        grid = backend.dirichlet_grid(np.array(self.ANGLES), n)
        for alpha, on_grid in zip(self.ANGLES, grid):
            with mpmath.workdps(40):
                a = mpmath.mpf(alpha)
                amp = mpmath.mpf(n) if alpha == 0.0 else \
                    mpmath.sin(n * a / 2) / mpmath.sin(a / 2)
                exact = complex(amp * mpmath.expjpi(a * (n + 1) / (2 * mpmath.pi)))
                phase_free = float(amp)
            bound = 4.0 * np.finfo(float).eps * (n + abs(alpha) * n * n)
            assert abs(dirichlet_factor(alpha, n) - exact) <= bound
            assert abs(on_grid - exact) <= bound
            got = dirichlet_factor(alpha, n, DirichletForm.PHASE_FREE)
            assert got.imag == 0.0
            assert abs(got.real - phase_free) <= bound


class TestPairTable:
    def test_gaussian_transform(self):
        pair = recognize_fourier("exp(-0.5*k^2)")
        al = np.linspace(-4.0, 4.0, 9)
        want = math.sqrt(math.pi / 0.5) * np.exp(-al**2 / 2.0)
        np.testing.assert_allclose(np.asarray(pair.transform(al), dtype=complex),
                                   want, rtol=1e-13)

    def test_lorentzian_transform(self):
        pair = recognize_fourier("1/(k^2+4)")
        al = np.linspace(-3.0, 3.0, 7)
        want = (math.pi / 2.0) * np.exp(-2.0 * np.abs(al))
        np.testing.assert_allclose(np.asarray(pair.transform(al), dtype=complex),
                                   want, rtol=1e-13)

    def test_combination(self):
        pair = recognize_fourier("exp(-k^2) + 2/(k^2+1)")
        val = complex(np.asarray(pair.transform(0.0)).item())
        want = math.sqrt(math.pi) + 2.0 * math.pi
        assert val == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("text", ["exp(k^2)", "exp(-k)", "sin(k)",
                                      "1/k", "k*exp(-k^2)", "log(k)"])
    def test_outside_the_table(self, text):
        with pytest.raises(CapabilityError):
            recognize_fourier(text)

    def test_reads_the_terms(self):
        """Text and its decomposition give the same pair."""
        text = "1.5*exp(-0.2*k^2) + 2/(k^2+0.25)"
        from_text, from_terms = recognize_fourier(text), recognize_fourier(decompose(text))
        assert from_text.label == from_terms.label
        al = np.linspace(0.0, math.pi, 9)
        np.testing.assert_array_equal(from_text.periodic(al), from_terms.periodic(al))


def _poisson_sum(pair, al, width):
    """Sigma_{|m| <= width} transform(al + 2 pi m), summed with fsum."""
    shifts = 2.0 * math.pi * np.arange(-width, width + 1)
    rows = np.asarray(pair.transform(al[:, None] + shifts), dtype=complex)
    return np.array([complex(math.fsum(r.real), math.fsum(r.imag)) for r in rows])


class TestFoldedTransform:
    """``periodic`` is the Poisson sum of ``transform`` over one period."""

    GRID = np.linspace(-math.pi, math.pi, 41)

    @pytest.mark.parametrize("a", [0.01, 0.1, 1.0, 50.0, 300.0])
    def test_lorentzian(self, a):
        # a = 300 is past the overflow of the cosh/sinh form (a*pi > 710)
        pair = recognize_fourier(f"1/(k^2+{a * a!r})")
        width = int(45.0 / (2.0 * math.pi * a)) + 2
        np.testing.assert_allclose(np.asarray(pair.periodic(self.GRID), dtype=complex),
                                   _poisson_sum(pair, self.GRID, width), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("a", [1e-3, 0.2, 1.0, 25.0, 100.0])
    def test_gaussian(self, a):
        pair = recognize_fourier(f"exp(-{a!r}*k^2)")
        width = int(math.sqrt(180.0 * a) / (2.0 * math.pi)) + 3
        np.testing.assert_allclose(np.asarray(pair.periodic(self.GRID), dtype=complex),
                                   _poisson_sum(pair, self.GRID, width), rtol=1e-13, atol=0)

    def test_combination(self):
        pair = recognize_fourier("1.5*exp(-0.2*k^2) + 2/(k^2+0.25)")
        np.testing.assert_allclose(np.asarray(pair.periodic(self.GRID), dtype=complex),
                                   _poisson_sum(pair, self.GRID, 40), rtol=1e-13, atol=0)


class TestEvenness:
    """The route integrates over [0, pi] only, which is exact because every
    ``periodic`` in the table is even."""

    # 0, pi, the grids pi*(j/N) for N = 200 and N = 7, and points off them
    GRID = np.concatenate(([0.0, math.pi], math.pi * (np.arange(1, 200) / 200),
                           math.pi * (np.arange(1, 7) / 7), np.linspace(0.01, 3.1, 23)))

    def _both_sides(self, text):
        pair = recognize_fourier(text)
        plus = np.asarray(pair.periodic(self.GRID), dtype=complex)
        minus = np.asarray(pair.periodic(-self.GRID), dtype=complex)
        return plus, minus

    @pytest.mark.parametrize("a", [1e-3, 0.1, 1.0, 50.0, 300.0])
    def test_lorentzian_is_exactly_even(self, a):
        plus, minus = self._both_sides(f"1/(k^2+{a * a!r})")
        assert np.array_equal(plus, minus)

    @pytest.mark.parametrize("a", [1e-3, 0.2, 1.0, 25.0, 100.0])
    def test_gaussian_is_even_to_a_few_ulp(self, a):
        # the theta sum adds the same shifted terms in the opposite order
        plus, minus = self._both_sides(f"exp(-{a!r}*k^2)")
        assert np.all(plus.imag == 0.0) and np.all(minus.imag == 0.0)
        np.testing.assert_array_max_ulp(plus.real, minus.real, maxulp=4)

    def test_combination_is_even_to_a_few_ulp(self):
        plus, minus = self._both_sides("1.5*exp(-0.2*k^2) + 2/(k^2+0.25)")
        assert np.all(plus.imag == 0.0) and np.all(minus.imag == 0.0)
        np.testing.assert_array_max_ulp(plus.real, minus.real, maxulp=4)


class TestTransformSums:
    def test_narrow_lorentzian_converges(self):
        """Over one period nothing is truncated: the narrow Lorentzian that
        exhausted the node budget on the real line converges."""
        mpmath = pytest.importorskip("mpmath")
        got = sum_via_fourier("1/(k^2+0.01)", 400, tol=1e-10)
        with mpmath.workdps(40):
            want = mpmath.fsum(1 / (mpmath.mpf(k) ** 2 + mpmath.mpf("0.01"))
                               for k in range(1, 401))
            dev = float(abs(mpmath.mpc(got.value) - want))
        assert got.diagnostics.converged
        assert dev <= got.error_estimate
        assert got.diagnostics.nodes < 100_000

    @staticmethod
    def _recorded(text, seen):
        """The pair of ``text``, with every abscissa of P appended to seen."""
        pair = recognize_fourier(text)

        def periodic(al):
            seen.append(np.array(al, dtype=float))
            return pair.periodic(al)

        return dataclasses.replace(pair, periodic=periodic)

    def test_evaluation_count_does_not_depend_on_n(self):
        """One Levin rule serves every N: degrees 24 and 32 agree to tol at
        N = 10, 10^3 and 10^6 alike, for 56 evaluations of P each."""
        for n in (10, 10 ** 3, 10 ** 6):
            seen = []
            got = sum_via_fourier(self._recorded("1/(k^2+4)", seen), n, tol=1e-10)
            assert got.diagnostics.converged
            assert got.diagnostics.nodes == sum(a.size for a in seen) == 56

    def test_evaluations_stay_inside_the_open_half_period(self):
        """Gauss-Chebyshev points are interior: P is never evaluated at 0,
        where h = (P(x) - P(0))/(2 sin(x/2)) is 0/0, nor at pi."""
        for text, n in (("1/(k^2+4)", 7), ("exp(-0.02*k^2)", 10 ** 5)):
            seen = []
            got = sum_via_fourier(self._recorded(text, seen), n, tol=1e-12)
            abscissas = np.concatenate(seen)
            assert abscissas.size == got.diagnostics.nodes
            assert abscissas.min() > 0.0 and abscissas.max() < math.pi

    def test_narrow_lorentzian_at_a_large_n_converges(self):
        """At N = 30,000 the half-lobe mesh spent 999,990 nodes on this sum;
        the rule converges on its roundoff floor from 56 evaluations."""
        mpmath = pytest.importorskip("mpmath")
        got = sum_via_fourier("1/(k^2+0.01)", 30_000, tol=1e-12)
        assert got.diagnostics.converged
        assert got.diagnostics.nodes == 56
        dev = abs(got.value - complex(_lorentzian_sum(mpmath, 1.0, 0.01, 1.0, 30_000)))
        assert dev <= got.error_estimate

    def test_stops_on_the_exact_error_total(self):
        """The quadrature's running error total drifts by rounding on the
        early, large panel errors; at tol 1e-12 that drift alone used to end
        the loop a few panels short and flag this sum non-converged."""
        report = cli.run("1.6914*exp(-0.5428*k^2)", 48, method="fourier",
                         alpha=0.7299, tol=1e-12)
        assert report["results"][1]["flags"] == []

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_gaussian(self, n):
        got = sum_via_fourier("exp(-k^2)", n, tol=1e-10)
        want = math.fsum(math.exp(-float(k * k)) for k in range(1, n + 1))
        assert abs(got.value.real - want) <= 1e-7 * max(abs(want), 1e-3)
        assert got.value.imag == 0.0
        assert got.diagnostics.converged

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_lorentzian(self, n):
        got = sum_via_fourier("1/(k^2+1)", n, tol=1e-10)
        spec = SeriesSpec(lambda x: 1.0 / (x * x + 1.0), n)
        want = direct_sum(spec).value
        assert abs(got.value - want) <= 1e-7 * abs(want)

    def test_wide_gaussian(self):
        got = sum_via_fourier("exp(-0.25*k^2)", 8, tol=1e-10)
        want = math.fsum(math.exp(-0.25 * k * k) for k in range(1, 9))
        assert abs(got.value.real - want) <= 1e-7 * abs(want)

    def test_combination_sum(self):
        got = sum_via_fourier("exp(-k^2) + 2/(k^2+1)", 5, tol=1e-10)
        want = math.fsum(math.exp(-float(k * k)) + 2.0 / (k * k + 1.0)
                         for k in range(1, 6))
        assert abs(got.value.real - want) <= 1e-7 * abs(want)

    def test_error_estimate_is_honest(self):
        got = sum_via_fourier("exp(-k^2)", 5, tol=1e-9)
        want = math.fsum(math.exp(-float(k * k)) for k in range(1, 6))
        assert abs(got.value.real - want) <= max(got.error_estimate, 1e-12)

    def test_diagnostics_name_the_pair(self):
        got = sum_via_fourier("1/(k^2+1)", 3, tol=1e-8)
        assert "lorentzian" in got.diagnostics.notes["pair"]
        assert got.diagnostics.nodes > 0

    @pytest.mark.parametrize("text", ["(-1)^0.5/(k^2+1)",
                                      "(-1)^0.5/(k^2+1) + exp(-0.3*k^2)"])
    def test_complex_weight_is_not_flagged(self, text):
        """An imaginary part is the weight's share of the sum, not a
        residual: the record stays unflagged and covers the oracle."""
        oracle, rec = cli.run(text, 10, method="fourier")["results"]
        assert rec["method"] == "fourier" and not rec["flags"]
        assert rec["diagnostics"]["notes"]["imag_residual"] > 0.9
        assert rec["abs_err_vs_oracle"] <= rec["error_estimate"]

    def test_rejects_bad_length(self):
        with pytest.raises(PreconditionError):
            sum_via_fourier("exp(-k^2)", 0)


def _lorentzian_sum(mpmath, c, b, alpha, n):
    """Sigma_{k=1}^{n} c/((alpha k)^2 + b) at 40 digits, in closed form:
    with a = sqrt(b)/alpha, 1/(k^2 + a^2) = -Im[1/(k + i a)]/a and
    Sigma_{k=1}^{n} 1/(k + z) = psi(n + 1 + z) - psi(1 + z)."""
    with mpmath.workdps(40):
        c, b, alpha = mpmath.mpf(c), mpmath.mpf(b), mpmath.mpf(alpha)
        a = mpmath.sqrt(b) / alpha
        psi = mpmath.digamma(n + 1 + 1j * a) - mpmath.digamma(1 + 1j * a)
        return -c / alpha ** 2 * mpmath.im(psi) / a


def _gaussian_sum(mpmath, c, b, alpha, n):
    """Sigma_{k=1}^{n} c exp(-b (alpha k)^2) at 40 digits; the terms past
    exp(-240) are below the working precision and are dropped."""
    with mpmath.workdps(40):
        c, rate = mpmath.mpf(c), mpmath.mpf(b) * mpmath.mpf(alpha) ** 2
        last = min(n, math.ceil(math.sqrt(240.0 / float(rate))))
        return c * mpmath.fsum(mpmath.exp(-rate * k * k) for k in range(1, last + 1))


class TestLevinCoverage:
    """Every record covers its deviation from a closed-form reference at
    every N from 1 to 10^6, for both scales alpha, and the evaluation count
    is the same at every N: neither the degrees nor the estimate depend on
    N."""

    # (text, [(family, c, b)]): c/(k^2+b) and c*exp(-b*k^2)
    FAMILIES = {
        "lorentzian": ("1/(k^2+1)", [("lorentz", 1.0, 1.0)]),
        "lorentzian-scaled": ("0.8/(k^2+2.5)", [("lorentz", 0.8, 2.5)]),
        "narrow-lorentzian": ("1/(k^2+0.01)", [("lorentz", 1.0, 0.01)]),
        "gaussian": ("exp(-k^2)", [("gauss", 1.0, 1.0)]),
        "gaussian-scaled": ("1.3*exp(-0.2*k^2)", [("gauss", 1.3, 0.2)]),
        "wide-gaussian": ("exp(-0.02*k^2)", [("gauss", 1.0, 0.02)]),
        "combination": ("1.5*exp(-0.2*k^2) + 2/(k^2+0.25)",
                        [("gauss", 1.5, 0.2), ("lorentz", 2.0, 0.25)]),
    }
    SIZES = (1, 2, 5, 10 ** 3, 10 ** 5, 10 ** 6)

    @pytest.mark.parametrize("alpha", [1.0, 0.53])
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_covered_at_every_n(self, family, alpha):
        mpmath = pytest.importorskip("mpmath")
        text, terms = self.FAMILIES[family]
        counts = []
        for n in self.SIZES:
            rec = cli.run(text, n, method="fourier", alpha=alpha, tol=1e-10)["results"][1]
            assert rec["flags"] == [], (n, rec["flags"])
            want = mpmath.fsum((_lorentzian_sum if kind == "lorentz" else _gaussian_sum)(
                mpmath, c, b, alpha, n) for kind, c, b in terms)
            dev = abs(complex(rec["value"]["re"], rec["value"]["im"]) - complex(want))
            assert dev <= rec["error_estimate"], (n, dev, rec["error_estimate"])
            counts.append(rec["diagnostics"]["nodes"])
        assert len(set(counts)) == 1, counts


def _load_referee():
    """perfbench/referee.py as a module: mpmath alone, independent of finsum."""
    pytest.importorskip("mpmath")
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "referee.py"
    spec = importlib.util.spec_from_file_location("perfbench_referee", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRefereeCorpus:
    """Every unflagged fourier record covers its deviation from a 50-digit
    referee, and a real summand gives an imaginary part of exactly 0."""

    EXPRS = ("1.3*exp(-0.2*k^2)", "0.8/(k^2+2.5)",
             "1.5*exp(-0.2*k^2) + 2/(k^2+0.25)", "1/(k^2+0.01)")

    @pytest.mark.parametrize("text", EXPRS)
    def test_records_cover_the_referee(self, text):
        referee = _load_referee()
        mpmath = pytest.importorskip("mpmath")
        uncovered = []
        for n, alpha in itertools.product((1, 2, 3, 48, 201, 400, 30_000), (1.0, 0.7299)):
            want = referee.series(text, n, alpha)
            for tol in (1e-8, 1e-12):
                rec = cli.run(text, n, method="fourier", alpha=alpha, tol=tol)["results"][1]
                assert rec["method"] == "fourier" and "error" not in rec
                assert rec["value"]["im"] == 0.0
                if rec["flags"]:
                    continue
                with mpmath.workdps(referee.DPS):
                    dev = float(abs(mpmath.mpf(rec["value"]["re"]) - want))
                if dev > rec["error_estimate"]:
                    uncovered.append((n, alpha, tol, dev, rec["error_estimate"]))
        assert not uncovered
