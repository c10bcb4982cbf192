"""Integral-representation engine tests.

The contract under test: for every supported variant, summing the kernel
against the summation factor reproduces the weighted direct sum.  Spike
kernels must come out at closed-form accuracy; smooth kernels within the
quadrature estimate.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from finsum import cli, quadrature
from finsum.errors import CapabilityError, PoleError, PreconditionError
from finsum.expr import as_function, parse_expression
from finsum.kernels import Kernel, SmoothTerm, recognize_pair
from finsum.laplace import (delta_type_b, phi, phi_derivative, sum_via_integral,
                            type_b_sum, zeta_expansion_sum)
from finsum.series import SeriesSpec, Variant, direct_sum


def _phi_loop(spec, t):
    """Reference summation factor straight from its definition."""
    total = 0j
    for k in range(1, spec.n_terms + 1):
        w = 1.0 + 0j
        if spec.variant.is_alternating and k % 2 == 0:
            w = -w
        if spec.variant.is_exp_factor:
            w *= cmath.exp(-spec.beta * k)
        arg = spec.alpha * k
        if spec.variant.is_shifted:
            arg += spec.beta
        total += w * cmath.exp(-arg * t)
    return total


class TestSummationFactor:
    @pytest.mark.parametrize("variant,beta,n", [
        (Variant.STANDARD, 0j, 7),
        (Variant.ALTERNATING, 0j, 8),
        (Variant.SHIFTED, 0.6 + 0j, 5),
        (Variant.SHIFTED_ALTERNATING, 0.6 + 0j, 6),
        (Variant.EXP_FACTOR, 0.9 + 0j, 5),
        (Variant.EXP_FACTOR_ALTERNATING, 0.9 + 0j, 4),
        (Variant.SHIFTED, -0.5 + 0j, 5),
        (Variant.SHIFTED_ALTERNATING, -0.5 + 0j, 6),
    ])
    def test_matches_definition(self, variant, beta, n):
        spec = SeriesSpec(None, n, 1.3 + 0j, variant, beta)
        for t in (0.0, 0.2, 1.0, 3.5, 0.5 + 0.25j):
            assert phi(spec, t) == pytest.approx(_phi_loop(spec, t),
                                                 rel=1e-13, abs=1e-13)

    def test_removable_point_at_zero(self):
        spec = SeriesSpec(None, 12, 2.0 + 0j)
        assert phi(spec, 0.0) == pytest.approx(12.0, rel=1e-15)

    def test_derivative_against_central_differences(self):
        spec = SeriesSpec(None, 6)
        h = 1e-5
        for t in (0.4, 1.1, 2.7):
            fd = (phi(spec, t + h) - phi(spec, t - h)) / (2 * h)
            assert phi_derivative(spec, t, 1) == pytest.approx(fd, rel=1e-8)
            fd2 = (phi(spec, t + h) - 2 * phi(spec, t) + phi(spec, t - h)) / h**2
            assert phi_derivative(spec, t, 2) == pytest.approx(fd2, rel=1e-5)

    def test_derivative_order_is_bounded(self):
        spec = SeriesSpec(None, 6)
        with pytest.raises(PreconditionError):
            phi_derivative(spec, 1.0, 0)
        with pytest.raises(PreconditionError):
            phi_derivative(spec, 1.0, 5)

    def test_constructor_rejects_bad_parameters(self):
        with pytest.raises(PreconditionError):
            SeriesSpec(None, 5, -1.0 + 0j)
        with pytest.raises(PreconditionError):
            SeriesSpec(None, 5, 1.0 + 0j, Variant.ALTERNATING)  # odd N
        with pytest.raises(PreconditionError):
            SeriesSpec(None, 4, 1.0 + 0j, Variant.EXP_FACTOR, -0.2 + 0j)


class TestSmoothSummands:
    def test_harmonic_numbers(self):
        """Sigma 1/k must hit the exact rational H_N to 1e-10 absolute."""
        rec = recognize_pair("1/k")
        for n in (1, 2, 3, 5, 10, 37, 100):
            spec = SeriesSpec(lambda x: 1.0 / x, n)
            got = sum_via_integral(spec, rec, tol=1e-12)
            h_n = float(sum(Fraction(1, k) for k in range(1, n + 1)))
            assert got.value.real == pytest.approx(h_n, abs=1e-10)
            assert abs(got.value.imag) < 1e-12
            assert got.diagnostics.nodes > 0

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_lorentzian(self, a, n):
        rec = recognize_pair(f"{a}/(k^2+{a * a})")
        spec = SeriesSpec(lambda x: a / (x * x + a * a), n)
        got = sum_via_integral(spec, rec, tol=1e-12)
        want = direct_sum(spec).value
        assert abs(got.value - want) <= 1e-9 * abs(want)

    def test_inverse_square(self):
        rec = recognize_pair("1/k^2")
        spec = SeriesSpec(lambda x: x**-2.0, 40)
        got = sum_via_integral(spec, rec, tol=1e-12)
        want = direct_sum(spec).value
        assert abs(got.value - want) <= 1e-10 * abs(want)

    def test_mixed_smooth_and_spike(self):
        rec = recognize_pair("1/k + exp(-k)")
        spec = SeriesSpec(lambda x: 1.0 / x + cmath.exp(-x), 12)
        got = sum_via_integral(spec, rec, tol=1e-12)
        want = direct_sum(spec).value
        assert abs(got.value - want) <= 1e-10 * abs(want)

    def test_error_estimate_is_honest(self):
        rec = recognize_pair("1/(k^2+1)")
        spec = SeriesSpec(lambda x: 1.0 / (x * x + 1.0), 10)
        got = sum_via_integral(spec, rec, tol=1e-10)
        want = direct_sum(spec).value
        assert abs(got.value - want) <= max(got.error_estimate, 1e-12)


def _mp_series(g, n, alpha, variant, beta=0.0):
    """Sigma_k w_k g(alpha*k) in mpmath at 40 digits; g takes an mpf."""
    mpmath = pytest.importorskip("mpmath")
    variant = Variant(variant)
    with mpmath.workdps(40):
        al, be = mpmath.mpf(alpha), mpmath.mpf(beta)
        total = mpmath.mpf(0)
        for k in range(1, n + 1):
            term = g(al * k + (be if variant.is_shifted else 0))
            if variant.is_exp_factor:
                term *= mpmath.exp(-be * k)
            total += -term if variant.is_alternating and k % 2 == 0 else term
        return total


class TestInitialMesh:
    """The breakpoint ladder puts the factor's knee and a power density's
    endpoint scale on the initial mesh.  Literals are read as the exact
    doubles the program receives."""

    @staticmethod
    def _check(text, g, n, alpha, variant, beta, tol):
        rec = cli.run(text, n, method="laplace", alpha=alpha, variant=variant,
                      beta=beta, tol=tol)["results"][1]
        want = _mp_series(g, n, alpha, variant, beta)
        dev = float(abs(complex(rec["value"]["re"], rec["value"]["im"]) - want))
        assert rec["flags"] == []
        assert dev <= rec["error_estimate"]
        return rec

    def test_knee_of_the_alternating_factor(self):
        """The first panel t in [0, 1/3] used to miss the knee at t ~ 1/(alpha N)
        = 0.0019: deviation 2.5e-8 against an estimate of 8.0e-9."""
        mpf = pytest.importorskip("mpmath").mpf
        self._check("0.6854/(k^2+3.9709)", lambda x: mpf(0.6854) / (x * x + mpf(3.9709)),
                    334, 1.5944, "alternating", 0.0, 1e-8)

    def test_power_plus_lorentzian_exp_factor(self):
        """Deviation 1.0e-9 against an estimate of 9.9e-11 on the default mesh,
        where Gauss and Kronrod agree by aliasing on a panel of 56 periods."""
        mpf = pytest.importorskip("mpmath").mpf
        self._check("0.6672/k^2.8975+0.6672/(k^2+8.982)",
                    lambda x: mpf(0.6672) / x ** mpf(2.8975) + mpf(0.6672) / (x * x + mpf(8.982)),
                    46, 0.5903, "exp-factor-alternating", 0.6693, 1e-10)

    @pytest.mark.parametrize("n", [100, 10_000])
    def test_inverse_square_root(self, n):
        """t^(-1/2) is graded down to (tol/N)^2; it was flagged non-converged."""
        mpmath = pytest.importorskip("mpmath")
        rec = self._check("1/k^0.5", lambda x: 1 / mpmath.sqrt(x), n, 1.0, "standard", 0.0, 1e-10)
        assert rec["diagnostics"]["nodes"] < 5_000

    def test_two_periods_per_panel(self):
        """With rungs on the decay length alone, the panel t in [341.7, 410.1]
        held 31 periods of sin(2.81 t), where Gauss and Kronrod agree by
        aliasing: deviation 3.0e-8 against an estimate of 9.7e-9."""
        mpf = pytest.importorskip("mpmath").mpf
        self._check("1.6/k^3.2+1.6/(k^2+7.9)",
                    lambda x: mpf(1.6) / x ** mpf(3.2) + mpf(1.6) / (x * x + mpf(7.9)),
                    10, 0.05, "standard", 0.0, 1e-8)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
    def test_fast_lorentzian_shifted_alternating(self, beta):
        """sin(8 t)/8 against the shifted alternating factor: half-period
        breakpoints were reported to leave this record uncovered."""
        mpf = pytest.importorskip("mpmath").mpf
        self._check("0.7/(k^2+64)", lambda x: mpf(0.7) / (x * x + 64),
                    46, 0.5, "shifted-alternating", beta, 1e-8)

    _CORPUS = (("1.2/(k^2+1)", lambda x, mpf: mpf(1.2) / (x * x + 1)),
               ("k/(k^2+2.25)", lambda x, mpf: x / (x * x + mpf(2.25))),
               ("0.9/k^3.5", lambda x, mpf: mpf(0.9) / x ** mpf(3.5)),
               ("1.6/k^3.2+1.6/(k^2+7.9)",
                lambda x, mpf: mpf(1.6) / x ** mpf(3.2) + mpf(1.6) / (x * x + mpf(7.9))))

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 2.0, 7.0])
    @pytest.mark.parametrize("text, g", _CORPUS, ids=[t for t, _ in _CORPUS])
    def test_corpus(self, text, g, alpha):
        """Sixteen records per summand and alpha: four variants, N in
        {10, 100}, tol 1e-8 and 1e-12; every one unflagged and covered."""
        mpf = pytest.importorskip("mpmath").mpf
        for variant, beta in (("standard", 0.0), ("alternating", 0.0),
                              ("shifted-alternating", 0.4), ("exp-factor", 0.4)):
            for n in (10, 100):
                for tol in (1e-8, 1e-12):
                    self._check(text, lambda x: g(x, mpf), n, alpha, variant, beta, tol)


# quad-heavy-like laplace requests: (summand, N, alpha, variant, beta, tol)
_ROUND_REQUESTS = (
    ("1.3/k^2.4", 37, 0.7, "standard", 0.0, 1e-8),
    ("0.9/(k^2+2.1)", 120, 1.4, "alternating", 0.0, 1e-10),
    ("1.6/k^3.2+1.6/(k^2+7.9)", 210, 0.57, "shifted", 0.5, 1e-8),
    ("1.1/k^1.3", 400, 1.9, "shifted-alternating", 0.3, 1e-10),
    ("0.7/(k^2+0.36)", 12, 0.5, "exp-factor", 0.8, 1e-8),
    ("1.2/k^1.9+1.2/(k^2+6.9)", 286, 0.87, "exp-factor-alternating", 0.6, 1e-10),
    ("1.7/k^3.4", 150, 1.2, "exp-factor", 0.2, 1e-10),
    ("1.5/(k^2+5.8)", 64, 0.6, "shifted-alternating", 0.9, 1e-8),
    ("0.8/k^2.1+0.8/(k^2+1.2)", 18, 2.0, "alternating", 0.0, 1e-10),
    ("1.9/(k^2+8.7)", 330, 0.8, "standard", 0.0, 1e-10),
    ("0.6/k^1.6+0.6/(k^2+3.3)", 90, 1.1, "exp-factor-alternating", 0.3, 1e-8),
    ("1.0/k^2.9", 250, 0.5, "shifted", 0.7, 1e-8),
)


def test_laplace_integrals_converge_on_the_initial_mesh(monkeypatch):
    """A ratchet on the breakpoint ladder: integrand rounds (one batched
    call each) per integral average at most 1.5 and never exceed 3.  Rungs
    below t = 1 alone took a mean of 3.75 and up to 5 on these requests."""
    rounds = []
    panels = quadrature._gk_panels

    def counted_panels(f, a, b, clamp):
        rounds[-1] += 1
        return panels(f, a, b, clamp)

    monkeypatch.setattr(quadrature, "_gk_panels", counted_panels)
    for text, n, alpha, variant, beta, tol in _ROUND_REQUESTS:
        rec = recognize_pair(text)
        rounds.append(0)
        g = as_function(parse_expression(text))
        got = sum_via_integral(SeriesSpec(g, n, alpha, variant, beta), rec, tol)
        assert got.diagnostics.converged, text
    assert sum(rounds) / len(rounds) <= 1.5, rounds
    assert max(rounds) <= 3, rounds


class TestSpikeSummands:
    def test_geometric_is_closed_form(self):
        """Pure spikes bypass quadrature entirely and land at ~1e-15."""
        rec = recognize_pair("exp(-0.7*k)")
        for n in (1, 2, 5, 10, 50):
            spec = SeriesSpec(lambda x: cmath.exp(-0.7 * x), n)
            got = sum_via_integral(spec, rec)
            want = math.fsum(math.exp(-0.7 * k) for k in range(1, n + 1))
            assert abs(got.value - want) <= 1e-13 * abs(want)
            assert got.diagnostics.nodes == 0  # no quadrature nodes

    def test_damped_cosine(self):
        rec = recognize_pair("exp(-0.4*k)*cos(2*k)")
        for n in (1, 3, 10, 40):
            spec = SeriesSpec(lambda x: cmath.exp(-0.4 * x) * cmath.cos(2 * x), n)
            got = sum_via_integral(spec, rec)
            want = direct_sum(spec).value
            assert abs(got.value - want) <= 1e-13 * max(1.0, abs(want))

    def test_ramp_cosine_uses_factor_derivative(self):
        """k*cos(theta*k) comes through an order-1 spike derivative."""
        rec = recognize_pair("k*cos(2.2*k)")
        for n in (1, 5, 30):
            spec = SeriesSpec(lambda x: x * cmath.cos(2.2 * x), n)
            got = sum_via_integral(spec, rec)
            want = direct_sum(spec).value
            assert abs(got.value - want) <= 1e-11 * max(1.0, abs(want))

    def test_sine(self):
        rec = recognize_pair("sin(1.1*k)")
        spec = SeriesSpec(lambda x: cmath.sin(1.1 * x), 50)
        got = sum_via_integral(spec, rec)
        want = direct_sum(spec).value
        assert abs(got.value - want) <= 1e-12
        assert abs(got.value.imag) < 1e-13  # conjugate spikes cancel


class TestVariantEquivalence:
    """Each variant's integral value must match its weighted direct sum."""

    GRIDS = {
        Variant.ALTERNATING: ((2, 0j), (4, 0j), (10, 0j)),
        Variant.SHIFTED: ((1, 0.7 + 0j), (3, 0.7 + 0j), (10, 1.4 + 0j)),
        Variant.SHIFTED_ALTERNATING: ((2, 0.7 + 0j), (4, 0.7 + 0j),
                                      (10, 1.4 + 0j)),
        Variant.EXP_FACTOR: ((1, 0.9 + 0j), (3, 0.9 + 0j), (10, 0.4 + 0j)),
        Variant.EXP_FACTOR_ALTERNATING: ((2, 0.9 + 0j), (4, 0.9 + 0j),
                                         (10, 0.4 + 0j)),
    }

    @pytest.mark.parametrize("variant", list(GRIDS))
    def test_spike_summand(self, variant):
        rec = recognize_pair("exp(-0.5*k)")
        for n, beta in self.GRIDS[variant]:
            spec = SeriesSpec(lambda x: cmath.exp(-0.5 * x), n,
                              variant=variant, beta=beta)
            got = sum_via_integral(spec, rec)
            want = direct_sum(spec).value
            assert abs(got.value - want) <= 1e-12 * max(1.0, abs(want)), \
                (variant, n)

    @pytest.mark.parametrize("variant", list(GRIDS))
    def test_smooth_summand(self, variant):
        rec = recognize_pair("1/(k^2+1)")
        for n, beta in self.GRIDS[variant]:
            spec = SeriesSpec(lambda x: 1.0 / (x * x + 1.0), n,
                              variant=variant, beta=beta)
            got = sum_via_integral(spec, rec, tol=1e-13)
            want = direct_sum(spec).value
            assert abs(got.value - want) <= 1e-12 * max(1.0, abs(want)), \
                (variant, n)

    def test_alternating_rejects_odd_length(self):
        with pytest.raises(PreconditionError, match="even"):
            SeriesSpec(lambda x: 1.0 / x, 5, variant=Variant.ALTERNATING)

    def test_scaled_lattice(self):
        """alpha != 1 reaches the engine through the factor, not the kernel."""
        rec = recognize_pair("exp(-0.5*k)")
        spec = SeriesSpec(lambda x: cmath.exp(-0.5 * x), 8, alpha=1.7 + 0j)
        got = sum_via_integral(spec, rec)
        want = math.fsum(math.exp(-0.5 * 1.7 * k) for k in range(1, 9))
        assert got.value.real == pytest.approx(want, rel=1e-13)


class TestPoleDetection:
    def test_spike_on_nonalternating_pole(self):
        """A spike at 2*pi*i sits on a factor pole and must be refused."""
        rec = recognize_pair(f"sin({2 * math.pi}*k)")
        spec = SeriesSpec(lambda x: cmath.sin(2 * math.pi * x), 4)
        with pytest.raises(PoleError) as err:
            sum_via_integral(spec, rec)
        assert err.value.pole is not None
        assert abs(abs(err.value.pole) - 2 * math.pi) < 1e-9

    def test_spike_on_alternating_pole(self):
        rec = recognize_pair(f"sin({math.pi}*k)")
        spec = SeriesSpec(lambda x: cmath.sin(math.pi * x), 4,
                          variant=Variant.ALTERNATING)
        with pytest.raises(PoleError):
            sum_via_integral(spec, rec)

    def test_alternating_factor_clears_nonalternating_pole(self):
        """The alternating denominator has no zero at 2*pi*i."""
        theta = 2 * math.pi
        rec = recognize_pair(f"sin({theta}*k)")
        spec = SeriesSpec(lambda x: cmath.sin(theta * x), 4,
                          variant=Variant.ALTERNATING)
        got = sum_via_integral(spec, rec)
        want = direct_sum(spec).value
        assert abs(got.value - want) <= 1e-11

    @pytest.mark.parametrize("n", [10**11, 10**12])
    def test_no_pole_at_the_removable_point_for_large_n(self, n):
        """The ladder reaches t ~ 1/(4N), where the comb denominator
        expm1(-t) fell below the absolute pole threshold 1e-12: PoleError
        named a pole at z ~ -1e-13 on the real axis."""
        mpmath = pytest.importorskip("mpmath")
        rec = recognize_pair("1/k^2")
        got = sum_via_integral(SeriesSpec(as_function(parse_expression("1/k^2")), n), rec,
                               tol=1e-10)
        with mpmath.workdps(40):
            want = mpmath.zeta(2) - mpmath.zeta(2, n + 1)
            dev = float(abs(mpmath.mpc(got.value.real, got.value.imag) - want))
        assert got.diagnostics.converged
        assert dev <= got.error_estimate

    def test_growth_must_stay_below_factor_decay(self):
        grow = Kernel(smooth=(SmoothTerm(fn=lambda t: np.exp(1.5 * t),
                                         growth_bound=1.5, label="hot"),))
        spec = SeriesSpec(lambda x: 1.0, 5)
        with pytest.raises(PreconditionError, match="grows"):
            sum_via_integral(spec, grow, tol=1e-8)

    def test_shift_that_stops_the_decay_is_named(self):
        """alpha + Re(beta) <= 0: the factor does not decay at all, and the
        message says so rather than "decays like exp(--0.2*t)"."""
        report = cli.run("1/k^2", 10, method="laplace", variant="shifted", beta=-1.2)
        lap = report["results"][1]
        assert lap["method"] == "laplace" and "value" not in lap
        assert lap["error"].endswith(
            "but the summation factor does not decay: Re(alpha + beta) = -0.2")


class TestNegativeShift:
    """-alpha < Re(beta) < 0 on the shifted variants: the factor
    sum exp(-(alpha k + beta) t) still decays, but exp(-beta t) alone
    overflows far out on the half-line, so the shift must stay inside the
    comb's exponential."""

    @pytest.mark.parametrize("text,variant,beta", [
        ("1/k", "shifted", -0.5),
        ("1/k^2", "shifted", -0.9),
        ("1/k", "shifted-alternating", -0.5),
    ])
    def test_request_is_answered_and_covered(self, text, variant, beta):
        report = cli.run(text, 10, method="laplace", variant=variant, beta=beta)
        lap = report["results"][1]
        assert lap["method"] == "laplace" and not lap["flags"]
        g = {"1/k": lambda x: 1 / x, "1/k^2": lambda x: x ** -2}[text]
        want = _mp_series(g, 10, 1.0, variant, beta)
        assert abs(lap["value"]["re"] - float(want)) <= lap["error_estimate"]

    def test_factor_underflows_to_zero_far_out(self):
        assert phi(SeriesSpec(None, 5, 1.3, "shifted", -0.5), 2000.0) == 0


class TestDualSums:
    def _lorentz_kernel(self, a):
        return recognize_pair(f"1/(k^2+{a * a})")

    def test_matches_direct_loop(self):
        """type_b at x sums G(x/k)/k; check against an fsum transcription."""
        a = 1.5
        kern = self._lorentz_kernel(a)
        for x in (0.5, 2.0, 9.0):
            got = type_b_sum(kern, x, 20)
            want = math.fsum(math.sin(a * x / k) / (a * k)
                             for k in range(1, 21))
            assert got.real == pytest.approx(want, rel=1e-13, abs=1e-15)
            assert got.imag == pytest.approx(0.0, abs=1e-15)

    def test_alternating_weights(self):
        a = 1.0
        kern = self._lorentz_kernel(a)
        got = type_b_sum(kern, 3.0, 10, variant=Variant.ALTERNATING)
        want = math.fsum((-1.0) ** (k + 1) * math.sin(3.0 / k) / k
                         for k in range(1, 11))
        assert got.real == pytest.approx(want, rel=1e-13)

    def test_shifted_factor(self):
        a = 1.0
        kern = self._lorentz_kernel(a)
        beta = 0.3
        got = type_b_sum(kern, 2.0, 8, variant=Variant.SHIFTED, beta=beta)
        want = math.fsum(math.exp(beta * 2.0 / k) * math.sin(2.0 / k) / k
                         for k in range(1, 9))
        assert got.real == pytest.approx(want, rel=1e-13)

    def test_exp_factor_weights(self):
        a = 1.0
        kern = self._lorentz_kernel(a)
        beta = 0.6
        got = type_b_sum(kern, 2.0, 8, variant=Variant.EXP_FACTOR, beta=beta)
        want = math.fsum(math.exp(-beta * k) * math.sin(2.0 / k) / k
                         for k in range(1, 9))
        assert got.real == pytest.approx(want, rel=1e-13)

    def test_spike_kernels_are_refused(self):
        kern = recognize_pair("exp(-k)")
        with pytest.raises(CapabilityError, match="delta_type_b"):
            type_b_sum(kern, 1.0, 5)

    def test_domain(self):
        kern = self._lorentz_kernel(1.0)
        with pytest.raises(PreconditionError):
            type_b_sum(kern, 0.0, 5)
        with pytest.raises(PreconditionError):
            type_b_sum(kern, 1.0, 7, variant=Variant.ALTERNATING)  # odd N


class TestSpikeComb:
    def test_round_trip_reproduces_geometric_sum(self):
        """Transforming the comb must recover Sigma exp(-alpha*a*k) exactly."""
        a, n = 0.8, 12
        comb, closed = delta_type_b(a, n)
        assert len(comb.atoms) == n
        assert comb.atoms[0] == (1.0, pytest.approx(a))
        assert comb.atoms[-1] == (1.0, pytest.approx(n * a))
        for alpha in (0.3, 1.0, 2.5, 1.0 + 0.7j):
            via_comb = comb.transform(alpha)
            direct = sum(cmath.exp(-alpha * a * k) for k in range(1, n + 1))
            assert via_comb == pytest.approx(direct, rel=1e-14)
            assert closed(alpha) == pytest.approx(direct, rel=1e-13)

    def test_comb_is_uniform_unit_mass(self):
        comb, _ = delta_type_b(0.5, 6)
        assert all(w == 1.0 for w, _ in comb.atoms)
        locs = [loc for _, loc in comb.atoms]
        np.testing.assert_allclose(np.diff(locs), 0.5, rtol=1e-15)

    def test_comb_validation(self):
        from finsum.laplace import DeltaComb
        with pytest.raises(PreconditionError, match="increasing"):
            DeltaComb(((1.0, 2.0), (1.0, 1.0)))
        with pytest.raises(PreconditionError):
            delta_type_b(-1.0, 5)
        with pytest.raises(PreconditionError):
            delta_type_b(1.0, 0)


class TestZetaExpansionControl:
    """The zeta rewriting is kept as a negative control: it must flag its
    own divergence, and the integral engine must quietly get the same series
    right."""

    def test_unit_parameters_diverge_quickly(self):
        res = zeta_expansion_sum(1.0, 1.0, 10)
        assert res.diagnostics.divergent
        assert "divergent" in res.flags
        assert res.diagnostics.notes["onset_index"] == 7
        assert res.diagnostics.notes["onset_index"] <= 60

    def test_small_width_diverges_a_little_later(self):
        res = zeta_expansion_sum(0.3, 1.0, 5)
        assert res.diagnostics.divergent
        assert res.diagnostics.notes["onset_index"] == 9

    def test_wide_series_diverges_sooner(self):
        res = zeta_expansion_sum(2.0, 1.0, 50)
        assert res.diagnostics.divergent
        assert res.diagnostics.notes["onset_index"] <= 7

    def test_convergent_regime_is_still_wrong(self):
        """Small alpha*N makes the terms decay, but the value it settles on
        is not the sum -- the rewriting fails before convergence does."""
        res = zeta_expansion_sum(1.0, 0.5, 3, max_terms=400)
        assert not res.diagnostics.divergent
        spec = SeriesSpec(lambda x: 1.0 / (x * x + 1.0), 3, alpha=0.5 + 0j)
        honest = direct_sum(spec).value
        assert abs(res.value - honest) > 0.1

    def test_integral_engine_handles_the_same_series(self):
        rec = recognize_pair("1/(k^2+1)")
        spec = SeriesSpec(lambda x: 1.0 / (x * x + 1.0), 10)
        got = sum_via_integral(spec, rec, tol=1e-12)
        want = direct_sum(spec).value
        assert abs(got.value - want) <= 1e-9 * abs(want)

    def test_domain(self):
        with pytest.raises(PreconditionError):
            zeta_expansion_sum(0.0, 1.0, 5)
        with pytest.raises(PreconditionError):
            zeta_expansion_sum(1.0, -1.0, 5)
        with pytest.raises(PreconditionError):
            zeta_expansion_sum(1.0, 1.0, 0)
