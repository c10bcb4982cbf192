"""The numpy grid primitives: the compensated sum against math.fsum, the
kernel at its removable point, one end-to-end run through them, and which
requests reach the grid factors."""

import math
from fractions import Fraction

import numpy as np
import pytest

import finsum
from finsum import backend, cli, quadrature
from finsum.fourier import dirichlet_factor
from finsum.series import SeriesSpec, Variant

_EPS = 2.220446049250313e-16


def _fsum(x):
    x = np.asarray(x, dtype=np.complex128)
    return complex(math.fsum(x.real.tolist()), math.fsum(x.imag.tolist()))


def _ill_conditioned(rng, n):
    """Terms spanning 16 decades with heavy cancellation between them."""
    mags = 10.0 ** rng.integers(-8, 8, n)
    return (rng.standard_normal(n) * mags + 1j * rng.standard_normal(n) * mags[::-1])


class TestNeumaierSum:
    @pytest.mark.parametrize("n", [0, 1, 7, 1024, backend._FSUM_MAX])
    def test_equals_fsum_up_to_lane_width(self, n):
        x = _ill_conditioned(np.random.default_rng(13 + n), n)
        assert backend.neumaier_sum(x) == _fsum(x)

    @pytest.mark.parametrize("n", [1025, 2048, backend._FSUM_MAX + 1, 3067, 100_000])
    def test_within_accumulation_bound_beyond_lane_width(self, n):
        for seed in range(5):
            x = _ill_conditioned(np.random.default_rng(seed), n)
            got, ref = backend.neumaier_sum(x), _fsum(x)
            bound = 2.0 * _EPS * float(np.sum(np.abs(x)))
            assert abs(got.real - ref.real) <= bound
            assert abs(got.imag - ref.imag) <= bound

    @pytest.mark.parametrize("reps", [1, 1024])
    def test_compensation_beats_naive_accumulation(self, reps):
        """[1e16, 1, -1e16, 1] sums to 2 only with the low parts kept, short
        and tiled past the fsum path."""
        x = np.tile(np.array([1e16, 1.0, -1e16, 1.0], dtype=np.complex128), reps)
        assert backend.neumaier_sum(x) == 2.0 * reps
        assert backend.neumaier_sum(1j * x) == 2j * reps


class TestNeumaierSumReal:
    """A float64 array is one component: the same sum as its real part taken
    as complex, in one fsum up to _FSUM_MAX terms."""

    @staticmethod
    def _wide(rng, n):
        return rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)

    @pytest.mark.parametrize("n", [0, 1, 7, 1024, backend._FSUM_MAX])
    def test_equals_fsum_up_to_lane_width(self, n):
        x = self._wide(np.random.default_rng(31 + n), n)
        got = backend.neumaier_sum(x)
        assert got == math.fsum(x.tolist())
        assert got.imag == 0.0

    @pytest.mark.parametrize("n", [1025, backend._FSUM_MAX + 1, 100_000])
    def test_within_accumulation_bound_beyond_lane_width(self, n):
        for seed in range(5):
            x = self._wide(np.random.default_rng(seed), n)
            got = backend.neumaier_sum(x)
            assert abs(got.real - math.fsum(x.tolist())) <= 2.0 * _EPS * float(np.sum(np.abs(x)))
            assert got.imag == 0.0

    @pytest.mark.parametrize("n", [1, 7, 1024, 1025, backend._FSUM_MAX,
                                   backend._FSUM_MAX + 1, 3067, 100_000])
    def test_equals_the_complex_sum_of_the_same_terms(self, n):
        x = self._wide(np.random.default_rng(7 * n), n)
        assert backend.neumaier_sum(x) == backend.neumaier_sum(x + 0j)


class TestExtraction:
    """Past _FSUM_MAX terms each component is one error-free extraction:
    within one ulp of the exact sum, and exact on the edge cases."""

    @staticmethod
    def _assert_within_ulp(got, x):
        for part, comp in ((got.real, x.real), (got.imag, np.imag(x))):
            exact = sum(map(Fraction, comp.tolist()), Fraction(0))
            assert abs(Fraction(part) - exact) <= math.ulp(float(exact))

    @pytest.mark.parametrize("n", [2049, 100_000])
    @pytest.mark.parametrize("seed", range(3))
    def test_ill_conditioned_within_one_ulp(self, n, seed):
        x = _ill_conditioned(np.random.default_rng(seed), n)
        self._assert_within_ulp(backend.neumaier_sum(x), x)
        self._assert_within_ulp(backend.neumaier_sum(x.real), x.real)

    @pytest.mark.parametrize("n", [2049, 100_000])
    def test_decaying_terms_within_one_ulp(self, n):
        k = np.arange(1, n + 1, dtype=np.float64)
        x = np.cos(1.1 * k) / k ** 1.5
        self._assert_within_ulp(backend.neumaier_sum(x), x)
        z = x * np.exp(0.3j * k)
        self._assert_within_ulp(backend.neumaier_sum(z), z)

    def test_all_zeros(self):
        assert backend.neumaier_sum(np.zeros(3000)) == 0.0
        assert backend.neumaier_sum(np.zeros(3000, dtype=np.complex128)) == 0j

    def test_subnormal_terms_are_exact(self):
        x = np.full(3000, 5e-324)
        x[::3] = -2.5e-322
        got = backend.neumaier_sum(x)
        assert got.real == float(sum(map(Fraction, x.tolist()), Fraction(0)))
        assert got.real != 0.0

    def test_huge_magnitudes_take_the_scaled_path(self):
        """sum |x| >= 2^1020: the terms are scaled by 2^-64 and back."""
        x = np.full(4000, 2.0 ** 1012)
        x[1::2] = -(2.0 ** 1012) + 2.0 ** 960
        assert float(np.sum(np.abs(x))) >= 2.0 ** 1020
        assert backend.neumaier_sum(x) == 2000 * 2.0 ** 960
        self._assert_within_ulp(backend.neumaier_sum(x * (1.0 + 0.5j)), x * (1.0 + 0.5j))

    def test_zero_imaginary_part_gives_exact_zero(self):
        x = _ill_conditioned(np.random.default_rng(5), 5000).real + 0j
        got = backend.neumaier_sum(x)
        assert math.copysign(1.0, got.imag) == 1.0 and got.imag == 0.0
        assert got.real == backend.neumaier_sum(x.real).real


def test_phi_grid_includes_origin():
    """t = 0 is the removable point: Phi(0) = N, by the power-sum series."""
    out = backend.phi_grid(np.array([0.0, 1e-12, 0.5]), SeriesSpec(None, 7))
    assert out[0] == pytest.approx(7.0, rel=1e-14)
    assert out[1] == pytest.approx(7.0, rel=1e-10)
    assert out[2] == pytest.approx(sum(math.exp(-0.5 * k) for k in range(1, 8)),
                                   rel=1e-14)


def test_active_backend_is_pure():
    assert finsum.active_backend() == "pure"


class TestEndToEndOnPure:
    """A spot check that the whole stack works, not just the primitives."""

    def test_cli_run_on_pure_backend(self):
        from finsum import cli
        report = cli.run("1/k", 5, method="laplace")
        lap = [r for r in report["results"] if r["method"] == "laplace"][0]
        assert lap["abs_err_vs_oracle"] <= 1e-10
        assert not lap["flags"]


def _phi_reference(mp, t, n, variant, alpha, beta):
    """The variant comb summed term by term in mpmath."""
    w = mp.mpc(alpha) * t + (mp.mpc(beta) if variant.is_exp_factor else 0)
    sign = (lambda k: (-1) ** (k + 1)) if variant.is_alternating else (lambda k: 1)
    total = mp.fsum(sign(k) * mp.exp(-w * k) for k in range(1, n + 1))
    if variant.is_shifted:
        total *= mp.exp(-mp.mpc(beta) * t)
    return total


def _check_phi_tail(variant, n, alpha, beta):
    """Phi(t) to relative 1e-13 for t up to 700/Re(alpha), where it falls
    to about 1e-304.  Points whose true value is below the normal double
    range, reached on the shifted variants, carry no relative accuracy and
    are skipped."""
    mp = pytest.importorskip("mpmath")
    ts = np.concatenate([np.geomspace(1e-9, 700.0 / alpha.real, 36),
                         np.linspace(1.0, 700.0 / alpha.real, 16)])
    got = backend.phi_grid(ts, SeriesSpec(None, n, alpha, variant, beta))
    # the oracle's rule: a beta the variant ignores does not count
    uses_beta = variant.is_shifted or variant.is_exp_factor
    real = alpha.imag == 0.0 and not (uses_beta and beta.imag != 0.0)
    assert got.dtype == (np.float64 if real else np.complex128)
    checked = 0
    with mp.workdps(30):
        for t, value in zip(ts.tolist(), got.tolist()):
            want = _phi_reference(mp, mp.mpf(t), n, variant, alpha, beta)
            if abs(want) < 1e-300:
                continue
            checked += 1
            assert float(abs(mp.mpc(value) - want) / abs(want)) <= 1e-13, (t, value)
    assert checked >= 36


# ids number the variants in declaration order
@pytest.mark.parametrize("variant", list(Variant), ids=range(len(Variant)))
@pytest.mark.parametrize("n", [10, 210])
def test_phi_grid_keeps_relative_accuracy_on_the_tail(variant, n):
    """The complex128 comb, at complex alpha and beta."""
    _check_phi_tail(variant, n, 0.569 + 0.2j, 0.5 + 0.3j)


@pytest.mark.parametrize("variant", list(Variant), ids=range(len(Variant)))
@pytest.mark.parametrize("n", [10, 210])
def test_phi_grid_keeps_relative_accuracy_on_the_tail_in_float64(variant, n):
    """The float64 comb, at real alpha and beta: the lattice of the
    pinned reproducer below."""
    _check_phi_tail(variant, n, 0.569 + 0j, 0.5 + 0j)


@pytest.mark.parametrize("variant", list(Variant), ids=range(len(Variant)))
def test_phi_grid_keeps_relative_accuracy_at_a_complex_beta_on_a_real_alpha(variant):
    """float64 on the variants that ignore beta, complex128 on the rest."""
    _check_phi_tail(variant, 10, 0.569 + 0j, 0.5 + 0.3j)


def test_pinned_tail_reproducer_converges():
    """An exp-factor-alternating laplace request that needs Phi's tail to
    full relative accuracy: with a noisy tail the quadrature splits panels
    until it exhausts its 10^6-node budget."""
    report = cli.run("1.6568/k^3.1948+1.6568/(k^2+7.8613)", 210, method="laplace",
                     alpha=0.569, variant="exp-factor-alternating", beta=0.5, tol=1e-12)
    lap = report["results"][1]
    assert lap["method"] == "laplace"
    assert not lap["flags"]
    assert lap["diagnostics"]["nodes"] < 2000
    assert lap["abs_err_vs_oracle"] <= max(lap["error_estimate"], 1e-12)


class TestGridHooks:
    """``backend.phi_grid`` and ``backend.dirichlet_grid`` are looked up at
    call time, so a counting wrapper installed on the module attribute sees
    every call.  ``phi_grid`` is reached only with grids; ``dirichlet_grid``
    only from ``fourier.dirichlet_factor``, since the fourier route
    integrates by a Levin rule that never evaluates the lattice factor."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        inner = getattr(backend, name)

        def wrapper(grid, *args):
            calls.append(grid)
            return inner(grid, *args)

        monkeypatch.setattr(backend, name, wrapper)
        return calls

    def test_smooth_laplace_request_calls_phi_grid_with_arrays(self, monkeypatch):
        calls = self._count(monkeypatch, "phi_grid")
        cli.run("1/(k^2+1)", 10, method="laplace")
        assert calls
        assert all(isinstance(t, np.ndarray) and t.size > 1 for t in calls)

    def test_spike_laplace_request_skips_phi_grid(self, monkeypatch):
        calls = self._count(monkeypatch, "phi_grid")
        report = cli.run("sin(1.1*k)", 50, method="laplace")
        assert "error" not in report["results"][1]
        assert calls == []

    def test_fourier_request_skips_the_lattice_factor_and_the_quadrature(self, monkeypatch):
        calls = self._count(monkeypatch, "dirichlet_grid")

        def integrate_finite(*args, **kwargs):
            raise AssertionError("the fourier route called integrate_finite")

        monkeypatch.setattr(quadrature, "integrate_finite", integrate_finite)
        report = cli.run("exp(-0.5*k^2)", 20, method="fourier")
        assert report["results"][1]["flags"] == []
        assert calls == []

    def test_dirichlet_factor_calls_dirichlet_grid(self, monkeypatch):
        calls = self._count(monkeypatch, "dirichlet_grid")
        dirichlet_factor(1.3, 9)
        assert len(calls) == 1
