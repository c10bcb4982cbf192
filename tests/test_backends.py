"""The numpy grid primitives: the compensated sum against math.fsum, the
kernel at its removable point, and one end-to-end run through them."""

import math

import numpy as np
import pytest

import finsum
from finsum import backend

_EPS = 2.220446049250313e-16


def _fsum(x):
    x = np.asarray(x, dtype=np.complex128)
    return complex(math.fsum(x.real.tolist()), math.fsum(x.imag.tolist()))


def _ill_conditioned(rng, n):
    """Terms spanning 16 decades with heavy cancellation between them."""
    mags = 10.0 ** rng.integers(-8, 8, n)
    return (rng.standard_normal(n) * mags + 1j * rng.standard_normal(n) * mags[::-1])


class TestNeumaierSum:
    @pytest.mark.parametrize("n", [0, 1, 7, backend._LANES])
    def test_equals_fsum_up_to_lane_width(self, n):
        x = _ill_conditioned(np.random.default_rng(13 + n), n)
        assert backend.neumaier_sum(x) == _fsum(x)

    @pytest.mark.parametrize("n", [backend._LANES + 1, 2 * backend._LANES,
                                   3 * backend._LANES - 5, 100_000])
    def test_within_accumulation_bound_beyond_lane_width(self, n):
        for seed in range(5):
            x = _ill_conditioned(np.random.default_rng(seed), n)
            got, ref = backend.neumaier_sum(x), _fsum(x)
            bound = 2.0 * _EPS * float(np.sum(np.abs(x)))
            assert abs(got.real - ref.real) <= bound
            assert abs(got.imag - ref.imag) <= bound

    @pytest.mark.parametrize("reps", [1, backend._LANES])
    def test_compensation_beats_naive_accumulation(self, reps):
        """[1e16, 1, -1e16, 1] sums to 2 only with the carry kept, short
        and tiled past the lane width."""
        x = np.tile(np.array([1e16, 1.0, -1e16, 1.0], dtype=np.complex128), reps)
        assert backend.neumaier_sum(x) == 2.0 * reps
        assert backend.neumaier_sum(1j * x) == 2j * reps


def test_phi_grid_includes_origin():
    """t = 0 is the removable point: Phi(0) = N, by the power-sum series."""
    out = backend.phi_grid(np.array([0.0, 1e-12, 0.5]), 7, 0, 1.0 + 0j, 0j)
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
    w = mp.mpc(alpha) * t + (mp.mpc(beta) if variant >= 4 else 0)
    sign = (lambda k: (-1) ** (k + 1)) if variant in (1, 3, 5) else (lambda k: 1)
    total = mp.fsum(sign(k) * mp.exp(-w * k) for k in range(1, n + 1))
    if variant in (2, 3):
        total *= mp.exp(-mp.mpc(beta) * t)
    return total


@pytest.mark.parametrize("variant", range(6))
@pytest.mark.parametrize("n", [10, 210])
def test_phi_grid_keeps_relative_accuracy_on_the_tail(variant, n):
    """Phi(t) to relative 1e-13 for t up to 700/Re(alpha), where it falls
    to about 1e-304.  Points whose true value is below the normal double
    range, reached on the shifted variants, carry no relative accuracy and
    are skipped."""
    mp = pytest.importorskip("mpmath")
    alpha, beta = 0.569 + 0.2j, 0.5 + 0.3j
    ts = np.concatenate([np.geomspace(1e-9, 700.0 / alpha.real, 36),
                         np.linspace(1.0, 700.0 / alpha.real, 16)])
    got = backend.phi_grid(ts, n, variant, alpha, beta)
    checked = 0
    with mp.workdps(30):
        for t, value in zip(ts.tolist(), got.tolist()):
            want = _phi_reference(mp, mp.mpf(t), n, variant, alpha, beta)
            if abs(want) < 1e-300:
                continue
            checked += 1
            assert float(abs(mp.mpc(value) - want) / abs(want)) <= 1e-13, (t, value)
    assert checked >= 36


def test_pinned_tail_reproducer_converges():
    """An exp-factor-alternating laplace request that needs Phi's tail to
    full relative accuracy: with a noisy tail the quadrature splits panels
    until it exhausts its 10^6-node budget."""
    from finsum import cli
    report = cli.run("1.6568/k^3.1948+1.6568/(k^2+7.8613)", 210, method="laplace",
                     alpha=0.569, variant="exp-factor-alternating", beta=0.5, tol=1e-12)
    lap = report["results"][1]
    assert lap["method"] == "laplace"
    assert not lap["flags"]
    assert lap["diagnostics"]["nodes"] < 2000
    assert lap["abs_err_vs_oracle"] <= max(lap["error_estimate"], 1e-12)
