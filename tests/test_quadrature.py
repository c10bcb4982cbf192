"""Adaptive Gauss-Kronrod quadrature tests against textbook integrals."""

import heapq
import math
import tracemalloc

import numpy as np
import pytest

from finsum import quadrature
from finsum.errors import EvaluationError, PoleError
from finsum.expr import as_function, parse_expression
from finsum.fourier import sum_via_fourier
from finsum.kernels import recognize_pair
from finsum.laplace import sum_via_integral
from finsum.quadrature import integrate_finite, integrate_semi_infinite
from finsum.series import SeriesSpec, Variant


class TestSemiInfinite:
    def test_exponential(self):
        q = integrate_semi_infinite(lambda t: np.exp(-t))
        assert q.converged
        assert complex(q.value) == pytest.approx(1.0, rel=1e-12)
        assert abs(q.value - 1.0) <= max(q.abs_error_estimate, 5e-15)

    def test_lorentzian(self):
        q = integrate_semi_infinite(lambda t: 1.0 / (1.0 + t * t))
        assert complex(q.value) == pytest.approx(math.pi / 2, rel=1e-12)

    def test_gamma_integrand(self):
        """Integral of t^3 e^{-t} = Gamma(4) = 6."""
        q = integrate_semi_infinite(lambda t: t**3 * np.exp(-t))
        assert complex(q.value) == pytest.approx(6.0, rel=1e-12)

    def test_integrable_endpoint_singularity(self):
        """t^{-1/2} e^{-t} integrates to Gamma(1/2) = sqrt(pi)."""
        def f(t):
            t = np.asarray(t, dtype=float)
            return np.where(t > 0, np.exp(-t) / np.sqrt(np.maximum(t, 1e-300)), 0.0)
        q = integrate_semi_infinite(f, tol=1e-10)
        assert complex(q.value) == pytest.approx(math.sqrt(math.pi), rel=1e-8)

    def test_oscillatory_decaying(self):
        """Integral of e^{-t} cos(5t) = 1/26."""
        q = integrate_semi_infinite(lambda t: np.exp(-t) * np.cos(5 * t))
        assert complex(q.value) == pytest.approx(1.0 / 26.0, rel=1e-11)

    def test_complex_valued_integrand(self):
        """Integral of e^{-(1+2i)t} = 1/(1+2i)."""
        q = integrate_semi_infinite(lambda t: np.exp(-(1 + 2j) * t))
        assert complex(q.value) == pytest.approx(1.0 / (1 + 2j), rel=1e-12)

    def test_non_finite_integrand_is_reported(self):
        with pytest.raises(EvaluationError):
            integrate_semi_infinite(lambda t: np.asarray(t) * np.inf)

    def test_error_estimate_is_honest(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            a = float(rng.uniform(0.2, 3.0))
            q = integrate_semi_infinite(lambda t, a=a: np.exp(-a * t))
            assert abs(q.value - 1.0 / a) <= max(q.abs_error_estimate, 1e-13 / a)


# -- the one-panel-per-split loop, kept as the reference for the batched rounds

def _reference_panel(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = np.clip(mid + half * quadrature._XGK, np.nextafter(a, b), np.nextafter(b, a))
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        ys = np.asarray(f(xs), dtype=np.complex128)
    if not np.all(np.isfinite(ys.real) & np.isfinite(ys.imag)):
        raise EvaluationError("integrand is not finite")
    resk = half * np.dot(quadrature._WGK, ys)
    resg = half * np.dot(quadrature._WG, ys[1::2])
    resasc = half * float(np.dot(quadrature._WGK, np.abs(ys - resk / (b - a))))
    raw = abs(resk - resg)
    if resasc != 0.0 and raw != 0.0:
        return complex(resk), resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    return complex(resk), float(raw)


def _reference_adaptive(f, cuts, tol, budget):
    """Pop the worst panel, bisect it, repeat: one integrand call per panel."""
    min_width = quadrature._MIN_WIDTH_FRACTION * (cuts[-1] - cuts[0])
    heap, done = [], []
    counter = nodes = 0
    err_total = done_err = 0.0
    value_run = 0j
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, err = _reference_panel(f, a, b)
        nodes += 15
        heapq.heappush(heap, (-err, counter, a, b, val, err))
        counter += 1
        err_total += err
        value_run += val
    while heap and err_total > max(tol, quadrature._REL_FLOOR * abs(value_run)) \
            and nodes + 30 <= budget:
        _, _, a, b, val, err = heapq.heappop(heap)
        if (b - a) <= min_width:
            done.append((val, err))
            done_err += err
            if done_err > tol or not heap:
                break
            continue
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            v, e = _reference_panel(f, lo, hi)
            heapq.heappush(heap, (-e, counter, lo, hi, v, e))
            counter += 1
            err_total += e
            value_run += v
        nodes += 30
        err_total -= err
        value_run -= val
    vals = [p[4] for p in heap] + [v for v, _ in done]
    errs = [p[5] for p in heap] + [e for _, e in done]
    value = complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))
    floor = quadrature._REL_FLOOR * math.fsum(abs(v) for v in vals)
    err_total = max(math.fsum(errs), floor)
    return quadrature.QuadratureResult(value, err_total, nodes, err_total <= max(tol, floor))


def _laplace(text, variant):
    spec = SeriesSpec(as_function(parse_expression(text)), 10, alpha=1.3,
                      variant=variant, beta=0.6)
    res = sum_via_integral(spec, recognize_pair(text), tol=1e-10)
    return res.value, res.error_estimate, res.diagnostics.nodes, res.diagnostics.converged


def _frontend(integrate, f, **kw):
    q = integrate(f, **kw)
    return q.value, q.abs_error_estimate, q.nodes_used, q.converged


CASES = {
    "semi-exp": lambda: _frontend(integrate_semi_infinite, lambda t: np.exp(-t)),
    "semi-lorentz": lambda: _frontend(integrate_semi_infinite, lambda t: 1.0 / (1.0 + t * t)),
    "semi-gamma": lambda: _frontend(integrate_semi_infinite, lambda t: t**3 * np.exp(-t)),
    "semi-sqrt-singular": lambda: _frontend(
        integrate_semi_infinite, lambda t: np.exp(-t) / np.sqrt(np.maximum(t, 1e-300))),
    "semi-oscillatory": lambda: _frontend(integrate_semi_infinite,
                                          lambda t: np.exp(-t) * np.cos(5 * t)),
    "semi-complex": lambda: _frontend(integrate_semi_infinite, lambda t: np.exp(-(1 + 2j) * t)),
    "finite-sqrt": lambda: _frontend(integrate_finite, lambda t: np.sqrt(t), a=0.0, b=2.0),
    **{f"laplace-{text}-{v.value}": (lambda text=text, v=v: _laplace(text, v))
       for text in ("1/(k^2+1)", "1/k^2") for v in Variant},
    # oscillatory integrands on a finite interval, on the default mesh and
    # on one cut every four half periods
    "finite-cos": lambda: _frontend(integrate_finite, lambda t: np.cos(40.5 * t),
                                    a=0.0, b=math.pi),
    "finite-damped-sin": lambda: _frontend(
        integrate_finite, lambda t: np.exp(-t) * np.sin(25.0 * t), a=0.0, b=5.0),
    "finite-chirp": lambda: _frontend(integrate_finite, lambda t: np.cos(t * t), a=0.0, b=8.0),
    "finite-cut-mesh": lambda: _frontend(
        integrate_finite, lambda t: np.cos(200.5 * t) / (1.0 + t * t), a=0.0, b=math.pi,
        points=math.pi * (np.arange(1, 50) / 50)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_rounds_match_the_one_panel_loop(name, monkeypatch):
    value, estimate, nodes, converged = CASES[name]()
    monkeypatch.setattr(quadrature, "_adaptive", _reference_adaptive)
    ref_value, ref_estimate, ref_nodes, ref_converged = CASES[name]()
    assert abs(value - ref_value) <= max(estimate, ref_estimate)
    assert converged == ref_converged
    if ref_converged:
        # a run that ends stuck at the minimum panel width (the t^-1/2 case)
        # is not held to the count: its rounds also split panels that the
        # one-panel loop would only reach had the stuck panel converged
        assert abs(nodes - ref_nodes) <= 0.02 * ref_nodes


def test_scalar_closure_is_probed_once():
    """The first batch is the only call spent on finding that f rejects
    arrays; every node after it goes to f one point at a time."""
    calls = []

    def f(t):
        calls.append(t)
        return math.exp(-float(t))       # rejects arrays

    q = integrate_semi_infinite(f)
    assert complex(q.value) == pytest.approx(1.0, rel=1e-12)
    assert len(calls) == q.nodes_used + 1     # + the first batch, refused
    assert isinstance(calls[0], np.ndarray) and calls[0].size == 4 * 15


@pytest.mark.parametrize("integrate, kw", [(integrate_semi_infinite, {}),
                                           (integrate_finite, {"a": 0.0, "b": 3.0})])
def test_array_integrand_is_called_once_per_round(integrate, kw, monkeypatch):
    """No call is spent on a probe: f sees one batch per round of panels,
    and the nodes it is given are exactly the nodes reported."""
    sizes, rounds = [], []
    panels = quadrature._gk_panels

    def counted_panels(f, a, b, clamp):
        rounds.append(len(a))
        return panels(f, a, b, clamp)

    def f(t):
        sizes.append(t.size)
        return np.exp(-t) * np.cos(3.0 * t)

    monkeypatch.setattr(quadrature, "_gk_panels", counted_panels)
    q = integrate(f, tol=1e-12, **kw)
    assert q.converged and len(rounds) > 1
    assert sizes == [15 * n for n in rounds]
    assert sum(sizes) == q.nodes_used


def test_finsum_error_from_the_first_batch_propagates():
    """A FinsumError is the integrand's own (a pole of the summation
    factor, say), not a sign that f rejects arrays: it ends the integral
    rather than being replayed one point at a time."""
    calls = []

    def f(t):
        calls.append(t)
        raise PoleError("pole on the path", pole=0.5)

    with pytest.raises(PoleError):
        integrate_finite(f, 0.0, 1.0)
    assert len(calls) == 1 and isinstance(calls[0], np.ndarray)


@pytest.mark.parametrize("result", [lambda t: 1.0, lambda t: np.ones(3),
                                    lambda t: [1.0] * t.size])
def test_first_batch_without_an_array_of_its_shape_goes_point_by_point(result):
    """Anything but an ndarray of the batch's shape switches f to the
    per-point wrapper, which calls it with scalars."""
    seen = []

    def f(t):
        seen.append(type(t))
        return result(t) if isinstance(t, np.ndarray) else math.cos(t)

    q = integrate_finite(f, 0.0, 1.0, tol=1e-12)
    assert complex(q.value) == pytest.approx(math.sin(1.0), rel=1e-12)
    assert seen[0] is np.ndarray and set(seen[1:]) == {float}
    assert len(seen) == q.nodes_used + 1


def test_nodes_stay_inside_panels_a_few_ulps_wide():
    """(t-1)^(-1/2) on [1, 2] drives panels down to a few ulps of 1, where
    mid + half*x rounds onto the panel's end; the nodes are kept strictly
    inside, so the singular end is never sampled."""
    seen = []

    def f(t):
        seen.append(t.copy())
        return 1.0 / np.sqrt(t - 1.0)

    q = integrate_finite(f, 1.0, 2.0, tol=1e-12)
    nodes = np.concatenate(seen)
    assert nodes.min() > 1.0 and nodes.max() < 2.0
    assert abs(q.value - 2.0) < 1e-7


@pytest.mark.parametrize("value", [None, np.array([0.5])])
def test_scalar_wrapper_converts_each_value_as_complex_does(value):
    """The wrapper of a closure that rejects arrays takes complex(f(x)) of
    every value: a None or a 1-element array raises TypeError, as complex()
    does, rather than turning into nan or being reshaped."""
    def f(t):
        if isinstance(t, np.ndarray):
            raise TypeError("scalar arguments only")
        return value

    wrapped = quadrature._pointwise(f)
    assert wrapped is not f
    with pytest.raises(TypeError):
        complex(value)
    with pytest.raises(TypeError):
        wrapped(np.array([0.25, 0.75]))
    with pytest.raises(TypeError):
        quadrature._array_form(f, np.array([0.25, 0.75]))
    with pytest.raises(TypeError):
        integrate_finite(f, 0.0, 1.0)
    scalar = lambda t: complex(1.0, float(t))       # noqa: E731
    ok, got = quadrature._array_form(scalar, np.array([0.25, 0.75]))
    assert ok is not scalar
    assert got.dtype == np.complex128 and got.tolist() == [1 + 0.25j, 1 + 0.75j]
    assert ok(np.array([0.5])).tolist() == [1 + 0.5j]


# -- caller breakpoints on the initial mesh

def test_points_outside_or_repeated_are_dropped():
    f = lambda t: np.sqrt(np.asarray(t, dtype=float))
    want = _frontend(integrate_finite, f, a=0.0, b=2.0, points=[0.3, 1.7])
    got = _frontend(integrate_finite, f, a=0.0, b=2.0,
                    points=[-1.0, 0.0, 0.3, 0.3, 1.0, 1.7, 2.0, 5.0, np.nan, np.inf])
    assert got == want
    g = lambda t: np.exp(-np.asarray(t)) * np.cos(5 * np.asarray(t))
    # t = 1 maps onto the fixed cut u = 1/2; t <= 0 and t = inf leave (0, 1)
    want = _frontend(integrate_semi_infinite, g, points=[0.25, 3.0])
    got = _frontend(integrate_semi_infinite, g,
                    points=[-3.0, -1.0, -0.5, 0.0, 0.25, 1.0, 3.0, 3.0, np.inf])
    assert got == want


SEEDED = {
    "semi-exp": (integrate_semi_infinite, lambda t: np.exp(-t), {}, 1.0),
    "semi-lorentz": (integrate_semi_infinite, lambda t: 1.0 / (1.0 + t * t), {}, math.pi / 2),
    "semi-gamma": (integrate_semi_infinite, lambda t: t**3 * np.exp(-t), {}, 6.0),
    "semi-oscillatory": (integrate_semi_infinite, lambda t: np.exp(-t) * np.cos(5 * t),
                         {}, 1.0 / 26.0),
    "semi-complex": (integrate_semi_infinite, lambda t: np.exp(-(1 + 2j) * t), {},
                     1.0 / (1 + 2j)),
    "finite-sqrt": (integrate_finite, lambda t: np.sqrt(t), {"a": 0.0, "b": 2.0},
                    2.0 / 3.0 * 2.0 ** 1.5),
}


@pytest.mark.parametrize("name", sorted(SEEDED))
@pytest.mark.parametrize("points", [4.0 ** -np.arange(12), np.linspace(0.05, 1.95, 39),
                                    [0.3, 1.1, 7.0]])
def test_points_keep_every_value_within_its_estimate(name, points):
    integrate, f, kw, exact = SEEDED[name]
    value, estimate, _, converged = _frontend(integrate, f, points=points, **kw)
    assert converged
    assert abs(value - exact) <= max(estimate, 4e-16 * abs(exact))


def test_initial_mesh_goes_to_f_in_round_sized_slices():
    sizes = []

    def f(t):
        sizes.append(len(t))
        return np.cos(t)

    points = np.linspace(0.0, 1.0, 1301)[1:-1]       # 1300 panels; 1/2 is among them
    q = integrate_finite(f, 0.0, 1.0, tol=1.0, points=points)
    slice_nodes = 15 * 2 * quadrature._ROUND_CAP
    assert sizes == [slice_nodes, slice_nodes, 15 * 1300 - 2 * slice_nodes]
    assert q.nodes_used == 15 * 1300
    assert complex(q.value) == pytest.approx(math.sin(1.0), rel=1e-14)


class TestFourierAtHugeN:
    """The fourier route's Levin rule spends the same evaluations at every
    N, so sums far past the reach of an oscillation-resolving mesh
    converge."""

    def test_gaussian_converges_at_thirty_thousand(self):
        got = sum_via_fourier("exp(-0.3*k^2)", 30_000, tol=1e-10)
        want = math.fsum(math.exp(-0.3 * k * k) for k in range(1, 40))
        assert got.diagnostics.converged
        assert abs(got.value - want) <= got.error_estimate

    def test_lorentzian_at_a_hundred_thousand_is_covered_in_bounded_memory(self):
        """Sigma_{k<=N} 1/(k^2+1) = -Im[psi(N+1+i) - psi(1+i)] at 40 digits."""
        mpmath = pytest.importorskip("mpmath")
        tracemalloc.start()
        try:
            got = sum_via_fourier("1/(k^2+1)", 100_000, tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with mpmath.workdps(40):
            want = -mpmath.im(mpmath.digamma(100_001 + 1j) - mpmath.digamma(1 + 1j))
            dev = float(abs(mpmath.mpc(got.value) - want))
        assert got.diagnostics.converged
        assert dev <= got.error_estimate <= 1e-13
        assert got.diagnostics.nodes == 56
        assert peak < 16 * 2 ** 20
