"""Series specification and direct-oracle tests.

The oracle itself is validated here against raw fsum loops written out
longhand, one per variant, so everything downstream can lean on it.
"""

import ast
import cmath
import dataclasses
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

from finsum import backend, cli, jets, series
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


class TestLatticeModel:
    """Each variant resolves once into (sign, damping, shift)."""

    @pytest.mark.parametrize("variant,parts", [
        ("standard", (1.0, None, None)),
        ("alternating", (-1.0, None, None)),
        ("shifted", (1.0, None, 0.5 + 0.2j)),
        ("shifted-alternating", (-1.0, None, 0.5 + 0.2j)),
        ("exp-factor", (1.0, 0.5 + 0.2j, None)),
        ("exp-factor-alternating", (-1.0, 0.5 + 0.2j, None)),
    ])
    def test_parts_of_each_variant(self, variant, parts):
        spec = SeriesSpec(None, 4, 1.3, variant, 0.5 + 0.2j)
        assert (spec.sign, spec.damping, spec.shift) == parts
        assert spec.real_lattice is (parts[1] is None and parts[2] is None)

    def test_parts_are_not_options(self):
        with pytest.raises(TypeError):
            SeriesSpec(None, 4, sign=-1.0)

    def test_only_the_spec_asks_a_variant_its_kind(self):
        """Outside check_lattice and SeriesSpec.__post_init__, no code of
        the package reads is_alternating, is_shifted or is_exp_factor:
        every consumer reads the spec's sign, damping and shift."""
        kinds = {"is_alternating", "is_shifted", "is_exp_factor"}
        readers = set()
        for path in sorted(pathlib.Path(series.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))

            def visit(node, scope):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    scope = f"{scope}.{node.name}" if scope else node.name
                if isinstance(node, ast.Attribute) and node.attr in kinds:
                    readers.add(f"{path.name}:{scope}")
                for child in ast.iter_child_nodes(node):
                    visit(child, scope)

            visit(tree, "")
        assert readers == {"series.py:check_lattice", "series.py:SeriesSpec.__post_init__"}


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


def _spec(text, n, **kw):
    return SeriesSpec(g=as_function(parse_expression(text)), n_terms=n, **kw)


def _lattice_dtypes(spec):
    """direct_sum(spec), and the dtypes of the arrays g was called on in
    order, probes included.  The spy keeps g's node, so a parsed closure is
    still not probed."""
    dtypes = []

    def spy(x):
        if isinstance(x, np.ndarray):
            dtypes.append(x.dtype)
        return spec.g(x)

    spy.node = getattr(spec.g, "node", None)
    return direct_sum(dataclasses.replace(spec, g=spy)), dtypes


def _blocks(n):
    """(first k, length) of each block of the oracle's lattice 1..n."""
    return [(k0, min(series._BLOCK, n + 1 - k0)) for k0 in range(1, n + 1, series._BLOCK)]


def _complex_terms(spec):
    """Every term of the complex lattice (or the per-element loop), block
    after block."""
    lattice = series._parsed(spec.g) or series._probe_vectorized(spec.g, np.complex128)
    return np.concatenate([series._block_terms(spec, np.complex128, k0, m, lattice)
                           for k0, m in _blocks(spec.n_terms)])


# one summand of each spike-catalog family, at alpha != 1
_SPIKE_FAMILIES = ("1.3*sin(1.7*k)", "0.8*cos(2.9*k)", "k*cos(1.1*k)",
                   "exp(-0.2*k)*cos(0.7*k)", "1.5*exp(-0.3*k)", "1.2*k^3",
                   "0.9/k^2.5")


class TestRealLattice:
    """With alpha and beta real the oracle runs on a float64 lattice; it
    must agree with the complex128 lattice within its own estimate, and
    everything that lattice cannot evaluate must come out as before."""

    @staticmethod
    def _agrees_with_complex_lattice(spec):
        got, dtypes = _lattice_dtypes(spec)
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}
        want = backend.neumaier_sum(_complex_terms(spec))
        assert abs(got.value - want) <= got.error_estimate

    @pytest.mark.parametrize("text, n", cli._BENCH_SUITE)
    def test_bench_suite_rows(self, text, n):
        self._agrees_with_complex_lattice(_spec(text, n))

    @pytest.mark.parametrize("n", [1, 1024, 1025, 100_000])
    @pytest.mark.parametrize("text", _SPIKE_FAMILIES)
    def test_spike_catalog_families(self, text, n):
        self._agrees_with_complex_lattice(_spec(text, n, alpha=1.3))

    @pytest.mark.parametrize("variant, beta", [
        (Variant.ALTERNATING, 0.0), (Variant.SHIFTED, 0.37),
        (Variant.SHIFTED_ALTERNATING, 0.37), (Variant.EXP_FACTOR, 0.21),
        (Variant.EXP_FACTOR_ALTERNATING, 0.21)])
    def test_variants_with_real_beta(self, variant, beta):
        for text in ("1/(k^2+1)", "k^0.5*cos(1.1*k)"):
            self._agrees_with_complex_lattice(
                _spec(text, 1030, alpha=0.9, variant=variant, beta=beta))

    def test_negative_sqrt_falls_back_to_the_complex_lattice(self):
        """sqrt(k-5) is nan on the float64 lattice below k = 5; the complex
        lattice gives the same value, bit for bit, as before the float64
        lattice existed."""
        spec = _spec("sqrt(k-5)", 30)
        got, dtypes = _lattice_dtypes(spec)
        assert dtypes == [np.float64, np.complex128]
        assert got.value == complex(float.fromhex("0x1.5688fdb2493e0p+6"),
                                    float.fromhex("0x1.895c653b5e21ep+2"))
        assert got.error_estimate == float.fromhex("0x1.6f1ec405ff200p-45")

    @pytest.mark.parametrize("variant, beta, re, im, est", [
        ("standard", 0j, "0x1.b7aebcfba6930p+4", "-0x1.30f5bea9832e0p+1",
         "0x1.bb0ae9e929d06p-47"),
        ("exp-factor", 0.3 - 0.2j, "0x1.4e94e4a66ffd7p+1", "0x1.0877314faa776p+1",
         "0x1.eec3a1f7ba26dp-50"),
        ("shifted", 0.25, "0x1.b246be2f309f1p+4", "-0x1.2d72f74f75cb3p+1",
         "0x1.b597dcc224276p-47")])
    def test_complex_alpha_record_is_unchanged(self, variant, beta, re, im, est):
        """Complex alpha never reaches the float64 lattice: the oracle
        record is the one the complex lattice always gave."""
        rec = cli.run("1/(k^2+1)+k^0.5*exp(-0.1*k)", 40, "oracle", alpha=1 + 0.1j,
                      variant=variant, beta=beta)["results"][0]
        assert (rec["value"]["re"], rec["value"]["im"]) == (float.fromhex(re), float.fromhex(im))
        assert rec["error_estimate"] == float.fromhex(est)
        assert rec["flags"] == [] and rec["diagnostics"]["nodes"] == 40

    @pytest.mark.parametrize("n", [50, series._BLOCK, 3 * series._BLOCK + 5])
    @pytest.mark.parametrize("alpha, beta, dtype", [(1.3, 0j, np.float64),
                                                    (1.3 + 0.2j, 0j, np.complex128)])
    def test_parsed_closure_is_called_once_per_block(self, alpha, beta, dtype, n):
        """A parsed closure is not probed: the oracle calls it once per block
        of the lattice, on the float64 lattice or, with complex alpha, on
        the complex one."""
        g = as_function(parse_expression("1/(k^2+1)"))
        calls = []

        def counted(k):
            calls.append(k)
            return g(k)

        counted.node = g.node
        got = direct_sum(SeriesSpec(counted, n, alpha=alpha, beta=beta))
        want = direct_sum(SeriesSpec(g, n, alpha=alpha, beta=beta))
        assert len(calls) == math.ceil(n / series._BLOCK)
        assert [k.shape for k in calls] == [(m,) for _, m in _blocks(n)]
        assert {k.dtype for k in calls} == {np.dtype(dtype)}
        assert (got.value, got.error_estimate) == (want.value, want.error_estimate)

    @pytest.mark.parametrize("variant, beta", [
        (Variant.ALTERNATING, 0.0), (Variant.EXP_FACTOR, 0.21),
        (Variant.EXP_FACTOR_ALTERNATING, 0.21)])
    def test_g_writing_into_its_argument_leaves_the_weights(self, variant, beta):
        """At alpha = 1 g receives the index lattice itself; the weights are
        formed before g runs, so a g that writes into it changes none."""
        def g(k):
            out = 1.0 / (k * k + 1.0)
            if isinstance(k, np.ndarray):
                k += 1.0
            return out

        g.node = as_function(parse_expression("1/(k^2+1)")).node  # skips the probe
        spec = SeriesSpec(g, 40, variant=variant, beta=beta)
        got, dtypes = _lattice_dtypes(spec)
        assert dtypes == [np.float64]
        want = _loop([complex(term_weight(spec, k)) / (k * k + 1.0) for k in range(1, 41)])
        assert abs(got.value - want) <= got.error_estimate

    def test_integer_terms_keep_a_float_estimate(self):
        """A g that returns integers gives unweighted terms in its own
        dtype; their magnitudes are still summed in float64."""
        def g(k):
            return np.full(np.shape(k), 2 ** 62) if np.ndim(k) else 2 ** 62

        got = direct_sum(SeriesSpec(g, 4))
        assert got.value == 2.0 ** 64
        assert got.error_estimate == 2.0 * 2.220446049250313e-16 * 2.0 ** 64

    def test_library_closure_disagreeing_with_itself_falls_back(self):
        """A closure that is not parsed keeps the probe and its scalar
        cross-check: array values that disagree with its scalar ones send
        the oracle to the per-term loop, which takes the scalar values."""
        def g(k):
            if isinstance(k, np.ndarray):
                return np.zeros(k.shape)        # wrong on arrays
            return 1.0 / complex(k) ** 2

        got, dtypes = _lattice_dtypes(SeriesSpec(g, 40))
        assert dtypes == [np.float64, np.complex128]  # the two probes, no lattice
        assert got.value == _loop([1.0 / complex(k) ** 2 for k in range(1, 41)])

    def test_complex_beta_keeps_the_complex_lattice(self):
        spec = _spec("1/(k^2+1)", 40, alpha=1.5, variant=Variant.EXP_FACTOR, beta=0.2 + 0.3j)
        got, dtypes = _lattice_dtypes(spec)
        assert dtypes == [np.complex128]
        assert got.value == complex(float.fromhex("0x1.3f3c40ca08710p-2"),
                                    float.fromhex("-0x1.407703f1c44e7p-3"))


def _reference_terms(spec):
    """The per-element loop as it stood before the variant was bound once
    per series: one term_argument and one term_weight call per term."""
    terms = []
    for k in range(1, spec.n_terms + 1):
        try:
            term = complex(spec.g(term_argument(spec, k))) * term_weight(spec, k)
        except Exception as exc:
            raise EvaluationError(f"series term failed to evaluate: {exc}", at=f"k={k}") from exc
        if not (math.isfinite(term.real) and math.isfinite(term.imag)):
            raise EvaluationError("series term is not finite", at=f"k={k}")
        terms.append(term)
    return np.array(terms, dtype=np.complex128)


def _scalars_only(f):
    """f, refusing arrays, so that the oracle takes its per-element loop."""
    def g(x):
        if isinstance(x, np.ndarray):
            raise TypeError("scalar arguments only")
        return f(x)
    return g


_SCALAR_CLOSURES = (
    lambda x: 1.621 * cmath.exp(-0.8118 * x) * cmath.cos(1.8646 * x),
    lambda x: 1.0 / (x * x + 0.3),
    lambda x: math.exp(-abs(x)),                # a real value
    lambda x: (-1e-300 * x) * 1e-300,           # signed zeros by underflow
)


class TestPerElementLoop:
    """For closures that reject arrays the oracle binds the variant once per
    series; its terms, value, estimate and errors are those of the loop that
    called term_argument and term_weight for every term."""

    @pytest.mark.parametrize("alpha, beta", [(1.3, 0.37), (1.3, 0.21 - 0.5j),
                                             (0.9 + 0.4j, 0.37), (0.9 + 0.4j, 0.21 - 0.5j)])
    @pytest.mark.parametrize("variant, n", [
        (v, n) for v in Variant for n in (1, 2, 7, 1000)
        if not (v.is_alternating and n % 2)])  # alternating variants take even N
    def test_bit_identical_to_the_per_term_loop(self, variant, n, alpha, beta):
        for f in _SCALAR_CLOSURES:
            spec = SeriesSpec(g=_scalars_only(f), n_terms=n, alpha=alpha,
                              variant=variant, beta=beta)
            try:
                want = _reference_terms(spec)
            except EvaluationError as exc:
                # cos overflows past Im(x) ~ 710 with complex alpha at N=1000
                with pytest.raises(EvaluationError) as got:
                    direct_sum(spec)
                assert (str(got.value), got.value.at) == (str(exc), exc.at)
                continue
            assert _complex_terms(spec).tobytes() == want.tobytes()
            got = direct_sum(spec)
            assert got.value == backend.neumaier_sum(want)
            assert got.error_estimate == 2.0 * series._EPS * float(np.sum(np.abs(want)))

    @staticmethod
    def _errors(g, variant, n=6):
        spec = SeriesSpec(g=_scalars_only(g), n_terms=n, variant=variant, beta=0.3)
        with pytest.raises(EvaluationError) as got:
            direct_sum(spec)
        with pytest.raises(EvaluationError) as want:
            _reference_terms(spec)
        assert (str(got.value), got.value.at) == (str(want.value), want.value.at)
        return got.value

    @pytest.mark.parametrize("variant", list(Variant))
    def test_non_finite_term_before_a_raise_reports_its_index(self, variant):
        def g(x):
            k = round(x.real)  # x is k, or k + 0.3 on the shifted variants
            if k == 5:
                raise ValueError("no value at 5")
            return math.inf if k == 3 else 1.0 / x
        err = self._errors(g, variant)
        assert err.at == "k=3" and "series term is not finite" in str(err)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_raise_before_a_nan_term_reports_its_index(self, variant):
        def g(x):
            k = round(x.real)
            if k == 2:
                raise ZeroDivisionError("pole at 2")
            return math.nan if k == 4 else 1.0 / x
        err = self._errors(g, variant)
        assert err.at == "k=2"
        assert "series term failed to evaluate: pole at 2" in str(err)

    @staticmethod
    def _counts(variant):
        """N = 1 (2 on the alternating variants), 7 (8) and 1000."""
        return [n + (n % 2 if variant.is_alternating else 0) for n in (1, 7, 1000)]

    @pytest.mark.parametrize("variant", list(Variant))
    def test_clean_series_calls_g_once_per_term(self, variant):
        for n in self._counts(variant):
            calls = []

            def g(x):
                calls.append(x)
                return 1.0 / (x * x + 0.3)

            spec = SeriesSpec(g=_scalars_only(g), n_terms=n, alpha=1.3,
                              variant=variant, beta=0.37)
            got = _complex_terms(spec)
            assert len(calls) == n
            assert calls == [term_argument(spec, k) for k in range(1, n + 1)]
            assert got.tobytes() == _reference_terms(spec).tobytes()

    @pytest.mark.parametrize("variant", list(Variant))
    def test_non_finite_last_term_is_named(self, variant):
        for n in self._counts(variant):
            def g(x, n=n):
                return math.inf if round(x.real) == n else 1.0 / x
            err = self._errors(g, variant, n)
            assert err.at == f"k={n}" and "series term is not finite" in str(err)


def _scalar_closure(x):
    return 1.621 * cmath.exp(-0.0118 * x) * cmath.cos(1.8646 * x)


class TestBlocks:
    """The oracle evaluates and reduces its lattice in blocks of _BLOCK
    terms: the block sums are carried exactly, records up to one block are
    those of one reduction of all terms, a bad term in a later block is
    named at its own k, and memory stays O(block)."""

    @pytest.mark.parametrize("n", [series._BLOCK - 1, series._BLOCK, series._BLOCK + 1,
                                   3 * series._BLOCK + 5])
    @pytest.mark.parametrize("text, alpha, dtype", [
        ("k*cos(1.1*k)", 1.3, np.float64),
        ("1/(k^2+1)+k^0.5*exp(-0.0001*k)", 1.3 + 0.2j, np.complex128)])
    def test_block_edges_agree_with_fsum_of_the_terms(self, text, alpha, dtype, n):
        """Within the estimate of math.fsum over the terms of one lattice of
        all N, and in fact equal to it: the extraction errs by about
        N * eps^2 * sum|t|, far below an ulp of these sums."""
        g = as_function(parse_expression(text))
        with np.errstate(all="ignore"):
            terms = np.asarray(g(alpha * np.arange(1, n + 1, dtype=dtype)), dtype=np.complex128)
        want = _loop(terms)
        got, dtypes = _lattice_dtypes(SeriesSpec(g, n, alpha=alpha))
        assert set(dtypes) == {np.dtype(dtype)}
        assert abs(got.value - want) <= got.error_estimate
        assert got.value == want
        mag = math.fsum(np.abs(terms).tolist())
        assert got.error_estimate == pytest.approx(2.0 * series._EPS * mag, rel=1e-13)

    @pytest.mark.parametrize("n", [9630, 2 * series._BLOCK + 2000])
    def test_block_sums_are_carried_exactly(self, n):
        """The blocks of k*cos(1.669428*k) at alpha = 1.7088 cancel to a
        total about a fifth of a block's sum; a short last block summed to
        one rounded float would move the total by 2 ulp.  Every block of a
        sum longer than one block is extracted, so the total is the
        correctly rounded one.  N = 9630 is a spike-catalog request."""
        g = as_function(parse_expression("k*cos(1.669428*k)"))
        terms = g(1.7088 * np.arange(1, n + 1, dtype=np.float64))
        assert direct_sum(SeriesSpec(g, n, alpha=1.7088)).value == math.fsum(terms.tolist())

    @pytest.mark.parametrize("text, n, kw, re, im, est", [
        ("k*cos(1.669428*k)", 7754, dict(alpha=1.7088),
         "-0x1.9f89d5c2eb554p+12", "0x0.0p+0", "0x1.f3194c93ba774p-27"),
        ("0.8/(k^2+2.5)", 8192, {},
         "0x1.44fd7cd9eebb9p-1", "0x0.0p+0", "0x1.44fd7cd9eebb8p-52"),
        ("exp(-0.01*k)*cos(0.7*k)", 4098,
         dict(alpha=1.3, variant="exp-factor-alternating", beta=0.21),
         "0x1.b9bf363ee8e3fp-2", "0x0.0p+0", "0x1.3600d360c193ep-50"),
        ("1/(k^2+1)+k^0.5*exp(-0.1*k)", 3000, dict(alpha=1 + 0.1j),
         "0x1.c9a2b6ec979fdp+4", "-0x1.77f2637a04fb6p+1", "0x1.cf2b1324ae306p-47"),
        ("sqrt(k-5)", 5000, {},
         "0x1.cbbbf67f935fep+17", "0x1.895c653b5e21ep+2", "0x1.cbbf09385dd69p-34")])
    def test_records_up_to_one_block_are_unchanged(self, text, n, kw, re, im, est):
        """At 2,048 < N <= _BLOCK the record is the one a single extraction
        over all terms gave: the float64 lattice, a weighted variant, the
        complex lattice and a fallback to it, bit for bit."""
        rec = cli.run(text, n, "oracle", **kw)["results"][0]
        assert (rec["value"]["re"], rec["value"]["im"]) == (float.fromhex(re), float.fromhex(im))
        assert rec["error_estimate"] == float.fromhex(est)

    @pytest.mark.parametrize("variant, beta, re, im, est", [
        ("standard", 0j, "0x1.2ffa59d0085afp+18", "-0x1.77ef2519d72c8p+11",
         "0x1.304988ea540d0p-33"),
        ("alternating", 0j, "-0x1.11a4c3466e716p+4", "0x1.8ccbe894db2d4p+0",
         "0x1.30527a3416aecp-33"),
        ("shifted", 0.0005 - 0.35j, "0x1.2ff9cd894a21ep+18", "-0x1.790a85e88424cp+11",
         "0x1.3048cb2c39c9bp-33"),
        ("shifted-alternating", 0.0005 - 0.35j, "-0x1.11a4544a81cd5p+4",
         "0x1.8f485553d947cp+0", "0x1.3051bc7486252p-33"),
        ("exp-factor", 0.0005 - 0.35j, "-0x1.27b1c6c37fa38p+2", "0x1.28cca0edbc566p+2",
         "0x1.ee233dfa8e4f7p-36"),
        ("exp-factor-alternating", 0.0005 - 0.35j, "0x1.b4503ec79c610p-1",
         "0x1.85928597e36fap-2", "0x1.ee246dcca7c4bp-36"),
        ("exp-factor", 0.0005, "0x1.ed9d9382eab13p+15", "0x1.ec380053179cdp+10",
         "0x1.ee233dfa8e4f9p-36")])
    def test_complex_lattice_records_past_one_block(self, variant, beta, re, im, est):
        """Complex alpha, N = _BLOCK + 5 (+ 6 on the alternating variants):
        the complex lattice's record over two blocks, bit for bit, on every
        variant; a real beta keeps its complex weights exp(-beta*k)."""
        n = series._BLOCK + 5 + Variant(variant).is_alternating
        rec = cli.run("1/(k^2+1)+k^0.5*exp(-0.0001*k)", n, "oracle", alpha=1.3 + 0.2j,
                      variant=variant, beta=beta)["results"][0]
        assert (rec["value"]["re"], rec["value"]["im"]) == (float.fromhex(re), float.fromhex(im))
        assert rec["error_estimate"] == float.fromhex(est)
        assert rec["flags"] == [] and rec["diagnostics"]["nodes"] == n

    @pytest.mark.parametrize("n, kw, re, im, est", [
        (2 * series._BLOCK + 3, {},
         "0x1.554952132a391p+20", "0x1.895c653b5e21ep+2", "0x1.5549b46a4387ep-31"),
        (2 * series._BLOCK + 4, dict(variant="exp-factor-alternating", beta=0.0005),
         "-0x1.964c4e1ee59bdp-2", "0x1.5d945a1d5bf01p-1", "0x1.3497c0c1a579ep-35")])
    def test_fallback_to_the_complex_lattice_past_one_block(self, n, kw, re, im, est):
        """sqrt(k-5) is nan on the float64 lattice's first block; the oracle
        restarts on the complex lattice, whose three blocks give the record."""
        spec = _spec("sqrt(k-5)", n, **kw)
        got, dtypes = _lattice_dtypes(spec)
        assert dtypes == [np.float64] + [np.complex128] * 3
        assert got.value == complex(float.fromhex(re), float.fromhex(im))
        assert got.error_estimate == float.fromhex(est)

    def test_scalar_closure_record_up_to_one_block_is_unchanged(self):
        spec = SeriesSpec(_scalars_only(_scalar_closure), 6000, alpha=1.3,
                          variant=Variant.EXP_FACTOR, beta=0.001 - 0.5j)
        got = direct_sum(spec)
        assert got.value == complex(float.fromhex("-0x1.9abde19708e05p-1"),
                                    float.fromhex("-0x1.e7e1e1e2f5807p-3"))
        assert got.error_estimate == float.fromhex("0x1.f2dccd64e9c42p-46")

    @staticmethod
    def _raises_at(spec, k, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=message) as info:
                direct_sum(spec)
        assert info.value.at == f"k={k}"

    def test_non_finite_term_in_a_later_block_is_named(self):
        self._raises_at(_spec("1/(k-20000)", 30_000), 20_000, "series term is not finite")

    @pytest.mark.parametrize("f, message", [
        (lambda x: 1.0 / (x - 20000.0), "series term failed to evaluate"),
        (lambda x: math.inf if round(x.real) == 20000 else 1.0 / x, "series term is not finite")])
    def test_scalar_closure_failing_in_a_later_block_is_named(self, f, message):
        self._raises_at(SeriesSpec(_scalars_only(f), 30_000), 20_000, message)

    @pytest.mark.parametrize("text, n", [("1e308", 100), ("1e308", 3000),
                                         ("-1e304", 3 * series._BLOCK)])
    def test_overflowing_sum_raises_a_typed_error(self, text, n):
        """Finite terms whose sum of magnitudes overflows, within one block
        or only across blocks, are not taken for a non-finite term; no
        numpy warning escapes first."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="series sum overflows") as info:
                cli.run(text, n, "oracle")
        assert info.value.at is None

    def test_memory_stays_within_a_few_blocks(self):
        """The lattice of 10^6 terms alone is 8 MB; the oracle holds a block."""
        spec = _spec("0.8/(k^2+2.5)", 1_000_000)
        tracemalloc.start()
        try:
            direct_sum(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


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


def _old_effective_value(spec, x):
    """h(x) as weight times term, the weight exp(-beta*x) or 1.0."""
    weight = jets.exp(-spec.beta * x) if spec.variant.is_exp_factor else 1.0
    return weight * spec.g(term_argument(spec, x))


def _same(a, b):
    if isinstance(a, jets.Jet):
        return isinstance(b, jets.Jet) and all(
            np.array_equal(x, y) for x, y in zip(a.coeffs, b.coeffs, strict=True))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


class TestEffectiveTerm:
    """effective_term binds the variant once and drops the unit weight and
    the unit scaling of a jet; its values equal weight * g(argument)."""

    @pytest.mark.parametrize("variant", [v for v in Variant if not v.is_alternating])
    @pytest.mark.parametrize("alpha", [1.0, 1.3, 1.3 + 0.4j])
    @pytest.mark.parametrize("beta", [0.6, 0.6 + 0.2j])
    def test_equals_weight_times_term(self, variant, alpha, beta):
        spec = SeriesSpec(lambda x: 0.8 * jets.exp(-0.3 * x) / (x * x + 0.7), 5,
                          alpha, variant, beta)
        h = effective_term(spec)
        points = (2.5, np.linspace(1.0, 9.0, 7), jets.Jet.variable(2.5, 6),
                  jets.Jet.variable(np.linspace(1.0, 9.0, 7), 6))
        for x in points:
            assert _same(h(x), _old_effective_value(spec, x)), (variant, alpha, beta, x)


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
