"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion
pass/fail lines (each test also prints a one-line summary with the observed
worst deviation and timing; add ``-s`` to see them live).
"""

import cmath
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from finsum import jets
from finsum.errors import ConditioningWarning, PreconditionError
from finsum.eulermaclaurin import EMJob, em_sum
from finsum.fourier import DirichletForm, dirichlet_factor, recognize_fourier, sum_via_fourier
from finsum.identities import verify_identity
from finsum.kernels import recognize_pair
from finsum.laplace import sum_via_integral, zeta_expansion_sum
from finsum.quadrature import integrate_finite
from finsum.series import SeriesSpec, Variant, direct_sum
from finsum.special import bernoulli, hurwitz_zeta, riemann_zeta
from finsum.telescope import telescoping_sum, zeta_power_sum


def _report(label, detail):
    print(f"{label}: PASS ({detail})")


class TestAcceptance:
    def test_01_identity_sweep(self):
        t0 = time.perf_counter()
        thetas = [float(t) for t in np.round(np.arange(0.1, 6.25, 0.1), 10)
                  if t < 6.25]
        ns = (1, 2, 5, 10, 50)
        betas = (0.5, 1.0, 2.0)
        trig_grid = [({"theta": t}, n) for t in thetas for n in ns]
        ec_grid = [({"theta": t, "beta": b}, n)
                   for t in thetas for b in betas for n in ns]
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            for name, grid in (("sine", trig_grid), ("cosine", trig_grid),
                               ("k-cosine", trig_grid),
                               ("exp-cosine", ec_grid),
                               ("power", None), ("geometric", None)):
                rep = verify_identity(name, grid)
                assert rep.passed, (name, rep.max_rel_dev, rep.worst_params,
                                    rep.worst_n)
                worst = max(worst, rep.max_rel_dev)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"identity sweep took {elapsed:.1f}s"
        _report("criterion 01 identity-sweep",
                f"worst rel {worst:.2e}, {elapsed:.2f}s")

    def test_02_integral_route_smooth(self):
        t0 = time.perf_counter()
        harmonic_kernel = recognize_pair("1/k")
        h = Fraction(0)
        worst_h = 0.0
        for n in range(1, 101):
            h += Fraction(1, n)
            got = sum_via_integral(SeriesSpec(lambda x: 1.0 / x, n),
                                   harmonic_kernel, tol=1e-12)
            worst_h = max(worst_h, abs(got.value - float(h)))
        assert worst_h <= 1e-10

        worst_l = 0.0
        for a in (0.5, 1.0, 2.0):
            kern = recognize_pair(f"{a}/(k^2+{a * a})")
            for n in (1, 10, 100):
                spec = SeriesSpec(lambda x, a=a: a / (x * x + a * a), n)
                got = sum_via_integral(spec, kern, tol=1e-12)
                want = direct_sum(spec).value
                worst_l = max(worst_l, abs(got.value - want) / abs(want))
        assert worst_l <= 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"smooth-route sweep took {elapsed:.1f}s"
        _report("criterion 02 integral-route-smooth",
                f"harmonic abs {worst_h:.2e}, lorentzian rel {worst_l:.2e}, "
                f"{elapsed:.2f}s")

    def test_03_integral_route_spikes(self):
        worst_g = 0.0
        kern = recognize_pair("exp(-0.7*k)")
        for n in (1, 2, 5, 10, 50):
            got = sum_via_integral(SeriesSpec(lambda x: cmath.exp(-0.7 * x), n),
                                   kern).value
            r = cmath.exp(-0.7)
            want = r * (1 - r**n) / (1 - r)
            worst_g = max(worst_g, abs(got - want) / abs(want))
        assert worst_g <= 1e-13

        worst_ec = 0.0
        kern = recognize_pair("exp(-0.4*k)*cos(2*k)")
        for n in (1, 3, 10, 25):
            spec = SeriesSpec(lambda x: cmath.exp(-0.4 * x) * cmath.cos(2 * x), n)
            got = sum_via_integral(spec, kern).value
            z = cmath.exp(complex(-0.4, 2.0))
            want = (z * (1 - z**n) / (1 - z)).real
            worst_ec = max(worst_ec, abs(got - want) / max(abs(want), 1.0))
        assert worst_ec <= 1e-13

        worst_kc = 0.0
        kern = recognize_pair("k*cos(2.2*k)")
        for n in (1, 5, 30):
            spec = SeriesSpec(lambda x: x * cmath.cos(2.2 * x), n)
            got = sum_via_integral(spec, kern).value
            want = direct_sum(spec).value
            worst_kc = max(worst_kc, abs(got - want) / max(abs(want), 1.0))
        assert worst_kc <= 1e-11
        _report("criterion 03 integral-route-spikes",
                f"geometric {worst_g:.2e}, damped-cosine {worst_ec:.2e}, "
                f"ramp-cosine {worst_kc:.2e}")

    def test_04_variant_equivalence(self):
        grids = {
            Variant.ALTERNATING: ((2, 0j), (4, 0j), (10, 0j)),
            Variant.SHIFTED: ((1, 0.7 + 0j), (3, 0.7 + 0j), (10, 0.7 + 0j)),
            Variant.SHIFTED_ALTERNATING: ((2, 0.7 + 0j), (4, 0.7 + 0j),
                                          (10, 0.7 + 0j)),
            Variant.EXP_FACTOR: ((1, 0.9 + 0j), (3, 0.9 + 0j), (10, 0.9 + 0j)),
            Variant.EXP_FACTOR_ALTERNATING: ((2, 0.9 + 0j), (4, 0.9 + 0j),
                                             (10, 0.9 + 0j)),
        }
        kern = recognize_pair("1/(k^2+1)")
        worst = 0.0
        for variant, grid in grids.items():
            for n, beta in grid:
                spec = SeriesSpec(lambda x: 1.0 / (x * x + 1.0), n,
                                  variant=variant, beta=beta)
                got = sum_via_integral(spec, kern, tol=1e-13).value
                want = direct_sum(spec).value
                dev = abs(got - want) / max(1.0, abs(want))
                worst = max(worst, dev)
                assert dev <= 1e-12, (variant, n, dev)
        with pytest.raises(PreconditionError):
            SeriesSpec(lambda x: 1.0 / x, 5, variant=Variant.ALTERNATING)
        _report("criterion 04 variant-equivalence", f"worst {worst:.2e}")

    def test_05_transform_route(self):
        worst = 0.0
        for text, g in (("exp(-k^2)", lambda k: math.exp(-float(k * k))),
                        ("1/(k^2+1)", lambda k: 1.0 / (k * k + 1.0))):
            for n in (1, 2, 5, 10):
                got = sum_via_fourier(text, n, tol=1e-10).value
                want = math.fsum(g(k) for k in range(1, n + 1))
                dev = abs(got - want) / abs(want)
                worst = max(worst, dev)
                assert dev <= 1e-7, (text, n, dev)

        # the phase-free factor is reported for comparison, never gated:
        # summing with it misses the oracle by orders of magnitude.  N is
        # odd, so the factor is 2pi-periodic and the folded transform applies
        n = 5
        pair = recognize_fourier("1/(k^2+1)")
        simple = np.vectorize(
            lambda a: dirichlet_factor(float(a), n,
                                       DirichletForm.PHASE_FREE))

        def integrand(al):
            return pair.periodic(al) * simple(al)

        alt = integrate_finite(integrand, -math.pi, math.pi,
                               tol=1e-8).value / (2 * math.pi)
        want = math.fsum(1.0 / (k * k + 1.0) for k in range(1, n + 1))
        _report("criterion 05 transform-route",
                f"worst rel {worst:.2e}; phase-free factor deviates by "
                f"{abs(alt - want):.2e} (reported, not gated)")

    def test_06_telescoping_route(self):
        summands = (lambda x: cmath.exp(-x), lambda x: 1.0 / x,
                    lambda x: 1.0 / (x * x), lambda x: 1.0 / (x * x + 1.0))
        worst = 0.0
        for g in summands:
            for n in (1, 2, 5, 10, 100):
                got = telescoping_sum(g, n, tol=1e-11).value
                want = complex(math.fsum(complex(g(float(k))).real
                                         for k in range(1, n + 1)))
                dev = abs(got - want) / max(1.0, abs(want))
                worst = max(worst, dev)
                assert dev <= 1e-9, (g, n, dev)

        worst_z = 0.0
        for s in (1.5, 2.0, 3.0):
            for n in (1, 10, 1000):
                got = zeta_power_sum(s, n).value
                want = math.fsum(float(k) ** (-s) for k in range(1, n + 1))
                dev = abs(got - want) / max(1.0, abs(want))
                worst_z = max(worst_z, dev)
                assert dev <= 1e-11, (s, n, dev)
        _report("criterion 06 telescoping-route",
                f"differences {worst:.2e}, zeta shortcut {worst_z:.2e}")

    def test_07_lattice_corrections(self):
        # degree <= 2n-1 polynomials are exact up to roundoff
        worst = 0.0
        for fn, a, b, m, n, want in (
                (lambda x: x**3, 0.0, 10.0, 10, 2, 3025.0),
                (lambda x: x**5, 0.0, 12.0, 12, 3,
                 float(sum(k**5 for k in range(13)))),
                (lambda x: x * x - 3.0 * x, 1.0, 9.0, 8, 2,
                 float(sum(k * k - 3 * k for k in range(1, 10))))):
            got = em_sum(EMJob(fn, a, b, m, n=n)).value.real
            dev = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, dev)
            assert dev <= 1e-12

        job = EMJob(lambda x: 1.0 / (x * x), 1.0, 10.0, 9, n=3)
        got = em_sum(job)
        want = math.fsum(1.0 / (k * k) for k in range(1, 11))
        assert abs(got.value.real - want) <= got.error_estimate
        _report("criterion 07 lattice-corrections",
                f"polynomial worst {worst:.2e}, curvature miss "
                f"{abs(got.value.real - want):.2e} within estimate "
                f"{got.error_estimate:.2e}")

    def test_08_divergent_rewriting_flagged(self):
        res = zeta_expansion_sum(1.0, 1.0, 10)
        assert res.diagnostics.divergent
        assert "divergent" in res.flags
        assert res.diagnostics.notes["onset_index"] <= 60

        spec = SeriesSpec(lambda x: 1.0 / (x * x + 1.0), 10)
        got = sum_via_integral(spec, recognize_pair("1/(k^2+1)"),
                               tol=1e-12).value
        want = direct_sum(spec).value
        assert abs(got - want) <= 1e-9 * abs(want)
        _report("criterion 08 divergent-rewriting-flagged",
                f"onset at term {res.diagnostics.notes['onset_index']}, "
                f"integral route rel {abs(got - want) / abs(want):.2e}")

    def test_09_special_functions(self):
        assert abs(riemann_zeta(2.0) - math.pi**2 / 6.0) <= 1e-12
        assert abs(riemann_zeta(4.0) - math.pi**4 / 90.0) <= 1e-12
        worst = 0.0
        for s in (1.5, 2.0, 3.2):
            for a in (0.3, 1.0, 2.7):
                dev = abs(hurwitz_zeta(s, a) - a ** (-s)
                          - hurwitz_zeta(s, a + 1.0))
                worst = max(worst, dev)
                assert dev <= 1e-12, (s, a, dev)
        for n in range(1, 31):
            acc = Fraction(0)
            for j in range(n + 1):
                acc += Fraction(math.comb(n + 1, j)) * bernoulli(j)
            assert acc == 0, n
        _report("criterion 09 special-functions",
                f"hurwitz recurrence worst {worst:.2e}, "
                "bernoulli recurrence exact to index 30")

    def test_10_cli_contract(self):
        runner = (sys.executable, "-c",
                  "import sys; from finsum.cli import main; "
                  "sys.exit(main(sys.argv[1:]))")
        env = dict(os.environ)
        env.pop("FINSUM_CONFIG", None)
        args = ("eval", "--expr", "1/(k^2+1)", "--n", "10", "--method", "all")
        a = subprocess.run([*runner, *args], capture_output=True, text=True,
                           env=env)
        b = subprocess.run([*runner, *args], capture_output=True, text=True,
                           env=env)
        assert a.returncode == 0 and b.returncode == 0
        strip = lambda s: re.sub(r'"runtime_ns": \d+', '"runtime_ns": 0', s)
        assert strip(a.stdout) == strip(b.stdout)
        json.loads(a.stdout)  # well-formed

        v = subprocess.run([*runner, "identities", "verify"],
                           capture_output=True, text=True, env=env)
        assert v.returncode == 0, v.stdout + v.stderr
        _report("criterion 10 cli-contract",
                "byte-identical reports, identities verify exit 0")
