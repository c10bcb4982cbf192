"""Command-line contract tests: schema, determinism, exit codes, config."""

import functools
import json
import math
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from finsum import cli, kernels
from finsum import expr as ex
from finsum.errors import DomainError, FinsumError, ParseError, PreconditionError
from finsum.kernels import KPOW
from finsum.series import Variant

_RUNNER = ("-c", "import sys; from finsum.cli import main; sys.exit(main(sys.argv[1:]))")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("FINSUM_CONFIG", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, *_RUNNER, *args],
                         capture_output=True, text=True, env=env)


class TestRunApi:
    def test_oracle_record_is_first(self):
        report = cli.run("k", 100, method="all")
        assert report["results"][0]["method"] == "oracle"
        assert report["results"][0]["value"]["re"] == 5050.0
        names = [r["method"] for r in report["results"]]
        assert names == list(cli.METHODS)

    def test_single_method_still_reports_the_oracle(self):
        report = cli.run("1/k", 5, method="laplace")
        names = [r["method"] for r in report["results"]]
        assert names == ["oracle", "laplace"]
        lap = report["results"][1]
        assert lap["abs_err_vs_oracle"] <= 1e-10
        assert lap["flags"] == []

    def test_closed_form_route(self):
        report = cli.run("sin(0.5*k)", 20, method="closed-form")
        rec = report["results"][1]
        assert rec["abs_err_vs_oracle"] <= 1e-12
        assert rec["flags"] == []

    def test_unsupported_route_becomes_an_error_record(self):
        report = cli.run("exp(-k^2)", 5, method="all")
        by_name = {r["method"]: r for r in report["results"]}
        assert by_name["fourier"]["abs_err_vs_oracle"] <= 1e-7
        assert by_name["laplace"]["flags"] == ["error"]
        assert "error" in by_name["laplace"]

    def test_variant_plumbing(self):
        report = cli.run("exp(-0.5*k)", 6, method="laplace",
                         variant=Variant.SHIFTED, beta=0.4 + 0j)
        assert report["meta"]["variant"] == "shifted"
        assert report["results"][1]["abs_err_vs_oracle"] <= 1e-12

    def test_alpha_scaling_reaches_every_route(self):
        report = cli.run("exp(-0.3*k)", 8, method="all", alpha=1.6 + 0j)
        by_name = {r["method"]: r for r in report["results"]}
        for name in ("laplace", "telescope", "closed-form"):
            assert by_name[name]["abs_err_vs_oracle"] <= 1e-9, name
        # the unit-lattice correction route is honest rather than sharp here
        em = by_name["euler-maclaurin"]
        assert em["abs_err_vs_oracle"] <= em["error_estimate"]

    def test_one_term_euler_maclaurin_estimate_covers_the_referee(self):
        """At N = 1 the route returns h(1) itself, whose rounding it must
        still charge: 2 eps |h(1)|, as the oracle does.  The 50-digit sum
        of the same doubles sits 2.9e-17 away."""
        mp = pytest.importorskip("mpmath")
        report = cli.run("1.0897*sin(0.078809*k)", 1, method="euler-maclaurin",
                         alpha=1.7573)
        rec = report["results"][1]
        assert rec["method"] == "euler-maclaurin" and rec["flags"] == []
        value = rec["value"]["re"]
        assert rec["error_estimate"] == 2.0 * np.finfo(float).eps * abs(value)
        with mp.workdps(50):
            ref = mp.mpf(1.0897) * mp.sin(mp.mpf(0.078809) * mp.mpf(1.7573))
            deviation = float(abs(mp.mpf(value) - ref))
        assert 0.0 < deviation <= rec["error_estimate"]

    def test_closed_form_requires_standard_variant(self):
        report = cli.run("exp(-0.5*k)", 4, method="closed-form",
                         variant=Variant.ALTERNATING)
        assert report["results"][1]["flags"] == ["error"]

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol_must_be_positive_and_finite(self, monkeypatch, tol):
        """At tol 0, below 0 or NaN the telescope used to walk all 131,072
        terms of 1/(k^2+1) and flag; at infinity every route stopped at its
        first check.  Such a tol is refused before any route, the oracle
        included, runs."""
        def no_route(*args, **kwargs):
            raise AssertionError("a route ran")
        for name in ("direct_sum", "_run_laplace", "_run_fourier", "_run_telescope",
                     "_run_em", "_run_closed_form"):
            monkeypatch.setattr(cli, name, no_route)
        with pytest.raises(PreconditionError, match="tol must be a positive finite number"):
            cli.run("1/(k^2+1)", 10, method="all", tol=tol)

    @pytest.mark.parametrize("kw, error, match", [
        (dict(method="bogus"), DomainError, "unknown method 'bogus'"),
        (dict(tol=0.0), PreconditionError, "tol must be a positive finite number")])
    def test_arguments_are_checked_before_the_summand(self, kw, error, match):
        """A bad method or tol is reported as such, even on a summand that
        does not parse, and fills no summand table."""
        for text in ("1/(k^2+1)", "1/(k"):
            with pytest.raises(error, match=match):
                cli.run(text, 10, **kw)
        assert _sizes() == dict.fromkeys(_TABLES, 0)

    def test_power_whose_gamma_overflows_is_a_laplace_error_record(self):
        """1/k^172 used to raise OverflowError out of cli.run, from Gamma(172)
        inside the power density."""
        by_name = {r["method"]: r for r in cli.run("1/k^172", 5)["results"]}
        assert by_name["laplace"]["flags"] == ["error"]
        assert "overflows float64" in by_name["laplace"]["error"]
        for name in ("oracle", "closed-form"):
            assert by_name[name]["value"] == {"re": 1.0, "im": 0.0}
            assert by_name[name]["flags"] == []
        res = run_cli("eval", "--expr", "1/k^172", "--n", "5")
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""

    def test_an_overflowing_literal_is_a_parse_error(self):
        """exp(-1e400*k) used to give an unflagged NaN laplace value with a
        NaN estimate."""
        with pytest.raises(ParseError, match="overflows float64") as info:
            cli.run("exp(-1e400*k)", 5, "laplace")
        assert info.value.offset == 5

    @pytest.mark.parametrize("variant", ["standard", "alternating", "exp-factor"])
    @pytest.mark.parametrize("text", ["exp(-1e308*k)", "k^2*exp(-1e300*k)",
                                      "exp(-1e300*k)*cos(2*k)", "exp(-0.5*k)*cos(1e13*k)",
                                      "k*exp(-0.25*k)*cos(2e12*k)"])
    def test_comb_far_from_its_poles_is_no_pole(self, text, variant):
        """|z| > 1e12 used to read as a pole of the comb ("variant kernel
        has a pole"); the laplace record now agrees with the oracle."""
        oracle, rec = cli.run(text, 40, "laplace", variant=variant, beta=0.3)["results"]
        assert rec["flags"] == [], rec.get("error")
        assert rec["abs_err_vs_oracle"] <= rec["error_estimate"] + oracle["error_estimate"]

    def test_meta_field_order(self):
        report = cli.run("1/k", 3, method="oracle")
        assert list(report["meta"]) == ["expr", "n", "alpha", "variant",
                                        "beta", "tol", "version"]
        rec = report["results"][0]
        assert list(rec) == ["method", "value", "abs_err_vs_oracle",
                             "error_estimate", "flags", "diagnostics"]
        assert list(rec["diagnostics"]) == ["nodes", "truncation_index",
                                            "converged", "notes", "runtime_ns"]


def _count_decompositions(monkeypatch) -> list:
    """Record the tree of every top-level ``kernels.linear_terms`` call; its
    recursive calls go through the same module attribute and are skipped."""
    calls = []
    depth = [0]
    linear_terms = kernels.linear_terms

    def counted(node):
        if depth[0] == 0:
            calls.append(node)
        depth[0] += 1
        try:
            return linear_terms(node)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(kernels, "linear_terms", counted)
    return calls


class TestOneDecomposition:
    """laplace, fourier and closed-form read one decomposition per lattice
    scale of a request: laplace asks for scale 1, the other two for Re alpha."""

    @pytest.mark.parametrize("alpha, want", [(1.0, 1), (1.3, 2)])
    def test_all_routes_share_it(self, monkeypatch, alpha, want):
        calls = _count_decompositions(monkeypatch)
        report = cli.run("1.2*sin(1.3*k) + exp(-0.5*k)", 10, method="all", alpha=alpha)
        assert len(calls) == want
        by_name = {r["method"]: r for r in report["results"]}
        for name in ("laplace", "closed-form"):
            assert by_name[name]["flags"] == [], name

    @pytest.mark.parametrize("method", ["laplace", "fourier", "closed-form"])
    def test_single_route_decomposes_once(self, monkeypatch, method):
        calls = _count_decompositions(monkeypatch)
        cli.run("1.5/(k^2+2.25)", 10, method=method, alpha=1.3)
        assert len(calls) == 1

    def test_telescope_does_not_decompose(self, monkeypatch):
        calls = _count_decompositions(monkeypatch)
        cli.run("1/k^2", 10, method="telescope")
        assert calls == []

    def test_no_decomposition_is_one_refusal(self):
        report = cli.run("1.6*log(k)", 10, method="all")
        by_name = {r["method"]: r for r in report["results"]}
        errors = {by_name[name]["error"] for name in ("laplace", "fourier", "closed-form")}
        assert errors == {"cannot normalize summand: log(k) has no integral representation "
                          "here; the telescoping route or the direct oracle handles it"}

    @pytest.mark.parametrize("text", ["1/k^2 + 0*sqrt(k)", "0*k^0.5 + exp(-0.5*k)"])
    def test_zero_terms_leave_the_closed_form(self, text):
        """A term with coefficient 0 used to reach the identity catalog,
        which refused k^0.5 ("needs an exponent below -1")."""
        _, rec = cli.run(text, 10, method="closed-form")["results"]
        assert rec["flags"] == []
        assert rec["abs_err_vs_oracle"] <= 1e-12

    def test_zero_root_term_leaves_the_scaled_closed_form(self):
        """At alpha = 1.3 the zero term is 0*sqrt(1.3*k), which decomposes
        as (1.3*k)^0.5 and is dropped."""
        _, rec = cli.run("1/k^2 + 0*sqrt(k)", 12, "closed-form", alpha=1.3)["results"]
        assert rec["flags"] == []
        assert rec["abs_err_vs_oracle"] <= 1e-12

    def test_power_of_a_sum_refuses_quickly(self):
        """(k+1)^20 is 21 terms once like terms merge, not 2^20; every
        term-table route refuses k^20 quickly."""
        started = time.perf_counter()
        report = cli.run("(k+1)^20", 10)
        assert time.perf_counter() - started < 0.5
        by_name = {r["method"]: r for r in report["results"]}
        for name in ("laplace", "fourier", "closed-form"):
            assert by_name[name]["flags"] == ["error"], name


def _masked(report: dict) -> str:
    for rec in report["results"]:
        if "diagnostics" in rec:
            rec["diagnostics"]["runtime_ns"] = 0
    return cli.report_json(report)


_TABLES = ("_compiled", "_terms", "_kernel", "_pair")


def _sizes() -> dict:
    return {name: getattr(cli, name).cache_info().currsize for name in _TABLES}


def _count_parses(monkeypatch) -> list:
    parses = []
    parse = ex.parse_expression
    monkeypatch.setattr(ex, "parse_expression", lambda text: parses.append(text) or parse(text))
    return parses


class TestSummandTable:
    """``cli.run`` compiles each summand text once per process: its tree and
    closure, and per lattice scale its terms, kernel, Fourier pair or
    refusal, each in its own ``functools.lru_cache`` table.  A warm request
    reports what a cold one does."""

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("alpha", [1.0, 1.3])
    def test_warm_reports_equal_cold_ones(self, variant, alpha):
        """The bench suite, each N rounded up to even so that the
        alternating variants accept it."""
        for text, n in cli._BENCH_SUITE:
            kw = dict(method="all", alpha=alpha, variant=variant, beta=0.3 + 0j)
            cli._clear_tables()
            cold = _masked(cli.run(text, n + n % 2, **kw))
            assert _sizes()["_compiled"] == 1
            assert _masked(cli.run(text, n + n % 2, **kw)) == cold, text

    def test_warm_request_neither_parses_nor_decomposes(self, monkeypatch):
        cold = _masked(cli.run("1.2*sin(1.3*k) + exp(-0.5*k)", 10, alpha=1.3))
        parses = _count_parses(monkeypatch)
        calls = _count_decompositions(monkeypatch)
        assert _masked(cli.run("1.2*sin(1.3*k) + exp(-0.5*k)", 10, alpha=1.3)) == cold
        assert parses == [] and calls == []

    def test_a_warm_refusal_reads_the_same(self):
        cold = cli.run("1.6*log(k)", 10, method="all")
        warm = cli.run("1.6*log(k)", 10, method="all")
        assert _masked(warm) == _masked(cold)
        errors = [rec for rec in warm["results"] if "error" in rec]
        assert [rec["method"] for rec in errors] == ["laplace", "fourier", "closed-form"]

    def test_a_parse_error_is_not_kept(self, monkeypatch):
        parses = _count_parses(monkeypatch)
        for _ in range(2):
            with pytest.raises(FinsumError, match="offset"):
                cli.run("1/(k", 5)
        assert parses == ["1/(k", "1/(k"]
        assert _sizes() == dict.fromkeys(_TABLES, 0)

    def test_one_text_past_the_bound_evicts_the_oldest(self, monkeypatch):
        assert cli._TABLE_SIZE == 256
        texts = [f"{i}/k^2" for i in range(1, cli._TABLE_SIZE + 2)]
        parses = _count_parses(monkeypatch)
        for text in texts[:-1]:
            cli.run(text, 3, method="oracle")
        assert parses == texts[:-1]
        assert _sizes()["_compiled"] == cli._TABLE_SIZE
        cli.run(texts[0], 3, method="oracle")     # used again: now the newest
        cli.run(texts[-1], 3, method="oracle")
        assert parses == texts
        assert _sizes()["_compiled"] == cli._TABLE_SIZE
        cli.run(texts[0], 3, method="oracle")
        cli.run(texts[-1], 3, method="oracle")
        assert parses == texts                    # both kept
        cli.run(texts[1], 3, method="oracle")
        assert parses == texts + [texts[1]]       # the oldest had left

    def test_a_sweep_of_scales_stays_within_the_bound(self):
        for i in range(1000):
            report = cli.run("exp(-0.5*k)", 10, method="closed-form", alpha=1 + i / 1000)
            assert report["results"][1]["flags"] == []
        assert _sizes() == {"_compiled": 1, "_terms": cli._TABLE_SIZE, "_kernel": 0, "_pair": 0}

    def test_threads_share_the_table(self, monkeypatch):
        """More threads than cores on tables of four entries, so that
        nearly every request evicts one that another thread is reading,
        with a short switch interval: no request fails, every report
        equals the one-thread report, and each table keeps its bound."""
        texts = [f"{i}/k^2 + exp(-0.{i}*k)" for i in range(1, 10)]
        want = {text: _masked(cli.run(text, 3, method="laplace")) for text in texts}
        for name in _TABLES:
            monkeypatch.setattr(cli, name, functools.lru_cache(maxsize=4)(
                getattr(cli, name).__wrapped__))
        failures = []

        def worker(start):
            try:
                for i in range(600):
                    text = texts[(start + i) % len(texts)]
                    if _masked(cli.run(text, 3, method="laplace")) != want[text]:
                        failures.append(text)
            except Exception as exc:   # reported below, not lost with the thread
                failures.append(repr(exc))

        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        threads = [threading.Thread(target=worker, args=(j,)) for j in range(cores + 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert max(_sizes().values()) <= 4

    def test_cached_terms_are_read_only(self):
        cli.run("3/k^2 + exp(-0.5*k)", 10, method="closed-form")
        misses = cli._terms.cache_info().misses
        terms = cli._terms("3/k^2 + exp(-0.5*k)", 1.0)
        assert cli._terms.cache_info().misses == misses   # the kept tuple
        assert kernels.decompose(terms) is terms
        with pytest.raises(TypeError):
            terms[0] = (1.0, {})
        with pytest.raises(TypeError):
            terms[0][1][KPOW] = -3.0


class TestReports:
    def test_json_round_trips_and_ends_with_newline(self):
        report = cli.run("1/k", 4, method="oracle")
        text = cli.report_json(report)
        assert text.endswith("\n")
        assert json.loads(text) == report

    def test_csv_shape(self):
        report = cli.run("1/k^2", 6, method="all")
        text = cli.report_csv(report)
        lines = text.strip().splitlines()
        assert lines[0] == ("method,value_re,value_im,abs_err_vs_oracle,"
                            "error_estimate,flags,nodes,runtime_ns")
        assert len(lines) == 1 + len(report["results"])

    def test_csv_error_rows_are_marked(self):
        report = cli.run("log(k)", 5, method="laplace")
        text = cli.report_csv(report)
        assert "error:" in text


class TestDeterminism:
    def test_json_identical_across_processes(self):
        args = ("eval", "--expr", "1/(k^2+1)", "--n", "10",
                "--method", "all", "--format", "json")
        a = run_cli(*args, env_extra={"PYTHONHASHSEED": "1"})
        b = run_cli(*args, env_extra={"PYTHONHASHSEED": "77"})
        assert a.returncode == 0 and b.returncode == 0
        strip = lambda s: re.sub(r'"runtime_ns": \d+', '"runtime_ns": 0', s)
        assert strip(a.stdout) == strip(b.stdout)
        assert a.stdout.startswith("{")

    def test_runtime_is_the_only_moving_part(self):
        a = run_cli("eval", "--expr", "exp(-k)", "--n", "3")
        b = run_cli("eval", "--expr", "exp(-k)", "--n", "3")
        da = json.loads(a.stdout)
        db = json.loads(b.stdout)
        for ra, rb in zip(da["results"], db["results"]):
            for rec in (ra, rb):
                if "diagnostics" in rec:
                    rec["diagnostics"]["runtime_ns"] = 0
        assert da == db

    def test_numpy_integer_n_matches_int(self):
        strip = lambda s: re.sub(r'"runtime_ns": \d+', '"runtime_ns": 0', s)
        a = cli.report_json(cli.run("1/(k^2+1)", 10, method="all"))
        b = cli.report_json(cli.run("1/(k^2+1)", np.int64(10), method="all"))
        assert strip(a) == strip(b)
        assert all("error" not in rec for rec in json.loads(b)["results"]
                   if rec["method"] != "closed-form")


class TestExitCodes:
    def test_success(self):
        res = run_cli("eval", "--expr", "1/k", "--n", "5")
        assert res.returncode == 0

    def test_all_requested_methods_failing_gives_one(self):
        res = run_cli("eval", "--expr", "exp(-k^2)", "--n", "4",
                      "--method", "laplace")
        assert res.returncode == 1

    def test_parse_error_gives_two(self):
        res = run_cli("eval", "--expr", "1/(k", "--n", "5")
        assert res.returncode == 2
        assert "offset" in res.stderr

    def test_unknown_function_gives_two(self):
        res = run_cli("eval", "--expr", "foo(k)", "--n", "5")
        assert res.returncode == 2

    def test_bad_flag_gives_two(self):
        res = run_cli("eval", "--expr", "1/k", "--n", "5",
                      "--method", "sorcery")
        assert res.returncode == 2

    def test_missing_n_gives_two(self):
        res = run_cli("eval", "--expr", "1/k")
        assert res.returncode == 2

    @pytest.mark.parametrize("tol", ["0", "nan"])
    def test_bad_tol_gives_two(self, tol):
        res = run_cli("eval", "--expr", "1/(k^2+1)", "--n", "10", "--tol", tol)
        assert res.returncode == 2
        assert res.stderr.startswith("finsum: tol must be a positive finite number")

    def test_odd_alternating_length_gives_two(self):
        res = run_cli("eval", "--expr", "1/k", "--n", "5",
                      "--variant", "alternating")
        assert res.returncode == 2

    def test_overflowing_sum_gives_two(self):
        """A series whose sum overflows is a typed error, not a traceback,
        and no numpy warning reaches stderr."""
        res = run_cli("eval", "--expr", "1e308", "--n", "3000")
        assert res.returncode == 2
        assert res.stderr == "finsum: series sum overflows\n"

    def test_too_deep_nesting_gives_two(self):
        """Nesting past the parser's depth limit is a parse error, not a
        RecursionError traceback."""
        res = run_cli("eval", "--expr", "(" * 200 + "k" + ")" * 200, "--n", "3")
        assert res.returncode == 2
        assert res.stderr.startswith("finsum: expression nested deeper than")
        assert len(res.stderr.splitlines()) == 1

    def test_long_sum_gives_two(self):
        """A 2,000-term sum passes the depth limit as a chain: one parse
        error line, where it was "maximum recursion depth exceeded"."""
        res = run_cli("eval", "--expr", "+".join(["1/k^2"] * 2000), "--n", "3")
        assert res.returncode == 2
        assert res.stderr.startswith("finsum: expression nested deeper than 100 levels at offset")
        assert len(res.stderr.splitlines()) == 1

    def test_identities_verify_passes(self):
        res = run_cli("identities", "verify")
        assert res.returncode == 0, res.stdout + res.stderr
        for line in res.stdout.strip().splitlines():
            assert ": PASS" in line

    def test_identities_verify_dense_passes(self):
        res = run_cli("identities", "verify", "--grid", "dense")
        assert res.returncode == 0, res.stdout + res.stderr
        lines = res.stdout.strip().splitlines()
        assert len(lines) == 6
        assert all(": PASS" in line for line in lines)
        assert sum(int(re.search(r"points=(\d+)", line)[1]) for line in lines) == 1686


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "finsum.cfg"
        cfg.write_text("expr = 1/k\nn = 4\n# a comment\nformat = csv\n")
        res = run_cli("eval", env_extra={"FINSUM_CONFIG": str(cfg)})
        assert res.returncode == 0
        assert res.stdout.startswith("method,")

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "finsum.cfg"
        cfg.write_text("expr = 1/k\nn = 4\n")
        res = run_cli("eval", "--expr", "k", "--n", "2", "--method", "oracle",
                      env_extra={"FINSUM_CONFIG": str(cfg)})
        data = json.loads(res.stdout)
        assert data["meta"]["expr"] == "k"
        assert data["results"][0]["value"]["re"] == 3.0

    def test_malformed_config_gives_two(self, tmp_path):
        cfg = tmp_path / "finsum.cfg"
        cfg.write_text("this line has no equals sign\n")
        res = run_cli("eval", "--expr", "1/k", "--n", "3",
                      env_extra={"FINSUM_CONFIG": str(cfg)})
        assert res.returncode == 2

    @pytest.mark.parametrize("text", ["expr = 1/k\nn = ten\n",
                                      "expr = 1/k\nn = 3\ntol = tiny\n"],
                             ids=["n", "tol"])
    def test_config_value_its_cast_rejects_gives_two(self, tmp_path, text):
        cfg = tmp_path / "finsum.cfg"
        cfg.write_text(text)
        res = run_cli("eval", env_extra={"FINSUM_CONFIG": str(cfg)})
        assert res.returncode == 2
        assert res.stderr.startswith("finsum: config entry")
        assert "Traceback" not in res.stderr


class TestBench:
    def test_standard_suite_csv(self):
        res = run_cli("bench", "--suite", "standard")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "expr,N,method,value_re,value_im,abs_err,nodes,runtime_ns"
        assert len(lines) > 10
        exprs = {line.split(",")[0] for line in lines[1:]}
        assert "1/k" in exprs
