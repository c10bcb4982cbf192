"""Parser and evaluator tests for the summand grammar."""

import math

import numpy as np
import pytest

from finsum import expr as ex
from finsum import jets
from finsum.errors import ParseError


class TestParsing:
    def test_number_forms(self):
        for text, want in [("3", 3.0), ("3.5", 3.5), (".5", 0.5),
                           ("2e3", 2000.0), ("1.5E-2", 0.015)]:
            node = ex.parse_expression(text)
            assert ex.evaluate(node, 1.0) == want

    def test_constants(self):
        assert ex.evaluate(ex.parse_expression("pi"), 0.0) == math.pi
        assert ex.evaluate(ex.parse_expression("e"), 0.0) == math.e

    def test_precedence_and_associativity(self):
        """1+2*3^2 groups as 1+(2*(3^2)); a-b-c groups left; a^b^c right."""
        assert ex.evaluate(ex.parse_expression("1+2*3^2"), 0.0) == 19.0
        assert ex.evaluate(ex.parse_expression("10-4-3"), 0.0) == 3.0
        assert ex.evaluate(ex.parse_expression("2^3^2"), 0.0) == 512.0
        assert ex.evaluate(ex.parse_expression("-2^2"), 0.0) == -4.0

    def test_unary_minus_binds_looser_than_power(self):
        assert ex.evaluate(ex.parse_expression("-k^2"), 3.0) == -9.0

    def test_function_calls(self):
        k = 0.7
        node = ex.parse_expression("sin(k)*cos(k) + exp(-k) + log(k) + sqrt(k)")
        want = math.sin(k) * math.cos(k) + math.exp(-k) + math.log(k) + math.sqrt(k)
        assert ex.evaluate(node, k) == pytest.approx(want, rel=1e-15)

    def test_whitespace_is_free(self):
        a = ex.parse_expression("1/(k^2+1)")
        b = ex.parse_expression(" 1 / ( k ^ 2 + 1 ) ")
        assert ex.evaluate(a, 3.0) == ex.evaluate(b, 3.0)

    @pytest.mark.parametrize("bad", ["", "1+", "sin", "sin()", "2**3", "(1",
                                     "k k", "foo(2)", "1..2", "^2"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            ex.parse_expression(bad)

    @pytest.mark.parametrize("text, offset", [("1e400*k", 0), ("k + 2e308", 4),
                                              ("exp(-1e400*k)", 5)])
    def test_overflowing_literal_is_a_parse_error(self, text, offset):
        """1e400 used to parse as inf, which ``pretty`` cannot print."""
        with pytest.raises(ParseError, match="overflows float64") as info:
            ex.parse_expression(text)
        assert info.value.offset == offset

    def test_largest_literal_round_trips(self):
        node = ex.parse_expression("1.7976931348623157e308*k")
        assert ex.parse_expression(ex.pretty(node)) == node

    def test_error_carries_offset(self):
        with pytest.raises(ParseError) as info:
            ex.parse_expression("1/(k^2+1")
        assert info.value.offset == 8

    @pytest.mark.parametrize("text", ["(" * 200 + "k" + ")" * 200,
                                      "-" * 200 + "k", "2^" * 200 + "k",
                                      "sin(" * 200 + "k" + ")" * 200],
                             ids=["parentheses", "minus", "powers", "calls"])
    def test_deep_nesting_is_a_parse_error(self, text):
        """Nesting past the depth limit raises ParseError, not RecursionError."""
        with pytest.raises(ParseError, match="nested deeper"):
            ex.parse_expression(text)

    def test_nesting_below_the_limit_parses(self):
        node = ex.parse_expression("(" * 90 + "k" + ")" * 90)
        assert ex.evaluate(node, 2.0) == 2.0

    @pytest.mark.parametrize("op,term", [("+", "1/k^2"), ("-", "k"), ("*", "k"), ("/", "k")])
    def test_long_operator_chain_is_a_parse_error(self, op, term):
        """Each operator of a chain nests the tree one level deeper, so a
        chain past the depth limit raises ParseError at the operand that
        crosses it, not RecursionError in a later tree walk."""
        text = op.join([term] * 2000)
        with pytest.raises(ParseError, match="nested deeper") as info:
            ex.parse_expression(text)
        assert 0 < info.value.offset < len(text)
        assert text[info.value.offset - 1] in "+-*/^"

    def test_short_sum_parses(self):
        node = ex.parse_expression("+".join(["1/k^2"] * 20))
        assert ex.evaluate(node, 2.0) == 5.0


class TestEvaluation:
    def test_matches_direct_python(self):
        """Sweep a grid of k against an independently coded closure."""
        node = ex.parse_expression("exp(-0.3*k)*cos(1.1*k) + k/(k^2+4)")
        for k in np.linspace(0.5, 20.0, 79):
            want = math.exp(-0.3 * k) * math.cos(1.1 * k) + k / (k * k + 4)
            assert ex.evaluate(node, float(k)) == pytest.approx(want, rel=5e-15)

    def test_vectorized_evaluation(self):
        node = ex.parse_expression("1/(k^2+1)")
        ks = np.linspace(1.0, 9.0, 17)
        np.testing.assert_allclose(ex.evaluate(node, ks), 1.0 / (ks**2 + 1),
                                   rtol=1e-15)

    def test_real_power_on_a_positive_float_array(self):
        """A float64 base above 0 with a real exponent takes the real power,
        within 1 ulp of math.pow at every point."""
        ks = np.linspace(0.5, 2000.0, 997)
        for text, p in (("k^2.7", 2.7), ("k^-1.3", -1.3), ("k^3", 3.0)):
            got = ex.evaluate(ex.parse_expression(text), ks)
            assert got.dtype == np.float64
            for k, v in zip(ks.tolist(), got.tolist()):
                assert abs(v - math.pow(k, p)) <= math.ulp(math.pow(k, p))

    def test_integral_power_of_a_negative_base_is_real(self):
        ks = np.arange(1.0, 11.0)
        got = ex.evaluate(ex.parse_expression("(k-5)^3"), ks)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, (ks - 5.0) ** 3)

    def test_fractional_power_of_a_negative_base_stays_complex(self):
        ks = np.arange(1.0, 11.0)
        got = ex.evaluate(ex.parse_expression("(k-5)^0.5"), ks)
        assert np.iscomplexobj(got)
        np.testing.assert_array_equal(got, np.asarray(ks - 5.0, dtype=complex) ** 0.5)
        assert got[0] == pytest.approx(2j, rel=1e-15)

    @pytest.mark.parametrize("text", ["2^k", "0.5^(k/3)", "k^k", "(k+1)^(0.5*k)"])
    @pytest.mark.parametrize("x", [1.7, np.array([0.5, 1.7, 3.2])])
    def test_power_at_a_jet_is_exp_of_log_times_exponent(self, text, x):
        """A power whose exponent is a jet, on a constant or a jet base, has
        the coefficients of exp(log(base) * exponent), at a scalar jet and a
        batch jet."""
        node = ex.parse_expression(text)
        k = jets.Jet.variable(x, 4)
        base, exponent = ex.evaluate(node.base, k), ex.evaluate(node.exponent, k)
        if not isinstance(base, jets.Jet):
            base = jets.Jet((complex(base),) + (0j,) * k.order)
        want = jets.exp(jets.log(base) * exponent)
        got = ex.evaluate(node, k)
        assert len(got.coeffs) == len(want.coeffs)
        for a, b in zip(got.coeffs, want.coeffs):
            np.testing.assert_array_equal(a, b)

    def test_complex_argument(self):
        node = ex.parse_expression("exp(-k)")
        z = 0.3 + 0.4j
        assert ex.evaluate(node, z) == pytest.approx(np.exp(-z), rel=1e-15)

    def test_as_function_keeps_source(self):
        fn = ex.as_function(ex.parse_expression("1/k"))
        assert fn(4.0) == 0.25
        assert ex.pretty(fn.node) == "1/k"


class TestStructureHelpers:
    def test_substitute_index(self):
        """Replacing k by 2k halves the effective lattice of any summand."""
        node = ex.parse_expression("sin(0.4*k) + k^2")
        doubled = ex.substitute_index(node, ex.Mul(ex.Num(2.0), ex.Var()))
        for k in (0.5, 1.0, 3.25):
            assert ex.evaluate(doubled, k) == pytest.approx(
                ex.evaluate(node, 2 * k), rel=1e-15)

    def test_pretty_round_trips(self):
        rng = np.random.default_rng(7)
        for text in ["1/(k^2+1)", "-k^2", "2^3^2", "k*(k+1)/2",
                     "exp(-0.7*k)*sin(2*k)", "1 - 1/k", "(1+k)^2"]:
            node = ex.parse_expression(text)
            again = ex.parse_expression(ex.pretty(node))
            for k in rng.uniform(0.5, 5.0, size=8):
                assert ex.evaluate(again, float(k)) == pytest.approx(
                    ex.evaluate(node, float(k)), rel=1e-14)


# tricky trees for the printer and the structural walks, each as a builder
# of its k leaf, so that substituting for k is building with another leaf;
# with the printed text and whether the tree is free of k
_N, _C = ex.Num, ex.Const
_TRICKY = [
    (lambda k: ex.Mul(k, ex.Mul(k, _N(2.0))), "k*(k*2)", False),
    (lambda k: ex.Mul(ex.Mul(k, _N(2.0)), k), "k*2*k", False),
    (lambda k: ex.Div(k, ex.Div(_N(1.0), k)), "k/(1/k)", False),
    (lambda k: ex.Div(ex.Div(_N(1.0), k), k), "1/k/k", False),
    (lambda k: ex.Mul(k, ex.Div(_N(1.0), k)), "k*(1/k)", False),
    (lambda k: ex.Div(k, ex.Mul(_N(2.0), k)), "k/(2*k)", False),
    (lambda k: ex.Sub(k, ex.Neg(_N(2.0))), "k - (-2)", False),
    (lambda k: ex.Add(k, ex.Neg(_N(2.0))), "k + -2", False),
    (lambda k: ex.Sub(k, ex.Sub(_N(1.0), k)), "k - (1 - k)", False),
    (lambda k: ex.Sub(ex.Sub(k, _N(1.0)), k), "k - 1 - k", False),
    (lambda k: ex.Add(k, ex.Add(_N(1.0), k)), "k + (1 + k)", False),
    (lambda k: ex.Sub(k, ex.Mul(_N(2.0), k)), "k - 2*k", False),
    (lambda k: ex.Neg(ex.Add(k, _N(1.0))), "-(k + 1)", False),
    (lambda k: ex.Neg(ex.Mul(k, _N(2.0))), "-(k*2)", False),
    (lambda k: ex.Neg(ex.Neg(k)), "--k", False),
    (lambda k: ex.Mul(ex.Neg(k), k), "-k*k", False),
    (lambda k: ex.Mul(k, ex.Neg(k)), "k*-k", False),
    (lambda k: ex.Mul(ex.Add(k, _N(1.0)), ex.Sub(k, _N(1.0))), "(k + 1)*(k - 1)", False),
    (lambda k: ex.Pow(ex.Pow(k, _N(2.0)), _N(3.0)), "(k^2)^3", False),
    (lambda k: ex.Pow(k, ex.Pow(_N(2.0), _N(3.0))), "k^2^3", False),
    (lambda k: ex.Pow(ex.Neg(k), _N(2.0)), "(-k)^2", False),
    (lambda k: ex.Pow(k, ex.Neg(_N(2.0))), "k^-2", False),
    (lambda k: ex.Neg(ex.Pow(k, _N(2.0))), "-k^2", False),
    (lambda k: ex.Pow(k, ex.Add(_N(1.0), k)), "k^(1 + k)", False),
    (lambda k: ex.Pow(k, ex.Mul(_N(2.0), k)), "k^(2*k)", False),
    (lambda k: ex.Pow(ex.Call("exp", k), _N(2.0)), "exp(k)^2", False),
    (lambda k: ex.Call("sin", ex.Add(k, _N(1.0))), "sin(k + 1)", False),
    (lambda k: ex.Call("sqrt", ex.Call("log", k)), "sqrt(log(k))", False),
    (lambda k: ex.Mul(_C("pi"), ex.Pow(_C("e"), k)), "pi*e^k", False),
    (lambda k: ex.Pow(_N(2.0), ex.Neg(ex.Pow(_N(3.0), _N(2.0)))), "2^-3^2", True),
    (lambda k: ex.Div(_N(1e20), ex.Add(_N(0.1), _C("pi"))), "1e+20/(0.1 + pi)", True),
    (lambda k: ex.Call("cos", ex.Neg(_C("e"))), "cos(-e)", True),
    (lambda k: _N(2.0), "2", True),
    (lambda k: _N(0.1), "0.1", True),
    (lambda k: _N(1e20), "1e+20", True),
    (lambda k: _C("pi"), "pi", True),
    (lambda k: k, "k", False),
]
_IDS = [text for _, text, _ in _TRICKY]


class TestStructureOnTrickyTrees:
    @pytest.mark.parametrize("build, text, constant", _TRICKY, ids=_IDS)
    def test_pretty_is_pinned_and_round_trips(self, build, text, constant):
        tree = build(ex.Var())
        assert ex.pretty(tree) == text
        assert ex.parse_expression(text) == tree

    @pytest.mark.parametrize("build, text, constant", _TRICKY, ids=_IDS)
    def test_substitute_index_builds_the_same_tree_on_the_new_leaf(self, build, text,
                                                                   constant):
        for leaf in (ex.Mul(ex.Num(2.0), ex.Var()), ex.Call("exp", ex.Neg(ex.Var())),
                     ex.Num(3.0), ex.Var()):
            assert ex.substitute_index(build(ex.Var()), leaf) == build(leaf)

    @pytest.mark.parametrize("build, text, constant", _TRICKY, ids=_IDS)
    def test_is_constant(self, build, text, constant):
        assert ex.is_constant(build(ex.Var())) is constant
        assert ex.is_constant(build(ex.Num(3.0))) is True
