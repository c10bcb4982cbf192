"""Closed-form catalog tests: frozen hand-derived values, sweeps, domains."""

import math
import warnings

import pytest

from finsum import identities
from finsum.errors import ConditioningWarning, DomainError
from finsum.identities import (catalog_entry, dense_grids, eval_identity, identity_names,
                               verify_all, verify_identity)
from finsum.kernels import decompose
from finsum.series import direct_sum


class TestFrozenValues:
    """Each value below is derived by hand, independently of any code path:
    special angles collapse the sums to small rational numbers."""

    def test_sine_quarter_turn(self):
        # sin(pi/2) + sin(pi) + sin(3pi/2) = 1 + 0 - 1
        got = eval_identity("sine", {"theta": math.pi / 2}, 3)
        assert abs(got) <= 1e-13

    def test_cosine_third_turn(self):
        # cos(2pi/3) + cos(4pi/3) + cos(2pi) = -1/2 - 1/2 + 1
        got = eval_identity("cosine", {"theta": 2 * math.pi / 3}, 3)
        assert abs(got) <= 1e-13

    def test_cosine_single_term(self):
        got = eval_identity("cosine", {"theta": 2 * math.pi / 3}, 1)
        assert got.real == pytest.approx(-0.5, abs=1e-14)

    def test_k_cosine_half_turn(self):
        # -1 + 2 - 3 + 4
        got = eval_identity("k-cosine", {"theta": math.pi}, 4)
        assert got.real == pytest.approx(2.0, abs=1e-13)

    def test_power_inverse_squares(self):
        got = eval_identity("power", {"s": 2.0}, 2)
        assert got.real == pytest.approx(1.25, abs=1e-12)

    def test_power_inverse_cubes(self):
        got = eval_identity("power", {"s": 3.0}, 3)
        assert got.real == pytest.approx(251.0 / 216.0, rel=1e-12)

    def test_geometric_halving(self):
        # 1/2 + 1/4 + 1/8 = 7/8
        got = eval_identity("geometric", {"a": math.log(2.0), "alpha": 1.0}, 3)
        assert got.real == pytest.approx(0.875, rel=1e-13)

    def test_exp_cosine_alternating_halving(self):
        # 2^-k cos(pi k): -1/2 + 1/4 - 1/8 + 1/16 = -5/16
        got = eval_identity("exp-cosine",
                            {"theta": math.pi, "beta": math.log(2.0)}, 4)
        assert got.real == pytest.approx(-0.3125, rel=1e-13)
        assert abs(got.imag) <= 1e-15


class TestSweeps:
    def test_catalog_passes_default_grids(self):
        reports = verify_all()
        assert [r.name for r in reports] == identity_names()
        for r in reports:
            assert r.passed, (r.name, r.max_rel_dev, r.worst_params, r.worst_n)
            assert r.points > 0

    def test_catalog_passes_dense_grids(self):
        grids = dense_grids()
        assert sorted(grids) == identity_names()
        reports = verify_all(grids)
        for r in reports:
            assert r.passed, (r.name, r.max_rel_dev, r.worst_params, r.worst_n)
            assert r.points == len(grids[r.name])
        assert sum(r.points for r in reports) == 1686

    def test_custom_grid_is_respected(self):
        grid = [({"theta": 1.0}, 4), ({"theta": 2.5}, 9)]
        report = verify_identity("sine", grid)
        assert report.points == 2
        assert report.passed

    def test_report_names_the_worst_point(self):
        report = verify_identity("cosine")
        assert set(report.worst_params) == {"theta"}
        assert report.worst_n >= 1
        assert report.max_abs_dev >= 0.0


class TestDomains:
    @pytest.mark.parametrize("theta", [0.0, -1.0, 2 * math.pi, 7.0])
    def test_trig_interval_is_open(self, theta):
        with pytest.raises(DomainError, match="theta"):
            eval_identity("sine", {"theta": theta}, 5)

    def test_power_needs_s_above_one(self):
        with pytest.raises(DomainError):
            eval_identity("power", {"s": 1.0}, 5)

    def test_geometric_needs_positive_decay(self):
        with pytest.raises(DomainError):
            eval_identity("geometric", {"a": -0.5, "alpha": 1.0}, 5)

    def test_exp_cosine_needs_positive_beta(self):
        with pytest.raises(DomainError):
            eval_identity("exp-cosine", {"theta": 1.0, "beta": 0.0}, 5)

    def test_unknown_name_lists_the_catalog(self):
        with pytest.raises(DomainError, match="sine"):
            eval_identity("nope", {}, 3)
        with pytest.raises(DomainError):
            verify_identity("nope")

    def test_missing_parameters_are_named(self):
        with pytest.raises(DomainError, match="beta"):
            eval_identity("exp-cosine", {"theta": 1.0}, 3)

    @pytest.mark.parametrize("name,params", [("sine", {"theta": "x"}),
                                             ("power", {"s": None}),
                                             ("exp-cosine", {"theta": 1.0, "beta": 1j})])
    def test_non_numeric_parameters_are_a_domain_error(self, name, params):
        with pytest.raises(DomainError, match="real parameters"):
            eval_identity(name, params, 3)


class TestConditioningMargin:
    """Inside 0.1 of the interval ends the sin(theta/2) division loses
    digits; evaluation still proceeds but must announce it."""

    @pytest.mark.parametrize("theta", [0.05, 2 * math.pi - 0.05])
    def test_margin_warns_but_evaluates(self, theta):
        with pytest.warns(ConditioningWarning, match="sin"):
            got = eval_identity("cosine", {"theta": theta}, 10)
        from finsum.series import SeriesSpec
        from finsum import jets
        want = direct_sum(
            SeriesSpec(g=lambda x: jets.cos(theta * x), n_terms=10)).value
        assert abs(got - want) <= 1e-9

    def test_interior_points_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eval_identity("cosine", {"theta": 3.0}, 10)


# each identity's summand, a {name} field for each parameter but alpha
_SUMMANDS = {
    "sine": "sin({theta}*k)",
    "cosine": "cos({theta}*k)",
    "k-cosine": "k*cos({theta}*k)",
    "exp-cosine": "exp(-{beta}*k)*cos({theta}*k)",
    "power": "k^-{s}",
    "geometric": "exp(-{a}*k)",
}


class TestSummandRoundTrip:
    """The summand of each identity, decomposed as the closed-form route
    decomposes it, is matched by the catalog to that same identity."""

    @pytest.mark.parametrize("name", sorted(_SUMMANDS))
    def test_default_grid_at_unit_scale(self, name):
        points = 0
        for params, _ in identities.REGISTRY[name].default_grid():
            if params.get("alpha", 1.0) != 1.0:
                continue  # the scale is the lattice's, 1 here
            (coeff, factors), = decompose(_SUMMANDS[name].format(**params))
            assert coeff == 1
            assert catalog_entry(factors) == (name, params)
            points += 1
        assert points > 0

    def test_each_entry_states_its_summand(self):
        assert {name: ident.summand for name, ident in identities.REGISTRY.items()} \
            == _SUMMANDS
