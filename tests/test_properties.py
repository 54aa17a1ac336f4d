"""Hypothesis properties of the portfolio build on random price panels.

Most panels come from ``conftest.panel_from_returns`` over a random return
matrix: either independent noise or a low-rank factor model whose loadings
come from a small lattice, so assets repeat, offset each other exactly or
carry no risk at all. The metamorphic properties use seeded
``synthetic_panel`` data instead, whose merges and components are well apart.
"""

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_panel, panel_from_returns
from portlab.backtest import evaluate, report_to_csv
from portlab.cli import _build_sector
from portlab.config import validate_config
from portlab.eigen import fit_pca, min_components_for_variance, select_best_eigen
from portlab.errors import PortlabError, ZeroVarianceAsset
from portlab.hrp import build_hrp_portfolio
from portlab.market_data import PeriodSpec, PricePanel, slice_period
from portlab.returns_stats import correlation, daily_returns, sample_covariance
from portlab.synthetic import sector_tickers, synthetic_panel, weekday_range

CONFIG = validate_config(
    {
        "sectors": [{"name": "alpha", "data": "ignored", "tickers": ["A", "B"]}],
        "train": {"start": "2016-01-01", "end": "2020-12-31"},
        "test": {"start": "2021-01-01", "end": "2021-11-01"},
    }
)


@st.composite
def random_returns(draw, n_rows):
    """An n_rows x N matrix of daily returns, all above -1."""
    n = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.normal(0.0004, 0.01, size=(n_rows, n))
    rank = draw(st.integers(1, 3))
    lattice = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    loadings = np.array(draw(st.lists(lattice, min_size=n * rank, max_size=n * rank))).reshape(n, rank)
    noise = np.zeros(n)  # each asset's own risk, none at all in half the models
    if draw(st.booleans()):
        noise = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 1.0]), min_size=n, max_size=n)))
    factors = rng.normal(0.0, 1.0, size=(n_rows, rank))
    return 0.002 * (factors @ loadings.T + noise * rng.normal(0.0, 1.0, size=(n_rows, n)))


def tickers_for(n):
    return tuple(f"T{i}" for i in range(n))


class TestHrpBuild:
    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_weights_in_unit_interval_or_zero_variance(self, data):
        returns = data.draw(random_returns(data.draw(st.integers(3, 80))))
        panel = panel_from_returns(returns, tickers=tickers_for(returns.shape[1]))
        cov = sample_covariance(daily_returns(panel))
        try:
            weights = build_hrp_portfolio(cov, correlation(cov)).weights.weights
        except ZeroVarianceAsset as dead:  # a dead asset, or a riskless cluster
            assert dead.tickers and set(dead.tickers) <= set(panel.tickers)
            return
        assert ((weights > 0.0) & (weights <= 1.0)).all()
        assert abs(float(weights.sum()) - 1.0) <= 1e-9

    def test_offsetting_pair_is_a_riskless_cluster(self):
        # T3 mirrors T0..T2; Ward seriates it beside T2, so the first left half's
        # inverse-variance portfolio is riskless and the right half would get nothing
        factor = np.random.default_rng(1).normal(0.0, 0.002, size=60)
        panel = panel_from_returns(np.outer(factor, [1.0, 1.0, 1.0, -1.0]), tickers=tickers_for(4))
        cov = sample_covariance(daily_returns(panel))
        with pytest.raises(ZeroVarianceAsset, match="the other half would get no weight") as caught:
            build_hrp_portfolio(cov, correlation(cov))
        assert caught.value.tickers == ["T3", "T2"]


def build_outcome(panel, train):
    """The build files of the panel's train window, or the error that stopped the build."""
    try:
        return _build_sector(slice_period(panel, train), CONFIG)[1]
    except (PortlabError, ValueError) as cause:
        return type(cause), str(cause)


class TestNoLookAhead:
    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_test_window_closes_leave_build_files_identical(self, data):
        n_train, n_test = data.draw(st.integers(2, 60)), data.draw(st.integers(1, 30))
        returns = data.draw(random_returns(n_train + n_test))
        n = returns.shape[1]
        panel = panel_from_returns(returns, tickers=tickers_for(n))
        train = PeriodSpec("train", panel.dates[0], panel.dates[n_train])
        cell = st.tuples(st.integers(n_train + 1, n_train + n_test), st.integers(0, n - 1), st.floats(0.2, 5.0))
        closes = panel.closes.copy()
        for row, column, factor in data.draw(st.lists(cell, min_size=1, max_size=20)):
            closes[row, column] *= factor
        shaken = make_panel(closes, tickers=panel.tickers, start=panel.dates[0])
        assert np.array_equal(shaken.dates, panel.dates)
        assert build_outcome(shaken, train) == build_outcome(panel, train)


SYNTHETIC_DAYS = weekday_range(date(2020, 1, 1), date(2020, 6, 30))


@st.composite
def seeded_panels(draw):
    """A seeded ``synthetic_panel`` of 3 to 17 tickers over half a year."""
    tickers = sector_tickers(0, draw(st.integers(3, 17)))
    return PricePanel(*synthetic_panel(tickers, SYNTHETIC_DAYS, seed=draw(st.integers(0, 2**32 - 1))))


def hrp_and_eigen(panel):
    """The HRP result, the eigen weights and the ranked eigen candidates the default build makes of the whole panel."""
    returns = daily_returns(panel)
    cov = sample_covariance(returns)
    corr = correlation(cov)
    model = fit_pca(corr)
    eigen, ranked = select_best_eigen(returns, model, min_components_for_variance(model, 0.8))
    return build_hrp_portfolio(cov, corr), eigen, ranked


def merged_sets(tree, tickers):
    """The tickers of each merge's new cluster, in merge order."""
    clusters = [frozenset([ticker]) for ticker in tickers]
    for left, right, _, _ in tree.rows.tolist():
        clusters.append(clusters[int(left)] | clusters[int(right)])
    return clusters[len(tickers) :]


class TestMetamorphic:
    @settings(deadline=None, max_examples=40)
    @given(panel=seeded_panels(), data=st.data())
    def test_permuting_tickers_keeps_the_tree_and_permutes_the_eigen_weights(self, panel, data):
        # HRP weights are not compared: each merge puts the lower cluster id on the
        # left, so the seriation, and the bisection over it, follow the input order
        perm = data.draw(st.permutations(range(len(panel.tickers))))
        shuffled = PricePanel(tuple(panel.tickers[i] for i in perm), panel.dates, panel.closes[:, perm])
        (hrp, eigen, ranked), (hrp_shuffled, eigen_shuffled, ranked_shuffled) = map(hrp_and_eigen, (panel, shuffled))
        assert np.abs(hrp_shuffled.tree.rows[:, 2] - hrp.tree.rows[:, 2]).max() <= 1e-12
        assert merged_sets(hrp_shuffled.tree, shuffled.tickers) == merged_sets(hrp.tree, panel.tickers)
        assert ranked_shuffled[0].component_index == ranked[0].component_index
        assert np.abs(eigen_shuffled.weights - eigen.weights[perm]).max() <= 1e-9

    @settings(deadline=None, max_examples=40)
    @given(panel=seeded_panels(), data=st.data())
    def test_scaling_one_tickers_closes_keeps_seriation_and_hrp_weights(self, panel, data):
        column = data.draw(st.integers(0, len(panel.tickers) - 1))
        closes = panel.closes.copy()
        closes[:, column] *= data.draw(st.floats(1e-3, 1e3))
        hrp = hrp_and_eigen(panel)[0]
        hrp_scaled = hrp_and_eigen(PricePanel(panel.tickers, panel.dates, closes))[0]
        assert hrp_scaled.order == hrp.order
        assert np.abs(hrp_scaled.weights.weights - hrp.weights.weights).max() <= 1e-12

    @settings(deadline=None, max_examples=40)
    @given(panel=seeded_panels(), n_train=st.integers(20, 100))
    def test_memory_order_of_the_closes_changes_no_bit(self, panel, n_train):
        closes = panel.closes
        layouts = {
            "C": np.ascontiguousarray(closes),
            "F": np.asfortranarray(closes),
            "strided": np.repeat(closes, 2, axis=0)[::2],  # every other row of a larger array
        }
        train = PeriodSpec("train", panel.dates[0], panel.dates[n_train - 1])
        test = PeriodSpec("test", panel.dates[n_train], panel.dates[-1])
        outcomes = {}
        for name, values in layouts.items():
            laid_out = PricePanel(panel.tickers, panel.dates, values)
            train_panel, test_panel = slice_period(laid_out, train), slice_period(laid_out, test)
            weights, files = _build_sector(train_panel, CONFIG)
            report = evaluate(weights, train_panel, test_panel)
            outcomes[name] = (files["weights_hrp.csv"], files["weights_eigen.csv"], report_to_csv(report))
        assert outcomes["F"] == outcomes["C"]
        assert outcomes["strided"] == outcomes["C"]
