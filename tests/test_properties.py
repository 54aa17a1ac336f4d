"""Hypothesis properties of the portfolio build on random price panels.

Each panel comes from ``conftest.panel_from_returns`` over a random return
matrix: either independent noise or a low-rank factor model whose loadings
come from a small lattice, so assets repeat, offset each other exactly or
carry no risk at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_panel, panel_from_returns
from portlab.cli import _build_sector
from portlab.config import validate_config
from portlab.errors import PortlabError, ZeroVarianceAsset
from portlab.hrp import build_hrp_portfolio
from portlab.market_data import PeriodSpec, slice_period
from portlab.returns_stats import correlation, daily_returns, sample_covariance

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
        assert shaken.dates == panel.dates
        assert build_outcome(shaken, train) == build_outcome(panel, train)
